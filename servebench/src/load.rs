//! Closed-loop load: each load thread owns one [`Client`] connection and
//! keeps a fixed number of requests in flight until its stop time,
//! timing each request from send to decoded reply and checking every
//! answer.

use std::collections::VecDeque;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

use knmatch_core::{BatchAnswer, BatchQuery};
use knmatch_server::protocol::{encode_query_frame, format_query};
use knmatch_server::{Client, ClientError, Response, ServedError};

use crate::alloc::{set_tag, Tag};
use crate::trace::{now_ns, query_id, ClientSpan};

/// How a request goes on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Wire {
    /// One query per binary frame.
    BinQuery,
    /// One binary `BATCH` frame per request.
    BinBatch,
    /// One text query line per request.
    TextQuery,
    /// One text `BATCH` per request.
    TextBatch,
}

impl Wire {
    pub fn binary(self) -> bool {
        matches!(self, Wire::BinQuery | Wire::BinBatch)
    }

    pub fn name(self) -> &'static str {
        match self {
            Wire::BinQuery => "binary single-query frames",
            Wire::BinBatch => "binary BATCH frames",
            Wire::TextQuery => "text query lines",
            Wire::TextBatch => "text BATCH requests",
        }
    }
}

/// A served reply: one entry per query of the request.
pub type Answers = Vec<Result<BatchAnswer, ServedError>>;

/// Counts the wrong answers of request `i` of the pool.
pub type Check<'a> = &'a (dyn Fn(usize, &Answers) -> u64 + Sync);

/// What one connection's load thread saw.
#[derive(Debug, Default)]
pub struct ConnLog {
    pub spans: Vec<ClientSpan>,
    /// Operations (queries or writes) sent.
    pub attempted: u64,
    /// Operations answered wrongly, with an error, or lost to a
    /// transport failure.
    pub failed: u64,
    /// The first failure, for the report.
    pub first_error: Option<String>,
}

/// Spans a log grows by at a time. Growing linearly keeps the heap the
/// log holds in step with the requests made; doubling would step the
/// heap by megabytes at a request count that depends on throughput.
const SPAN_CHUNK: usize = 4096;

impl ConnLog {
    pub fn record(&mut self, span: ClientSpan) {
        if self.spans.len() == self.spans.capacity() {
            self.spans.reserve_exact(SPAN_CHUNK);
        }
        self.spans.push(span);
    }

    pub fn fail(&mut self, count: u64, why: impl FnOnce() -> String) {
        self.failed += count;
        if self.first_error.is_none() {
            self.first_error = Some(why());
        }
    }
}

/// A connection with the benchmark's fixed client settings.
pub fn connect(addr: SocketAddr, binary: bool) -> Result<Client, String> {
    let mut client = Client::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    // A stuck server becomes a failed operation, not a hung benchmark.
    client
        .set_timeout(Some(Duration::from_secs(20)))
        .map_err(|e| format!("set timeout: {e}"))?;
    client.set_binary(binary);
    Ok(client)
}

fn send(
    client: &mut Client,
    wire: Wire,
    req: &[BatchQuery],
    buf: &mut Vec<u8>,
) -> Result<(), ClientError> {
    match wire {
        Wire::BinQuery => {
            buf.clear();
            encode_query_frame(&req[0], buf);
            client.send_raw(buf)?;
        }
        Wire::TextQuery => {
            buf.clear();
            buf.extend_from_slice(format_query(&req[0]).as_bytes());
            buf.push(b'\n');
            client.send_raw(buf)?;
        }
        Wire::BinBatch | Wire::TextBatch => client.send_batch(req)?,
    }
    Ok(())
}

fn recv(client: &mut Client, wire: Wire, count: usize) -> Result<Answers, ClientError> {
    match wire {
        Wire::BinQuery | Wire::TextQuery => match client.recv_response()? {
            Response::Answer(a) => Ok(vec![Ok(a)]),
            Response::Error { kind, message } => Ok(vec![Err(ServedError { kind, message })]),
            other => Err(ClientError::Unexpected(format!("{other:?}"))),
        },
        Wire::BinBatch | Wire::TextBatch => Ok(client.recv_batch(count)?.answers),
    }
}

/// One read connection's load.
pub struct ReadLoad<'a> {
    pub addr: SocketAddr,
    pub wire: Wire,
    /// Requests kept in flight.
    pub depth: usize,
    /// The request pool; connection `conn` of `conns` cycles through
    /// requests `conn, conn + conns, …`.
    pub pool: &'a [Vec<BatchQuery>],
    pub conn: usize,
    pub conns: usize,
    pub check: Check<'a>,
    /// No request is sent at or after this instant.
    pub stop: Instant,
}

/// Runs one read connection until `load.stop`, then drains its
/// in-flight requests.
pub fn drive_reads(load: &ReadLoad<'_>) -> ConnLog {
    set_tag(Tag::Client);
    let mut log = ConnLog::default();
    let mut client = match connect(load.addr, load.wire.binary()) {
        Ok(c) => c,
        Err(e) => {
            log.attempted += 1;
            log.fail(1, || e);
            return log;
        }
    };
    let mine: Vec<usize> = (load.conn..load.pool.len()).step_by(load.conns).collect();
    let mut next = 0usize;
    let mut inflight: VecDeque<(usize, u64)> = VecDeque::with_capacity(load.depth);
    let mut buf = Vec::new();
    // Queries lost when the connection breaks: `req` and all in flight.
    let lost = |req: &[BatchQuery], inflight: &VecDeque<(usize, u64)>| -> u64 {
        (req.len()
            + inflight
                .iter()
                .map(|&(j, _)| load.pool[j].len())
                .sum::<usize>()) as u64
    };
    loop {
        while inflight.len() < load.depth && Instant::now() < load.stop {
            let i = mine[next % mine.len()];
            next += 1;
            let req = &load.pool[i];
            log.attempted += req.len() as u64;
            let t = now_ns();
            if let Err(e) = send(&mut client, load.wire, req, &mut buf) {
                log.fail(lost(req, &inflight), || format!("send: {e}"));
                return log;
            }
            inflight.push_back((i, t));
        }
        let Some((i, sent)) = inflight.pop_front() else {
            break;
        };
        let req = &load.pool[i];
        match recv(&mut client, load.wire, req.len()) {
            Ok(answers) => {
                let recv_t = now_ns();
                let wrong = if answers.len() == req.len() {
                    (load.check)(i, &answers)
                } else {
                    req.len() as u64
                };
                if wrong > 0 {
                    log.fail(wrong, || {
                        format!(
                            "request {i}: {wrong} wrong answer(s), first reply {:?}",
                            answers.first()
                        )
                    });
                }
                log.record(ClientSpan {
                    id: query_id(&req[0]),
                    write: false,
                    queries: req.len() as u32,
                    send: sent,
                    recv: recv_t,
                    ok: wrong == 0,
                });
            }
            Err(e) => {
                log.fail(lost(req, &inflight), || format!("receive: {e}"));
                return log;
            }
        }
    }
    let _ = client.quit();
    log
}
