//! The layer-probe pass of a traced run, made after the measured window:
//! planning cost per query, forced-backend reruns that score the
//! planner's choice against the best single backend, and codec cost on
//! the workload's own requests and replies.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

use knmatch_core::{BatchAnswer, BatchEngine, BatchOptions, BatchOutcome, BatchQuery, PlannerMode};
use knmatch_server::protocol::{
    decode_request_frame, decode_response_frame, encode_batch_frame, encode_query_frame,
    encode_response_frame, format_query, format_response, parse_query, parse_request,
    parse_response,
};
use knmatch_server::{AnyEngine, PlannedEngine, Response, FRAME_HEADER_LEN};
use knmatch_storage::BackendChoice;

use crate::load::Wire;
use crate::report::{median, ratio};
use crate::trace::query_id;

/// Planning cost and the route of every distinct query.
#[derive(Debug, Default)]
pub struct PlanProbe {
    /// Mean `plan_for` time per query.
    pub plan_us: f64,
    /// Route per request id.
    pub routes: HashMap<u64, BackendChoice>,
}

/// Times `PlannedEngine::plan_for` on each query. Planning is a pure
/// function of data and query, so the routes recorded here are the
/// routes the served engine took.
pub fn plan(engine: &PlannedEngine, queries: &[&BatchQuery]) -> PlanProbe {
    let mut probe = PlanProbe::default();
    let mut total = 0.0;
    for q in queries {
        let t = Instant::now();
        let choice = engine.plan_for(q).expect("pool queries are valid");
        total += t.elapsed().as_secs_f64();
        probe.routes.insert(query_id(q), choice.backend);
    }
    probe.plan_us = ratio(total * 1e6, queries.len() as f64);
    probe
}

/// Result of the forced-backend reruns.
#[derive(Debug, Default)]
pub struct Forced {
    /// Σ per-query best forced time / Σ per-query time of the planner's
    /// own choice (`auto`).
    pub chosen_vs_best: f64,
    /// Summed best-of-three seconds per mode, for the report.
    pub seconds: Vec<(PlannerMode, f64)>,
    /// Reruns whose answer differed from the oracle.
    pub wrong: u64,
    pub attempted: u64,
}

const FORCED_REPS: usize = 3;

/// Reruns each `(query, oracle answer)` alone under `auto` and under
/// each backend `auto` chooses from, forced through
/// `BatchOptions::planner`, keeping the best of three timings.
pub fn forced(engine: &AnyEngine, sample: &[(&BatchQuery, &BatchAnswer)]) -> Forced {
    let modes = [
        PlannerMode::Auto,
        PlannerMode::Ad,
        PlannerMode::VaFile,
        PlannerMode::Scan,
    ];
    let mut out = Forced::default();
    let mut sums = [0.0f64; 4];
    let (mut chosen, mut best) = (0.0, 0.0);
    for (q, want) in sample {
        let batch = [(*q).clone()];
        let mut times = [0.0f64; 4];
        for (m, mode) in modes.iter().enumerate() {
            let opts = BatchOptions {
                planner: Some(*mode),
                ..BatchOptions::default()
            };
            let mut t_best = f64::INFINITY;
            for _ in 0..FORCED_REPS {
                let t = Instant::now();
                let r = black_box(engine.run_with(&batch, &opts));
                t_best = t_best.min(t.elapsed().as_secs_f64());
                out.attempted += 1;
                let right = matches!(r.first(), Some(Ok(o)) if o.answer() == *want);
                out.wrong += u64::from(!right);
            }
            times[m] = t_best;
            sums[m] += t_best;
        }
        chosen += times[0];
        best += times[1..].iter().copied().fold(f64::INFINITY, f64::min);
    }
    out.chosen_vs_best = ratio(best, chosen);
    out.seconds = modes.iter().copied().zip(sums).collect();
    out
}

const CODEC_PASSES: usize = 5;

/// Nanoseconds per query to encode and decode the workload's requests
/// and replies with the protocol's public codec functions, as the
/// client and server each do once per request. Median of five passes.
pub fn codec(wire: Wire, requests: &[Vec<BatchQuery>], answers: &[Vec<BatchAnswer>]) -> f64 {
    let replies: Vec<Vec<Response>> = answers
        .iter()
        .map(|a| a.iter().cloned().map(Response::Answer).collect())
        .collect();
    let queries: usize = requests.iter().map(Vec::len).sum();
    let batch = matches!(wire, Wire::BinBatch | Wire::TextBatch);
    let mut passes: Vec<f64> = (0..CODEC_PASSES)
        .map(|_| {
            let t = Instant::now();
            for (req, rep) in requests.iter().zip(&replies) {
                if wire.binary() {
                    binary_round(req, rep, batch);
                } else {
                    text_round(req, rep, batch);
                }
            }
            t.elapsed().as_nanos() as f64
        })
        .collect();
    ratio(median(&mut passes), queries as f64)
}

fn split_frame(frame: &[u8]) -> (u8, &[u8]) {
    (frame[1], &frame[FRAME_HEADER_LEN..])
}

fn binary_round(req: &[BatchQuery], rep: &[Response], batch: bool) {
    let mut buf = Vec::new();
    if batch {
        encode_batch_frame(req, &mut buf);
    } else {
        encode_query_frame(&req[0], &mut buf);
    }
    let (kind, payload) = split_frame(&buf);
    black_box(decode_request_frame(kind, payload).expect("own frame decodes"));
    let done = Response::Done {
        ok: rep.len() as u64,
        failed: 0,
    };
    let trailer = batch.then_some(&done);
    for r in rep.iter().chain(trailer) {
        let mut out = Vec::new();
        encode_response_frame(r, &mut out);
        let (kind, payload) = split_frame(&out);
        black_box(decode_response_frame(kind, payload).expect("own frame decodes"));
    }
}

fn text_round(req: &[BatchQuery], rep: &[Response], batch: bool) {
    if batch {
        black_box(parse_request(&format!("BATCH {}", req.len())).expect("own line parses"));
    }
    for q in req {
        black_box(parse_query(&format_query(q)).expect("own line parses"));
    }
    let done = Response::Done {
        ok: rep.len() as u64,
        failed: 0,
    };
    let trailer = batch.then_some(&done);
    for r in rep.iter().chain(trailer) {
        black_box(parse_response(&format_response(r)).expect("own line parses"));
    }
}
