//! Bench-local tracing: a process clock, request ids, in-memory span
//! buffers, and [`BenchEngine`] — the served engine wrapped so that each
//! call into the engine and its writer leaves a span.
//!
//! Nothing inside the program is instrumented. The wrapper times the
//! engine's public `run_with` and `VersionWriter` calls from the
//! outside; the load threads time each request from send to decoded
//! reply. A client span and the engine span it caused share a request
//! id, hashed from the request's (first) query point.

use std::io::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use knmatch_core::{
    BatchEngine, BatchOptions, BatchOutcome, BatchQuery, PlanTally, PointId, Result as CoreResult,
    VersionStats, VersionWriter,
};
use knmatch_server::{AnyEngine, AnyOutcome};

use crate::alloc::{set_tag, Tag};

static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Nanoseconds since the first call — one clock for every thread.
pub fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// `t` on the [`now_ns`] clock.
pub fn instant_ns(t: Instant) -> u64 {
    t.saturating_duration_since(*EPOCH.get_or_init(Instant::now))
        .as_nanos() as u64
}

/// The request id of a query: a hash of its kind, parameters and
/// coordinates. The generators make query points unique, so the id is
/// unique per distinct request.
pub fn query_id(q: &BatchQuery) -> u64 {
    fn mix(h: u64, v: u64) -> u64 {
        let mut z = (h ^ v).wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
    let (tag, a, b, query) = match q {
        BatchQuery::KnMatch { query, k, n } => (1, *k as u64, *n as u64, query),
        BatchQuery::Frequent { query, k, n0, n1 } => {
            (2, *k as u64, ((*n0 as u64) << 32) | *n1 as u64, query)
        }
        BatchQuery::EpsMatch { query, eps, n } => (3, eps.to_bits(), *n as u64, query),
    };
    query
        .iter()
        .fold(mix(mix(tag, a), b), |h, v| mix(h, v.to_bits()))
}

/// One call into the engine's `run_with`.
#[derive(Debug, Clone, Copy)]
pub struct EngineSpan {
    /// Request id of the batch's first query.
    pub id: u64,
    /// Queries in the call.
    pub queries: u32,
    pub start: u64,
    pub end: u64,
}

/// The work one query did, from its outcome.
#[derive(Debug, Clone, Copy)]
pub struct QueryWork {
    pub id: u64,
    /// `AdStats::attributes_retrieved` (refined attributes on filter routes).
    pub attrs: u64,
    pub pops: u64,
    /// Modelled page accesses (disk engine only).
    pub pages: u64,
}

/// Which writer call a [`WriteSpan`] times.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteKind {
    Insert,
    Remove,
    Seal,
    /// A `maintain` call; `compacted` tells whether it installed a merge.
    Maintain {
        compacted: bool,
    },
}

/// One call into the engine's `VersionWriter`.
#[derive(Debug, Clone, Copy)]
pub struct WriteSpan {
    pub kind: WriteKind,
    pub start: u64,
    pub end: u64,
}

/// The in-memory span buffers, written out when the traced run ends.
#[derive(Debug, Default)]
pub struct Tracer {
    on: AtomicBool,
    pub engine: Mutex<Vec<EngineSpan>>,
    pub work: Mutex<Vec<QueryWork>>,
    pub writes: Mutex<Vec<WriteSpan>>,
    /// Largest sealed-run count seen after a traced write.
    pub runs_max: AtomicU64,
}

impl Tracer {
    pub fn set(&self, on: bool) {
        self.on.store(on, Ordering::SeqCst);
    }

    pub fn is_on(&self) -> bool {
        self.on.load(Ordering::Relaxed)
    }
}

/// The served engine plus the tracer its calls report to.
#[derive(Debug)]
pub struct BenchEngine {
    pub inner: AnyEngine,
    pub tracer: Tracer,
}

impl BenchEngine {
    pub fn new(inner: AnyEngine) -> Self {
        BenchEngine {
            inner,
            tracer: Tracer::default(),
        }
    }

    fn inner_writer(&self) -> &dyn VersionWriter {
        self.inner
            .writer()
            .expect("writer() only returns the wrapper for mutable engines")
    }

    /// Runs `f` as a traced writer call when tracing is on; `after` is
    /// the calling thread's tag outside engine calls.
    fn write_span<T>(
        &self,
        after: Tag,
        f: impl FnOnce() -> CoreResult<T>,
        kind: impl Fn(&T) -> WriteKind,
    ) -> CoreResult<T> {
        if !self.tracer.is_on() {
            return f();
        }
        set_tag(Tag::Engine);
        let start = now_ns();
        let out = f();
        let end = now_ns();
        set_tag(after);
        if let Ok(v) = &out {
            self.tracer
                .writes
                .lock()
                .expect("span buffer lock")
                .push(WriteSpan {
                    kind: kind(v),
                    start,
                    end,
                });
        }
        out
    }

    fn note_runs(&self) {
        if self.tracer.is_on() {
            let runs = self.inner_writer().version_stats().runs as u64;
            self.tracer.runs_max.fetch_max(runs, Ordering::Relaxed);
        }
    }
}

impl BatchEngine for BenchEngine {
    type Outcome = AnyOutcome;

    fn workers(&self) -> usize {
        self.inner.workers()
    }

    fn run_with(&self, queries: &[BatchQuery], opts: &BatchOptions) -> Vec<CoreResult<AnyOutcome>> {
        if !self.tracer.is_on() {
            return self.inner.run_with(queries, opts);
        }
        set_tag(Tag::Engine);
        let start = now_ns();
        let out = self.inner.run_with(queries, opts);
        let end = now_ns();
        set_tag(Tag::Executor);
        let work: Vec<QueryWork> = queries
            .iter()
            .zip(&out)
            .filter_map(|(q, r)| {
                let o = r.as_ref().ok()?;
                let ad = o.ad_stats();
                Some(QueryWork {
                    id: query_id(q),
                    attrs: ad.attributes_retrieved,
                    pops: ad.heap_pops,
                    pages: o.io().map_or(0, |io| io.page_accesses()),
                })
            })
            .collect();
        if let Some(first) = queries.first() {
            self.tracer
                .engine
                .lock()
                .expect("span buffer lock")
                .push(EngineSpan {
                    id: query_id(first),
                    queries: queries.len() as u32,
                    start,
                    end,
                });
        }
        self.tracer
            .work
            .lock()
            .expect("span buffer lock")
            .extend(work);
        out
    }

    fn plan_counts(&self) -> Option<PlanTally> {
        self.inner.plan_counts()
    }

    fn writer(&self) -> Option<&dyn VersionWriter> {
        self.inner.writer().map(|_| self as &dyn VersionWriter)
    }
}

impl VersionWriter for BenchEngine {
    fn insert(&self, key: PointId, point: &[f64]) -> CoreResult<u64> {
        let out = self.write_span(
            Tag::Reactor,
            || self.inner_writer().insert(key, point),
            |_| WriteKind::Insert,
        );
        self.note_runs();
        out
    }

    fn remove(&self, key: PointId) -> CoreResult<u64> {
        let out = self.write_span(
            Tag::Reactor,
            || self.inner_writer().remove(key),
            |_| WriteKind::Remove,
        );
        self.note_runs();
        out
    }

    fn seal(&self) -> CoreResult<u64> {
        self.write_span(
            Tag::Reactor,
            || self.inner_writer().seal(),
            |_| WriteKind::Seal,
        )
    }

    fn needs_maintenance(&self) -> bool {
        self.inner_writer().needs_maintenance()
    }

    fn maintain(&self) -> CoreResult<bool> {
        // Runs on an executor thread, unlike the other writer calls.
        self.write_span(
            Tag::Executor,
            || self.inner_writer().maintain(),
            |&compacted| WriteKind::Maintain { compacted },
        )
    }

    fn epoch(&self) -> u64 {
        self.inner_writer().epoch()
    }

    fn version_stats(&self) -> VersionStats {
        self.inner_writer().version_stats()
    }
}

/// One request as the load thread saw it, from send to decoded reply.
#[derive(Debug, Clone, Copy)]
pub struct ClientSpan {
    /// Request id of the first query (0 for writes).
    pub id: u64,
    pub write: bool,
    /// Queries the request carried (1 for writes).
    pub queries: u32,
    pub send: u64,
    pub recv: u64,
    /// The reply was checked and correct.
    pub ok: bool,
}

/// Writes every span of a traced run to `path`, one per line.
pub fn dump(
    path: &std::path::Path,
    clients: &[ClientSpan],
    tracer: &Tracer,
) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "# layer id queries start_ns end_ns extra")?;
    for s in clients {
        let layer = if s.write {
            "client.write"
        } else {
            "client.read"
        };
        writeln!(
            out,
            "{layer} {:016x} {} {} {} ok={}",
            s.id, s.queries, s.send, s.recv, s.ok
        )?;
    }
    for s in tracer.engine.lock().expect("span buffer lock").iter() {
        writeln!(
            out,
            "engine.run {:016x} {} {} {}",
            s.id, s.queries, s.start, s.end
        )?;
    }
    for w in tracer.work.lock().expect("span buffer lock").iter() {
        writeln!(
            out,
            "engine.work {:016x} 1 0 0 attrs={} pops={} pages={}",
            w.id, w.attrs, w.pops, w.pages
        )?;
    }
    for s in tracer.writes.lock().expect("span buffer lock").iter() {
        let (layer, extra) = match s.kind {
            WriteKind::Insert => ("insert", ""),
            WriteKind::Remove => ("remove", ""),
            WriteKind::Seal => ("seal", ""),
            WriteKind::Maintain { compacted } => (
                "maintain",
                if compacted {
                    "compacted=1"
                } else {
                    "compacted=0"
                },
            ),
        };
        writeln!(out, "versioned.{layer} 0 1 {} {} {extra}", s.start, s.end)?;
    }
    out.flush()
}
