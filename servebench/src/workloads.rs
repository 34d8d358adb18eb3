//! The four workloads: inputs generated from the seed, the oracle
//! precomputed outside the timed window, the served run, and the
//! metrics.

use std::collections::{HashMap, HashSet};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::{Duration, Instant};

use knmatch_core::{BatchAnswer, BatchQuery, Dataset, KnMatchResult, PointId};
use knmatch_data::rng::Rng64;
use knmatch_data::synthetic::{skewed, uniform};
use knmatch_server::{AnyEngine, Client, ServerExtras, StatsSnapshot};
use knmatch_storage::{BackendChoice, DiskDatabase};

use crate::load::{connect, drive_reads, Answers, ConnLog, ReadLoad, Wire};
use crate::measure::{end_to_end, rates, run_load, LoadFn, Run};
use crate::oracle::{self, nth_diff, par_map, Rows};
use crate::probe::{self, Forced, PlanProbe};
use crate::report::{median, memory_mb, quantile, ratio, Metrics, Obj};
use crate::serve::{describe, serve_repeated, EngineKind, POOL_PAGES};
use crate::trace::{self, now_ns, BenchEngine, ClientSpan, EngineSpan, QueryWork, WriteKind};

/// A workload's name and why it is in the benchmark (as in
/// `BENCHMARK.json`).
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "read_point",
        why: "single-query binary frames on a planned engine: reactor, protocol, client and planning cost dominate each few-microsecond AD walk",
    },
    Workload {
        name: "read_batch",
        why: "32-query text batches straddling the AD/VA-file crossover: execution, planner choices and per-batch fan-out dominate",
    },
    Workload {
        name: "ingest_mixed",
        why: "inserts and deletes beside k-n-match reads on the versioned index, through seals and several compaction cycles",
    },
    Workload {
        name: "disk_read",
        why: "binary batches on the disk engine with a buffer pool far smaller than the columns: storage, checksums and disk AD",
    },
];

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

/// What a run prints.
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub first_error: Option<String>,
    /// The metrics of the result line.
    pub metrics: Metrics,
    /// Figures reported beside them, in the description line.
    pub extra: Metrics,
    pub meta: Obj,
}

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Load connections, one load thread each.
const CONNS: usize = 2;
/// Answer-set size of every k-n-match query.
const K: usize = 10;
/// Half-width of the uniform noise added to a data point to make a query.
const NOISE: f64 = 0.01;
/// Threads computing the oracle during set-up.
const ORACLE_THREADS: usize = 2;
/// Queries timed under each forced backend in a traced run.
const FORCED_SAMPLE: usize = 48;

pub fn run(args: &Args) -> Result<Report, String> {
    let spec = match args.workload.as_str() {
        "read_point" => read_point,
        "read_batch" => read_batch,
        "disk_read" => disk_read,
        "ingest_mixed" => return Ok(run_ingest(args)),
        other => return Err(format!("unknown workload {other:?}")),
    };
    let t = Instant::now();
    let spec = spec(args.seed);
    let inputs_s = t.elapsed().as_secs_f64();
    Ok(run_read(args, spec, inputs_s))
}

fn why(name: &str) -> &'static str {
    WORKLOADS
        .iter()
        .find(|w| w.name == name)
        .map_or("", |w| w.why)
}

// ---------------------------------------------------------------------
// Inputs

/// A read workload: data, request pool, and the oracle's answers.
struct ReadSpec {
    name: &'static str,
    kind: EngineKind,
    wire: Wire,
    depth: usize,
    data: Dataset,
    pool: Vec<Vec<BatchQuery>>,
    answers: Vec<Vec<BatchAnswer>>,
    shape: String,
}

fn rng(seed: u64, salt: u64) -> Rng64 {
    Rng64::new(seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// A data point plus uniform noise in `[-NOISE, NOISE)` per dimension.
fn perturbed(ds: &Dataset, rng: &mut Rng64) -> Vec<f64> {
    let p = ds.point(rng.range_usize(0..ds.len()) as PointId);
    p.iter().map(|v| v + rng.range_f64(-NOISE, NOISE)).collect()
}

/// Builds `requests` requests of `per` queries; `make(i)` draws query
/// `i` of the pool (numbered across requests). A query whose request id
/// was already used is redrawn, so ids are unique.
fn unique_pool(
    requests: usize,
    per: usize,
    mut make: impl FnMut(usize) -> BatchQuery,
) -> Vec<Vec<BatchQuery>> {
    let mut seen = HashSet::new();
    (0..requests)
        .map(|r| {
            (0..per)
                .map(|j| loop {
                    let q = make(r * per + j);
                    if seen.insert(trace::query_id(&q)) {
                        break q;
                    }
                })
                .collect()
        })
        .collect()
}

/// Fills in ε-match thresholds (drawn as NaN: the 20th-smallest n-match
/// difference of the query) and computes the oracle's answers.
fn with_oracle(
    ds: &Dataset,
    pool: Vec<Vec<BatchQuery>>,
) -> (Vec<Vec<BatchQuery>>, Vec<Vec<BatchAnswer>>) {
    let shape: Vec<usize> = pool.iter().map(Vec::len).collect();
    let flat: Vec<BatchQuery> = pool.into_iter().flatten().collect();
    let done = par_map(&flat, ORACLE_THREADS, |q| {
        let q = match q {
            BatchQuery::EpsMatch { query, eps, n } if eps.is_nan() => BatchQuery::EpsMatch {
                eps: oracle::k_n_match(ds, query, 20, *n).entries[19].diff,
                query: query.clone(),
                n: *n,
            },
            q => q.clone(),
        };
        let a = oracle::answer(ds, &q);
        (q, a)
    });
    let mut it = done.into_iter();
    shape
        .iter()
        .map(|&len| it.by_ref().take(len).unzip::<_, _, Vec<_>, Vec<_>>())
        .unzip()
}

fn read_point(seed: u64) -> ReadSpec {
    let data = uniform(200_000, 16, seed);
    let mut r = rng(seed, 1);
    let pool = unique_pool(1024, 1, |i| BatchQuery::KnMatch {
        query: perturbed(&data, &mut r),
        k: K,
        n: 1 + i % 2,
    });
    let (pool, answers) = with_oracle(&data, pool);
    ReadSpec {
        name: "read_point",
        kind: EngineKind::Planned,
        wire: Wire::BinQuery,
        depth: 8,
        data,
        pool,
        answers,
        shape: "uniform c=200000 d=16; k-n-match k=10 n in {1,2}; 1 query per request".into(),
    }
}

fn read_batch(seed: u64) -> ReadSpec {
    let data = skewed(100_000, 16, seed);
    let mut r = rng(seed, 2);
    // Every batch carries the same mix, in its own shuffled order:
    // 20 k-n-match (5 each at n = 4, 8, 12, 16), 6 frequent over [1, 8],
    // 6 ε-match (3 each at n = 4, 8).
    let mut mix: Vec<u8> = [4u8, 8, 12, 16]
        .iter()
        .flat_map(|&n| [n; 5])
        .chain([0; 6])
        .chain([100 + 4, 100 + 4, 100 + 4, 100 + 8, 100 + 8, 100 + 8])
        .collect();
    let pool = unique_pool(24, 32, |i| {
        if i % 32 == 0 {
            r.shuffle(&mut mix);
        }
        let query = perturbed(&data, &mut r);
        match mix[i % 32] {
            0 => BatchQuery::Frequent {
                query,
                k: K,
                n0: 1,
                n1: 8,
            },
            n @ 1..=16 => BatchQuery::KnMatch {
                query,
                k: K,
                n: usize::from(n),
            },
            e => BatchQuery::EpsMatch {
                query,
                eps: f64::NAN,
                n: usize::from(e - 100),
            },
        }
    });
    let (pool, answers) = with_oracle(&data, pool);
    ReadSpec {
        name: "read_batch",
        kind: EngineKind::Planned,
        wire: Wire::TextBatch,
        depth: 1,
        data,
        pool,
        answers,
        shape: "skewed c=100000 d=16; 32 queries per request: 20 k-n-match k=10 (5 each n=4,8,12,16), \
                6 frequent k-n-match k=10 over [1,8], 6 eps-match (3 each n=4,8) at the 20th-nearest difference"
            .into(),
    }
}

fn disk_read(seed: u64) -> ReadSpec {
    let data = uniform(200_000, 16, seed);
    let mut r = rng(seed, 4);
    let pool = unique_pool(192, 8, |i| BatchQuery::KnMatch {
        query: perturbed(&data, &mut r),
        k: K,
        n: [1, 2, 4][i % 3],
    });
    let (pool, answers) = with_oracle(&data, pool);
    ReadSpec {
        name: "disk_read",
        kind: EngineKind::Disk,
        wire: Wire::BinBatch,
        depth: 2,
        data,
        pool,
        answers,
        shape: format!(
            "uniform c=200000 d=16 in a .knm file, {POOL_PAGES}-page pool; k-n-match k=10 n in {{1,2,4}}; 8 queries per request"
        ),
    }
}

/// Where the disk workload writes its database file: beside the
/// benchmark executable, inside the build directory.
fn work_dir() -> PathBuf {
    let dir = std::env::current_exe()
        .ok()
        .and_then(|p| p.parent().map(|d| d.join("servebench-work")))
        .unwrap_or_else(|| PathBuf::from("servebench-work"));
    std::fs::create_dir_all(&dir).expect("create the work directory");
    dir
}

// ---------------------------------------------------------------------
// Read workloads

fn run_read(args: &Args, spec: ReadSpec, inputs_s: f64) -> Report {
    let ReadSpec {
        name,
        kind,
        wire,
        depth,
        data,
        pool,
        answers,
        shape,
    } = spec;
    let check = |i: usize, got: &Answers| -> u64 {
        got.iter()
            .zip(&answers[i])
            .filter(|(g, want)| !matches!(g, Ok(a) if a == *want))
            .count() as u64
    };
    let db_path = work_dir().join(format!("{name}-{}-{}.knm", args.seed, std::process::id()));
    let build = || -> AnyEngine {
        match kind {
            EngineKind::Disk => {
                drop(
                    DiskDatabase::create_file(&db_path, &data, POOL_PAGES)
                        .expect("build the .knm file"),
                );
                kind.config()
                    .open(db_path.to_str().expect("utf-8 path"))
                    .expect("open the .knm file")
            }
            _ => kind.config().build_in_memory(&data),
        }
    };
    let reps = if args.trace { 1 } else { SETUP_REPS };
    let (mut setups, (run, layers)) = serve_repeated(reps, build, |server, addr| {
        let loads: Vec<LoadFn<'_>> = (0..CONNS)
            .map(|conn| {
                let (pool, check) = (&pool, &check);
                Box::new(move |stop| {
                    drive_reads(&ReadLoad {
                        addr,
                        wire,
                        depth,
                        pool,
                        conn,
                        conns: CONNS,
                        check,
                        stop,
                    })
                }) as LoadFn<'_>
            })
            .collect();
        let run = run_load(server, addr, args.seconds as f64, args.trace, loads);
        let layers = args.trace.then(|| {
            let engine = server.engine();
            let flat: Vec<(&BatchQuery, &BatchAnswer)> = pool
                .iter()
                .flatten()
                .zip(answers.iter().flatten())
                .collect();
            let (plan, forced) = match &engine.inner {
                AnyEngine::Planned(p) => {
                    let qs: Vec<&BatchQuery> = flat.iter().map(|(q, _)| *q).collect();
                    let step = (flat.len() / FORCED_SAMPLE).max(1);
                    let sample: Vec<_> = flat
                        .iter()
                        .step_by(step)
                        .take(FORCED_SAMPLE)
                        .copied()
                        .collect();
                    (
                        Some(probe::plan(p, &qs)),
                        Some(probe::forced(&engine.inner, &sample)),
                    )
                }
                _ => (None, None),
            };
            let probes = Probes {
                plan,
                forced,
                codec_ns: probe::codec(wire, &pool, &answers),
                wire,
            };
            per_layer(name, &run, engine, data.dims(), &probes)
        });
        (run, layers)
    });
    let _ = std::fs::remove_file(&db_path);
    let mut attempted = run.attempted();
    let mut failed = run.failed();
    let mut first_error = run.first_error();
    let mut meta = common_meta(args, name, kind)
        .str("workload_shape", &shape)
        .num("inputs_and_oracle_s", inputs_s)
        .str(
            "load",
            &format!(
                "closed loop, {CONNS} connections x {depth} in flight, {}",
                wire.name()
            ),
        );
    let mut extra = Metrics::default();
    let metrics = match layers {
        None => {
            let setup = median(&mut setups);
            let (m, e, reads, _) = end_to_end(&run, setup);
            extra = e;
            meta = meta
                .raw("not_gated", extra.to_json())
                .raw("setup_s_each", json_list(&setups))
                .num("vm_hwm_mb", memory_mb("VmHWM"))
                .num("heap_peak_mb", run.heap_peak_mb)
                .num("read_requests_in_window", reads.requests as f64)
                .num(
                    "read_queries_per_request",
                    ratio(
                        pool.iter().map(Vec::len).sum::<usize>() as f64,
                        pool.len() as f64,
                    ),
                );
            m
        }
        Some((m, extra)) => {
            attempted += extra.attempted;
            failed += extra.wrong;
            if extra.wrong > 0 && first_error.is_none() {
                first_error = Some("a forced-backend rerun differed from the oracle".into());
            }
            meta = meta.raw("trace", extra.meta.render());
            m
        }
    };
    Report {
        attempted,
        failed,
        first_error,
        metrics,
        extra,
        meta: with_steal(meta, &run),
    }
}

/// Adds the host's CPU steal during the window to the description.
fn with_steal(meta: Obj, run: &Run) -> Obj {
    match run.steal_share {
        Some(share) => meta.num("host_steal_share", share),
        None => meta.str("host_steal_share", "unavailable"),
    }
}

fn json_list(xs: &[f64]) -> String {
    let items: Vec<String> = xs.iter().map(|x| crate::report::json_num(*x)).collect();
    format!("[{}]", items.join(", "))
}

fn common_meta(args: &Args, name: &str, kind: EngineKind) -> Obj {
    Obj::default()
        .str("benchmark", "servebench")
        .str("workload", name)
        .str("why", why(name))
        .num("seed", args.seed as f64)
        .num("seconds", args.seconds as f64)
        .num("warmup_s", crate::measure::WARMUP.as_secs_f64())
        .num("trace", f64::from(u8::from(args.trace)))
        .raw("host", crate::report::host().render())
        .raw("config", describe(kind).render())
}

// ---------------------------------------------------------------------
// Per-layer metrics of a traced run

/// Extra outcome of the traced run beyond its metrics.
struct TraceExtra {
    attempted: u64,
    wrong: u64,
    meta: Obj,
}

fn delta<T>(a: &Option<T>, b: &Option<T>, f: impl Fn(&T) -> u64) -> f64 {
    match (a, b) {
        (Some(a), Some(b)) => f(b).saturating_sub(f(a)) as f64,
        _ => 0.0,
    }
}

/// What the layer-probe pass measured after the window.
struct Probes {
    /// Planned engines only.
    plan: Option<PlanProbe>,
    forced: Option<Forced>,
    codec_ns: f64,
    wire: Wire,
}

/// Every per-layer metric of a traced run.
/// Layers a workload's path does not use report 0.
fn per_layer(
    name: &str,
    run: &Run,
    engine: &BenchEngine,
    dims: usize,
    probes: &Probes,
) -> (Metrics, TraceExtra) {
    let (plan, forced) = (probes.plan.as_ref(), probes.forced.as_ref());
    let (before, after) = run.snaps.as_ref().expect("a traced run has snapshots");
    // Counter deltas cover the whole window; spans and allocation counts
    // only its traced slices.
    let requests = run.spans(&run.window()).count() as f64;
    let clients: Vec<&ClientSpan> = run.spans(&run.traced).collect();
    let reads: Vec<&ClientSpan> = clients.iter().copied().filter(|s| !s.write).collect();
    let read_queries: f64 = reads.iter().map(|s| s.queries as f64).sum();
    let writes = clients.len() - reads.len();
    let ops = read_queries + writes as f64;
    let tracer = &engine.tracer;
    let spans: Vec<EngineSpan> = tracer.engine.lock().expect("span buffer lock").clone();
    let mut m = Metrics::default();

    // reactor: client span minus the engine span it caused, split at the
    // engine call — send to engine entry, engine exit to decoded reply.
    let mut by_id: HashMap<u64, Vec<&EngineSpan>> = HashMap::new();
    for e in &spans {
        by_id.entry(e.id).or_default().push(e);
    }
    let (mut ingress, mut egress) = (Vec::new(), Vec::new());
    for c in &reads {
        let hit = by_id
            .get(&c.id)
            .and_then(|v| v.iter().find(|e| e.start >= c.send && e.end <= c.recv));
        if let Some(e) = hit {
            ingress.push((e.start - c.send) as f64 / 1e3);
            egress.push((c.recv - e.end) as f64 / 1e3);
        }
    }
    let matched = ingress.len();
    let (sa, sb) = (&before.stats, &after.stats);
    let extras = |f: fn(&ServerExtras) -> u64| {
        delta(
            &sa.as_ref().and_then(|s| s.extras),
            &sb.as_ref().and_then(|s| s.extras),
            f,
        )
    };
    let server = |f: fn(&StatsSnapshot) -> u64| {
        delta(
            &sa.as_ref().map(|s| s.server),
            &sb.as_ref().map(|s| s.server),
            f,
        )
    };
    m.add("reactor.ingress_us", median(&mut ingress), "us");
    m.add("reactor.egress_us", median(&mut egress), "us");
    m.add(
        "reactor.polls_per_request",
        ratio(extras(|e| e.poll_iterations), requests),
        "count",
    );
    m.add(
        "reactor.events_per_request",
        ratio(extras(|e| e.events_dispatched), requests),
        "count",
    );
    m.add(
        "reactor.writev_per_request",
        ratio(extras(|e| e.writev_calls), requests),
        "count",
    );
    m.add("reactor.queries_shed", extras(|e| e.queries_shed), "count");

    // protocol, per operation served: queries plus acknowledged writes.
    let served = server(|s| s.queries)
        + delta(
            &sa.as_ref().and_then(|s| s.version),
            &sb.as_ref().and_then(|s| s.version),
            |v| v.writes,
        );
    m.add(
        "protocol.bytes_in_per_query",
        ratio(server(|s| s.bytes_in), served),
        "B",
    );
    m.add(
        "protocol.bytes_out_per_query",
        ratio(server(|s| s.bytes_out), served),
        "B",
    );
    m.add("protocol.codec_ns_per_query", probes.codec_ns, "ns");

    // planner
    let plans = |f: fn(&knmatch_core::PlanTally) -> u64| delta(&before.plans, &after.plans, f);
    let planned = plans(|p| p.total());
    m.add("planner.plan_us", plan.map_or(0.0, |p| p.plan_us), "us");
    m.add("planner.route_ad", ratio(plans(|p| p.ad), planned), "share");
    m.add(
        "planner.route_vafile",
        ratio(plans(|p| p.vafile), planned),
        "share",
    );
    m.add(
        "planner.route_scan",
        ratio(plans(|p| p.scan), planned),
        "share",
    );
    m.add(
        "planner.chosen_vs_best",
        forced.map_or(0.0, |f| f.chosen_vs_best),
        "ratio",
    );

    // engine, ad, filter
    let mut run_us: Vec<f64> = spans
        .iter()
        .map(|e| (e.end - e.start) as f64 / 1e3)
        .collect();
    let engine_queries: f64 = spans.iter().map(|e| e.queries as f64).sum();
    let engine_total: f64 = run_us.iter().sum();
    m.add("engine.run_us", median(&mut run_us), "us");
    m.add(
        "engine.run_us_per_query",
        ratio(engine_total, engine_queries),
        "us",
    );
    let work = tracer.work.lock().expect("span buffer lock").clone();
    let route = |id: u64| {
        plan.and_then(|p| p.routes.get(&id).copied())
            .unwrap_or(BackendChoice::Ad)
    };
    let (ad, filtered): (Vec<&QueryWork>, Vec<&QueryWork>) =
        work.iter().partition(|w| route(w.id) == BackendChoice::Ad);
    let ad_n = ad.len() as f64;
    m.add(
        "ad.attrs_per_query",
        ratio(ad.iter().map(|w| w.attrs as f64).sum(), ad_n),
        "count",
    );
    m.add(
        "ad.pops_per_query",
        ratio(ad.iter().map(|w| w.pops as f64).sum(), ad_n),
        "count",
    );
    m.add(
        "filter.refined_per_query",
        ratio(
            filtered.iter().map(|w| w.attrs as f64 / dims as f64).sum(),
            filtered.len() as f64,
        ),
        "count",
    );

    // versioned
    let wspans = tracer.writes.lock().expect("span buffer lock").clone();
    let us_of = |kind: WriteKind| -> Vec<f64> {
        wspans
            .iter()
            .filter(|w| w.kind == kind)
            .map(|w| (w.end - w.start) as f64 / 1e3)
            .collect()
    };
    let compactions: Vec<_> = wspans
        .iter()
        .filter(|w| w.kind == WriteKind::Maintain { compacted: true })
        .collect();
    let mut maintain_ms: Vec<f64> = compactions
        .iter()
        .map(|w| (w.end - w.start) as f64 / 1e6)
        .collect();
    let mut in_maintain: Vec<f64> = reads
        .iter()
        .filter(|c| {
            compactions
                .iter()
                .any(|w| c.send < w.end && c.recv > w.start)
        })
        .map(|c| (c.recv - c.send) as f64 / 1e3)
        .collect();
    let version =
        |f: fn(&knmatch_core::VersionStats) -> u64| delta(&before.version, &after.version, f);
    m.add(
        "versioned.insert_us",
        median(&mut us_of(WriteKind::Insert)),
        "us",
    );
    m.add(
        "versioned.remove_us",
        median(&mut us_of(WriteKind::Remove)),
        "us",
    );
    m.add("versioned.maintain_ms", median(&mut maintain_ms), "ms");
    m.add("versioned.maintain_count", version(|v| v.merges), "count");
    m.add("versioned.seals", version(|v| v.seals), "count");
    m.add(
        "versioned.runs_max",
        tracer.runs_max.load(Ordering::Relaxed) as f64,
        "count",
    );
    m.add(
        "versioned.tombstones_end",
        after.version.map_or(0.0, |v| v.tombstones as f64),
        "count",
    );
    m.add(
        "versioned.read_p99_in_maintain_us",
        quantile(&mut in_maintain, 0.99),
        "us",
    );

    // storage
    let pool = |f: fn(&knmatch_storage::IoStats) -> u64| delta(&before.pool, &after.pool, f);
    let (hits, misses) = (
        pool(|p| p.hits),
        pool(|p| p.sequential_reads + p.random_reads),
    );
    let disk = before.pool.is_some();
    let disk_queries = if disk { work.len() as f64 } else { 0.0 };
    m.add(
        "storage.pages_per_query",
        ratio(work.iter().map(|w| w.pages as f64).sum(), disk_queries),
        "count",
    );
    m.add(
        "storage.pool_hit_ratio",
        ratio(hits, hits + misses),
        "ratio",
    );
    m.add(
        "storage.store_reads_per_query",
        ratio(misses, disk_queries),
        "count",
    );
    m.add("storage.retries", pool(|p| p.retries), "count");

    // process
    let allocs = after.allocs.0 - before.allocs.0;
    let engine_allocs = after.allocs.1 - before.allocs.1;
    m.add("alloc.per_query", ratio(allocs as f64, ops), "count");
    m.add(
        "alloc.engine_per_query",
        ratio(engine_allocs as f64, ops),
        "count",
    );
    let untraced = rates(run, &run.untraced, &|s| !s.write);
    let traced = rates(run, &run.traced, &|s| !s.write);
    m.add(
        "trace.overhead",
        ratio(untraced.per_s, traced.per_s),
        "ratio",
    );
    let w = rates(run, &run.traced, &|s| s.write);
    m.add("write.ops_s", w.per_s, "1/s");
    m.add("write.p50_us", w.p50_us, "us");
    m.add("write.p99_us", w.p99_us, "us");
    // Reads and tails of the untraced slices: reported here, without a
    // bound, because host CPU steal moves them more than the program does.
    m.add("read.qps", untraced.per_s, "1/s");
    m.add("read.p50_us", untraced.p50_us, "us");
    m.add("tail.read_p99_us", untraced.p99_us, "us");
    m.add(
        "tail.ops_p99_us",
        rates(run, &run.untraced, &|_| true).p99_us,
        "us",
    );

    let mut meta = Obj::default()
        .str("window", "alternating 0.5 s untraced and traced slices; counter deltas over the whole window")
        .num("untraced_read_qps", untraced.per_s)
        .num("traced_read_qps", traced.per_s)
        .num("requests_in_window", requests)
        .num("traced_requests", clients.len() as f64)
        .num("client_engine_spans_matched", matched as f64)
        .num("engine_spans", spans.len() as f64)
        .num("versioned_write_spans", wspans.len() as f64)
        .str("codec", if probes.wire.binary() { "binary frames" } else { "text lines" })
        .str("alloc_scope", "process-wide, per read query or write; engine = inside run_with/VersionWriter calls and the engine's per-batch worker threads");
    if let Some(f) = forced {
        let per_mode: Vec<String> = f
            .seconds
            .iter()
            .map(|(mode, s)| {
                format!(
                    "{}: {}",
                    crate::report::json_str(mode.as_str()),
                    crate::report::json_num(*s)
                )
            })
            .collect();
        meta = meta.raw("forced_seconds", format!("{{{}}}", per_mode.join(", ")));
    }
    let spans_path = work_dir().join(format!("trace-{name}.spans"));
    let owned: Vec<ClientSpan> = clients.iter().map(|s| **s).collect();
    match trace::dump(&spans_path, &owned, tracer) {
        Ok(()) => meta = meta.str("spans_file", &spans_path.display().to_string()),
        Err(e) => meta = meta.str("spans_file", &format!("not written: {e}")),
    }
    let extra = TraceExtra {
        attempted: forced.map_or(0, |f| f.attempted),
        wrong: forced.map_or(0, |f| f.wrong),
        meta,
    };
    (m, extra)
}

// ---------------------------------------------------------------------
// Mixed reads and writes

/// Initial rows of the versioned index.
const INGEST_ROWS: usize = 50_000;
const INGEST_DIMS: usize = 8;
/// Every this many writer operations is a delete of a live key.
const DELETE_EVERY: u64 = 8;
/// The writer's mean gap between writes: 900 writes per second, below
/// what the served index sustains beside the reader, so that writes do
/// not take CPU from reads in proportions that vary from run to run, and
/// the index seals about every 1.3 s and compacts about every 10 s. Gaps
/// are drawn from an exponential distribution, so the writer cannot
/// settle into a fixed phase against the reader's loop.
const WRITE_INTERVAL: Duration = Duration::from_micros(1111);
/// Writer operations between checkpoints.
const CHECK_EVERY: u64 = 2048;
/// Reads compared with the oracle at each checkpoint.
const CHECK_QUERIES: usize = 4;

/// The coordinates inserted under `key` (a key never inserted before):
/// a pure function of seed and key, so the reader can recompute any
/// row it sees in an answer.
fn inserted_row(seed: u64, key: PointId, dims: usize) -> Vec<f64> {
    let mut r = rng(seed ^ (u64::from(key) << 20), 5);
    (0..dims).map(|_| r.next_f64()).collect()
}

/// The benchmark's own copy of the live rows.
struct LiveCopy<'a> {
    base: &'a Dataset,
    /// Rows of inserted keys, `(key - base.len()) * dims` onwards.
    added: Vec<f64>,
    live: Vec<PointId>,
    /// Index in `live` per key, `usize::MAX` once deleted.
    pos: Vec<usize>,
}

impl LiveCopy<'_> {
    fn row(&self, key: PointId) -> &[f64] {
        let c = self.base.len();
        let k = key as usize;
        if k < c {
            self.base.point(key)
        } else {
            let d = self.base.dims();
            &self.added[(k - c) * d..(k - c + 1) * d]
        }
    }

    fn insert(&mut self, key: PointId, row: &[f64]) {
        self.added.extend_from_slice(row);
        self.pos.push(self.live.len());
        self.live.push(key);
    }

    fn remove_at(&mut self, idx: usize) {
        let key = self.live.swap_remove(idx);
        self.pos[key as usize] = usize::MAX;
        if let Some(&moved) = self.live.get(idx) {
            self.pos[moved as usize] = idx;
        }
    }
}

impl Rows for LiveCopy<'_> {
    fn for_each_row(&self, f: &mut dyn FnMut(PointId, &[f64])) {
        for &key in &self.live {
            f(key, self.row(key));
        }
    }
}

fn random_point(r: &mut Rng64, dims: usize) -> Vec<f64> {
    (0..dims).map(|_| r.next_f64()).collect()
}

/// Pauses the writer: compares `EPOCH`'s live count with the copy and a
/// few reads with the oracle over the copy.
fn checkpoint(client: &mut Client, copy: &LiveCopy<'_>, r: &mut Rng64, log: &mut ConnLog) {
    log.attempted += 1;
    match client.epoch() {
        Ok(Ok(info)) if info.live == copy.live.len() as u64 => {}
        other => log.fail(1, || {
            format!(
                "checkpoint EPOCH {other:?}, copy holds {} live rows",
                copy.live.len()
            )
        }),
    }
    for _ in 0..CHECK_QUERIES {
        let query = random_point(r, copy.base.dims());
        let n = [2, 4][r.range_usize(0..2)];
        let want = BatchAnswer::KnMatch(oracle::k_n_match(copy, &query, K, n));
        log.attempted += 1;
        match client.query(&BatchQuery::KnMatch { query, k: K, n }) {
            Ok(Ok(got)) if got == want => {}
            other => log.fail(1, || format!("checkpoint read {other:?}, oracle {want:?}")),
        }
    }
}

/// The writer connection: inserts new keys, deletes a live key every
/// [`DELETE_EVERY`]th operation, and checkpoints every [`CHECK_EVERY`],
/// one write per [`WRITE_INTERVAL`] on average.
fn drive_writes(
    addr: std::net::SocketAddr,
    base: &Dataset,
    seed: u64,
    issued: &AtomicU32,
    stop: Instant,
) -> ConnLog {
    crate::alloc::set_tag(crate::alloc::Tag::Client);
    let mut log = ConnLog::default();
    let mut client = match connect(addr, false) {
        Ok(c) => c,
        Err(e) => {
            log.attempted += 1;
            log.fail(1, || e);
            return log;
        }
    };
    let c = base.len();
    let mut copy = LiveCopy {
        base,
        added: Vec::new(),
        live: (0..c as PointId).collect(),
        pos: (0..c).collect(),
    };
    let mut r = rng(seed, 6);
    let mut check_rng = rng(seed, 7);
    let mut op = 0u64;
    let mut pace = rng(seed, 8);
    let mut due = Instant::now();
    while due < stop {
        // Paced on a seeded Poisson schedule: a writer that fell a little
        // behind sends back to back until it is on time again; one that
        // fell far behind restarts the schedule instead of bursting.
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        } else if now - due > WRITE_INTERVAL * 16 {
            due = now;
        }
        due += WRITE_INTERVAL.mul_f64(-(1.0 - pace.next_f64()).ln());
        op += 1;
        log.attempted += 1;
        let send = now_ns();
        let (reply, del) = if op.is_multiple_of(DELETE_EVERY) {
            let idx = r.range_usize(0..copy.live.len());
            (client.delete(copy.live[idx]), Some(idx))
        } else {
            let key = issued.load(Ordering::SeqCst);
            let row = inserted_row(seed, key, base.dims());
            // Published before sending, so a reader that sees `key` in
            // an answer can always recompute its row.
            issued.store(key + 1, Ordering::SeqCst);
            let reply = client.insert(key, &row);
            if matches!(reply, Ok(Ok(_))) {
                copy.insert(key, &row);
            }
            (reply, None)
        };
        let recv = now_ns();
        let ok = match reply {
            Ok(Ok(_)) => {
                if let Some(idx) = del {
                    copy.remove_at(idx);
                }
                true
            }
            Ok(Err(e)) => {
                log.fail(1, || format!("write {op}: {e}"));
                false
            }
            Err(e) => {
                log.fail(1, || format!("write {op}: {e}"));
                return log;
            }
        };
        log.record(ClientSpan {
            id: 0,
            write: true,
            queries: 1,
            send,
            recv,
            ok,
        });
        if op.is_multiple_of(CHECK_EVERY) {
            checkpoint(&mut client, &copy, &mut check_rng, &mut log);
        }
    }
    checkpoint(&mut client, &copy, &mut check_rng, &mut log);
    let _ = client.quit();
    log
}

/// Whether a concurrent read's answer is consistent: k entries in
/// strict `(diff, key)` order, every key one that was inserted, and
/// every difference exactly that key's n-match difference. (Which keys
/// are live depends on the epoch the read pinned; checkpoints check the
/// full answer.)
fn consistent(
    got: &KnMatchResult,
    query: &[f64],
    n: usize,
    base: &Dataset,
    seed: u64,
    issued: u32,
) -> bool {
    let c = base.len() as PointId;
    got.n == n
        && got.entries.len() == K
        && got.entries.windows(2).all(|w| {
            w[0].diff
                .total_cmp(&w[1].diff)
                .then(w[0].pid.cmp(&w[1].pid))
                .is_lt()
        })
        && got.entries.iter().all(|e| {
            e.pid < issued && {
                let diff = if e.pid < c {
                    nth_diff(base.point(e.pid), query, n)
                } else {
                    nth_diff(&inserted_row(seed, e.pid, base.dims()), query, n)
                };
                diff.to_bits() == e.diff.to_bits()
            }
        })
}

fn run_ingest(args: &Args) -> Report {
    let name = "ingest_mixed";
    let kind = EngineKind::Versioned;
    let data = uniform(INGEST_ROWS, INGEST_DIMS, args.seed);
    let mut r = rng(args.seed, 3);
    let pool = unique_pool(1 << 16, 1, |i| BatchQuery::KnMatch {
        query: random_point(&mut r, INGEST_DIMS),
        k: K,
        n: [2, 4][i % 2],
    });
    let build = || kind.config().build_in_memory(&data);
    let reps = if args.trace { 1 } else { SETUP_REPS };
    let (mut setups, (run, layers)) = serve_repeated(reps, build, |server, addr| {
        let issued = AtomicU32::new(INGEST_ROWS as u32);
        let check = |i: usize, got: &Answers| -> u64 {
            let BatchQuery::KnMatch { query, n, .. } = &pool[i][0] else {
                unreachable!("the reader pool holds k-n-match queries")
            };
            let upto = issued.load(Ordering::SeqCst);
            match &got[0] {
                Ok(BatchAnswer::KnMatch(res))
                    if consistent(res, query, *n, &data, args.seed, upto) =>
                {
                    0
                }
                _ => 1,
            }
        };
        let (data, issued, pool, check) = (&data, &issued, &pool, &check);
        let loads: Vec<LoadFn<'_>> = vec![
            Box::new(move |stop| drive_writes(addr, data, args.seed, issued, stop)),
            Box::new(move |stop| {
                drive_reads(&ReadLoad {
                    addr,
                    wire: Wire::TextQuery,
                    depth: 1,
                    pool,
                    conn: 0,
                    conns: 1,
                    check,
                    stop,
                })
            }),
        ];
        let run = run_load(server, addr, args.seconds as f64, args.trace, loads);
        let layers = args.trace.then(|| {
            let engine = server.engine();
            let sample: Vec<Vec<BatchQuery>> = pool.iter().take(256).cloned().collect();
            let answers: Vec<Vec<BatchAnswer>> = sample
                .iter()
                .map(|req| req.iter().map(|q| oracle::answer(data, q)).collect())
                .collect();
            let probes = Probes {
                plan: None,
                forced: None,
                codec_ns: probe::codec(Wire::TextQuery, &sample, &answers),
                wire: Wire::TextQuery,
            };
            per_layer(name, &run, engine, INGEST_DIMS, &probes)
        });
        (run, layers)
    });
    let mut meta = common_meta(args, name, kind)
        .str(
            "workload_shape",
            &format!(
                "uniform c={INGEST_ROWS} d={INGEST_DIMS}; writer paced at {:.0} writes/s (Poisson) inserts new keys in the unit cube and deletes a live key every {DELETE_EVERY}th op; \
                 reader k-n-match k=10 n in {{2,4}}; checkpoint every {CHECK_EVERY} writes compares EPOCH and {CHECK_QUERIES} reads with the oracle",
                1.0 / WRITE_INTERVAL.as_secs_f64()
            ),
        )
        .str("load", "closed loop, 1 writer (paced) + 1 reader connection, 1 request in flight each, text protocol");
    let mut extra = Metrics::default();
    let metrics = match layers {
        None => {
            let setup = median(&mut setups);
            let (m, e, reads, writes) = end_to_end(&run, setup);
            extra = e;
            meta = meta
                .raw("not_gated", extra.to_json())
                .raw("setup_s_each", json_list(&setups))
                .num("vm_hwm_mb", memory_mb("VmHWM"))
                .num("heap_peak_mb", run.heap_peak_mb)
                .num("read_requests_in_window", reads.requests as f64)
                .num("write_requests_in_window", writes.requests as f64);
            m
        }
        Some((m, extra)) => {
            meta = meta.raw("trace", extra.meta.render());
            m
        }
    };
    let meta = with_steal(meta, &run);
    Report {
        attempted: run.attempted(),
        failed: run.failed(),
        first_error: run.first_error(),
        metrics,
        extra,
        meta,
    }
}
