//! The measured window: load threads run closed-loop against the served
//! engine while the main thread marks the window edges. In a traced run
//! the main thread also snapshots every counter the per-layer metrics
//! are deltas of at both edges, and switches tracing on and off in
//! alternating slices, so that traced and untraced throughput are
//! measured under the same drift (the versioned index grows during a
//! run) and their ratio is the tracing overhead.

use std::net::SocketAddr;
use std::thread;
use std::time::{Duration, Instant};

use knmatch_core::{BatchEngine, PlanTally, VersionStats};
use knmatch_server::{EventServer, StatsReport};
use knmatch_storage::IoStats;

use crate::alloc::{counts, heap_live_mb, heap_peak_mb, restart_heap_peak, set_counting};
use crate::load::{connect, ConnLog};
use crate::report::{median, quantile, ratio, Metrics};
use crate::trace::{instant_ns, BenchEngine, ClientSpan};

/// Load before the window opens: connections, caches and pools warm up.
pub const WARMUP: Duration = Duration::from_secs(1);
/// Length of each traced or untraced slice of a traced run's window.
pub const SLICE: Duration = Duration::from_millis(500);

/// Every counter a per-layer metric is a delta of, at one instant.
#[derive(Debug, Clone)]
pub struct Snap {
    pub stats: Option<StatsReport>,
    pub pool: Option<IoStats>,
    pub plans: Option<PlanTally>,
    pub version: Option<VersionStats>,
    pub allocs: (u64, u64),
}

fn snap(server: &EventServer<BenchEngine>, addr: SocketAddr) -> Snap {
    // `STATS` over the wire, on a control connection of its own.
    let stats = connect(addr, false).ok().and_then(|mut c| {
        let r = c.stats_report().ok();
        let _ = c.quit();
        r
    });
    let engine = server.engine();
    Snap {
        stats,
        pool: engine.inner.pool_stats(),
        plans: engine.plan_counts(),
        version: engine.inner.writer().map(|w| w.version_stats()),
        allocs: counts(),
    }
}

/// A load thread: runs until the stop instant it is given.
pub type LoadFn<'a> = Box<dyn FnOnce(Instant) -> ConnLog + Send + 'a>;

/// A part of the window, in `now_ns` time.
pub type Interval = (u64, u64);

/// One measured run: the load threads' logs and the window edges, in
/// `now_ns` time.
#[derive(Debug)]
pub struct Run {
    pub logs: Vec<ConnLog>,
    /// Warm-up ends and the window opens.
    pub start: u64,
    /// No request is sent from here on.
    pub stop: u64,
    /// Traced and untraced slices of the window (traced runs only).
    pub traced: Vec<Interval>,
    pub untraced: Vec<Interval>,
    /// Counters at `start` and `stop` (traced runs only).
    pub snaps: Option<(Snap, Snap)>,
    /// The heap once the load threads have ended, and its peak over the
    /// window, both above what the benchmark held before its first
    /// set-up (see [`crate::serve::serve_repeated`]).
    pub heap_mb: f64,
    pub heap_peak_mb: f64,
    /// Share of the host's CPU time the hypervisor stole during the
    /// window, when the platform reports it.
    pub steal_share: Option<f64>,
}

/// `(steal, total)` CPU ticks from the first line of `/proc/stat`.
fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .map(|t| t.parse().ok())
        .collect::<Option<_>>()?;
    Some((*ticks.get(7)?, ticks.iter().sum()))
}

fn sleep_until(t: Instant) {
    thread::sleep(t.saturating_duration_since(Instant::now()));
}

/// Runs `loads` for [`WARMUP`] plus `seconds`. With `trace`, the window
/// alternates untraced and traced [`SLICE`]s and is bracketed by counter
/// snapshots.
pub fn run_load(
    server: &EventServer<BenchEngine>,
    addr: SocketAddr,
    seconds: f64,
    trace: bool,
    loads: Vec<LoadFn<'_>>,
) -> Run {
    let open = Instant::now() + WARMUP;
    let stop = open + Duration::from_secs_f64(seconds);
    thread::scope(|s| {
        let handles: Vec<_> = loads
            .into_iter()
            .map(|f| s.spawn(move || f(stop)))
            .collect();
        let (mut traced, mut untraced, mut snaps) = (Vec::new(), Vec::new(), None);
        sleep_until(open);
        restart_heap_peak();
        let cpu_before = cpu_ticks();
        if trace {
            let before = snap(server, addr);
            let (mut from, mut on) = (open, false);
            while from < stop {
                let to = (from + SLICE).min(stop);
                server.engine().tracer.set(on);
                set_counting(on);
                let slices = if on { &mut traced } else { &mut untraced };
                slices.push((instant_ns(from), instant_ns(to)));
                sleep_until(to);
                (from, on) = (to, !on);
            }
            set_counting(false);
            server.engine().tracer.set(false);
            snaps = Some((before, snap(server, addr)));
        }
        sleep_until(stop);
        let steal_share = match (cpu_before, cpu_ticks()) {
            (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => {
                Some((s1 - s0) as f64 / (t1 - t0) as f64)
            }
            _ => None,
        };
        let logs = handles
            .into_iter()
            .map(|h| h.join().expect("load thread"))
            .collect();
        Run {
            logs,
            start: instant_ns(open),
            stop: instant_ns(stop),
            traced,
            untraced,
            snaps,
            heap_mb: heap_live_mb(),
            heap_peak_mb: heap_peak_mb(),
            steal_share,
        }
    })
}

impl Run {
    pub fn attempted(&self) -> u64 {
        self.logs.iter().map(|l| l.attempted).sum()
    }

    pub fn failed(&self) -> u64 {
        self.logs.iter().map(|l| l.failed).sum()
    }

    pub fn first_error(&self) -> Option<String> {
        self.logs.iter().find_map(|l| l.first_error.clone())
    }

    /// Client spans whose reply arrived in one of `parts`.
    pub fn spans<'a>(&'a self, parts: &'a [Interval]) -> impl Iterator<Item = &'a ClientSpan> {
        self.logs
            .iter()
            .flat_map(|l| &l.spans)
            .filter(move |s| parts.iter().any(|&(a, b)| s.recv >= a && s.recv < b))
    }

    /// The whole window.
    pub fn window(&self) -> [Interval; 1] {
        [(self.start, self.stop)]
    }
}

/// Throughput and latency of one kind of request over a window.
#[derive(Debug, Clone, Copy, Default)]
pub struct Rates {
    /// Requests whose reply arrived in the window.
    pub requests: usize,
    /// Correct operations per second (queries for reads).
    pub per_s: f64,
    pub p50_us: f64,
    pub p99_us: f64,
}

/// Rates of the spans `pick` selects, replies in one of `parts`.
pub fn rates(run: &Run, parts: &[Interval], pick: &dyn Fn(&ClientSpan) -> bool) -> Rates {
    let spans: Vec<&ClientSpan> = run.spans(parts).filter(|s| pick(s)).collect();
    let seconds: f64 = parts.iter().map(|&(a, b)| (b - a) as f64 / 1e9).sum();
    let done: u64 = spans
        .iter()
        .filter(|s| s.ok)
        .map(|s| s.queries as u64)
        .sum();
    let mut lat: Vec<f64> = spans
        .iter()
        .map(|s| (s.recv - s.send) as f64 / 1e3)
        .collect();
    Rates {
        requests: spans.len(),
        per_s: ratio(done as f64, seconds),
        p50_us: quantile(&mut lat, 0.5),
        p99_us: quantile(&mut lat, 0.99),
    }
}

/// Most equal parts the window is split into for [`steady_rates`].
pub const MAX_PARTS: usize = 5;
/// Requests each part needs, so that its 99th percentile has ten
/// samples beyond it.
pub const PART_REQUESTS: usize = 1000;

/// [`rates`] in equal parts of the window, summarised by the median of
/// each figure over the parts, so that a stall confined to one part of
/// the run moves no reported figure. The window is split into the most
/// parts that keep [`PART_REQUESTS`] requests each, rounded down to an
/// odd count of at most [`MAX_PARTS`]; `requests` is the total over the
/// window.
pub fn steady_rates(run: &Run, pick: impl Fn(&ClientSpan) -> bool) -> Rates {
    let total = run.spans(&run.window()).filter(|s| pick(s)).count();
    let n = ((total / PART_REQUESTS).clamp(1, MAX_PARTS) - 1) as u64 | 1;
    let step = (run.stop - run.start) / n;
    let parts: Vec<Rates> = (0..n)
        .map(|i| {
            let from = run.start + i * step;
            let to = if i + 1 == n { run.stop } else { from + step };
            rates(run, &[(from, to)], &pick)
        })
        .collect();
    let med = |f: fn(&Rates) -> f64| median(&mut parts.iter().map(f).collect::<Vec<f64>>());
    Rates {
        requests: parts.iter().map(|r| r.requests).sum(),
        per_s: med(|r| r.per_s),
        p50_us: med(|r| r.p50_us),
        p99_us: med(|r| r.p99_us),
    }
}

/// The end-to-end metrics of an untraced run, and beside them the
/// figures reported but not gated: the read-only and write-only split,
/// which in the mixed workload moves with how the two connections share
/// the CPU, and the 99th percentiles, which on a shared two-CPU host
/// follow the hypervisor's CPU steal more than the program. On the
/// read-only workloads every operation is a read query, so `ops_*` are
/// their read figures.
pub fn end_to_end(run: &Run, setup_s: f64) -> (Metrics, Metrics, Rates, Rates) {
    let reads = steady_rates(run, |s| !s.write);
    let writes = steady_rates(run, |s| s.write);
    let ops = steady_rates(run, |_| true);
    let mut m = Metrics::default();
    m.add("setup_s", setup_s, "s");
    m.add("ops_s", ops.per_s, "1/s");
    m.add("ops_p50_us", ops.p50_us, "us");
    m.add("heap_mb", run.heap_mb, "MiB");
    let mut extra = Metrics::default();
    extra.add("read_qps", reads.per_s, "1/s");
    extra.add("read_p50_us", reads.p50_us, "us");
    extra.add("read_p99_us", reads.p99_us, "us");
    extra.add("ops_p99_us", ops.p99_us, "us");
    if writes.requests > 0 {
        extra.add("write_ops_s", writes.per_s, "1/s");
        extra.add("write_p50_us", writes.p50_us, "us");
        extra.add("write_p99_us", writes.p99_us, "us");
    }
    (m, extra, reads, writes)
}
