//! The fixed server and engine configuration, and the set-up step that
//! builds an engine and serves it over loopback.
//!
//! Every knob that matters is set here explicitly so that a later change
//! to a default does not change what the benchmark measures.

use std::net::SocketAddr;
use std::thread;
use std::time::{Duration, Instant};

use knmatch_core::PlannerMode;
use knmatch_server::{
    AnyEngine, Backend, EngineConfig, EventServer, ReactorChoice, ServerConfig, ShutdownHandle,
};
use knmatch_storage::VerifyMode;

use crate::alloc::{set_heap_base, set_tag, Tag};
use crate::load::connect;
use crate::report::Obj;
use crate::trace::BenchEngine;

/// Reactor executor threads.
const EXECUTORS: usize = 2;
/// Engine batch workers.
const ENGINE_WORKERS: usize = 2;
/// Connection cap (load uses two, the control connection one more).
const MAX_CONNECTIONS: usize = 16;
/// Global in-flight query budget before the server sheds load.
const MAX_INFLIGHT: usize = 4096;
/// Buffer-pool frames of the disk engine (4 KiB pages).
pub const POOL_PAGES: usize = 256;
/// Delta rows before the versioned index seals a run.
const MERGE_THRESHOLD: usize = 1024;

#[allow(clippy::needless_update)] // fields added later keep their defaults
pub fn server_config() -> ServerConfig {
    ServerConfig {
        max_connections: MAX_CONNECTIONS,
        executors: EXECUTORS,
        reactor: ReactorChoice::Epoll,
        idle_timeout: None,
        max_inflight: MAX_INFLIGHT,
        retry_after: Duration::from_millis(100),
        fault: None,
        ..ServerConfig::default()
    }
}

/// The engines the workloads serve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineKind {
    /// Cost-based planner over AD, VA-file and scan (`--planner auto`).
    Planned,
    /// The epoch-versioned mutable index (`--mutable`).
    Versioned,
    /// The disk engine over a `.knm` file, first-read page verification.
    Disk,
}

impl EngineKind {
    pub fn config(self) -> EngineConfig {
        let b = EngineConfig::builder().workers(ENGINE_WORKERS);
        match self {
            EngineKind::Planned => b.planner(PlannerMode::Auto),
            EngineKind::Versioned => b.mutable(true).merge_threshold(MERGE_THRESHOLD),
            EngineKind::Disk => b.backend(Backend::Disk {
                pool_pages: POOL_PAGES,
                verify: VerifyMode::FirstRead,
            }),
        }
        .build()
        .expect("the fixed engine configuration is valid")
    }
}

/// The fixed configuration, for the report.
pub fn describe(kind: EngineKind) -> Obj {
    let cfg = server_config();
    Obj::default()
        .str("server", "EventServer")
        .str("reactor", &cfg.reactor.to_string())
        .num("executors", cfg.executors as f64)
        .num("max_connections", cfg.max_connections as f64)
        .num("max_inflight", cfg.max_inflight as f64)
        .str("idle_timeout", "none")
        .str("fault_injection", "none")
        .str("engine", &kind.config().describe())
}

/// Stops the server when dropped, so a panicking body cannot leave the
/// reactor thread (and the scope joining it) running forever.
struct StopOnDrop(ShutdownHandle);

impl Drop for StopOnDrop {
    fn drop(&mut self) {
        self.0.shutdown();
    }
}

/// Waits until the server answers a `PING` on a fresh connection.
fn wait_ready(addr: SocketAddr) {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let pong = connect(addr, false).and_then(|mut c| {
            c.ping().map_err(|e| e.to_string())?;
            c.quit().map_err(|e| e.to_string())
        });
        match pong {
            Ok(()) => return,
            Err(e) if Instant::now() > deadline => panic!("server never became ready: {e}"),
            Err(_) => thread::sleep(Duration::from_millis(1)),
        }
    }
}

/// Builds an engine with `build`, serves it with [`EventServer`] on a
/// loopback port, and runs `body` against it. Returns the set-up time —
/// from the start of the build until the server answers its first
/// request — and `body`'s result. The server is drained and its reactor
/// thread joined before this returns.
pub fn serve<R>(
    build: impl FnOnce() -> AnyEngine,
    body: impl FnOnce(&EventServer<BenchEngine>, SocketAddr) -> R,
) -> (f64, R) {
    let start = Instant::now();
    let engine = BenchEngine::new(build());
    let server =
        EventServer::bind(engine, "127.0.0.1:0", server_config()).expect("bind a loopback port");
    let addr = server.local_addr();
    thread::scope(|s| {
        let reactor = s.spawn(|| {
            set_tag(Tag::Reactor);
            server.serve()
        });
        let stop = StopOnDrop(server.handle());
        wait_ready(addr);
        let setup = start.elapsed().as_secs_f64();
        let out = body(&server, addr);
        drop(stop);
        reactor
            .join()
            .expect("reactor thread")
            .expect("server drains cleanly");
        (setup, out)
    })
}

/// Hands freed heap memory back to the OS, so that every set-up starts
/// from the same resident set and the process's peak does not depend on
/// how earlier set-ups' freed memory happened to spread over glibc's
/// per-thread arenas.
pub fn release_free_memory() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: `malloc_trim` takes a plain size, has no preconditions
        // and only returns memory that no live allocation uses.
        unsafe {
            malloc_trim(0);
        }
    }
}

/// Sets up `reps` times and keeps only the last server for `body`;
/// returns every set-up time. The heap's base is taken here, so that
/// the heap figures count the engine, the server and the load, and
/// not the generated data and oracle answers the benchmark holds.
pub fn serve_repeated<R>(
    reps: usize,
    build: impl Fn() -> AnyEngine,
    body: impl FnOnce(&EventServer<BenchEngine>, SocketAddr) -> R,
) -> (Vec<f64>, R) {
    release_free_memory();
    set_heap_base();
    let mut setups: Vec<f64> = (1..reps)
        .map(|_| {
            let setup = serve(&build, |_, _| ()).0;
            release_free_memory();
            setup
        })
        .collect();
    let (last, out) = serve(&build, body);
    setups.push(last);
    (setups, out)
}
