//! The harness every server suite shares: the readiness backends this
//! host can run, a scoped ephemeral-port [`EventServer`], a temp CSV
//! dataset, and the mixed cross-check workload with the wire answers a
//! direct engine run implies.
//!
//! Each suite compiles its own copy (`mod common;`), and none uses all
//! of it.
#![allow(dead_code)]

use std::net::SocketAddr;
use std::path::PathBuf;
use std::thread;

use knmatch_core::{BatchAnswer, BatchEngine, BatchOutcome, BatchQuery, KnMatchError};
use knmatch_data::uniform;
use knmatch_server::{
    ErrorKind, EventServer, ReactorChoice, ServerConfig, ServerExtras, ShutdownHandle,
    StatsSnapshot,
};

/// The readiness backends this host can run: `poll` everywhere, plus
/// `epoll` on Linux.
pub fn backends() -> Vec<ReactorChoice> {
    if cfg!(target_os = "linux") {
        vec![ReactorChoice::Poll, ReactorChoice::Epoll]
    } else {
        vec![ReactorChoice::Poll]
    }
}

/// `ServerConfig::default()` on the given readiness backend.
pub fn on(reactor: ReactorChoice) -> ServerConfig {
    ServerConfig {
        reactor,
        ..ServerConfig::default()
    }
}

/// Fires shutdown when dropped, so an assertion failure inside a test
/// closure unblocks the scoped server thread instead of deadlocking the
/// `thread::scope` join.
pub struct ShutdownGuard(pub ShutdownHandle);

impl Drop for ShutdownGuard {
    fn drop(&mut self) {
        self.0.shutdown();
    }
}

/// Binds an ephemeral-port event server over `engine`, runs `f` against
/// it, shuts down, and returns the final counters plus the event-loop
/// extras. `serve` itself asserts the buffer-pool leak ledger balances
/// after the drain, so every caller checks "zero leaks" for free.
pub fn with_event_server<E, F>(engine: E, cfg: ServerConfig, f: F) -> (StatsSnapshot, ServerExtras)
where
    E: BatchEngine + Sync,
    F: FnOnce(SocketAddr),
{
    let server = EventServer::bind(engine, "127.0.0.1:0", cfg).expect("bind");
    let addr = server.local_addr();
    let handle = server.handle();
    thread::scope(|s| {
        let serving = s.spawn(|| server.serve().expect("serve"));
        {
            let _guard = ShutdownGuard(handle);
            f(addr);
        }
        serving.join().expect("server thread");
    });
    (server.stats(), server.extras())
}

/// A per-test temp directory, removed on drop.
pub struct TempDir(pub PathBuf);

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Writes the shared 200 x 4 uniform dataset as a CSV under a per-test
/// temp dir (`tag` must be unique within the suite).
pub fn temp_csv(tag: &str) -> (TempDir, String) {
    let dir =
        std::env::temp_dir().join(format!("knmatch-server-test-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let ds = uniform(200, 4, 0x5EED);
    let csv = dir.join("data.csv");
    knmatch_data::save_dataset(&csv, &ds).expect("write csv");
    (TempDir(dir), csv.to_string_lossy().into_owned())
}

/// The cross-check workload: all three query kinds plus two invalid
/// slots (a dimension mismatch and a negative epsilon), so error answers
/// have to travel the wire bit-identically too.
pub fn workload(dims: usize) -> Vec<BatchQuery> {
    let mut queries = Vec::new();
    for i in 0..4 {
        let v = 0.15 + 0.2 * i as f64;
        queries.push(BatchQuery::KnMatch {
            query: vec![v; dims],
            k: 3,
            n: 2,
        });
        queries.push(BatchQuery::Frequent {
            query: vec![1.0 - v; dims],
            k: 2,
            n0: 1,
            n1: dims,
        });
        queries.push(BatchQuery::EpsMatch {
            query: vec![v; dims],
            eps: 0.05,
            n: 2,
        });
    }
    queries.push(BatchQuery::KnMatch {
        query: vec![0.5; dims + 1],
        k: 1,
        n: 1,
    });
    queries.push(BatchQuery::EpsMatch {
        query: vec![0.5; dims],
        eps: -1.0,
        n: 1,
    });
    queries
}

/// What the wire must carry for each direct-run slot.
pub fn expected_wire<O: BatchOutcome>(
    direct: Vec<Result<O, KnMatchError>>,
) -> Vec<Result<BatchAnswer, (ErrorKind, String)>> {
    direct
        .into_iter()
        .map(|r| match r {
            Ok(o) => Ok(o.into_answer()),
            Err(e) => Err((ErrorKind::of_error(&e), e.to_string())),
        })
        .collect()
}
