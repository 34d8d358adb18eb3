//! Served answers are bit-identical to direct engine calls, for every
//! engine backend, at every worker count, under concurrent clients, on
//! every readiness backend the host offers.
//!
//! The text protocol renders floats with Rust's shortest round-trip
//! `Display`, so equality here is exact `BatchAnswer == BatchAnswer` —
//! no tolerance.

#![cfg(unix)]

mod common;

use std::net::SocketAddr;
use std::thread;

use common::{backends, expected_wire, on, temp_csv, with_event_server, workload, TempDir};
use knmatch_core::{BatchEngine, BatchQuery};
use knmatch_server::{Backend, Client, EngineConfig, StatsSnapshot};
use knmatch_storage::DiskDatabase;

/// Runs `f` against an ephemeral-port server over a fresh engine from
/// `open`, once per readiness backend, and returns each run's final
/// counters.
fn on_every_backend<E, F>(open: impl Fn() -> E, f: F) -> Vec<StatsSnapshot>
where
    E: BatchEngine + Sync,
    F: Fn(SocketAddr),
{
    backends()
        .into_iter()
        .map(|reactor| with_event_server(open(), on(reactor), &f).0)
        .collect()
}

fn check_backend(backend: Backend, path: &str) {
    let queries = workload(4);
    for workers in [1, 2, 4] {
        let cfg = EngineConfig {
            workers,
            backend,
            planner: None,
            ..EngineConfig::default()
        };
        let expected = expected_wire(cfg.open(path).expect("open engine").run(&queries));

        let runs = on_every_backend(
            || cfg.open(path).expect("open engine"),
            |addr| {
                // Three concurrent clients, each submitting the whole batch
                // twice; all must see the direct-run answers bit-for-bit.
                thread::scope(|s| {
                    for _ in 0..3 {
                        let queries = &queries;
                        let expected = &expected;
                        s.spawn(move || {
                            let mut client = Client::connect(addr).expect("connect");
                            client.ping().expect("ping");
                            for _ in 0..2 {
                                let reply = client.run_batch(queries).expect("batch");
                                assert_eq!(reply.answers.len(), expected.len());
                                assert_eq!(reply.ok, 12, "backend {backend:?} x{workers}");
                                assert_eq!(reply.failed, 2);
                                for (got, want) in reply.answers.iter().zip(expected) {
                                    match (got, want) {
                                        (Ok(a), Ok(b)) => assert_eq!(a, b, "answer diverged"),
                                        (Err(e), Err((kind, msg))) => {
                                            assert_eq!(e.kind, *kind);
                                            assert_eq!(&e.message, msg);
                                        }
                                        other => panic!("slot shape diverged: {other:?}"),
                                    }
                                }
                            }
                            client.quit().expect("quit");
                        });
                    }
                });
            },
        );
        for stats in runs {
            assert_eq!(stats.connections, 3);
            assert_eq!(stats.queries, 3 * 2 * queries.len() as u64);
            assert_eq!(stats.errors, 3 * 2 * 2, "two invalid slots per batch");
        }
    }
}

#[test]
fn memory_backend_bit_identical_over_the_wire() {
    let (_dir, csv, _db) = temp_files("mem");
    check_backend(Backend::Memory, &csv);
}

#[test]
fn sharded_backend_bit_identical_over_the_wire() {
    let (_dir, csv, _db) = temp_files("shard");
    check_backend(Backend::Sharded(3), &csv);
}

#[test]
fn planned_backend_bit_identical_over_the_wire() {
    let (_dir, csv, _db) = temp_files("plan");
    let queries = workload(4);
    for workers in [1, 2] {
        let cfg = EngineConfig {
            workers,
            backend: Backend::Memory,
            planner: Some(knmatch_core::PlannerMode::Auto),
            ..EngineConfig::default()
        };
        let expected = expected_wire(cfg.open(&csv).expect("open engine").run(&queries));
        on_every_backend(
            || cfg.open(&csv).expect("open engine"),
            |addr| {
                let mut client = Client::connect(addr).expect("connect");
                for mode in [
                    knmatch_core::PlannerMode::Auto,
                    knmatch_core::PlannerMode::Ad,
                    knmatch_core::PlannerMode::VaFile,
                    knmatch_core::PlannerMode::Scan,
                    knmatch_core::PlannerMode::IGrid,
                ] {
                    client.set_planner(mode).expect("set planner");
                    let reply = client.run_batch(&queries).expect("batch");
                    for (got, want) in reply.answers.iter().zip(&expected) {
                        match (got, want) {
                            (Ok(a), Ok(b)) => assert_eq!(a, b, "mode {mode} diverged"),
                            (Err(e), Err((kind, _))) => assert_eq!(e.kind, *kind),
                            other => panic!("slot shape diverged: {other:?}"),
                        }
                    }
                }
                // The tally travelled back through STATS: five served modes,
                // 12 valid queries each (invalid slots never reach a backend).
                let (_, _, plans) = client.stats_with_plans().expect("stats");
                let plans = plans.expect("planned engine reports plans");
                assert_eq!(plans.total(), 5 * 12, "workers={workers}");
                assert!(plans.scan >= 12, "forced scan pass must be tallied");
                assert!(plans.igrid >= 12, "forced igrid pass must be tallied");
                client.quit().expect("quit");
            },
        );
    }
}

#[test]
fn planless_engines_report_no_plans_over_the_wire() {
    let (_dir, csv, _db) = temp_files("noplan");
    let open = || {
        EngineConfig {
            workers: 1,
            backend: Backend::Memory,
            planner: None,
            ..EngineConfig::default()
        }
        .open(&csv)
        .expect("open engine")
    };
    on_every_backend(open, |addr| {
        let mut client = Client::connect(addr).expect("connect");
        // The verb is accepted (connection-scoped option) even though the
        // engine ignores it, and STATS carries no plan counters.
        client
            .set_planner(knmatch_core::PlannerMode::Scan)
            .expect("set planner");
        let (_, _, plans) = client.stats_with_plans().expect("stats");
        assert_eq!(plans, None);
        client.quit().expect("quit");
    });
}

#[test]
fn disk_backend_bit_identical_over_the_wire() {
    let (_dir, _csv, db) = temp_files("disk");
    check_backend(
        Backend::Disk {
            pool_pages: 64,
            verify: knmatch_storage::VerifyMode::FirstRead,
        },
        &db,
    );
}

/// The shared 200 x 4 uniform dataset as both a CSV and a `.knm`
/// database under a per-test temp dir; the guard removes it on drop.
fn temp_files(tag: &str) -> (TempDir, String, String) {
    let (dir, csv) = temp_csv(tag);
    let ds = knmatch_data::load_dataset(&csv).expect("read csv");
    let db = dir.0.join("data.knm");
    DiskDatabase::create_file(&db, &ds, 64).expect("write db");
    (dir, csv, db.to_string_lossy().into_owned())
}

#[test]
fn deadline_and_fail_fast_travel_the_wire() {
    let (_dir, csv, _db) = temp_files("opts");
    let cfg = EngineConfig {
        workers: 2,
        backend: Backend::Memory,
        planner: None,
        ..EngineConfig::default()
    };
    let queries = workload(4);
    let healthy = expected_wire(cfg.open(&csv).expect("open engine").run(&queries));

    on_every_backend(
        || cfg.open(&csv).expect("open engine"),
        |addr| {
            let mut client = Client::connect(addr).expect("connect");
            // A generous deadline changes nothing: bit-identical answers.
            client.set_deadline_ms(60_000).expect("deadline");
            let reply = client.run_batch(&queries).expect("batch");
            for (got, want) in reply.answers.iter().zip(&healthy) {
                match (got, want) {
                    (Ok(a), Ok(b)) => assert_eq!(a, b),
                    (Err(e), Err((kind, _))) => assert_eq!(e.kind, *kind),
                    other => panic!("slot shape diverged: {other:?}"),
                }
            }
            // Clearing it (DEADLINE 0) keeps working.
            client.set_deadline_ms(0).expect("clear deadline");
            // Fail-fast toggles per connection; with every query valid the
            // flag is invisible (bit-identical again).
            client.set_fail_fast(true).expect("fail fast");
            let valid: Vec<_> = queries[..6].to_vec();
            let want = expected_wire(
                EngineConfig {
                    workers: 2,
                    backend: Backend::Memory,
                    planner: None,
                    ..EngineConfig::default()
                }
                .open(&csv)
                .expect("open")
                .run(&valid),
            );
            let reply = client.run_batch(&valid).expect("batch");
            assert_eq!(reply.failed, 0);
            for (got, want) in reply.answers.iter().zip(&want) {
                match (got, want) {
                    (Ok(a), Ok(b)) => assert_eq!(a, b),
                    other => panic!("slot shape diverged: {other:?}"),
                }
            }
            client.quit().expect("quit");
        },
    );
}

#[test]
fn stats_verb_reports_both_scopes() {
    let (_dir, csv, _db) = temp_files("stats");
    let open = || {
        EngineConfig {
            workers: 1,
            backend: Backend::Memory,
            planner: None,
            ..EngineConfig::default()
        }
        .open(&csv)
        .expect("open engine")
    };

    on_every_backend(open, |addr| {
        let mut a = Client::connect(addr).expect("connect a");
        let mut b = Client::connect(addr).expect("connect b");
        let q = BatchQuery::KnMatch {
            query: vec![0.5; 4],
            k: 2,
            n: 2,
        };
        a.query(&q).expect("query").expect("answer");
        b.query(&q).expect("query").expect("answer");
        b.query(&q).expect("query").expect("answer");
        let (conn, server) = b.stats().expect("stats");
        assert_eq!(conn.queries, 2);
        assert_eq!(conn.connections, 1);
        assert_eq!(server.queries, 3);
        assert_eq!(server.connections, 2);
        assert!(server.bytes_in > 0 && server.bytes_out > 0);
        a.quit().expect("quit");
        b.quit().expect("quit");
    });
}
