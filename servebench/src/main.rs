//! `servebench` — the end-to-end benchmark of the knmatch server.
//!
//! ```text
//! servebench --workload <read_point|read_batch|ingest_mixed|disk_read|all>
//!            --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One process builds the workload's engine from generated data, serves
//! it with `EventServer` (epoll) on a loopback port, and drives it with
//! the public `Client` from two closed-loop load threads. Every answer is
//! checked against a naive oracle computed before the timed window.
//!
//! With `--trace 0` the last line of standard output carries the
//! end-to-end metrics; with `--trace 1` it carries the per-layer
//! metrics of a traced run. The line before it describes the run: seed,
//! host, the fixed configuration, and the workload's purpose. `all`
//! runs the four workloads in turn and ends with one line holding every
//! workload's metrics. Standard error gets a readable table. The exit
//! code is 1 when any operation failed, 2 on a usage error.

mod alloc;
mod load;
mod measure;
mod oracle;
mod probe;
mod report;
mod serve;
mod trace;
mod workloads;

use std::process::ExitCode;

use crate::report::{json_str, Metrics, Obj};
use crate::workloads::{Args, WORKLOADS};

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

fn usage() -> String {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    format!(
        "usage: servebench --workload <{}|all> --seed <n> --seconds <s> --trace <0|1>",
        names.join("|")
    )
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let value = |flag: &str| -> Result<&str, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        argv.get(i + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let num = |flag: &str| -> Result<u64, String> {
        value(flag)?
            .parse()
            .map_err(|_| format!("{flag} takes a whole number"))
    };
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
    };
    let seconds = num("--seconds")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload: value("--workload")?.to_string(),
        seed: num("--seed")?,
        seconds,
        trace,
    })
}

/// Prints one workload's report: a readable table on standard error,
/// then the description line and the result line on standard output.
fn print(workload: &str, report: &workloads::Report) {
    for (name, value, unit) in report.metrics.0.iter().chain(&report.extra.0) {
        eprintln!("{:<48} {value:>14.3} {unit}", format!("{workload}.{name}"));
    }
    eprintln!(
        "{workload}: {} operations attempted, {} failed",
        report.attempted, report.failed
    );
    if let Some(e) = &report.first_error {
        eprintln!("{workload}: first failure: {}", json_str(e));
    }
    println!("{}", report.meta.render());
    println!(
        "{}",
        result_line(report.failed, report.attempted, &report.metrics)
    );
}

fn result_line(failed: u64, attempted: u64, metrics: &Metrics) -> String {
    Obj::default()
        .raw("correct", (failed == 0).to_string())
        .num("attempted", attempted as f64)
        .num("failed", failed as f64)
        .raw("metrics", metrics.to_json())
        .render()
}

fn main() -> ExitCode {
    trace::now_ns(); // starts the shared clock
    alloc::set_tag(alloc::Tag::Main);
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("servebench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let failed = if args.workload == "all" {
        // Every workload in turn; the last line merges their metrics
        // under `<workload>.<metric>` names.
        let (mut attempted, mut failed, mut all) = (0, 0, Metrics::default());
        for w in &WORKLOADS {
            let one = Args {
                workload: w.name.to_string(),
                ..args.clone()
            };
            let report = workloads::run(&one).expect("listed workloads exist");
            print(w.name, &report);
            attempted += report.attempted;
            failed += report.failed;
            for (name, value, unit) in report.metrics.0 {
                all.add(&format!("{}.{name}", w.name), value, unit);
            }
        }
        println!("{}", result_line(failed, attempted, &all));
        failed
    } else {
        match workloads::run(&args) {
            Ok(report) => {
                print(&args.workload, &report);
                report.failed
            }
            Err(e) => {
                eprintln!("servebench: {e}\n{}", usage());
                return ExitCode::from(2);
            }
        }
    };
    if failed > 0 {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}
