//! Summaries and the JSON the benchmark prints: order statistics, the
//! metric list, the host fingerprint and the process's peak memory.

use std::fmt::Write as _;
use std::process::Command;

/// The value at quantile `p` (nearest rank) of `xs`, sorting it.
pub fn quantile(xs: &mut [f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_unstable_by(f64::total_cmp);
    let rank = (p * xs.len() as f64).ceil() as usize;
    xs[rank.clamp(1, xs.len()) - 1]
}

pub fn median(xs: &mut [f64]) -> f64 {
    quantile(xs, 0.5)
}

/// `num / den`, or 0 when nothing was measured.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Escapes `s` as a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number; non-finite values (never expected) print as 0.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// Named metrics with units, in the order they were added.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn add(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push((name.to_string(), value, unit));
    }

    pub fn to_json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(name, v, unit)| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json_str(name),
                    json_num(*v),
                    json_str(unit)
                )
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// A flat JSON object built field by field from pre-rendered values.
#[derive(Debug, Default)]
pub struct Obj(Vec<String>);

impl Obj {
    pub fn raw(mut self, key: &str, json: String) -> Self {
        self.0.push(format!("{}: {json}", json_str(key)));
        self
    }

    pub fn str(self, key: &str, v: &str) -> Self {
        self.raw(key, json_str(v))
    }

    pub fn num(self, key: &str, v: f64) -> Self {
        self.raw(key, json_num(v))
    }

    pub fn render(&self) -> String {
        format!("{{{}}}", self.0.join(", "))
    }
}

/// A memory figure of this process from `/proc/self/status` (`VmRSS`,
/// `VmHWM`, …), in MiB; 0 where the file does not exist.
pub fn memory_mb(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// `nproc`, CPU model, `rustc -V` and git revision.
pub fn host() -> Obj {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let rustc = command_line("rustc", &["-V"]).unwrap_or_else(|| "unknown".into());
    // Only ask git inside a git checkout of its own, never a parent's.
    let rev = if std::path::Path::new(".git").exists() {
        command_line("git", &["rev-parse", "HEAD"])
    } else {
        None
    };
    Obj::default()
        .num("nproc", nproc as f64)
        .str("cpu", &cpu)
        .str("rustc", &rustc)
        .str(
            "git_rev",
            rev.as_deref().unwrap_or("unavailable (not a git checkout)"),
        )
}
