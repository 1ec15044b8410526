//! Result records: the human table, the environment record and the final
//! JSON line, plus the `--workload all` summary over child runs.

use kspr_telemetry::{parse_json, JsonValue};
use perfbench::inputs::{Workload, CONFIDENCE, CONNECTIONS, DIM, EPSILON, K, SHARDS};
use std::fmt::Write as _;
use std::process::{Command, ExitCode, Stdio};

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// Observations the value was computed from.
    pub samples: usize,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str, samples: usize) -> Self {
        Self {
            name,
            value,
            unit,
            samples,
        }
    }
}

/// The outcome of one run.
#[derive(Debug)]
pub struct Outcome {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub attempted: usize,
    pub failed: usize,
    pub metrics: Vec<Metric>,
    pub errors: Vec<String>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0
            && self.errors.is_empty()
            && self.metrics.iter().all(|m| m.value.is_finite())
    }

    /// Prints the human table (stderr), then the environment record and the
    /// result object (stdout, the result last).
    pub fn print(&self) {
        eprintln!(
            "{} seed {} ({} run, {:.0} s window):",
            self.workload.name(),
            self.seed,
            if self.trace { "traced" } else { "untraced" },
            self.seconds
        );
        for m in &self.metrics {
            eprintln!(
                "  {:<32} {:>14.4} {:<6} n={}",
                m.name, m.value, m.unit, m.samples
            );
        }
        eprintln!(
            "  {:<32} {:>14.4} {:<6} n={}",
            "failed_ratio",
            self.failed as f64 / self.attempted.max(1) as f64,
            "ratio",
            self.attempted
        );
        for err in self.errors.iter().take(8) {
            eprintln!("  error: {err}");
        }
        println!("{}", self.environment());
        println!("{}", self.result_json());
    }

    fn environment(&self) -> String {
        let p = self.workload.params();
        let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
        let mut samples = String::new();
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(samples, "{sep}\"{}\":{}", m.name, m.samples);
        }
        format!(
            "{{\"env\":{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\
             \"cores\":{cores},\"git_rev\":\"{}\",\"rustc\":\"{}\",\"profile\":\"{}\",\
             \"params\":{{\"n\":{},\"d\":{DIM},\"k\":{K},\"shards\":{SHARDS},\
             \"algorithm\":\"LP-CTA\",\"distribution\":\"IND\",\"rotation\":{},\"lookups\":{},\
             \"standing\":{},\"write_every\":{},\"inserts\":\"{:?}\",\"epsilon\":{EPSILON},\
             \"confidence\":{CONFIDENCE}}},\
             \"connections\":{CONNECTIONS},\"loop\":\"closed\",\
             \"wal_flush\":\"fsync on every commit (Server::start_durable)\",\
             \"client_socket\":\"kspr_wire::WireClient over std TcpStream, default options (Nagle on, no TCP_NODELAY)\",\
             \"samples\":{{{samples}}}}}}}",
            self.workload.name(),
            self.seed,
            self.seconds,
            self.trace,
            git_rev(),
            env!("PERFBENCH_RUSTC"),
            env!("PERFBENCH_PROFILE"),
            p.n,
            p.rotation,
            p.lookups,
            p.standing,
            p.write_every,
            p.inserts,
        )
    }

    fn result_json(&self) -> String {
        let mut metrics = String::new();
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let value = if m.value.is_finite() {
                format!("{}", m.value)
            } else {
                "null".to_owned()
            };
            let _ = write!(
                metrics,
                "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.correct(),
            self.attempted,
            self.failed
        )
    }
}

/// The repository revision, when the benchmark runs inside a git checkout.
fn git_rev() -> String {
    Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_owned())
        .unwrap_or_else(|| "unknown".to_owned())
}

/// `--workload all`: runs every workload as a child process of this binary
/// (so each reports its own peak RSS) and prints one table of every metric
/// with its unit, sample count and the workload's failed ratio.
pub fn run_all(seed: u64, seconds: f64, trace: bool) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(err) => {
            eprintln!("perfbench: cannot locate own binary: {err}");
            return ExitCode::FAILURE;
        }
    };
    let mut rows = Vec::new();
    let mut ok = true;
    for workload in Workload::ALL {
        let output = Command::new(&exe)
            .args(["--workload", workload.name()])
            .args(["--seed", &seed.to_string()])
            .args(["--seconds", &seconds.to_string()])
            .args(["--trace", if trace { "1" } else { "0" }])
            .stderr(Stdio::inherit())
            .output();
        let Ok(output) = output else {
            eprintln!("perfbench: could not run {}", workload.name());
            ok = false;
            continue;
        };
        ok &= output.status.success();
        let stdout = String::from_utf8_lossy(&output.stdout);
        let lines: Vec<&str> = stdout.lines().collect();
        let parsed = lines
            .iter()
            .rev()
            .take(2)
            .map(|l| parse_json(l))
            .collect::<Option<Vec<JsonValue>>>();
        let Some([result, env]) = parsed.as_deref() else {
            eprintln!("perfbench: {} printed no result", workload.name());
            ok = false;
            continue;
        };
        rows.push((workload, result.clone(), env.clone()));
    }
    println!(
        "{:<18} {:<32} {:>14} {:<6} {:>8} {:>12}",
        "workload", "metric", "value", "unit", "samples", "failed_ratio"
    );
    for (workload, result, env) in &rows {
        let num = |v: Option<&JsonValue>| v.and_then(JsonValue::as_f64).unwrap_or(f64::NAN);
        let failed_ratio = num(result.get("failed")) / num(result.get("attempted")).max(1.0);
        let samples = env.get("env").and_then(|e| e.get("samples"));
        let Some(metrics) = result.get("metrics").and_then(JsonValue::as_object) else {
            continue;
        };
        for (name, metric) in metrics {
            println!(
                "{:<18} {:<32} {:>14.4} {:<6} {:>8} {:>12.4}",
                workload.name(),
                name,
                num(metric.get("value")),
                metric
                    .get("unit")
                    .and_then(JsonValue::as_str)
                    .unwrap_or("?"),
                num(samples.and_then(|s| s.get(name))),
                failed_ratio
            );
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
