//! `perfbench` — client-side TCP benchmark of the kSPR serving stack.
//!
//! ```text
//! perfbench --workload <lookup-light|exact-competitive|mixed-durable|all>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each run generates its inputs from the seed, sets the system up at least
//! three times (reporting the median set-up time, keeping the last), drives
//! two loopback connections in a closed loop for `--seconds`, checks every
//! answer, then times `Server::recover` at least three times on a crash
//! image of the live state (reporting the fastest).  With `--trace 0` the
//! result's metrics are the end-to-end ones; with `--trace 1` the same
//! streams run again traced and the metrics are the per-layer ones (see
//! `layers`).  The last stdout line is the JSON result; the line before it
//! is the environment record.  `--workload all` runs every workload and
//! prints one table.

mod harness;
mod layers;
mod report;

use harness::Kind;
use kspr_serve::ServeOptions;
use perfbench::inputs::{Inputs, Workload};
use perfbench::stats::{median, quantile};
use report::{Metric, Outcome};
use std::path::PathBuf;
use std::process::ExitCode;

/// Scratch state of a run, removed when it ends.
const STATE_ROOT: &str = ".bench_state";

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut all = false;
    let mut seed = 1;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" if value == "all" => all = true,
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed {value}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad seconds {value}"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace flag {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if workload.is_none() && !all {
        return Err("--workload is required".into());
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(err) => {
            eprintln!(
                "perfbench: {err}\nusage: perfbench --workload <lookup-light|exact-competitive|\
                 mixed-durable|all> --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let Some(workload) = args.workload else {
        return report::run_all(args.seed, args.seconds, args.trace);
    };
    match run(workload, &args) {
        Ok(outcome) => {
            outcome.print();
            if outcome.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(err) => {
            eprintln!("perfbench: {} failed: {err}", workload.name());
            ExitCode::FAILURE
        }
    }
}

fn run(workload: Workload, args: &Args) -> Result<Outcome, String> {
    let inputs = Inputs::generate(workload, args.seed);
    let scratch = PathBuf::from(STATE_ROOT).join(format!(
        "{}-{}-{}",
        workload.name(),
        args.seed,
        std::process::id()
    ));
    let result = measure(&inputs, args, &scratch);
    let _ = std::fs::remove_dir_all(&scratch);
    let _ = std::fs::remove_dir(STATE_ROOT);
    result
}

fn measure(inputs: &Inputs, args: &Args, scratch: &std::path::Path) -> Result<Outcome, String> {
    let options = ServeOptions {
        flight_recorder_capacity: if args.trace {
            layers::RECORDER_CAPACITY
        } else {
            ServeOptions::default().flight_recorder_capacity
        },
        ..ServeOptions::default()
    };
    let mut setup_secs = Vec::new();
    let mut live = None;
    for rep in 0.. {
        if !harness::repeat(rep, setup_secs.iter().sum(), 1.5) {
            break;
        }
        let (next, secs) = harness::set_up(inputs, options, &scratch.join(format!("serve-{rep}")))?;
        setup_secs.push(secs);
        if let Some(previous) = live.replace(next) {
            previous.shut_down();
        }
    }
    let mut live = live.expect("at least one set-up");

    let mut window = harness::closed_loop(inputs, &mut live, args.seconds, false, usize::MAX);
    harness::check_window(inputs, &mut window);
    harness::drain(&mut live, &window)?;
    let mut errors: Vec<String> = window.conns.iter().flat_map(|c| c.errors.clone()).collect();
    // Every window request, every standing subscription (its initial result
    // is checked below) and the recovery probe set.
    let mut attempted = window.attempted() + live.initial.len() + 1;
    let mut failed = window.failed();
    if !live.initial.is_empty() {
        let expected = harness::oracle(inputs, &inputs.standing[..live.initial.len()]);
        let wrong = live
            .initial
            .iter()
            .zip(&expected)
            .filter(|(a, b)| a != b)
            .count();
        if wrong > 0 {
            failed += wrong;
            errors.push(format!(
                "{wrong} standing initial results differ from the oracle"
            ));
        }
    }
    let query_ms = window.latencies_ms(Kind::Query);
    let update_ms = window.latencies_ms(Kind::Update);

    let live_layers = args.trace.then(|| {
        let (metrics, traced_attempted, traced_failed) = layers::live_layers(
            inputs,
            &mut live,
            args.seconds,
            median(&query_ms),
            &mut errors,
        );
        attempted += traced_attempted;
        failed += traced_failed;
        metrics
    });

    // Serialize behind every queued maintenance pass before the crash image.
    live.server
        .handle()
        .subscriptions()
        .wait()
        .map_err(|err| format!("barrier: {err}"))?;
    let recovery = harness::recover(inputs, &live, scratch)?;
    if !recovery.probes_match {
        failed += 1;
        errors.push("the recovered server answers the probe set differently".into());
    }
    live.shut_down();

    let metrics = match live_layers {
        Some(mut metrics) => {
            metrics.extend(layers::replay_layers(inputs, &window, scratch)?);
            metrics.push(Metric::new(
                "durable.load_s",
                median(&recovery.load_secs),
                "s",
                recovery.load_secs.len(),
            ));
            metrics
        }
        None => {
            let completed = window.samples().filter(|s| s.ok).count();
            vec![
                Metric::new("query_p50_ms", median(&query_ms), "ms", query_ms.len()),
                Metric::new(
                    "query_p95_ms",
                    quantile(&query_ms, 0.95),
                    "ms",
                    query_ms.len(),
                ),
                Metric::new("update_p50_ms", median(&update_ms), "ms", update_ms.len()),
                Metric::new(
                    "update_p95_ms",
                    quantile(&update_ms, 0.95),
                    "ms",
                    update_ms.len(),
                ),
                Metric::new(
                    "throughput_rps",
                    completed as f64 / window.wall_secs,
                    "1/s",
                    completed,
                ),
                Metric::new("setup_s", median(&setup_secs), "s", setup_secs.len()),
                // Fastest recovery: re-registration is CPU-bound, and on a
                // shared 2-core host the run-to-run spread of the median
                // (0.24..0.36 s on mixed-durable) exceeded any useful bound.
                Metric::new(
                    "recover_s",
                    quantile(&recovery.recover_secs, 0.0),
                    "s",
                    recovery.recover_secs.len(),
                ),
                Metric::new("peak_rss_mb", peak_rss_mb(), "MB", 1),
            ]
        }
    };
    Ok(Outcome {
        workload: inputs.workload,
        seed: inputs.seed,
        seconds: args.seconds,
        trace: args.trace,
        attempted,
        failed,
        metrics,
        errors,
    })
}

/// The process's peak resident set (`VmHWM`), in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}
