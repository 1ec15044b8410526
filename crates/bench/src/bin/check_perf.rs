//! CI perf-trajectory smoke checker for the sectioned `BENCH_perf.json`.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p kspr-bench --bin check_perf -- [path] [section...]
//! ```
//!
//! * `[path]` defaults to `BENCH_perf.json` in the working directory.
//! * `[section...]` are the sections that must be present; with none given,
//!   every section found in the file is checked.
//!
//! Checks, per section: the section parses as a JSON object, carries a
//! `"scale"` tag and a positive integer `"cores"` count (the host it was
//! recorded on), and every number in it is finite.  The speedup-style
//! sections (`batch`, `update`, `approx`) get structural checks on top:
//! they must report positive timings and drawn samples.  Exits non-zero
//! with a message on the first failure, so a workflow step can gate on it
//! directly.
//!
//! The serving pipeline's per-stage and per-phase percentiles are not
//! sections here: they come from the client-side benchmark
//! (`perfbench --trace 1`), and the `telemetry_loopback` / `trace_loopback`
//! tests of `kspr-serve` assert that every stage and phase histogram is
//! live and that `/trace` exports well-formed span trees.

use kspr_telemetry::{parse_json, JsonValue};

fn fail(message: impl AsRef<str>) -> ! {
    eprintln!("[check_perf] FAIL: {}", message.as_ref());
    std::process::exit(1);
}

fn number(section: &str, value: &JsonValue, key: &str) -> f64 {
    value
        .get(key)
        .and_then(|v| v.as_f64())
        .unwrap_or_else(|| fail(format!("section `{section}` is missing numeric `{key}`")))
}

fn check_section(name: &str, section: &JsonValue) {
    if section.as_object().is_none() {
        fail(format!("section `{name}` is not a JSON object"));
    }
    if section.get("scale").and_then(|v| v.as_str()).is_none() {
        fail(format!("section `{name}` is missing its `scale` tag"));
    }
    let cores = section.get("cores").and_then(|v| v.as_f64());
    if !cores.is_some_and(|c| c >= 1.0 && c.fract() == 0.0) {
        fail(format!(
            "section `{name}` is missing a positive integer `cores` count"
        ));
    }
    if !section.is_finite() {
        fail(format!("section `{name}` contains a non-finite number"));
    }
    match name {
        "batch" => {
            let algorithms = section
                .get("algorithms")
                .and_then(|v| v.as_object())
                .unwrap_or_else(|| fail("batch section has no `algorithms` object"));
            for (algorithm, row) in algorithms {
                if number("batch", row, "sequential_secs") <= 0.0
                    || number("batch", row, "batch_secs") <= 0.0
                {
                    fail(format!("batch timings for `{algorithm}` are not positive"));
                }
            }
        }
        "update" => {
            let mixes = section
                .get("mixes")
                .and_then(|v| v.as_object())
                .unwrap_or_else(|| fail("update section has no `mixes` object"));
            for (mix, row) in mixes {
                if number("update", row, "incremental_secs") <= 0.0
                    || number("update", row, "rebuild_secs") <= 0.0
                {
                    fail(format!("update timings for mix `{mix}` are not positive"));
                }
            }
        }
        "approx" => {
            let frontier = section
                .get("frontier")
                .and_then(|v| v.as_object())
                .unwrap_or_else(|| fail("approx section has no `frontier` object"));
            for (mix, rows) in frontier {
                let rows = rows
                    .as_array()
                    .unwrap_or_else(|| fail(format!("approx frontier `{mix}` is not an array")));
                if rows.is_empty() {
                    fail(format!("approx frontier `{mix}` has no rows"));
                }
                for row in rows {
                    if number("approx", row, "samples") < 1.0 {
                        fail(format!("approx frontier `{mix}` drew no samples"));
                    }
                }
            }
        }
        _ => {}
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (path, wanted) = match args.split_first() {
        Some((first, rest)) if first.ends_with(".json") => (first.as_str(), rest),
        _ => ("BENCH_perf.json", &args[..]),
    };
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|err| fail(format!("could not read {path}: {err}")));
    let json = parse_json(&text).unwrap_or_else(|| fail(format!("{path} is not valid JSON")));
    let sections = json
        .as_object()
        .unwrap_or_else(|| fail(format!("{path} is not a JSON object")));

    let mut checked = 0usize;
    if wanted.is_empty() {
        for (name, section) in sections {
            check_section(name, section);
            checked += 1;
        }
    } else {
        for name in wanted {
            let section = sections
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| v)
                .unwrap_or_else(|| fail(format!("{path} has no `{name}` section")));
            check_section(name, section);
            checked += 1;
        }
    }
    if checked == 0 {
        fail(format!("{path} has no sections to check"));
    }
    println!("[check_perf] OK: {checked} section(s) of {path} verified");
}
