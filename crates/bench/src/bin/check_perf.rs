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
//! `"scale"` tag, and every number in it is finite.  Sections with known
//! shapes get structural checks on top — the `telemetry` section must
//! report every pipeline stage with live counts, the `trace` section
//! must have retained well-formed traces and a non-empty export, and the
//! speedup-style sections (`batch`, `update`, `approx`) must report
//! positive timings.  Exits non-zero with a message on the first failure,
//! so a workflow step can gate on it directly.

use kspr_telemetry::{parse_json, JsonValue, Stage};

fn fail(message: impl AsRef<str>) -> ! {
    eprintln!("[check_perf] FAIL: {}", message.as_ref());
    std::process::exit(1);
}

/// Every number reachable from `value` must be finite (the emitters write
/// plain decimal, but a NaN/inf regression would render as `NaN`/`inf` and
/// already fail parsing — this guards the parsed tree end to end anyway).
fn assert_finite(section: &str, value: &JsonValue) {
    match value {
        JsonValue::Number(n) if !n.is_finite() => {
            fail(format!("section `{section}` contains a non-finite number"));
        }
        JsonValue::Array(items) => items.iter().for_each(|v| assert_finite(section, v)),
        JsonValue::Object(members) => members.iter().for_each(|(_, v)| assert_finite(section, v)),
        _ => {}
    }
}

fn number(section: &str, value: &JsonValue, key: &str) -> f64 {
    value
        .get(key)
        .and_then(|v| v.as_f64())
        .unwrap_or_else(|| fail(format!("section `{section}` is missing numeric `{key}`")))
}

/// The pipeline stages the `telemetry` section must report: every
/// [`Stage`], so a stage added later is checked without editing this file.
fn required_stages() -> impl Iterator<Item = &'static str> {
    Stage::ALL.into_iter().map(Stage::name)
}

/// The engine phases the `trace` section must report: every phase a
/// [`kspr::Timing`] block breaks a query into.
fn required_phases() -> impl Iterator<Item = &'static str> {
    kspr::Timing::default().iter().map(|(name, _)| name)
}

fn check_section(name: &str, section: &JsonValue) {
    if section.as_object().is_none() {
        fail(format!("section `{name}` is not a JSON object"));
    }
    if section.get("scale").and_then(|v| v.as_str()).is_none() {
        fail(format!("section `{name}` is missing its `scale` tag"));
    }
    assert_finite(name, section);
    match name {
        "telemetry" => {
            let stages = section
                .get("stages")
                .unwrap_or_else(|| fail("telemetry section has no `stages` object"));
            for stage in required_stages() {
                let entry = stages.get(stage).unwrap_or_else(|| {
                    fail(format!("telemetry section is missing stage `{stage}`"))
                });
                if number("telemetry", entry, "count") < 1.0 {
                    fail(format!("telemetry stage `{stage}` recorded nothing"));
                }
            }
        }
        "trace" => {
            if number(name, section, "retained_traces") < 1.0 {
                fail("trace section retained no span trees");
            }
            if number(name, section, "export_events") < 1.0 {
                fail("trace section exported no chrome-trace events");
            }
            if number(name, section, "export_bytes") < 2.0 {
                fail("trace section export is empty");
            }
            let phases = section
                .get("phases")
                .unwrap_or_else(|| fail("trace section has no `phases` object"));
            for phase in required_phases() {
                let entry = phases
                    .get(phase)
                    .unwrap_or_else(|| fail(format!("trace section is missing phase `{phase}`")));
                if number("trace", entry, "count") < 1.0 {
                    fail(format!("trace phase `{phase}` recorded nothing"));
                }
            }
        }
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
