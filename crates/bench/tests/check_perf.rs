//! End-to-end checks of the `check_perf` binary: it runs on small perf
//! files written to a temporary directory, and its exit status is the
//! verdict a CI step gates on.

use std::process::Command;

/// Writes `contents` to a temporary file named `name`, runs
/// `check_perf <file> <sections...>` on it, removes the file and returns
/// the exit code.
fn verdict(name: &str, contents: &str, sections: &[&str]) -> i32 {
    let dir = std::env::temp_dir().join(format!("kspr-check-perf-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temporary directory");
    let path = dir.join(name);
    std::fs::write(&path, contents).expect("perf file written");
    let out = Command::new(env!("CARGO_BIN_EXE_check_perf"))
        .arg(&path)
        .args(sections)
        .output()
        .expect("check_perf runs");
    let _ = std::fs::remove_file(&path);
    out.status.code().expect("check_perf exited normally")
}

const BATCH: &str = r#""batch": {"scale": "quick", "cores": 2, "algorithms":
    {"LPCTA": {"sequential_secs": 0.4, "batch_secs": 0.25}}}"#;

#[test]
fn well_formed_section_passes() {
    assert_eq!(verdict("ok.json", &format!("{{{BATCH}}}"), &["batch"]), 0);
}

#[test]
fn section_without_cores_fails() {
    let no_cores = r#"{"serve": {"scale": "quick", "qps": 12.5}}"#;
    assert_eq!(verdict("no_cores.json", no_cores, &["serve"]), 1);
    let zero_cores = r#"{"serve": {"scale": "quick", "cores": 0, "qps": 12.5}}"#;
    assert_eq!(verdict("zero_cores.json", zero_cores, &["serve"]), 1);
}

#[test]
fn missing_required_section_fails() {
    let file = format!("{{{BATCH}}}");
    assert_eq!(verdict("missing.json", &file, &["batch", "update"]), 1);
}
