//! End-to-end CLI tests: drive the `asf-repro` binary as a user would.
//! Only matrix-free experiments are exercised to keep the suite fast.

use std::process::Command;

fn run(args: &[&str]) -> (String, String, bool) {
    let out = Command::new(env!("CARGO_BIN_EXE_asf-repro"))
        .args(args)
        .output()
        .expect("spawn asf-repro");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.success(),
    )
}

#[test]
fn table1_prints_the_state_encoding() {
    let (stdout, _, ok) = run(&["table1"]);
    assert!(ok);
    assert!(stdout.contains("Non-speculative"));
    assert!(stdout.contains("S-WR"));
    assert!(stdout.contains("Dirty"));
}

#[test]
fn fig6_and_fig7_run_without_a_matrix() {
    let (stdout, stderr, ok) = run(&["fig6", "fig7"]);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("dirty-state hazard"));
    assert!(stdout.contains("piggy-back"));
    // These commands must not trigger the expensive matrix build.
    assert!(!stderr.contains("computing run matrix"));
}

#[test]
fn overhead_reports_the_paper_numbers() {
    let (stdout, _, ok) = run(&["overhead"]);
    assert!(ok);
    assert!(stdout.contains("1.17%"));
    assert!(stdout.contains("768"));
}

#[test]
fn unknown_experiment_fails_with_usage() {
    let (_, stderr, ok) = run(&["nonesuch"]);
    assert!(!ok);
    assert!(stderr.contains("unknown experiment"));
    assert!(stderr.contains("usage:"));
}

#[test]
fn unknown_flags_fail_with_usage_before_any_work() {
    // Unknown flags are rejected up front, before the matrix is computed.
    for args in [&["--checkpoint", "x", "all"][..], &["--resume", "all"][..]] {
        let (_, stderr, ok) = run(args);
        assert!(!ok, "{args:?}");
        assert!(stderr.contains(&format!("unknown flag {}", args[0])), "{stderr}");
        assert!(stderr.contains("usage:"), "{stderr}");
        assert!(!stderr.contains("computing run matrix"), "{stderr}");
    }
}

#[test]
fn help_flag_prints_usage_and_succeeds() {
    let (stdout, _, ok) = run(&["--help"]);
    assert!(ok);
    assert!(stdout.contains("usage:"));
}

#[test]
fn csv_and_json_outputs_are_written() {
    let dir = std::env::temp_dir().join(format!("asf_repro_cli_test_{}", std::process::id()));
    let dir_s = dir.to_str().unwrap();
    let (_, _, ok) = run(&["table3", "--csv", dir_s, "--json", dir_s]);
    assert!(ok);
    let csv = std::fs::read_to_string(dir.join("table3.csv")).expect("csv written");
    assert!(csv.lines().count() == 11, "header + 10 benchmarks");
    let json = std::fs::read_to_string(dir.join("table3.json")).expect("json written");
    assert!(json.contains("\"benchmark\": \"kmeans\""));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn bad_scale_is_rejected() {
    let (_, stderr, ok) = run(&["table1", "--scale", "galactic"]);
    assert!(!ok);
    assert!(stderr.contains("unknown scale"));
}
