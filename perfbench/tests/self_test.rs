//! The benchmark's own tests: a tiny pass of every workload in both modes
//! reports every declared metric with a valid name and unit and no errors,
//! and a deliberately corrupted pin makes the error rate nonzero.

use perfbench::pins::Pins;
use perfbench::{run, Opts, Size, E2E_METRICS, LAYER_METRICS, WORKLOADS};

/// A seed whose tiny-size digests `pins.txt` holds.
const SEED: u64 = 1;

fn tiny(workload: &str, trace: bool, pins: Pins) -> Opts {
    Opts {
        workload: workload.to_string(),
        seed: SEED,
        seconds: 0.0,
        trace,
        size: Size::Tiny,
        pins,
    }
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[test]
fn tiny_passes_report_every_metric_without_errors() {
    for workload in WORKLOADS {
        for trace in [false, true] {
            let out = run(&tiny(workload, trace, Pins::builtin())).expect("tiny run completes");
            let declared = if trace { LAYER_METRICS } else { E2E_METRICS };
            let names: Vec<&str> = out.metrics.0.iter().map(|m| m.name.as_str()).collect();
            let want: Vec<&str> = declared.iter().map(|(n, _)| *n).collect();
            assert_eq!(names, want, "{workload} trace={trace}");
            for m in &out.metrics.0 {
                assert!(valid_name(&m.name), "bad metric name {:?}", m.name);
                assert!(!m.unit.is_empty(), "{} has no unit", m.name);
                assert!(m.value.is_finite(), "{} = {}", m.name, m.value);
            }
            assert!(out.ledger.attempted > 0, "{workload}: nothing was checked");
            assert_eq!(
                out.ledger.error_rate(),
                0.0,
                "{workload} trace={trace}: {:?}",
                out.ledger.notes
            );
            if !trace {
                for name in [
                    "setup_s",
                    "sim_macc_per_s",
                    "jobs_per_s",
                    "job_p50_ms",
                    "peak_rss_mb",
                ] {
                    assert!(
                        out.metrics.get(name).unwrap() > 0.0,
                        "{workload}: {name} is 0"
                    );
                }
            }
        }
    }
}

#[test]
fn a_corrupted_pin_is_counted_as_an_error() {
    for (workload, cell) in [("paper-grid", "kmeans/sb4"), ("huge-shard", "sb4")] {
        let mut pins = Pins::builtin();
        let good = pins
            .get("tiny", workload, SEED, cell)
            .expect("the self-test seed is pinned");
        pins.set("tiny", workload, SEED, cell, good ^ 1);
        let out = run(&tiny(workload, false, pins)).expect("tiny run completes");
        assert!(
            out.ledger.failed > 0,
            "{workload}: corrupted pin went unnoticed"
        );
        assert!(out.ledger.error_rate() > 0.0);
    }
}

#[test]
fn an_unpinned_seed_is_checked_against_reference_runs() {
    for workload in ["paper-grid", "huge-shard"] {
        let out = run(&tiny(workload, false, Pins::default())).expect("tiny run completes");
        assert!(out.ledger.attempted > 0, "{workload}: nothing was checked");
        assert_eq!(
            out.ledger.error_rate(),
            0.0,
            "{workload}: {:?}",
            out.ledger.notes
        );
    }
}

#[test]
fn unknown_workload_is_an_error() {
    assert!(run(&tiny("nonesuch", false, Pins::default())).is_err());
}

#[test]
fn benchmark_json_declares_exactly_the_reported_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let doc = asf_stats::json::parse(&text).expect("BENCHMARK.json parses");
    for (key, declared) in [("end_to_end", E2E_METRICS), ("per_layer", LAYER_METRICS)] {
        let listed: Vec<(String, String)> = doc
            .field(key)
            .and_then(|v| v.as_arr())
            .expect("metric list")
            .iter()
            .map(|m| {
                let s = |k: &str| {
                    m.field(k)
                        .and_then(|v| v.as_str())
                        .expect("string field")
                        .to_string()
                };
                (s("name"), s("unit"))
            })
            .collect();
        let ours: Vec<(String, String)> = declared
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(listed, ours, "{key}");
    }
}
