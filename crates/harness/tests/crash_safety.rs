//! Crash-safe harness behaviour: a worker panic becomes a failed cell
//! instead of a dead run, and tables render partial results around it.

use asf_core::detector::DetectorKind;
use asf_harness::error::HarnessError;
use asf_harness::experiments;
use asf_harness::matrix::{ComputeOpts, InjectPanic, Matrix};
use asf_workloads::Scale;

const BENCHES: [&str; 2] = ["ssca2", "intruder"];
const DETECTORS: [DetectorKind; 2] = [DetectorKind::Baseline, DetectorKind::SubBlock(4)];
const SEEDS: [u64; 2] = [7, 8];

fn grid(opts: ComputeOpts) -> Matrix {
    Matrix::compute_opts(&BENCHES, &DETECTORS, Scale::Small, &SEEDS, opts)
}

fn inject(bench: &str, detector: DetectorKind) -> Option<InjectPanic> {
    Some(InjectPanic { bench: bench.to_string(), detector: detector.label() })
}

#[test]
fn worker_panic_becomes_a_failed_cell_and_the_grid_survives() {
    let m = grid(ComputeOpts {
        inject_panic: inject("ssca2", DetectorKind::Baseline),
        ..ComputeOpts::default()
    });
    // Every cell is present; only the injected one failed.
    assert_eq!(m.len(), 4);
    let failed = m.failed_cells();
    assert_eq!(failed.len(), 1);
    assert_eq!(failed[0].0.bench, "ssca2");
    assert_eq!(failed[0].0.detector, "baseline");
    assert!(failed[0].1.contains("injected worker panic"), "{}", failed[0].1);
    assert!(matches!(
        m.get("ssca2", DetectorKind::Baseline),
        Err(HarnessError::FailedCell { .. })
    ));
    // Sibling cells are intact.
    assert!(m.get("ssca2", DetectorKind::SubBlock(4)).unwrap().tx_committed > 0);
    assert!(m.get("intruder", DetectorKind::Baseline).unwrap().tx_committed > 0);
    // Tables render partial results around the hole.
    let t = experiments::fig1(&m);
    let text = t.render();
    assert!(text.contains("failed"), "{text}");
    assert!(text.contains("intruder"), "{text}");
}
