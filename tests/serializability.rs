//! Cross-crate correctness: every benchmark kernel, under every detector,
//! must preserve transactional semantics — no isolation violations, no lost
//! updates, deterministic replay.

use asf_core::detector::DetectorKind;
use asf_machine::machine::{Machine, SimConfig};
use asf_workloads::Scale;

fn detectors() -> Vec<DetectorKind> {
    DetectorKind::paper_set()
}

/// Paper config with the residency-index and spec-directory exactness
/// cross-checks enabled on every probe (DESIGN.md §10, §11) — this whole
/// suite doubles as their stress test.
fn cfg(d: DetectorKind, seed: u64) -> SimConfig {
    let mut c = SimConfig::paper_seeded(d, seed);
    c.verify = true;
    c
}

#[test]
fn no_isolation_violations_across_suite() {
    // Full detector set on three representative benchmarks, the headline
    // trio (baseline/sb4/perfect) on the rest — keeps the suite fast while
    // covering every (workload, detector) class.
    for w in asf_workloads::all(Scale::Small) {
        let full = matches!(w.name(), "kmeans" | "vacation" | "utilitymine");
        let ds: Vec<_> = if full {
            detectors()
        } else {
            vec![DetectorKind::Baseline, DetectorKind::SubBlock(4), DetectorKind::Perfect]
        };
        for d in ds {
            let out = Machine::run(w.as_ref(), cfg(d, 99));
            assert_eq!(
                out.stats.isolation_violations, 0,
                "{} under {d} violated isolation",
                w.name()
            );
        }
    }
}

#[test]
fn every_transaction_completes() {
    // started == committed + fallback-committed? Fallback commits are
    // counted inside tx_committed already via on_commit; check the stronger
    // invariant: every started transaction eventually commits exactly once.
    for w in asf_workloads::all(Scale::Small) {
        for d in [DetectorKind::Baseline, DetectorKind::SubBlock(4), DetectorKind::Perfect] {
            let out = Machine::run(w.as_ref(), cfg(d, 7));
            assert_eq!(
                out.stats.tx_started, out.stats.tx_committed,
                "{} under {d}: started != committed",
                w.name()
            );
            assert_eq!(
                out.stats.tx_attempts,
                out.stats.tx_committed - out.stats.fallback_commits + out.stats.tx_aborted,
                "{} under {d}: attempt accounting broken",
                w.name()
            );
        }
    }
}

#[test]
fn perfect_detector_reports_zero_false_conflicts() {
    for w in asf_workloads::all(Scale::Small) {
        let out = Machine::run(w.as_ref(), cfg(DetectorKind::Perfect, 11));
        assert_eq!(
            out.stats.conflicts.false_total(),
            0,
            "{} perfect system saw false conflicts",
            w.name()
        );
    }
}

#[test]
fn waw_share_is_negligible_at_baseline() {
    // The paper's Figure 2 observation that WAW false conflicts are ≈ 0%
    // must hold across the whole suite at line granularity.
    for w in asf_workloads::all(Scale::Small) {
        let out = Machine::run(w.as_ref(), cfg(DetectorKind::Baseline, 13));
        let waw = out.stats.conflicts.false_by_type[2];
        let total = out.stats.conflicts.false_total();
        assert!(
            waw * 20 <= total.max(1),
            "{}: WAW false share too large ({waw}/{total})",
            w.name()
        );
    }
}

#[test]
fn runs_are_bit_deterministic() {
    for w in asf_workloads::all(Scale::Small).into_iter().take(3) {
        let a = Machine::run(w.as_ref(), cfg(DetectorKind::SubBlock(4), 5));
        let b = Machine::run(w.as_ref(), cfg(DetectorKind::SubBlock(4), 5));
        assert_eq!(a.stats.cycles, b.stats.cycles, "{}", w.name());
        assert_eq!(a.stats.conflicts, b.stats.conflicts, "{}", w.name());
        assert_eq!(a.stats.tx_attempts, b.stats.tx_attempts, "{}", w.name());
        assert_eq!(a.stats.probes, b.stats.probes, "{}", w.name());
    }
}

#[test]
fn different_seeds_change_timings() {
    let w = asf_workloads::by_name("vacation", Scale::Small).unwrap();
    let a = Machine::run(w.as_ref(), cfg(DetectorKind::Baseline, 1));
    let b = Machine::run(w.as_ref(), cfg(DetectorKind::Baseline, 2));
    assert_ne!(a.stats.cycles, b.stats.cycles);
}
