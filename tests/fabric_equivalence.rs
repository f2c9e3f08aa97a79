//! The probe filter must be outcome-equivalent to broadcast snooping: the
//! directory is conservative, so every core that *could* matter is still
//! probed — only the probe-target count shrinks.
//!
//! The second half of this file pins the residency-index walk narrowing
//! (DESIGN.md §10) the same way: skipping cores the index says hold
//! nothing must leave every statistic — including accounted probe traffic
//! — bit-identical to walking every fabric-selected core.

use asf_core::detector::DetectorKind;
use asf_machine::machine::{FabricKind, Machine, SimConfig, SignatureConfig};
use asf_machine::txprog::{ScriptedWorkload, TxAttempt, TxOp, WorkItem};
use asf_mem::addr::Addr;
use asf_mem::rng::SimRng;
use asf_workloads::Scale;

fn run(bench: &str, detector: DetectorKind, fabric: FabricKind) -> asf_stats::run::RunStats {
    let w = asf_workloads::by_name(bench, Scale::Small).expect("known benchmark");
    let mut cfg = SimConfig::paper_seeded(detector, 31);
    cfg.fabric = fabric;
    Machine::run(w.as_ref(), cfg).stats
}

#[test]
fn probe_filter_is_outcome_equivalent_to_broadcast() {
    for bench in ["ssca2", "vacation", "kmeans", "intruder", "utilitymine"] {
        for detector in [DetectorKind::Baseline, DetectorKind::SubBlock(4)] {
            let b = run(bench, detector, FabricKind::Broadcast);
            let f = run(bench, detector, FabricKind::ProbeFilter);
            assert_eq!(b.cycles, f.cycles, "{bench}/{detector}: cycles diverged");
            assert_eq!(b.conflicts, f.conflicts, "{bench}/{detector}: conflicts diverged");
            assert_eq!(b.tx_attempts, f.tx_attempts, "{bench}/{detector}");
            assert_eq!(b.tx_aborted, f.tx_aborted, "{bench}/{detector}");
            assert_eq!(b.probes, f.probes, "{bench}/{detector}: probe count differs");
            assert!(
                f.probe_targets < b.probe_targets,
                "{bench}/{detector}: the filter saved nothing \
                 ({} vs {})",
                f.probe_targets,
                b.probe_targets
            );
            assert_eq!(b.isolation_violations, 0);
            assert_eq!(f.isolation_violations, 0);
        }
    }
}

#[test]
fn broadcast_targets_are_exactly_n_minus_one_per_probe() {
    let b = run("ssca2", DetectorKind::Baseline, FabricKind::Broadcast);
    assert_eq!(b.probe_targets, b.probes * 7, "8-core broadcast visits 7 per probe");
}

/// A deterministic pseudo-random workload mixing hot shared lines (every
/// thread hits them — multi-sharer probes) with thread-private regions
/// (zero-sharer probes, where the residency index pays off), plus enough
/// increments to keep transactions conflicting and aborting.
fn randomized_workload(seed: u64, threads: usize) -> ScriptedWorkload {
    const SHARED_BASE: u64 = 0x4_0000;
    const SHARED_SLOTS: u64 = 24; // 3 lines x 8 slots: heavy false sharing
    const PRIVATE_BASE: u64 = 0x8_0000;
    let mut scripts = Vec::new();
    for tid in 0..threads {
        let mut rng = SimRng::derive(seed, tid as u64);
        let mut items = Vec::new();
        for _ in 0..rng.range(8, 16) {
            let mut ops = Vec::new();
            for _ in 0..rng.range(2, 9) {
                let addr = if rng.chance(1, 2) {
                    Addr(SHARED_BASE + rng.below(SHARED_SLOTS) * 8)
                } else {
                    Addr(PRIVATE_BASE + ((tid as u64) << 12) + rng.below(32) * 8)
                };
                if rng.chance(1, 3) {
                    ops.push(TxOp::Update { addr, size: 8, delta: 1 });
                } else {
                    ops.push(TxOp::Read { addr, size: 8 });
                }
            }
            items.push(WorkItem::Tx(TxAttempt::new(ops)));
            if rng.chance(1, 4) {
                items.push(WorkItem::Compute { cycles: rng.range(10, 200) });
            }
        }
        scripts.push(items);
    }
    ScriptedWorkload { name: "randomized", scripts }
}

/// Run the randomized workload and return the full stats, optionally with
/// the residency index disabled for walk narrowing (exhaustive walk) and/or
/// the per-probe exactness cross-check enabled.
fn run_randomized(cfg_mut: impl Fn(&mut SimConfig)) -> asf_stats::run::RunStats {
    let w = randomized_workload(0xFABEC, 6);
    let mut cfg = SimConfig::paper_seeded(DetectorKind::SubBlock(4), 0xFAB);
    cfg_mut(&mut cfg);
    Machine::run(&w, cfg).stats
}

/// The tentpole equivalence: narrowing the probe walk to index-resident
/// cores changes *nothing* observable — not cycles, not conflicts, not the
/// accounted probe traffic — versus walking every fabric-selected core.
#[test]
fn residency_narrowed_walk_equals_exhaustive_walk() {
    for fabric in [FabricKind::Broadcast, FabricKind::ProbeFilter] {
        for signatures in [None, Some(SignatureConfig::logtm_se())] {
            let set = |c: &mut SimConfig| {
                c.fabric = fabric;
                c.signatures = signatures;
            };
            let narrowed = run_randomized(set);
            let exhaustive = run_randomized(|c| {
                set(c);
                c.exhaustive_probe_walk = true;
            });
            assert_eq!(
                narrowed, exhaustive,
                "{fabric:?}/signatures={}: residency narrowing changed results",
                signatures.is_some()
            );
            assert!(narrowed.tx_aborted > 0, "workload too tame to exercise conflicts");
        }
    }
}

/// The exactness cross-check (every probe, not the debug-build sampling)
/// passes on a conflict-heavy run, and the index is exact at the end too.
#[test]
fn residency_index_stays_exact_under_verification() {
    let w = randomized_workload(0xFABEC, 6);
    let mut cfg = SimConfig::paper_seeded(DetectorKind::SubBlock(4), 0xFAB);
    cfg.verify = true;
    let mut m = Machine::new(&w, cfg);
    let out = m.run_to_completion();
    m.verify_residency_index().expect("index exact after run");
    assert!(out.stats.tx_aborted > 0);
}

/// PR 3 equivalence: resolving victim speculative state from the global
/// spec directory (one lookup + bit ops) must leave every statistic
/// bit-identical to the exhaustive per-victim metadata walk (L1 +
/// `retained` per candidate), across fabrics and signature mode, on a
/// randomized conflict-heavy workload.
#[test]
fn spec_directory_resolution_equals_exhaustive_metadata_walk() {
    for fabric in [FabricKind::Broadcast, FabricKind::ProbeFilter] {
        for signatures in [None, Some(SignatureConfig::logtm_se())] {
            let set = |c: &mut SimConfig| {
                c.fabric = fabric;
                c.signatures = signatures;
            };
            let directory = run_randomized(set);
            let walked = run_randomized(|c| {
                set(c);
                c.exhaustive_spec_walk = true;
            });
            assert_eq!(
                directory, walked,
                "{fabric:?}/signatures={}: spec-directory resolution changed results",
                signatures.is_some()
            );
            assert!(directory.tx_aborted > 0, "workload too tame to exercise conflicts");
        }
    }
    // Both probe-path indexes disabled at once must also agree (the two
    // exhaustive modes compose).
    let both_off = run_randomized(|c| {
        c.exhaustive_probe_walk = true;
        c.exhaustive_spec_walk = true;
    });
    assert_eq!(both_off, run_randomized(|_| ()));
}

/// The spec-directory cross-check (every probe) passes on a conflict-heavy
/// run, and the directory is exact — both directions — at the end too.
#[test]
fn spec_directory_stays_exact_under_verification() {
    let w = randomized_workload(0xFABEC, 6);
    let mut cfg = SimConfig::paper_seeded(DetectorKind::SubBlock(4), 0xFAB);
    cfg.verify = true;
    let mut m = Machine::new(&w, cfg);
    let out = m.run_to_completion();
    m.verify_spec_directory_index().expect("directory exact after run");
    assert!(out.stats.tx_aborted > 0);
}

#[test]
fn filter_savings_are_substantial_on_private_heavy_workloads() {
    // intruder's packet areas are thread-private: most lines have at most
    // one sharer, so the filter should cut probe traffic by a lot.
    let b = run("intruder", DetectorKind::Baseline, FabricKind::Broadcast);
    let f = run("intruder", DetectorKind::Baseline, FabricKind::ProbeFilter);
    let saved = 1.0 - f.probe_targets as f64 / b.probe_targets as f64;
    assert!(saved > 0.3, "expected >30% probe-target savings, got {:.1}%", saved * 100.0);
}
