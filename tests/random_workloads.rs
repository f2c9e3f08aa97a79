//! Property-based stress: random transactional workloads over a small
//! address pool must never violate isolation, lose counter updates, or
//! hang, under any detector. This is the machine-level analogue of the
//! detector-level proptests in `asf-core`.

use asf_core::detector::DetectorKind;
use asf_machine::machine::{Machine, SimConfig};
use asf_machine::txprog::{ScriptedWorkload, TxAttempt, TxOp, WorkItem};
use asf_mem::addr::Addr;
use asf_mem::config::MachineConfig;
use proptest::prelude::*;

/// A compact description of one random transaction.
#[derive(Clone, Debug)]
struct RandTx {
    ops: Vec<RandOp>,
}

#[derive(Clone, Debug)]
enum RandOp {
    Read { slot: u8, size: u8 },
    Incr { slot: u8 },
    Compute { cycles: u16 },
}

/// Slots live on 4 lines, 8 slots each, so transactions share lines
/// aggressively (maximum false-sharing pressure).
const SLOTS: u8 = 32;
const BASE: u64 = 0x2_0000;

fn slot_addr(slot: u8) -> Addr {
    Addr(BASE + (slot as u64) * 8)
}

fn arb_op() -> impl Strategy<Value = RandOp> {
    prop_oneof![
        (0..SLOTS, 1u8..=8).prop_map(|(slot, size)| RandOp::Read { slot, size }),
        (0..SLOTS).prop_map(|slot| RandOp::Incr { slot }),
        (1u16..200).prop_map(|cycles| RandOp::Compute { cycles }),
    ]
}

fn arb_tx() -> impl Strategy<Value = RandTx> {
    prop::collection::vec(arb_op(), 1..8).prop_map(|ops| RandTx { ops })
}

fn arb_thread() -> impl Strategy<Value = Vec<RandTx>> {
    prop::collection::vec(arb_tx(), 1..12)
}

fn arb_detector() -> impl Strategy<Value = DetectorKind> {
    prop::sample::select(DetectorKind::paper_set())
}

fn build_workload(threads: &[Vec<RandTx>]) -> (ScriptedWorkload, Vec<u64>) {
    let mut expected = vec![0u64; SLOTS as usize];
    let mut scripts = Vec::new();
    for thread in threads {
        let mut items = Vec::new();
        for t in thread {
            let mut ops = Vec::new();
            for op in &t.ops {
                match *op {
                    RandOp::Read { slot, size } => {
                        ops.push(TxOp::Read { addr: slot_addr(slot), size: size as u32 })
                    }
                    RandOp::Incr { slot } => {
                        expected[slot as usize] += 1;
                        ops.push(TxOp::Update { addr: slot_addr(slot), size: 8, delta: 1 })
                    }
                    RandOp::Compute { cycles } => {
                        ops.push(TxOp::Compute { cycles: cycles as u64 })
                    }
                }
            }
            items.push(WorkItem::Tx(TxAttempt::new(ops)));
        }
        scripts.push(items);
    }
    (ScriptedWorkload { name: "random", scripts }, expected)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// All committed increments survive, exactly once each, and the
    /// isolation oracle stays silent — under every detector.
    #[test]
    fn random_workloads_are_serializable(
        threads in prop::collection::vec(arb_thread(), 2..5),
        detector in arb_detector(),
        enable_dirty in prop::bool::weighted(0.8),
        seed in 0u64..1000,
    ) {
        // Soundness requires the dirty mechanism for sub-line detectors;
        // only pair `enable_dirty = false` with the baseline.
        prop_assume!(enable_dirty || detector == DetectorKind::Baseline);
        let (workload, expected) = build_workload(&threads);
        let mut cfg = SimConfig::paper_seeded(detector, seed);
        cfg.machine = MachineConfig::opteron_with_cores(threads.len());
        cfg.enable_dirty = enable_dirty;
        cfg.max_retries = 16;
        // Exactness cross-checks of the residency index (DESIGN.md §10)
        // and the speculative-state directory (DESIGN.md §11) on every
        // probe — free coverage from the random stress.
        cfg.verify = true;
        let out = Machine::run(&workload, cfg);
        prop_assert_eq!(out.stats.isolation_violations, 0);
        let total_txns: u64 = threads.iter().map(|t| t.len() as u64).sum();
        prop_assert_eq!(out.stats.tx_committed, total_txns);
        for (slot, &want) in expected.iter().enumerate() {
            let got = out.memory.read_u64(slot_addr(slot as u8), 8);
            prop_assert_eq!(got, want, "slot {} lost updates", slot);
        }
    }
}
