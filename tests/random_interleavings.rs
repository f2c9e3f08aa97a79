//! Property-based stress with *adversarial timing*: random transactions
//! gated by random `WaitUntil` barriers explore interleavings that the
//! free-running fuzz (`random_workloads.rs`) rarely hits — long-lived
//! speculative windows, simultaneous starts, stragglers racing commits.

use asf_core::detector::DetectorKind;
use asf_machine::machine::{Machine, SimConfig};
use asf_machine::txprog::{ScriptedWorkload, TxAttempt, TxOp, WorkItem};
use asf_mem::addr::Addr;
use asf_mem::config::MachineConfig;
use proptest::prelude::*;

const SLOTS: u8 = 16; // 2 lines — maximum line sharing
const BASE: u64 = 0x9_0000;

fn slot_addr(slot: u8) -> Addr {
    Addr(BASE + (slot as u64) * 8)
}

#[derive(Clone, Debug)]
struct GatedTx {
    start_gate: u16,
    ops: Vec<(bool, u8, u16)>, // (is_update, slot, mid_gate_delta)
}

fn arb_tx() -> impl Strategy<Value = GatedTx> {
    (
        0u16..2_000,
        prop::collection::vec((prop::bool::ANY, 0..SLOTS, 0u16..500), 1..5),
    )
        .prop_map(|(start_gate, ops)| GatedTx { start_gate, ops })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn adversarial_interleavings_stay_serializable(
        threads in prop::collection::vec(prop::collection::vec(arb_tx(), 1..6), 2..4),
        detector in prop::sample::select(DetectorKind::paper_set()),
        seed in 0u64..500,
    ) {
        let mut expected = vec![0u64; SLOTS as usize];
        let scripts: Vec<Vec<WorkItem>> = threads
            .iter()
            .map(|txs| {
                txs.iter()
                    .map(|t| {
                        let mut ops = vec![TxOp::WaitUntil { cycle: t.start_gate as u64 }];
                        let mut gate = t.start_gate as u64;
                        for &(is_update, slot, delta) in &t.ops {
                            gate += delta as u64;
                            ops.push(TxOp::WaitUntil { cycle: gate });
                            if is_update {
                                expected[slot as usize] += 1;
                                ops.push(TxOp::Update {
                                    addr: slot_addr(slot),
                                    size: 8,
                                    delta: 1,
                                });
                            } else {
                                ops.push(TxOp::Read { addr: slot_addr(slot), size: 8 });
                            }
                        }
                        WorkItem::Tx(TxAttempt::new(ops))
                    })
                    .collect()
            })
            .collect();
        let total_txns: u64 = scripts.iter().map(|s| s.len() as u64).sum();
        let w = ScriptedWorkload { name: "gated", scripts };
        let mut cfg = SimConfig::paper_seeded(detector, seed);
        cfg.machine = MachineConfig::opteron_with_cores(threads.len());
        cfg.max_retries = 24;
        cfg.verify = true;
        let out = Machine::run(&w, cfg);
        prop_assert_eq!(out.stats.isolation_violations, 0);
        prop_assert_eq!(out.stats.tx_committed, total_txns);
        for (slot, &want) in expected.iter().enumerate() {
            prop_assert_eq!(
                out.memory.read_u64(slot_addr(slot as u8), 8),
                want,
                "slot {} lost updates under {}",
                slot,
                detector
            );
        }
    }
}
