//! `asf-repro scale` — shard-parallel scaling curves.
//!
//! Sweeps simulated-cores × worker-threads over a streaming workload
//! preset, running each cell through [`ShardEngine`] and reporting the
//! throughput curve: wall time, simulated accesses per second, speedup over
//! the single-threaded reference at the same core count, and the epoch
//! barrier's stall fraction. Every thread count at a given core count must
//! produce **bit-identical** `RunStats` — the sweep itself asserts this
//! (an A/B fence run on every invocation, not only in tests).
//!
//! Results append a round to the `"scale_rounds"` array of
//! `BENCH_perf.json` ([`ScaleReport::write_into`], through
//! [`crate::perf::update_report_file`]); the perf grid and the serve rounds
//! share the file, and each writer changes only its own keys.
//!
//! Honesty note: speedup > 1 needs real host cores. On a 1-vCPU runner the
//! worker threads time-slice one core and the curve is flat (or slightly
//! worse, barrier overhead being pure cost) — the numbers report what the
//! host actually did, never an extrapolation.

use crate::error::HarnessError;
use crate::perf::append_round;
use asf_core::detector::DetectorKind;
use asf_machine::machine::SimConfig;
use asf_machine::shard::{ShardConfig, ShardEngine, ShardOutput};
use asf_machine::Workload;
use asf_stats::chrome::ChromeTraceWriter;
use asf_stats::json::JsonValue;
use asf_stats::table::Table;
use asf_workloads::streaming;
use std::time::{Duration, Instant};

/// Simulated-core counts of the default sweep (`--scale huge` tier).
pub const CORES_GRID: [usize; 3] = [64, 128, 256];
/// Worker-thread counts of the default sweep.
pub const THREADS_GRID: [usize; 3] = [1, 2, 4];
/// Detector the sweep runs under: the paper's preferred sub-blocking,
/// matching the perf grid's middle column.
pub const DETECTOR: DetectorKind = DetectorKind::SubBlock(8);

/// One timed (cores × threads) cell of the sweep.
#[derive(Clone, Debug)]
pub struct ScaleCell {
    /// Simulated cores.
    pub cores: usize,
    /// Worker threads that drove the shards.
    pub threads: usize,
    /// Wall time of the cell.
    pub wall: Duration,
    /// Simulated accesses (L1 hits + misses).
    pub accesses: u64,
    /// Simulated cycles (max over shards — the run's critical path).
    pub cycles: u64,
    /// Committed transactions.
    pub txns: u64,
    /// Epoch barriers resolved.
    pub epochs: u64,
    /// Cross-shard probes delivered.
    pub cross_probes: u64,
    /// Transactions aborted by cross-shard probes.
    pub cross_aborts: u64,
    /// Sharer announcements the inter-cluster directory received.
    pub dir_notes: u64,
    /// Barrier stall fraction (0..1).
    pub stall: f64,
}

/// A completed scaling sweep.
#[derive(Clone, Debug)]
pub struct ScaleReport {
    /// Streaming preset name (`mix`, `million`, …).
    pub preset: String,
    /// Master seed.
    pub seed: u64,
    /// Cells in (cores, threads) grid order.
    pub cells: Vec<ScaleCell>,
    /// Chrome-trace timelines of the cells:
    /// `(artifact name, JSON document)`.
    pub timelines: Vec<(String, String)>,
}

fn accesses_of(stats: &asf_stats::run::RunStats) -> u64 {
    stats.l1_hits + stats.l1_misses
}

/// Run one (cores, threads) cell: a [`ShardEngine`] over the preset with
/// 16-core clusters and the huge-tier epoch length.
pub fn run_cell(
    preset: &streaming::StreamWorkload,
    cores: usize,
    threads: usize,
    seed: u64,
) -> Result<(ShardOutput, Duration), HarnessError> {
    let base = SimConfig::paper_seeded(DETECTOR, seed);
    let cfg = ShardConfig { worker_threads: threads, ..ShardConfig::huge(cores) };
    let start = Instant::now();
    let out = ShardEngine::new(preset, base, cfg).try_run().map_err(|e| {
        HarnessError::FailedCell {
            bench: format!("scale_{}_c{cores}_t{threads}", preset.name()),
            detector: DETECTOR.label(),
            error: e.to_string(),
        }
    })?;
    let wall = start.elapsed();
    Ok((out, wall))
}

/// Sweep `cores_grid × threads_grid` over the named preset.
pub fn sweep(
    preset_name: &str,
    seed: u64,
    cores_grid: &[usize],
    threads_grid: &[usize],
) -> Result<ScaleReport, HarnessError> {
    let preset = streaming::by_name(preset_name)
        .ok_or_else(|| HarnessError::UnknownBenchmark(format!("streaming preset {preset_name}")))?;
    let mut cells = Vec::new();
    let mut timelines = Vec::new();
    for &cores in cores_grid {
        // The determinism fence: every thread count at this core count must
        // reproduce the first cell's simulated outcome bit-for-bit.
        let mut reference: Option<asf_stats::run::RunStats> = None;
        for &threads in threads_grid {
            let (out, wall) = run_cell(&preset, cores, threads, seed)?;
            cells.push(ScaleCell {
                cores,
                threads,
                wall,
                accesses: accesses_of(&out.stats),
                cycles: out.stats.cycles,
                txns: out.stats.tx_committed,
                epochs: out.scale.epochs,
                cross_probes: out.scale.cross_probes,
                cross_aborts: out.scale.cross_aborts,
                dir_notes: out.scale.dir_notes,
                stall: out.scale.barrier_stall_fraction(),
            });
            timelines.push((
                format!("scale_timeline_{preset_name}_c{cores}_t{threads}"),
                timeline_json(&out),
            ));
            match &reference {
                None => reference = Some(out.stats),
                Some(r) if *r == out.stats => {}
                Some(_) => {
                    return Err(HarnessError::Determinism(format!(
                        "scale {preset_name} at {cores} cores: {threads} worker thread(s) \
                         diverged from the sweep's first thread count — shard execution \
                         leaked host timing into simulated state"
                    )));
                }
            }
        }
    }
    Ok(ScaleReport { preset: preset_name.to_string(), seed, cells, timelines })
}

fn rate(accesses: u64, wall: Duration) -> f64 {
    accesses as f64 / wall.as_secs_f64().max(1e-9)
}

impl ScaleReport {
    /// The single-threaded wall time at `cores`, if the sweep ran it.
    fn reference_wall(&self, cores: usize) -> Option<Duration> {
        self.cells.iter().find(|c| c.cores == cores && c.threads == 1).map(|c| c.wall)
    }

    /// Append this sweep as the next round of a `BENCH_perf.json`
    /// document's `"scale_rounds"` array, stamped with `git_subject`;
    /// every other key is left as it was. Returns the round number.
    pub fn write_into(&self, doc: &mut JsonValue, git_subject: &str) -> u64 {
        append_round(doc, "scale_rounds", |round| scale_round_entry(self, round, git_subject))
    }

    /// The scaling-curve table: one row per (cores, threads) cell.
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            format!("scale — shard-parallel throughput ({}, seed {:#x})", self.preset, self.seed),
            &[
                "cores", "threads", "txns", "wall ms", "Macc/s", "speedup", "epochs",
                "stall %", "x-probes", "x-aborts", "dir notes",
            ],
        );
        for c in &self.cells {
            let speedup = match self.reference_wall(c.cores) {
                Some(base) if c.threads > 1 => {
                    format!("{:.2}x", base.as_secs_f64() / c.wall.as_secs_f64().max(1e-9))
                }
                _ => "1.00x".to_string(),
            };
            t.row(vec![
                c.cores.to_string(),
                c.threads.to_string(),
                c.txns.to_string(),
                format!("{:.2}", c.wall.as_secs_f64() * 1e3),
                format!("{:.2}", rate(c.accesses, c.wall) / 1e6),
                speedup,
                c.epochs.to_string(),
                format!("{:.1}", c.stall * 100.0),
                c.cross_probes.to_string(),
                c.cross_aborts.to_string(),
                c.dir_notes.to_string(),
            ]);
        }
        t
    }
}

/// Chrome-trace timeline of one cell: a track per worker thread showing its
/// busy time each epoch, plus a barrier track. Timestamps are cumulative
/// wall microseconds; open in `chrome://tracing` or Perfetto.
pub fn timeline_json(out: &ShardOutput) -> String {
    let mut w = ChromeTraceWriter::new();
    w.thread_name(0, "epoch barrier");
    for wk in 0..out.scale.busy.len() {
        w.thread_name(wk as u64 + 1, &format!("shard worker {wk}"));
    }
    let mut ts: u64 = 0;
    for span in &out.scale.timeline {
        for (wk, busy) in span.busy.iter().enumerate() {
            let dur = busy.as_micros() as u64;
            if dur > 0 {
                w.complete(
                    "epoch",
                    wk as u64 + 1,
                    ts,
                    dur,
                    &[("until_cycle", span.until.to_string())],
                );
            }
        }
        ts += span.wall.as_micros() as u64;
        w.complete(
            "barrier",
            0,
            ts,
            span.barrier.as_micros().max(1) as u64,
            &[("until_cycle", span.until.to_string())],
        );
        ts += span.barrier.as_micros() as u64;
    }
    if out.scale.timeline_dropped > 0 {
        w.instant(
            &format!("{} later epochs not recorded", out.scale.timeline_dropped),
            0,
            ts,
            'g',
            &[],
        );
    }
    w.finish()
}

/// The CI smoke gate: a 2-shard huge-tier config run with 1 and then 2
/// worker threads **in one process**, asserting the two runs are
/// bit-identical — full merged `RunStats`, per-shard clocks, and the
/// cross-shard counters. Returns a one-line summary, or the divergence.
pub fn smoke(seed: u64) -> Result<String, HarnessError> {
    let preset = streaming::by_name("smoke").expect("smoke preset exists");
    let (seq, _) = run_cell(&preset, 32, 1, seed)?;
    let (par, _) = run_cell(&preset, 32, 2, seed)?;
    if seq.stats != par.stats {
        return Err(HarnessError::Determinism(format!(
            "scale smoke: 2-thread RunStats diverged from 1-thread \
             ({} vs {} cycles, {} vs {} commits)",
            par.stats.cycles, seq.stats.cycles, par.stats.tx_committed, seq.stats.tx_committed
        )));
    }
    if seq.per_shard_cycles != par.per_shard_cycles {
        return Err(HarnessError::Determinism(format!(
            "scale smoke: per-shard clocks diverged: {:?} vs {:?}",
            par.per_shard_cycles, seq.per_shard_cycles
        )));
    }
    if (seq.scale.epochs, seq.scale.cross_probes, seq.scale.cross_aborts)
        != (par.scale.epochs, par.scale.cross_probes, par.scale.cross_aborts)
    {
        return Err(HarnessError::Determinism(format!(
            "scale smoke: cross-shard counters diverged: \
             epochs {} vs {}, probes {} vs {}, aborts {} vs {}",
            par.scale.epochs,
            seq.scale.epochs,
            par.scale.cross_probes,
            seq.scale.cross_probes,
            par.scale.cross_aborts,
            seq.scale.cross_aborts,
        )));
    }
    Ok(format!(
        "scale smoke ok: 32 cores / 2 shards, sequential == 2-thread \
         ({} commits, {} epochs, {} cross-shard probes, {} cross-shard aborts)",
        seq.stats.tx_committed, seq.scale.epochs, seq.scale.cross_probes, seq.scale.cross_aborts
    ))
}

/// One `"scale_rounds"` entry: the sweep's identity plus its curve.
fn scale_round_entry(report: &ScaleReport, round: u64, git_subject: &str) -> JsonValue {
    let curve = report
        .cells
        .iter()
        .map(|c| {
            JsonValue::obj([
                ("cores", (c.cores as u64).into()),
                ("threads", (c.threads as u64).into()),
                ("txns", c.txns.into()),
                ("wall_ms", JsonValue::rounded(c.wall.as_secs_f64() * 1e3, 3)),
                ("macc_per_sec", JsonValue::rounded(rate(c.accesses, c.wall) / 1e6, 3)),
                ("epochs", c.epochs.into()),
                ("stall_pct", JsonValue::rounded(c.stall * 100.0, 1)),
                ("cross_probes", c.cross_probes.into()),
                ("cross_aborts", c.cross_aborts.into()),
                ("dir_notes", c.dir_notes.into()),
            ])
        })
        .collect();
    JsonValue::obj([
        ("round", round.into()),
        ("preset", report.preset.as_str().into()),
        ("sweep_seed", report.seed.into()),
        ("git_subject", git_subject.into()),
        ("curve", JsonValue::Arr(curve)),
    ])
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::perf::tests::tiny_report;
    use crate::perf::{history, next_round, parse_report, render_report, Baseline};
    use asf_stats::json::parse;

    #[test]
    fn smoke_gate_passes() {
        let msg = smoke(0x5ca1e).expect("1-thread == 2-thread");
        assert!(msg.contains("scale smoke ok"), "{msg}");
        assert!(msg.contains("2 shards"), "{msg}");
    }

    #[test]
    fn sweep_runs_checks_determinism_and_renders() {
        let r = sweep("smoke", 0x5ca1e, &[32], &[1, 2]).expect("sweep");
        assert_eq!(r.cells.len(), 2);
        // Same simulated outcome at both thread counts (the sweep would
        // have erred otherwise); timing differs.
        assert_eq!(r.cells[0].cycles, r.cells[1].cycles);
        assert_eq!(r.cells[0].accesses, r.cells[1].accesses);
        assert!(r.cells[0].txns > 0);
        assert!(r.cells[0].epochs > 0);
        let t = r.table();
        assert_eq!(t.len(), 2);
        // One timeline per cell, and it is valid Chrome JSON.
        assert_eq!(r.timelines.len(), 2);
        let v = parse(&r.timelines[0].1).expect("timeline parses");
        assert!(!v.as_arr().expect("array").is_empty());
    }

    fn tiny_perf_doc() -> JsonValue {
        parse_report(&tiny_report(4, 10_000).to_json()).unwrap()
    }

    pub(crate) fn tiny_scale_report() -> ScaleReport {
        ScaleReport {
            preset: "mix".into(),
            seed: 9,
            cells: vec![ScaleCell {
                cores: 64,
                threads: 2,
                wall: Duration::from_millis(12),
                accesses: 4000,
                cycles: 50_000,
                txns: 128,
                epochs: 7,
                cross_probes: 3,
                cross_aborts: 1,
                dir_notes: 6,
                stall: 0.25,
            }],
            timelines: vec![],
        }
    }

    #[test]
    fn scale_rounds_coexist_with_the_perf_scanners() {
        let mut doc = tiny_perf_doc();
        let report = tiny_scale_report();
        assert_eq!(next_round(&doc, "scale_rounds"), 1);
        assert_eq!(report.write_into(&mut doc, "first sweep"), 1);
        // The perf readers still read the perf grid, not the scale round.
        let one = parse_report(&render_report(&doc)).unwrap();
        let base = Baseline::from_value(&one).expect("baseline still parses");
        assert_eq!(base.cells, vec![("ssca2".into(), "baseline".into(), 10_000)]);
        assert!((base.total_wall_ms - 4.0).abs() < 1e-6);
        assert_eq!(history(&one), vec![]);
        // Appending again numbers the next round and keeps both entries.
        assert_eq!(report.write_into(&mut doc, "bad [\"chars\"] \\"), 2);
        assert_eq!(next_round(&doc, "scale_rounds"), 3);
        let two = parse_report(&render_report(&doc)).unwrap();
        let rounds = two.field("scale_rounds").unwrap().as_arr().unwrap();
        let field = |i: usize, key: &str| rounds[i].field(key).unwrap().clone();
        assert_eq!((field(0, "round"), field(1, "round")), (1u64.into(), 2u64.into()));
        assert_eq!(field(1, "git_subject"), "bad [\"chars\"] \\".into(), "subject kept verbatim");
        let stall = rounds[1].field("curve").unwrap().as_arr().unwrap()[0].field("stall_pct");
        assert_eq!(stall.unwrap().as_f64(), Ok(25.0));
    }

    #[test]
    fn scale_rounds_survive_a_perf_rewrite() {
        let mut doc = tiny_perf_doc();
        tiny_scale_report().write_into(&mut doc, "kept");
        let old = doc.field("scale_rounds").unwrap().clone();
        // `asf-repro perf` replaces the grid's fields and history only.
        tiny_report(3, 10_000).write_into(&mut doc, "perf rewrite");
        let after = parse_report(&render_report(&doc)).unwrap();
        assert_eq!(after.field("scale_rounds"), Ok(&old));
        assert!(Baseline::from_value(&after).is_ok());
        // A perf rewrite of a document without scale rounds adds none.
        let mut plain = tiny_perf_doc();
        tiny_report(3, 10_000).write_into(&mut plain, "perf only");
        assert!(plain.get("scale_rounds").is_none());
    }

    #[test]
    fn append_creates_a_document_when_missing() {
        let mut doc = parse_report("").unwrap();
        assert_eq!(tiny_scale_report().write_into(&mut doc, "fresh"), 1);
        assert_eq!(next_round(&doc, "scale_rounds"), 2);
        assert!(parse(&render_report(&doc)).is_ok());
    }
}
