//! One function per paper table/figure (see DESIGN.md §5 for the index).
//!
//! Every function returns a [`Table`] whose rows mirror what the paper
//! plots; the `asf-repro` binary renders them as text or CSV. Figures 1, 2,
//! 8, 9 and 10 read off a precomputed [`Matrix`]; Figures 3–5 use the
//! baseline runs of the four representative benchmarks; Figures 6 and 7 run
//! scripted protocol scenarios.

use crate::error::HarnessError;
use crate::matrix::Matrix;
use asf_core::detector::{ConflictType, DetectorKind};
use asf_core::overhead;
use asf_core::subblock::SubBlockState;
use asf_machine::machine::{Machine, SimConfig};
use asf_machine::txprog::{ScriptedWorkload, TxAttempt, TxOp, WorkItem};
use asf_mem::addr::Addr;
use asf_mem::config::MachineConfig;
use asf_stats::table::{pct, pct_opt, Table};
use asf_workloads::Scale;

/// The four representative benchmarks of Figures 3–5.
pub const REPRESENTATIVE: [&str; 4] = ["vacation", "genome", "kmeans", "intruder"];

/// Render a missing/failed matrix cell as a placeholder row so the rest of
/// the table still carries data — the partial-results contract of the
/// panic-tolerant matrix — and attach the failure cause(s) as table notes, so
/// CSV/JSON outputs are self-describing instead of bare `failed` cells.
fn failed_row(t: &mut Table, m: &Matrix, bench: &str, cols: usize) {
    failed_row_labeled(t, m, bench, bench, cols);
}

/// [`failed_row`] with a display label distinct from the matrix bench key
/// (e.g. `genome (sb4)` for per-detector rows).
fn failed_row_labeled(t: &mut Table, m: &Matrix, bench: &str, label: &str, cols: usize) {
    let mut row = vec![label.to_string()];
    row.resize(cols, "failed".to_string());
    t.row(row);
    for (key, error) in m.failed_cells() {
        if key.bench == bench {
            t.note(format!("{}/{} failed: {error}", key.bench, key.detector));
        }
    }
}

/// Number of time bins used for the Figure 3 curves.
pub const FIG3_BINS: usize = 20;

// ---------------------------------------------------------------------
// Tables
// ---------------------------------------------------------------------

/// Table I — the sub-block state encoding.
pub fn table1() -> Table {
    let mut t = Table::new("Table I: sub-block state", &["SPEC", "WR", "state"]);
    for (spec, wr) in [(false, false), (false, true), (true, false), (true, true)] {
        t.row(vec![
            (spec as u8).to_string(),
            (wr as u8).to_string(),
            SubBlockState::from_bits(spec, wr).to_string(),
        ]);
    }
    t
}

/// Table II — the simulated machine configuration.
pub fn table2() -> Table {
    let m = MachineConfig::opteron_8core();
    let mut t = Table::new("Table II: simulation configuration", &["feature", "description"]);
    t.row(vec![
        "Processors".into(),
        format!("{} AMD Opteron-like out-of-order cores", m.cores),
    ]);
    t.row(vec![
        "L1 DCache".into(),
        format!(
            "{} KB, 64 B lines, {}-way, {} cycles load-to-use",
            m.l1.size_bytes / 1024,
            m.l1.ways,
            m.latency.l1
        ),
    ]);
    t.row(vec![
        "Private L2".into(),
        format!(
            "{} KB, {}-way, {} cycles load-to-use",
            m.l2.size_bytes / 1024,
            m.l2.ways,
            m.latency.l2
        ),
    ]);
    t.row(vec![
        "Private L3".into(),
        format!(
            "{} MB, {}-way, {} cycles load-to-use",
            m.l3.size_bytes / (1024 * 1024),
            m.l3.ways,
            m.latency.l3
        ),
    ]);
    t.row(vec![
        "Main memory".into(),
        format!("{} cycles load-to-use", m.latency.memory),
    ]);
    t
}

/// Table III — benchmark descriptions.
pub fn table3() -> Table {
    let mut t = Table::new("Table III: benchmark description", &["benchmark", "description"]);
    for w in asf_workloads::all(Scale::Small) {
        t.row(vec![w.name().to_string(), w.description().to_string()]);
    }
    t
}

// ---------------------------------------------------------------------
// Figures 1–2: false-conflict rates and type breakdown (baseline ASF)
// ---------------------------------------------------------------------

/// Figure 1 — false transactional conflict rate per benchmark under the
/// baseline ASF system, plus the suite average.
pub fn fig1(m: &Matrix) -> Table {
    let mut t = Table::new(
        "Figure 1: false conflict rate (baseline ASF)",
        &["benchmark", "conflicts", "false", "false rate"],
    );
    let mut rates = Vec::new();
    for b in m.benches() {
        let Some(s) = m.stats(&b, DetectorKind::Baseline) else {
            failed_row(&mut t, m, &b, 4);
            continue;
        };
        let rate = s.conflicts.false_rate();
        if let Some(r) = rate {
            rates.push(r);
        }
        t.row(vec![
            b.clone(),
            s.conflicts.total().to_string(),
            s.conflicts.false_total().to_string(),
            pct_opt(rate),
        ]);
    }
    let avg = rates.iter().sum::<f64>() / rates.len().max(1) as f64;
    t.row(vec!["average".into(), String::new(), String::new(), pct_opt(Some(avg))]);
    t
}

/// Figure 2 — breakdown of false conflicts into WAR / RAW / WAW shares.
pub fn fig2(m: &Matrix) -> Table {
    let mut t = Table::new(
        "Figure 2: false conflict type breakdown (baseline ASF)",
        &["benchmark", "WAR", "RAW", "WAW"],
    );
    let mut sums = [0.0f64; 3];
    let mut n = 0usize;
    for b in m.benches() {
        let Some(s) = m.stats(&b, DetectorKind::Baseline) else {
            failed_row(&mut t, m, &b, 4);
            continue;
        };
        match s.conflicts.false_type_shares() {
            Some(shares) => {
                for (acc, v) in sums.iter_mut().zip(shares) {
                    *acc += v;
                }
                n += 1;
                t.row(vec![b.clone(), pct(shares[0]), pct(shares[1]), pct(shares[2])]);
            }
            None => {
                t.row(vec![b.clone(), "n/a".into(), "n/a".into(), "n/a".into()]);
            }
        }
    }
    if n > 0 {
        t.row(vec![
            "average".into(),
            pct(sums[0] / n as f64),
            pct(sums[1] / n as f64),
            pct(sums[2] / n as f64),
        ]);
    }
    t
}

// ---------------------------------------------------------------------
// Figures 3–5: temporal / spatial / intra-line behaviour
// ---------------------------------------------------------------------

/// Figure 3 — cumulative started transactions and false conflicts over
/// execution time, binned into [`FIG3_BINS`] equal windows, for the four
/// representative benchmarks.
pub fn fig3(m: &Matrix) -> Table {
    let mut t = Table::new(
        "Figure 3: cumulative false conflicts / started txns over time (baseline)",
        &["benchmark", "series", "curve (cumulative per 5% time bin)", "burstiness"],
    );
    for &b in REPRESENTATIVE.iter() {
        let Some(s) = m.stats(b, DetectorKind::Baseline) else {
            failed_row(&mut t, m, b, 4);
            continue;
        };
        // The matrix aggregates several seeds (cycles are summed), so the
        // plot horizon is the latest event stamp, not the cycle total.
        let horizon = s
            .started_series
            .last_cycle()
            .max(s.false_series.last_cycle())
            .max(1);
        let started = s.started_series.cumulative(horizon, FIG3_BINS);
        let falses = s.false_series.cumulative(horizon, FIG3_BINS);
        let fmt = |v: &[u64]| {
            v.iter().map(|x| x.to_string()).collect::<Vec<_>>().join(" ")
        };
        t.row(vec![
            b.to_string(),
            "started-txns".into(),
            fmt(&started),
            format!("{:.2}", s.started_series.burstiness(horizon, FIG3_BINS)),
        ]);
        t.row(vec![
            b.to_string(),
            "false-conflicts".into(),
            fmt(&falses),
            format!("{:.2}", s.false_series.burstiness(horizon, FIG3_BINS)),
        ]);
    }
    t
}

/// Figure 4 — false conflicts by cache-line index: the hottest lines and a
/// concentration summary for the four representative benchmarks.
pub fn fig4(m: &Matrix) -> Table {
    let mut t = Table::new(
        "Figure 4: false conflicts by cache line (baseline)",
        &[
            "benchmark",
            "distinct lines",
            "hottest lines (line:count)",
            "top-4 concentration",
        ],
    );
    for &b in REPRESENTATIVE.iter() {
        let Some(s) = m.stats(b, DetectorKind::Baseline) else {
            failed_row(&mut t, m, b, 4);
            continue;
        };
        let hottest = s
            .false_by_line
            .hottest(4)
            .into_iter()
            .map(|(l, c)| format!("{l:#x}:{c}"))
            .collect::<Vec<_>>()
            .join(" ");
        t.row(vec![
            b.to_string(),
            s.false_by_line.distinct_lines().to_string(),
            hottest,
            pct(s.false_by_line.concentration(4)),
        ]);
    }
    t
}

/// Figure 5 — transactional accesses by intra-line location, bucketed at
/// each benchmark's natural word size.
pub fn fig5(m: &Matrix) -> Table {
    let mut t = Table::new(
        "Figure 5: accesses by location inside cache lines (baseline)",
        &["benchmark", "word", "occupied buckets", "bucket counts"],
    );
    for &b in REPRESENTATIVE.iter() {
        let Some(s) = m.stats(b, DetectorKind::Baseline) else {
            failed_row(&mut t, m, b, 4);
            continue;
        };
        let word = asf_workloads::by_name(b, Scale::Small)
            .expect("known benchmark")
            .word_size();
        let buckets = s.access_offsets.bucketed(word);
        t.row(vec![
            b.to_string(),
            format!("{word}B"),
            format!("{}/{}", s.access_offsets.occupied_buckets(word), buckets.len()),
            buckets
                .iter()
                .map(|c| c.to_string())
                .collect::<Vec<_>>()
                .join(" "),
        ]);
    }
    t
}

// ---------------------------------------------------------------------
// Figures 6–7: protocol walkthroughs (scripted scenarios)
// ---------------------------------------------------------------------

fn fig6_scripted() -> ScriptedWorkload {
    let a = Addr(0x3000); // sub-block 0 of the line
    let b = Addr(0x3010); // sub-block 1
    ScriptedWorkload {
        name: "fig6",
        scripts: vec![
            vec![WorkItem::Tx(TxAttempt::new(vec![
                TxOp::Write { addr: a, size: 8, value: 0xAA },
                TxOp::WaitUntil { cycle: 5_000 },
            ]))],
            vec![WorkItem::Tx(TxAttempt::new(vec![
                TxOp::WaitUntil { cycle: 1_000 },
                TxOp::Read { addr: b, size: 8 },
                TxOp::WaitUntil { cycle: 2_000 },
                TxOp::Read { addr: a, size: 8 },
            ]))],
        ],
    }
}

/// Figure 6 — the dirty-state hazard scenarios: T0 speculatively writes
/// sub-block 0, T1 reads sub-block 1 (false sharing, no conflict), then T1
/// reads T0's bytes. Without the dirty mechanism the conflict is missed
/// (isolation violation); with it, the forced refetch aborts T0.
pub fn fig6() -> Table {
    let mut t = Table::new(
        "Figure 6: dirty-state hazard (scripted, sub-block 4)",
        &["dirty mechanism", "dirty refetches", "true conflicts", "isolation violations"],
    );
    for enable in [true, false] {
        let mut cfg = SimConfig::paper(DetectorKind::SubBlock(4));
        cfg.machine = MachineConfig::opteron_with_cores(2);
        cfg.enable_dirty = enable;
        let out = Machine::run(&fig6_scripted(), cfg);
        t.row(vec![
            if enable { "on (paper §IV-C)" } else { "off (ablation)" }.to_string(),
            out.stats.dirty_refetches.to_string(),
            out.stats.conflicts.true_total().to_string(),
            out.stats.isolation_violations.to_string(),
        ]);
    }
    t
}

/// Figure 7 — the load-access walkthrough: a transactional load that hits a
/// remote speculatively-written line receives piggy-back bits and marks the
/// written sub-blocks dirty; a later load of those bytes refetches.
pub fn fig7() -> Table {
    let a = Addr(0x7000); // sub-block 0: T0 writes
    let b = Addr(0x7010); // sub-block 1: T1 reads
    let w = ScriptedWorkload {
        name: "fig7",
        scripts: vec![
            vec![WorkItem::Tx(TxAttempt::new(vec![
                TxOp::Write { addr: a, size: 8, value: 1 },
                TxOp::WaitUntil { cycle: 4_000 },
            ]))],
            vec![WorkItem::Tx(TxAttempt::new(vec![
                TxOp::WaitUntil { cycle: 1_000 },
                TxOp::Read { addr: b, size: 8 }, // receives piggy-back
                TxOp::WaitUntil { cycle: 2_000 },
                TxOp::Read { addr: a, size: 8 }, // dirty hit → refetch
            ]))],
        ],
    };
    let mut cfg = SimConfig::paper(DetectorKind::SubBlock(4));
    cfg.machine = MachineConfig::opteron_with_cores(2);
    let out = Machine::run(&w, cfg);
    let mut t = Table::new(
        "Figure 7: load access with piggy-back dirty marking (scripted)",
        &["event", "count"],
    );
    t.row(vec!["probes broadcast".into(), out.stats.probes.to_string()]);
    t.row(vec!["dirty refetches".into(), out.stats.dirty_refetches.to_string()]);
    t.row(vec![
        "conflicts detected".into(),
        out.stats.conflicts.total().to_string(),
    ]);
    t.row(vec![
        "isolation violations".into(),
        out.stats.isolation_violations.to_string(),
    ]);
    t
}

// ---------------------------------------------------------------------
// Figures 8–10: the headline evaluation
// ---------------------------------------------------------------------

/// Figure 8 — false-conflict reduction rate (vs. baseline) for 2/4/8/16
/// sub-blocks, plus the suite average per configuration.
pub fn fig8(m: &Matrix) -> Table {
    let configs = [
        DetectorKind::SubBlock(2),
        DetectorKind::SubBlock(4),
        DetectorKind::SubBlock(8),
        DetectorKind::SubBlock(16),
    ];
    let mut t = Table::new(
        "Figure 8: false conflict reduction rate vs sub-block count",
        &["benchmark", "sb2", "sb4", "sb8", "sb16"],
    );
    let mut sums = [0.0f64; 4];
    let mut n = 0;
    for b in m.benches() {
        let Some(base) = m.stats(&b, DetectorKind::Baseline).map(|s| &s.conflicts) else {
            failed_row(&mut t, m, &b, 5);
            continue;
        };
        let mut cells = vec![b.clone()];
        let mut counted = false;
        for (i, &k) in configs.iter().enumerate() {
            let Some(s) = m.stats(&b, k) else {
                cells.push("failed".into());
                continue;
            };
            let red = s.conflicts.false_reduction_vs(base);
            if let Some(r) = red {
                sums[i] += r;
                counted = true;
            }
            cells.push(pct_opt(red));
        }
        if counted {
            n += 1;
        }
        t.row(cells);
    }
    if n > 0 {
        let mut cells = vec!["average".to_string()];
        for s in sums {
            cells.push(pct(s / n as f64));
        }
        t.row(cells);
    }
    t
}

/// Figure 9 — overall conflict reduction (true + false) of sub-block-4 and
/// the perfect system versus baseline.
pub fn fig9(m: &Matrix) -> Table {
    let mut t = Table::new(
        "Figure 9: overall conflict reduction vs baseline",
        &["benchmark", "sb4", "perfect", "sb4 / perfect"],
    );
    let mut sum4 = 0.0;
    let mut sump = 0.0;
    let mut n = 0;
    for b in m.benches() {
        let cells = (
            m.stats(&b, DetectorKind::Baseline),
            m.stats(&b, DetectorKind::SubBlock(4)),
            m.stats(&b, DetectorKind::Perfect),
        );
        let (Some(base), Some(sb4), Some(perfect)) = cells else {
            failed_row(&mut t, m, &b, 4);
            continue;
        };
        let base = &base.conflicts;
        let r4 = sb4.conflicts.total_reduction_vs(base);
        let rp = perfect.conflicts.total_reduction_vs(base);
        let ratio = match (r4, rp) {
            (Some(a), Some(p)) if p.abs() > 1e-9 => Some(a / p),
            _ => None,
        };
        if let (Some(a), Some(p)) = (r4, rp) {
            sum4 += a;
            sump += p;
            n += 1;
        }
        t.row(vec![
            b.clone(),
            pct_opt(r4),
            pct_opt(rp),
            ratio.map(|r| format!("{:.2}", r)).unwrap_or_else(|| "n/a".into()),
        ]);
    }
    if n > 0 {
        let a = sum4 / n as f64;
        let p = sump / n as f64;
        t.row(vec![
            "average".into(),
            pct(a),
            pct(p),
            format!("{:.2}", if p.abs() > 1e-9 { a / p } else { 0.0 }),
        ]);
    }
    t
}

/// Figure 10 — execution-time improvement over baseline for sub-block-4 and
/// the perfect system.
pub fn fig10(m: &Matrix) -> Table {
    let mut t = Table::new(
        "Figure 10: execution time improvement vs baseline",
        &["benchmark", "sb4", "perfect"],
    );
    let mut s4 = 0.0;
    let mut sp = 0.0;
    let mut n = 0;
    for b in m.benches() {
        let cells = (
            m.stats(&b, DetectorKind::Baseline),
            m.stats(&b, DetectorKind::SubBlock(4)),
            m.stats(&b, DetectorKind::Perfect),
        );
        let (Some(base), Some(sb4), Some(perfect)) = cells else {
            failed_row(&mut t, m, &b, 3);
            continue;
        };
        let v4 = sb4.speedup_vs(base);
        let vp = perfect.speedup_vs(base);
        s4 += v4;
        sp += vp;
        n += 1;
        t.row(vec![b.clone(), pct(v4), pct(vp)]);
    }
    if n > 0 {
        t.row(vec!["average".into(), pct(s4 / n as f64), pct(sp / n as f64)]);
    }
    t
}

// ---------------------------------------------------------------------
// §IV-E overhead and the headline numbers
// ---------------------------------------------------------------------

/// §IV-E — hardware overhead per detector configuration on the paper's L1.
pub fn overhead_table() -> Table {
    let l1 = MachineConfig::opteron_8core().l1;
    let mut t = Table::new(
        "Hardware overhead (64 KB L1, 64 B lines) — paper §IV-E",
        &["detector", "bits/line", "extra bits/line", "extra bytes", "% of L1", "piggy-back bits"],
    );
    for k in [
        DetectorKind::Baseline,
        DetectorKind::SubBlock(2),
        DetectorKind::SubBlock(4),
        DetectorKind::SubBlock(8),
        DetectorKind::SubBlock(16),
    ] {
        let o = overhead::overhead(k, l1);
        t.row(vec![
            k.label(),
            o.bits_per_line.to_string(),
            o.extra_bits_per_line.to_string(),
            o.extra_bytes.to_string(),
            format!("{:.2}%", o.fraction_of_l1 * 100.0),
            overhead::piggyback_bits(k).to_string(),
        ]);
    }
    t
}

/// The abstract's headline: average false-conflict and overall-conflict
/// reduction of the 4-sub-block configuration (paper: 56.4% and 31.3%).
pub fn headline(m: &Matrix) -> Table {
    let mut false_red = 0.0;
    let mut total_red = 0.0;
    let mut n = 0;
    for b in m.benches() {
        let (Some(base), Some(sb4)) = (
            m.stats(&b, DetectorKind::Baseline).map(|s| &s.conflicts),
            m.stats(&b, DetectorKind::SubBlock(4)).map(|s| &s.conflicts),
        ) else {
            continue; // averages over the surviving cells
        };
        if let (Some(f), Some(t)) = (sb4.false_reduction_vs(base), sb4.total_reduction_vs(base)) {
            false_red += f;
            total_red += t;
            n += 1;
        }
    }
    let mut t = Table::new(
        "Headline: average reductions at 4 sub-blocks",
        &["metric", "paper", "measured"],
    );
    let nf = n.max(1) as f64;
    t.row(vec!["false conflict reduction".into(), "56.4%".into(), pct(false_red / nf)]);
    t.row(vec!["overall conflict reduction".into(), "31.3%".into(), pct(total_red / nf)]);
    t
}

/// Quick diagnostic dump used during workload calibration (kept for
/// `asf-repro diag`; not a paper artifact).
pub fn diag(m: &Matrix) -> Table {
    let mut t = Table::new(
        "Diagnostics per benchmark/detector",
        &[
            "benchmark", "detector", "cycles", "commits", "aborts", "conflicts", "false",
            "WARf", "RAWf", "WAWf", "true", "retries", "fallbacks", "viol",
        ],
    );
    for b in m.benches() {
        for d in DetectorKind::paper_set() {
            if !m.contains(&b, d) {
                continue;
            }
            let Some(s) = m.stats(&b, d) else {
                failed_row_labeled(&mut t, m, &b, &format!("{b} ({})", d.label()), 14);
                continue;
            };
            t.row(vec![
                b.clone(),
                d.label(),
                s.cycles.to_string(),
                s.tx_committed.to_string(),
                s.tx_aborted.to_string(),
                s.conflicts.total().to_string(),
                s.conflicts.false_total().to_string(),
                s.conflicts.false_of(ConflictType::WriteAfterRead).to_string(),
                s.conflicts.false_of(ConflictType::ReadAfterWrite).to_string(),
                s.conflicts.false_of(ConflictType::WriteAfterWrite).to_string(),
                s.conflicts.true_total().to_string(),
                s.max_retries.to_string(),
                s.fallback_commits.to_string(),
                s.isolation_violations.to_string(),
            ]);
        }
    }
    t
}

/// Every experiment in presentation order, as `(name, table)` pairs —
/// what `asf-repro all` prints and EXPERIMENTS.md is generated from.
pub fn all_experiments(m: &Matrix) -> Vec<(&'static str, Table)> {
    vec![
        ("table1", table1()),
        ("table2", table2()),
        ("table3", table3()),
        ("fig1", fig1(m)),
        ("fig2", fig2(m)),
        ("fig3", fig3(m)),
        ("fig4", fig4(m)),
        ("fig5", fig5(m)),
        ("fig6", fig6()),
        ("fig7", fig7()),
        ("fig8", fig8(m)),
        ("fig9", fig9(m)),
        ("fig10", fig10(m)),
        ("overhead", overhead_table()),
        ("headline", headline(m)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_matches_paper_encoding() {
        let t = table1();
        assert_eq!(t.len(), 4);
        assert_eq!(t.rows()[0], vec!["0", "0", "Non-speculative"]);
        assert_eq!(t.rows()[1], vec!["0", "1", "Dirty"]);
        assert_eq!(t.rows()[2], vec!["1", "0", "S-RD"]);
        assert_eq!(t.rows()[3], vec!["1", "1", "S-WR"]);
    }

    #[test]
    fn table2_lists_the_machine() {
        let t = table2();
        let text = t.render();
        assert!(text.contains("8 AMD Opteron"));
        assert!(text.contains("64 KB"));
        assert!(text.contains("210 cycles"));
    }

    #[test]
    fn table3_names_all_benchmarks() {
        let t = table3();
        assert_eq!(t.len(), 10);
    }

    #[test]
    fn overhead_has_paper_numbers() {
        let t = overhead_table();
        let text = t.render();
        // 4 sub-blocks: 6 extra bits/line, 768 bytes, 1.17%.
        assert!(text.contains("768"), "{text}");
        assert!(text.contains("1.17%"), "{text}");
    }

    #[test]
    fn fig6_contrast_dirty_on_off() {
        let t = fig6();
        assert_eq!(t.len(), 2);
        // on: violations 0; off: violations > 0.
        assert_eq!(t.rows()[0][3], "0");
        assert_ne!(t.rows()[1][3], "0");
    }

    #[test]
    fn fig7_walkthrough_is_clean() {
        let t = fig7();
        let rows = t.rows();
        // dirty refetches happened and no isolation violations.
        assert_ne!(rows[1][1], "0");
        assert_eq!(rows[3][1], "0");
    }
}

// ---------------------------------------------------------------------
// Extension experiments (beyond the paper's figures)
// ---------------------------------------------------------------------

/// Core-count scaling: how the false-conflict rate and the sub-blocking
/// gain grow with parallelism (2/4/8 cores). The paper fixes 8 cores; this
/// sweep shows the trend its motivation predicts — false sharing scales
/// with the number of concurrently running transactions.
pub fn scaling(scale: Scale, seed: u64) -> Table {
    let mut t = Table::new(
        "Extension: core-count scaling (vacation + ssca2)",
        &["benchmark", "cores", "false rate (baseline)", "sb4 time gain"],
    );
    for bench in ["vacation", "ssca2"] {
        for cores in [2usize, 4, 8] {
            let run = |detector: DetectorKind| {
                let w = asf_workloads::by_name(bench, scale).expect("known benchmark");
                let mut cfg = SimConfig::paper_seeded(detector, seed);
                cfg.machine = MachineConfig::opteron_with_cores(cores);
                Machine::run(w.as_ref(), cfg).stats
            };
            let base = run(DetectorKind::Baseline);
            let sb4 = run(DetectorKind::SubBlock(4));
            t.row(vec![
                bench.to_string(),
                cores.to_string(),
                pct_opt(base.conflicts.false_rate()),
                pct(sb4.speedup_vs(&base)),
            ]);
        }
    }
    t
}

/// Backoff-policy sensitivity on the retry-heavy benchmark (intruder):
/// execution time and abort counts for three backoff windows under the
/// baseline detector. Documents the §V-A design choice.
pub fn backoff_sweep(scale: Scale, seed: u64) -> Table {
    let mut t = Table::new(
        "Extension: exponential backoff sensitivity (intruder, baseline)",
        &["base window", "cap exp", "cycles", "aborts", "max retries", "fallbacks"],
    );
    for (base, cap) in [(4u64, 2u32), (64, 10), (512, 12)] {
        let w = asf_workloads::by_name("intruder", scale).expect("known benchmark");
        let mut cfg = SimConfig::paper_seeded(DetectorKind::Baseline, seed);
        cfg.backoff_base = base;
        cfg.backoff_cap_exp = cap;
        let s = Machine::run(w.as_ref(), cfg).stats;
        t.row(vec![
            base.to_string(),
            cap.to_string(),
            s.cycles.to_string(),
            s.tx_aborted.to_string(),
            s.max_retries.to_string(),
            s.fallback_commits.to_string(),
        ]);
    }
    t
}

/// Conflict-resolution policy ablation: requester-wins (ASF/the paper) vs
/// victim-wins, under the 4-sub-block detector.
pub fn policy_ablation(scale: Scale, seed: u64) -> Table {
    use asf_machine::machine::ResolutionPolicy;
    let mut t = Table::new(
        "Extension: conflict resolution policy (sub-block 4)",
        &["benchmark", "policy", "cycles", "conflicts", "aborts", "commits"],
    );
    for bench in ["vacation", "intruder", "kmeans"] {
        for policy in [ResolutionPolicy::RequesterWins, ResolutionPolicy::VictimWins] {
            let w = asf_workloads::by_name(bench, scale).expect("known benchmark");
            let mut cfg = SimConfig::paper_seeded(DetectorKind::SubBlock(4), seed);
            cfg.resolution = policy;
            let s = Machine::run(w.as_ref(), cfg).stats;
            t.row(vec![
                bench.to_string(),
                format!("{policy:?}"),
                s.cycles.to_string(),
                s.conflicts.total().to_string(),
                s.tx_aborted.to_string(),
                s.tx_committed.to_string(),
            ]);
        }
    }
    t
}

#[cfg(test)]
mod extension_tests {
    use super::*;

    #[test]
    fn scaling_rows_and_monotone_gain() {
        let t = scaling(Scale::Small, 5);
        assert_eq!(t.len(), 6);
        // Per benchmark, the sb4 gain at 8 cores exceeds the gain at 2
        // (false sharing grows with parallelism).
        let gain = |row: &Vec<String>| -> f64 {
            row[3].trim_end_matches('%').parse().unwrap()
        };
        let rows = t.rows();
        assert!(gain(&rows[2]) >= gain(&rows[0]) - 5.0, "vacation scaling trend");
        assert!(gain(&rows[5]) >= gain(&rows[3]) - 5.0, "ssca2 scaling trend");
    }

    #[test]
    fn backoff_sweep_has_three_policies() {
        let t = backoff_sweep(Scale::Small, 5);
        assert_eq!(t.len(), 3);
        // The tiny window thrashes: most aborts of the three.
        let aborts: Vec<u64> = t.rows().iter().map(|r| r[3].parse().unwrap()).collect();
        assert!(aborts[0] > aborts[1], "tiny backoff must thrash: {aborts:?}");
    }

    #[test]
    fn policy_ablation_is_serializable_both_ways() {
        let t = policy_ablation(Scale::Small, 5);
        assert_eq!(t.len(), 6);
        // Commits equal for both policies of the same benchmark.
        for pair in t.rows().chunks(2) {
            assert_eq!(pair[0][5], pair[1][5], "commit counts must match");
        }
    }
}

// ---------------------------------------------------------------------
// Terminal charts (the paper's figures are bar charts)
// ---------------------------------------------------------------------

/// Figure 1 as a terminal bar chart.
pub fn fig1_chart(m: &Matrix) -> asf_stats::chart::BarChart {
    let mut c = asf_stats::chart::BarChart::new(
        "Figure 1: false conflict rate, baseline ASF (%)",
        "%",
    );
    c.max = Some(100.0);
    for b in m.benches() {
        let rate = m
            .stats(&b, DetectorKind::Baseline)
            .and_then(|s| s.conflicts.false_rate())
            .unwrap_or(0.0);
        c.bar(b, rate * 100.0);
    }
    c
}

/// Figure 8's sub-block-4 column as a terminal bar chart.
pub fn fig8_chart(m: &Matrix) -> asf_stats::chart::BarChart {
    let mut c = asf_stats::chart::BarChart::new(
        "Figure 8: false conflict reduction at 4 sub-blocks (%)",
        "%",
    );
    c.max = Some(100.0);
    for b in m.benches() {
        let red = m
            .stats(&b, DetectorKind::Baseline)
            .zip(m.stats(&b, DetectorKind::SubBlock(4)))
            .and_then(|(base, sb4)| sb4.conflicts.false_reduction_vs(&base.conflicts))
            .unwrap_or(0.0);
        c.bar(b, red * 100.0);
    }
    c
}

/// Figure 10 as a terminal bar chart (sb4 series).
pub fn fig10_chart(m: &Matrix) -> asf_stats::chart::BarChart {
    let mut c = asf_stats::chart::BarChart::new(
        "Figure 10: execution time improvement at 4 sub-blocks (%)",
        "%",
    );
    for b in m.benches() {
        let v = m
            .stats(&b, DetectorKind::Baseline)
            .zip(m.stats(&b, DetectorKind::SubBlock(4)))
            .map(|(base, sb4)| sb4.speedup_vs(base))
            .unwrap_or(0.0);
        c.bar(b, v * 100.0);
    }
    c
}

#[cfg(test)]
mod chart_tests {
    use super::*;

    #[test]
    fn charts_cover_all_benchmarks() {
        let m = Matrix::compute(
            &["ssca2", "utilitymine"],
            &DetectorKind::paper_set(),
            Scale::Small,
            &[3],
        );
        for chart in [fig1_chart(&m), fig8_chart(&m), fig10_chart(&m)] {
            assert_eq!(chart.len(), 2);
            assert!(!chart.render(40).is_empty());
        }
    }
}

/// The excluded-benchmark demonstration: why yada cannot run under
/// best-effort ASF — nearly every transaction capacity-aborts and falls
/// back to the global lock (the paper's stated reason for dropping yada
/// and hmm, reproduced as a measurement).
pub fn excluded(scale: Scale, seed: u64) -> Table {
    let mut t = Table::new(
        "Excluded benchmarks under baseline ASF (why the paper drops them)",
        &["benchmark", "footprint (lines/txn)", "capacity aborts", "fallback commits", "of commits"],
    );
    let mut row = |name: &str, footprint: usize, w: &dyn asf_machine::txprog::Workload| {
        let mut cfg = SimConfig::paper_seeded(DetectorKind::Baseline, seed);
        cfg.max_retries = 4;
        let s = Machine::run(w, cfg).stats;
        t.row(vec![
            name.to_string(),
            footprint.to_string(),
            s.aborts_by_cause[2].to_string(),
            s.fallback_commits.to_string(),
            pct(s.fallback_commits as f64 / s.tx_committed.max(1) as f64),
        ]);
    };
    let yada = asf_workloads::excluded::Yada::new(scale);
    row("yada (scattered cavity vs 2-way sets)", yada.cavity_lines(), &yada);
    let hmm = asf_workloads::excluded::Hmm::new(scale);
    row("hmm (slice exceeds whole L1)", hmm.slice_lines(), &hmm);
    t
}

/// The bayes exclusion, demonstrated: committed-transaction counts across
/// five seeds. The spread is what "non-deterministic finishing conditions"
/// means in practice — per-run comparisons would be meaningless.
pub fn excluded_bayes(scale: Scale, seed: u64) -> Table {
    let w = asf_workloads::excluded::Bayes::new(scale);
    let mut t = Table::new(
        "Excluded: bayes — committed transactions per seed (non-deterministic termination)",
        &["seed", "committed txns", "cycles"],
    );
    for i in 0..5 {
        let s = Machine::run(&w, SimConfig::paper_seeded(DetectorKind::Baseline, seed + i)).stats;
        t.row(vec![
            format!("{:#x}", seed + i),
            s.tx_committed.to_string(),
            s.cycles.to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod excluded_tests {
    use super::*;

    #[test]
    fn excluded_table_shows_fallback_dominance() {
        let t = excluded(Scale::Small, 3);
        assert_eq!(t.len(), 2);
        for row in t.rows() {
            let fallback_share: f64 = row[4].trim_end_matches('%').parse().unwrap();
            assert!(
                fallback_share > 60.0,
                "{} must be fallback-dominated: {fallback_share}%",
                row[0]
            );
        }
    }
}

/// Related-work comparison (paper §II): DPTM-style WAR speculation with
/// commit-time value validation versus the paper's sub-blocking, on the
/// whole suite. Demonstrates the paper's two criticisms: such schemes only
/// remove WAR false conflicts (RAW-heavy benchmarks barely move), and they
/// trade eager detection for commit-time validation aborts.
pub fn related_work(scale: Scale, seed: u64) -> Table {
    let mut t = Table::new(
        "Related work: DPTM-style WAR speculation vs sub-blocking",
        &[
            "benchmark",
            "baseline aborts",
            "dptm aborts",
            "dptm gain",
            "sb4 aborts",
            "sb4 gain",
            "WAR specs",
            "validation aborts",
        ],
    );
    for w in asf_workloads::all(scale) {
        let base = {
            let cfg = SimConfig::paper_seeded(DetectorKind::Baseline, seed);
            Machine::run(w.as_ref(), cfg).stats
        };
        let dptm = {
            let mut cfg = SimConfig::paper_seeded(DetectorKind::Baseline, seed);
            cfg.war_speculation = true;
            Machine::run(w.as_ref(), cfg).stats
        };
        let sb4 = {
            let cfg = SimConfig::paper_seeded(DetectorKind::SubBlock(4), seed);
            Machine::run(w.as_ref(), cfg).stats
        };
        t.row(vec![
            w.name().to_string(),
            base.tx_aborted.to_string(),
            dptm.tx_aborted.to_string(),
            pct(dptm.speedup_vs(&base)),
            sb4.tx_aborted.to_string(),
            pct(sb4.speedup_vs(&base)),
            dptm.war_speculations.to_string(),
            dptm.aborts_by_cause[5].to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod related_tests {
    use super::*;

    #[test]
    fn related_work_table_shape() {
        let t = related_work(Scale::Small, 9);
        assert_eq!(t.len(), 10);
        // vacation (WAR-dominant) must show substantial WAR speculations.
        let vac = t.rows().iter().find(|r| r[0] == "vacation").unwrap();
        let specs: u64 = vac[6].parse().unwrap();
        assert!(specs > 0, "vacation should speculate through WARs");
    }
}

/// Per-benchmark deep-dive profile: abort causes, retry distribution,
/// memory behaviour and hot lines for one benchmark under one detector
/// (`asf-repro profile` prints baseline and sb4 side by side).
pub fn profile(bench: &str, scale: Scale, seed: u64) -> Result<Table, HarnessError> {
    let mut t = Table::new(
        format!("Profile: {bench}"),
        &["metric", "baseline", "sb4"],
    );
    let run = |detector| crate::matrix::run_one(bench, detector, scale, seed);
    let base = run(DetectorKind::Baseline)?;
    let sb4 = run(DetectorKind::SubBlock(4))?;
    let mut row = |name: &str, f: &dyn Fn(&asf_stats::run::RunStats) -> String| {
        t.row(vec![name.to_string(), f(&base), f(&sb4)]);
    };
    row("cycles", &|s| s.cycles.to_string());
    row("transactions", &|s| s.tx_started.to_string());
    row("attempts", &|s| s.tx_attempts.to_string());
    row("abort ratio", &|s| pct(s.abort_ratio()));
    row("conflicts (false/true)", &|s| {
        format!("{}/{}", s.conflicts.false_total(), s.conflicts.true_total())
    });
    row("aborts: conflict-true", &|s| s.aborts_by_cause[0].to_string());
    row("aborts: conflict-false", &|s| s.aborts_by_cause[1].to_string());
    row("aborts: capacity", &|s| s.aborts_by_cause[2].to_string());
    row("aborts: user", &|s| s.aborts_by_cause[3].to_string());
    row("mean retries/commit", &|s| format!("{:.2}", s.mean_retries()));
    row("max retries", &|s| s.max_retries.to_string());
    row("backoff cycles", &|s| s.backoff_cycles.to_string());
    row("L1 hit rate", &|s| {
        pct(s.l1_hits as f64 / (s.l1_hits + s.l1_misses).max(1) as f64)
    });
    row("probes", &|s| s.probes.to_string());
    row("dirty refetches", &|s| s.dirty_refetches.to_string());
    row("distinct false-conflict lines", &|s| s.false_by_line.distinct_lines().to_string());
    row("top-4 line concentration", &|s| pct(s.false_by_line.concentration(4)));
    Ok(t)
}

/// Seed-to-seed variance of the headline metrics — quantifies the paper's
/// labyrinth variance remark across the whole suite.
pub fn variance(scale: Scale, seed: u64, runs: usize) -> Table {
    let mut t = Table::new(
        format!("Variance across {runs} seeds (baseline ASF)"),
        &["benchmark", "conflicts mean±sd", "false rate mean±sd", "cycles cv"],
    );
    let mean_sd = |xs: &[f64]| {
        let n = xs.len().max(1) as f64;
        let m = xs.iter().sum::<f64>() / n;
        let var = xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / n;
        (m, var.sqrt())
    };
    for w in asf_workloads::all(scale) {
        let mut conflicts = Vec::new();
        let mut rates = Vec::new();
        let mut cycles = Vec::new();
        for i in 0..runs {
            let s = Machine::run(
                w.as_ref(),
                SimConfig::paper_seeded(DetectorKind::Baseline, seed + i as u64),
            )
            .stats;
            conflicts.push(s.conflicts.total() as f64);
            rates.push(s.conflicts.false_rate().unwrap_or(0.0));
            cycles.push(s.cycles as f64);
        }
        let (cm, cs) = mean_sd(&conflicts);
        let (rm, rs) = mean_sd(&rates);
        let (ym, ys) = mean_sd(&cycles);
        t.row(vec![
            w.name().to_string(),
            format!("{cm:.0}±{cs:.0}"),
            format!("{:.1}%±{:.1}", rm * 100.0, rs * 100.0),
            format!("{:.3}", ys / ym.max(1.0)),
        ]);
    }
    t
}

#[cfg(test)]
mod profile_tests {
    use super::*;

    #[test]
    fn profile_has_both_columns() {
        let t = profile("ssca2", Scale::Small, 3).unwrap();
        assert!(t.len() >= 15);
        assert_eq!(t.header(), &["metric", "baseline", "sb4"]);
        assert!(matches!(
            profile("no-such", Scale::Small, 3),
            Err(HarnessError::UnknownBenchmark(_))
        ));
    }

    #[test]
    fn variance_covers_the_suite() {
        let t = variance(Scale::Small, 3, 2);
        assert_eq!(t.len(), 10);
    }
}

/// Adaptive sub-blocking (future-work extension): promote a line to fine
/// tracking only after it exhibits false conflicts. Reports each
/// benchmark's false-conflict reduction and the state-bit budget actually
/// spent, versus uniformly fine sub-blocking.
pub fn adaptive(scale: Scale, seed: u64) -> Table {
    use asf_machine::machine::AdaptiveConfig;
    let l1_lines = MachineConfig::opteron_8core().l1.lines();
    let fine_bits_per_line = 2 * AdaptiveConfig::standard().fine;
    let uniform_bits = l1_lines * fine_bits_per_line;
    let mut t = Table::new(
        "Extension: adaptive sub-blocking (promote after 2 false conflicts, fine = 8)",
        &[
            "benchmark",
            "baseline false",
            "sb8 reduction",
            "adaptive reduction",
            "promoted lines",
            "state bits vs uniform sb8",
        ],
    );
    for w in asf_workloads::all(scale) {
        let base = Machine::run(w.as_ref(), SimConfig::paper_seeded(DetectorKind::Baseline, seed));
        let sb8 = Machine::run(
            w.as_ref(),
            SimConfig::paper_seeded(DetectorKind::SubBlock(8), seed),
        );
        let mut cfg = SimConfig::paper_seeded(DetectorKind::Baseline, seed);
        cfg.adaptive = Some(AdaptiveConfig::standard());
        let ad = Machine::run(w.as_ref(), cfg);
        // Storage: cold lines keep 2 bits; promoted lines carry fine bits
        // (predictor-table cost ignored on both sides of the comparison).
        let adaptive_bits =
            (l1_lines - ad.promoted_lines.min(l1_lines)) * 2
                + ad.promoted_lines.min(l1_lines) * fine_bits_per_line;
        t.row(vec![
            w.name().to_string(),
            base.stats.conflicts.false_total().to_string(),
            pct_opt(sb8.stats.conflicts.false_reduction_vs(&base.stats.conflicts)),
            pct_opt(ad.stats.conflicts.false_reduction_vs(&base.stats.conflicts)),
            ad.promoted_lines.to_string(),
            pct(adaptive_bits as f64 / uniform_bits as f64),
        ]);
    }
    t
}

#[cfg(test)]
mod adaptive_tests {
    use super::*;

    #[test]
    fn adaptive_table_shows_cheap_storage() {
        let t = adaptive(Scale::Small, 11);
        assert_eq!(t.len(), 10);
        for row in t.rows() {
            let bits: f64 = row[5].trim_end_matches('%').parse().unwrap();
            assert!(bits < 50.0, "{}: adaptive must stay far below uniform, got {bits}%", row[0]);
        }
    }
}

/// Coherence-fabric comparison: broadcast snooping (the paper's setting)
/// vs a conservative probe filter ("HT Assist"-style). Outcomes are
/// identical by construction (verified in `tests/fabric_equivalence.rs`);
/// the table reports the probe traffic the filter saves — context for the
/// paper's "piggy-back bits are negligible" overhead argument.
pub fn fabric(scale: Scale, seed: u64) -> Table {
    use asf_machine::machine::FabricKind;
    let mut t = Table::new(
        "Extension: probe traffic, broadcast vs probe filter (baseline ASF)",
        &["benchmark", "probes", "targets (broadcast)", "targets (filter)", "saved"],
    );
    for w in asf_workloads::all(scale) {
        let run = |fabric| {
            let mut cfg = SimConfig::paper_seeded(DetectorKind::Baseline, seed);
            cfg.fabric = fabric;
            Machine::run(w.as_ref(), cfg).stats
        };
        let b = run(FabricKind::Broadcast);
        let f = run(FabricKind::ProbeFilter);
        t.row(vec![
            w.name().to_string(),
            b.probes.to_string(),
            b.probe_targets.to_string(),
            f.probe_targets.to_string(),
            pct(1.0 - f.probe_targets as f64 / b.probe_targets.max(1) as f64),
        ]);
    }
    t
}

#[cfg(test)]
mod fabric_tests {
    use super::*;

    #[test]
    fn fabric_table_reports_savings() {
        let t = fabric(Scale::Small, 13);
        assert_eq!(t.len(), 10);
        for row in t.rows() {
            let saved: f64 = row[4].trim_end_matches('%').parse().unwrap();
            assert!(saved >= 0.0, "{}: filter never costs targets", row[0]);
        }
    }
}

/// One-screen dashboard: the headline numbers plus the suite averages of
/// every evaluation figure.
pub fn summary(m: &Matrix) -> Table {
    let mut t = Table::new(
        "Summary: suite averages (3-seed aggregate)",
        &["metric", "paper", "measured"],
    );
    let benches = m.benches();
    let n = benches.len().max(1) as f64;
    let avg = |f: &dyn Fn(&str) -> f64| benches.iter().map(|b| f(b)).sum::<f64>() / n;
    // Failed cells contribute zero to the averages — the summary is a
    // partial-result view like every other table.
    let false_rate = avg(&|b: &str| {
        m.stats(b, DetectorKind::Baseline)
            .and_then(|s| s.conflicts.false_rate())
            .unwrap_or(0.0)
    });
    let vs_base = |b: &str, d: DetectorKind| {
        Some((m.stats(b, d)?, m.stats(b, DetectorKind::Baseline)?))
    };
    let sb4_false_red = avg(&|b: &str| {
        vs_base(b, DetectorKind::SubBlock(4))
            .and_then(|(s, base)| s.conflicts.false_reduction_vs(&base.conflicts))
            .unwrap_or(0.0)
    });
    let sb4_total_red = avg(&|b: &str| {
        vs_base(b, DetectorKind::SubBlock(4))
            .and_then(|(s, base)| s.conflicts.total_reduction_vs(&base.conflicts))
            .unwrap_or(0.0)
    });
    let sb4_speedup = avg(&|b: &str| {
        vs_base(b, DetectorKind::SubBlock(4))
            .map(|(s, base)| s.speedup_vs(base))
            .unwrap_or(0.0)
    });
    let perfect_speedup = avg(&|b: &str| {
        vs_base(b, DetectorKind::Perfect)
            .map(|(s, base)| s.speedup_vs(base))
            .unwrap_or(0.0)
    });
    t.row(vec!["false conflict rate (baseline)".into(), "≈46%".into(), pct(false_rate)]);
    t.row(vec!["false conflicts removed at sb4".into(), "56.4%".into(), pct(sb4_false_red)]);
    t.row(vec!["all conflicts removed at sb4".into(), "31.3%".into(), pct(sb4_total_red)]);
    t.row(vec!["execution-time gain at sb4".into(), "up to ~30%".into(), pct(sb4_speedup)]);
    t.row(vec!["execution-time gain, perfect bound".into(), "—".into(), pct(perfect_speedup)]);
    t.row(vec![
        "hardware overhead at sb4".into(),
        "1.17% of L1".into(),
        "1.17% of L1 (exact)".into(),
    ]);
    t
}

#[cfg(test)]
mod summary_tests {
    use super::*;

    #[test]
    fn summary_has_six_rows() {
        let m = Matrix::compute(
            &["ssca2", "vacation"],
            &DetectorKind::paper_set(),
            Scale::Small,
            &[2],
        );
        let t = summary(&m);
        assert_eq!(t.len(), 6);
        assert_eq!(t.rows()[1][1], "56.4%");
    }
}

/// Signature-based detection (LogTM-SE style, paper §II) versus the
/// paper's approaches, swept over filter sizes: signatures trade ASF's
/// capacity aborts for alias-induced false conflicts and stay
/// line-granular, so intra-line false sharing remains — sub-blocking and
/// signatures attack *different* false-conflict sources.
pub fn signatures(scale: Scale, seed: u64) -> Table {
    use asf_machine::machine::SignatureConfig;
    let mut t = Table::new(
        "Related work: Bloom-signature detection (LogTM-SE style)",
        &[
            "benchmark",
            "baseline false",
            "sig64 false (alias)",
            "sig256 false (alias)",
            "sig1024 false (alias)",
            "sb4 false",
        ],
    );
    let row = |name: String,
               w: &dyn asf_machine::txprog::Workload,
               t: &mut Table| {
        let base = Machine::run(w, SimConfig::paper_seeded(DetectorKind::Baseline, seed)).stats;
        let sb4 = Machine::run(w, SimConfig::paper_seeded(DetectorKind::SubBlock(4), seed)).stats;
        let sig = |bits: usize| {
            let mut cfg = SimConfig::paper_seeded(DetectorKind::Baseline, seed);
            cfg.signatures = Some(SignatureConfig { bits, hashes: 4 });
            cfg.max_retries = 32;
            let s = Machine::run(w, cfg).stats;
            format!("{} ({})", s.conflicts.false_total(), s.sig_alias_conflicts)
        };
        t.row(vec![
            name,
            base.conflicts.false_total().to_string(),
            sig(64),
            sig(256),
            sig(1024),
            sb4.conflicts.false_total().to_string(),
        ]);
    };
    for w in asf_workloads::all(scale) {
        row(w.name().to_string(), w.as_ref(), &mut t);
    }
    // yada: the workload signatures exist for — unbounded footprints.
    let yada = asf_workloads::excluded::Yada::new(scale);
    row("yada (160-line cavities)".into(), &yada, &mut t);
    t
}

// ---------------------------------------------------------------------
// Fault-injection grid (the robustness experiment)
// ---------------------------------------------------------------------

/// The fault-pressure profiles `asf-repro faults` sweeps, mildest first.
pub fn fault_pressures() -> Vec<(&'static str, asf_machine::fault::FaultPlan)> {
    use asf_machine::fault::FaultPlan;
    vec![
        ("none", FaultPlan::none()),
        ("light", FaultPlan::light()),
        ("heavy", FaultPlan::heavy()),
        ("max-spurious", FaultPlan::max_spurious()),
    ]
}

/// `asf-repro faults` — deterministic fault-injection grid: every pressure
/// profile × {baseline, sb4, perfect} on the representative benchmarks,
/// then a maximal-spurious-pressure sweep over the *whole* suite. Each run
/// is checked against the forward-progress contract — every started
/// transaction commits (hardware or fallback) and isolation holds; a
/// violation aborts the experiment with
/// [`HarnessError::ProgressViolation`]. The returned table shows how much
/// noise was injected and what it cost.
pub fn faults(scale: Scale, seed: u64) -> Result<Table, HarnessError> {
    let detectors =
        [DetectorKind::Baseline, DetectorKind::SubBlock(4), DetectorKind::Perfect];
    let mut t = Table::new(
        "Fault grid: injected pressure × detector (all runs must keep the forward-progress contract)",
        &[
            "benchmark",
            "detector",
            "pressure",
            "injected",
            "committed/started",
            "fallback",
            "aborts",
            "cycles",
        ],
    );
    let run = |bench: &str,
               det: DetectorKind,
               plan: asf_machine::fault::FaultPlan|
     -> Result<asf_stats::run::RunStats, HarnessError> {
        let w = asf_workloads::by_name(bench, scale)
            .ok_or_else(|| HarnessError::UnknownBenchmark(bench.to_string()))?;
        let mut cfg = SimConfig::paper_seeded(det, seed);
        cfg.faults = plan;
        let stats = Machine::try_run(w.as_ref(), cfg)
            .map_err(|e| {
                HarnessError::ProgressViolation(format!("{bench}/{}: {e}", det.label()))
            })?
            .stats;
        if stats.tx_committed != stats.tx_started || stats.isolation_violations != 0 {
            return Err(HarnessError::ProgressViolation(format!(
                "{bench}/{}: committed {}/{} transactions, {} isolation violations",
                det.label(),
                stats.tx_committed,
                stats.tx_started,
                stats.isolation_violations
            )));
        }
        Ok(stats)
    };
    for &b in REPRESENTATIVE.iter() {
        for &det in &detectors {
            for (label, plan) in fault_pressures() {
                let s = run(b, det, plan)?;
                t.row(vec![
                    b.to_string(),
                    det.label(),
                    label.to_string(),
                    s.faults.injected_total().to_string(),
                    format!("{}/{}", s.tx_committed, s.tx_started),
                    s.fallback_commits.to_string(),
                    s.tx_aborted.to_string(),
                    s.cycles.to_string(),
                ]);
            }
        }
    }
    // The acceptance sweep: under maximal spurious pressure no transaction
    // can ever commit in hardware, so the backoff → fallback chain alone
    // must carry every workload in the suite to completion.
    let max = asf_machine::fault::FaultPlan::max_spurious();
    let mut suite_commits = 0u64;
    for w in asf_workloads::all(scale) {
        let s = run(w.name(), DetectorKind::SubBlock(4), max)?;
        suite_commits += s.tx_committed;
    }
    t.row(vec![
        "suite (all 10)".into(),
        "sb4".into(),
        "max-spurious".into(),
        String::new(),
        format!("{suite_commits}/{suite_commits}"),
        String::new(),
        String::new(),
        String::new(),
    ]);
    Ok(t)
}

#[cfg(test)]
mod fault_grid_tests {
    use super::*;

    #[test]
    fn fault_grid_upholds_forward_progress() {
        let t = faults(Scale::Small, 21).expect("no progress violations");
        // 4 representative benches × 3 detectors × 4 pressures + suite row.
        assert_eq!(t.len(), 4 * 3 * 4 + 1);
        // Zero-pressure rows inject nothing; max-spurious rows inject and
        // push every commit through the fallback path.
        for row in t.rows().iter().filter(|r| r[2] == "none") {
            assert_eq!(row[3], "0", "{row:?}");
        }
        for row in t.rows().iter().filter(|r| r[2] == "max-spurious" && r[0] != "suite (all 10)") {
            assert_ne!(row[3], "0", "{row:?}");
            let (committed, fallback) = (&row[4], &row[5]);
            let committed: u64 =
                committed.split('/').next().unwrap().parse().unwrap();
            assert_eq!(fallback.parse::<u64>().unwrap(), committed, "{row:?}");
        }
    }
}

#[cfg(test)]
mod signature_tests {
    use super::*;

    #[test]
    fn signature_table_shape() {
        let t = signatures(Scale::Small, 19);
        assert_eq!(t.len(), 11);
        // yada's dense filters must alias at 64 bits.
        let yada = t.rows().last().unwrap();
        let aliases: u64 = yada[2]
            .split('(')
            .nth(1)
            .unwrap()
            .trim_end_matches(')')
            .parse()
            .unwrap();
        assert!(aliases > 0, "64-bit filters must alias on yada: {yada:?}");
    }
}
