//! `huge-shard`: the `million` streaming preset on 256 simulated cores in
//! 16-core clusters, through the epoch-parallel `ShardEngine` with sb4.
//! Private-pool traffic dominates and conflicts are few, so the shard
//! layer (epochs, barrier, inter-cluster directory) and the streaming
//! generators carry a large share of the work.
//!
//! The timed phase repeats whole runs (`ShardEngine::new` + `try_run`)
//! after one untimed warm-up run. Every run resolves the same epochs, and
//! the host-time figures are built from each epoch's fastest timed run
//! (see [`Fastest`]). A job is one whole run. A traced run alternates
//! traced and untraced runs and adds three untimed comparisons: threads=1
//! against threads=2, and a one-shard engine against a plain `Machine` on
//! the same 16-core input.

use crate::grid::median_sums;
use crate::report::{self, ms, Metrics, Outcome, Spans};
use crate::{in_order, overhead, GenTally, Opts, Size, TimedWorkload, E2E_METRICS, LAYER_METRICS};
use asf_core::detector::DetectorKind;
use asf_machine::machine::{Machine, SimConfig};
use asf_machine::shard::{ShardConfig, ShardEngine, ShardOutput};
use asf_stats::digest::run_stats_digest;
use asf_workloads::streaming::{StreamSpec, StreamWorkload};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Simulated cores and the streaming preset of each size.
fn shape(size: Size) -> (usize, StreamSpec) {
    match size {
        Size::Full => (256, StreamSpec::million()),
        Size::Tiny => (32, StreamSpec::smoke()),
    }
}

/// One shard-engine run.
struct ShardRun {
    /// `ShardEngine::new`.
    new: Duration,
    /// `try_run`.
    run: Duration,
    /// The engine's output.
    out: ShardOutput,
    /// Work generation `(ns, items)`, when traced.
    gen: (u64, u64),
}

/// Run the preset of `size` on `cores` cores (`None` = the preset's own).
fn shard_run(
    size: Size,
    seed: u64,
    det: DetectorKind,
    threads: usize,
    cores: Option<usize>,
    traced: bool,
) -> Result<ShardRun, String> {
    let (full_cores, spec) = shape(size);
    let w = StreamWorkload::new("million", spec);
    let tally = Arc::new(GenTally::default());
    let timed = TimedWorkload::new(&w, Arc::clone(&tally));
    let cfg = ShardConfig {
        worker_threads: threads,
        ..ShardConfig::huge(cores.unwrap_or(full_cores))
    };
    let base = SimConfig::paper_seeded(det, seed);
    let t0 = Instant::now();
    let engine = if traced {
        ShardEngine::new(&timed, base, cfg)
    } else {
        ShardEngine::new(&w, base, cfg)
    };
    let t1 = Instant::now();
    let out = engine
        .try_run()
        .map_err(|e| format!("huge-shard {} threads={threads}: {e}", det.label()))?;
    let t2 = Instant::now();
    Ok(ShardRun {
        new: t1 - t0,
        run: t2 - t1,
        out,
        gen: tally.read(),
    })
}

/// A plain `Machine` on the preset with `cores` cores (one cluster's worth).
fn machine_run(size: Size, seed: u64, cores: usize) -> Result<(Duration, u64), String> {
    let (_, spec) = shape(size);
    let w = StreamWorkload::new("million", spec);
    let mut cfg = SimConfig::paper_seeded(DetectorKind::SubBlock(4), seed);
    cfg.machine.cores = cores;
    let t0 = Instant::now();
    let out = Machine::try_run(&w, cfg).map_err(|e| e.to_string())?;
    Ok((t0.elapsed(), run_stats_digest(&out.stats)))
}

/// Digests of the sb4 and baseline runs for `seed` (used to write pins).
pub fn digests(size: Size, seed: u64) -> Result<Vec<(String, u64)>, String> {
    let threads = report::clamp_threads();
    [DetectorKind::SubBlock(4), DetectorKind::Baseline]
        .into_iter()
        .map(|d| {
            shard_run(size, seed, d, threads, None, false)
                .map(|r| (d.label(), run_stats_digest(&r.out.stats)))
        })
        .collect()
}

/// Each epoch's fastest time over a set of timed runs, as `paper-grid`
/// keeps each cell's (see `grid::Fastest`): a run takes seconds, so a
/// slow phase of the shared host can cover all of it, while each of its
/// ~660 epochs takes milliseconds and meets the host's fast phases in
/// some run. Every run resolves the same epochs, in the same order.
struct Fastest {
    /// Execution + barrier wall time of each epoch.
    epoch_s: Vec<f64>,
    /// `try_run` time outside the recorded epochs.
    rest_s: f64,
    /// `ShardEngine::new` time.
    new_s: f64,
    /// Simulated accesses of one run.
    accesses: u64,
    /// `ShardEngine::new` time of every run, for the median.
    setup_s: Vec<f64>,
    /// `try_run` time of every run.
    run_s: Vec<f64>,
}

impl Fastest {
    fn new() -> Self {
        Fastest {
            epoch_s: Vec::new(),
            rest_s: f64::INFINITY,
            new_s: f64::INFINITY,
            accesses: 0,
            setup_s: Vec::new(),
            run_s: Vec::new(),
        }
    }

    fn add(&mut self, r: &ShardRun) {
        let mut in_epochs = 0.0;
        for (k, e) in r.out.scale.timeline.iter().enumerate() {
            let t = (e.wall + e.barrier).as_secs_f64();
            in_epochs += t;
            match self.epoch_s.get_mut(k) {
                Some(best) => *best = best.min(t),
                None => self.epoch_s.push(t),
            }
        }
        let run = r.run.as_secs_f64();
        self.rest_s = self.rest_s.min((run - in_epochs).max(0.0));
        self.new_s = self.new_s.min(r.new.as_secs_f64());
        self.accesses = r.out.stats.l1_hits + r.out.stats.l1_misses;
        self.setup_s.push(r.new.as_secs_f64());
        self.run_s.push(run);
    }

    /// `setup_s` is the median over runs; the rest come from the run time
    /// the fastest epochs add up to: accesses per second of run time, and
    /// the time and rate of whole runs (set-up + run). Every job is the
    /// same run, so its p50 and p99 are one estimate.
    fn e2e(&self) -> Metrics {
        let mut m = Metrics::default();
        if self.run_s.is_empty() {
            // No run completed; the ledger counts the failures.
            return m;
        }
        let run_s = self.epoch_s.iter().sum::<f64>() + self.rest_s;
        let job_s = self.new_s + run_s;
        m.put("setup_s", report::median(&self.setup_s), "s");
        m.put(
            "sim_macc_per_s",
            report::ratio(self.accesses as f64, run_s) / 1e6,
            "Macc/s",
        );
        m.put("jobs_per_s", report::ratio(1.0, job_s), "1/s");
        m.put("job_p50_ms", job_s * 1e3, "ms");
        m.put("job_p99_ms", job_s * 1e3, "ms");
        m
    }
}

/// Per-layer values of one traced run.
fn layer_of(r: &ShardRun) -> BTreeMap<&'static str, f64> {
    let s = &r.out.stats;
    let sc = &r.out.scale;
    let accesses = (s.l1_hits + s.l1_misses) as f64;
    let busy_ns: f64 = sc.busy.iter().map(|d| d.as_secs_f64() * 1e9).sum();
    BTreeMap::from([
        ("workloads.gen_ns", r.gen.0 as f64),
        ("workloads.items", r.gen.1 as f64),
        (
            "workloads.gen_share",
            report::ratio(r.gen.0 as f64, busy_ns),
        ),
        // ShardEngine::new is one Machine::new per cluster.
        ("machine.new_ms", ms(r.new)),
        ("machine.run_ms", ms(r.run)),
        ("machine.ns_per_access", report::ratio(busy_ns, accesses)),
        ("mem.l1_hits", s.l1_hits as f64),
        ("mem.l1_misses", s.l1_misses as f64),
        ("probe.targets", s.probe_targets as f64),
        ("core.conflicts", s.conflicts.total() as f64),
        ("core.false_conflicts", s.conflicts.false_total() as f64),
        ("core.tx_attempts", s.tx_attempts as f64),
        ("core.tx_commits", s.tx_committed as f64),
        (
            "core.commit_ratio",
            report::ratio(s.tx_committed as f64, s.tx_attempts as f64),
        ),
        ("shard.new_ms", ms(r.new)),
        ("shard.epochs", sc.epochs as f64),
        ("shard.epoch_ms", ms(sc.epoch_wall)),
        ("shard.barrier_ms", ms(sc.barrier_wall)),
        ("shard.stall_frac", sc.barrier_stall_fraction()),
        ("shard.busy_ms", busy_ns / 1e6),
        ("shard.cross_probes", sc.cross_probes as f64),
        ("shard.dir_lookups", sc.dir_lookups as f64),
        ("shard.dir_probes_routed", sc.dir_probes_routed as f64),
    ])
}

/// Spans of one traced run: the run, its set-up, and every recorded epoch
/// (execution and barrier) laid end to end from the start of `try_run`.
fn record_spans(spans: &mut Spans, r: &ShardRun, start: Instant, label: String) {
    let id = spans.record(0, "run", label, start, start + r.new + r.run);
    spans.record(id, "shard.new", String::new(), start, start + r.new);
    let mut t = spans.at(start + r.new);
    for e in &r.out.scale.timeline {
        let (w, b) = (e.wall.as_nanos() as u64, e.barrier.as_nanos() as u64);
        let ep = spans.record_ns(id, "epoch", e.until.to_string(), t, t + w + b);
        spans.record_ns(ep, "epoch.exec", String::new(), t, t + w);
        spans.record_ns(ep, "epoch.barrier", String::new(), t + w, t + w + b);
        t += w + b;
    }
}

/// Run the workload.
pub fn run(opts: &Opts) -> Result<Outcome, String> {
    let threads = report::clamp_threads();
    let sb4 = DetectorKind::SubBlock(4);
    let mut out = Outcome::default();
    let mut spans = Spans::default();
    let mut digests: Vec<Result<u64, String>> = Vec::new();
    let mut untraced = Fastest::new();
    let mut traced = Fastest::new();
    let mut layer = Vec::new();
    let mut sb4_false = 0;
    let mut peak_rss = 0.0;
    let min_runs = if opts.trace { 3 } else { 2 };
    let mut timed_start = Instant::now();
    let mut i = 0usize;
    loop {
        let is_traced = opts.trace && i.is_multiple_of(2) && i > 0;
        let start = Instant::now();
        match shard_run(opts.size, opts.seed, sb4, threads, None, is_traced) {
            Ok(r) => {
                digests.push(Ok(run_stats_digest(&r.out.stats)));
                if i == 0 {
                    sb4_false = r.out.stats.conflicts.false_total();
                } else if is_traced {
                    record_spans(&mut spans, &r, start, format!("threads={threads}"));
                    traced.add(&r);
                    layer.push(layer_of(&r));
                } else {
                    untraced.add(&r);
                }
            }
            Err(e) => digests.push(Err(e)),
        }
        if i == 0 {
            timed_start = Instant::now();
        }
        if i == 1 {
            // A fixed amount of work (two runs), so the figure does not
            // grow with the number of runs a faster build fits in.
            peak_rss = report::peak_rss_mb();
        }
        i += 1;
        if i >= min_runs && timed_start.elapsed() >= opts.budget() {
            break;
        }
    }

    // The baseline run gives the headline ratio and is itself checked:
    // against its pin, or, when the seed has none, against a sequential
    // (threads=1) reference run, as the sb4 runs are below.
    let baseline = shard_run(
        opts.size,
        opts.seed,
        DetectorKind::Baseline,
        threads,
        None,
        false,
    );
    let pinned = |cell: &str| {
        opts.pins
            .get(opts.size.label(), "huge-shard", opts.seed, cell)
    };
    let base_false = match &baseline {
        Ok(b) => {
            let got = run_stats_digest(&b.out.stats);
            let want = match pinned("baseline") {
                Some(p) => Ok(p),
                None => shard_run(opts.size, opts.seed, DetectorKind::Baseline, 1, None, false)
                    .map(|r| run_stats_digest(&r.out.stats)),
            };
            out.ledger.check(want == Ok(got), || {
                format!(
                    "huge-shard baseline seed {}: digest {got:016x}, expected {want:x?}",
                    opts.seed
                )
            });
            b.out.stats.conflicts.false_total()
        }
        Err(e) => {
            out.ledger.check(false, || e.clone());
            0
        }
    };

    // The sequential reference (threads=1) is run when the seed has no pin,
    // and always in a traced run, where it also prices the second thread.
    let mut reference = None;
    if opts.trace || pinned("sb4").is_none() {
        let r = shard_run(opts.size, opts.seed, sb4, 1, None, false);
        reference = Some(
            r.as_ref()
                .map(|r| (run_stats_digest(&r.out.stats), r.run))
                .map_err(Clone::clone),
        );
    }
    let expected = match (pinned("sb4"), &reference) {
        (Some(p), _) => Ok(p),
        (None, Some(r)) => r.as_ref().map(|(d, _)| *d).map_err(Clone::clone),
        (None, None) => unreachable!("reference runs whenever the pin is missing"),
    };
    for got in &digests {
        out.ledger
            .check(matches!((got, &expected), (Ok(g), Ok(x)) if g == x), || {
                format!(
                    "huge-shard sb4 seed {}: got {got:x?}, expected {expected:x?}",
                    opts.seed
                )
            });
    }

    let mut e2e = untraced.e2e();
    e2e.put("peak_rss_mb", peak_rss, "MB");
    e2e.put(
        "false_conflicts_removed_pct",
        report::removed_pct(base_false, sb4_false),
        "%",
    );
    out.metrics = if opts.trace {
        let mut l = median_sums(&layer);
        overhead(&mut l, &e2e, &traced.e2e());
        if let Some(Ok((d1, run1))) = reference {
            // threads=1 and threads=N must agree bit for bit.
            let dn = digests
                .first()
                .cloned()
                .unwrap_or_else(|| Err("no run".to_string()));
            out.ledger.check(dn == Ok(d1), || {
                format!("threads=1 digest {d1:016x} != threads={threads} {dn:x?}")
            });
            l.put(
                "shard.speedup_2v1",
                report::ratio(run1.as_secs_f64(), report::median(&untraced.run_s)),
                "x",
            );
        }
        l.put(
            "shard.one_shard_overhead",
            one_shard_overhead(opts, &mut out.ledger),
            "x",
        );
        in_order(LAYER_METRICS, &l)
    } else {
        in_order(E2E_METRICS, &e2e)
    };
    out.config.push(("shard_threads", threads.to_string()));
    out.config
        .push(("simulated_cores", shape(opts.size).0.to_string()));
    out.config.push((
        "timed_runs",
        (untraced.run_s.len() + traced.run_s.len()).to_string(),
    ));
    out.spans = spans;
    Ok(out)
}

/// Price of epoch bookkeeping: a one-shard `ShardEngine` against a plain
/// `Machine` on the same 16-core input, as the ratio of median run times
/// over three interleaved pairs. The two must also agree bit for bit.
fn one_shard_overhead(opts: &Opts, ledger: &mut report::Ledger) -> f64 {
    let cores = 16;
    let (mut shard, mut plain) = (Vec::new(), Vec::new());
    for _ in 0..3 {
        let s = shard_run(
            opts.size,
            opts.seed,
            DetectorKind::SubBlock(4),
            1,
            Some(cores),
            false,
        );
        let m = machine_run(opts.size, opts.seed, cores);
        match (s, m) {
            (Ok(s), Ok((mt, md))) => {
                let sd = run_stats_digest(&s.out.stats);
                ledger.check(sd == md, || {
                    format!("one-shard digest {sd:016x} != plain machine {md:016x}")
                });
                shard.push((s.new + s.run).as_secs_f64());
                plain.push(mt.as_secs_f64());
            }
            (s, m) => {
                let why = format!("one-shard comparison failed: {:?} / {:?}", s.err(), m.err());
                ledger.check(false, || why);
            }
        }
    }
    report::ratio(report::median(&shard), report::median(&plain))
}
