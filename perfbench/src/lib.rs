//! The repository benchmark: three workloads driven through the crates'
//! public APIs, one process per workload.
//!
//! * `paper-grid` — the paper's ten kernels × {baseline, sb4, perfect} on
//!   the 8-core Opteron model, one cell after another on one thread.
//! * `huge-shard` — the `million` streaming preset on 256 simulated cores
//!   through the epoch-parallel shard engine.
//! * `serve-mix` — an in-process simulation service under a closed loop of
//!   keep-alive clients, 95% cache hits and 5% fresh simulations.
//!
//! An untraced run (`trace == false`) reports the end-to-end metrics; a
//! traced run reports the per-layer metrics, timing calls into each layer
//! from outside it and reading the counters the program already exposes.
//! Every run checks its outputs and counts the checks in its [`report::Ledger`].
//! See `perfbench/README.md` for the metric definitions.

#![forbid(unsafe_code)]

pub mod grid;
pub mod huge;
pub mod mix;
pub mod pins;
pub mod report;

use asf_machine::txprog::{ThreadProgram, WorkItem, Workload};
use pins::Pins;
use report::{Metrics, Outcome};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The workload names, in presentation order.
pub const WORKLOADS: [&str; 3] = ["paper-grid", "huge-shard", "serve-mix"];

/// Input size: the benchmark's own, or a seconds-long one for self-tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    /// The measured configuration.
    Full,
    /// A tiny pass of the same code paths, for the benchmark's own tests.
    Tiny,
}

impl Size {
    /// Label used in pin keys.
    pub fn label(self) -> &'static str {
        match self {
            Size::Full => "full",
            Size::Tiny => "tiny",
        }
    }
}

/// One benchmark invocation.
#[derive(Clone, Debug)]
pub struct Opts {
    /// Workload name (one of [`WORKLOADS`]).
    pub workload: String,
    /// Workload seed: every input is generated from it.
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
    /// Input size.
    pub size: Size,
    /// Expected digests.
    pub pins: Pins,
}

impl Opts {
    /// The timed phase as a duration.
    pub fn budget(&self) -> Duration {
        Duration::from_secs_f64(self.seconds.max(0.0))
    }
}

/// Run one workload.
pub fn run(opts: &Opts) -> Result<Outcome, String> {
    let mut out = match opts.workload.as_str() {
        "paper-grid" => grid::run(opts),
        "huge-shard" => huge::run(opts),
        "serve-mix" => mix::run(opts),
        other => {
            return Err(format!(
                "unknown workload {other:?} (expected one of {WORKLOADS:?})"
            ))
        }
    }?;
    out.config.insert(0, ("nproc", report::nproc().to_string()));
    out.config.insert(0, ("workload", opts.workload.clone()));
    out.config.push(("seed", opts.seed.to_string()));
    out.config.push(("size", opts.size.label().to_string()));
    out.config.push(("traced", opts.trace.to_string()));
    Ok(out)
}

/// Work-generation time and item counts gathered by [`TimedWorkload`].
#[derive(Debug, Default)]
pub(crate) struct GenTally {
    ns: AtomicU64,
    items: AtomicU64,
}

impl GenTally {
    /// `(nanoseconds inside next_item, items returned)` of every program
    /// dropped so far.
    pub(crate) fn read(&self) -> (u64, u64) {
        (
            self.ns.load(Ordering::Relaxed),
            self.items.load(Ordering::Relaxed),
        )
    }
}

/// A [`Workload`] whose thread programs time each `next_item` call. The
/// programs hand their totals to the shared tally when the simulator drops
/// them, so the hot path touches no shared state.
pub(crate) struct TimedWorkload<'a> {
    inner: &'a dyn Workload,
    tally: Arc<GenTally>,
}

impl<'a> TimedWorkload<'a> {
    /// Wrap `inner`; totals land in `tally`.
    pub(crate) fn new(inner: &'a dyn Workload, tally: Arc<GenTally>) -> TimedWorkload<'a> {
        TimedWorkload { inner, tally }
    }
}

impl Workload for TimedWorkload<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn description(&self) -> &'static str {
        self.inner.description()
    }

    fn word_size(&self) -> usize {
        self.inner.word_size()
    }

    fn spawn(&self, tid: usize, threads: usize, seed: u64) -> Box<dyn ThreadProgram> {
        Box::new(TimedProgram {
            inner: self.inner.spawn(tid, threads, seed),
            ns: 0,
            items: 0,
            tally: Arc::clone(&self.tally),
        })
    }
}

struct TimedProgram {
    inner: Box<dyn ThreadProgram>,
    ns: u64,
    items: u64,
    tally: Arc<GenTally>,
}

impl ThreadProgram for TimedProgram {
    fn next_item(&mut self) -> Option<WorkItem> {
        let t0 = Instant::now();
        let item = self.inner.next_item();
        self.ns += u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.items += u64::from(item.is_some());
        item
    }
}

impl Drop for TimedProgram {
    fn drop(&mut self) {
        // Statistics only: no other data is published through these.
        self.tally.ns.fetch_add(self.ns, Ordering::Relaxed);
        self.tally.items.fetch_add(self.items, Ordering::Relaxed);
    }
}

/// Per-layer metrics every traced run reports; a layer the workload does
/// not exercise reads 0.
pub const LAYER_METRICS: &[(&str, &str)] = &[
    ("workloads.gen_ns", "ns"),
    ("workloads.items", "count"),
    ("workloads.gen_share", "ratio"),
    ("machine.new_ms", "ms"),
    ("machine.run_ms", "ms"),
    ("machine.ns_per_access", "ns"),
    ("machine.sched_pops", "count"),
    ("machine.teardown_lines", "count"),
    ("machine.sched_self_ns", "ns"),
    ("machine.commit_ns", "ns"),
    ("machine.teardown_ns", "ns"),
    ("mem.l1_hits", "count"),
    ("mem.l1_misses", "count"),
    ("mem.evictions", "count"),
    ("mem.coh_downgrades", "count"),
    ("mem.coh_invalidations", "count"),
    ("probe.resolve_ns", "ns"),
    ("probe.walks", "count"),
    ("probe.cores_visited", "count"),
    ("probe.targets", "count"),
    ("probe.specdir_hits", "count"),
    ("probe.specdir_misses", "count"),
    ("core.conflicts", "count"),
    ("core.false_conflicts", "count"),
    ("core.tx_attempts", "count"),
    ("core.tx_commits", "count"),
    ("core.commit_ratio", "ratio"),
    ("shard.new_ms", "ms"),
    ("shard.epochs", "count"),
    ("shard.epoch_ms", "ms"),
    ("shard.barrier_ms", "ms"),
    ("shard.stall_frac", "ratio"),
    ("shard.busy_ms", "ms"),
    ("shard.cross_probes", "count"),
    ("shard.dir_lookups", "count"),
    ("shard.dir_probes_routed", "count"),
    ("shard.speedup_2v1", "x"),
    ("shard.one_shard_overhead", "x"),
    ("serve.http.submit_rtt_us", "us"),
    ("serve.http.result_rtt_us", "us"),
    ("serve.http.server_ns", "ns"),
    ("serve.spec.parse_ns", "ns"),
    ("serve.cache.lookup_ns", "ns"),
    ("serve.runner.result_body_ns", "ns"),
    ("serve.pool.queue_wait_ms", "ms"),
    ("serve.pool.execute_ms", "ms"),
    ("serve.cache.hits", "count"),
    ("serve.coalesced", "count"),
    ("serve.queued", "count"),
    ("serve.rejected", "count"),
    ("serve.hit_rate", "ratio"),
    ("serve.polls_per_miss", "count"),
    ("serve.hit_p50_us", "us"),
    ("serve.hit_p99_us", "us"),
    ("serve.miss_p50_ms", "ms"),
    ("serve.miss_p99_ms", "ms"),
    ("overhead.setup_s", "s"),
    ("overhead.sim_macc_per_s", "Macc/s"),
    ("overhead.jobs_per_s", "1/s"),
    ("overhead.job_p50_ms", "ms"),
    ("overhead.job_p99_ms", "ms"),
];

/// End-to-end metrics every untraced run reports.
pub const E2E_METRICS: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("sim_macc_per_s", "Macc/s"),
    ("jobs_per_s", "1/s"),
    ("job_p50_ms", "ms"),
    ("job_p99_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("false_conflicts_removed_pct", "%"),
];

/// Fill `metrics` in the canonical order of `names`, taking each value
/// from `values` and 0 for a name the workload did not measure.
pub(crate) fn in_order(names: &[(&str, &'static str)], values: &Metrics) -> Metrics {
    let mut out = Metrics::default();
    for &(name, unit) in names {
        out.put(name, values.get(name).unwrap_or(0.0), unit);
    }
    for m in &values.0 {
        assert!(
            names.iter().any(|(n, _)| *n == m.name),
            "metric {} not in the declared set",
            m.name
        );
    }
    out
}

/// The untraced (`e2e`) and traced values of the timed-phase metrics,
/// reported as `overhead.<metric>` = traced − untraced.
pub(crate) fn overhead(layer: &mut Metrics, untraced: &Metrics, traced: &Metrics) {
    for name in [
        "setup_s",
        "sim_macc_per_s",
        "jobs_per_s",
        "job_p50_ms",
        "job_p99_ms",
    ] {
        if let (Some(u), Some(t)) = (untraced.get(name), traced.get(name)) {
            let unit = E2E_METRICS
                .iter()
                .find(|(n, _)| *n == name)
                .map_or("", |(_, u)| u);
            layer.put(&format!("overhead.{name}"), t - u, unit);
        }
    }
}
