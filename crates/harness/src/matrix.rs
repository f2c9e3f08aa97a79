//! The (benchmark × detector) grid of simulation runs.
//!
//! Grid jobs run on a worker pool under `catch_unwind`: a panicking or
//! erroring job becomes a [`JobOutcome::Failed`] cell, the rest of the grid
//! completes, and tables render partial results around the hole. A job is
//! never retried — the simulation is deterministic, so a job that failed
//! once fails again — and nothing is checkpointed: the paper grid reruns
//! from scratch in seconds.

use crate::error::HarnessError;
use asf_core::detector::DetectorKind;
use asf_machine::machine::{Machine, SimConfig};
use asf_mem::fxhash::FxHashMap;
use asf_stats::run::RunStats;
use asf_workloads::Scale;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Identifies one run in the matrix.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct RunKey {
    /// Benchmark name (Table III).
    pub bench: String,
    /// Detector label (`baseline`, `sb4`, `perfect`, …).
    pub detector: String,
}

impl RunKey {
    /// Build a key.
    pub fn new(bench: &str, detector: DetectorKind) -> RunKey {
        RunKey { bench: bench.to_string(), detector: detector.label() }
    }
}

/// What one grid cell holds after compute: aggregated stats, or the reason
/// the cell's jobs failed (so sibling cells still render).
#[derive(Clone, Debug)]
pub enum JobOutcome {
    /// All of the cell's per-seed jobs completed; stats are merged.
    /// Boxed: `RunStats` is ~1 KiB and would dwarf the `Failed` variant.
    Completed(Box<RunStats>),
    /// At least one job failed.
    Failed {
        /// Rendered cause (panic payload or simulation error).
        error: String,
    },
}

/// Knobs for one grid compute.
#[derive(Default)]
pub struct ComputeOpts {
    /// Worker-pool size (`None` = resolve from `--threads` / `ASF_THREADS`
    /// / available parallelism).
    pub workers: Option<usize>,
    /// Test hook: panic every job of one cell, to exercise the
    /// failed-cell path.
    pub inject_panic: Option<InjectPanic>,
}

/// Deterministic worker-panic injection (test hook): every job of cell
/// `(bench, detector)` panics before it simulates.
#[derive(Clone, Debug)]
pub struct InjectPanic {
    /// Benchmark name of the targeted cell.
    pub bench: String,
    /// Detector label of the targeted cell.
    pub detector: String,
}

/// A computed grid of runs plus the configuration that produced it.
pub struct Matrix {
    /// Input scale.
    pub scale: Scale,
    /// Master seeds (each run aggregates all of them).
    pub seeds: Vec<u64>,
    runs: FxHashMap<RunKey, JobOutcome>,
}

/// Run one benchmark under one detector, with the paper's machine.
/// `Err` on names outside the suite and on simulation errors (watchdog).
pub fn run_one(
    bench: &str,
    detector: DetectorKind,
    scale: Scale,
    seed: u64,
) -> Result<RunStats, HarnessError> {
    let workload = asf_workloads::by_name(bench, scale)
        .ok_or_else(|| HarnessError::UnknownBenchmark(bench.to_string()))?;
    Machine::try_run(workload.as_ref(), SimConfig::paper_seeded(detector, seed))
        .map(|out| out.stats)
        .map_err(|e| HarnessError::FailedCell {
            bench: bench.to_string(),
            detector: detector.label(),
            error: e.to_string(),
        })
}

/// Process-wide worker-count override for [`Matrix::compute`]
/// (0 = unset). Set from `asf-repro --threads`; outranked only by an
/// explicit [`ComputeOpts::workers`] argument.
static DEFAULT_WORKERS: AtomicUsize = AtomicUsize::new(0);

/// Set (Some) or unset (None) the process-wide default worker count used
/// by [`Matrix::compute`].
pub fn set_default_workers(n: Option<usize>) {
    DEFAULT_WORKERS.store(n.unwrap_or(0), Ordering::Relaxed);
}

/// Resolve the worker-pool size for `jobs` grid cells: explicit argument,
/// else the `--threads` process override, else the `ASF_THREADS`
/// environment variable, else `available_parallelism` — always clamped to
/// the job count. Worker count affects wall-clock only, never results
/// (each cell's simulation is single-threaded and deterministic).
fn resolve_workers(explicit: Option<usize>, jobs: usize) -> usize {
    let n = explicit
        .or_else(|| {
            match DEFAULT_WORKERS.load(Ordering::Relaxed) {
                0 => None,
                n => Some(n),
            }
        })
        .or_else(|| {
            std::env::var("ASF_THREADS")
                .ok()
                .and_then(|s| s.trim().parse::<usize>().ok())
                .filter(|&n| n >= 1)
        })
        .unwrap_or_else(|| {
            std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4)
        });
    n.max(1).min(jobs.max(1))
}

/// Execute one job under `catch_unwind`. The panic hook is left in place
/// (a crashing worker should still say so on stderr); the payload is
/// folded into the returned error string.
fn run_job(
    bench: &str,
    detector: DetectorKind,
    scale: Scale,
    seed: u64,
    inject_panic: bool,
) -> Result<RunStats, String> {
    // The closure only reads shared state; a panic cannot leave it torn,
    // so asserting unwind safety is sound.
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        if inject_panic {
            panic!("injected worker panic (test hook)");
        }
        run_one(bench, detector, scale, seed)
    }));
    match result {
        Ok(stats) => stats.map_err(|e| e.to_string()),
        Err(payload) => {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "worker panicked".to_string());
            Err(format!("panic: {msg}"))
        }
    }
}

impl Matrix {
    /// Compute the grid for the given benchmarks × detectors, in parallel
    /// (a bounded worker pool over scoped threads). Each cell aggregates
    /// one run per seed — the multi-run averaging that tames the
    /// simulation variance the paper itself observes on labyrinth.
    ///
    /// Worker count comes from `resolve_workers` (`--threads` /
    /// `ASF_THREADS` / `available_parallelism`); use [`Matrix::compute_opts`]
    /// to pin it programmatically.
    pub fn compute(
        benches: &[&str],
        detectors: &[DetectorKind],
        scale: Scale,
        seeds: &[u64],
    ) -> Matrix {
        Matrix::compute_opts(benches, detectors, scale, seeds, ComputeOpts::default())
    }

    /// [`Matrix::compute`] with an explicit worker-pool size
    /// (`None` = resolve from `--threads` / `ASF_THREADS` / parallelism).
    /// Results are identical for every worker count — the grid-determinism
    /// test pins a 1-worker grid against an N-worker grid cell by cell.
    pub fn compute_with_workers(
        benches: &[&str],
        detectors: &[DetectorKind],
        scale: Scale,
        seeds: &[u64],
        workers: Option<usize>,
    ) -> Matrix {
        Matrix::compute_opts(
            benches,
            detectors,
            scale,
            seeds,
            ComputeOpts { workers, ..ComputeOpts::default() },
        )
    }

    /// The fully-general compute: worker pool, per-job `catch_unwind`,
    /// failed cells kept as [`JobOutcome::Failed`] and the rest of the
    /// grid intact.
    pub fn compute_opts(
        benches: &[&str],
        detectors: &[DetectorKind],
        scale: Scale,
        seeds: &[u64],
        opts: ComputeOpts,
    ) -> Matrix {
        assert!(!seeds.is_empty(), "need at least one seed");
        let mut jobs: Vec<(RunKey, DetectorKind, String, u64)> = Vec::new();
        for &b in benches {
            for &d in detectors {
                for &s in seeds {
                    jobs.push((RunKey::new(b, d), d, b.to_string(), s));
                }
            }
        }
        let workers = resolve_workers(opts.workers, jobs.len());
        let injected = |key: &RunKey| {
            opts.inject_panic
                .as_ref()
                .is_some_and(|p| p.bench == key.bench && p.detector == key.detector)
        };
        let jobs_ref = &jobs;
        let injected_ref = &injected;
        let next = AtomicUsize::new(0);
        let next_ref = &next;
        // Each job writes its pre-assigned slot, so aggregation below runs
        // in job order no matter which worker finishes first — the merged
        // stats (notably series/histogram contents) are identical across
        // runs and across worker counts.
        let slots: Vec<Mutex<Option<Result<RunStats, String>>>> =
            (0..jobs.len()).map(|_| Mutex::new(None)).collect();
        let slots_ref = &slots;
        std::thread::scope(|s| {
            for _ in 0..workers {
                s.spawn(move || loop {
                    let i = next_ref.fetch_add(1, Ordering::Relaxed);
                    if i >= jobs_ref.len() {
                        break;
                    }
                    let (key, det, bench, seed) = &jobs_ref[i];
                    let result = run_job(bench, *det, scale, *seed, injected_ref(key));
                    *slots_ref[i].lock().unwrap() = Some(result);
                });
            }
        });
        let mut runs: FxHashMap<RunKey, JobOutcome> = FxHashMap::default();
        for ((key, ..), slot) in jobs.iter().zip(slots) {
            let stats = match slot.into_inner().unwrap().expect("every job ran") {
                Ok(stats) => stats,
                Err(error) => {
                    // One failed seed poisons the cell (a partial-seed
                    // aggregate would silently change the averaging).
                    runs.insert(key.clone(), JobOutcome::Failed { error });
                    continue;
                }
            };
            match runs.entry(key.clone()) {
                std::collections::hash_map::Entry::Occupied(mut e) => {
                    if let JobOutcome::Completed(agg) = e.get_mut() {
                        agg.merge(&stats);
                    } // Failed stays failed
                }
                std::collections::hash_map::Entry::Vacant(e) => {
                    e.insert(JobOutcome::Completed(Box::new(stats)));
                }
            }
        }
        Matrix { scale, seeds: seeds.to_vec(), runs }
    }

    /// The standard grid behind Figures 1, 2, 8, 9, 10: all ten benchmarks
    /// under baseline, sb2/4/8/16 and perfect, aggregated over three seeds
    /// derived from `seed`.
    pub fn paper_grid(scale: Scale, seed: u64) -> Matrix {
        let seeds = [seed, seed.wrapping_add(1), seed.wrapping_add(2)];
        Matrix::compute(&asf_workloads::names(scale), &DetectorKind::paper_set(), scale, &seeds)
    }

    /// Look up one run's stats; `Err` for cells that are missing from the
    /// grid or whose jobs failed.
    pub fn get(&self, bench: &str, detector: DetectorKind) -> Result<&RunStats, HarnessError> {
        match self.runs.get(&RunKey::new(bench, detector)) {
            Some(JobOutcome::Completed(stats)) => Ok(stats),
            Some(JobOutcome::Failed { error, .. }) => Err(HarnessError::FailedCell {
                bench: bench.to_string(),
                detector: detector.label(),
                error: error.clone(),
            }),
            None => Err(HarnessError::MissingCell {
                bench: bench.to_string(),
                detector: detector.label(),
            }),
        }
    }

    /// Like [`Matrix::get`] but collapsing missing/failed to `None` — the
    /// partial-rendering path the figure tables use.
    pub fn stats(&self, bench: &str, detector: DetectorKind) -> Option<&RunStats> {
        self.get(bench, detector).ok()
    }

    /// Every failed cell as `(key, error)`, sorted for stable reporting.
    pub fn failed_cells(&self) -> Vec<(RunKey, String)> {
        let mut out: Vec<(RunKey, String)> = self
            .runs
            .iter()
            .filter_map(|(k, v)| match v {
                JobOutcome::Failed { error } => Some((k.clone(), error.clone())),
                JobOutcome::Completed(_) => None,
            })
            .collect();
        out.sort_by(|a, b| (&a.0.bench, &a.0.detector).cmp(&(&b.0.bench, &b.0.detector)));
        out
    }

    /// Does the matrix hold this run (completed or failed)?
    pub fn contains(&self, bench: &str, detector: DetectorKind) -> bool {
        self.runs.contains_key(&RunKey::new(bench, detector))
    }

    /// Benchmarks present, in Table III order.
    pub fn benches(&self) -> Vec<String> {
        asf_workloads::names(self.scale)
            .into_iter()
            .filter(|b| self.runs.keys().any(|k| k.bench == *b))
            .map(str::to_string)
            .collect()
    }

    /// Number of runs held.
    pub fn len(&self) -> usize {
        self.runs.len()
    }

    /// True when no runs are held.
    pub fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_matrix_computes_and_indexes() {
        let m = Matrix::compute(
            &["ssca2", "intruder"],
            &[DetectorKind::Baseline, DetectorKind::SubBlock(4)],
            Scale::Small,
            &[7, 8],
        );
        assert_eq!(m.len(), 4);
        assert_eq!(m.benches(), vec!["intruder", "ssca2"]);
        let s = m.get("ssca2", DetectorKind::Baseline).unwrap();
        assert!(s.tx_committed > 0);
        assert!(m.contains("intruder", DetectorKind::SubBlock(4)));
        assert!(!m.contains("intruder", DetectorKind::Perfect));
        assert!(matches!(
            m.get("intruder", DetectorKind::Perfect),
            Err(HarnessError::MissingCell { .. })
        ));
        assert!(m.failed_cells().is_empty());
    }

    #[test]
    fn matrix_is_deterministic() {
        let a = Matrix::compute(&["ssca2"], &[DetectorKind::Baseline], Scale::Small, &[3]);
        let b = Matrix::compute(&["ssca2"], &[DetectorKind::Baseline], Scale::Small, &[3]);
        let (sa, sb) = (
            a.get("ssca2", DetectorKind::Baseline).unwrap(),
            b.get("ssca2", DetectorKind::Baseline).unwrap(),
        );
        assert_eq!(sa.cycles, sb.cycles);
        assert_eq!(sa.conflicts, sb.conflicts);
    }

    #[test]
    fn one_worker_and_n_worker_grids_are_identical() {
        // The worker pool is pure wall-clock parallelism: a serial grid and
        // a maximally-parallel grid must agree on every cell's full stats.
        let grid = |workers: usize| {
            Matrix::compute_with_workers(
                &["ssca2", "intruder", "kmeans"],
                &[DetectorKind::Baseline, DetectorKind::SubBlock(8)],
                Scale::Small,
                &[11, 12],
                Some(workers),
            )
        };
        let (serial, parallel) = (grid(1), grid(8));
        for bench in ["ssca2", "intruder", "kmeans"] {
            for det in [DetectorKind::Baseline, DetectorKind::SubBlock(8)] {
                assert_eq!(
                    serial.get(bench, det).unwrap(),
                    parallel.get(bench, det).unwrap(),
                    "{bench}/{det:?}: worker count changed the results"
                );
            }
        }
    }

    #[test]
    fn multi_seed_merge_is_worker_order_independent() {
        // Three seeds race through the worker pool in arbitrary completion
        // order; pre-assigned result slots must make the aggregate — down
        // to merged time-series content — identical across computes.
        let grid = |seeds: &[u64]| {
            Matrix::compute(
                &["ssca2", "intruder"],
                &[DetectorKind::Baseline, DetectorKind::SubBlock(4)],
                Scale::Small,
                seeds,
            )
        };
        let (a, b) = (grid(&[3, 4, 5]), grid(&[3, 4, 5]));
        for bench in ["ssca2", "intruder"] {
            for det in [DetectorKind::Baseline, DetectorKind::SubBlock(4)] {
                let (sa, sb) =
                    (a.get(bench, det).unwrap(), b.get(bench, det).unwrap());
                assert_eq!(sa.cycles, sb.cycles);
                assert_eq!(sa.conflicts, sb.conflicts);
                assert_eq!(
                    sa.started_series.cumulative(sa.cycles, 32),
                    sb.started_series.cumulative(sb.cycles, 32),
                    "{bench}/{det:?}: merged series drifted between computes"
                );
                assert_eq!(sa.false_by_line.sorted(), sb.false_by_line.sorted());
            }
        }
    }

    #[test]
    fn unknown_benchmark_is_an_error_not_a_panic() {
        let err = run_one("no-such-bench", DetectorKind::Baseline, Scale::Small, 1).unwrap_err();
        assert!(matches!(err, HarnessError::UnknownBenchmark(_)), "{err}");
        assert!(err.to_string().contains("no-such-bench"));
    }
}
