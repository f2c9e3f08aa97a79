//! The simulator engine: scheduler, coherence fabric, HTM execution.

use crate::arena::ProbeArena;
use crate::error::{CoreReport, ProgressReport, SimError};
use crate::fault::FaultPlan;
use crate::hier::{CoreCaches, LineMeta};
use crate::obs::{Obs, ObsConfig, ObsReport, Phases};
use crate::sched::CalendarQueue;
use crate::trace::{RingTrace, TraceEvent, TraceSink};
use crate::txprog::{ThreadProgram, TxAttempt, TxOp, WorkItem, Workload};
use crate::value::{GlobalMemory, ReadLog, WriteSet};
use asf_core::backoff::ExponentialBackoff;
use asf_core::detector::{DetectorKind, ProbeKind, ProbeOutcome};
use asf_core::progress::{scaled_window, ProgressMonitor};
use asf_core::signature::Signature;
use asf_core::spec::SpecState;
use asf_mem::addr::{Access, Addr, CoreId, LineAddr};
use asf_mem::config::MachineConfig;
use asf_mem::intern::{LineId, LineInterner};
use asf_mem::latency::AccessLevel;
use asf_mem::mask::AccessMask;
use asf_mem::moesi::{CoherenceKind, MoesiState};
use asf_mem::rng::SimRng;
use asf_stats::metrics::PhaseId;
use asf_stats::run::{AbortCause, RunStats};
use std::time::Instant;

/// Which transaction survives a detected conflict.
///
/// ASF (and the paper) use requester-wins: the core whose probe detects the
/// conflict proceeds and the probed transaction aborts. Victim-wins is the
/// opposite ablation — the requester aborts its own transaction and retries
/// — exposing how much of the results depend on the resolution policy.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ResolutionPolicy {
    /// The probing core wins; the probed transaction aborts (ASF).
    RequesterWins,
    /// The probed transaction survives; the requester aborts (ablation).
    VictimWins,
}

/// Adaptive sub-blocking (future-work extension): lines start at *line*
/// granularity (2 state bits) and are promoted to `fine` sub-blocks only
/// after `promote_after` false conflicts hit them — a predictor-table
/// design that spends the paper's §IV-E state bits only where false
/// sharing actually occurs.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct AdaptiveConfig {
    /// False conflicts on a line before it is promoted.
    pub promote_after: u32,
    /// Sub-block count used for promoted lines (power of two in 2..=64).
    pub fine: usize,
}

impl AdaptiveConfig {
    /// The configuration used by the `adaptive` experiment: promote after
    /// two false conflicts, track promoted lines at 8 sub-blocks.
    pub fn standard() -> AdaptiveConfig {
        AdaptiveConfig { promote_after: 2, fine: 8 }
    }
}

/// How coherence probes find their targets.
///
/// Opteron-era AMD systems broadcast probes over HyperTransport; later
/// parts added a probe filter ("HT Assist") that tracks which caches may
/// hold a line and probes only those. The filter is conservative (stale
/// entries from silent evictions are only cleaned by invalidations), so
/// every outcome is identical to broadcast — only
/// [`asf_stats::run::RunStats::probe_targets`] shrinks.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FabricKind {
    /// Probe every other core (the paper's setting).
    Broadcast,
    /// Probe only cores the directory says may hold the line (or retain
    /// speculative metadata for it).
    ProbeFilter,
}

/// Signature-based conflict detection (LogTM-SE style, paper §II): each
/// core summarises its read and write sets in Bloom filters over line
/// addresses. Footprints become unbounded (no capacity aborts), but hash
/// aliasing adds a new source of false conflicts, and detection is
/// line-granular (no sub-blocking).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SignatureConfig {
    /// Filter size in bits (per set, per core).
    pub bits: usize,
    /// Number of partitioned hash functions.
    pub hashes: u32,
}

impl SignatureConfig {
    /// The LogTM-SE hardware-typical configuration (1024 bits, 4 hashes).
    pub fn logtm_se() -> SignatureConfig {
        SignatureConfig { bits: 1024, hashes: 4 }
    }
}

/// Full configuration of one simulation run.
#[derive(Clone, Copy, Debug)]
pub struct SimConfig {
    /// Physical machine (cores, caches, latencies).
    pub machine: MachineConfig,
    /// Conflict-detection system under test.
    pub detector: DetectorKind,
    /// Base window of the software exponential backoff, in cycles.
    pub backoff_base: u64,
    /// Exponent cap of the backoff window.
    pub backoff_cap_exp: u32,
    /// Consecutive aborts after which a transaction falls back to the
    /// global software lock.
    pub max_retries: u32,
    /// Model the dirty-state mechanism (§IV-C). Disabling it is an ablation
    /// that reproduces the Figure 6 atomicity hazards, visible as
    /// `isolation_violations` in the run statistics.
    pub enable_dirty: bool,
    /// Conflict-resolution policy (ASF: requester wins).
    pub resolution: ResolutionPolicy,
    /// Probe-target selection (broadcast vs probe filter); outcomes are
    /// identical, probe traffic differs.
    pub fabric: FabricKind,
    /// Signature-based (LogTM-SE style) conflict detection instead of the
    /// per-line/per-sub-block state machines. When set, `detector` is only
    /// used for the oracle's false/true classification granularity and
    /// conflicts come from Bloom-filter membership; speculative lines are
    /// not pinned (no capacity aborts).
    pub signatures: Option<SignatureConfig>,
    /// Coherence protocol family: MOESI (the paper) or MESI (ablation —
    /// dirty lines write back instead of staying Owned, shifting some data
    /// supplies from remote caches to the local hierarchy).
    pub coherence: CoherenceKind,
    /// Adaptive sub-blocking: when set, `detector` gives the *cold* (default
    /// line-granularity is `DetectorKind::Baseline`) granularity and lines
    /// with repeated false conflicts are promoted to `adaptive.fine`
    /// sub-blocks. Dirty/piggy-back machinery follows the per-line
    /// granularity automatically (all state is byte-exact).
    pub adaptive: Option<AdaptiveConfig>,
    /// DPTM-style WAR speculation (the related-work mode of paper §II):
    /// invalidating probes that would only WAR-conflict do *not* abort the
    /// victim; instead the victim validates its read values at commit and
    /// aborts on mismatch. Handles WAR false conflicts only — RAW and WAW
    /// behave as in the baseline — and imposes lazy detection, exactly the
    /// shortcomings the paper describes. Requires requester-wins.
    pub war_speculation: bool,
    /// Uniform per-access latency jitter in cycles (0 = the paper's fixed
    /// Table II latencies). Drawn from the core's deterministic RNG, so
    /// runs remain reproducible; useful for checking that results are not
    /// artifacts of perfectly regular timing.
    pub latency_jitter: u64,
    /// Master seed; every core derives an independent stream.
    pub seed: u64,
    /// Watchdog: fail the run (typed [`SimError::Watchdog`] from
    /// [`Machine::try_run_to_completion`], panic from the infallible
    /// [`Machine::run_to_completion`]) if the scheduler exceeds this many
    /// steps — guards the test suite against livelock regressions.
    pub max_steps: u64,
    /// Deterministic fault-injection plan. The default
    /// ([`FaultPlan::none`]) disables every class and is bit-transparent:
    /// no RNG draw, no timing change, no statistic moves (the golden-stats
    /// fence pins this). Injection decisions come from a dedicated RNG
    /// stream derived from `seed`, never from the cores' streams.
    pub faults: FaultPlan,
    /// Disable the exact residency index and walk every fabric-selected
    /// core on each probe, as pre-index builds did. Outcomes and statistics
    /// must be identical either way (the index only skips provably-empty
    /// cache walks); equivalence tests flip this to prove it.
    pub exhaustive_probe_walk: bool,
    /// Cross-check both probe indexes on *every* probe (instead of the
    /// periodic debug-build sampling): the residency index against a full
    /// walk of every core's caches, and the speculative-state directory
    /// against the per-core ground truth (live L1 metadata + retained
    /// table). Slow; on in every property/soak suite, where a stale or
    /// leaked entry should fail loudly rather than silently skip or
    /// mis-classify a conflict check.
    pub verify: bool,
    /// Disable the speculative-state directory for conflict *resolution*
    /// and walk each candidate victim's L1 + retained table per probe, as
    /// pre-directory builds did. Outcomes and statistics must be identical
    /// either way (the directory is a read-path index over the same
    /// metadata); equivalence tests flip this to prove it.
    pub exhaustive_spec_walk: bool,
    /// Resolve probe conflicts victim-by-victim from a per-probe snapshot
    /// (the pre-batching code path) instead of the default two-phase
    /// batched pass over the spec-directory row. Outcomes and statistics
    /// must be identical either way — the batched pass evaluates the same
    /// per-victim checks against the same state, it only hoists the
    /// mask-coarsening and the row lookup out of the victim loop;
    /// equivalence tests flip this to prove it.
    pub sequential_probe_resolution: bool,
    /// First *global* thread id of this machine's cores. 0 for a
    /// standalone machine; the shard-parallel engine sets it to the
    /// shard's base core so workload spawning and per-core RNG stream
    /// derivation see system-wide ids — a shard's cores behave exactly
    /// like the same-numbered cores of one big machine.
    pub tid_base: usize,
    /// Total cores of the *system* this machine is part of; 0 means "this
    /// machine is the whole system" (`machine.cores`). Drives workload
    /// spawning (`threads` argument) and the core-count scaling of the
    /// forward-progress watchdog thresholds.
    pub system_cores: usize,
}

impl SimConfig {
    /// Paper-standard configuration for a given detector.
    pub fn paper(detector: DetectorKind) -> SimConfig {
        SimConfig {
            machine: MachineConfig::opteron_8core(),
            detector,
            backoff_base: 64,
            backoff_cap_exp: 10,
            max_retries: 64,
            enable_dirty: true,
            resolution: ResolutionPolicy::RequesterWins,
            fabric: FabricKind::Broadcast,
            coherence: CoherenceKind::Moesi,
            signatures: None,
            adaptive: None,
            war_speculation: false,
            latency_jitter: 0,
            seed: 0x05ee_da5f_2013,
            max_steps: 2_000_000_000,
            faults: FaultPlan::none(),
            exhaustive_probe_walk: false,
            verify: false,
            exhaustive_spec_walk: false,
            sequential_probe_resolution: false,
            tid_base: 0,
            system_cores: 0,
        }
    }

    /// Same, with an explicit seed.
    pub fn paper_seeded(detector: DetectorKind, seed: u64) -> SimConfig {
        SimConfig { seed, ..SimConfig::paper(detector) }
    }

    /// Total cores of the system this configuration belongs to (the local
    /// machine when `system_cores` is unset).
    pub fn system_total(&self) -> usize {
        if self.system_cores == 0 {
            self.machine.cores
        } else {
            self.system_cores
        }
    }
}

/// What a finished run returns.
#[derive(Debug)]
pub struct SimOutput {
    /// All measurements.
    pub stats: RunStats,
    /// Final committed memory (tests verify serializability against it).
    pub memory: GlobalMemory,
    /// The event log, when tracing was enabled before the run.
    pub trace: Option<RingTrace>,
    /// Adaptive mode: lines promoted to fine-grained tracking (0 otherwise).
    pub promoted_lines: usize,
    /// The observability report, when
    /// [`Machine::enable_observability`] was called before the run.
    /// Deliberately *outside* [`RunStats`]: phase timings are wall-clock
    /// and therefore nondeterministic, and the whole layer is contracted
    /// never to perturb the digest-pinned statistics.
    pub obs: Option<ObsReport>,
}

/// Control state of one core.
#[derive(Debug)]
enum CoreState {
    /// Ready to fetch the next work item. (There is deliberately no
    /// `Compute` state: a compute work item advances the core's clock at
    /// dispatch time — the event-ordered scheduler re-queues the core at
    /// the finish cycle, so a dedicated "advance the clock" turn would be
    /// pure double dispatch.)
    Idle,
    /// Executing a transaction attempt.
    InTx { attempt: TxAttempt, pc: usize },
    /// Waiting out backoff before retrying `attempt`.
    Backoff { until: u64, attempt: TxAttempt },
    /// Spinning on the global fallback lock.
    AwaitLock { attempt: TxAttempt },
    /// Holding the fallback lock, executing `attempt` non-transactionally.
    Fallback { attempt: TxAttempt, pc: usize },
    /// Executing a non-transactional op sequence.
    Plain { ops: Vec<TxOp>, pc: usize },
    /// Program exhausted.
    Done,
}

struct Core {
    clock: u64,
    caches: CoreCaches,
    program: Box<dyn ThreadProgram>,
    state: CoreState,
    pending: Option<WorkItem>,
    writeset: WriteSet,
    backoff: ExponentialBackoff,
    rng: SimRng,
    /// Set (with its cause) when a remote probe or self-detected condition
    /// aborted the running attempt; consumed at the core's next step.
    abort_pending: Option<AbortCause>,
    consec_aborts: u32,
    /// Signature mode: Bloom summaries of the running attempt's sets.
    read_sig: Option<Signature>,
    write_sig: Option<Signature>,
    /// DPTM mode: byte values observed by this attempt's reads
    /// (generation-tagged: cleared in O(1) at commit/abort).
    read_log: ReadLog,
    /// DPTM mode: a WAR probe was speculated through; commit must validate.
    needs_validation: bool,
}

impl Core {
    fn in_running_tx(&self) -> bool {
        matches!(self.state, CoreState::InTx { .. }) && self.abort_pending.is_none()
    }
}

/// Result of broadcasting one probe.
#[derive(Debug, Default, Clone, Copy)]
struct ProbeSummary {
    others_had_copy: bool,
    owner_supplied: bool,
    piggyback: AccessMask,
}

/// One committed transaction's write footprint in an [`EpochLog`]: a range
/// of `(line, write mask)` entries in the log's flat `commit_lines` store
/// (flattened so a million-commit epoch makes zero per-commit allocations).
#[derive(Clone, Copy, Debug)]
pub struct CommitRecord {
    /// Commit cycle (shard-local clock).
    pub cycle: u64,
    /// Committing core (machine-local id).
    pub core: usize,
    /// First entry in [`EpochLog::commit_lines`].
    pub start: usize,
    /// Number of written lines.
    pub len: usize,
}

/// Per-epoch outbox a machine fills when epoch logging is enabled
/// ([`Machine::enable_epoch_log`]) — the raw material of the shard engine's
/// epoch barrier (DESIGN.md §15).
///
/// Two streams, both in exact event order (the scheduler's ascending
/// `(clock, core)` order, which makes barrier resolution deterministic):
/// lines that *gained speculative state* (feeding the inter-cluster
/// directory's conservative sharer map) and committed write footprints
/// (routed to sharing clusters as external probes). Logging is gated on
/// one hoisted bool, records no RNG draws and no timing, and is therefore
/// bit-transparent to every statistic — the golden fence pins this.
#[derive(Debug, Default)]
pub struct EpochLog {
    /// Lines that gained speculative state in this machine for the first
    /// time ever, in event order: each line appears at most once over the
    /// whole run. That is all the directory needs, because it never clears
    /// a sharer bit and the barrier notes every log before it routes any
    /// commit (DESIGN.md §15).
    pub spec_touched: Vec<LineAddr>,
    /// Commit footprints, in commit order (non-decreasing cycle).
    pub commits: Vec<CommitRecord>,
    /// Flat `(line, write-mask bits)` store the commit records index.
    pub commit_lines: Vec<(LineAddr, u64)>,
}

impl EpochLog {
    /// Forget all records, keeping buffer capacity for the next epoch.
    pub fn clear(&mut self) {
        self.spec_touched.clear();
        self.commits.clear();
        self.commit_lines.clear();
    }

    /// Nothing recorded this epoch?
    pub fn is_empty(&self) -> bool {
        self.spec_touched.is_empty() && self.commits.is_empty()
    }
}

/// The simulator.
pub struct Machine {
    cfg: SimConfig,
    cores: Vec<Core>,
    memory: GlobalMemory,
    stats: RunStats,
    fallback_owner: Option<usize>,
    steps: u64,
    trace: Option<RingTrace>,
    /// Streaming timeline sink (Chrome trace, or anything implementing
    /// [`TraceSink`]); fed the same events as `trace`.
    sink: Option<Box<dyn TraceSink>>,
    /// The observability layer (metrics registry + phase profiler);
    /// `None` unless [`Machine::enable_observability`] was called.
    obs: Option<Box<Obs>>,
    /// `obs.is_some()`, hoisted: like `faults_on`, every instrumentation
    /// site gates on this bool so the disabled layer costs one predictable
    /// branch and the run stays bit-identical.
    obs_on: bool,
    /// Line-address intern table: every per-line global structure below is
    /// a dense array indexed by [`LineId`]. One hash probe per line
    /// fragment at access time replaces one per structure per touch.
    intern: LineInterner,
    /// Adaptive mode: per-line false-conflict heat (the predictor table),
    /// indexed by line id.
    line_heat: Vec<u32>,
    /// Probe-filter directory: cores that may hold each line (bitmask),
    /// indexed by line id.
    ///
    /// Distinct from `residency`: the directory models HT-Assist hardware —
    /// conservative (stale entries survive silent evictions) and consulted
    /// only under [`FabricKind::ProbeFilter`], where it defines the
    /// *accounted* probe traffic. The residency index is a simulator-side
    /// exactness structure that never changes any reported number.
    directory: Vec<u64>,
    /// Exact residency index, indexed by line id: bit `v` is set iff core
    /// `v` holds the line in L1, L2, or L3, or retains speculative metadata
    /// for it. Maintained at every fill, eviction, invalidation,
    /// retained-metadata insert/drop, and commit/abort teardown; probes
    /// walk only these cores (plus, in signature mode, every
    /// in-transaction core — Bloom state is decoupled from the caches).
    /// Purely an optimisation: broadcast *accounting* still charges all
    /// remote cores, so stats stay bit-identical.
    residency: Vec<u64>,
    /// Event-ordered run queue: one `(clock, core)` entry per non-`Done`
    /// core, popped in exactly the `(clock, core_id)` order the old
    /// linear `min_by_key` scan (and the binary heap that replaced it)
    /// produced. Valid because a core's clock only ever changes during its
    /// own turn, and never moves backwards — the calendar queue's
    /// monotone-push contract.
    runq: CalendarQueue,
    /// Global speculative-state directory, struct-of-arrays: bit `v` of
    /// `spec_cores[lid]` iff core `v` holds live-or-retained speculative
    /// state for the line, with its raw byte `(read, write)` masks at
    /// `spec_masks[lid * n_cores + v]`. Written only on a line's
    /// speculative mask growth ([`Self::mark_spec`]) and cleared
    /// column-wise at commit/abort teardown — every other metadata
    /// movement (invalidate with retention, signature-mode L1 eviction to
    /// `retained`, fold-back on refetch) preserves the per-(line, core)
    /// union, so no update is needed there. Purely a read-path index: all
    /// reported statistics are bit-identical with `exhaustive_spec_walk`.
    spec_cores: Vec<u64>,
    /// Per-(line, core) raw `(read_bits, write_bits)` masks; see
    /// [`Machine::spec_cores`]. Dirty bits are deliberately absent: they
    /// are local-only state, invisible to remote conflict checks.
    spec_masks: Vec<(u64, u64)>,
    /// Pooled scratch buffers for the probe and teardown hot paths.
    arena: ProbeArena,
    /// Fault-injection RNG: a dedicated stream derived from the seed, so
    /// enabling faults never perturbs the cores' own streams (and a
    /// zero-rate plan never draws from this one either).
    fault_rng: SimRng,
    /// `cfg.faults.enabled()`, hoisted: every injection site is gated on
    /// this bool so the disabled layer costs one predictable branch.
    faults_on: bool,
    /// Per-core end cycle of the current capacity-pressure spike window
    /// (way pinning); 0 = no window.
    spike_until: Vec<u64>,
    /// Forward-progress bookkeeping (commit age, abort streaks) feeding
    /// the watchdog's livelock/starvation verdict. Passive: no RNG, no
    /// scheduling influence.
    monitor: ProgressMonitor,
    /// Epoch outbox for the shard-parallel engine; filled only when
    /// `epoch_on` (hoisted gate, like `faults_on`), so standalone runs pay
    /// one predictable branch and stay bit-identical.
    epoch: EpochLog,
    /// [`Machine::enable_epoch_log`] was called.
    epoch_on: bool,
    /// Per line id: already pushed onto [`EpochLog::spec_touched`]. The
    /// inter-cluster directory's sharer bits are monotone, so a line is
    /// announced once per machine, not once per transaction that touches it.
    announced: Vec<bool>,
    /// Shared progress snapshot, refreshed every
    /// [`crate::snapshot::PUBLISH_EVERY_STEPS`] steps when attached
    /// (hoisted-`Option` pattern like `faults_on`): the serve layer's
    /// status endpoint reads it from another thread. Publishing copies
    /// already-maintained counters into relaxed atomics and is therefore
    /// bit-transparent to the run.
    progress_probe: Option<std::sync::Arc<crate::snapshot::ProgressProbe>>,

    /// Cooperative cancellation flag, checked at the probe-publish cadence
    /// (see [`Machine::attach_cancel_token`]). `None` costs one branch per
    /// publish window; an attached-but-unfired token is bit-transparent.
    cancel: Option<std::sync::Arc<crate::snapshot::CancelToken>>,
}

/// RNG stream id for fault injection; far outside the per-core streams
/// (`1..=cores`, cores ≤ 64).
const FAULT_RNG_STREAM: u64 = 0xFA17_0001;

impl Machine {
    /// Build a machine running `workload` on every core.
    pub fn new(workload: &dyn Workload, cfg: SimConfig) -> Machine {
        cfg.detector.validate().expect("invalid detector configuration");
        assert!(
            !(cfg.war_speculation && cfg.resolution == ResolutionPolicy::VictimWins),
            "WAR speculation requires requester-wins resolution"
        );
        assert!(
            cfg.fabric == FabricKind::Broadcast || cfg.machine.cores <= 64,
            "the probe-filter directory supports at most 64 cores"
        );
        assert!(
            !(cfg.signatures.is_some() && (cfg.adaptive.is_some() || cfg.war_speculation)),
            "signature detection does not compose with adaptive or WAR-speculation modes"
        );
        assert!(
            !(cfg.signatures.is_some() && cfg.resolution == ResolutionPolicy::VictimWins),
            "signature detection is implemented for requester-wins only"
        );
        if let Some(a) = cfg.adaptive {
            DetectorKind::SubBlock(a.fine)
                .validate()
                .expect("invalid adaptive fine granularity");
            assert!(a.promote_after >= 1, "promotion threshold must be positive");
        }
        assert!(cfg.machine.cores <= 64, "the residency index supports at most 64 cores");
        let n = cfg.machine.cores;
        // Shard-parallel support: cores identify as `tid_base + local` out
        // of `system_total()` threads, and RNG streams derive from the
        // *global* id — so shard `s`'s core `i` runs the identical program
        // on the identical stream as core `s*k + i` of one big machine.
        // Standalone machines have `tid_base = 0`, `system = n`: exactly
        // the old behaviour, bit for bit.
        let system = cfg.system_total();
        let cores = (0..n)
            .map(|tid| Core {
                clock: 0,
                caches: CoreCaches::new(&cfg.machine),
                program: workload.spawn(cfg.tid_base + tid, system, cfg.seed),
                state: CoreState::Idle,
                pending: None,
                writeset: WriteSet::default(),
                backoff: ExponentialBackoff::new(cfg.backoff_base, cfg.backoff_cap_exp),
                rng: SimRng::derive(cfg.seed, (cfg.tid_base + tid) as u64 + 1),
                abort_pending: None,
                consec_aborts: 0,
                read_sig: cfg.signatures.map(|sc| Signature::new(sc.bits, sc.hashes)),
                write_sig: cfg.signatures.map(|sc| Signature::new(sc.bits, sc.hashes)),
                read_log: ReadLog::default(),
                needs_validation: false,
            })
            .collect();
        // All cores start at clock 0; ties pop in core-id order, the same
        // order the linear scan used.
        let mut runq = CalendarQueue::new();
        for i in 0..n {
            runq.push(0, i);
        }
        Machine {
            cfg,
            cores,
            memory: GlobalMemory::new(),
            stats: RunStats::default(),
            fallback_owner: None,
            steps: 0,
            trace: None,
            sink: None,
            obs: None,
            obs_on: false,
            intern: LineInterner::new(),
            line_heat: Vec::new(),
            directory: Vec::new(),
            residency: Vec::new(),
            runq,
            spec_cores: Vec::new(),
            spec_masks: Vec::new(),
            arena: ProbeArena::new(),
            fault_rng: SimRng::derive(cfg.seed, FAULT_RNG_STREAM + cfg.tid_base as u64),
            faults_on: cfg.faults.enabled(),
            spike_until: vec![0; n],
            monitor: ProgressMonitor::with_system_cores(n, system),
            epoch: EpochLog::default(),
            epoch_on: false,
            announced: Vec::new(),
            progress_probe: None,
            cancel: None,
        }
    }

    /// Intern `line`, growing every dense per-line table on first sight so
    /// all downstream lookups are plain in-bounds array indexing.
    #[inline]
    fn intern_line(&mut self, line: LineAddr) -> LineId {
        let lid = self.intern.intern(line);
        if lid as usize >= self.line_heat.len() {
            self.line_heat.push(0);
            self.directory.push(0);
            self.residency.push(0);
            self.spec_cores.push(0);
            self.announced.push(false);
            self.spec_masks
                .resize(self.spec_masks.len() + self.cores.len(), (0, 0));
        }
        lid
    }

    // ------------------------------------------------------------------
    // Residency index maintenance
    // ------------------------------------------------------------------

    /// Note that `who` now holds the line somewhere (fill into any level).
    #[inline]
    fn res_add(&mut self, lid: LineId, who: usize) {
        self.residency[lid as usize] |= 1 << who;
    }

    /// `who` may have stopped holding `line`: re-check the ground truth and
    /// clear the bit if the line is gone from every level and the retained
    /// table. (Re-checking keeps the index exact across partial removals —
    /// an L1 eviction of a line still sitting in L2, say.)
    fn res_drop_if_absent(&mut self, line: LineAddr, lid: LineId, who: usize) {
        if self.cores[who].caches.holds(line) {
            return;
        }
        self.residency[lid as usize] &= !(1 << who);
    }

    // ------------------------------------------------------------------
    // Speculative-state directory maintenance
    // ------------------------------------------------------------------

    /// OR `mask` into `who`'s directory column for the line. Called only
    /// when the core's *live* mask actually grows (the caller pre-checks),
    /// so most marks on warm lines skip even the array store.
    #[inline]
    fn spec_dir_mark(&mut self, lid: LineId, who: usize, mask: AccessMask, is_write: bool) {
        self.spec_cores[lid as usize] |= 1 << who;
        let slot = &mut self.spec_masks[lid as usize * self.cores.len() + who];
        if is_write {
            slot.1 |= mask.0;
        } else {
            slot.0 |= mask.0;
        }
    }

    /// Retire `who`'s directory column for the line (commit/abort
    /// teardown).
    #[inline]
    fn spec_dir_clear(&mut self, lid: LineId, who: usize) {
        let row = &mut self.spec_cores[lid as usize];
        if *row & (1 << who) != 0 {
            *row &= !(1 << who);
            self.spec_masks[lid as usize * self.cores.len() + who] = (0, 0);
        }
    }

    /// Probe-filter: note that `who` may now cache the line.
    #[inline]
    fn dir_add(&mut self, lid: LineId, who: usize) {
        if self.cfg.fabric == FabricKind::ProbeFilter {
            self.directory[lid as usize] |= 1 << who;
        }
    }

    /// Cores a probe for the line from `who` must actually *visit*, as a
    /// bitmask walked in ascending core-id order. The walk set is the
    /// fabric's target set narrowed by the exact residency index: a core
    /// holding neither a copy of the line at any level nor retained
    /// speculative metadata for it contributes nothing to conflict
    /// detection, data supply, or coherence updates, so its cache walk is
    /// skipped. Signature (LogTM-SE) detection is the one exception —
    /// Bloom state is decoupled from the caches, so every in-transaction
    /// core stays in the walk set there.
    ///
    /// Accounting is separate (see [`Self::accounted_probe_targets`]):
    /// under broadcast the fabric still pays for all remote cores, and the
    /// probe-filter directory still defines its own (conservative) target
    /// count, so all reported numbers are bit-identical to a full walk.
    fn probe_target_bits(&self, who: usize, lid: LineId) -> u64 {
        let n = self.cores.len();
        let mut bits: u64 = if self.cfg.exhaustive_probe_walk {
            u64::MAX
        } else {
            let res = self.residency[lid as usize];
            if self.cfg.signatures.is_some() {
                let mut b = res;
                for (v, core) in self.cores.iter().enumerate() {
                    if core.in_running_tx() {
                        b |= 1 << v;
                    }
                }
                b
            } else {
                res
            }
        };
        if self.cfg.fabric == FabricKind::ProbeFilter {
            bits &= self.directory[lid as usize];
        }
        if n < 64 {
            bits &= (1 << n) - 1;
        }
        bits & !(1 << who)
    }

    /// Probe targets the *fabric* charges for — what
    /// [`asf_stats::run::RunStats::probe_targets`] counts, independent of
    /// how many cache walks the residency index let us skip.
    #[inline]
    fn accounted_probe_targets(&self, who: usize, lid: LineId) -> u64 {
        match self.cfg.fabric {
            FabricKind::Broadcast => self.cores.len() as u64 - 1,
            FabricKind::ProbeFilter => {
                (self.directory[lid as usize] & !(1 << who)).count_ones() as u64
            }
        }
    }

    /// The detector effective for the line (adaptive mode promotes hot
    /// lines).
    #[inline]
    fn effective_detector(&self, lid: LineId) -> DetectorKind {
        match self.cfg.adaptive {
            None => self.cfg.detector,
            Some(a) => {
                if self.line_heat[lid as usize] >= a.promote_after {
                    DetectorKind::SubBlock(a.fine)
                } else {
                    self.cfg.detector
                }
            }
        }
    }

    /// Adaptive mode: account a false conflict against the line.
    #[inline]
    fn heat_line(&mut self, lid: LineId) {
        if self.cfg.adaptive.is_some() {
            self.line_heat[lid as usize] += 1;
        }
    }

    /// Lines promoted to fine granularity so far (adaptive mode; the
    /// "state bits actually spent" metric of the adaptive experiment).
    pub fn promoted_lines(&self) -> usize {
        match self.cfg.adaptive {
            None => 0,
            Some(a) => self
                .line_heat
                .iter()
                .filter(|&&h| h >= a.promote_after)
                .count(),
        }
    }

    /// Enable event tracing with a ring buffer of `cap` events. Call before
    /// running; the log is returned in [`SimOutput::trace`].
    pub fn enable_trace(&mut self, cap: usize) {
        self.trace = Some(RingTrace::new(cap));
    }

    /// Attach a streaming [`TraceSink`] (e.g.
    /// [`crate::trace::ChromeTraceSink`]). The sink sees every event the
    /// ring trace would, as it happens — nothing is dropped. Call before
    /// running; recover the sink with [`Machine::take_trace_sink`] after.
    pub fn set_trace_sink(&mut self, sink: Box<dyn TraceSink>) {
        self.sink = Some(sink);
    }

    /// Detach the streaming sink installed by [`Machine::set_trace_sink`]
    /// (downcast via [`TraceSink::as_any`] to recover the concrete writer).
    pub fn take_trace_sink(&mut self) -> Option<Box<dyn TraceSink>> {
        self.sink.take()
    }

    /// Enable the observability layer (DESIGN.md §13): named counters,
    /// cycle-bucketed interval gauges, and (when `cfg.profile`) wall-time
    /// phase histograms. Call before running; the report is returned in
    /// [`SimOutput::obs`]. The layer never touches [`RunStats`], any RNG
    /// stream, or any clock — enabling it is bit-transparent to every
    /// reported statistic.
    pub fn enable_observability(&mut self, cfg: ObsConfig) {
        self.obs = Some(Box::new(Obs::new(cfg)));
        self.obs_on = true;
    }

    /// Attach a shared progress snapshot
    /// ([`crate::snapshot::ProgressProbe`]): the run refreshes it every
    /// [`crate::snapshot::PUBLISH_EVERY_STEPS`] scheduler steps and at
    /// completion, so another thread (the serve layer's status endpoint)
    /// can watch a long simulation without touching it. Bit-transparent:
    /// publishing only copies already-maintained counters into relaxed
    /// atomics.
    pub fn attach_progress_probe(
        &mut self,
        probe: std::sync::Arc<crate::snapshot::ProgressProbe>,
    ) {
        self.progress_probe = Some(probe);
    }

    /// Attach a cooperative cancellation token
    /// ([`crate::snapshot::CancelToken`]). The run checks it every
    /// [`crate::snapshot::PUBLISH_EVERY_STEPS`] scheduler steps — the same
    /// cadence as the progress probe — and, when it finds the token fired,
    /// stops cleanly with [`SimError::Cancelled`] instead of running to
    /// completion. A token that never fires is bit-transparent: the check
    /// is one relaxed load, no RNG, no clock, no scheduling influence.
    pub fn attach_cancel_token(
        &mut self,
        token: std::sync::Arc<crate::snapshot::CancelToken>,
    ) {
        self.cancel = Some(token);
    }

    /// Refresh the attached progress probe, if any.
    fn publish_progress(&self) {
        if let Some(p) = &self.progress_probe {
            p.publish(
                self.steps,
                self.cores.iter().map(|c| c.clock).max().unwrap_or(0),
                self.stats.tx_started,
                self.stats.tx_committed,
                self.stats.tx_aborted,
                &self.monitor,
            );
        }
    }

    #[inline]
    fn emit(&mut self, ev: TraceEvent) {
        if let Some(t) = self.trace.as_mut() {
            t.record(ev);
        }
        if let Some(s) = self.sink.as_mut() {
            s.record(ev);
        }
    }

    // ------------------------------------------------------------------
    // Observability hooks (all no-ops unless `obs_on`)
    // ------------------------------------------------------------------

    /// Start a wall-clock sample if profiling is live. The `Option` is the
    /// gate: disabled runs take one branch, no clock read.
    #[inline]
    fn obs_timer(&self) -> Option<Instant> {
        match &self.obs {
            Some(o) if o.profile => Some(Instant::now()),
            _ => None,
        }
    }

    /// Close a wall-clock sample opened by [`Self::obs_timer`].
    #[inline]
    fn obs_phase(&mut self, t0: Option<Instant>, sel: impl FnOnce(&Phases) -> PhaseId) {
        if let (Some(t0), Some(o)) = (t0, self.obs.as_deref_mut()) {
            let id = sel(&o.ph);
            o.phases.record(id, t0.elapsed());
        }
    }

    /// Run `f` against the live observability state (no-op when disabled).
    #[inline]
    fn obs_with(&mut self, f: impl FnOnce(&mut Obs)) {
        if let Some(o) = self.obs.as_deref_mut() {
            f(o);
        }
    }

    /// Count one detected conflict (and its interval-gauge bucket).
    #[inline]
    fn obs_conflict(&mut self, now: u64, is_true: bool) {
        if let Some(o) = self.obs.as_deref_mut() {
            o.registry.inc(o.c.conflicts);
            o.registry.bump(o.g.conflicts, now);
            if !is_true {
                o.registry.inc(o.c.false_conflicts);
                o.registry.bump(o.g.false_conflicts, now);
            }
        }
    }

    /// Convenience: build and run to completion (panics on watchdog trip;
    /// see [`Machine::try_run`] for the fallible form).
    pub fn run(workload: &dyn Workload, cfg: SimConfig) -> SimOutput {
        let mut m = Machine::new(workload, cfg);
        m.run_to_completion()
    }

    /// Convenience: build and run to completion, returning a typed
    /// [`SimError`] (with its forward-progress diagnosis) instead of
    /// panicking when the watchdog trips.
    pub fn try_run(workload: &dyn Workload, cfg: SimConfig) -> Result<SimOutput, SimError> {
        let mut m = Machine::new(workload, cfg);
        m.try_run_to_completion()
    }

    /// Drive the scheduler until every program finishes. Panics with the
    /// full diagnostic dump if the watchdog trips; callers that want to
    /// degrade instead of die use [`Machine::try_run_to_completion`].
    pub fn run_to_completion(&mut self) -> SimOutput {
        match self.try_run_to_completion() {
            Ok(out) => out,
            Err(err) => panic!("{err}"),
        }
    }

    /// Drive the scheduler until every program finishes, or until the step
    /// budget (`SimConfig::max_steps`) runs out — in which case the run
    /// ends with [`SimError::Watchdog`] carrying per-core progress state,
    /// the fallback-lock owner, the hottest conflict lines, and the
    /// monitor's livelock/starvation verdict.
    pub fn try_run_to_completion(&mut self) -> Result<SimOutput, SimError> {
        while self.step() {
            self.steps += 1;
            if self.steps >= self.cfg.max_steps {
                self.publish_progress();
                if let Some(p) = &self.progress_probe {
                    p.finish();
                }
                return Err(SimError::Watchdog(self.progress_report()));
            }
            if (self.progress_probe.is_some() || self.cancel.is_some())
                && self.steps.is_multiple_of(crate::snapshot::PUBLISH_EVERY_STEPS)
            {
                self.publish_progress();
                // Cooperative cancellation shares the publish cadence: one
                // relaxed load per window, and a clean typed exit (no
                // partial stats escape) when a supervisor fired the token.
                if let Some(kind) = self.cancel.as_ref().and_then(|t| t.kind()) {
                    if let Some(p) = &self.progress_probe {
                        p.finish();
                    }
                    return Err(SimError::Cancelled(kind));
                }
            }
        }
        self.publish_progress();
        if let Some(p) = &self.progress_probe {
            p.finish();
        }
        let mut stats = std::mem::take(&mut self.stats);
        stats.cycles = self.cores.iter().map(|c| c.clock).max().unwrap_or(0);
        let promoted_lines = self.promoted_lines();
        // Fold the caches' passive fill/eviction counters into the report
        // at the end of the run (the mem crate cannot depend on stats, so
        // the counters live with the arrays and are read out here).
        let obs = self.obs.take().map(|mut o| {
            self.obs_on = false;
            for core in &self.cores {
                o.registry.add(o.c.l1_evictions, core.caches.l1.evictions());
                o.registry.add(o.c.l2_evictions, core.caches.l2.evictions());
                o.registry.add(o.c.l3_evictions, core.caches.l3.evictions());
            }
            o.into_report()
        });
        Ok(SimOutput {
            stats,
            memory: std::mem::take(&mut self.memory),
            trace: self.trace.take(),
            promoted_lines,
            obs,
        })
    }

    // ------------------------------------------------------------------
    // Epoch-parallel driving (the shard engine's per-shard interface)
    // ------------------------------------------------------------------

    /// Clock of the next scheduled event, `None` when every core is done.
    /// The shard engine uses this to pick (and skip to) the next epoch
    /// boundary without stepping anything.
    pub fn next_event_clock(&self) -> Option<u64> {
        self.runq.peek().map(|(clock, _)| clock)
    }

    /// Start filling the per-epoch outbox ([`EpochLog`]). Called once by
    /// the shard engine right after construction; standalone machines never
    /// enable it and pay one predictable branch per site.
    pub fn enable_epoch_log(&mut self) {
        self.epoch_on = true;
    }

    /// Hand the filled epoch outbox to the caller (swapping in `out`'s
    /// buffers, cleared, for the next epoch) — the barrier reads it while
    /// the machine is parked.
    pub fn swap_epoch_log(&mut self, out: &mut EpochLog) {
        std::mem::swap(&mut self.epoch, out);
        self.epoch.clear();
    }

    /// Drive the scheduler up to (but not into) cycle `until`: steps run
    /// while the next event's clock is `< until`, so after returning every
    /// local event before the epoch boundary has executed. Shares the
    /// step budget and watchdog of [`Machine::try_run_to_completion`].
    ///
    /// Returns `Ok(true)` while the machine still has scheduled work at or
    /// past `until`, `Ok(false)` once every core is done.
    pub fn run_epoch(&mut self, until: u64) -> Result<bool, SimError> {
        loop {
            match self.runq.peek() {
                None => return Ok(false),
                Some((clock, _)) if clock >= until => return Ok(true),
                Some(_) => {}
            }
            let stepped = self.step();
            debug_assert!(stepped, "peek returned an event but step found none");
            self.steps += 1;
            if self.steps >= self.cfg.max_steps {
                return Err(SimError::Watchdog(self.progress_report()));
            }
        }
    }

    /// Finalize after the shard engine has driven every epoch: identical to
    /// finishing [`Machine::try_run_to_completion`] (the run queue is empty,
    /// so no further steps execute — only the end-of-run folds).
    pub fn finish(&mut self) -> Result<SimOutput, SimError> {
        debug_assert!(self.runq.peek().is_none(), "finish() with events still queued");
        self.try_run_to_completion()
    }

    /// Apply one *external* (cross-cluster) probe: a transaction in another
    /// shard committed a write to `line` covering the sub-block bytes in
    /// `wmask`. Any local core holding conflicting speculative state aborts
    /// — same detector mask check, same true/false-conflict taxonomy, and
    /// same WAR-speculation escape as the local probe path, so the abort
    /// statistics stay comparable across shard counts. Returns the number
    /// of victims aborted here.
    ///
    /// Differences from a local probe, by design (DESIGN.md §15): no
    /// `TraceEvent::Probe`/`Conflict` is emitted (those name a local
    /// requester core, and the requester lives in another shard), the
    /// `probes` counter is untouched (cross-cluster traffic is accounted by
    /// the inter-cluster directory instead), and plain (non-speculative)
    /// cached copies are left alone — shards own disjoint address regions
    /// for plain data, so only speculative state crosses clusters.
    pub fn apply_external_probe(&mut self, line: LineAddr, wmask: u64, now: u64) -> u32 {
        let Some(lid) = self.intern.get(line) else {
            return 0; // line never touched here — nothing speculative to hit
        };
        let detector = self.effective_detector(lid);
        let mask = AccessMask(wmask);
        let kind = ProbeKind::Invalidating;
        let probe_coarse = detector.coarsen(mask).0;
        let n = self.cores.len();
        // Two-phase, like `probe_others`: read-only verdict pass over the
        // spec-directory row, then application in ascending core order.
        let mut verdicts = self.arena.checkout_verdicts();
        let mut bits = self.spec_cores[lid as usize];
        while bits != 0 {
            let v = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            if !self.cores[v].in_running_tx() {
                continue;
            }
            let (r, w) = self.spec_masks[lid as usize * n + v];
            verdicts.push((v, detector.check_probe_masks(r, w, kind, mask, probe_coarse)));
        }
        let mut aborted = 0;
        for &(v, outcome) in verdicts.iter() {
            match outcome {
                ProbeOutcome::Conflict { kind: ck, is_true }
                    if self.cfg.war_speculation
                        && ck == asf_core::detector::ConflictType::WriteAfterRead =>
                {
                    self.stats.war_speculations += 1;
                    let _ = is_true;
                    self.cores[v].needs_validation = true;
                }
                ProbeOutcome::Conflict { kind: ck, is_true } => {
                    self.stats.on_conflict(ck, is_true, now, line);
                    self.obs_conflict(now, is_true);
                    if !is_true {
                        self.heat_line(lid);
                    }
                    self.abort_victim(v, AbortCause::Conflict { kind: ck, is_true });
                    aborted += 1;
                }
                ProbeOutcome::NoConflict { .. } => {}
            }
        }
        self.arena.checkin_verdicts(verdicts);
        aborted
    }

    /// Assemble the watchdog's diagnostic dump from the progress monitor,
    /// the cores' control state, and the run statistics so far.
    fn progress_report(&self) -> ProgressReport {
        // "Recently" = within the last eighth of the budget (floored so
        // tiny test budgets still have a meaningful window), stretched for
        // large systems where each core is scheduled proportionally less
        // often per step. At ≤ 8 system cores this is the base window.
        let window = scaled_window((self.cfg.max_steps / 8).max(1024), self.cfg.system_total());
        let active: Vec<bool> = self
            .cores
            .iter()
            .map(|c| !matches!(c.state, CoreState::Done))
            .collect();
        let verdict = self.monitor.classify(&active, self.steps, window);
        let cores = self
            .cores
            .iter()
            .enumerate()
            .map(|(i, c)| {
                let state = match &c.state {
                    CoreState::Idle => "Idle".to_string(),
                    CoreState::InTx { pc, .. } => format!("InTx(pc={pc})"),
                    CoreState::Backoff { until, .. } => format!("Backoff(until={until})"),
                    CoreState::AwaitLock { .. } => "AwaitLock".to_string(),
                    CoreState::Fallback { pc, .. } => format!("Fallback(pc={pc})"),
                    CoreState::Plain { pc, .. } => format!("Plain(pc={pc})"),
                    CoreState::Done => "Done".to_string(),
                };
                let p = self.monitor.core(i);
                CoreReport {
                    core: i,
                    state,
                    clock: c.clock,
                    commits: p.commits,
                    streak: p.streak,
                    last_commit_step: p.last_commit_step,
                    attempts_since_commit: p.attempts_since_commit,
                }
            })
            .collect();
        ProgressReport {
            steps: self.steps,
            verdict,
            fallback_owner: self.fallback_owner,
            cores,
            hottest_lines: self.stats.false_by_line.hottest(4),
            total_commits: self.stats.tx_committed,
            total_aborts: self.stats.tx_aborted,
        }
    }

    /// Execute one scheduler step; false when all cores are done.
    ///
    /// The run queue holds exactly one `(clock, core)` entry per non-`Done`
    /// core, so popping the minimum reproduces the retired linear scan's
    /// `min_by_key((clock, id))` choice — including its tie-break on the
    /// smaller core id (see [`crate::sched::CalendarQueue`] for the pop
    /// order the golden digests pin). The entry's key can never go stale: a
    /// core's clock changes only during its own turn, the turn ends by
    /// re-queueing it at the new clock, and clocks never move backwards —
    /// the queue's monotone-push contract.
    fn step(&mut self) -> bool {
        let who = match self.runq.pop() {
            Some((clock, who)) => {
                debug_assert_eq!(
                    clock, self.cores[who].clock,
                    "run-queue entry went stale for core {who}"
                );
                who
            }
            None => return false,
        };
        if self.obs_on {
            self.obs_with(|o| {
                let id = o.c.sched_pops;
                o.registry.inc(id);
            });
            let t0 = self.obs_timer();
            self.step_core(who);
            self.obs_phase(t0, |ph| ph.sched);
        } else {
            // Disabled path: one predictable branch, no clock reads.
            self.step_core(who);
        }
        if !matches!(self.cores[who].state, CoreState::Done) {
            self.runq.push(self.cores[who].clock, who);
        }
        true
    }

    fn step_core(&mut self, who: usize) {
        // A pending abort always takes priority: the attempt is already
        // dead (its speculative state was torn down at probe time).
        if let Some(cause) = self.cores[who].abort_pending.take() {
            if let CoreState::InTx { attempt, .. } =
                std::mem::replace(&mut self.cores[who].state, CoreState::Idle)
            {
                self.after_abort(who, cause, attempt);
            }
            return;
        }

        match std::mem::replace(&mut self.cores[who].state, CoreState::Idle) {
            CoreState::Idle => self.dispatch_next_item(who),
            CoreState::InTx { attempt, pc } => self.step_tx(who, attempt, pc),
            // Unlike Compute, the Backoff arm keeps its own turn: it is not
            // a pure clock bump — it re-enters `InTx`, and the cycle at
            // which that happens relative to equal-clock cores decides who
            // a fallback-lock acquisition or a probe can abort. Fusing it
            // into `after_abort` would change those races (and outcomes).
            CoreState::Backoff { until, attempt } => {
                self.cores[who].clock = self.cores[who].clock.max(until);
                self.stats.on_attempt();
                self.monitor.note_attempt(who);
                let (cycle, retry) = (self.cores[who].clock, self.cores[who].consec_aborts);
                self.emit(TraceEvent::TxBegin { core: who, cycle, retry });
                self.obs_with(|o| {
                    o.registry.inc(o.c.tx_begins);
                    o.registry.inc(o.c.tx_retries);
                });
                self.cores[who].state = CoreState::InTx { attempt, pc: 0 };
            }
            CoreState::AwaitLock { attempt } => {
                if self.fallback_owner.is_none() {
                    self.acquire_fallback(who);
                    self.cores[who].state = CoreState::Fallback { attempt, pc: 0 };
                } else {
                    // Spin; re-check in a little while.
                    self.cores[who].clock += 64;
                    self.cores[who].state = CoreState::AwaitLock { attempt };
                }
            }
            CoreState::Fallback { attempt, pc } => self.step_fallback(who, attempt, pc),
            CoreState::Plain { ops, pc } => self.step_plain(who, ops, pc),
            CoreState::Done => unreachable!("done cores are never scheduled"),
        }
    }

    fn dispatch_next_item(&mut self, who: usize) {
        let item = match self.cores[who].pending.take() {
            Some(it) => Some(it),
            None => self.cores[who].program.next_item(),
        };
        match item {
            None => self.cores[who].state = CoreState::Done,
            Some(WorkItem::Compute { cycles }) => {
                // Local compute has no shared-state interaction: advance the
                // clock here and stay `Idle`. The scheduler re-queues this
                // core at the finish cycle, so the *next* item is still
                // dispatched at exactly the cycle (and queue position) the
                // old dedicated-Compute-turn code dispatched it.
                self.cores[who].clock += cycles;
            }
            Some(WorkItem::Plain(ops)) => {
                self.cores[who].state = CoreState::Plain { ops, pc: 0 };
            }
            Some(WorkItem::Tx(attempt)) => {
                // Transactions subscribe to the fallback lock: they cannot
                // start while it is held.
                if self.fallback_owner.is_some() {
                    self.cores[who].clock += 64;
                    self.cores[who].pending = Some(WorkItem::Tx(attempt));
                    return;
                }
                let now = self.cores[who].clock;
                self.stats.on_tx_start(now);
                self.stats.on_attempt();
                self.monitor.note_attempt(who);
                self.emit(TraceEvent::TxBegin { core: who, cycle: now, retry: 0 });
                self.obs_with(|o| {
                    let id = o.c.tx_begins;
                    o.registry.inc(id);
                });
                self.cores[who].state = CoreState::InTx { attempt, pc: 0 };
            }
        }
    }

    fn step_tx(&mut self, who: usize, attempt: TxAttempt, pc: usize) {
        if pc >= attempt.ops.len() {
            self.commit(who, attempt);
            return;
        }
        // Fault layer: a spurious abort can strike before any operation
        // (ASF's transient-abort class — interrupts, TLB misses, …).
        if self.faults_on && self.cfg.faults.spurious_abort.fires(&mut self.fault_rng) {
            self.stats.faults.spurious_op_aborts += 1;
            self.obs_with(|o| {
                let id = o.c.fault_injections;
                o.registry.inc(id);
            });
            self.teardown_tx(who);
            self.after_abort(who, AbortCause::Spurious, attempt);
            return;
        }
        let op = attempt.ops[pc];
        match self.exec_op(who, op, true) {
            Ok(()) => {
                // The op itself may have triggered a self-abort via a remote
                // probe racing us? No — sequential engine; but capacity/user
                // aborts surface through Err. Continue.
                self.cores[who].state = CoreState::InTx { attempt, pc: pc + 1 };
            }
            Err(cause) => {
                // Self-detected abort: tear down speculative state now.
                self.teardown_tx(who);
                self.after_abort(who, cause, attempt);
            }
        }
    }

    fn step_fallback(&mut self, who: usize, attempt: TxAttempt, pc: usize) {
        if pc >= attempt.ops.len() {
            self.fallback_owner = None;
            let cycle = self.cores[who].clock;
            self.emit(TraceEvent::FallbackRelease { core: who, cycle });
            self.stats.on_commit();
            self.monitor.note_commit(who, self.steps);
            self.stats.fallback_commits += 1;
            self.obs_with(|o| {
                let id = o.c.fallback_commits;
                o.registry.inc(id);
            });
            self.stats.on_final_retries(self.cores[who].consec_aborts);
            self.cores[who].consec_aborts = 0;
            self.cores[who].backoff.on_commit();
            self.cores[who].state = CoreState::Idle;
            return;
        }
        let op = attempt.ops[pc];
        // Non-transactional execution: UserAbort is a no-op here (the
        // fallback path of a user-abortable region simply runs it).
        let op = match op {
            TxOp::UserAbort { .. } => TxOp::Compute { cycles: 1 },
            other => other,
        };
        self.exec_op(who, op, false).expect("non-tx ops cannot abort");
        self.cores[who].state = CoreState::Fallback { attempt, pc: pc + 1 };
    }

    fn step_plain(&mut self, who: usize, ops: Vec<TxOp>, pc: usize) {
        if pc >= ops.len() {
            self.cores[who].state = CoreState::Idle;
            return;
        }
        let op = match ops[pc] {
            TxOp::UserAbort { .. } => TxOp::Compute { cycles: 1 },
            other => other,
        };
        self.exec_op(who, op, false).expect("non-tx ops cannot abort");
        self.cores[who].state = CoreState::Plain { ops, pc: pc + 1 };
    }

    fn acquire_fallback(&mut self, who: usize) {
        let cycle = self.cores[who].clock;
        self.emit(TraceEvent::FallbackAcquire { core: who, cycle });
        self.obs_with(|o| {
            let id = o.c.fallback_acquires;
            o.registry.inc(id);
        });
        self.fallback_owner = Some(who);
        // Writing the lock word aborts every subscribed (running) txn.
        for v in 0..self.cores.len() {
            if v != who && self.cores[v].in_running_tx() {
                self.abort_victim(v, AbortCause::LockFallback);
            }
        }
    }

    // ------------------------------------------------------------------
    // Commit / abort machinery
    // ------------------------------------------------------------------

    fn commit(&mut self, who: usize, attempt: TxAttempt) {
        let t0 = self.obs_timer();
        // DPTM mode: validate speculated reads before committing.
        if self.cfg.war_speculation && self.cores[who].needs_validation {
            let stale = {
                let core = &self.cores[who];
                // `any` over distinct addresses: iteration order (the log's
                // first-write order vs. the old map order) cannot change
                // the verdict.
                core.read_log.iter().any(|(addr, logged)| {
                    !core.writeset.overlaps(Addr(addr), 1)
                        && (self.memory.read_u64(Addr(addr), 1) & 0xff) as u8 != logged
                })
            };
            if stale {
                self.teardown_tx(who);
                self.after_abort(who, AbortCause::Validation, attempt);
                self.obs_phase(t0, |ph| ph.commit);
                return;
            }
        }
        let cycle = self.cores[who].clock;
        self.emit(TraceEvent::TxCommit { core: who, cycle });
        self.cores[who].writeset.publish(&mut self.memory);
        if self.epoch_on {
            self.log_commit_footprint(who, cycle);
        }
        self.clear_spec_state(who, false);
        self.monitor.note_commit(who, self.steps);
        let core = &mut self.cores[who];
        core.backoff.on_commit();
        self.stats.on_commit();
        self.stats.on_final_retries(core.consec_aborts);
        core.consec_aborts = 0;
        core.state = CoreState::Idle;
        // Commit is a local gang-clear; charge a small fixed cost.
        core.clock += 3;
        self.obs_with(|o| {
            let id = o.c.tx_commits;
            o.registry.inc(id);
        });
        self.obs_phase(t0, |ph| ph.commit);
    }

    /// Record the committing attempt's written lines into the epoch outbox
    /// (shard mode only). The write footprint is exactly the speculative
    /// write masks `clear_spec_state` is about to retire — captured here,
    /// one entry per written line, so the shard barrier can route it to
    /// other clusters as external probes. Pure logging: no stats, no
    /// clocks, no RNG.
    fn log_commit_footprint(&mut self, who: usize, cycle: u64) {
        let n = self.cores.len();
        let start = self.epoch.commit_lines.len();
        for i in 0..self.cores[who].caches.spec_lines.len() {
            let (line, lid) = self.cores[who].caches.spec_lines[i];
            let (_r, w) = self.spec_masks[lid as usize * n + who];
            if w != 0 {
                self.epoch.commit_lines.push((line, w));
            }
        }
        let len = self.epoch.commit_lines.len() - start;
        if len != 0 {
            self.epoch.commits.push(CommitRecord { cycle, core: who, start, len });
        }
    }

    /// Tear down the speculative state of `who`'s running attempt (used for
    /// both remote-probe aborts and self-detected aborts).
    fn teardown_tx(&mut self, who: usize) {
        self.cores[who].writeset.discard();
        self.clear_spec_state(who, true);
    }

    /// End-of-attempt speculative-state teardown, shared by commit and
    /// abort: O(1) logical clears of the generation-tagged read log,
    /// signatures, and write set (done by the callers / here), plus one
    /// O(|own spec lines|) walk that simultaneously clears the L1 records,
    /// drains the retained table, retires this core's spec-directory
    /// columns, and feeds the residency index — every buffer involved is
    /// pooled across attempts.
    fn clear_spec_state(&mut self, who: usize, invalidate_written: bool) {
        let t0 = self.obs_timer();
        let mut lines = std::mem::take(&mut self.cores[who].caches.spec_lines);
        let mut dropped = self.arena.checkout_dropped();
        self.obs_with(|o| {
            o.registry.inc(o.c.teardown_walks);
            o.registry.add(o.c.teardown_lines, lines.len() as u64);
        });
        for &(line, lid) in &lines {
            self.spec_dir_clear(lid, who);
            self.cores[who]
                .caches
                .clear_spec_line(line, lid, invalidate_written, &mut dropped);
        }
        debug_assert!(
            self.cores[who].caches.retained.is_empty(),
            "retained entries must all be tracked spec lines"
        );
        lines.clear();
        self.cores[who].caches.spec_lines = lines;
        let core = &mut self.cores[who];
        if let Some(sig) = core.read_sig.as_mut() {
            sig.clear();
        }
        if let Some(sig) = core.write_sig.as_mut() {
            sig.clear();
        }
        core.read_log.clear();
        core.needs_validation = false;
        for &(line, lid) in &dropped {
            self.res_drop_if_absent(line, lid, who);
        }
        self.arena.checkin_dropped(dropped);
        self.obs_phase(t0, |ph| ph.teardown);
    }

    /// Abort a remote victim at probe time.
    fn abort_victim(&mut self, victim: usize, cause: AbortCause) {
        self.teardown_tx(victim);
        self.cores[victim].abort_pending = Some(cause);
    }

    /// Book-keeping after an abort: backoff or fall back to the lock.
    fn after_abort(&mut self, who: usize, cause: AbortCause, attempt: TxAttempt) {
        self.stats.on_abort(cause);
        let cycle = self.cores[who].clock;
        self.emit(TraceEvent::TxAbort { core: who, cycle, cause });
        self.obs_with(|o| {
            let id = o.abort_counter(cause);
            o.registry.inc(id);
            o.registry.bump(o.g.aborts, cycle);
        });
        self.monitor.note_abort(who);
        let core = &mut self.cores[who];
        // Saturating: with `max_retries = u32::MAX` (a deliberate
        // no-fallback configuration used by the livelock tests) the streak
        // would otherwise overflow long before the watchdog fires.
        core.consec_aborts = core.consec_aborts.saturating_add(1);
        if core.consec_aborts > self.cfg.max_retries {
            core.state = CoreState::AwaitLock { attempt };
            return;
        }
        let delay = core.backoff.on_abort(&mut core.rng);
        self.stats.backoff_cycles += delay;
        core.state = CoreState::Backoff { until: core.clock + delay, attempt };
    }

    // ------------------------------------------------------------------
    // Memory operations
    // ------------------------------------------------------------------

    /// Execute one op for `who`. `transactional` selects speculative
    /// bookkeeping. Returns `Err(cause)` for self-detected aborts.
    fn exec_op(&mut self, who: usize, op: TxOp, transactional: bool) -> Result<(), AbortCause> {
        match op {
            TxOp::Compute { cycles } => {
                self.cores[who].clock += cycles;
                Ok(())
            }
            TxOp::WaitUntil { cycle } => {
                let c = &mut self.cores[who];
                c.clock = c.clock.max(cycle);
                Ok(())
            }
            TxOp::UserAbort { num, den } => {
                debug_assert!(transactional, "UserAbort outside tx is filtered by callers");
                if self.cores[who].rng.chance(num as u64, den as u64) {
                    Err(AbortCause::User)
                } else {
                    Ok(())
                }
            }
            TxOp::Read { addr, size } => {
                self.access(who, Access::read(addr, size), transactional)?;
                if transactional {
                    self.isolation_check(who, addr, size);
                    self.log_read(who, addr, size);
                }
                Ok(())
            }
            TxOp::Write { addr, size, value } => {
                self.access(who, Access::write(addr, size), transactional)?;
                if transactional {
                    self.cores[who].writeset.write_u64(addr, size, value);
                } else {
                    self.memory.write_u64(addr, size, value);
                }
                Ok(())
            }
            TxOp::Update { addr, size, delta } => {
                self.access(who, Access::read(addr, size), transactional)?;
                if transactional {
                    self.isolation_check(who, addr, size);
                    self.log_read(who, addr, size);
                }
                self.access(who, Access::write(addr, size), transactional)?;
                if transactional {
                    let v = self.cores[who].writeset.read_u64(&self.memory, addr, size);
                    self.cores[who]
                        .writeset
                        .write_u64(addr, size, v.wrapping_add(delta));
                } else {
                    let v = self.memory.read_u64(addr, size);
                    self.memory.write_u64(addr, size, v.wrapping_add(delta));
                }
                Ok(())
            }
        }
    }

    /// DPTM mode: log the byte values a transactional read observed (own
    /// write-set bytes take precedence, as the hardware forwards them).
    fn log_read(&mut self, who: usize, addr: Addr, size: u32) {
        if !self.cfg.war_speculation {
            return;
        }
        for i in 0..size as u64 {
            let a = Addr(addr.0 + i);
            let byte = if self.cores[who].writeset.overlaps(a, 1) {
                (self.cores[who].writeset.read_u64(&self.memory, a, 1) & 0xff) as u8
            } else {
                (self.memory.read_u64(a, 1) & 0xff) as u8
            };
            self.cores[who].read_log.record(a.0, byte);
        }
    }

    /// The isolation oracle: a transactional read overlapping a live remote
    /// write set means a conflict went undetected (Figure 6 hazard).
    ///
    /// Under DPTM-style WAR speculation the invariant is intentionally
    /// relaxed (reads may overlap remote writes and validate later), so the
    /// oracle is disabled in that mode.
    fn isolation_check(&mut self, who: usize, addr: Addr, size: u32) {
        if self.cfg.war_speculation {
            return;
        }
        for v in 0..self.cores.len() {
            if v != who
                && self.cores[v].in_running_tx()
                && self.cores[v].writeset.overlaps(addr, size)
            {
                self.stats.isolation_violations += 1;
            }
        }
    }

    /// Perform a (possibly multi-line) access, charging latency and doing
    /// all coherence + HTM work per line fragment.
    fn access(&mut self, who: usize, acc: Access, transactional: bool) -> Result<(), AbortCause> {
        for (line, off, len) in acc.line_fragments() {
            let mask = AccessMask::from_range(off, len);
            let latency = self.access_line(who, line, mask, acc.is_write, transactional)?;
            let jitter = if self.cfg.latency_jitter > 0 {
                self.cores[who].rng.below(self.cfg.latency_jitter + 1)
            } else {
                0
            };
            self.cores[who].clock += latency + jitter;
            if transactional {
                self.stats.on_access(off, len);
            }
        }
        Ok(())
    }

    /// One line-fragment access. Returns the charged latency.
    fn access_line(
        &mut self,
        who: usize,
        line: LineAddr,
        mask: AccessMask,
        is_write: bool,
        transactional: bool,
    ) -> Result<u64, AbortCause> {
        let lat = self.cfg.machine.latency;
        let probe_kind = ProbeKind::for_access(is_write);
        let lid = self.intern_line(line);

        // Classify the local L1 state. Classification deliberately uses
        // `peek` (no LRU touch): a miss-classified access must leave the
        // replacement order exactly as the probe path expects to find it.
        let (present, readable, writable, dirty_hit) = {
            let core = &self.cores[who];
            match core.caches.l1.peek(line) {
                Some(meta) => (
                    true,
                    meta.moesi.readable(),
                    meta.moesi.writable(),
                    transactional
                        && self.cfg.enable_dirty
                        && meta.spec.hits_dirty(mask),
                ),
                None => (false, false, false, false),
            }
        };

        // Fast path: plain L1 hit with sufficient permission and no dirty
        // bytes under a transactional access. Spec marking is inlined on
        // the same `get` borrow (one LRU-touching set scan, not two).
        let plain_hit = present && !dirty_hit && if is_write { writable } else { readable };
        if plain_hit {
            self.stats.l1_hits += 1;
            let core = &mut self.cores[who];
            let meta = core.caches.l1.get(line).expect("present line");
            if is_write {
                meta.moesi = meta.moesi.after_local_write();
            }
            if transactional {
                let was_spec = meta.spec.is_speculative();
                let grows;
                if is_write {
                    grows = mask.0 & !meta.spec.write_mask.0 != 0;
                    meta.spec.mark_write(mask);
                    if let Some(sig) = core.write_sig.as_mut() {
                        sig.insert(line);
                    }
                } else {
                    grows = mask.0 & !meta.spec.read_mask.0 != 0;
                    meta.spec.mark_read(mask);
                    if let Some(sig) = core.read_sig.as_mut() {
                        sig.insert(line);
                    }
                }
                if !was_spec {
                    core.caches.note_spec_line(line, lid);
                }
                if grows {
                    self.spec_dir_mark(lid, who, mask, is_write);
                }
                if self.epoch_on && !was_spec {
                    self.announce_spec_line(line, lid);
                }
            }
            return Ok(lat.l1);
        }

        // Everything else broadcasts a probe.
        self.stats.l1_misses += 1;
        if dirty_hit {
            self.stats.dirty_refetches += 1;
            let cycle = self.cores[who].clock;
            self.emit(TraceEvent::DirtyRefetch { core: who, cycle, line });
        }

        // Victim-wins ablation: if the probe would conflict, the requester
        // aborts itself instead (the probe is NACKed before mutating any
        // remote state).
        if transactional && self.cfg.resolution == ResolutionPolicy::VictimWins {
            if let Some(cause) = self.victim_wins_check(who, line, lid, mask, probe_kind) {
                return Err(cause);
            }
        }

        let summary = self.probe_others(who, line, lid, mask, probe_kind);

        // Upgrade: line present & readable, we needed write permission.
        let upgrade = present && readable && is_write && !dirty_hit;

        // Pick the data source / latency.
        let level = if upgrade {
            // Permission-only transaction; data already local.
            AccessLevel::RemoteCache
        } else if summary.owner_supplied {
            AccessLevel::RemoteCache
        } else {
            self.cores[who]
                .caches
                .local_fill_level(line)
                .unwrap_or(AccessLevel::Memory)
        };

        // Install / update the line.
        if present {
            // Upgrade or dirty refetch: line stays resident.
            let enable_dirty = self.cfg.enable_dirty;
            let core = &mut self.cores[who];
            let meta = core.caches.l1.get(line).expect("present line");
            meta.moesi = MoesiState::install_for(is_write, summary.others_had_copy);
            if transactional && enable_dirty {
                meta.spec.mark_dirty(summary.piggyback);
            }
            if dirty_hit {
                meta.spec.clear_dirty(mask);
            }
            if transactional && enable_dirty && summary.piggyback.any() {
                self.emit(TraceEvent::DirtyMark { core: who, line, mask: summary.piggyback });
            }
        } else {
            // Fault layer: capacity-pressure spikes temporarily pin this
            // core's L1 ways — transactional fills inside the window take
            // ordinary capacity aborts, as if unrelated data occupied the
            // set. Checked before any cache mutation so the abort path is
            // byte-for-byte the one a real pinned set produces.
            if self.faults_on && transactional {
                if let Some(cause) = self.capacity_spike_check(who) {
                    return Err(cause);
                }
            }
            // Miss: fill from `level` and insert. The outer-level fill can
            // silently evict lines from L2/L3; the residency index hears
            // about both the fill and those evictions.
            let (ev2, ev3) = self.cores[who].caches.fill_outer(line);
            self.res_add(lid, who);
            if let Some(e) = ev2 {
                let elid = self.intern_line(e);
                self.res_drop_if_absent(e, elid, who);
            }
            if let Some(e) = ev3 {
                let elid = self.intern_line(e);
                self.res_drop_if_absent(e, elid, who);
            }
            let retained = self.cores[who].caches.retained.remove(&line);
            if retained.is_some() {
                self.obs_with(|o| {
                    let id = o.c.retained_folds;
                    o.registry.inc(id);
                });
            }
            let mut spec = retained.unwrap_or(SpecState::EMPTY);
            if transactional && self.cfg.enable_dirty {
                spec.mark_dirty(summary.piggyback);
            }
            // The probe just fetched coherent data for the accessed bytes:
            // any retained dirty marking they carried is now stale (a live
            // conflicting writer would have been aborted by this probe).
            spec.clear_dirty(mask);
            let meta = LineMeta {
                moesi: MoesiState::install_for(is_write, summary.others_had_copy),
                spec,
            };
            // LogTM-style signatures decouple conflict state from the cache:
            // speculative lines need not be pinned and eviction is legal.
            let sig_mode = self.cfg.signatures.is_some();
            let inserted = self.cores[who].caches.l1.insert(line, meta, |m: &LineMeta| {
                !sig_mode && m.spec.is_speculative()
            });
            match inserted {
                Ok(Some(evicted)) => {
                    // Keep the oracle's byte-exact record for evicted
                    // speculative lines (signatures still detect them).
                    // The line is already on the spec-line list (it was
                    // marked by this attempt) and its live+retained union —
                    // hence its directory column — is unchanged.
                    if sig_mode && evicted.meta.spec.is_speculative() {
                        self.cores[who]
                            .caches
                            .retained
                            .entry(evicted.line)
                            .or_insert(SpecState::EMPTY)
                            .merge(&evicted.meta.spec);
                    }
                    // An L1-evicted line usually survives in L2/L3 (or just
                    // moved to `retained`); only a full departure clears it.
                    let elid = self.intern_line(evicted.line);
                    self.res_drop_if_absent(evicted.line, elid, who);
                }
                Ok(None) => {}
                Err(_full) => {
                    // Every way pinned by speculative lines: capacity abort.
                    debug_assert!(transactional, "non-tx access hit a fully pinned set");
                    return Err(AbortCause::Capacity);
                }
            }
            if transactional && self.cfg.enable_dirty && summary.piggyback.any() {
                self.emit(TraceEvent::DirtyMark { core: who, line, mask: summary.piggyback });
            }
        }

        if transactional {
            self.mark_spec(who, line, lid, mask, is_write);
        }
        self.dir_add(lid, who);

        // Fault layer: a delayed coherence response stretches this access
        // by a fixed penalty (the probe already went out; only its answer
        // is late).
        let mut delay = 0;
        if self.faults_on && self.cfg.faults.delayed_probe.fires(&mut self.fault_rng) {
            delay = self.cfg.faults.delay_cycles;
            self.stats.faults.delayed_probes += 1;
            self.stats.faults.delay_cycles += delay;
            self.obs_with(|o| {
                let id = o.c.fault_injections;
                o.registry.inc(id);
            });
        }
        Ok(lat.for_level(level) + delay)
    }

    /// Capacity-spike bookkeeping for one transactional fill: inside an
    /// open window every fill aborts; outside, the spike rate may open a
    /// new window (whose triggering fill aborts too).
    fn capacity_spike_check(&mut self, who: usize) -> Option<AbortCause> {
        let now = self.cores[who].clock;
        if now < self.spike_until[who] {
            self.stats.faults.capacity_spike_aborts += 1;
            self.obs_with(|o| {
                let id = o.c.fault_injections;
                o.registry.inc(id);
            });
            return Some(AbortCause::Capacity);
        }
        if self.cfg.faults.capacity_spike.fires(&mut self.fault_rng) {
            self.spike_until[who] = now + self.cfg.faults.spike_cycles;
            self.stats.faults.capacity_spikes += 1;
            self.stats.faults.capacity_spike_aborts += 1;
            self.obs_with(|o| {
                let id = o.c.fault_injections;
                o.registry.inc(id);
            });
            return Some(AbortCause::Capacity);
        }
        None
    }

    /// Record speculative access bits on a resident line, keeping the
    /// spec-line list (pushed exactly once, on the line's empty→speculative
    /// transition) and the speculative-state directory (updated only when
    /// the live mask actually grows — covered bits are already in the
    /// directory's live+retained union) in sync.
    fn mark_spec(&mut self, who: usize, line: LineAddr, lid: LineId, mask: AccessMask, is_write: bool) {
        let core = &mut self.cores[who];
        let meta = core
            .caches
            .l1
            .peek_mut(line)
            .expect("spec marking requires a resident line");
        let was_spec = meta.spec.is_speculative();
        let grows;
        if is_write {
            grows = mask.0 & !meta.spec.write_mask.0 != 0;
            meta.spec.mark_write(mask);
            if let Some(sig) = core.write_sig.as_mut() {
                sig.insert(line);
            }
        } else {
            grows = mask.0 & !meta.spec.read_mask.0 != 0;
            meta.spec.mark_read(mask);
            if let Some(sig) = core.read_sig.as_mut() {
                sig.insert(line);
            }
        }
        if !was_spec {
            // A freshly-speculative line cannot already be tracked: a line
            // re-fetched with retained state folds that state back into the
            // live mask before marking, so `was_spec` is true for it.
            core.caches.note_spec_line(line, lid);
        }
        if grows {
            self.spec_dir_mark(lid, who, mask, is_write);
        }
        if self.epoch_on && !was_spec {
            self.announce_spec_line(line, lid);
        }
    }

    /// Log `line` for the inter-cluster directory the first time it ever
    /// gains speculative state here; later transactions find its sharer
    /// bit already set.
    #[inline]
    fn announce_spec_line(&mut self, line: LineAddr, lid: LineId) {
        if !self.announced[lid as usize] {
            self.announced[lid as usize] = true;
            self.epoch.spec_touched.push(line);
        }
    }

    /// Victim-wins pre-scan: would this probe conflict with any remote
    /// transaction? If so, record the conflict and return the cause the
    /// *requester* must abort with; no remote state is touched.
    fn victim_wins_check(
        &mut self,
        who: usize,
        line: LineAddr,
        lid: LineId,
        mask: AccessMask,
        kind: ProbeKind,
    ) -> Option<AbortCause> {
        let now = self.cores[who].clock;
        let detector = self.effective_detector(lid);
        let vspec = self.snapshot_victim_spec(who, line, lid);
        for &(v, merged) in &vspec {
            if !self.cores[v].in_running_tx() {
                continue;
            }
            if let ProbeOutcome::Conflict { kind: ck, is_true } =
                detector.check_probe(&merged, kind, mask)
            {
                self.stats.on_conflict(ck, is_true, now, line);
                self.obs_conflict(now, is_true);
                if !is_true {
                    self.heat_line(lid);
                }
                self.emit(TraceEvent::Conflict {
                    requester: who,
                    victim: v,
                    line,
                    kind: ck,
                    is_true,
                });
                self.arena.checkin_vspec(vspec);
                return Some(AbortCause::Conflict { kind: ck, is_true });
            }
        }
        self.arena.checkin_vspec(vspec);
        None
    }

    /// Snapshot, in ascending core order, every other core's merged
    /// (live + retained) speculative state for `line` — the per-probe
    /// victim view the conflict checks run against.
    ///
    /// Default: **one** spec-directory lookup plus bit ops; the directory
    /// column *is* the live+retained union, byte-exact, with dirty bits
    /// excluded (they are local-only and ignored by `check_probe` and the
    /// `is_true` oracle). Under `exhaustive_spec_walk`: the pre-directory
    /// behaviour — walk each candidate target's L1 and retained table.
    /// Both paths produce identical snapshots; equivalence tests prove it.
    ///
    /// Snapshotting *before* the probe loop is also what makes mid-loop
    /// victim teardown sound: `abort_victim` mutates the directory, but
    /// each victim's state is read before any abort this probe causes, and
    /// a victim's teardown never alters another core's masks.
    fn snapshot_victim_spec(
        &mut self,
        who: usize,
        line: LineAddr,
        lid: LineId,
    ) -> Vec<(usize, SpecState)> {
        let mut out = self.arena.checkout_vspec();
        if !self.cfg.exhaustive_spec_walk {
            let row = self.spec_cores[lid as usize];
            let dir_hit = row != 0;
            let n = self.cores.len();
            let mut bits = row & !(1 << who);
            while bits != 0 {
                let v = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let (r, w) = self.spec_masks[lid as usize * n + v];
                out.push((
                    v,
                    SpecState {
                        read_mask: AccessMask(r),
                        write_mask: AccessMask(w),
                        dirty_mask: AccessMask::EMPTY,
                    },
                ));
            }
            self.obs_with(|o| {
                let id = if dir_hit { o.c.specdir_hits } else { o.c.specdir_misses };
                o.registry.inc(id);
            });
        } else {
            let mut targets = self.probe_target_bits(who, lid);
            while targets != 0 {
                let v = targets.trailing_zeros() as usize;
                targets &= targets - 1;
                let mut merged = self.cores[v]
                    .caches
                    .l1
                    .peek(line)
                    .map(|m| m.spec)
                    .unwrap_or(SpecState::EMPTY);
                if let Some(ret) = self.cores[v].caches.retained.get(&line) {
                    merged.merge(ret);
                }
                if merged.is_speculative() {
                    // Strip dirty bits so both paths yield identical
                    // snapshots; no conflict check reads them.
                    merged.dirty_mask = AccessMask::EMPTY;
                    out.push((v, merged));
                }
            }
        }
        out
    }

    /// Broadcast a probe for `line`/`mask` from `who` to all other cores:
    /// conflict-check live and retained speculative state, update remote
    /// MOESI, collect piggy-back bits and data-source information.
    ///
    /// Conflict resolution runs in one of three modes:
    ///
    /// * **Batched** (the default): a read-only *verdict pass* joins the
    ///   probe's pre-coarsened mask against every candidate victim's raw
    ///   masks straight out of the spec-directory row — one AND per victim,
    ///   no per-victim snapshot structs — then an *apply pass* walks the
    ///   targets in the same ascending core order, applying verdicts and
    ///   coherence updates. Equivalent to the sequential path because the
    ///   checks are read-only and per-victim independent: aborting victim
    ///   `a` only clears `a`'s own directory column and running-tx status,
    ///   and each victim is visited exactly once, so the state any victim's
    ///   check reads is identical in both orders (fault-RNG draws stay in
    ///   the apply pass, in the original per-victim order).
    /// * **Sequential** (`sequential_probe_resolution` or
    ///   `exhaustive_spec_walk`): the pre-batching code path — snapshot the
    ///   victims' merged state, then check and apply victim-by-victim.
    ///   The A/B fence for the batched pass.
    /// * **Signature**: Bloom-filter membership per victim; inherently
    ///   per-victim, so it always runs on the snapshot path.
    fn probe_others(
        &mut self,
        who: usize,
        line: LineAddr,
        lid: LineId,
        mask: AccessMask,
        kind: ProbeKind,
    ) -> ProbeSummary {
        self.stats.probes += 1;
        let t0 = self.obs_timer();
        let obs_on = self.obs_on;
        let now = self.cores[who].clock;
        self.emit(TraceEvent::Probe {
            core: who,
            cycle: now,
            line,
            mask,
            invalidating: kind.invalidates(),
        });
        // Periodic (debug builds) or per-probe (`verify`) fence: a missing
        // residency bit would silently skip a conflict check and a stale
        // directory column would mis-classify one, so divergence must fail
        // loudly here, not as wrong results downstream.
        if self.cfg.verify || (cfg!(debug_assertions) && self.stats.probes.is_multiple_of(64)) {
            self.crosscheck_residency(line, lid);
            self.crosscheck_spec_dir(line, lid);
        }
        let detector = self.effective_detector(lid);
        let mut summary = ProbeSummary::default();
        let use_snapshot = self.cfg.signatures.is_some()
            || self.cfg.sequential_probe_resolution
            || self.cfg.exhaustive_spec_walk;
        let targets_bits = self.probe_target_bits(who, lid);
        self.stats.probe_targets += self.accounted_probe_targets(who, lid);
        // Victim speculative state for the snapshot modes, resolved once
        // per probe; ascending by core id, like the target walk, so a
        // cursor pairs them up. Batched mode leaves it empty.
        let vspec = if use_snapshot {
            self.snapshot_victim_spec(who, line, lid)
        } else {
            self.arena.checkout_vspec()
        };
        // Batched verdict pass: read-only, so running it before any abort
        // is applied sees exactly the state the sequential loop would.
        let mut verdicts = self.arena.checkout_verdicts();
        if !use_snapshot {
            let row = self.spec_cores[lid as usize];
            let n = self.cores.len();
            let probe_coarse = detector.coarsen(mask).0;
            let mut bits = row & targets_bits;
            while bits != 0 {
                let v = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                if !self.cores[v].in_running_tx() {
                    continue;
                }
                let (r, w) = self.spec_masks[lid as usize * n + v];
                verdicts.push((v, detector.check_probe_masks(r, w, kind, mask, probe_coarse)));
            }
            // Same per-probe hit/miss accounting the snapshot path records.
            self.obs_with(|o| {
                let id = if row != 0 { o.c.specdir_hits } else { o.c.specdir_misses };
                o.registry.inc(id);
            });
        }
        let mut cursor = 0;
        let mut retained_mask: u64 = 0;
        // Coherence/retention tallies accumulate locally while `meta`
        // borrows the victim's cache, then fold into the registry once
        // after the loop.
        let (mut obs_downgrades, mut obs_invalidations, mut obs_saves) = (0u64, 0u64, 0u64);

        let mut walk = targets_bits;
        while walk != 0 {
            let v = walk.trailing_zeros() as usize;
            walk &= walk - 1;

            // --- Conflict detection / verdict application ----------------
            if !use_snapshot {
                while cursor < verdicts.len() && verdicts[cursor].0 < v {
                    cursor += 1;
                }
                if cursor < verdicts.len() && verdicts[cursor].0 == v {
                    debug_assert!(
                        self.cores[v].in_running_tx(),
                        "verdict for a core no longer transactional"
                    );
                    match verdicts[cursor].1 {
                        ProbeOutcome::Conflict { kind: ck, is_true }
                            if self.cfg.war_speculation
                                && ck == asf_core::detector::ConflictType::WriteAfterRead =>
                        {
                            // DPTM-style coherence decoupling: the reader
                            // speculates through the invalidation and will
                            // validate its values at commit.
                            self.stats.war_speculations += 1;
                            let _ = is_true;
                            self.cores[v].needs_validation = true;
                        }
                        ProbeOutcome::Conflict { kind: ck, is_true } => {
                            self.stats.on_conflict(ck, is_true, now, line);
                            self.obs_conflict(now, is_true);
                            if !is_true {
                                self.heat_line(lid);
                            }
                            self.emit(TraceEvent::Conflict {
                                requester: who,
                                victim: v,
                                line,
                                kind: ck,
                                is_true,
                            });
                            self.abort_victim(v, AbortCause::Conflict { kind: ck, is_true });
                        }
                        ProbeOutcome::NoConflict { piggyback } => {
                            summary.piggyback |= piggyback;
                        }
                    }
                }
            } else {
                while cursor < vspec.len() && vspec[cursor].0 < v {
                    cursor += 1;
                }
                if self.cores[v].in_running_tx() {
                let merged = if cursor < vspec.len() && vspec[cursor].0 == v {
                    vspec[cursor].1
                } else {
                    SpecState::EMPTY
                };
                if self.cfg.signatures.is_some() {
                    // LogTM-SE style: membership tests against the victim's
                    // Bloom signatures; aliases conflict too.
                    let write_hit = self.cores[v]
                        .write_sig
                        .as_ref()
                        .is_some_and(|sig| sig.maybe_contains(line));
                    let read_hit = self.cores[v]
                        .read_sig
                        .as_ref()
                        .is_some_and(|sig| sig.maybe_contains(line));
                    let fired = match kind {
                        ProbeKind::NonInvalidating => write_hit,
                        ProbeKind::Invalidating => write_hit || read_hit,
                    };
                    if fired {
                        use asf_core::detector::ConflictType as Ct;
                        let true_w = mask.overlaps(merged.write_mask);
                        let true_r = mask.overlaps(merged.read_mask);
                        let (ck, is_true) = match kind {
                            ProbeKind::NonInvalidating => (Ct::ReadAfterWrite, true_w),
                            ProbeKind::Invalidating => {
                                if true_w {
                                    (Ct::WriteAfterWrite, true)
                                } else if true_r {
                                    (Ct::WriteAfterRead, true)
                                } else if write_hit {
                                    (Ct::WriteAfterWrite, false)
                                } else {
                                    (Ct::WriteAfterRead, false)
                                }
                            }
                        };
                        if !merged.is_speculative() {
                            // The victim never touched this line: pure
                            // hash aliasing.
                            self.stats.sig_alias_conflicts += 1;
                        }
                        self.stats.on_conflict(ck, is_true, now, line);
                        self.obs_conflict(now, is_true);
                        if !is_true {
                            self.heat_line(lid);
                        }
                        self.emit(TraceEvent::Conflict {
                            requester: who,
                            victim: v,
                            line,
                            kind: ck,
                            is_true,
                        });
                        self.abort_victim(v, AbortCause::Conflict { kind: ck, is_true });
                    }
                } else if merged.is_speculative() {
                    match detector.check_probe(&merged, kind, mask) {
                        ProbeOutcome::Conflict { kind: ck, is_true }
                            if self.cfg.war_speculation
                                && ck == asf_core::detector::ConflictType::WriteAfterRead =>
                        {
                            // DPTM-style coherence decoupling: the reader
                            // speculates through the invalidation and will
                            // validate its values at commit.
                            self.stats.war_speculations += 1;
                            let _ = is_true;
                            self.cores[v].needs_validation = true;
                        }
                        ProbeOutcome::Conflict { kind: ck, is_true } => {
                            self.stats.on_conflict(ck, is_true, now, line);
                            self.obs_conflict(now, is_true);
                            if !is_true {
                                self.heat_line(lid);
                            }
                            self.emit(TraceEvent::Conflict {
                                requester: who,
                                victim: v,
                                line,
                                kind: ck,
                                is_true,
                            });
                            self.abort_victim(
                                v,
                                AbortCause::Conflict { kind: ck, is_true },
                            );
                        }
                        ProbeOutcome::NoConflict { piggyback } => {
                            summary.piggyback |= piggyback;
                        }
                    }
                }
                }
            }

            // Fault layer: a transient false probe conflict can strike any
            // victim still transactional after the real checks — the probe
            // "detects" a conflict that isn't there and the victim aborts.
            // Modelled exactly like a real probe-time abort (teardown now,
            // cause delivered at the victim's next step) so the coherence
            // updates below see a freshly-aborted core; counted only in
            // FaultStats, never in the paper's conflict taxonomy.
            if self.faults_on
                && self.cores[v].in_running_tx()
                && self.cfg.faults.false_probe_conflict.fires(&mut self.fault_rng)
            {
                self.stats.faults.false_probe_conflicts += 1;
                self.obs_with(|o| {
                    let id = o.c.fault_injections;
                    o.registry.inc(id);
                });
                self.abort_victim(v, AbortCause::Spurious);
            }

            // --- Coherence state updates ---------------------------------
            let survived_spec = self.cores[v].in_running_tx();
            if let Some(meta) = self.cores[v].caches.l1.peek_mut(line) {
                summary.others_had_copy = true;
                if meta.moesi.owns_data() {
                    summary.owner_supplied = true;
                }
                match kind {
                    ProbeKind::NonInvalidating => {
                        let prev = meta.moesi;
                        meta.moesi = meta.moesi.after_remote_read_with(self.cfg.coherence);
                        if obs_on && prev.is_demotion(meta.moesi) {
                            obs_downgrades += 1;
                        }
                    }
                    ProbeKind::Invalidating => {
                        if obs_on {
                            obs_invalidations += 1;
                        }
                        let taken = self.cores[v]
                            .caches
                            .invalidate_all_levels(line)
                            .expect("line was resident");
                        // A surviving transaction keeps its speculative
                        // metadata for later conflict checks (§IV-D-2).
                        // Live→retained preserves the per-(line, core)
                        // union, so the spec directory needs no update, and
                        // the line is already on the victim's spec list.
                        if survived_spec && taken.spec.is_speculative() {
                            self.cores[v]
                                .caches
                                .retained
                                .entry(line)
                                .or_insert(SpecState::EMPTY)
                                .merge(&taken.spec);
                            retained_mask |= 1 << v;
                            obs_saves += 1;
                        }
                        self.res_drop_if_absent(line, lid, v);
                    }
                }
            } else {
                // L2/L3-only copies.
                if self.cores[v].caches.l2.contains(line)
                    || self.cores[v].caches.l3.contains(line)
                {
                    summary.others_had_copy = true;
                    if kind.invalidates() {
                        if obs_on {
                            obs_invalidations += 1;
                        }
                        self.cores[v].caches.l2.remove(line);
                        self.cores[v].caches.l3.remove(line);
                        self.res_drop_if_absent(line, lid, v);
                    }
                }
            }
        }
        let visited = targets_bits.count_ones() as u64;
        self.arena.checkin_verdicts(verdicts);
        self.arena.checkin_vspec(vspec);
        self.obs_with(|o| {
            o.registry.inc(o.c.probe_walks);
            o.registry.add(o.c.probe_cores_visited, visited);
            o.registry.add(o.c.coh_downgrades, obs_downgrades);
            o.registry.add(o.c.coh_invalidations, obs_invalidations);
            o.registry.add(o.c.retained_saves, obs_saves);
        });
        // Directory maintenance (probe filter): after an invalidation only
        // the requester and the retained-metadata holders can matter; a
        // read probe adds the requester as a sharer. Cores that held only
        // retained metadata (no live line) keep mattering, so fold the
        // existing holders of retained state back in.
        if self.cfg.fabric == FabricKind::ProbeFilter {
            match kind {
                ProbeKind::Invalidating => {
                    let mut mask = (1u64 << who) | retained_mask;
                    for (v, core) in self.cores.iter().enumerate() {
                        if v != who && core.caches.retained.contains_key(&line) {
                            mask |= 1 << v;
                        }
                    }
                    self.directory[lid as usize] = mask;
                }
                ProbeKind::NonInvalidating => {
                    self.directory[lid as usize] |= 1 << who;
                }
            }
        }
        self.obs_phase(t0, |ph| ph.probe);
        summary
    }

    /// Current cycle of a core (test hook).
    pub fn core_clock(&self, core: CoreId) -> u64 {
        self.cores[core.0].clock
    }

    /// Cross-check the residency index for one line against the ground
    /// truth in every core's hierarchy. A missing bit (unsound: a probe
    /// would skip a core that matters) or a stale bit (the index rotted and
    /// stopped being exact) both panic with a description.
    fn crosscheck_residency(&self, line: LineAddr, lid: LineId) {
        let bits = self.residency[lid as usize];
        for (v, core) in self.cores.iter().enumerate() {
            let truth = core.caches.holds(line);
            let indexed = bits & (1 << v) != 0;
            assert_eq!(
                indexed,
                truth,
                "residency index diverged for line {:#x} on core {v}: \
                 index says {indexed}, caches say {truth}",
                line.base().0
            );
        }
    }

    /// Cross-check one line's speculative-state directory entry against the
    /// ground truth (live L1 metadata merged with the retained table) for
    /// every core. The directory must be *exact* — equal to the union, not
    /// merely a superset — or conflict classification could drift.
    fn crosscheck_spec_dir(&self, line: LineAddr, lid: LineId) {
        let row = self.spec_cores[lid as usize];
        let n = self.cores.len();
        for (v, core) in self.cores.iter().enumerate() {
            let mut truth = core
                .caches
                .l1
                .peek(line)
                .map(|m| m.spec)
                .unwrap_or(SpecState::EMPTY);
            if let Some(ret) = core.caches.retained.get(&line) {
                truth.merge(ret);
            }
            let (r, w) = self.spec_masks[lid as usize * n + v];
            let listed = row & (1 << v) != 0;
            assert_eq!(
                (r, w),
                (truth.read_mask.0, truth.write_mask.0),
                "spec directory diverged for line {:#x} on core {v}: \
                 directory says ({r:#x}, {w:#x}), caches say ({:#x}, {:#x})",
                line.base().0,
                truth.read_mask.0,
                truth.write_mask.0
            );
            assert_eq!(
                listed,
                truth.is_speculative(),
                "spec directory core-bit diverged for line {:#x} on core {v}",
                line.base().0
            );
        }
    }

    /// Exhaustively verify the speculative-state directory against every
    /// core's live and retained metadata (test/debug hook mirroring
    /// [`Self::verify_residency_index`]). Checks both directions — every
    /// speculative (line, core) is listed with exactly the union mask
    /// (soundness: a probe must see every victim's full state) and every
    /// listed column is backed by real state (exactness: stale columns
    /// would fabricate conflicts) — plus the spec-line-list invariant the
    /// teardown walk relies on: every line carrying state appears on its
    /// core's tracked list exactly once.
    pub fn verify_spec_directory_index(&self) -> Result<(), String> {
        use std::collections::HashSet;
        let n = self.cores.len();
        let mut lines: HashSet<LineAddr> = self
            .intern
            .iter()
            .filter(|&(lid, _)| self.spec_cores[lid as usize] != 0)
            .map(|(_, l)| l)
            .collect();
        for core in &self.cores {
            lines.extend(core.caches.spec_lines.iter().map(|&(l, _)| l));
            lines.extend(core.caches.retained.keys().copied());
            lines.extend(
                core.caches
                    .l1
                    .iter()
                    .filter(|(_, m)| m.spec.is_speculative())
                    .map(|(l, _)| l),
            );
        }
        for &line in &lines {
            let lid = self.intern.get(line);
            for (v, core) in self.cores.iter().enumerate() {
                let mut truth = core
                    .caches
                    .l1
                    .peek(line)
                    .map(|m| m.spec)
                    .unwrap_or(SpecState::EMPTY);
                if let Some(ret) = core.caches.retained.get(&line) {
                    truth.merge(ret);
                }
                let (r, w) = lid
                    .map(|lid| self.spec_masks[lid as usize * n + v])
                    .unwrap_or((0, 0));
                let listed =
                    lid.is_some_and(|lid| self.spec_cores[lid as usize] & (1 << v) != 0);
                if (r, w) != (truth.read_mask.0, truth.write_mask.0) {
                    return Err(format!(
                        "line {:#x}: core {v} directory masks ({r:#x}, {w:#x}) != \
                         ground truth ({:#x}, {:#x})",
                        line.base().0,
                        truth.read_mask.0,
                        truth.write_mask.0
                    ));
                }
                if listed != truth.is_speculative() {
                    return Err(format!(
                        "line {:#x}: core {v} listed={listed} but ground-truth \
                         speculative={}",
                        line.base().0,
                        truth.is_speculative()
                    ));
                }
                let tracked =
                    core.caches.spec_lines.iter().filter(|&&(l, _)| l == line).count();
                if truth.is_speculative() && tracked != 1 {
                    return Err(format!(
                        "line {:#x}: core {v} speculative but tracked {tracked}x \
                         on its spec-line list",
                        line.base().0
                    ));
                }
            }
        }
        Ok(())
    }

    /// Exhaustively verify the residency index against every core's caches
    /// and retained tables (test/debug hook, like
    /// [`Self::check_coherence_invariants`]). Checks both directions: every
    /// held line is indexed (soundness — a probe must never skip a core
    /// that matters) and every indexed bit is backed by real residency
    /// (exactness — stale bits would erode the probe savings).
    pub fn verify_residency_index(&self) -> Result<(), String> {
        use std::collections::HashSet;
        let mut lines: HashSet<LineAddr> = self
            .intern
            .iter()
            .filter(|&(lid, _)| self.residency[lid as usize] != 0)
            .map(|(_, l)| l)
            .collect();
        for core in &self.cores {
            lines.extend(core.caches.l1.iter().map(|(l, _)| l));
            lines.extend(core.caches.l2.iter().map(|(l, _)| l));
            lines.extend(core.caches.l3.iter().map(|(l, _)| l));
            lines.extend(core.caches.retained.keys().copied());
        }
        for &line in &lines {
            let bits = self
                .intern
                .get(line)
                .map(|lid| self.residency[lid as usize])
                .unwrap_or(0);
            for (v, core) in self.cores.iter().enumerate() {
                let truth = core.caches.holds(line);
                let indexed = bits & (1 << v) != 0;
                if truth && !indexed {
                    return Err(format!(
                        "line {:#x}: core {v} holds it but the index misses it (unsound)",
                        line.base().0
                    ));
                }
                if indexed && !truth {
                    return Err(format!(
                        "line {:#x}: index lists core {v} but nothing is resident (stale)",
                        line.base().0
                    ));
                }
            }
        }
        Ok(())
    }

    /// Coherence invariant checker (test/debug hook): for every line
    /// resident anywhere, at most one core holds it in a writable state
    /// (M/E), and if any core holds it M or O, no core holds it E. Returns
    /// a description of the first violation found.
    pub fn check_coherence_invariants(&self) -> Result<(), String> {
        use std::collections::HashMap;
        let mut owners: HashMap<LineAddr, Vec<(usize, MoesiState)>> = HashMap::new();
        for (cid, core) in self.cores.iter().enumerate() {
            for (line, meta) in core.caches.l1.iter() {
                owners.entry(line).or_default().push((cid, meta.moesi));
            }
        }
        for (line, holders) in owners {
            let writable = holders.iter().filter(|(_, s)| s.writable()).count();
            if writable > 1 {
                return Err(format!(
                    "line {:#x}: {} writable copies ({holders:?})",
                    line.base().0,
                    writable
                ));
            }
            let dirtyish = holders
                .iter()
                .any(|(_, s)| matches!(s, MoesiState::Modified | MoesiState::Owned));
            let exclusive = holders.iter().any(|(_, s)| matches!(s, MoesiState::Exclusive));
            if writable == 1 && holders.len() > 1 {
                // A writable copy must be the only copy.
                return Err(format!(
                    "line {:#x}: writable copy coexists with sharers ({holders:?})",
                    line.base().0
                ));
            }
            if dirtyish && exclusive {
                return Err(format!(
                    "line {:#x}: M/O and E copies coexist ({holders:?})",
                    line.base().0
                ));
            }
        }
        Ok(())
    }

    /// Step the machine `n` times (test hook for invariant checking).
    pub fn step_n(&mut self, n: usize) -> bool {
        for _ in 0..n {
            if !self.step() {
                return false;
            }
        }
        true
    }
}
