//! The content-addressed result cache: in-memory LRU over completed job
//! artifacts, backed by a crash-safe on-disk store, with single-flight
//! coalescing of concurrent identical computations.
//!
//! * **Keying** — entries are addressed by the [`crate::spec::JobSpec`]
//!   digest; the simulator is deterministic, so one digest has exactly one
//!   valid artifact and a repeat submission is an O(1) lookup.
//! * **LRU** — a slab-backed doubly-linked list plus an `FxHashMap` index:
//!   `lookup`/`insert` are O(1), the entry count never exceeds the
//!   configured capacity, and the evicted entry is always the
//!   least-recently-used one (pinned by the proptest suite).
//! * **Disk** — when a store directory is configured, every insert also
//!   persists the artifact as `cell_<digest>.json` through
//!   [`asf_stats::atomic_write`] (a per-write unique temp file and an
//!   atomic rename), and a memory miss falls back to disk, repopulating
//!   the LRU. A crash mid-write leaves either the old
//!   file or nothing — never a torn artifact.
//! * **Checksums & quarantine** — every persisted cell
//!   (`asf-serve-cell-v2`) carries an FNV-1a checksum over its delimited
//!   fields, verified on load. A cell that fails parsing *or* the
//!   checksum is never served: it is renamed aside
//!   (`*.quarantine.<pid>.<seq>`) so the evidence survives for inspection,
//!   counted in [`CacheCounters::corrupt_quarantined`], and the next
//!   computation rewrites it. Rename-aside (not delete) is deliberate: a
//!   corrupt cell means either torn hardware or a code bug, and both are
//!   worth a post-mortem.
//! * **Single-flight** — [`ResultCache::get_or_compute`] guarantees at
//!   most one in-flight computation per digest: followers block on the
//!   leader's condvar and are served the very entry the leader produced,
//!   counted in [`CacheCounters::flight_joins`]. A *panicking* leader
//!   publishes a failure to its followers and deregisters the flight
//!   before the panic resumes — waiters can never be wedged on a dead
//!   leader's condvar.

use asf_mem::fxhash::FxHashMap;
use asf_stats::atomic_file::{atomic_write, unique_suffix};
use asf_stats::json::{escape, parse};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// One completed, servable artifact.
#[derive(Clone, Debug)]
pub struct CachedResult {
    /// The job-spec digest this artifact answers.
    pub spec_digest: u64,
    /// [`asf_stats::digest::run_stats_digest`] of the stats inside `body`
    /// — what the serve-vs-direct golden fence compares.
    pub stats_digest: u64,
    /// The full result document (`asf-serve-v1` JSON), served byte-for-byte.
    pub body: Arc<String>,
    /// `asf-obs-v1` metrics snapshot, when the spec asked to observe.
    pub metrics: Option<Arc<String>>,
    /// Chrome `trace_event` timeline, when the spec asked to observe.
    pub trace: Option<Arc<String>>,
}

/// Monotonic cache counters (`GET /v1/cache/stats`).
#[derive(Debug, Default)]
pub struct CacheCounters {
    /// Lookups answered from the in-memory LRU.
    pub hits: AtomicU64,
    /// Lookups answered from the on-disk store (and promoted to memory).
    pub disk_hits: AtomicU64,
    /// Lookups that found nothing anywhere.
    pub misses: AtomicU64,
    /// Artifacts inserted (one per completed computation).
    pub inserts: AtomicU64,
    /// LRU entries evicted to respect the capacity bound.
    pub evictions: AtomicU64,
    /// Computations that coalesced onto an in-flight identical one.
    pub flight_joins: AtomicU64,
    /// Computations that actually ran (single-flight leaders).
    pub flight_leads: AtomicU64,
    /// Disk cells that failed parse/checksum verification and were
    /// renamed aside. Nonzero after restarts is fine (old-schema cells);
    /// *growing* under steady state means something is tearing writes.
    pub corrupt_quarantined: AtomicU64,
    /// Disk writes that failed (filesystem error or injected fault). The
    /// artifact is still served from memory; only persistence was lost.
    pub disk_write_failures: AtomicU64,
}

impl CacheCounters {
    /// Render the counters as a JSON object fragment.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"hits\": {}, \"disk_hits\": {}, \"misses\": {}, \"inserts\": {}, \
             \"evictions\": {}, \"single_flight_joins\": {}, \"single_flight_leads\": {}, \
             \"corrupt_quarantined\": {}, \"disk_write_failures\": {}}}",
            self.hits.load(Ordering::Relaxed),
            self.disk_hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
            self.inserts.load(Ordering::Relaxed),
            self.evictions.load(Ordering::Relaxed),
            self.flight_joins.load(Ordering::Relaxed),
            self.flight_leads.load(Ordering::Relaxed),
            self.corrupt_quarantined.load(Ordering::Relaxed),
            self.disk_write_failures.load(Ordering::Relaxed),
        )
    }
}

// ---------------------------------------------------------------------------
// LRU
// ---------------------------------------------------------------------------

const NIL: usize = usize::MAX;

struct Node {
    key: u64,
    value: CachedResult,
    prev: usize,
    next: usize,
}

/// Slab-backed O(1) LRU list: `head` is most recently used, `tail` least.
pub(crate) struct Lru {
    map: FxHashMap<u64, usize>,
    nodes: Vec<Node>,
    free: Vec<usize>,
    head: usize,
    tail: usize,
    capacity: usize,
}

impl Lru {
    fn new(capacity: usize) -> Lru {
        assert!(capacity >= 1, "cache capacity must be at least 1");
        Lru {
            map: FxHashMap::default(),
            nodes: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            capacity,
        }
    }

    fn len(&self) -> usize {
        self.map.len()
    }

    fn unlink(&mut self, i: usize) {
        let (prev, next) = (self.nodes[i].prev, self.nodes[i].next);
        if prev == NIL {
            self.head = next;
        } else {
            self.nodes[prev].next = next;
        }
        if next == NIL {
            self.tail = prev;
        } else {
            self.nodes[next].prev = prev;
        }
    }

    fn push_front(&mut self, i: usize) {
        self.nodes[i].prev = NIL;
        self.nodes[i].next = self.head;
        if self.head != NIL {
            self.nodes[self.head].prev = i;
        }
        self.head = i;
        if self.tail == NIL {
            self.tail = i;
        }
    }

    /// Look up and promote to most-recently-used.
    fn get(&mut self, key: u64) -> Option<CachedResult> {
        let &i = self.map.get(&key)?;
        self.unlink(i);
        self.push_front(i);
        Some(self.nodes[i].value.clone())
    }

    /// Insert (or refresh) an entry; returns the evicted LRU victim's key
    /// when the capacity bound forced one out.
    fn insert(&mut self, key: u64, value: CachedResult) -> Option<u64> {
        if let Some(&i) = self.map.get(&key) {
            self.nodes[i].value = value;
            self.unlink(i);
            self.push_front(i);
            return None;
        }
        let mut evicted = None;
        if self.map.len() >= self.capacity {
            let victim = self.tail;
            debug_assert_ne!(victim, NIL);
            self.unlink(victim);
            let old_key = self.nodes[victim].key;
            self.map.remove(&old_key);
            self.free.push(victim);
            evicted = Some(old_key);
        }
        let node = Node { key, value, prev: NIL, next: NIL };
        let i = match self.free.pop() {
            Some(slot) => {
                self.nodes[slot] = node;
                slot
            }
            None => {
                self.nodes.push(node);
                self.nodes.len() - 1
            }
        };
        self.map.insert(key, i);
        self.push_front(i);
        evicted
    }

    /// Keys from most to least recently used (test/debug helper).
    #[cfg(test)]
    fn keys_mru_order(&self) -> Vec<u64> {
        let mut out = Vec::new();
        let mut i = self.head;
        while i != NIL {
            out.push(self.nodes[i].key);
            i = self.nodes[i].next;
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Single-flight
// ---------------------------------------------------------------------------

enum FlightState {
    Running,
    Done(Result<CachedResult, String>),
}

struct Flight {
    state: Mutex<FlightState>,
    cv: Condvar,
}

// ---------------------------------------------------------------------------
// The cache proper
// ---------------------------------------------------------------------------

/// Deterministic disk-write fault decision, produced per digest by a
/// chaos hook (see [`ResultCache::set_disk_chaos`]). Outside the chaos
/// soak no hook is installed and every write takes the `None` path.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum DiskChaos {
    /// Write normally.
    #[default]
    None,
    /// Pretend the filesystem refused the write (counted in
    /// [`CacheCounters::disk_write_failures`]; serving is unaffected).
    FailWrite,
    /// Persist a deliberately torn cell — checksum cannot verify, so a
    /// later disk load must quarantine it instead of serving it.
    Corrupt,
}

/// Chaos decision function: digest → what to do to this disk write.
pub type DiskChaosHook = Box<dyn Fn(u64) -> DiskChaos + Send + Sync>;

/// Configuration of a [`ResultCache`].
#[derive(Clone, Debug)]
pub struct CacheConfig {
    /// Maximum in-memory entries (the LRU bound).
    pub capacity: usize,
    /// Directory of the persistent store; `None` = memory only.
    pub disk_dir: Option<PathBuf>,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig { capacity: 1024, disk_dir: None }
    }
}

/// The memoizing store: LRU + disk + single-flight + counters.
pub struct ResultCache {
    lru: Mutex<Lru>,
    flights: Mutex<FxHashMap<u64, Arc<Flight>>>,
    /// Monotonic hit/miss/eviction/coalescing counters.
    pub counters: CacheCounters,
    disk_dir: Option<PathBuf>,
    capacity: usize,
    disk_chaos: Mutex<Option<DiskChaosHook>>,
}

impl ResultCache {
    /// Build a cache from its configuration. The disk directory is created
    /// eagerly so the first insert cannot race a missing parent.
    pub fn new(cfg: CacheConfig) -> std::io::Result<ResultCache> {
        if let Some(dir) = &cfg.disk_dir {
            std::fs::create_dir_all(dir)?;
        }
        Ok(ResultCache {
            lru: Mutex::new(Lru::new(cfg.capacity)),
            flights: Mutex::new(FxHashMap::default()),
            counters: CacheCounters::default(),
            disk_dir: cfg.disk_dir,
            capacity: cfg.capacity,
            disk_chaos: Mutex::new(None),
        })
    }

    /// Install a deterministic disk-write fault hook (chaos soak only).
    /// The hook sees the digest about to be persisted and decides whether
    /// the write proceeds, fails, or tears.
    pub fn set_disk_chaos(&self, hook: DiskChaosHook) {
        *self.disk_chaos.lock().unwrap() = Some(hook);
    }

    /// In-memory entry count.
    pub fn len(&self) -> usize {
        self.lru.lock().unwrap().len()
    }

    /// True when no entry is held in memory.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The LRU capacity bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Look up an artifact: memory first, then the disk store (promoting a
    /// disk hit back into the LRU). Counts exactly one of
    /// hits/disk_hits/misses.
    pub fn lookup(&self, digest: u64) -> Option<CachedResult> {
        if let Some(hit) = self.lru.lock().unwrap().get(digest) {
            self.counters.hits.fetch_add(1, Ordering::Relaxed);
            return Some(hit);
        }
        if let Some(found) = self.disk_load(digest) {
            self.counters.disk_hits.fetch_add(1, Ordering::Relaxed);
            self.insert_memory(digest, found.clone());
            return Some(found);
        }
        self.counters.misses.fetch_add(1, Ordering::Relaxed);
        None
    }

    /// Insert a completed artifact (memory + disk). Public so a warm-up
    /// loader can prime the cache; the normal path is
    /// [`ResultCache::get_or_compute`].
    pub fn insert(&self, digest: u64, result: CachedResult) {
        self.counters.inserts.fetch_add(1, Ordering::Relaxed);
        if let Err(e) = self.disk_store(digest, &result) {
            self.counters.disk_write_failures.fetch_add(1, Ordering::Relaxed);
            eprintln!("warning: cache disk store for {digest:016x}: {e}");
        }
        self.insert_memory(digest, result);
    }

    fn insert_memory(&self, digest: u64, result: CachedResult) {
        if self.lru.lock().unwrap().insert(digest, result).is_some() {
            self.counters.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// The memoizing entry point: a cached artifact is returned instantly;
    /// otherwise at most one caller per digest runs `compute` (the
    /// *leader*) while concurrent identical callers block and are served
    /// the leader's entry. A failed computation is delivered to every
    /// waiter but **not** cached — the next submission retries.
    pub fn get_or_compute(
        &self,
        digest: u64,
        compute: impl FnOnce() -> Result<CachedResult, String>,
    ) -> Result<CachedResult, String> {
        if let Some(hit) = self.lookup(digest) {
            return Ok(hit);
        }
        // Join an in-flight computation, or become the leader.
        let (flight, leader) = {
            let mut flights = self.flights.lock().unwrap();
            match flights.get(&digest) {
                Some(f) => (Arc::clone(f), false),
                None => {
                    let f = Arc::new(Flight {
                        state: Mutex::new(FlightState::Running),
                        cv: Condvar::new(),
                    });
                    flights.insert(digest, Arc::clone(&f));
                    (f, true)
                }
            }
        };
        if !leader {
            self.counters.flight_joins.fetch_add(1, Ordering::Relaxed);
            let mut state = flight.state.lock().unwrap();
            while matches!(*state, FlightState::Running) {
                state = flight.cv.wait(state).unwrap();
            }
            let FlightState::Done(result) = &*state else { unreachable!() };
            return result.clone();
        }
        self.counters.flight_leads.fetch_add(1, Ordering::Relaxed);
        // Double-check under flight leadership: another leader may have
        // finished and vacated between our lookup and our registration.
        let result = match self.lookup(digest) {
            Some(hit) => Ok(hit),
            None => {
                // A panicking compute must not strand followers on the
                // condvar: publish a failure and deregister the flight
                // *before* the panic resumes towards the pool supervisor.
                let computed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(compute));
                match computed {
                    Ok(computed) => {
                        if let Ok(entry) = &computed {
                            self.insert(digest, entry.clone());
                        }
                        computed
                    }
                    Err(payload) => {
                        let failure = Err("computation panicked".to_string());
                        *flight.state.lock().unwrap() = FlightState::Done(failure);
                        flight.cv.notify_all();
                        self.flights.lock().unwrap().remove(&digest);
                        std::panic::resume_unwind(payload);
                    }
                }
            }
        };
        // Publish to waiters, then deregister the flight so later misses
        // start fresh computations (the cache now answers them anyway).
        *flight.state.lock().unwrap() = FlightState::Done(result.clone());
        flight.cv.notify_all();
        self.flights.lock().unwrap().remove(&digest);
        result
    }

    // -- disk store ---------------------------------------------------------

    fn disk_path(&self, digest: u64) -> Option<PathBuf> {
        self.disk_dir.as_ref().map(|d| d.join(format!("cell_{digest:016x}.json")))
    }

    fn disk_store(&self, digest: u64, result: &CachedResult) -> std::io::Result<()> {
        let Some(path) = self.disk_path(digest) else {
            return Ok(());
        };
        let chaos = match &*self.disk_chaos.lock().unwrap() {
            Some(hook) => hook(digest),
            None => DiskChaos::None,
        };
        if chaos == DiskChaos::FailWrite {
            return Err(std::io::Error::other("injected disk-write fault"));
        }
        let mut out = String::from("{\n  \"schema\": \"asf-serve-cell-v2\",\n");
        let mut checksum = cell_checksum(result);
        if chaos == DiskChaos::Corrupt {
            // A torn write modelled precisely: the cell parses, but its
            // recorded checksum disagrees with its contents.
            checksum = !checksum;
        }
        out.push_str(&format!("  \"checksum\": \"{checksum:016x}\",\n"));
        out.push_str(&format!("  \"spec_digest\": \"{:016x}\",\n", result.spec_digest));
        out.push_str(&format!("  \"stats_digest\": \"{:016x}\",\n", result.stats_digest));
        out.push_str(&format!("  \"body\": {}", escape(&result.body)));
        for (name, field) in [("metrics", &result.metrics), ("trace", &result.trace)] {
            match field {
                Some(text) => out.push_str(&format!(",\n  \"{name}\": {}", escape(text))),
                None => out.push_str(&format!(",\n  \"{name}\": null")),
            }
        }
        out.push_str("\n}\n");
        atomic_write(&path, out)
    }

    fn disk_load(&self, digest: u64) -> Option<CachedResult> {
        let path = self.disk_path(digest)?;
        let src = std::fs::read_to_string(&path).ok()?;
        match parse_cell(digest, &src) {
            Ok(cell) => Some(cell),
            Err(e) => {
                // A corrupt cell never poisons serving: rename it aside so
                // the evidence survives, count it, and let the next
                // computation repopulate the slot.
                let quarantined = path.with_file_name(format!(
                    "{}.quarantine.{}",
                    path.file_name().unwrap_or_default().to_string_lossy(),
                    unique_suffix()
                ));
                match std::fs::rename(&path, &quarantined) {
                    Ok(()) => eprintln!(
                        "warning: quarantined corrupt cache cell {} -> {}: {e}",
                        path.display(),
                        quarantined.display()
                    ),
                    // Lost a rename race with a concurrent quarantine or a
                    // rewrite — either way the bad bytes are gone.
                    Err(_) => eprintln!(
                        "warning: ignoring corrupt cache cell {}: {e}",
                        path.display()
                    ),
                }
                self.counters.corrupt_quarantined.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }
}

/// FNV-1a over every servable field of a cell, with explicit length/
/// presence delimiters so `("ab","c")` and `("a","bc")` — or a missing
/// versus empty artifact — can never collide.
fn cell_checksum(result: &CachedResult) -> u64 {
    let mut h = asf_stats::digest::Fnv::new();
    h.u64(result.spec_digest).u64(result.stats_digest);
    h.u64(result.body.len() as u64).str(&result.body);
    for field in [&result.metrics, &result.trace] {
        match field {
            Some(text) => {
                h.u64(1).u64(text.len() as u64).str(text);
            }
            None => {
                h.u64(0);
            }
        }
    }
    h.finish()
}

/// Parse one persisted `asf-serve-cell-v2` document and verify its
/// checksum. Anything that fails here is quarantined by the caller —
/// including leftover v1 cells from before checksums existed, which is
/// the intended migration (recompute once, persist verified).
fn parse_cell(digest: u64, src: &str) -> Result<CachedResult, String> {
    let root = parse(src)?;
    let schema = root.field("schema")?.as_str()?;
    if schema != "asf-serve-cell-v2" {
        return Err(format!("unexpected schema {schema:?}"));
    }
    let hex_field = |key: &str| -> Result<u64, String> {
        u64::from_str_radix(root.field(key)?.as_str()?, 16)
            .map_err(|e| format!("bad {key}: {e}"))
    };
    let spec_digest = hex_field("spec_digest")?;
    if spec_digest != digest {
        return Err(format!(
            "cell addressed {digest:016x} but records spec_digest {spec_digest:016x}"
        ));
    }
    let stats_digest = hex_field("stats_digest")?;
    let body = Arc::new(root.field("body")?.as_str()?.to_string());
    let opt = |key: &str| -> Result<Option<Arc<String>>, String> {
        match root.get(key) {
            None | Some(asf_stats::json::JsonValue::Null) => Ok(None),
            Some(v) => Ok(Some(Arc::new(v.as_str()?.to_string()))),
        }
    };
    let cell = CachedResult {
        spec_digest,
        stats_digest,
        body,
        metrics: opt("metrics")?,
        trace: opt("trace")?,
    };
    let recorded = hex_field("checksum")?;
    let computed = cell_checksum(&cell);
    if recorded != computed {
        return Err(format!(
            "checksum mismatch: recorded {recorded:016x}, computed {computed:016x}"
        ));
    }
    Ok(cell)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(digest: u64) -> CachedResult {
        CachedResult {
            spec_digest: digest,
            stats_digest: digest.wrapping_mul(31),
            body: Arc::new(format!("{{\"n\": {digest}}}")),
            metrics: None,
            trace: None,
        }
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut lru = Lru::new(3);
        for k in [1, 2, 3] {
            assert_eq!(lru.insert(k, entry(k)), None);
        }
        // Touch 1 so 2 becomes the LRU victim.
        assert!(lru.get(1).is_some());
        assert_eq!(lru.insert(4, entry(4)), Some(2));
        assert_eq!(lru.len(), 3);
        assert_eq!(lru.keys_mru_order(), vec![4, 1, 3]);
        assert!(lru.get(2).is_none());
        // Re-inserting an existing key refreshes, never evicts.
        assert_eq!(lru.insert(3, entry(3)), None);
        assert_eq!(lru.keys_mru_order(), vec![3, 4, 1]);
    }

    #[test]
    fn memory_roundtrip_counts_hits_and_misses() {
        let cache = ResultCache::new(CacheConfig { capacity: 4, disk_dir: None }).unwrap();
        assert!(cache.lookup(9).is_none());
        cache.insert(9, entry(9));
        let hit = cache.lookup(9).expect("cached");
        assert_eq!(*hit.body, "{\"n\": 9}");
        assert_eq!(cache.counters.misses.load(Ordering::Relaxed), 1);
        assert_eq!(cache.counters.hits.load(Ordering::Relaxed), 1);
        assert_eq!(cache.counters.inserts.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn disk_store_survives_memory_eviction() {
        let dir = std::env::temp_dir().join(format!(
            "asf_serve_cache_test_{}",
            unique_suffix()
        ));
        let cache = ResultCache::new(CacheConfig {
            capacity: 1,
            disk_dir: Some(dir.clone()),
        })
        .unwrap();
        let mut with_artifacts = entry(1);
        with_artifacts.metrics = Some(Arc::new("{\"m\": 1}".to_string()));
        cache.insert(1, with_artifacts);
        cache.insert(2, entry(2)); // evicts 1 from memory, not from disk
        assert_eq!(cache.counters.evictions.load(Ordering::Relaxed), 1);
        let back = cache.lookup(1).expect("reloaded from disk");
        assert_eq!(*back.body, "{\"n\": 1}");
        assert_eq!(back.metrics.as_deref().map(String::as_str), Some("{\"m\": 1}"));
        assert_eq!(back.trace, None);
        assert_eq!(cache.counters.disk_hits.load(Ordering::Relaxed), 1);
        // No temp files left behind.
        let stray: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains("tmp."))
            .collect();
        assert!(stray.is_empty(), "stray temp files: {stray:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_disk_cell_is_quarantined_not_served() {
        let dir = std::env::temp_dir().join(format!(
            "asf_serve_corrupt_test_{}",
            unique_suffix()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let cell_path = dir.join(format!("cell_{:016x}.json", 5u64));
        std::fs::write(&cell_path, "{ torn").unwrap();
        let cache = ResultCache::new(CacheConfig {
            capacity: 4,
            disk_dir: Some(dir.clone()),
        })
        .unwrap();
        assert!(cache.lookup(5).is_none());
        assert_eq!(cache.counters.corrupt_quarantined.load(Ordering::Relaxed), 1);
        // The bad bytes were renamed aside, not deleted, and the original
        // path is free for the recompute.
        assert!(!cell_path.exists());
        let quarantined: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains(".quarantine."))
            .collect();
        assert_eq!(quarantined.len(), 1, "{quarantined:?}");
        // The slot heals: a fresh insert persists a verified cell which
        // loads cleanly after memory eviction.
        cache.insert(5, entry(5));
        cache.insert(6, entry(6));
        cache.insert(7, entry(7));
        cache.insert(8, entry(8));
        cache.insert(9, entry(9)); // capacity 4: 5 is evicted from memory
        assert!(cache.lookup(5).is_some());
        assert_eq!(cache.counters.corrupt_quarantined.load(Ordering::Relaxed), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checksum_mismatch_is_caught_and_quarantined() {
        let dir = std::env::temp_dir().join(format!(
            "asf_serve_checksum_test_{}",
            unique_suffix()
        ));
        let cache = ResultCache::new(CacheConfig {
            capacity: 1,
            disk_dir: Some(dir.clone()),
        })
        .unwrap();
        // Inject a torn write for digest 1 only: the cell parses as JSON
        // but its checksum disagrees with its contents.
        cache.set_disk_chaos(Box::new(|digest| {
            if digest == 1 { DiskChaos::Corrupt } else { DiskChaos::None }
        }));
        cache.insert(1, entry(1));
        cache.insert(2, entry(2)); // evicts 1 from memory
        assert!(cache.lookup(1).is_none(), "torn cell must not be served");
        assert_eq!(cache.counters.corrupt_quarantined.load(Ordering::Relaxed), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_write_failure_is_counted_and_memory_still_serves() {
        let dir = std::env::temp_dir().join(format!(
            "asf_serve_failwrite_test_{}",
            unique_suffix()
        ));
        let cache = ResultCache::new(CacheConfig {
            capacity: 4,
            disk_dir: Some(dir.clone()),
        })
        .unwrap();
        cache.set_disk_chaos(Box::new(|_| DiskChaos::FailWrite));
        cache.insert(3, entry(3));
        assert_eq!(cache.counters.disk_write_failures.load(Ordering::Relaxed), 1);
        assert!(cache.lookup(3).is_some(), "memory path unaffected");
        assert!(!dir.join(format!("cell_{:016x}.json", 3u64)).exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn failed_computation_is_not_cached() {
        let cache = ResultCache::new(CacheConfig::default()).unwrap();
        let err = cache.get_or_compute(7, || Err("boom".to_string())).unwrap_err();
        assert_eq!(err, "boom");
        assert!(cache.lookup(7).is_none());
        // A later attempt retries and can succeed.
        let ok = cache.get_or_compute(7, || Ok(entry(7))).unwrap();
        assert_eq!(ok.spec_digest, 7);
        assert!(cache.lookup(7).is_some());
    }

    #[test]
    fn panicking_leader_releases_followers_and_flight() {
        let cache = Arc::new(ResultCache::new(CacheConfig::default()).unwrap());
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            cache.get_or_compute(11, || panic!("leader died"))
        }));
        assert!(panicked.is_err(), "the panic must propagate to the supervisor");
        // The flight was deregistered: a later caller becomes a fresh
        // leader instead of wedging on a dead one's condvar.
        let ok = cache.get_or_compute(11, || Ok(entry(11))).unwrap();
        assert_eq!(ok.spec_digest, 11);
        assert_eq!(cache.counters.flight_leads.load(Ordering::Relaxed), 2);
    }
}
