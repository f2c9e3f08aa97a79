//! Property suite for the serve layer's content-addressed cache: spec
//! digests must be canonical (field order cannot matter) and the LRU must
//! hold its capacity bound under arbitrary insert/lookup interleavings.
//! Exactly-once execution of concurrent identical submissions is the job
//! table's, and is fenced end to end in `tests/coalescing.rs`.

use asf_serve::cache::{CacheConfig, CacheCounters, CachedResult, ResultCache};
use asf_serve::spec::JobSpec;
use proptest::prelude::*;
use std::sync::atomic::Ordering;
use std::sync::Arc;

// ---------------------------------------------------------------------------
// Digest stability under spec field reordering
// ---------------------------------------------------------------------------

/// The six spec fields as (key, rendered value) pairs.
fn spec_fields(bench: &str, detector: &str, scale: &str, seed: u64, faults: &str, observe: bool)
    -> Vec<(String, String)> {
    vec![
        ("bench".into(), format!("\"{bench}\"")),
        ("detector".into(), format!("\"{detector}\"")),
        ("scale".into(), format!("\"{scale}\"")),
        ("seed".into(), seed.to_string()),
        ("faults".into(), format!("\"{faults}\"")),
        ("observe".into(), observe.to_string()),
    ]
}

fn render(fields: &[(String, String)]) -> String {
    let body: Vec<String> =
        fields.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect();
    format!("{{{}}}", body.join(", "))
}

fn arb_bench() -> impl Strategy<Value = &'static str> {
    prop::sample::select(vec![
        "intruder", "kmeans", "labyrinth", "ssca2", "vacation", "genome",
    ])
}

fn arb_detector() -> impl Strategy<Value = String> {
    prop_oneof![
        Just("baseline".to_string()),
        Just("perfect".to_string()),
        prop::sample::select(vec![2usize, 4, 8, 16]).prop_map(|n| format!("sb{n}")),
    ]
}

fn arb_scale() -> impl Strategy<Value = &'static str> {
    prop::sample::select(vec!["small", "standard", "large", "huge"])
}

fn arb_faults() -> impl Strategy<Value = &'static str> {
    prop::sample::select(vec!["none", "light", "heavy", "max_spurious"])
}

proptest! {
    /// Any permutation of the spec's JSON fields parses to the same spec
    /// and therefore the same content digest.
    #[test]
    fn digest_ignores_field_order(
        bench in arb_bench(),
        detector in arb_detector(),
        scale in arb_scale(),
        seed in any::<u64>(),
        faults in arb_faults(),
        observe in prop::bool::ANY,
        // A permutation expressed as successive swap positions.
        swaps in prop::collection::vec((0usize..6, 0usize..6), 0..8),
    ) {
        let fields = spec_fields(bench, &detector, scale, seed, faults, observe);
        let reference = JobSpec::from_json(&render(&fields)).expect("reference parse");
        let mut shuffled = fields;
        for (a, b) in swaps {
            shuffled.swap(a, b);
        }
        let reparsed = JobSpec::from_json(&render(&shuffled)).expect("shuffled parse");
        prop_assert_eq!(reference.digest(), reparsed.digest());
        prop_assert_eq!(reference.canonical(), reparsed.canonical());
    }

    /// Distinct specs get distinct digests (across this sampled family —
    /// full collision-freedom is not claimable for a 64-bit digest, but
    /// the canonical encodings differ so FNV collisions are astronomically
    /// unlikely within a test run).
    #[test]
    fn digest_separates_neighbouring_specs(
        bench in arb_bench(),
        scale in arb_scale(),
        seed in any::<u64>(),
    ) {
        let base = render(&spec_fields(bench, "sb4", scale, seed, "none", false));
        let spec = JobSpec::from_json(&base).expect("parse");
        let mut bumped = spec.clone();
        bumped.seed = spec.seed.wrapping_add(1);
        prop_assert_ne!(spec.digest(), bumped.digest());
        let mut observed = spec.clone();
        observed.observe = true;
        prop_assert_ne!(spec.digest(), observed.digest());
    }
}

// ---------------------------------------------------------------------------
// LRU bounds
// ---------------------------------------------------------------------------

fn fake_result(digest: u64) -> CachedResult {
    CachedResult {
        spec_digest: digest,
        stats_digest: digest.rotate_left(17),
        body: Arc::new(format!("{{\"digest\": {digest}}}")),
        metrics: None,
        trace: None,
    }
}

fn memory_cache(capacity: usize) -> ResultCache {
    ResultCache::new(CacheConfig { capacity, disk_dir: None }).expect("memory cache")
}

/// Reference model: a plain MRU-ordered vector with the same semantics
/// the slab LRU promises.
struct ModelLru {
    mru: Vec<u64>, // front = most recently used
    capacity: usize,
    evictions: u64,
}

impl ModelLru {
    fn touch(&mut self, key: u64) -> bool {
        if let Some(pos) = self.mru.iter().position(|&k| k == key) {
            let k = self.mru.remove(pos);
            self.mru.insert(0, k);
            true
        } else {
            false
        }
    }

    fn insert(&mut self, key: u64) {
        if self.touch(key) {
            return; // refresh, never evicts
        }
        if self.mru.len() >= self.capacity {
            self.mru.pop();
            self.evictions += 1;
        }
        self.mru.insert(0, key);
    }
}

proptest! {
    /// Model-based check: under an arbitrary insert/lookup interleaving
    /// the cache agrees with a naive reference LRU on membership, entry
    /// count (never above capacity), and the eviction tally.
    #[test]
    fn lru_matches_reference_model(
        capacity in 1usize..12,
        ops in prop::collection::vec((0u64..32, prop::bool::ANY), 1..200),
    ) {
        let cache = memory_cache(capacity);
        let mut model = ModelLru { mru: Vec::new(), capacity, evictions: 0 };
        for (key, is_insert) in ops {
            if is_insert {
                cache.insert(key, fake_result(key));
                model.insert(key);
            } else {
                let hit = cache.lookup(key).is_some();
                let model_hit = model.touch(key);
                prop_assert_eq!(hit, model_hit, "membership diverged on {}", key);
            }
            prop_assert!(cache.len() <= capacity);
            prop_assert_eq!(cache.len(), model.mru.len());
        }
        let evictions = cache.counters.evictions.load(Ordering::Relaxed);
        prop_assert_eq!(evictions, model.evictions);
        // Every key the model holds must be servable (probe via lookup —
        // these touches reorder both sides identically).
        for &key in model.mru.clone().iter() {
            prop_assert!(cache.lookup(key).is_some(), "model key {} missing", key);
        }
    }
}

/// The counters JSON is parsable and carries every field the stats
/// endpoint promises.
#[test]
fn counters_render_all_fields() {
    let counters = CacheCounters::default();
    counters.hits.store(3, Ordering::Relaxed);
    let json = counters.to_json();
    let root = asf_stats::json::parse(&json).expect("counters JSON parses");
    for key in [
        "hits",
        "disk_hits",
        "misses",
        "inserts",
        "evictions",
        "corrupt_quarantined",
        "disk_write_failures",
    ] {
        assert!(root.field(key).is_ok(), "missing {key} in {json}");
    }
    // Coalescing is the job table's (`submit_coalesced`), not the cache's.
    assert!(!json.contains("flight"), "stale coalescing key in {json}");
}
