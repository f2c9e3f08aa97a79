//! Serve-cache micro-benchmarks (DESIGN.md §16): the request-independent
//! costs a submission pays before any simulation runs.
//!
//! * `canonicalize` — spec JSON parse → canonical form (what `POST
//!   /v1/jobs` does to every body);
//! * `digest` — canonical form → FNV-1a content address;
//! * `lookup_hit` — the memoized fast path: digest → LRU hit (the whole
//!   point of the serve layer is that this is the entire cost of a
//!   repeated job);
//! * `lookup_miss` — the miss path over a populated cache (what a fresh
//!   spec pays before queueing).
//!
//! Like the other micro benches this compiles in CI via
//! `cargo bench -- --test`.

use asf_core::detector::DetectorKind;
use asf_serve::cache::{CacheConfig, CachedResult, ResultCache};
use asf_serve::spec::JobSpec;
use asf_workloads::Scale;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::sync::Arc;

/// A representative spec body as a client would post it (fields
/// deliberately not in canonical order).
const SUBMIT_BODY: &str = "{\"seed\": 773, \"bench\": \"ssca2\", \
    \"observe\": false, \"detector\": \"sb4\", \"scale\": \"standard\", \
    \"faults\": \"none\"}";

fn entry(digest: u64) -> CachedResult {
    CachedResult {
        spec_digest: digest,
        stats_digest: digest.rotate_left(13),
        body: Arc::new(format!("{{\"schema\": \"asf-serve-v1\", \"n\": {digest}}}")),
        metrics: None,
        trace: None,
    }
}

/// A memory-only cache pre-populated with `n` entries.
fn populated(n: u64) -> ResultCache {
    let cache =
        ResultCache::new(CacheConfig { capacity: n as usize + 16, disk_dir: None })
            .expect("memory cache");
    for d in 0..n {
        cache.insert(d.wrapping_mul(0x9e37_79b9_7f4a_7c15), entry(d));
    }
    cache
}

fn bench_canonicalize(c: &mut Criterion) {
    c.bench_function("serve_cache/canonicalize", |b| {
        b.iter(|| {
            let spec = JobSpec::from_json(black_box(SUBMIT_BODY)).expect("parse");
            black_box(spec.canonical())
        })
    });
}

fn bench_digest(c: &mut Criterion) {
    let spec = JobSpec::new("ssca2", DetectorKind::SubBlock(4), Scale::Standard, 773);
    c.bench_function("serve_cache/digest", |b| {
        b.iter(|| black_box(&spec).digest())
    });
}

fn bench_lookup_hit(c: &mut Criterion) {
    let cache = populated(512);
    let hot = 7u64.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    c.bench_function("serve_cache/lookup_hit", |b| {
        b.iter(|| cache.lookup(black_box(hot)).expect("resident"))
    });
}

fn bench_lookup_miss(c: &mut Criterion) {
    let cache = populated(512);
    c.bench_function("serve_cache/lookup_miss", |b| {
        b.iter(|| black_box(cache.lookup(black_box(0xdead_beef))))
    });
}

criterion_group!(
    benches,
    bench_canonicalize,
    bench_digest,
    bench_lookup_hit,
    bench_lookup_miss
);
criterion_main!(benches);
