//! `serve-mix`: an in-process `asf_serve::Server` driven by a closed loop
//! of keep-alive clients. Each request submits a job and then polls its
//! result at a fixed interval until the body arrives, as asf-serve callers
//! do.
//!
//! Set-up starts the server and warms its cache with every warm-set spec
//! (10 kernels × 3 detectors × 2 seeds at Standard scale); it is repeated
//! and the last server is kept. In the timed phase 95% of requests draw a
//! warm spec (a cache hit: `serve.http`, `serve.spec`, `serve.cache`) and
//! 5% name a fresh Small-scale spec (a miss: cache write, `serve.pool`,
//! `serve.runner` and a simulation). Every 200 body is compared with
//! `runner::result_body` of a direct run of the same spec, computed
//! outside the timed phase.

use crate::grid::DETECTORS;
use crate::report::{self, Ledger, Metrics, Outcome, Spans};
use crate::{in_order, overhead, Opts, Size, E2E_METRICS, LAYER_METRICS};
use asf_machine::machine::{Machine, SimConfig};
use asf_mem::rng::SimRng;
use asf_serve::cache::{CacheConfig, CachedResult, ResultCache};
use asf_serve::http::Client;
use asf_serve::runner::result_body;
use asf_serve::server::{ServeOpts, Server};
use asf_serve::spec::{JobSpec, Submission};
use asf_stats::digest::{bytes_digest, run_stats_digest};
use asf_stats::openmetrics::parse_exposition;
use asf_stats::run::RunStats;
use asf_stats::slog::Logger;
use asf_workloads::Scale;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// Interval between result polls of a job that is not done yet: the one
/// the repository's own submit-and-wait client (`loadtest`) uses. It floors
/// miss latency.
pub const POLL_INTERVAL: Duration = Duration::from_millis(2);

/// Share of timed requests that draw from the warm set, in percent.
pub const HIT_PCT: u64 = 95;

/// RNG stream of the request mix.
const MIX_STREAM: u64 = 0x5e57_e000_0000_0001;
/// RNG stream of the fresh specs.
const FRESH_STREAM: u64 = 0x5e57_e000_0000_0002;

/// Warm-set and fresh-spec shapes of each size.
struct Shape {
    kernels: usize,
    warm_seeds: u64,
    warm_scale: Scale,
    fresh_scale: Scale,
    setups: usize,
    min_requests: usize,
    /// Request whose completion reads the process high-water mark.
    rss_at: usize,
}

fn shape(size: Size) -> Shape {
    match size {
        Size::Full => Shape {
            kernels: 10,
            warm_seeds: 2,
            warm_scale: Scale::Standard,
            fresh_scale: Scale::Small,
            setups: 3,
            min_requests: 0,
            rss_at: 20_000,
        },
        Size::Tiny => Shape {
            kernels: 2,
            warm_seeds: 1,
            warm_scale: Scale::Small,
            fresh_scale: Scale::Small,
            setups: 1,
            min_requests: 120,
            rss_at: 60,
        },
    }
}

/// The warm set: every (kernel, detector, seed) combination.
fn warm_specs(size: Size, seed: u64) -> Vec<JobSpec> {
    let sh = shape(size);
    let names = asf_workloads::names(sh.warm_scale);
    let mut out = Vec::new();
    for name in &names[..sh.kernels] {
        for det in DETECTORS {
            for k in 0..sh.warm_seeds {
                out.push(JobSpec::new(
                    name,
                    det,
                    sh.warm_scale,
                    seed.wrapping_mul(sh.warm_seeds).wrapping_add(k),
                ));
            }
        }
    }
    out
}

/// Fresh spec number `i`: unique within a run (its seed embeds `i`).
fn fresh_spec(size: Size, seed: u64, i: usize) -> JobSpec {
    let sh = shape(size);
    let mut rng = SimRng::derive(seed ^ FRESH_STREAM, i as u64);
    let names = asf_workloads::names(sh.fresh_scale);
    let name = names[rng.below_usize(sh.kernels)];
    let det = DETECTORS[rng.below_usize(DETECTORS.len())];
    JobSpec::new(name, det, sh.fresh_scale, (seed << 32) ^ i as u64)
}

/// What request number `i` asks for: a warm-set index, or a fresh spec.
fn request_kind(seed: u64, i: usize, warm: usize) -> Option<usize> {
    let mut rng = SimRng::derive(seed ^ MIX_STREAM, i as u64);
    (rng.below(100) < HIT_PCT).then(|| rng.below_usize(warm))
}

/// A direct run's result body and statistics.
type Direct = Result<(String, RunStats), String>;

/// Direct run of a spec: its result body and statistics.
fn direct(spec: &JobSpec) -> Direct {
    let w = asf_workloads::by_name(&spec.bench, spec.scale).ok_or("unknown kernel")?;
    let out = Machine::try_run(
        w.as_ref(),
        SimConfig::paper_seeded(spec.detector, spec.seed),
    )
    .map_err(|e| e.to_string())?;
    Ok((result_body(spec, &out.stats), out.stats))
}

/// Direct runs of `specs` on `threads` threads, in input order.
fn direct_all(specs: &[JobSpec], threads: usize) -> Vec<Direct> {
    let next = AtomicUsize::new(0);
    let mut slots: Vec<(usize, Direct)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                s.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(spec) = specs.get(i) else { break mine };
                        mine.push((i, direct(spec)));
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("direct-run thread panicked"))
            .collect()
    });
    slots.sort_by_key(|(i, _)| *i);
    slots.into_iter().map(|(_, r)| r).collect()
}

/// One finished request.
struct Rec {
    /// Warm-set index, or `None` for a fresh spec.
    warm: Option<usize>,
    /// Request number (names the fresh spec).
    i: usize,
    start: Instant,
    submit_end: Instant,
    result_start: Instant,
    end: Instant,
    /// The submit was answered from the cache.
    hit: bool,
    polls: u32,
    /// Final status was 200.
    ok: bool,
    /// Digest of the 200 body.
    body: u64,
}

/// Issue one request: submit `body`, then poll `/v1/jobs/<id>/result`
/// until it is servable. An I/O error is recorded as a failed request and
/// reported as `false` (the connection is no longer usable).
fn request(
    client: &mut Client,
    warm: Option<usize>,
    i: usize,
    body: &str,
    id: &str,
) -> (Rec, bool) {
    let start = Instant::now();
    let mut rec = Rec {
        warm,
        i,
        start,
        submit_end: start,
        result_start: start,
        end: start,
        hit: false,
        polls: 0,
        ok: false,
        body: 0,
    };
    let status = (|| -> std::io::Result<()> {
        let sub = client.post("/v1/jobs", body)?;
        rec.submit_end = Instant::now();
        rec.result_start = rec.submit_end;
        if sub.status != 200 {
            return Ok(());
        }
        rec.hit = sub.header("x-asf-cache") == Some("hit");
        let path = format!("/v1/jobs/{id}/result");
        loop {
            rec.result_start = Instant::now();
            let r = client.get(&path)?;
            if r.status == 202 {
                rec.polls += 1;
                std::thread::sleep(POLL_INTERVAL);
                continue;
            }
            rec.ok = r.status == 200;
            rec.body = bytes_digest(&r.body);
            return Ok(());
        }
    })();
    rec.end = Instant::now();
    if status.is_err() {
        rec.ok = false;
    }
    (rec, status.is_ok())
}

/// Run requests `next..` on one connection until `stop`; warm specs are
/// pre-rendered, fresh ones are built on the fly.
#[allow(clippy::too_many_arguments)]
fn client_loop(
    addr: &str,
    size: Size,
    seed: u64,
    warm: &[(JobSpec, String)],
    next: &AtomicUsize,
    stop: Instant,
    min_requests: usize,
    rss: (usize, &OnceLock<f64>),
) -> Vec<Rec> {
    let mut recs = Vec::new();
    let mut client = Client::connect(addr);
    loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        if Instant::now() >= stop && i >= min_requests {
            break;
        }
        let Ok(c) = client.as_mut() else {
            // No connection: one failed request, and this client stops.
            recs.push(request_failed(i));
            break;
        };
        let kind = request_kind(seed, i, warm.len());
        let (rec, usable) = match kind {
            Some(w) => request(c, kind, i, &warm[w].1, &warm[w].0.digest_hex()),
            None => {
                let spec = fresh_spec(size, seed, i);
                request(c, kind, i, &spec.canonical(), &spec.digest_hex())
            }
        };
        if i == rss.0 {
            // A fixed amount of work, so the figure does not grow with the
            // number of requests a faster build fits in.
            let _ = rss.1.set(report::peak_rss_mb());
        }
        if !usable {
            client = Client::connect(addr);
        }
        recs.push(rec);
    }
    recs
}

/// A request that could not be sent.
fn request_failed(i: usize) -> Rec {
    let now = Instant::now();
    Rec {
        warm: None,
        i,
        start: now,
        submit_end: now,
        result_start: now,
        end: now,
        hit: false,
        polls: 0,
        ok: false,
        body: 0,
    }
}

/// Run `warm` through `clients` connections, one request per spec.
fn warm_up(addr: &str, specs: &[(JobSpec, String)], clients: usize) -> Vec<Rec> {
    let next = AtomicUsize::new(0);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                s.spawn(|| {
                    let mut recs = Vec::new();
                    let mut client = Client::connect(addr);
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some((spec, body)) = specs.get(i) else {
                            break recs;
                        };
                        recs.push(match client.as_mut() {
                            Ok(c) => request(c, Some(i), i, body, &spec.digest_hex()).0,
                            Err(_) => Rec {
                                warm: Some(i),
                                ..request_failed(i)
                            },
                        });
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("warm-up client panicked"))
            .collect()
    })
}

/// Timed-phase quantities. The rates count the requests that completed in
/// the fastest quarter of the phase's whole seconds (those that completed
/// the most requests), as the other workloads keep their fastest runs:
/// another tenant's load on the shared host comes and goes over seconds
/// and only ever slows the loop. A phase shorter than four seconds counts
/// whole. The latency quantiles take every request: the fastest seconds
/// hold fewer misses than the mix, and the p99 falls in the miss class.
fn e2e_of(recs: &[Rec], accesses: &BTreeMap<usize, u64>, t0: Instant, secs: f64) -> Metrics {
    let whole = secs as usize;
    let (fastest, fastest_secs): (Vec<&Rec>, f64) = if whole < 4 {
        (recs.iter().collect(), secs)
    } else {
        let mut windows: Vec<Vec<&Rec>> = vec![Vec::new(); whole];
        for r in recs {
            if let Some(w) = windows.get_mut((r.end - t0).as_secs_f64() as usize) {
                w.push(r);
            }
        }
        windows.sort_by_key(|w| std::cmp::Reverse(w.len()));
        let best = whole / 4;
        (
            windows.into_iter().take(best).flatten().collect(),
            best as f64,
        )
    };
    let lat: Vec<f64> = recs.iter().map(|r| report::ms(r.end - r.start)).collect();
    let acc: u64 = fastest
        .iter()
        .filter(|r| r.warm.is_none())
        .filter_map(|r| accesses.get(&r.i))
        .sum();
    let mut m = Metrics::default();
    m.put(
        "sim_macc_per_s",
        report::ratio(acc as f64, fastest_secs) / 1e6,
        "Macc/s",
    );
    m.put(
        "jobs_per_s",
        report::ratio(fastest.len() as f64, fastest_secs),
        "1/s",
    );
    m.put("job_p50_ms", report::quantile(&lat, 0.50), "ms");
    m.put("job_p99_ms", report::quantile(&lat, 0.99), "ms");
    m
}

/// Mean nanoseconds of `f` over `items`, repeated until ~`budget` elapses.
fn time_calls<T>(items: &[T], budget: Duration, mut f: impl FnMut(&T)) -> f64 {
    if items.is_empty() {
        return 0.0;
    }
    let t0 = Instant::now();
    let mut calls = 0u64;
    while calls == 0 || t0.elapsed() < budget {
        for x in items {
            f(std::hint::black_box(x));
        }
        calls += items.len() as u64;
    }
    t0.elapsed().as_nanos() as f64 / calls as f64
}

/// Run the workload.
pub fn run(opts: &Opts) -> Result<Outcome, String> {
    let sh = shape(opts.size);
    let n = report::clamp_threads();
    let mut out = Outcome::default();
    // Three spans a request: the first ~5k requests are kept.
    let mut spans = Spans::new(1 << 14);
    let warm: Vec<(JobSpec, String)> = warm_specs(opts.size, opts.seed)
        .into_iter()
        .map(|s| {
            let body = s.canonical();
            (s, body)
        })
        .collect();
    let warm_specs: Vec<JobSpec> = warm.iter().map(|(s, _)| s.clone()).collect();

    // Set-up, repeated: start a server and warm its cache. The last one
    // serves the timed phase.
    let mut setups = Vec::new();
    let mut warm_recs = Vec::new();
    let mut server = None;
    for _ in 0..sh.setups {
        if let Some(s) = server.take() {
            Server::shutdown(s);
        }
        let t0 = Instant::now();
        let s = Server::start(ServeOpts {
            workers: n,
            log: Logger::disabled(),
            ..ServeOpts::default()
        })
        .map_err(|e| format!("serve-mix: server start: {e}"))?;
        warm_recs.extend(warm_up(&s.addr(), &warm, n));
        setups.push(t0.elapsed().as_secs_f64());
        server = Some(s);
    }
    let server = server.expect("at least one set-up");

    // Expected bodies of the warm set, outside the timed phase.
    let expected: Vec<Direct> = direct_all(&warm_specs, n);
    let expected_digest: Vec<Option<u64>> = expected
        .iter()
        .map(|e| e.as_ref().ok().map(|(b, _)| bytes_digest(b.as_bytes())))
        .collect();

    // Timed phase: a closed loop of `n` keep-alive clients.
    let next = AtomicUsize::new(0);
    let rss_at = OnceLock::new();
    let t0 = Instant::now();
    let stop = t0 + opts.budget();
    let recs: Vec<Rec> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..n)
            .map(|_| {
                let (addr, warm, next, rss) = (server.addr(), &warm, &next, (sh.rss_at, &rss_at));
                s.spawn(move || {
                    client_loop(
                        &addr,
                        opts.size,
                        opts.seed,
                        warm,
                        next,
                        stop,
                        sh.min_requests,
                        rss,
                    )
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let t_end = recs.iter().map(|r| r.end).max().unwrap_or(t0);
    let timed_secs = (t_end - t0).as_secs_f64().max(1e-9);
    let peak_rss = rss_at.get().copied().unwrap_or_else(report::peak_rss_mb);

    // Server-side counters, read after the timed phase.
    let (prom, stats) = {
        let mut c =
            Client::connect(&server.addr()).map_err(|e| format!("serve-mix: scrape: {e}"))?;
        let prom = c
            .get("/v1/metrics/prometheus")
            .map(|r| r.text())
            .unwrap_or_default();
        let stats = c
            .get("/v1/cache/stats")
            .map(|r| r.text())
            .unwrap_or_default();
        (prom, stats)
    };
    Server::shutdown(server);

    // Correctness: direct runs of every fresh spec, outside the timed phase.
    let fresh_idx: Vec<usize> = recs
        .iter()
        .filter(|r| r.warm.is_none() && r.ok)
        .map(|r| r.i)
        .collect();
    let fresh_specs: Vec<JobSpec> = fresh_idx
        .iter()
        .map(|&i| fresh_spec(opts.size, opts.seed, i))
        .collect();
    let fresh_runs = direct_all(&fresh_specs, n);
    let mut fresh_digest = BTreeMap::new();
    let mut accesses = BTreeMap::new();
    for (&i, r) in fresh_idx.iter().zip(&fresh_runs) {
        if let Ok((body, stats)) = r {
            fresh_digest.insert(i, bytes_digest(body.as_bytes()));
            accesses.insert(i, stats.l1_hits + stats.l1_misses);
        }
    }
    let ledger = &mut out.ledger;
    for r in warm_recs.iter().chain(&recs) {
        let want = match r.warm {
            Some(w) => expected_digest.get(w).copied().flatten(),
            None => fresh_digest.get(&r.i).copied(),
        };
        check_rec(ledger, r, want);
    }

    let mut e2e = e2e_of(&recs, &accesses, t0, timed_secs);
    e2e.put("setup_s", report::median(&setups), "s");
    e2e.put("peak_rss_mb", peak_rss, "MB");
    let removed = removed_from(&warm_specs, &expected);
    e2e.put("false_conflicts_removed_pct", removed, "%");
    out.metrics = if opts.trace {
        let mut l = layer_metrics(&recs, &prom, &stats);
        direct_layer_timings(&mut l, &warm, &expected);
        // Set-up and the timed phase run the same code traced or not: the
        // spans are built from the request records afterwards, and the
        // scrapes and direct layer timings follow the timed phase. So
        // tracing adds nothing to them, and the overhead is 0 by
        // construction.
        overhead(&mut l, &e2e, &e2e);
        record_spans(&mut spans, &recs);
        out.spans = spans;
        in_order(LAYER_METRICS, &l)
    } else {
        in_order(E2E_METRICS, &e2e)
    };
    out.config.push(("server_workers", n.to_string()));
    out.config.push(("client_connections", n.to_string()));
    out.config
        .push(("poll_interval_us", POLL_INTERVAL.as_micros().to_string()));
    out.config.push(("hit_pct", HIT_PCT.to_string()));
    out.config.push(("warm_specs", warm.len().to_string()));
    out.config.push(("timed_requests", recs.len().to_string()));
    Ok(out)
}

/// A request is correct when it ended in a 200 whose body equals the
/// direct run's.
fn check_rec(ledger: &mut Ledger, r: &Rec, want: Option<u64>) {
    ledger.check(r.ok && want == Some(r.body), || {
        format!(
            "serve-mix request {} (warm {:?}): ok={} body {:016x} expected {want:x?}",
            r.i, r.warm, r.ok, r.body
        )
    });
}

/// The paper's headline over the warm set's baseline/sb4 pairs.
fn removed_from(specs: &[JobSpec], runs: &[Direct]) -> f64 {
    let (mut base, mut sb) = (0, 0);
    for (spec, r) in specs.iter().zip(runs) {
        if let Ok((_, s)) = r {
            match spec.detector.label().as_str() {
                "baseline" => base += s.conflicts.false_total(),
                "sb4" => sb += s.conflicts.false_total(),
                _ => {}
            }
        }
    }
    report::removed_pct(base, sb)
}

/// Client-side and exposition-derived serve metrics.
fn layer_metrics(all: &[Rec], prom: &str, stats: &str) -> Metrics {
    let mut l = Metrics::default();
    let us = |d: Duration| d.as_secs_f64() * 1e6;
    let submit: Vec<f64> = all.iter().map(|r| us(r.submit_end - r.start)).collect();
    let result: Vec<f64> = all
        .iter()
        .filter(|r| r.ok)
        .map(|r| us(r.end - r.result_start))
        .collect();
    l.put("serve.http.submit_rtt_us", report::mean(&submit), "us");
    l.put("serve.http.result_rtt_us", report::mean(&result), "us");
    let hits: Vec<f64> = all
        .iter()
        .filter(|r| r.hit)
        .map(|r| us(r.end - r.start))
        .collect();
    let misses: Vec<&Rec> = all.iter().filter(|r| !r.hit).collect();
    let miss_ms: Vec<f64> = misses.iter().map(|r| report::ms(r.end - r.start)).collect();
    l.put("serve.hit_p50_us", report::quantile(&hits, 0.50), "us");
    l.put("serve.hit_p99_us", report::quantile(&hits, 0.99), "us");
    l.put("serve.miss_p50_ms", report::quantile(&miss_ms, 0.50), "ms");
    l.put("serve.miss_p99_ms", report::quantile(&miss_ms, 0.99), "ms");
    let polls: f64 = misses.iter().map(|r| f64::from(r.polls)).sum();
    l.put(
        "serve.polls_per_miss",
        report::ratio(polls, misses.len() as f64),
        "count",
    );
    if let Ok(x) = parse_exposition(prom) {
        let mean = |name: &str| {
            report::ratio(
                x.sum(&format!("{name}_sum")),
                x.sum(&format!("{name}_count")),
            )
        };
        l.put(
            "serve.http.server_ns",
            mean("asf_http_request_duration_ns"),
            "ns",
        );
        l.put(
            "serve.pool.queue_wait_ms",
            mean("asf_job_queue_wait_ns") / 1e6,
            "ms",
        );
        l.put(
            "serve.pool.execute_ms",
            mean("asf_job_execute_ns") / 1e6,
            "ms",
        );
    }
    if let Ok(v) = asf_stats::json::parse(stats) {
        let get = |k: &str| v.get(k).and_then(|x| x.as_u64().ok()).unwrap_or(0) as f64;
        let (submitted, hits, coalesced, rejected) = (
            get("jobs_submitted"),
            get("submit_cache_hits"),
            get("submit_coalesced"),
            get("jobs_rejected"),
        );
        l.put("serve.cache.hits", hits, "count");
        l.put("serve.coalesced", coalesced, "count");
        l.put("serve.rejected", rejected, "count");
        l.put(
            "serve.queued",
            (submitted - hits - coalesced - rejected).max(0.0),
            "count",
        );
        l.put("serve.hit_rate", report::ratio(hits, submitted), "ratio");
    }
    l
}

/// Direct calls into `serve.spec`, `serve.cache` and `serve.runner` on the
/// workload's own bodies and results, timed from outside the layers.
fn direct_layer_timings(l: &mut Metrics, warm: &[(JobSpec, String)], expected: &[Direct]) {
    let budget = Duration::from_millis(50);
    let bodies: Vec<&str> = warm.iter().map(|(_, b)| b.as_str()).collect();
    let parse_ns = time_calls(&bodies, budget, |b| {
        if let Ok(s) = Submission::from_json(b) {
            std::hint::black_box((s.spec.canonical(), s.spec.digest()));
        }
    });
    l.put("serve.spec.parse_ns", parse_ns, "ns");
    let done: Vec<(&JobSpec, &String, &RunStats)> = warm
        .iter()
        .zip(expected)
        .filter_map(|((spec, _), r)| r.as_ref().ok().map(|(body, stats)| (spec, body, stats)))
        .collect();
    if let Ok(cache) = ResultCache::new(CacheConfig::default()) {
        for (spec, body, stats) in &done {
            let r = CachedResult {
                spec_digest: spec.digest(),
                stats_digest: run_stats_digest(stats),
                body: Arc::new((*body).clone()),
                metrics: None,
                trace: None,
            };
            cache.insert(spec.digest(), r);
        }
        let digests: Vec<u64> = done.iter().map(|(s, _, _)| s.digest()).collect();
        let lookup_ns = time_calls(&digests, budget, |d| {
            std::hint::black_box(cache.lookup(*d));
        });
        l.put("serve.cache.lookup_ns", lookup_ns, "ns");
    }
    let body_ns = time_calls(&done, budget, |(spec, _, stats)| {
        std::hint::black_box(result_body(spec, stats));
    });
    l.put("serve.runner.result_body_ns", body_ns, "ns");
}

/// One span per request, with its submit and final result fetch.
fn record_spans(spans: &mut Spans, recs: &[Rec]) {
    let mut sorted: Vec<&Rec> = recs.iter().collect();
    sorted.sort_by_key(|r| r.start);
    for r in sorted {
        let label = format!("{} polls={}", if r.hit { "hit" } else { "miss" }, r.polls);
        let id = spans.record(0, "request", label, r.start, r.end);
        spans.record(id, "http.submit", String::new(), r.start, r.submit_end);
        spans.record(id, "http.result", String::new(), r.result_start, r.end);
    }
}
