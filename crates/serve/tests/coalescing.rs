//! Exactly-once fence for the job table, the server's only coalescing
//! point. Barrier-started clients POST the same fresh spec at once: one
//! of them queues the job (`x-asf-cache: miss`), the rest join it or hit
//! its cached result, the simulation runs once, and every client reads
//! the same bytes. A job that panics is answered `failed`, leaves nothing
//! in the cache, and a resubmission computes it again.

use asf_machine::fault::FaultRate;
use asf_serve::chaos::ServeChaosPlan;
use asf_serve::http::Client;
use asf_serve::runner::run_spec;
use asf_serve::server::{ServeOpts, Server};
use asf_serve::spec::JobSpec;
use std::sync::atomic::Ordering;
use std::sync::Barrier;
use std::time::{Duration, Instant};

const ROUNDS: u64 = 16;
const CLIENTS: usize = 8;

fn spec_body(seed: u64) -> String {
    format!(
        "{{\"bench\": \"ssca2\", \"detector\": \"sb4\", \"scale\": \"small\", \
         \"seed\": {seed}}}"
    )
}

/// Poll the result endpoint until it leaves the pending (202) state.
fn await_result(client: &mut Client, id: &str) -> (u16, String) {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let reply = client
            .get(&format!("/v1/jobs/{id}/result"))
            .expect("result");
        if reply.status != 202 {
            return (reply.status, reply.text());
        }
        assert!(Instant::now() < deadline, "job {id} still pending");
        std::thread::sleep(Duration::from_millis(2));
    }
}

#[test]
fn identical_concurrent_submissions_run_exactly_once() {
    let server = Server::start(ServeOpts::default()).expect("server starts");
    let state = server.state();
    for round in 0..ROUNDS {
        let body = spec_body(0xc0a1_e5ce + round);
        let spec = JobSpec::from_json(&body).expect("spec");
        let id = spec.digest_hex();
        let barrier = Barrier::new(CLIENTS);
        let answers: Vec<(String, String)> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..CLIENTS)
                .map(|_| {
                    let (addr, body, id, barrier) = (server.addr(), &body, &id, &barrier);
                    s.spawn(move || {
                        let mut client = Client::connect(&addr).expect("connect");
                        barrier.wait();
                        let submit = client.post("/v1/jobs", body).expect("submit");
                        assert_eq!(submit.status, 200, "{}", submit.text());
                        let cache = submit.header("x-asf-cache").unwrap_or("").to_string();
                        let (status, result) = await_result(&mut client, id);
                        assert_eq!(status, 200, "{result}");
                        (cache, result)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread"))
                .collect()
        });
        let misses = answers.iter().filter(|(cache, _)| cache == "miss").count();
        assert_eq!(
            misses, 1,
            "round {round}: exactly one submission queues the job"
        );
        for (cache, _) in &answers {
            assert!(
                cache == "miss" || cache == "join" || cache == "hit",
                "{cache:?}"
            );
        }
        let first = &answers[0].1;
        assert!(
            answers.iter().all(|(_, result)| result == first),
            "round {round}"
        );
        assert_eq!(**first, *run_spec(&spec, None).expect("direct run").body);
    }
    let inserts = state.cache.counters.inserts.load(Ordering::Relaxed);
    assert_eq!(state.jobs_completed.load(Ordering::Relaxed), ROUNDS);
    assert_eq!(inserts, ROUNDS);
    assert_eq!(
        state.jobs_submitted.load(Ordering::Relaxed),
        ROUNDS * CLIENTS as u64
    );
    let answered_without_a_job = state.submit_coalesced.load(Ordering::Relaxed)
        + state.submit_cache_hits.load(Ordering::Relaxed);
    assert_eq!(answered_without_a_job, ROUNDS * (CLIENTS as u64 - 1));
    server.shutdown();
}

/// Silence the panic hook for the injected panic (it is the point of the
/// test); restores default reporting on drop.
struct QuietInjectedPanics;

impl QuietInjectedPanics {
    fn install() -> QuietInjectedPanics {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let payload = info.payload();
            let message = payload
                .downcast_ref::<&str>()
                .copied()
                .or_else(|| payload.downcast_ref::<String>().map(String::as_str));
            if !message.is_some_and(|m| m.contains("chaos: injected")) {
                previous(info);
            }
        }));
        QuietInjectedPanics
    }
}

impl Drop for QuietInjectedPanics {
    fn drop(&mut self) {
        // Restoring mid-unwind would abort: the hook cannot be modified
        // from a panicking thread.
        if !std::thread::panicking() {
            let _ = std::panic::take_hook();
        }
    }
}

#[test]
fn panicked_job_is_not_cached_and_resubmission_recomputes() {
    let _quiet = QuietInjectedPanics::install();
    let plan = ServeChaosPlan {
        seed: 14,
        worker_panic: FaultRate::new(1, 2),
        ..ServeChaosPlan::none()
    };
    // A spec whose first execution panics and whose second does not:
    // chaos decisions are a pure function of (seed, digest, attempt).
    let (body, spec) = (0..256u64)
        .map(|seed| {
            let body = spec_body(seed);
            let spec = JobSpec::from_json(&body).expect("spec");
            (body, spec)
        })
        .find(|(_, spec)| {
            plan.job_decision(spec.digest(), 0).panic && !plan.job_decision(spec.digest(), 1).panic
        })
        .expect("some seed panics once");
    let id = spec.digest_hex();
    let server = Server::start(ServeOpts {
        chaos: plan,
        ..ServeOpts::default()
    })
    .expect("start");
    let state = server.state();
    let mut client = Client::connect(&server.addr()).expect("connect");

    let first = client.post("/v1/jobs", &body).expect("submit");
    assert_eq!(
        first.header("x-asf-cache"),
        Some("miss"),
        "{}",
        first.text()
    );
    let (status, text) = await_result(&mut client, &id);
    assert_eq!(status, 500, "{text}");
    assert!(text.contains("\"status\": \"failed\""), "{text}");
    assert_eq!(state.pool_health().panics, 1);
    assert_eq!(
        state.cache.counters.inserts.load(Ordering::Relaxed),
        0,
        "failure was cached"
    );

    // The failed entry is terminal, so the resubmission queues a fresh
    // job instead of joining or hitting, and this time it computes.
    let again = client.post("/v1/jobs", &body).expect("resubmit");
    assert_eq!(
        again.header("x-asf-cache"),
        Some("miss"),
        "{}",
        again.text()
    );
    let (status, text) = await_result(&mut client, &id);
    assert_eq!(status, 200, "{text}");
    assert_eq!(text, *run_spec(&spec, None).expect("direct run").body);
    assert_eq!(state.cache.counters.inserts.load(Ordering::Relaxed), 1);
    assert_eq!(state.jobs_failed.load(Ordering::Relaxed), 1);
    assert_eq!(state.jobs_completed.load(Ordering::Relaxed), 1);
    assert_eq!(state.chaos_panics_injected.load(Ordering::Relaxed), 1);
    server.shutdown();
}
