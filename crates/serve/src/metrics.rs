//! Service-side metrics: request counters by endpoint/status, latency
//! histograms, and correlation-id minting (DESIGN.md §18).
//!
//! The hot path records into [`AtomicHistogram`]s (three relaxed RMWs per
//! sample, no allocation); the endpoint/status counter map takes a mutex,
//! which is fine because it is touched once per HTTP response, not per
//! simulated access. Everything here is read-only at scrape time: the
//! `/v1/metrics/prometheus` endpoint renders a snapshot and cannot
//! perturb in-flight jobs.

use asf_stats::openmetrics::AtomicHistogram;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Accumulators behind `GET /v1/metrics/prometheus`.
pub struct ServeMetrics {
    started: Instant,
    /// `(endpoint, status)` → responses sent. BTreeMap so exposition
    /// order is deterministic.
    requests: Mutex<BTreeMap<(&'static str, u16), u64>>,
    /// Wall time from request parse to response write, nanoseconds.
    pub http_request_ns: AtomicHistogram,
    /// Submission → terminal phase, nanoseconds.
    pub job_e2e_ns: AtomicHistogram,
    /// Submission → worker pickup, nanoseconds.
    pub queue_wait_ns: AtomicHistogram,
    /// Worker compute time (cache lookup, simulation, insert), nanoseconds.
    pub execute_ns: AtomicHistogram,
    request_seq: AtomicU64,
}

impl Default for ServeMetrics {
    fn default() -> ServeMetrics {
        ServeMetrics::new()
    }
}

impl ServeMetrics {
    /// Fresh accumulators; `started` anchors `uptime_ms`.
    pub fn new() -> ServeMetrics {
        ServeMetrics {
            started: Instant::now(),
            requests: Mutex::new(BTreeMap::new()),
            http_request_ns: AtomicHistogram::new(),
            job_e2e_ns: AtomicHistogram::new(),
            queue_wait_ns: AtomicHistogram::new(),
            execute_ns: AtomicHistogram::new(),
            request_seq: AtomicU64::new(0),
        }
    }

    /// Monotonic milliseconds since the server started.
    pub fn uptime_ms(&self) -> u64 {
        self.started.elapsed().as_millis() as u64
    }

    /// Mint the next request correlation id: `pid` and a process-unique
    /// sequence number, hex. Returned to clients as `x-asf-request-id`
    /// and stamped on every log line for the request.
    pub fn next_request_id(&self) -> String {
        let seq = self.request_seq.fetch_add(1, Ordering::Relaxed);
        format!("{:x}-{:x}", std::process::id(), seq)
    }

    /// Count one HTTP response and record its duration.
    pub fn observe_request(&self, endpoint: &'static str, status: u16, elapsed_ns: u64) {
        self.http_request_ns.record(elapsed_ns);
        let mut map = self.requests.lock().expect("metrics lock");
        *map.entry((endpoint, status)).or_insert(0) += 1;
    }

    /// Snapshot of `(endpoint, status, count)` rows in deterministic
    /// order.
    pub fn request_counts(&self) -> Vec<(&'static str, u16, u64)> {
        self.requests
            .lock()
            .expect("metrics lock")
            .iter()
            .map(|(&(e, s), &c)| (e, s, c))
            .collect()
    }

    /// Total HTTP responses counted across all endpoints/statuses.
    pub fn total_requests(&self) -> u64 {
        self.requests.lock().expect("metrics lock").values().sum()
    }
}

/// Normalise a request path into the bounded endpoint label set used by
/// `asf_http_requests_total` (raw paths would explode label cardinality
/// and leak job digests into the exposition).
pub fn endpoint_label(method: &str, segments: &[&str]) -> &'static str {
    match (method, segments) {
        ("GET", ["v1", "healthz"]) => "healthz",
        ("POST", ["v1", "jobs"]) => "submit",
        ("GET", ["v1", "jobs", _]) => "status",
        ("DELETE", ["v1", "jobs", _]) => "cancel",
        ("GET", ["v1", "jobs", _, "result"]) => "result",
        ("GET", ["v1", "jobs", _, "metrics"]) => "job_metrics",
        ("GET", ["v1", "jobs", _, "trace"]) => "job_trace",
        ("GET", ["v1", "cache", "stats"]) => "cache_stats",
        ("GET", ["v1", "metrics", "prometheus"]) => "metrics_prometheus",
        ("GET", ["v1", "flightrec"]) => "flightrec",
        ("POST", ["v1", "shutdown"]) => "shutdown",
        _ => "other",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_counts_accumulate_per_endpoint_status() {
        let m = ServeMetrics::new();
        m.observe_request("submit", 200, 1_000);
        m.observe_request("submit", 200, 2_000);
        m.observe_request("submit", 429, 500);
        m.observe_request("healthz", 200, 100);
        let rows = m.request_counts();
        assert_eq!(rows.len(), 3);
        assert!(rows.contains(&("submit", 200, 2)));
        assert!(rows.contains(&("submit", 429, 1)));
        assert_eq!(m.total_requests(), 4);
        assert_eq!(m.http_request_ns.snapshot().count(), 4);
    }

    #[test]
    fn request_ids_are_unique_and_pid_prefixed() {
        let m = ServeMetrics::new();
        let a = m.next_request_id();
        let b = m.next_request_id();
        assert_ne!(a, b);
        let prefix = format!("{:x}-", std::process::id());
        assert!(a.starts_with(&prefix), "{a}");
    }

    #[test]
    fn endpoint_labels_are_bounded() {
        assert_eq!(endpoint_label("POST", &["v1", "jobs"]), "submit");
        assert_eq!(endpoint_label("GET", &["v1", "jobs", "abc", "result"]), "result");
        assert_eq!(endpoint_label("GET", &["v1", "metrics", "prometheus"]), "metrics_prometheus");
        assert_eq!(endpoint_label("PUT", &["v1", "jobs"]), "other");
        assert_eq!(endpoint_label("GET", &["favicon.ico"]), "other");
    }
}
