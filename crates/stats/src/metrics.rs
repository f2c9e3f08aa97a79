//! Metrics registry: named monotonic counters, cycle-bucketed interval
//! gauges, and a wall-time phase profiler.
//!
//! This is the accumulator side of the observability layer (DESIGN.md §13).
//! The simulator registers counters by name up front and holds on to the
//! returned integer handles, so the hot path pays one bounds-checked index
//! per increment — no string hashing, no allocation. The whole registry
//! lives behind an `Option` in the machine; when observability is disabled
//! the simulator never constructs one and event sites cost a single branch,
//! mirroring the `FaultPlan::none()` bit-transparency contract.
//!
//! Everything here is deliberately decoupled from the simulation: the
//! registry never touches [`crate::run::RunStats`], draws no randomness and
//! reads simulated cycles only as bucket keys, so enabling it cannot perturb
//! a run. Wall-clock durations recorded by [`PhaseProfiler`] are inherently
//! nondeterministic and are therefore kept out of `RunStats` entirely.

use crate::json::escape;
use crate::openmetrics::{Histogram, LOG2_BUCKETS};
use std::fmt::Write as _;
use std::time::Duration;

/// Handle to a registered monotonic counter.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CounterId(usize);

/// Handle to a registered cycle-bucketed interval gauge.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GaugeId(usize);

/// Named monotonic counters plus cycle-bucketed interval gauges.
///
/// Counters only go up; gauges bucket events by simulated cycle into
/// fixed-width windows (e.g. "conflicts per 100k cycles").
#[derive(Clone, Debug, Default)]
pub struct MetricsRegistry {
    names: Vec<String>,
    values: Vec<u64>,
    gauge_names: Vec<String>,
    gauge_widths: Vec<u64>,
    gauge_buckets: Vec<Vec<u64>>,
}

impl MetricsRegistry {
    /// Create an empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Register (or look up) a counter by name and return its handle.
    ///
    /// Registering the same name twice returns the same handle, so call
    /// sites don't need to coordinate.
    pub fn counter(&mut self, name: &str) -> CounterId {
        if let Some(i) = self.names.iter().position(|n| n == name) {
            return CounterId(i);
        }
        self.names.push(name.to_string());
        self.values.push(0);
        CounterId(self.names.len() - 1)
    }

    /// Increment a counter by one.
    #[inline]
    pub fn inc(&mut self, id: CounterId) {
        self.values[id.0] += 1;
    }

    /// Increment a counter by `n`.
    #[inline]
    pub fn add(&mut self, id: CounterId, n: u64) {
        self.values[id.0] += n;
    }

    /// Current value of a counter.
    pub fn get(&self, id: CounterId) -> u64 {
        self.values[id.0]
    }

    /// Current value of a counter looked up by name, if registered.
    pub fn get_by_name(&self, name: &str) -> Option<u64> {
        self.names.iter().position(|n| n == name).map(|i| self.values[i])
    }

    /// Number of registered counters.
    pub fn counter_count(&self) -> usize {
        self.names.len()
    }

    /// Iterate `(name, value)` over all counters in registration order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.names.iter().map(String::as_str).zip(self.values.iter().copied())
    }

    /// Register (or look up) an interval gauge bucketing events into
    /// windows of `width` cycles. Re-registering a name returns the
    /// existing handle (the original width wins).
    pub fn interval(&mut self, name: &str, width: u64) -> GaugeId {
        assert!(width > 0, "interval width must be positive");
        if let Some(i) = self.gauge_names.iter().position(|n| n == name) {
            return GaugeId(i);
        }
        self.gauge_names.push(name.to_string());
        self.gauge_widths.push(width);
        self.gauge_buckets.push(Vec::new());
        GaugeId(self.gauge_names.len() - 1)
    }

    /// Record one event at simulated `cycle` into its gauge bucket.
    #[inline]
    pub fn bump(&mut self, id: GaugeId, cycle: u64) {
        let bucket = (cycle / self.gauge_widths[id.0]) as usize;
        let buckets = &mut self.gauge_buckets[id.0];
        if buckets.len() <= bucket {
            buckets.resize(bucket + 1, 0);
        }
        buckets[bucket] += 1;
    }

    /// Iterate `(name, width, buckets)` over all interval gauges.
    pub fn intervals(&self) -> impl Iterator<Item = (&str, u64, &[u64])> {
        self.gauge_names
            .iter()
            .zip(self.gauge_widths.iter())
            .zip(self.gauge_buckets.iter())
            .map(|((n, &w), b)| (n.as_str(), w, b.as_slice()))
    }

    /// Serialise counters and gauges as a JSON object:
    /// `{"counters":{..},"intervals":{name:{"width":w,"buckets":[..]}}}`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"counters\": {");
        for (i, (name, value)) in self.counters().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\n    {}: {}", escape(name), value);
        }
        out.push_str("\n  },\n  \"intervals\": {");
        for (i, (name, width, buckets)) in self.intervals().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\n    {}: {{\"width\": {}, \"buckets\": [", escape(name), width);
            for (j, b) in buckets.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                let _ = write!(out, "{b}");
            }
            out.push_str("]}");
        }
        out.push_str("\n  }\n}\n");
        out
    }
}

/// Handle to a registered profiling phase.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PhaseId(usize);

/// Wall-time-per-phase accumulator for hot-path profiling hooks.
///
/// Each recorded sample lands in the phase's [`Histogram`] (call count,
/// total nanoseconds, log2(ns) buckets) and its running maximum. Samples
/// come from `std::time::Instant`, so totals vary run to run — keep
/// reports out of anything digest-pinned.
#[derive(Clone, Debug, Default)]
pub struct PhaseProfiler {
    names: Vec<String>,
    hist: Vec<Histogram>,
    max_ns: Vec<u64>,
}

impl PhaseProfiler {
    /// Create an empty profiler.
    pub fn new() -> PhaseProfiler {
        PhaseProfiler::default()
    }

    /// Register (or look up) a phase by name.
    pub fn phase(&mut self, name: &str) -> PhaseId {
        if let Some(i) = self.names.iter().position(|n| n == name) {
            return PhaseId(i);
        }
        self.names.push(name.to_string());
        self.hist.push(Histogram::new());
        self.max_ns.push(0);
        PhaseId(self.names.len() - 1)
    }

    /// Record one sample for a phase.
    #[inline]
    pub fn record(&mut self, id: PhaseId, elapsed: Duration) {
        let ns = u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX);
        self.hist[id.0].record(ns);
        self.max_ns[id.0] = self.max_ns[id.0].max(ns);
    }

    /// Number of registered phases.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// True when no phases are registered.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Iterate `(name, count, total_ns, max_ns, histogram)` per phase.
    pub fn phases(&self) -> impl Iterator<Item = (&str, u64, u64, u64, &[u64; LOG2_BUCKETS])> {
        (0..self.names.len()).map(|i| {
            let h = &self.hist[i];
            (self.names[i].as_str(), h.count(), h.sum(), self.max_ns[i], h.buckets())
        })
    }

    /// Mean nanoseconds per sample for a phase (0 when never sampled).
    pub fn mean_ns(&self, id: PhaseId) -> u64 {
        let h = &self.hist[id.0];
        h.sum().checked_div(h.count()).unwrap_or(0)
    }

    /// Serialise as a JSON object:
    /// `{name:{"count":..,"total_ns":..,"max_ns":..,"hist_log2_ns":[..]}}`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, count, total, max, hist)) in self.phases().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n  {}: {{\"count\": {}, \"total_ns\": {}, \"max_ns\": {}, \"hist_log2_ns\": [",
                escape(name),
                count,
                total,
                max
            );
            for (j, b) in hist.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                let _ = write!(out, "{b}");
            }
            out.push_str("]}");
        }
        out.push_str("\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    #[test]
    fn counters_register_and_accumulate() {
        let mut r = MetricsRegistry::new();
        let a = r.counter("tx.commits");
        let b = r.counter("tx.aborts");
        let a2 = r.counter("tx.commits");
        assert_eq!(a, a2, "re-registration returns the same handle");
        r.inc(a);
        r.add(a, 4);
        r.inc(b);
        assert_eq!(r.get(a), 5);
        assert_eq!(r.get(b), 1);
        assert_eq!(r.get_by_name("tx.commits"), Some(5));
        assert_eq!(r.get_by_name("nope"), None);
        assert_eq!(r.counter_count(), 2);
        let all: Vec<_> = r.counters().collect();
        assert_eq!(all, vec![("tx.commits", 5), ("tx.aborts", 1)]);
    }

    #[test]
    fn intervals_bucket_by_cycle() {
        let mut r = MetricsRegistry::new();
        let g = r.interval("conflicts", 100);
        r.bump(g, 0);
        r.bump(g, 99);
        r.bump(g, 100);
        r.bump(g, 350);
        let (name, width, buckets) = r.intervals().next().unwrap();
        assert_eq!(name, "conflicts");
        assert_eq!(width, 100);
        assert_eq!(buckets, &[2, 1, 0, 1]);
    }

    #[test]
    fn snapshot_json_parses() {
        let mut r = MetricsRegistry::new();
        let c = r.counter("probe.walks");
        r.add(c, 7);
        let g = r.interval("conflicts.per_interval", 50);
        r.bump(g, 120);
        let v = parse(&r.to_json()).expect("snapshot JSON parses");
        let counters = v.field("counters").unwrap();
        assert_eq!(counters.field("probe.walks").unwrap().as_u64().unwrap(), 7);
        let iv = v.field("intervals").unwrap().field("conflicts.per_interval").unwrap();
        assert_eq!(iv.field("width").unwrap().as_u64().unwrap(), 50);
        assert_eq!(iv.field("buckets").unwrap().as_u64_vec().unwrap(), vec![0, 0, 1]);
    }

    #[test]
    fn profiler_records_samples() {
        let mut p = PhaseProfiler::new();
        let ph = p.phase("probe");
        p.record(ph, Duration::from_nanos(100));
        p.record(ph, Duration::from_nanos(300));
        let (name, count, total, max, hist) = p.phases().next().unwrap();
        assert_eq!(name, "probe");
        assert_eq!(count, 2);
        assert_eq!(total, 400);
        assert_eq!(max, 300);
        assert_eq!(hist.iter().sum::<u64>(), 2);
        assert_eq!(p.mean_ns(ph), 200);
        let v = parse(&p.to_json()).expect("profiler JSON parses");
        assert_eq!(v.field("probe").unwrap().field("count").unwrap().as_u64().unwrap(), 2);
    }

    #[test]
    fn profiler_zero_duration_sample_is_safe() {
        let mut p = PhaseProfiler::new();
        let ph = p.phase("noop");
        p.record(ph, Duration::ZERO);
        assert_eq!(p.mean_ns(ph), 0);
        let (_, count, total, ..) = p.phases().next().unwrap();
        assert_eq!((count, total), (1, 0));
    }
}
