//! Result assembly: named metrics with units, order statistics, the
//! process high-water mark, in-memory spans and the final JSON line.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One reported number.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Metric name (`[A-Za-z0-9_.-]+`).
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit (`ms`, `s`, `count`, ...).
    pub unit: &'static str,
}

/// An ordered list of metrics; a name is added at most once.
#[derive(Clone, Debug, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    /// Add `name`; panics on a duplicate name (a benchmark bug).
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        assert!(self.get(name).is_none(), "metric {name} reported twice");
        self.0.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    /// Value of `name`, if reported.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.name == name).map(|m| m.value)
    }
}

/// Correctness ledger: every checked operation, and the ones that failed.
#[derive(Clone, Debug, Default)]
pub struct Ledger {
    /// Operations whose output was checked.
    pub attempted: u64,
    /// Operations that failed or produced a wrong output.
    pub failed: u64,
    /// First few failure descriptions, for the human-readable report.
    pub notes: Vec<String>,
}

impl Ledger {
    /// Count one operation; `ok == false` records `why`.
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.notes.len() < 8 {
                self.notes.push(why());
            }
        }
    }

    /// `failed / attempted` (0 before any operation).
    pub fn error_rate(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// Everything one benchmark run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Correctness checks.
    pub ledger: Ledger,
    /// The metrics of this run's mode (end-to-end, or per-layer when traced).
    pub metrics: Metrics,
    /// Run configuration: host parallelism and the clamped thread counts.
    pub config: Vec<(&'static str, String)>,
    /// Spans recorded by a traced run.
    pub spans: Spans,
}

/// The result line: `{"correct":..,"attempted":..,"failed":..,"metrics":{..}}`.
pub fn result_json(o: &Outcome) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        o.ledger.failed == 0 && o.ledger.attempted > 0,
        o.ledger.attempted.max(1),
        o.ledger.failed
    );
    for (i, m) in o.metrics.0.iter().enumerate() {
        assert!(
            m.value.is_finite(),
            "metric {} is not finite: {}",
            m.name,
            m.value
        );
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    out.push_str("}}");
    out
}

/// The run configuration as one JSON object.
pub fn config_json(o: &Outcome) -> String {
    let fields: Vec<String> = o
        .config
        .iter()
        .map(|(k, v)| format!("\"{k}\": {}", asf_stats::json::escape(v)))
        .collect();
    format!("{{{}}}", fields.join(", "))
}

/// Host parallelism as the standard library reports it.
pub(crate) fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// The thread/worker/connection count every workload uses: at most two,
/// and never more than the host offers, so no figure is taken on an
/// oversubscribed host.
pub(crate) fn clamp_threads() -> usize {
    nproc().clamp(1, 2)
}

/// Process resident-set high-water mark in MiB (`VmHWM`; 0 where the
/// kernel does not expose it).
pub(crate) fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Median (mean of the middle pair for even counts); 0 for no samples.
pub(crate) fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linear-interpolated quantile `q` in `[0, 1]`; 0 for no samples.
pub(crate) fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Mean; 0 for no samples.
pub(crate) fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// `a / b`, 0 when `b` is 0.
pub(crate) fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Duration in milliseconds.
pub(crate) fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Share of baseline false conflicts that sub-blocking removes, in percent.
pub(crate) fn removed_pct(baseline_false: u64, sb_false: u64) -> f64 {
    if baseline_false == 0 {
        0.0
    } else {
        100.0 * (1.0 - sb_false as f64 / baseline_false as f64)
    }
}

/// One closed interval of a traced run.
#[derive(Clone, Debug)]
pub struct Span {
    /// Span id (1-based; 0 is "no parent").
    pub id: u64,
    /// Id of the span that caused this one, 0 for a root.
    pub parent: u64,
    /// What ran (`cell`, `run`, `epoch`, `request`, ...).
    pub name: &'static str,
    /// Free-form label (cell key, request kind).
    pub label: String,
    /// Start, nanoseconds since the run began.
    pub start_ns: u64,
    /// End, nanoseconds since the run began.
    pub end_ns: u64,
}

/// Bounded in-memory span store, written out once at the end of a run.
#[derive(Debug)]
pub struct Spans {
    t0: Instant,
    cap: usize,
    /// Recorded spans, in recording order.
    pub spans: Vec<Span>,
    /// Spans not kept because the store was full.
    pub dropped: u64,
    next_id: u64,
}

impl Default for Spans {
    fn default() -> Self {
        Spans::new(1 << 16)
    }
}

impl Spans {
    /// A store keeping at most `cap` spans.
    pub fn new(cap: usize) -> Spans {
        Spans {
            t0: Instant::now(),
            cap,
            spans: Vec::new(),
            dropped: 0,
            next_id: 1,
        }
    }

    /// Nanoseconds from the store's origin to `t` (0 if `t` is earlier).
    pub fn at(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.t0).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Record a span from `start` to `end`; returns its id (0 when dropped).
    pub fn record(
        &mut self,
        parent: u64,
        name: &'static str,
        label: String,
        start: Instant,
        end: Instant,
    ) -> u64 {
        self.record_ns(parent, name, label, self.at(start), self.at(end))
    }

    /// [`Spans::record`] with explicit nanosecond offsets.
    pub fn record_ns(
        &mut self,
        parent: u64,
        name: &'static str,
        label: String,
        start_ns: u64,
        end_ns: u64,
    ) -> u64 {
        if self.spans.len() >= self.cap {
            self.dropped += 1;
            return 0;
        }
        let id = self.next_id;
        self.next_id += 1;
        self.spans.push(Span {
            id,
            parent,
            name,
            label,
            start_ns,
            end_ns,
        });
        id
    }

    /// Set the end of span `id` (no-op for a dropped span).
    pub fn close(&mut self, id: u64, end: Instant) {
        let end_ns = self.at(end);
        if let Some(s) = self.spans.iter_mut().rev().find(|s| s.id == id) {
            s.end_ns = end_ns;
        }
    }

    /// Count and total duration of the spans named `name`.
    pub fn totals(&self, name: &str) -> (u64, u64) {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0, 0), |(n, t), s| {
                (n + 1, t + s.end_ns.saturating_sub(s.start_ns))
            })
    }

    /// The artifact: spans plus per-name sums and counts.
    pub fn to_json(&self, header: &str, metrics: &Metrics) -> String {
        let mut names: Vec<&'static str> = self.spans.iter().map(|s| s.name).collect();
        names.sort_unstable();
        names.dedup();
        let mut out = format!("{{\n  \"schema\": \"perfbench-trace-v1\",\n  \"config\": {header},\n  \"dropped\": {},\n  \"totals\": {{", self.dropped);
        for (i, n) in names.iter().enumerate() {
            let (count, ns) = self.totals(n);
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                out,
                "{sep}\n    \"{n}\": {{\"count\": {count}, \"sum_ns\": {ns}}}"
            );
        }
        out.push_str("\n  },\n  \"metrics\": {");
        for (i, m) in metrics.0.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                out,
                "{sep}\n    \"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            );
        }
        out.push_str("\n  },\n  \"spans\": [");
        for (i, s) in self.spans.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                out,
                "{sep}\n    {{\"id\": {}, \"parent\": {}, \"name\": \"{}\", \"label\": {}, \"start_ns\": {}, \"end_ns\": {}}}",
                s.id,
                s.parent,
                s.name,
                asf_stats::json::escape(&s.label),
                s.start_ns,
                s.end_ns
            );
        }
        out.push_str("\n  ]\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), 2.5);
        assert_eq!(quantile(&[0.0, 10.0], 0.99), 9.9);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn ledger_counts_failures() {
        let mut l = Ledger::default();
        l.check(true, String::new);
        l.check(false, || "bad".to_string());
        assert_eq!((l.attempted, l.failed), (2, 1));
        assert_eq!(l.error_rate(), 0.5);
        assert_eq!(l.notes, vec!["bad".to_string()]);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut o = Outcome::default();
        o.ledger.check(true, String::new);
        o.metrics.put("setup_s", 0.5, "s");
        let v = asf_stats::json::parse(&result_json(&o)).expect("valid JSON");
        let asf_stats::json::JsonValue::Obj(pairs) = &v else {
            panic!("not an object")
        };
        let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    }
}
