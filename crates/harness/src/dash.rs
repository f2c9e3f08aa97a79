//! `asf-repro dash` — a read-only terminal dashboard over the service's
//! observability surface (DESIGN.md §18).
//!
//! Two modes, one renderer:
//!
//! * **online** — poll a live `asf-serve` instance's `/v1/healthz` and
//!   `/v1/metrics/prometheus` endpoints a few times and render request
//!   totals by endpoint, histogram-derived latency quantiles, cache
//!   events and health/uptime as tables and [`BarChart`]s. Strictly
//!   read-only: both endpoints are snapshots, so watching a server never
//!   perturbs it.
//! * **offline** — no server needed: diff the append-only round sections
//!   of a committed `BENCH_perf.json` (`history`, `scale_rounds`,
//!   `serve_rounds`) into one trajectory table, each round against its
//!   predecessor in the same section. This is the CI mode (`asf-repro
//!   dash --offline`), pinned against the checked-in report.

use asf_stats::chart::BarChart;
use asf_stats::json::{self, JsonValue};
use asf_stats::openmetrics::{parse_exposition, Exposition};
use asf_stats::table::Table;

/// Any JSON number as `f64`, whether it parsed as `Int` or `Num`.
fn num(v: &JsonValue) -> Option<f64> {
    v.as_f64().ok()
}

/// Signed percent change `prev → cur`, rendered with its sign.
fn delta_pct(prev: f64, cur: f64) -> String {
    if prev <= 0.0 {
        return "-".to_string();
    }
    format!("{:+.1}%", (cur - prev) / prev * 100.0)
}

fn truncate(s: &str, max: usize) -> String {
    if s.len() <= max {
        s.to_string()
    } else {
        format!("{}…", &s[..s.char_indices().take(max).last().map(|(i, c)| i + c.len_utf8()).unwrap_or(0)])
    }
}

/// One row of the trajectory: a round of some section with its headline
/// number.
struct TrajectoryRow {
    section: &'static str,
    round: u64,
    subject: String,
    metric: &'static str,
    value: f64,
}

/// Pull `(round, subject, headline)` rows out of one section array.
fn section_rows(
    root: &JsonValue,
    key: &str,
    section: &'static str,
    metric: &'static str,
    headline: impl Fn(&JsonValue) -> Option<f64>,
) -> Vec<TrajectoryRow> {
    let Some(arr) = root.get(key).and_then(|v| v.as_arr().ok().map(<[JsonValue]>::to_vec)) else {
        return Vec::new();
    };
    arr.iter()
        .filter_map(|entry| {
            Some(TrajectoryRow {
                section,
                round: entry.get("round").and_then(|v| v.as_u64().ok())?,
                subject: entry
                    .get("git_subject")
                    .and_then(|v| v.as_str().ok())
                    .unwrap_or("?")
                    .to_string(),
                metric,
                value: headline(entry)?,
            })
        })
        .collect()
}

/// The best (maximum) `macc_per_sec` across a scale round's curve.
fn scale_headline(entry: &JsonValue) -> Option<f64> {
    entry
        .get("curve")?
        .as_arr()
        .ok()?
        .iter()
        .filter_map(|point| point.get("macc_per_sec").and_then(num))
        .fold(None, |best: Option<f64>, v| Some(best.map_or(v, |b| b.max(v))))
}

/// Diff every round section of a `BENCH_perf.json` document into one
/// trajectory table: each round's headline number next to the change
/// against the *previous round of the same section*.
pub fn trajectory_table(json: &str) -> Result<Table, String> {
    let root = json::parse(json).map_err(|e| format!("BENCH_perf.json does not parse: {e}"))?;
    let mut rows: Vec<TrajectoryRow> = Vec::new();
    rows.extend(section_rows(&root, "history", "perf", "wall_ms", |e| {
        e.get("total_wall_ms").and_then(num)
    }));
    rows.extend(section_rows(&root, "scale_rounds", "scale", "macc/s", scale_headline));
    rows.extend(section_rows(&root, "serve_rounds", "serve", "speedup", |e| {
        e.get("measure").and_then(|m| m.get("speedup")).and_then(num)
    }));
    if rows.is_empty() {
        return Err("no history, scale_rounds or serve_rounds section found".to_string());
    }
    let mut t = Table::new(
        "dash — BENCH_perf.json trajectory (each round vs its section predecessor)",
        &["section", "round", "metric", "value", "delta", "git subject"],
    );
    let mut prev: Option<(&'static str, f64)> = None;
    for row in &rows {
        let delta = match prev {
            Some((section, value)) if section == row.section => delta_pct(value, row.value),
            _ => "-".to_string(),
        };
        prev = Some((row.section, row.value));
        t.row(vec![
            row.section.to_string(),
            row.round.to_string(),
            row.metric.to_string(),
            format!("{:.1}", row.value),
            delta,
            truncate(&row.subject, 48),
        ]);
    }
    Ok(t)
}

/// Per-round wall-time chart for the perf section (lower is better).
pub fn perf_chart(json: &str) -> Result<BarChart, String> {
    let root = json::parse(json).map_err(|e| format!("BENCH_perf.json does not parse: {e}"))?;
    let mut chart = BarChart::new("perf rounds — total wall ms (lower is better)", " ms");
    for row in section_rows(&root, "history", "perf", "wall_ms", |e| {
        e.get("total_wall_ms").and_then(num)
    }) {
        chart.bar(format!("round {}", row.round), row.value);
    }
    if chart.is_empty() {
        return Err("no perf history rounds to chart".to_string());
    }
    Ok(chart)
}

/// Serve-round detail: the cache/latency numbers each load-test round
/// recorded, including the histogram-derived percentiles once present.
pub fn serve_rounds_table(json: &str) -> Result<Table, String> {
    let root = json::parse(json).map_err(|e| format!("BENCH_perf.json does not parse: {e}"))?;
    let arr = root
        .get("serve_rounds")
        .and_then(|v| v.as_arr().ok().map(<[JsonValue]>::to_vec))
        .unwrap_or_default();
    let mut t = Table::new(
        "dash — serve rounds (sampled vs histogram-derived latency)",
        &["round", "requests", "hit rate", "p50 (us)", "p99 (us)", "h50 (us)", "h99 (us)", "speedup"],
    );
    let field = |m: &JsonValue, key: &str| -> String {
        m.get(key).and_then(num).map_or("-".to_string(), |v| format!("{v:.1}"))
    };
    for entry in &arr {
        let Some(m) = entry.get("measure") else { continue };
        t.row(vec![
            entry.get("round").and_then(|v| v.as_u64().ok()).unwrap_or(0).to_string(),
            field(m, "requests"),
            field(m, "hit_rate"),
            field(m, "p50_us"),
            field(m, "p99_us"),
            field(m, "hist_p50_us"),
            field(m, "hist_p99_us"),
            field(m, "speedup"),
        ]);
    }
    Ok(t)
}

/// Render the full offline dashboard from a `BENCH_perf.json` document.
pub fn offline(json: &str) -> Result<String, String> {
    let mut out = String::new();
    out.push_str(&trajectory_table(json)?.render());
    out.push('\n');
    out.push_str(&perf_chart(json)?.render(48));
    out.push('\n');
    out.push_str(&serve_rounds_table(json)?.render());
    Ok(out)
}

/// One polled snapshot of a live server.
pub struct DashSample {
    /// Parsed `/v1/metrics/prometheus` exposition.
    pub exposition: Exposition,
    /// `uptime_ms` from `/v1/healthz`.
    pub uptime_ms: u64,
    /// `flight_dumps` from `/v1/healthz`.
    pub flight_dumps: u64,
    /// `version` from `/v1/healthz`.
    pub version: String,
    /// `ok` from `/v1/healthz`.
    pub ok: bool,
}

/// Scrape both observability endpoints once.
pub fn poll(client: &mut asf_serve::http::Client) -> Result<DashSample, String> {
    let health = client.get("/v1/healthz").map_err(|e| format!("healthz: {e}"))?;
    if health.status != 200 {
        return Err(format!("healthz status {}", health.status));
    }
    let health_text = health.text();
    let root = json::parse(&health_text).map_err(|e| format!("healthz parse: {e}"))?;
    let metrics = client
        .get("/v1/metrics/prometheus")
        .map_err(|e| format!("prometheus: {e}"))?;
    if metrics.status != 200 {
        return Err(format!("prometheus status {}", metrics.status));
    }
    let exposition = parse_exposition(&metrics.text())
        .map_err(|e| format!("prometheus output does not parse: {e}"))?;
    Ok(DashSample {
        exposition,
        uptime_ms: root.get("uptime_ms").and_then(|v| v.as_u64().ok()).unwrap_or(0),
        flight_dumps: root.get("flight_dumps").and_then(|v| v.as_u64().ok()).unwrap_or(0),
        version: root
            .get("version")
            .and_then(|v| v.as_str().ok())
            .unwrap_or("?")
            .to_string(),
        ok: matches!(root.get("ok"), Some(JsonValue::Bool(true))),
    })
}

/// Estimate a quantile from an exposition histogram's cumulative
/// `_bucket{le=...}` samples — the scrape-side mirror of
/// [`asf_stats::Histogram::quantile`], bracketing the true quantile from
/// above within one log2 bucket.
pub fn quantile_from_buckets(exposition: &Exposition, family: &str, q: f64) -> Option<f64> {
    let mut buckets: Vec<(f64, f64)> = exposition
        .samples
        .iter()
        .filter(|s| s.name == format!("{family}_bucket"))
        .filter_map(|s| {
            let le = s.labels.iter().find(|(k, _)| k == "le")?.1.parse::<f64>().ok()?;
            Some((le, s.value))
        })
        .collect();
    buckets.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("le bounds are comparable"));
    let total = buckets.last()?.1;
    if total <= 0.0 {
        return None;
    }
    let rank = (q.clamp(0.0, 1.0) * total).ceil().max(1.0);
    buckets.iter().find(|&&(_, cum)| cum >= rank).map(|&(le, _)| le)
}

/// Render the live dashboard from the latest sample (plus a request rate
/// derived from the first, when the caller polled more than once).
pub fn render_online(first: &DashSample, last: &DashSample) -> String {
    let mut out = String::new();
    let mut t = Table::new(
        "dash — asf-serve health",
        &["version", "ok", "uptime (s)", "flight dumps", "requests", "req/s (window)"],
    );
    let requests = last.exposition.sum("asf_http_requests_total");
    let window_ms = last.uptime_ms.saturating_sub(first.uptime_ms);
    let rate = if window_ms > 0 {
        let first_requests = first.exposition.sum("asf_http_requests_total");
        format!("{:.1}", (requests - first_requests) / (window_ms as f64 / 1000.0))
    } else {
        "-".to_string()
    };
    t.row(vec![
        last.version.clone(),
        last.ok.to_string(),
        format!("{:.1}", last.uptime_ms as f64 / 1000.0),
        last.flight_dumps.to_string(),
        format!("{requests:.0}"),
        rate,
    ]);
    out.push_str(&t.render());
    out.push('\n');

    let mut lat = Table::new(
        "dash — latency quantiles from the scraped log2 histograms (us)",
        &["series", "p50", "p90", "p99"],
    );
    for family in ["asf_http_request_duration_ns", "asf_job_e2e_ns", "asf_job_queue_wait_ns", "asf_job_execute_ns"] {
        let q = |q: f64| {
            quantile_from_buckets(&last.exposition, family, q)
                .map_or("-".to_string(), |ns| format!("{:.1}", ns / 1_000.0))
        };
        lat.row(vec![family.to_string(), q(0.50), q(0.90), q(0.99)]);
    }
    out.push_str(&lat.render());
    out.push('\n');

    let mut chart = BarChart::new("requests by endpoint", "");
    let mut by_endpoint: Vec<(String, f64)> = Vec::new();
    for s in &last.exposition.samples {
        if s.name != "asf_http_requests_total" {
            continue;
        }
        if let Some((_, endpoint)) = s.labels.iter().find(|(k, _)| k == "endpoint") {
            match by_endpoint.iter_mut().find(|(e, _)| e == endpoint) {
                Some((_, v)) => *v += s.value,
                None => by_endpoint.push((endpoint.clone(), s.value)),
            }
        }
    }
    by_endpoint.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("counts are finite"));
    for (endpoint, v) in &by_endpoint {
        chart.bar(endpoint.clone(), *v);
    }
    if !chart.is_empty() {
        out.push_str(&chart.render(48));
        out.push('\n');
    }

    let mut cache = Table::new("dash — cache events", &["kind", "count"]);
    for s in &last.exposition.samples {
        if s.name != "asf_cache_events_total" {
            continue;
        }
        if let Some((_, kind)) = s.labels.iter().find(|(k, _)| k == "kind") {
            cache.row(vec![kind.clone(), format!("{:.0}", s.value)]);
        }
    }
    out.push_str(&cache.render());
    out
}

/// Poll a live server `iterations` times, `interval_ms` apart, and render
/// the final dashboard.
pub fn online(addr: &str, iterations: usize, interval_ms: u64) -> Result<String, String> {
    let mut client =
        asf_serve::http::Client::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let first = poll(&mut client)?;
    let mut last = None;
    for _ in 1..iterations.max(1) {
        std::thread::sleep(std::time::Duration::from_millis(interval_ms));
        last = Some(poll(&mut client)?);
    }
    Ok(render_online(&first, last.as_ref().unwrap_or(&first)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::perf::tests::tiny_report;
    use crate::perf::{check_against_baseline, parse_report, render_report};
    use crate::scale::tests::tiny_scale_report;
    use crate::serve::tests::fake_report;
    use crate::serve::{loadtest_opts, write_round};
    use asf_workloads::Scale;

    const FIXTURE: &str = r#"{
  "total_wall_ms": 100.0,
  "history": [
    {"round": 1, "git_subject": "first", "total_wall_ms": 200.0},
    {"round": 2, "git_subject": "second", "total_wall_ms": 100.0}
  ],
  "scale_rounds": [
    {"round": 1, "git_subject": "sweep", "curve": [
      {"cores": 64, "threads": 1, "macc_per_sec": 1.5},
      {"cores": 64, "threads": 2, "macc_per_sec": 1.8}
    ]}
  ],
  "serve_rounds": [
    {"round": 1, "git_subject": "serve", "measure":
      {"requests": 3072, "hit_rate": 0.12, "p50_us": 280.0, "p99_us": 29990.4,
       "hist_p50_us": 524.2, "hist_p99_us": 32768.0, "speedup": 183.7}}
  ]
}"#;

    #[test]
    fn trajectory_diffs_each_section_against_itself() {
        let rendered = trajectory_table(FIXTURE).expect("trajectory").render();
        // perf round 2 halves the wall time; scale/serve first rounds have
        // no predecessor, so their delta is "-".
        assert!(rendered.contains("-50.0%"), "{rendered}");
        assert!(rendered.contains("scale"), "{rendered}");
        assert!(rendered.contains("183.7"), "{rendered}");
    }

    #[test]
    fn scale_headline_is_curve_max() {
        let root = json::parse(FIXTURE).unwrap();
        let rows = section_rows(&root, "scale_rounds", "scale", "macc/s", scale_headline);
        assert_eq!(rows.len(), 1);
        assert!((rows[0].value - 1.8).abs() < 1e-9);
    }

    #[test]
    fn offline_renders_tables_and_chart() {
        let out = offline(FIXTURE).expect("offline dashboard");
        assert!(out.contains("trajectory"), "{out}");
        assert!(out.contains("round 2"), "{out}");
        assert!(out.contains("h50"), "{out}");
    }

    #[test]
    fn offline_rejects_empty_documents() {
        assert!(offline("{}").is_err());
        assert!(offline("not json").is_err());
    }

    #[test]
    fn committed_bench_report_drives_the_offline_dash() {
        // The checked-in BENCH_perf.json doubles as the CI fixture for
        // `asf-repro dash --offline`; keep it renderable, and keep it
        // intact through every writer of the file.
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_perf.json");
        let json = std::fs::read_to_string(path).expect("committed BENCH_perf.json");
        let out = offline(&json).expect("offline dashboard over committed report");
        assert!(out.contains("perf"), "{out}");
        assert!(out.contains("serve"), "{out}");

        // Rendering alone changes nothing the parser can see.
        let before = parse_report(&json).expect("committed report parses");
        assert_eq!(parse_report(&render_report(&before)).unwrap(), before);
        // Rewrite it the way `perf`, `scale` and `loadtest` do.
        let mut doc = before.clone();
        tiny_report(4, 10_000).write_into(&mut doc, "rewrite check");
        tiny_scale_report().write_into(&mut doc, "rewrite check");
        let opts = loadtest_opts(128, Scale::Small, 7);
        write_round(&mut doc, &opts, &fake_report(), "rewrite check");
        let rewritten = render_report(&doc);
        let after = parse_report(&rewritten).unwrap();
        // Every round already recorded, and every key no writer owns,
        // parses equal; each round array gained exactly one entry.
        let JsonValue::Obj(pairs) = &before else { panic!("report is an object") };
        for (key, old) in pairs {
            let new = after.field(key).unwrap();
            match key.as_str() {
                "scale" | "seed" | "cells" | "total_wall_ms" | "total_accesses"
                | "total_accesses_per_sec" => {}
                "history" | "scale_rounds" | "serve_rounds" => {
                    let (old, new) = (old.as_arr().unwrap(), new.as_arr().unwrap());
                    assert_eq!(new.len(), old.len() + 1, "{key}");
                    assert_eq!(&new[..old.len()], old, "{key}");
                }
                _ => assert_eq!(new, old, "{key}"),
            }
        }
        // The dashboard shows the same rows, plus one per new round.
        let rows = |j: &str| trajectory_table(j).unwrap().rows().to_vec();
        let (old_rows, new_rows) = (rows(&json), rows(&rewritten));
        let kept: Vec<_> = new_rows.iter().filter(|r| r[5] != "rewrite check").cloned().collect();
        assert_eq!(kept, old_rows);
        assert_eq!(new_rows.len(), old_rows.len() + 3);
    }

    #[test]
    fn git_subjects_are_stored_verbatim_by_every_writer() {
        const SUBJECT: &str = r#"Fix "quoted" \ path [v2]"#;
        let mut doc = parse_report("").unwrap();
        tiny_report(10, 10_000).write_into(&mut doc, SUBJECT);
        tiny_scale_report().write_into(&mut doc, SUBJECT);
        write_round(&mut doc, &loadtest_opts(128, Scale::Small, 7), &fake_report(), SUBJECT);
        let json = render_report(&doc);
        let parsed = parse_report(&json).unwrap();
        for key in ["history", "scale_rounds", "serve_rounds"] {
            let last = parsed.field(key).unwrap().as_arr().unwrap().last().unwrap();
            assert_eq!(last.field("git_subject").unwrap().as_str(), Ok(SUBJECT), "{key}");
        }
        let msg = check_against_baseline(&tiny_report(10, 10_000), &json, 0.25).unwrap();
        assert!(msg.contains(&format!("vs round 1 ({SUBJECT})")), "{msg}");
        let out = offline(&json).unwrap();
        assert_eq!(out.matches(SUBJECT).count(), 3, "one trajectory row per writer: {out}");
    }

    #[test]
    fn bucket_quantiles_come_from_cumulative_le() {
        let text = "# TYPE lat histogram\n\
                    lat_bucket{le=\"100\"} 5\n\
                    lat_bucket{le=\"200\"} 9\n\
                    lat_bucket{le=\"+Inf\"} 10\n\
                    lat_sum 1000\n\
                    lat_count 10\n\
                    # EOF\n";
        let exp = parse_exposition(text).expect("parses");
        assert_eq!(quantile_from_buckets(&exp, "lat", 0.5), Some(100.0));
        assert_eq!(quantile_from_buckets(&exp, "lat", 0.9), Some(200.0));
        assert_eq!(quantile_from_buckets(&exp, "lat", 1.0), Some(f64::INFINITY));
    }
}
