//! `asf-repro serve` / `asf-repro loadtest` — harness glue for the
//! content-addressed simulation service (DESIGN.md §16).
//!
//! `serve` runs [`asf_serve::server::Server`] in the foreground until a
//! `POST /v1/shutdown` arrives (or, with `--smoke`, runs the CI gate:
//! ephemeral port, one fixed-seed job submitted twice, the repeat must be
//! a byte-identical cache hit). `loadtest` hammers a private server with
//! in-process concurrent clients over a Zipf-skewed job mix and appends
//! the measurement as a round of the `"serve_rounds"` array of
//! `BENCH_perf.json` ([`write_round`], through
//! [`crate::perf::update_report_file`], like `"scale_rounds"`).

use crate::perf::append_round;
use asf_serve::loadtest::{LoadTestOpts, LoadTestReport};
use asf_stats::json::{parse, JsonValue};
use asf_stats::table::Table;
use asf_workloads::Scale;

/// Default concurrent clients for `asf-repro loadtest` ("thousands of
/// in-process concurrent clients" at full scale; CI uses fewer).
pub const DEFAULT_CLIENTS: usize = 128;
/// Default requests per client.
pub const DEFAULT_REQUESTS: usize = 24;
/// Default distinct-spec universe size.
pub const DEFAULT_DISTINCT: usize = 32;

/// The speedup floor the load test holds the hot path to (ISSUE/DESIGN
/// §16 acceptance: memoized repeats ≥ 100x faster than cold simulation of
/// the standard-scale probe cell).
pub const SPEEDUP_FLOOR: f64 = 100.0;

/// Shape a [`LoadTestOpts`] from CLI-level knobs. `scale` sets the mixed
/// jobs' size; the speedup probe is standard-scale regardless.
pub fn loadtest_opts(clients: usize, scale: Scale, seed: u64) -> LoadTestOpts {
    LoadTestOpts {
        clients,
        requests_per_client: DEFAULT_REQUESTS,
        distinct_specs: DEFAULT_DISTINCT,
        seed,
        scale,
        workers: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(2),
        // Deep enough that a full-burst start never 429s the measurement
        // itself; admission control is exercised by the serve unit tests.
        queue_capacity: clients.saturating_mul(DEFAULT_REQUESTS).max(1024),
    }
}

/// Human-readable summary table of one load-test run.
pub fn loadtest_table(opts: &LoadTestOpts, report: &LoadTestReport) -> Table {
    let mut t = Table::new(
        "serve loadtest — Zipf-skewed job mix against the result cache",
        &[
            "clients",
            "requests",
            "cached",
            "coalesced",
            "queued",
            "rejected",
            "retries",
            "hit rate",
            "p50 (us)",
            "p99 (us)",
            "h50 (us)",
            "h90 (us)",
            "h99 (us)",
            "cold (ms)",
            "hot (us)",
            "speedup",
        ],
    );
    t.row(vec![
        opts.clients.to_string(),
        report.requests.to_string(),
        report.cached.to_string(),
        report.coalesced.to_string(),
        report.queued.to_string(),
        report.rejected.to_string(),
        report.retries.to_string(),
        format!("{:.1}%", report.hit_rate * 100.0),
        format!("{:.1}", report.p50_us),
        format!("{:.1}", report.p99_us),
        format!("{:.1}", report.hist_p50_us),
        format!("{:.1}", report.hist_p90_us),
        format!("{:.1}", report.hist_p99_us),
        format!("{:.2}", report.cold_ns as f64 / 1e6),
        format!("{:.1}", report.hot_ns as f64 / 1e3),
        format!("{:.0}x", report.speedup),
    ]);
    t
}

/// Append one load-test run as the next round of a `BENCH_perf.json`
/// document's `"serve_rounds"` array, stamped with `git_subject`; every
/// other key is left as it was. Returns the round number.
pub fn write_round(
    doc: &mut JsonValue,
    opts: &LoadTestOpts,
    report: &LoadTestReport,
    git_subject: &str,
) -> u64 {
    let measure = parse(&report.to_json()).expect("LoadTestReport::to_json is valid JSON");
    append_round(doc, "serve_rounds", |round| {
        JsonValue::obj([
            ("round", round.into()),
            ("clients", (opts.clients as u64).into()),
            ("distinct_specs", (opts.distinct_specs as u64).into()),
            ("mix_seed", opts.seed.into()),
            ("git_subject", git_subject.into()),
            ("measure", measure),
        ])
    })
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::perf::{next_round, parse_report, render_report};

    pub(crate) fn fake_report() -> LoadTestReport {
        LoadTestReport {
            requests: 3072,
            cached: 2000,
            coalesced: 700,
            queued: 372,
            rejected: 0,
            retries: 5,
            hit_rate: 2000.0 / 3072.0,
            p50_us: 81.0,
            p99_us: 410.5,
            hist_p50_us: 131.0,
            hist_p90_us: 524.2,
            hist_p99_us: 524.2,
            cold_ns: 9_000_000,
            hot_ns: 60_000,
            speedup: 150.0,
        }
    }

    #[test]
    fn round_entry_is_valid_json_and_appends() {
        let opts = loadtest_opts(128, Scale::Small, 7);
        let mut doc = parse_report("").unwrap();
        assert_eq!(write_round(&mut doc, &opts, &fake_report(), "some [bracketed] \"subject\""), 1);
        assert_eq!(next_round(&doc, "serve_rounds"), 2);
        assert_eq!(write_round(&mut doc, &opts, &fake_report(), "x"), 2);
        let parsed = parse_report(&render_report(&doc)).expect("rendered report parses");
        assert_eq!(next_round(&parsed, "serve_rounds"), 3);
        let round = &parsed.field("serve_rounds").unwrap().as_arr().unwrap()[1];
        let speedup = round.field("measure").unwrap().field("speedup").unwrap();
        assert_eq!(speedup.as_f64(), Ok(150.0));
    }

    #[test]
    fn table_renders_the_headline_numbers() {
        let opts = loadtest_opts(128, Scale::Small, 7);
        let rendered = loadtest_table(&opts, &fake_report()).render();
        assert!(rendered.contains("150x"), "{rendered}");
        assert!(rendered.contains("65.1%"), "{rendered}");
    }
}
