//! `asf-repro perf` — simulator throughput measurement.
//!
//! Runs a fixed (benchmark × detector) smoke grid single-threaded and
//! reports, per benchmark, wall time and simulated accesses per second
//! (an access = one cache-line fragment of one memory operation — the unit
//! of work of `Machine::access_line`, the simulator's hot path).
//!
//! The grid is **pinned to one worker**: [`measure`] runs each cell
//! directly on the calling thread, bypassing `Matrix::compute`'s worker
//! pool — and therefore deliberately ignoring `--threads`/`ASF_THREADS`.
//! Two reasons: the numbers must measure per-access cost rather than the
//! host's core count, and the `--check-baseline` regression gate compares
//! wall times against a committed baseline, which would be silently skewed
//! (false passes *or* false failures) if a worker-count knob could change
//! how many simulations share the machine during timing.
//!
//! The report doubles as the repo's perf regression artifact: the harness
//! writes it to `BENCH_perf.json` (repo root in CI) and EXPERIMENTS.md
//! records the baselines. Simulated *outcomes* are pinned separately by
//! `tests/golden_stats.rs`; this file only measures speed.
//!
//! `BENCH_perf.json` has one reader and one writer path, shared by every
//! command that records a round in it: [`update_report_file`] parses the
//! file with `asf_stats::json`, lets the command change its own keys (the
//! perf grid's fields and `history` here, `scale_rounds` in
//! [`crate::scale`], `serve_rounds` in [`crate::serve`]) and renders the
//! document back through one atomic write. Every other key survives as
//! parsed, and strings such as git subjects are stored verbatim.

use crate::matrix::run_one;
use asf_core::detector::DetectorKind;
use asf_stats::json::{parse, JsonValue};
use asf_stats::table::Table;
use asf_workloads::Scale;
use std::path::Path;
use std::time::{Duration, Instant};

/// The fixed detector set of the smoke grid: line granularity, the paper's
/// preferred sub-blocking, and the byte-granularity oracle — the three
/// configurations with the most distinct per-access work.
pub fn smoke_detectors() -> Vec<DetectorKind> {
    vec![DetectorKind::Baseline, DetectorKind::SubBlock(8), DetectorKind::Perfect]
}

/// One timed (benchmark × detector) cell.
#[derive(Clone, Debug)]
pub struct PerfCell {
    /// Benchmark name.
    pub bench: String,
    /// Detector label (`baseline`, `sb8`, `perfect`).
    pub detector: String,
    /// Representative wall time: the **median** over the samples taken
    /// (round 4 measured ±50% wall noise on a 1-vCPU runner; the median of
    /// interleaved samples is what `--check-baseline` compares).
    pub wall: Duration,
    /// Fastest sample — the least-perturbed observation, stored alongside
    /// the median so the JSON records how noisy the runner was.
    pub wall_min: Duration,
    /// Simulated accesses (L1 hits + misses, per line fragment).
    pub accesses: u64,
    /// Simulated cycles (determinism cross-check against golden runs).
    pub cycles: u64,
}

/// A completed throughput measurement.
#[derive(Clone, Debug)]
pub struct PerfReport {
    /// Input scale the grid ran at.
    pub scale: Scale,
    /// Master seed.
    pub seed: u64,
    /// All timed cells, in (benchmark, detector) grid order.
    pub cells: Vec<PerfCell>,
}

/// Default sample count for [`measure_samples`] (the `--samples` flag).
pub const DEFAULT_SAMPLES: usize = 5;

/// Time the smoke grid once per cell — [`measure_samples`] with a single
/// sample (median = min = the one observation). Kept for callers that want
/// the quick, noise-accepting measurement.
pub fn measure(scale: Scale, seed: u64) -> PerfReport {
    measure_samples(scale, seed, 1)
}

/// Time the smoke grid `samples` times per cell: every benchmark at `scale`
/// under [`smoke_detectors`], sequentially on this thread (1 worker by
/// construction — see the module docs for why the worker-count knobs must
/// not reach this grid).
///
/// Samples are **interleaved** — the whole grid is swept `samples` times
/// rather than timing one cell `samples` times back-to-back — so a noise
/// burst (page-cache eviction, a neighbour stealing the vCPU) lands on *one*
/// sample of many cells instead of all samples of one cell, which is the
/// case a median can actually reject. Each cell's `wall` is the median of
/// its samples and `wall_min` the fastest; simulated `accesses`/`cycles`
/// must be bit-identical across samples (the runs are deterministic — any
/// difference is a simulator bug and panics here).
pub fn measure_samples(scale: Scale, seed: u64, samples: usize) -> PerfReport {
    assert!(samples >= 1, "need at least one sample");
    let mut cells: Vec<PerfCell> = Vec::new();
    let mut walls: Vec<Vec<Duration>> = Vec::new();
    for pass in 0..samples {
        let mut i = 0;
        for w in asf_workloads::all(scale) {
            for &det in &smoke_detectors() {
                let start = Instant::now();
                // Suite benchmarks under the paper config cannot fail; a
                // failure here is a harness bug worth dying loudly over.
                let stats = run_one(w.name(), det, scale, seed)
                    .unwrap_or_else(|e| panic!("perf grid cell failed: {e}"));
                let wall = start.elapsed();
                if pass == 0 {
                    cells.push(PerfCell {
                        bench: w.name().to_string(),
                        detector: det.label(),
                        wall,
                        wall_min: wall,
                        accesses: stats.l1_hits + stats.l1_misses,
                        cycles: stats.cycles,
                    });
                    walls.push(vec![wall]);
                } else {
                    let c = &cells[i];
                    let (acc, cyc) = (stats.l1_hits + stats.l1_misses, stats.cycles);
                    assert!(
                        acc == c.accesses && cyc == c.cycles,
                        "non-deterministic run: {}/{} sample {pass} measured \
                         {acc} accesses / {cyc} cycles vs {} / {}",
                        c.bench,
                        c.detector,
                        c.accesses,
                        c.cycles,
                    );
                    walls[i].push(wall);
                }
                i += 1;
            }
        }
    }
    for (c, w) in cells.iter_mut().zip(walls.iter_mut()) {
        w.sort();
        c.wall_min = w[0];
        // Lower median for even counts: deterministic, pessimism-free.
        c.wall = w[(w.len() - 1) / 2];
    }
    PerfReport { scale, seed, cells }
}

fn rate(accesses: u64, wall: Duration) -> f64 {
    accesses as f64 / wall.as_secs_f64().max(1e-9)
}

impl PerfReport {
    /// Benchmarks present, in grid order.
    fn benches(&self) -> Vec<&str> {
        let mut out: Vec<&str> = Vec::new();
        for c in &self.cells {
            if out.last() != Some(&c.bench.as_str()) {
                out.push(&c.bench);
            }
        }
        out
    }

    /// Total wall time across the grid.
    pub fn total_wall(&self) -> Duration {
        self.cells.iter().map(|c| c.wall).sum()
    }

    /// Total simulated accesses across the grid.
    pub fn total_accesses(&self) -> u64 {
        self.cells.iter().map(|c| c.accesses).sum()
    }

    /// Per-benchmark table (detectors aggregated) plus a TOTAL row:
    /// accesses, wall time, and accesses/second.
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            format!("perf — simulator throughput ({:?}, seed {:#x})", self.scale, self.seed),
            &["benchmark", "accesses", "wall ms", "Macc/s"],
        );
        let mut row = |name: &str, acc: u64, wall: Duration| {
            t.row(vec![
                name.to_string(),
                acc.to_string(),
                format!("{:.2}", wall.as_secs_f64() * 1e3),
                format!("{:.2}", rate(acc, wall) / 1e6),
            ]);
        };
        for b in self.benches() {
            let (mut acc, mut wall) = (0u64, Duration::ZERO);
            for c in self.cells.iter().filter(|c| c.bench == b) {
                acc += c.accesses;
                wall += c.wall;
            }
            row(b, acc, wall);
        }
        row("TOTAL", self.total_accesses(), self.total_wall());
        t
    }

    /// The grid's own top-level fields of `BENCH_perf.json`, in file order.
    fn fields(&self) -> [(&'static str, JsonValue); 6] {
        let ms = |d: Duration| JsonValue::rounded(d.as_secs_f64() * 1e3, 3);
        let per_sec = |acc: u64, wall: Duration| JsonValue::Int(rate(acc, wall).round() as u64);
        let cells = self
            .cells
            .iter()
            .map(|c| {
                JsonValue::obj([
                    ("bench", c.bench.as_str().into()),
                    ("detector", c.detector.as_str().into()),
                    ("wall_ms", ms(c.wall)),
                    ("wall_min_ms", ms(c.wall_min)),
                    ("accesses", c.accesses.into()),
                    ("cycles", c.cycles.into()),
                    ("accesses_per_sec", per_sec(c.accesses, c.wall)),
                ])
            })
            .collect();
        [
            ("scale", format!("{:?}", self.scale).as_str().into()),
            ("seed", self.seed.into()),
            ("cells", JsonValue::Arr(cells)),
            ("total_wall_ms", ms(self.total_wall())),
            ("total_accesses", self.total_accesses().into()),
            ("total_accesses_per_sec", per_sec(self.total_accesses(), self.total_wall())),
        ]
    }

    /// Machine-readable report: per-cell detail plus grid totals, as a
    /// standalone document (no history, no round sections).
    pub fn to_json(&self) -> String {
        render_report(&JsonValue::obj(self.fields()))
    }

    /// Record this run in a `BENCH_perf.json` document: replace the grid's
    /// own fields, append a `history` round stamped with `git_subject`,
    /// and leave every other key as it was. Returns the round number.
    pub fn write_into(&self, doc: &mut JsonValue, git_subject: &str) -> u64 {
        for (key, value) in self.fields() {
            doc.set(key, value);
        }
        let total_wall_ms = self.total_wall().as_secs_f64() * 1e3;
        append_round(doc, "history", |round| {
            JsonValue::obj([
                ("round", round.into()),
                ("git_subject", git_subject.into()),
                ("total_wall_ms", JsonValue::rounded(total_wall_ms, 3)),
            ])
        })
    }
}

/// Parse a `BENCH_perf.json` document. Empty text is an empty document
/// (nothing recorded yet); anything else must be a JSON object.
pub fn parse_report(text: &str) -> Result<JsonValue, String> {
    if text.trim().is_empty() {
        return Ok(JsonValue::Obj(Vec::new()));
    }
    match parse(text)? {
        doc @ JsonValue::Obj(_) => Ok(doc),
        _ => Err("not a JSON object".to_string()),
    }
}

/// Render a report document in its committed layout: one top-level member
/// per line, and one entry per line in each top-level array.
pub fn render_report(doc: &JsonValue) -> String {
    format!("{}\n", doc.render(2))
}

/// Read the report at `path` (a missing file reads as empty), let `edit`
/// change its own keys, and replace the file with one atomic write.
/// Returns what `edit` returns. A file that does not parse is an error,
/// never overwritten.
pub fn update_report_file<T>(
    path: impl AsRef<Path>,
    edit: impl FnOnce(&mut JsonValue) -> T,
) -> Result<T, String> {
    let path = path.as_ref();
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => String::new(),
        Err(e) => return Err(format!("read {}: {e}", path.display())),
    };
    let mut doc =
        parse_report(&text).map_err(|e| format!("{} does not parse: {e}", path.display()))?;
    let out = edit(&mut doc);
    asf_stats::atomic_write(path, render_report(&doc))
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    Ok(out)
}

/// The number the next round appended to the top-level array `key` should
/// carry: one past its last entry's `round`, or 1.
pub fn next_round(doc: &JsonValue, key: &str) -> u64 {
    doc.get(key)
        .and_then(|rounds| rounds.as_arr().ok()?.last()?.get("round")?.as_u64().ok())
        .map_or(1, |last| last + 1)
}

/// Append `entry(round)` to the top-level array `key`, creating it last in
/// the document when absent, and return the round number.
pub fn append_round(
    doc: &mut JsonValue,
    key: &str,
    entry: impl FnOnce(u64) -> JsonValue,
) -> u64 {
    let round = next_round(doc, key);
    let mut rounds =
        doc.get(key).and_then(|v| v.as_arr().ok()).map(<[_]>::to_vec).unwrap_or_default();
    rounds.push(entry(round));
    doc.set(key, JsonValue::Arr(rounds));
    round
}

/// One round of the append-only perf history carried inside
/// `BENCH_perf.json`: which change produced that round's committed artifact
/// and the grid total it recorded. Wall times are environment-sensitive, so
/// the history is a narrative of what each round *measured and committed*,
/// not a promise two entries ran on equally quiet machines.
#[derive(Clone, Debug, PartialEq)]
pub struct HistoryEntry {
    /// 1-based perf-round number, strictly increasing.
    pub round: u64,
    /// Subject line of the commit that round's grid was measured at.
    pub git_subject: String,
    /// Total grid wall time that round committed, in milliseconds.
    pub total_wall_ms: f64,
}

/// The `"history"` array of a report, oldest round first. Reports written
/// before the history existed parse as empty — absence is not an error.
pub fn history(doc: &JsonValue) -> Vec<HistoryEntry> {
    let entries = doc.get("history").and_then(|h| h.as_arr().ok()).unwrap_or_default();
    entries
        .iter()
        .filter_map(|e| {
            Some(HistoryEntry {
                round: e.get("round")?.as_u64().ok()?,
                git_subject: e.get("git_subject")?.as_str().ok()?.to_string(),
                total_wall_ms: e.get("total_wall_ms")?.as_f64().ok()?,
            })
        })
        .collect()
}

/// What `check_against_baseline` needs from a committed `BENCH_perf.json`:
/// the grid identity (scale, seed), the wall-time total, and the simulated
/// cycle count of every cell (the determinism fence).
#[derive(Clone, Debug, PartialEq)]
pub struct Baseline {
    /// `Scale` the baseline grid ran at (`"Small"`, `"Standard"`, …).
    pub scale: String,
    /// Master seed of the baseline grid.
    pub seed: u64,
    /// Total grid wall time in milliseconds.
    pub total_wall_ms: f64,
    /// `(bench, detector, cycles)` per cell, in grid order.
    pub cells: Vec<(String, String, u64)>,
}

impl Baseline {
    /// Read a baseline out of a parsed report; `Err` names the first
    /// missing or mistyped field.
    pub fn from_value(doc: &JsonValue) -> Result<Baseline, String> {
        let cells = doc
            .field("cells")?
            .as_arr()?
            .iter()
            .map(|c| {
                Ok((
                    c.field("bench")?.as_str()?.to_string(),
                    c.field("detector")?.as_str()?.to_string(),
                    c.field("cycles")?.as_u64()?,
                ))
            })
            .collect::<Result<Vec<_>, String>>()?;
        if cells.is_empty() {
            return Err("no cells".to_string());
        }
        Ok(Baseline {
            scale: doc.field("scale")?.as_str()?.to_string(),
            seed: doc.field("seed")?.as_u64()?,
            total_wall_ms: doc.field("total_wall_ms")?.as_f64()?,
            cells,
        })
    }
}

/// CI regression guard: compare a fresh measurement against the committed
/// `BENCH_perf.json`. Fails (Err with a human-readable reason) when
///
/// * the baseline is unreadable or ran a different scale (walls are not
///   comparable across scales),
/// * any cell's simulated `cycles` differs while benchmark set and seed
///   match — that is a *correctness* drift wearing a perf costume, caught
///   here deterministically even on noisy runners, or
/// * total wall time regressed by more than `tolerance` (0.25 = fail when
///   more than 25% slower than the baseline).
///
/// On success returns a one-line summary with the speed ratio.
pub fn check_against_baseline(
    report: &PerfReport,
    baseline_json: &str,
    tolerance: f64,
) -> Result<String, String> {
    let doc = parse_report(baseline_json)
        .map_err(|e| format!("baseline JSON does not parse: {e}"))?;
    let base = Baseline::from_value(&doc)
        .map_err(|e| format!("baseline JSON is not a PerfReport: {e}"))?;
    let scale = format!("{:?}", report.scale);
    if base.scale != scale {
        return Err(format!(
            "scale mismatch: baseline ran {}, this run {scale} — wall times not comparable",
            base.scale
        ));
    }
    if base.seed == report.seed {
        if base.cells.len() != report.cells.len() {
            return Err(format!(
                "grid shape changed: baseline has {} cells, this run {}",
                base.cells.len(),
                report.cells.len()
            ));
        }
        for (b, c) in base.cells.iter().zip(&report.cells) {
            if b.0 != c.bench || b.1 != c.detector {
                return Err(format!(
                    "grid order changed: baseline cell {}/{} vs {}/{}",
                    b.0, b.1, c.bench, c.detector
                ));
            }
            if b.2 != c.cycles {
                return Err(format!(
                    "simulated cycles drifted on {}/{}: baseline {}, this run {} — \
                     not a perf regression, a behaviour change",
                    c.bench, c.detector, b.2, c.cycles
                ));
            }
        }
    }
    let wall_ms = report.total_wall().as_secs_f64() * 1e3;
    let ratio = wall_ms / base.total_wall_ms.max(1e-9);
    if ratio > 1.0 + tolerance {
        return Err(format!(
            "perf regression: total wall {wall_ms:.1} ms vs baseline {:.1} ms \
             ({ratio:.2}x, tolerance {:.0}%)",
            base.total_wall_ms,
            tolerance * 100.0
        ));
    }
    let mut msg = format!(
        "perf ok: total wall {wall_ms:.1} ms vs baseline {:.1} ms ({ratio:.2}x)",
        base.total_wall_ms
    );
    // The baseline's last history entry is the previous completed round;
    // spell out the round-over-round delta when one exists.
    if let Some(prev) = history(&doc).last() {
        let delta = (wall_ms - prev.total_wall_ms) / prev.total_wall_ms.max(1e-9) * 100.0;
        msg.push_str(&format!(
            "; vs round {} ({}): {:.1} ms -> {wall_ms:.1} ms ({delta:+.1}%)",
            prev.round, prev.git_subject, prev.total_wall_ms
        ));
    }
    Ok(msg)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    #[test]
    fn smoke_grid_measures_and_serialises() {
        // One tiny cell-shaped report, hand-built (no timing dependence).
        let report = PerfReport {
            scale: Scale::Small,
            seed: 7,
            cells: vec![
                PerfCell {
                    bench: "ssca2".into(),
                    detector: "baseline".into(),
                    wall: Duration::from_millis(4),
                    wall_min: Duration::from_millis(3),
                    accesses: 2000,
                    cycles: 10_000,
                },
                PerfCell {
                    bench: "ssca2".into(),
                    detector: "sb8".into(),
                    wall: Duration::from_millis(6),
                    wall_min: Duration::from_millis(6),
                    accesses: 2000,
                    cycles: 10_000,
                },
            ],
        };
        assert_eq!(report.total_accesses(), 4000);
        assert_eq!(report.total_wall(), Duration::from_millis(10));
        let t = report.table();
        // One benchmark row plus TOTAL.
        assert_eq!(t.len(), 2);
        assert_eq!(t.rows()[1][0], "TOTAL");
        let json = report.to_json();
        assert!(json.contains("\"total_accesses\": 4000"));
        assert!(json.contains("\"detector\": \"sb8\""));
        // Balanced braces — cheap JSON sanity without a parser.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    pub(crate) fn tiny_report(wall_ms: u64, cycles: u64) -> PerfReport {
        PerfReport {
            scale: Scale::Small,
            seed: 7,
            cells: vec![PerfCell {
                bench: "ssca2".into(),
                detector: "baseline".into(),
                wall: Duration::from_millis(wall_ms),
                wall_min: Duration::from_millis(wall_ms),
                accesses: 2000,
                cycles,
            }],
        }
    }

    fn baseline_of(json: &str) -> Result<Baseline, String> {
        Baseline::from_value(&parse_report(json)?)
    }

    #[test]
    fn baseline_roundtrips_through_json() {
        let report = tiny_report(4, 10_000);
        let base = baseline_of(&report.to_json()).expect("own JSON parses");
        assert_eq!(base.scale, "Small");
        assert_eq!(base.seed, 7);
        assert_eq!(base.cells, vec![("ssca2".into(), "baseline".into(), 10_000)]);
        assert!((base.total_wall_ms - 4.0).abs() < 1e-6);
        assert!(baseline_of("{\"not\": \"a report\"}").is_err());
    }

    #[test]
    fn baseline_check_accepts_equal_and_faster_runs() {
        let base_json = tiny_report(10, 10_000).to_json();
        for wall in [5, 10, 12] {
            let msg = check_against_baseline(&tiny_report(wall, 10_000), &base_json, 0.25)
                .expect("within tolerance");
            assert!(msg.contains("perf ok"), "{msg}");
        }
    }

    #[test]
    fn baseline_check_rejects_regressions_and_drift() {
        let base_json = tiny_report(10, 10_000).to_json();
        let slow = check_against_baseline(&tiny_report(20, 10_000), &base_json, 0.25);
        assert!(slow.unwrap_err().contains("perf regression"));
        // Same seed, different simulated cycles: behaviour drift, not noise.
        let drift = check_against_baseline(&tiny_report(10, 10_001), &base_json, 0.25);
        assert!(drift.unwrap_err().contains("cycles drifted"));
        // Different scale: not comparable at all.
        let mut other = tiny_report(1, 10_000);
        other.scale = Scale::Standard;
        let scale = check_against_baseline(&other, &base_json, 0.25);
        assert!(scale.unwrap_err().contains("scale mismatch"));
    }

    #[test]
    fn history_roundtrips_and_appends() {
        let report = tiny_report(4, 10_000);
        // No history field at all: parses as empty, not an error.
        assert_eq!(history(&parse_report(&report.to_json()).unwrap()), vec![]);
        // Round numbering starts at 1 and the new entry records this run.
        let mut doc = parse_report("").unwrap();
        assert_eq!(report.write_into(&mut doc, "flat cache arrays"), 1);
        let h1 = history(&doc);
        assert_eq!(h1.len(), 1);
        assert_eq!(h1[0].round, 1);
        assert!((h1[0].total_wall_ms - 4.0).abs() < 1e-6);
        // A second run keeps the old round verbatim and increments.
        let faster = tiny_report(3, 10_000);
        assert_eq!(faster.write_into(&mut doc, "calendar \"queue\" run"), 2);
        // Roundtrip through the rendered file: the subject comes back
        // exactly as written, quotes included.
        let parsed = history(&parse_report(&render_report(&doc)).unwrap());
        assert_eq!(parsed[0], h1[0]);
        assert_eq!(parsed[1].git_subject, "calendar \"queue\" run");
        assert_eq!(parsed[1].round, 2);
        // The top-level total is this run's, not a history entry's.
        let base = baseline_of(&render_report(&doc)).expect("report with history parses");
        assert!((base.total_wall_ms - 3.0).abs() < 1e-6);
    }

    #[test]
    fn baseline_check_reports_delta_vs_previous_round() {
        let base_report = tiny_report(10, 10_000);
        let mut doc = parse_report("").unwrap();
        base_report.write_into(&mut doc, "previous round");
        let base_json = render_report(&doc);
        let msg = check_against_baseline(&tiny_report(5, 10_000), &base_json, 0.25)
            .expect("faster run passes");
        assert!(msg.contains("vs round 1 (previous round)"), "{msg}");
        assert!(msg.contains("(-50.0%)"), "{msg}");
        // Without history the message stays in its original shape.
        let plain = check_against_baseline(&tiny_report(5, 10_000), &base_report.to_json(), 0.25)
            .expect("faster run passes");
        assert!(!plain.contains("vs round"), "{plain}");
    }

    #[test]
    fn two_sections_coexist_in_one_document() {
        let mut doc = parse_report("").unwrap();
        let entry = |key: &'static str, n: u64| {
            move |round: u64| JsonValue::obj([("round", round.into()), (key, n.into())])
        };
        append_round(&mut doc, "scale_rounds", entry("a", 1));
        append_round(&mut doc, "serve_rounds", entry("b", 3));
        append_round(&mut doc, "scale_rounds", entry("a", 2));
        append_round(&mut doc, "serve_rounds", entry("b", 4));
        assert_eq!(next_round(&doc, "scale_rounds"), 3);
        assert_eq!(next_round(&doc, "serve_rounds"), 3);
        let section = |key: &str| doc.field(key).unwrap().render(0);
        assert_eq!(section("scale_rounds"), r#"[{"round": 1, "a": 1}, {"round": 2, "a": 2}]"#);
        assert_eq!(section("serve_rounds"), r#"[{"round": 1, "b": 3}, {"round": 2, "b": 4}]"#);
        // A perf rewrite replaces only the grid's fields and history; both
        // sections come through the rendered file unchanged.
        let before = doc.clone();
        tiny_report(1, 10_000).write_into(&mut doc, "perf");
        let after = parse_report(&render_report(&doc)).unwrap();
        for key in ["scale_rounds", "serve_rounds"] {
            assert_eq!(after.get(key), before.get(key), "{key}");
        }
        assert_eq!(history(&after).len(), 1);
    }

    #[test]
    fn unparsable_report_file_is_an_error_not_overwritten() {
        let path = std::env::temp_dir()
            .join(format!("asf_perf_report_{}.json", asf_stats::atomic_file::unique_suffix()));
        std::fs::write(&path, "{ torn").unwrap();
        let err = update_report_file(&path, |doc| doc.set("x", 1u64.into())).unwrap_err();
        assert!(err.contains("does not parse"), "{err}");
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "{ torn");
        // A missing file starts an empty document.
        std::fs::remove_file(&path).unwrap();
        update_report_file(&path, |doc| doc.set("x", 1u64.into())).unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "{\n  \"x\": 1\n}\n");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn measure_runs_the_grid() {
        // Restrict to the real measurement path but keep it fast: Small
        // scale, and just assert shape + non-zero work.
        let r = measure(Scale::Small, 0x9e3f);
        let n_benches = asf_workloads::all(Scale::Small).len();
        assert_eq!(r.cells.len(), n_benches * smoke_detectors().len());
        assert!(r.total_accesses() > 0);
        assert!(r.cells.iter().all(|c| c.cycles > 0));
        // One sample: median and min are the same observation.
        assert!(r.cells.iter().all(|c| c.wall == c.wall_min));
    }

    #[test]
    fn multi_sample_medians_bound_the_min() {
        // Real three-sample sweep on the quickest scale: identical
        // simulated results (asserted inside measure_samples), median ≥
        // min, and the JSON carries both.
        let r = measure_samples(Scale::Small, 0x9e3f, 3);
        assert!(r.cells.iter().all(|c| c.wall >= c.wall_min));
        let json = r.to_json();
        assert!(json.contains("\"wall_min_ms\""));
        // The baseline reader still reads the same shape.
        let base = baseline_of(&json).expect("parses");
        assert_eq!(base.cells.len(), r.cells.len());
    }
}
