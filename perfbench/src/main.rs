//! Command line of the repository benchmark.
//!
//! ```text
//! perfbench --workload <paper-grid|huge-shard|serve-mix> --seed <n>
//!           --seconds <s> --trace <0|1>
//! perfbench pins --seeds <from>..<to>
//! ```
//!
//! A run prints its configuration, every metric with its unit and the
//! error rate, then, as its last line, one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. A traced run also
//! writes its spans to `perfbench/out/trace-<workload>-<seed>.json`.
//! `pins` prints the digests that `pins.txt` holds for a seed range.

use perfbench::pins::Pins;
use perfbench::report::{config_json, result_json};
use perfbench::{grid, huge, Opts, Size};
use std::process::ExitCode;

const USAGE: &str = "usage: perfbench --workload <paper-grid|huge-shard|serve-mix> --seed <n> \
                     --seconds <s> --trace <0|1>\n       perfbench pins --seeds <from>..<to>";

fn parse(args: &[String]) -> Result<Opts, String> {
    let mut opts = Opts {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        size: Size::Full,
        pins: Pins::builtin(),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => opts.workload = value.clone(),
            "--seed" => opts.seed = value.parse().map_err(|e| format!("--seed {value}: {e}"))?,
            "--seconds" => {
                opts.seconds = value
                    .parse()
                    .map_err(|e| format!("--seconds {value}: {e}"))?;
                if !(0.0..=3600.0).contains(&opts.seconds) {
                    return Err(format!("--seconds {value}: out of range"));
                }
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !perfbench::WORKLOADS.contains(&opts.workload.as_str()) {
        return Err(format!(
            "--workload {:?}: expected one of {:?}",
            opts.workload,
            perfbench::WORKLOADS
        ));
    }
    Ok(opts)
}

/// Print pins for seeds `from..to`, at both sizes, checking each paper-grid
/// digest against the reference resolution path on the way.
fn pins(range: &str) -> Result<(), String> {
    let (from, to) = range.split_once("..").ok_or("--seeds wants <from>..<to>")?;
    let from: u64 = from.parse().map_err(|e| format!("{e}"))?;
    let to: u64 = to.parse().map_err(|e| format!("{e}"))?;
    let mut p = Pins::default();
    for seed in from..to {
        for size in [Size::Tiny, Size::Full] {
            for (cell, d) in grid::digests(size, seed)? {
                let (bench, det) = cell.split_once('/').expect("cell key is kernel/detector");
                let det = grid::DETECTORS
                    .into_iter()
                    .find(|k| k.label() == det)
                    .expect("known detector");
                let r = grid::reference_digest(bench, det, size, seed)?;
                if r != d {
                    return Err(format!(
                        "seed {seed} {cell}: fast path {d:016x} != reference {r:016x}"
                    ));
                }
                p.set(size.label(), "paper-grid", seed, &cell, d);
            }
            for (cell, d) in huge::digests(size, seed)? {
                p.set(size.label(), "huge-shard", seed, &cell, d);
            }
        }
        eprintln!("pinned seed {seed}");
    }
    print!("{}", p.to_text());
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("pins") {
        return match args.get(1..3) {
            Some([flag, range]) if flag == "--seeds" => match pins(range) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("perfbench pins: {e}");
                    ExitCode::FAILURE
                }
            },
            _ => {
                eprintln!("{USAGE}");
                ExitCode::from(2)
            }
        };
    }
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let out = match perfbench::run(&opts) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let config = config_json(&out);
    println!("config {config}");
    for m in &out.metrics.0 {
        println!("metric {:<34} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!(
        "metric {:<34} {:>16.6} ratio",
        "error_rate",
        out.ledger.error_rate()
    );
    for note in &out.ledger.notes {
        println!("failure {note}");
    }
    if opts.trace {
        let dir = std::path::Path::new("perfbench").join("out");
        let path = dir.join(format!("trace-{}-{}.json", opts.workload, opts.seed));
        let written = std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&path, out.spans.to_json(&config, &out.metrics)));
        match written {
            Ok(()) => println!(
                "trace {} ({} spans, {} dropped)",
                path.display(),
                out.spans.spans.len(),
                out.spans.dropped
            ),
            Err(e) => eprintln!("perfbench: writing {}: {e}", path.display()),
        }
    }
    println!("{}", result_json(&out));
    ExitCode::SUCCESS
}
