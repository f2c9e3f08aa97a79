//! Pinned `run_stats_digest` values: the expected output of every
//! simulation the benchmark checks, per (size, workload, seed, cell).
//!
//! `pins.txt` holds one pin a line, `<size> <workload> <seed> <cell>
//! <digest hex>`; `#` starts a comment. A seed without pins is checked
//! against a reference run instead (see each workload's module), so a pin
//! is the stronger check: it also catches a change that moves the fast and
//! the reference path together.

use std::collections::BTreeMap;

/// The pins compiled into the benchmark.
pub const PINS_TXT: &str = include_str!("../pins.txt");

/// Key of one pinned digest.
type Key = (String, String, u64, String);

fn key(size: &str, workload: &str, seed: u64, cell: &str) -> Key {
    (
        size.to_string(),
        workload.to_string(),
        seed,
        cell.to_string(),
    )
}

/// A set of pinned digests.
#[derive(Clone, Debug, Default)]
pub struct Pins(BTreeMap<Key, u64>);

impl Pins {
    /// Parse the pin file format.
    pub fn parse(text: &str) -> Result<Pins, String> {
        let mut map = BTreeMap::new();
        for (n, line) in text.lines().enumerate() {
            let line = line.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let f: Vec<&str> = line.split_whitespace().collect();
            let [size, workload, seed, cell, digest] = f[..] else {
                return Err(format!(
                    "pins line {}: expected 5 fields, got {}",
                    n + 1,
                    f.len()
                ));
            };
            let seed = seed
                .parse::<u64>()
                .map_err(|e| format!("pins line {}: seed: {e}", n + 1))?;
            let digest = u64::from_str_radix(digest, 16)
                .map_err(|e| format!("pins line {}: digest: {e}", n + 1))?;
            map.insert(key(size, workload, seed, cell), digest);
        }
        Ok(Pins(map))
    }

    /// The compiled-in pins.
    pub fn builtin() -> Pins {
        Pins::parse(PINS_TXT).expect("pins.txt parses")
    }

    /// The pinned digest of one cell, if any.
    pub fn get(&self, size: &str, workload: &str, seed: u64, cell: &str) -> Option<u64> {
        self.0.get(&key(size, workload, seed, cell)).copied()
    }

    /// Pin (or re-pin) one cell.
    pub fn set(&mut self, size: &str, workload: &str, seed: u64, cell: &str, digest: u64) {
        self.0.insert(key(size, workload, seed, cell), digest);
    }

    /// Render in the pin file format.
    pub fn to_text(&self) -> String {
        self.0
            .iter()
            .map(|((size, workload, seed, cell), d)| {
                format!("{size} {workload} {seed} {cell} {d:016x}\n")
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_and_rejects_junk() {
        let mut p = Pins::default();
        p.set("tiny", "paper-grid", 7, "kmeans/sb4", 0xabc);
        let q = Pins::parse(&format!("# header\n{}", p.to_text())).unwrap();
        assert_eq!(q.get("tiny", "paper-grid", 7, "kmeans/sb4"), Some(0xabc));
        assert_eq!(q.get("tiny", "paper-grid", 8, "kmeans/sb4"), None);
        assert!(Pins::parse("tiny paper-grid x kmeans/sb4 00").is_err());
        assert!(Pins::parse("tiny paper-grid 1 kmeans/sb4").is_err());
    }

    #[test]
    fn builtin_pins_parse() {
        let _ = Pins::builtin();
    }
}
