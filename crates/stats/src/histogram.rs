//! Spatial histograms (Figures 4 and 5).

use asf_mem::addr::{LineAddr, LINE_SIZE};
use asf_mem::mask::AccessMask;
use std::collections::HashMap;

/// False-conflict counts keyed by cache-line index (Figure 4).
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct LineHistogram {
    counts: HashMap<u64, u64>,
}

impl LineHistogram {
    /// Record `n` events on `line`.
    pub fn add(&mut self, line: LineAddr, n: u64) {
        *self.counts.entry(line.index()).or_insert(0) += n;
    }

    /// Number of distinct lines with at least one event.
    pub fn distinct_lines(&self) -> usize {
        self.counts.len()
    }

    /// Total events.
    pub fn total(&self) -> u64 {
        self.counts.values().sum()
    }

    /// Events recorded on `line`.
    pub fn get(&self, line: LineAddr) -> u64 {
        self.counts.get(&line.index()).copied().unwrap_or(0)
    }

    /// `(line index, count)` pairs sorted by line index.
    pub fn sorted(&self) -> Vec<(u64, u64)> {
        let mut v: Vec<_> = self.counts.iter().map(|(&k, &c)| (k, c)).collect();
        v.sort_unstable();
        v
    }

    /// The `k` hottest lines, by descending count (ties by index).
    pub fn hottest(&self, k: usize) -> Vec<(u64, u64)> {
        let mut v: Vec<_> = self.counts.iter().map(|(&i, &c)| (i, c)).collect();
        v.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        v.truncate(k);
        v
    }

    /// Fraction of all events carried by the `k` hottest lines — the
    /// "kmeans concentration" metric (Figure 4's qualitative contrast).
    pub fn concentration(&self, k: usize) -> f64 {
        let total = self.total();
        if total == 0 {
            return 0.0;
        }
        let top: u64 = self.hottest(k).iter().map(|&(_, c)| c).sum();
        top as f64 / total as f64
    }

    /// Merge another histogram into this one.
    pub fn merge(&mut self, other: &LineHistogram) {
        for (&k, &c) in &other.counts {
            *self.counts.entry(k).or_insert(0) += c;
        }
    }

    /// Rebuild a histogram from `(line index, count)` pairs — the inverse
    /// of [`LineHistogram::sorted`] for JSON deserialisation.
    pub fn from_pairs(pairs: impl IntoIterator<Item = (u64, u64)>) -> LineHistogram {
        let mut h = LineHistogram::default();
        for (idx, c) in pairs {
            *h.counts.entry(idx).or_insert(0) += c;
        }
        h
    }
}

/// Per-byte access counts within cache lines (Figure 5). The paper plots at
/// the benchmark's natural word size; [`OffsetHistogram::bucketed`] rebins to
/// any power-of-two word.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct OffsetHistogram {
    counts: [u64; LINE_SIZE],
}

impl Default for OffsetHistogram {
    fn default() -> Self {
        OffsetHistogram { counts: [0; LINE_SIZE] }
    }
}

impl OffsetHistogram {
    /// Record one access covering `mask` (every covered byte gets +1).
    pub fn add(&mut self, mask: AccessMask) {
        for off in mask.iter_offsets() {
            self.counts[off] += 1;
        }
    }

    /// Record one access starting at `offset` of `len` bytes, counted once
    /// per *location* (the paper counts accesses per location, i.e. the
    /// starting word), at byte resolution here.
    pub fn add_location(&mut self, offset: usize, _len: usize) {
        self.counts[offset] += 1;
    }

    /// Raw per-byte counts.
    pub fn bytes(&self) -> &[u64; LINE_SIZE] {
        &self.counts
    }

    /// Total recorded events.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Rebin into `LINE_SIZE / word` buckets of `word` bytes each
    /// (word ∈ {1,2,4,8,16,32,64}).
    pub fn bucketed(&self, word: usize) -> Vec<u64> {
        assert!(word.is_power_of_two() && (1..=LINE_SIZE).contains(&word));
        self.counts
            .chunks_exact(word)
            .map(|c| c.iter().sum())
            .collect()
    }

    /// Number of distinct non-empty buckets at the given word size — the
    /// "scatter" metric: a regularly scattered pattern (Figure 5) touches
    /// many buckets.
    pub fn occupied_buckets(&self, word: usize) -> usize {
        self.bucketed(word).iter().filter(|&&c| c > 0).count()
    }

    /// Merge another histogram into this one.
    pub fn merge(&mut self, other: &OffsetHistogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
    }

    /// Rebuild from raw per-byte counts — the inverse of
    /// [`OffsetHistogram::bytes`] for JSON deserialisation.
    pub fn from_bytes(counts: [u64; LINE_SIZE]) -> OffsetHistogram {
        OffsetHistogram { counts }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asf_mem::addr::Addr;

    fn line(n: u64) -> LineAddr {
        Addr(n * 64).line()
    }

    #[test]
    fn line_histogram_counts() {
        let mut h = LineHistogram::default();
        h.add(line(3), 2);
        h.add(line(3), 1);
        h.add(line(9), 5);
        assert_eq!(h.get(line(3)), 3);
        assert_eq!(h.get(line(9)), 5);
        assert_eq!(h.get(line(1)), 0);
        assert_eq!(h.total(), 8);
        assert_eq!(h.distinct_lines(), 2);
        assert_eq!(h.sorted(), vec![(3, 3), (9, 5)]);
    }

    #[test]
    fn hottest_and_concentration() {
        let mut h = LineHistogram::default();
        h.add(line(1), 90);
        h.add(line(2), 5);
        h.add(line(3), 5);
        assert_eq!(h.hottest(1), vec![(1, 90)]);
        assert!((h.concentration(1) - 0.9).abs() < 1e-12);
        assert!((h.concentration(3) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn merge_line_histograms() {
        let mut a = LineHistogram::default();
        a.add(line(1), 1);
        let mut b = LineHistogram::default();
        b.add(line(1), 2);
        b.add(line(2), 3);
        a.merge(&b);
        assert_eq!(a.get(line(1)), 3);
        assert_eq!(a.get(line(2)), 3);
    }

    #[test]
    fn offset_histogram_masks() {
        let mut h = OffsetHistogram::default();
        h.add(AccessMask::from_range(0, 4));
        h.add(AccessMask::from_range(0, 4));
        h.add(AccessMask::from_range(8, 8));
        assert_eq!(h.bytes()[0], 2);
        assert_eq!(h.bytes()[3], 2);
        assert_eq!(h.bytes()[8], 1);
        assert_eq!(h.bytes()[16], 0);
        assert_eq!(h.total(), 2 * 4 + 8);
    }

    #[test]
    fn bucketing() {
        let mut h = OffsetHistogram::default();
        h.add(AccessMask::from_range(0, 8));
        h.add(AccessMask::from_range(60, 4));
        let b8 = h.bucketed(8);
        assert_eq!(b8.len(), 8);
        assert_eq!(b8[0], 8);
        assert_eq!(b8[7], 4);
        assert_eq!(h.occupied_buckets(8), 2);
        assert_eq!(h.occupied_buckets(64), 1);
        let b4 = h.bucketed(4);
        assert_eq!(b4.len(), 16);
        assert_eq!(b4[0], 4);
        assert_eq!(b4[1], 4);
        assert_eq!(b4[15], 4);
    }

    #[test]
    fn add_location_counts_once() {
        let mut h = OffsetHistogram::default();
        h.add_location(8, 8);
        h.add_location(8, 8);
        assert_eq!(h.bytes()[8], 2);
        assert_eq!(h.bytes()[9], 0);
        assert_eq!(h.total(), 2);
    }
}
