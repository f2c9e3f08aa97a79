//! Cumulative event time series (Figure 3).
//!
//! The paper plots cumulative started transactions and cumulative false
//! conflicts against execution time. A [`TimeSeries`] records raw
//! `(cycle)` event stamps and produces a binned cumulative curve on demand.

/// Cumulative counter over simulated time.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct TimeSeries {
    /// Event timestamps in cycles, non-decreasing order not required.
    stamps: Vec<u64>,
}

impl TimeSeries {
    /// Record one event at `cycle`.
    pub fn record(&mut self, cycle: u64) {
        self.stamps.push(cycle);
    }

    /// Total events recorded.
    pub fn total(&self) -> u64 {
        self.stamps.len() as u64
    }

    /// Latest event timestamp (0 when empty).
    pub fn last_cycle(&self) -> u64 {
        self.stamps.iter().copied().max().unwrap_or(0)
    }

    /// Cumulative curve with `bins` equal time bins over `[0, horizon]`:
    /// element *i* is the number of events at or before the end of bin *i*.
    pub fn cumulative(&self, horizon: u64, bins: usize) -> Vec<u64> {
        assert!(bins >= 1);
        let mut counts = vec![0u64; bins];
        let h = horizon.max(1);
        for &t in &self.stamps {
            let idx = ((t.min(h) as u128 * bins as u128) / (h as u128 + 1)) as usize;
            counts[idx.min(bins - 1)] += 1;
        }
        // prefix sum
        for i in 1..bins {
            counts[i] += counts[i - 1];
        }
        counts
    }

    /// Largest single-bin increment divided by the mean increment — a
    /// burstiness score. A perfectly linear arrival gives ≈ 1; the genome
    /// phase bursts of Figure 3 give ≫ 1.
    pub fn burstiness(&self, horizon: u64, bins: usize) -> f64 {
        let cum = self.cumulative(horizon, bins);
        let total = *cum.last().unwrap_or(&0);
        if total == 0 {
            return 0.0;
        }
        let mut max_inc = cum[0];
        for i in 1..cum.len() {
            max_inc = max_inc.max(cum[i] - cum[i - 1]);
        }
        max_inc as f64 / (total as f64 / bins as f64)
    }

    /// Merge another series into this one.
    pub fn merge(&mut self, other: &TimeSeries) {
        self.stamps.extend_from_slice(&other.stamps);
    }

    /// Raw event stamps in recorded order (JSON serialisation).
    pub fn stamps(&self) -> &[u64] {
        &self.stamps
    }

    /// Rebuild a series from raw stamps, preserving their order (the
    /// inverse of [`TimeSeries::stamps`]; exact round-trip).
    pub fn from_stamps(stamps: Vec<u64>) -> TimeSeries {
        TimeSeries { stamps }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cumulative_prefix_sums() {
        let mut s = TimeSeries::default();
        for t in [0u64, 10, 20, 95, 99] {
            s.record(t);
        }
        let c = s.cumulative(99, 10);
        assert_eq!(c.len(), 10);
        assert_eq!(*c.last().unwrap(), 5);
        assert_eq!(c[0], 1); // only t=0 in bin 0 (bin width 10)
        assert_eq!(c[2], 3);
        // Monotone non-decreasing.
        assert!(c.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn events_beyond_horizon_clamp_to_last_bin() {
        let mut s = TimeSeries::default();
        s.record(1_000_000);
        let c = s.cumulative(100, 4);
        assert_eq!(c, vec![0, 0, 0, 1]);
    }

    #[test]
    fn linear_arrivals_have_low_burstiness() {
        let mut s = TimeSeries::default();
        for t in 0..1000 {
            s.record(t);
        }
        let b = s.burstiness(999, 10);
        assert!((0.9..1.2).contains(&b), "burstiness {b}");
    }

    #[test]
    fn bursty_arrivals_have_high_burstiness() {
        let mut s = TimeSeries::default();
        for t in 0..1000u64 {
            // all events in one 10% window
            s.record(500 + t % 50);
        }
        let b = s.burstiness(999, 10);
        assert!(b > 5.0, "burstiness {b}");
    }

    #[test]
    fn empty_series() {
        let s = TimeSeries::default();
        assert_eq!(s.total(), 0);
        assert_eq!(s.last_cycle(), 0);
        assert_eq!(s.cumulative(100, 4), vec![0, 0, 0, 0]);
        assert_eq!(s.burstiness(100, 4), 0.0);
    }

    #[test]
    fn merge_combines() {
        let mut a = TimeSeries::default();
        a.record(1);
        let mut b = TimeSeries::default();
        b.record(2);
        a.merge(&b);
        assert_eq!(a.total(), 2);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Cumulative curves are monotone and end at the total.
        #[test]
        fn cumulative_is_monotone_and_complete(
            stamps in prop::collection::vec(0u64..1_000_000, 0..300),
            bins in 1usize..64,
        ) {
            let mut s = TimeSeries::default();
            for &t in &stamps {
                s.record(t);
            }
            let horizon = s.last_cycle();
            let c = s.cumulative(horizon, bins);
            prop_assert_eq!(c.len(), bins);
            prop_assert!(c.windows(2).all(|w| w[0] <= w[1]));
            prop_assert_eq!(*c.last().unwrap(), stamps.len() as u64);
        }

        /// Merging two series preserves the combined cumulative total.
        #[test]
        fn merge_preserves_totals(
            a in prop::collection::vec(0u64..10_000, 0..100),
            b in prop::collection::vec(0u64..10_000, 0..100),
        ) {
            let mut sa = TimeSeries::default();
            for &t in &a { sa.record(t); }
            let mut sb = TimeSeries::default();
            for &t in &b { sb.record(t); }
            sa.merge(&sb);
            prop_assert_eq!(sa.total(), (a.len() + b.len()) as u64);
        }
    }
}
