//! Estimators: a fixed-memory log-bucket latency histogram, quantiles of a
//! small sample, and the per-segment estimates of rate and latency.

/// Ratio between neighbouring bucket bounds. A value is reported as the
/// geometric middle of its bucket, so the error is at most
/// `sqrt(1.02) - 1` < 1 %.
const BUCKET_RATIO: f64 = 1.02;
/// Enough buckets for 1 ns … 1000 s.
const BUCKETS: usize = 1400;

/// Latency histogram over nanoseconds with buckets that grow by
/// [`BUCKET_RATIO`]. All memory is allocated by [`LogHistogram::new`], so
/// recording during a measured phase does not move `peak_rss_mb`.
#[derive(Clone)]
pub struct LogHistogram {
    counts: Vec<u64>,
    total: u64,
}

impl LogHistogram {
    pub fn new() -> LogHistogram {
        LogHistogram {
            counts: vec![0; BUCKETS],
            total: 0,
        }
    }

    fn bucket(nanos: u64) -> usize {
        let index = (nanos.max(1) as f64).ln() / BUCKET_RATIO.ln();
        (index as usize).min(BUCKETS - 1)
    }

    pub fn record(&mut self, nanos: u64) {
        self.record_n(nanos, 1);
    }

    /// Records `n` samples of the same value (the fleet workload learns the
    /// latency of a whole group of requests at once).
    pub fn record_n(&mut self, nanos: u64, n: u64) {
        self.counts[Self::bucket(nanos)] += n;
        self.total += n;
    }

    #[cfg(test)]
    pub fn count(&self) -> u64 {
        self.total
    }

    pub fn merge(&mut self, other: &LogHistogram) {
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
        self.total += other.total;
    }

    /// The value below which a share `q` of the samples lie, in
    /// nanoseconds; 0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0;
        for (index, &count) in self.counts.iter().enumerate() {
            seen += count;
            if seen >= rank {
                return BUCKET_RATIO.powf(index as f64 + 0.5);
            }
        }
        unreachable!("rank is at most the total")
    }

    /// Samples in the buckets up to and including the one `nanos` falls in.
    pub fn count_at_or_below(&self, nanos: u64) -> u64 {
        self.counts[..=Self::bucket(nanos)].iter().sum()
    }

    /// Samples strictly above the bucket that holds quantile `q`.
    pub fn samples_beyond(&self, q: f64) -> u64 {
        let at = Self::bucket(self.quantile(q) as u64);
        self.counts[at + 1..].iter().sum()
    }
}

/// Quantile `q` of a small sample by linear interpolation between order
/// statistics; 0 for an empty sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let position = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let below = position.floor() as usize;
    let above = position.ceil() as usize;
    sorted[below] + (sorted[above] - sorted[below]) * (position - below as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Distance between the first and third quartile as a share of the median —
/// the spread the benchmark contract is written in. Uses the same
/// exclusive method as Python's `statistics.quantiles(values, n=4)`.
pub fn quartile_spread(values: &[f64]) -> f64 {
    let n = values.len();
    if n < 2 {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let cut = |k: usize| {
        let position = (k * (n + 1)) as f64 / 4.0;
        let j = (position.floor() as usize).clamp(1, n - 1);
        let delta = position - j as f64;
        sorted[j - 1] + (sorted[j] - sorted[j - 1]) * delta
    };
    let mid = median(&sorted);
    if mid == 0.0 {
        return 0.0;
    }
    (cut(3) - cut(1)).abs() / mid.abs()
}

/// One measured segment: a fixed number of ops and the wall time they took.
#[derive(Clone, Copy, Debug)]
pub struct Segment {
    pub ops: u64,
    pub wall_nanos: u64,
}

impl Segment {
    pub fn rate(&self) -> f64 {
        self.ops as f64 / (self.wall_nanos.max(1) as f64 / 1e9)
    }
}

/// Share of the segments that the reported rate must beat, and that the
/// reported latencies must be beaten by.
///
/// On the box this was built on, whatever disturbs a run — a neighbour on the
/// same core or in the same cache — only ever slows it, for a fraction of a
/// second or for several, and up to most of a run. The segments that were
/// left alone are the fastest ones, so the estimate is taken near the fast
/// end: not at the very end, where a few lucky segments would decide it.
/// Over repeated runs this repeats about twice as closely as the median.
pub const UNDISTURBED: f64 = 0.95;

/// Throughput of a phase: the rate that [`UNDISTURBED`] of its segments
/// stay below.
pub fn segment_rate(segments: &[Segment]) -> f64 {
    let rates: Vec<f64> = segments.iter().map(Segment::rate).collect();
    quantile(&rates, UNDISTURBED)
}

/// A latency of a phase from its per-segment values (each segment's median,
/// or each segment's p99): the value that [`UNDISTURBED`] of them exceed.
pub fn segment_latency(per_segment: &[f64]) -> f64 {
    quantile(per_segment, 1.0 - UNDISTURBED)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_quantiles_are_within_one_percent() {
        let mut h = LogHistogram::new();
        for nanos in 1..=100_000u64 {
            h.record(nanos * 37);
        }
        for q in [0.01, 0.25, 0.5, 0.9, 0.99, 0.999] {
            let exact = (q * 100_000.0_f64).ceil() * 37.0;
            let got = h.quantile(q);
            assert!(
                (got - exact).abs() / exact <= 0.01,
                "q={q}: {got} vs {exact}"
            );
        }
        assert_eq!(h.count(), 100_000);
    }

    #[test]
    fn histogram_covers_a_nanosecond_to_a_quarter_hour() {
        let mut h = LogHistogram::new();
        h.record(0);
        h.record(1);
        h.record(900_000_000_000);
        assert!(h.quantile(0.0) < 1.02);
        let top = h.quantile(1.0);
        assert!((top - 9e11).abs() / 9e11 <= 0.01, "{top}");
    }

    #[test]
    fn histogram_memory_is_fixed_and_merge_adds() {
        let mut a = LogHistogram::new();
        let capacity = a.counts.capacity();
        for i in 0..1_000_000u64 {
            a.record(i);
        }
        assert_eq!(a.counts.capacity(), capacity);
        let mut b = LogHistogram::new();
        b.record_n(5_000, 10);
        b.merge(&a);
        assert_eq!(b.count(), 1_000_010);
    }

    #[test]
    fn samples_beyond_counts_the_tail() {
        let mut h = LogHistogram::new();
        h.record_n(1_000, 990);
        h.record_n(50_000, 10);
        assert_eq!(h.samples_beyond(0.5), 10);
        assert_eq!(h.samples_beyond(0.999), 0);
        assert_eq!(h.count_at_or_below(2_000), 990);
        assert_eq!(h.count_at_or_below(50_000), 1000);
    }

    #[test]
    fn quantile_interpolates() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0, 5.0], 0.25), 2.0);
    }

    #[test]
    fn quartile_spread_matches_the_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        let spread = quartile_spread(&values);
        assert!((spread - 5.5 / 5.5).abs() < 1e-12, "{spread}");
    }

    #[test]
    fn segment_estimates_ignore_slow_spells() {
        let mut segments = vec![
            Segment {
                ops: 1000,
                wall_nanos: 1_000_000_000
            };
            100
        ];
        let mut tails = vec![250.0; 100];
        // Neighbours make eighty of a hundred segments two or three times
        // slower; twenty are left alone.
        for (index, segment) in segments.iter_mut().enumerate().take(80) {
            segment.wall_nanos *= 2 + index as u64 % 2;
            tails[index] *= 2.0 + (index % 2) as f64;
        }
        assert_eq!(segment_rate(&segments), 1000.0);
        assert_eq!(segment_latency(&tails), 250.0);
        let rates: Vec<f64> = segments.iter().map(Segment::rate).collect();
        assert!(median(&rates) < 600.0, "the median would have moved");
        // A few lucky segments do not decide the estimate either.
        for segment in &mut segments[96..] {
            segment.wall_nanos /= 2;
        }
        assert_eq!(segment_rate(&segments), 1000.0);
    }
}
