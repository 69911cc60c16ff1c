//! In-process pause-time histogram: answers the percentile questions
//! (p50 / p95 / p99 / p999 / max) that end-of-run `GcStats` aggregates
//! cannot, from a fixed 30 KB of log-scale buckets however long the run.

use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;

use crate::bus::Sink;
use crate::event::{Event, TraceLine};

/// Sub-buckets per octave: a bucket is at most 1/64 (1.6 %) of the values
/// it holds wide, and values below 128 ns have a bucket each.
const SUB_BUCKETS: usize = 64;
const SUB_BITS: u32 = SUB_BUCKETS.trailing_zeros();
/// 64 one-nanosecond buckets, then 64 per octave up to `u64::MAX`: 30 KB.
const BUCKETS: usize = (u64::BITS - SUB_BITS + 1) as usize * SUB_BUCKETS;

/// The bucket `nanos` is counted in: the top set bit picks the octave, the
/// `SUB_BITS` bits below it the bucket (below the first octave, `nanos`).
fn bucket_of(nanos: u64) -> usize {
    let shift = (nanos | SUB_BUCKETS as u64).ilog2() - SUB_BITS;
    shift as usize * SUB_BUCKETS + (nanos >> shift) as usize
}

/// The largest value counted in bucket `index`.
fn bucket_top(index: usize) -> u64 {
    let shift = (index / SUB_BUCKETS).saturating_sub(1);
    ((index - shift * SUB_BUCKETS) as u64) << shift | ((1 << shift) - 1)
}

/// Mutator pauses in nanoseconds, counted per log-scale bucket: one sample
/// per `collection` event (mark + sweep, or flush + sweep when the mark
/// phase ran incrementally) and one per `mark_quantum` event. The size is
/// fixed at construction, so recording never allocates and never drops.
#[derive(Clone, Debug)]
struct Samples {
    buckets: Box<[u64]>,
    count: u64,
    min: u64,
    max: u64,
}

impl Default for Samples {
    fn default() -> Samples {
        Samples {
            buckets: vec![0; BUCKETS].into(),
            count: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

impl Samples {
    fn push(&mut self, nanos: u64) {
        self.buckets[bucket_of(nanos)] += 1;
        self.count += 1;
        self.min = self.min.min(nanos);
        self.max = self.max.max(nanos);
    }

    /// The nearest-rank `qs`-quantiles (ascending) in one pass over the
    /// buckets, `None` with no samples. Each is the top of the bucket the
    /// exact quantile fell in, clamped to `[min, max]`: at most 1/64 above
    /// the exact sample, and equal to it at the extremes.
    fn quantiles<const N: usize>(&self, qs: [f64; N]) -> Option<[u64; N]> {
        if self.count == 0 {
            return None;
        }
        let mut buckets = self.buckets.iter().enumerate();
        let (mut seen, mut top) = (0, 0);
        Some(qs.map(|q| {
            // Nearest-rank: ceil(q * n) clamped to [1, n], 1-based.
            let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
            while seen < rank {
                let Some((index, &samples)) = buckets.next() else {
                    break;
                };
                seen += samples;
                top = bucket_top(index);
            }
            top.clamp(self.min, self.max)
        }))
    }
}

/// Sink recording one pause-time sample per `collection` event. Clones
/// share state: hand one clone to the bus and keep the other to query.
#[derive(Clone, Debug, Default)]
pub struct PauseHistogram {
    samples: Arc<Mutex<Samples>>,
}

impl PauseHistogram {
    /// An empty histogram, at the size it will always have.
    pub fn new() -> PauseHistogram {
        PauseHistogram::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Samples> {
        // Every update leaves the counters valid, so a poisoned lock is too.
        self.samples.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Number of pause samples recorded — every one, ever.
    pub fn count(&self) -> usize {
        usize::try_from(self.lock().count).unwrap_or(usize::MAX)
    }

    /// The `q`-quantile pause (nearest-rank over the buckets, so within
    /// 1/64 of the exact sample), `None` with no samples.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= q <= 1.0`.
    pub fn percentile(&self, q: f64) -> Option<Duration> {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0, 1]");
        let [nanos] = self.lock().quantiles([q])?;
        Some(Duration::from_nanos(nanos))
    }

    /// Median pause.
    pub fn p50(&self) -> Option<Duration> {
        self.percentile(0.50)
    }

    /// 95th-percentile pause.
    pub fn p95(&self) -> Option<Duration> {
        self.percentile(0.95)
    }

    /// 99th-percentile pause.
    pub fn p99(&self) -> Option<Duration> {
        self.percentile(0.99)
    }

    /// 99.9th-percentile pause.
    pub fn p999(&self) -> Option<Duration> {
        self.percentile(0.999)
    }

    /// Longest pause, exactly.
    pub fn max(&self) -> Option<Duration> {
        self.percentile(1.0)
    }

    /// Records one sample directly, bypassing the event stream. The
    /// histogram is a general duration/latency summary; a multi-tenant
    /// host uses this to record per-request service times that never
    /// appear as telemetry events.
    pub fn record_nanos(&self, nanos: u64) {
        self.lock().push(nanos);
    }

    /// Records a batch of samples under one lock — what a worker that
    /// buffers a round's request times calls at the round barrier.
    pub fn record_all(&self, nanos: &[u64]) {
        let mut samples = self.lock();
        for &sample in nanos {
            samples.push(sample);
        }
    }

    /// Renders one Prometheus summary-style family from several labeled
    /// histograms: `# HELP`/`# TYPE` once, then one
    /// `name{label="...",quantile="..."}` gauge per histogram and
    /// quantile (0.5 / 0.95 / 0.99 / 0.999), plus a `name_count` counter
    /// family with each histogram's sample count. Histograms with no
    /// samples contribute only their count (0) — a quantile of nothing is
    /// not 0ns. Label values are escaped. Each histogram's lock is taken
    /// once, for one pass over its buckets.
    pub fn merged_quantiles(
        name: &str,
        help: &str,
        label: &str,
        parts: &[(&str, &PauseHistogram)],
    ) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let mut counts = String::new();
        let _ = writeln!(out, "# HELP {name} {help}");
        let _ = writeln!(out, "# TYPE {name} gauge");
        for (value, histogram) in parts {
            let escaped = crate::sinks::escape_label_value(value);
            let samples = histogram.lock();
            let quantiles = samples.quantiles([0.5, 0.95, 0.99, 0.999]);
            let tags = ["0.5", "0.95", "0.99", "0.999"];
            for (tag, nanos) in tags.iter().zip(quantiles.iter().flatten()) {
                let _ = writeln!(
                    out,
                    "{name}{{{label}=\"{escaped}\",quantile=\"{tag}\"}} {nanos}"
                );
            }
            let count = samples.count;
            let _ = writeln!(counts, "{name}_count{{{label}=\"{escaped}\"}} {count}");
        }
        let _ = writeln!(out, "# HELP {name}_count Samples recorded in {name}.");
        let _ = writeln!(out, "# TYPE {name}_count counter");
        out + &counts
    }

    /// Folds `other`'s samples into `self`, as if each had been recorded
    /// here. Percentiles over the merged histogram answer host-wide
    /// questions ("p95 pause across all tenants") that per-tenant
    /// histograms cannot. Merging a histogram with itself (same shared
    /// state) is a no-op rather than a double-count.
    pub fn merge(&self, other: &PauseHistogram) {
        if Arc::ptr_eq(&self.samples, &other.samples) {
            return;
        }
        // One lock at a time: two histograms merged into each other from
        // two threads must not deadlock.
        let theirs = other.lock().clone();
        let mut mine = self.lock();
        for (bucket, samples) in mine.buckets.iter_mut().zip(theirs.buckets.iter()) {
            *bucket += samples;
        }
        mine.count += theirs.count;
        mine.min = mine.min.min(theirs.min);
        mine.max = mine.max.max(theirs.max);
    }
}

impl Sink for PauseHistogram {
    fn record(&mut self, line: &TraceLine) {
        // A stop-the-world collection pauses the mutator for mark + sweep.
        // An incremental collection's terminal pause is flush + sweep (the
        // accumulated mark time ran interleaved with the mutator); each of
        // its quanta is a separate short pause and gets its own sample.
        let pause = match line.event {
            Event::Collection {
                mark_nanos,
                sweep_nanos,
                flush_nanos,
                ..
            } => flush_nanos
                .unwrap_or(mark_nanos)
                .saturating_add(sweep_nanos),
            Event::MarkQuantum { nanos, .. } => nanos,
            _ => return,
        };
        self.lock().push(pause);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn collection(pause_nanos: u64) -> TraceLine {
        TraceLine {
            seq: 0,
            ts_nanos: 0,
            event: Event::Collection {
                gc_index: 1,
                state: "OBSERVE".to_owned(),
                live_bytes_after: 0,
                live_objects_after: 0,
                freed_bytes: 0,
                freed_objects: 0,
                pruned_refs: 0,
                mark_nanos: pause_nanos / 2,
                sweep_nanos: pause_nanos - pause_nanos / 2,
                flush_nanos: None,
            },
        }
    }

    #[test]
    fn empty_histogram_has_no_percentiles() {
        let h = PauseHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.p50(), None);
        assert_eq!(h.p95(), None);
        assert_eq!(h.max(), None);
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let mut h = PauseHistogram::new();
        let view = h.clone();
        for pause in [100, 200, 300, 400, 1000] {
            h.record(&collection(pause));
        }
        assert_eq!(view.count(), 5);
        // 300 shares the bucket 300..=303, and a quantile is its bucket's
        // top; the extremes are exact.
        assert_eq!(view.p50(), Some(Duration::from_nanos(303)));
        assert_eq!(view.p95(), Some(Duration::from_nanos(1000)));
        assert_eq!(view.max(), Some(Duration::from_nanos(1000)));
        assert_eq!(view.percentile(0.0), Some(Duration::from_nanos(100)));
        assert_eq!(view.percentile(1.0), Some(Duration::from_nanos(1000)));
    }

    #[test]
    fn merge_combines_samples_and_truncation() {
        let mut a = PauseHistogram::new();
        let mut b = PauseHistogram::new();
        for pause in [100, 200] {
            a.record(&collection(pause));
        }
        for pause in [300, 400, 1000] {
            b.record(&collection(pause));
        }
        a.merge(&b);
        assert_eq!(a.count(), 5);
        assert_eq!(a.p50(), Some(Duration::from_nanos(303)));
        assert_eq!(a.percentile(0.0), Some(Duration::from_nanos(100)));
        assert_eq!(a.max(), Some(Duration::from_nanos(1000)));
        // b is untouched.
        assert_eq!(b.count(), 3);

        // Self-merge through a clone must not double-count.
        let alias = a.clone();
        a.merge(&alias);
        assert_eq!(a.count(), 5);
    }

    #[test]
    fn tail_percentiles_use_nearest_rank() {
        let h = PauseHistogram::new();
        // 1..=1000 ns: nearest-rank p99 is the 990th sample, p999 the
        // 999th — distinct from p95 (950) and max (1000). Up here a bucket
        // is 8 ns wide and the answer is its top: 944..=951, 984..=991,
        // 992..=999.
        for nanos in 1..=1000 {
            h.record_nanos(nanos);
        }
        assert_eq!(h.p95(), Some(Duration::from_nanos(951)));
        assert_eq!(h.p99(), Some(Duration::from_nanos(991)));
        assert_eq!(h.p999(), Some(Duration::from_nanos(999)));
        assert_eq!(h.max(), Some(Duration::from_nanos(1000)));
    }

    #[test]
    fn a_batch_records_like_its_samples_one_by_one() {
        let batched = PauseHistogram::new();
        let single = PauseHistogram::new();
        let samples: Vec<u64> = (1..=100).rev().collect();
        batched.record_all(&samples);
        batched.record_all(&[]);
        for &nanos in &samples {
            single.record_nanos(nanos);
        }
        assert_eq!(batched.count(), 100);
        assert_eq!(batched.p50(), single.p50());
        assert_eq!(batched.p99(), single.p99());
        assert_eq!(batched.max(), single.max());
    }

    #[test]
    fn merge_preserves_tail_percentiles() {
        // Split 1..=1000 across two histograms so neither alone has the
        // merged tail; the merged percentiles must match a single
        // histogram over the union.
        let evens = PauseHistogram::new();
        let odds = PauseHistogram::new();
        let all = PauseHistogram::new();
        for nanos in 1..=1000u64 {
            if nanos % 2 == 0 {
                evens.record_nanos(nanos);
            } else {
                odds.record_nanos(nanos);
            }
            all.record_nanos(nanos);
        }
        evens.merge(&odds);
        assert_eq!(evens.count(), 1000);
        assert_eq!(evens.p99(), all.p99());
        assert_eq!(evens.p999(), all.p999());
        assert_eq!(evens.p50(), all.p50());
        assert_eq!(evens.max(), all.max());
    }

    #[test]
    fn merged_quantiles_renders_one_family_with_labels() {
        let a = PauseHistogram::new();
        let empty = PauseHistogram::new();
        for nanos in 1..=100 {
            a.record_nanos(nanos);
        }
        let text = PauseHistogram::merged_quantiles(
            "lp_server_request_nanos",
            "Request service time in nanoseconds.",
            "tenant",
            &[("checkout", &a), ("idle\"t\"", &empty)],
        );
        assert_eq!(
            text.matches("# TYPE lp_server_request_nanos gauge").count(),
            1
        );
        assert!(text.contains("lp_server_request_nanos{tenant=\"checkout\",quantile=\"0.5\"} 50"));
        assert!(text.contains("lp_server_request_nanos{tenant=\"checkout\",quantile=\"0.99\"} 99"));
        assert!(
            text.contains("lp_server_request_nanos{tenant=\"checkout\",quantile=\"0.999\"} 100")
        );
        assert!(text.contains("lp_server_request_nanos_count{tenant=\"checkout\"} 100"));
        // The empty histogram reports a count but no quantiles, with its
        // label escaped.
        assert!(text.contains(r#"lp_server_request_nanos_count{tenant="idle\"t\""} 0"#));
        assert!(!text.contains(r#"idle\"t\"",quantile"#));
    }

    #[test]
    fn incremental_collections_sample_flush_plus_sweep_and_each_quantum() {
        let mut h = PauseHistogram::new();
        h.record(&TraceLine {
            seq: 0,
            ts_nanos: 0,
            event: Event::MarkQuantum {
                gc_index: 1,
                objects: 64,
                bytes: 4096,
                satb_drained: 2,
                nanos: 700,
            },
        });
        h.record(&TraceLine {
            seq: 1,
            ts_nanos: 0,
            event: Event::Collection {
                gc_index: 1,
                state: "OBSERVE".to_owned(),
                live_bytes_after: 0,
                live_objects_after: 0,
                freed_bytes: 0,
                freed_objects: 0,
                pruned_refs: 0,
                // Accumulated mark time is huge but ran interleaved with
                // the mutator; the pause sample must ignore it.
                mark_nanos: 1_000_000,
                sweep_nanos: 300,
                flush_nanos: Some(200),
            },
        });
        assert_eq!(h.count(), 2);
        assert_eq!(h.max(), Some(Duration::from_nanos(700)));
    }

    #[test]
    fn non_collection_events_are_ignored() {
        let mut h = PauseHistogram::new();
        h.record(&TraceLine {
            seq: 0,
            ts_nanos: 0,
            event: Event::Iteration { index: 0 },
        });
        assert_eq!(h.count(), 0);
    }

    #[test]
    fn a_long_run_keeps_counting_and_keeps_moving() {
        // The raw-sample histogram stopped recording at 2^20 samples: the
        // median of a run that turned 10x slower after its first third
        // stayed where the first third had put it.
        const THIRD: usize = 1 << 20;
        let h = PauseHistogram::new();
        h.record_all(&vec![1_000; THIRD]);
        assert_eq!(h.p50(), Some(Duration::from_nanos(1_000)));
        for _ in 0..2 {
            h.record_all(&vec![10_000; THIRD]);
        }
        assert_eq!(h.count(), 3 * THIRD, "every sample ever recorded");
        assert_eq!(h.p50(), Some(Duration::from_nanos(10_000)));
        assert_eq!(h.percentile(0.25), Some(Duration::from_nanos(1_007)));
    }

    #[test]
    fn every_value_lands_in_a_bucket_that_holds_it_and_is_narrow() {
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
        assert_eq!(bucket_top(BUCKETS - 1), u64::MAX);
        for index in 0..BUCKETS {
            let top = bucket_top(index);
            assert_eq!(bucket_of(top), index);
            if let Some(below) = index.checked_sub(1) {
                let lowest = bucket_top(below) + 1;
                assert_eq!(bucket_of(lowest), index);
                assert!((top - lowest) as u128 * 64 <= lowest as u128, "{index}");
            }
        }
    }

    fn exact_nearest_rank(sorted: &[u64], q: f64) -> u64 {
        let n = sorted.len();
        sorted[((q * n as f64).ceil() as usize).clamp(1, n) - 1]
    }

    fn state(h: &PauseHistogram) -> (Vec<u64>, u64, u64, u64) {
        let samples = h.lock();
        let buckets = samples.buckets.to_vec();
        (buckets, samples.count, samples.min, samples.max)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn quantiles_are_within_a_64th_of_exact_nearest_rank(
            mantissas in proptest::collection::vec(1u64..1_000_000, 1..400),
            scale in 0u32..40,
            split in 0usize..400,
        ) {
            // Spread over many octaves: nanoseconds to hours.
            let samples: Vec<u64> = mantissas
                .iter()
                .enumerate()
                .map(|(index, m)| (m << (scale * index as u32 % 41)) >> 14)
                .collect();
            let h = PauseHistogram::new();
            h.record_all(&samples);
            let mut sorted = samples.clone();
            sorted.sort_unstable();
            for q in [0.0, 0.5, 0.95, 0.99, 0.999, 1.0] {
                let exact = exact_nearest_rank(&sorted, q);
                let got = h.percentile(q).expect("samples").as_nanos() as u64;
                prop_assert!(got >= exact && (got - exact) * 64 <= exact, "q {q}: {got} vs {exact}");
                if exact < 128 || sorted.len() == 1 {
                    prop_assert_eq!(got, exact);
                }
            }
            prop_assert_eq!(h.max(), sorted.last().map(|&max| Duration::from_nanos(max)));
            prop_assert_eq!(h.percentile(0.0), Some(Duration::from_nanos(sorted[0])));
            prop_assert_eq!(h.count(), samples.len());

            // One by one, and as two merged halves: the same histogram.
            let single = PauseHistogram::new();
            samples.iter().for_each(|&nanos| single.record_nanos(nanos));
            prop_assert_eq!(state(&single), state(&h));
            let (left, right) = samples.split_at(split.min(samples.len()));
            let (a, b) = (PauseHistogram::new(), PauseHistogram::new());
            a.record_all(left);
            b.record_all(right);
            a.merge(&b);
            a.merge(&a.clone());
            prop_assert_eq!(state(&a), state(&h));
        }
    }
}
