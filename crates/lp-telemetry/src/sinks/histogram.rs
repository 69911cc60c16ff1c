//! In-process pause-time histogram: answers the percentile questions
//! (p50 / p95 / p99 / p999 / max) that end-of-run `GcStats` aggregates
//! cannot.

use std::sync::{Arc, Mutex};
use std::time::Duration;

use crate::bus::Sink;
use crate::event::{Event, TraceLine};

/// Raw samples are capped so a pathological run cannot grow without
/// bound; at 8 bytes per pause this is 8 MiB.
const MAX_SAMPLES: usize = 1 << 20;

#[derive(Debug, Default)]
struct Samples {
    /// Mutator pauses in nanoseconds, in arrival order: one per
    /// `collection` event (mark + sweep, or flush + sweep when the mark
    /// phase ran incrementally) and one per `mark_quantum` event.
    pauses: Vec<u64>,
    /// Collections observed after the sample cap was hit.
    truncated: u64,
}

impl Samples {
    fn push(&mut self, nanos: u64) {
        if self.pauses.len() < MAX_SAMPLES {
            self.pauses.push(nanos);
        } else {
            self.truncated += 1;
        }
    }
}

/// Sink recording one pause-time sample per `collection` event. Clones
/// share state: hand one clone to the bus and keep the other to query.
#[derive(Clone, Debug, Default)]
pub struct PauseHistogram {
    samples: Arc<Mutex<Samples>>,
}

impl PauseHistogram {
    /// An empty histogram.
    pub fn new() -> PauseHistogram {
        PauseHistogram::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Samples> {
        match self.samples.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Number of pause samples recorded.
    pub fn count(&self) -> usize {
        self.lock().pauses.len()
    }

    /// Collections dropped after the sample cap was reached.
    pub fn truncated(&self) -> u64 {
        self.lock().truncated
    }

    /// The `q`-quantile pause (nearest-rank), `None` with no samples.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= q <= 1.0`.
    pub fn percentile(&self, q: f64) -> Option<Duration> {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0, 1]");
        let samples = self.lock();
        if samples.pauses.is_empty() {
            return None;
        }
        let mut sorted = samples.pauses.clone();
        sorted.sort_unstable();
        // Nearest-rank: ceil(q * n) clamped to [1, n], 1-based.
        let n = sorted.len();
        let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
        Some(Duration::from_nanos(sorted[rank - 1]))
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

    /// Longest pause.
    pub fn max(&self) -> Option<Duration> {
        self.lock()
            .pauses
            .iter()
            .max()
            .copied()
            .map(Duration::from_nanos)
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
        if nanos.is_empty() {
            return;
        }
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
    /// not 0ns. Label values are escaped.
    pub fn merged_quantiles(
        name: &str,
        help: &str,
        label: &str,
        parts: &[(&str, &PauseHistogram)],
    ) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "# HELP {name} {help}");
        let _ = writeln!(out, "# TYPE {name} gauge");
        for (value, histogram) in parts {
            let escaped = crate::sinks::escape_label_value(value);
            for (tag, q) in [
                ("0.5", 0.5),
                ("0.95", 0.95),
                ("0.99", 0.99),
                ("0.999", 0.999),
            ] {
                if let Some(d) = histogram.percentile(q) {
                    let _ = writeln!(
                        out,
                        "{name}{{{label}=\"{escaped}\",quantile=\"{tag}\"}} {}",
                        d.as_nanos()
                    );
                }
            }
        }
        let _ = writeln!(out, "# HELP {name}_count Samples recorded in {name}.");
        let _ = writeln!(out, "# TYPE {name}_count counter");
        for (value, histogram) in parts {
            let escaped = crate::sinks::escape_label_value(value);
            let _ = writeln!(
                out,
                "{name}_count{{{label}=\"{escaped}\"}} {}",
                histogram.count()
            );
        }
        out
    }

    /// Folds `other`'s samples into `self`, respecting the sample cap:
    /// samples that no longer fit count as truncated, and `other`'s own
    /// truncation count carries over. Percentiles over the merged histogram
    /// answer host-wide questions ("p95 pause across all tenants") that
    /// per-tenant histograms cannot. Merging a histogram with itself (same
    /// shared state) is a no-op rather than a double-count.
    pub fn merge(&self, other: &PauseHistogram) {
        if Arc::ptr_eq(&self.samples, &other.samples) {
            return;
        }
        let (pauses, truncated) = {
            let theirs = other.lock();
            (theirs.pauses.clone(), theirs.truncated)
        };
        let mut mine = self.lock();
        for pause in pauses {
            mine.push(pause);
        }
        mine.truncated += truncated;
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
        assert_eq!(view.p50(), Some(Duration::from_nanos(300)));
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
        assert_eq!(a.p50(), Some(Duration::from_nanos(300)));
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
        // 999th — distinct from p95 (950) and max (1000).
        for nanos in 1..=1000 {
            h.record_nanos(nanos);
        }
        assert_eq!(h.p95(), Some(Duration::from_nanos(950)));
        assert_eq!(h.p99(), Some(Duration::from_nanos(990)));
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
}
