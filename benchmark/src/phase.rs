//! One measured phase — a fixed number of ops in equal-op segments — and the
//! end-to-end numbers and self-checks computed from it.

use crate::metrics::Outcome;
use crate::stats::{self, LogHistogram, Segment};

/// Segments per measured phase. Rate and latencies are estimated per segment
/// and taken near the undisturbed end of the hundred (see
/// [`stats::UNDISTURBED`]), so a neighbour that slows part of the run moves
/// neither. Short segments matter: the quiet stretches of a busy box are
/// fractions of a second long, and only a segment that fits inside one is
/// left alone.
pub const SEGMENTS: usize = 100;
/// A phase on a box that is having a slow hour stops early, at a segment
/// boundary, once it has this many segments and has measured for a quarter
/// longer than it was asked to: the harness has to fit a time budget.
pub const MIN_SEGMENTS: usize = 50;
/// A p99 needs at least ten samples beyond it.
const MIN_SEGMENT_OPS: u64 = 1000;

pub struct Phase {
    pub segments: Vec<Segment>,
    /// Latency of the ops that completed, one histogram per segment.
    pub latency: Vec<LogHistogram>,
    /// Ops whose outcome was decided in this phase.
    pub attempted: u64,
    /// Ops that returned `Err`, were refused, or were shed.
    pub failed: u64,
    /// Ops during which the runtime ran at least one collection.
    pub ops_with_collection: u64,
}

impl Phase {
    /// Allocates everything the phase will record into.
    pub fn new() -> Phase {
        Phase {
            segments: Vec::with_capacity(SEGMENTS),
            latency: vec![LogHistogram::new(); SEGMENTS],
            attempted: 0,
            failed: 0,
            ops_with_collection: 0,
        }
    }

    /// Whether a phase asked to measure for `seconds` should stop now.
    pub fn over_budget(&self, seconds: u64, elapsed_nanos: u64) -> bool {
        self.segments.len() >= MIN_SEGMENTS && elapsed_nanos > seconds * 1_250_000_000
    }

    /// Per-segment rates as shares of the reported rate: the shape of the
    /// run, which `--noise` averages over many runs to see a warm-up that
    /// is too short through the box's noise.
    pub fn profile(&self) -> Vec<f64> {
        let whole = self.ops_per_s().max(f64::MIN_POSITIVE);
        self.segments.iter().map(|s| s.rate() / whole).collect()
    }

    /// The histograms of the segments that ran.
    pub fn measured(&self) -> &[LogHistogram] {
        &self.latency[..self.segments.len()]
    }

    pub fn whole(&self) -> LogHistogram {
        let mut whole = LogHistogram::new();
        for segment in self.measured() {
            whole.merge(segment);
        }
        whole
    }

    pub fn ops_per_s(&self) -> f64 {
        stats::segment_rate(&self.segments)
    }

    /// The four end-to-end metrics a phase determines. `limit_nanos` is the
    /// workload's fixed latency limit: an op that failed, or took longer,
    /// does not count towards `within_limit_ratio`.
    pub fn report(&self, limit_nanos: u64, out: &mut Outcome) {
        let whole = self.whole();
        let per_segment =
            |q| -> Vec<f64> { self.measured().iter().map(|h| h.quantile(q)).collect() };
        out.set("ops_per_s", self.ops_per_s());
        out.set("op_p50_us", stats::segment_latency(&per_segment(0.5)) / 1e3);
        out.set(
            "op_tail_us",
            stats::segment_latency(&per_segment(0.99)) / 1e3,
        );
        out.set(
            "within_limit_ratio",
            whole.count_at_or_below(limit_nanos) as f64 / self.attempted.max(1) as f64,
        );
        out.attempted = self.attempted;
        out.failed = self.failed;
    }

    /// Samples beyond the p99 in the smallest segment.
    pub fn tail_samples(&self) -> u64 {
        self.measured()
            .iter()
            .map(|h| h.samples_beyond(0.99))
            .min()
            .unwrap_or(0)
    }

    /// Reasons this phase's numbers would not repeat; empty when steady.
    ///
    /// Every check here is about how the workload is built, not about how
    /// the box behaved: a slow spell must not be able to fail a run. (Whether
    /// warm-up is long enough cannot be told from one run on a box whose
    /// speed wanders by more than a tenth within seconds; see [`drift`].)
    ///
    /// `collects` says whether the ops run on a single runtime, where an op
    /// either contains a collection or does not.
    pub fn unsteady(&self, collects: bool) -> Vec<String> {
        let mut reasons = Vec::new();
        if let Some(least) = self.segments.iter().map(|s| s.ops).min() {
            if least < MIN_SEGMENT_OPS {
                reasons.push(format!(
                    "a segment holds {least} ops; a p99 needs {MIN_SEGMENT_OPS}"
                ));
            }
        }

        let whole = self.whole();
        let (below, above) = (whole.quantile(0.985), whole.quantile(0.995));
        if above > 3.0 * below {
            reasons.push(format!(
                "latency is {:.0} us at p98.5 and {:.0} us at p99.5: the p99 sits on a knee",
                below / 1e3,
                above / 1e3
            ));
        }
        if collects {
            let share = self.ops_with_collection as f64 / self.attempted.max(1) as f64;
            if (0.003..=0.03).contains(&share) {
                reasons.push(format!(
                    "{:.2} % of ops contain a collection: the p99 sits on the edge of the \
                     pause distribution",
                    share * 100.0
                ));
            }
        }
        reasons
    }
}

/// How far the start and the end of a run lie apart, given per-segment
/// rates: the undisturbed rate (see [`stats::UNDISTURBED`]) of the first
/// fifth of the segments against that of the last fifth, as a share of the
/// larger. A neighbour's slow spell leaves some segments of a fifth alone; a
/// warm-up that is too short moves all of them.
pub fn drift(rates: &[f64]) -> f64 {
    let fifth = rates.len() / 5;
    if fifth < 2 {
        return 0.0;
    }
    let first = stats::quantile(&rates[..fifth], stats::UNDISTURBED);
    let last = stats::quantile(&rates[rates.len() - fifth..], stats::UNDISTURBED);
    (first - last).abs() / first.max(last)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn steady_phase() -> Phase {
        let mut phase = Phase::new();
        for segment in 0..SEGMENTS {
            phase.segments.push(Segment {
                ops: 2000,
                wall_nanos: 1_000_000_000,
            });
            // 6 % of ops are slow, so p98.5 and p99.5 are both slow ops.
            phase.latency[segment].record_n(100_000, 1880);
            phase.latency[segment].record_n(4_000_000, 120);
            phase.attempted += 2000;
            phase.ops_with_collection += 120;
        }
        phase
    }

    #[test]
    fn a_steady_phase_passes_and_reports() {
        let phase = steady_phase();
        assert_eq!(phase.unsteady(true), Vec::<String>::new());
        let mut out = Outcome::default();
        phase.report(1_000_000, &mut out);
        assert_eq!(out.get("ops_per_s"), Some(2000.0));
        assert!((out.get("op_p50_us").unwrap() - 100.0).abs() <= 1.0);
        assert!((out.get("op_tail_us").unwrap() - 4000.0).abs() <= 40.0);
        assert_eq!(out.get("within_limit_ratio"), Some(0.94));
        assert_eq!((out.attempted, out.failed), (200_000, 0));
        assert_eq!(phase.tail_samples(), 0);
    }

    #[test]
    fn a_failed_op_counts_against_the_limit() {
        let mut phase = steady_phase();
        phase.attempted += 2000; // attempted, never completed
        phase.failed += 2000;
        let mut out = Outcome::default();
        phase.report(1_000_000, &mut out);
        let ratio = out.get("within_limit_ratio").unwrap();
        assert!((ratio - 188_000.0 / 202_000.0).abs() < 1e-12);
    }

    #[test]
    fn drift_sees_a_short_warm_up_but_not_a_slow_spell() {
        let mut rates = vec![1000.0; 100];
        for rate in rates.iter_mut().take(20) {
            *rate = 1250.0; // still slowing down
        }
        assert!((drift(&rates) - 0.2).abs() < 1e-12);

        let mut rates = vec![1000.0; 100];
        for rate in rates.iter_mut().take(15) {
            *rate = 700.0; // a neighbour, fifteen segments long
        }
        assert_eq!(drift(&rates), 0.0);
        assert_eq!(drift(&rates[..9]), 0.0);
    }

    #[test]
    fn a_slow_box_stops_early_but_not_before_half_the_segments() {
        let mut phase = steady_phase();
        assert!(phase.over_budget(20, 25_100_000_000));
        assert!(!phase.over_budget(20, 24_900_000_000));
        phase.segments.truncate(MIN_SEGMENTS - 1);
        assert!(!phase.over_budget(20, 60_000_000_000));
        let profile = steady_phase().profile();
        assert_eq!(profile, vec![1.0; SEGMENTS]);
    }

    #[test]
    fn a_tail_on_a_knee_is_caught() {
        let mut phase = Phase::new();
        for segment in 0..SEGMENTS {
            phase.segments.push(Segment {
                ops: 2000,
                wall_nanos: 1_000_000_000,
            });
            // 1 % slow ops: p98.5 is fast, p99.5 is slow.
            phase.latency[segment].record_n(100_000, 1980);
            phase.latency[segment].record_n(4_000_000, 20);
            phase.attempted += 2000;
            phase.ops_with_collection += 20;
        }
        let reasons = phase.unsteady(true);
        assert!(reasons.iter().any(|r| r.contains("sits on a knee")));
        assert!(reasons.iter().any(|r| r.contains("edge of the")));
        // The collection share only means something on a single runtime.
        assert_eq!(phase.unsteady(false).len(), 1);
    }

    #[test]
    fn small_segments_are_caught() {
        let mut phase = steady_phase();
        phase.segments[7].ops = 999;
        assert!(phase.unsteady(true)[0].contains("999 ops"));
    }
}
