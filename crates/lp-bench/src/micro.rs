//! A tiny fixed-iteration micro-measurement harness.
//!
//! Every micro-measurement in this crate — the `microbench` binary and the
//! `cargo bench -p lp-bench` targets under `benches/` — times a closure
//! that performs a *fixed* number of operations, repeats it for a fixed
//! number of trials, and reports robust statistics (min, median, median
//! absolute deviation) in nanoseconds per operation. Fixed iteration counts
//! keep two configurations directly comparable — every trial does
//! identical work — and min/median/MAD are insensitive to the occasional
//! scheduler blip that would wreck a mean/σ summary.

use std::time::Instant;

/// Robust per-operation timing statistics over a set of trials.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MicroStats {
    /// Operations performed per trial.
    pub ops_per_trial: u64,
    /// Number of trials.
    pub trials: usize,
    /// Fastest trial, nanoseconds per operation.
    pub min_ns: f64,
    /// Median trial, nanoseconds per operation.
    pub median_ns: f64,
    /// Median absolute deviation around the median, nanoseconds.
    pub mad_ns: f64,
}

impl MicroStats {
    /// Renders one CSV row matching [`CSV_HEADER`].
    pub fn csv_row(&self, name: &str) -> String {
        format!(
            "{name},{},{},{:.2},{:.2},{:.2}",
            self.ops_per_trial, self.trials, self.min_ns, self.median_ns, self.mad_ns
        )
    }

    /// Prints one console row: `name: min … median … MAD … ns/op`, with
    /// the trial shape.
    pub fn print(&self, name: &str) {
        println!(
            "{name}: min {:.2} median {:.2} MAD {:.2} ns/op ({} trials x {} ops)",
            self.min_ns, self.median_ns, self.mad_ns, self.trials, self.ops_per_trial
        );
    }
}

/// Column header for [`MicroStats::csv_row`].
pub const CSV_HEADER: &str = "benchmark,ops_per_trial,trials,min_ns_per_op,median_ns_per_op,mad_ns";

fn median_of(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(|a, b| a.partial_cmp(b).expect("finite timing"));
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

/// Times `sample` (which must perform exactly `ops` operations per call)
/// over `trials` runs and summarizes nanoseconds per operation. The
/// closure is timed in full, so it should contain only the operations
/// under measurement; use [`measure_with_setup`] when each trial needs
/// untimed preparation (draining a log, forcing a collection to reset
/// barrier state).
///
/// # Panics
///
/// Panics if `trials` is zero or `ops` is zero.
pub fn measure(trials: usize, ops: u64, mut sample: impl FnMut()) -> MicroStats {
    measure_with_setup(trials, ops, |_| {}, |()| sample())
}

/// Like [`measure`], but runs `setup` untimed before each trial and hands
/// its output to the timed `sample` closure.
///
/// # Panics
///
/// Panics if `trials` is zero or `ops` is zero.
pub fn measure_with_setup<T>(
    trials: usize,
    ops: u64,
    mut setup: impl FnMut(usize) -> T,
    mut sample: impl FnMut(T),
) -> MicroStats {
    assert!(trials > 0, "at least one trial");
    assert!(ops > 0, "at least one operation per trial");
    let mut per_op = Vec::with_capacity(trials);
    for trial in 0..trials {
        let input = setup(trial);
        let start = Instant::now();
        sample(input);
        let elapsed = start.elapsed();
        per_op.push(elapsed.as_secs_f64() * 1e9 / ops as f64);
    }
    summarize(trials, ops, per_op)
}

/// Like [`measure_with_setup`], but threads one mutable context through
/// both closures. This is the form runtime benchmarks need: `setup` and
/// `sample` both mutate the same [`leak_pruning::Runtime`], which two
/// independent capturing closures cannot do under the borrow checker.
///
/// # Panics
///
/// Panics if `trials` is zero or `ops` is zero.
pub fn measure_in<C>(
    trials: usize,
    ops: u64,
    ctx: &mut C,
    mut setup: impl FnMut(&mut C),
    mut sample: impl FnMut(&mut C),
) -> MicroStats {
    assert!(trials > 0, "at least one trial");
    assert!(ops > 0, "at least one operation per trial");
    let mut per_op = Vec::with_capacity(trials);
    for _ in 0..trials {
        setup(ctx);
        let start = Instant::now();
        sample(ctx);
        let elapsed = start.elapsed();
        per_op.push(elapsed.as_secs_f64() * 1e9 / ops as f64);
    }
    summarize(trials, ops, per_op)
}

fn summarize(trials: usize, ops: u64, per_op: Vec<f64>) -> MicroStats {
    let min_ns = per_op
        .iter()
        .copied()
        .fold(f64::INFINITY, f64::min)
        .max(0.0);
    let median_ns = median_of(per_op.clone());
    let mad_ns = median_of(per_op.iter().map(|x| (x - median_ns).abs()).collect());
    MicroStats {
        ops_per_trial: ops,
        trials,
        min_ns,
        median_ns,
        mad_ns,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_are_per_operation_and_robust() {
        // A deterministic "workload": spin a counter so the timed section
        // is nonzero on any clock.
        let stats = measure(5, 10_000, || {
            let mut acc = 0u64;
            for i in 0..10_000u64 {
                acc = acc.wrapping_add(i);
            }
            std::hint::black_box(acc);
        });
        assert_eq!(stats.trials, 5);
        assert_eq!(stats.ops_per_trial, 10_000);
        assert!(stats.min_ns >= 0.0);
        assert!(stats.median_ns >= stats.min_ns);
        assert!(stats.mad_ns >= 0.0);
    }

    #[test]
    fn setup_is_untimed_and_feeds_the_sample() {
        let mut seen = Vec::new();
        let stats = measure_with_setup(3, 1, |trial| trial * 2, |input| seen.push(input));
        assert_eq!(seen, vec![0, 2, 4]);
        assert_eq!(stats.trials, 3);
    }

    #[test]
    fn context_variant_threads_one_borrow() {
        let mut counter = 0u64;
        let stats = measure_in(4, 2, &mut counter, |c| *c += 1, |c| *c += 2);
        assert_eq!(counter, 12, "4 trials of setup(+1) and sample(+2)");
        assert_eq!(stats.trials, 4);
        assert_eq!(stats.ops_per_trial, 2);
    }

    #[test]
    fn csv_row_matches_header_arity() {
        let stats = measure(1, 1, || {});
        let row = stats.csv_row("noop");
        assert_eq!(
            row.split(',').count(),
            CSV_HEADER.split(',').count(),
            "{row}"
        );
        assert!(row.starts_with("noop,1,1,"));
    }

    #[test]
    fn median_handles_even_and_odd() {
        assert_eq!(median_of(vec![3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median_of(vec![4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
