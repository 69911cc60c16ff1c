//! The iteration driver: runs a workload to a deterministic end and records
//! the series the paper's figures plot.

use std::time::{Duration, Instant};

use leak_pruning::{PredictionPolicy, PruneReport, PruningConfig, Runtime, RuntimeError};
use lp_metrics::Series;
use lp_telemetry::Event;

/// A program the driver can run: it performs *iterations* (the paper's
/// fixed units of program work) against a [`Runtime`].
pub trait Workload {
    /// Workload name (matches the paper's leak/benchmark names).
    fn name(&self) -> &str;

    /// The heap the paper would run this program in — about twice the size
    /// needed without the leak (§6).
    fn default_heap(&self) -> u64;

    /// One-time setup (register classes, create long-lived structures).
    ///
    /// # Errors
    ///
    /// Propagates runtime errors (e.g. the heap cannot hold the initial
    /// structures).
    fn setup(&mut self, rt: &mut Runtime) -> Result<(), RuntimeError>;

    /// Performs iteration `iteration` (0-based).
    ///
    /// # Errors
    ///
    /// Propagates runtime errors; an error terminates the run.
    fn iterate(&mut self, rt: &mut Runtime, iteration: u64) -> Result<(), RuntimeError>;

    /// Number of iterations after which the program finishes on its own
    /// (`None` for the unbounded leaks).
    fn natural_end(&self) -> Option<u64> {
        None
    }
}

/// Which runtime configuration to run a workload under.
#[derive(Clone, Debug)]
pub enum Flavor {
    /// Unmodified VM: no barriers, no pruning (the paper's "Base").
    Base,
    /// Leak pruning with the given prediction policy.
    Pruning(PredictionPolicy),
    /// A fully custom configuration (its heap capacity wins over the
    /// workload's default and any override).
    Custom(Box<PruningConfig>),
}

impl Flavor {
    /// Leak pruning with the paper's default algorithm.
    pub fn pruning() -> Self {
        Flavor::Pruning(PredictionPolicy::LeakPruning)
    }

    /// Short label for tables.
    pub fn label(&self) -> String {
        match self {
            Flavor::Base => "Base".to_owned(),
            Flavor::Pruning(p) => p.name().to_owned(),
            Flavor::Custom(_) => "Custom".to_owned(),
        }
    }
}

/// How a run ended.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Termination {
    /// The iteration cap was hit — the stand-in for the paper's "ran for 24
    /// hours" (the program would have kept going).
    ReachedCap,
    /// The workload finished its natural workload (short-running programs).
    Completed,
    /// A true out-of-memory error (live heap growth pruning cannot help).
    OutOfMemory,
    /// The program read a pruned reference and the VM threw the internal
    /// error carrying the deferred out-of-memory error.
    PrunedAccess,
}

impl Termination {
    /// Paper-style description.
    pub fn describe(self) -> &'static str {
        match self {
            Termination::ReachedCap => "runs indefinitely (cap reached)",
            Termination::Completed => "completed",
            Termination::OutOfMemory => "out of memory",
            Termination::PrunedAccess => "accessed pruned reference",
        }
    }

    /// Stable snake_case tag carried by the terminal [`Event::RunEnd`]
    /// trace event (and validated by its parser).
    pub fn tag(self) -> &'static str {
        match self {
            Termination::ReachedCap => "reached_cap",
            Termination::Completed => "completed",
            Termination::OutOfMemory => "out_of_memory",
            Termination::PrunedAccess => "pruned_access",
        }
    }
}

/// Options for one run.
#[derive(Clone, Debug)]
pub struct RunOptions {
    flavor: Flavor,
    iteration_cap: u64,
    heap_capacity: Option<u64>,
    prune_only_when_full: bool,
    record_iteration_times: bool,
}

impl RunOptions {
    /// Creates options with a 100,000-iteration cap.
    pub fn new(flavor: Flavor) -> Self {
        RunOptions {
            flavor,
            iteration_cap: 100_000,
            heap_capacity: None,
            prune_only_when_full: false,
            record_iteration_times: false,
        }
    }

    /// Sets the iteration cap (the "24 hours" proxy).
    pub fn iteration_cap(mut self, cap: u64) -> Self {
        self.iteration_cap = cap;
        self
    }

    /// Overrides the workload's default heap capacity.
    pub fn heap_capacity(mut self, bytes: u64) -> Self {
        self.heap_capacity = Some(bytes);
        self
    }

    /// Uses §3.1 option (1): wait for true exhaustion before pruning
    /// (Figure 11 / §6.3).
    pub fn prune_only_when_full(mut self, value: bool) -> Self {
        self.prune_only_when_full = value;
        self
    }

    /// Records per-iteration wall-clock times (Figures 8, 10, 11).
    pub fn record_iteration_times(mut self, value: bool) -> Self {
        self.record_iteration_times = value;
        self
    }

    fn build_config(&self, default_heap: u64) -> PruningConfig {
        let heap = self.heap_capacity.unwrap_or(default_heap);
        match &self.flavor {
            Flavor::Base => PruningConfig::base(heap),
            Flavor::Pruning(policy) => PruningConfig::builder(heap)
                .policy(*policy)
                .prune_only_when_full(self.prune_only_when_full)
                .build(),
            Flavor::Custom(config) => (**config).clone(),
        }
    }
}

/// The outcome of one run.
#[derive(Debug)]
pub struct RunResult {
    /// Workload name.
    pub workload: String,
    /// Configuration label.
    pub flavor: String,
    /// Iterations completed before termination.
    pub iterations: u64,
    /// Why the run ended.
    pub termination: Termination,
    /// Total wall-clock time.
    pub elapsed: Duration,
    /// Reachable bytes after each full-heap collection, indexed by the
    /// iteration during which the collection ran (Figures 1 and 9).
    pub reachable_memory: Series,
    /// Per-iteration wall-clock seconds (Figures 8, 10, 11); empty unless
    /// requested.
    pub iteration_times: Series,
    /// Full-heap collections performed.
    pub gc_count: u64,
    /// Objects marked across every full-heap collection — the exact mark
    /// work, independent of the machine's speed.
    pub marked_objects: u64,
    /// Minor (nursery) collections performed (generational configuration).
    pub minor_gc_count: u64,
    /// 1-based index of the first full-heap collection that poisoned
    /// references, if any pruning happened (the "how early did SELECT
    /// fire" measure the hybrid-policy evaluation compares).
    pub first_prune_gc: Option<u64>,
    /// End-of-run pruning report (Table 2's edge-type census, §6.2).
    pub report: PruneReport,
}

impl RunResult {
    /// Mean wall-clock time per iteration.
    pub fn mean_iteration_time(&self) -> Duration {
        if self.iterations == 0 {
            return Duration::ZERO;
        }
        self.elapsed / u32::try_from(self.iterations.min(u64::from(u32::MAX))).unwrap_or(1)
    }
}

/// Runs `workload` under `opts` until the cap, its natural end, or a
/// runtime error.
pub fn run_workload(workload: &mut dyn Workload, opts: &RunOptions) -> RunResult {
    run_workload_with(workload, opts, |_| {})
}

/// Like [`run_workload`], but calls `configure` on the fresh [`Runtime`]
/// before the workload's setup runs. The main use is attaching telemetry
/// sinks early enough to capture the class registrations setup performs, so
/// the trace is self-describing.
pub fn run_workload_with(
    workload: &mut dyn Workload,
    opts: &RunOptions,
    configure: impl FnOnce(&mut Runtime),
) -> RunResult {
    let config = opts.build_config(workload.default_heap());
    let mut rt = Runtime::new(config);
    configure(&mut rt);

    let mut reachable = Series::new(format!("{} reachable bytes", opts.flavor.label()));
    let mut iteration_times =
        Series::new(format!("{} time per iteration (s)", opts.flavor.label()));

    let start = Instant::now();
    let mut termination = Termination::ReachedCap;
    let mut iterations = 0u64;

    let cap = workload
        .natural_end()
        .map_or(opts.iteration_cap, |end| end.min(opts.iteration_cap));

    match workload.setup(&mut rt) {
        Ok(()) => {
            let mut seen_gcs = 0usize;
            rt.release_registers();
            for i in 0..cap {
                rt.telemetry().emit(|| Event::Iteration { index: i });
                let iter_start = Instant::now();
                let result = workload.iterate(&mut rt, i);
                // The iteration's temporaries go out of scope.
                rt.release_registers();
                if opts.record_iteration_times {
                    iteration_times.push(i as f64, iter_start.elapsed().as_secs_f64());
                }
                // Attribute any collections that ran during this iteration.
                let history = rt.history();
                while seen_gcs < history.len() {
                    reachable.push(i as f64, history[seen_gcs].live_bytes_after as f64);
                    seen_gcs += 1;
                }
                match result {
                    Ok(()) => iterations = i + 1,
                    Err(RuntimeError::OutOfMemory(_)) => {
                        termination = Termination::OutOfMemory;
                        break;
                    }
                    Err(RuntimeError::PrunedAccess(_)) => {
                        termination = Termination::PrunedAccess;
                        break;
                    }
                }
            }
            if termination == Termination::ReachedCap
                && workload.natural_end().is_some_and(|end| iterations >= end)
            {
                termination = Termination::Completed;
            }
        }
        Err(RuntimeError::OutOfMemory(_)) => termination = Termination::OutOfMemory,
        Err(RuntimeError::PrunedAccess(_)) => termination = Termination::PrunedAccess,
    }

    // The terminal companion to the Iteration stream: a trace alone says
    // why the run ended, not just that events stopped.
    rt.telemetry().emit(|| Event::RunEnd {
        iterations,
        termination: termination.tag(),
    });

    RunResult {
        workload: workload.name().to_owned(),
        flavor: opts.flavor.label(),
        iterations,
        termination,
        elapsed: start.elapsed(),
        reachable_memory: reachable,
        iteration_times,
        gc_count: rt.gc_count(),
        marked_objects: rt.gc_stats().total_marked_objects(),
        minor_gc_count: rt.counters().minor_collections,
        first_prune_gc: rt
            .history()
            .iter()
            .find(|r| r.pruned_refs > 0)
            .map(|r| r.gc_index),
        report: rt.prune_report(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use leak_pruning::Runtime;
    use lp_heap::AllocSpec;

    /// A trivial leak used to exercise the driver itself.
    struct TinyLeak {
        node: Option<lp_heap::ClassId>,
        head: Option<lp_heap::StaticId>,
    }

    impl TinyLeak {
        fn new() -> Self {
            TinyLeak {
                node: None,
                head: None,
            }
        }
    }

    impl Workload for TinyLeak {
        fn name(&self) -> &str {
            "TinyLeak"
        }
        fn default_heap(&self) -> u64 {
            64 * 1024
        }
        fn setup(&mut self, rt: &mut Runtime) -> Result<(), RuntimeError> {
            self.node = Some(rt.register_class("Node"));
            self.head = Some(rt.add_static());
            Ok(())
        }
        fn iterate(&mut self, rt: &mut Runtime, _i: u64) -> Result<(), RuntimeError> {
            let node = self.node.unwrap();
            let head = self.head.unwrap();
            let n = rt.alloc(node, &AllocSpec::new(1, 0, 256))?;
            rt.write_field(n, 0, rt.static_ref(head));
            rt.set_static(head, Some(n));
            rt.alloc(node, &AllocSpec::leaf(1024))?; // transient
            Ok(())
        }
    }

    #[test]
    fn base_terminates_with_oom() {
        let result = run_workload(&mut TinyLeak::new(), &RunOptions::new(Flavor::Base));
        assert_eq!(result.termination, Termination::OutOfMemory);
        assert!(result.iterations < 400);
        assert!(result.gc_count > 0);
    }

    #[test]
    fn pruning_reaches_cap() {
        let opts = RunOptions::new(Flavor::pruning()).iteration_cap(3_000);
        let result = run_workload(&mut TinyLeak::new(), &opts);
        assert_eq!(result.termination, Termination::ReachedCap);
        assert_eq!(result.iterations, 3_000);
        assert!(result.report.total_pruned_refs > 0);
    }

    #[test]
    fn reachable_memory_series_is_recorded() {
        let opts = RunOptions::new(Flavor::Base);
        let result = run_workload(&mut TinyLeak::new(), &opts);
        assert!(!result.reachable_memory.is_empty());
        // Base's reachable memory grows monotonically (a leak).
        let points = result.reachable_memory.points();
        assert!(points.last().unwrap().1 >= points[0].1);
    }

    #[test]
    fn iteration_times_only_when_requested() {
        let opts = RunOptions::new(Flavor::Base);
        let r = run_workload(&mut TinyLeak::new(), &opts);
        assert!(r.iteration_times.is_empty());

        let opts = RunOptions::new(Flavor::Base).record_iteration_times(true);
        let r = run_workload(&mut TinyLeak::new(), &opts);
        assert_eq!(r.iteration_times.len() as u64, r.iterations + 1);
    }

    /// A short-running workload completes rather than reaching the cap.
    struct Short;
    impl Workload for Short {
        fn name(&self) -> &str {
            "Short"
        }
        fn default_heap(&self) -> u64 {
            1 << 20
        }
        fn setup(&mut self, _rt: &mut Runtime) -> Result<(), RuntimeError> {
            Ok(())
        }
        fn iterate(&mut self, _rt: &mut Runtime, _i: u64) -> Result<(), RuntimeError> {
            Ok(())
        }
        fn natural_end(&self) -> Option<u64> {
            Some(10)
        }
    }

    #[test]
    fn natural_end_reports_completed() {
        let result = run_workload(&mut Short, &RunOptions::new(Flavor::Base));
        assert_eq!(result.termination, Termination::Completed);
        assert_eq!(result.iterations, 10);
    }

    #[test]
    fn termination_descriptions() {
        assert!(Termination::ReachedCap.describe().contains("indefinitely"));
        assert!(Termination::OutOfMemory.describe().contains("memory"));
    }
}
