//! Runtime and pruning configuration.

use std::path::{Path, PathBuf};

use crate::edge_table::DEFAULT_SLOTS;
use crate::state::State;

/// Which liveness-prediction algorithm SELECT/PRUNE use (§6.1).
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, Default)]
pub enum PredictionPolicy {
    /// The paper's default algorithm: per-edge-type candidates, a stale
    /// transitive closure sizing whole data structures, prune the edge type
    /// with the most reachable-only-from-stale-roots bytes.
    #[default]
    LeakPruning,
    /// "Most stale": prune all references to every object at the highest
    /// observed staleness level — effectively the policy of the disk-based
    /// systems (LeakSurvivor, Melt, Panacea).
    MostStale,
    /// "Individual references": the default algorithm without the candidate
    /// queue and stale closure; charges each stale reference its target
    /// object's own size and prunes individual references, not subtrees.
    IndividualRefs,
}

impl PredictionPolicy {
    /// Short human-readable name matching Table 2's column headers.
    pub fn name(self) -> &'static str {
        match self {
            PredictionPolicy::LeakPruning => "Default",
            PredictionPolicy::MostStale => "Most stale",
            PredictionPolicy::IndividualRefs => "Indiv refs",
        }
    }
}

/// Whether the runtime executes the read-barrier bookkeeping.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, Default)]
pub enum BarrierMode {
    /// The paper's all-the-time conditional read barrier.
    #[default]
    Full,
    /// No barrier work at all — the unmodified-VM "Base" configuration used
    /// for overhead measurements.
    None,
}

/// Pins leak pruning to one observation state forever, for overhead
/// experiments (Figures 6 and 7 force OBSERVE or SELECT continuously).
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum ForcedState {
    /// Maintain staleness and the edge table during every collection.
    Observe,
    /// Additionally run the stale closure and edge selection every
    /// collection, without ever pruning.
    Select,
}

impl ForcedState {
    pub(crate) fn as_state(self) -> State {
        match self {
            ForcedState::Observe => State::Observe,
            ForcedState::Select => State::Select,
        }
    }
}

/// Configuration for a [`Runtime`](crate::Runtime).
///
/// Build one with [`PruningConfig::builder`]:
///
/// ```
/// use leak_pruning::{PredictionPolicy, PruningConfig};
///
/// let config = PruningConfig::builder(64 * 1024 * 1024)
///     .policy(PredictionPolicy::LeakPruning)
///     .nearly_full_threshold(0.9)
///     .build();
/// assert!(config.pruning_enabled());
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct PruningConfig {
    heap_capacity: u64,
    pruning_enabled: bool,
    policy: PredictionPolicy,
    barrier_mode: BarrierMode,
    expected_threshold: f64,
    nearly_full_threshold: f64,
    prune_only_when_full: bool,
    edge_table_slots: usize,
    forced_state: Option<ForcedState>,
    nursery_fraction: Option<f64>,
    decay_max_stale_use_every: Option<u64>,
    run_finalizers_after_prune: bool,
    gc_threads: usize,
    max_gc_attempts_per_alloc: u32,
    flight_recorder_slots: Option<usize>,
    census_period: Option<u64>,
    snapshot_on_exhaustion: Option<PathBuf>,
    postmortem_dir: Option<PathBuf>,
    verify_period: Option<u64>,
    incremental_mark_budget: Option<usize>,
    liveness_summaries: Option<PathBuf>,
}

impl PruningConfig {
    /// Starts building a configuration for a heap of `heap_capacity`
    /// simulated bytes.
    pub fn builder(heap_capacity: u64) -> PruningConfigBuilder {
        PruningConfigBuilder {
            config: PruningConfig {
                heap_capacity,
                pruning_enabled: true,
                policy: PredictionPolicy::default(),
                barrier_mode: BarrierMode::default(),
                expected_threshold: 0.5,
                nearly_full_threshold: 0.9,
                prune_only_when_full: false,
                edge_table_slots: DEFAULT_SLOTS,
                forced_state: None,
                nursery_fraction: None,
                decay_max_stale_use_every: None,
                run_finalizers_after_prune: true,
                gc_threads: 1,
                max_gc_attempts_per_alloc: 64,
                flight_recorder_slots: None,
                census_period: None,
                snapshot_on_exhaustion: None,
                postmortem_dir: None,
                verify_period: if cfg!(debug_assertions) {
                    Some(1)
                } else {
                    None
                },
                incremental_mark_budget: None,
                liveness_summaries: None,
            },
        }
    }

    /// The unmodified-VM configuration: no pruning, no barrier work.
    /// This is the paper's "Base".
    pub fn base(heap_capacity: u64) -> PruningConfig {
        PruningConfig::builder(heap_capacity)
            .pruning(false)
            .barrier_mode(BarrierMode::None)
            .build()
    }

    /// Heap capacity in simulated bytes.
    pub fn heap_capacity(&self) -> u64 {
        self.heap_capacity
    }

    /// Whether pruning (as opposed to plain collection) is enabled.
    pub fn pruning_enabled(&self) -> bool {
        self.pruning_enabled
    }

    /// The prediction policy.
    pub fn policy(&self) -> PredictionPolicy {
        self.policy
    }

    /// The barrier mode.
    pub fn barrier_mode(&self) -> BarrierMode {
        self.barrier_mode
    }

    /// Occupancy above which INACTIVE transitions to OBSERVE (default 0.5).
    pub fn expected_threshold(&self) -> f64 {
        self.expected_threshold
    }

    /// Occupancy above which OBSERVE transitions to SELECT (default 0.9).
    pub fn nearly_full_threshold(&self) -> f64 {
        self.nearly_full_threshold
    }

    /// §3.1 option (1): prune only after a real out-of-memory event.
    pub fn prune_only_when_full(&self) -> bool {
        self.prune_only_when_full
    }

    /// Edge-table slot count.
    pub fn edge_table_slots(&self) -> usize {
        self.edge_table_slots
    }

    /// Pinned observation state, if any.
    pub fn forced_state(&self) -> Option<ForcedState> {
        self.forced_state
    }

    /// If set, the heap runs generationally (as the paper's substrate
    /// does): a nursery of this fraction of the heap is collected by cheap
    /// minor collections, and leak pruning piggybacks only on the
    /// full-heap collections.
    pub fn nursery_fraction(&self) -> Option<f64> {
        self.nursery_fraction
    }

    /// If set, every N-th SELECT collection decays all `max_stale_use`
    /// entries by one — the phased-behaviour policy extension §6 sketches.
    pub fn decay_max_stale_use_every(&self) -> Option<u64> {
        self.decay_max_stale_use_every
    }

    /// Whether finalizers keep running once pruning has started (§2; the
    /// paper's implementation keeps them on).
    pub fn run_finalizers_after_prune(&self) -> bool {
        self.run_finalizers_after_prune
    }

    /// Number of collector threads, for both the mark and the sweep of
    /// every stop-the-world full-heap collection — plain, OBSERVE, SELECT
    /// (under every policy) and PRUNE. With more than one, marking runs on
    /// the parallel work-packet tracer (§4.5) and the sweep splits the
    /// heap's chunks across threads; one thread (the default) marks and
    /// sweeps on the mutator's thread and spawns nothing. The parallel
    /// sweep is deterministically equivalent to the serial one; parallel
    /// marking reaches the same closure but may discover SELECT candidates
    /// in a different order when stale subtrees overlap. Incremental mark
    /// quanta always run on the mutator's thread.
    pub fn gc_threads(&self) -> usize {
        self.gc_threads
    }

    /// Upper bound on collections attempted to satisfy one allocation
    /// before giving up with an out-of-memory error.
    pub fn max_gc_attempts_per_alloc(&self) -> u32 {
        self.max_gc_attempts_per_alloc
    }

    /// If set, the runtime attaches a flight recorder retaining this many
    /// of the most recent telemetry events.
    pub fn flight_recorder_slots(&self) -> Option<usize> {
        self.flight_recorder_slots
    }

    /// If set, the runtime emits an edge-table census event every N-th
    /// full-heap collection.
    pub fn census_period(&self) -> Option<u64> {
        self.census_period
    }

    /// If set, the first memory exhaustion writes a heap snapshot (JSONL,
    /// `lp-diagnose` format) to this path for offline leak diagnosis.
    pub fn snapshot_on_exhaustion(&self) -> Option<&Path> {
        self.snapshot_on_exhaustion.as_deref()
    }

    /// If set, the runtime writes postmortem bundles (v2 snapshot +
    /// flight-recorder tail + config, `lp-diagnose` bundle format) into
    /// this directory when memory is exhausted or a bundle is requested,
    /// rate-limited per trigger. Unlike
    /// [`snapshot_on_exhaustion`](Self::snapshot_on_exhaustion) the
    /// capture is non-destructive: no sweep runs and no collection index
    /// is consumed.
    pub fn postmortem_dir(&self) -> Option<&Path> {
        self.postmortem_dir.as_deref()
    }

    /// If set, the runtime runs the heap invariant sanitizer
    /// ([`Runtime::verify_heap`](crate::Runtime::verify_heap)) after every
    /// N-th full-heap collection and panics on any violation.
    ///
    /// Defaults to every collection in debug builds (so every test runs
    /// under the sanitizer) and off in release builds.
    pub fn verify_period(&self) -> Option<u64> {
        self.verify_period
    }

    /// If set, INACTIVE and OBSERVE full-heap collections mark
    /// incrementally: the transitive closure runs in bounded quanta of at
    /// most this many objects, interleaved with mutator work between
    /// allocations, with only a short stop-the-world flush and sweep at the
    /// end. SELECT and PRUNE collections stay fully stop-the-world (their
    /// selection needs an atomic view of staleness). Off by default — the
    /// paper's collector is stop-the-world.
    pub fn incremental_mark_budget(&self) -> Option<usize> {
        self.incremental_mark_budget
    }

    /// If set, SELECT runs the hybrid policy: static per-(class, field)
    /// liveness summaries (the JSONL file `lp-liveness` generates from the
    /// workload sources) are loaded from this path, and a stale reference
    /// also becomes a prune candidate when its source (class, field)
    /// carries a certainly-dead or dead-beyond-window verdict and its
    /// target's staleness has reached the verdict's minimum — without
    /// waiting for the dynamic `max_stale_use + 2` threshold. Off by
    /// default: the paper's policy is purely dynamic.
    pub fn liveness_summaries(&self) -> Option<&Path> {
        self.liveness_summaries.as_deref()
    }
}

/// Builder for [`PruningConfig`].
#[derive(Clone, Debug)]
pub struct PruningConfigBuilder {
    config: PruningConfig,
}

impl PruningConfigBuilder {
    /// Enables or disables pruning (disabled = plain reachability GC).
    pub fn pruning(mut self, enabled: bool) -> Self {
        self.config.pruning_enabled = enabled;
        self
    }

    /// Sets the prediction policy.
    pub fn policy(mut self, policy: PredictionPolicy) -> Self {
        self.config.policy = policy;
        self
    }

    /// Sets the barrier mode.
    pub fn barrier_mode(mut self, mode: BarrierMode) -> Self {
        self.config.barrier_mode = mode;
        self
    }

    /// Sets the INACTIVE→OBSERVE occupancy threshold.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= threshold <= 1.0`.
    pub fn expected_threshold(mut self, threshold: f64) -> Self {
        assert!((0.0..=1.0).contains(&threshold), "threshold out of range");
        self.config.expected_threshold = threshold;
        self
    }

    /// Sets the OBSERVE→SELECT ("nearly full") occupancy threshold.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= threshold <= 1.0`.
    pub fn nearly_full_threshold(mut self, threshold: f64) -> Self {
        assert!((0.0..=1.0).contains(&threshold), "threshold out of range");
        self.config.nearly_full_threshold = threshold;
        self
    }

    /// Selects §3.1 option (1): wait for true memory exhaustion before the
    /// first prune.
    pub fn prune_only_when_full(mut self, value: bool) -> Self {
        self.config.prune_only_when_full = value;
        self
    }

    /// Sets the edge-table slot count.
    pub fn edge_table_slots(mut self, slots: usize) -> Self {
        self.config.edge_table_slots = slots;
        self
    }

    /// Pins leak pruning to `state` forever (overhead experiments).
    pub fn force_state(mut self, state: ForcedState) -> Self {
        self.config.forced_state = Some(state);
        self
    }

    /// Enables a generational nursery of `fraction` of the heap.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 < fraction < 1.0`.
    pub fn nursery_fraction(mut self, fraction: f64) -> Self {
        assert!(
            fraction > 0.0 && fraction < 1.0,
            "nursery fraction out of range"
        );
        self.config.nursery_fraction = Some(fraction);
        self
    }

    /// Enables `max_stale_use` decay every `period` SELECT collections
    /// (the phased-behaviour extension of §6).
    ///
    /// # Panics
    ///
    /// Panics if `period` is zero.
    pub fn decay_max_stale_use_every(mut self, period: u64) -> Self {
        assert!(period > 0, "decay period must be positive");
        self.config.decay_max_stale_use_every = Some(period);
        self
    }

    /// Sets whether finalizers keep running after pruning starts.
    pub fn run_finalizers_after_prune(mut self, value: bool) -> Self {
        self.config.run_finalizers_after_prune = value;
        self
    }

    /// Sets the number of collector threads (see
    /// [`PruningConfig::gc_threads`]).
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero.
    pub fn gc_threads(mut self, threads: usize) -> Self {
        assert!(threads > 0, "need at least one collector thread");
        self.config.gc_threads = threads;
        self
    }

    /// Sets the per-allocation GC attempt bound.
    pub fn max_gc_attempts_per_alloc(mut self, attempts: u32) -> Self {
        self.config.max_gc_attempts_per_alloc = attempts.max(1);
        self
    }

    /// Attaches a flight recorder retaining the last `slots` telemetry
    /// events (see `lp_telemetry::FlightRecorder`).
    ///
    /// # Panics
    ///
    /// Panics if `slots` is zero.
    pub fn flight_recorder(mut self, slots: usize) -> Self {
        assert!(slots > 0, "flight recorder needs at least one slot");
        self.config.flight_recorder_slots = Some(slots);
        self
    }

    /// Emits an edge-table census event every `period` full-heap
    /// collections.
    ///
    /// # Panics
    ///
    /// Panics if `period` is zero.
    pub fn census_every(mut self, period: u64) -> Self {
        assert!(period > 0, "census period must be positive");
        self.config.census_period = Some(period);
        self
    }

    /// Writes a heap snapshot to `path` the first time the heap is
    /// exhausted (see [`PruningConfig::snapshot_on_exhaustion`]).
    pub fn snapshot_on_exhaustion(mut self, path: impl Into<PathBuf>) -> Self {
        self.config.snapshot_on_exhaustion = Some(path.into());
        self
    }

    /// Writes postmortem bundles into `dir` on exhaustion and on request
    /// (see [`PruningConfig::postmortem_dir`]).
    pub fn postmortem_on(mut self, dir: impl Into<PathBuf>) -> Self {
        self.config.postmortem_dir = Some(dir.into());
        self
    }

    /// Runs the heap invariant sanitizer after every `period`-th full-heap
    /// collection (see [`PruningConfig::verify_period`]).
    ///
    /// # Panics
    ///
    /// Panics if `period` is zero.
    pub fn verify_every(mut self, period: u64) -> Self {
        assert!(period > 0, "verify period must be positive");
        self.config.verify_period = Some(period);
        self
    }

    /// Disables the post-collection sanitizer (it is on by default in debug
    /// builds).
    pub fn verify_never(mut self) -> Self {
        self.config.verify_period = None;
        self
    }

    /// Marks INACTIVE/OBSERVE full-heap collections incrementally, at most
    /// `budget` objects per quantum (see
    /// [`PruningConfig::incremental_mark_budget`]).
    ///
    /// # Panics
    ///
    /// Panics if `budget` is zero.
    pub fn incremental_mark(mut self, budget: usize) -> Self {
        assert!(budget > 0, "mark quantum budget must be positive");
        self.config.incremental_mark_budget = Some(budget);
        self
    }

    /// Loads static liveness summaries from `path` and enables the hybrid
    /// SELECT policy (see [`PruningConfig::liveness_summaries`]).
    pub fn liveness_summaries(mut self, path: impl Into<PathBuf>) -> Self {
        self.config.liveness_summaries = Some(path.into());
        self
    }

    /// Finishes the build.
    pub fn build(self) -> PruningConfig {
        self.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = PruningConfig::builder(1024).build();
        assert!(c.pruning_enabled());
        assert_eq!(c.policy(), PredictionPolicy::LeakPruning);
        assert_eq!(c.expected_threshold(), 0.5);
        assert_eq!(c.nearly_full_threshold(), 0.9);
        assert!(!c.prune_only_when_full());
        assert_eq!(c.edge_table_slots(), DEFAULT_SLOTS);
        assert!(c.run_finalizers_after_prune());
        assert_eq!(c.barrier_mode(), BarrierMode::Full);
        assert_eq!(c.decay_max_stale_use_every(), None);
        assert_eq!(c.flight_recorder_slots(), None);
        assert_eq!(c.census_period(), None);
        assert_eq!(c.snapshot_on_exhaustion(), None);
        assert_eq!(c.postmortem_dir(), None);
        assert_eq!(c.incremental_mark_budget(), None);
        assert_eq!(c.liveness_summaries(), None);
        // The sanitizer guards every debug-build collection; release builds
        // pay nothing unless asked.
        let expected = if cfg!(debug_assertions) {
            Some(1)
        } else {
            None
        };
        assert_eq!(c.verify_period(), expected);
    }

    #[test]
    fn verify_knob_round_trips() {
        let c = PruningConfig::builder(1024).verify_every(8).build();
        assert_eq!(c.verify_period(), Some(8));
        let off = PruningConfig::builder(1024).verify_never().build();
        assert_eq!(off.verify_period(), None);
    }

    #[test]
    #[should_panic(expected = "verify period must be positive")]
    fn verify_rejects_zero() {
        PruningConfig::builder(1).verify_every(0);
    }

    #[test]
    fn incremental_mark_knob_round_trips() {
        let c = PruningConfig::builder(1024).incremental_mark(512).build();
        assert_eq!(c.incremental_mark_budget(), Some(512));
    }

    #[test]
    #[should_panic(expected = "mark quantum budget must be positive")]
    fn incremental_mark_rejects_zero() {
        PruningConfig::builder(1).incremental_mark(0);
    }

    #[test]
    fn telemetry_knobs_round_trip() {
        let c = PruningConfig::builder(1024)
            .flight_recorder(256)
            .census_every(4)
            .build();
        assert_eq!(c.flight_recorder_slots(), Some(256));
        assert_eq!(c.census_period(), Some(4));
    }

    #[test]
    fn snapshot_knob_round_trips() {
        let c = PruningConfig::builder(1024)
            .snapshot_on_exhaustion("/tmp/exhausted.jsonl")
            .build();
        assert_eq!(
            c.snapshot_on_exhaustion(),
            Some(Path::new("/tmp/exhausted.jsonl"))
        );
    }

    #[test]
    fn liveness_summaries_knob_round_trips() {
        let c = PruningConfig::builder(1024)
            .liveness_summaries("/tmp/liveness.jsonl")
            .build();
        assert_eq!(
            c.liveness_summaries(),
            Some(Path::new("/tmp/liveness.jsonl"))
        );
    }

    #[test]
    fn postmortem_knob_round_trips() {
        let c = PruningConfig::builder(1024)
            .postmortem_on("/tmp/postmortems")
            .build();
        assert_eq!(c.postmortem_dir(), Some(Path::new("/tmp/postmortems")));
    }

    #[test]
    #[should_panic(expected = "at least one slot")]
    fn flight_recorder_rejects_zero() {
        PruningConfig::builder(1).flight_recorder(0);
    }

    #[test]
    #[should_panic(expected = "census period must be positive")]
    fn census_rejects_zero() {
        PruningConfig::builder(1).census_every(0);
    }

    #[test]
    fn nursery_option_round_trips() {
        let c = PruningConfig::builder(1024).nursery_fraction(0.25).build();
        assert_eq!(c.nursery_fraction(), Some(0.25));
        assert_eq!(
            PruningConfig::builder(1024).build().nursery_fraction(),
            None
        );
    }

    #[test]
    #[should_panic(expected = "nursery fraction out of range")]
    fn nursery_rejects_out_of_range() {
        PruningConfig::builder(1).nursery_fraction(1.0);
    }

    #[test]
    fn decay_option_round_trips() {
        let c = PruningConfig::builder(1024)
            .decay_max_stale_use_every(16)
            .build();
        assert_eq!(c.decay_max_stale_use_every(), Some(16));
    }

    #[test]
    #[should_panic(expected = "decay period must be positive")]
    fn decay_rejects_zero() {
        PruningConfig::builder(1).decay_max_stale_use_every(0);
    }

    #[test]
    fn base_disables_everything() {
        let c = PruningConfig::base(1024);
        assert!(!c.pruning_enabled());
        assert_eq!(c.barrier_mode(), BarrierMode::None);
    }

    #[test]
    fn builder_sets_fields() {
        let c = PruningConfig::builder(2048)
            .policy(PredictionPolicy::MostStale)
            .expected_threshold(0.4)
            .nearly_full_threshold(0.8)
            .prune_only_when_full(true)
            .edge_table_slots(128)
            .force_state(ForcedState::Select)
            .gc_threads(4)
            .build();
        assert_eq!(c.heap_capacity(), 2048);
        assert_eq!(c.policy(), PredictionPolicy::MostStale);
        assert_eq!(c.expected_threshold(), 0.4);
        assert_eq!(c.nearly_full_threshold(), 0.8);
        assert!(c.prune_only_when_full());
        assert_eq!(c.edge_table_slots(), 128);
        assert_eq!(c.forced_state(), Some(ForcedState::Select));
        assert_eq!(c.gc_threads(), 4);
    }

    #[test]
    fn sweep_threads_defaults_to_serial() {
        // One collector thread count covers the sweep and the mark.
        assert_eq!(PruningConfig::builder(1024).build().gc_threads(), 1);
    }

    #[test]
    #[should_panic(expected = "need at least one collector thread")]
    fn rejects_zero_sweep_threads() {
        PruningConfig::builder(1).gc_threads(0);
    }

    #[test]
    #[should_panic(expected = "threshold out of range")]
    fn rejects_bad_threshold() {
        PruningConfig::builder(1).nearly_full_threshold(1.5);
    }

    #[test]
    fn policy_names_match_table2() {
        assert_eq!(PredictionPolicy::LeakPruning.name(), "Default");
        assert_eq!(PredictionPolicy::MostStale.name(), "Most stale");
        assert_eq!(PredictionPolicy::IndividualRefs.name(), "Indiv refs");
    }
}
