//! The collector closures leak pruning piggybacks on the collector (§4).
//!
//! Each observation state contributes one [`EdgeVisitor`], run by one or N
//! marker threads (§4.5):
//!
//! * **OBSERVE** ([`ObserveVisitor`]) ticks every reachable object's stale
//!   counter and re-sets the unlogged bit on every object-to-object
//!   reference so the read barrier keeps logging uses.
//! * **SELECT** ([`select_mark`]) runs the *in-use* closure
//!   ([`InUseVisitor`]) which defers candidate references (stale references
//!   whose targets are at least two staleness levels beyond their edge's
//!   `max_stale_use`) instead of tracing them, then the *stale* closure,
//!   which traces each candidate's subtree the way OBSERVE does and charges
//!   its bytes to the candidate's edge entry.
//! * **PRUNE** ([`PruneVisitor`]) poisons every reference matching the
//!   selected edge type (or staleness level) and does not trace it, so the
//!   sweep reclaims everything reachable only through pruned references.
//!
//! The candidate queue and the pruned-reference census sit behind a lock
//! (only deferred or poisoned references touch them), the most-stale
//! maximum is an atomic, and everything else — stale counters, reference
//! words, the edge table — was atomic already. Per-object mark words decide
//! which marker thread claims an object, as [`lp_heap::Heap::try_mark`]
//! provides. With several threads, candidate discovery order can differ
//! when subtrees overlap — the nondeterminism §4.5 accepts.
//!
//! Poisoned references are never traced by any closure; the objects behind
//! them stay reclaimed.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use lp_gc::{par_trace, trace, EdgeAction, EdgeVisitor, TraceStats};
use lp_heap::{Handle, Heap, Object, RootSet, TaggedRef};

use crate::edge_table::{EdgeKey, EdgeTable};
use crate::liveness::{Signal, StaticVerdicts};

/// Locks a visitor's shared candidate queue or prune census. Each update
/// under it is one push or one increment, so the data behind a lock a
/// panicking marker thread poisoned is still whole.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A reference deferred by the in-use closure: the first reference into a
/// stale subgraph (§4.2).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub(crate) struct Candidate {
    /// The edge type of the deferred reference.
    pub edge: EdgeKey,
    /// The stale root (target of the deferred reference).
    pub target: Handle,
    /// Which signal(s) made it a candidate.
    pub signal: Signal,
}

/// What the PRUNE collection is looking for.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Selection {
    /// Prune candidate references of this edge type (default and
    /// individual-references policies).
    Edge(EdgeKey),
    /// Prune all stale references to objects at or beyond this staleness
    /// level (the "most stale" policy of the disk-based systems).
    StaleLevel(u8),
}

/// The paper's *dynamic* candidate criterion: the reference is stale (its
/// unlogged bit is still set, i.e. the program has not loaded it since the
/// last collection) and its target's stale counter is at least two greater
/// than the edge's `max_stale_use` (§4.2 — two, not one, because the
/// counters only approximate the logarithm of staleness).
fn dynamic_candidate(
    table: &EdgeTable,
    edge: EdgeKey,
    reference: TaggedRef,
    target_stale: u8,
) -> bool {
    reference.is_unlogged()
        && target_stale >= table.max_stale_use(edge).saturating_add(2)
        && target_stale >= 2
}

/// The hybrid candidate test: a reference is a candidate when it is stale
/// (unlogged) and *either* the dynamic staleness threshold fires *or* a
/// static liveness verdict covers its (source class, field) and the
/// target's staleness has reached the verdict's minimum (≥ 1 always — a
/// logged or freshly written reference is never a candidate, whatever the
/// analyzer believes). Returns which signal(s) fired, or `None` for a
/// non-candidate. With an empty verdict table this is exactly the paper's
/// criterion.
///
/// `static_only` is set when SELECT was entered early on static evidence
/// alone (occupancy above *expected* but below *nearly full*): memory
/// pressure has not yet justified pruning on dynamic staleness, so
/// purely-`Stale` signals are rejected and only statically-covered edges
/// may become candidates.
pub(crate) fn candidate_signal(
    table: &EdgeTable,
    statics: &StaticVerdicts,
    edge: EdgeKey,
    field: usize,
    reference: TaggedRef,
    target_stale: u8,
    static_only: bool,
) -> Option<Signal> {
    if !reference.is_unlogged() {
        return None;
    }
    let dynamic = dynamic_candidate(table, edge, reference, target_stale);
    let statically_dead = statics
        .min_stale(edge.src, field)
        .is_some_and(|min| target_stale >= min);
    match (dynamic, statically_dead) {
        (true, true) => Some(Signal::Both),
        (true, false) if static_only => None,
        (true, false) => Some(Signal::Stale),
        (false, true) => Some(Signal::Static),
        (false, false) => None,
    }
}

/// Resolves a non-null reference to `(target slot, target class, target
/// staleness)`.
fn target_of(heap: &Heap, reference: TaggedRef) -> (u32, lp_heap::ClassId, u8) {
    let slot = reference.slot().expect("visitor sees non-null refs only");
    let target = heap.object_by_slot(slot).expect("traced reference is live");
    (slot, target.class(), target.stale())
}

/// Ticks an object's stale counter if the staleness clock advanced this
/// collection. The clock only advances for collections between which the
/// mutator actually ran: consecutive collections within one allocation
/// stall give the program no chance to use anything, so aging objects
/// across them would turn *hot* data into pruning candidates (the paper's
/// stop-the-world setting has mutator progress between collections by
/// construction).
fn maybe_tick(object: &Object, stale_clock: Option<u64>) -> u8 {
    match stale_clock {
        Some(clock) => object.tick_stale(clock),
        None => object.stale(),
    }
}

/// The edge rule every closure ends with: re-set the unlogged bit so the
/// read barrier logs the next use, and trace through the reference.
fn log_and_trace(src: &Object, field: usize, reference: TaggedRef) -> EdgeAction {
    src.store_ref(field, reference.with_unlogged());
    EdgeAction::Trace
}

/// OBSERVE-state closure: maintain staleness, keep references logged. The
/// SELECT stale closure traces each candidate's subtree with it too.
pub(crate) struct ObserveVisitor {
    pub stale_clock: Option<u64>,
}

impl EdgeVisitor for ObserveVisitor {
    fn visit_edge(
        &self,
        _heap: &Heap,
        _src_slot: u32,
        src: &Object,
        field: usize,
        reference: TaggedRef,
    ) -> EdgeAction {
        if reference.is_poisoned() {
            return EdgeAction::Skip;
        }
        log_and_trace(src, field, reference)
    }

    fn visit_object(&self, _heap: &Heap, _slot: u32, object: &Object) {
        maybe_tick(object, self.stale_clock);
    }
}

/// SELECT-state in-use closure for the default (data-structure) policy:
/// defer candidates into the shared queue, trace everything else.
pub(crate) struct InUseVisitor<'a> {
    pub stale_clock: Option<u64>,
    pub table: &'a EdgeTable,
    pub statics: &'a StaticVerdicts,
    /// SELECT was entered early on static evidence; candidacy is
    /// restricted to statically-covered edges (see [`candidate_signal`]).
    pub static_only: bool,
    pub candidates: Mutex<Vec<Candidate>>,
}

impl<'a> InUseVisitor<'a> {
    pub fn new(
        stale_clock: Option<u64>,
        table: &'a EdgeTable,
        statics: &'a StaticVerdicts,
    ) -> Self {
        InUseVisitor {
            stale_clock,
            table,
            statics,
            static_only: false,
            candidates: Mutex::new(Vec::new()),
        }
    }
}

impl EdgeVisitor for InUseVisitor<'_> {
    fn visit_edge(
        &self,
        heap: &Heap,
        _src_slot: u32,
        src: &Object,
        field: usize,
        reference: TaggedRef,
    ) -> EdgeAction {
        if reference.is_poisoned() {
            return EdgeAction::Skip;
        }
        let (target_slot, tgt_class, stale) = target_of(heap, reference);
        let edge = EdgeKey::new(src.class(), tgt_class);
        if let Some(signal) = candidate_signal(
            self.table,
            self.statics,
            edge,
            field,
            reference,
            stale,
            self.static_only,
        ) {
            // Leave the reference (and its unlogged bit) in place; the PRUNE
            // collection re-discovers and poisons it if its edge is chosen.
            lock(&self.candidates).push(Candidate {
                edge,
                target: heap.handle_at(target_slot),
                signal,
            });
            return EdgeAction::Skip;
        }
        log_and_trace(src, field, reference)
    }

    fn visit_object(&self, _heap: &Heap, _slot: u32, object: &Object) {
        maybe_tick(object, self.stale_clock);
    }
}

/// SELECT's two-phase mark for the default policy: the in-use closure on
/// `threads` marker threads, then the stale closure. Each candidate's
/// subtree is traced by a single thread: the queue is split into
/// `threads` chunks, each traced in queue order, the first on the calling
/// thread and the rest concurrently, mark words arbitrating overlaps
/// (§4.5). Subtrees already marked (in use, or claimed by an earlier
/// candidate) charge nothing; the rest charge their bytes to the
/// candidate's edge.
///
/// Returns the closure's counts, each marker thread's busy time across both
/// phases, and the deferred candidates (for the caller's winning-signal
/// attribution).
pub(crate) fn select_mark(
    heap: &Heap,
    roots: &RootSet,
    in_use: InUseVisitor<'_>,
    threads: usize,
) -> (TraceStats, Vec<Duration>, Vec<Candidate>) {
    let (mut stats, mut busy) = par_trace(heap, roots.iter(), &in_use, threads);
    let table = in_use.table;
    let stale = ObserveVisitor {
        stale_clock: in_use.stale_clock,
    };
    let candidates = in_use
        .candidates
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner);

    let trace_subtrees = |chunk: &[Candidate]| {
        let start = Instant::now();
        let mut local = TraceStats::default();
        for candidate in chunk {
            if heap.is_marked(candidate.target.slot()) {
                continue;
            }
            // A root deferred twice via two references is marked once.
            let subtree = trace(heap, [candidate.target], &stale);
            table.add_bytes(candidate.edge, subtree.bytes_marked);
            local = local.merged(subtree);
        }
        (local, start.elapsed())
    };
    // The calling thread traces the first chunk; each other chunk gets a
    // thread of its own. One thread means one chunk, and nothing spawns.
    let mut chunks = candidates.chunks(candidates.len().div_ceil(threads).max(1));
    let first = chunks.next().unwrap_or_default();
    let per_thread: Vec<(TraceStats, Duration)> = std::thread::scope(|scope| {
        let spawned: Vec<_> = chunks
            .map(|chunk| scope.spawn(move || trace_subtrees(chunk)))
            .collect();
        let mut per_thread = vec![trace_subtrees(first)];
        per_thread.extend(spawned.into_iter().map(|h| {
            h.join()
                .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
        }));
        per_thread
    });
    for ((local, elapsed), thread_busy) in per_thread.into_iter().zip(&mut busy) {
        stats = stats.merged(local);
        *thread_busy += elapsed;
    }
    (stats, busy, candidates)
}

/// SELECT-state closure for the *individual references* policy (§6.1):
/// no candidate queue, no stale closure — each stale reference charges its
/// target object's own footprint to its edge, and tracing continues through
/// it.
pub(crate) struct IndividualRefsVisitor<'a> {
    pub stale_clock: Option<u64>,
    pub table: &'a EdgeTable,
}

impl EdgeVisitor for IndividualRefsVisitor<'_> {
    fn visit_edge(
        &self,
        heap: &Heap,
        _src_slot: u32,
        src: &Object,
        field: usize,
        reference: TaggedRef,
    ) -> EdgeAction {
        if reference.is_poisoned() {
            return EdgeAction::Skip;
        }
        let (target_slot, tgt_class, stale) = target_of(heap, reference);
        let edge = EdgeKey::new(src.class(), tgt_class);
        // The comparison policy stays purely dynamic: no static verdicts.
        if dynamic_candidate(self.table, edge, reference, stale) {
            let target = heap.object_by_slot(target_slot).expect("live target");
            let footprint = u64::from(target.footprint());
            self.table.add_bytes(edge, footprint);
            // Unlike the default policy the reference is still traced, so
            // nothing is deferred and subtree sizes are never computed.
        }
        log_and_trace(src, field, reference)
    }

    fn visit_object(&self, _heap: &Heap, _slot: u32, object: &Object) {
        maybe_tick(object, self.stale_clock);
    }
}

/// SELECT-state closure for the *most stale* policy (§6.1): find the
/// highest staleness level of any reachable object.
pub(crate) struct MostStaleVisitor {
    pub stale_clock: Option<u64>,
    pub max_stale: AtomicU8,
}

impl MostStaleVisitor {
    pub fn new(stale_clock: Option<u64>) -> Self {
        MostStaleVisitor {
            stale_clock,
            max_stale: AtomicU8::new(0),
        }
    }
}

impl EdgeVisitor for MostStaleVisitor {
    fn visit_edge(
        &self,
        _heap: &Heap,
        _src_slot: u32,
        src: &Object,
        field: usize,
        reference: TaggedRef,
    ) -> EdgeAction {
        if reference.is_poisoned() {
            return EdgeAction::Skip;
        }
        log_and_trace(src, field, reference)
    }

    fn visit_object(&self, _heap: &Heap, _slot: u32, object: &Object) {
        let stale = maybe_tick(object, self.stale_clock);
        self.max_stale.fetch_max(stale, Ordering::Relaxed);
    }
}

/// PRUNE-state closure: poison matching references and do not trace them.
pub(crate) struct PruneVisitor<'a> {
    pub stale_clock: Option<u64>,
    pub table: &'a EdgeTable,
    pub statics: &'a StaticVerdicts,
    /// The matching SELECT ran in static-only mode; re-discovery must use
    /// the same restricted candidate test or PRUNE would poison references
    /// SELECT never charged.
    pub static_only: bool,
    pub selection: Selection,
    /// References poisoned by this collection, per edge type. Unordered —
    /// consumers aggregate or sort; nothing observes iteration order.
    pub pruned: Mutex<HashMap<EdgeKey, u64>>,
}

impl<'a> PruneVisitor<'a> {
    pub fn new(
        stale_clock: Option<u64>,
        table: &'a EdgeTable,
        statics: &'a StaticVerdicts,
        selection: Selection,
    ) -> Self {
        PruneVisitor {
            stale_clock,
            table,
            statics,
            static_only: false,
            selection,
            pruned: Mutex::new(HashMap::new()),
        }
    }

    /// Total references poisoned.
    #[cfg(test)]
    pub fn pruned_refs(&self) -> u64 {
        lock(&self.pruned).values().sum()
    }
}

impl EdgeVisitor for PruneVisitor<'_> {
    fn visit_edge(
        &self,
        heap: &Heap,
        _src_slot: u32,
        src: &Object,
        field: usize,
        reference: TaggedRef,
    ) -> EdgeAction {
        if reference.is_poisoned() {
            return EdgeAction::Skip;
        }
        let (_, tgt_class, stale) = target_of(heap, reference);
        let edge = EdgeKey::new(src.class(), tgt_class);
        let matches = match self.selection {
            Selection::Edge(selected) => {
                edge == selected
                    && candidate_signal(
                        self.table,
                        self.statics,
                        edge,
                        field,
                        reference,
                        stale,
                        self.static_only,
                    )
                    .is_some()
            }
            Selection::StaleLevel(level) => reference.is_unlogged() && stale >= level.max(2),
        };
        if matches {
            // The CAS mirrors the collector's fine-grained synchronization:
            // if another marker thread rewrote the field first, defer to it.
            if src.cas_ref(field, reference, reference.with_poison()) {
                *lock(&self.pruned).entry(edge).or_insert(0) += 1;
            }
            return EdgeAction::Skip;
        }
        log_and_trace(src, field, reference)
    }

    fn visit_object(&self, _heap: &Heap, _slot: u32, object: &Object) {
        maybe_tick(object, self.stale_clock);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::liveness::EMPTY_VERDICTS;
    use lp_heap::{AllocSpec, ClassRegistry, Heap};

    struct Fixture {
        heap: Heap,
        classes: ClassRegistry,
    }

    impl Fixture {
        fn new() -> Self {
            Fixture {
                heap: Heap::new(1 << 20),
                classes: ClassRegistry::new(),
            }
        }

        fn alloc(&mut self, class: &str, refs: u32) -> Handle {
            let cls = self.classes.register(class);
            self.heap.alloc(cls, &AllocSpec::with_refs(refs)).unwrap()
        }

        fn link_stale(&mut self, src: Handle, field: usize, tgt: Handle) {
            self.heap
                .object(src)
                .store_ref(field, TaggedRef::from_handle(tgt).with_unlogged());
        }
    }

    #[test]
    fn observe_sets_unlogged_and_ticks() {
        let mut fx = Fixture::new();
        let a = fx.alloc("A", 1);
        let b = fx.alloc("B", 0);
        fx.heap.object(a).store_ref(0, TaggedRef::from_handle(b));

        fx.heap.begin_mark_epoch();
        trace(
            &fx.heap,
            [a],
            &ObserveVisitor {
                stale_clock: Some(1),
            },
        );

        assert!(fx.heap.object(a).load_ref(0).is_unlogged());
        assert_eq!(fx.heap.object(a).stale(), 1);
        assert_eq!(fx.heap.object(b).stale(), 1);
    }

    #[test]
    fn in_use_closure_defers_candidates() {
        let mut fx = Fixture::new();
        let a = fx.alloc("A", 2);
        let fresh = fx.alloc("B", 0);
        let stale = fx.alloc("B", 0);
        fx.link_stale(a, 0, fresh);
        fx.link_stale(a, 1, stale);
        fx.heap.object(stale).set_stale(3);
        // `fresh` has stale counter 0: not a candidate.

        let table = EdgeTable::new(64);
        fx.heap.begin_mark_epoch();
        let visitor = InUseVisitor::new(Some(1), &table, &EMPTY_VERDICTS);
        trace(&fx.heap, [a], &visitor);

        let candidates = visitor.candidates.into_inner().unwrap();
        assert_eq!(candidates.len(), 1);
        assert_eq!(candidates[0].target, stale);
        assert!(!fx.heap.is_marked(stale.slot()), "candidate deferred");
        assert!(fx.heap.is_marked(fresh.slot()));
    }

    #[test]
    fn max_stale_use_protects_edges() {
        let mut fx = Fixture::new();
        let a = fx.alloc("A", 1);
        let b = fx.alloc("B", 0);
        fx.link_stale(a, 0, b);
        fx.heap.object(b).set_stale(3);

        let table = EdgeTable::new(64);
        let edge = EdgeKey::new(
            fx.classes.lookup("A").unwrap(),
            fx.classes.lookup("B").unwrap(),
        );
        // The program once used an A->B reference at staleness 2, so only
        // staleness >= 4 is a candidate.
        table.note_stale_use(edge, 2);

        fx.heap.begin_mark_epoch();
        let visitor = InUseVisitor::new(Some(1), &table, &EMPTY_VERDICTS);
        trace(&fx.heap, [a], &visitor);
        assert!(lock(&visitor.candidates).is_empty());

        fx.heap.object(b).set_stale(4);
        fx.heap.begin_mark_epoch();
        let visitor = InUseVisitor::new(Some(2), &table, &EMPTY_VERDICTS);
        trace(&fx.heap, [a], &visitor);
        assert_eq!(lock(&visitor.candidates).len(), 1);
    }

    #[test]
    fn logged_references_are_never_candidates() {
        let mut fx = Fixture::new();
        let a = fx.alloc("A", 1);
        let b = fx.alloc("B", 0);
        // Freshly written reference: unlogged bit clear (program wrote it
        // after the last collection), so it is in use by definition.
        fx.heap.object(a).store_ref(0, TaggedRef::from_handle(b));
        fx.heap.object(b).set_stale(7);

        let table = EdgeTable::new(64);
        fx.heap.begin_mark_epoch();
        let visitor = InUseVisitor::new(Some(1), &table, &EMPTY_VERDICTS);
        trace(&fx.heap, [a], &visitor);
        assert!(lock(&visitor.candidates).is_empty());
    }

    #[test]
    fn prune_poisons_selected_edge_only() {
        let mut fx = Fixture::new();
        let a = fx.alloc("A", 2);
        let b = fx.alloc("B", 0);
        let c = fx.alloc("C", 0);
        fx.link_stale(a, 0, b);
        fx.link_stale(a, 1, c);
        fx.heap.object(b).set_stale(4);
        fx.heap.object(c).set_stale(4);

        let table = EdgeTable::new(64);
        let edge_ab = EdgeKey::new(
            fx.classes.lookup("A").unwrap(),
            fx.classes.lookup("B").unwrap(),
        );

        fx.heap.begin_mark_epoch();
        let visitor = PruneVisitor::new(Some(1), &table, &EMPTY_VERDICTS, Selection::Edge(edge_ab));
        trace(&fx.heap, [a], &visitor);

        assert_eq!(visitor.pruned_refs(), 1);
        assert!(fx.heap.object(a).load_ref(0).is_poisoned());
        assert!(!fx.heap.object(a).load_ref(1).is_poisoned());
        assert!(!fx.heap.is_marked(b.slot()), "pruned target not traced");
        assert!(fx.heap.is_marked(c.slot()));
    }

    #[test]
    fn prune_by_stale_level_ignores_edge_types() {
        let mut fx = Fixture::new();
        let a = fx.alloc("A", 2);
        let b = fx.alloc("B", 0);
        let c = fx.alloc("C", 0);
        fx.link_stale(a, 0, b);
        fx.link_stale(a, 1, c);
        fx.heap.object(b).set_stale(5);
        fx.heap.object(c).set_stale(3);

        let table = EdgeTable::new(64);
        fx.heap.begin_mark_epoch();
        let visitor = PruneVisitor::new(Some(1), &table, &EMPTY_VERDICTS, Selection::StaleLevel(5));
        trace(&fx.heap, [a], &visitor);

        assert!(fx.heap.object(a).load_ref(0).is_poisoned());
        assert!(!fx.heap.object(a).load_ref(1).is_poisoned());
    }

    #[test]
    fn poisoned_references_stay_skipped_in_all_closures() {
        let mut fx = Fixture::new();
        let a = fx.alloc("A", 1);
        let b = fx.alloc("B", 0);
        fx.heap
            .object(a)
            .store_ref(0, TaggedRef::from_handle(b).with_poison());

        let table = EdgeTable::new(64);
        for closure in 0..3 {
            fx.heap.begin_mark_epoch();
            match closure {
                0 => {
                    trace(
                        &fx.heap,
                        [a],
                        &ObserveVisitor {
                            stale_clock: Some(1),
                        },
                    );
                }
                1 => {
                    let v = InUseVisitor::new(Some(1), &table, &EMPTY_VERDICTS);
                    trace(&fx.heap, [a], &v);
                }
                _ => {
                    let v = PruneVisitor::new(
                        Some(1),
                        &table,
                        &EMPTY_VERDICTS,
                        Selection::Edge(EdgeKey::new(
                            fx.classes.lookup("A").unwrap(),
                            fx.classes.lookup("B").unwrap(),
                        )),
                    );
                    trace(&fx.heap, [a], &v);
                }
            }
            assert!(
                !fx.heap.is_marked(b.slot()),
                "closure {closure} traced a poisoned ref"
            );
        }
    }

    #[test]
    fn individual_refs_charges_target_footprint_and_traces() {
        let mut fx = Fixture::new();
        let a = fx.alloc("A", 1);
        let cls_b = fx.classes.register("B");
        let b = fx.heap.alloc(cls_b, &AllocSpec::new(1, 0, 100)).unwrap();
        let child = fx.alloc("C", 0);
        fx.link_stale(a, 0, b);
        fx.link_stale(b, 0, child);
        fx.heap.object(b).set_stale(4);
        fx.heap.object(child).set_stale(4);

        let table = EdgeTable::new(64);
        fx.heap.begin_mark_epoch();
        let v = IndividualRefsVisitor {
            stale_clock: Some(1),
            table: &table,
        };
        trace(&fx.heap, [a], &v);

        let edge_ab = EdgeKey::new(
            fx.classes.lookup("A").unwrap(),
            fx.classes.lookup("B").unwrap(),
        );
        // Only b's own footprint (not child's) is charged to A->B.
        assert_eq!(
            table.bytes_used(edge_ab),
            u64::from(fx.heap.object(b).footprint())
        );
        // And tracing continued through the stale reference.
        assert!(fx.heap.is_marked(child.slot()));
    }

    #[test]
    fn most_stale_tracks_maximum() {
        let mut fx = Fixture::new();
        let a = fx.alloc("A", 1);
        let b = fx.alloc("B", 0);
        fx.link_stale(a, 0, b);
        fx.heap.object(b).set_stale(6);

        fx.heap.begin_mark_epoch();
        // Clock 3 is not a power-of-two multiple for k=6: no tick.
        let v = MostStaleVisitor::new(Some(3));
        trace(&fx.heap, [a], &v);
        assert_eq!(v.max_stale.into_inner(), 6);
    }
}

#[cfg(test)]
mod criterion_edge_cases {
    use super::*;
    use crate::liveness::EMPTY_VERDICTS;
    use lp_heap::{AllocSpec, ClassRegistry, Heap};

    fn two_object_heap(tgt_stale: u8, unlogged: bool) -> (Heap, ClassRegistry, Handle, Handle) {
        let mut classes = ClassRegistry::new();
        let a_cls = classes.register("A");
        let _b_cls = classes.register("B");
        let mut heap = Heap::new(1 << 20);
        let a = heap.alloc(a_cls, &AllocSpec::with_refs(1)).unwrap();
        let b = heap
            .alloc(classes.lookup("B").unwrap(), &AllocSpec::default())
            .unwrap();
        let mut r = TaggedRef::from_handle(b);
        if unlogged {
            r = r.with_unlogged();
        }
        heap.object(a).store_ref(0, r);
        heap.object(b).set_stale(tgt_stale);
        (heap, classes, a, b)
    }

    /// Walks the exact boundary of the candidate criterion: staleness must
    /// be at least max(2, max_stale_use + 2).
    #[test]
    fn candidate_boundary_is_exact() {
        for (max_stale_use, stale, expect) in [
            (0u8, 1u8, false),
            (0, 2, true),
            (1, 2, false),
            (1, 3, true),
            (3, 4, false),
            (3, 5, true),
            (7, 7, false), // saturated protection: never a candidate
        ] {
            let (mut heap, classes, a, _b) = two_object_heap(stale, true);
            let table = EdgeTable::new(64);
            let edge = EdgeKey::new(classes.lookup("A").unwrap(), classes.lookup("B").unwrap());
            if max_stale_use > 0 {
                table.note_stale_use(edge, max_stale_use);
            }
            heap.begin_mark_epoch();
            let visitor = InUseVisitor::new(Some(1), &table, &EMPTY_VERDICTS);
            trace(&heap, [a], &visitor);
            assert_eq!(
                lock(&visitor.candidates).len() == 1,
                expect,
                "max_stale_use {max_stale_use}, stale {stale}"
            );
        }
    }

    /// A logged (recently loaded) reference is never a candidate no matter
    /// how stale its target looks.
    #[test]
    fn logged_reference_never_candidate_even_at_saturation() {
        let (mut heap, _classes, a, _b) = two_object_heap(7, false);
        let table = EdgeTable::new(64);
        heap.begin_mark_epoch();
        let visitor = InUseVisitor::new(Some(1), &table, &EMPTY_VERDICTS);
        trace(&heap, [a], &visitor);
        assert!(lock(&visitor.candidates).is_empty());
    }

    /// The stale-level selection clamps at 2: MostStale never prunes
    /// freshly-used objects even if the maximum staleness observed is low.
    #[test]
    fn stale_level_prune_clamps_at_two() {
        let (mut heap, _classes, a, b) = two_object_heap(1, true);
        let table = EdgeTable::new(64);
        heap.begin_mark_epoch();
        let visitor = PruneVisitor::new(Some(1), &table, &EMPTY_VERDICTS, Selection::StaleLevel(1));
        trace(&heap, [a], &visitor);
        assert_eq!(visitor.pruned_refs(), 0, "staleness 1 is below the clamp");
        assert!(heap.is_marked(b.slot()));
    }

    /// Without the staleness clock (a stall collection), visit_object does
    /// not age objects.
    #[test]
    fn stall_collections_do_not_age_objects() {
        let (mut heap, _classes, a, b) = two_object_heap(0, true);
        heap.begin_mark_epoch();
        trace(&heap, [a], &ObserveVisitor { stale_clock: None });
        assert_eq!(heap.object(b).stale(), 0);

        heap.begin_mark_epoch();
        trace(
            &heap,
            [a],
            &ObserveVisitor {
                stale_clock: Some(1),
            },
        );
        assert_eq!(heap.object(b).stale(), 1);
    }
}
