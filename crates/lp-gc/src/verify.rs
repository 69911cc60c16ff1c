//! Post-collection reachability verification.
//!
//! [`Heap::verify`](lp_heap::Heap::verify) checks the slab's *structural*
//! invariants, which hold at any quiescent point. This module adds the one
//! check that is only meaningful immediately after a full collection: the
//! live set must be exactly the set reachable from the roots (skipping
//! poisoned references, which the closure never traces through), and every
//! survivor must carry the collection's mark.
//!
//! The walk here deliberately recomputes reachability with a local visited
//! set instead of reusing [`Heap::try_mark`]: the sanitizer must be
//! read-only, and `try_mark` would perturb the per-chunk mark counters it
//! is supposed to be checking.

use std::collections::HashSet;

use lp_heap::{Heap, RootSet, Violation};

/// Violation kind: the post-collection live set disagrees with a fresh
/// root-reachability recomputation, or a survivor is unmarked — floating
/// garbage survived the sweep, a reachable object was reclaimed, or the
/// mark state was corrupted between trace and sweep.
pub const MARK_CONSISTENCY: &str = "mark-consistency";

/// Checks that the heap's live set is exactly what a full collection should
/// have retained: the transitive closure of the roots over non-poisoned
/// references, every member marked in the heap's current epoch.
///
/// Only valid *immediately after a full collection* — before the mutator
/// allocates (new objects are live but unreachable until stored into the
/// graph) and before a new mark epoch begins. Minor collections do not
/// establish this invariant (old objects survive unexamined); the runtime
/// only runs this check after full collections.
///
/// The walk is read-only; violations are returned, never panicked on.
pub fn verify_post_collection(heap: &Heap, roots: &RootSet) -> Vec<Violation> {
    verify_with(heap, roots, false)
}

/// [`verify_post_collection`] for collections whose mark phase ran
/// incrementally.
///
/// An incremental cycle legitimately retains *floating garbage*: objects
/// reachable at the snapshot (or allocated during the cycle) that became
/// unreachable before the final flush. They are all marked — the SATB
/// closure marked them — so this variant keeps the stale-root and
/// unmarked-survivor checks but skips the exact-reachability check. The
/// next stop-the-world collection reclaims the float, and the strict check
/// applies there again.
pub fn verify_post_incremental_collection(heap: &Heap, roots: &RootSet) -> Vec<Violation> {
    verify_with(heap, roots, true)
}

fn verify_with(heap: &Heap, roots: &RootSet, allow_floating: bool) -> Vec<Violation> {
    let mut violations = Vec::new();
    let mut visited: HashSet<u32> = HashSet::new();
    let mut stack: Vec<u32> = Vec::new();

    for root in roots.iter() {
        if !heap.contains(root) {
            violations.push(Violation::new(
                MARK_CONSISTENCY,
                format!(
                    "root designates reclaimed slot {} — a collection must \
                     retain everything the roots reach",
                    root.slot()
                ),
            ));
            continue;
        }
        if visited.insert(root.slot()) {
            stack.push(root.slot());
        }
    }

    while let Some(slot) = stack.pop() {
        let Some(object) = heap.object_by_slot(slot) else {
            continue;
        };
        for (_field, reference) in object.iter_refs() {
            if reference.is_poisoned() {
                continue; // pruned edges are not traced (§4.3)
            }
            if let Some(target) = reference.slot() {
                // A non-poisoned reference to an empty slot is a structural
                // violation `Heap::verify` already reports; skip it here.
                if heap.object_by_slot(target).is_some() && visited.insert(target) {
                    stack.push(target);
                }
            }
        }
    }

    for (slot, _object) in heap.iter() {
        if !allow_floating && !visited.contains(&slot) {
            violations.push(Violation::new(
                MARK_CONSISTENCY,
                format!(
                    "live slot {slot} is not reachable from the roots — \
                     floating garbage survived the sweep"
                ),
            ));
        }
        if !heap.is_marked(slot) {
            violations.push(Violation::new(
                MARK_CONSISTENCY,
                format!("live slot {slot} is not marked in the collection's epoch"),
            ));
        }
    }

    violations
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tracer::{trace, EdgeAction, EdgeVisitor, TraceAll};
    use lp_heap::{AllocSpec, ClassRegistry, Heap, Object, RootSet, TaggedRef};

    /// The pruning closures' edge policy: never trace through poison.
    struct SkipPoisoned;

    impl EdgeVisitor for SkipPoisoned {
        fn visit_edge(
            &self,
            _heap: &Heap,
            _src_slot: u32,
            _src: &Object,
            _field: usize,
            reference: TaggedRef,
        ) -> EdgeAction {
            if reference.is_poisoned() {
                EdgeAction::Skip
            } else {
                EdgeAction::Trace
            }
        }
    }

    fn setup() -> (Heap, RootSet, lp_heap::ClassId) {
        let mut reg = ClassRegistry::new();
        let cls = reg.register("T");
        (Heap::new(1 << 20), RootSet::new(), cls)
    }

    fn kinds(violations: &[Violation]) -> Vec<&'static str> {
        violations.iter().map(|v| v.kind).collect()
    }

    #[test]
    fn clean_collection_verifies() {
        let (mut heap, mut roots, cls) = setup();
        let a = heap.alloc(cls, &AllocSpec::with_refs(1)).unwrap();
        let b = heap.alloc(cls, &AllocSpec::leaf(0)).unwrap();
        heap.alloc(cls, &AllocSpec::leaf(0)).unwrap(); // garbage
        heap.object(a).store_ref(0, TaggedRef::from_handle(b));
        let s = roots.add_static();
        roots.set_static(s, Some(a));

        heap.begin_mark_epoch();
        trace(&heap, roots.iter(), &TraceAll);
        heap.sweep();
        assert_eq!(verify_post_collection(&heap, &roots), Vec::new());
        assert_eq!(heap.verify(), Vec::new());
    }

    #[test]
    fn poisoned_edges_do_not_extend_reachability() {
        let (mut heap, mut roots, cls) = setup();
        let a = heap.alloc(cls, &AllocSpec::with_refs(1)).unwrap();
        let b = heap.alloc(cls, &AllocSpec::leaf(0)).unwrap();
        heap.object(a)
            .store_ref(0, TaggedRef::from_handle(b).with_poison());
        let s = roots.add_static();
        roots.set_static(s, Some(a));

        // A pruning collection skips the poisoned edge, so b dies.
        heap.begin_mark_epoch();
        trace(&heap, roots.iter(), &SkipPoisoned);
        heap.sweep();
        assert!(!heap.contains(b));
        assert_eq!(verify_post_collection(&heap, &roots), Vec::new());
    }

    #[test]
    fn floating_garbage_is_reported() {
        let (mut heap, mut roots, cls) = setup();
        let a = heap.alloc(cls, &AllocSpec::leaf(0)).unwrap();
        let b = heap.alloc(cls, &AllocSpec::leaf(0)).unwrap();
        let s = roots.add_static();
        roots.set_static(s, Some(a));

        heap.begin_mark_epoch();
        trace(&heap, roots.iter(), &TraceAll);
        // Spuriously mark the unreachable object so the sweep retains it.
        heap.try_mark(b.slot());
        heap.sweep();
        assert_eq!(
            kinds(&verify_post_collection(&heap, &roots)),
            vec![MARK_CONSISTENCY]
        );
    }

    #[test]
    fn unmarked_survivors_are_reported() {
        let (mut heap, mut roots, cls) = setup();
        let a = heap.alloc(cls, &AllocSpec::leaf(0)).unwrap();
        let s = roots.add_static();
        roots.set_static(s, Some(a));

        heap.begin_mark_epoch();
        trace(&heap, roots.iter(), &TraceAll);
        heap.sweep();
        // A fresh epoch clears the marks without collecting: every survivor
        // is now live-but-unmarked, which the check must flag.
        heap.begin_mark_epoch();
        assert_eq!(
            kinds(&verify_post_collection(&heap, &roots)),
            vec![MARK_CONSISTENCY]
        );
    }

    #[test]
    fn stale_root_is_reported() {
        let (mut heap, mut roots, cls) = setup();
        let a = heap.alloc(cls, &AllocSpec::leaf(0)).unwrap();
        let s = roots.add_static();
        roots.set_static(s, Some(a));

        // Collect *without* the root: a dies while the static still holds
        // its handle.
        heap.begin_mark_epoch();
        heap.sweep();
        let found = verify_post_collection(&heap, &roots);
        assert_eq!(kinds(&found), vec![MARK_CONSISTENCY]);
        assert!(found[0].detail.contains("reclaimed"));
    }

    #[test]
    fn incremental_variant_tolerates_marked_float_but_not_unmarked_or_stale() {
        let (mut heap, mut roots, cls) = setup();
        let a = heap.alloc(cls, &AllocSpec::leaf(0)).unwrap();
        let float = heap.alloc(cls, &AllocSpec::leaf(0)).unwrap();
        let s = roots.add_static();
        roots.set_static(s, Some(a));

        // An incremental cycle's outcome: the float was reachable at the
        // snapshot, got marked, then lost its last reference before the
        // flush — marked but unreachable.
        heap.begin_mark_epoch();
        trace(&heap, roots.iter(), &TraceAll);
        heap.try_mark(float.slot());
        heap.sweep();
        assert_eq!(
            kinds(&verify_post_collection(&heap, &roots)),
            vec![MARK_CONSISTENCY],
            "the strict check reports the float"
        );
        assert_eq!(
            verify_post_incremental_collection(&heap, &roots),
            Vec::new(),
            "the incremental check accepts marked float"
        );

        // But an unmarked survivor is a bug in both modes...
        heap.begin_mark_epoch();
        assert_eq!(
            kinds(&verify_post_incremental_collection(&heap, &roots)),
            vec![MARK_CONSISTENCY, MARK_CONSISTENCY]
        );
        // ...and so is a root holding a reclaimed handle.
        heap.sweep();
        let found = verify_post_incremental_collection(&heap, &roots);
        assert_eq!(kinds(&found), vec![MARK_CONSISTENCY]);
        assert!(found[0].detail.contains("reclaimed"));
    }
}
