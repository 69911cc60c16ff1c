//! Stop-the-world tracing mark-sweep collection over [`lp_heap`].
//!
//! The paper implements leak pruning inside MMTk's parallel stop-the-world
//! generational mark-sweep collector, piggybacking on the collector's
//! transitive closure (§4.5). This crate provides that substrate:
//!
//! * [`trace`] — a transitive closure from a set of roots, parameterized by
//!   an [`EdgeVisitor`] that classifies every object-to-object reference
//!   (trace through it, or skip it) and may rewrite the field word (to set
//!   the unlogged bit, or to poison the reference). Leak pruning's in-use
//!   and stale closures are both instances of this one primitive.
//! * [`par_trace`] — the same closure run by multiple marker threads that
//!   share a pool of work packets, mirroring MMTk's shared-pool parallel
//!   trace. With one thread it is [`trace`] on the calling thread.
//! * [`Collector`] — a mark-sweep driver that runs a closure, sweeps, and
//!   accumulates timing statistics (used to regenerate the paper's GC
//!   overhead figure). One thread count covers its mark and its sweep.
//! * [`collect_minor`] — nursery collections for the generational
//!   configuration, scanning only young objects plus the remembered set.
//! * [`IncrementalMarker`] — the same closure split into bounded quanta
//!   interleaved with mutator work, kept sound by the heap's SATB
//!   (snapshot-at-the-beginning) deleted-reference log and a short final
//!   stop-the-world flush. See [`Collector::begin_incremental`].
//!
//! The three closures share one visitor trait and one mark step (mark,
//! count, [`EdgeVisitor::visit_object`], then scan the fields); each keeps
//! only its own worklist — a stack, per-thread stacks sharing a pool of
//! work packets, or a budgeted grey list.
//!
//! # Example
//!
//! ```
//! use lp_gc::{Collector, TraceAll};
//! use lp_heap::{AllocSpec, ClassRegistry, Heap, RootSet, TaggedRef};
//!
//! let mut classes = ClassRegistry::new();
//! let cls = classes.register("Node");
//! let mut heap = Heap::new(1 << 20);
//! let mut roots = RootSet::new();
//!
//! let live = heap.alloc(cls, &AllocSpec::with_refs(1)).unwrap();
//! let child = heap.alloc(cls, &AllocSpec::default()).unwrap();
//! heap.object(live).store_ref(0, TaggedRef::from_handle(child));
//! let dead = heap.alloc(cls, &AllocSpec::default()).unwrap();
//!
//! let s = roots.add_static();
//! roots.set_static(s, Some(live));
//!
//! let mut collector = Collector::new();
//! let outcome = collector.collect(&mut heap, &roots, &TraceAll);
//! assert_eq!(outcome.swept.freed_objects, 1); // only `dead` is reclaimed
//! assert!(heap.contains(live) && heap.contains(child));
//! assert!(!heap.contains(dead));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod collector;
mod incremental;
mod minor;
mod parallel;
mod stats;
mod tracer;
pub mod verify;

pub use collector::{CollectionKind, CollectionOutcome, Collector};
pub use incremental::{IncrementalMarker, QuantumReport};
pub use minor::collect_minor;
pub use parallel::par_trace;
pub use stats::GcStats;
pub use tracer::{trace, EdgeAction, EdgeVisitor, TraceAll, TraceStats};
pub use verify::{verify_post_collection, verify_post_incremental_collection};
