//! # Leak pruning
//!
//! A Rust reproduction of **"Leak Pruning"** (Michael D. Bond and Kathryn S.
//! McKinley, ASPLOS 2009): keep leaky managed programs running by predicting
//! which reachable-but-dead objects the program will never use again and
//! reclaiming them when the program is about to run out of memory —
//! *poisoning* the references to them so that any later access raises an
//! error carrying the original `OutOfMemoryError` as its cause, which
//! preserves program semantics.
//!
//! The crate provides:
//!
//! * [`Runtime`] — a managed runtime (heap + roots + collector + pruning
//!   engine) that mutator programs allocate on and access through the
//!   paper's conditional read barrier;
//! * the state machine of Figure 2 ([`State`], [`next_state`]);
//! * the staleness/edge-table prediction machinery of §4 ([`EdgeTable`],
//!   [`EdgeKey`]);
//! * the three prediction policies of §6.1 ([`PredictionPolicy`]);
//! * configuration ([`PruningConfig`]) covering the paper's thresholds
//!   (50% expected use, 90% nearly-full, the 100%-full option of §6.3),
//!   barrier modes, forced observation states for overhead experiments, and
//!   finalizer policy;
//! * errors ([`OutOfMemoryError`], [`PrunedAccessError`]) with the paper's
//!   cause-chaining semantics, and end-of-run diagnostics ([`PruneReport`]).
//!
//! # Quick start
//!
//! ```
//! use leak_pruning::{PruningConfig, Runtime, RuntimeError};
//! use lp_heap::AllocSpec;
//!
//! // A 1 MB heap with default leak pruning.
//! let mut rt = Runtime::new(PruningConfig::builder(1 << 20).build());
//! let node_class = rt.register_class("Node");
//! let scratch_class = rt.register_class("Scratch");
//!
//! // Leak: an unbounded linked list hanging off a static. Like any real
//! // program, each unit of work also allocates short-lived scratch data.
//! let head_slot = rt.add_static();
//! let node_spec = AllocSpec::new(1, 0, 1024);
//! loop {
//!     let unit_of_work = rt.alloc(node_class, &node_spec).and_then(|node| {
//!         rt.write_field(node, 0, rt.static_ref(head_slot));
//!         rt.set_static(head_slot, Some(node));
//!         rt.alloc(scratch_class, &AllocSpec::leaf(4096)) // dies at once
//!     });
//!     match unit_of_work {
//!         Ok(_) => {}
//!         Err(RuntimeError::OutOfMemory(_)) => break,
//!         Err(e) => return Err(e),
//!     }
//!     if rt.gc_count() > 40 { break; } // plenty to demonstrate pruning
//! }
//! // Leak pruning reclaimed stale list nodes along the way:
//! assert!(rt.prune_report().total_pruned_refs > 0);
//! # Ok::<(), leak_pruning::RuntimeError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod closures;
mod config;
mod edge_table;
mod engine;
mod error;
mod liveness;
mod record;
pub mod recovery;
mod report;
mod runtime;
mod state;
pub mod verify;

pub use closures::Selection;
pub use config::{BarrierMode, ForcedState, PredictionPolicy, PruningConfig, PruningConfigBuilder};
pub use edge_table::{EdgeEntry, EdgeKey, EdgeTable, DEFAULT_SLOTS};
pub use error::{OutOfMemoryError, PrunedAccessError, RuntimeError};
pub use liveness::{LivenessSummaries, LivenessVerdict, SummaryEntry};
pub use record::{GcRecord, SelectionInfo};
pub use recovery::{
    GcRecordImage, OomImage, PrunerImage, RestoreImageError, RuntimeImage, SelectionImage,
};
pub use report::{PruneReport, PrunedEdge};
pub use runtime::{MutatorCounters, Runtime};
pub use state::{next_state, State, TransitionContext};

#[cfg(test)]
mod par_closures;
