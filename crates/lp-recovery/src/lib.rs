//! Crash recovery for the leak-pruning runtime: checkpoints, request
//! journals, and deterministic replay.
//!
//! Leak pruning (Bond & McKinley, ASPLOS 2009) keeps a leaking program
//! alive; this crate keeps it *recoverable*. A long-lived tenant that has
//! been limping along under pruning for days carries state the program can
//! no longer reconstruct — poisoned references, a deferred out-of-memory
//! error, an edge table full of learned staleness — so a crash or a planned
//! migration must carry that state across, bit for bit.
//!
//! Two artifacts make that possible:
//!
//! 1. A [`Checkpoint`]: one JSONL file bundling the v2 diagnostic heap
//!    snapshot (human- and tool-readable), the authoritative
//!    [`RuntimeImage`](leak_pruning::RuntimeImage) restore lines (exact slot
//!    state, tag bits and poison included, free-list order, pruner FSM,
//!    class registry), a telemetry sequence watermark, and a 64-bit
//!    fingerprint of the image. The file ends in a line-count trailer so a
//!    torn write is detected on read, and [`Checkpoint::write`] goes through
//!    a rename so a crash mid-checkpoint leaves the previous checkpoint
//!    intact. Checkpoints are captured only at quiescent points (no
//!    incremental mark cycle in flight; [`Checkpoint::capture`] closes one
//!    first), and — crucially — *without collecting*: a run that checkpoints
//!    is observationally identical to one that never did.
//! 2. A [`Journal`]: an append-only, write-ahead log of request sequence
//!    numbers, group-committed (appends gather in a bounded buffer that
//!    reaches the file in one write at the owner's commit point) and
//!    fsynced every `n` appends. The checkpoint's `watermark`
//!    records how many journal entries the image reflects; recovery restores
//!    the image and replays the journal suffix past the watermark through
//!    the same deterministic service code, reproducing the pre-crash state
//!    *byte-identically* (fingerprints and all). The journal reader
//!    tolerates exactly one torn final line — what a `kill -9` mid-append
//!    leaves behind — and refuses anything else.
//!
//! The replay contract is the paper's determinism argument turned into an
//! invariant: with a fixed configuration, a runtime's state is a pure
//! function of the request sequence it has served. `lp-server` builds
//! crash recovery and live tenant migration on top of these two files.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod checkpoint;
mod journal;

pub use checkpoint::{Checkpoint, CheckpointError, RestoreError, CHECKPOINT_VERSION};
pub use journal::{
    read_journal, read_journal_from, read_journal_text, Journal, JournalError, JournalRead,
    JOURNAL_VERSION,
};
