//! Worker-side crash recovery: per-tenant journal, checkpoint and
//! fleet-history plumbing.
//!
//! A recovery-enabled tenant (see
//! [`TenantSpec::recovery_dir`](crate::TenantSpec::recovery_dir)) keeps
//! three files in its recovery directory:
//!
//! - `<name>.journal` — the write-ahead request journal. The worker
//!   appends the request's sequence number *before* handing it to the
//!   service and commits the round's entries to the file in one write at
//!   the round barrier, before its report leaves — so every request whose
//!   effects anyone outside the worker has seen is on file first (and on
//!   disk, modulo the `fsync_every` durability knob).
//! - `<name>.ckpt` — the latest [`Checkpoint`] file, written at a round
//!   barrier (a quiescent point: no request in flight, journal synced)
//!   on `POST /checkpoint` and as the first half of `POST /migrate`.
//! - `<name>.history` — the fleet history: one JSON line every
//!   `history_every` requests carrying the runtime fingerprint at that
//!   request count. Because a tenant's state is a pure function of the
//!   request sequence it has served, the history of a crashed-and-
//!   recovered run is byte-identical to an uninterrupted run of the same
//!   requests — which is exactly what the crash-recovery smoke check
//!   diffs.
//!
//! Recovery at boot restores the checkpoint (if any), reattaches the
//! service by name, reopens the journal (one streaming pass validates it,
//! in memory that does not depend on its length), truncates the history
//! back to the checkpoint's watermark, and replays the journal suffix
//! through the same service code — regenerating the truncated history
//! lines on the way.

use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};

use leak_pruning::{PruningConfig, Runtime};
use lp_recovery::{read_journal, Checkpoint, Journal};
use lp_telemetry::{Event, PauseHistogram, PrometheusSink, TimeSeries};
use lp_workloads::Service;

use crate::tenant::SharedNotes;

/// How a worker builds its runtime — kept for the lifetime of the
/// worker so `POST /migrate` can rebuild an identically-configured
/// runtime from the checkpoint file and re-attach the same shared
/// sinks.
pub(crate) struct RuntimeFactory {
    pub heap_capacity: u64,
    pub byte_budget: u64,
    pub pruning: bool,
    pub incremental_mark: Option<usize>,
    pub postmortem_dir: Option<PathBuf>,
    pub sink: PrometheusSink,
    pub pauses: PauseHistogram,
    pub series: TimeSeries,
    /// The tenant's JSONL trace sink, attached to the *first* runtime
    /// built (before the service registers classes, so the trace stays
    /// self-describing). A file sink cannot be cloned, so a migrated
    /// runtime continues without one; the pre-migration trace flushes
    /// when the old runtime drops.
    pub trace: Option<crate::tenant::TraceSink>,
}

impl RuntimeFactory {
    /// The tenant's pruning configuration, identical on every build.
    pub fn config(&self) -> PruningConfig {
        let mut builder = PruningConfig::builder(self.heap_capacity).pruning(self.pruning);
        if let Some(budget) = self.incremental_mark {
            builder = builder.incremental_mark(budget);
        }
        if let Some(dir) = &self.postmortem_dir {
            builder = builder.postmortem_on(dir.clone());
        }
        builder.build()
    }

    /// A fresh runtime with the tenant's budget and sinks attached.
    pub fn build(&mut self) -> Runtime {
        let mut rt = Runtime::new(self.config());
        self.attach(&mut rt);
        rt
    }

    /// Attaches the tenant's budget and shared sink handles to `rt`,
    /// plus the trace sink if it has not been claimed yet.
    pub fn attach(&mut self, rt: &mut Runtime) {
        rt.set_byte_budget(Some(self.byte_budget));
        rt.telemetry().add_sink(Box::new(self.sink.clone()));
        rt.telemetry().add_sink(Box::new(self.pauses.clone()));
        rt.telemetry().add_sink(Box::new(self.series.clone()));
        if let Some(sink) = self.trace.take() {
            rt.telemetry().add_sink(Box::new(sink));
        }
    }
}

/// The recovery knobs handed to the worker thread.
pub(crate) struct RecoverySpec {
    pub name: String,
    pub dir: PathBuf,
    pub fsync_every: u64,
    pub history_every: u64,
    pub recover: bool,
}

/// Live recovery state owned by the worker thread.
pub(crate) struct Recovery {
    name: String,
    journal: Journal,
    journal_path: PathBuf,
    checkpoint_path: PathBuf,
    history: File,
    history_every: u64,
    /// Where the checkpoint paths are published: the latest one written
    /// and the one the current runtime was restored from.
    notes: SharedNotes,
}

/// A recovery-enabled tenant's boot outcome: the (possibly restored)
/// runtime, the live recovery state, and where the request sequence
/// resumes.
pub(crate) struct Boot {
    pub rt: Runtime,
    pub recovery: Recovery,
    pub request_seq: u64,
    pub replayed: u64,
}

/// Boots a recovery-enabled tenant: restore from the checkpoint if one
/// exists (and `recover` is set), replay the journal suffix, and leave
/// journal + history open for appending.
pub(crate) fn boot(
    spec: &RecoverySpec,
    factory: &mut RuntimeFactory,
    service: &mut Box<dyn Service>,
    notes: SharedNotes,
) -> Result<Boot, String> {
    std::fs::create_dir_all(&spec.dir)
        .map_err(|e| format!("cannot create {}: {e}", spec.dir.display()))?;
    let journal_path = spec.dir.join(format!("{}.journal", spec.name));
    let checkpoint_path = spec.dir.join(format!("{}.ckpt", spec.name));
    let history_path = spec.dir.join(format!("{}.history", spec.name));

    // 1. The runtime: restored from the checkpoint, or fresh.
    let restoring = spec.recover && checkpoint_path.exists();
    let (mut rt, watermark, restored_from) = if restoring {
        let checkpoint = Checkpoint::read(&checkpoint_path)
            .map_err(|e| format!("checkpoint {}: {e}", checkpoint_path.display()))?;
        let mut rt = checkpoint
            .restore(factory.config())
            .map_err(|e| format!("restore {}: {e}", checkpoint_path.display()))?;
        factory.attach(&mut rt);
        emit_restore(&rt, checkpoint.gc_index);
        if !service.reattach(&rt) {
            return Err(format!(
                "checkpoint {} does not contain this service's classes/roots",
                checkpoint_path.display()
            ));
        }
        let path = checkpoint_path.display().to_string();
        (rt, checkpoint.watermark, Some(path))
    } else {
        let mut rt = factory.build();
        service.setup(&mut rt).map_err(|e| format!("setup: {e}"))?;
        rt.release_registers();
        (rt, 0, None)
    };

    // 2. The journal: reopen when recovering — the one pass over the file,
    // which validates it and cuts a torn tail off — and start fresh
    // otherwise.
    let journal = if spec.recover && journal_path.exists() {
        let journal = Journal::reopen(&journal_path)
            .map_err(|e| format!("journal {}: {e}", journal_path.display()))?;
        if journal.last_seq() < watermark {
            return Err(format!(
                "journal {} has {} entries but the checkpoint watermark is {watermark}",
                journal_path.display(),
                journal.last_seq()
            ));
        }
        journal
    } else {
        if watermark > 0 {
            return Err(format!(
                "checkpoint watermark is {watermark} but journal {} is missing",
                journal_path.display()
            ));
        }
        Journal::create(&journal_path, &spec.name)
            .map_err(|e| format!("journal {}: {e}", journal_path.display()))?
    };
    let entries = journal.last_seq();

    // 3. The history: drop everything past the watermark (replay
    // regenerates it), keep everything at or before it.
    let history = truncate_history(&history_path, watermark)?;

    let mut recovery = Recovery {
        name: spec.name.clone(),
        journal,
        journal_path,
        checkpoint_path,
        history,
        history_every: spec.history_every,
        notes,
    };
    recovery.journal.set_fsync_every(spec.fsync_every);

    // 4. Replay the journal suffix through the live service code. Journal
    // entry k (1-based) is request number k-1.
    for seq in watermark..entries {
        service
            .handle(&mut rt, seq)
            .map_err(|e| format!("replay request {seq}: {e}"))?;
        rt.release_registers();
        recovery.note_served(&mut rt, seq + 1)?;
    }

    if restored_from.is_some() {
        recovery.notes.lock().restored_from = restored_from;
    }
    Ok(Boot {
        rt,
        recovery,
        request_seq: entries,
        replayed: entries - watermark,
    })
}

impl Recovery {
    /// Write-ahead step: journals the next request before the service
    /// sees it.
    pub fn note_admitted(&mut self) -> Result<u64, String> {
        self.journal
            .append()
            .map_err(|e| format!("journal append: {e}"))
    }

    /// The round barrier's commit: every entry journalled this round
    /// reaches the file before the worker reports the round.
    pub fn commit(&mut self) -> Result<(), String> {
        self.journal
            .flush()
            .map_err(|e| format!("journal commit: {e}"))
    }

    /// Called after request number `served - 1` completed (`served` =
    /// total requests served): appends a fleet-history line every
    /// `history_every` requests. The line is a pure function of `served`
    /// and the runtime state, which is itself a pure function of the
    /// request sequence — so histories diff clean across crash recovery.
    pub fn note_served(&mut self, rt: &mut Runtime, served: u64) -> Result<(), String> {
        if !served.is_multiple_of(self.history_every) {
            return Ok(());
        }
        let line = format!(
            "{{\"k\":\"hist\",\"tenant\":\"{}\",\"seq\":{served},\"fingerprint\":\"{:016x}\",\"gc\":{},\"used\":{},\"objects\":{}}}\n",
            self.name,
            rt.fingerprint(),
            rt.gc_count(),
            rt.used_bytes(),
            rt.live_objects(),
        );
        // A history line is visible outside the worker, so the journal
        // entries it covers go to the file first.
        self.commit()?;
        self.history
            .write_all(line.as_bytes())
            .and_then(|()| self.history.flush())
            .map_err(|e| format!("history append: {e}"))
    }

    /// Checkpoints the tenant at a quiescent point: syncs the journal
    /// and history first (so the watermark is durable before the state
    /// that depends on it), then captures and atomically writes the
    /// checkpoint file.
    pub fn checkpoint(&mut self, rt: &mut Runtime, request_seq: u64) -> Result<(), String> {
        self.journal
            .sync()
            .map_err(|e| format!("journal sync: {e}"))?;
        self.history
            .sync_all()
            .map_err(|e| format!("history sync: {e}"))?;
        let checkpoint = Checkpoint::capture(rt, request_seq);
        checkpoint
            .write(&self.checkpoint_path)
            .map_err(|e| format!("checkpoint write {}: {e}", self.checkpoint_path.display()))?;
        self.notes.lock().last_checkpoint = Some(self.checkpoint_path.display().to_string());
        Ok(())
    }

    /// Live migration at a round barrier: checkpoint, restore the file
    /// into a fresh runtime, reattach the service, replay any journal
    /// suffix past the watermark, and return the new runtime for the
    /// worker to swap in. At a quiescent barrier the suffix is empty, so
    /// the swap is exact; the replay loop still runs for generality.
    pub fn migrate(
        &mut self,
        rt: &mut Runtime,
        request_seq: u64,
        factory: &mut RuntimeFactory,
        service: &mut Box<dyn Service>,
    ) -> Result<Runtime, String> {
        self.checkpoint(rt, request_seq)?;
        let checkpoint = Checkpoint::read(&self.checkpoint_path)
            .map_err(|e| format!("checkpoint {}: {e}", self.checkpoint_path.display()))?;
        let mut fresh = checkpoint
            .restore(factory.config())
            .map_err(|e| format!("restore {}: {e}", self.checkpoint_path.display()))?;
        factory.attach(&mut fresh);
        emit_restore(&fresh, checkpoint.gc_index);
        if !service.reattach(&fresh) {
            return Err("restored runtime does not contain this service's classes/roots".into());
        }
        let read = read_journal(&self.journal_path)
            .map_err(|e| format!("journal {}: {e}", self.journal_path.display()))?;
        for seq in checkpoint.watermark..read.entries {
            service
                .handle(&mut fresh, seq)
                .map_err(|e| format!("replay request {seq}: {e}"))?;
            fresh.release_registers();
        }
        self.notes.lock().restored_from = Some(self.checkpoint_path.display().to_string());
        Ok(fresh)
    }
}

/// Emits the restore span and event on the (sink-attached) runtime's
/// own bus, so a restore is visible in the tenant's trace exactly like
/// a checkpoint is.
fn emit_restore(rt: &Runtime, gc_index: u64) {
    let objects = rt.live_objects();
    let bytes = rt.used_bytes();
    let telemetry = rt.telemetry();
    let span = telemetry.span("restore", gc_index);
    telemetry.emit(|| Event::Restore {
        gc_index,
        objects,
        bytes,
    });
    drop(span);
}

/// Rewrites the history file keeping only lines with `seq <=
/// watermark`, then returns an append handle. Missing file = empty
/// history.
fn truncate_history(path: &Path, watermark: u64) -> Result<File, String> {
    let kept = match std::fs::read_to_string(path) {
        Ok(text) => text
            .lines()
            .filter(|line| history_seq(line).is_some_and(|seq| seq <= watermark))
            .fold(String::new(), |mut out, line| {
                out.push_str(line);
                out.push('\n');
                out
            }),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => String::new(),
        Err(e) => return Err(format!("history {}: {e}", path.display())),
    };
    std::fs::write(path, kept).map_err(|e| format!("history {}: {e}", path.display()))?;
    OpenOptions::new()
        .append(true)
        .open(path)
        .map_err(|e| format!("history {}: {e}", path.display()))
}

/// The `seq` field of one history line, if it parses as one.
fn history_seq(line: &str) -> Option<u64> {
    let value = lp_telemetry::json::parse(line).ok()?;
    if value.get("k")?.as_str()? != "hist" {
        return None;
    }
    value.get("seq")?.as_u64()
}

#[cfg(test)]
mod tests {
    use super::*;
    use lp_workloads::LeakyService;

    /// A heap small enough that the leaky service exhausts it and is
    /// pruned within a few hundred requests.
    const HEAP: u64 = 64 * 1024;
    const ROUND: u64 = 64;

    fn factory() -> RuntimeFactory {
        RuntimeFactory {
            heap_capacity: HEAP,
            byte_budget: HEAP,
            pruning: true,
            incremental_mark: None,
            postmortem_dir: None,
            sink: PrometheusSink::new(),
            pauses: PauseHistogram::new(),
            series: TimeSeries::new(std::time::Duration::from_millis(25), 16),
            trace: None,
        }
    }

    fn tempdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("lp-server-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// Recovery as the benchmark fleet configures it: the journal is never
    /// forced to disk, so only commit points move it to the file.
    fn spec(dir: &Path, history_every: u64, recover: bool) -> RecoverySpec {
        RecoverySpec {
            name: "t".into(),
            dir: dir.to_owned(),
            fsync_every: 1 << 30,
            history_every,
            recover,
        }
    }

    fn boot_leaky(spec: &RecoverySpec) -> (Boot, Box<dyn Service>) {
        let mut service: Box<dyn Service> = Box::new(LeakyService::new());
        let boot = boot(spec, &mut factory(), &mut service, SharedNotes::default()).expect("boot");
        (boot, service)
    }

    /// What the worker does for requests `boot.request_seq..until`, without
    /// the round barrier's commit.
    fn serve(boot: &mut Boot, service: &mut Box<dyn Service>, until: u64) {
        while boot.request_seq < until {
            boot.recovery.note_admitted().expect("journal");
            service
                .handle(&mut boot.rt, boot.request_seq)
                .expect("request");
            boot.request_seq += 1;
            boot.rt.release_registers();
            boot.recovery
                .note_served(&mut boot.rt, boot.request_seq)
                .expect("history");
        }
    }

    fn serve_rounds(boot: &mut Boot, service: &mut Box<dyn Service>, rounds: u64) {
        for _ in 0..rounds {
            serve(boot, service, boot.request_seq + ROUND);
            boot.recovery.commit().expect("commit");
        }
    }

    /// The fingerprint of an uninterrupted run of `requests` requests.
    fn reference_fingerprint(requests: u64) -> u64 {
        let mut service = LeakyService::new();
        let mut rt = factory().build();
        service.setup(&mut rt).expect("setup");
        rt.release_registers();
        for seq in 0..requests {
            service.handle(&mut rt, seq).expect("request");
            rt.release_registers();
        }
        rt.fingerprint()
    }

    fn history_walk(rt: &Runtime) -> (u64, u64) {
        rt.history()
            .iter()
            .filter(|record| record.pruned_refs > 0)
            .fold((0, 0), |(events, refs), record| {
                (events + 1, refs + record.pruned_refs)
            })
    }

    /// kill -9: the process image goes away without running destructors,
    /// so the journal's buffer never reaches the file.
    fn kill(boot: Boot) {
        std::mem::forget(boot.recovery);
    }

    #[test]
    fn a_kill_mid_round_recovers_to_the_last_barrier() {
        let dir = tempdir("kill-mid-round");
        let (mut first, mut service) = boot_leaky(&spec(&dir, 1 << 30, false));
        serve_rounds(&mut first, &mut service, 1);
        first
            .recovery
            .checkpoint(&mut first.rt, first.request_seq)
            .expect("checkpoint");
        serve_rounds(&mut first, &mut service, 2);
        // Thirty requests into round four, nothing of it committed.
        serve(&mut first, &mut service, 3 * ROUND + 30);
        kill(first);

        let (mut again, _service) = boot_leaky(&spec(&dir, 1 << 30, true));
        assert_eq!(
            again.request_seq,
            3 * ROUND,
            "a prefix: the committed rounds"
        );
        assert_eq!(again.replayed, 2 * ROUND);
        assert_eq!(again.rt.verify_heap(), Vec::new());
        assert_eq!(again.rt.fingerprint(), reference_fingerprint(3 * ROUND));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_kill_at_a_barrier_replays_exactly_what_was_served_since_the_checkpoint() {
        let dir = tempdir("kill-at-barrier");
        let (mut first, mut service) = boot_leaky(&spec(&dir, 1 << 30, false));
        serve_rounds(&mut first, &mut service, 2);
        let watermark = first.request_seq;
        first
            .recovery
            .checkpoint(&mut first.rt, watermark)
            .expect("checkpoint");
        serve_rounds(&mut first, &mut service, 5);
        let processed_at_kill = first.request_seq;
        kill(first);

        let (mut again, _service) = boot_leaky(&spec(&dir, 1 << 30, true));
        assert_eq!(again.replayed, processed_at_kill - watermark);
        assert_eq!(again.request_seq, processed_at_kill);
        assert_eq!(again.rt.verify_heap(), Vec::new());
        assert_eq!(
            again.rt.fingerprint(),
            reference_fingerprint(processed_at_kill)
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_history_line_is_never_on_file_before_the_entries_it_covers() {
        let dir = tempdir("history-order");
        let (mut boot, mut service) = boot_leaky(&spec(&dir, 8, false));
        let journal_path = dir.join("t.journal");
        let history_path = dir.join("t.history");
        for served in 1..=20 {
            // No barrier anywhere: only the history line's own commit can
            // have moved the journal.
            serve(&mut boot, &mut service, served);
            let history = std::fs::read_to_string(&history_path).expect("history");
            let covered = history.lines().last().and_then(history_seq).unwrap_or(0);
            let on_file = read_journal(&journal_path).expect("journal").entries;
            assert_eq!(covered, served / 8 * 8);
            assert!(
                on_file >= covered,
                "history covers {covered} requests, the journal holds {on_file}"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn prune_totals_equal_the_history_walk_after_recovery_and_migration() {
        let dir = tempdir("prune-totals");
        let (mut first, mut service) = boot_leaky(&spec(&dir, 1 << 30, false));
        serve_rounds(&mut first, &mut service, 8);
        first
            .recovery
            .checkpoint(&mut first.rt, first.request_seq)
            .expect("checkpoint");
        serve_rounds(&mut first, &mut service, 8);
        let totals = first.rt.prune_totals();
        assert!(totals.0 > 0, "the leak was never pruned");
        assert_eq!(totals, history_walk(&first.rt));
        let served = first.request_seq;
        kill(first);

        // Boot recovery: totals rebuilt from the checkpoint's history, then
        // kept by the replayed collections.
        let (mut again, mut service) = boot_leaky(&spec(&dir, 1 << 30, true));
        assert_eq!(again.request_seq, served);
        assert_eq!(again.rt.prune_totals(), totals);
        assert_eq!(again.rt.prune_totals(), history_walk(&again.rt));

        // Migration: a fresh runtime restored at the barrier.
        let migrated = again
            .recovery
            .migrate(&mut again.rt, served, &mut factory(), &mut service)
            .expect("migrate");
        assert_eq!(migrated.prune_totals(), totals);
        assert_eq!(migrated.prune_totals(), history_walk(&migrated));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
