//! Tenant worker threads.
//!
//! Each tenant runs on its own thread, owning a private
//! [`leak_pruning::Runtime`] and the [`Service`] that does its
//! per-request heap work. The host drives workers in lockstep: it sends
//! one [`Command`] per phase and waits for the matching [`Report`], so
//! rounds are a barrier and the whole fleet is deterministic even though
//! the tenants are real threads.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use leak_pruning::Runtime;
use lp_diagnose::PostmortemContext;
use lp_telemetry::json::JsonValue;
use lp_telemetry::{JsonlSink, PauseHistogram, PrometheusSink, TimeSeries};
use lp_workloads::Service;

use crate::admission::TenantCounters;
use crate::config::TenantSpec;
use crate::recovery::{self, Recovery, RecoverySpec, RuntimeFactory};

/// The tenant trace sink's concrete type (a buffered JSONL file).
pub(crate) type TraceSink = JsonlSink<std::io::BufWriter<std::fs::File>>;

/// Heap-trend bucket width for each tenant's [`TimeSeries`]. Small
/// enough that a short deterministic run spreads across several buckets,
/// so the leak-trend detector has windows to compare.
const TREND_INTERVAL: Duration = Duration::from_millis(25);

/// Buckets retained per tenant (10 seconds of history at
/// [`TREND_INTERVAL`]).
const TREND_CAPACITY: usize = 400;

/// A host-to-worker command. Every command is answered with exactly one
/// [`Report`], which is what makes the round loop a barrier.
pub(crate) enum Command {
    /// Serve up to `max_requests` queued requests.
    Round {
        /// Cap on requests drained from the admission queue.
        max_requests: u64,
    },
    /// Run one full collection (arbiter high-water relief).
    ForceCollect,
    /// Reclaim down to `target_bytes`, escalating to pruning.
    Reclaim {
        /// Live-byte target for [`Runtime::reclaim_to`].
        target_bytes: u64,
    },
    /// Write a postmortem bundle now (operator request, quarantine, or
    /// leak suspicion). The worker stamps in its own heap-trend window;
    /// `context` carries the host's view (round, aggregate bytes).
    Postmortem {
        /// Trigger label recorded in the bundle header.
        trigger: String,
        /// Host-plane context stamped into the bundle, if any.
        context: Option<JsonValue>,
    },
    /// Checkpoint the tenant now (round barrier = quiescent point).
    /// No-op for tenants without a recovery directory.
    Checkpoint,
    /// Live-migrate the tenant: checkpoint, restore the file into a
    /// fresh runtime, replay any journal suffix, swap. No-op for
    /// tenants without a recovery directory.
    Migrate,
    /// Exit the worker loop after a final report.
    Shutdown,
}

/// A worker-to-host report: the tenant's state after one command. Plain
/// numbers, so sending one every round allocates nothing; the strings a
/// tenant produces live in its [`Notes`].
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct Report {
    /// Requests handled while executing this command.
    pub processed: u64,
    /// Live bytes in the tenant heap.
    pub used_bytes: u64,
    /// Cumulative collections so far.
    pub gc_count: u64,
    /// Cumulative collections that pruned at least one reference.
    pub prune_events: u64,
    /// Cumulative references pruned.
    pub pruned_refs: u64,
    /// Whether the service failed fatally (tenant is then done); the
    /// reason is in [`Notes::failed`].
    pub failed: bool,
    /// Cumulative postmortem bundles written (automatic exhaustion
    /// bundles included, not just host-commanded ones).
    pub postmortem_count: u64,
    /// Requests replayed from the journal during boot recovery.
    pub replayed: u64,
}

/// The strings a tenant's life produces. Each changes a handful of times,
/// so the worker writes it here when it does — at a command boundary,
/// before the command's report — instead of cloning it into every round's
/// [`Report`]; the ops plane reads them on request.
#[derive(Debug, Default)]
pub(crate) struct Notes {
    /// Why the tenant failed, once it has.
    pub failed: Option<String>,
    /// Path of the most recent postmortem bundle, if any.
    pub postmortem_path: Option<String>,
    /// Path of the most recent checkpoint written by the worker.
    pub last_checkpoint: Option<String>,
    /// Checkpoint the current runtime was restored from (boot recovery or
    /// migration), if any.
    pub restored_from: Option<String>,
}

/// A tenant's [`Notes`], shared between its worker, the host and the ops
/// plane.
#[derive(Clone, Debug, Default)]
pub(crate) struct SharedNotes(Arc<Mutex<Notes>>);

impl SharedNotes {
    /// Every update leaves the notes valid, so a poisoned lock is usable.
    pub fn lock(&self) -> MutexGuard<'_, Notes> {
        match self.0.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }
}

/// Host-side handle to one worker thread plus its shared state.
pub(crate) struct TenantWorker {
    /// Tenant name (from the spec).
    pub name: String,
    /// Registered byte budget.
    pub byte_budget: u64,
    /// Requests served per round.
    pub service_rate: u64,
    /// Mean arrivals per round for the built-in load generator.
    pub arrival_rate: u64,
    /// Offered-load cap, if the schedule is finite.
    pub total_requests: Option<u64>,
    /// Requests offered by the built-in generator so far.
    pub offered: u64,
    /// The admission queue and its live counters (shared with the worker
    /// and the ops plane).
    pub counters: Arc<TenantCounters>,
    /// This tenant's metrics sink (shared with the ops plane).
    pub sink: PrometheusSink,
    /// Mutator-pause histogram fed by the worker's bus (shared with the
    /// ops plane for the `lp_pause_nanos` quantile family).
    pub pauses: PauseHistogram,
    /// Per-request service-time histogram, recorded directly by the
    /// worker (shared with the ops plane for `lp_server_request_nanos`).
    pub requests: PauseHistogram,
    /// Heap-trend time series fed by the worker's bus (shared with the
    /// ops plane's `/timeseries` route and the host's leak-trend poll).
    pub series: TimeSeries,
    /// Whether the host currently considers this tenant's heap trend a
    /// leak suspicion (hysteresis so `LeakSuspected` fires on the rising
    /// edge, not every round).
    pub leak_flagged: bool,
    /// Live bytes as of the last report (shared with the ops plane).
    pub used_bytes: Arc<AtomicU64>,
    /// Quarantine flag, owned by the host's arbiter.
    pub quarantined: bool,
    /// Set once the schedule is exhausted and the backlog drained.
    pub finished: bool,
    /// Set when the service returned a fatal error or the worker was lost.
    pub failed: bool,
    /// The tenant's failure reason and file paths (shared with the worker
    /// and the ops plane).
    pub notes: SharedNotes,
    /// Latest cumulative stats from the worker.
    pub last_report: Report,
    commands: SyncSender<Command>,
    reports: Receiver<Report>,
    thread: Option<JoinHandle<()>>,
}

impl TenantWorker {
    /// Spawns the worker thread for `spec`. The runtime is constructed
    /// on the worker thread; the host keeps only channels and shared
    /// counters.
    pub fn spawn(spec: TenantSpec) -> std::io::Result<TenantWorker> {
        let TenantSpec {
            name,
            heap_capacity,
            byte_budget,
            queue_capacity,
            service_rate,
            arrival_rate,
            total_requests,
            pruning,
            incremental_mark,
            trace_path,
            postmortem_dir,
            recovery_dir,
            fsync_every,
            history_every,
            recover,
            service,
        } = spec;
        // Created on the host thread so a bad path fails `spawn` loudly
        // instead of silently producing an untraced worker.
        let trace_sink = trace_path
            .map(|path| JsonlSink::create(&path))
            .transpose()?;
        let (command_tx, command_rx) = sync_channel::<Command>(1);
        let (report_tx, report_rx) = sync_channel::<Report>(1);
        let counters = Arc::new(TenantCounters::new(queue_capacity));
        let notes = SharedNotes::default();
        let sink = PrometheusSink::new();
        let pauses = PauseHistogram::new();
        let requests = PauseHistogram::new();
        let series = TimeSeries::new(TREND_INTERVAL, TREND_CAPACITY);
        let used_bytes = Arc::new(AtomicU64::new(0));

        let worker_counters = Arc::clone(&counters);
        let worker_notes = notes.clone();
        let worker_sink = sink.clone();
        let worker_pauses = pauses.clone();
        let worker_requests = requests.clone();
        let worker_series = series.clone();
        // A second handle to the same series, read (not fed) by the
        // worker when it stamps the heap-trend window into a bundle.
        let window_series = series.clone();
        let worker_used = Arc::clone(&used_bytes);
        let recovery_spec = recovery_dir.map(|dir| RecoverySpec {
            name: name.clone(),
            dir,
            fsync_every,
            history_every,
            recover,
        });
        let thread = std::thread::Builder::new()
            .name(format!("tenant-{name}"))
            .spawn(move || {
                // The factory outlives any single runtime: boot recovery
                // and `Command::Migrate` rebuild an identically-configured
                // runtime and re-attach the same shared sink handles.
                let factory = RuntimeFactory {
                    heap_capacity,
                    byte_budget,
                    pruning,
                    incremental_mark,
                    postmortem_dir,
                    sink: worker_sink,
                    pauses: worker_pauses,
                    series: worker_series,
                    trace: trace_sink,
                };
                worker_main(
                    factory,
                    recovery_spec,
                    service,
                    command_rx,
                    report_tx,
                    worker_counters,
                    worker_notes,
                    worker_requests,
                    window_series,
                    worker_used,
                );
            })?;

        Ok(TenantWorker {
            name,
            byte_budget,
            service_rate,
            arrival_rate,
            total_requests,
            offered: 0,
            counters,
            sink,
            pauses,
            requests,
            series,
            leak_flagged: false,
            used_bytes,
            quarantined: false,
            finished: false,
            failed: false,
            notes,
            last_report: Report::default(),
            commands: command_tx,
            reports: report_rx,
            thread: None,
        }
        .with_thread(thread))
    }

    fn with_thread(mut self, thread: JoinHandle<()>) -> TenantWorker {
        self.thread = Some(thread);
        self
    }

    /// Sends `command` to the worker. Returns `false` if the worker is
    /// gone (channel disconnected).
    pub fn send(&self, command: Command) -> bool {
        self.commands.send(command).is_ok()
    }

    /// Waits for the worker's report to the last command and folds it
    /// into the host-visible state. Returns the report, or `None` if the
    /// worker is gone.
    pub fn wait(&mut self) -> Option<Report> {
        let report = self.reports.recv().ok()?;
        self.failed |= report.failed;
        self.last_report = report;
        Some(report)
    }

    /// Marks the tenant failed because its worker thread is gone.
    pub fn note_lost(&mut self) {
        if !self.failed {
            self.failed = true;
            self.notes
                .lock()
                .failed
                .get_or_insert_with(|| "worker thread lost".into());
        }
    }

    /// Whether this tenant still participates in rounds.
    pub fn active(&self) -> bool {
        !self.finished && !self.failed
    }

    /// Marks the tenant finished once its (finite) schedule has been
    /// fully offered and the queue has drained.
    pub fn update_finished(&mut self) {
        if let Some(total) = self.total_requests {
            if self.offered >= total && self.counters.queue_depth() == 0 {
                self.finished = true;
            }
        }
    }

    /// Shuts the worker down and joins the thread.
    pub fn join(&mut self) {
        if self.thread.is_some() {
            if self.send(Command::Shutdown) {
                let _ = self.reports.recv();
            }
            if let Some(thread) = self.thread.take() {
                let _ = thread.join();
            }
        }
    }
}

impl Drop for TenantWorker {
    fn drop(&mut self) {
        self.join();
    }
}

fn report_of(rt: &Runtime, processed: u64, failed: bool, replayed: u64) -> Report {
    let (prune_events, pruned_refs) = rt.prune_totals();
    Report {
        processed,
        used_bytes: rt.used_bytes(),
        gc_count: rt.gc_count(),
        prune_events,
        pruned_refs,
        failed,
        postmortem_count: rt.postmortem_count(),
        replayed,
    }
}

/// The tenant's heap-trend window as JSON, for the `timeseries` section
/// of a postmortem bundle (same bucket shape as `GET /timeseries`).
fn series_window_json(series: &TimeSeries) -> JsonValue {
    let buckets: Vec<JsonValue> = series
        .snapshot()
        .into_iter()
        .map(|b| {
            JsonValue::Obj(vec![
                ("window".into(), JsonValue::from_u64(b.window)),
                ("live_bytes".into(), JsonValue::from_u64(b.live_bytes)),
                ("live_objects".into(), JsonValue::from_u64(b.live_objects)),
                (
                    "edge_table_bytes".into(),
                    JsonValue::from_u64(b.edge_table_bytes),
                ),
                ("collections".into(), JsonValue::from_u64(b.collections)),
                ("pruned_refs".into(), JsonValue::from_u64(b.pruned_refs)),
                ("sheds".into(), JsonValue::from_u64(b.sheds)),
            ])
        })
        .collect();
    JsonValue::Obj(vec![
        (
            "interval_nanos".into(),
            JsonValue::from_u64(u64::try_from(series.interval().as_nanos()).unwrap_or(u64::MAX)),
        ),
        ("buckets".into(), JsonValue::Arr(buckets)),
    ])
}

/// Records the tenant's first fatal error; later ones are consequences.
fn fail(failed: &mut bool, notes: &SharedNotes, message: String) {
    if !*failed {
        *failed = true;
        notes.lock().failed = Some(message);
    }
}

#[allow(clippy::too_many_arguments)]
fn worker_main(
    mut factory: RuntimeFactory,
    recovery_spec: Option<RecoverySpec>,
    mut service: Box<dyn Service>,
    commands: Receiver<Command>,
    reports: SyncSender<Report>,
    counters: Arc<TenantCounters>,
    notes: SharedNotes,
    request_times: PauseHistogram,
    series: TimeSeries,
    used_bytes: Arc<AtomicU64>,
) {
    let mut failed = false;
    let mut recovery: Option<Recovery> = None;
    let mut request_seq: u64 = 0;
    let mut replayed: u64 = 0;
    let mut rt = match &recovery_spec {
        // Recovery-enabled boot: restore from the checkpoint (if asked
        // and present), reattach the service, replay the journal suffix.
        Some(spec) => match recovery::boot(spec, &mut factory, &mut service, notes.clone()) {
            Ok(boot) => {
                recovery = Some(boot.recovery);
                request_seq = boot.request_seq;
                replayed = boot.replayed;
                boot.rt
            }
            Err(message) => {
                fail(&mut failed, &notes, format!("recovery: {message}"));
                factory.build()
            }
        },
        None => {
            let mut rt = factory.build();
            if let Err(error) = service.setup(&mut rt) {
                fail(&mut failed, &notes, format!("setup: {error}"));
            }
            rt.release_registers();
            rt
        }
    };
    // This round's request service times, merged into the shared
    // histogram under one lock at the barrier.
    let mut round_times: Vec<u64> = Vec::new();
    let mut noted_postmortems = 0;

    while let Ok(command) = commands.recv() {
        let mut processed = 0;
        match command {
            Command::Round { max_requests } => {
                // The round's share of the queue is fixed when the round
                // starts; a request injected while it runs waits for the
                // next one.
                let share = if failed {
                    0
                } else {
                    counters.waiting().min(max_requests)
                };
                let mut taken = 0;
                while !failed && taken < share {
                    taken += 1;
                    // Write-ahead: the request's sequence number is in
                    // the journal before the service can touch the heap,
                    // and the journal is on file before this round's
                    // report leaves — so replay after a crash covers
                    // every request anyone outside has seen the effects
                    // of.
                    if let Some(rec) = recovery.as_mut() {
                        if let Err(message) = rec.note_admitted() {
                            fail(&mut failed, &notes, message);
                            break;
                        }
                    }
                    // The span goes out on the *worker* bus, so any GC,
                    // prune or cycle spans the request provokes nest
                    // under it — a prune storm is traceable to the
                    // request that triggered exhaustion.
                    let span = rt.telemetry().span("request", request_seq);
                    let started = Instant::now();
                    let outcome = service.handle(&mut rt, request_seq);
                    round_times
                        .push(u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX));
                    drop(span);
                    match outcome {
                        Ok(()) => {
                            request_seq += 1;
                            processed += 1;
                            // An idle register file before the history
                            // fingerprint, so the recorded state is the
                            // same pure function of `request_seq` that
                            // replay recomputes.
                            rt.release_registers();
                            if let Some(rec) = recovery.as_mut() {
                                if let Err(message) = rec.note_served(&mut rt, request_seq) {
                                    fail(&mut failed, &notes, message);
                                }
                            }
                        }
                        Err(error) => {
                            fail(
                                &mut failed,
                                &notes,
                                format!("request {request_seq}: {error}"),
                            );
                            rt.release_registers();
                        }
                    }
                }
                // Marking progresses even when the queue is empty: a few
                // quanta per round keep an in-flight incremental cycle
                // moving toward its flush for idle tenants too. No-op
                // unless the spec enabled incremental marking.
                rt.step_incremental(4);
                // The barrier: the round's journal entries reach the file
                // first, then its effects become visible — the counters
                // and times here, the report below.
                if let Some(rec) = recovery.as_mut() {
                    if let Err(message) = rec.commit() {
                        fail(&mut failed, &notes, message);
                    }
                }
                request_times.record_all(&round_times);
                round_times.clear();
                counters.note_round(taken, processed);
            }
            Command::ForceCollect => {
                rt.force_gc();
            }
            Command::Reclaim { target_bytes } => {
                rt.reclaim_to(target_bytes);
            }
            Command::Postmortem { trigger, context } => {
                let ctx = PostmortemContext {
                    timeseries: Some(series_window_json(&series)),
                    arbiter: context,
                };
                rt.write_postmortem_with(&trigger, &ctx);
            }
            Command::Checkpoint => {
                if let Some(rec) = recovery.as_mut() {
                    if let Err(message) = rec.checkpoint(&mut rt, request_seq) {
                        fail(&mut failed, &notes, format!("checkpoint: {message}"));
                    }
                }
            }
            Command::Migrate => {
                if let Some(rec) = recovery.as_mut() {
                    match rec.migrate(&mut rt, request_seq, &mut factory, &mut service) {
                        Ok(fresh) => rt = fresh,
                        Err(message) => {
                            fail(&mut failed, &notes, format!("migrate: {message}"));
                        }
                    }
                }
            }
            Command::Shutdown => {
                let report = report_of(&rt, 0, failed, replayed);
                used_bytes.store(report.used_bytes, Ordering::Relaxed);
                let _ = reports.send(report);
                break;
            }
        }
        // Automatic bundles (exhaustion) land mid-request, commanded ones
        // above; either way the path is noted before the report. A
        // migrated runtime starts without one and keeps the last known.
        if rt.postmortem_count() != noted_postmortems {
            noted_postmortems = rt.postmortem_count();
            if let Some(path) = rt.postmortem_latest() {
                notes.lock().postmortem_path = Some(path.display().to_string());
            }
        }
        let report = report_of(&rt, processed, failed, replayed);
        used_bytes.store(report.used_bytes, Ordering::Relaxed);
        if reports.send(report).is_err() {
            break;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lp_workloads::{HealthyService, LeakyService};

    fn spec(service: Box<dyn Service>) -> TenantSpec {
        TenantSpec::new("t", service).queue_capacity(128)
    }

    #[test]
    fn a_round_drains_at_most_the_service_rate() {
        let mut worker = TenantWorker::spawn(spec(Box::new(HealthyService::new()))).unwrap();
        assert_eq!(worker.counters.offer(10, false).admitted, 10);
        assert!(worker.send(Command::Round { max_requests: 4 }));
        let report = worker.wait().unwrap();
        assert_eq!(report.processed, 4);
        assert_eq!(worker.counters.processed(), 4);
        assert_eq!(worker.counters.queue_depth(), 6);
        worker.join();
    }

    #[test]
    fn force_collect_reports_post_collection_usage() {
        let mut worker = TenantWorker::spawn(spec(Box::new(LeakyService::new()))).unwrap();
        worker.counters.offer(64, false);
        worker.send(Command::Round { max_requests: 64 });
        let busy = worker.wait().unwrap();
        worker.send(Command::ForceCollect);
        let collected = worker.wait().unwrap();
        assert!(collected.gc_count > busy.gc_count);
        assert_eq!(collected.processed, 0);
        worker.join();
    }

    #[test]
    fn incremental_tenant_serves_a_leak_without_failing() {
        let mut worker =
            TenantWorker::spawn(spec(Box::new(LeakyService::new())).incremental_mark(256)).unwrap();
        let mut processed = 0;
        for _ in 0..40 {
            worker.counters.offer(64, false);
            worker.send(Command::Round { max_requests: 64 });
            processed += worker.wait().unwrap().processed;
        }
        let report = &worker.last_report;
        assert!(!report.failed, "{:?}", worker.notes.lock());
        assert!(processed > 0);
        assert!(report.gc_count > 0, "collections ran incrementally");
        worker.join();
    }

    #[test]
    fn checkpoint_then_recover_replays_to_identical_history() {
        let dir = std::env::temp_dir().join(format!("lp-server-recovery-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("tempdir");
        let spec_for = |recover: bool| {
            TenantSpec::new("t", Box::new(LeakyService::new()))
                .queue_capacity(256)
                .recovery_dir(dir.clone())
                .history_every(16)
                .recover(recover)
        };

        let mut worker = TenantWorker::spawn(spec_for(false)).unwrap();
        let serve_rounds = |worker: &mut TenantWorker, rounds: usize| {
            for _ in 0..rounds {
                worker.counters.offer(64, false);
                worker.send(Command::Round { max_requests: 64 });
                worker.wait().unwrap();
            }
        };
        serve_rounds(&mut worker, 3);
        worker.send(Command::Checkpoint);
        let report = worker.wait().unwrap();
        assert!(!report.failed, "{:?}", worker.notes.lock());
        let checkpoint = worker
            .notes
            .lock()
            .last_checkpoint
            .clone()
            .expect("checkpoint path");
        assert!(std::path::Path::new(&checkpoint).exists());
        serve_rounds(&mut worker, 3);
        worker.join();
        let before = std::fs::read_to_string(dir.join("t.history")).expect("history");
        assert!(!before.is_empty());

        // "Crash" recovery: a fresh worker restores the checkpoint,
        // replays the 192-request journal suffix through a fresh
        // service, and regenerates byte-identical history.
        let mut worker = TenantWorker::spawn(spec_for(true)).unwrap();
        worker.send(Command::ForceCollect);
        let report = worker.wait().unwrap();
        assert!(!report.failed, "{:?}", worker.notes.lock());
        assert_eq!(report.replayed, 192);
        assert_eq!(
            worker.notes.lock().restored_from.as_deref(),
            Some(checkpoint.as_str())
        );
        worker.join();
        let after = std::fs::read_to_string(dir.join("t.history")).expect("history");
        assert_eq!(before, after);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn migrate_swaps_in_a_restored_runtime_without_losing_state() {
        let dir = std::env::temp_dir().join(format!("lp-server-migrate-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("tempdir");
        let spec = TenantSpec::new("t", Box::new(LeakyService::new()))
            .queue_capacity(256)
            .recovery_dir(dir.clone())
            .history_every(16);

        let mut worker = TenantWorker::spawn(spec).unwrap();
        for _ in 0..3 {
            worker.counters.offer(64, false);
            worker.send(Command::Round { max_requests: 64 });
            worker.wait().unwrap();
        }
        let used_before = worker.last_report.used_bytes;
        worker.send(Command::Migrate);
        let report = worker.wait().unwrap();
        assert!(!report.failed, "{:?}", worker.notes.lock());
        assert!(
            worker.notes.lock().restored_from.is_some(),
            "migration never ran"
        );
        assert_eq!(report.used_bytes, used_before);
        // The migrated runtime keeps serving.
        worker.counters.offer(64, false);
        worker.send(Command::Round { max_requests: 64 });
        let report = worker.wait().unwrap();
        assert!(!report.failed, "{:?}", worker.notes.lock());
        assert_eq!(report.processed, 64);
        worker.join();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn reclaim_command_prunes_a_leaky_tenant() {
        let mut worker = TenantWorker::spawn(spec(Box::new(LeakyService::new()))).unwrap();
        // Push enough leaked sessions that the heap cannot fit the
        // target without pruning.
        for _ in 0..4 {
            worker.counters.offer(128, false);
            worker.send(Command::Round { max_requests: 128 });
            worker.wait().unwrap();
        }
        worker.send(Command::Reclaim {
            target_bytes: 8 * 1024,
        });
        let report = worker.wait().unwrap();
        assert!(report.pruned_refs > 0, "reclaim never pruned: {report:?}");
        assert!(report.used_bytes <= 8 * 1024, "missed target: {report:?}");
        worker.join();
    }
}
