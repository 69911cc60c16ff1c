//! The multi-tenant host: lockstep round loop over tenant workers.
//!
//! A round has four phases, each deterministic given the seed:
//!
//! 1. **Admission** — the open-loop generator offers each tenant its
//!    arrivals for the round in one step; arrivals are admitted to the
//!    bounded queue or shed (emitting `TenantAdmit` / `TenantShed`
//!    events).
//! 2. **Service** — every worker is told to serve up to its service
//!    rate (zero while quarantined); the host waits for every report,
//!    making the round a barrier.
//! 3. **Arbitration** — the global arbiter inspects the fleet and
//!    forces collections, pruning, quarantines or resumes (emitting
//!    `ArbiterAction` events).
//! 4. **Publication** — aggregate and per-tenant state is stored into
//!    the shared ops snapshot for `/metrics` and `/tenants`.

use std::fmt;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use lp_telemetry::json::JsonValue;
use lp_telemetry::{Event, Telemetry};

use crate::admission::Offered;
use crate::arbiter::{Arbiter, ArbiterPolicy, TenantControl, TenantView};
use crate::config::{HostConfig, TenantSpec};
use crate::loadgen;
use crate::ops::{OpsServer, OpsState, TenantOps, TenantState};
use crate::tenant::{Command, TenantWorker};

/// Consecutive heap-trend buckets that must grow monotonically before the
/// host emits a [`Event::LeakSuspected`] for a tenant.
const TREND_WINDOWS: usize = 4;

/// Why a host could not be constructed.
#[derive(Debug)]
pub enum HostError {
    /// No tenants were supplied.
    NoTenants,
    /// The tenants' byte budgets add up to more than the host limit.
    BudgetOverCommitted {
        /// Sum of the registered tenant budgets.
        budgeted: u64,
        /// The configured host limit.
        host_limit: u64,
    },
    /// Spawning a worker or binding the ops listener failed.
    Io(std::io::Error),
}

impl fmt::Display for HostError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HostError::NoTenants => write!(f, "a host needs at least one tenant"),
            HostError::BudgetOverCommitted {
                budgeted,
                host_limit,
            } => write!(
                f,
                "tenant budgets total {budgeted} bytes, over the host limit of {host_limit}"
            ),
            HostError::Io(error) => write!(f, "host i/o: {error}"),
        }
    }
}

impl std::error::Error for HostError {}

impl From<std::io::Error> for HostError {
    fn from(error: std::io::Error) -> HostError {
        HostError::Io(error)
    }
}

/// Final per-tenant accounting, returned by [`Host::summary`].
#[derive(Clone, Debug)]
pub struct TenantSummary {
    /// Tenant name.
    pub name: String,
    /// Lifecycle state at summary time.
    pub state: TenantState,
    /// Requests admitted.
    pub admitted: u64,
    /// Requests shed because the queue was full.
    pub shed_queue_full: u64,
    /// Requests shed while quarantined.
    pub shed_quarantined: u64,
    /// Requests processed.
    pub processed: u64,
    /// Live bytes at the last report.
    pub used_bytes: u64,
    /// Collections run.
    pub gc_count: u64,
    /// Collections that pruned at least one reference.
    pub prune_events: u64,
    /// Total references pruned.
    pub pruned_refs: u64,
    /// Times the arbiter quarantined this tenant.
    pub quarantines: u64,
}

/// The running host.
pub struct Host {
    cfg: HostConfig,
    workers: Vec<TenantWorker>,
    arbiter: Arbiter,
    round: u64,
    telemetry: Telemetry,
    ops_state: Arc<OpsState>,
    ops_server: Option<OpsServer>,
}

/// Adapter giving the arbiter command-driven control over the worker
/// fleet.
struct WorkerControl<'a> {
    workers: &'a mut Vec<TenantWorker>,
}

impl TenantControl for WorkerControl<'_> {
    fn tenant_count(&self) -> usize {
        self.workers.len()
    }

    fn view(&self, index: usize) -> TenantView {
        let w = &self.workers[index];
        TenantView {
            used_bytes: w.last_report.used_bytes,
            budget_bytes: w.byte_budget,
            prune_events: w.last_report.prune_events,
            quarantined: w.quarantined,
            finished: !w.active(),
        }
    }

    fn force_collect(&mut self, index: usize) -> u64 {
        let w = &mut self.workers[index];
        if w.send(Command::ForceCollect) {
            w.wait();
        }
        w.last_report.used_bytes
    }

    fn force_prune(&mut self, index: usize, target_bytes: u64) -> u64 {
        let w = &mut self.workers[index];
        if w.send(Command::Reclaim { target_bytes }) {
            w.wait();
        }
        w.last_report.used_bytes
    }

    fn set_quarantined(&mut self, index: usize, quarantined: bool) {
        self.workers[index].quarantined = quarantined;
    }
}

impl Host {
    /// Boots a host: validates the budget registry, spawns one worker
    /// per tenant, and starts the ops plane if configured.
    pub fn new(cfg: HostConfig, specs: Vec<TenantSpec>) -> Result<Host, HostError> {
        if specs.is_empty() {
            return Err(HostError::NoTenants);
        }
        let budgeted: u64 = specs.iter().map(|s| s.byte_budget).sum();
        if budgeted > cfg.host_limit {
            return Err(HostError::BudgetOverCommitted {
                budgeted,
                host_limit: cfg.host_limit,
            });
        }

        let mut workers = Vec::with_capacity(specs.len());
        for spec in specs {
            workers.push(TenantWorker::spawn(spec)?);
        }

        let tenants = workers
            .iter()
            .map(|w| {
                TenantOps::new(
                    w.name.clone(),
                    Arc::clone(&w.counters),
                    w.sink.clone(),
                    w.pauses.clone(),
                    w.requests.clone(),
                    w.series.clone(),
                    Arc::clone(&w.used_bytes),
                    w.notes.clone(),
                )
            })
            .collect();
        let ops_state = Arc::new(OpsState {
            shutdown: AtomicBool::new(false),
            round: AtomicU64::new(0),
            aggregate_bytes: AtomicU64::new(0),
            host_limit: cfg.host_limit,
            tenants,
        });
        let ops_server = match &cfg.ops_addr {
            Some(addr) => Some(OpsServer::start(addr, Arc::clone(&ops_state))?),
            None => None,
        };

        let telemetry = Telemetry::new();
        if let Some(path) = &cfg.trace_path {
            telemetry.add_sink(Box::new(lp_telemetry::JsonlSink::create(path)?));
        }

        let policy = ArbiterPolicy {
            host_limit: cfg.host_limit,
            high_water: cfg.high_water,
            storm_threshold: cfg.storm_threshold,
            cooldown_rounds: cfg.cooldown_rounds,
        };
        let arbiter = Arbiter::new(policy, workers.len());

        Ok(Host {
            cfg,
            workers,
            arbiter,
            round: 0,
            telemetry,
            ops_state,
            ops_server,
        })
    }

    /// The host-plane telemetry bus (`TenantAdmit`, `TenantShed`,
    /// `ArbiterAction` events); attach sinks before running rounds.
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// The bound address of the ops plane, if enabled.
    pub fn ops_addr(&self) -> Option<SocketAddr> {
        self.ops_server.as_ref().map(|s| s.addr)
    }

    /// Rounds completed so far.
    pub fn round(&self) -> u64 {
        self.round
    }

    /// Live bytes summed across all tenant heaps, as of the last round.
    pub fn aggregate_bytes(&self) -> u64 {
        self.workers.iter().map(|w| w.last_report.used_bytes).sum()
    }

    /// The current `/metrics` exposition (also served over HTTP when the
    /// ops plane is enabled).
    pub fn metrics(&self) -> String {
        self.ops_state.metrics()
    }

    /// Whether every tenant has finished its schedule or failed.
    pub fn all_done(&self) -> bool {
        self.workers.iter().all(|w| !w.active())
    }

    /// Whether a shutdown has been requested (via [`Host::shutdown`] or
    /// `POST /shutdown` on the ops plane).
    pub fn shutdown_requested(&self) -> bool {
        self.ops_state.shutdown.load(Ordering::Relaxed)
    }

    /// Runs one lockstep round: admission, service, arbitration,
    /// publication. Returns the number of requests processed across the
    /// fleet this round.
    pub fn run_round(&mut self) -> u64 {
        self.round += 1;
        let round = self.round;
        // The round span brackets all four phases on the host bus; the
        // per-tenant service spans below nest under it.
        let _round_span = self.telemetry.span("round", round);

        // Phase 1: admission.
        for (index, w) in self.workers.iter_mut().enumerate() {
            if !w.active() {
                continue;
            }
            let mut arrivals =
                loadgen::arrivals(self.cfg.seed, index as u64, round, w.arrival_rate);
            if let Some(total) = w.total_requests {
                arrivals = arrivals.min(total.saturating_sub(w.offered));
            }
            w.offered += arrivals;
            let Offered {
                admitted,
                queue_full,
                quarantined,
            } = w.counters.offer(arrivals, w.quarantined);
            let tenant = &w.name;
            if admitted > 0 {
                self.telemetry.emit(|| Event::TenantAdmit {
                    round,
                    tenant: tenant.clone(),
                    admitted,
                });
            }
            if queue_full + quarantined > 0 {
                self.telemetry.emit(|| Event::TenantShed {
                    round,
                    tenant: tenant.clone(),
                    queue_full,
                    quarantined,
                });
                // The host-plane shed decision also lands in the tenant's
                // heap-trend series (whose clock is the worker bus).
                w.series.fold_sheds(queue_full + quarantined);
            }
        }

        // Phase 2: service. Every worker gets a command and owes a
        // report — the recv loop is the round barrier.
        for w in &self.workers {
            let max_requests = if w.quarantined || !w.active() {
                0
            } else {
                w.service_rate
            };
            w.send(Command::Round { max_requests });
        }
        let mut processed_this_round = 0;
        for (index, w) in self.workers.iter_mut().enumerate() {
            // One service span per tenant while the host waits on its
            // report; the waits are sequential, so the spans nest cleanly
            // under the round span.
            let service_span = self.telemetry.span("service", index as u64);
            match w.wait() {
                Some(report) => processed_this_round += report.processed,
                None => w.note_lost(),
            }
            drop(service_span);
            w.update_finished();
        }

        // Phase 3: arbitration.
        let actions = {
            let mut control = WorkerControl {
                workers: &mut self.workers,
            };
            self.arbiter.rebalance(round, &mut control)
        };
        let limit_bytes = self.cfg.host_limit;
        for action in &actions {
            let tenant = self.workers[action.tenant].name.clone();
            self.telemetry.emit(|| Event::ArbiterAction {
                round,
                tenant,
                action: action.action,
                used_bytes: action.used_bytes,
                aggregate_bytes: action.aggregate_bytes,
                limit_bytes,
            });
        }

        // Leak-trend poll: a tenant whose retained bytes grew monotonically
        // across the last TREND_WINDOWS buckets is a leak suspect. The
        // flag gives the event an edge trigger — one LeakSuspected per
        // sustained trend, re-armed when the trend breaks (a prune or a
        // genuine release).
        let mut leak_edges: Vec<usize> = Vec::new();
        for (index, w) in self.workers.iter_mut().enumerate() {
            match w.series.leak_trend(TREND_WINDOWS) {
                Some(trend) if !w.leak_flagged => {
                    w.leak_flagged = true;
                    leak_edges.push(index);
                    let tenant = &w.name;
                    self.telemetry.emit(|| Event::LeakSuspected {
                        tenant: tenant.clone(),
                        windows: trend.windows,
                        from_bytes: trend.from_bytes,
                        to_bytes: trend.to_bytes,
                    });
                }
                Some(_) => {}
                None => w.leak_flagged = false,
            }
        }

        // Postmortem dispatch: an operator request, a fresh quarantine,
        // or a new leak suspicion asks the tenant's worker for one
        // bundle, stamped with the host's view of the round. At most one
        // bundle per tenant per round; a tenant without a configured
        // postmortem directory answers without writing anything.
        let mut triggers: Vec<(usize, &str)> = Vec::new();
        for index in 0..self.workers.len() {
            if self.ops_state.tenants[index].take_postmortem_request() {
                triggers.push((index, "manual"));
            }
        }
        for action in &actions {
            if action.action == "quarantine" && !triggers.iter().any(|(i, _)| *i == action.tenant) {
                triggers.push((action.tenant, "quarantine"));
            }
        }
        for index in leak_edges {
            if !triggers.iter().any(|(i, _)| *i == index) {
                triggers.push((index, "leak_suspected"));
            }
        }
        if !triggers.is_empty() {
            let aggregate = self.aggregate_bytes();
            for (index, trigger) in triggers {
                let context = JsonValue::Obj(vec![
                    ("round".into(), JsonValue::from_u64(round)),
                    ("aggregate_bytes".into(), JsonValue::from_u64(aggregate)),
                    ("host_limit_bytes".into(), JsonValue::from_u64(limit_bytes)),
                ]);
                let w = &mut self.workers[index];
                if w.send(Command::Postmortem {
                    trigger: trigger.to_owned(),
                    context: Some(context),
                }) {
                    w.wait();
                }
            }
        }

        // Recovery dispatch: operator-requested checkpoints and
        // migrations run at the barrier, where the worker is between
        // requests — the quiescent point the checkpoint format requires.
        for index in 0..self.workers.len() {
            if self.ops_state.tenants[index].take_checkpoint_request() {
                let w = &mut self.workers[index];
                if w.send(Command::Checkpoint) {
                    w.wait();
                }
            }
            if self.ops_state.tenants[index].take_migrate_request() {
                let w = &mut self.workers[index];
                if w.send(Command::Migrate) {
                    w.wait();
                }
            }
        }

        // Phase 4: publication (after postmortem dispatch, so a bundle
        // written this round is visible on the ops plane this round).
        self.publish();
        processed_this_round
    }

    /// Copies the fleet state into the shared ops snapshot.
    fn publish(&self) {
        self.ops_state.round.store(self.round, Ordering::Relaxed);
        self.ops_state
            .aggregate_bytes
            .store(self.aggregate_bytes(), Ordering::Relaxed);
        for (w, ops) in self.workers.iter().zip(&self.ops_state.tenants) {
            let state = if w.failed {
                TenantState::Failed
            } else if w.finished {
                TenantState::Finished
            } else if w.quarantined {
                TenantState::Quarantined
            } else {
                TenantState::Running
            };
            ops.set_state(state);
            ops.set_prune_events(w.last_report.prune_events);
            ops.set_postmortems(w.last_report.postmortem_count);
            ops.set_replayed(w.last_report.replayed);
        }
    }

    /// Runs rounds until every tenant is done (or `max_rounds` is hit);
    /// returns the number of rounds executed.
    pub fn run_to_completion(&mut self, max_rounds: u64) -> u64 {
        let start = self.round;
        while !self.all_done() && self.round - start < max_rounds {
            self.run_round();
        }
        self.round - start
    }

    /// Serves rounds until a shutdown is requested (listen mode: tenants
    /// usually have no built-in arrival schedule and requests come from
    /// `POST /inject`). Paces rounds with a small sleep so an idle host
    /// does not spin.
    pub fn serve(&mut self) {
        while !self.shutdown_requested() {
            self.run_round();
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// Final accounting for every tenant, in boot order.
    pub fn summary(&self) -> Vec<TenantSummary> {
        self.workers
            .iter()
            .enumerate()
            .map(|(index, w)| TenantSummary {
                name: w.name.clone(),
                state: self.ops_state.tenants[index].state(),
                admitted: w.counters.admitted(),
                shed_queue_full: w.counters.shed_queue_full(),
                shed_quarantined: w.counters.shed_quarantined(),
                processed: w.counters.processed(),
                used_bytes: w.last_report.used_bytes,
                gc_count: w.last_report.gc_count,
                prune_events: w.last_report.prune_events,
                pruned_refs: w.last_report.pruned_refs,
                quarantines: self.arbiter.quarantine_count(index),
            })
            .collect()
    }

    /// Stops the ops plane and joins every worker thread.
    pub fn shutdown(&mut self) {
        self.ops_state.shutdown.store(true, Ordering::Relaxed);
        if let Some(server) = &mut self.ops_server {
            server.join();
        }
        for w in &mut self.workers {
            w.join();
        }
        self.publish();
    }
}

impl Drop for Host {
    fn drop(&mut self) {
        self.shutdown();
    }
}
