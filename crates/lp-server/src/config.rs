//! Host and tenant configuration.
//!
//! A [`TenantSpec`] describes one hosted program: its private heap, the
//! byte budget it registers against the shared host limit, the shape of
//! its offered load, and the [`Service`] that does the per-request heap
//! work. A [`HostConfig`] describes the shared envelope: the global
//! memory limit the arbiter defends, the high-water mark at which it
//! starts forcing collections, and the quarantine policy for tenants
//! whose leaks make them prune repeatedly.

use lp_workloads::Service;

/// Configuration for one hosted tenant.
pub struct TenantSpec {
    pub(crate) name: String,
    pub(crate) heap_capacity: u64,
    pub(crate) byte_budget: u64,
    pub(crate) queue_capacity: usize,
    pub(crate) service_rate: u64,
    pub(crate) arrival_rate: u64,
    pub(crate) total_requests: Option<u64>,
    pub(crate) pruning: bool,
    pub(crate) incremental_mark: Option<usize>,
    pub(crate) trace_path: Option<std::path::PathBuf>,
    pub(crate) postmortem_dir: Option<std::path::PathBuf>,
    pub(crate) recovery_dir: Option<std::path::PathBuf>,
    pub(crate) fsync_every: u64,
    pub(crate) history_every: u64,
    pub(crate) recover: bool,
    pub(crate) service: Box<dyn Service>,
}

impl TenantSpec {
    /// A tenant named `name` running `service`, with defaults sized from
    /// the service's own heap request: budget = heap capacity, queue of
    /// 64, 16 requests served and 8 offered per round, unbounded
    /// schedule, pruning enabled.
    pub fn new(name: impl Into<String>, service: Box<dyn Service>) -> TenantSpec {
        let heap = service.default_heap();
        TenantSpec {
            name: name.into(),
            heap_capacity: heap,
            byte_budget: heap,
            queue_capacity: 64,
            service_rate: 16,
            arrival_rate: 8,
            total_requests: None,
            pruning: true,
            incremental_mark: None,
            trace_path: None,
            postmortem_dir: None,
            recovery_dir: None,
            fsync_every: 1,
            history_every: 50,
            recover: false,
            service,
        }
    }

    /// Sets the capacity of this tenant's private heap.
    pub fn heap_capacity(mut self, bytes: u64) -> TenantSpec {
        self.heap_capacity = bytes;
        self
    }

    /// Sets the byte budget this tenant registers against the host
    /// limit. The sum of budgets across tenants must not exceed the host
    /// limit; [`crate::Host::new`] rejects over-committed fleets.
    pub fn byte_budget(mut self, bytes: u64) -> TenantSpec {
        self.byte_budget = bytes;
        self
    }

    /// Sets the depth of the bounded admission queue. Arrivals beyond
    /// this depth are shed with [`crate::RejectReason::QueueFull`].
    pub fn queue_capacity(mut self, requests: usize) -> TenantSpec {
        self.queue_capacity = requests.max(1);
        self
    }

    /// Sets the maximum requests this tenant serves per round.
    pub fn service_rate(mut self, requests_per_round: u64) -> TenantSpec {
        self.service_rate = requests_per_round;
        self
    }

    /// Sets the mean open-loop arrival rate (requests per round). The
    /// built-in load generator draws uniformly from `0..=2*rate`, so the
    /// long-run offered load averages `rate` per round.
    pub fn arrival_rate(mut self, requests_per_round: u64) -> TenantSpec {
        self.arrival_rate = requests_per_round;
        self
    }

    /// Caps the total offered load; once this many requests have been
    /// offered and the backlog drains, the tenant reports `Finished`.
    pub fn total_requests(mut self, requests: u64) -> TenantSpec {
        self.total_requests = Some(requests);
        self
    }

    /// Enables or disables leak pruning in this tenant's runtime.
    pub fn pruning(mut self, enabled: bool) -> TenantSpec {
        self.pruning = enabled;
        self
    }

    /// Marks this tenant's full collections incrementally, at most
    /// `budget` objects per mark quantum, instead of stop-the-world. The
    /// worker interleaves quanta with request processing, so other
    /// tenants' rounds — and this tenant's own requests — no longer sit
    /// behind a full-heap mark pause.
    pub fn incremental_mark(mut self, budget: usize) -> TenantSpec {
        self.incremental_mark = Some(budget);
        self
    }

    /// Writes this tenant's full telemetry stream — spans included — to
    /// a JSONL trace file at `path`, for offline replay (`trace_replay`)
    /// and Perfetto export (`trace_export`).
    pub fn trace_path(mut self, path: impl Into<std::path::PathBuf>) -> TenantSpec {
        self.trace_path = Some(path.into());
        self
    }

    /// Enables postmortem bundles for this tenant: on exhaustion, a
    /// fresh quarantine, a new leak suspicion, or an operator's
    /// `POST /postmortem`, the worker writes a full-fidelity bundle
    /// (v2 snapshot, flight-recorder tail, heap-trend window, host
    /// context) into `dir`.
    pub fn postmortem_dir(mut self, dir: impl Into<std::path::PathBuf>) -> TenantSpec {
        self.postmortem_dir = Some(dir.into());
        self
    }

    /// Enables crash recovery for this tenant: a write-ahead request
    /// journal (`<dir>/<name>.journal`), checkpoint files
    /// (`<dir>/<name>.ckpt`, written on `POST /checkpoint` and
    /// `POST /migrate`), and a fleet-history file (`<dir>/<name>.history`)
    /// with one fingerprint line every [`TenantSpec::history_every`]
    /// requests. With [`TenantSpec::recover`] set, the worker restores
    /// from the checkpoint at boot and replays the journal suffix.
    pub fn recovery_dir(mut self, dir: impl Into<std::path::PathBuf>) -> TenantSpec {
        self.recovery_dir = Some(dir.into());
        self
    }

    /// Journal durability knob: fsync the write-ahead journal every `n`
    /// appends (default 1, every request). A round's entries reach the
    /// file at the round barrier whatever `n` is, so a killed *process*
    /// loses nothing anyone has seen; raising `n` trades the last few
    /// requests on a *machine* crash for throughput.
    pub fn fsync_every(mut self, n: u64) -> TenantSpec {
        self.fsync_every = n.max(1);
        self
    }

    /// How many requests between fleet-history fingerprint lines
    /// (default 50).
    pub fn history_every(mut self, requests: u64) -> TenantSpec {
        self.history_every = requests.max(1);
        self
    }

    /// Recover at boot: if a checkpoint exists in the recovery
    /// directory, restore from it and replay the journal suffix past its
    /// watermark; if only a journal exists, replay it from a fresh
    /// runtime. No-op without [`TenantSpec::recovery_dir`].
    pub fn recover(mut self, enabled: bool) -> TenantSpec {
        self.recover = enabled;
        self
    }

    /// The tenant's name.
    pub fn name_str(&self) -> &str {
        &self.name
    }
}

/// Configuration for the shared host.
#[derive(Clone, Debug)]
pub struct HostConfig {
    pub(crate) host_limit: u64,
    pub(crate) high_water: f64,
    pub(crate) storm_threshold: u64,
    pub(crate) cooldown_rounds: u64,
    pub(crate) seed: u64,
    pub(crate) ops_addr: Option<String>,
    pub(crate) trace_path: Option<std::path::PathBuf>,
}

impl HostConfig {
    /// A host defending `host_limit` bytes of aggregate tenant memory,
    /// with the default policy: forced collections above 85% occupancy,
    /// quarantine after 3 prune events within one observation window,
    /// 8-round cooldown, seed 0, ops plane disabled.
    pub fn new(host_limit: u64) -> HostConfig {
        HostConfig {
            host_limit,
            high_water: 0.85,
            storm_threshold: 3,
            cooldown_rounds: 8,
            seed: 0,
            ops_addr: None,
            trace_path: None,
        }
    }

    /// Sets the high-water fraction of the host limit above which the
    /// arbiter forces collections on the heaviest tenants. Clamped to
    /// `(0, 1]`.
    pub fn high_water(mut self, fraction: f64) -> HostConfig {
        self.high_water = fraction.clamp(f64::MIN_POSITIVE, 1.0);
        self
    }

    /// Sets how many prune events within one un-quarantined window mark
    /// a tenant as storming and send it to quarantine.
    pub fn storm_threshold(mut self, prune_events: u64) -> HostConfig {
        self.storm_threshold = prune_events.max(1);
        self
    }

    /// Sets how many rounds a quarantined tenant sits out before the
    /// arbiter resumes it.
    pub fn cooldown_rounds(mut self, rounds: u64) -> HostConfig {
        self.cooldown_rounds = rounds.max(1);
        self
    }

    /// Sets the seed for the deterministic open-loop load generator.
    pub fn seed(mut self, seed: u64) -> HostConfig {
        self.seed = seed;
        self
    }

    /// Enables the HTTP ops plane on `addr` (e.g. `"127.0.0.1:0"` for an
    /// ephemeral port; the bound address is reported by
    /// [`crate::Host::ops_addr`]).
    pub fn ops(mut self, addr: impl Into<String>) -> HostConfig {
        self.ops_addr = Some(addr.into());
        self
    }

    /// Writes the host bus's telemetry stream — round and service spans,
    /// arbiter actions, leak-trend reports — to a JSONL trace at `path`.
    pub fn trace_path(mut self, path: impl Into<std::path::PathBuf>) -> HostConfig {
        self.trace_path = Some(path.into());
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lp_workloads::HealthyService;

    #[test]
    fn tenant_defaults_follow_the_service() {
        let spec = TenantSpec::new("t0", Box::new(HealthyService::new()));
        assert_eq!(spec.heap_capacity, 256 * 1024);
        assert_eq!(spec.byte_budget, spec.heap_capacity);
        assert!(spec.pruning);
        assert_eq!(spec.incremental_mark, None);
        assert_eq!(
            spec.incremental_mark(512).incremental_mark,
            Some(512),
            "builder sets the quantum budget"
        );
    }

    #[test]
    fn host_config_clamps_policy_knobs() {
        let cfg = HostConfig::new(1 << 20)
            .high_water(7.0)
            .storm_threshold(0)
            .cooldown_rounds(0);
        assert!(cfg.high_water <= 1.0);
        assert_eq!(cfg.storm_threshold, 1);
        assert_eq!(cfg.cooldown_rounds, 1);
    }
}
