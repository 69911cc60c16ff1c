//! The `serve_fleet` workload: a three-tenant [`Host`] driven round by round,
//! and the reconstruction of each request's admission→completion latency
//! from what the host reports between rounds.

use std::collections::VecDeque;
use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::time::{Duration, Instant};

use leak_pruning::{PruningConfig, Runtime};
use lp_recovery::Checkpoint;
use lp_server::{Host, HostConfig, HostError, TenantSpec, TenantSummary};
use lp_telemetry::json::{self, JsonValue};
use lp_telemetry::PrometheusSink;
use lp_workloads::{HealthyService, LeakyService, WindowedLeakService};

use crate::metrics::Outcome;
use crate::phase::{Phase, SEGMENTS};
use crate::stats::{LogHistogram, Segment};
use crate::trace::{Span, Tracer};

pub const TENANTS: [&str; 3] = ["leaky", "healthy", "windowed"];
const TENANT_HEAP: u64 = 4 << 20;
/// Mean arrivals per tenant and round; the host draws 0..=2× this.
const ARRIVAL_RATE: u64 = 64;
const SERVICE_RATE: u64 = 80;
/// Deep enough that the 0..=128 arrival bursts never overflow it: the
/// workload is meant to have no refused request, so `failed` stays 0.
const QUEUE_CAPACITY: usize = 1024;
/// Mark quantum of the tenants' incremental collections, in objects.
const MARK_QUANTUM: usize = 512;
/// The journal is written (one `write` per request) but not forced to the
/// disk, so the disk is not what is measured.
const FSYNC_EVERY: u64 = 1 << 30;
/// A history line fingerprints the whole tenant heap; every 4096 requests
/// keeps the path exercised at about 1 % of a tenant's time.
const HISTORY_EVERY: u64 = 4096;
const HOST_RECORDER_SLOTS: usize = 4096;

/// Boots the fleet with its recovery files in `dir`. `arrival_rate` is
/// [`ARRIVAL_RATE`] except for the idle-round probe.
pub fn boot(
    seed: u64,
    dir: &Path,
    recover: bool,
    arrival_rate: u64,
    ops: bool,
) -> Result<Host, HostError> {
    let mut cfg = HostConfig::new(3 * TENANT_HEAP)
        .seed(seed)
        // Quarantine sheds every arrival of the quarantined tenant; with
        // it off, the leaky tenant keeps pruning and keeps serving.
        .storm_threshold(u64::MAX);
    if ops {
        cfg = cfg.ops("127.0.0.1:0");
    }
    let spec = |name: &str, service: Box<dyn lp_workloads::Service>| {
        TenantSpec::new(name, service)
            .heap_capacity(TENANT_HEAP)
            .byte_budget(TENANT_HEAP)
            .queue_capacity(QUEUE_CAPACITY)
            .service_rate(SERVICE_RATE)
            .arrival_rate(arrival_rate)
            .incremental_mark(MARK_QUANTUM)
            .recovery_dir(dir)
            .fsync_every(FSYNC_EVERY)
            .history_every(HISTORY_EVERY)
            .recover(recover)
    };
    let host = Host::new(
        cfg,
        vec![
            spec(TENANTS[0], Box::new(LeakyService::new())),
            spec(TENANTS[1], Box::new(HealthyService::new())),
            spec(TENANTS[2], Box::new(WindowedLeakService::new())),
        ],
    )?;
    // The tenants' buses get their sinks from the host. The host's own bus
    // (round and service spans, admissions, arbiter actions) is given what
    // an operator would attach: a flight recorder and a metrics sink.
    host.telemetry().enable_recorder(HOST_RECORDER_SLOTS);
    host.telemetry().add_sink(Box::new(PrometheusSink::new()));
    Ok(host)
}

/// One round of the host: its number and when it started and ended.
#[derive(Clone, Copy)]
pub struct Round {
    pub number: u64,
    pub start_nanos: u64,
    pub end_nanos: u64,
}

/// Rebuilds per-request latency from per-round totals.
///
/// A tenant's queue is first-in first-out, so the k-th request admitted is
/// the k-th processed: knowing how many were admitted and how many were
/// processed in every round gives each request an admission round and a
/// completion round. Its latency is the end of the completion round minus
/// the start of the admission round (arrivals are offered at the start of a
/// round and results are visible when it ends).
pub struct FifoLatency {
    /// Requests admitted but not yet processed: (start of the admission
    /// round in ns, admission round number, how many).
    waiting: VecDeque<(u64, u64, u64)>,
}

impl FifoLatency {
    pub fn new() -> FifoLatency {
        FifoLatency {
            waiting: VecDeque::with_capacity(64),
        }
    }

    /// Accounts for one round: `admitted` requests joined the queue when it
    /// started, and `processed` requests left it by its end. Latencies go to
    /// `latency` (ns) and waits to `wait_rounds` (rounds spent queued,
    /// recorded +1 so that 0 rounds lands in a bucket).
    pub fn round(
        &mut self,
        round: Round,
        admitted: u64,
        mut processed: u64,
        latency: &mut LogHistogram,
        wait_rounds: &mut LogHistogram,
    ) {
        if admitted > 0 {
            self.waiting
                .push_back((round.start_nanos, round.number, admitted));
        }
        while processed > 0 {
            let Some(front) = self.waiting.front_mut() else {
                panic!("a tenant processed {processed} requests it never admitted");
            };
            let take = front.2.min(processed);
            latency.record_n(round.end_nanos - front.0, take);
            wait_rounds.record_n(round.number - front.1 + 1, take);
            front.2 -= take;
            processed -= take;
            if front.2 == 0 {
                self.waiting.pop_front();
            }
        }
    }

    #[cfg(test)]
    pub fn queued(&self) -> u64 {
        self.waiting.iter().map(|group| group.2).sum()
    }
}

/// One request to the ops plane; returns the status line and the body.
pub fn http(addr: SocketAddr, method: &str, target: &str) -> std::io::Result<(String, String)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(10)))?;
    stream.write_all(format!("{method} {target} HTTP/1.1\r\nHost: bench\r\n\r\n").as_bytes())?;
    let mut response = String::new();
    stream.read_to_string(&mut response)?;
    let (head, body) = response.split_once("\r\n\r\n").unwrap_or((&response, ""));
    let status = head.lines().next().unwrap_or("").to_owned();
    Ok((status, body.to_owned()))
}

/// The helper child of a `serve_fleet` set-up: boots a fresh fleet, serves
/// `rounds` rounds, asks every tenant for a checkpoint over the ops plane a
/// quarter of the way in, reports how far each tenant got, and then waits
/// to be killed — the crash the workload child recovers from.
pub fn helper(seed: u64, dir: &Path, rounds: u64) -> ! {
    let mut host = boot(seed, dir, false, ARRIVAL_RATE, true).expect("the helper fleet boots");
    let addr = host.ops_addr().expect("the ops plane is on");
    let checkpoint_round = rounds / 4;
    let mut served_at_checkpoint = Vec::new();
    for round in 0..rounds {
        if round == checkpoint_round {
            // A checkpoint lands at the round barrier after the request.
            // Nothing is written while a tenant cannot be captured, so ask
            // again a round later until every file is there.
            for attempt in 0.. {
                assert!(attempt < 20, "checkpoints never landed");
                for tenant in TENANTS {
                    let target = format!("/checkpoint?tenant={tenant}");
                    let (status, _) = http(addr, "POST", &target).expect("the ops plane answers");
                    assert!(status.contains("202"), "POST {target}: {status}");
                }
                host.run_round();
                served_at_checkpoint = host.summary().iter().map(|t| t.processed).collect();
                if TENANTS
                    .iter()
                    .all(|t| dir.join(format!("{t}.ckpt")).exists())
                {
                    break;
                }
            }
        }
        host.run_round();
    }
    let summary = host.summary();
    let report: Vec<String> = summary
        .iter()
        .zip(&served_at_checkpoint)
        .map(|(tenant, at_checkpoint)| {
            format!("{}:{}:{}", tenant.name, at_checkpoint, tenant.processed)
        })
        .collect();
    println!("ready {}", report.join(" "));
    std::io::stdout().flush().expect("stdout is open");
    loop {
        std::thread::sleep(Duration::from_secs(3600));
    }
}

/// What the helper said before it was killed: per tenant, requests served
/// when its checkpoint was taken and when the helper stopped.
pub fn parse_ready(line: &str) -> Option<Vec<(String, u64, u64)>> {
    line.strip_prefix("ready ")?
        .split_whitespace()
        .map(|part| {
            let mut fields = part.split(':');
            let name = fields.next()?.to_owned();
            let at_checkpoint = fields.next()?.parse().ok()?;
            let at_kill = fields.next()?.parse().ok()?;
            Some((name, at_checkpoint, at_kill))
        })
        .collect()
}

/// Boots the fleet from the files a killed helper left in `dir` and waits
/// for the first round barrier, by which every tenant has restored its
/// checkpoint, passed the sanitizer and replayed its journal suffix.
/// Returns the host, the seconds that took, and what does not add up.
pub fn recover(
    seed: u64,
    dir: &Path,
    helper: &[(String, u64, u64)],
) -> Result<(Host, f64, Vec<String>), HostError> {
    let start = Instant::now();
    let mut host = boot(seed, dir, true, ARRIVAL_RATE, true)?;
    host.run_round();
    let seconds = start.elapsed().as_secs_f64();

    let mut wrong = Vec::new();
    let addr = host.ops_addr().expect("the ops plane is on");
    let tenants = http(addr, "GET", "/tenants")
        .ok()
        .and_then(|(_, body)| json::parse(&body).ok());
    let listed = tenants
        .as_ref()
        .and_then(|doc| doc.get("tenants"))
        .and_then(JsonValue::as_arr)
        .unwrap_or(&[]);
    for (name, at_checkpoint, at_kill) in helper {
        let Some(tenant) = listed
            .iter()
            .find(|t| t.get("name").and_then(JsonValue::as_str) == Some(name))
        else {
            wrong.push(format!("GET /tenants does not list {name}"));
            continue;
        };
        let replayed = tenant.get("replayed").and_then(JsonValue::as_u64);
        if replayed != Some(at_kill - at_checkpoint) {
            wrong.push(format!(
                "{name} replayed {replayed:?} requests; its journal suffix holds {}",
                at_kill - at_checkpoint
            ));
        }
        if tenant
            .get("restored_from")
            .and_then(JsonValue::as_str)
            .is_none()
        {
            wrong.push(format!("{name} did not restore from its checkpoint"));
        }
    }
    Ok((host, seconds, wrong))
}

/// Drives a host round by round and keeps the books between rounds.
pub struct Driver {
    fifo: Vec<FifoLatency>,
    before: Vec<TenantSummary>,
    epoch: Instant,
    /// Time each `run_round` call took, in ns.
    rounds: LogHistogram,
    /// Rounds each served request spent queued, recorded +1.
    waits: LogHistogram,
    /// The fleet when the measured phase began.
    at_phase_start: Vec<TenantSummary>,
    events_at_phase_start: u64,
}

impl Driver {
    /// Starts keeping books on a host that may already have served rounds:
    /// what sits in its queues counts as admitted now.
    pub fn new(host: &Host) -> Driver {
        let before = host.summary();
        let fifo = before
            .iter()
            .map(|tenant| {
                let mut fifo = FifoLatency::new();
                let queued = tenant.admitted - tenant.processed;
                if queued > 0 {
                    fifo.waiting.push_back((0, host.round(), queued));
                }
                fifo
            })
            .collect();
        Driver {
            fifo,
            at_phase_start: before.clone(),
            before,
            epoch: Instant::now(),
            rounds: LogHistogram::new(),
            waits: LogHistogram::new(),
            events_at_phase_start: 0,
        }
    }

    fn now(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// One round. Latencies of the requests it completed go to `latency`;
    /// returns (processed, shed) by this round.
    fn round(
        &mut self,
        host: &mut Host,
        round_start: u64,
        latency: &mut LogHistogram,
    ) -> (u64, u64, u64) {
        host.run_round();
        let round_end = self.now();
        let round = Round {
            number: host.round(),
            start_nanos: round_start,
            end_nanos: round_end,
        };
        let after = host.summary();
        let (mut processed, mut shed) = (0, 0);
        for (index, (now, was)) in after.iter().zip(&self.before).enumerate() {
            let done = now.processed - was.processed;
            self.fifo[index].round(
                round,
                now.admitted - was.admitted,
                done,
                latency,
                &mut self.waits,
            );
            processed += done;
            shed += (now.shed_queue_full + now.shed_quarantined)
                - (was.shed_queue_full + was.shed_quarantined);
        }
        self.before = after;
        self.rounds.record(round_end - round_start);
        (processed, shed, round_end)
    }

    /// Rounds whose requests are timed but not reported: the queues reach
    /// their steady depth, and every request that a measured round will
    /// complete has a known admission time.
    pub fn warm_up(&mut self, host: &mut Host, rounds: u64) {
        let mut scratch = LogHistogram::new();
        let mut start = self.now();
        for _ in 0..rounds {
            start = self.round(host, start, &mut scratch).2;
        }
        self.rounds = LogHistogram::new();
        self.waits = LogHistogram::new();
    }

    /// [`SEGMENTS`] segments of `segment_rounds` rounds each. An op is one
    /// request; a shed request is a failed op. With a `budget` in seconds
    /// the phase may stop early on a slow box. With a tracer every round
    /// leaves a `lp-server.run_round` span.
    pub fn run(
        &mut self,
        host: &mut Host,
        segment_rounds: u64,
        budget: Option<u64>,
        mut tracer: Option<&mut Tracer>,
    ) -> Phase {
        let mut phase = Phase::new();
        self.at_phase_start = self.before.clone();
        self.events_at_phase_start = host.telemetry().events_delivered();
        let phase_start = self.now();
        let mut start = phase_start;
        for segment in 0..SEGMENTS {
            let segment_start = start;
            if budget.is_some_and(|s| phase.over_budget(s, start - phase_start)) {
                break;
            }
            let mut served = 0;
            for _ in 0..segment_rounds {
                let (processed, shed, end) = self.round(host, start, &mut phase.latency[segment]);
                if let Some(tracer) = tracer.as_deref_mut() {
                    tracer.record(Span {
                        name: "lp-server.run_round",
                        start_ns: start,
                        end_ns: end,
                        parent: None,
                        op: host.round(),
                        derived: false,
                    });
                }
                served += processed;
                phase.attempted += processed + shed;
                phase.failed += shed;
                start = end;
            }
            phase.segments.push(Segment {
                ops: served,
                wall_nanos: start - segment_start,
            });
        }
        phase
    }
}

impl Driver {
    /// What the server layer did over the phase [`Driver::run`] just ran.
    pub fn layers(&self, host: &Host, phase: &Phase, out: &mut Outcome) {
        let after = host.summary();
        let grown = |of: fn(&TenantSummary) -> u64| -> f64 {
            let total = |fleet: &[TenantSummary]| fleet.iter().map(of).sum::<u64>();
            (total(&after) - total(&self.at_phase_start)) as f64
        };
        out.set("gc.collections", grown(|t| t.gc_count));
        out.set("pruner.pruned_refs", grown(|t| t.pruned_refs));
        out.set("server.prune_events", grown(|t| t.prune_events));
        out.set("server.quarantines", grown(|t| t.quarantines));
        out.set("server.round_p50_us", self.rounds.quantile(0.5) / 1e3);
        out.set("server.round_tail_us", self.rounds.quantile(0.99) / 1e3);
        // Waits were recorded +1, in buckets 1 % wide.
        let waited = |q| (self.waits.quantile(q) - 1.0).round();
        out.set("server.queue_wait_rounds_p50", waited(0.5));
        out.set("server.queue_wait_rounds_p99", waited(0.99));
        out.set(
            "server.shed_ratio",
            phase.failed as f64 / phase.attempted.max(1) as f64,
        );
        let delivered = host.telemetry().events_delivered() - self.events_at_phase_start;
        out.set("telemetry.events_delivered", delivered as f64);
        out.set(
            "telemetry.recorder_dropped",
            host.telemetry().recorder_dropped() as f64,
        );
    }
}

/// Output checks on the fleet at the end of a run.
pub fn check(host: &Host, wrong: &mut Vec<String>) {
    for tenant in host.summary() {
        if tenant.state == lp_server::TenantState::Failed {
            wrong.push(format!("tenant {} failed", tenant.name));
        }
        if tenant.name == "healthy" && (tenant.pruned_refs > 0 || tenant.quarantines > 0) {
            wrong.push(format!(
                "the healthy tenant was pruned ({} references) or quarantined ({} times)",
                tenant.pruned_refs, tenant.quarantines
            ));
        }
        if tenant.name == "leaky" && tenant.pruned_refs == 0 {
            wrong.push("the leaky tenant was never pruned".into());
        }
    }
}

/// Counts that the same seed and the same rounds must reproduce.
pub fn counts(host: &Host, out: &mut Outcome) {
    for tenant in host.summary() {
        let name = &tenant.name;
        out.count(&format!("server.{name}.admitted"), tenant.admitted);
        out.count(&format!("server.{name}.processed"), tenant.processed);
        out.count(&format!("server.{name}.collections"), tenant.gc_count);
        out.count(&format!("server.{name}.pruned_refs"), tenant.pruned_refs);
    }
}

/// The configuration `lp-server` gives a tenant with these knobs; needed to
/// restore a tenant's checkpoint outside the host.
pub fn tenant_config() -> PruningConfig {
    PruningConfig::builder(TENANT_HEAP)
        .incremental_mark(MARK_QUANTUM)
        .build()
}

/// Asks the leaky tenant for a checkpoint over the ops plane and restores
/// it: the tenant's heap as it is now, in a runtime the harness can probe.
pub fn final_runtime(host: &mut Host, dir: &Path) -> Result<Runtime, String> {
    let addr = host.ops_addr().expect("the ops plane is on");
    let path = dir.join(format!("{}.ckpt", TENANTS[0]));
    let _ = std::fs::remove_file(&path);
    let target = format!("/checkpoint?tenant={}", TENANTS[0]);
    http(addr, "POST", &target).map_err(|e| format!("POST {target}: {e}"))?;
    host.run_round();
    let checkpoint = Checkpoint::read(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    checkpoint
        .restore(tenant_config())
        .map_err(|e| format!("{}: {e}", path.display()))
}

/// Scrapes `GET /metrics` five times: how long a scrape takes, and the
/// worst tenant's p99 pause as the host itself reports it.
pub fn scrape(host: &Host, tracer: &mut Tracer, out: &mut Outcome) {
    let addr = host.ops_addr().expect("the ops plane is on");
    let mut body = String::new();
    let millis: Vec<f64> = (0..5)
        .map(|index| {
            let (response, nanos) = tracer.time("lp-server.metrics_scrape", index, || {
                http(addr, "GET", "/metrics")
            });
            if let Ok((_, text)) = response {
                body = text;
            }
            nanos as f64 / 1e6
        })
        .collect();
    out.set("server.metrics_scrape_ms", crate::stats::median(&millis));
    let worst = body
        .lines()
        .filter(|line| line.starts_with("lp_pause_nanos{") && line.contains("quantile=\"0.99\""))
        .filter_map(|line| line.rsplit(' ').next()?.parse::<f64>().ok())
        .fold(0.0, f64::max);
    if worst == 0.0 {
        out.wrong
            .push("GET /metrics reports no tenant pause".into());
    }
    out.set("server.tenant_pause_p99_us", worst / 1e3);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round(number: u64, start_nanos: u64, end_nanos: u64) -> Round {
        Round {
            number,
            start_nanos,
            end_nanos,
        }
    }

    #[test]
    fn fifo_assigns_each_request_its_admission_and_completion_round() {
        let mut fifo = FifoLatency::new();
        let mut latency = LogHistogram::new();
        let mut waits = LogHistogram::new();
        // Round 1 (t 0..100): 5 admitted, 3 processed — latency 100.
        fifo.round(round(1, 0, 100), 5, 3, &mut latency, &mut waits);
        assert_eq!(fifo.queued(), 2);
        // Round 2 (t 100..250): 4 admitted, 4 processed: the 2 left from
        // round 1 (latency 250) and 2 of round 2 (latency 150).
        fifo.round(round(2, 100, 250), 4, 4, &mut latency, &mut waits);
        assert_eq!(fifo.queued(), 2);
        // Round 3 (t 250..300): nothing admitted, the last 2 drain
        // (latency 200).
        fifo.round(round(3, 250, 300), 0, 2, &mut latency, &mut waits);
        assert_eq!(fifo.queued(), 0);
        assert_eq!(latency.count(), 9);
        let near = |got: f64, want: f64| (got - want).abs() / want <= 0.01;
        assert!(near(latency.quantile(3.0 / 9.0), 100.0));
        assert!(near(latency.quantile(5.0 / 9.0), 150.0));
        assert!(near(latency.quantile(7.0 / 9.0), 200.0));
        assert!(near(latency.quantile(1.0), 250.0));
        // Five requests were served in their admission round, four waited
        // one round.
        assert!(near(waits.quantile(5.0 / 9.0), 1.0));
        assert!(near(waits.quantile(1.0), 2.0));
    }

    #[test]
    fn ready_line_round_trips() {
        let parsed = parse_ready("ready leaky:10:250 healthy:12:260").unwrap();
        assert_eq!(parsed[1], ("healthy".to_owned(), 12, 260));
        assert_eq!(parse_ready("ready leaky:ten:250"), None);
        assert_eq!(parse_ready("booting"), None);
    }

    #[test]
    #[should_panic(expected = "never admitted")]
    fn fifo_rejects_processing_without_admission() {
        let mut fifo = FifoLatency::new();
        let mut h = LogHistogram::new();
        let mut w = LogHistogram::new();
        fifo.round(round(1, 0, 10), 1, 2, &mut h, &mut w);
    }
}
