//! End-to-end tests for the multi-tenant host: the deterministic
//! three-tenant scenario from the serving design (one leaky tenant is
//! pruned and quarantined while healthy tenants finish untouched), the
//! arbiter's aggregate-limit invariant as a property over model fleets,
//! and the ops plane over real TCP.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Mutex};

use lp_server::arbiter::{Arbiter, ArbiterPolicy, TenantControl, TenantView};
use lp_server::{Host, HostConfig, HostError, TenantSpec, TenantState};
use lp_telemetry::{Event, Sink, TraceLine};
use lp_workloads::{HealthyService, LeakyService};
use proptest::collection::vec;
use proptest::prelude::*;

const KB: u64 = 1024;

/// The reference fleet: one leaky tenant over-subscribing its budget
/// next to two healthy tenants with bounded working sets.
fn scenario(seed: u64) -> (HostConfig, Vec<TenantSpec>) {
    let cfg = HostConfig::new(192 * KB)
        .high_water(0.85)
        .storm_threshold(3)
        .cooldown_rounds(6)
        .seed(seed);
    let tenants = vec![
        TenantSpec::new("leaky", Box::new(LeakyService::new()))
            .heap_capacity(256 * KB)
            .byte_budget(96 * KB)
            .arrival_rate(16)
            .service_rate(16)
            .queue_capacity(64)
            .total_requests(2_500),
        TenantSpec::new("healthy-a", Box::new(HealthyService::new()))
            .heap_capacity(64 * KB)
            .byte_budget(48 * KB)
            .arrival_rate(6)
            .service_rate(16)
            .queue_capacity(64)
            .total_requests(400),
        TenantSpec::new("healthy-b", Box::new(HealthyService::new()))
            .heap_capacity(64 * KB)
            .byte_budget(48 * KB)
            .arrival_rate(6)
            .service_rate(16)
            .queue_capacity(64)
            .total_requests(400),
    ];
    (cfg, tenants)
}

/// A sink that keeps every host-plane event.
#[derive(Clone, Default)]
struct MemorySink {
    lines: Arc<Mutex<Vec<TraceLine>>>,
}

impl Sink for MemorySink {
    fn record(&mut self, line: &TraceLine) {
        self.lines.lock().unwrap().push(line.clone());
    }
}

#[test]
fn leaky_tenant_is_pruned_and_quarantined_while_healthy_tenants_finish() {
    let (cfg, tenants) = scenario(42);
    let limit = 192 * KB;
    let mut host = Host::new(cfg, tenants).unwrap();
    let sink = MemorySink::default();
    host.telemetry().add_sink(Box::new(sink.clone()));

    let rounds = host.run_to_completion(600);
    assert!(host.all_done(), "fleet did not finish in {rounds} rounds");
    let summary = host.summary();
    host.shutdown();

    // The leaky tenant survived its leak: the arbiter pruned it (no OOM,
    // no failure) and its prune storms sent it to quarantine.
    let leaky = &summary[0];
    assert_eq!(
        leaky.state,
        TenantState::Finished,
        "leaky failed: {leaky:?}"
    );
    assert!(leaky.pruned_refs > 0, "leak was never pruned: {leaky:?}");
    assert!(leaky.quarantines >= 1, "no quarantine: {leaky:?}");
    assert!(leaky.shed_quarantined > 0, "quarantine shed nothing");

    // Healthy tenants completed their full schedule with zero rejects
    // and were never pruned.
    for healthy in &summary[1..] {
        assert_eq!(healthy.state, TenantState::Finished);
        assert_eq!(healthy.processed, 400, "{healthy:?}");
        assert_eq!(healthy.shed_queue_full + healthy.shed_quarantined, 0);
        assert_eq!(healthy.pruned_refs, 0, "{healthy:?}");
    }

    // The host-plane event stream is well-formed: admits were emitted,
    // every arbiter action kept the aggregate at or under the limit, and
    // every line round-trips through the JSONL codec.
    let lines = sink.lines.lock().unwrap();
    let mut admits = 0u64;
    let mut prunes = 0u64;
    for line in lines.iter() {
        let json = line.to_json();
        assert_eq!(TraceLine::parse(&json).unwrap().to_json(), json);
        match &line.event {
            Event::TenantAdmit { admitted, .. } => admits += admitted,
            Event::ArbiterAction {
                action,
                aggregate_bytes,
                limit_bytes,
                ..
            } => {
                assert_eq!(*limit_bytes, limit);
                if *action == "prune" {
                    prunes += 1;
                    assert!(
                        *aggregate_bytes <= limit,
                        "prune left the fleet over the limit: {line:?}"
                    );
                }
            }
            _ => {}
        }
    }
    assert_eq!(
        admits,
        summary.iter().map(|t| t.admitted).sum::<u64>(),
        "admit events disagree with counters"
    );
    assert!(prunes >= 1, "the arbiter never had to prune");
}

#[test]
fn identical_seeds_give_identical_fleet_histories() {
    let run = || {
        let (cfg, tenants) = scenario(7);
        let mut host = Host::new(cfg, tenants).unwrap();
        for _ in 0..80 {
            host.run_round();
        }
        let summary = host.summary();
        host.shutdown();
        summary
            .iter()
            .map(|t| {
                (
                    t.name.clone(),
                    t.admitted,
                    t.shed_queue_full,
                    t.shed_quarantined,
                    t.processed,
                    t.prune_events,
                    t.quarantines,
                )
            })
            .collect::<Vec<_>>()
    };
    let first = run();
    let second = run();
    assert_eq!(first, second, "same seed must replay identically");
    assert!(first.iter().any(|t| t.1 > 0), "nothing was admitted");
}

/// FNV-1a over a file's bytes: pins the whole file in one constant.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The counts and per-tenant history files of `scenario(7)` over 80 rounds
/// with recovery on, as the host produced them when the admission queue
/// was a channel, the journal wrote once per request and the tenant report
/// walked the GC history. Serving at round cost must not move any of it.
/// (A change that means to alter what tenants do — heap layout in the
/// fingerprint, service handlers, arbiter policy — regenerates these.)
#[test]
fn fleet_counts_and_histories_match_the_pinned_run() {
    let dir = std::env::temp_dir().join(format!("lp-server-pinned-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (cfg, tenants) = scenario(7);
    let tenants = tenants
        .into_iter()
        .map(|spec| {
            spec.recovery_dir(dir.clone())
                .fsync_every(1 << 30)
                .history_every(25)
        })
        .collect();
    let mut host = Host::new(cfg, tenants).unwrap();
    for _ in 0..80 {
        host.run_round();
    }
    let summary = host.summary();
    host.shutdown();
    let got: Vec<(String, [u64; 8], u64)> = summary
        .iter()
        .map(|t| {
            let history = std::fs::read(dir.join(format!("{}.history", t.name))).unwrap();
            (
                t.name.clone(),
                [
                    t.admitted,
                    t.shed_queue_full,
                    t.shed_quarantined,
                    t.processed,
                    t.gc_count,
                    t.prune_events,
                    t.pruned_refs,
                    t.quarantines,
                ],
                fnv1a(&history),
            )
        })
        .collect();
    let _ = std::fs::remove_dir_all(&dir);
    let pinned = [
        (
            "leaky",
            [1224, 35, 0, 1202, 51, 2, 2, 0],
            8989147425849786837,
        ),
        (
            "healthy-a",
            [400, 0, 0, 400, 17, 0, 0, 0],
            4937686179806823856,
        ),
        (
            "healthy-b",
            [400, 0, 0, 400, 14, 0, 0, 0],
            9994006290672455627,
        ),
    ]
    .map(|(name, counts, history)| (name.to_owned(), counts, history));
    assert_eq!(got, pinned);
}

#[test]
fn over_committed_budgets_are_rejected_at_boot() {
    let cfg = HostConfig::new(100 * KB);
    let tenants = vec![
        TenantSpec::new("a", Box::new(HealthyService::new())).byte_budget(60 * KB),
        TenantSpec::new("b", Box::new(HealthyService::new())).byte_budget(60 * KB),
    ];
    match Host::new(cfg, tenants) {
        Err(HostError::BudgetOverCommitted {
            budgeted,
            host_limit,
        }) => {
            assert_eq!(budgeted, 120 * KB);
            assert_eq!(host_limit, 100 * KB);
        }
        other => panic!("expected budget rejection, got {:?}", other.is_ok()),
    }
    assert!(matches!(
        Host::new(HostConfig::new(KB), Vec::new()),
        Err(HostError::NoTenants)
    ));
}

// ----- ops plane over real TCP -------------------------------------------

fn http(addr: SocketAddr, method: &str, target: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect to ops plane");
    let request = format!("{method} {target} HTTP/1.1\r\nHost: lp\r\nConnection: close\r\n\r\n");
    stream.write_all(request.as_bytes()).unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    response
}

fn body(response: &str) -> &str {
    response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b)
        .unwrap_or("")
}

#[test]
fn ops_plane_serves_health_metrics_tenants_and_inject() {
    let cfg = HostConfig::new(1 << 20).seed(3).ops("127.0.0.1:0");
    let tenants = vec![
        TenantSpec::new("web", Box::new(HealthyService::new())).arrival_rate(0),
        TenantSpec::new("api", Box::new(HealthyService::new())).arrival_rate(0),
    ];
    let mut host = Host::new(cfg, tenants).unwrap();
    let addr = host.ops_addr().expect("ops plane enabled");

    let health = http(addr, "GET", "/healthz");
    assert!(health.starts_with("HTTP/1.1 200"), "{health}");
    assert_eq!(body(&health), "ok\n");

    // Inject external load, then serve it with one round.
    let inject = http(addr, "POST", "/inject?tenant=web&n=5");
    assert!(body(&inject).contains("\"admitted\":5"), "{inject}");
    let processed = host.run_round();
    assert_eq!(processed, 5, "injected requests were not served");

    // /metrics: per-tenant runtime families under a tenant label plus
    // host-plane admission families.
    let metrics = body(&http(addr, "GET", "/metrics")).to_string();
    assert!(
        metrics.contains("lp_live_bytes{tenant=\"web\"}"),
        "{metrics}"
    );
    assert!(metrics.contains("lp_live_bytes{tenant=\"api\"}"));
    assert!(metrics.contains("lp_server_admitted_total{tenant=\"web\"} 5"));
    assert!(metrics.contains("lp_server_processed_total{tenant=\"web\"} 5"));
    assert!(metrics.contains("lp_server_host_limit_bytes 1048576"));

    // /tenants: parseable JSON with live counters.
    let tenants_json = body(&http(addr, "GET", "/tenants")).to_string();
    let parsed = lp_telemetry::json::parse(&tenants_json).unwrap();
    let list = parsed.get("tenants").unwrap().as_arr().unwrap();
    assert_eq!(list.len(), 2);
    assert_eq!(list[0].get("name").unwrap().as_str(), Some("web"));
    assert_eq!(list[0].get("processed").unwrap().as_u64(), Some(5));

    // Unknown routes and tenants are 404s.
    assert!(http(addr, "GET", "/nope").starts_with("HTTP/1.1 404"));
    assert!(http(addr, "POST", "/inject?tenant=ghost&n=1").starts_with("HTTP/1.1 404"));

    // POST /shutdown flips the host's shutdown flag (the serve loop
    // polls it); shutdown() then joins cleanly.
    let down = http(addr, "POST", "/shutdown");
    assert!(down.starts_with("HTTP/1.1 200"), "{down}");
    assert!(host.shutdown_requested());
    host.shutdown();
}

/// The queue is a pair of counters, offered to from two threads at once —
/// the round loop's generator and the ops plane's `POST /inject` — and
/// drained by nobody (service rate 0): however the two interleave, it must
/// fill to exactly its capacity and shed every other arrival as
/// `QueueFull`.
#[test]
fn concurrent_injects_shed_queue_full_at_exactly_the_capacity() {
    const CAPACITY: u64 = 500;
    const INJECTORS: u64 = 3;
    const POSTS: u64 = 40;
    const BATCH: u64 = 7;
    let cfg = HostConfig::new(1 << 20).seed(11).ops("127.0.0.1:0");
    let tenants = vec![TenantSpec::new("web", Box::new(HealthyService::new()))
        .arrival_rate(2)
        .service_rate(0)
        .queue_capacity(CAPACITY as usize)];
    let mut host = Host::new(cfg, tenants).unwrap();
    let sink = MemorySink::default();
    host.telemetry().add_sink(Box::new(sink.clone()));
    let addr = host.ops_addr().expect("ops plane enabled");

    let start = std::sync::Barrier::new(INJECTORS as usize + 1);
    let injected: u64 = std::thread::scope(|scope| {
        let injectors: Vec<_> = (0..INJECTORS)
            .map(|_| {
                let start = &start;
                scope.spawn(move || {
                    start.wait();
                    let mut admitted = 0;
                    for _ in 0..POSTS {
                        let response = http(addr, "POST", &format!("/inject?tenant=web&n={BATCH}"));
                        let reply = lp_telemetry::json::parse(body(&response)).unwrap();
                        let got = reply.get("admitted").unwrap().as_u64().unwrap();
                        let shed = reply.get("shed").unwrap().as_u64().unwrap();
                        assert_eq!(got + shed, BATCH, "{response}");
                        admitted += got;
                    }
                    admitted
                })
            })
            .collect();
        start.wait();
        // Rounds keep offering until every injector is done; the pause only
        // spreads them over the injectors' lifetime, no assertion needs it.
        while !injectors.iter().all(|handle| handle.is_finished()) {
            assert_eq!(host.run_round(), 0, "nothing is served at rate 0");
            std::thread::sleep(std::time::Duration::from_micros(200));
        }
        injectors
            .into_iter()
            .map(|handle| handle.join().expect("injector"))
            .sum()
    });
    let web = host.summary().remove(0);
    host.shutdown();

    let (mut generated, mut generated_shed) = (0, 0);
    for line in sink.lines.lock().unwrap().iter() {
        match &line.event {
            Event::TenantAdmit { admitted, .. } => generated += admitted,
            Event::TenantShed { queue_full, .. } => generated_shed += queue_full,
            _ => {}
        }
    }
    assert_eq!(web.admitted, CAPACITY, "{web:?}");
    assert_eq!(injected + generated, CAPACITY);
    let offered = INJECTORS * POSTS * BATCH + generated + generated_shed;
    assert_eq!(web.shed_queue_full, offered - CAPACITY, "{web:?}");
    assert_eq!(web.processed, 0);
}

// ----- the arbiter invariant, property-checked over model fleets ----------

/// Model tenant: `floor` is irreducible live data, `slack` is
/// collectible garbage, `prunable` is leaked-but-reclaimable memory.
struct ModelFleet {
    tenants: Vec<ModelTenant>,
}

struct ModelTenant {
    floor: u64,
    slack: u64,
    prunable: u64,
    budget: u64,
    prune_events: u64,
    quarantined: bool,
}

impl ModelTenant {
    fn used(&self) -> u64 {
        self.floor + self.slack + self.prunable
    }
}

impl TenantControl for ModelFleet {
    fn tenant_count(&self) -> usize {
        self.tenants.len()
    }
    fn view(&self, index: usize) -> TenantView {
        let t = &self.tenants[index];
        TenantView {
            used_bytes: t.used(),
            budget_bytes: t.budget,
            prune_events: t.prune_events,
            quarantined: t.quarantined,
            finished: false,
        }
    }
    fn force_collect(&mut self, index: usize) -> u64 {
        let t = &mut self.tenants[index];
        t.slack = 0;
        t.used()
    }
    fn force_prune(&mut self, index: usize, target: u64) -> u64 {
        let t = &mut self.tenants[index];
        t.slack = 0;
        if t.used() > target {
            let cut = (t.used() - target).min(t.prunable);
            if cut > 0 {
                t.prunable -= cut;
                t.prune_events += 1;
            }
        }
        t.used()
    }
    fn set_quarantined(&mut self, index: usize, quarantined: bool) {
        self.tenants[index].quarantined = quarantined;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn aggregate_never_exceeds_the_limit_after_a_rebalance(
        shapes in vec((0u64..128 * 1024, 0u64..512 * 1024, 0u64..512 * 1024, 1u64..256 * 1024), 1..6),
        limit in 768u64 * 1024..2 * 1024 * 1024,
        round in 1u64..100,
    ) {
        // Floors are capped at 128 KiB each and there are at most five
        // tenants, while the limit is at least 768 KiB — so the
        // irreducible live set always fits and the arbiter has no
        // excuse to end a rebalance over the limit.
        let mut fleet = ModelFleet {
            tenants: shapes
                .iter()
                .map(|&(floor, slack, prunable, budget)| ModelTenant {
                    floor,
                    slack,
                    prunable,
                    budget,
                    prune_events: 0,
                    quarantined: false,
                })
                .collect(),
        };
        let policy = ArbiterPolicy {
            host_limit: limit,
            high_water: 0.85,
            storm_threshold: 3,
            cooldown_rounds: 8,
        };
        let mut arbiter = Arbiter::new(policy, fleet.tenants.len());
        arbiter.rebalance(round, &mut fleet);
        let total: u64 = fleet.tenants.iter().map(|t| t.used()).sum();
        prop_assert!(
            total <= limit,
            "rebalance left {} live bytes over the {} limit",
            total,
            limit
        );
    }
}
