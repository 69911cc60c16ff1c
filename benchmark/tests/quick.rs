//! Drives the whole benchmark — harness, children, the crash and recovery of
//! the fleet, the traced run and its probes — in `--quick` mode and checks the
//! shape of what comes out, not the numbers.
//!
//! Release builds only: a debug build of the runtime runs the heap sanitizer
//! after every collection, and `leak_prune` would take minutes.
#![cfg(not(debug_assertions))]

use std::process::Command;

use lp_telemetry::json::{self, JsonValue};

fn run(workload: &str, trace: &str) -> JsonValue {
    let output = Command::new(env!("CARGO_BIN_EXE_lp-benchmark"))
        .args([
            "--workload",
            workload,
            "--seed",
            "5",
            "--quick",
            "--trace",
            trace,
        ])
        .output()
        .expect("the benchmark starts");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "{workload} --trace {trace}:\n{stdout}"
    );
    json::parse(stdout.lines().last().expect("a result line")).expect("the result is JSON")
}

fn check(workload: &str, trace: &str, listed: &str, positive: &[&str]) {
    let result = run(workload, trace);
    assert_eq!(
        result.get("correct").and_then(JsonValue::as_bool),
        Some(true)
    );
    assert!(result.get("attempted").and_then(JsonValue::as_u64).unwrap() >= 1);
    assert_eq!(result.get("failed").and_then(JsonValue::as_u64), Some(0));

    // Exactly the metrics BENCHMARK.json lists for this kind of run, with
    // their units.
    let spec = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let spec = json::parse(&spec).expect("BENCHMARK.json parses");
    let wanted = spec.get(listed).and_then(JsonValue::as_arr).unwrap();
    let Some(JsonValue::Obj(metrics)) = result.get("metrics") else {
        panic!("no metrics object");
    };
    assert_eq!(metrics.len(), wanted.len());
    for metric in wanted {
        let name = metric.get("name").and_then(JsonValue::as_str).unwrap();
        let got = result.get("metrics").unwrap().get(name).expect(name);
        assert_eq!(got.get("unit"), metric.get("unit"), "{name}");
        assert!(
            got.get("value").and_then(JsonValue::as_f64).is_some(),
            "{name}"
        );
    }
    for name in positive {
        let value = result
            .get("metrics")
            .unwrap()
            .get(name)
            .unwrap()
            .get("value");
        assert!(
            value.and_then(JsonValue::as_f64).unwrap() > 0.0,
            "{workload}/{name}"
        );
    }
}

const END_TO_END: [&str; 7] = [
    "ops_per_s",
    "op_p50_us",
    "op_tail_us",
    "within_limit_ratio",
    "peak_rss_mb",
    "setup_s",
    "recover_s",
];

#[test]
fn read_steady_runs_end_to_end_and_traced() {
    check("read_steady", "0", "end_to_end", &END_TO_END);
    check(
        "read_steady",
        "1",
        "per_layer",
        &[
            "barrier.read_warm_ns",
            "barrier.overhead_ratio",
            "trace.overhead_ratio",
        ],
    );
}

#[test]
fn alloc_churn_runs_end_to_end_and_traced() {
    check("alloc_churn", "0", "end_to_end", &END_TO_END);
    check(
        "alloc_churn",
        "1",
        "per_layer",
        &[
            "gc.collections",
            "gc.time_share",
            "heap.alloc_ns",
            "mutator.base_op_us",
        ],
    );
}

#[test]
fn leak_prune_runs_end_to_end_and_traced() {
    check("leak_prune", "0", "end_to_end", &END_TO_END);
    check(
        "leak_prune",
        "1",
        "per_layer",
        &[
            "pruner.collections_select",
            "pruner.collections_prune",
            "pruner.pruned_refs",
            "recovery.restore_ms",
            "diagnose.snapshot_bytes",
        ],
    );
}

#[test]
fn serve_fleet_crashes_recovers_and_runs() {
    check("serve_fleet", "0", "end_to_end", &END_TO_END);
    check(
        "serve_fleet",
        "1",
        "per_layer",
        &[
            "server.round_p50_us",
            "server.metrics_scrape_ms",
            "server.tenant_pause_p99_us",
            "recovery.replay_us_per_request",
            "telemetry.events_delivered",
        ],
    );
}

#[test]
fn bad_arguments_are_refused() {
    let output = Command::new(env!("CARGO_BIN_EXE_lp-benchmark"))
        .args(["--workload", "eclipse_diff"])
        .output()
        .expect("the benchmark starts");
    assert_eq!(output.status.code(), Some(2));
    assert!(output.stdout.is_empty());
}
