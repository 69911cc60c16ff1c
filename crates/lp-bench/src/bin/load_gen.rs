//! HTTP load generator for a `serve_smoke --listen` host, used by CI.
//!
//! Reads the host's ops address from a port file, drives a fixed number
//! of requests through `POST /inject` in batches across the fleet's
//! tenants, scrapes `/metrics`, asserts non-zero admissions with
//! per-tenant labels and a request histogram that has counted every
//! request `/tenants` says was processed, and finally requests a clean
//! shutdown with `POST /shutdown`.
//!
//! Usage: `load_gen PORT_FILE [TOTAL_REQUESTS]` (default 2000).

use std::io::{Read, Write};
use std::net::TcpStream;
use std::process::ExitCode;
use std::time::{Duration, Instant};

fn request(addr: &str, method: &str, target: &str) -> Option<String> {
    let mut stream = TcpStream::connect(addr).ok()?;
    stream.set_read_timeout(Some(Duration::from_secs(5))).ok()?;
    let head = format!("{method} {target} HTTP/1.1\r\nHost: lp\r\nConnection: close\r\n\r\n");
    stream.write_all(head.as_bytes()).ok()?;
    let mut response = String::new();
    stream.read_to_string(&mut response).ok()?;
    response.split_once("\r\n\r\n").map(|(_, b)| b.to_string())
}

/// Reads `"admitted":N` out of an inject response.
fn admitted_of(body: &str) -> u64 {
    body.split("\"admitted\":")
        .nth(1)
        .and_then(|rest| {
            rest.chars()
                .take_while(char::is_ascii_digit)
                .collect::<String>()
                .parse()
                .ok()
        })
        .unwrap_or(0)
}

/// The value of the `/metrics` sample whose line starts with `needle`.
fn sample(metrics: &str, needle: &str) -> Option<u64> {
    let line = metrics.lines().find(|line| line.starts_with(needle))?;
    line.rsplit(' ').next()?.parse().ok()
}

/// Every tenant's `(name, processed)` on `/tenants`.
fn processed(addr: &str) -> Option<Vec<(String, u64)>> {
    let body = lp_telemetry::json::parse(&request(addr, "GET", "/tenants")?).ok()?;
    let tenants = body.get("tenants")?.as_arr()?.iter();
    tenants
        .map(|t| {
            Some((
                t.get("name")?.as_str()?.to_owned(),
                t.get("processed")?.as_u64()?,
            ))
        })
        .collect()
}

/// Checks that no request time was dropped: each tenant's
/// `lp_server_request_nanos_count` equals its `processed`. The host is
/// live, so `/tenants` is read on both sides of the scrape and the
/// comparison retried until no round fell in between.
fn request_counts_match(addr: &str) -> Result<(), String> {
    let mut mismatch = "no quiet scrape in 50 attempts".to_owned();
    for _ in 0..50 {
        let before = processed(addr).ok_or("/tenants scrape failed")?;
        let metrics = request(addr, "GET", "/metrics").ok_or("/metrics scrape failed")?;
        if processed(addr).as_ref() == Some(&before) {
            let wrong = before.iter().find_map(|(tenant, processed)| {
                let needle = format!("lp_server_request_nanos_count{{tenant=\"{tenant}\"}}");
                let count = sample(&metrics, &needle);
                (count != Some(*processed))
                    .then(|| format!("{needle} is {count:?}, processed is {processed}"))
            });
            match wrong {
                None => return Ok(()),
                Some(wrong) => mismatch = wrong,
            }
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    Err(mismatch)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    let Some(port_file) = args.get(1) else {
        eprintln!("usage: load_gen PORT_FILE [TOTAL_REQUESTS]");
        return ExitCode::FAILURE;
    };
    let total: u64 = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(2_000);

    // The host writes its ephemeral address to the port file at boot;
    // wait briefly in case we raced it.
    let deadline = Instant::now() + Duration::from_secs(30);
    let addr = loop {
        match std::fs::read_to_string(port_file) {
            Ok(addr) if !addr.trim().is_empty() => break addr.trim().to_string(),
            _ if Instant::now() > deadline => {
                eprintln!("load_gen: no address in {port_file} after 30s");
                return ExitCode::FAILURE;
            }
            _ => std::thread::sleep(Duration::from_millis(50)),
        }
    };
    eprintln!("load_gen: driving {total} requests at {addr}");

    let tenants = ["leaky", "healthy-a", "healthy-b", "healthy-c"];
    let mut offered = 0u64;
    let mut admitted = 0u64;
    let batch = 25u64;
    let mut tenant_index = 0usize;
    let deadline = Instant::now() + Duration::from_secs(55);
    while offered < total {
        if Instant::now() > deadline {
            eprintln!("load_gen: timed out after {offered} offered requests");
            return ExitCode::FAILURE;
        }
        let n = batch.min(total - offered);
        let tenant = tenants[tenant_index % tenants.len()];
        tenant_index += 1;
        let target = format!("/inject?tenant={tenant}&n={n}");
        match request(&addr, "POST", &target) {
            Some(body) => {
                offered += n;
                admitted += admitted_of(&body);
            }
            None => {
                eprintln!("load_gen: inject failed, retrying");
                std::thread::sleep(Duration::from_millis(100));
            }
        }
        // Bounded queues shed what the fleet cannot absorb; pace the
        // injection so most of the load is admitted rather than shed.
        std::thread::sleep(Duration::from_millis(2));
    }

    let Some(metrics) = request(&addr, "GET", "/metrics") else {
        eprintln!("load_gen: /metrics scrape failed");
        return ExitCode::FAILURE;
    };
    let mut failures = Vec::new();
    if admitted == 0 {
        failures.push("no requests were admitted".to_string());
    }
    for tenant in &tenants {
        let needle = format!("lp_server_admitted_total{{tenant=\"{tenant}\"}}");
        match sample(&metrics, &needle) {
            None => failures.push(format!("/metrics lacks {needle}")),
            Some(0) => failures.push(format!("{tenant} admitted nothing")),
            Some(_) => {}
        }
    }
    if let Err(mismatch) = request_counts_match(&addr) {
        failures.push(mismatch);
    }

    let shutdown = request(&addr, "POST", "/shutdown");
    if shutdown.is_none() {
        failures.push("/shutdown failed".to_string());
    }

    if failures.is_empty() {
        eprintln!("load_gen: OK ({offered} offered, {admitted} admitted)");
        ExitCode::SUCCESS
    } else {
        for failure in &failures {
            eprintln!("load_gen: FAILED: {failure}");
        }
        ExitCode::FAILURE
    }
}
