//! The wire-visible ops plane: a hand-rolled HTTP/1.1 endpoint over
//! `std::net::TcpListener`.
//!
//! Routes:
//!
//! - `GET /healthz` — liveness probe, returns `ok`.
//! - `GET /metrics` — Prometheus text exposition: every tenant's runtime
//!   metrics merged into one page with a `tenant` label, followed by the
//!   host-plane `lp_server_*` families (admission, shedding, state).
//! - `GET /tenants` — JSON snapshot of every tenant: state, live bytes,
//!   prune events, queue depth, reject counts.
//! - `GET /timeseries` — JSON heap-trend series per tenant: fixed-capacity
//!   ring of per-interval buckets (live bytes/objects, edge-table bytes,
//!   collections, prunes, sheds, pause percentiles), oldest first.
//! - `GET /postmortems` — JSON list of postmortem bundles per tenant:
//!   how many have been written and where the latest one landed.
//! - `POST /inject?tenant=NAME&n=N` — external admission: offers `N`
//!   requests to the named tenant through the same bounded queue the
//!   built-in generator uses (load generators drive this).
//! - `POST /postmortem?tenant=NAME` — asks the named tenant's worker to
//!   write a postmortem bundle at the next round barrier (202; the
//!   bundle lands asynchronously, visible via `GET /postmortems`).
//! - `POST /checkpoint?tenant=NAME` — asks a recovery-enabled tenant to
//!   write a checkpoint file at the next round barrier (a quiescent
//!   point); the path appears as `last_checkpoint` on `GET /tenants`.
//! - `POST /migrate?tenant=NAME` — live migration: checkpoint, restore
//!   the file into a fresh runtime, replay the journal suffix, swap.
//!   The source checkpoint appears as `restored_from` on `GET /tenants`.
//! - `POST /shutdown` — asks the host to stop serving.
//!
//! The server is deliberately minimal: one accept loop, blocking reads
//! with a timeout, `Connection: close` on every response. It shares
//! state with the round loop only through atomics, [`PrometheusSink`]
//! handles and each tenant's rarely-written notes, so scrapes never stall
//! a round.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use lp_telemetry::json::JsonValue;
use lp_telemetry::{escape_label_value, PauseHistogram, PrometheusSink, TimeSeries};

use crate::admission::{RejectReason, TenantCounters};
use crate::tenant::SharedNotes;

/// Tenant lifecycle states as exposed on the wire.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TenantState {
    /// Serving requests.
    Running,
    /// Quarantined by the arbiter; arrivals are shed.
    Quarantined,
    /// Schedule complete, backlog drained.
    Finished,
    /// The service returned a fatal error.
    Failed,
}

impl TenantState {
    /// Stable wire label.
    pub fn tag(self) -> &'static str {
        match self {
            TenantState::Running => "running",
            TenantState::Quarantined => "quarantined",
            TenantState::Finished => "finished",
            TenantState::Failed => "failed",
        }
    }

    fn code(self) -> u8 {
        match self {
            TenantState::Running => 0,
            TenantState::Quarantined => 1,
            TenantState::Finished => 2,
            TenantState::Failed => 3,
        }
    }

    fn from_code(code: u8) -> TenantState {
        match code {
            1 => TenantState::Quarantined,
            2 => TenantState::Finished,
            3 => TenantState::Failed,
            _ => TenantState::Running,
        }
    }
}

/// One tenant's share of the ops-plane state.
pub(crate) struct TenantOps {
    pub name: String,
    pub counters: Arc<TenantCounters>,
    pub sink: PrometheusSink,
    pub pauses: PauseHistogram,
    pub requests: PauseHistogram,
    pub series: TimeSeries,
    pub used_bytes: Arc<AtomicU64>,
    /// The tenant's file paths, written by its worker as they change.
    pub notes: SharedNotes,
    state: AtomicU8,
    prune_events: AtomicU64,
    postmortems: AtomicU64,
    postmortem_requested: AtomicBool,
    replayed: AtomicU64,
    checkpoint_requested: AtomicBool,
    migrate_requested: AtomicBool,
}

impl TenantOps {
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        name: String,
        counters: Arc<TenantCounters>,
        sink: PrometheusSink,
        pauses: PauseHistogram,
        requests: PauseHistogram,
        series: TimeSeries,
        used_bytes: Arc<AtomicU64>,
        notes: SharedNotes,
    ) -> TenantOps {
        TenantOps {
            name,
            counters,
            sink,
            pauses,
            requests,
            series,
            used_bytes,
            notes,
            state: AtomicU8::new(TenantState::Running.code()),
            prune_events: AtomicU64::new(0),
            postmortems: AtomicU64::new(0),
            postmortem_requested: AtomicBool::new(false),
            replayed: AtomicU64::new(0),
            checkpoint_requested: AtomicBool::new(false),
            migrate_requested: AtomicBool::new(false),
        }
    }

    pub fn state(&self) -> TenantState {
        TenantState::from_code(self.state.load(Ordering::Relaxed))
    }

    pub fn set_state(&self, state: TenantState) {
        self.state.store(state.code(), Ordering::Relaxed);
    }

    pub fn prune_events(&self) -> u64 {
        self.prune_events.load(Ordering::Relaxed)
    }

    pub fn set_prune_events(&self, events: u64) {
        self.prune_events.store(events, Ordering::Relaxed);
    }

    /// Publishes the tenant's cumulative postmortem count from the
    /// worker's last report.
    pub fn set_postmortems(&self, count: u64) {
        self.postmortems.store(count, Ordering::Relaxed);
    }

    pub fn postmortem_count(&self) -> u64 {
        self.postmortems.load(Ordering::Relaxed)
    }

    pub fn last_postmortem_path(&self) -> Option<String> {
        self.notes.lock().postmortem_path.clone()
    }

    /// Arms the operator-requested postmortem flag (`POST /postmortem`);
    /// the round loop drains it at the next barrier.
    pub fn request_postmortem(&self) {
        self.postmortem_requested.store(true, Ordering::Relaxed);
    }

    /// Takes (and clears) the operator-requested postmortem flag.
    pub fn take_postmortem_request(&self) -> bool {
        self.postmortem_requested.swap(false, Ordering::Relaxed)
    }

    /// Publishes the boot-replay count from the worker's last report.
    pub fn set_replayed(&self, replayed: u64) {
        self.replayed.store(replayed, Ordering::Relaxed);
    }

    pub fn replayed(&self) -> u64 {
        self.replayed.load(Ordering::Relaxed)
    }

    pub fn last_checkpoint_path(&self) -> Option<String> {
        self.notes.lock().last_checkpoint.clone()
    }

    pub fn restored_from_path(&self) -> Option<String> {
        self.notes.lock().restored_from.clone()
    }

    /// Arms the operator-requested checkpoint flag (`POST /checkpoint`);
    /// the round loop drains it at the next barrier — a quiescent point.
    pub fn request_checkpoint(&self) {
        self.checkpoint_requested.store(true, Ordering::Relaxed);
    }

    /// Takes (and clears) the operator-requested checkpoint flag.
    pub fn take_checkpoint_request(&self) -> bool {
        self.checkpoint_requested.swap(false, Ordering::Relaxed)
    }

    /// Arms the operator-requested migration flag (`POST /migrate`).
    pub fn request_migrate(&self) {
        self.migrate_requested.store(true, Ordering::Relaxed);
    }

    /// Takes (and clears) the operator-requested migration flag.
    pub fn take_migrate_request(&self) -> bool {
        self.migrate_requested.swap(false, Ordering::Relaxed)
    }
}

/// State shared between the round loop and the ops server.
pub(crate) struct OpsState {
    pub shutdown: AtomicBool,
    pub round: AtomicU64,
    pub aggregate_bytes: AtomicU64,
    pub host_limit: u64,
    pub tenants: Vec<TenantOps>,
}

impl OpsState {
    /// Renders the merged `/metrics` exposition.
    pub fn metrics(&self) -> String {
        let parts: Vec<(&str, &PrometheusSink)> = self
            .tenants
            .iter()
            .map(|t| (t.name.as_str(), &t.sink))
            .collect();
        let mut out = PrometheusSink::merged_exposition("tenant", &parts);
        self.render_host_families(&mut out);
        let pauses: Vec<(&str, &PauseHistogram)> = self
            .tenants
            .iter()
            .map(|t| (t.name.as_str(), &t.pauses))
            .collect();
        out.push_str(&PauseHistogram::merged_quantiles(
            "lp_pause_nanos",
            "Mutator pause time in nanoseconds (collections and mark quanta).",
            "tenant",
            &pauses,
        ));
        let requests: Vec<(&str, &PauseHistogram)> = self
            .tenants
            .iter()
            .map(|t| (t.name.as_str(), &t.requests))
            .collect();
        out.push_str(&PauseHistogram::merged_quantiles(
            "lp_server_request_nanos",
            "Request service time in nanoseconds.",
            "tenant",
            &requests,
        ));
        out
    }

    /// Appends the host-plane `lp_server_*` families.
    fn render_host_families(&self, out: &mut String) {
        use std::fmt::Write as _;

        fn family(out: &mut String, name: &str, help: &str, kind: &str) {
            let _ = writeln!(out, "# HELP {name} {help}");
            let _ = writeln!(out, "# TYPE {name} {kind}");
        }
        family(
            out,
            "lp_server_admitted_total",
            "Requests admitted to the tenant's queue.",
            "counter",
        );
        for t in &self.tenants {
            let _ = writeln!(
                out,
                "lp_server_admitted_total{{tenant=\"{}\"}} {}",
                escape_label_value(&t.name),
                t.counters.admitted()
            );
        }
        family(
            out,
            "lp_server_shed_total",
            "Requests shed at admission, by reason.",
            "counter",
        );
        for t in &self.tenants {
            for (reason, count) in [
                (RejectReason::QueueFull, t.counters.shed_queue_full()),
                (RejectReason::Quarantined, t.counters.shed_quarantined()),
            ] {
                let _ = writeln!(
                    out,
                    "lp_server_shed_total{{tenant=\"{}\",reason=\"{}\"}} {}",
                    escape_label_value(&t.name),
                    reason.tag(),
                    count
                );
            }
        }
        family(
            out,
            "lp_server_processed_total",
            "Requests the tenant's worker has completed.",
            "counter",
        );
        for t in &self.tenants {
            let _ = writeln!(
                out,
                "lp_server_processed_total{{tenant=\"{}\"}} {}",
                escape_label_value(&t.name),
                t.counters.processed()
            );
        }
        family(
            out,
            "lp_server_queue_depth",
            "Requests admitted but not yet processed.",
            "gauge",
        );
        for t in &self.tenants {
            let _ = writeln!(
                out,
                "lp_server_queue_depth{{tenant=\"{}\"}} {}",
                escape_label_value(&t.name),
                t.counters.queue_depth()
            );
        }
        family(
            out,
            "lp_server_tenant_state",
            "1 for the tenant's current state, 0 otherwise.",
            "gauge",
        );
        for t in &self.tenants {
            let current = t.state();
            for state in [
                TenantState::Running,
                TenantState::Quarantined,
                TenantState::Finished,
                TenantState::Failed,
            ] {
                let _ = writeln!(
                    out,
                    "lp_server_tenant_state{{tenant=\"{}\",state=\"{}\"}} {}",
                    escape_label_value(&t.name),
                    state.tag(),
                    u64::from(state == current)
                );
            }
        }
        family(
            out,
            "lp_server_round",
            "Rounds the host has completed.",
            "counter",
        );
        let _ = writeln!(
            out,
            "lp_server_round {}",
            self.round.load(Ordering::Relaxed)
        );
        family(
            out,
            "lp_server_aggregate_bytes",
            "Live bytes summed across all tenant heaps.",
            "gauge",
        );
        let _ = writeln!(
            out,
            "lp_server_aggregate_bytes {}",
            self.aggregate_bytes.load(Ordering::Relaxed)
        );
        family(
            out,
            "lp_server_host_limit_bytes",
            "The hard aggregate memory limit the arbiter defends.",
            "gauge",
        );
        let _ = writeln!(out, "lp_server_host_limit_bytes {}", self.host_limit);
    }

    /// Renders the `/tenants` JSON snapshot.
    pub fn tenants_json(&self) -> String {
        let tenants: Vec<JsonValue> = self
            .tenants
            .iter()
            .map(|t| {
                JsonValue::Obj(vec![
                    ("name".into(), JsonValue::Str(t.name.clone())),
                    ("state".into(), JsonValue::Str(t.state().tag().into())),
                    (
                        "used_bytes".into(),
                        JsonValue::from_u64(t.used_bytes.load(Ordering::Relaxed)),
                    ),
                    ("prune_events".into(), JsonValue::from_u64(t.prune_events())),
                    (
                        "admitted".into(),
                        JsonValue::from_u64(t.counters.admitted()),
                    ),
                    (
                        "processed".into(),
                        JsonValue::from_u64(t.counters.processed()),
                    ),
                    (
                        "queue_depth".into(),
                        JsonValue::from_u64(t.counters.queue_depth()),
                    ),
                    (
                        "shed_queue_full".into(),
                        JsonValue::from_u64(t.counters.shed_queue_full()),
                    ),
                    (
                        "shed_quarantined".into(),
                        JsonValue::from_u64(t.counters.shed_quarantined()),
                    ),
                    (
                        "postmortem_count".into(),
                        JsonValue::from_u64(t.postmortem_count()),
                    ),
                    (
                        "last_postmortem".into(),
                        t.last_postmortem_path()
                            .map_or(JsonValue::Null, JsonValue::Str),
                    ),
                    ("replayed".into(), JsonValue::from_u64(t.replayed())),
                    (
                        "last_checkpoint".into(),
                        t.last_checkpoint_path()
                            .map_or(JsonValue::Null, JsonValue::Str),
                    ),
                    (
                        "restored_from".into(),
                        t.restored_from_path()
                            .map_or(JsonValue::Null, JsonValue::Str),
                    ),
                ])
            })
            .collect();
        JsonValue::Obj(vec![
            (
                "round".into(),
                JsonValue::from_u64(self.round.load(Ordering::Relaxed)),
            ),
            (
                "aggregate_bytes".into(),
                JsonValue::from_u64(self.aggregate_bytes.load(Ordering::Relaxed)),
            ),
            (
                "host_limit_bytes".into(),
                JsonValue::from_u64(self.host_limit),
            ),
            ("tenants".into(), JsonValue::Arr(tenants)),
        ])
        .to_string()
    }

    /// Renders the `GET /timeseries` JSON: every tenant's heap-trend
    /// buckets, oldest first, plus the bucket interval so clients can
    /// place windows on a wall clock.
    pub fn timeseries_json(&self) -> String {
        let tenants: Vec<JsonValue> = self
            .tenants
            .iter()
            .map(|t| {
                let buckets: Vec<JsonValue> = t
                    .series
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
                            (
                                "pause_p50_nanos".into(),
                                JsonValue::from_u64(b.pause_p50_nanos),
                            ),
                            (
                                "pause_p95_nanos".into(),
                                JsonValue::from_u64(b.pause_p95_nanos),
                            ),
                            (
                                "pause_p99_nanos".into(),
                                JsonValue::from_u64(b.pause_p99_nanos),
                            ),
                        ])
                    })
                    .collect();
                JsonValue::Obj(vec![
                    ("name".into(), JsonValue::Str(t.name.clone())),
                    (
                        "interval_nanos".into(),
                        JsonValue::from_u64(
                            u64::try_from(t.series.interval().as_nanos()).unwrap_or(u64::MAX),
                        ),
                    ),
                    ("buckets".into(), JsonValue::Arr(buckets)),
                ])
            })
            .collect();
        JsonValue::Obj(vec![
            (
                "round".into(),
                JsonValue::from_u64(self.round.load(Ordering::Relaxed)),
            ),
            ("tenants".into(), JsonValue::Arr(tenants)),
        ])
        .to_string()
    }

    /// Renders the `GET /postmortems` JSON: per tenant, how many
    /// bundles exist and where the most recent one was written.
    pub fn postmortems_json(&self) -> String {
        let tenants: Vec<JsonValue> = self
            .tenants
            .iter()
            .map(|t| {
                JsonValue::Obj(vec![
                    ("name".into(), JsonValue::Str(t.name.clone())),
                    ("count".into(), JsonValue::from_u64(t.postmortem_count())),
                    (
                        "path".into(),
                        t.last_postmortem_path()
                            .map_or(JsonValue::Null, JsonValue::Str),
                    ),
                ])
            })
            .collect();
        JsonValue::Obj(vec![("tenants".into(), JsonValue::Arr(tenants))]).to_string()
    }

    /// Handles `POST /postmortem`: arms the named tenant's request flag.
    /// Returns `false` for an unknown tenant.
    fn request_postmortem(&self, name: &str) -> bool {
        match self.tenants.iter().find(|t| t.name == name) {
            Some(tenant) => {
                tenant.request_postmortem();
                true
            }
            None => false,
        }
    }

    /// Handles `POST /checkpoint`: arms the named tenant's checkpoint
    /// flag. Returns `false` for an unknown tenant.
    fn request_checkpoint(&self, name: &str) -> bool {
        match self.tenants.iter().find(|t| t.name == name) {
            Some(tenant) => {
                tenant.request_checkpoint();
                true
            }
            None => false,
        }
    }

    /// Handles `POST /migrate`: arms the named tenant's migration flag.
    /// Returns `false` for an unknown tenant.
    fn request_migrate(&self, name: &str) -> bool {
        match self.tenants.iter().find(|t| t.name == name) {
            Some(tenant) => {
                tenant.request_migrate();
                true
            }
            None => false,
        }
    }

    /// Handles `POST /inject`: offers `n` requests to tenant `name`.
    /// Returns `(admitted, shed)` or `None` for an unknown tenant.
    fn inject(&self, name: &str, n: u64) -> Option<(u64, u64)> {
        let tenant = self.tenants.iter().find(|t| t.name == name)?;
        let quarantined = tenant.state() == TenantState::Quarantined;
        let offered = tenant.counters.offer(n, quarantined);
        Some((offered.admitted, offered.queue_full + offered.quarantined))
    }
}

/// Handle to the running ops server thread.
pub(crate) struct OpsServer {
    pub addr: SocketAddr,
    thread: Option<JoinHandle<()>>,
}

impl OpsServer {
    /// Binds `addr` and starts the accept loop. The loop polls the
    /// shared shutdown flag between accepts, so `shutdown` + join never
    /// hangs.
    pub fn start(addr: &str, state: Arc<OpsState>) -> std::io::Result<OpsServer> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let thread = std::thread::Builder::new()
            .name("lp-server-ops".into())
            .spawn(move || accept_loop(listener, state))?;
        Ok(OpsServer {
            addr: local,
            thread: Some(thread),
        })
    }

    /// Joins the accept loop (the shutdown flag must already be set).
    pub fn join(&mut self) {
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

fn accept_loop(listener: TcpListener, state: Arc<OpsState>) {
    loop {
        match listener.accept() {
            Ok((stream, _)) => handle_connection(stream, &state),
            Err(error) if error.kind() == std::io::ErrorKind::WouldBlock => {
                if state.shutdown.load(Ordering::Relaxed) {
                    break;
                }
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => break,
        }
    }
}

/// Reads the request head (start line + headers). Bodies are ignored —
/// every mutating route carries its arguments in the query string.
fn read_request_head(stream: &mut TcpStream) -> Option<String> {
    stream.set_read_timeout(Some(Duration::from_secs(2))).ok()?;
    let mut head = Vec::new();
    let mut buf = [0u8; 1024];
    loop {
        let n = stream.read(&mut buf).ok()?;
        if n == 0 {
            break;
        }
        head.extend_from_slice(&buf[..n]);
        if head.windows(4).any(|w| w == b"\r\n\r\n") || head.len() > 16 * 1024 {
            break;
        }
    }
    String::from_utf8(head).ok()
}

/// One `key=value` pair from a query string (no percent-decoding; tenant
/// names on this plane are plain identifiers).
fn query_param<'a>(query: &'a str, key: &str) -> Option<&'a str> {
    query
        .split('&')
        .filter_map(|pair| pair.split_once('='))
        .find(|(k, _)| *k == key)
        .map(|(_, v)| v)
}

fn respond(stream: &mut TcpStream, status: &str, content_type: &str, body: &str) {
    let response = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    let _ = stream.write_all(response.as_bytes());
    let _ = stream.flush();
}

fn handle_connection(mut stream: TcpStream, state: &Arc<OpsState>) {
    let Some(head) = read_request_head(&mut stream) else {
        return;
    };
    let Some(start_line) = head.lines().next() else {
        return;
    };
    let mut parts = start_line.split_whitespace();
    let (Some(method), Some(target)) = (parts.next(), parts.next()) else {
        respond(
            &mut stream,
            "400 Bad Request",
            "text/plain",
            "bad request\n",
        );
        return;
    };
    let (path, query) = target.split_once('?').unwrap_or((target, ""));

    match (method, path) {
        ("GET", "/healthz") => respond(&mut stream, "200 OK", "text/plain", "ok\n"),
        ("GET", "/metrics") => {
            let body = state.metrics();
            respond(&mut stream, "200 OK", "text/plain; version=0.0.4", &body);
        }
        ("GET", "/tenants") => {
            let body = state.tenants_json();
            respond(&mut stream, "200 OK", "application/json", &body);
        }
        ("GET", "/timeseries") => {
            let body = state.timeseries_json();
            respond(&mut stream, "200 OK", "application/json", &body);
        }
        ("GET", "/postmortems") => {
            let body = state.postmortems_json();
            respond(&mut stream, "200 OK", "application/json", &body);
        }
        ("POST", "/postmortem") => {
            let name = query_param(query, "tenant").unwrap_or("");
            if state.request_postmortem(name) {
                respond(
                    &mut stream,
                    "202 Accepted",
                    "application/json",
                    "{\"requested\":true}",
                );
            } else {
                respond(
                    &mut stream,
                    "404 Not Found",
                    "text/plain",
                    "unknown tenant\n",
                );
            }
        }
        ("POST", "/checkpoint") => {
            let name = query_param(query, "tenant").unwrap_or("");
            if state.request_checkpoint(name) {
                respond(
                    &mut stream,
                    "202 Accepted",
                    "application/json",
                    "{\"requested\":true}",
                );
            } else {
                respond(
                    &mut stream,
                    "404 Not Found",
                    "text/plain",
                    "unknown tenant\n",
                );
            }
        }
        ("POST", "/migrate") => {
            let name = query_param(query, "tenant").unwrap_or("");
            if state.request_migrate(name) {
                respond(
                    &mut stream,
                    "202 Accepted",
                    "application/json",
                    "{\"requested\":true}",
                );
            } else {
                respond(
                    &mut stream,
                    "404 Not Found",
                    "text/plain",
                    "unknown tenant\n",
                );
            }
        }
        ("POST", "/inject") => {
            let name = query_param(query, "tenant").unwrap_or("");
            let n = query_param(query, "n")
                .and_then(|v| v.parse::<u64>().ok())
                .unwrap_or(1);
            match state.inject(name, n) {
                Some((admitted, shed)) => {
                    let body = format!("{{\"admitted\":{admitted},\"shed\":{shed}}}");
                    respond(&mut stream, "200 OK", "application/json", &body);
                }
                None => respond(
                    &mut stream,
                    "404 Not Found",
                    "text/plain",
                    "unknown tenant\n",
                ),
            }
        }
        ("POST", "/shutdown") => {
            state.shutdown.store(true, Ordering::Relaxed);
            respond(&mut stream, "200 OK", "text/plain", "shutting down\n");
        }
        _ => respond(&mut stream, "404 Not Found", "text/plain", "not found\n"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_state() -> Arc<OpsState> {
        let tenant = TenantOps::new(
            "alpha".into(),
            Arc::new(TenantCounters::new(4)),
            PrometheusSink::new(),
            PauseHistogram::new(),
            PauseHistogram::new(),
            TimeSeries::new(Duration::from_millis(25), 16),
            Arc::new(AtomicU64::new(1234)),
            SharedNotes::default(),
        );
        Arc::new(OpsState {
            shutdown: AtomicBool::new(false),
            round: AtomicU64::new(7),
            aggregate_bytes: AtomicU64::new(1234),
            host_limit: 1 << 20,
            tenants: vec![tenant],
        })
    }

    #[test]
    fn metrics_carry_tenant_and_host_families() {
        let state = test_state();
        let text = state.metrics();
        assert!(text.contains("lp_collections_total{tenant=\"alpha\"} 0"));
        assert!(text.contains("lp_server_admitted_total{tenant=\"alpha\"} 0"));
        assert!(text.contains("lp_server_host_limit_bytes 1048576"));
        assert!(text.contains("lp_server_tenant_state{tenant=\"alpha\",state=\"running\"} 1"));
        // HELP appears once per family even with host families appended.
        let helps = text.matches("# HELP lp_server_admitted_total").count();
        assert_eq!(helps, 1);
    }

    #[test]
    fn metrics_include_quantile_families() {
        let state = test_state();
        state.tenants[0].pauses.record_nanos(1000);
        state.tenants[0].requests.record_nanos(5000);
        let text = state.metrics();
        assert!(text.contains("# TYPE lp_pause_nanos gauge"));
        assert!(text.contains("lp_pause_nanos{tenant=\"alpha\",quantile=\"0.5\"} 1000"));
        assert!(text.contains("lp_pause_nanos_count{tenant=\"alpha\"} 1"));
        assert!(text.contains("lp_server_request_nanos{tenant=\"alpha\",quantile=\"0.99\"} 5000"));
        assert!(text.contains("lp_server_request_nanos_count{tenant=\"alpha\"} 1"));
    }

    #[test]
    fn timeseries_json_is_parseable() {
        let state = test_state();
        state.tenants[0].series.fold_sheds(2);
        let parsed = lp_telemetry::json::parse(&state.timeseries_json()).unwrap();
        assert_eq!(parsed.get("round").unwrap().as_u64(), Some(7));
        let tenants = parsed.get("tenants").unwrap().as_arr().unwrap();
        assert_eq!(tenants.len(), 1);
        assert_eq!(tenants[0].get("name").unwrap().as_str(), Some("alpha"));
        assert_eq!(
            tenants[0].get("interval_nanos").unwrap().as_u64(),
            Some(25_000_000)
        );
        let buckets = tenants[0].get("buckets").unwrap().as_arr().unwrap();
        assert_eq!(buckets.len(), 1);
        assert_eq!(buckets[0].get("sheds").unwrap().as_u64(), Some(2));
        assert_eq!(buckets[0].get("live_bytes").unwrap().as_u64(), Some(0));
    }

    #[test]
    fn tenants_json_is_parseable_and_complete() {
        let state = test_state();
        let parsed = lp_telemetry::json::parse(&state.tenants_json()).unwrap();
        assert_eq!(parsed.get("round").unwrap().as_u64(), Some(7));
        let tenants = parsed.get("tenants").unwrap().as_arr().unwrap();
        assert_eq!(tenants.len(), 1);
        assert_eq!(tenants[0].get("name").unwrap().as_str(), Some("alpha"));
        assert_eq!(tenants[0].get("state").unwrap().as_str(), Some("running"));
        assert_eq!(tenants[0].get("used_bytes").unwrap().as_u64(), Some(1234));
        assert_eq!(
            tenants[0].get("postmortem_count").unwrap().as_u64(),
            Some(0)
        );
        assert!(matches!(
            tenants[0].get("last_postmortem"),
            Some(JsonValue::Null)
        ));
    }

    #[test]
    fn postmortem_tally_round_trips_through_json() {
        let state = test_state();
        state.tenants[0].set_postmortems(2);
        state.tenants[0].notes.lock().postmortem_path = Some("/tmp/postmortem-latest.jsonl".into());
        let parsed = lp_telemetry::json::parse(&state.postmortems_json()).unwrap();
        let tenants = parsed.get("tenants").unwrap().as_arr().unwrap();
        assert_eq!(tenants[0].get("name").unwrap().as_str(), Some("alpha"));
        assert_eq!(tenants[0].get("count").unwrap().as_u64(), Some(2));
        assert_eq!(
            tenants[0].get("path").unwrap().as_str(),
            Some("/tmp/postmortem-latest.jsonl")
        );
        // A later report changes the count, never the path.
        state.tenants[0].set_postmortems(3);
        assert_eq!(
            state.tenants[0].last_postmortem_path().as_deref(),
            Some("/tmp/postmortem-latest.jsonl")
        );
    }

    #[test]
    fn postmortem_request_flag_is_edge_triggered() {
        let state = test_state();
        assert!(!state.tenants[0].take_postmortem_request());
        assert!(state.request_postmortem("alpha"));
        assert!(!state.request_postmortem("missing"));
        assert!(state.tenants[0].take_postmortem_request());
        assert!(!state.tenants[0].take_postmortem_request(), "flag drained");
    }

    #[test]
    fn inject_respects_queue_bounds_and_quarantine() {
        let state = test_state();
        let (admitted, shed) = state.inject("alpha", 6).unwrap();
        assert_eq!((admitted, shed), (4, 2), "queue holds 4");
        state.tenants[0].set_state(TenantState::Quarantined);
        let (admitted, shed) = state.inject("alpha", 3).unwrap();
        assert_eq!((admitted, shed), (0, 3));
        assert!(state.inject("missing", 1).is_none());
    }

    #[test]
    fn query_params_parse() {
        assert_eq!(query_param("tenant=a&n=5", "tenant"), Some("a"));
        assert_eq!(query_param("tenant=a&n=5", "n"), Some("5"));
        assert_eq!(query_param("tenant=a", "n"), None);
    }
}
