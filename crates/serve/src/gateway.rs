//! The HTTP routes, wired to the scheduler.
//!
//! ```text
//! POST /jobs                  submit {seed, users, scenario, severity}
//! GET  /jobs                  list all jobs
//! GET  /jobs/{id}             one job's state
//! GET  /jobs/{id}/events      SSE progress stream (full replay)
//! GET  /metrics               latest job's metrics.json   (?job=N)
//! GET  /metrics.prom          live telemetry, Prometheus text format
//! GET  /debug/telemetry       live telemetry, full JSON snapshot
//! GET  /ledger                latest job's ledger.jsonl   (?job=N, ?exhibit=ID)
//! GET  /exhibits              exhibit id list
//! GET  /exhibits/{id}         one exhibit (?format=md|json|txt|csv|gp)
//! GET  /countries/{cc}        per-country drill-down      (?job=N)
//! GET  /survival              chaos survival matrix       (?scenario=NAME, ?format=json|md)
//! GET  /healthz               liveness + uptime + scheduler/cache counters
//! GET  /version               service and format versions
//! ```
//!
//! Every `GET` route also answers `HEAD` with identical headers
//! (including the `Content-Length` the body would have) and no body.
//!
//! Concurrency model: the listener thread accepts; a fixed pool handles
//! connections; exactly one scheduler worker computes jobs, so requests
//! never contend with each other for the simulation engine, and reads
//! (`/metrics`, `/exhibits/...`) serve the in-memory artifacts of
//! completed jobs even while the worker is busy resuming another job.
//! All result-bearing responses are the exact artifact bytes the batch
//! CLI writes for the same parameters.
//!
//! Every request is instrumented end-to-end: a monotonic request id, the
//! in-flight gauge, per-route RED metrics, and (with `--access-log`) one
//! JSONL access-log line. A panicking handler is caught here, answered
//! with a 500, and counted in `serve.panics` — it never takes a pool
//! worker down. Telemetry labels always use the route *template*
//! (`/jobs/{id}`), keeping metric cardinality bounded.

use crate::http::{read_request, write_sse_head, Request, RequestError, Response, ThreadPool};
use crate::runner::job_from_json;
use crate::scheduler::Scheduler;
use crate::sse::Feed;
use crate::telemetry::ServeTelemetry;
use bb_dataset::WorldConfig;
use bb_engine::ShardPlan;
use bb_netsim::chaos::ChaosScenario;
use bb_report::{json as report_json, markdown};
use bb_study::robustness::{chaos_sweep, SurvivalMatrix};
use bb_study::StreamJob;
use bb_trace::telemetry::SystemClock;
use std::collections::BTreeMap;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::Duration;

/// The reduced severity grid behind `GET /survival`: the mandatory
/// fault-free baseline plus two probe points. The full grid belongs to
/// the batch `--chaos-sweep` campaign; the endpoint is a drill-down.
const SURVIVAL_GRID: &[f64] = &[0.0, 0.5, 1.0];

/// Connection-handling pool size. Jobs run on the scheduler's worker,
/// so these threads only parse, route and serve bytes.
const HTTP_THREADS: usize = 8;

/// Read and write deadline on every accepted socket. A client silent
/// past it (an idle or half-open connection) frees its pool worker
/// instead of holding it forever, so idle sockets can stall other
/// requests and a draining shutdown for at most this long. The SSE
/// path only writes, and its keepalive frames keep a live reader busy.
pub const SOCKET_DEADLINE: Duration = Duration::from_secs(5);

/// Everything a server instance needs to know.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Port to bind on 127.0.0.1 (0 = ephemeral).
    pub port: u16,
    /// Result cache + checkpoint root.
    pub cache_dir: PathBuf,
    /// Observation window for every job, days.
    pub days: u32,
    /// FCC cohort size for every job.
    pub fcc_users: usize,
    /// Shard/thread plan. Never affects result bytes.
    pub plan: ShardPlan,
    /// Seed used when a job spec omits one.
    pub default_seed: u64,
    /// User count used when a job spec omits one.
    pub default_users: u64,
    /// Append one JSONL line per request to this file.
    pub access_log: Option<PathBuf>,
    /// Idle interval after which SSE streams emit a `: keepalive`
    /// comment frame (and thereby notice dead peers).
    pub sse_keepalive: Duration,
    /// Enable the test-only `/debug/panic` and `/debug/hold` routes.
    /// Never set outside tests.
    pub debug_routes: bool,
}

struct Inner {
    scheduler: Scheduler,
    config: ServerConfig,
    /// The job a `POST /jobs` body overrides field by field.
    default_job: StreamJob,
    telemetry: Arc<ServeTelemetry>,
    /// A feed that never closes, behind `/debug/hold`: a deterministic
    /// way for tests to hold an SSE stream open until the subscriber
    /// drops (exercising keepalives and `serve.sse.dropped`).
    hold: Feed,
    /// Lazily computed survival matrices, one per scenario.
    survival: Mutex<BTreeMap<&'static str, Arc<SurvivalMatrix>>>,
    shutdown: AtomicBool,
}

/// A running gateway: listener thread + connection pool + scheduler.
pub struct Server {
    inner: Arc<Inner>,
    addr: SocketAddr,
    accept: Option<thread::JoinHandle<()>>,
}

impl Server {
    /// Bind `127.0.0.1:{port}` and start serving.
    pub fn start(config: ServerConfig) -> io::Result<Server> {
        let default_job = StreamJob::new(
            config.default_seed,
            config.default_users,
            config.days,
            config.fcc_users,
            None,
        )
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e))?;
        let listener = TcpListener::bind(("127.0.0.1", config.port))?;
        let addr = listener.local_addr()?;
        let telemetry = Arc::new(ServeTelemetry::new(
            Arc::new(SystemClock::new()),
            config.access_log.as_deref(),
        )?);
        let inner = Arc::new(Inner {
            scheduler: Scheduler::start(&config.cache_dir, config.plan, Arc::clone(&telemetry)),
            config,
            default_job,
            telemetry,
            hold: Feed::new(),
            survival: Mutex::new(BTreeMap::new()),
            shutdown: AtomicBool::new(false),
        });
        let accept = {
            let inner = Arc::clone(&inner);
            thread::spawn(move || {
                // The worker-level catch is a backstop: handlers answer
                // their own panics with a 500 (and count them), so only
                // a panic outside the handler path reaches the pool.
                let pool = ThreadPool::instrumented(
                    HTTP_THREADS,
                    Some(Arc::clone(&inner.telemetry.pool_busy)),
                    Some(Arc::clone(&inner.telemetry.panics)),
                );
                for stream in listener.incoming() {
                    if inner.shutdown.load(Ordering::Relaxed) {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    let _ = stream.set_read_timeout(Some(SOCKET_DEADLINE));
                    let _ = stream.set_write_timeout(Some(SOCKET_DEADLINE));
                    let inner = Arc::clone(&inner);
                    pool.execute(move || handle_connection(&inner, stream));
                }
                // Dropping the pool drains in-flight connections.
            })
        };
        Ok(Server {
            inner,
            addr,
            accept: Some(accept),
        })
    }

    /// The live-telemetry surface, for in-process inspection in tests.
    pub fn telemetry(&self) -> &ServeTelemetry {
        &self.inner.telemetry
    }

    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The scheduler, for in-process inspection in tests.
    pub fn scheduler(&self) -> &Scheduler {
        &self.inner.scheduler
    }

    /// Stop accepting, unblock SSE readers, join the listener.
    pub fn shutdown(&mut self) {
        self.inner.shutdown.store(true, Ordering::Relaxed);
        self.inner
            .scheduler
            .shutdown_flag()
            .store(true, Ordering::Relaxed);
        // Nudge the blocking accept loop with one throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server").field("addr", &self.addr).finish()
    }
}

fn handle_connection(inner: &Inner, mut stream: TcpStream) {
    let telemetry = &inner.telemetry;
    let req_id = telemetry.next_request_id();
    let start = telemetry.now_micros();
    telemetry.in_flight.add(1);
    serve_one(inner, &mut stream, req_id, start);
    telemetry.in_flight.add(-1);
}

/// Record one finished exchange: RED metrics + the access-log line.
#[allow(clippy::too_many_arguments)]
fn finish_request(
    inner: &Inner,
    req_id: u64,
    start: u64,
    method: &str,
    template: &str,
    path: &str,
    status: u16,
    bytes: u64,
) {
    let telemetry = &inner.telemetry;
    let micros = telemetry.now_micros().saturating_sub(start);
    telemetry.observe_request(method, template, status, micros);
    telemetry.log_access(req_id, method, template, path, status, bytes, micros);
}

fn serve_one(inner: &Inner, stream: &mut TcpStream, req_id: u64, start: u64) {
    let request = match read_request(&mut *stream) {
        Ok(request) => request,
        // Parse-level rejections still get a proper HTTP answer; only a
        // dead transport (which includes the shutdown nudge connection)
        // is silently dropped.
        Err(RequestError::Malformed(message)) => {
            let response = Response::bad_request(&message);
            let _ = response.write_to(stream);
            finish_request(
                inner,
                req_id,
                start,
                "-",
                "(malformed)",
                "-",
                response.status(),
                response.body_len() as u64,
            );
            return;
        }
        Err(RequestError::TooLarge) => {
            let response = Response::payload_too_large();
            let _ = response.write_to(stream);
            finish_request(
                inner,
                req_id,
                start,
                "-",
                "(too-large)",
                "-",
                response.status(),
                response.body_len() as u64,
            );
            return;
        }
        Err(RequestError::Io(_)) => return,
    };
    // HEAD is GET with the body suppressed: route identically, answer
    // with identical headers (incl. Content-Length), write no body.
    let head_only = request.method == "HEAD";
    let method = if head_only {
        "GET"
    } else {
        request.method.as_str()
    };
    let segments: Vec<String> = request.segments().iter().map(|s| s.to_string()).collect();

    // The streaming routes write their own response head and bypass the
    // Response path entirely.
    if method == "GET" && segments.len() == 3 && segments[0] == "jobs" && segments[2] == "events" {
        let template = "/jobs/{id}/events";
        let feed = segments[1]
            .parse::<u64>()
            .ok()
            .and_then(|id| inner.scheduler.feed(id));
        let status = match feed {
            Some(feed) => {
                if head_only {
                    let _ = write_sse_head(stream);
                } else {
                    stream_feed(inner, &feed, stream);
                }
                200
            }
            None => {
                let response = Response::not_found("no such job");
                let _ = if head_only {
                    response.write_head_to(stream)
                } else {
                    response.write_to(stream)
                };
                404
            }
        };
        finish_request(
            inner,
            req_id,
            start,
            &request.method,
            template,
            &request.path,
            status,
            0,
        );
        return;
    }
    if method == "GET"
        && inner.config.debug_routes
        && segments.len() == 2
        && segments[0] == "debug"
        && segments[1] == "hold"
    {
        if head_only {
            let _ = write_sse_head(stream);
        } else {
            stream_feed(inner, &inner.hold, stream);
        }
        finish_request(
            inner,
            req_id,
            start,
            &request.method,
            "/debug/hold",
            &request.path,
            200,
            0,
        );
        return;
    }

    // A panicking handler answers 500 and keeps the worker; the poisoned
    // state a panic could leave behind is confined to the survival cache
    // mutex (whose lock already propagates the poison explicitly).
    let (response, template) =
        match catch_unwind(AssertUnwindSafe(|| route(inner, method, &request))) {
            Ok(routed) => routed,
            Err(_) => {
                inner.telemetry.panics.inc();
                (Response::internal_error("handler panicked"), "(panic)")
            }
        };
    let written = if head_only {
        response.write_head_to(stream).map(|_| 0u64)
    } else {
        response
            .write_to(stream)
            .map(|_| response.body_len() as u64)
    };
    finish_request(
        inner,
        req_id,
        start,
        &request.method,
        template,
        &request.path,
        response.status(),
        written.unwrap_or(0),
    );
}

/// Stream an SSE feed to a subscriber, counting a dropped peer.
fn stream_feed(inner: &Inner, feed: &Feed, stream: &mut TcpStream) {
    if write_sse_head(stream).is_err() {
        inner.telemetry.sse_dropped.inc();
        return;
    }
    if feed
        .stream_to(
            stream,
            inner.scheduler.shutdown_flag(),
            inner.config.sse_keepalive,
        )
        .is_err()
    {
        inner.telemetry.sse_dropped.inc();
    }
}

/// Dispatch one request. Returns the response together with the route
/// *template* used as the bounded-cardinality telemetry label. `method`
/// is the effective method — `HEAD` arrives here as `GET`.
fn route(inner: &Inner, method: &str, request: &Request) -> (Response, &'static str) {
    let segments = request.segments();
    match (method, segments.as_slice()) {
        ("GET", []) => (index(), "/"),
        ("GET", ["healthz"]) => (healthz(inner), "/healthz"),
        ("GET", ["version"]) => (version(), "/version"),
        ("POST", ["jobs"]) => (submit_job(inner, request), "/jobs"),
        ("GET", ["jobs"]) => {
            let jobs: Vec<serde_json::Value> =
                inner.scheduler.jobs().iter().map(|j| j.to_json()).collect();
            (
                Response::json(serde_json::json!({ "jobs": jobs }).to_string()),
                "/jobs",
            )
        }
        ("GET", ["jobs", id]) => (
            match id
                .parse::<u64>()
                .ok()
                .and_then(|id| inner.scheduler.job(id))
            {
                Some(view) => Response::json(view.to_json().to_string()),
                None => Response::not_found("no such job"),
            },
            "/jobs/{id}",
        ),
        ("GET", ["metrics"]) => (
            artifact(inner, request, "metrics.json", "application/json"),
            "/metrics",
        ),
        ("GET", ["metrics.prom"]) => (metrics_prom(inner), "/metrics.prom"),
        ("GET", ["debug", "telemetry"]) => (debug_telemetry(inner), "/debug/telemetry"),
        ("GET", ["debug", "panic"]) if inner.config.debug_routes => {
            panic!("deliberate panic from the /debug/panic test route")
        }
        ("GET", ["ledger"]) => (ledger(inner, request), "/ledger"),
        ("GET", ["exhibits"]) => (exhibit_list(inner, request), "/exhibits"),
        ("GET", ["exhibits", id]) => (exhibit(inner, request, id), "/exhibits/{id}"),
        ("GET", ["countries", cc]) => (country(inner, request, cc), "/countries/{cc}"),
        ("GET", ["survival"]) => (survival(inner, request), "/survival"),
        ("POST", _) | ("GET", _) => (Response::not_found("no such route"), "(unmatched)"),
        _ => (Response::method_not_allowed(), "(method)"),
    }
}

fn index() -> Response {
    Response::text(
        "bb-serve: POST /jobs; GET /jobs /jobs/{id} /jobs/{id}/events /metrics /metrics.prom \
         /debug/telemetry /ledger /exhibits /exhibits/{id} /countries/{cc} /survival /healthz \
         /version\n",
    )
}

fn healthz(inner: &Inner) -> Response {
    let telemetry = &inner.telemetry;
    Response::json(
        serde_json::json!({
            "status": "ok",
            "jobs": inner.scheduler.job_count(),
            "uptime_secs": telemetry.registry().uptime_secs(),
            "in_flight": telemetry.in_flight.get(),
            "queue_depth": telemetry.queue_depth.get(),
            "cache": serde_json::json!({
                "hits": inner.scheduler.cache_hits(),
                "misses": inner.scheduler.cache_misses(),
                "rejected": inner.scheduler.cache_rejected(),
            }),
        })
        .to_string(),
    )
}

/// `GET /metrics.prom`: the live registry in Prometheus text format.
/// Deliberately a different path from `/metrics`, which serves the
/// byte-identical batch artifact — the two must never mix.
fn metrics_prom(inner: &Inner) -> Response {
    Response::ok(
        "text/plain; version=0.0.4; charset=utf-8",
        inner.telemetry.registry().to_prometheus(),
    )
}

/// `GET /debug/telemetry`: everything, including ring-buffer windows.
fn debug_telemetry(inner: &Inner) -> Response {
    Response::json(inner.telemetry.registry().to_json())
}

fn version() -> Response {
    Response::json(
        serde_json::json!({
            "service": "bb-serve",
            "version": env!("CARGO_PKG_VERSION"),
            "checkpoint_format": bb_engine::FORMAT_VERSION,
        })
        .to_string(),
    )
}

fn submit_job(inner: &Inner, request: &Request) -> Response {
    let spec = match job_from_json(&request.body, &inner.default_job) {
        Ok(spec) => spec,
        Err(message) => return Response::bad_request(&message),
    };
    let id = inner.scheduler.submit(spec);
    let view = inner.scheduler.job(id).expect("just submitted");
    Response::accepted(view.to_json().to_string())
}

/// The artifact set a read-only route should serve: `?job=N`, else the
/// most recently completed job.
fn job_files(inner: &Inner, request: &Request) -> Result<Arc<Vec<(String, String)>>, Response> {
    if let Some(raw) = request.query("job") {
        let id: u64 = raw
            .parse()
            .map_err(|_| Response::bad_request("job must be an integer"))?;
        return inner
            .scheduler
            .files(id)
            .ok_or_else(|| Response::not_found("job has no artifacts (not done, or no such job)"));
    }
    inner
        .scheduler
        .latest_files()
        .ok_or_else(|| Response::not_found("no completed job yet; POST /jobs first"))
}

fn artifact(inner: &Inner, request: &Request, name: &str, content_type: &'static str) -> Response {
    match job_files(inner, request) {
        Ok(files) => match files.iter().find(|(n, _)| n == name) {
            Some((_, content)) => Response::ok(content_type, content.as_bytes().to_vec()),
            None => Response::not_found("artifact not found"),
        },
        Err(response) => response,
    }
}

/// `GET /ledger`: the provenance JSONL, optionally filtered to the
/// `exhibit` events of one exhibit id.
fn ledger(inner: &Inner, request: &Request) -> Response {
    let files = match job_files(inner, request) {
        Ok(files) => files,
        Err(response) => return response,
    };
    let Some((_, jsonl)) = files.iter().find(|(n, _)| n == "ledger.jsonl") else {
        return Response::not_found("artifact not found");
    };
    match request.query("exhibit") {
        None => Response::ok("application/jsonl", jsonl.as_bytes().to_vec()),
        Some(id) => {
            let needle = format!("\"id\": \"{id}\"");
            let filtered: String = jsonl
                .lines()
                .filter(|line| line.contains("\"event\": \"exhibit\"") && line.contains(&needle))
                .flat_map(|line| [line, "\n"])
                .collect();
            Response::ok("application/jsonl", filtered.into_bytes())
        }
    }
}

fn exhibit_list(inner: &Inner, request: &Request) -> Response {
    let files = match job_files(inner, request) {
        Ok(files) => files,
        Err(response) => return response,
    };
    let ids: Vec<&str> = files
        .iter()
        .filter_map(|(n, _)| n.strip_suffix(".md"))
        .collect();
    Response::json(serde_json::json!({ "exhibits": ids }).to_string())
}

/// `GET /exhibits/{id}`: Markdown by default, or any stored render via
/// `?format=json|txt|csv|gp|md`.
fn exhibit(inner: &Inner, request: &Request, id: &str) -> Response {
    let format = request.query("format").unwrap_or("md");
    let content_type = match format {
        "md" => "text/markdown; charset=utf-8",
        "json" => "application/json",
        "txt" | "csv" | "gp" => "text/plain; charset=utf-8",
        other => return Response::bad_request(&format!("unknown format {other:?}")),
    };
    if !id
        .chars()
        .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-')
    {
        return Response::bad_request("invalid exhibit id");
    }
    artifact(inner, request, &format!("{id}.{format}"), content_type)
}

/// `GET /countries/{cc}`: one country's drill-down out of the
/// `countries.json` artifact.
fn country(inner: &Inner, request: &Request, cc: &str) -> Response {
    let files = match job_files(inner, request) {
        Ok(files) => files,
        Err(response) => return response,
    };
    let Some((_, doc)) = files.iter().find(|(n, _)| n == "countries.json") else {
        return Response::not_found("artifact not found");
    };
    let parsed: serde_json::Value = match serde_json::from_str(doc) {
        Ok(parsed) => parsed,
        Err(_) => return Response::not_found("artifact not found"),
    };
    let code = cc.to_ascii_uppercase();
    match parsed.get(&code) {
        Some(entry) => {
            Response::json(serde_json::json!({ "country": code, "sketches": entry }).to_string())
        }
        None => Response::not_found("no observations for that country"),
    }
}

/// `GET /survival`: the chaos survival matrix of one scenario over a
/// reduced world, computed once per scenario and cached in memory.
fn survival(inner: &Inner, request: &Request) -> Response {
    let name = request.query("scenario").unwrap_or("omnibus");
    let Some(scenario) = ChaosScenario::parse(name) else {
        let known: Vec<&str> = ChaosScenario::ALL.iter().map(|s| s.name()).collect();
        return Response::bad_request(&format!(
            "unknown scenario {name:?}; one of {}",
            known.join(", ")
        ));
    };
    let matrix = {
        let mut cache = inner.survival.lock().expect("survival cache");
        Arc::clone(cache.entry(scenario.name()).or_insert_with(|| {
            let mut base = WorldConfig::small(inner.config.default_seed);
            base.user_scale = 2.0;
            base.days = 2;
            base.fcc_users = 60;
            Arc::new(chaos_sweep(
                &base,
                scenario,
                SURVIVAL_GRID,
                inner.config.plan,
            ))
        }))
    };
    match request.query("format").unwrap_or("json") {
        "json" => Response::json(
            serde_json::to_string_pretty(&report_json::survival_to_json(&matrix))
                .expect("serialise"),
        ),
        "md" => Response::markdown(markdown::survival_matrix(&matrix)),
        other => Response::bad_request(&format!("unknown format {other:?}")),
    }
}
