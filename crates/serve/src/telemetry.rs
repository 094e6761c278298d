//! The gateway's live-telemetry surface: one [`ServeTelemetry`] per
//! server, wrapping a [`bb_trace::Telemetry`] registry plus the cached
//! atomic handles every hot path records through.
//!
//! Naming taxonomy (rendered to Prometheus by replacing `.` with `_`):
//!
//! | metric | kind | labels |
//! |---|---|---|
//! | `serve.requests` | counter | `method`, `route` |
//! | `serve.errors` | counter | `class` (`4xx`/`5xx`), `route` |
//! | `serve.request_us` | log₂ histogram | `route` |
//! | `serve.request_rate` | per-second series | — |
//! | `serve.slow_requests` | counter | — |
//! | `serve.in_flight` | gauge | — |
//! | `serve.pool.busy` | gauge | — |
//! | `serve.panics` | counter | — |
//! | `serve.sse.dropped` | counter | — |
//! | `serve.queue.depth` | gauge | — |
//! | `serve.job.shards_done` | gauge | — |
//! | `serve.job.wall_us` | log₂ histogram | — |
//! | `serve.jobs.completed` / `serve.jobs.failed` | counter | — |
//! | `serve.cache.{hits,misses,rejected}` | counter + series | — |
//!
//! The `route` label is always the route *template* (`/jobs/{id}`), never
//! the concrete path, so label cardinality is bounded by the route table.
//!
//! The access log is a JSONL sidecar (`--access-log PATH`): one object
//! per request — `ts` (epoch seconds), `id` (monotonic request id),
//! `method`, `route` (template), `path`, `status`, `bytes` (body bytes
//! written), `us` (wall microseconds) — written as one `write_all` per
//! line so concurrent handler threads never interleave partial lines.
//!
//! Everything here is wall-clock- and plan-dependent. It must never be
//! consulted by anything that produces `metrics.json`, the ledger, or an
//! exhibit file; the byte-identity suites pin that.

use bb_trace::telemetry::{AtomicLog2Histogram, Clock, Counter, Gauge, Telemetry};
use bb_trace::write_json_string;
use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Requests slower than this many microseconds bump
/// `serve.slow_requests` (500 ms — a served artifact is in-memory bytes,
/// so anything slower is a scheduling or survival-sweep stall).
pub const SLOW_REQUEST_US: u64 = 500_000;

/// The gateway's telemetry: registry + cached handles + access log.
pub struct ServeTelemetry {
    telemetry: Telemetry,
    request_ids: AtomicU64,
    /// Requests currently being parsed, routed, or streamed.
    pub in_flight: Arc<Gauge>,
    /// Pool workers currently running a connection job (saturation =
    /// `busy / HTTP_THREADS`).
    pub pool_busy: Arc<Gauge>,
    /// Handler panics caught (each answered with a 500).
    pub panics: Arc<Counter>,
    /// SSE subscribers that went away before their stream ended.
    pub sse_dropped: Arc<Counter>,
    /// Requests slower than [`SLOW_REQUEST_US`].
    pub slow_requests: Arc<Counter>,
    /// Jobs queued but not yet picked up by the scheduler worker.
    pub queue_depth: Arc<Gauge>,
    /// Shards committed by the currently running job.
    pub shards_done: Arc<Gauge>,
    /// Wall time of completed jobs, µs (cache hits included — they are
    /// the fast mode this histogram exists to make visible).
    pub job_wall_us: Arc<AtomicLog2Histogram>,
    /// Jobs that reached `done`.
    pub jobs_completed: Arc<Counter>,
    /// Jobs that reached `failed`.
    pub jobs_failed: Arc<Counter>,
    /// Result-cache lookups answered from the cache.
    pub cache_hits: Arc<Counter>,
    /// Result-cache lookups that had to compute (rejections included).
    pub cache_misses: Arc<Counter>,
    /// Result-cache entries rejected for failed digest verification.
    pub cache_rejected: Arc<Counter>,
    access: Option<Mutex<File>>,
}

impl ServeTelemetry {
    /// A telemetry surface on `clock`, logging requests to `access_log`
    /// when given (the file is created or appended to).
    pub fn new(clock: Arc<dyn Clock>, access_log: Option<&Path>) -> io::Result<Self> {
        let telemetry = Telemetry::new(clock);
        let access = match access_log {
            Some(path) => {
                if let Some(parent) = path.parent() {
                    if !parent.as_os_str().is_empty() {
                        std::fs::create_dir_all(parent)?;
                    }
                }
                Some(Mutex::new(
                    OpenOptions::new().create(true).append(true).open(path)?,
                ))
            }
            None => None,
        };
        Ok(ServeTelemetry {
            in_flight: telemetry.gauge("serve.in_flight"),
            pool_busy: telemetry.gauge("serve.pool.busy"),
            panics: telemetry.counter("serve.panics"),
            sse_dropped: telemetry.counter("serve.sse.dropped"),
            slow_requests: telemetry.counter("serve.slow_requests"),
            queue_depth: telemetry.gauge("serve.queue.depth"),
            shards_done: telemetry.gauge("serve.job.shards_done"),
            job_wall_us: telemetry.histogram("serve.job.wall_us"),
            jobs_completed: telemetry.counter("serve.jobs.completed"),
            jobs_failed: telemetry.counter("serve.jobs.failed"),
            cache_hits: telemetry.counter("serve.cache.hits"),
            cache_misses: telemetry.counter("serve.cache.misses"),
            cache_rejected: telemetry.counter("serve.cache.rejected"),
            request_ids: AtomicU64::new(0),
            access,
            telemetry,
        })
    }

    /// The underlying registry (for the renderers and for tests).
    pub fn registry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// The next monotonic request id.
    pub fn next_request_id(&self) -> u64 {
        self.request_ids.fetch_add(1, Ordering::Relaxed)
    }

    /// Monotonic microseconds (for request timing).
    pub fn now_micros(&self) -> u64 {
        self.telemetry.now_micros()
    }

    /// Record one finished request into the RED metrics: the per-route
    /// request counter, the status-class error counter, the per-route
    /// duration histogram, the global request-rate series, and the
    /// slow-request counter. `template` is the route template, never the
    /// concrete path.
    pub fn observe_request(&self, method: &str, template: &str, status: u16, micros: u64) {
        let t = &self.telemetry;
        t.counter_with("serve.requests", &[("method", method), ("route", template)])
            .inc();
        let class = match status {
            400..=499 => Some("4xx"),
            500..=599 => Some("5xx"),
            _ => None,
        };
        if let Some(class) = class {
            t.counter_with("serve.errors", &[("class", class), ("route", template)])
                .inc();
        }
        t.histogram_with("serve.request_us", &[("route", template)])
            .observe(micros);
        t.mark("serve.request_rate", &[]);
        if micros >= SLOW_REQUEST_US {
            self.slow_requests.inc();
        }
    }

    /// Append one access-log line (no-op without `--access-log`). The
    /// whole line goes through a single `write_all` under the file lock,
    /// so lines from concurrent handlers never interleave.
    #[allow(clippy::too_many_arguments)]
    pub fn log_access(
        &self,
        id: u64,
        method: &str,
        template: &str,
        path: &str,
        status: u16,
        bytes: u64,
        micros: u64,
    ) {
        let Some(file) = &self.access else { return };
        let mut line = format!(
            "{{\"ts\": {}, \"id\": {id}, \"method\": ",
            self.telemetry.epoch_secs()
        );
        write_json_string(&mut line, method);
        line.push_str(", \"route\": ");
        write_json_string(&mut line, template);
        line.push_str(", \"path\": ");
        write_json_string(&mut line, path);
        line.push_str(&format!(
            ", \"status\": {status}, \"bytes\": {bytes}, \"us\": {micros}}}\n"
        ));
        let mut file = file.lock().expect("access log");
        let _ = file.write_all(line.as_bytes());
        let _ = file.flush();
    }

    /// Count a cache hit (counter + sliding-window series).
    pub fn cache_hit(&self) {
        self.cache_hits.inc();
        self.telemetry.mark("serve.cache.hits", &[]);
    }

    /// Count a cache miss.
    pub fn cache_miss(&self) {
        self.cache_misses.inc();
        self.telemetry.mark("serve.cache.misses", &[]);
    }

    /// Count a rejected (digest-mismatch) cache entry.
    pub fn cache_rejection(&self) {
        self.cache_rejected.inc();
        self.telemetry.mark("serve.cache.rejected", &[]);
    }
}

impl std::fmt::Debug for ServeTelemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServeTelemetry")
            .field("access_log", &self.access.is_some())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bb_trace::FakeClock;

    fn fake() -> (Arc<FakeClock>, ServeTelemetry) {
        let clock = Arc::new(FakeClock::new());
        let st = ServeTelemetry::new(Arc::clone(&clock) as Arc<dyn Clock>, None).unwrap();
        (clock, st)
    }

    #[test]
    fn red_metrics_split_by_route_and_status_class() {
        let (_, st) = fake();
        st.observe_request("GET", "/healthz", 200, 120);
        st.observe_request("GET", "/healthz", 200, 80);
        st.observe_request("GET", "/jobs/{id}", 404, 40);
        st.observe_request("POST", "/jobs", 500, 900_000);
        let prom = st.registry().to_prometheus();
        assert!(
            prom.contains("serve_requests{method=\"GET\",route=\"/healthz\"} 2"),
            "{prom}"
        );
        assert!(
            prom.contains("serve_errors{class=\"4xx\",route=\"/jobs/{id}\"} 1"),
            "{prom}"
        );
        assert!(
            prom.contains("serve_errors{class=\"5xx\",route=\"/jobs\"} 1"),
            "{prom}"
        );
        assert!(
            prom.contains("serve_request_us_count{route=\"/healthz\"} 2"),
            "{prom}"
        );
        assert_eq!(st.slow_requests.get(), 1, "only the 900ms request is slow");
    }

    #[test]
    fn request_ids_are_monotonic() {
        let (_, st) = fake();
        assert_eq!(st.next_request_id(), 0);
        assert_eq!(st.next_request_id(), 1);
        assert_eq!(st.next_request_id(), 2);
    }

    #[test]
    fn access_log_lines_are_parseable_jsonl() {
        let dir = std::env::temp_dir().join("bb-serve-access-log-unit");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("access.jsonl");
        let clock = Arc::new(FakeClock::new());
        clock.advance_secs(1_700_000_000);
        let st = ServeTelemetry::new(clock as Arc<dyn Clock>, Some(&path)).unwrap();
        st.log_access(
            0,
            "GET",
            "/exhibits/{id}",
            "/exhibits/fig1a",
            200,
            512,
            1234,
        );
        st.log_access(1, "G\"ET", "(malformed)", "a\\b", 400, 0, 5);
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in &lines {
            let parsed: serde_json::Value = serde_json::from_str(line).expect(line);
            for field in [
                "ts", "id", "method", "route", "path", "status", "bytes", "us",
            ] {
                assert!(parsed.get(field).is_some(), "missing {field} in {line}");
            }
        }
        assert!(lines[0].contains("\"ts\": 1700000000"), "{}", lines[0]);
        assert!(lines[1].contains("\"method\": \"G\\\"ET\""), "{}", lines[1]);
    }
}
