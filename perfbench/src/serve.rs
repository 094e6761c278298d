//! `serve`: an in-process `bb_serve::Server` (plan threads 2) under two
//! clients. A closed loop submits cold jobs, each with a distinct seed,
//! and resubmits each one so the cache answers; an open loop sends reads
//! at a fixed rate across the exhibit, country, ledger and metrics
//! routes, timed from when each was due.

use crate::common::{digest, median, print_samples, quantile, secs, Checks, Ctx, Metrics};
use crate::layers::Tracer;
use crate::stream;
use bb_dataset::{World, WorldConfig};
use bb_engine::ShardPlan;
use bb_serve::{Server, ServerConfig};
use bb_study::StreamStudy;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Open-loop read rate, requests per second.
const READ_RATE: f64 = 200.0;
/// Reader threads, so at most this many reads are in flight (`nproc`).
const READERS: usize = 2;
/// Client socket timeout; a read that hits it has failed.
const TIMEOUT: Duration = Duration::from_secs(10);
/// The latency a failed read counts as: over any limit.
const FAILED_READ_MS: f64 = 1e9;
/// Set-up repetitions (each one starts a server and completes a job).
const SETUP_REPS: usize = 3;

/// Users per job.
fn job_users(ctx: &Ctx) -> u64 {
    if ctx.tiny {
        600
    } else {
        12_000
    }
}

/// FCC cohort per job.
fn job_fcc(ctx: &Ctx) -> usize {
    if ctx.tiny {
        30
    } else {
        stream::FCC_USERS
    }
}

/// One finished HTTP exchange.
struct Http {
    status: u16,
    body: Vec<u8>,
    connect: Duration,
    ttfb: Duration,
}

/// One request on a fresh connection (the server closes after each).
fn request(addr: SocketAddr, method: &str, path: &str, body: &str) -> Result<Http, String> {
    let started = Instant::now();
    let mut s = TcpStream::connect_timeout(&addr, TIMEOUT).map_err(|e| format!("connect: {e}"))?;
    let connect = started.elapsed();
    s.set_read_timeout(Some(TIMEOUT))
        .map_err(|e| e.to_string())?;
    s.set_write_timeout(Some(TIMEOUT))
        .map_err(|e| e.to_string())?;
    let _ = s.set_nodelay(true);
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    s.write_all(head.as_bytes())
        .map_err(|e| format!("write: {e}"))?;
    let sent = Instant::now();
    let mut raw = Vec::with_capacity(16 * 1024);
    let mut chunk = [0u8; 16 * 1024];
    let mut ttfb = None;
    loop {
        let n = s.read(&mut chunk).map_err(|e| format!("read: {e}"))?;
        if n == 0 {
            break;
        }
        ttfb.get_or_insert_with(|| sent.elapsed());
        raw.extend_from_slice(&chunk[..n]);
    }
    let split = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or("no header terminator")?;
    let head = String::from_utf8_lossy(&raw[..split]).into_owned();
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or("bad status line")?;
    let body = raw[split + 4..].to_vec();
    let declared = head
        .lines()
        .find_map(|l| l.strip_prefix("Content-Length: "))
        .and_then(|v| v.trim().parse::<usize>().ok());
    if declared.is_some_and(|len| len != body.len()) {
        return Err("truncated body".into());
    }
    Ok(Http {
        status,
        body,
        connect,
        ttfb: ttfb.ok_or("empty response")?,
    })
}

/// `GET path`, demanding a 2xx answer; the body.
fn get(addr: SocketAddr, path: &str) -> Result<Vec<u8>, String> {
    let r = request(addr, "GET", path, "")?;
    if r.status / 100 != 2 {
        return Err(format!("GET {path}: status {}", r.status));
    }
    Ok(r.body)
}

/// Client-side timings of one job.
struct JobTimes {
    id: u64,
    /// Submit to the `done` event.
    total: f64,
    /// Submit to the `running` status event.
    queue_wait: f64,
    from_cache: bool,
}

/// Submit a job and follow its event stream until `done`.
fn run_job(addr: SocketAddr, seed: u64, users: u64) -> Result<JobTimes, String> {
    let started = Instant::now();
    let r = request(
        addr,
        "POST",
        "/jobs",
        &format!("{{\"seed\": {seed}, \"users\": {users}}}"),
    )?;
    if r.status != 202 {
        return Err(format!("POST /jobs: status {}", r.status));
    }
    let view: serde_json::Value =
        serde_json::from_slice(&r.body).map_err(|e| format!("job view: {e}"))?;
    let id = view["job"].as_u64().ok_or("job view without an id")?;

    let mut s = TcpStream::connect_timeout(&addr, TIMEOUT).map_err(|e| format!("connect: {e}"))?;
    s.set_read_timeout(Some(Duration::from_secs(120)))
        .map_err(|e| e.to_string())?;
    s.write_all(format!("GET /jobs/{id}/events HTTP/1.1\r\nHost: {addr}\r\n\r\n").as_bytes())
        .map_err(|e| format!("write: {e}"))?;
    let (mut pending, mut event) = (String::new(), String::new());
    let (mut running, mut done) = (None, None);
    let mut chunk = [0u8; 16 * 1024];
    loop {
        let n = s.read(&mut chunk).map_err(|e| format!("events: {e}"))?;
        if n == 0 {
            break;
        }
        let now = started.elapsed();
        pending.push_str(&String::from_utf8_lossy(&chunk[..n]));
        while let Some(end) = pending.find('\n') {
            let line: String = pending.drain(..=end).collect();
            let line = line.trim_end();
            if let Some(name) = line.strip_prefix("event: ") {
                event = name.to_string();
            } else if let Some(data) = line.strip_prefix("data: ") {
                match event.as_str() {
                    "status" if data.contains("running") => {
                        running.get_or_insert(now);
                    }
                    "done" => done = Some((now, data.contains("\"from_cache\": true"))),
                    "error" => return Err(format!("job {id} failed: {data}")),
                    _ => {}
                }
            }
        }
    }
    let (done, from_cache) = done.ok_or_else(|| format!("job {id}: stream ended without done"))?;
    Ok(JobTimes {
        id,
        total: secs(done),
        queue_wait: secs(running.unwrap_or(done)),
        from_cache,
    })
}

/// A started server with one completed job.
struct Warm {
    server: Server,
    job: u64,
}

/// Start a server under `plan` in a fresh cache directory and complete
/// the warm-up job, so every read route has data.
fn start(ctx: &Ctx, plan: ShardPlan, dir: &Path, tr: &mut Tracer) -> Result<Warm, String> {
    let _ = std::fs::remove_dir_all(dir);
    let server = tr
        .time("bb-serve.start", || {
            Server::start(ServerConfig {
                port: 0,
                cache_dir: dir.to_path_buf(),
                days: 1,
                fcc_users: job_fcc(ctx),
                plan,
                default_seed: ctx.seed,
                default_users: job_users(ctx),
                access_log: None,
                sse_keepalive: Duration::from_secs(5),
                debug_routes: false,
            })
        })
        .map_err(|e| format!("start: {e}"))?;
    let job = tr.time("bb-serve.warmup_job", || {
        run_job(server.addr(), ctx.seed, job_users(ctx))
    })?;
    Ok(Warm {
        server,
        job: job.id,
    })
}

/// The read mix: every route class with its concrete paths, derived
/// from the warm-up job's artifact names.
fn read_targets(server: &Server, job: u64) -> Vec<(&'static str, Vec<String>)> {
    let files = server
        .scheduler()
        .files(job)
        .expect("warm-up job has artifacts");
    let mut exhibits = Vec::new();
    let mut ledger = Vec::new();
    let mut countries = Vec::new();
    for (name, content) in files.iter() {
        let Some((stem, ext)) = name.rsplit_once('.') else {
            continue;
        };
        match (stem, ext) {
            ("countries", "json") => {
                let doc: serde_json::Value =
                    serde_json::from_str(content).expect("countries.json parses");
                if let Some(map) = doc.as_object() {
                    countries.extend(
                        map.keys()
                            .map(|cc| format!("/countries/{}", cc.to_ascii_lowercase())),
                    );
                }
            }
            ("metrics", _) | ("ledger", _) => {}
            (_, "md") => {
                exhibits.push(format!("/exhibits/{stem}?format=md"));
                ledger.push(format!("/ledger?exhibit={stem}"));
            }
            (_, "json" | "txt" | "csv" | "gp") => {
                exhibits.push(format!("/exhibits/{stem}?format={ext}"))
            }
            _ => {}
        }
    }
    vec![
        ("exhibit", exhibits),
        ("country", countries),
        ("ledger", ledger),
        ("metrics", vec!["/metrics".to_string()]),
        ("metrics_prom", vec!["/metrics.prom".to_string()]),
    ]
}

/// One open-loop read.
struct ReadSample {
    route: &'static str,
    /// Due time to completion, ms; failures count as over any limit.
    latency_ms: f64,
    /// Send to completion, ms.
    service_ms: f64,
    connect_ms: f64,
    ttfb_ms: f64,
    /// How late the generator sent it, ms.
    late_ms: f64,
    ok: bool,
    /// A cold job was running when it was sent.
    busy: bool,
}

/// Send reads at [`READ_RATE`] from [`READERS`] threads until `stop`,
/// each to a route drawn from `targets` by a `seed`ed stream.
fn open_loop(
    addr: SocketAddr,
    targets: &[(&'static str, Vec<String>)],
    seed: u64,
    stop: &AtomicBool,
    busy: &AtomicBool,
) -> Vec<ReadSample> {
    let started = Instant::now();
    std::thread::scope(|scope| {
        let readers: Vec<_> = (0..READERS)
            .map(|reader| {
                scope.spawn(move || {
                    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ (0x5eed_0000 + reader as u64));
                    let mut reads = Vec::new();
                    let mut slot = reader;
                    while !stop.load(Ordering::Relaxed) {
                        let due = started + Duration::from_secs_f64(slot as f64 / READ_RATE);
                        slot += READERS;
                        if let Some(wait) = due.checked_duration_since(Instant::now()) {
                            std::thread::sleep(wait);
                        }
                        let (route, paths) = &targets[rng.gen_range(0..targets.len())];
                        let path = &paths[rng.gen_range(0..paths.len())];
                        let sent = Instant::now();
                        let is_busy = busy.load(Ordering::Relaxed);
                        let result = request(addr, "GET", path, "");
                        let done = Instant::now();
                        let ok = matches!(&result, Ok(r) if r.status / 100 == 2);
                        let (connect_ms, ttfb_ms) = result
                            .as_ref()
                            .map_or((0.0, 0.0), |r| (secs(r.connect) * 1e3, secs(r.ttfb) * 1e3));
                        reads.push(ReadSample {
                            route,
                            latency_ms: if ok {
                                secs(done - due) * 1e3
                            } else {
                                FAILED_READ_MS
                            },
                            service_ms: secs(done - sent) * 1e3,
                            connect_ms,
                            ttfb_ms,
                            late_ms: secs(sent.saturating_duration_since(due)) * 1e3,
                            ok,
                            busy: is_busy,
                        });
                    }
                    reads
                })
            })
            .collect();
        readers
            .into_iter()
            .flat_map(|r| r.join().expect("reader thread"))
            .collect()
    })
}

/// Closed-loop job timings.
#[derive(Default)]
struct Jobs {
    cold: Vec<JobTimes>,
    hits: Vec<JobTimes>,
}

/// The closed loop: a cold job with a fresh seed, then its identical
/// resubmission, until `window` has passed and at least `pairs.0` pairs
/// ran, or `pairs.1` pairs ran. Checks that every resubmission is a cache hit with the
/// cold job's bytes.
fn closed_loop(
    ctx: &Ctx,
    server: &Server,
    window: Duration,
    pairs: (usize, usize),
    busy: &AtomicBool,
    tr: &mut Tracer,
    checks: &mut Checks,
) -> Jobs {
    let addr = server.addr();
    let mut jobs = Jobs::default();
    let started = Instant::now();
    let mut k = 0u64;
    while jobs.cold.len() < pairs.1 && (jobs.cold.len() < pairs.0 || started.elapsed() < window) {
        k += 1;
        let seed = ctx.seed.wrapping_add(k);
        busy.store(true, Ordering::Relaxed);
        let cold = tr.time("bb-serve.cold_job", || run_job(addr, seed, job_users(ctx)));
        busy.store(false, Ordering::Relaxed);
        let hit = tr.time("bb-serve.cache_hit_job", || {
            run_job(addr, seed, job_users(ctx))
        });
        checks.ops(2, u64::from(cold.is_err()) + u64::from(hit.is_err()));
        match (cold, hit) {
            (Ok(cold), Ok(hit)) => {
                checks.check(
                    !cold.from_cache,
                    format!("serve: cold job {} came from the cache", cold.id),
                );
                checks.check(
                    hit.from_cache,
                    format!("serve: resubmitted job {} missed the cache", hit.id),
                );
                let files = |id| server.scheduler().files(id).map(|f| digest(&f));
                checks.check(
                    files(cold.id).is_some() && files(cold.id) == files(hit.id),
                    format!("serve: cached job {} differs from job {}", hit.id, cold.id),
                );
                jobs.cold.push(cold);
                jobs.hits.push(hit);
            }
            (cold, hit) => {
                for e in [cold.err(), hit.err()].into_iter().flatten() {
                    checks.check(false, format!("serve: {e}"));
                }
                break;
            }
        }
    }
    jobs
}

/// Count reads against failures.
fn count_reads(reads: &[ReadSample], checks: &mut Checks) {
    let failed = reads.iter().filter(|r| !r.ok).count() as u64;
    checks.ops(reads.len() as u64, failed);
    checks.check(!reads.is_empty(), "serve: no reads were sent");
}

/// The served bytes of the warm-up job against an in-process fold of
/// the same spec (`metrics.json`, `ledger.jsonl` and every bundle
/// file). Returns the digest of the expected artifact set.
fn check_served(ctx: &Ctx, addr: SocketAddr, job: u64, checks: &mut Checks) -> u64 {
    let world = World::new(WorldConfig::streaming(
        ctx.seed,
        job_users(ctx),
        1,
        job_fcc(ctx),
    ));
    let (_, study, registry, _) =
        world.fold_users_traced(ShardPlan::new(8, 2), StreamStudy::new, |s, r, u| {
            s.absorb(r, u)
        });
    let expected = stream::artifacts(ctx.seed, &study, registry);
    for (name, content) in &expected {
        let path = match name.as_str() {
            "metrics.json" => format!("/metrics?job={job}"),
            "ledger.jsonl" => format!("/ledger?job={job}"),
            other => {
                let (stem, ext) = other
                    .rsplit_once('.')
                    .expect("bundle files have extensions");
                format!("/exhibits/{stem}?format={ext}&job={job}")
            }
        };
        match get(addr, &path) {
            Ok(body) => checks.check(
                body == content.as_bytes(),
                format!("serve: {path} differs from {name}"),
            ),
            Err(e) => checks.check(false, format!("serve: {e}")),
        }
    }
    digest(&expected)
}

/// Users of one job's world.
fn world_users(ctx: &Ctx) -> u64 {
    World::new(WorldConfig::streaming(
        ctx.seed,
        job_users(ctx),
        1,
        job_fcc(ctx),
    ))
    .n_users()
}

/// Run both clients against `warm` for `window`.
fn load(
    ctx: &Ctx,
    warm: &Warm,
    window: Duration,
    pairs: (usize, usize),
    tr: &mut Tracer,
    checks: &mut Checks,
) -> (Jobs, Vec<ReadSample>) {
    let targets = read_targets(&warm.server, warm.job);
    let (stop, busy) = (AtomicBool::new(false), AtomicBool::new(false));
    std::thread::scope(|scope| {
        let reader =
            scope.spawn(|| open_loop(warm.server.addr(), &targets, ctx.seed, &stop, &busy));
        let jobs = closed_loop(ctx, &warm.server, window, pairs, &busy, tr, checks);
        stop.store(true, Ordering::Relaxed);
        (jobs, reader.join().expect("open loop"))
    })
}

/// The timed run.
pub fn timed(ctx: &Ctx, plan: ShardPlan, checks: &mut Checks, m: &mut Metrics) {
    let dir = ctx.dir.join("serve");
    let mut setups = Vec::new();
    let mut warm = None;
    for _ in 0..SETUP_REPS {
        drop(warm.take());
        let started = Instant::now();
        match start(ctx, plan, &dir, &mut Tracer::off()) {
            Ok(w) => warm = Some(w),
            Err(e) => {
                checks.ops(1, 1);
                checks.check(false, format!("serve: set-up: {e}"));
                return;
            }
        }
        setups.push(secs(started.elapsed()));
    }
    let warm = warm.expect("set-up ran");
    let (jobs, reads) = load(
        ctx,
        &warm,
        ctx.window(),
        (1, usize::MAX),
        &mut Tracer::off(),
        checks,
    );
    count_reads(&reads, checks);
    let expected = check_served(ctx, warm.server.addr(), warm.job, checks);
    checks.pinned(ctx, "serve", expected);
    drop(warm);

    let cold: Vec<f64> = jobs.cold.iter().map(|j| j.total).collect();
    let latencies: Vec<f64> = reads.iter().map(|r| r.latency_ms).collect();
    println!(
        "serve: {} cache hits, {} reads",
        jobs.hits.len(),
        reads.len()
    );
    print_samples("serve set-up s", &setups);
    print_samples("serve cold job s", &cold);
    m.put("setup_s", median(&setups), "s");
    m.put("wall_s", median(&cold), "s");
    m.put(
        "users_per_s",
        world_users(ctx) as f64 / median(&cold),
        "1/s",
    );
    m.put("latency_p50_ms", median(&latencies), "ms");
    m.put("latency_p99_ms", quantile(&latencies, 0.99), "ms");
}

/// The traced pass: a server under `plan`, an idle read phase with no
/// job running, then both clients for at most two job pairs. Returns
/// the pass wall and the digest of the served warm-up artifacts.
pub fn traced(
    ctx: &Ctx,
    plan: ShardPlan,
    tr: &mut Tracer,
    checks: &mut Checks,
    m: &mut Metrics,
) -> (f64, u64) {
    let dir = ctx.dir.join("serve-traced");
    tr.begin("serve");
    let warm = match start(ctx, plan, &dir, tr) {
        Ok(w) => w,
        Err(e) => {
            tr.end();
            checks.ops(1, 1);
            checks.check(false, format!("serve: set-up: {e}"));
            return (0.0, 0);
        }
    };
    let idle = tr.time("harness.idle_reads", || {
        let targets = read_targets(&warm.server, warm.job);
        let (stop, busy) = (AtomicBool::new(false), AtomicBool::new(false));
        std::thread::scope(|scope| {
            let reader =
                scope.spawn(|| open_loop(warm.server.addr(), &targets, ctx.seed, &stop, &busy));
            std::thread::sleep(Duration::from_secs_f64(
                (ctx.seconds / 8.0).clamp(0.25, 2.0),
            ));
            stop.store(true, Ordering::Relaxed);
            reader.join().expect("open loop")
        })
    });
    let (jobs, reads) = load(ctx, &warm, Duration::ZERO, (2, 2), tr, checks);
    let cache_hits = warm.server.scheduler().cache_hits();
    tr.end();
    count_reads(&idle, checks);
    count_reads(&reads, checks);

    // The served bytes, in the artifact set the batch CLI writes.
    let files = warm
        .server
        .scheduler()
        .files(warm.job)
        .expect("warm-up artifacts");
    let batch: Vec<_> = files
        .iter()
        .filter(|(n, _)| !n.ends_with(".md") && n != "countries.json")
        .cloned()
        .collect();
    drop(warm);

    let p50 = |xs: Vec<f64>| median(&xs);
    let all: Vec<&ReadSample> = reads.iter().chain(&idle).filter(|r| r.ok).collect();
    m.put(
        "serve.connect_ms",
        p50(all.iter().map(|r| r.connect_ms).collect()),
        "ms",
    );
    m.put(
        "serve.ttfb_ms",
        p50(all.iter().map(|r| r.ttfb_ms).collect()),
        "ms",
    );
    for route in ["exhibit", "country", "ledger", "metrics", "metrics_prom"] {
        let service = all
            .iter()
            .filter(|r| r.route == route)
            .map(|r| r.service_ms)
            .collect();
        m.put(format!("serve.route_p50_ms.{route}"), p50(service), "ms");
    }
    let busy: Vec<f64> = reads
        .iter()
        .filter(|r| r.busy)
        .map(|r| r.latency_ms)
        .collect();
    let idle_lat: Vec<f64> = idle.iter().map(|r| r.latency_ms).collect();
    m.put("serve.read_busy_p99_ms", quantile(&busy, 0.99), "ms");
    m.put("serve.read_idle_p99_ms", quantile(&idle_lat, 0.99), "ms");
    m.put(
        "serve.queue_wait_ms",
        p50(jobs.cold.iter().map(|j| j.queue_wait * 1e3).collect()),
        "ms",
    );
    m.put(
        "serve.job_run_s",
        p50(jobs.cold.iter().map(|j| j.total - j.queue_wait).collect()),
        "s",
    );
    m.put(
        "serve.cache_hit_ms",
        p50(jobs.hits.iter().map(|j| j.total * 1e3).collect()),
        "ms",
    );
    m.put("serve.cache_hits", cache_hits as f64, "count");
    let late: Vec<f64> = reads.iter().chain(&idle).map(|r| r.late_ms).collect();
    m.put("serve.gen_late_ms", quantile(&late, 0.99), "ms");
    (tr.total("serve"), digest(&batch))
}

/// One untraced server run under the timed plan: set-up, one job pair
/// under reads, and the served-bytes check. Returns its wall and the
/// digest of the served warm-up artifacts.
pub fn reference(ctx: &Ctx, plan: ShardPlan, checks: &mut Checks) -> (f64, u64) {
    let started = Instant::now();
    let warm = match start(
        ctx,
        plan,
        &ctx.dir.join("serve-reference"),
        &mut Tracer::off(),
    ) {
        Ok(w) => w,
        Err(e) => {
            checks.ops(1, 1);
            checks.check(false, format!("serve: set-up: {e}"));
            return (0.0, 0);
        }
    };
    let (_, reads) = load(
        ctx,
        &warm,
        Duration::ZERO,
        (2, 2),
        &mut Tracer::off(),
        checks,
    );
    let wall = secs(started.elapsed());
    count_reads(&reads, checks);
    let expected = check_served(ctx, warm.server.addr(), warm.job, checks);
    (wall, expected)
}
