//! `federate`: the `stream` job run through
//! `bb_bench::federation::run_coordinator` and two `run_worker_process`
//! workers over loopback, all in this process.

use crate::common::{
    digest, measure, median, median_setup, print_samples, quantile, secs, Checks, Ctx, Metrics,
    SETUP_REPS,
};
use crate::layers::{Apportioned, Tracer};
use crate::stream;
use bb_bench::federation::{run_coordinator, run_worker_process, CoordinatorArgs, WorkerOptions};
use bb_dataset::World;
use bb_engine::ShardPlan;
use bb_study::StreamStudy;
use std::net::TcpListener;
use std::path::Path;
use std::time::{Duration, Instant};

/// Workers in the federation.
const WORKERS: u64 = 2;

/// One federated run.
pub struct Run {
    /// The coordinator's artifacts, sorted by name.
    pub files: Vec<(String, String)>,
    /// Time until the coordinator returned with merged artifacts.
    pub coordinator_s: f64,
    /// Time until the last worker returned.
    pub wall_s: f64,
}

/// A loopback port nothing listens on right now.
fn free_port() -> Result<u16, String> {
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    listener
        .local_addr()
        .map(|a| a.port())
        .map_err(|e| format!("local addr: {e}"))
}

/// Run the coordinator and two workers over `shards` shards, writing
/// into `dir`, and count leases and failures into `checks`.
pub fn run(ctx: &Ctx, shards: usize, dir: &Path, checks: &mut Checks) -> Result<Run, String> {
    let cfg = stream::world_config(ctx);
    let out = dir.join("out");
    let _ = std::fs::remove_dir_all(&out);
    let addr = format!("127.0.0.1:{}", free_port()?);
    let args = CoordinatorArgs {
        listen: addr.clone(),
        seed: cfg.seed,
        users: stream::users(ctx),
        days: cfg.days,
        fcc_users: cfg.fcc_users,
        shards,
        chaos: None,
        out: out.clone(),
        metrics: Some(out.join("metrics.json")),
        ledger: Some(out.join("ledger.jsonl")),
        lease_timeout: Duration::from_secs(60),
        io_deadline: Duration::from_secs(60),
        checkpoint: None,
        resume: false,
        quiet: true,
    };
    let started = Instant::now();
    let (coordinator, workers) = std::thread::scope(|scope| {
        let coordinator = scope.spawn(|| {
            let result = run_coordinator(&args);
            (result, started.elapsed())
        });
        let workers: Vec<_> = (0..WORKERS)
            .map(|i| {
                let addr = &addr;
                scope.spawn(move || {
                    // A fixed backoff seed keeps the reconnect schedule,
                    // and with it the exit lag, the same in every run.
                    let opts = WorkerOptions {
                        backoff_seed: 1 + i,
                        ..WorkerOptions::default()
                    };
                    run_worker_process(addr, &opts, true)
                })
            })
            .collect();
        let coordinator = coordinator.join().expect("coordinator thread");
        let workers: Vec<_> = workers
            .into_iter()
            .map(|w| w.join().expect("worker thread"))
            .collect();
        (coordinator, workers)
    });
    let wall_s = secs(started.elapsed());
    let (result, coordinator_elapsed) = coordinator;
    result.map_err(|e| format!("coordinator: {e}"))?;
    let mut computed = 0;
    for w in workers {
        computed += w.map_err(|e| format!("worker: {e}"))?;
    }

    let sidecar = std::fs::read_to_string(out.join("metrics.runtime.json"))
        .map_err(|e| format!("sidecar: {e}"))?;
    let sidecar: serde_json::Value =
        serde_json::from_str(&sidecar).map_err(|e| format!("sidecar: {e}"))?;
    let count = |key: &str| sidecar["federation"][key].as_u64().unwrap_or(u64::MAX);
    let leases = computed;
    let lost = count("reassignments") + count("rejected_frames") + count("rejected_results");
    checks.ops(shards as u64 + count("reassignments"), lost);
    checks.check(
        leases == shards as u64 + count("duplicates"),
        format!("federate: workers computed {leases} shards for {shards} merged"),
    );
    checks.check(
        count("workers") == WORKERS,
        "federate: not every worker joined",
    );

    let mut files = Vec::new();
    for entry in std::fs::read_dir(&out).map_err(|e| format!("read {}: {e}", out.display()))? {
        let entry = entry.map_err(|e| e.to_string())?;
        let name = entry.file_name().to_string_lossy().into_owned();
        if name != "metrics.runtime.json" {
            let content =
                std::fs::read_to_string(entry.path()).map_err(|e| format!("read {name}: {e}"))?;
            files.push((name, content));
        }
    }
    files.sort();
    Ok(Run {
        files,
        coordinator_s: secs(coordinator_elapsed),
        wall_s,
    })
}

/// Check the federation's artifacts byte for byte against an
/// in-process `stream` fold of the same job.
pub fn check_against_stream(
    ctx: &Ctx,
    plan: ShardPlan,
    files: &[(String, String)],
    checks: &mut Checks,
) {
    let world = World::new(stream::world_config(ctx));
    let (_, study, registry, _) =
        world.fold_users_traced(plan, StreamStudy::new, |s, r, u| s.absorb(r, u));
    stream::check_users(
        "federate reference",
        world.n_users(),
        &study,
        &registry,
        checks,
    );
    let mut expected = stream::artifacts(ctx.seed, &study, registry);
    expected.sort();
    checks.check(
        expected.len() == files.len(),
        format!(
            "federate: {} artifacts, stream wrote {}",
            files.len(),
            expected.len()
        ),
    );
    for ((name, want), (got_name, got)) in expected.iter().zip(files) {
        checks.check(
            name == got_name && want == got,
            format!("federate: {got_name} differs from stream's {name}"),
        );
    }
}

/// The timed run.
pub fn timed(ctx: &Ctx, plan: ShardPlan, checks: &mut Checks, m: &mut Metrics) {
    let cfg = stream::world_config(ctx);
    let (setup_s, n_users) = median_setup(SETUP_REPS, || World::new(cfg.clone()).n_users());
    let dir = ctx.subdir("federate");
    let (warm, timed) = measure(ctx, || run(ctx, plan.shards, &dir, checks));
    let (mut walls, mut merged, mut first_files) = (Vec::new(), Vec::new(), None);
    for (i, result) in std::iter::once(warm).chain(timed).enumerate() {
        match result {
            Ok(r) => {
                let first = first_files.get_or_insert_with(|| r.files.clone());
                checks.check(
                    *first == r.files,
                    "federate: artifacts differ between iterations",
                );
                if i > 0 {
                    walls.push(r.wall_s);
                    merged.push(r.coordinator_s);
                }
            }
            Err(e) => {
                checks.ops(1, 1);
                checks.check(false, format!("federate: {e}"));
            }
        }
    }
    println!("federate: {n_users} users");
    print_samples("federate iteration s", &walls);
    print_samples("federate time to merged artifacts s", &merged);
    if let Some(files) = &first_files {
        checks.pinned(ctx, "federate", digest(files));
        check_against_stream(ctx, plan, files, checks);
    }
    m.put("setup_s", setup_s, "s");
    m.put("wall_s", median(&walls), "s");
    m.put("users_per_s", n_users as f64 / median(&merged), "1/s");
    m.put("latency_p50_ms", median(&merged) * 1e3, "ms");
    m.put("latency_p99_ms", quantile(&merged, 0.99) * 1e3, "ms");
}

/// The traced pass: one federated run over `plan.shards` shards.
/// `stream_fold_s` is the in-process fold time of the same job, the
/// base of `federate.overhead_frac`. Returns the pass wall, its digest
/// and the run's split into time to merged artifacts and worker exit lag.
pub fn traced(
    ctx: &Ctx,
    plan: ShardPlan,
    stream_fold_s: f64,
    tr: &mut Tracer,
    checks: &mut Checks,
    m: &mut Metrics,
) -> (f64, u64, Apportioned) {
    let dir = ctx.subdir("federate-traced");
    tr.begin("federate");
    let result = tr.time("bb-federate.run_coordinator", || {
        run(ctx, plan.shards, &dir, checks)
    });
    let mut split = Vec::new();
    let files = match result {
        Ok(r) => {
            split.push(("bb-federate.coordinator", r.coordinator_s));
            split.push(("bb-federate.worker_exit_lag", r.wall_s - r.coordinator_s));
            m.put("federate.coordinator_s", r.coordinator_s, "s");
            m.put(
                "federate.overhead_frac",
                r.coordinator_s / stream_fold_s.max(1e-12) - 1.0,
                "fraction",
            );
            m.put(
                "federate.worker_exit_lag_s",
                r.wall_s - r.coordinator_s,
                "s",
            );
            r.files
        }
        Err(e) => {
            checks.ops(1, 1);
            checks.check(false, format!("federate: {e}"));
            Vec::new()
        }
    };
    tr.end();
    (tr.total("federate"), digest(&files), split)
}

/// One untraced federated run over the timed plan's shards.
pub fn reference(ctx: &Ctx, plan: ShardPlan, checks: &mut Checks) -> (f64, u64) {
    let dir = ctx.subdir("federate-reference");
    match run(ctx, plan.shards, &dir, checks) {
        Ok(r) => (r.wall_s, digest(&r.files)),
        Err(e) => {
            checks.ops(1, 1);
            checks.check(false, format!("federate: {e}"));
            (0.0, 0)
        }
    }
}
