//! `stream`: the `--users` scale path. `World::fold_users_traced` with
//! `StreamStudy::new`/`absorb` on 2 threads, then the exhibit bundle.

use crate::common::{
    digest, measure, median, median_setup, print_samples, quantile, secs, write_artifacts, Checks,
    Ctx, Metrics, SETUP_REPS,
};
use crate::layers::{self, FoldReplay, Tracer};
use bb_dataset::{World, WorldConfig};
use bb_engine::ShardPlan;
use bb_report::bundle;
use bb_study::{provenance, StreamStudy};
use bb_trace::{EventLog, Registry};
use std::path::Path;
use std::time::Instant;

/// FCC gateway cohort of every streamed job (the CLI default).
pub const FCC_USERS: usize = 600;

/// Requested users of the streamed job.
pub fn users(ctx: &Ctx) -> u64 {
    if ctx.tiny {
        1_500
    } else {
        10_000
    }
}

/// The streamed world: about 10k users with 1-day windows.
pub fn world_config(ctx: &Ctx) -> WorldConfig {
    let fcc = if ctx.tiny { 60 } else { FCC_USERS };
    WorldConfig::streaming(ctx.seed, users(ctx), 1, fcc)
}

/// The artifact set `reproduce --users` writes for a folded study:
/// `metrics.json`, `ledger.jsonl`, then the exhibit bundle.
pub fn artifacts(seed: u64, study: &StreamStudy, mut registry: Registry) -> Vec<(String, String)> {
    provenance::register_stream_metrics(&mut registry, study);
    let mut ledger = EventLog::new();
    provenance::stream_provenance(&mut ledger, seed, study, &registry);
    let mut files = vec![
        ("metrics.json".to_string(), registry.to_json()),
        ("ledger.jsonl".to_string(), ledger.to_jsonl()),
    ];
    files.extend(bundle::stream_exhibit_files(study));
    files
}

/// Count folded users against the world's user count.
pub fn check_users(
    name: &str,
    n_users: u64,
    study: &StreamStudy,
    registry: &Registry,
    checks: &mut Checks,
) {
    let observed = registry.counter("dataset.users.observed");
    let quarantined = registry.counter("dataset.quality.quarantined");
    checks.ops(n_users, n_users.saturating_sub(observed));
    checks.check(
        study.users + quarantined == observed,
        format!(
            "{name}: {} folded + {quarantined} quarantined != {observed} observed",
            study.users
        ),
    );
}

/// One fold and render: the artifacts and the wall.
fn pass(
    ctx: &Ctx,
    world: &World,
    plan: ShardPlan,
    dir: &Path,
    checks: &mut Checks,
) -> (Vec<(String, String)>, f64) {
    let started = Instant::now();
    let (_, study, registry, _) =
        world.fold_users_traced(plan, StreamStudy::new, |s, r, u| s.absorb(r, u));
    check_users("stream", world.n_users(), &study, &registry, checks);
    let files = artifacts(ctx.seed, &study, registry);
    let written = write_artifacts(dir, &files);
    checks.ops(files.len() as u64, files.len() as u64 - written);
    (files, secs(started.elapsed()))
}

/// The timed run.
pub fn timed(ctx: &Ctx, plan: ShardPlan, checks: &mut Checks, m: &mut Metrics) {
    let cfg = world_config(ctx);
    let (setup_s, (world, n_users)) = median_setup(SETUP_REPS, || {
        let world = World::new(cfg.clone());
        let n = world.n_users();
        (world, n)
    });
    let dir = ctx.subdir("stream");
    let (warm, timed) = measure(ctx, || {
        let (files, wall) = pass(ctx, &world, plan, &dir, checks);
        (digest(&files), wall)
    });
    for (d, _) in &timed {
        checks.check(*d == warm.0, "stream: digest differs between iterations");
    }
    let walls: Vec<f64> = timed.iter().map(|t| t.1).collect();
    println!("stream: {n_users} users");
    print_samples("stream iteration s", &walls);
    checks.pinned(ctx, "stream", warm.0);
    m.put("setup_s", setup_s, "s");
    m.put("wall_s", median(&walls), "s");
    m.put("users_per_s", n_users as f64 / median(&walls), "1/s");
    m.put("latency_p50_ms", median(&walls) * 1e3, "ms");
    m.put("latency_p99_ms", quantile(&walls, 0.99) * 1e3, "ms");
}

/// The traced pass: the fold replayed shard by shard under `plan`
/// ([`layers::fold_replay`]), then provenance, bundle render and write,
/// each in its span. Returns the pass wall, its digest and the fold's
/// measured split among layers.
pub fn traced(
    ctx: &Ctx,
    plan: ShardPlan,
    tr: &mut Tracer,
    checks: &mut Checks,
    m: &mut Metrics,
) -> (f64, u64, FoldReplay, layers::Apportioned) {
    let dir = ctx.subdir("stream-traced");
    tr.begin("stream");
    let world = tr.time("bb-market.world_n_users", || {
        let world = World::new(world_config(ctx));
        world.n_users();
        world
    });
    let replay = tr.time("bb-engine.run_sharded_traced", || {
        layers::fold_replay(&world, plan)
    });
    check_users(
        "stream",
        world.n_users(),
        &replay.study,
        &replay.registry,
        checks,
    );
    let mut registry = replay.registry.clone();
    let mut ledger = EventLog::new();
    tr.time("bb-study.provenance", || {
        provenance::register_stream_metrics(&mut registry, &replay.study);
        provenance::stream_provenance(&mut ledger, ctx.seed, &replay.study, &registry);
    });
    let mut files = vec![
        ("metrics.json".to_string(), registry.to_json()),
        ("ledger.jsonl".to_string(), ledger.to_jsonl()),
    ];
    files.extend(tr.time("bb-report.stream_exhibit_files", || {
        bundle::stream_exhibit_files(&replay.study)
    }));
    let written = tr.time("harness.write", || write_artifacts(&dir, &files));
    checks.ops(files.len() as u64, files.len() as u64 - written);
    tr.end();

    // The same cold market build the timed run reports as set-up.
    let (build, _) = median_setup(SETUP_REPS, || World::new(world_config(ctx)).n_users());
    m.put("market.build_ms", build * 1e3, "ms");
    replay.put_metrics(m);
    let split = replay.apportion();
    (tr.total("stream"), digest(&files), replay, split)
}

/// One untraced pass under the timed plan: its wall and digest.
pub fn reference(ctx: &Ctx, plan: ShardPlan, checks: &mut Checks) -> (f64, u64) {
    let dir = ctx.subdir("stream-reference");
    let started = Instant::now();
    let world = World::new(world_config(ctx));
    let (files, _) = pass(ctx, &world, plan, &dir, checks);
    (secs(started.elapsed()), digest(&files))
}
