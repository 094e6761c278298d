//! `paper`: the materialised paper pipeline, then the chaos sweep.
//!
//! Generation on 8 shards and 2 threads, every public `sec2`..`sec7`
//! exhibit function and the `ext` tables, rendering of every exhibit
//! file with `bb-report`, and `robustness::chaos_sweep` (omnibus,
//! severities 0/.25/.5/.75/1) on a reduced world.

use crate::common::{
    digest, measure, median, median_setup, print_samples, quantile, secs, write_artifacts, Checks,
    Ctx, Metrics, SETUP_REPS,
};
use crate::layers::Tracer;
use bb_dataset::{World, WorldConfig};
use bb_engine::ShardPlan;
use bb_netsim::chaos::{ChaosScenario, ChaosSpec};
use bb_report::{csv, gnuplot, json, markdown, text};
use bb_study::{ext, provenance, robustness, sec2, sec3, sec4, sec5, sec6, sec7, StudyReport};
use bb_trace::EventLog;
use std::path::Path;
use std::time::{Duration, Instant};

/// The chaos sweep's severity grid (the batch `--chaos-sweep` grid).
const GRID: &[f64] = &[0.0, 0.25, 0.5, 0.75, 1.0];

/// The paper-scale world with 1-day windows.
pub fn world_config(ctx: &Ctx) -> WorldConfig {
    let mut cfg = WorldConfig::paper_scale(ctx.seed);
    cfg.user_scale = if ctx.tiny { 3.0 } else { 60.0 };
    cfg.days = 1;
    cfg.fcc_users = if ctx.tiny { 40 } else { 600 };
    cfg
}

/// The seed of the `k`-th world a timed run iterates over; world 0 is
/// `seed` itself. Every world has the same user count.
fn world_seed(seed: u64, k: u64) -> u64 {
    seed.wrapping_add(k.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// The reduced world the chaos sweep regenerates per severity.
fn sweep_config(ctx: &Ctx) -> WorldConfig {
    let mut cfg = WorldConfig::small(ctx.seed);
    cfg.user_scale = if ctx.tiny { 1.0 } else { 8.0 };
    cfg.days = 1;
    cfg.fcc_users = if ctx.tiny { 20 } else { 100 };
    cfg
}

/// One analysis call: its exhibit name, wall, and matched pairs formed.
pub struct Call {
    /// `secN.function` or `ext.function`.
    pub name: &'static str,
    /// Wall time of the call.
    pub wall: Duration,
    /// Pairs formed by the natural experiments it ran.
    pub pairs: u64,
}

/// One pass of the pipeline.
pub struct Pass {
    /// Every artifact, in render order.
    pub files: Vec<(String, String)>,
    /// Time from the start to rendered and written exhibits.
    pub to_artifacts: Duration,
    /// Time until the chaos sweep returned.
    pub wall: Duration,
    /// Per analysis call timings.
    pub calls: Vec<Call>,
}

/// Matched pairs recorded in `ledger` after its first `before` events.
fn pairs_since(ledger: &EventLog, before: usize) -> u64 {
    ledger
        .events()
        .skip(before)
        .filter(|e| e.kind() == "match_audit")
        .filter_map(|e| e.get("pairs_formed").and_then(|v| v.as_u64()))
        .sum()
}

/// Run the whole pipeline once, checking its outputs into `checks`.
pub fn pass(
    world: &World,
    plan: ShardPlan,
    sweep: &WorldConfig,
    dir: &Path,
    tr: &mut Tracer,
    checks: &mut Checks,
) -> Pass {
    let started = Instant::now();
    let (dataset, registry, _) = tr.time("bb-dataset.generate_with_traced", || {
        world.generate_with_traced(plan)
    });
    let n_users = world.n_users();
    let observed = registry.counter("dataset.users.observed");
    let quarantined = registry.counter("dataset.quality.quarantined");
    checks.ops(n_users, n_users.saturating_sub(observed));
    checks.check(
        dataset.records.len() as u64 + quarantined == observed,
        format!(
            "paper: {} records + {quarantined} quarantined != {observed} observed",
            dataset.records.len()
        ),
    );

    let mut ledger = EventLog::new();
    provenance::log_data_quality(&mut ledger, &registry);
    let mut calls = Vec::new();
    macro_rules! call {
        ($name:literal, $f:expr) => {{
            let before = ledger.len();
            let t = Instant::now();
            let value = tr.time(concat!("bb-study.", $name), || $f(&mut ledger));
            calls.push(Call {
                name: $name,
                wall: t.elapsed(),
                pairs: pairs_since(&ledger, before),
            });
            value
        }};
    }
    let ds = &dataset;
    let profiles = &world.profiles;
    let report = StudyReport {
        fig1: call!("sec2.figure1", |l| sec2::figure1(ds, l)),
        fig2: call!("sec3.figure2", |l| sec3::figure2(ds, l)),
        fig3: call!("sec3.figure3", |l| sec3::figure3(ds, l)),
        table1: call!("sec3.table1", |l| sec3::table1(ds, l)),
        fig4: call!("sec3.figure4", |l| sec3::figure4(ds, l)),
        fig5: call!("sec3.figure5", |l| sec3::figure5(ds, l)),
        table2: call!("sec3.table2", |l| sec3::table2(ds, l)),
        fig6: call!("sec4.figure6", |l| sec4::figure6(ds, l)),
        year_experiment: call!("sec4.year_experiment", |l| sec4::year_experiment(ds, l)),
        table3: call!("sec5.table3", |l| sec5::table3(ds, l)),
        table4: call!("sec5.table4", |l| sec5::table4(ds, profiles, l)),
        fig7: call!("sec5.figure7", |l| sec5::figure7(ds, l)),
        fig8: call!("sec5.figure8", |l| sec5::figure8(ds, 30, l)),
        fig9: call!("sec5.figure9", |l| sec5::figure9(ds, 30, l)),
        fig10: call!("sec6.figure10", |l| sec6::figure10(ds, l)),
        table5: call!("sec6.table5", |_: &mut EventLog| sec6::table5(ds)),
        census: call!("sec6.census", |_: &mut EventLog| sec6::census(ds)),
        table6: call!("sec6.table6", |l| sec6::table6(ds, l)),
        table7: call!("sec7.table7", |l| sec7::table7(ds, l)),
        fig11: call!("sec7.figure11", |l| sec7::figure11(ds, l)),
        table8: call!("sec7.table8", |l| sec7::table8(ds, l)),
        fig12: call!("sec7.figure12", |l| sec7::figure12(ds, l)),
        india_vs_us: call!("sec7.india_vs_us", |l| sec7::india_vs_us(ds, l)),
    };
    let extensions = call!("ext.extension_table", |_: &mut EventLog| {
        ext::extension_table(ds)
    });
    let extras = format!(
        "{:#?}\n{:#?}\n{:#?}\n{:#?}\n{:#?}\n{:#?}\n",
        call!("ext.caps_experiment", |_: &mut EventLog| {
            ext::caps_experiment(ds)
        }),
        call!("ext.persona_breakdown", |_: &mut EventLog| {
            ext::persona_breakdown(ds)
        }),
        call!("ext.persona_experiment", |_: &mut EventLog| {
            ext::persona_experiment(ds)
        }),
        call!("ext.upload_breakdown", |_: &mut EventLog| {
            ext::upload_breakdown(ds)
        }),
        call!("ext.cdf_separations", |_: &mut EventLog| {
            ext::cdf_separations(ds)
        }),
        call!("ext.qed_cross_check", |_: &mut EventLog| {
            ext::qed_cross_check(ds)
        }),
    );

    let mut files = tr.time("bb-report.render", || {
        let mut files = render(&report);
        files.push(("ext.txt".into(), text::render_experiment_table(&extensions)));
        files.push(("ext_extras.txt".into(), extras));
        files.push((
            "table4_table5_census.txt".into(),
            format!(
                "{:#?}\n{:#?}\n{:#?}\n",
                report.table4, report.table5, report.census
            ),
        ));
        files.push(("provenance.md".into(), markdown::provenance(&ledger)));
        files.push(("ledger.jsonl".into(), ledger.to_jsonl()));
        files.push(("metrics.json".into(), registry.to_json()));
        files
    });
    let written = tr.time("harness.write", || write_artifacts(dir, &files));
    checks.ops(files.len() as u64, files.len() as u64 - written);
    let to_artifacts = started.elapsed();

    let matrix = tr.time("bb-study.robustness.chaos_sweep", || {
        robustness::chaos_sweep(sweep, ChaosScenario::Omnibus, GRID, plan)
    });
    let sweep_files = tr.time("bb-report.render", || {
        vec![
            ("chaos.json".to_string(), matrix.to_json()),
            ("chaos.md".to_string(), markdown::survival_matrix(&matrix)),
        ]
    });
    let written = tr.time("harness.write", || write_artifacts(dir, &sweep_files));
    checks.ops(sweep_files.len() as u64, sweep_files.len() as u64 - written);
    checks.check(!matrix.rows.is_empty(), "paper: empty survival matrix");
    files.extend(sweep_files);
    Pass {
        files,
        to_artifacts,
        wall: started.elapsed(),
        calls,
    }
}

/// Every exhibit file of a report, as the batch CLI writes them.
fn render(r: &StudyReport) -> Vec<(String, String)> {
    let pretty = |v: &serde_json::Value| serde_json::to_string_pretty(v).expect("serialise");
    let mut files = Vec::new();
    let cdfs = [
        &r.fig1.0, &r.fig1.1, &r.fig1.2, &r.fig4[0], &r.fig4[1], &r.fig7[0], &r.fig7[1],
        &r.fig10.0, &r.fig11, &r.fig12,
    ];
    for f in cdfs.into_iter().chain(r.fig8.iter()) {
        files.push((format!("{}.txt", f.id), text::render_cdf_figure(f)));
        files.push((format!("{}.csv", f.id), csv::cdf_to_csv(f)));
        files.push((format!("{}.gp", f.id), gnuplot::cdf_script(f)));
        files.push((format!("{}.json", f.id), pretty(&json::cdf_to_json(f))));
    }
    for f in r.fig2.iter().chain(r.fig3.iter()).chain(r.fig6.iter()) {
        files.push((format!("{}.txt", f.id), text::render_binned_figure(f)));
        files.push((format!("{}.csv", f.id), csv::binned_to_csv(f)));
        files.push((format!("{}.gp", f.id), gnuplot::binned_script(f)));
        files.push((format!("{}.json", f.id), pretty(&json::binned_to_json(f))));
    }
    for f in r.fig5.iter().chain([&r.fig9]) {
        files.push((format!("{}.txt", f.id), text::render_bar_figure(f)));
        files.push((format!("{}.csv", f.id), csv::bar_to_csv(f)));
        files.push((format!("{}.gp", f.id), gnuplot::bar_script(f)));
        files.push((format!("{}.json", f.id), pretty(&json::bar_to_json(f))));
    }
    for t in r.experiment_tables() {
        files.push((format!("{}.txt", t.id), text::render_experiment_table(t)));
        files.push((format!("{}.csv", t.id), csv::experiment_to_csv(t)));
        files.push((
            format!("{}.json", t.id),
            pretty(&json::experiment_to_json(t)),
        ));
    }
    files
}

/// The timed run.
pub fn timed(ctx: &Ctx, plan: ShardPlan, checks: &mut Checks, m: &mut Metrics) {
    let cfg = world_config(ctx);
    let (setup_s, n_users) = median_setup(SETUP_REPS, || World::new(cfg.clone()).n_users());
    let dir = ctx.subdir("paper");
    // The analysis cost depends on the data, so a run iterates over
    // several worlds and its medians cover all of them. The warm-up and
    // the first timed iteration both take world 0 (`--seed` itself),
    // which checks that the pipeline is deterministic.
    let mut calls = 0u64;
    let (warm, timed) = measure(ctx, || {
        let k = calls.saturating_sub(1);
        calls += 1;
        let seeded = Ctx {
            seed: world_seed(ctx.seed, k),
            ..ctx.clone()
        };
        let world = World::new(world_config(&seeded));
        let p = pass(
            &world,
            plan,
            &sweep_config(&seeded),
            &dir,
            &mut Tracer::off(),
            checks,
        );
        (k, digest(&p.files), secs(p.wall), secs(p.to_artifacts))
    });
    for (k, d, _, _) in &timed {
        if *k == 0 {
            checks.check(
                *d == warm.1,
                "paper: world 0 digest differs between iterations",
            );
        }
    }
    let walls: Vec<f64> = timed.iter().map(|t| t.2).collect();
    let to_artifacts: Vec<f64> = timed.iter().map(|t| t.3).collect();
    println!("paper: {n_users} users per world, {} worlds", calls - 1);
    print_samples("paper iteration s", &walls);
    print_samples("paper time to exhibits s", &to_artifacts);
    checks.pinned(ctx, "paper", warm.1);
    m.put("setup_s", setup_s, "s");
    m.put("wall_s", median(&walls), "s");
    m.put("users_per_s", n_users as f64 / median(&to_artifacts), "1/s");
    m.put("latency_p50_ms", median(&to_artifacts) * 1e3, "ms");
    m.put("latency_p99_ms", quantile(&to_artifacts, 0.99) * 1e3, "ms");
}

/// The traced pass: one pipeline pass under `plan` with a span around
/// every layer call, plus the per-severity generation replay behind
/// `robustness.generate_share`. Returns the pass wall and its digest.
pub fn traced(
    ctx: &Ctx,
    plan: ShardPlan,
    tr: &mut Tracer,
    checks: &mut Checks,
    m: &mut Metrics,
) -> (f64, u64) {
    let dir = ctx.subdir("paper-traced");
    let sweep = sweep_config(ctx);
    tr.begin("paper");
    let world = tr.time("bb-market.world_n_users", || {
        let world = World::new(world_config(ctx));
        world.n_users();
        world
    });
    let p = pass(&world, plan, &sweep, &dir, tr, checks);
    tr.end();
    let wall = tr.total("paper");

    m.put(
        "dataset.materialise_s",
        tr.total("bb-dataset.generate_with_traced"),
        "s",
    );
    for call in &p.calls {
        m.put(
            format!("study.{}_ms", call.name),
            secs(call.wall) * 1e3,
            "ms",
        );
    }
    let pairs: u64 = p.calls.iter().map(|c| c.pairs).sum();
    let matching: f64 = p
        .calls
        .iter()
        .filter(|c| c.pairs > 0)
        .map(|c| secs(c.wall))
        .sum();
    m.put("causal.pairs", pairs as f64, "count");
    m.put(
        "causal.us_per_pair",
        matching * 1e6 / pairs.max(1) as f64,
        "us",
    );
    let sweep_s = tr.total("bb-study.robustness.chaos_sweep");
    // The sweep is opaque from outside: replay its per-severity
    // generation to learn how much of it is regeneration.
    let generate_s: f64 = GRID
        .iter()
        .map(|&severity| {
            let mut cfg = sweep.clone();
            cfg.chaos = Some(ChaosSpec::new(ChaosScenario::Omnibus, severity));
            let world = World::new(cfg);
            let t = Instant::now();
            std::hint::black_box(world.generate_with(plan));
            secs(t.elapsed())
        })
        .sum();
    m.put("robustness.chaos_sweep_s", sweep_s, "s");
    m.put(
        "robustness.generate_share",
        generate_s / sweep_s.max(1e-12),
        "fraction",
    );
    m.put("report.render_ms", tr.total("bb-report.render") * 1e3, "ms");
    m.put(
        "report.bytes",
        p.files.iter().map(|(_, c)| c.len()).sum::<usize>() as f64,
        "count",
    );
    (wall, digest(&p.files))
}

/// One untraced pass under the timed plan: its wall and digest.
pub fn reference(ctx: &Ctx, plan: ShardPlan, checks: &mut Checks) -> (f64, u64) {
    let dir = ctx.subdir("paper-reference");
    let started = Instant::now();
    let world = World::new(world_config(ctx));
    let p = pass(
        &world,
        plan,
        &sweep_config(ctx),
        &dir,
        &mut Tracer::off(),
        checks,
    );
    (secs(started.elapsed()), digest(&p.files))
}
