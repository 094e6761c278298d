//! The repository benchmark.
//!
//! ```sh
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload stream --seed 1 --seconds 12 --trace 0
//! ```
//!
//! Workloads: `paper`, `stream`, `serve`, `federate` (see README.md).
//! `--trace 0` measures the workload for `--seconds` and prints every
//! end-to-end metric; `--trace 1` runs the traced census (every
//! workload once, spans around each layer call) and prints every
//! per-layer metric, a layer-share table per workload, and writes a
//! Chrome trace. The last stdout line is always the JSON result.
//! `--size tiny` shrinks every input for the smoke test.

mod common;
mod federate;
mod layers;
mod paper;
mod serve;
mod stream;

use bb_engine::ShardPlan;
use bb_trace::Timings;
use common::{Checks, Ctx, Metrics, DEFAULT_SEED};
use layers::Tracer;
use std::path::PathBuf;

/// The timed plan: 8 shards on 2 threads (at most `nproc` busy).
const PLAN: ShardPlan = ShardPlan {
    shards: 8,
    threads: 2,
};
/// The traced census's plan: a different cut, so its artifacts prove
/// plan invariance against the timed ones.
const TRACED_PLAN: ShardPlan = ShardPlan {
    shards: 12,
    threads: 2,
};
/// Where runs keep scratch artifacts and Chrome traces, relative to the
/// working directory.
const WORK_DIR: &str = ".perfbench";

const USAGE: &str = "usage: perfbench --workload paper|stream|serve|federate [--seed N] [--seconds S] [--trace 0|1] [--size full|tiny]";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    tiny: bool,
}

fn parse() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 20.0,
        trace: false,
        tiny: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds.is_finite() && args.seconds > 0.0) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                }
            }
            "--size" => {
                args.tiny = match value()?.as_str() {
                    "full" => false,
                    "tiny" => true,
                    other => return Err(format!("--size must be full or tiny, got {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !["paper", "stream", "serve", "federate"].contains(&args.workload.as_str()) {
        return Err(format!("unknown workload {:?}", args.workload));
    }
    Ok(args)
}

/// Measure one workload: every end-to-end metric.
fn timed(ctx: &Ctx, workload: &str, checks: &mut Checks) -> Metrics {
    let mut m = Metrics::default();
    match workload {
        "paper" => paper::timed(ctx, PLAN, checks, &mut m),
        "stream" => stream::timed(ctx, PLAN, checks, &mut m),
        "serve" => serve::timed(ctx, PLAN, checks, &mut m),
        _ => federate::timed(ctx, PLAN, checks, &mut m),
    }
    m.put("peak_rss_mb", common::peak_rss_mb(), "MiB");
    m
}

/// The traced census: one traced pass of every workload under
/// [`TRACED_PLAN`], plus an untraced pass of `workload` under [`PLAN`]
/// whose artifacts must match and whose wall is the tracing-overhead
/// base. Prints a layer-share table per workload and writes the Chrome
/// trace to `trace_path`.
fn traced(ctx: &Ctx, workload: &str, trace_path: &std::path::Path, checks: &mut Checks) -> Metrics {
    let mut m = Metrics::default();
    let (ref_wall, ref_digest) = match workload {
        "paper" => paper::reference(ctx, PLAN, checks),
        "stream" => stream::reference(ctx, PLAN, checks),
        "serve" => serve::reference(ctx, PLAN, checks),
        _ => federate::reference(ctx, PLAN, checks),
    };
    let mut tr = Tracer(Some(Timings::new()));
    let (paper_wall, paper_digest) = paper::traced(ctx, TRACED_PLAN, &mut tr, checks, &mut m);
    let (stream_wall, stream_digest, replay, stream_split) =
        stream::traced(ctx, TRACED_PLAN, &mut tr, checks, &mut m);
    layers::put_netsim_metrics(&mut m, &replay, if ctx.tiny { 200 } else { 3_000 });
    let (serve_wall, serve_digest) = serve::traced(ctx, TRACED_PLAN, &mut tr, checks, &mut m);
    let fold_s = common::secs(replay.stats.total);
    let (federate_wall, federate_digest, federate_split) =
        federate::traced(ctx, TRACED_PLAN, fold_s, &mut tr, checks, &mut m);
    checks.check(
        federate_digest == stream_digest,
        format!(
            "federate artifacts {federate_digest:016x} differ from stream's {stream_digest:016x}"
        ),
    );
    let (wall, digest) = match workload {
        "paper" => (paper_wall, paper_digest),
        "stream" => (stream_wall, stream_digest),
        // The idle read phase has no counterpart in the untraced pass.
        "serve" => (serve_wall - tr.total("harness.idle_reads"), serve_digest),
        _ => (federate_wall, federate_digest),
    };
    checks.check(
        digest == ref_digest,
        format!("{workload}: traced artifacts {digest:016x} differ from the timed plan's {ref_digest:016x}"),
    );
    for (name, d) in [
        ("paper", paper_digest),
        ("stream", stream_digest),
        ("serve", serve_digest),
        ("federate", federate_digest),
    ] {
        checks.pinned(ctx, name, d);
    }
    m.put(
        "trace.overhead_frac",
        wall / ref_wall.max(1e-12) - 1.0,
        "fraction",
    );

    let timings = tr.0.expect("tracing");
    print!("{}", layers::share_table(&timings, "paper", &[]));
    print!(
        "{}",
        layers::share_table(
            &timings,
            "stream",
            &[("bb-engine.run_sharded_traced", stream_split)]
        )
    );
    print!("{}", layers::share_table(&timings, "serve", &[]));
    print!(
        "{}",
        layers::share_table(
            &timings,
            "federate",
            &[("bb-federate.run_coordinator", federate_split)]
        )
    );
    match std::fs::write(trace_path, timings.to_chrome_trace()) {
        Ok(()) => println!("chrome trace: {}", trace_path.display()),
        Err(e) => checks.check(false, format!("write {}: {e}", trace_path.display())),
    }
    m
}

fn main() {
    let args = match parse() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let work = PathBuf::from(WORK_DIR);
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        tiny: args.tiny,
        dir: work.join(format!("run-{}", std::process::id())),
    };
    if let Err(e) = std::fs::create_dir_all(&ctx.dir) {
        eprintln!("perfbench: create {}: {e}", ctx.dir.display());
        std::process::exit(1);
    }
    println!("host: {}", common::host_stamp());
    let mut checks = Checks::new();
    let metrics = if args.trace {
        let trace = work.join(format!("trace-{}-{}.json", args.workload, args.seed));
        traced(&ctx, &args.workload, &trace, &mut checks)
    } else {
        timed(&ctx, &args.workload, &mut checks)
    };
    let _ = std::fs::remove_dir_all(&ctx.dir);
    println!("{}", metrics.result_line(&checks));
}
