//! The reproduction harness: regenerate every table and figure of the
//! paper from the synthetic world and compare against the published
//! values.
//!
//! ```text
//! cargo run --release -p bb-bench --bin reproduce -- [--scale N] [--days D] [--seed S] [--out DIR]
//!     [--threads T] [--shards S] [--users U]
//! ```
//!
//! Outputs: rendered text exhibits on stdout plus `DIR/` with one `.txt`,
//! `.csv` and `.json` file per exhibit, and `DIR/experiments.md` with the
//! paper-vs-measured comparison (the source of the repository's
//! `EXPERIMENTS.md`).
//!
//! `--threads`/`--shards` parallelise world generation through
//! `bb-engine`; the output is bit-identical for every plan. `--users U`
//! switches to the streaming scale path: the panel is never materialised —
//! `~U` users are folded shard by shard into `bb_study::StreamStudy`
//! sketches, and the headline exhibits (Fig. 1, Fig. 2, Fig. 7) are
//! rendered from the merged sketches in bounded memory.
//!
//! `--metrics PATH` writes the merged `bb-trace` registry — collection
//! heuristic counters, a pure function of the seed and therefore
//! byte-identical for every shard/thread plan — plus a plan-dependent
//! `.runtime.json` sidecar (wall times, steal counts). `--ledger PATH`
//! writes the provenance event log (JSONL, also plan-invariant):
//! one event per exhibit with input/drop accounting, one `match_audit`
//! per natural experiment, one `sign_test` per reported test.
//! `--chrome-trace PATH` writes a plan-dependent Chrome trace-event
//! file of the harness phases, loadable in Perfetto. `--quiet`
//! suppresses the per-phase progress lines on stderr.
//!
//! `--checkpoint DIR` commits every completed shard to `DIR` (atomic
//! tmp-file + rename, fsync'd manifest) and `--resume` restores the
//! committed shards of a matching earlier run instead of recomputing
//! them; mismatched or corrupt state is rejected and recomputed, never
//! merged. A resumed run's outputs are byte-identical to a cold run
//! under any `--threads`/`--shards` plan. `DIR/status.json` records the
//! `checkpoint.skipped` / `checkpoint.recomputed` /
//! `checkpoint.rejected` counters of the most recent run.
//! `--fail-after-shard N` is the crash-injection test hook: the process
//! aborts with exit code 83 once N shards are durably committed.

use bb_bench::{artifacts, REPRO_SEED};
use bb_dataset::{Dataset, UpgradeObservation, UserRecord, World, WorldConfig};
use bb_engine::{
    CheckpointParams, CheckpointReport, CheckpointStore, Mergeable, RunHooks, RunStats, ShardPlan,
    Snapshot,
};
use bb_market::MarketSurvey;
use bb_netsim::chaos::{ChaosScenario, ChaosSpec};
use bb_report::{bundle, csv, gnuplot, json, markdown, text};
use bb_serve::{Server, ServerConfig};
use bb_study::{provenance, StreamJob, StreamStudy, StudyReport};
use bb_trace::{EventLog, Registry, Timings};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

const USAGE: &str = "\
usage: reproduce [options]
       reproduce serve [serve options]
       reproduce coordinator [coordinator options]
       reproduce worker --connect ADDR [worker options]
       reproduce chaosnet --upstream ADDR [chaosnet options]

Regenerates the paper's tables and figures from the synthetic world.

options:
  --seed S        world seed (default: the pinned reproduction seed)
  --scale N       per-country user multiplier; finite and > 0 (default 40)
  --days D        observation window in days; at least 1 (default 7)
  --fcc N         size of the US-only FCC gateway cohort (default 600)
  --out DIR       output directory for exhibits (default: results)
  --sweep N       also run a robustness sweep over N regenerated seeds
  --chaos NAME    degrade collection with a deterministic fault scenario:
                  burst-outage, clock-skew, reset-storm, poll-churn,
                  probe-blackout, targeted-us, omnibus
  --severity S    chaos severity in [0, 1] (default 0.5; requires --chaos;
                  severity 0 is bit-identical to running without --chaos)
  --chaos-sweep   run the chaos campaign: the full experiment battery
                  across a severity grid of the --chaos scenario (default
                  omnibus), appended to experiments.md as the \"Robustness
                  under degraded collection\" section and written to
                  OUT/chaos.json (plan-invariant; incompatible with
                  --users)
  --threads T     worker threads; at least 1 (default 1)
  --shards S      shard count; at least 1 (default: derived from --threads)
  --users U       stream ~U users through the sketch study instead of
                  materialising the panel; at least 1
  --metrics PATH  write the merged bb-trace metrics registry as JSON to
                  PATH (byte-identical for any --threads/--shards plan)
                  plus a plan-dependent PATH-adjacent .runtime.json
                  sidecar with wall times and steal counts
  --ledger PATH   write the provenance event log as JSONL to PATH: per-
                  exhibit input/drop accounting, per-experiment matching
                  audits and sign-test inputs (byte-identical for any
                  --threads/--shards plan)
  --chrome-trace PATH
                  write a Chrome trace-event JSON file of the harness
                  phases to PATH (plan-dependent; open in Perfetto or
                  chrome://tracing)
  --checkpoint DIR
                  durably commit each completed generation shard to DIR
                  (atomic rename + fsync'd manifest); DIR/status.json
                  records the checkpoint.* counters of the run
  --resume        restore committed shards from --checkpoint DIR instead
                  of recomputing them; mismatched or corrupt state is
                  rejected and recomputed, and the outputs stay
                  byte-identical to a cold run under any plan
  --fail-after-shard N
                  crash-injection test hook: abort with exit code 83
                  once N shards are durably committed (requires
                  --checkpoint; N at least 1)
  --quiet         suppress per-phase progress lines on stderr
  -h, --help      print this help

serve options (reproduce serve: always-on query gateway over the
streaming path — POST /jobs, SSE progress at /jobs/{id}/events, cached
results at /metrics, /ledger, /exhibits/{id}, /countries/{cc},
/survival; responses are byte-identical to this harness's artifacts for
the same parameters):
  --port P        TCP port to bind on 127.0.0.1; 0 picks an ephemeral
                  port (default 8080; the bound address is printed on
                  stdout as 'bb-serve listening on http://HOST:PORT')
  --cache-dir DIR root of the manifest-keyed result cache and the
                  per-job checkpoint directories; must be non-empty
                  (default: serve-cache)
  --days D        observation window for every job, days (default 7)
  --fcc N         FCC gateway cohort size for every job (default 600)
  --seed S        seed for jobs that omit one (default: the pinned
                  reproduction seed)
  --users U       user count for jobs that omit one (default 2000)
  --threads T     worker threads; at least 1 (default 1)
  --shards S      shard count; at least 1 (default: from --threads);
                  part of the cache key
  --access-log F  append one JSONL line per request to F (ts, request
                  id, method, route template, path, status, bytes, µs);
                  live telemetry is also exposed at GET /metrics.prom
                  (Prometheus text) and GET /debug/telemetry (JSON)
  --quiet         suppress startup lines on stderr
  -h, --help      print this help

coordinator options (reproduce coordinator: serve shard leases to
`reproduce worker` processes over TCP and merge their snapshot-encoded
partials in shard order; metrics.json, the ledger, and every exhibit
are byte-identical to a single-process `reproduce --users` run of the
same seed/users/days/fcc/chaos — the bound address is printed on stdout
as 'bb-federate coordinator listening on HOST:PORT'):
  --listen ADDR   TCP bind address (default 127.0.0.1:0 = ephemeral)
  --users U       stream ~U users; at least 1 (default 2000)
  --workers K     expected worker count; only sets the default shard
                  count (K*4 oversubscription); at least 1 (default 2)
  --shards S      shard count; at least 1 (default: workers*4)
  --seed S        world seed (default: the pinned reproduction seed)
  --days D        observation window in days; at least 1 (default 7)
  --fcc N         US-only FCC gateway cohort size (default 600)
  --chaos NAME    degraded-collection scenario (see the batch options)
  --severity S    chaos severity in [0, 1] (default 0.5)
  --lease-timeout SECS
                  reassign a leased shard after SECS without a result
                  or heartbeat; at least 1 (default 30)
  --io-deadline SECS
                  drop a worker socket silent for SECS (half-open or
                  stalled peers become counted lease expiries instead
                  of hung threads); at least 1 (default 30)
  --checkpoint DIR
                  durably commit every merged shard payload to DIR as
                  it lands (atomic rename + fsync'd manifest), so a
                  killed coordinator can restart with --resume
  --resume        restore committed shards from --checkpoint DIR and
                  re-lease only the missing ranges; resumed output is
                  byte-identical to a cold single-process run
  --out DIR       output directory for exhibits (default: results)
  --metrics PATH  write the merged metrics registry to PATH plus a
                  federation .runtime.json sidecar (workers,
                  reassignments, rejections, reconnects, deadline
                  expiries, resumed shards — process-dependent)
  --ledger PATH   write the provenance event log as JSONL to PATH
  --quiet         suppress progress lines on stderr
  -h, --help      print this help

worker options (reproduce worker: claim shard ranges from a
coordinator, compute them with the same per-range fold the in-process
path uses, stream the partials back; run as many workers as you like;
losing the coordinator triggers a deterministic backoff reconnect loop
that re-sends the in-flight result on the new connection):
  --connect ADDR  coordinator address (required; HOST:PORT from the
                  coordinator's stdout line)
  --die-on-assign N
                  crash-injection test hook: abort without a result on
                  receiving the Nth shard assignment (N at least 1)
  --max-reconnects N
                  consecutive failed connect/handshake attempts before
                  giving up; a successful handshake resets the count;
                  0 disables reconnecting (default 5)
  --backoff-cap SECS
                  ceiling of the exponential reconnect backoff; at
                  least 1 (default 5)
  --backoff-seed S
                  seed of the deterministic backoff jitter (default:
                  the process id)
  --io-deadline SECS
                  treat a coordinator silent for SECS as lost and
                  reconnect; at least 1 (default 30)
  --quiet         suppress progress lines on stderr
  -h, --help      print this help

chaosnet options (reproduce chaosnet: a deterministic flaky-network
TCP proxy; point workers at its address and it forwards to --upstream,
injecting a seeded schedule of connection cuts, stalls, and delivery
delays — the bound address is printed on stdout as 'bb-chaosnet
listening on HOST:PORT -> UPSTREAM'; SIGTERM/SIGINT print the fault
stats and exit):
  --upstream ADDR coordinator address to forward to (required)
  --seed S        fault schedule seed (default: the pinned seed)
  --cut N         per-mille of connections severed mid-stream
                  (default 0)
  --stall N       per-mille of connections silenced while held open
                  (default 0)
  --delay N       per-mille of connections with per-chunk delivery
                  delay (default 0; cut+stall+delay at most 1000)
  --cut-bytes MAX max bytes forwarded before a cut or stall fires
                  (default 4096)
  --delay-ms MAX  max per-chunk delay in milliseconds (default 50)
  --quiet         suppress the stats line on stderr
  -h, --help      print this help
";

/// Exit code of the `--fail-after-shard` injected crash: distinguishable
/// from real failures (1) and usage errors (2) so the recovery tests can
/// assert the abort actually came from the hook.
const FAIL_AFTER_EXIT: i32 = 83;

/// A progress line on stderr, suppressed by `--quiet`.
macro_rules! progress {
    ($args:expr, $($t:tt)*) => {
        if !$args.quiet {
            eprintln!($($t)*);
        }
    };
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("coordinator") => {
            match CoordinatorCli::try_parse(argv.into_iter().skip(1)) {
                Ok(None) => print!("{USAGE}"),
                Ok(Some(args)) => {
                    if let Err(err) = bb_bench::federation::run_coordinator(&args) {
                        eprintln!("reproduce: coordinator: {err}");
                        std::process::exit(1);
                    }
                }
                Err(err) => {
                    eprint!("reproduce: {err}\n\n{USAGE}");
                    std::process::exit(2);
                }
            }
            return;
        }
        Some("worker") => {
            match WorkerCli::try_parse(argv.into_iter().skip(1)) {
                Ok(None) => print!("{USAGE}"),
                Ok(Some(args)) => {
                    if let Err(err) = bb_bench::federation::run_worker_process(
                        &args.connect,
                        &args.options,
                        args.quiet,
                    ) {
                        eprintln!("reproduce: worker: {err}");
                        std::process::exit(1);
                    }
                }
                Err(err) => {
                    eprint!("reproduce: {err}\n\n{USAGE}");
                    std::process::exit(2);
                }
            }
            return;
        }
        Some("chaosnet") => {
            match ChaosnetCli::try_parse(argv.into_iter().skip(1)) {
                Ok(None) => print!("{USAGE}"),
                Ok(Some(args)) => run_chaosnet(&args),
                Err(err) => {
                    eprint!("reproduce: {err}\n\n{USAGE}");
                    std::process::exit(2);
                }
            }
            return;
        }
        _ => {}
    }
    if argv.first().map(String::as_str) == Some("serve") {
        match ServeArgs::try_parse(argv.into_iter().skip(1)) {
            Ok(None) => {
                print!("{USAGE}");
                return;
            }
            Ok(Some(args)) => run_serve(&args),
            Err(err) => {
                eprint!("reproduce: {err}\n\n{USAGE}");
                std::process::exit(2);
            }
        }
        return;
    }
    let args = match Args::try_parse(argv.into_iter()) {
        Ok(Parsed::Help) => {
            print!("{USAGE}");
            return;
        }
        Ok(Parsed::Run(args)) => *args,
        Err(err) => {
            eprint!("reproduce: {err}\n\n{USAGE}");
            std::process::exit(2);
        }
    };
    let plan = shard_plan(args.threads, args.shards);
    if let Some(job) = &args.job {
        run_streaming(&args, plan, job);
        return;
    }
    progress!(
        args,
        "generating world: seed {}, user scale {}, {} days, {} FCC gateways ({} shards / {} threads)",
        args.seed,
        args.scale,
        args.days,
        args.fcc_users,
        plan.shards,
        plan.threads
    );
    let mut cfg = WorldConfig::paper_scale(args.seed);
    cfg.user_scale = args.scale;
    cfg.days = args.days;
    cfg.fcc_users = args.fcc_users;
    cfg.chaos = args.chaos;
    if let Some(spec) = &cfg.chaos {
        progress!(args, "chaos campaign active: {}", spec.label());
    }
    let world = World::new(cfg);
    let mut timings = Timings::new();
    timings.begin("reproduce");
    timings.begin("generate");
    let (survey, (records, upgrades), registry, stats, ckpt) = fold_world(
        &args,
        &world,
        plan,
        materialised_params(&args),
        Default::default,
        Dataset::collect,
    );
    let dataset = Dataset {
        records,
        upgrades,
        survey,
    };
    timings.end();
    progress!(
        args,
        "generated {} user records ({} Dasu / {} FCC), {} movers, {} markets in {:.1?}",
        dataset.records.len(),
        dataset.dasu().count(),
        dataset.fcc().count(),
        dataset.upgrades.len(),
        dataset.survey.len(),
        stats.total
    );

    let t1 = std::time::Instant::now();
    timings.begin("analysis");
    let mut ledger = EventLog::new();
    ledger
        .emit("dataset")
        .u64("seed", args.seed)
        .u64("records", dataset.records.len() as u64)
        .u64("dasu", dataset.dasu().count() as u64)
        .u64("fcc", dataset.fcc().count() as u64)
        .u64("movers", dataset.upgrades.len() as u64)
        .u64("markets", dataset.survey.len() as u64);
    provenance::log_data_quality(&mut ledger, &registry);
    let report = StudyReport::run_with_ledger(&dataset, &world.profiles, 30, &mut ledger);
    timings.end();
    progress!(args, "analysis pipeline finished in {:.1?}", t1.elapsed());
    let extensions = bb_study::ext::extension_table(&dataset);
    let separations = bb_study::ext::cdf_separations(&dataset);
    let personas = bb_study::ext::persona_breakdown(&dataset);
    let uploads = bb_study::ext::upload_breakdown(&dataset);

    timings.begin("render");
    let files = [
        ("metrics.json".to_string(), registry.to_json()),
        ("ledger.jsonl".to_string(), ledger.to_jsonl()),
    ];
    or_exit(artifacts::write_artifacts(
        &files,
        &args.out,
        args.metrics.as_deref(),
        &runtime_json(&stats, ckpt.as_ref()),
        args.ledger.as_deref(),
        args.quiet,
    ));
    write_exhibits(&report, &args.out);
    write(
        &args.out,
        "ext.txt",
        &text::render_experiment_table(&extensions),
    );
    let mut comparison = comparison_markdown(&report);
    comparison.push_str(&extensions_markdown(
        &extensions,
        &separations,
        &personas,
        &uploads,
    ));
    if args.sweep_seeds > 0 {
        progress!(
            args,
            "running robustness sweep over {} seeds…",
            args.sweep_seeds
        );
        // A reduced world per seed keeps the sweep affordable.
        let mut sweep_cfg = WorldConfig::small(args.seed);
        sweep_cfg.user_scale = (args.scale / 3.0).max(1.0);
        sweep_cfg.days = 3;
        sweep_cfg.fcc_users = args.fcc_users / 2;
        let rows = bb_study::robustness::seed_sweep(&sweep_cfg, args.sweep_seeds);
        use std::fmt::Write as _;
        let mut md = String::from("## Robustness across seeds\n\n");
        let _ = writeln!(
            md,
            "Each experiment pooled and re-run over {} regenerated worlds (reduced scale):\n",
            args.sweep_seeds
        );
        md.push_str(&bb_report::markdown::sweep_table(&rows));
        md.push('\n');
        comparison.push_str(&md);
    }
    if args.chaos_sweep {
        let scenario = args.chaos.map_or(ChaosScenario::Omnibus, |c| c.scenario);
        progress!(
            args,
            "running chaos campaign: scenario {} over severities {:?}…",
            scenario.name(),
            CHAOS_GRID
        );
        // Same reduced world the seed sweep uses — the campaign
        // regenerates it once per severity.
        let mut chaos_cfg = WorldConfig::small(args.seed);
        chaos_cfg.user_scale = (args.scale / 3.0).max(1.0);
        chaos_cfg.days = 3;
        chaos_cfg.fcc_users = args.fcc_users / 2;
        let matrix = bb_study::robustness::chaos_sweep(&chaos_cfg, scenario, CHAOS_GRID, plan);
        let mut md = String::from("## Robustness under degraded collection\n\n");
        let _ = writeln!(
            md,
            "The full experiment battery re-run while the `{}` fault scenario degrades \
             collection at increasing severity (reduced-scale world, deterministic in the seed):\n",
            matrix.scenario
        );
        md.push_str(&bb_report::markdown::survival_matrix(&matrix));
        md.push('\n');
        comparison.push_str(&md);
        write(&args.out, "chaos.json", &matrix.to_json());
        progress!(
            args,
            "wrote survival matrix to {}",
            args.out.join("chaos.json").display()
        );
    }
    comparison.push_str(&bb_report::markdown::provenance(&ledger));
    write(&args.out, "experiments.md", &comparison);
    println!("{comparison}");
    timings.end();
    timings.end();
    write_chrome_trace(&args, &timings);
    progress!(args, "wrote exhibits to {}", args.out.display());
}

/// The `--users U` scale path: stream the job's users through the
/// mergeable sketch study without materialising the panel.
fn run_streaming(args: &Args, plan: ShardPlan, job: &StreamJob) {
    if let Some(spec) = job.chaos() {
        progress!(args, "chaos campaign active: {}", spec.label());
    }
    let world = job.world();
    progress!(
        args,
        "streaming {} users: seed {}, {} days, {} shards / {} threads",
        world.n_users(),
        job.seed(),
        job.days(),
        plan.shards,
        plan.threads
    );
    let mut timings = Timings::new();
    timings.begin("reproduce");
    timings.begin("stream");
    let (_, study, registry, stats, ckpt) = fold_world(
        args,
        &world,
        plan,
        job.params(),
        StreamStudy::new,
        |s, r, u| s.absorb(r, u),
    );
    timings.end();
    let elapsed = stats.total;
    progress!(
        args,
        "streamed {} users ({} Dasu / {} FCC, {} movers) in {:.1?} — {:.0} users/sec",
        study.users,
        study.dasu_users,
        study.fcc_users,
        study.movers,
        elapsed,
        study.users as f64 / elapsed.as_secs_f64().max(1e-9)
    );
    timings.begin("render");
    or_exit(artifacts::write_artifacts(
        &bundle::stream_artifacts(job.seed(), &study, registry, None),
        &args.out,
        args.metrics.as_deref(),
        &runtime_json(&stats, ckpt.as_ref()),
        args.ledger.as_deref(),
        args.quiet,
    ));
    print!("{}", markdown::stream_population(&study));
    timings.end();
    timings.end();
    write_chrome_trace(args, &timings);
    progress!(args, "wrote streaming exhibits to {}", args.out.display());
}

struct Args {
    seed: u64,
    scale: f64,
    days: u32,
    fcc_users: usize,
    out: PathBuf,
    sweep_seeds: u64,
    /// `--chaos NAME --severity S`, validated.
    chaos: Option<ChaosSpec>,
    chaos_sweep: bool,
    threads: usize,
    shards: Option<usize>,
    /// The `--users U` streaming job, validated.
    job: Option<StreamJob>,
    metrics: Option<PathBuf>,
    ledger: Option<PathBuf>,
    chrome_trace: Option<PathBuf>,
    checkpoint: Option<PathBuf>,
    resume: bool,
    fail_after_shard: Option<u64>,
    quiet: bool,
}

/// Configuration of the `serve` subcommand.
struct ServeArgs {
    port: u16,
    cache_dir: PathBuf,
    days: u32,
    fcc_users: usize,
    seed: u64,
    users: u64,
    threads: usize,
    shards: Option<usize>,
    access_log: Option<PathBuf>,
    quiet: bool,
}

impl ServeArgs {
    /// Parse the flags after `serve`. `Ok(None)` means `--help`.
    fn try_parse(mut it: impl Iterator<Item = String>) -> Result<Option<ServeArgs>, String> {
        let mut args = ServeArgs {
            port: 8080,
            cache_dir: PathBuf::from("serve-cache"),
            days: WorldConfig::paper_scale(0).days,
            fcc_users: WorldConfig::paper_scale(0).fcc_users,
            seed: REPRO_SEED,
            users: 2000,
            threads: 1,
            shards: None,
            access_log: None,
            quiet: false,
        };
        while let Some(flag) = it.next() {
            match flag.as_str() {
                "--port" => {
                    args.port = num(&flag, &take(&mut it, &flag)?, "a port in [0, 65535]")?;
                }
                "--cache-dir" => {
                    let dir = take(&mut it, &flag)?;
                    if dir.is_empty() {
                        return Err("--cache-dir must not be empty".into());
                    }
                    args.cache_dir = PathBuf::from(dir);
                }
                "--days" => args.days = num(&flag, &take(&mut it, &flag)?, "an integer")?,
                "--fcc" => args.fcc_users = num(&flag, &take(&mut it, &flag)?, "an integer")?,
                "--seed" => args.seed = num(&flag, &take(&mut it, &flag)?, "an integer")?,
                "--users" => args.users = num(&flag, &take(&mut it, &flag)?, "an integer")?,
                "--threads" => {
                    args.threads = num(&flag, &take(&mut it, &flag)?, "an integer")?;
                    if args.threads == 0 {
                        return Err("--threads must be at least 1".into());
                    }
                }
                "--shards" => {
                    let shards: usize = num(&flag, &take(&mut it, &flag)?, "an integer")?;
                    if shards == 0 {
                        return Err("--shards must be at least 1".into());
                    }
                    args.shards = Some(shards);
                }
                "--access-log" => {
                    let path = take(&mut it, &flag)?;
                    if path.is_empty() {
                        return Err("--access-log must not be empty".into());
                    }
                    args.access_log = Some(PathBuf::from(path));
                }
                "--quiet" => args.quiet = true,
                "--help" | "-h" => return Ok(None),
                other => return Err(format!("unknown serve flag {other:?}")),
            }
        }
        // The default job must itself be a valid job.
        StreamJob::new(args.seed, args.users, args.days, args.fcc_users, None)?;
        Ok(Some(args))
    }
}

/// Parser for the `coordinator` subcommand. Produces the federation
/// module's argument struct directly.
struct CoordinatorCli;

impl CoordinatorCli {
    /// Parse the flags after `coordinator`. `Ok(None)` means `--help`.
    fn try_parse(
        mut it: impl Iterator<Item = String>,
    ) -> Result<Option<bb_bench::federation::CoordinatorArgs>, String> {
        let mut args = bb_bench::federation::CoordinatorArgs {
            listen: String::from("127.0.0.1:0"),
            seed: REPRO_SEED,
            users: 2000,
            days: WorldConfig::paper_scale(0).days,
            fcc_users: WorldConfig::paper_scale(0).fcc_users,
            shards: 0,
            chaos: None,
            out: PathBuf::from("results"),
            metrics: None,
            ledger: None,
            lease_timeout: std::time::Duration::from_secs(30),
            io_deadline: std::time::Duration::from_secs(30),
            checkpoint: None,
            resume: false,
            quiet: false,
        };
        let (mut workers, mut shards, mut chaos, mut severity) = (2usize, None, None, None);
        while let Some(flag) = it.next() {
            match flag.as_str() {
                "--listen" => {
                    args.listen = take(&mut it, &flag)?;
                    if args.listen.is_empty() {
                        return Err("--listen must not be empty".into());
                    }
                }
                "--seed" => args.seed = num(&flag, &take(&mut it, &flag)?, "an integer")?,
                "--users" => args.users = num(&flag, &take(&mut it, &flag)?, "an integer")?,
                "--days" => args.days = num(&flag, &take(&mut it, &flag)?, "an integer")?,
                "--fcc" => args.fcc_users = num(&flag, &take(&mut it, &flag)?, "an integer")?,
                "--workers" => {
                    workers = num(&flag, &take(&mut it, &flag)?, "an integer")?;
                    if workers == 0 {
                        return Err("--workers must be at least 1".into());
                    }
                }
                "--shards" => {
                    let n: usize = num(&flag, &take(&mut it, &flag)?, "an integer")?;
                    if n == 0 {
                        return Err("--shards must be at least 1".into());
                    }
                    shards = Some(n);
                }
                "--chaos" => chaos = Some(take(&mut it, &flag)?),
                "--severity" => {
                    severity = Some(num(&flag, &take(&mut it, &flag)?, "a number in [0, 1]")?);
                }
                "--lease-timeout" => {
                    let secs = num(&flag, &take(&mut it, &flag)?, "a whole number of seconds")?;
                    if secs == 0 {
                        return Err("--lease-timeout must be at least 1".into());
                    }
                    args.lease_timeout = std::time::Duration::from_secs(secs);
                }
                "--io-deadline" => {
                    let secs = num(&flag, &take(&mut it, &flag)?, "a whole number of seconds")?;
                    if secs == 0 {
                        return Err("--io-deadline must be at least 1".into());
                    }
                    args.io_deadline = std::time::Duration::from_secs(secs);
                }
                "--checkpoint" => {
                    let dir = take(&mut it, &flag)?;
                    if dir.is_empty() {
                        return Err("--checkpoint must not be empty".into());
                    }
                    args.checkpoint = Some(PathBuf::from(dir));
                }
                "--resume" => args.resume = true,
                "--out" => args.out = PathBuf::from(take(&mut it, &flag)?),
                "--metrics" => args.metrics = Some(PathBuf::from(take(&mut it, &flag)?)),
                "--ledger" => args.ledger = Some(PathBuf::from(take(&mut it, &flag)?)),
                "--quiet" => args.quiet = true,
                "--help" | "-h" => return Ok(None),
                other => return Err(format!("unknown coordinator flag {other:?}")),
            }
        }
        if args.resume && args.checkpoint.is_none() {
            return Err("--resume requires --checkpoint DIR".into());
        }
        args.shards = shards.unwrap_or(workers * 4);
        args.chaos = chaos_flags(chaos, severity)?;
        StreamJob::new(args.seed, args.users, args.days, args.fcc_users, args.chaos)?;
        Ok(Some(args))
    }
}

/// Configuration of the `worker` subcommand.
struct WorkerCli {
    connect: String,
    options: bb_bench::federation::WorkerOptions,
    quiet: bool,
}

impl WorkerCli {
    /// Parse the flags after `worker`. `Ok(None)` means `--help`.
    fn try_parse(mut it: impl Iterator<Item = String>) -> Result<Option<WorkerCli>, String> {
        let mut connect: Option<String> = None;
        let mut options = bb_bench::federation::WorkerOptions::default();
        let mut quiet = false;
        while let Some(flag) = it.next() {
            match flag.as_str() {
                "--connect" => {
                    let addr = take(&mut it, &flag)?;
                    if addr.is_empty() {
                        return Err("--connect must not be empty".into());
                    }
                    connect = Some(addr);
                }
                "--die-on-assign" => {
                    let n: u64 = num(&flag, &take(&mut it, &flag)?, "an assignment count")?;
                    if n == 0 {
                        return Err("--die-on-assign must be at least 1".into());
                    }
                    options.die_on_assign = Some(n);
                }
                "--max-reconnects" => {
                    options.max_reconnects = num(&flag, &take(&mut it, &flag)?, "a retry count")?;
                }
                "--backoff-cap" => {
                    let secs: u64 =
                        num(&flag, &take(&mut it, &flag)?, "a whole number of seconds")?;
                    if secs == 0 {
                        return Err("--backoff-cap must be at least 1".into());
                    }
                    options.backoff_cap = std::time::Duration::from_secs(secs);
                }
                "--backoff-seed" => {
                    options.backoff_seed = num(&flag, &take(&mut it, &flag)?, "an integer")?;
                }
                "--io-deadline" => {
                    let secs: u64 =
                        num(&flag, &take(&mut it, &flag)?, "a whole number of seconds")?;
                    if secs == 0 {
                        return Err("--io-deadline must be at least 1".into());
                    }
                    options.io_deadline = Some(std::time::Duration::from_secs(secs));
                }
                "--quiet" => quiet = true,
                "--help" | "-h" => return Ok(None),
                other => return Err(format!("unknown worker flag {other:?}")),
            }
        }
        let connect = connect.ok_or("worker requires --connect ADDR")?;
        Ok(Some(WorkerCli {
            connect,
            options,
            quiet,
        }))
    }
}

/// Configuration of the `chaosnet` subcommand.
struct ChaosnetCli {
    listen: String,
    upstream: std::net::SocketAddr,
    seed: u64,
    cut_per_mille: u64,
    stall_per_mille: u64,
    delay_per_mille: u64,
    cut_bytes_max: u64,
    delay_ms_max: u64,
    quiet: bool,
}

impl ChaosnetCli {
    /// Parse the flags after `chaosnet`. `Ok(None)` means `--help`.
    fn try_parse(mut it: impl Iterator<Item = String>) -> Result<Option<ChaosnetCli>, String> {
        let mut args = ChaosnetCli {
            listen: String::from("127.0.0.1:0"),
            upstream: "127.0.0.1:0".parse().expect("literal addr"),
            seed: REPRO_SEED,
            cut_per_mille: 0,
            stall_per_mille: 0,
            delay_per_mille: 0,
            cut_bytes_max: 4096,
            delay_ms_max: 50,
            quiet: false,
        };
        let mut upstream_set = false;
        while let Some(flag) = it.next() {
            match flag.as_str() {
                "--upstream" => {
                    let addr = take(&mut it, &flag)?;
                    args.upstream = addr
                        .parse()
                        .map_err(|e| format!("--upstream {addr:?}: {e}"))?;
                    upstream_set = true;
                }
                "--listen" => {
                    args.listen = take(&mut it, &flag)?;
                    if args.listen.is_empty() {
                        return Err("--listen must not be empty".into());
                    }
                }
                "--seed" => args.seed = num(&flag, &take(&mut it, &flag)?, "an integer")?,
                "--cut" => {
                    args.cut_per_mille = per_mille(&flag, &take(&mut it, &flag)?)?;
                }
                "--stall" => {
                    args.stall_per_mille = per_mille(&flag, &take(&mut it, &flag)?)?;
                }
                "--delay" => {
                    args.delay_per_mille = per_mille(&flag, &take(&mut it, &flag)?)?;
                }
                "--cut-bytes" => {
                    args.cut_bytes_max = num(&flag, &take(&mut it, &flag)?, "a byte count")?;
                    if args.cut_bytes_max == 0 {
                        return Err("--cut-bytes must be at least 1".into());
                    }
                }
                "--delay-ms" => {
                    args.delay_ms_max = num(&flag, &take(&mut it, &flag)?, "milliseconds")?;
                    if args.delay_ms_max == 0 {
                        return Err("--delay-ms must be at least 1".into());
                    }
                }
                "--quiet" => args.quiet = true,
                "--help" | "-h" => return Ok(None),
                other => return Err(format!("unknown chaosnet flag {other:?}")),
            }
        }
        if !upstream_set {
            return Err("chaosnet requires --upstream HOST:PORT".into());
        }
        if args.cut_per_mille + args.stall_per_mille + args.delay_per_mille > 1000 {
            return Err("--cut + --stall + --delay must not exceed 1000".into());
        }
        Ok(Some(args))
    }
}

/// The `chaosnet` subcommand: a standalone flaky-network proxy between
/// `reproduce worker` processes and a coordinator.
fn run_chaosnet(args: &ChaosnetCli) {
    // The library proxy always binds an ephemeral loopback port and
    // prints it on stdout; a fixed --listen would need a second
    // forwarding hop, so it is simply not supported.
    if args.listen != "127.0.0.1:0" {
        eprintln!("reproduce: chaosnet: only --listen 127.0.0.1:0 (ephemeral) is supported");
        std::process::exit(2);
    }
    let plan = bb_federate::ChaosPlan::seeded(
        args.seed,
        args.cut_per_mille,
        args.stall_per_mille,
        args.delay_per_mille,
        args.cut_bytes_max,
        args.delay_ms_max,
    );
    let proxy = match bb_federate::ChaosProxy::start(args.upstream, plan) {
        Ok(proxy) => proxy,
        Err(e) => {
            eprintln!("reproduce: chaosnet: start proxy: {e}");
            std::process::exit(1);
        }
    };
    if !args.quiet {
        eprintln!(
            "chaosnet: seed {}, cut {}‰, stall {}‰, delay {}‰",
            args.seed, args.cut_per_mille, args.stall_per_mille, args.delay_per_mille
        );
    }
    // The bound address on stdout, flushed — same scrape contract as the
    // coordinator and serve banners.
    println!(
        "bb-chaosnet listening on {} -> {}",
        proxy.local_addr(),
        args.upstream
    );
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    signals::install();
    while !signals::requested() {
        std::thread::sleep(std::time::Duration::from_millis(100));
    }
    let stats = proxy.stats();
    if !args.quiet {
        eprintln!(
            "chaosnet: {} connections, {} cuts, {} stalls, {} delayed chunks, {} bytes",
            stats.connections,
            stats.cuts,
            stats.stalls,
            stats.delayed_chunks,
            stats.bytes_forwarded
        );
    }
}

/// `--cut`/`--stall`/`--delay` take per-mille probabilities in [0, 1000].
fn per_mille(flag: &str, value: &str) -> Result<u64, String> {
    let n: u64 = num(flag, value, "a per-mille value in [0, 1000]")?;
    if n > 1000 {
        return Err(format!("{flag} must be at most 1000, got {n}"));
    }
    Ok(n)
}

/// The `serve` subcommand: start the gateway and run until killed.
fn run_serve(args: &ServeArgs) {
    let plan = shard_plan(args.threads, args.shards);
    let config = ServerConfig {
        port: args.port,
        cache_dir: args.cache_dir.clone(),
        days: args.days,
        fcc_users: args.fcc_users,
        plan,
        default_seed: args.seed,
        default_users: args.users,
        access_log: args.access_log.clone(),
        sse_keepalive: std::time::Duration::from_secs(10),
        debug_routes: false,
    };
    let mut server = match Server::start(config) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("reproduce: serve: {e}");
            std::process::exit(1);
        }
    };
    if !args.quiet {
        eprintln!(
            "serve: cache {} ({} shards / {} threads, {} days, {} FCC)",
            args.cache_dir.display(),
            plan.shards,
            plan.threads,
            args.days,
            args.fcc_users
        );
    }
    // The bound address on stdout, flushed, so a parent process (the CI
    // smoke job, the end-to-end tests) can scrape the ephemeral port.
    println!("bb-serve listening on http://{}", server.addr());
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    signals::install();
    while !signals::requested() {
        std::thread::sleep(std::time::Duration::from_millis(100));
    }
    if !args.quiet {
        eprintln!("serve: shutdown signal received, draining in-flight requests");
    }
    // Graceful path: stop accepting, drain the in-flight pool, flush the
    // access log. A job still computing keeps its per-shard checkpoints
    // (they are committed as shards finish), so a restarted server
    // resumes it from the last durable shard; exiting without joining
    // the scheduler thread is what lets a long job stop mid-run.
    server.shutdown();
    std::process::exit(0);
}

/// Minimal async-signal-safe SIGTERM/SIGINT latch. The binary links
/// libc through std anyway; `signal(2)` with a flag-setting handler is
/// the one legal thing a handler may do without locks or allocation.
mod signals {
    use std::sync::atomic::{AtomicBool, Ordering};

    static REQUESTED: AtomicBool = AtomicBool::new(false);

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }

    extern "C" fn on_signal(_signum: i32) {
        REQUESTED.store(true, Ordering::SeqCst);
    }

    /// Install the latch for SIGTERM and SIGINT.
    pub fn install() {
        unsafe {
            signal(SIGTERM, on_signal);
            signal(SIGINT, on_signal);
        }
    }

    /// True once either signal has been delivered.
    pub fn requested() -> bool {
        REQUESTED.load(Ordering::SeqCst)
    }
}

/// The outcome of a successful command-line parse.
enum Parsed {
    /// `--help`/`-h`: print the usage text and exit 0.
    Help,
    /// A validated run configuration.
    Run(Box<Args>),
}

/// The next token after `flag`, or a "missing value" error.
fn take(it: &mut impl Iterator<Item = String>, flag: &str) -> Result<String, String> {
    it.next().ok_or_else(|| format!("missing value for {flag}"))
}

/// Parse `raw` as the value of `flag`, describing the expected shape on error.
fn num<T: std::str::FromStr>(flag: &str, raw: &str, wants: &str) -> Result<T, String> {
    raw.parse()
        .map_err(|_| format!("{flag} takes {wants}, got {raw:?}"))
}

impl Args {
    fn try_parse(mut it: impl Iterator<Item = String>) -> Result<Parsed, String> {
        let mut args = Args {
            seed: REPRO_SEED,
            scale: WorldConfig::paper_scale(0).user_scale,
            days: WorldConfig::paper_scale(0).days,
            fcc_users: WorldConfig::paper_scale(0).fcc_users,
            out: PathBuf::from("results"),
            sweep_seeds: 0,
            chaos: None,
            chaos_sweep: false,
            threads: 1,
            shards: None,
            job: None,
            metrics: None,
            ledger: None,
            chrome_trace: None,
            checkpoint: None,
            resume: false,
            fail_after_shard: None,
            quiet: false,
        };
        let (mut chaos, mut severity, mut users) = (None, None, None);
        while let Some(flag) = it.next() {
            match flag.as_str() {
                "--seed" => args.seed = num(&flag, &take(&mut it, &flag)?, "an integer")?,
                "--scale" => {
                    let scale: f64 = num(&flag, &take(&mut it, &flag)?, "a number")?;
                    if !scale.is_finite() || scale <= 0.0 {
                        return Err(format!("--scale must be a finite number > 0, got {scale}"));
                    }
                    args.scale = scale;
                }
                "--days" => {
                    args.days = num(&flag, &take(&mut it, &flag)?, "an integer")?;
                    if args.days == 0 {
                        return Err("--days must be at least 1".into());
                    }
                }
                "--fcc" => args.fcc_users = num(&flag, &take(&mut it, &flag)?, "an integer")?,
                "--out" => args.out = PathBuf::from(take(&mut it, &flag)?),
                "--sweep" => {
                    args.sweep_seeds = num(&flag, &take(&mut it, &flag)?, "a seed count")?;
                }
                "--chaos" => chaos = Some(take(&mut it, &flag)?),
                "--severity" => {
                    severity = Some(num(&flag, &take(&mut it, &flag)?, "a number in [0, 1]")?);
                }
                "--chaos-sweep" => args.chaos_sweep = true,
                "--threads" => {
                    args.threads = num(&flag, &take(&mut it, &flag)?, "an integer")?;
                    if args.threads == 0 {
                        return Err("--threads must be at least 1".into());
                    }
                }
                "--shards" => {
                    let shards: usize = num(&flag, &take(&mut it, &flag)?, "an integer")?;
                    if shards == 0 {
                        return Err("--shards must be at least 1".into());
                    }
                    args.shards = Some(shards);
                }
                "--users" => users = Some(num(&flag, &take(&mut it, &flag)?, "an integer")?),
                "--metrics" => args.metrics = Some(PathBuf::from(take(&mut it, &flag)?)),
                "--ledger" => args.ledger = Some(PathBuf::from(take(&mut it, &flag)?)),
                "--chrome-trace" => {
                    args.chrome_trace = Some(PathBuf::from(take(&mut it, &flag)?));
                }
                "--checkpoint" => args.checkpoint = Some(PathBuf::from(take(&mut it, &flag)?)),
                "--resume" => args.resume = true,
                "--fail-after-shard" => {
                    let n: u64 = num(&flag, &take(&mut it, &flag)?, "a shard count")?;
                    if n == 0 {
                        return Err("--fail-after-shard must be at least 1".into());
                    }
                    args.fail_after_shard = Some(n);
                }
                "--quiet" => args.quiet = true,
                "--help" | "-h" => return Ok(Parsed::Help),
                other => return Err(format!("unknown flag {other:?}")),
            }
        }
        args.chaos = chaos_flags(chaos, severity)?;
        if let Some(users) = users {
            if args.chaos_sweep {
                return Err(
                    "--chaos-sweep needs the materialised experiment battery; drop --users".into(),
                );
            }
            let job = StreamJob::new(args.seed, users, args.days, args.fcc_users, args.chaos)?;
            args.job = Some(job);
        }
        if args.resume && args.checkpoint.is_none() {
            return Err("--resume requires --checkpoint DIR".into());
        }
        if args.fail_after_shard.is_some() && args.checkpoint.is_none() {
            return Err("--fail-after-shard requires --checkpoint DIR".into());
        }
        Ok(Parsed::Run(Box::new(args)))
    }
}

/// The shard plan `--threads T [--shards S]` imply. Output never
/// depends on it.
fn shard_plan(threads: usize, shards: Option<usize>) -> ShardPlan {
    shards.map_or_else(
        || ShardPlan::for_threads(threads),
        |s| ShardPlan::new(s, threads),
    )
}

/// The degradation campaign `--chaos NAME` at `--severity S` (default
/// 0.5) asks for; `None` = clean collection.
fn chaos_flags(name: Option<String>, severity: Option<f64>) -> Result<Option<ChaosSpec>, String> {
    if severity.is_some() && name.is_none() {
        return Err("--severity requires --chaos NAME".into());
    }
    StreamJob::parse_chaos(name.as_deref(), severity.unwrap_or(0.5))
}

/// Fold every user of `world` into `init()` accumulators: through the
/// `--checkpoint DIR` store of a run identified by `params` (exiting
/// 1 on a durable-side failure), in memory otherwise. The materialised
/// and the `--users` runs differ only in the accumulator.
#[allow(clippy::type_complexity)]
fn fold_world<A, I, F>(
    args: &Args,
    world: &World,
    plan: ShardPlan,
    params: CheckpointParams,
    init: I,
    absorb: F,
) -> (
    MarketSurvey,
    A,
    Registry,
    RunStats,
    Option<CheckpointReport>,
)
where
    A: Mergeable + Snapshot + Send,
    I: Fn() -> A + Sync,
    F: Fn(&mut A, &UserRecord, Option<&UpgradeObservation>) + Sync,
{
    let Some(dir) = &args.checkpoint else {
        let (survey, acc, registry, stats) = world.fold_users_traced(plan, init, absorb);
        return (survey, acc, registry, stats, None);
    };
    let store = CheckpointStore::new(dir, params);
    let fail_hook = fail_after_hook(args);
    let hooks = match fail_hook.as_ref() {
        Some(hook) => RunHooks::on_commit(hook),
        None => RunHooks::none(),
    };
    match world.fold_users_checkpointed(plan, &store, args.resume, hooks, init, absorb) {
        Ok((survey, acc, registry, stats, report)) => {
            report_checkpoint(args, &store, &report);
            (survey, acc, registry, stats, Some(report))
        }
        Err(e) => {
            eprintln!("reproduce: {e}");
            std::process::exit(1);
        }
    }
}

/// The checkpoint identity of a materialised run: everything the
/// deterministic output depends on (plus the pipeline path, since the
/// two paths accumulate different state); notably *not* the thread
/// count — shard boundaries are thread-invariant, so a resume may use a
/// different `--threads`. A `--users` run pins [`StreamJob::params`].
fn materialised_params(args: &Args) -> CheckpointParams {
    CheckpointParams::new()
        .set("path", "materialised")
        .set("seed", args.seed)
        .set("scale", args.scale)
        .set("days", args.days)
        .set("fcc", args.fcc_users)
        .set("users", "-")
        .set(
            "chaos",
            args.chaos.map_or_else(|| "-".into(), |c| c.label()),
        )
}

/// The `--fail-after-shard` crash injection: a commit observer that
/// aborts the process once N shards are durable. Policy lives here in
/// the CLI; the engine only exposes the `after_commit` hook.
fn fail_after_hook(args: &Args) -> Option<impl Fn(u64) + Sync> {
    let n = args.fail_after_shard?;
    let quiet = args.quiet;
    Some(move |committed: u64| {
        if committed >= n {
            if !quiet {
                eprintln!("reproduce: injected failure after {committed} committed shards");
            }
            std::process::exit(FAIL_AFTER_EXIT);
        }
    })
}

/// Log the checkpoint outcome and write `DIR/status.json` with the
/// `checkpoint.*` counters. The counters describe *this process* (a
/// resumed run skips, a cold run recomputes), so they go to the
/// checkpoint dir and the runtime sidecar — never the plan-invariant
/// metrics registry or the exhibits.
fn report_checkpoint(args: &Args, store: &CheckpointStore, report: &CheckpointReport) {
    progress!(
        args,
        "checkpoint: {} skipped, {} recomputed, {} rejected ({})",
        report.skipped,
        report.recomputed,
        report.rejected,
        store.dir().display()
    );
    for reason in &report.reasons {
        progress!(args, "checkpoint: rejected: {reason}");
    }
    let mut status = Registry::new();
    status.add("checkpoint.skipped", report.skipped);
    status.add("checkpoint.recomputed", report.recomputed);
    status.add("checkpoint.rejected", report.rejected);
    let path = store.dir().join("status.json");
    // Atomic (tmp → fsync → rename): a crash mid-write leaves the
    // previous status intact, never a torn file.
    or_exit(artifacts::write_atomic(&path, &status.to_json()));
}

fn write(out: &Path, name: &str, content: &str) {
    if let Err(e) = std::fs::write(out.join(name), content) {
        eprintln!("reproduce: write {name}: {e}");
        std::process::exit(1);
    }
}

/// Exit 1 with the message of a failed artifact write.
fn or_exit(result: Result<(), String>) {
    if let Err(e) = result {
        eprintln!("reproduce: {e}");
        std::process::exit(1);
    }
}

/// The plan-dependent `.runtime.json` scheduling sidecar: wall times and
/// steal counts depend on the plan and the machine, so they live here
/// rather than in the byte-stable metrics file. A checkpointed run adds
/// its `checkpoint.*` counters (process-dependent, like the wall times).
fn runtime_json(stats: &RunStats, ckpt: Option<&CheckpointReport>) -> String {
    let mut walls = String::new();
    for (i, (bucket, count)) in stats.shard_wall_us.buckets().enumerate() {
        if i > 0 {
            walls.push_str(", ");
        }
        let _ = write!(walls, "[{bucket}, {count}]");
    }
    let checkpoint = match ckpt {
        Some(report) => format!(
            ",\n  \"checkpoint\": {{\"skipped\": {}, \"recomputed\": {}, \"rejected\": {}}}",
            report.skipped, report.recomputed, report.rejected
        ),
        None => String::new(),
    };
    format!(
        "{{\n  \"plan\": {{\"shards\": {}, \"threads\": {}}},\n  \"items\": {},\n  \"steals\": {},\n  \"work_us\": {},\n  \"merge_us\": {},\n  \"total_us\": {},\n  \"shard_wall_us_log2_buckets\": [{walls}]{checkpoint}\n}}\n",
        stats.shards,
        stats.threads,
        stats.items,
        stats.steals,
        stats.work.as_micros(),
        stats.merge.as_micros(),
        stats.total.as_micros()
    )
}

/// The `--chaos-sweep` severity grid. Starts at the mandatory fault-free
/// baseline; the survival thresholds are derived against it.
const CHAOS_GRID: &[f64] = &[0.0, 0.25, 0.5, 0.75, 1.0];

/// Write the plan-dependent Chrome trace of the harness phases.
fn write_chrome_trace(args: &Args, timings: &Timings) {
    let Some(path) = &args.chrome_trace else {
        return;
    };
    or_exit(artifacts::write_atomic(path, &timings.to_chrome_trace()));
    progress!(
        args,
        "wrote chrome trace to {} (open in Perfetto or chrome://tracing)",
        path.display()
    );
}

fn write_exhibits(r: &StudyReport, out: &Path) {
    // CDF figures.
    let cdfs = [
        &r.fig1.0, &r.fig1.1, &r.fig1.2, &r.fig4[0], &r.fig4[1], &r.fig7[0], &r.fig7[1],
        &r.fig10.0, &r.fig11, &r.fig12,
    ];
    for f in cdfs.into_iter().chain(r.fig8.iter()) {
        write(out, &format!("{}.txt", f.id), &text::render_cdf_figure(f));
        write(out, &format!("{}.csv", f.id), &csv::cdf_to_csv(f));
        write(out, &format!("{}.gp", f.id), &gnuplot::cdf_script(f));
        write(
            out,
            &format!("{}.json", f.id),
            &serde_json::to_string_pretty(&json::cdf_to_json(f)).expect("serialise"),
        );
    }
    // Binned figures.
    for f in r.fig2.iter().chain(r.fig3.iter()).chain(r.fig6.iter()) {
        write(
            out,
            &format!("{}.txt", f.id),
            &text::render_binned_figure(f),
        );
        write(out, &format!("{}.csv", f.id), &csv::binned_to_csv(f));
        write(out, &format!("{}.gp", f.id), &gnuplot::binned_script(f));
        write(
            out,
            &format!("{}.json", f.id),
            &serde_json::to_string_pretty(&json::binned_to_json(f)).expect("serialise"),
        );
    }
    // Bar figures.
    for f in r.fig5.iter().chain([&r.fig9]) {
        write(out, &format!("{}.txt", f.id), &text::render_bar_figure(f));
        write(out, &format!("{}.csv", f.id), &csv::bar_to_csv(f));
        write(out, &format!("{}.gp", f.id), &gnuplot::bar_script(f));
        write(
            out,
            &format!("{}.json", f.id),
            &serde_json::to_string_pretty(&json::bar_to_json(f)).expect("serialise"),
        );
    }
    // Experiment tables.
    for t in r.experiment_tables() {
        write(
            out,
            &format!("{}.txt", t.id),
            &text::render_experiment_table(t),
        );
        write(out, &format!("{}.csv", t.id), &csv::experiment_to_csv(t));
        write(
            out,
            &format!("{}.json", t.id),
            &serde_json::to_string_pretty(&json::experiment_to_json(t)).expect("serialise"),
        );
    }
}

/// Render the paper-vs-measured comparison for every exhibit.
fn comparison_markdown(r: &StudyReport) -> String {
    let mut md = String::new();
    let _ = writeln!(md, "# Paper vs measured (seed-deterministic run)\n");
    let _ = writeln!(
        md,
        "Success criteria are *shape, ordering and significance*, not absolute"
    );
    let _ = writeln!(
        md,
        "traffic volumes — the substrate is a simulator (see DESIGN.md §1).\n"
    );

    // §2.2 / Figure 1.
    let s = &r.fig1.3;
    let _ = writeln!(md, "## Figure 1 — population characteristics (§2.2)\n");
    let _ = writeln!(md, "| quantity | paper | measured |");
    let _ = writeln!(md, "|---|---|---|");
    let _ = writeln!(
        md,
        "| median download capacity | 7.4 Mbps | {:.1} Mbps |",
        s.median_capacity_mbps
    );
    let _ = writeln!(
        md,
        "| capacity IQR | 14.3 Mbps | {:.1} Mbps |",
        s.capacity_iqr_mbps
    );
    let _ = writeln!(
        md,
        "| share below 1 Mbps | ~10% | {:.0}% |",
        s.frac_below_1mbps * 100.0
    );
    let _ = writeln!(
        md,
        "| share above 30 Mbps | ~10% | {:.0}% |",
        s.frac_above_30mbps * 100.0
    );
    let _ = writeln!(
        md,
        "| median latency | ~100 ms | {:.0} ms |",
        s.median_latency_ms
    );
    let _ = writeln!(
        md,
        "| share with latency > 500 ms | ~5% | {:.1}% |",
        s.frac_latency_above_500ms * 100.0
    );
    let _ = writeln!(
        md,
        "| share with loss > 1% | ~14% | {:.1}% |\n",
        s.frac_loss_above_1pct * 100.0
    );

    // Figure 2.
    let _ = writeln!(md, "## Figure 2 — usage vs capacity (§3.1)\n");
    let _ = writeln!(md, "| panel | paper r | measured r | bins |");
    let _ = writeln!(md, "|---|---|---|---|");
    let paper_r = [0.870, 0.913, 0.885, 0.890];
    for (fig, pr) in r.fig2.iter().zip(paper_r) {
        let _ = writeln!(
            md,
            "| {} | {:.3} | {} | {} |",
            fig.title,
            pr,
            fig.series[0]
                .r_log
                .map(|v| format!("{v:.3}"))
                .unwrap_or_else(|| "n/a".into()),
            fig.series[0].points.len()
        );
    }
    let _ = writeln!(md);

    // Table 1.
    let _ = writeln!(md, "## Table 1 — individual upgrades (§3.2)\n");
    let _ = writeln!(md, "| metric | paper %H (p) | measured %H (p) | pairs |");
    let _ = writeln!(md, "|---|---|---|---|");
    let paper_t1 = [
        ("Average usage", 66.8, 1.94e-25),
        ("Peak usage", 70.3, 1.13e-36),
    ];
    for ((label, ph, pp), row) in paper_t1.iter().zip(&r.table1.rows) {
        let _ = writeln!(
            md,
            "| {label} | {ph}% ({pp:.2e}) | {:.1}% ({:.2e}) | {} |",
            row.percent_holds, row.p_value, row.n_pairs
        );
    }
    let _ = writeln!(md);

    // Figure 4 medians.
    let _ = writeln!(md, "## Figure 4 — movers' demand CDFs (§3.2)\n");
    let _ = writeln!(
        md,
        "Paper: median mean usage roughly doubles (95 → 189 kbps); median"
    );
    let _ = writeln!(md, "peak usage more than triples (192 → 634 kbps).\n");
    for fig in &r.fig4 {
        if fig.series.len() == 2 {
            let _ = writeln!(
                md,
                "- {}: slow median {:.0} kbps → fast median {:.0} kbps (×{:.1})",
                fig.title,
                fig.series[0].median * 1e3,
                fig.series[1].median * 1e3,
                fig.series[1].median / fig.series[0].median.max(1e-9)
            );
        }
    }
    let _ = writeln!(md);

    // Table 2.
    for (label, table) in [("Dasu", &r.table2.0), ("FCC", &r.table2.1)] {
        let _ = writeln!(md, "## Table 2 ({label}) — matched capacity bins (§3.2)\n");
        let _ = writeln!(md, "```\n{}```\n", text::render_experiment_table(table));
    }
    let _ = writeln!(
        md,
        "Paper: the Dasu effect is strongest below ~6.4 Mbps and fades above"
    );
    let _ = writeln!(
        md,
        "12.8 Mbps; the FCC (US-only) effect persists across all bins.\n"
    );

    // §4.
    let _ = writeln!(md, "## §4 — longitudinal (Fig. 6 + per-tier experiment)\n");
    let share = bb_study::sec4::share_of_tiers_with_significant_change(&r.year_experiment);
    let _ = writeln!(
        md,
        "Paper: no significant per-tier change between 2011 and 2013."
    );
    let _ = writeln!(
        md,
        "Measured: {:.0}% of testable tiers show a conclusive change ({} tiers tested).\n",
        share * 100.0,
        r.year_experiment.rows.len()
    );

    // Table 3.
    let _ = writeln!(md, "## Table 3 — price of access (§5)\n");
    let _ = writeln!(
        md,
        "| comparison | paper %H (p) | measured %H (p) | pairs |"
    );
    let _ = writeln!(md, "|---|---|---|---|");
    let paper_t3 = [
        ("($0,$25] vs ($25,$60]", 63.4, 8.89e-22),
        ("($0,$25] vs ($60,∞)", 72.2, 5.40e-10),
    ];
    for (i, row) in r.table3.rows.iter().enumerate() {
        let (label, ph, pp) = paper_t3.get(i).copied().unwrap_or(("extra", 0.0, 1.0));
        let _ = writeln!(
            md,
            "| {label} | {ph}% ({pp:.2e}) | {:.1}% ({:.2e}) | {} |",
            row.percent_holds, row.p_value, row.n_pairs
        );
    }
    let _ = writeln!(md);

    // Table 4.
    let _ = writeln!(md, "## Table 4 — case study (§5)\n");
    let _ = writeln!(
        md,
        "| country | users (paper) | median cap (paper) | price (paper) | share of income (paper) | users | median cap | price | share |"
    );
    let _ = writeln!(md, "|---|---|---|---|---|---|---|---|---|");
    let paper_t4 = [
        ("BW", 67, 0.517, 100.0, 8.0),
        ("SA", 120, 4.21, 79.0, 3.3),
        ("US", 3759, 17.6, 53.0, 1.3),
        ("JP", 73, 29.0, 37.0, 1.3),
    ];
    for ((code, pu, pc, pp, ps), row) in paper_t4.iter().zip(&r.table4) {
        let _ = writeln!(
            md,
            "| {code} | {pu} | {pc} Mbps | ${pp} | {ps}% | {} | {:.2} Mbps | ${:.0} | {:.1}% |",
            row.n_users,
            row.median_capacity.mbps(),
            row.price.usd(),
            row.price_share_of_income * 100.0
        );
    }
    let _ = writeln!(md);

    // Figure 7b ordering.
    let _ = writeln!(md, "## Figures 7–9 — utilisation orderings (§5)\n");
    if r.fig7[1].series.len() == 4 {
        let medians: Vec<String> = r.fig7[1]
            .series
            .iter()
            .map(|s| format!("{} {:.0}%", s.label, s.median * 100.0))
            .collect();
        let _ = writeln!(
            md,
            "Paper: peak utilisation orders BW > SA > US > JP. Measured medians: {}.\n",
            medians.join(", ")
        );
    }

    // Figure 10 / Table 5 / census.
    let _ = writeln!(md, "## Figure 10 / Table 5 / census (§6)\n");
    let _ = writeln!(
        md,
        "Measured upgrade-cost CDF spans {} markets (median ${:.2}/Mbps).",
        r.fig10.0.series[0].n, r.fig10.0.series[0].median
    );
    let _ = writeln!(
        md,
        "Correlation census: paper 66% strong / 81% moderate; measured {:.0}% / {:.0}%.\n",
        r.census.share_strong * 100.0,
        r.census.share_moderate * 100.0
    );
    let _ = writeln!(
        md,
        "| region | paper >$1/$5/$10 | measured >$1/$5/$10 | countries |"
    );
    let _ = writeln!(md, "|---|---|---|---|");
    let paper_t5: &[(&str, &str)] = &[
        ("Africa", "100/84/74"),
        ("Asia (all)", "67/47/33"),
        ("Asia (developed)", "0/0/0"),
        ("Asia (developing)", "83/58/42"),
        ("Central America/Caribbean", "100/86/14"),
        ("Europe", "10/0/0"),
        ("Middle East", "86/57/43"),
        ("North America", "0/0/0"),
        ("South America", "78/55/33"),
    ];
    for row in &r.table5 {
        let paper = paper_t5
            .iter()
            .find(|(name, _)| *name == row.region)
            .map(|(_, v)| *v)
            .unwrap_or("—");
        let _ = writeln!(
            md,
            "| {} | {paper} | {:.0}/{:.0}/{:.0} | {} |",
            row.region,
            row.share_above_1 * 100.0,
            row.share_above_5 * 100.0,
            row.share_above_10 * 100.0,
            row.n_countries
        );
    }
    let _ = writeln!(md);

    // Table 6.
    let _ = writeln!(md, "## Table 6 — cost of increasing capacity (§6)\n");
    let paper_t6 = [
        ("w/ BitTorrent", vec![(53.8, 0.00717), (58.7, 0.0110)]),
        ("w/o BitTorrent", vec![(52.2, 0.0947), (56.3, 0.0265)]),
    ];
    for ((label, paper_rows), table) in paper_t6.iter().zip(&r.table6) {
        let _ = writeln!(md, "### {label}\n");
        let _ = writeln!(
            md,
            "| comparison | paper %H (p) | measured %H (p) | pairs |"
        );
        let _ = writeln!(md, "|---|---|---|---|");
        for (i, row) in table.rows.iter().enumerate() {
            let (ph, pp) = paper_rows.get(i).copied().unwrap_or((0.0, 1.0));
            let _ = writeln!(
                md,
                "| {} vs {} | {ph}% ({pp:.2e}) | {:.1}% ({:.2e}) | {} |",
                row.control, row.treatment, row.percent_holds, row.p_value, row.n_pairs
            );
        }
        let _ = writeln!(md);
    }

    // Table 7.
    let _ = writeln!(md, "## Table 7 — latency (§7.1)\n");
    let paper_t7 = [
        (63.5, 0.00825),
        (63.4, 0.00620),
        (59.4, 0.00766),
        (56.3, 0.0330),
    ];
    let _ = writeln!(
        md,
        "| treatment bin | paper %H (p) | measured %H (p) | pairs |"
    );
    let _ = writeln!(md, "|---|---|---|---|");
    for (i, row) in r.table7.rows.iter().enumerate() {
        let (ph, pp) = paper_t7.get(i).copied().unwrap_or((0.0, 1.0));
        let _ = writeln!(
            md,
            "| {} | {ph}% ({pp:.2e}) | {:.1}% ({:.2e}) | {} |",
            row.treatment, row.percent_holds, row.p_value, row.n_pairs
        );
    }
    if let Some(row) = &r.india_vs_us {
        let _ = writeln!(
            md,
            "\nIndia vs capacity-matched US (paper: lower demand 62% of the time,"
        );
        let _ = writeln!(
            md,
            "p < 0.001): measured {:.1}% ({:.2e}) over {} pairs.\n",
            row.percent_holds, row.p_value, row.n_pairs
        );
    }

    // Table 8.
    let _ = writeln!(md, "## Table 8 — packet loss (§7.2)\n");
    let paper_t8 = [
        (55.4, 5.85e-6),
        (53.4, 8.55e-4),
        (58.9, 2.16e-5),
        (53.8, 0.0360),
    ];
    let _ = writeln!(
        md,
        "| comparison | paper %H (p) | measured %H (p) | pairs |"
    );
    let _ = writeln!(md, "|---|---|---|---|");
    for (i, row) in r.table8.rows.iter().enumerate() {
        let (ph, pp) = paper_t8.get(i).copied().unwrap_or((0.0, 1.0));
        let _ = writeln!(
            md,
            "| {} vs {} | {ph}% ({pp:.2e}) | {:.1}% ({:.2e}) | {} |",
            row.control, row.treatment, row.percent_holds, row.p_value, row.n_pairs
        );
    }
    let _ = writeln!(md);
    md
}

/// Markdown for the beyond-the-paper extensions.
fn extensions_markdown(
    table: &bb_study::exhibit::ExperimentTable,
    separations: &Option<bb_study::ext::CdfSeparations>,
    personas: &[bb_study::ext::PersonaRow],
    uploads: &[bb_study::ext::UploadRow],
) -> String {
    let mut md = String::new();
    let _ = writeln!(md, "## Extensions (beyond the paper)\n");
    let _ = writeln!(
        md,
        "Usage caps (Chetty et al., §8), user personas (§10 future work),"
    );
    let _ = writeln!(
        md,
        "and the natural-experiment vs stratified-QED design comparison (§8):\n"
    );
    let _ = writeln!(md, "```\n{}```\n", text::render_experiment_table(table));
    if let Some(sep) = separations {
        let _ = writeln!(
            md,
            "KS separation of India vs the rest: latency D = {:.2} (p = {:.1e}), loss D = {:.2} (p = {:.1e}).\n",
            sep.latency.statistic, sep.latency.p_value, sep.loss.statistic, sep.loss.p_value
        );
    }
    if !uploads.is_empty() {
        let _ = writeln!(md, "| group | users | down (Mbps) | up (Mbps) | up/down |");
        let _ = writeln!(md, "|---|---|---|---|---|");
        for row in uploads {
            let _ = writeln!(
                md,
                "| {} | {} | {:.2} | {:.2} | {:.2} |",
                row.group, row.n_users, row.down_mbps, row.up_mbps, row.ratio
            );
        }
        let _ = writeln!(md);
    }
    if !personas.is_empty() {
        let _ = writeln!(
            md,
            "| persona | users | mean demand (Mbps) | BitTorrent share |"
        );
        let _ = writeln!(md, "|---|---|---|---|");
        for row in personas {
            let _ = writeln!(
                md,
                "| {} | {} | {:.2} | {:.0}% |",
                row.persona,
                row.n_users,
                row.mean_demand_mbps,
                row.bt_share * 100.0
            );
        }
        let _ = writeln!(md);
    }
    md
}
