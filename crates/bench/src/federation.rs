//! The federated streaming run: coordinator and worker entry points for
//! the `reproduce coordinator` / `reproduce worker` subcommands.
//!
//! `bb-federate` moves opaque shard payloads; this module fixes what a
//! payload *is* for the reproduction harness — the snapshot encoding of
//! one shard's `(StreamStudy, Registry)` partial, computed by
//! [`bb_dataset::World::stream_shard`], the exact per-range body every
//! in-process streaming fold uses. The job itself is a [`StreamJob`],
//! mapped to and from the wire [`JobSpec`] in one place (`to_wire`,
//! `from_wire`), so coordinator and workers derive the world exactly as
//! `reproduce --users` and the serve gateway do. The coordinator decodes
//! the payloads, folds them **in shard order** (the same
//! `acc.merge(next)` reduction as `bb_engine::run_sharded`), and hands
//! the merged study to `bb_report::bundle::stream_artifacts`, the
//! artifact assembly every streaming driver shares. Its checkpoint uses
//! the job's own parameters and the engine's restore/commit pair
//! ([`CheckpointStore::restore`]), the same protocol a single-process
//! `reproduce --users --checkpoint` run follows. Byte-identity of
//! `metrics.json`, the ledger, and every exhibit with a single-process
//! run therefore holds by construction — and the killed-worker battery
//! in `crates/bench/tests/federate.rs` plus the CI `federation-smoke`
//! job `cmp` it anyway.
//!
//! Process-dependent federation bookkeeping (reassignments, rejected
//! frames, per-worker counters) goes to the `.runtime.json` sidecar and
//! stderr — never into the deterministic artifacts, mirroring how the
//! checkpoint layer reports.

use crate::artifacts::write_artifacts;
use bb_engine::{CheckpointStore, Mergeable, ShardCommits, Snapshot};
use bb_federate::{run_worker, Coordinator, CoordinatorConfig, JobSpec};
use bb_netsim::chaos::ChaosSpec;
use bb_report::{bundle, markdown};
use bb_study::{StreamJob, StreamStudy};
use bb_trace::{Registry, Telemetry};
use std::net::TcpListener;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

pub use bb_federate::WorkerOptions;

/// Everything the `reproduce coordinator` subcommand needs.
#[derive(Clone, Debug)]
pub struct CoordinatorArgs {
    /// Bind address, e.g. `127.0.0.1:0`.
    pub listen: String,
    /// World seed.
    pub seed: u64,
    /// Requested (approximate) streamed user count.
    pub users: u64,
    /// Observation window in days.
    pub days: u32,
    /// US-only FCC gateway cohort size.
    pub fcc_users: usize,
    /// Shard count to cut the user space into.
    pub shards: usize,
    /// Optional degraded-collection campaign.
    pub chaos: Option<ChaosSpec>,
    /// Exhibit output directory.
    pub out: PathBuf,
    /// Optional metrics JSON path (plus `.runtime.json` sidecar).
    pub metrics: Option<PathBuf>,
    /// Optional provenance ledger JSONL path.
    pub ledger: Option<PathBuf>,
    /// Lease timeout before a silent shard is reassigned.
    pub lease_timeout: Duration,
    /// Read/write deadline on every worker socket.
    pub io_deadline: Duration,
    /// Durable checkpoint directory: every merged shard payload is
    /// persisted here as it lands, so a killed coordinator can restart
    /// with `resume` and re-lease only the missing ranges.
    pub checkpoint: Option<PathBuf>,
    /// Restore committed shards from `checkpoint` before serving.
    pub resume: bool,
    /// Suppress progress lines on stderr.
    pub quiet: bool,
}

/// The wire encoding of `job` over `n_items` users in `shards` shards.
fn to_wire(job: &StreamJob, n_items: u64, shards: usize) -> JobSpec {
    JobSpec {
        seed: job.seed(),
        users: job.users(),
        days: job.days(),
        fcc_users: job.fcc_users() as u64,
        chaos_scenario: job
            .chaos()
            .map_or_else(|| "-".into(), |c| c.scenario.name().to_string()),
        chaos_severity: job.chaos().map_or(0.0, |c| c.severity),
        n_items,
        shards: shards.max(1) as u64,
    }
}

/// Decode and validate the job a wire [`JobSpec`] carries (worker side).
fn from_wire(wire: &JobSpec) -> Result<StreamJob, String> {
    let fcc_users = usize::try_from(wire.fcc_users).map_err(|_| "fcc overflows usize")?;
    let scenario = Some(wire.chaos_scenario.as_str()).filter(|&name| name != "-");
    let chaos = StreamJob::parse_chaos(scenario, wire.chaos_severity)?;
    StreamJob::new(wire.seed, wire.users, wire.days, fcc_users, chaos)
}

/// Decode a shard payload. Forged or corrupt payloads must die here,
/// not at merge time: a full decode is the validation.
fn decode(payload: &str) -> Result<(StreamStudy, Registry), String> {
    <(StreamStudy, Registry)>::from_snapshot_str(payload).map_err(|e| e.to_string())
}

/// Run the coordinator to completion: serve shard leases, merge the
/// validated payloads in shard order, and write the same artifact set
/// as a single-process `reproduce --users` run.
pub fn run_coordinator(args: &CoordinatorArgs) -> Result<(), String> {
    let job = StreamJob::new(args.seed, args.users, args.days, args.fcc_users, args.chaos)?;
    // Bind before deriving the world: workers started alongside the
    // coordinator queue in the backlog instead of being refused.
    let listener =
        TcpListener::bind(&args.listen).map_err(|e| format!("bind {}: {e}", args.listen))?;
    if let Some(spec) = job.chaos() {
        progress(
            args.quiet,
            &format!("chaos campaign active: {}", spec.label()),
        );
    }
    let n_items = job.world().n_users();
    let telemetry = Arc::new(Telemetry::system());
    let mut coordinator_cfg = CoordinatorConfig::new(to_wire(&job, n_items, args.shards));
    coordinator_cfg.lease_timeout = args.lease_timeout;
    coordinator_cfg.io_deadline = args.io_deadline;
    let coordinator = Coordinator::new(listener, coordinator_cfg, Arc::clone(&telemetry));
    let commits = restore_checkpoint(args, &job, n_items, &coordinator)?;
    let addr = coordinator
        .local_addr()
        .map_err(|e| format!("local addr: {e}"))?;
    progress(
        args.quiet,
        &format!(
            "federating {n_items} users over {} shards: seed {}, {} days, lease {:?}",
            coordinator.shard_count(),
            args.seed,
            args.days,
            args.lease_timeout
        ),
    );
    // The bound address on stdout, flushed, so parents (tests, the CI
    // smoke job) can scrape the ephemeral port — same contract as
    // `bb-serve listening on …`.
    println!("bb-federate coordinator listening on {addr}");
    use std::io::Write as _;
    let _ = std::io::stdout().flush();

    let started = std::time::Instant::now();
    let validate = |_: u64, payload: &str| decode(payload).map(|_| ());
    // Durability hook: each freshly merged payload becomes a committed
    // shard file plus a manifest update, atomically, as it lands.
    let persist = move |index: usize, payload: &str| match &commits {
        Some(commits) => commits.commit(index, payload).map_err(|e| e.to_string()),
        None => Ok(()),
    };
    let (payloads, report) = coordinator.run_with(validate, persist);
    let counters = [
        ("workers", report.workers_seen),
        ("reassignments", report.reassignments),
        ("rejected_frames", report.frames_rejected),
        ("rejected_results", report.results_rejected),
        ("duplicates", report.duplicate_results),
        ("reconnects", report.worker_reconnects),
        ("deadline_expiries", report.deadline_expiries),
        ("resumed_shards", report.resumed_shards),
    ];
    let line: Vec<String> = counters
        .iter()
        .map(|(name, n)| format!("{n} {}", name.replace('_', " ")))
        .collect();
    progress(args.quiet, &format!("federation: {}", line.join(", ")));
    for reason in &report.reasons {
        progress(args.quiet, &format!("federation: {reason}"));
    }

    let mut partials = Vec::with_capacity(payloads.len());
    for (shard, payload) in payloads.iter().enumerate() {
        partials.push(decode(payload).map_err(|e| format!("decode merged shard {shard}: {e}"))?);
    }
    // Identical to `run_sharded`'s in-order reduction.
    let (study, registry) = partials
        .into_iter()
        .reduce(|mut acc, next| {
            acc.merge(next);
            acc
        })
        .ok_or("no shards to merge")?;
    let elapsed = started.elapsed();
    progress(
        args.quiet,
        &format!(
            "merged {} users ({} Dasu / {} FCC, {} movers) from {} workers in {:.1?}",
            study.users,
            study.dasu_users,
            study.fcc_users,
            study.movers,
            report.workers_seen,
            elapsed
        ),
    );

    // From here on: exactly the single-process streaming output path,
    // with the federation counters as the runtime sidecar.
    let fields: Vec<String> = counters
        .iter()
        .map(|(name, n)| format!("\"{name}\": {n}"))
        .collect();
    let runtime = format!("{{\n  \"federation\": {{{}}}\n}}\n", fields.join(", "));
    write_artifacts(
        &bundle::stream_artifacts(job.seed(), &study, registry, None),
        &args.out,
        args.metrics.as_deref(),
        &runtime,
        args.ledger.as_deref(),
        args.quiet,
    )?;
    print!("{}", markdown::stream_population(&study));
    progress(
        args.quiet,
        &format!("wrote federated exhibits to {}", args.out.display()),
    );
    Ok(())
}

/// Set up coordinator durability through the engine's restore/commit
/// pair, pinned to the job's checkpoint parameters. On `--resume`,
/// every committed shard that survives digest *and* full decode
/// validation is preloaded into the coordinator's table, so only the
/// missing ranges are leased out.
fn restore_checkpoint(
    args: &CoordinatorArgs,
    job: &StreamJob,
    n_items: u64,
    coordinator: &Coordinator,
) -> Result<Option<ShardCommits>, String> {
    let Some(dir) = &args.checkpoint else {
        return Ok(None);
    };
    let store = CheckpointStore::new(dir, job.params());
    let n_shards = coordinator.shard_count();
    let (restored, report, commits) = store
        .restore(n_items, n_shards, args.resume, |index, text| {
            decode(text)
                .map(|_| text.to_string())
                .map_err(|e| format!("shard {index} undecodable ({e})"))
        })
        .map_err(|e| e.to_string())?;
    for reason in &report.reasons {
        progress(args.quiet, &format!("resume: {reason}, recomputing"));
    }
    if args.resume {
        let restored = restored
            .into_iter()
            .enumerate()
            .filter_map(|(index, text)| Some((index, text?)));
        let n_restored = coordinator.preload(restored);
        progress(
            args.quiet,
            &format!(
                "resume: restored {n_restored} of {n_shards} shards from {}",
                dir.display()
            ),
        );
    }
    Ok(Some(commits))
}

/// Run one worker process against `addr` until the coordinator finishes
/// it. Returns the number of shards computed.
pub fn run_worker_process(addr: &str, opts: &WorkerOptions, quiet: bool) -> Result<u64, String> {
    let report = run_worker(addr, opts, |wire: &JobSpec| {
        let world = from_wire(wire)?.world();
        let derived = world.n_users();
        if derived != wire.n_items {
            // Refuse rather than contaminate the merge: a worker whose
            // derivation disagrees would fold different users.
            return Err(format!(
                "user-count mismatch: coordinator pinned {} users, this worker derives {derived}",
                wire.n_items
            ));
        }
        if !quiet {
            eprintln!(
                "worker: joined job seed {} ({} users, {} shards)",
                wire.seed, wire.n_items, wire.shards
            );
        }
        Ok(move |_shard: u64, range: std::ops::Range<u64>| {
            let partial: (StreamStudy, Registry) =
                world.stream_shard(range, StreamStudy::new, |s, r, u| s.absorb(r, u));
            partial.to_snapshot_string()
        })
    })?;
    if !quiet {
        eprintln!(
            "worker {}: computed {} shard(s) over {} reconnect(s), coordinator finished",
            report.worker, report.computed, report.reconnects
        );
    }
    Ok(report.computed)
}

fn progress(quiet: bool, line: &str) {
    if !quiet {
        eprintln!("reproduce: {line}");
    }
}
