//! Crash-and-recover integration tests of the `reproduce` binary.
//!
//! The scenario under test is the real one: a long run dies partway
//! through (simulated by `--fail-after-shard`, which aborts with exit
//! code 83 once N shards are durably committed), a second invocation
//! resumes from the checkpoint directory — possibly under a different
//! thread count — and every output artifact (`metrics.json`, the
//! `--ledger` JSONL, `experiments.md`, the exhibit files, stdout) is
//! byte-for-byte identical to an uninterrupted cold run. The metamorphic
//! cases then corrupt the checkpoint between the crash and the resume
//! and require a counted, logged rejection with identical output.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// Exit code of the injected crash (see `FAIL_AFTER_EXIT` in the binary).
const FAIL_AFTER_EXIT: i32 = 83;

fn reproduce(args: &[&str], dir: &Path) -> Output {
    Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("spawn reproduce")
}

fn tmpdir(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create test dir");
    dir
}

/// Compare two output trees byte-for-byte (same file set, same bytes).
fn assert_trees_identical(a: &Path, b: &Path) {
    let list = |root: &Path| -> Vec<String> {
        let mut names: Vec<String> = std::fs::read_dir(root)
            .expect("read output dir")
            .map(|e| e.expect("dir entry").file_name().into_string().unwrap())
            .collect();
        names.sort();
        names
    };
    let (fa, fb) = (list(a), list(b));
    assert_eq!(fa, fb, "different file sets in {a:?} vs {b:?}");
    for name in fa {
        let ba = std::fs::read(a.join(&name)).expect("read a");
        let bb = std::fs::read(b.join(&name)).expect("read b");
        assert_eq!(ba, bb, "{name} differs between {a:?} and {b:?}");
    }
}

fn read(dir: &Path, rel: &str) -> Vec<u8> {
    std::fs::read(dir.join(rel)).unwrap_or_else(|e| panic!("read {rel}: {e}"))
}

fn status_json(dir: &Path, ckpt: &str) -> String {
    String::from_utf8(read(dir, &format!("{ckpt}/status.json"))).expect("status.json is UTF-8")
}

/// Extract a `checkpoint.*` counter from `status.json` (the file is the
/// stable registry JSON: `"checkpoint.skipped": N,`).
fn counter(status: &str, name: &str) -> u64 {
    status
        .lines()
        .find(|l| l.contains(&format!("\"{name}\"")))
        .and_then(|l| l.split(':').nth(1))
        .map(|v| v.trim().trim_end_matches(',').parse().expect("counter"))
        .unwrap_or_else(|| panic!("{name} missing from status.json: {status}"))
}

/// One crash-then-resume cycle on the streaming path under the given
/// plan, asserting byte-identity against an uninterrupted run.
fn crash_resume_streaming(dir: &Path, label: &str, shards: &str, threads_resume: &str) {
    let base = ["--users", "300", "--days", "1", "--fcc", "20", "--quiet"];
    let cold_out = format!("cold-{label}");
    let warm_out = format!("warm-{label}");
    let ckpt = format!("ck-{label}");

    // Uninterrupted baseline (no checkpointing at all).
    let mut args: Vec<&str> = base.to_vec();
    let cold_metrics = format!("{cold_out}/metrics.json");
    let cold_ledger = format!("{cold_out}/ledger.jsonl");
    args.extend(["--shards", shards, "--threads", "2", "--out", &cold_out]);
    args.extend(["--metrics", &cold_metrics, "--ledger", &cold_ledger]);
    let out = reproduce(&args, dir);
    assert_eq!(
        out.status.code(),
        Some(0),
        "cold {label}: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    // Crash partway: die after 2 durable shard commits.
    let mut args: Vec<&str> = base.to_vec();
    args.extend(["--shards", shards, "--threads", "2", "--out", &warm_out]);
    args.extend(["--checkpoint", &ckpt, "--fail-after-shard", "2"]);
    let out = reproduce(&args, dir);
    assert_eq!(
        out.status.code(),
        Some(FAIL_AFTER_EXIT),
        "crash {label}: expected the injected-failure exit code, got {:?}\nstderr: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        dir.join(&ckpt).join("manifest").exists(),
        "{label}: a crashed run must leave a durable manifest behind"
    );

    // Resume — deliberately under a different thread count.
    let mut args: Vec<&str> = base.to_vec();
    let warm_metrics = format!("{warm_out}/metrics.json");
    let warm_ledger = format!("{warm_out}/ledger.jsonl");
    args.extend(["--shards", shards, "--threads", threads_resume]);
    args.extend(["--out", &warm_out, "--checkpoint", &ckpt, "--resume"]);
    args.extend(["--metrics", &warm_metrics, "--ledger", &warm_ledger]);
    let out = reproduce(&args, dir);
    assert_eq!(
        out.status.code(),
        Some(0),
        "resume {label}: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    // The recovery actually used the checkpoint…
    let status = status_json(dir, &ckpt);
    assert_eq!(counter(&status, "checkpoint.skipped"), 2, "{status}");
    assert_eq!(counter(&status, "checkpoint.rejected"), 0, "{status}");

    // …and every artifact matches the uninterrupted run byte-for-byte.
    assert_eq!(
        read(dir, &cold_metrics),
        read(dir, &warm_metrics),
        "{label}: metrics.json must not betray the crash"
    );
    assert_eq!(
        read(dir, &cold_ledger),
        read(dir, &warm_ledger),
        "{label}: provenance ledger must not betray the crash"
    );
    let cold_stdout = reproduce(
        &{
            let mut a: Vec<&str> = base.to_vec();
            a.extend(["--shards", shards, "--threads", "2", "--out", &cold_out]);
            a
        },
        dir,
    )
    .stdout;
    assert_eq!(out.stdout, cold_stdout);
    // Exclude the metrics/ledger (already compared, and the sidecar is
    // plan-dependent by design): compare the exhibit files only.
    for name in [
        "fig1a.csv",
        "fig1a.json",
        "fig2a.csv",
        "fig7a.csv",
        "fig7b.json",
    ] {
        assert_eq!(
            read(dir, &format!("{cold_out}/{name}")),
            read(dir, &format!("{warm_out}/{name}")),
            "{label}: exhibit {name} must not betray the crash"
        );
    }
}

#[test]
fn streaming_crash_resume_is_byte_identical_under_two_plans() {
    let dir = tmpdir("ckpt-cli-streaming");
    // Plan 1: 6 shards, resumed with more threads than the crash run.
    crash_resume_streaming(&dir, "p6", "6", "4");
    // Plan 2: different shard count entirely, resumed single-threaded.
    crash_resume_streaming(&dir, "p3", "3", "1");
}

#[test]
fn materialised_crash_resume_is_byte_identical() {
    let dir = tmpdir("ckpt-cli-materialised");
    let base = ["--scale", "2", "--days", "1", "--fcc", "30", "--quiet"];

    let mut args: Vec<&str> = base.to_vec();
    args.extend(["--shards", "5", "--threads", "2", "--out", "cold"]);
    args.extend([
        "--metrics",
        "cold/metrics.json",
        "--ledger",
        "cold/ledger.jsonl",
    ]);
    let out = reproduce(&args, &dir);
    assert_eq!(
        out.status.code(),
        Some(0),
        "cold: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let cold_stdout = out.stdout;

    let mut args: Vec<&str> = base.to_vec();
    args.extend(["--shards", "5", "--threads", "2", "--out", "warm"]);
    args.extend(["--checkpoint", "ck", "--fail-after-shard", "3"]);
    let out = reproduce(&args, &dir);
    assert_eq!(out.status.code(), Some(FAIL_AFTER_EXIT), "crash run");

    let mut args: Vec<&str> = base.to_vec();
    args.extend(["--shards", "5", "--threads", "3", "--out", "warm"]);
    args.extend(["--checkpoint", "ck", "--resume"]);
    args.extend([
        "--metrics",
        "warm/metrics.json",
        "--ledger",
        "warm/ledger.jsonl",
    ]);
    let out = reproduce(&args, &dir);
    assert_eq!(
        out.status.code(),
        Some(0),
        "resume: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    let status = status_json(&dir, "ck");
    assert_eq!(counter(&status, "checkpoint.skipped"), 3, "{status}");
    assert_eq!(counter(&status, "checkpoint.recomputed"), 2, "{status}");

    // experiments.md is the materialised path's flagship artifact; it and
    // the full exhibit tree must match the uninterrupted run, except the
    // plan-dependent runtime sidecar.
    assert_eq!(out.stdout, cold_stdout, "stdout must not betray the crash");
    let strip_sidecars = |out_dir: &str| {
        let _ = std::fs::remove_file(dir.join(out_dir).join("metrics.runtime.json"));
    };
    strip_sidecars("cold");
    strip_sidecars("warm");
    assert_trees_identical(&dir.join("cold"), &dir.join("warm"));
}

#[test]
fn corrupted_checkpoint_is_rejected_counted_and_recovered_from() {
    let dir = tmpdir("ckpt-cli-corrupt");
    let base = ["--users", "300", "--days", "1", "--fcc", "20", "--quiet"];

    // Baseline without checkpointing.
    let mut args: Vec<&str> = base.to_vec();
    args.extend(["--shards", "4", "--threads", "2", "--out", "cold"]);
    args.extend(["--metrics", "cold/metrics.json"]);
    let out = reproduce(&args, &dir);
    assert_eq!(out.status.code(), Some(0), "cold run");

    // Complete checkpointed run (nothing skipped yet).
    let mut args: Vec<&str> = base.to_vec();
    args.extend(["--shards", "4", "--threads", "2", "--out", "full"]);
    args.extend(["--checkpoint", "ck"]);
    let out = reproduce(&args, &dir);
    assert_eq!(out.status.code(), Some(0), "checkpointed run");

    // Corrupt one shard (truncation) and break another's checksum.
    let shard0 = dir.join("ck/shard-00000.ckpt");
    let content = std::fs::read_to_string(&shard0).expect("read shard 0");
    std::fs::write(&shard0, &content[..content.len() / 2]).expect("truncate shard 0");
    let shard2 = dir.join("ck/shard-00002.ckpt");
    let mut bytes = std::fs::read(&shard2).expect("read shard 2");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01;
    std::fs::write(&shard2, &bytes).expect("flip shard 2");

    // Resume (not quiet: the rejection reasons must be logged).
    let out = reproduce(
        &[
            "--users",
            "300",
            "--days",
            "1",
            "--fcc",
            "20",
            "--shards",
            "4",
            "--threads",
            "2",
            "--out",
            "warm",
            "--checkpoint",
            "ck",
            "--resume",
            "--metrics",
            "warm/metrics.json",
        ],
        &dir,
    );
    assert_eq!(
        out.status.code(),
        Some(0),
        "corruption must degrade to recomputation, not failure: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("rejected:"),
        "rejection reasons must be logged, got: {stderr}"
    );
    assert!(!stderr.contains("panicked"), "{stderr}");

    let status = status_json(&dir, "ck");
    assert_eq!(counter(&status, "checkpoint.rejected"), 2, "{status}");
    assert_eq!(counter(&status, "checkpoint.skipped"), 2, "{status}");
    assert_eq!(counter(&status, "checkpoint.recomputed"), 2, "{status}");

    // Output unharmed despite the damage.
    assert_eq!(
        read(&dir, "cold/metrics.json"),
        read(&dir, "warm/metrics.json"),
        "corruption must never alter the output"
    );
}

/// Re-seal a checkpoint file body with a freshly computed trailing
/// `!checksum` line, so doctored content passes every integrity check and
/// only semantic validation can reject it.
fn seal(body: &str) -> String {
    format!(
        "{body}!checksum {:016x}\n",
        bb_engine::fnv1a64(body.as_bytes())
    )
}

/// The file content minus its trailing `!checksum` line.
fn unsealed(content: &str) -> &str {
    &content[..content.rfind("!checksum").expect("checksum line")]
}

#[test]
fn foreign_accuracy_shard_is_rejected_and_recomputed_not_a_panic() {
    let dir = tmpdir("ckpt-cli-alpha");
    let base = ["--users", "300", "--days", "1", "--fcc", "20", "--quiet"];

    // Baseline without checkpointing.
    let mut args: Vec<&str> = base.to_vec();
    args.extend(["--shards", "4", "--threads", "2", "--out", "cold"]);
    args.extend(["--metrics", "cold/metrics.json"]);
    let out = reproduce(&args, &dir);
    assert_eq!(out.status.code(), Some(0), "cold run");

    // Complete checkpointed run.
    let mut args: Vec<&str> = base.to_vec();
    args.extend(["--shards", "4", "--threads", "2", "--out", "full"]);
    args.extend(["--checkpoint", "ck"]);
    let out = reproduce(&args, &dir);
    assert_eq!(out.status.code(), Some(0), "checkpointed run");

    // Doctor shard 1's sketches to a *valid but foreign* accuracy
    // (α 0.005 → 0.01) and re-seal both the shard file and the manifest
    // digest that vouches for it. Every checksum now passes; before the
    // restore-time α check this state sailed into `merge`, whose α assert
    // killed the worker thread and the whole resume with it.
    let ours = format!("alpha {:016x}", 0.005f64.to_bits());
    let foreign = format!("alpha {:016x}", 0.01f64.to_bits());
    let shard1 = dir.join("ck/shard-00001.ckpt");
    let content = std::fs::read_to_string(&shard1).expect("read shard 1");
    let body = unsealed(&content).replace(&ours, &foreign);
    assert_ne!(seal(&body), content, "shard must contain α fields");
    let old_digest = format!("{:016x}", bb_engine::fnv1a64(unsealed(&content).as_bytes()));
    let new_digest = format!("{:016x}", bb_engine::fnv1a64(body.as_bytes()));
    std::fs::write(&shard1, seal(&body)).expect("write doctored shard");
    let manifest = dir.join("ck/manifest");
    let content = std::fs::read_to_string(&manifest).expect("read manifest");
    let body = unsealed(&content).replace(&old_digest, &new_digest);
    assert_ne!(seal(&body), content, "manifest must reference shard 1");
    std::fs::write(&manifest, seal(&body)).expect("write doctored manifest");

    // Resume (not quiet: the rejection reason must be logged).
    let out = reproduce(
        &[
            "--users",
            "300",
            "--days",
            "1",
            "--fcc",
            "20",
            "--shards",
            "4",
            "--threads",
            "2",
            "--out",
            "warm",
            "--checkpoint",
            "ck",
            "--resume",
            "--metrics",
            "warm/metrics.json",
        ],
        &dir,
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(0),
        "a foreign-accuracy sketch must degrade to recomputation, not kill the run: {stderr}"
    );
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(
        stderr.contains("does not match this build's"),
        "the α mismatch must be the logged rejection reason, got: {stderr}"
    );

    let status = status_json(&dir, "ck");
    assert_eq!(counter(&status, "checkpoint.rejected"), 1, "{status}");
    assert_eq!(counter(&status, "checkpoint.skipped"), 3, "{status}");
    assert_eq!(counter(&status, "checkpoint.recomputed"), 1, "{status}");

    // Output unharmed despite the doctored shard.
    assert_eq!(
        read(&dir, "cold/metrics.json"),
        read(&dir, "warm/metrics.json"),
        "a rejected shard must never alter the output"
    );
}

#[test]
fn mismatched_seed_rejects_stale_state_instead_of_merging_it() {
    let dir = tmpdir("ckpt-cli-seed");
    let base = [
        "--users", "300", "--days", "1", "--fcc", "20", "--quiet", "--shards", "4",
    ];

    // Checkpoint a run under seed 1.
    let mut args: Vec<&str> = base.to_vec();
    args.extend(["--seed", "1", "--out", "s1", "--checkpoint", "ck"]);
    let out = reproduce(&args, &dir);
    assert_eq!(out.status.code(), Some(0), "seed-1 run");

    // Baseline for seed 2 without any checkpoint.
    let mut args: Vec<&str> = base.to_vec();
    args.extend([
        "--seed",
        "2",
        "--out",
        "cold2",
        "--metrics",
        "cold2/metrics.json",
    ]);
    let out = reproduce(&args, &dir);
    assert_eq!(out.status.code(), Some(0), "seed-2 baseline");

    // Resume under seed 2 against the seed-1 checkpoint: every stale
    // shard must be rejected (one manifest-level rejection), and the
    // output must equal the seed-2 baseline exactly.
    let mut args: Vec<&str> = base.to_vec();
    args.extend([
        "--seed",
        "2",
        "--out",
        "warm2",
        "--checkpoint",
        "ck",
        "--resume",
    ]);
    args.extend(["--metrics", "warm2/metrics.json"]);
    let out = reproduce(&args, &dir);
    assert_eq!(
        out.status.code(),
        Some(0),
        "seed mismatch must recompute, not fail: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let status = status_json(&dir, "ck");
    assert_eq!(counter(&status, "checkpoint.rejected"), 1, "{status}");
    assert_eq!(counter(&status, "checkpoint.skipped"), 0, "{status}");
    assert_eq!(
        read(&dir, "cold2/metrics.json"),
        read(&dir, "warm2/metrics.json"),
        "stale seed-1 state must never leak into seed-2 output"
    );
}

#[test]
fn ledger_with_resume_matches_cold_ledger_and_sidecar_reports_checkpoint() {
    let dir = tmpdir("ckpt-cli-ledger-resume");
    let base = [
        "--users", "300", "--days", "1", "--fcc", "20", "--quiet", "--shards", "4",
    ];

    let mut args: Vec<&str> = base.to_vec();
    args.extend(["--out", "cold", "--ledger", "cold/ledger.jsonl"]);
    let out = reproduce(&args, &dir);
    assert_eq!(out.status.code(), Some(0));

    let mut args: Vec<&str> = base.to_vec();
    args.extend(["--out", "warm", "--checkpoint", "ck"]);
    let out = reproduce(&args, &dir);
    assert_eq!(out.status.code(), Some(0));

    let mut args: Vec<&str> = base.to_vec();
    args.extend(["--out", "warm", "--checkpoint", "ck", "--resume"]);
    args.extend([
        "--ledger",
        "warm/ledger.jsonl",
        "--metrics",
        "warm/metrics.json",
    ]);
    let out = reproduce(&args, &dir);
    assert_eq!(out.status.code(), Some(0));
    assert_eq!(
        read(&dir, "cold/ledger.jsonl"),
        read(&dir, "warm/ledger.jsonl"),
        "--ledger with --resume must equal the cold ledger"
    );
    // The runtime sidecar of a checkpointed run carries the checkpoint
    // counters (they are process-dependent, like the wall times).
    let sidecar = String::from_utf8(read(&dir, "warm/metrics.runtime.json")).expect("sidecar");
    assert!(sidecar.contains("\"checkpoint\""), "{sidecar}");
    assert!(sidecar.contains("\"skipped\": 4"), "{sidecar}");
}

/// The `--users` checkpoint identity is the streaming job's, and
/// `--scale` is not part of that job: a run crashed under `--scale 7`
/// resumes without it, restores every committed shard, and matches the
/// cold run byte for byte.
#[test]
fn streaming_resume_ignores_scale() {
    let dir = tmpdir("ckpt-cli-scale");
    let base = [
        "--users", "300", "--days", "1", "--fcc", "20", "--quiet", "--shards", "4",
    ];

    let mut args: Vec<&str> = base.to_vec();
    args.extend(["--out", "cold", "--metrics", "cold-metrics.json"]);
    args.extend(["--ledger", "cold-ledger.jsonl"]);
    let cold = reproduce(&args, &dir);
    assert_eq!(cold.status.code(), Some(0));

    let mut args: Vec<&str> = base.to_vec();
    args.extend(["--scale", "7", "--out", "warm", "--checkpoint", "ck"]);
    args.extend(["--fail-after-shard", "2"]);
    let out = reproduce(&args, &dir);
    assert_eq!(out.status.code(), Some(FAIL_AFTER_EXIT));

    let mut args: Vec<&str> = base.to_vec();
    args.extend(["--out", "warm", "--checkpoint", "ck", "--resume"]);
    args.extend([
        "--metrics",
        "warm-metrics.json",
        "--ledger",
        "warm-ledger.jsonl",
    ]);
    let warm = reproduce(&args, &dir);
    assert_eq!(
        warm.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&warm.stderr)
    );
    let status = status_json(&dir, "ck");
    assert_eq!(counter(&status, "checkpoint.skipped"), 2, "{status}");
    assert_eq!(counter(&status, "checkpoint.rejected"), 0, "{status}");
    assert_eq!(
        read(&dir, "cold-metrics.json"),
        read(&dir, "warm-metrics.json")
    );
    assert_eq!(
        read(&dir, "cold-ledger.jsonl"),
        read(&dir, "warm-ledger.jsonl")
    );
    assert_trees_identical(&dir.join("cold"), &dir.join("warm"));
    assert_eq!(cold.stdout, warm.stdout);
}
