//! One chaos job through all three streaming drivers: the
//! `reproduce --users` binary, an in-process gateway (`bb_serve::Server`
//! over HTTP) and a federated run (`run_coordinator` with two in-process
//! workers), each under a different shard plan. `metrics.json`,
//! `ledger.jsonl` and every exhibit file must be byte-identical across
//! the three.

use bb_bench::federation::{run_coordinator, run_worker_process, CoordinatorArgs, WorkerOptions};
use bb_bench::REPRO_SEED;
use bb_engine::ShardPlan;
use bb_netsim::chaos::{ChaosScenario, ChaosSpec};
use bb_serve::{JobState, Server, ServerConfig};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Duration;

const USERS: u64 = 1_500;
const FCC: usize = 40;

fn tmpdir(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create test dir");
    dir
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// Every file in `dir`, sorted by name.
fn files_in(dir: &Path) -> Vec<(String, String)> {
    let mut files: Vec<(String, String)> = std::fs::read_dir(dir)
        .expect("read output dir")
        .map(|e| {
            let e = e.expect("dir entry");
            (
                e.file_name().into_string().expect("utf-8 name"),
                read(&e.path()),
            )
        })
        .collect();
    files.sort();
    files
}

/// The batch artifact set a file-writing driver left behind: its
/// metrics, its ledger and the exhibits in `out`.
fn written(dir: &Path, label: &str) -> Vec<(String, String)> {
    let mut files = files_in(&dir.join(label));
    files.push((
        "ledger.jsonl".into(),
        read(&dir.join(format!("{label}-ledger.jsonl"))),
    ));
    files.push((
        "metrics.json".into(),
        read(&dir.join(format!("{label}-metrics.json"))),
    ));
    files.sort();
    files
}

#[test]
fn chaos_job_is_byte_identical_through_cli_gateway_and_federation() {
    let dir = tmpdir("drivers-chaos-job");

    // 1. The batch CLI: 3 shards on 2 threads.
    let out = Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .args(["--users", "1500", "--days", "1", "--fcc", "40", "--quiet"])
        .args(["--chaos", "omnibus", "--severity", "0.25"])
        .args(["--shards", "3", "--threads", "2", "--out", "cli"])
        .args([
            "--metrics",
            "cli-metrics.json",
            "--ledger",
            "cli-ledger.jsonl",
        ])
        .current_dir(&dir)
        .output()
        .expect("spawn reproduce");
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let cli = written(&dir, "cli");
    assert!(cli.len() > 2, "exhibits written: {cli:?}");

    // 2. The gateway: 5 shards, job submitted as a JSON body over HTTP.
    let server = Server::start(ServerConfig {
        port: 0,
        cache_dir: dir.join("serve-cache"),
        days: 1,
        fcc_users: FCC,
        plan: ShardPlan::new(5, 1),
        default_seed: REPRO_SEED,
        default_users: USERS,
        access_log: None,
        sse_keepalive: Duration::from_secs(5),
        debug_routes: false,
    })
    .expect("start server");
    let body = r#"{"scenario": "omnibus", "severity": 0.25}"#;
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    write!(
        stream,
        "POST /jobs HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .expect("write request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    assert!(response.starts_with("HTTP/1.1 202"), "{response}");
    let view = server.scheduler().wait(0).expect("job 0");
    assert_eq!(view.state, JobState::Done, "{:?}", view.error);
    let served = server.scheduler().files(0).expect("job 0 artifacts");

    // 3. The federation: 4 shards leased to two in-process workers.
    let port = TcpListener::bind("127.0.0.1:0")
        .and_then(|l| l.local_addr())
        .expect("free port")
        .port();
    let addr = format!("127.0.0.1:{port}");
    let args = CoordinatorArgs {
        listen: addr.clone(),
        seed: REPRO_SEED,
        users: USERS,
        days: 1,
        fcc_users: FCC,
        shards: 4,
        chaos: Some(ChaosSpec::new(ChaosScenario::Omnibus, 0.25)),
        out: dir.join("fed"),
        metrics: Some(dir.join("fed-metrics.json")),
        ledger: Some(dir.join("fed-ledger.jsonl")),
        lease_timeout: Duration::from_secs(60),
        io_deadline: Duration::from_secs(60),
        checkpoint: None,
        resume: false,
        quiet: true,
    };
    std::thread::scope(|scope| {
        let coordinator = scope.spawn(|| run_coordinator(&args));
        let workers: Vec<_> = (1..=2)
            .map(|seed| {
                let addr = &addr;
                scope.spawn(move || {
                    let opts = WorkerOptions {
                        backoff_seed: seed,
                        ..WorkerOptions::default()
                    };
                    run_worker_process(addr, &opts, true)
                })
            })
            .collect();
        coordinator
            .join()
            .expect("coordinator thread")
            .expect("coordinator");
        for worker in workers {
            worker.join().expect("worker thread").expect("worker");
        }
    });
    let federated = written(&dir, "fed");

    assert_eq!(
        cli.iter().map(|(name, _)| name).collect::<Vec<_>>(),
        federated.iter().map(|(name, _)| name).collect::<Vec<_>>(),
        "the CLI and the federation write the same file set"
    );
    for (name, bytes) in &cli {
        let fed = &federated
            .iter()
            .find(|(n, _)| n == name)
            .expect("same set")
            .1;
        assert!(bytes == fed, "{name}: federation differs from the CLI");
        let served = served
            .iter()
            .find(|(n, _)| n == name)
            .unwrap_or_else(|| panic!("{name} missing from the served artifacts"));
        assert!(bytes == &served.1, "{name}: gateway differs from the CLI");
    }
}
