//! The benchmark's own smoke test: every workload at tiny size, timed
//! and traced, passes its output checks with no failed operation and
//! emits exactly the metric names `BENCHMARK.json` declares.
//!
//! ```sh
//! cargo test --release --offline --manifest-path perfbench/Cargo.toml
//! ```

use std::path::PathBuf;
use std::process::Command;

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("..")
}

/// The metric names of one `BENCHMARK.json` section.
fn declared(section: &str) -> Vec<String> {
    let text =
        std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("read BENCHMARK.json");
    let doc: serde_json::Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    let mut names: Vec<String> = doc[section]
        .as_array()
        .expect("metric list")
        .iter()
        .map(|m| m["name"].as_str().expect("metric name").to_string())
        .collect();
    names.sort();
    names
}

/// Run one tiny workload; the parsed result line.
fn run(workload: &str, trace: bool) -> serde_json::Value {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .current_dir(repo_root())
        .args([
            "--workload",
            workload,
            "--seed",
            "20141105",
            "--seconds",
            "1",
            "--size",
            "tiny",
        ])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .expect("run perfbench");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload}: exit {:?}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    serde_json::from_str(last).expect("the last line is JSON")
}

fn check(workload: &str) {
    for (trace, section) in [(false, "end_to_end"), (true, "per_layer")] {
        let result = run(workload, trace);
        assert_eq!(
            result["correct"].as_bool(),
            Some(true),
            "{workload} trace={trace}: {result}"
        );
        assert_eq!(
            result["failed"].as_u64(),
            Some(0),
            "{workload} trace={trace}: {result}"
        );
        assert!(
            result["attempted"].as_u64().unwrap_or(0) >= 1,
            "{workload}: nothing attempted"
        );
        let metrics = result["metrics"].as_object().expect("metrics object");
        let mut names: Vec<String> = metrics.keys().cloned().collect();
        names.sort();
        assert_eq!(
            names,
            declared(section),
            "{workload} trace={trace}: metric names"
        );
        for (name, metric) in metrics {
            assert!(
                metric["value"].as_f64().is_some_and(f64::is_finite),
                "{workload}: {name} = {metric}"
            );
        }
    }
}

#[test]
fn paper_is_correct_and_complete() {
    check("paper");
}

#[test]
fn stream_is_correct_and_complete() {
    check("stream");
}

#[test]
fn serve_is_correct_and_complete() {
    check("serve");
}

#[test]
fn federate_is_correct_and_complete() {
    check("federate");
}
