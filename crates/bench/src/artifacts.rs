//! Writing a run's artifacts to disk, shared by `reproduce` and the
//! federation coordinator.
//!
//! The metrics registry and the ledger are written atomically (tmp file,
//! `fsync`, rename), so a crash or a concurrent reader never sees a torn
//! file; exhibit files are plain writes into the output directory.

use bb_engine::atomic_write;
use std::path::Path;

/// A progress line on stderr, unless `quiet`.
fn progress(quiet: bool, line: std::fmt::Arguments<'_>) {
    if !quiet {
        eprintln!("{line}");
    }
}

/// Atomically write `content` to `path`, creating its parent directory.
pub fn write_atomic(path: &Path, content: &str) -> Result<(), String> {
    if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
        std::fs::create_dir_all(parent).map_err(|e| format!("create {}: {e}", parent.display()))?;
    }
    atomic_write(path, content).map_err(|e| format!("write {}: {e}", path.display()))
}

/// Write a run's artifact set (for a streaming run,
/// `bb_report::bundle::stream_artifacts`): the plan-invariant
/// `metrics.json` to `metrics`, with the process-dependent `runtime`
/// JSON (wall times, scheduling or federation counters) as its
/// `.runtime.json` sidecar, and `ledger.jsonl` to `ledger` — each only
/// when a path is given — and every other file into `out`.
pub fn write_artifacts(
    files: &[(String, String)],
    out: &Path,
    metrics: Option<&Path>,
    runtime: &str,
    ledger: Option<&Path>,
    quiet: bool,
) -> Result<(), String> {
    std::fs::create_dir_all(out).map_err(|e| format!("create {}: {e}", out.display()))?;
    for (name, content) in files {
        match (name.as_str(), metrics, ledger) {
            ("metrics.json", Some(path), _) => {
                write_atomic(path, content)?;
                let sidecar = path.with_extension("runtime.json");
                write_atomic(&sidecar, runtime)?;
                progress(
                    quiet,
                    format_args!(
                        "wrote metrics to {} (runtime sidecar {})",
                        path.display(),
                        sidecar.display()
                    ),
                );
            }
            ("ledger.jsonl", _, Some(path)) => {
                write_atomic(path, content)?;
                progress(
                    quiet,
                    format_args!(
                        "wrote provenance ledger ({} events) to {}",
                        content.lines().count(),
                        path.display()
                    ),
                );
            }
            ("metrics.json" | "ledger.jsonl", _, _) => {}
            _ => {
                std::fs::write(out.join(name), content).map_err(|e| format!("write {name}: {e}"))?
            }
        }
    }
    Ok(())
}
