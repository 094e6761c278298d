//! One job = one checkpointed streaming run.
//!
//! The runner is deliberately thin: everything that determines bytes is
//! shared with the batch CLI and the federation coordinator — a
//! [`StreamJob`] for the validated job, its world and its checkpoint
//! identity, and `bb_report::bundle::stream_artifacts` for the metrics,
//! the ledger and the exhibit files. The runner only parses the JSON
//! job body, adds the service extras (per-exhibit Markdown, the country
//! drill-down document) *after* the batch-identical artifacts, and wires
//! the engine's progress hook and the ledger's tail subscriber into the
//! job's SSE feed.

use bb_engine::{CheckpointStore, RunHooks, ShardPlan};
use bb_report::bundle;
use bb_study::{StreamJob, StreamStudy};
use bb_trace::EventTail;
use std::path::Path;

/// Parse a `POST /jobs` body: a JSON object with optional `seed`,
/// `users`, `scenario`, `severity` fields over `defaults` (the server's
/// default job). Unknown fields are rejected so a typo cannot silently
/// request the default run.
pub fn job_from_json(body: &[u8], defaults: &StreamJob) -> Result<StreamJob, String> {
    let value: serde_json::Value = if body.is_empty() {
        serde_json::Value::Object(Default::default())
    } else {
        serde_json::from_slice(body).map_err(|e| format!("invalid JSON body: {e}"))?
    };
    let obj = value.as_object().ok_or("job spec must be a JSON object")?;
    let (mut seed, mut users) = (defaults.seed(), defaults.users());
    let (mut scenario, mut severity) = (None, 0.5);
    for (key, v) in obj {
        match key.as_str() {
            "seed" => seed = v.as_u64().ok_or("seed must be an integer")?,
            "users" => users = v.as_u64().ok_or("users must be an integer")?,
            "scenario" => {
                if !v.is_null() {
                    scenario = Some(v.as_str().ok_or("scenario must be a string")?);
                }
            }
            "severity" => severity = v.as_f64().ok_or("severity must be a number")?,
            other => return Err(format!("unknown job field {other:?}")),
        }
    }
    let chaos = StreamJob::parse_chaos(scenario, severity)?;
    StreamJob::new(seed, users, defaults.days(), defaults.fcc_users(), chaos)
}

/// Run `job` as a checkpointed streaming fold under `plan` and return
/// the artifact file set: first the batch-identical files
/// (`metrics.json`, `ledger.jsonl`, the exhibit bundle), then the
/// service extras (`{id}.md` per exhibit, `countries.json`). The
/// checkpoint under `checkpoint_dir` is always resumed when compatible,
/// so an interrupted job continues instead of restarting. `hooks` see
/// every finished shard and `ledger_tail` every ledger event, in emit
/// order.
pub fn run_job(
    job: StreamJob,
    plan: ShardPlan,
    checkpoint_dir: &Path,
    hooks: RunHooks<'_>,
    ledger_tail: Option<EventTail>,
) -> Result<Vec<(String, String)>, String> {
    let store = CheckpointStore::new(checkpoint_dir, job.params());
    let (_, study, registry, _, _) = job
        .world()
        .fold_users_checkpointed(plan, &store, true, hooks, StreamStudy::new, |s, r, u| {
            s.absorb(r, u)
        })
        .map_err(|e| e.to_string())?;
    let mut files = bundle::stream_artifacts(job.seed(), &study, registry, ledger_tail);
    files.extend(bundle::stream_exhibit_markdown(&study));
    files.push(("countries.json".to_string(), countries_json(&study)));
    Ok(files)
}

/// Round to 4 decimals for a byte-stable drill-down document.
fn round4(x: f64) -> f64 {
    (x * 10_000.0).round() / 10_000.0
}

/// The per-country drill-down: one object per observed country (sorted
/// by code — the study keeps a BTreeMap) with capacity and utilisation
/// quantiles from the mergeable sketches.
fn countries_json(study: &StreamStudy) -> String {
    let mut countries = serde_json::Map::new();
    for (code, sketch) in &study.by_country {
        let quantiles = |s: &bb_engine::EcdfSketch| {
            serde_json::json!({
                "n": s.count(),
                "p10": s.quantile(0.10).map(round4),
                "median": s.median().map(round4),
                "p90": s.quantile(0.90).map(round4),
            })
        };
        countries.insert(
            code.to_string(),
            serde_json::json!({
                "capacity_mbps": quantiles(&sketch.capacity),
                "utilization": quantiles(&sketch.utilization),
            }),
        );
    }
    serde_json::to_string_pretty(&serde_json::Value::Object(countries)).expect("serialise")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_spec_parses_defaults_and_rejects_bad_fields() {
        let defaults = StreamJob::new(7, 500, 7, 600, None).unwrap();
        let spec = job_from_json(b"", &defaults).unwrap();
        assert_eq!((spec.seed(), spec.users(), spec.chaos()), (7, 500, None));
        let spec = job_from_json(
            br#"{"seed": 2, "scenario": "omnibus", "severity": 0.25}"#,
            &defaults,
        )
        .unwrap();
        assert_eq!(spec.seed(), 2);
        assert_eq!(spec.chaos().unwrap().label(), "omnibus@0.25");
        for bad in [
            &br#"{"users": 0}"#[..],
            br#"{"severity": 1.5}"#,
            br#"{"scenario": "nope"}"#,
            br#"{"typo": 1}"#,
            br#"[1, 2]"#,
            br#"{"#,
        ] {
            assert!(job_from_json(bad, &defaults).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn params_pin_the_chaos_label_and_user_count() {
        let defaults = StreamJob::new(1, 500, 3, 60, None).unwrap();
        let spec = job_from_json(br#"{"users": 900, "scenario": "omnibus"}"#, &defaults).unwrap();
        let text: Vec<String> = spec
            .params()
            .pairs()
            .map(|(k, v)| format!("{k}={v}"))
            .collect();
        assert_eq!(
            text,
            [
                "path=streaming",
                "seed=1",
                "scale=40",
                "days=3",
                "fcc=60",
                "users=900",
                "chaos=omnibus@0.5"
            ]
        );
    }
}
