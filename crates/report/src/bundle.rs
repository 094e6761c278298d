//! The streaming run's artifact set, assembled in one place.
//!
//! `reproduce --users U`, the serve gateway's job runner and the
//! federation coordinator all publish the same artifacts for a streaming
//! study: `metrics.json`, `ledger.jsonl`, then per Fig. 1/Fig. 7 panel a
//! text render, a CSV, a gnuplot script and a JSON document, and per
//! Fig. 2 panel the same minus the gnuplot script. All three call
//! [`stream_artifacts`] and differ only in where the bytes land (files
//! in a directory vs. a cache entry), so byte-identity across drivers
//! holds by construction.

use crate::{csv, gnuplot, json, markdown, text};
use bb_study::{provenance, StreamStudy};
use bb_trace::{EventLog, EventTail, Registry};

/// Render a pretty JSON document, which cannot fail for exhibit trees.
fn pretty(v: &serde_json::Value) -> String {
    serde_json::to_string_pretty(v).expect("serialise")
}

/// A streaming run's whole artifact set as `(file name, contents)`
/// pairs: `metrics.json` (the fold's `registry` plus the study
/// counters), `ledger.jsonl` (the pinned provenance event order, each
/// event also handed to `tail` as it is emitted), then
/// [`stream_exhibit_files`].
pub fn stream_artifacts(
    seed: u64,
    study: &StreamStudy,
    mut registry: Registry,
    tail: Option<EventTail>,
) -> Vec<(String, String)> {
    provenance::register_stream_metrics(&mut registry, study);
    let mut ledger = EventLog::new();
    if let Some(tail) = tail {
        ledger.set_tail(tail);
    }
    provenance::stream_provenance(&mut ledger, seed, study, &registry);
    let mut files = vec![
        ("metrics.json".to_string(), registry.to_json()),
        ("ledger.jsonl".to_string(), ledger.to_jsonl()),
    ];
    files.extend(stream_exhibit_files(study));
    files
}

/// The full streaming exhibit bundle as `(file name, contents)` pairs,
/// in the batch CLI's write order: Fig. 1 then Fig. 7 panels
/// (`.txt`/`.csv`/`.gp`/`.json` each), then Fig. 2 panels
/// (`.txt`/`.csv`/`.json` — binned panels carry their CI in the data
/// files, no gnuplot script).
pub fn stream_exhibit_files(study: &StreamStudy) -> Vec<(String, String)> {
    let mut files = Vec::new();
    for f in study.figure1().iter().chain(study.figure7().iter()) {
        files.push((format!("{}.txt", f.id), text::render_cdf_figure(f)));
        files.push((format!("{}.csv", f.id), csv::cdf_to_csv(f)));
        files.push((format!("{}.gp", f.id), gnuplot::cdf_script(f)));
        files.push((format!("{}.json", f.id), pretty(&json::cdf_to_json(f))));
    }
    for f in &study.figure2() {
        files.push((format!("{}.txt", f.id), text::render_binned_figure(f)));
        files.push((format!("{}.csv", f.id), csv::binned_to_csv(f)));
        files.push((format!("{}.json", f.id), pretty(&json::binned_to_json(f))));
    }
    files
}

/// Every streaming exhibit as Markdown (`{id}.md`), in bundle order:
/// the human-readable render the gateway serves at `GET /exhibits/{id}`.
pub fn stream_exhibit_markdown(study: &StreamStudy) -> Vec<(String, String)> {
    let cdfs = study.figure1().into_iter().chain(study.figure7());
    let mut files: Vec<(String, String)> = cdfs
        .map(|f| (format!("{}.md", f.id), markdown::cdf_figure(&f)))
        .collect();
    for f in &study.figure2() {
        files.push((format!("{}.md", f.id), markdown::binned_figure(f)));
    }
    files
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bundle_matches_the_id_list_and_file_multiplicity() {
        let study = StreamStudy::new();
        let markdown = stream_exhibit_markdown(&study);
        let ids: Vec<&str> = markdown
            .iter()
            .filter_map(|(name, _)| name.strip_suffix(".md"))
            .collect();
        assert_eq!(ids.len(), 9, "fig1a-c, fig7a-b, fig2a-d: {ids:?}");
        let files = stream_exhibit_files(&study);
        // 5 CDF panels × 4 files + 4 binned panels × 3 files.
        assert_eq!(files.len(), 5 * 4 + 4 * 3);
        for id in &ids {
            assert!(files.iter().any(|(name, _)| name == &format!("{id}.txt")));
            assert!(files.iter().any(|(name, _)| name == &format!("{id}.json")));
        }
    }
}
