//! Shared provenance assembly for the streaming study.
//!
//! `reproduce --users`, the `bb-serve` job runner and the federation
//! coordinator must produce **byte-identical** metrics and ledgers for
//! the same job, so all three reach this module through one call site,
//! `bb_report::bundle::stream_artifacts`. It owns the two pieces:
//! registering the study-level counters in the plan-invariant
//! [`Registry`], and emitting the streaming run's ledger events in their
//! pinned order (`stream_study`, `data_quality`, then one `exhibit`
//! event per Fig. 1/Fig. 7 panel).

use crate::stream::StreamStudy;
use bb_trace::{EventLog, Registry};

/// Add the study-level counters to the plan-invariant metrics registry.
/// The streaming sketches merge exactly, so these ride along with the
/// generation counters and stay byte-identical under any shard plan.
pub fn register_stream_metrics(registry: &mut Registry, study: &StreamStudy) {
    registry.add("study.users", study.users);
    registry.add("study.dasu_users", study.dasu_users);
    registry.add("study.fcc_users", study.fcc_users);
    registry.add("study.movers", study.movers);
    registry.add("study.sketch_negatives", study.sketch_negatives());
}

/// Surface the ingest screen's verdict counters (accept / repair /
/// quarantine, with per-reason breakdowns) as one plan-invariant
/// `data_quality` ledger event.
pub fn log_data_quality(ledger: &mut EventLog, registry: &Registry) {
    let verdicts: Vec<(String, u64)> = registry
        .counters()
        .filter(|(name, _)| name.starts_with("dataset.quality."))
        .map(|(name, v)| (name.trim_start_matches("dataset.quality.").to_string(), v))
        .collect();
    ledger.emit("data_quality").counts("verdicts", verdicts);
}

/// Emit the streaming run's full ledger: the `stream_study` header, the
/// `data_quality` verdicts, then one `exhibit` accounting event per
/// Fig. 1 and Fig. 7 panel — in exactly this order, so the JSONL is
/// byte-identical wherever it is assembled.
pub fn stream_provenance(
    ledger: &mut EventLog,
    seed: u64,
    study: &StreamStudy,
    registry: &Registry,
) {
    ledger
        .emit("stream_study")
        .u64("seed", seed)
        .u64("users", study.users)
        .u64("dasu_users", study.dasu_users)
        .u64("fcc_users", study.fcc_users)
        .u64("movers", study.movers)
        .u64("sketch_negatives", study.sketch_negatives());
    log_data_quality(ledger, registry);
    for f in study.figure1().iter().chain(study.figure7().iter()) {
        ledger
            .emit("exhibit")
            .str("id", f.id.clone())
            .u64("n", f.series.iter().map(|s| s.n as u64).sum())
            .u64("series", f.series.len() as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_provenance_event_order_is_pinned() {
        let study = StreamStudy::new();
        let mut registry = Registry::new();
        registry.add("dataset.quality.accept", 3);
        registry.add("other.counter", 9);
        let mut ledger = EventLog::new();
        stream_provenance(&mut ledger, 7, &study, &registry);
        let kinds: Vec<&str> = ledger.events().map(|e| e.kind()).collect();
        // An empty study still has the fig1a-c and fig7a-b panels.
        assert_eq!(
            kinds,
            [
                "stream_study",
                "data_quality",
                "exhibit",
                "exhibit",
                "exhibit",
                "exhibit",
                "exhibit"
            ]
        );
        let jsonl = ledger.to_jsonl();
        assert!(jsonl.contains("\"verdicts\": {\"accept\": 3}"), "{jsonl}");
        assert!(!jsonl.contains("other.counter"), "{jsonl}");
    }

    #[test]
    fn register_stream_metrics_adds_the_study_counters() {
        let study = StreamStudy::new();
        let mut registry = Registry::new();
        register_stream_metrics(&mut registry, &study);
        assert_eq!(registry.counter("study.users"), 0);
        assert!(registry.to_json().contains("\"study.sketch_negatives\""));
    }
}
