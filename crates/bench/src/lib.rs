//! # bb-bench — shared fixtures for benchmarks and the reproduce harness.
//!
//! The Criterion benches and the `reproduce` binary all operate on a
//! generated world; this crate centralises the configurations so every
//! bench regenerates exactly the same exhibits.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use bb_dataset::{Dataset, World, WorldConfig};
use std::sync::OnceLock;

pub mod artifacts;
pub mod federation;

/// The master seed of the reproduction: every published number in
/// `EXPERIMENTS.md` comes from this seed.
pub const REPRO_SEED: u64 = 20141105; // IMC 2014 opened on November 5.

/// A mid-sized world for benchmarking the *analysis* stages: large enough
/// that per-exhibit timings are representative, small enough that the
/// fixture builds in seconds.
pub fn bench_world() -> World {
    let mut cfg = WorldConfig::small(REPRO_SEED);
    cfg.user_scale = 4.0;
    cfg.days = 3;
    cfg.fcc_users = 300;
    World::new(cfg)
}

/// The shared bench dataset (generated once per process).
pub fn bench_dataset() -> &'static Dataset {
    static DS: OnceLock<Dataset> = OnceLock::new();
    DS.get_or_init(|| bench_world().generate())
}

/// The full paper-scale world used by the `reproduce` binary.
pub fn paper_world(seed: u64) -> World {
    World::new(WorldConfig::paper_scale(seed))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_dataset_is_populated() {
        let ds = bench_dataset();
        assert!(ds.records.len() > 500, "{} records", ds.records.len());
        assert_eq!(ds.survey.len(), 99);
        assert!(!ds.upgrades.is_empty());
    }
}
