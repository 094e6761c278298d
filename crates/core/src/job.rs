//! The streaming job: what one `reproduce --users` run, one gateway job
//! and one federated run each compute.
//!
//! Every front end (the CLI flags, a `POST /jobs` body, a federation
//! wire frame) builds a [`StreamJob`] through its one validating
//! constructor, and every driver derives the world and the checkpoint
//! identity from it. Their artifacts are byte-identical because there is
//! one derivation, not a copy per driver.

use bb_dataset::{World, WorldConfig};
use bb_engine::CheckpointParams;
use bb_netsim::chaos::{ChaosScenario, ChaosSpec};

/// The largest user count (and FCC cohort) a job may ask for: 2^53, the
/// largest integer a JSON number carries exactly. Far larger counts
/// would overflow the world's flat user index space.
const MAX_USERS: u64 = 1 << 53;

/// A validated streaming job. The fields are private, so every value
/// has passed [`StreamJob::new`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct StreamJob {
    seed: u64,
    users: u64,
    days: u32,
    fcc_users: usize,
    chaos: Option<ChaosSpec>,
}

impl StreamJob {
    /// Validate a job: `users` in `[1, 2^53]`, `fcc_users` at most 2^53,
    /// `days` at least 1 and a chaos severity in `[0, 1]`.
    pub fn new(
        seed: u64,
        users: u64,
        days: u32,
        fcc_users: usize,
        chaos: Option<ChaosSpec>,
    ) -> Result<Self, String> {
        if !(1..=MAX_USERS).contains(&users) {
            return Err(format!("users must be in [1, 2^53], got {users}"));
        }
        if u64::try_from(fcc_users).map_or(true, |fcc| fcc > MAX_USERS) {
            return Err(format!("fcc must be at most 2^53, got {fcc_users}"));
        }
        if days == 0 {
            return Err("days must be at least 1".into());
        }
        if let Some(spec) = chaos {
            check_severity(spec.severity)?;
        }
        Ok(StreamJob {
            seed,
            users,
            days,
            fcc_users,
            chaos,
        })
    }

    /// Parse a chaos request as the front ends spell it: an optional
    /// scenario name and a severity. The severity is checked even
    /// without a scenario, so a bad value is rejected, never dropped.
    pub fn parse_chaos(scenario: Option<&str>, severity: f64) -> Result<Option<ChaosSpec>, String> {
        check_severity(severity)?;
        let Some(name) = scenario else {
            return Ok(None);
        };
        let scenario = ChaosScenario::parse(name).ok_or_else(|| {
            let known: Vec<&str> = ChaosScenario::ALL.iter().map(|s| s.name()).collect();
            format!(
                "unknown chaos scenario {name:?}; one of {}",
                known.join(", ")
            )
        })?;
        Ok(Some(ChaosSpec::new(scenario, severity)))
    }

    /// World seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Requested (approximate) streamed user count.
    pub fn users(&self) -> u64 {
        self.users
    }

    /// Observation window in days.
    pub fn days(&self) -> u32 {
        self.days
    }

    /// US-only FCC gateway cohort size.
    pub fn fcc_users(&self) -> usize {
        self.fcc_users
    }

    /// The degraded-collection campaign, if any.
    pub fn chaos(&self) -> Option<ChaosSpec> {
        self.chaos
    }

    /// The world this job streams.
    pub fn world(&self) -> World {
        let mut cfg = WorldConfig::streaming(self.seed, self.users, self.days, self.fcc_users);
        cfg.chaos = self.chaos;
        World::new(cfg)
    }

    /// The job's identity: the parameter pairs every driver pins into
    /// its checkpoint manifest and the gateway hashes into its cache
    /// key. The thread plan is absent, because output never depends on
    /// it. `scale` is the paper-scale constant, not a job input: a
    /// streamed world derives its scale from `users`, and the pair stays
    /// so existing manifests and cache keys still match.
    pub fn params(&self) -> CheckpointParams {
        CheckpointParams::new()
            .set("path", "streaming")
            .set("seed", self.seed)
            .set("scale", WorldConfig::paper_scale(0).user_scale)
            .set("days", self.days)
            .set("fcc", self.fcc_users)
            .set("users", self.users)
            .set(
                "chaos",
                self.chaos.map_or_else(|| "-".into(), |c| c.label()),
            )
    }
}

fn check_severity(severity: f64) -> Result<(), String> {
    if severity.is_finite() && (0.0..=1.0).contains(&severity) {
        Ok(())
    } else {
        Err(format!("severity must be in [0, 1], got {severity}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_rejects_out_of_range_jobs() {
        assert!(StreamJob::new(1, 1, 1, 0, None).is_ok());
        assert!(StreamJob::new(1, MAX_USERS, 1, MAX_USERS as usize, None).is_ok());
        for (users, days, fcc) in [(0, 1, 0), (MAX_USERS + 1, 1, 0), (u64::MAX, 1, 0)] {
            assert!(
                StreamJob::new(1, users, days, fcc, None).is_err(),
                "{users}"
            );
        }
        assert!(StreamJob::new(1, 10, 0, 0, None).is_err());
        assert!(StreamJob::new(1, 10, 1, MAX_USERS as usize + 1, None).is_err());
        let bad = ChaosSpec {
            scenario: ChaosScenario::Omnibus,
            severity: f64::NAN,
        };
        assert!(StreamJob::new(1, 10, 1, 0, Some(bad)).is_err());
    }

    #[test]
    fn parse_chaos_checks_the_name_and_every_severity() {
        let spec = StreamJob::parse_chaos(Some("omnibus"), 0.25).unwrap();
        assert_eq!(spec.unwrap().label(), "omnibus@0.25");
        assert_eq!(StreamJob::parse_chaos(None, 0.5).unwrap(), None);
        assert!(StreamJob::parse_chaos(Some("bogus"), 0.5).is_err());
        for severity in [-0.5, 1.5, f64::NAN, f64::INFINITY] {
            assert!(StreamJob::parse_chaos(None, severity).is_err());
            assert!(StreamJob::parse_chaos(Some("omnibus"), severity).is_err());
        }
    }
}
