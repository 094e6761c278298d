//! Fault injection.
//!
//! Following the smoltcp convention of exposing adverse-condition knobs,
//! this module lets examples and ablation benches degrade a simulated
//! population: added latency, added loss, dropped counter samples, and a
//! token-bucket shaper that models an ISP throttling a link below its
//! advertised capacity.

use crate::link::AccessLink;
use bb_types::{Bandwidth, Latency, LossRate};
use rand::Rng;

/// A fault-injection plan applied to a link or a collected series.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultPlan {
    /// Extra path latency.
    pub extra_latency: Latency,
    /// Extra packet loss.
    pub extra_loss: LossRate,
    /// Probability that any given counter sample is lost (client crash,
    /// poll timeout).
    pub sample_drop_prob: f64,
    /// Shape the link to this rate, if set (ISP throttling).
    pub shape_to: Option<Bandwidth>,
}

impl FaultPlan {
    /// No faults.
    pub const NONE: FaultPlan = FaultPlan {
        extra_latency: Latency::ZERO,
        extra_loss: LossRate::ZERO,
        sample_drop_prob: 0.0,
        shape_to: None,
    };

    /// A satellite-like degradation: +600 ms, +1.5% loss.
    pub fn satellite() -> FaultPlan {
        FaultPlan::with_impairments(600.0, 1.5)
    }

    /// A plan adding `extra_latency_ms` of path latency and
    /// `extra_loss_pct` of packet loss, validated the same way
    /// [`FaultPlan::with_sample_drop`] validates its knob.
    ///
    /// # Panics
    /// Panics when the latency is non-finite or negative, or the loss is
    /// non-finite or outside `[0, 100]` percent — mis-computed knobs fail
    /// loudly at construction instead of deep inside the simulator.
    pub fn with_impairments(extra_latency_ms: f64, extra_loss_pct: f64) -> FaultPlan {
        assert!(
            extra_latency_ms.is_finite() && extra_latency_ms >= 0.0,
            "extra_latency must be finite and non-negative, got {extra_latency_ms} ms"
        );
        assert!(
            extra_loss_pct.is_finite() && (0.0..=100.0).contains(&extra_loss_pct),
            "extra_loss must be a finite percentage in [0, 100], got {extra_loss_pct}"
        );
        FaultPlan {
            extra_latency: Latency::from_ms(extra_latency_ms),
            extra_loss: LossRate::from_percent(extra_loss_pct),
            ..FaultPlan::NONE
        }
    }

    /// A plan shaping the link to `rate`.
    ///
    /// # Panics
    /// Panics when the rate is zero — a zero-rate shaper is always a
    /// mis-computed knob (it would zero the link's capacity), so it fails
    /// loudly here rather than producing an unusable link. Non-finite and
    /// negative rates are already rejected by [`Bandwidth`]'s
    /// constructors.
    pub fn with_shaping(rate: Bandwidth) -> FaultPlan {
        assert!(
            !rate.is_zero(),
            "shape_to must be a positive rate, got {rate}"
        );
        FaultPlan {
            shape_to: Some(rate),
            ..FaultPlan::NONE
        }
    }

    /// A plan that drops each counter sample with probability `prob`.
    ///
    /// # Panics
    /// Panics unless `prob` is a finite probability in `[0, 1]` — the
    /// validating front door for the knob, so a mis-computed probability
    /// fails loudly at construction instead of silently eating a series.
    pub fn with_sample_drop(prob: f64) -> FaultPlan {
        assert!(
            prob.is_finite() && (0.0..=1.0).contains(&prob),
            "sample_drop_prob must be a probability in [0, 1], got {prob}"
        );
        FaultPlan {
            sample_drop_prob: prob,
            ..FaultPlan::NONE
        }
    }

    /// The drop probability actually applied: `sample_drop_prob` clamped
    /// to `[0, 1]`, with NaN treated as 0 (no dropping).
    ///
    /// `sample_drop_prob` is a public field, so plans built with struct
    /// syntax bypass [`FaultPlan::with_sample_drop`]'s validation; before
    /// this clamp existed, a NaN propagated from upstream arithmetic made
    /// `rng.gen::<f64>() >= NaN` false for every sample and silently
    /// dropped the entire series.
    pub fn effective_drop_prob(&self) -> f64 {
        if self.sample_drop_prob.is_nan() {
            0.0
        } else {
            self.sample_drop_prob.clamp(0.0, 1.0)
        }
    }

    /// Apply the plan to a link.
    ///
    /// # Panics
    /// Panics when `shape_to` is set to a zero rate. `shape_to` is a
    /// public field, so plans built with struct syntax bypass
    /// [`FaultPlan::with_shaping`]'s validation; a zero-rate shaper used
    /// to silently produce a dead link, which read as "no shaping" in
    /// downstream summaries.
    pub fn apply(&self, link: &AccessLink) -> AccessLink {
        let mut degraded = link.degraded(self.extra_latency, self.extra_loss);
        if let Some(rate) = self.shape_to {
            assert!(
                !rate.is_zero(),
                "shape_to must be a positive rate, got {rate}"
            );
            degraded.capacity = degraded.capacity.min(rate);
        }
        degraded
    }

    /// Apply sample dropping to a series of counter samples.
    pub fn drop_samples<T, R: Rng + ?Sized>(&self, samples: Vec<T>, rng: &mut R) -> Vec<T> {
        let prob = self.effective_drop_prob();
        if prob <= 0.0 {
            return samples;
        }
        samples
            .into_iter()
            .filter(|_| rng.gen::<f64>() >= prob)
            .collect()
    }
}

/// A token bucket, for rate-shaping experiments.
///
/// Tokens are bytes; the bucket refills continuously at `rate` and holds at
/// most `burst` bytes.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TokenBucket {
    rate_bytes_per_sec: f64,
    burst_bytes: f64,
    tokens: f64,
    last_time: f64,
}

impl TokenBucket {
    /// Create a full bucket.
    ///
    /// # Panics
    /// Panics unless rate and burst are positive.
    pub fn new(rate: Bandwidth, burst_bytes: f64) -> Self {
        assert!(!rate.is_zero(), "shaper rate must be positive");
        assert!(burst_bytes > 0.0, "burst must be positive");
        TokenBucket {
            rate_bytes_per_sec: rate.bps() / 8.0,
            burst_bytes,
            tokens: burst_bytes,
            last_time: 0.0,
        }
    }

    /// Offer `bytes` at absolute time `now` (seconds, monotone); returns
    /// the bytes admitted (the rest are dropped/deferred by the caller).
    pub fn admit(&mut self, now: f64, bytes: f64) -> f64 {
        assert!(now >= self.last_time, "time went backwards");
        self.tokens =
            (self.tokens + (now - self.last_time) * self.rate_bytes_per_sec).min(self.burst_bytes);
        self.last_time = now;
        let granted = bytes.min(self.tokens);
        self.tokens -= granted;
        granted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn link() -> AccessLink {
        AccessLink::new(
            Bandwidth::from_mbps(10.0),
            Latency::from_ms(50.0),
            LossRate::from_percent(0.1),
        )
    }

    #[test]
    fn none_plan_is_identity() {
        let l = link();
        assert_eq!(FaultPlan::NONE.apply(&l), l);
    }

    #[test]
    fn satellite_plan_degrades() {
        let d = FaultPlan::satellite().apply(&link());
        assert_eq!(d.base_rtt, Latency::from_ms(650.0));
        assert!((d.loss.percent() - 1.6).abs() < 1e-9);
    }

    #[test]
    fn shaping_caps_capacity() {
        let plan = FaultPlan {
            shape_to: Some(Bandwidth::from_mbps(2.0)),
            ..FaultPlan::NONE
        };
        assert_eq!(plan.apply(&link()).capacity, Bandwidth::from_mbps(2.0));
        // Shaping never raises capacity.
        let plan_high = FaultPlan {
            shape_to: Some(Bandwidth::from_mbps(100.0)),
            ..FaultPlan::NONE
        };
        assert_eq!(
            plan_high.apply(&link()).capacity,
            Bandwidth::from_mbps(10.0)
        );
    }

    #[test]
    fn sample_dropping_is_probabilistic() {
        let plan = FaultPlan {
            sample_drop_prob: 0.5,
            ..FaultPlan::NONE
        };
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let kept = plan.drop_samples((0..10_000).collect::<Vec<_>>(), &mut rng);
        let frac = kept.len() as f64 / 10_000.0;
        assert!((frac - 0.5).abs() < 0.05, "kept {frac}");
    }

    #[test]
    fn nan_drop_prob_keeps_every_sample() {
        // Regression: `rng.gen::<f64>() >= NaN` is false for every sample,
        // so a NaN propagated from upstream arithmetic used to silently
        // drop the entire series. NaN now means "knob unset" (drop nothing).
        let plan = FaultPlan {
            sample_drop_prob: f64::NAN,
            ..FaultPlan::NONE
        };
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let kept = plan.drop_samples((0..1000).collect::<Vec<_>>(), &mut rng);
        assert_eq!(kept.len(), 1000, "NaN must not drop samples");
        assert_eq!(plan.effective_drop_prob(), 0.0);
    }

    #[test]
    fn out_of_range_drop_prob_clamps() {
        let plan = FaultPlan {
            sample_drop_prob: 7.5,
            ..FaultPlan::NONE
        };
        assert_eq!(plan.effective_drop_prob(), 1.0);
        let plan = FaultPlan {
            sample_drop_prob: -0.25,
            ..FaultPlan::NONE
        };
        assert_eq!(plan.effective_drop_prob(), 0.0);
    }

    #[test]
    #[should_panic(expected = "sample_drop_prob must be a probability")]
    fn validating_constructor_rejects_nan() {
        let _ = FaultPlan::with_sample_drop(f64::NAN);
    }

    #[test]
    #[should_panic(expected = "sample_drop_prob must be a probability")]
    fn validating_constructor_rejects_out_of_range() {
        let _ = FaultPlan::with_sample_drop(1.5);
    }

    #[test]
    fn impairment_builder_matches_struct_syntax() {
        let built = FaultPlan::with_impairments(600.0, 1.5);
        assert_eq!(built, FaultPlan::satellite());
        assert_eq!(built.extra_latency, Latency::from_ms(600.0));
        assert_eq!(built.extra_loss, LossRate::from_percent(1.5));
    }

    #[test]
    #[should_panic(expected = "extra_latency must be finite and non-negative")]
    fn impairment_builder_rejects_nan_latency() {
        let _ = FaultPlan::with_impairments(f64::NAN, 0.5);
    }

    #[test]
    #[should_panic(expected = "extra_latency must be finite and non-negative")]
    fn impairment_builder_rejects_negative_latency() {
        let _ = FaultPlan::with_impairments(-1.0, 0.5);
    }

    #[test]
    #[should_panic(expected = "extra_loss must be a finite percentage")]
    fn impairment_builder_rejects_non_finite_loss() {
        let _ = FaultPlan::with_impairments(10.0, f64::INFINITY);
    }

    #[test]
    #[should_panic(expected = "extra_loss must be a finite percentage")]
    fn impairment_builder_rejects_negative_loss() {
        let _ = FaultPlan::with_impairments(10.0, -0.5);
    }

    #[test]
    fn shaping_builder_shapes() {
        let plan = FaultPlan::with_shaping(Bandwidth::from_mbps(2.0));
        assert_eq!(plan.apply(&link()).capacity, Bandwidth::from_mbps(2.0));
    }

    #[test]
    #[should_panic(expected = "shape_to must be a positive rate")]
    fn shaping_builder_rejects_zero_rate() {
        let _ = FaultPlan::with_shaping(Bandwidth::ZERO);
    }

    #[test]
    #[should_panic(expected = "shape_to must be a positive rate")]
    fn zero_rate_shaper_fails_loudly_at_apply() {
        // Struct syntax bypasses the builder; a zero-rate shaper used to
        // silently zero the link's capacity.
        let plan = FaultPlan {
            shape_to: Some(Bandwidth::ZERO),
            ..FaultPlan::NONE
        };
        let _ = plan.apply(&link());
    }

    #[test]
    fn token_bucket_enforces_rate() {
        // 1 Mbps shaper = 125 kB/s; offer 1 MB every second.
        let mut tb = TokenBucket::new(Bandwidth::from_mbps(1.0), 125_000.0);
        let mut admitted = 0.0;
        for s in 1..=10 {
            admitted += tb.admit(s as f64, 1_000_000.0);
        }
        // Bucket admits at most burst + rate*time.
        assert!(admitted <= 125_000.0 * 11.0);
        assert!(admitted >= 125_000.0 * 10.0 * 0.99);
    }

    #[test]
    fn token_bucket_allows_bursts() {
        let mut tb = TokenBucket::new(Bandwidth::from_mbps(1.0), 500_000.0);
        // A cold bucket admits a full burst instantly.
        assert_eq!(tb.admit(0.0, 500_000.0), 500_000.0);
        // And then nothing until it refills.
        assert_eq!(tb.admit(0.0, 1.0), 0.0);
        assert!(tb.admit(1.0, 1_000_000.0) <= 125_000.0 + 1e-9);
    }

    #[test]
    #[should_panic(expected = "time went backwards")]
    fn bucket_rejects_time_travel() {
        let mut tb = TokenBucket::new(Bandwidth::from_mbps(1.0), 1000.0);
        tb.admit(5.0, 10.0);
        tb.admit(4.0, 10.0);
    }
}
