//! Property tests of the fault layer: token-bucket shaping is monotone
//! (a shaper never admits more than was offered, a tighter shaper never
//! admits more than a looser one, and a shaped link never carries more
//! traffic than the unshaped link), and `FaultPlan::NONE` is an exact
//! identity on links, sample schedules and collected series.

use bb_netsim::chaos::ChaosPlan;
use bb_netsim::collect::{BtFilter, CollectScratch, CounterSource, UsageSeries};
use bb_netsim::fault::{FaultPlan, TokenBucket};
use bb_netsim::link::AccessLink;
use bb_netsim::workload::{simulate_user, UserWorkload};
use bb_trace::Registry;
use bb_types::{Bandwidth, Latency, LossRate, TimeAxis, Year};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Offered traffic: positive inter-arrival gaps and byte sizes.
fn offered() -> impl Strategy<Value = Vec<(f64, f64)>> {
    prop::collection::vec((1e-3f64..5.0, 0.0f64..2e6), 1..200)
}

fn drain(bucket: &mut TokenBucket, workload: &[(f64, f64)]) -> f64 {
    let mut now = 0.0;
    let mut admitted = 0.0;
    for &(dt, bytes) in workload {
        now += dt;
        admitted += bucket.admit(now, bytes);
    }
    admitted
}

proptest! {
    #[test]
    fn bucket_never_admits_more_than_offered_or_rate(
        workload in offered(),
        rate_mbps in 0.1f64..100.0,
        burst in 1e3f64..1e7,
    ) {
        let mut bucket = TokenBucket::new(Bandwidth::from_mbps(rate_mbps), burst);
        let mut now = 0.0;
        let mut admitted = 0.0;
        for &(dt, bytes) in &workload {
            now += dt;
            let granted = bucket.admit(now, bytes);
            prop_assert!(granted >= 0.0 && granted <= bytes + 1e-9);
            admitted += granted;
        }
        // Long-run bound: a full bucket plus the refill over the window.
        let ceiling = burst + now * rate_mbps * 1e6 / 8.0;
        prop_assert!(admitted <= ceiling * (1.0 + 1e-9), "{admitted} > {ceiling}");
    }

    #[test]
    fn tighter_shaper_never_admits_more(
        workload in offered(),
        rate_mbps in 0.1f64..50.0,
        factor in 1.0f64..10.0,
        burst in 1e3f64..1e6,
    ) {
        let mut tight = TokenBucket::new(Bandwidth::from_mbps(rate_mbps), burst);
        let mut loose = TokenBucket::new(Bandwidth::from_mbps(rate_mbps * factor), burst);
        let a = drain(&mut tight, &workload);
        let b = drain(&mut loose, &workload);
        prop_assert!(a <= b * (1.0 + 1e-9) + 1e-9, "tight {a} > loose {b}");
    }

    #[test]
    fn shaped_link_carries_no_more_traffic_than_unshaped(
        seed in 0u64..1_000,
        shape_frac in 0.1f64..1.0,
    ) {
        let link = AccessLink::new(
            Bandwidth::from_mbps(20.0),
            Latency::from_ms(40.0),
            LossRate::from_percent(0.1),
        );
        let wl = UserWorkload::with_bt(Bandwidth::from_mbps(5.0), 0.4);
        let axis = TimeAxis::new(Year(2012), 2);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let unshaped = simulate_user(&link, &wl, axis, &mut rng);
        let plan = FaultPlan::with_shaping(Bandwidth::from_mbps(20.0 * shape_frac));
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let shaped = simulate_user(&plan.apply(&link), &wl, axis, &mut rng);
        prop_assert!(
            shaped.total_bytes() <= unshaped.total_bytes() * (1.0 + 1e-9),
            "shaped {} > unshaped {}",
            shaped.total_bytes(),
            unshaped.total_bytes()
        );
    }

    #[test]
    fn none_plan_is_an_exact_identity_on_collected_series(
        seed in 0u64..1_000,
        uptime in 0.2f64..1.0,
    ) {
        let link = AccessLink::new(
            Bandwidth::from_mbps(10.0),
            Latency::from_ms(50.0),
            LossRate::from_percent(0.1),
        );
        // The degraded link is the same link.
        prop_assert_eq!(FaultPlan::NONE.apply(&link), link);

        let wl = UserWorkload::with_bt(Bandwidth::from_mbps(1.0), 0.5);
        let axis = TimeAxis::new(Year(2012), 2);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let truth = simulate_user(&link, &wl, axis, &mut rng);

        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xDEAD);
        let series = UsageSeries::collect_via_counters_chaos_with(
            &truth,
            uptime,
            CounterSource::Upnp,
            link.capacity,
            &ChaosPlan::NONE,
            &mut rng,
            &mut ChaCha8Rng::seed_from_u64(0),
            &mut Registry::new(),
            &mut CollectScratch::new(),
        );

        // Dropping with NONE keeps every bin and draws nothing.
        let mut drop_rng = ChaCha8Rng::seed_from_u64(7);
        let kept = FaultPlan::NONE.drop_samples(series.bins.clone(), &mut drop_rng);
        prop_assert_eq!(&kept, &series.bins);
        let mut fresh = ChaCha8Rng::seed_from_u64(7);
        prop_assert_eq!(drop_rng.gen::<u64>(), fresh.gen::<u64>());

        // And the demand summary is bit-identical to the untouched one.
        let untouched = UsageSeries { width: series.width, bins: kept };
        prop_assert_eq!(
            untouched.demand(BtFilter::Include),
            series.demand(BtFilter::Include)
        );
    }
}
