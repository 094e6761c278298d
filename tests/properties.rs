//! Property-based tests of the core invariants, spanning crates.

use needwant::causal::{match_pairs, Caliper, Unit};
use needwant::netsim::chaos::ChaosPlan;
use needwant::netsim::collect::{BtFilter, CollectScratch, CounterSource};
use needwant::netsim::counters::{
    max_plausible_bytes, upnp_deltas, upnp_deltas_stats, NetstatCounter, UpnpCounter,
};
use needwant::netsim::fault::TokenBucket;
use needwant::netsim::link::AccessLink;
use needwant::netsim::tcp::{achievable_rate, mathis_throughput};
use needwant::netsim::{simulate_user, UsageSeries, UserWorkload};
use needwant::stats::dist::Binomial;
use needwant::stats::hypothesis::{binomial_test, Tail};
use needwant::stats::{quantile, Ecdf};
use needwant::trace::Registry;
use needwant::types::{Bandwidth, CapacityBin, Latency, LossRate, MoneyPpp, PppConverter};
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

proptest! {
    // ---------- statistics ----------

    #[test]
    fn quantiles_are_monotone_and_bounded(
        mut data in prop::collection::vec(-1e6f64..1e6, 1..200),
        q1 in 0.0f64..=1.0,
        q2 in 0.0f64..=1.0,
    ) {
        let (lo, hi) = (q1.min(q2), q1.max(q2));
        let v_lo = quantile(&data, lo);
        let v_hi = quantile(&data, hi);
        prop_assert!(v_lo <= v_hi);
        data.sort_by(|a, b| a.partial_cmp(b).unwrap());
        prop_assert!(v_lo >= data[0] && v_hi <= data[data.len() - 1]);
    }

    #[test]
    fn ecdf_is_a_distribution_function(
        data in prop::collection::vec(-1e3f64..1e3, 1..100),
        x1 in -1e3f64..1e3,
        x2 in -1e3f64..1e3,
    ) {
        let e = Ecdf::new(data.iter().copied());
        let (a, b) = (x1.min(x2), x1.max(x2));
        prop_assert!(e.eval(a) <= e.eval(b), "monotone");
        prop_assert!((0.0..=1.0).contains(&e.eval(a)));
        prop_assert!(e.eval(e.max()) == 1.0);
    }

    #[test]
    fn binomial_sf_is_monotone_in_k(n in 1u64..500, p in 0.01f64..0.99) {
        let d = Binomial::new(n, p);
        let mut prev = 1.0f64;
        for k in 0..=n {
            let sf = d.sf_at_least(k);
            prop_assert!(sf <= prev + 1e-12, "sf must fall as k grows");
            prop_assert!((0.0..=1.0 + 1e-12).contains(&sf));
            prev = sf;
        }
    }

    #[test]
    fn binomial_test_p_value_falls_with_more_successes(
        n in 10u64..300,
        k in 1u64..10,
    ) {
        let k = k.min(n - 1);
        let t1 = binomial_test(k, n, 0.5, Tail::Greater);
        let t2 = binomial_test(k + 1, n, 0.5, Tail::Greater);
        prop_assert!(t2.p_value <= t1.p_value);
    }

    // ---------- types ----------

    #[test]
    fn bandwidth_arithmetic_is_consistent(a in 0.0f64..1e9, b in 0.0f64..1e9) {
        let x = Bandwidth::from_bps(a);
        let y = Bandwidth::from_bps(b);
        prop_assert!((x + y).bps() >= x.bps().max(y.bps()));
        // Saturating subtraction: (x - y) + y recovers the larger value.
        let recovered = ((x - y) + y).bps();
        prop_assert!((recovered - a.max(b)).abs() <= 1e-9 * a.max(b).max(1.0));
        prop_assert!(x.min(y) <= x.max(y));
    }

    #[test]
    fn capacity_bins_partition_the_axis(bps in 1.0f64..1e9) {
        let bw = Bandwidth::from_bps(bps);
        let bin = CapacityBin::of(bw);
        prop_assert!(bw <= bin.upper());
        if bin.0 > 0 {
            prop_assert!(bw > bin.lower());
        }
        // Adjacent bins tile: upper(k) == lower(k+1).
        prop_assert_eq!(bin.upper(), bin.next().lower());
    }

    #[test]
    fn ppp_round_trip(amount in 0.01f64..1e6, rate in 0.01f64..1e4, ppp in 0.01f64..1e4) {
        let c = PppConverter::new(rate, ppp);
        let dollars = c.to_ppp(amount);
        prop_assert!((dollars.usd() * ppp - amount).abs() < 1e-6 * amount.max(1.0));
    }

    #[test]
    fn money_fraction_of_income_is_scale_free(price in 0.1f64..1e4, income in 1.0f64..1e6, k in 0.1f64..100.0) {
        let f1 = MoneyPpp::from_usd(price).fraction_of(MoneyPpp::from_usd(income)).unwrap();
        let f2 = MoneyPpp::from_usd(price * k).fraction_of(MoneyPpp::from_usd(income * k)).unwrap();
        prop_assert!((f1 - f2).abs() < 1e-9 * f1.max(1e-9));
    }

    // ---------- causal ----------

    #[test]
    fn calipers_are_symmetric_and_scale_free(
        a in 0.0f64..1e6,
        b in 0.0f64..1e6,
        frac in 0.01f64..1.0,
        k in 0.1f64..10.0,
    ) {
        let c = Caliper::relative(frac);
        prop_assert_eq!(c.within(a, b), c.within(b, a));
        prop_assert_eq!(c.within(a, b), c.within(a * k, b * k));
    }

    #[test]
    fn matching_pairs_are_disjoint_and_respect_calipers(
        control in prop::collection::vec((1.0f64..100.0, -10.0f64..10.0), 0..40),
        treatment in prop::collection::vec((1.0f64..100.0, -10.0f64..10.0), 0..40),
    ) {
        let mk = |base: u64, v: &[(f64, f64)]| -> Vec<Unit> {
            v.iter().enumerate()
                .map(|(i, (cov, out))| Unit::new(base + i as u64, vec![*cov], *out))
                .collect()
        };
        let c = mk(0, &control);
        let t = mk(1000, &treatment);
        let calipers = [Caliper::PAPER];
        let pairs = match_pairs(&c, &t, &calipers);
        prop_assert!(pairs.len() <= c.len().min(t.len()));
        let mut used_c: Vec<u64> = pairs.iter().map(|p| p.control_id).collect();
        let mut used_t: Vec<u64> = pairs.iter().map(|p| p.treatment_id).collect();
        used_c.sort_unstable(); used_c.dedup();
        used_t.sort_unstable(); used_t.dedup();
        prop_assert_eq!(used_c.len(), pairs.len(), "controls reused");
        prop_assert_eq!(used_t.len(), pairs.len(), "treated reused");
        for p in &pairs {
            let cu = c.iter().find(|u| u.id == p.control_id).unwrap();
            let tu = t.iter().find(|u| u.id == p.treatment_id).unwrap();
            prop_assert!(calipers[0].within(cu.covariates[0], tu.covariates[0]));
        }
    }

    // ---------- netsim ----------

    #[test]
    fn mathis_is_monotone(
        rtt1 in 1.0f64..2000.0,
        rtt2 in 1.0f64..2000.0,
        loss1 in 0.0f64..0.3,
        loss2 in 0.0f64..0.3,
    ) {
        let (r_lo, r_hi) = (rtt1.min(rtt2), rtt1.max(rtt2));
        let (l_lo, l_hi) = (loss1.min(loss2), loss1.max(loss2));
        let fast = mathis_throughput(Latency::from_ms(r_lo), LossRate::from_fraction(l_lo));
        let slow = mathis_throughput(Latency::from_ms(r_hi), LossRate::from_fraction(l_hi));
        prop_assert!(slow <= fast);
    }

    #[test]
    fn achievable_rate_never_exceeds_its_bounds(
        cap in 0.1f64..1000.0,
        rtt in 1.0f64..2000.0,
        loss in 0.0f64..0.3,
        desired in 0.01f64..1000.0,
        flows in 1u32..64,
        bg in 0.0f64..1.0,
    ) {
        let link = AccessLink::new(
            Bandwidth::from_mbps(cap),
            Latency::from_ms(rtt),
            LossRate::from_fraction(loss),
        );
        let want = Bandwidth::from_mbps(desired);
        let got = achievable_rate(&link, want, flows, bg);
        prop_assert!(got <= want);
        prop_assert!(got <= link.capacity);
    }

    #[test]
    fn upnp_counters_reconstruct_any_traffic_pattern(
        deltas in prop::collection::vec(0u64..50_000_000, 1..60),
    ) {
        let mut counter = UpnpCounter::new();
        let mut reads = vec![counter.read()];
        for &d in &deltas {
            counter.add(d);
            reads.push(counter.read());
        }
        let recovered = upnp_deltas(&reads, max_plausible_bytes(100e9, 30.0));
        prop_assert_eq!(recovered, deltas);
    }

    #[test]
    fn upnp_recovery_is_bounded_under_wrap_reset_and_drop_schedules(
        // Per poll interval: bytes transferred (up to ~2 GB, enough to be
        // implausible for a 100 Mbps / 30 s interval and to wrap the u32
        // register quickly), a reset roll (0 ⇒ gateway reboots, ~8%) and a
        // drop roll (0 ⇒ the poll is lost, ~10%, merging two intervals).
        schedule in prop::collection::vec(
            (0u64..2_000_000_000, 0u8..12, 0u8..10),
            2..60,
        ),
        preload in 0u64..4_000_000_000,
    ) {
        // 100 Mbps for 30 s, with the 2x headroom: 750 MB per interval.
        let max_plausible = max_plausible_bytes(100e6, 30.0);
        let mut upnp = UpnpCounter::new();
        let mut netstat = NetstatCounter::new();
        upnp.add(preload);
        netstat.add(preload);
        let mut upnp_reads = vec![upnp.read()];
        let mut net_reads = vec![netstat.read()];
        // Some(bytes): no reset since the last recorded poll and the true
        // total is plausible, so recovery must be *exact*. None: recovery
        // only has to respect the clamp bound.
        let mut expected: Vec<Option<u64>> = Vec::new();
        let mut pending = 0u64;
        let mut pending_reset = false;
        for &(bytes, reset_roll, drop_roll) in &schedule {
            if reset_roll == 0 {
                upnp.reset();
                netstat.reset();
                pending_reset = true;
            }
            upnp.add(bytes);
            netstat.add(bytes);
            pending += bytes;
            if drop_roll == 0 {
                continue; // lost poll: this interval merges into the next
            }
            upnp_reads.push(upnp.read());
            net_reads.push(netstat.read());
            expected.push((!pending_reset && pending <= max_plausible).then_some(pending));
            pending = 0;
            pending_reset = false;
        }

        let (recovered, stats) = upnp_deltas_stats(&upnp_reads, max_plausible);
        prop_assert_eq!(recovered.len(), expected.len());
        for (i, (&got, &want)) in recovered.iter().zip(&expected).enumerate() {
            // The headline guarantee of the recovery heuristic: no
            // recovered delta ever exceeds the plausibility clamp.
            prop_assert!(
                got <= max_plausible,
                "interval {i}: recovered {got} above clamp {max_plausible}"
            );
            if let Some(bytes) = want {
                prop_assert_eq!(got, bytes, "interval {i}: clean interval not exact");
                // The 64-bit netstat register cannot wrap, so on clean
                // intervals both counter sources must agree.
                let net_delta = net_reads[i + 1].saturating_sub(net_reads[i]);
                prop_assert_eq!(got, net_delta, "interval {i}: sources disagree");
            }
        }
        prop_assert!(
            stats.wraps + stats.resets <= recovered.len() as u64,
            "each interval fires at most one heuristic"
        );
        prop_assert!(stats.clamped <= stats.resets, "only resets clamp");
    }

    #[test]
    fn token_bucket_never_exceeds_rate_plus_burst(
        rate_mbps in 0.1f64..100.0,
        burst in 1e3f64..1e7,
        offers in prop::collection::vec(0.0f64..1e8, 1..50),
    ) {
        let mut tb = TokenBucket::new(Bandwidth::from_mbps(rate_mbps), burst);
        let mut granted = 0.0;
        for (i, offer) in offers.iter().enumerate() {
            granted += tb.admit(i as f64, *offer);
        }
        let horizon = offers.len() as f64;
        let ceiling = burst + rate_mbps * 1e6 / 8.0 * horizon;
        prop_assert!(granted <= ceiling + 1e-6, "granted {granted} vs ceiling {ceiling}");
    }
}

/// End-to-end version of the clamp bound, for both counter sources: under
/// seeded random workloads and a flaky (0.6-uptime) client whose missed
/// polls merge and drop intervals, every reconstructed per-slot rate stays
/// within the plausibility headroom of the link, and the traced registry
/// stays consistent (UPnP heuristics never fire for netstat collection).
#[test]
fn counter_collection_stays_plausible_under_random_schedules() {
    use needwant::types::{Bandwidth, Latency, LossRate, TimeAxis, Year};
    let link = AccessLink::new(
        Bandwidth::from_mbps(100.0),
        Latency::from_ms(30.0),
        LossRate::from_percent(0.01),
    );
    let wl = UserWorkload::with_bt(Bandwidth::from_mbps(20.0), 0.5);
    for seed in 0..4u64 {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let truth = simulate_user(&link, &wl, TimeAxis::new(Year(2013), 3), &mut rng);
        for source in [CounterSource::Upnp, CounterSource::Netstat] {
            let mut reg = Registry::new();
            let mut rng = ChaCha8Rng::seed_from_u64(seed + 100);
            let series = UsageSeries::collect_via_counters_chaos_with(
                &truth,
                0.6,
                source,
                link.capacity,
                &ChaosPlan::NONE,
                &mut rng,
                &mut ChaCha8Rng::seed_from_u64(0),
                &mut reg,
                &mut CollectScratch::new(),
            );
            // max_plausible allows 2x the link capacity per interval.
            let ceiling = 2.0 * link.capacity.bps() + 1.0;
            for rate in series.rates(BtFilter::Include) {
                assert!(
                    rate <= ceiling,
                    "seed {seed} {source:?}: rate {rate} above {ceiling}"
                );
            }
            assert!(reg.counter("netsim.collect.polls") > 0, "{source:?}");
            let heuristics = reg.counter("netsim.upnp.wraps")
                + reg.counter("netsim.upnp.resets")
                + reg.counter("netsim.upnp.reset_clamped");
            match source {
                // A fat BT pipe over 3 days must wrap the u32 register.
                CounterSource::Upnp => {
                    assert!(reg.counter("netsim.upnp.wraps") > 0, "seed {seed}")
                }
                CounterSource::Netstat => {
                    assert_eq!(heuristics, 0, "netstat must not fire UPnP heuristics")
                }
            }
        }
    }
}
