//! Quick component profile of the generation hot path (release mode):
//!
//! ```sh
//! cargo run --release -p bb-dataset --example hotprof
//! ```
//!
//! First times `fold_users` end to end, then replays its stages over a
//! spread of users drawn through the public agent model: a country picked
//! by user weight, an agent from that country's [`AgentSampler`], and the
//! plan [`choose_plan`] picks from the country's catalogue. Each stage is
//! timed per user; the rows, their sum and the remainder of the
//! `fold_users` per-user cost show where generation time goes.
//!
//! The replay observes each user once, with one agent draw. The
//! generator also redraws agents its market-entry step rejects, observes
//! movers a second time and builds records; those costs stay in the
//! `unattributed` row.

use bb_dataset::agent::AgentSampler;
use bb_dataset::world::{World, WorldConfig};
use bb_dataset::{builtin_world, choose_plan, Agent};
use bb_engine::ShardPlan;
use bb_market::Plan;
use bb_netsim::chaos::ChaosPlan;
use bb_netsim::collect::{BtFilter, CollectScratch, CounterSource, UsageSeries};
use bb_netsim::link::AccessLink;
use bb_netsim::probe::NdtProbe;
use bb_netsim::workload::{simulate_user_into, GroundTruth, UserWorkload};
use bb_types::{Bandwidth, Latency, LossRate, TimeAxis, Year};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::time::{Duration, Instant};

/// Users in the replayed spread.
const SPREAD: usize = 4_000;
/// Observation year of the replay: the panel's middle year, where
/// country appetite medians apply as given.
const YEAR: Year = Year(2012);

fn main() {
    let users = 20_000u64;
    let cfg = WorldConfig::streaming(1, users, 1, 600);
    let world = World::new(cfg);
    let t0 = Instant::now();
    let (survey, seen) =
        world.fold_users(ShardPlan::serial(), Vec::new, |acc: &mut Vec<u64>, _, _| {
            acc.push(1)
        });
    let dt = t0.elapsed();
    let fold_us = dt.as_secs_f64() * 1e6 / seen.len() as f64;
    println!(
        "fold_users: {} users in {:.2?} = {:.0} users/sec ({fold_us:.1} us/user)",
        seen.len(),
        dt,
        seen.len() as f64 / dt.as_secs_f64(),
    );

    // The spread: countries by user weight, agents and plans through the
    // public agent model, each with its country's median path quality.
    let markets: Vec<_> = builtin_world()
        .into_iter()
        .filter_map(|p| {
            let catalog = survey.get(p.country)?.catalog.clone();
            Some((p, catalog))
        })
        .collect();
    let total_weight: f64 = markets.iter().map(|(p, _)| p.user_weight).sum();
    let mut rng = ChaCha8Rng::seed_from_u64(7);
    let picks: Vec<usize> = (0..SPREAD)
        .map(|_| {
            let mut x = rng.gen::<f64>() * total_weight;
            markets
                .iter()
                .position(|(p, _)| {
                    x -= p.user_weight;
                    x < 0.0
                })
                .unwrap_or(markets.len() - 1)
        })
        .collect();
    let t = Instant::now();
    let drawn: Vec<(usize, Agent, &Plan)> = picks
        .iter()
        .map(|&m| {
            let (profile, catalog) = &markets[m];
            let sampler = AgentSampler::new(profile.appetite_median_mbps, profile.monthly_income());
            let agent = sampler.sample(&mut rng);
            (m, agent, choose_plan(&agent, catalog))
        })
        .collect();
    let draw_us = us(t.elapsed(), SPREAD);

    let axis = TimeAxis::new(YEAR, 1);
    let mut chaos_rng = ChaCha8Rng::seed_from_u64(8);
    let mut truth = GroundTruth::empty(axis);
    let mut cross_up = Vec::new();
    let mut scratch = CollectScratch::new();
    let mut rates = Vec::new();
    let mut reg = bb_trace::Registry::new();
    let [mut simulate, mut collect, mut demand, mut ndt] = [Duration::ZERO; 4];
    let mut acc = 0.0;
    for &(m, agent, plan) in &drawn {
        let profile = &markets[m].0;
        let link = AccessLink::new(
            plan.download,
            Latency::from_ms(profile.rtt_median_ms),
            LossRate::from_percent(profile.loss_median_pct),
        )
        .with_upload(plan.upload.max(Bandwidth::from_kbps(64.0)));
        let workload = workload_of(&agent, plan, axis, &mut rng);

        let t = Instant::now();
        simulate_user_into(&link, &workload, axis, &mut rng, &mut truth, &mut cross_up);
        simulate += t.elapsed();

        let t = Instant::now();
        let collected = UsageSeries::collect_via_counters_chaos_with(
            &truth,
            0.5,
            CounterSource::Upnp,
            link.capacity,
            &ChaosPlan::NONE,
            &mut rng,
            &mut chaos_rng,
            &mut reg,
            &mut scratch,
        );
        collect += t.elapsed();

        let t = Instant::now();
        let a = collected.demand_with(BtFilter::Include, &mut rates);
        let b = collected.demand_with(BtFilter::Exclude, &mut rates);
        let c = collected.upload_mean(BtFilter::Include);
        demand += t.elapsed();
        acc += a.map_or(0.0, |d| d.mean.bps())
            + b.map_or(0.0, |d| d.mean.bps())
            + c.map_or(0.0, |u| u.bps());

        let t = Instant::now();
        acc += NdtProbe::default()
            .run_averaged(&link, 4, &mut rng)
            .download
            .bps();
        ndt += t.elapsed();
    }

    let rows = [
        ("agent draw + plan choice", draw_us),
        ("simulate_user_into", us(simulate, SPREAD)),
        ("collect_with (upnp)", us(collect, SPREAD)),
        ("demand x2 + upload", us(demand, SPREAD)),
        ("ndt x4", us(ndt, SPREAD)),
    ];
    println!("replay over {SPREAD} sampled users (acc {acc:.0}):");
    for (name, cost) in rows {
        println!("  {name:<26} {cost:7.1} us/user");
    }
    let sum: f64 = rows.iter().map(|(_, cost)| cost).sum();
    println!("  {:<26} {sum:7.1} us/user", "sum of rows");
    println!(
        "  {:<26} {:7.1} us/user (fold_users minus the rows)",
        "unattributed",
        fold_us - sum
    );

    // RNG keystream cost alone, part of collection: one acceptance draw
    // per slot.
    use rand::RngCore;
    let mut draws = vec![0.0f64; truth.slot_bytes.len()];
    let t = Instant::now();
    for _ in 0..SPREAD {
        rng.fill_standard_f64(&mut draws);
    }
    println!(
        "keystream alone (fill_standard_f64, {} slots; part of collect): {:.1} us/user (d0 {})",
        draws.len(),
        us(t.elapsed(), SPREAD),
        draws[0]
    );
}

/// The workload the world generator builds for `agent` on `plan`:
/// cap-paced intensity, BitTorrent share, persona app mix, and household
/// cross traffic for 40% of users.
fn workload_of(agent: &Agent, plan: &Plan, axis: TimeAxis, rng: &mut ChaCha8Rng) -> UserWorkload {
    let cap_bytes = plan.cap_gb.map(|gb| gb * 1e9 / 30.0);
    let mut intensity = agent.offered_intensity();
    if let Some(cap) = cap_bytes {
        intensity = intensity.min(Bandwidth::from_bps(0.8 * cap * 8.0 / axis.duration_secs()));
    }
    let mut workload = if agent.bt_user {
        UserWorkload::with_bt(intensity, 0.45)
    } else {
        UserWorkload::without_bt(intensity)
    };
    workload.mix = agent.persona.app_mix();
    if let Some(cap) = cap_bytes {
        workload = workload.with_cap(cap);
    }
    if rng.gen::<f64>() < 0.4 {
        workload = workload.with_cross_traffic(intensity * rng.gen_range(0.1..0.5));
    }
    workload
}

fn us(elapsed: Duration, users: usize) -> f64 {
    elapsed.as_secs_f64() * 1e6 / users as f64
}
