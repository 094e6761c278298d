//! World generation: from country profiles to a complete [`Dataset`].

use crate::agent::{choose_plan, Agent, AgentSampler};
use crate::country::{builtin_world, CountryProfile, APPETITE_GROWTH_PER_YEAR};
use crate::quality::{self, DataQuality};
use crate::record::{Dataset, UpgradeObservation, UpgradeSnapshot, UserRecord, VantageKind};
use bb_engine::snapshot::Snapshot;
use bb_engine::{
    run_sharded_checkpointed, run_sharded_traced, stream_rng, CheckpointError, CheckpointReport,
    CheckpointStore, Mergeable, RunHooks, RunStats, ShardPlan,
};
use bb_market::{MarketSurvey, Plan, PlanCatalog};
use bb_netsim::chaos::{ChaosPlan, ChaosSpec};
use bb_netsim::collect::{BtFilter, CollectScratch, CounterSource, UsageSeries, Vantage};
use bb_netsim::link::AccessLink;
use bb_netsim::probe::{web_latency, NdtProbe};
use bb_netsim::workload::{simulate_user_into, GroundTruth, UserWorkload};
use bb_stats::dist::LogNormal;
use bb_trace::Registry;
use bb_types::{Country, Latency, LossRate, NetworkId, TimeAxis, UserId, Year};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Stream id of the per-user RNG streams (market instantiation draws from
/// the sequential master RNG instead; see [`World::generate_with`]).
const USER_STREAM: u64 = 1;

/// Stream id of the per-user *chaos* RNG streams. Fault-campaign draws
/// come from their own counter-mode stream so that (a) a severity-0
/// campaign consumes zero draws and is bit-identical to a fault-free
/// run, and (b) chaos stays bit-reproducible under any shard/thread
/// plan, exactly like the user streams.
const CHAOS_STREAM: u64 = 2;

/// Users per generation block: each shard walks its index range in
/// fixed-size blocks, reusing one [`GenScratch`] for every user in the
/// shard. The block size is an internal batching knob only — every user
/// is still a pure function of `(seed, user_index)`, so the output is
/// **bit-identical for any block size** (pinned by the
/// `generation_is_block_size_invariant` test). 256 keeps the scratch hot
/// in cache without the block bookkeeping showing up in profiles.
const GEN_BLOCK_USERS: u64 = 256;

/// Per-shard reusable buffers for the generation hot path. One of these
/// lives for a whole shard; every user observation resets and refills it
/// instead of allocating the five per-window simulation buffers, the
/// poll/draw collection buffers, and the demand rates vector per user.
struct GenScratch {
    /// Simulated ground truth (five window-length buffers).
    truth: GroundTruth,
    /// Discarded uplink side of the cross-traffic process.
    cross_up: Vec<f64>,
    /// Poll/acceptance-draw buffers for counter-based collection.
    collect: CollectScratch,
    /// Filtered per-bin rates for the demand summaries.
    rates: Vec<f64>,
}

impl GenScratch {
    fn new(days: u32) -> Self {
        GenScratch {
            truth: GroundTruth::empty(TimeAxis::new(Year(2012), days)),
            cross_up: Vec::new(),
            collect: CollectScratch::new(),
            rates: Vec::new(),
        }
    }
}

/// Knobs controlling the size and shape of a generated dataset.
#[derive(Clone, Debug)]
pub struct WorldConfig {
    /// Master seed; every derived stream is deterministic in it.
    pub seed: u64,
    /// Multiplier on each country's `user_weight` to get its Dasu user
    /// count.
    pub user_scale: f64,
    /// Observation window length per user, days.
    pub days: u32,
    /// Panel years to populate.
    pub years: Vec<Year>,
    /// Size of the US-only FCC gateway cohort.
    pub fcc_users: usize,
    /// Fraction of Dasu users additionally observed after a service
    /// upgrade (the §3.2 movers).
    pub upgrade_fraction: f64,
    /// Fraction of Dasu users with the 2014 web-latency measurements
    /// (§7.1 added that experiment "later in the study").
    pub web_probe_fraction: f64,
    /// Share of BitTorrent users in the FCC cohort (gateway panellists are
    /// recruited very differently from Dasu's BitTorrent population).
    pub fcc_bt_prob: f64,
    /// Degradation campaign applied during collection (`None` = clean).
    /// Severity 0 is guaranteed bit-identical to `None`.
    pub chaos: Option<ChaosSpec>,
}

impl WorldConfig {
    /// A small, fast configuration for unit/integration tests
    /// (~250 users, 3-day windows).
    pub fn small(seed: u64) -> Self {
        WorldConfig {
            seed,
            user_scale: 1.2,
            days: 3,
            years: Year::PANEL.to_vec(),
            fcc_users: 60,
            upgrade_fraction: 0.25,
            web_probe_fraction: 0.5,
            fcc_bt_prob: 0.12,
            chaos: None,
        }
    }

    /// The full configuration used by the benches and the `reproduce`
    /// harness (~5,600 Dasu users + 600 FCC gateways, 7-day windows —
    /// comparable to the paper's ~5,000-user Table 4 population).
    pub fn paper_scale(seed: u64) -> Self {
        WorldConfig {
            seed,
            user_scale: 40.0,
            days: 7,
            years: Year::PANEL.to_vec(),
            fcc_users: 600,
            upgrade_fraction: 0.25,
            web_probe_fraction: 0.5,
            fcc_bt_prob: 0.12,
            chaos: None,
        }
    }

    /// The configuration `reproduce --users U` (and the serve gateway's
    /// job scheduler) implies: [`WorldConfig::paper_scale`] defaults with
    /// the per-country scale chosen so the streamed world is roughly
    /// `users` strong after the `fcc_users` US-only gateway cohort.
    /// Centralised here so the batch CLI and the HTTP job runner derive
    /// *bit-identical* worlds from the same `(seed, users)` request.
    pub fn streaming(seed: u64, users: u64, days: u32, fcc_users: usize) -> Self {
        let mut cfg = WorldConfig::paper_scale(seed);
        cfg.days = days;
        cfg.fcc_users = fcc_users;
        let total_weight: f64 = builtin_world().iter().map(|p| p.user_weight).sum();
        cfg.user_scale = (users.saturating_sub(fcc_users as u64)) as f64 / total_weight.max(1e-9);
        cfg
    }
}

/// One contiguous block of the flat user index space: users
/// `[previous end, end)` belong to this profile/catalogue/vantage.
struct Cohort<'a> {
    profile: &'a CountryProfile,
    catalog: PlanCatalog,
    /// Exclusive end of this cohort's user indices.
    end: u64,
    vantage: VantageKind,
    /// BitTorrent-share override (the FCC gateway cohort).
    bt_override: Option<f64>,
}

/// A world: profiles plus configuration.
#[derive(Clone, Debug)]
pub struct World {
    /// Country profiles to populate.
    pub profiles: Vec<CountryProfile>,
    /// Generation knobs.
    pub config: WorldConfig,
}

impl World {
    /// The built-in 99-country world.
    pub fn new(config: WorldConfig) -> Self {
        World {
            profiles: builtin_world(),
            config,
        }
    }

    /// A world restricted to specific countries (case studies, examples).
    pub fn with_countries(config: WorldConfig, codes: &[&str]) -> Self {
        let wanted: Vec<Country> = codes.iter().map(|c| Country::new(c)).collect();
        let profiles = builtin_world()
            .into_iter()
            .filter(|p| wanted.contains(&p.country))
            .collect();
        World { profiles, config }
    }

    /// Generate the dataset serially (single shard, calling thread).
    pub fn generate(&self) -> Dataset {
        self.generate_with(ShardPlan::serial())
    }

    /// Generate the dataset under a shard plan.
    ///
    /// Market catalogues come from a short sequential master stream; every
    /// user is then a pure function of `(seed, user_index)` through their
    /// own [`stream_rng`] stream, so the result is **bit-identical for any
    /// shard and thread count** — `generate_with(ShardPlan::new(8, 4))`
    /// returns exactly what [`World::generate`] returns.
    pub fn generate_with(&self, plan: ShardPlan) -> Dataset {
        self.generate_with_traced(plan).0
    }

    /// [`World::generate_with`], additionally returning the merged
    /// per-user [`Registry`] (collection-heuristic counters — a pure
    /// function of the world seed, so identical for every plan) and the
    /// [`RunStats`] for this particular execution (wall times and steals
    /// — plan-dependent by nature).
    ///
    /// Materialising is a fold: [`World::fold_users_traced`] with the
    /// [`Dataset::collect`] accumulator.
    pub fn generate_with_traced(&self, plan: ShardPlan) -> (Dataset, Registry, RunStats) {
        let (survey, (records, upgrades), registry, stats) =
            self.fold_users_traced(plan, Default::default, Dataset::collect);
        let dataset = Dataset {
            records,
            upgrades,
            survey,
        };
        (dataset, registry, stats)
    }

    /// Walk one shard's user range in `block`-sized blocks, observing
    /// each user with the shard's reusable [`GenScratch`] and feeding
    /// surviving records to `sink`. Quarantined users are skipped here,
    /// exactly like the scalar loop this replaces.
    fn shard_users_blocked<S>(
        &self,
        range: std::ops::Range<u64>,
        block: u64,
        cohorts: &[Cohort<'_>],
        reg: &mut Registry,
        sink: &mut S,
    ) where
        S: FnMut(UserRecord, Option<UpgradeObservation>),
    {
        debug_assert!(block > 0, "generation block must be non-empty");
        let mut scratch = GenScratch::new(self.config.days);
        let mut start = range.start;
        while start < range.end {
            let block_end = range.end.min(start.saturating_add(block));
            for user_index in start..block_end {
                let Some((record, upgrade)) =
                    self.observe_indexed(user_index, cohorts, reg, &mut scratch)
                else {
                    continue; // quarantined by the ingest screen
                };
                sink(record, upgrade);
            }
            start = block_end;
        }
    }

    /// Stream every user of the world through a mergeable accumulator
    /// without materialising the panel: each shard folds its users into an
    /// `init()` accumulator, and the partials merge in shard order. Memory
    /// is O(accumulator × shards) however many users the config implies —
    /// this is the entry point for the million-user scale runs.
    pub fn fold_users<A, I, F>(&self, plan: ShardPlan, init: I, absorb: F) -> (MarketSurvey, A)
    where
        A: Mergeable + Send,
        I: Fn() -> A + Sync,
        F: Fn(&mut A, &UserRecord, Option<&UpgradeObservation>) + Sync,
    {
        let (survey, acc, _, _) = self.fold_users_traced(plan, init, absorb);
        (survey, acc)
    }

    /// [`World::fold_users`], additionally returning the merged per-user
    /// [`Registry`] (plan-invariant data events) and this execution's
    /// [`RunStats`] (plan-dependent scheduling observables).
    pub fn fold_users_traced<A, I, F>(
        &self,
        plan: ShardPlan,
        init: I,
        absorb: F,
    ) -> (MarketSurvey, A, Registry, RunStats)
    where
        A: Mergeable + Send,
        I: Fn() -> A + Sync,
        F: Fn(&mut A, &UserRecord, Option<&UpgradeObservation>) + Sync,
    {
        let (survey, cohorts) = self.build_market();
        let total = cohorts.last().map_or(0, |c| c.end);
        let ((folded, registry), stats) = run_sharded_traced(total, plan, |_, range| {
            self.stream_shard_with(&cohorts, range, GEN_BLOCK_USERS, &init, &absorb)
        });
        (survey, folded, registry, stats)
    }

    /// Compute one shard range of the streaming fold in isolation: the
    /// same cohort layout, block walk, and per-shard [`Registry`] as
    /// [`World::fold_users_traced`] — it is literally the same code, so
    /// partials computed by different *processes* (the federation
    /// workers) merge byte-identically to an in-process fold. The range
    /// must come from the same `ShardPlan::ranges(n_users())` cut the
    /// merging side uses.
    pub fn stream_shard<A, I, F>(
        &self,
        range: std::ops::Range<u64>,
        init: I,
        absorb: F,
    ) -> (A, Registry)
    where
        I: Fn() -> A,
        F: Fn(&mut A, &UserRecord, Option<&UpgradeObservation>),
    {
        let (_, cohorts) = self.build_market();
        self.stream_shard_with(&cohorts, range, GEN_BLOCK_USERS, &init, &absorb)
    }

    /// The per-shard body of every run: streamed or materialised,
    /// checkpointed or not, in-process or federated. `block` is the
    /// generation block size ([`GEN_BLOCK_USERS`] outside the
    /// block-size-invariance tests).
    fn stream_shard_with<A, I, F>(
        &self,
        cohorts: &[Cohort<'_>],
        range: std::ops::Range<u64>,
        block: u64,
        init: &I,
        absorb: &F,
    ) -> (A, Registry)
    where
        I: Fn() -> A,
        F: Fn(&mut A, &UserRecord, Option<&UpgradeObservation>),
    {
        let mut acc = init();
        let mut reg = Registry::new();
        self.shard_users_blocked(range, block, cohorts, &mut reg, &mut |record, upgrade| {
            absorb(&mut acc, &record, upgrade.as_ref());
        });
        (acc, reg)
    }

    /// [`World::fold_users_traced`] with durable per-shard checkpoints:
    /// each completed shard's `(accumulator, registry)` partial is
    /// committed to `store` before the next merge, and with `resume` a
    /// later run restores the committed partials instead of recomputing
    /// them. The merged accumulator and registry are byte-identical to a
    /// cold run — restored shards fold in the same shard order as
    /// computed ones — while the [`CheckpointReport`] tallies what this
    /// particular run skipped, recomputed, and rejected. The accumulator
    /// must be [`Snapshot`] so completed partials can be frozen to disk
    /// and restored bit-exactly; with the [`Dataset::collect`]
    /// accumulator this is the checkpointed materialised run.
    ///
    /// `hooks.after_commit` (if given) observes the running count of
    /// durably committed shards — the crash-injection test hook in
    /// `reproduce` aborts from it — and `hooks.progress` observes every
    /// finished shard (the serve gateway streams it as SSE).
    #[allow(clippy::type_complexity)]
    pub fn fold_users_checkpointed<A, I, F>(
        &self,
        plan: ShardPlan,
        store: &CheckpointStore,
        resume: bool,
        hooks: RunHooks<'_>,
        init: I,
        absorb: F,
    ) -> Result<(MarketSurvey, A, Registry, RunStats, CheckpointReport), CheckpointError>
    where
        A: Mergeable + Snapshot + Send,
        I: Fn() -> A + Sync,
        F: Fn(&mut A, &UserRecord, Option<&UpgradeObservation>) + Sync,
    {
        let (survey, cohorts) = self.build_market();
        let total = cohorts.last().map_or(0, |c| c.end);
        let ((folded, registry), stats, report) =
            run_sharded_checkpointed(total, plan, store, resume, hooks, |_, range| {
                self.stream_shard_with(&cohorts, range, GEN_BLOCK_USERS, &init, &absorb)
            })?;
        Ok((survey, folded, registry, stats, report))
    }

    /// Total users (Dasu + FCC) the current config implies.
    pub fn n_users(&self) -> u64 {
        let (_, cohorts) = self.build_market();
        cohorts.last().map_or(0, |c| c.end)
    }

    /// Instantiate every market from the master stream and lay the user
    /// cohorts out over a flat index space: Dasu users country by country,
    /// then the US-only FCC gateway cohort.
    fn build_market(&self) -> (MarketSurvey, Vec<Cohort<'_>>) {
        let mut rng = ChaCha8Rng::seed_from_u64(self.config.seed);
        let mut survey = MarketSurvey::new();
        let mut cohorts: Vec<Cohort<'_>> = Vec::with_capacity(self.profiles.len() + 1);
        let mut end = 0u64;
        let mut us: Option<(usize, PlanCatalog)> = None;
        for (i, profile) in self.profiles.iter().enumerate() {
            let catalog = profile.market.instantiate(&mut rng);
            survey.insert(profile.region, catalog.clone());
            if profile.country == Country::new("US") {
                us = Some((i, catalog.clone()));
            }
            end += (profile.user_weight * self.config.user_scale)
                .round()
                .max(1.0) as u64;
            cohorts.push(Cohort {
                profile,
                catalog,
                end,
                vantage: VantageKind::Dasu,
                bt_override: None,
            });
        }
        if let Some((us_idx, catalog)) = us {
            end += self.config.fcc_users as u64;
            cohorts.push(Cohort {
                profile: &self.profiles[us_idx],
                catalog,
                end,
                vantage: VantageKind::Fcc,
                bt_override: Some(self.config.fcc_bt_prob),
            });
        }
        (survey, cohorts)
    }

    /// Observe the user at `user_index` — a pure function of
    /// `(config.seed, user_index)` given the instantiated markets —
    /// and screen the result through the ingest layer. Returns `None`
    /// when the record is quarantined (counted into `reg` under
    /// `dataset.quality.quarantine.*` by [`quality::screen`]).
    fn observe_indexed(
        &self,
        user_index: u64,
        cohorts: &[Cohort<'_>],
        reg: &mut Registry,
        scratch: &mut GenScratch,
    ) -> Option<(UserRecord, Option<UpgradeObservation>)> {
        let cohort = &cohorts[cohorts.partition_point(|c| c.end <= user_index)];
        reg.inc("dataset.users.observed");
        let mut rng = stream_rng(self.config.seed, USER_STREAM, user_index);
        // The campaign's degradation plan for this user's country, and
        // the dedicated chaos stream. A clean config (or severity 0, or
        // a targeted scenario sparing this country) yields NONE, which
        // never draws — so the chaos stream existing at all leaves the
        // generated bytes untouched.
        let chaos_plan = self.config.chaos.map_or(ChaosPlan::NONE, |spec| {
            spec.plan_for(cohort.profile.country.as_str())
        });
        let mut chaos_rng = stream_rng(self.config.seed, CHAOS_STREAM, user_index);
        let user = UserId(user_index);
        let year = self.config.years[rng.gen_range(0..self.config.years.len())];
        let agent = self.sample_subscriber(
            cohort.profile,
            &cohort.catalog,
            year,
            cohort.bt_override,
            &mut rng,
        );
        let (mut record, link, plan_idx) = self.observe_user(
            user,
            cohort.profile,
            &cohort.catalog,
            &agent,
            year,
            cohort.vantage,
            &chaos_plan,
            &mut rng,
            &mut chaos_rng,
            reg,
            scratch,
        );
        let q = quality::screen(&mut record, reg);
        if q == DataQuality::Quarantine {
            return None;
        }
        // Movers: re-observe a fraction of Dasu users after an upgrade.
        let upgrade = if cohort.vantage == VantageKind::Dasu
            && rng.gen::<f64>() < self.config.upgrade_fraction
        {
            self.observe_upgrade(
                &record,
                cohort.profile,
                &cohort.catalog,
                &agent,
                link,
                plan_idx,
                &chaos_plan,
                &mut rng,
                &mut chaos_rng,
                reg,
                scratch,
            )
            .filter(|up| quality::screen_upgrade(up, reg) != DataQuality::Quarantine)
        } else {
            None
        };
        if upgrade.is_some() {
            reg.inc("dataset.users.upgraded");
        }
        Some((record, upgrade))
    }

    /// Sample an agent who is actually *in* the broadband market.
    ///
    /// "Need, want, can afford" applies to the subscription decision
    /// itself: where the cheapest workable plan exceeds a household's
    /// budget, only the needy subscribe at all ("subscribers are willing
    /// to pay more for it", §5). Low-appetite would-be users simply never
    /// appear in a broadband measurement dataset. This self-selection is
    /// the mechanism behind the §5/§6 findings that users in expensive
    /// markets impose higher demand at matched capacities.
    fn sample_subscriber(
        &self,
        profile: &CountryProfile,
        catalog: &PlanCatalog,
        year: Year,
        bt_prob_override: Option<f64>,
        rng: &mut ChaCha8Rng,
    ) -> Agent {
        let growth = APPETITE_GROWTH_PER_YEAR.powi(year.0 as i32 - 2012);
        for _ in 0..60 {
            let agent = self.sample_agent(profile, year, bt_prob_override, rng);
            let plan = choose_plan(&agent, catalog);
            // Consumer surplus of the best available plan, with some slack
            // for habit, work-from-home necessity, family pressure…
            let value = agent.value_of(plan.download).usd();
            let hurdle = plan.monthly_price.usd() * 0.8;
            // Soft acceptance in two parts: the measurable surplus, and a
            // direct *need* tilt — dollar value alone cannot express why a
            // high-need household keeps paying painful prices for a small
            // pipe (the value of the first megabit is nearly
            // appetite-independent), yet that is precisely who stays in an
            // expensive market. Where plans are cheap the odds saturate
            // and no selection occurs; where they are dear, subscribers
            // skew needy — the §5 mechanism.
            let need_ratio = agent.appetite.mbps() / (profile.appetite_median_mbps * growth);
            let odds = (value / hurdle.max(0.01)).powf(1.5) * need_ratio.powf(0.8);
            let accept = odds / (1.0 + odds);
            if rng.gen::<f64>() < accept {
                return agent;
            }
        }
        // Extremely unaffordable market: whoever subscribes, subscribes.
        self.sample_agent(profile, year, bt_prob_override, rng)
    }

    fn sample_agent(
        &self,
        profile: &CountryProfile,
        year: Year,
        bt_prob_override: Option<f64>,
        rng: &mut ChaCha8Rng,
    ) -> Agent {
        // Appetites grow yearly around the 2012 anchor.
        let growth = APPETITE_GROWTH_PER_YEAR.powi(year.0 as i32 - 2012);
        let mut sampler = AgentSampler::new(
            profile.appetite_median_mbps * growth,
            profile.monthly_income(),
        );
        if let Some(p) = bt_prob_override {
            sampler.bt_user_prob = p;
        }
        sampler.sample(rng)
    }

    /// Build the physical link a plan delivers at this user's location.
    fn build_link(
        &self,
        profile: &CountryProfile,
        plan: &Plan,
        rng: &mut ChaCha8Rng,
    ) -> AccessLink {
        // Delivered capacity: advertised rate times a provisioning factor.
        let provisioning = rng.gen_range(0.85..1.05);
        let capacity = plan.download * provisioning;
        // Path quality: country distribution, much worse over impaired
        // technologies (the satellite/wireless tails of Figs. 1b-1c).
        // Satellite-like paths are dominated by propagation delay;
        // terrestrial wireless by loss — keeping the two impairments
        // partly decoupled is what lets the §7 experiments match
        // high-latency users against similar-loss users and vice versa.
        let (rtt_mult, loss_mult) = if plan.technology.is_impaired() {
            if rng.gen::<f64>() < 0.5 {
                (5.0, 2.5) // satellite-like
            } else {
                (1.8, 8.0) // terrestrial wireless-like
            }
        } else {
            (1.0, 1.0)
        };
        let rtt = LogNormal::from_median(profile.rtt_median_ms * rtt_mult, profile.rtt_sigma)
            .sample(rng)
            .clamp(3.0, 3000.0);
        let loss_pct =
            LogNormal::from_median(profile.loss_median_pct * loss_mult, profile.loss_sigma)
                .sample(rng)
                .clamp(1e-4, 30.0);
        AccessLink::new(
            capacity,
            Latency::from_ms(rtt),
            LossRate::from_percent(loss_pct),
        )
        .with_upload((plan.upload * provisioning).max(bb_types::Bandwidth::from_kbps(64.0)))
    }

    /// Simulate, collect and probe one user on their chosen plan.
    /// Returns the record, the link (for upgrade re-use) and the index of
    /// the chosen plan in the catalogue.
    #[allow(clippy::too_many_arguments)]
    fn observe_user(
        &self,
        user: UserId,
        profile: &CountryProfile,
        catalog: &PlanCatalog,
        agent: &Agent,
        year: Year,
        vantage: VantageKind,
        chaos: &ChaosPlan,
        rng: &mut ChaCha8Rng,
        chaos_rng: &mut ChaCha8Rng,
        reg: &mut Registry,
        scratch: &mut GenScratch,
    ) -> (UserRecord, AccessLink, usize) {
        let plan = choose_plan(agent, catalog);
        let plan_idx = catalog
            .plans
            .iter()
            .position(|p| p == plan)
            .expect("chosen plan comes from the catalogue");
        let link = self.build_link(profile, plan, rng);
        let (record, _) = self.observe_on_link(
            user, profile, catalog, agent, year, vantage, plan, &link, chaos, rng, chaos_rng, reg,
            scratch,
        );
        (record, link, plan_idx)
    }

    /// Observe an already-linked user (shared by first observation and the
    /// post-upgrade re-observation).
    ///
    /// Degradation (`chaos`) applies at the two measurement surfaces:
    /// the raw poll sequence of counter-based Dasu collection, and the
    /// NDT probe runs (any vantage). All chaos draws come from the
    /// dedicated `chaos_rng`; a NONE plan draws nothing from it and is
    /// bit-identical to the clean path.
    #[allow(clippy::too_many_arguments)]
    fn observe_on_link(
        &self,
        user: UserId,
        profile: &CountryProfile,
        catalog: &PlanCatalog,
        agent: &Agent,
        year: Year,
        vantage: VantageKind,
        plan: &Plan,
        link: &AccessLink,
        chaos: &ChaosPlan,
        rng: &mut ChaCha8Rng,
        chaos_rng: &mut ChaCha8Rng,
        reg: &mut Registry,
        scratch: &mut GenScratch,
    ) -> (UserRecord, NetworkId) {
        let axis = TimeAxis::new(year, self.config.days);
        // Usage caps: subscribers on capped plans *manage* their usage to
        // the cap (Chetty et al., cited in §8) — model that as pacing the
        // offered intensity to ~80% of the window's allowance — with the
        // ISP's hard throttle as the backstop for the unlucky rest.
        let window_cap_bytes = plan
            .cap_gb
            .map(|gb| gb * 1e9 * self.config.days as f64 / 30.0);
        let mut intensity = agent.offered_intensity();
        if let Some(cap) = window_cap_bytes {
            let paced = bb_types::Bandwidth::from_bps(0.8 * cap * 8.0 / axis.duration_secs());
            intensity = intensity.min(paced);
        }
        let mut workload = if agent.bt_user {
            UserWorkload::with_bt(intensity, 0.45)
        } else {
            UserWorkload::without_bt(intensity)
        };
        workload.mix = agent.persona.app_mix();
        if let Some(cap) = window_cap_bytes {
            workload = workload.with_cap(cap);
        }
        // Multi-device households: other machines share the link; their
        // traffic reaches UPnP gateway counters but not the measured
        // host's netstat (Dasu detects and subtracts most of it).
        if rng.gen::<f64>() < 0.4 {
            let share = rng.gen_range(0.1..0.5);
            workload = workload.with_cross_traffic(intensity * share);
        }
        simulate_user_into(
            link,
            &workload,
            axis,
            rng,
            &mut scratch.truth,
            &mut scratch.cross_up,
        );
        // Dasu clients poll real byte counters (§2.1): most ride UPnP
        // gateway registers (32-bit, wrapping), the rest read netstat on a
        // directly-connected host. FCC gateways report hourly bins.
        let counter_source = match vantage {
            VantageKind::Dasu => Some(if rng.gen::<f64>() < 0.6 {
                CounterSource::Upnp
            } else {
                CounterSource::Netstat
            }),
            VantageKind::Fcc => None,
        };
        let collected = match counter_source {
            Some(source) => {
                reg.inc(match source {
                    CounterSource::Upnp => "dataset.observations.upnp",
                    CounterSource::Netstat => "dataset.observations.netstat",
                });
                UsageSeries::collect_via_counters_chaos_with(
                    &scratch.truth,
                    0.5,
                    source,
                    link.capacity,
                    chaos,
                    rng,
                    chaos_rng,
                    reg,
                    &mut scratch.collect,
                )
            }
            None => {
                reg.inc("dataset.observations.fcc");
                UsageSeries::collect(&scratch.truth, Vantage::FccGateway, rng)
            }
        };
        let demand_with_bt = collected.demand_with(BtFilter::Include, &mut scratch.rates);
        // With no BT-flagged bins the Exclude filter keeps every bin, so
        // the summary is exactly the Include one — skip the second pass.
        let demand_no_bt = if collected.any_bt() {
            collected.demand_with(BtFilter::Exclude, &mut scratch.rates)
        } else {
            demand_with_bt
        };
        let upload_mean = collected.upload_mean(BtFilter::Include);

        // NDT probing under chaos: each of the 4 scheduled runs fails
        // independently with the plan's probe-failure probability. A
        // total blackout leaves the user with no capacity measurement —
        // the placeholder record is quarantined by the ingest screen.
        const NDT_RUNS: u32 = 4;
        let surviving_runs = if chaos.probe_failure_prob > 0.0 {
            let ok = (0..NDT_RUNS)
                .filter(|_| chaos_rng.gen::<f64>() >= chaos.probe_failure_prob)
                .count() as u32;
            reg.add("netsim.probe.failed_runs", (NDT_RUNS - ok) as u64);
            ok
        } else {
            NDT_RUNS
        };
        let ndt = if surviving_runs == 0 {
            reg.inc("netsim.probe.blackouts");
            None
        } else {
            Some(NdtProbe::default().run_averaged(link, surviving_runs, rng))
        };
        let web = if rng.gen::<f64>() < self.config.web_probe_fraction {
            Some(web_latency(link, rng))
        } else {
            None
        };

        let network = NetworkId::new(
            profile.country,
            (catalog.plans.iter().position(|p| p == plan).unwrap_or(0) % 4) as u16,
            rng.gen_range(0..1 << 16),
            rng.gen_range(0..24),
        );

        // A blacked-out probe leaves measurement placeholders; the
        // ingest screen quarantines the record on the zero capacity.
        let (capacity, latency, loss) = match ndt {
            Some(r) => (r.download, r.avg_rtt, r.loss),
            None => (
                bb_types::Bandwidth::ZERO,
                bb_types::Latency::ZERO,
                bb_types::LossRate::ZERO,
            ),
        };
        let record = UserRecord {
            user,
            country: profile.country,
            network: network.clone(),
            year,
            vantage,
            capacity,
            latency,
            loss,
            web_latency: web,
            demand_with_bt,
            demand_no_bt,
            plan_capacity: plan.download,
            plan_price: plan.monthly_price,
            access_price: catalog.price_of_access().unwrap_or(plan.monthly_price),
            upgrade_cost: catalog.upgrade_cost(),
            is_bt_user: agent.bt_user,
            upload_mean,
            plan_capped: plan.cap_gb.is_some(),
            counter_source,
            persona: agent.persona,
        };
        (record, network)
    }

    /// Re-observe a user after a service upgrade: the cheapest strictly
    /// faster, non-dedicated plan one to three rungs up the ladder.
    ///
    /// Users "jump to a higher service when their demand grows" (§1), so
    /// the mover's appetite is scaled by a heavy-tailed growth factor
    /// (median ~1.7x, wide spread — some upgrades are promotions or
    /// marketing, not need) between the two observations. The §3.2 numbers
    /// (usage roughly doubling at the median, H holding for two thirds of
    /// movers rather than all of them) reflect that mix plus the relaxed
    /// capacity constraint.
    #[allow(clippy::too_many_arguments)]
    fn observe_upgrade(
        &self,
        before_record: &UserRecord,
        profile: &CountryProfile,
        catalog: &PlanCatalog,
        agent: &Agent,
        before_link: AccessLink,
        before_plan_idx: usize,
        chaos: &ChaosPlan,
        rng: &mut ChaCha8Rng,
        chaos_rng: &mut ChaCha8Rng,
        reg: &mut Registry,
        scratch: &mut GenScratch,
    ) -> Option<UpgradeObservation> {
        let before_plan = &catalog.plans[before_plan_idx];
        // Candidate faster plans, sorted by capacity.
        let mut faster: Vec<&Plan> = catalog
            .plans
            .iter()
            .filter(|p| !p.dedicated && p.download > before_plan.download)
            .collect();
        if faster.is_empty() {
            return None;
        }
        faster.sort_by_key(|p| p.download);
        let rungs = rng.gen_range(1..=3usize.min(faster.len()));
        let after_plan = faster[rungs - 1];

        // Same location: keep the path quality, change the delivered
        // capacity.
        let provisioning = rng.gen_range(0.85..1.05);
        let after_link = AccessLink::new(
            after_plan.download * provisioning,
            before_link.base_rtt,
            before_link.loss,
        )
        .with_upload((after_plan.upload * provisioning).max(bb_types::Bandwidth::from_kbps(64.0)));
        // Demand growth drives the upgrade (see the doc comment).
        let growth = LogNormal::from_median(1.7, 0.85)
            .sample(rng)
            .clamp(0.35, 10.0);
        let grown_agent = Agent {
            appetite: (agent.appetite * growth).min(bb_types::Bandwidth::from_mbps(200.0)),
            ..*agent
        };
        let (after_record, after_network) = self.observe_on_link(
            before_record.user,
            profile,
            catalog,
            &grown_agent,
            before_record.year,
            VantageKind::Dasu,
            after_plan,
            &after_link,
            chaos,
            rng,
            chaos_rng,
            reg,
            scratch,
        );
        Some(UpgradeObservation {
            user: before_record.user,
            country: profile.country,
            before: UpgradeSnapshot {
                network: before_record.network.clone(),
                capacity: before_record.capacity,
                demand_with_bt: before_record.demand_with_bt,
                demand_no_bt: before_record.demand_no_bt,
            },
            after: UpgradeSnapshot {
                network: after_network,
                capacity: after_record.capacity,
                demand_with_bt: after_record.demand_with_bt,
                demand_no_bt: after_record.demand_no_bt,
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Dataset {
        let mut cfg = WorldConfig::small(7);
        cfg.user_scale = 0.4;
        cfg.fcc_users = 20;
        cfg.days = 2;
        World::with_countries(cfg, &["US", "JP", "BW", "SA", "IN"]).generate()
    }

    #[test]
    fn generation_is_deterministic() {
        let a = tiny();
        let b = tiny();
        assert_eq!(a.records.len(), b.records.len());
        for (ra, rb) in a.records.iter().zip(&b.records) {
            assert_eq!(ra.capacity, rb.capacity);
            assert_eq!(ra.demand_no_bt, rb.demand_no_bt);
        }
    }

    #[test]
    fn sharded_generation_is_bit_identical() {
        let mut cfg = WorldConfig::small(7);
        cfg.user_scale = 0.4;
        cfg.fcc_users = 20;
        cfg.days = 2;
        let world = World::with_countries(cfg, &["US", "JP", "BW", "SA", "IN"]);
        let serial = world.generate();
        for plan in [
            ShardPlan::new(8, 1),
            ShardPlan::new(8, 4),
            ShardPlan::new(64, 3),
        ] {
            let sharded = world.generate_with(plan);
            assert_eq!(serial.records.len(), sharded.records.len());
            assert_eq!(serial.upgrades.len(), sharded.upgrades.len());
            for (a, b) in serial.records.iter().zip(&sharded.records) {
                assert_eq!(a.user, b.user);
                assert_eq!(a.capacity, b.capacity);
                assert_eq!(a.latency, b.latency);
                assert_eq!(a.loss, b.loss);
                assert_eq!(a.demand_with_bt, b.demand_with_bt);
                assert_eq!(a.demand_no_bt, b.demand_no_bt);
            }
            for (a, b) in serial.upgrades.iter().zip(&sharded.upgrades) {
                assert_eq!(a.user, b.user);
                assert_eq!(a.after.capacity, b.after.capacity);
            }
        }
    }

    fn assert_same_dataset(a: &Dataset, b: &Dataset, label: &str) {
        assert_eq!(a.records.len(), b.records.len(), "{label}: record count");
        assert_eq!(a.upgrades.len(), b.upgrades.len(), "{label}: upgrade count");
        for (ra, rb) in a.records.iter().zip(&b.records) {
            assert_eq!(ra.user, rb.user, "{label}");
            assert_eq!(ra.capacity, rb.capacity, "{label}");
            assert_eq!(ra.latency, rb.latency, "{label}");
            assert_eq!(ra.loss, rb.loss, "{label}");
            assert_eq!(ra.demand_with_bt, rb.demand_with_bt, "{label}");
            assert_eq!(ra.demand_no_bt, rb.demand_no_bt, "{label}");
            assert_eq!(ra.upload_mean, rb.upload_mean, "{label}");
            assert_eq!(ra.web_latency, rb.web_latency, "{label}");
            assert_eq!(ra.network, rb.network, "{label}");
        }
        for (ua, ub) in a.upgrades.iter().zip(&b.upgrades) {
            assert_eq!(ua.user, ub.user, "{label}");
            assert_eq!(ua.before.capacity, ub.before.capacity, "{label}");
            assert_eq!(ua.after.capacity, ub.after.capacity, "{label}");
            assert_eq!(ua.after.demand_with_bt, ub.after.demand_with_bt, "{label}");
        }
    }

    /// The materialising fold driven through the private per-shard core
    /// with an explicit generation block size.
    fn generate_blocked(world: &World, plan: ShardPlan, block: u64) -> (Dataset, Registry) {
        let (survey, cohorts) = world.build_market();
        let total = cohorts.last().map_or(0, |c| c.end);
        let (((records, upgrades), registry), _) = run_sharded_traced(total, plan, |_, range| {
            world.stream_shard_with(&cohorts, range, block, &Default::default, &Dataset::collect)
        });
        let dataset = Dataset {
            records,
            upgrades,
            survey,
        };
        (dataset, registry)
    }

    #[test]
    fn generation_is_block_size_invariant() {
        // The block size is pure batching bookkeeping: whatever mix of
        // kept and quarantined users lands in a block, the output must
        // not move. ProbeBlackout at severity 1 quarantines roughly half
        // the panel, so quarantined users fall mid-block everywhere.
        use bb_netsim::chaos::{ChaosScenario, ChaosSpec};
        for chaos in [
            None,
            Some(ChaosSpec::new(ChaosScenario::ProbeBlackout, 1.0)),
        ] {
            let mut cfg = WorldConfig::small(7);
            cfg.user_scale = 0.4;
            cfg.fcc_users = 20;
            cfg.days = 2;
            cfg.chaos = chaos;
            let world = World::with_countries(cfg, &["US", "JP", "BW", "SA", "IN"]);
            let (baseline, base_reg) =
                generate_blocked(&world, ShardPlan::serial(), GEN_BLOCK_USERS);
            // Block of 1 degenerates to the scalar per-user walk; 7 puts
            // block boundaries at odd offsets inside every cohort.
            for block in [1u64, 7, 64] {
                for plan in [ShardPlan::serial(), ShardPlan::new(8, 4)] {
                    let (ds, reg) = generate_blocked(&world, plan, block);
                    let label = format!("block {block} plan {plan:?} chaos {}", chaos.is_some());
                    assert_same_dataset(&baseline, &ds, &label);
                    assert_eq!(reg.to_json(), base_reg.to_json(), "{label}");
                }
            }
        }
    }

    #[test]
    fn shared_scratch_matches_fresh_scratch_per_user() {
        // A fresh GenScratch per user is the no-reuse reference: any
        // state leaking across users through the shared buffers would
        // split these outputs.
        let mut cfg = WorldConfig::small(7);
        cfg.user_scale = 0.4;
        cfg.fcc_users = 20;
        cfg.days = 2;
        let world = World::with_countries(cfg, &["US", "JP", "BW", "SA", "IN"]);
        let shared = world.generate();
        let (_, cohorts) = world.build_market();
        let total = cohorts.last().map_or(0, |c| c.end);
        let mut reg = Registry::new();
        let mut records = Vec::new();
        let mut upgrades = Vec::new();
        for user_index in 0..total {
            let mut fresh = GenScratch::new(world.config.days);
            if let Some((record, upgrade)) =
                world.observe_indexed(user_index, &cohorts, &mut reg, &mut fresh)
            {
                records.push(record);
                upgrades.extend(upgrade);
            }
        }
        assert_eq!(records.len(), shared.records.len());
        assert_eq!(upgrades.len(), shared.upgrades.len());
        for (a, b) in shared.records.iter().zip(&records) {
            assert_eq!(a.user, b.user);
            assert_eq!(a.capacity, b.capacity);
            assert_eq!(a.demand_with_bt, b.demand_with_bt);
            assert_eq!(a.demand_no_bt, b.demand_no_bt);
            assert_eq!(a.upload_mean, b.upload_mean);
        }
    }

    #[test]
    fn empty_and_single_user_worlds_generate_cleanly() {
        // 0-user world: no countries at all — every entry point must
        // return an empty dataset rather than tripping over an empty
        // block walk.
        let mut cfg = WorldConfig::small(7);
        cfg.fcc_users = 0;
        let empty = World::with_countries(cfg.clone(), &[]);
        assert_eq!(empty.n_users(), 0);
        let ds = empty.generate_with(ShardPlan::new(4, 2));
        assert!(ds.records.is_empty() && ds.upgrades.is_empty());
        let (_, seen) =
            empty.fold_users(ShardPlan::serial(), Vec::new, |acc: &mut Vec<u64>, _, _| {
                acc.push(1)
            });
        assert!(seen.is_empty());

        // 1-user world: a single cohort of one — the lone user sits in a
        // block all by itself under every block size.
        let mut one_cfg = WorldConfig::small(7);
        one_cfg.user_scale = 1e-9; // rounds to the max(1) floor
        one_cfg.fcc_users = 0;
        one_cfg.days = 1;
        let one = World::with_countries(one_cfg, &["JP"]);
        assert_eq!(one.n_users(), 1);
        let (baseline, base_reg) = generate_blocked(&one, ShardPlan::serial(), GEN_BLOCK_USERS);
        assert!(baseline.records.len() <= 1);
        for block in [1u64, 2, 256] {
            let (ds, reg) = generate_blocked(&one, ShardPlan::new(2, 2), block);
            assert_same_dataset(&baseline, &ds, &format!("single-user block {block}"));
            assert_eq!(reg.to_json(), base_reg.to_json());
        }
    }

    #[test]
    fn traced_registry_is_plan_invariant_and_populated() {
        let mut cfg = WorldConfig::small(7);
        cfg.user_scale = 0.4;
        cfg.fcc_users = 20;
        cfg.days = 2;
        let world = World::with_countries(cfg, &["US", "JP", "BW", "SA", "IN"]);
        let (serial_ds, serial_reg, serial_stats) = world.generate_with_traced(ShardPlan::serial());
        assert_eq!(
            serial_reg.counter("dataset.users.observed"),
            serial_ds.records.len() as u64
        );
        assert!(serial_reg.counter("netsim.collect.polls") > 0);
        assert!(serial_reg.counter("dataset.observations.upnp") > 0);
        assert!(serial_reg.counter("dataset.observations.fcc") > 0);
        assert_eq!(
            serial_reg.counter("dataset.users.upgraded"),
            serial_ds.upgrades.len() as u64
        );
        assert_eq!(serial_stats.shards, 1);

        for plan in [ShardPlan::new(8, 1), ShardPlan::new(8, 4)] {
            let (_, reg, stats) = world.generate_with_traced(plan);
            assert_eq!(
                reg.to_json(),
                serial_reg.to_json(),
                "registry must be byte-identical under {plan:?}"
            );
            assert_eq!(stats.shards, 8);
        }

        // The streaming path sees the same users, so the same registry.
        let (_, _n, fold_reg, _) = world.fold_users_traced(
            ShardPlan::new(8, 4),
            Vec::new,
            |acc: &mut Vec<u64>, _, _| acc.push(1),
        );
        assert_eq!(fold_reg.to_json(), serial_reg.to_json());
    }

    #[test]
    fn chaotic_generation_is_plan_invariant() {
        use bb_netsim::chaos::{ChaosScenario, ChaosSpec};
        let mut cfg = WorldConfig::small(7);
        cfg.user_scale = 0.4;
        cfg.fcc_users = 20;
        cfg.days = 2;
        cfg.chaos = Some(ChaosSpec::new(ChaosScenario::Omnibus, 0.75));
        let world = World::with_countries(cfg, &["US", "JP", "BW", "SA", "IN"]);
        let (serial_ds, serial_reg, _) = world.generate_with_traced(ShardPlan::serial());
        // The campaign really degrades the stream…
        assert!(serial_reg.counter("netsim.chaos.bursts") > 0);
        assert!(serial_reg.counter("netsim.chaos.resets_injected") > 0);
        assert!(serial_reg.counter("netsim.probe.failed_runs") > 0);
        // …and the degraded world is still plan-invariant.
        for plan in [ShardPlan::new(8, 4), ShardPlan::new(64, 3)] {
            let (ds, reg, _) = world.generate_with_traced(plan);
            assert_eq!(ds.records.len(), serial_ds.records.len());
            for (a, b) in serial_ds.records.iter().zip(&ds.records) {
                assert_eq!(a.user, b.user);
                assert_eq!(a.capacity, b.capacity);
                assert_eq!(a.demand_with_bt, b.demand_with_bt);
            }
            assert_eq!(
                reg.to_json(),
                serial_reg.to_json(),
                "chaotic registry must be byte-identical under {plan:?}"
            );
        }
    }

    #[test]
    fn severity_zero_chaos_is_bit_identical_to_clean() {
        use bb_netsim::chaos::{ChaosScenario, ChaosSpec};
        let mut cfg = WorldConfig::small(7);
        cfg.user_scale = 0.4;
        cfg.fcc_users = 20;
        cfg.days = 2;
        let clean_world = World::with_countries(cfg.clone(), &["US", "JP", "BW", "SA", "IN"]);
        let (clean_ds, clean_reg, _) = clean_world.generate_with_traced(ShardPlan::new(8, 4));
        for scenario in ChaosScenario::ALL {
            let mut chaotic_cfg = cfg.clone();
            chaotic_cfg.chaos = Some(ChaosSpec::new(scenario, 0.0));
            let world = World::with_countries(chaotic_cfg, &["US", "JP", "BW", "SA", "IN"]);
            let (ds, reg, _) = world.generate_with_traced(ShardPlan::new(8, 4));
            assert_eq!(ds.records.len(), clean_ds.records.len());
            for (a, b) in clean_ds.records.iter().zip(&ds.records) {
                assert_eq!(a.capacity, b.capacity, "{}@0", scenario.name());
                assert_eq!(a.latency, b.latency);
                assert_eq!(a.demand_with_bt, b.demand_with_bt);
                assert_eq!(a.demand_no_bt, b.demand_no_bt);
            }
            assert_eq!(
                reg.to_json(),
                clean_reg.to_json(),
                "severity-0 {} must leave the registry untouched",
                scenario.name()
            );
        }
    }

    #[test]
    fn probe_blackouts_are_quarantined_and_accounted() {
        use bb_netsim::chaos::{ChaosScenario, ChaosSpec};
        let mut cfg = WorldConfig::small(7);
        cfg.user_scale = 0.4;
        cfg.fcc_users = 20;
        cfg.days = 2;
        cfg.chaos = Some(ChaosSpec::new(ChaosScenario::ProbeBlackout, 1.0));
        let world = World::with_countries(cfg, &["US", "JP", "BW", "SA", "IN"]);
        let (ds, reg, _) = world.generate_with_traced(ShardPlan::new(8, 4));
        // At severity 1 each of the 4 runs fails with p=0.85, so roughly
        // half the panel (0.85⁴ ≈ 0.52) loses every run.
        let blackouts = reg.counter("netsim.probe.blackouts");
        assert!(blackouts > 0, "expected blackouts at full severity");
        assert!(reg.counter("dataset.quality.quarantine.capacity_blackout") > 0);
        // Every observed user is either a kept record or a quarantined one.
        assert_eq!(
            reg.counter("dataset.users.observed"),
            ds.records.len() as u64 + reg.counter("dataset.quality.quarantined")
        );
        // Survivors all carry a real capacity measurement.
        assert!(ds.records.iter().all(|r| !r.capacity.is_zero()));
        // Upgrades hanging off blacked-out re-observations are screened too.
        assert_eq!(
            reg.counter("dataset.users.upgraded"),
            ds.upgrades.len() as u64
        );
        assert!(ds
            .upgrades
            .iter()
            .all(|up| !up.before.capacity.is_zero() && !up.after.capacity.is_zero()));
    }

    #[test]
    fn targeted_chaos_spares_other_countries() {
        use bb_netsim::chaos::{ChaosScenario, ChaosSpec};
        let mut cfg = WorldConfig::small(7);
        cfg.user_scale = 0.4;
        cfg.fcc_users = 0;
        cfg.days = 2;
        let countries = ["US", "JP", "BW", "SA", "IN"];
        let clean = World::with_countries(cfg.clone(), &countries).generate();
        let mut targeted_cfg = cfg.clone();
        targeted_cfg.chaos = Some(ChaosSpec::new(ChaosScenario::TargetedUs, 1.0));
        let targeted = World::with_countries(targeted_cfg, &countries).generate();
        // Non-US users are untouched, bit for bit.
        let non_us = |ds: &Dataset| -> Vec<UserRecord> {
            ds.records
                .iter()
                .filter(|r| r.country != Country::new("US"))
                .cloned()
                .collect()
        };
        let (a, b) = (non_us(&clean), non_us(&targeted));
        assert_eq!(a.len(), b.len());
        for (ra, rb) in a.iter().zip(&b) {
            assert_eq!(ra.user, rb.user);
            assert_eq!(ra.capacity, rb.capacity);
            assert_eq!(ra.demand_with_bt, rb.demand_with_bt);
        }
        // The US panel, by contrast, degrades: quarantines can only
        // shrink it, and the survivors' measurements shift.
        let us = |ds: &Dataset| -> Vec<UserRecord> {
            ds.in_country(Country::new("US")).cloned().collect()
        };
        let (cu, tu) = (us(&clean), us(&targeted));
        assert!(tu.len() <= cu.len());
        let shifted = cu
            .iter()
            .zip(&tu)
            .filter(|(a, b)| a.capacity != b.capacity || a.demand_with_bt != b.demand_with_bt)
            .count();
        assert!(
            shifted > 0,
            "targeted degradation should perturb US measurements"
        );
    }

    #[test]
    fn fold_users_sees_every_record_once() {
        let mut cfg = WorldConfig::small(7);
        cfg.user_scale = 0.4;
        cfg.fcc_users = 20;
        cfg.days = 2;
        let world = World::with_countries(cfg, &["US", "JP", "BW", "SA", "IN"]);
        let full = world.generate();
        let (survey, (n_records, n_upgrades, cap_sum)) = world.fold_users(
            ShardPlan::new(8, 4),
            || (Vec::new(), Vec::new(), Vec::new()),
            |acc, record, upgrade| {
                acc.0.push(1u64);
                acc.1.extend(upgrade.map(|_| 1u64));
                acc.2.push(record.capacity.mbps());
            },
        );
        assert_eq!(n_records.len(), full.records.len());
        assert_eq!(n_upgrades.len(), full.upgrades.len());
        let direct: Vec<f64> = full.records.iter().map(|r| r.capacity.mbps()).collect();
        assert_eq!(cap_sum, direct, "same records in the same order");
        assert_eq!(survey.len(), full.survey.len());
        assert_eq!(world.n_users() as usize, full.records.len());
    }

    #[test]
    fn pre_fold_materialised_checkpoints_are_rejected_and_recomputed() {
        // Before materialising became a fold, a checkpointed materialised
        // shard was the flat `(records, upgrades, registry)` Tuple3. The
        // fold commits `((records, upgrades), registry)`; an old shard
        // must be rejected with a reason and recomputed, never misread.
        use bb_engine::CheckpointParams;
        let mut cfg = WorldConfig::small(7);
        cfg.user_scale = 0.4;
        cfg.fcc_users = 20;
        cfg.days = 2;
        let world = World::with_countries(cfg, &["US", "JP", "BW", "SA", "IN"]);
        let dir = std::env::temp_dir().join(format!("bb-world-tuple3-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = CheckpointStore::new(&dir, CheckpointParams::new().set("seed", 7));
        let plan = ShardPlan::new(4, 2);
        let (_, cohorts) = world.build_market();
        let total = cohorts.last().map_or(0, |c| c.end);
        run_sharded_checkpointed(total, plan, &store, false, RunHooks::none(), |_, range| {
            let ((records, upgrades), reg) = world.stream_shard_with(
                &cohorts,
                range,
                GEN_BLOCK_USERS,
                &Default::default,
                &Dataset::collect,
            );
            (records, upgrades, reg)
        })
        .unwrap();

        let resume = || {
            world
                .fold_users_checkpointed(
                    plan,
                    &store,
                    true,
                    RunHooks::none(),
                    Default::default,
                    Dataset::collect,
                )
                .unwrap()
        };
        let (survey, (records, upgrades), registry, _, report) = resume();
        assert_eq!(
            (report.skipped, report.recomputed, report.rejected),
            (0, 4, 4)
        );
        assert!(
            report.reasons.iter().all(|r| r.contains("Tuple3")),
            "{:?}",
            report.reasons
        );
        let (cold, cold_reg, _) = world.generate_with_traced(plan);
        let resumed = Dataset {
            records,
            upgrades,
            survey,
        };
        assert_same_dataset(&cold, &resumed, "recomputed");
        assert_eq!(registry.to_json(), cold_reg.to_json());

        // The recomputed shards are now in the fold's layout.
        let (_, _, _, _, report) = resume();
        assert_eq!((report.skipped, report.rejected), (4, 0));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cohorts_are_present() {
        let ds = tiny();
        assert!(ds.dasu().count() > 20);
        assert_eq!(ds.fcc().count(), 20);
        assert!(ds.fcc().all(|r| r.country == Country::new("US")));
        assert!(!ds.upgrades.is_empty());
        assert_eq!(ds.survey.len(), 5);
    }

    #[test]
    fn upgrades_actually_go_up() {
        let ds = tiny();
        let mut ratios: Vec<f64> = Vec::new();
        for up in &ds.upgrades {
            // Individual *measured* capacities can dip across an upgrade
            // (provisioning spread + probe noise), just like real NDT
            // readings; but never catastrophically…
            assert!(
                up.after.capacity > up.before.capacity * 0.5,
                "after {} vs before {}",
                up.after.capacity,
                up.before.capacity
            );
            ratios.push(up.after.capacity / up.before.capacity);
        }
        // …and the typical upgrade clearly raises capacity.
        ratios.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        assert!(
            ratios[ratios.len() / 2] > 1.15,
            "median upgrade ratio {}",
            ratios[ratios.len() / 2]
        );
    }

    #[test]
    fn case_study_capacity_ordering() {
        // The Fig. 7a ordering: BW < SA < US < JP in median capacity.
        let mut cfg = WorldConfig::small(11);
        cfg.user_scale = 40.0; // enough users in the small countries
        cfg.fcc_users = 0;
        cfg.days = 1;
        let ds = World::with_countries(cfg, &["US", "JP", "BW", "SA"]).generate();
        let median_cap = |code: &str| {
            let mut caps: Vec<f64> = ds
                .in_country(Country::new(code))
                .map(|r| r.capacity.mbps())
                .collect();
            assert!(caps.len() >= 20, "{code}: {} users", caps.len());
            caps.sort_by(|a, b| a.partial_cmp(b).unwrap());
            caps[caps.len() / 2]
        };
        let (bw, sa, us, jp) = (
            median_cap("BW"),
            median_cap("SA"),
            median_cap("US"),
            median_cap("JP"),
        );
        assert!(bw < sa, "BW {bw} < SA {sa}");
        assert!(sa < us, "SA {sa} < US {us}");
        assert!(us < jp, "US {us} < JP {jp}");
    }

    #[test]
    fn utilization_ordering_reverses_capacity_ordering() {
        // Fig. 7b: "the countries appear in exactly reverse order".
        let mut cfg = WorldConfig::small(13);
        cfg.user_scale = 40.0;
        cfg.fcc_users = 0;
        cfg.days = 2;
        let ds = World::with_countries(cfg, &["US", "JP", "BW"]).generate();
        let mean_util = |code: &str| {
            let utils: Vec<f64> = ds
                .in_country(Country::new(code))
                .filter_map(|r| r.peak_utilization())
                .collect();
            utils.iter().sum::<f64>() / utils.len() as f64
        };
        let (bw, us, jp) = (mean_util("BW"), mean_util("US"), mean_util("JP"));
        assert!(bw > us, "BW {bw} should out-utilise US {us}");
        assert!(us > jp, "US {us} should out-utilise JP {jp}");
    }

    #[test]
    fn india_has_long_latency_records() {
        let ds = tiny();
        let in_lat: Vec<f64> = ds
            .in_country(Country::new("IN"))
            .map(|r| r.latency.ms())
            .collect();
        let us_lat: Vec<f64> = ds
            .in_country(Country::new("US"))
            .filter(|r| r.vantage == VantageKind::Dasu)
            .map(|r| r.latency.ms())
            .collect();
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        assert!(mean(&in_lat) > 2.0 * mean(&us_lat));
    }

    #[test]
    fn demand_summaries_mostly_observed() {
        let ds = tiny();
        let observed = ds
            .records
            .iter()
            .filter(|r| r.demand_no_bt.is_some())
            .count();
        assert!(observed as f64 > 0.95 * ds.records.len() as f64);
    }
}
