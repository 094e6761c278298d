//! Observed records — the rows every analysis consumes.
//!
//! A [`UserRecord`] contains only what the paper's pipeline could actually
//! observe about a subscriber: NDT-measured capacity/latency/loss, demand
//! summaries with and without BitTorrent intervals, the vantage point, and
//! the market covariates (price of access, cost of upgrade) of the user's
//! country. The latent agent state (appetite, budget) is deliberately not
//! here.

use crate::persona::Persona;
use bb_market::MarketSurvey;
use bb_netsim::collect::CounterSource;
use bb_types::{
    Bandwidth, Country, DemandSummary, Latency, LossRate, MoneyPpp, NetworkId, UserId, Year,
};

/// Which collection pipeline produced a record.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum VantageKind {
    /// Dasu end-host client (global).
    Dasu,
    /// FCC/SamKnows residential gateway (US only).
    Fcc,
}

/// One observed subscriber in one panel year.
#[derive(Clone, Debug)]
pub struct UserRecord {
    /// Stable user identifier.
    pub user: UserId,
    /// Country of the subscription.
    pub country: Country,
    /// Access network (ISP / prefix / city surrogate).
    pub network: NetworkId,
    /// Panel year of the observation.
    pub year: Year,
    /// Collection pipeline.
    pub vantage: VantageKind,
    /// Maximum download capacity measured by NDT.
    pub capacity: Bandwidth,
    /// Average latency to the nearest NDT server.
    pub latency: Latency,
    /// Average packet-loss rate from NDT runs.
    pub loss: LossRate,
    /// Median latency to the §7.1 popular web sites (2014 clients only).
    pub web_latency: Option<Latency>,
    /// Demand including BitTorrent intervals (None if nothing observed).
    pub demand_with_bt: Option<DemandSummary>,
    /// Demand excluding BitTorrent intervals.
    pub demand_no_bt: Option<DemandSummary>,
    /// Advertised capacity of the subscribed plan.
    pub plan_capacity: Bandwidth,
    /// Monthly price of the subscribed plan.
    pub plan_price: MoneyPpp,
    /// Market covariate: price of broadband access in the country.
    pub access_price: MoneyPpp,
    /// Market covariate: cost of +1 Mbps, when the market supports the
    /// estimate (r > 0.4).
    pub upgrade_cost: Option<MoneyPpp>,
    /// Whether the user ever ran BitTorrent during the window.
    pub is_bt_user: bool,
    /// Mean uplink rate over observed bins (Dasu recorded "the volume of
    /// network traffic sent and received").
    pub upload_mean: Option<Bandwidth>,
    /// Whether the subscribed plan carries a monthly traffic cap.
    pub plan_capped: bool,
    /// Which byte counter the Dasu client polled (None for FCC gateways).
    pub counter_source: Option<CounterSource>,
    /// Generator-side persona label (§10 extension). A real study would
    /// have to infer this from traffic; none of the paper's own exhibits
    /// read it.
    pub persona: Persona,
}

impl UserRecord {
    /// The §3.2 confounder vector used when matching "otherwise similar"
    /// users: connection quality (latency, loss), price of broadband
    /// access, and cost to upgrade capacity.
    ///
    /// Records from markets without an upgrade-cost estimate return `None`:
    /// they cannot be matched on all four confounders.
    pub fn confounders(&self) -> Option<[f64; 4]> {
        let upgrade = self.upgrade_cost?;
        Some([
            self.latency.ms(),
            self.loss.percent(),
            self.access_price.usd(),
            upgrade.usd(),
        ])
    }

    /// Peak link utilisation (95th-percentile demand over measured
    /// capacity), excluding BitTorrent. `None` when demand was unobserved.
    pub fn peak_utilization(&self) -> Option<f64> {
        Some(self.demand_no_bt?.peak_utilization(self.capacity))
    }
}

/// A user observed on two networks — the §3.2 "natural experiment" where
/// individual users switch between services of different capacities.
#[derive(Clone, Debug)]
pub struct UpgradeObservation {
    /// The user (same person in both observations).
    pub user: UserId,
    /// Country of both subscriptions.
    pub country: Country,
    /// Observation on the slower network.
    pub before: UpgradeSnapshot,
    /// Observation on the faster network.
    pub after: UpgradeSnapshot,
}

/// One side of an upgrade observation.
#[derive(Clone, Debug)]
pub struct UpgradeSnapshot {
    /// The network the user was on.
    pub network: NetworkId,
    /// Measured capacity on that network.
    pub capacity: Bandwidth,
    /// Demand including BitTorrent.
    pub demand_with_bt: Option<DemandSummary>,
    /// Demand excluding BitTorrent.
    pub demand_no_bt: Option<DemandSummary>,
}

/// A complete generated dataset: the two measurement populations, the
/// upgrade observations, and the market survey.
#[derive(Clone, Debug)]
pub struct Dataset {
    /// All per-user records (Dasu global + FCC US).
    pub records: Vec<UserRecord>,
    /// Users observed across a service upgrade.
    pub upgrades: Vec<UpgradeObservation>,
    /// The retail-plan survey.
    pub survey: MarketSurvey,
}

impl Dataset {
    /// The collecting accumulator step that materialises a fold:
    /// [`World::fold_users`](crate::World::fold_users) with
    /// `Default::default` and this absorb yields the panel's records and
    /// upgrades in user-index order, ready to assemble with the survey.
    pub fn collect(
        panel: &mut (Vec<UserRecord>, Vec<UpgradeObservation>),
        record: &UserRecord,
        upgrade: Option<&UpgradeObservation>,
    ) {
        panel.0.push(record.clone());
        panel.1.extend(upgrade.cloned());
    }

    /// Records from one vantage point.
    pub fn by_vantage(&self, vantage: VantageKind) -> impl Iterator<Item = &UserRecord> {
        self.records.iter().filter(move |r| r.vantage == vantage)
    }

    /// Dasu records only (the global end-host population).
    pub fn dasu(&self) -> impl Iterator<Item = &UserRecord> {
        self.by_vantage(VantageKind::Dasu)
    }

    /// FCC records only (the US gateway population).
    pub fn fcc(&self) -> impl Iterator<Item = &UserRecord> {
        self.by_vantage(VantageKind::Fcc)
    }

    /// Records for one country (any vantage).
    pub fn in_country(&self, country: Country) -> impl Iterator<Item = &UserRecord> + '_ {
        self.records.iter().filter(move |r| r.country == country)
    }

    /// Records for one panel year.
    pub fn in_year(&self, year: Year) -> impl Iterator<Item = &UserRecord> + '_ {
        self.records.iter().filter(move |r| r.year == year)
    }

    /// Number of distinct countries with at least one record.
    pub fn n_countries(&self) -> usize {
        let mut c: Vec<Country> = self.records.iter().map(|r| r.country).collect();
        c.sort();
        c.dedup();
        c.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(country: &str, vantage: VantageKind, year: u16) -> UserRecord {
        UserRecord {
            user: UserId(1),
            country: Country::new(country),
            network: NetworkId::new(Country::new(country), 0, 0, 0),
            year: Year(year),
            vantage,
            capacity: Bandwidth::from_mbps(10.0),
            latency: Latency::from_ms(50.0),
            loss: LossRate::from_percent(0.1),
            web_latency: None,
            demand_with_bt: Some(DemandSummary::new(
                Bandwidth::from_kbps(200.0),
                Bandwidth::from_mbps(2.0),
            )),
            demand_no_bt: Some(DemandSummary::new(
                Bandwidth::from_kbps(100.0),
                Bandwidth::from_mbps(1.0),
            )),
            plan_capacity: Bandwidth::from_mbps(10.0),
            plan_price: MoneyPpp::from_usd(50.0),
            access_price: MoneyPpp::from_usd(20.0),
            upgrade_cost: Some(MoneyPpp::from_usd(0.5)),
            is_bt_user: true,
            upload_mean: Some(Bandwidth::from_kbps(40.0)),
            plan_capped: false,
            counter_source: Some(CounterSource::Upnp),
            persona: Persona::Streamer,
        }
    }

    #[test]
    fn confounder_vector_shape() {
        let r = record("US", VantageKind::Dasu, 2012);
        let c = r.confounders().unwrap();
        assert_eq!(c, [50.0, 0.1, 20.0, 0.5]);
        let mut no_upgrade = r.clone();
        no_upgrade.upgrade_cost = None;
        assert!(no_upgrade.confounders().is_none());
    }

    #[test]
    fn peak_utilization() {
        let r = record("US", VantageKind::Dasu, 2012);
        assert!((r.peak_utilization().unwrap() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn dataset_filters() {
        let ds = Dataset {
            records: vec![
                record("US", VantageKind::Dasu, 2011),
                record("US", VantageKind::Fcc, 2012),
                record("JP", VantageKind::Dasu, 2012),
            ],
            upgrades: vec![],
            survey: MarketSurvey::new(),
        };
        assert_eq!(ds.dasu().count(), 2);
        assert_eq!(ds.fcc().count(), 1);
        assert_eq!(ds.in_country(Country::new("JP")).count(), 1);
        assert_eq!(ds.in_year(Year(2012)).count(), 2);
        assert_eq!(ds.n_countries(), 2);
    }
}
