//! # bb-netsim — the measurement substrate
//!
//! An event-driven simulator of residential broadband links and the
//! application sessions that run over them, plus the two collection
//! pipelines the paper's datasets came from:
//!
//! * **Dasu-style end-host collection** (§2.1): traffic byte counters read
//!   "at approximately 30 second intervals with some variations due to
//!   scheduling", either from UPnP gateway counters (32-bit, wrapping) or
//!   from `netstat`; BitTorrent activity flagged per interval;
//! * **FCC/SamKnows-style gateway collection**: hourly WAN byte counts.
//!
//! The physical model is deliberately simple but mechanistic:
//!
//! * [`link`] — an access link with a capacity, a base RTT and a random
//!   packet-loss rate, plus utilisation-dependent queueing delay;
//! * [`tcp`] — the Mathis et al. TCP throughput bound
//!   `rate ≤ (MSS/RTT)·1.22/√p`, which is the mechanism by which high
//!   latency and loss suppress achievable demand (§7 of the paper);
//! * [`app`] — application profiles (web, video, bulk, BitTorrent,
//!   background) with flow counts, desired rates and heavy-tailed sizes;
//! * [`workload`] — a non-homogeneous Poisson session process with the
//!   diurnal shape shared by both vantage points;
//! * [`counters`] — UPnP (wrapping u32) and netstat (u64) counter models;
//! * [`collect`] — per-slot usage series, demand summaries (mean and
//!   95th-percentile), BitTorrent filtering, hourly FCC aggregation;
//! * [`probe`] — NDT-like capacity/latency/loss probes and the §7.1
//!   web-latency measurements;
//! * [`fault`] — fault injection used by the examples and ablations;
//! * [`chaos`] — composable, severity-parameterised degradation
//!   scenarios over the collection pipeline (burst outages, clock skew,
//!   reset storms, poll churn, probe blackouts) for fault campaigns.
//!
//! The wrap/reset/stale-poll recovery heuristics in [`counters`] and
//! [`collect`] report how often they fire through `bb-trace` (the
//! registry every collection call takes and [`counters::DeltaStats`]); those
//! counts are pure data events and merge plan-invariantly.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod app;
pub mod chaos;
pub mod collect;
pub mod counters;
pub mod fault;
pub mod link;
pub mod probe;
pub mod tcp;
pub mod workload;

pub use app::{AppClass, AppMix};
pub use chaos::{ChaosPlan, ChaosScenario, ChaosSpec};
pub use collect::{UsageSeries, Vantage};
pub use link::AccessLink;
pub use probe::{NdtProbe, NdtReport};
pub use workload::{simulate_user, UserWorkload};
