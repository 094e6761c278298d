//! Tracing from outside the program: spans around each layer call, the
//! per-workload layer-share table, and the fixed-input layer replays
//! (exact per-shard fold walls, the netsim hot path).

use crate::common::{secs, Metrics};
use bb_dataset::World;
use bb_engine::{run_sharded_traced, RunStats, ShardPlan, Snapshot};
use bb_study::StreamStudy;
use bb_trace::{Registry, Timings};
use std::cell::Cell;
use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::Instant;

/// Spans when tracing, nothing otherwise: untraced runs pay one branch
/// per layer call.
pub struct Tracer(pub Option<Timings>);

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Self {
        Tracer(None)
    }

    /// Run `f`, inside span `name` when tracing.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        match &mut self.0 {
            Some(t) => t.time(name, f),
            None => f(),
        }
    }

    /// Open span `name` (paired with [`Tracer::end`]).
    pub fn begin(&mut self, name: &'static str) {
        if let Some(t) = &mut self.0 {
            t.begin(name);
        }
    }

    /// Close the innermost open span.
    pub fn end(&mut self) {
        if let Some(t) = &mut self.0 {
            t.end();
        }
    }

    /// Total time spent in spans named `name`, seconds.
    pub fn total(&self, name: &str) -> f64 {
        self.0
            .as_ref()
            .and_then(|t| t.span(name))
            .map_or(0.0, |s| secs(s.total))
    }
}

/// A parallel section's wall split among layers by their measured busy
/// time: `(layer, seconds)` rows that replace the section's own row in the
/// layer-share table.
pub type Apportioned = Vec<(&'static str, f64)>;

/// The layer a span belongs to: its name up to the first `.`.
fn layer_of(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

/// The layer-share table of the workload whose root span is `root`:
/// every layer's self time as a share of the root's wall, plus the
/// root's own self time as `unattributed`, so the rows sum to 100%.
/// `split` apportions named parallel sections among layers.
pub fn share_table(
    t: &Timings,
    root: &'static str,
    split: &[(&'static str, Apportioned)],
) -> String {
    let nodes: Vec<_> = t.nodes().collect();
    let Some(top) = nodes.iter().rev().find(|n| n.name == root && n.depth == 0) else {
        return format!("layer shares for {root}: no root span\n");
    };
    let (lo, hi) = (top.start_us, top.start_us + top.dur_us);
    let inside: Vec<_> = nodes
        .iter()
        .filter(|n| n.depth >= 1 && n.start_us >= lo && n.start_us + n.dur_us <= hi)
        .collect();
    let children_us = |parent: &bb_trace::SpanNode| -> u64 {
        inside
            .iter()
            .filter(|c| {
                c.depth == parent.depth + 1
                    && c.start_us >= parent.start_us
                    && c.start_us + c.dur_us <= parent.start_us + parent.dur_us
            })
            .map(|c| c.dur_us)
            .sum()
    };
    let mut rows: Vec<(String, f64)> = Vec::new();
    let mut add = |layer: &str, s: f64| match rows.iter_mut().find(|(l, _)| l == layer) {
        Some(row) => row.1 += s,
        None => rows.push((layer.to_string(), s)),
    };
    for node in &inside {
        let self_s = node.dur_us.saturating_sub(children_us(node)) as f64 / 1e6;
        match split.iter().find(|(name, _)| *name == node.name) {
            Some((_, parts)) => {
                let busy: f64 = parts.iter().map(|(_, s)| s).sum();
                for (layer, s) in parts {
                    add(layer, *s);
                }
                // Whatever the parts do not cover stays with the span.
                add(layer_of(node.name), (self_s - busy).max(0.0));
            }
            None => add(layer_of(node.name), self_s),
        }
    }
    let wall = top.dur_us as f64 / 1e6;
    let attributed: f64 = rows.iter().map(|(_, s)| s).sum();
    rows.push(("unattributed".into(), (wall - attributed).max(0.0)));
    let mut out = format!("layer shares for {root} (wall {wall:.3} s)\n");
    let mut total = 0.0;
    for (layer, s) in &rows {
        let share = 100.0 * s / wall.max(1e-12);
        total += share;
        let _ = writeln!(out, "  {layer:<28} {s:>9.4} s {share:>6.2}%");
    }
    let _ = writeln!(out, "  {:<28} {:>11} {total:>6.2}%", "total", "");
    out
}

/// What the exact per-shard replay of a streaming fold measured.
pub struct FoldReplay {
    /// The merged study, identical to any other plan's.
    pub study: StreamStudy,
    /// The merged data-event registry.
    pub registry: Registry,
    /// The engine's own view of the run.
    pub stats: RunStats,
    /// Per-shard wall of generation plus absorb, seconds.
    pub walls: Vec<f64>,
    /// Summed absorb time, seconds.
    pub absorb_s: f64,
    /// Summed snapshot bytes over the per-shard partials.
    pub snapshot_bytes: u64,
    /// Summed encode time of the partials, seconds.
    pub encode_s: f64,
    /// Summed decode time of the partials, seconds.
    pub decode_s: f64,
}

impl FoldReplay {
    /// Summed shard busy time (walls plus snapshot codec), seconds.
    pub fn busy_s(&self) -> f64 {
        self.walls.iter().sum::<f64>() + self.encode_s + self.decode_s
    }

    /// The fold's wall split among the layers that share it.
    pub fn apportion(&self) -> Apportioned {
        let capacity = self.stats.threads as f64 * secs(self.stats.work);
        let wall = secs(self.stats.work);
        let scale = |cpu: f64| wall * cpu / capacity.max(1e-12);
        let gen = self.walls.iter().sum::<f64>() - self.absorb_s;
        vec![
            ("bb-dataset+bb-netsim", scale(gen)),
            ("bb-study", scale(self.absorb_s)),
            (
                "bb-engine",
                scale(self.encode_s + self.decode_s) + secs(self.stats.merge),
            ),
        ]
    }

    /// The generation, engine and absorb metrics of this replay.
    pub fn put_metrics(&self, m: &mut Metrics) {
        let users = self.study.users.max(1) as f64;
        let work = secs(self.stats.work);
        let walls_mean = self.walls.iter().sum::<f64>() / self.walls.len().max(1) as f64;
        let walls_max = self.walls.iter().copied().fold(0.0, f64::max);
        m.put("dataset.gen_us_per_user", self.gen_us_per_user(), "us");
        m.put("engine.work_s", work, "s");
        m.put("engine.merge_ms", secs(self.stats.merge) * 1e3, "ms");
        m.put("engine.steals", self.stats.steals as f64, "count");
        m.put(
            "engine.thread_idle_frac",
            1.0 - self.busy_s() / (self.stats.threads as f64 * work).max(1e-12),
            "fraction",
        );
        m.put(
            "engine.shard_wall_max_over_mean",
            walls_max / walls_mean.max(1e-12),
            "ratio",
        );
        m.put("engine.snapshot_bytes", self.snapshot_bytes as f64, "count");
        m.put("engine.snapshot_encode_ms", self.encode_s * 1e3, "ms");
        m.put("engine.snapshot_decode_ms", self.decode_s * 1e3, "ms");
        m.put(
            "study.absorb_us_per_user",
            self.absorb_s * 1e6 / users,
            "us",
        );
    }

    /// Generation time per user: shard walls minus absorb.
    pub fn gen_us_per_user(&self) -> f64 {
        let observed = self.registry.counter("dataset.users.observed").max(1) as f64;
        (self.walls.iter().sum::<f64>() - self.absorb_s) * 1e6 / observed
    }
}

/// Fold `world` into a [`StreamStudy`] by running [`World::stream_shard`]
/// under the engine's sharded runner, timing every shard and every
/// absorb exactly, and encoding plus decoding each shard's partial the
/// way a federation worker and coordinator do.
pub fn fold_replay(world: &World, plan: ShardPlan) -> FoldReplay {
    #[derive(Default)]
    struct Shards {
        walls: Vec<f64>,
        absorb_s: f64,
        bytes: u64,
        encode_s: f64,
        decode_s: f64,
    }
    let shards = Mutex::new(Shards::default());
    let ((study, registry), stats) = run_sharded_traced(world.n_users(), plan, |_, range| {
        let started = Instant::now();
        let absorb_ns = Cell::new(0u64);
        let partial: (StreamStudy, Registry) =
            world.stream_shard(range, StreamStudy::new, |s, r, u| {
                let t = Instant::now();
                s.absorb(r, u);
                absorb_ns.set(absorb_ns.get() + t.elapsed().as_nanos() as u64);
            });
        let wall = secs(started.elapsed());
        let t = Instant::now();
        let text = partial.to_snapshot_string();
        let encode = secs(t.elapsed());
        let t = Instant::now();
        let decoded = <(StreamStudy, Registry)>::from_snapshot_str(&text).expect("partial decodes");
        let decode = secs(t.elapsed());
        let mut s = shards.lock().expect("shard tally");
        s.walls.push(wall);
        s.absorb_s += absorb_ns.get() as f64 / 1e9;
        s.bytes += text.len() as u64;
        s.encode_s += encode;
        s.decode_s += decode;
        decoded
    });
    let s = shards.into_inner().expect("shard tally");
    FoldReplay {
        study,
        registry,
        stats,
        walls: s.walls,
        absorb_s: s.absorb_s,
        snapshot_bytes: s.bytes,
        encode_s: s.encode_s,
        decode_s: s.decode_s,
    }
}

/// Per-call cost of the netsim hot path on fixed inputs, µs:
/// `(simulate, collect, demand, ndt)`.
pub fn netsim_replay(reps: u32) -> [f64; 4] {
    use bb_netsim::chaos::ChaosPlan;
    use bb_netsim::collect::{BtFilter, CollectScratch, CounterSource, UsageSeries};
    use bb_netsim::link::AccessLink;
    use bb_netsim::probe::NdtProbe;
    use bb_netsim::workload::{simulate_user_into, GroundTruth, UserWorkload};
    use bb_types::{Bandwidth, Latency, LossRate, TimeAxis, Year};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    let axis = TimeAxis::new(Year(2012), 1);
    let link = AccessLink::new(
        Bandwidth::from_mbps(10.0),
        Latency::from_ms(40.0),
        LossRate::from_percent(0.01),
    );
    let workload = UserWorkload::with_bt(Bandwidth::from_mbps(1.0), 0.45);
    let mut rng = ChaCha8Rng::seed_from_u64(7);
    let mut chaos_rng = ChaCha8Rng::seed_from_u64(8);
    let mut truth = GroundTruth::empty(axis);
    let mut cross_up = Vec::new();
    let mut scratch = CollectScratch::new();
    let mut rates = Vec::new();
    let mut reg = Registry::new();
    let per_call = |started: Instant| secs(started.elapsed()) * 1e6 / f64::from(reps);

    let started = Instant::now();
    for _ in 0..reps {
        simulate_user_into(&link, &workload, axis, &mut rng, &mut truth, &mut cross_up);
    }
    let simulate = per_call(started);

    let mut collect_once = |rng: &mut ChaCha8Rng| {
        UsageSeries::collect_via_counters_chaos_with(
            &truth,
            0.5,
            CounterSource::Upnp,
            link.capacity,
            &ChaosPlan::NONE,
            rng,
            &mut chaos_rng,
            &mut reg,
            &mut scratch,
        )
    };
    let started = Instant::now();
    let mut collected = collect_once(&mut rng);
    for _ in 1..reps {
        collected = collect_once(&mut rng);
    }
    let collect = per_call(started);

    let started = Instant::now();
    let mut sink = 0.0;
    for _ in 0..reps {
        sink += collected
            .demand_with(BtFilter::Include, &mut rates)
            .map_or(0.0, |d| d.mean.bps());
        sink += collected
            .demand_with(BtFilter::Exclude, &mut rates)
            .map_or(0.0, |d| d.mean.bps());
        sink += collected
            .upload_mean(BtFilter::Include)
            .map_or(0.0, |u| u.bps());
    }
    let demand = per_call(started);

    let started = Instant::now();
    for _ in 0..reps {
        sink += NdtProbe::default()
            .run_averaged(&link, 4, &mut rng)
            .download
            .bps();
    }
    let ndt = per_call(started);
    std::hint::black_box(sink);
    [simulate, collect, demand, ndt]
}

/// Put the netsim replay metrics, weighting each call by how often the
/// fold made it (from the fold's data registry), and report what the
/// replay leaves unexplained of `gen_us_per_user`.
pub fn put_netsim_metrics(m: &mut Metrics, replay: &FoldReplay, reps: u32) {
    let [simulate, collect, demand, ndt] = netsim_replay(reps);
    let reg = &replay.registry;
    let users = reg.counter("dataset.users.observed").max(1) as f64;
    // Every observation (first or post-upgrade) simulates, summarises
    // demand and probes once; counter collection runs for Dasu ones.
    let observations =
        (reg.counter("dataset.users.observed") + reg.counter("dataset.users.upgraded")) as f64;
    let counter_reads = (reg.counter("dataset.observations.upnp")
        + reg.counter("dataset.observations.netstat")) as f64;
    let explained =
        (simulate * observations + collect * counter_reads + (demand + ndt) * observations) / users;
    m.put("netsim.simulate_us", simulate, "us");
    m.put("netsim.collect_us", collect, "us");
    m.put("netsim.demand_us", demand, "us");
    m.put("netsim.ndt_us", ndt, "us");
    m.put(
        "netsim.unattributed_us_per_user",
        replay.gen_us_per_user() - explained,
        "us",
    );
}
