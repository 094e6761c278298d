//! Shared plumbing: run context, statistics, digests, checks, metric
//! output, host stamp and peak memory.

use bb_engine::fnv1a64;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// The seed a run uses when `--seed` is not given; `digests.json` pins
/// the artifact digests of every workload for it.
pub const DEFAULT_SEED: u64 = 20141105;

/// Set-up is repeated this many times per run and reported as a median.
pub const SETUP_REPS: usize = 41;

/// Everything one invocation was asked to do.
#[derive(Clone, Debug)]
pub struct Ctx {
    /// Input seed; every generated input derives from it.
    pub seed: u64,
    /// Length of the measurement window.
    pub seconds: f64,
    /// Tiny sizes for the smoke test.
    pub tiny: bool,
    /// Scratch directory for artifacts, removed when the run ends.
    pub dir: PathBuf,
}

impl Ctx {
    /// A fresh, empty scratch subdirectory.
    pub fn subdir(&self, name: &str) -> PathBuf {
        let dir = self.dir.join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch directory");
        dir
    }

    /// The measurement window.
    pub fn window(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }
}

/// Seconds as `f64`.
pub fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Linear-interpolated quantile of unsorted samples (`q` in `[0, 1]`);
/// 0 for an empty sample.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Median of unsorted samples.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Run `f` `reps` times; the median wall in seconds and the last result.
/// Each repetition follows a short pause, so it starts with cold caches
/// like the one set-up a user pays; back-to-back repetitions would time
/// a warm loop whose speed depends on the process's memory layout.
pub fn median_setup<T>(reps: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut walls = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        std::thread::sleep(Duration::from_millis(10));
        let started = Instant::now();
        let value = f();
        walls.push(secs(started.elapsed()));
        last = Some(value);
    }
    print_samples("set-up s", &walls);
    (median(&walls), last.expect("at least one repetition"))
}

/// One untimed warm-up call of `iteration` (allocator and caches settle),
/// then timed calls until the window has passed: `(warm-up, timed)`.
pub fn measure<T>(ctx: &Ctx, mut iteration: impl FnMut() -> T) -> (T, Vec<T>) {
    let warm = iteration();
    let started = Instant::now();
    let mut timed = Vec::new();
    while timed.is_empty() || started.elapsed() < ctx.window() {
        timed.push(iteration());
    }
    (warm, timed)
}

/// Print a run's samples of one quantity, so the medians can be audited.
pub fn print_samples(what: &str, samples: &[f64]) {
    let list: Vec<String> = samples.iter().map(|s| format!("{s:.4e}")).collect();
    println!("{what}: {} samples [{}]", samples.len(), list.join(", "));
}

/// Digest of an artifact set: every name and every byte, in name order.
pub fn digest(files: &[(String, String)]) -> u64 {
    let mut sorted: Vec<_> = files.iter().collect();
    sorted.sort();
    let mut bytes = Vec::new();
    for (name, content) in sorted {
        bytes.extend_from_slice(name.as_bytes());
        bytes.push(0);
        bytes.extend_from_slice(content.as_bytes());
        bytes.push(0);
    }
    fnv1a64(&bytes)
}

/// Write every artifact under `dir`; returns how many landed intact.
pub fn write_artifacts(dir: &Path, files: &[(String, String)]) -> u64 {
    files
        .iter()
        .filter(|(name, content)| {
            let path = dir.join(name);
            std::fs::write(&path, content).is_ok()
                && std::fs::metadata(&path).is_ok_and(|m| m.len() == content.len() as u64)
        })
        .count() as u64
}

/// Output checks and the attempted/failed operation tally of one run.
#[derive(Debug)]
pub struct Checks {
    /// Every output check passed.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
}

impl Checks {
    /// No checks run yet.
    pub fn new() -> Self {
        Checks {
            correct: true,
            attempted: 0,
            failed: 0,
        }
    }

    /// Record one output check; a failure is reported on stderr.
    pub fn check(&mut self, ok: bool, what: impl std::fmt::Display) {
        if !ok {
            eprintln!("perfbench: CHECK FAILED: {what}");
            self.correct = false;
        }
    }

    /// Count `attempted` operations of which `failed` failed.
    pub fn ops(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    /// Check `digest` against the pinned one for `key`, if the run uses
    /// the default seed and a digest is pinned.
    pub fn pinned(&mut self, ctx: &Ctx, key: &str, digest: u64) {
        println!("digest {key} {digest:016x}");
        if ctx.seed != DEFAULT_SEED {
            return;
        }
        let size = if ctx.tiny { "tiny" } else { "full" };
        let pins: serde_json::Value =
            serde_json::from_str(include_str!("../digests.json")).expect("digests.json parses");
        if let Some(pinned) = pins
            .get(size)
            .and_then(|s| s.get(key))
            .and_then(|d| d.as_str())
        {
            self.check(
                pinned == format!("{digest:016x}"),
                format!("{key} digest {digest:016x} differs from the pinned {pinned}"),
            );
        }
    }
}

/// Named metrics in output order.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<(String, f64, &'static str)>);

impl Metrics {
    /// Add one metric.
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }

    /// The JSON result line: checks, operation counts and every metric.
    pub fn result_line(&self, checks: &Checks) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            checks.correct && self.0.iter().all(|(_, v, _)| v.is_finite()),
            checks.attempted.max(1),
            checks.failed
        );
        for (i, (name, value, unit)) in self.0.iter().enumerate() {
            let value = if value.is_finite() { *value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }
}

/// Peak resident set size of this process, MiB.
pub fn peak_rss_mb() -> f64 {
    #[repr(C)]
    struct Rusage {
        times: [i64; 4],
        counters: [i64; 14],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    }
    let mut usage = Rusage {
        times: [0; 4],
        counters: [0; 14],
    };
    // SAFETY: `Rusage` matches the C `struct rusage` layout on 64-bit
    // Linux (two timevals, then fourteen longs), and RUSAGE_SELF is 0.
    let rc = unsafe { getrusage(0, &mut usage) };
    if rc != 0 {
        return 0.0;
    }
    let _ = usage.times;
    usage.counters[0] as f64 / 1024.0
}

/// One line naming the host and build a result came from. Results from
/// different hosts are never comparable.
pub fn host_stamp() -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    format!(
        "{{\"nproc\": {nproc}, \"cpu\": {:?}, \"rustc\": {:?}, \"rustflags\": {:?}}}",
        cpu_model(),
        env!("PERFBENCH_RUSTC"),
        env!("PERFBENCH_RUSTFLAGS")
    )
}

/// The CPU brand string from `cpuid`.
#[cfg(target_arch = "x86_64")]
fn cpu_model() -> String {
    use std::arch::x86_64::__cpuid;
    #[allow(unused_unsafe)]
    // SAFETY: cpuid exists on every x86_64 CPU; leaf 0x8000_0000 reports
    // whether the brand-string leaves are present before we read them.
    let brand = unsafe {
        if __cpuid(0x8000_0000).eax < 0x8000_0004 {
            return "unknown".into();
        }
        let mut bytes = Vec::with_capacity(48);
        for leaf in 0x8000_0002u32..=0x8000_0004 {
            let r = __cpuid(leaf);
            for word in [r.eax, r.ebx, r.ecx, r.edx] {
                bytes.extend_from_slice(&word.to_le_bytes());
            }
        }
        bytes
    };
    String::from_utf8_lossy(&brand)
        .trim_matches(char::from(0))
        .trim()
        .to_string()
}

/// The CPU brand string (not available on this architecture).
#[cfg(not(target_arch = "x86_64"))]
fn cpu_model() -> String {
    "unknown".into()
}
