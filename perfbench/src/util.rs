//! Small shared pieces: a seeded PRNG, order statistics, the result
//! record and the environment stamp.

use std::collections::HashMap;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{Duration, Instant};

/// SplitMix64: the benchmark's only source of randomness, so the same
/// `--seed` always yields the same inputs.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x243F_6A88_85A3_08D3)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// Nearest-rank quantile of an ascending slice (`q` in `[0, 1]`).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

pub fn median(v: &[f64]) -> f64 {
    quantile(&sorted(v.to_vec()), 0.5)
}

pub fn geomean(v: &[f64]) -> f64 {
    assert!(!v.is_empty(), "geometric mean of an empty sample");
    (v.iter().map(|x| x.ln()).sum::<f64>() / v.len() as f64).exp()
}

/// The highest percentile with at least ten samples beyond it, capped at
/// p99 (choosing-metrics: never report a tail the sample cannot carry).
pub fn tail_q(n: usize) -> f64 {
    (1.0 - 10.0 / n as f64).clamp(0.5, 0.99)
}

/// Spearman's rank correlation with average ranks for ties; `0` when
/// either side is constant.
pub fn spearman(a: &[f64], b: &[f64]) -> f64 {
    fn ranks(v: &[f64]) -> Vec<f64> {
        let mut idx: Vec<usize> = (0..v.len()).collect();
        idx.sort_by(|&i, &j| v[i].total_cmp(&v[j]));
        let mut r = vec![0.0; v.len()];
        let mut i = 0;
        while i < idx.len() {
            let mut j = i;
            while j + 1 < idx.len() && v[idx[j + 1]] == v[idx[i]] {
                j += 1;
            }
            let avg = (i + j) as f64 / 2.0 + 1.0;
            for &k in &idx[i..=j] {
                r[k] = avg;
            }
            i = j + 1;
        }
        r
    }
    let (ra, rb) = (ranks(a), ranks(b));
    let n = a.len() as f64;
    let (ma, mb) = (ra.iter().sum::<f64>() / n, rb.iter().sum::<f64>() / n);
    let cov: f64 = ra.iter().zip(&rb).map(|(x, y)| (x - ma) * (y - mb)).sum();
    let va: f64 = ra.iter().map(|x| (x - ma).powi(2)).sum();
    let vb: f64 = rb.iter().map(|y| (y - mb).powi(2)).sum();
    if va == 0.0 || vb == 0.0 {
        0.0
    } else {
        cov / (va * vb).sqrt()
    }
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// How often the reference loop runs while a workload is timed.
const CAL_INTERVAL: Duration = Duration::from_millis(50);
/// A timing is divided by the median reference time within this much of it.
const CAL_REACH: Duration = Duration::from_millis(500);
/// The reference loop's time in the reference machine's slow mode, in µs:
/// `setup_s` is set-up time rescaled to a host where the loop takes this.
const NOMINAL_REF_US: f64 = 900.0;

/// One timed operation: when it ran and how long it took (per repetition).
pub struct Sample {
    pub t0: Instant,
    pub t1: Instant,
    pub us: f64,
}

/// The host's current speed, read off a fixed reference loop that runs
/// between the timed operations.
///
/// The shared reference machine switches, for stretches of ten seconds to
/// minutes, between a slow and a fast mode that plans up to 2× faster; a
/// run's absolute times follow the mix of modes it happened to get.
/// HashMap upserts slow down and speed up with the planner (plan time over
/// reference time stayed within 0.53–0.60 per 10 s window while plan time
/// moved 269–539 µs), so every gated timing is given in units of the
/// reference loop's time near it: `ref`, or for `setup_s`, seconds on a
/// host whose reference loop takes `NOMINAL_REF_US`.
pub struct Calibration {
    /// (instant, reference time in µs), in time order.
    samples: Vec<(Instant, f64)>,
}

impl Calibration {
    pub fn new() -> Self {
        // Reserved so it is not reallocated between timed operations (see
        // `plan::run`): a minute's worth at `CAL_INTERVAL`, and more.
        let mut cal = Calibration {
            samples: Vec::with_capacity(8192),
        };
        cal.sample();
        cal
    }

    /// 20 000 upserts into a fresh 5 000-key `HashMap`: hashing, probing
    /// and growth, the planner's memo work. About 0.9 ms.
    fn reference(seed: u64) -> usize {
        let mut x = seed | 1;
        let mut m: HashMap<u64, u64> = HashMap::new();
        for k in 0..20_000u64 {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            *m.entry(x % 5_000).or_default() += k;
        }
        m.len()
    }

    /// Time the reference loop once.
    pub fn sample(&mut self) {
        let t = Instant::now();
        black_box(Self::reference(black_box(self.samples.len() as u64)));
        self.samples.push((t, us(t.elapsed())));
    }

    /// Time the reference loop if `CAL_INTERVAL` has passed since the last time.
    pub fn tick(&mut self) {
        if self
            .samples
            .last()
            .is_none_or(|s| s.0.elapsed() >= CAL_INTERVAL)
        {
            self.sample();
        }
    }

    /// Median reference time within `CAL_REACH` of `[t0, t1]`. Callers
    /// `tick` or `sample` right after each timed operation, so the range
    /// always holds a reference time no more than `CAL_INTERVAL` before
    /// `t1` or just after it.
    fn around(&self, t0: Instant, t1: Instant) -> f64 {
        let lo = self.samples.partition_point(|s| s.0 + CAL_REACH < t0);
        let hi = self.samples.partition_point(|s| s.0 <= t1 + CAL_REACH);
        let near: Vec<f64> = self.samples[lo..hi].iter().map(|s| s.1).collect();
        median(&near)
    }

    /// A sample's time in reference units.
    pub fn refs(&self, s: &Sample) -> f64 {
        s.us / self.around(s.t0, s.t1)
    }

    /// Time `f` with the reference loop run three times on either side,
    /// so a one-off operation such as set-up has reference times near it.
    pub fn bracket<T>(&mut self, f: impl FnOnce() -> T) -> (T, Sample) {
        for _ in 0..3 {
            self.sample();
        }
        let t0 = Instant::now();
        let out = f();
        let t1 = Instant::now();
        for _ in 0..3 {
            self.sample();
        }
        let us = us(t1 - t0);
        (out, Sample { t0, t1, us })
    }

    /// A sample's time in seconds on a host whose reference loop takes
    /// `NOMINAL_REF_US`.
    pub fn nominal_s(&self, s: &Sample) -> f64 {
        self.refs(s) * NOMINAL_REF_US / 1e6
    }

    /// Median reference time over the run, in µs.
    pub fn median_us(&self) -> f64 {
        let all: Vec<f64> = self.samples.iter().map(|s| s.1).collect();
        median(&all)
    }
}

/// One run's outcome: the four keys of the final JSON line.
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// First few failure descriptions, printed to stderr.
    pub failures: Vec<String>,
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Human-readable lines printed before the JSON (issue-named views of
    /// the generic metrics, counts, spreads).
    pub notes: Vec<String>,
}

impl Report {
    pub fn new() -> Self {
        Report {
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            metrics: Vec::new(),
            notes: Vec::new(),
        }
    }

    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// `setup_s`: the median set-up time rescaled by the reference loop;
    /// the absolute median is a note.
    pub fn setup(&mut self, cal: &Calibration, setups: &[Sample]) {
        let nominal: Vec<f64> = setups.iter().map(|s| cal.nominal_s(s)).collect();
        let abs: Vec<f64> = setups.iter().map(|s| s.us / 1e6).collect();
        self.metric("setup_s", median(&nominal), "s");
        self.note(format!(
            "setup_abs_s = {} s (median of {}, not rescaled)",
            median(&abs),
            setups.len()
        ));
    }

    /// Count one checked operation; `err` marks it failed.
    pub fn check(&mut self, err: Option<String>) {
        self.attempted += 1;
        if let Some(e) = err {
            self.failed += 1;
            if self.failures.len() < 8 {
                self.failures.push(e);
            }
        }
    }

    /// Print the notes, every metric by name and unit, and the final JSON
    /// line. `correct` is false on any failure or non-finite metric.
    pub fn print(&self) {
        for f in &self.failures {
            eprintln!("FAILED: {f}");
        }
        for n in &self.notes {
            println!("{n}");
        }
        let fail_ratio = self.failed as f64 / self.attempted.max(1) as f64;
        println!(
            "fail_ratio = {fail_ratio} ({} of {})",
            self.failed, self.attempted
        );
        let mut finite = true;
        let mut body = Vec::new();
        for (name, value, unit) in &self.metrics {
            println!("{name} = {value} {unit}");
            finite &= value.is_finite();
            let v = if value.is_finite() { *value } else { 0.0 };
            body.push(format!(
                "\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
            ));
        }
        let correct = self.failed == 0 && self.attempted > 0 && finite;
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted.max(1),
            self.failed,
            body.join(", ")
        );
    }
}

/// Peak resident set of this process, from `/proc/self/status`.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The benchmark's own directory (holds `golden.txt`).
pub fn bench_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// Scratch space for generated kernels and span dumps: inside the cargo
/// target directory, so it stays inside the checkout and out of git.
pub fn scratch_dir() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| bench_dir().join("target"));
    target.join("perfbench")
}

/// The commit of the enclosing git checkout, read from `.git` directly
/// (no subprocess, no search above the repository root).
fn commit(repo: &Path) -> String {
    let git = repo.join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown (not a git checkout)".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(id) = std::fs::read_to_string(git.join(reference)) {
        return id.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|p| {
            p.lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| format!("unknown ({reference})"))
}

/// The environment stamp printed with every result set.
pub fn environment(workload: &str, seed: u64, trace: bool) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let rustc = Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    format!(
        "env: {{\"workload\": \"{workload}\", \"seed\": {seed}, \"trace\": {trace}, \"nproc\": {nproc}, \
         \"rustc\": \"{rustc}\", \"profile\": \"{profile}\", \"commit\": \"{}\"}}",
        commit(&bench_dir().join(".."))
    )
}
