//! The `tune` workload: the paper's §5 claim run as real code.
//!
//! For each zoo kernel: `driver::plan_and_emit`, then `codegen::autotune`
//! over a fixed tile grid and top-K, then timed runs of the tile the tuner
//! ships. deep8's mapped buffer (8 rows of 2^17 doubles, 8 MiB) exceeds
//! the per-core L2, where tiling should win; fig1 and psm fit, where it
//! should not. Every generated kernel's `CHECK` must equal the one of its
//! natural-storage, untiled build.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use uov::codegen::{
    autotune, compile_rust, emit_rust, find_tool, run_kernel, AutotuneConfig, AutotuneReport,
    CandidateStatus, GenSchedule, KernelSpec,
};
use uov::driver::plan_and_emit;
use uov::isg::IterationDomain as _;
use uov::kernels::zoo::{self, ZooEntry};
use uov::storage::{Layout, OvMap};

use crate::trace::Tracer;
use crate::util::{
    geomean, median, peak_rss_mb, quantile, scratch_dir, sorted, spearman, tail_q, us, Calibration,
    Report, Sample,
};

const SETUP_REPS: usize = 3;
const COMPILE_TIMEOUT: Duration = Duration::from_secs(120);
const RUN_TIMEOUT: Duration = Duration::from_secs(60);
/// Wall time spent on timed runs of each shipped kernel per round.
const RUN_BUDGET: Duration = Duration::from_millis(300);
/// Iteration points one timed run covers (repeating the kernel as needed),
/// so a stall of the machine is spread over ~20 ms instead of landing on a
/// single 2 ms run.
const RUN_POINTS: u64 = 1 << 21;

/// Kernel repetitions per timed run.
fn reps(k: &ZooEntry) -> u32 {
    (RUN_POINTS / k.nest.domain().num_points()).max(1) as u32
}

fn kernels() -> Vec<ZooEntry> {
    vec![
        zoo::fig1(512, 512),
        zoo::psm(512, 512),
        zoo::deep8(16, 1 << 17),
    ]
}

fn tile_grid(seed: u64, work_dir: PathBuf) -> AutotuneConfig {
    AutotuneConfig {
        tiles0: vec![8, 16],
        tiles1: vec![256, 1024, 4096],
        top_k: 2,
        seed,
        // Three repetitions per candidate timing: with one, host noise
        // decided which of the top two tiles shipped.
        reps: 3,
        compile_timeout: COMPILE_TIMEOUT,
        run_timeout: RUN_TIMEOUT,
        work_dir: Some(work_dir),
        optimize: true,
        ..AutotuneConfig::default()
    }
}

/// A per-process scratch directory for sources and binaries, removed when
/// the run ends.
struct WorkDir(PathBuf);

impl WorkDir {
    fn new() -> Result<Self, String> {
        let dir = scratch_dir().join(format!("work-{}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        Ok(WorkDir(dir))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Emit, compile and run one spec once; returns the binary and its CHECK.
fn build(
    rustc: &Path,
    spec: &KernelSpec,
    dir: &Path,
    stem: &str,
    seed: u64,
) -> Result<(PathBuf, u64), String> {
    let src = dir.join(format!("{stem}.rs"));
    let bin = dir.join(stem);
    std::fs::write(&src, emit_rust(spec)).map_err(|e| format!("writing {}: {e}", src.display()))?;
    compile_rust(rustc, &src, &bin, true, COMPILE_TIMEOUT).map_err(|e| format!("{stem}: {e}"))?;
    let out = run_kernel(&bin, seed, 1, false, RUN_TIMEOUT).map_err(|e| format!("{stem}: {e}"))?;
    Ok((bin, out.check))
}

fn natural_spec(k: &ZooEntry) -> Result<KernelSpec, String> {
    let none: Vec<Option<&OvMap>> = k.ovs.iter().map(|_| None).collect();
    KernelSpec::new(k.name, &k.nest, &none, GenSchedule::Lex)
        .map(|s| s.with_capture(false))
        .map_err(|e| format!("{}: {e}", k.name))
}

/// Each kernel's natural-storage, untiled build and its reference `CHECK`.
type Natural = Vec<(PathBuf, u64)>;

fn setup(seed: u64, dir: &Path) -> Result<(PathBuf, Natural), String> {
    let rustc = find_tool("rustc", None).map_err(|e| e.to_string())?;
    let natural = kernels()
        .iter()
        .map(|k| {
            let stem = format!("{}_natural", k.name);
            build(&rustc, &natural_spec(k)?, dir, &stem, seed)
        })
        .collect::<Result<_, String>>()?;
    Ok((rustc, natural))
}

/// Plan, emit and autotune one kernel; the maps come from the plan.
fn tune_one(k: &ZooEntry, cfg: &AutotuneConfig) -> Result<AutotuneReport, String> {
    let emitted =
        plan_and_emit(k.name, &k.nest, Layout::Interleaved, None).map_err(|e| e.to_string())?;
    let maps: Vec<Option<&OvMap>> = emitted
        .plan
        .statements
        .iter()
        .map(|s| s.as_ref().ok().map(|p| &p.map))
        .collect();
    let f = emitted.plan.skew_factor.ok_or("no legalising skew")?;
    autotune(k.name, &k.nest, &maps, f, cfg).map_err(|e| e.to_string())
}

/// Failures inside an autotune report: a degraded ladder, or any
/// candidate that failed to compile, crashed, hung or disagreed on its
/// checksum.
fn report_failures(name: &str, r: &AutotuneReport) -> Vec<String> {
    let mut out = Vec::new();
    if let Some(d) = &r.degraded {
        out.push(format!("{name}: autotune degraded: {d:?}"));
    }
    if r.best.is_none() {
        out.push(format!("{name}: no tile shipped"));
    }
    for c in &r.candidates {
        if !matches!(c.status, CandidateStatus::Ranked | CandidateStatus::Timed) {
            out.push(format!("{name}: tile {:?}: {:?}", c.tile, c.status));
        }
    }
    out
}

/// Run a binary repeatedly for about `budget` (at least `min` times, `reps`
/// kernel repetitions each), checking each CHECK and keeping `cal` sampled
/// between runs; returns the time of one repetition per run.
fn timed_runs(
    bin: &Path,
    seed: u64,
    want: u64,
    budget: Duration,
    (min, reps): (usize, u32),
    cal: &mut Calibration,
    report: &mut Report,
) -> Vec<Sample> {
    let mut times = Vec::new();
    let start = Instant::now();
    while times.len() < min || start.elapsed() < budget {
        let t0 = Instant::now();
        let out = run_kernel(bin, seed, reps, false, RUN_TIMEOUT);
        let t1 = Instant::now();
        cal.tick();
        match out {
            Ok(out) => {
                times.push(Sample {
                    t0,
                    t1,
                    us: out.time_ns as f64 / 1e3 / f64::from(reps),
                });
                report.check((out.check != want).then(|| {
                    format!(
                        "{}: CHECK {:016x} != natural {want:016x}",
                        bin.display(),
                        out.check
                    )
                }));
            }
            Err(e) => {
                report.check(Some(format!("{}: {e}", bin.display())));
                break;
            }
        }
    }
    times
}

fn median_us(runs: &[Sample]) -> f64 {
    median(&runs.iter().map(|s| s.us).collect::<Vec<_>>())
}

pub fn run(seed: u64, budget: Duration, report: &mut Report) -> Result<(), String> {
    let work = WorkDir::new()?;
    let mut cal = Calibration::new();
    let mut setups = Vec::new();
    let mut ready = None;
    for _ in 0..SETUP_REPS {
        let (r, s) = cal.bracket(|| setup(seed, &work.0));
        ready = Some(r?);
        setups.push(s);
    }
    let (_, natural) = ready.ok_or("no set-up ran")?;
    let kernels = kernels();
    let (mut rounds_s, mut rounds_refs) = (Vec::new(), Vec::new());
    let mut runs: Vec<Vec<Sample>> = kernels.iter().map(|_| Vec::new()).collect();
    let start = Instant::now();
    while rounds_s.is_empty() || start.elapsed() < budget {
        let (mut tune_s, mut tune_refs) = (0.0, 0.0);
        for (i, k) in kernels.iter().enumerate() {
            let dir = work.0.join(k.name);
            let (r, tuned) = cal.bracket(|| tune_one(k, &tile_grid(seed, dir.clone())));
            let r = r?;
            tune_s += tuned.us / 1e6;
            tune_refs += cal.refs(&tuned);
            let failures = report_failures(k.name, &r);
            report.check(failures.first().cloned());
            let Some(best) = r.best.map(|b| r.candidates[b].tile) else {
                continue;
            };
            // The untiled baseline the tuner compared against, then the
            // shipped tile, both against the natural build.
            timed_runs(
                &dir.join("baseline"),
                seed,
                natural[i].1,
                Duration::ZERO,
                (1, 1),
                &mut cal,
                report,
            );
            let bin = dir.join(format!("tile_{}x{}", best[0], best[1]));
            runs[i].extend(timed_runs(
                &bin,
                seed,
                natural[i].1,
                RUN_BUDGET,
                (5, reps(k)),
                &mut cal,
                report,
            ));
        }
        rounds_s.push(tune_s);
        rounds_refs.push(tune_refs);
    }
    let (mut medians, mut tails, mut per_point) = (Vec::new(), Vec::new(), Vec::new());
    for (k, r) in kernels.iter().zip(&runs) {
        let refs = sorted(r.iter().map(|s| cal.refs(s)).collect());
        medians.push(quantile(&refs, 0.5));
        tails.push(quantile(&refs, tail_q(refs.len())));
        let abs_us = median_us(r);
        per_point.push(abs_us * 1e3 / k.nest.domain().num_points() as f64);
        report.note(format!(
            "{}: {} shipped-kernel runs, median {abs_us} us",
            k.name,
            r.len()
        ));
    }
    let tune_s = median(&rounds_s);
    report.setup(&cal, &setups);
    report.metric("peak_rss_mb", peak_rss_mb(), "MB");
    report.metric("p50_ref", geomean(&medians), "ref");
    report.metric("tail_ref", geomean(&tails), "ref");
    report.metric(
        "throughput_per_ref",
        kernels.len() as f64 / median(&rounds_refs),
        "1/ref",
    );
    report.note(format!(
        "ref_us = {} us (median reference time)",
        cal.median_us()
    ));
    report.note(format!(
        "tune_s = {tune_s} s (median of {} rounds)",
        rounds_s.len()
    ));
    report.note(format!("kernel_ns_per_point = {} ns", geomean(&per_point)));
    Ok(())
}

/// The traced `tune` phase: every layer of the tuner called on its own.
/// Memsim ranks the grid (autotune with no compiler), every candidate is
/// emitted, compiled and timed, and the natural and untiled UOV-mapped
/// builds give the baselines. `long` gives each binary more timed runs.
pub fn traced(seed: u64, long: bool, t: &mut Tracer, report: &mut Report) -> Result<(), String> {
    let work = WorkDir::new()?;
    let (rustc, natural) = setup(seed, &work.0)?;
    let runs = if long { 15 } else { 3 };
    let mut cal = Calibration::new();
    let (mut rank_ms, mut emit_us, mut compile_s, mut rhos) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut untiled, mut nat) = (Vec::new(), Vec::new());
    for (i, k) in kernels().iter().enumerate() {
        let req = i as u64;
        let points = k.nest.domain().num_points() as f64;
        let emitted = t
            .span("driver.plan_and_emit", req, |_| {
                plan_and_emit(k.name, &k.nest, Layout::Interleaved, None)
            })
            .map_err(|e| e.to_string())?;
        let maps: Vec<Option<&OvMap>> = emitted
            .plan
            .statements
            .iter()
            .map(|s| s.as_ref().ok().map(|p| &p.map))
            .collect();
        let f = emitted.plan.skew_factor.ok_or("no legalising skew")?;
        let cfg = AutotuneConfig {
            rustc: Some(work.0.join("no-rustc")),
            ..tile_grid(seed, work.0.clone())
        };
        let clock = Instant::now();
        let ranked = t
            .span("memsim.rank", req, |_| {
                autotune(k.name, &k.nest, &maps, f, &cfg)
            })
            .map_err(|e| e.to_string())?;
        rank_ms.push(clock.elapsed().as_secs_f64() * 1e3 / ranked.candidates.len() as f64);

        let natural_runs = t.span("kernel.run", req, |_| {
            timed_runs(
                &natural[i].0,
                seed,
                natural[i].1,
                Duration::ZERO,
                (runs, reps(k)),
                &mut cal,
                report,
            )
        });
        nat.push(median_us(&natural_runs) * 1e3 / points);

        let mut time =
            |t: &mut Tracer, schedule: GenSchedule, maps: &[Option<&OvMap>], stem: &str| {
                let spec = KernelSpec::new(k.name, &k.nest, maps, schedule)
                    .map_err(|e| e.to_string())?
                    .with_capture(false);
                let src = work.0.join(format!("{stem}.rs"));
                let bin = work.0.join(stem);
                let clock = Instant::now();
                let code = t.span("codegen.emit", req, |_| emit_rust(&spec));
                emit_us.push(us(clock.elapsed()));
                std::fs::write(&src, code)
                    .map_err(|e| format!("writing {}: {e}", src.display()))?;
                let clock = Instant::now();
                t.span("codegen.compile", req, |_| {
                    compile_rust(&rustc, &src, &bin, true, COMPILE_TIMEOUT)
                })
                .map_err(|e| format!("{stem}: {e}"))?;
                compile_s.push(clock.elapsed().as_secs_f64());
                let runs = t.span("kernel.run", req, |_| {
                    timed_runs(
                        &bin,
                        seed,
                        natural[i].1,
                        Duration::ZERO,
                        (runs, reps(k)),
                        &mut cal,
                        report,
                    )
                });
                Ok::<f64, String>(median_us(&runs))
            };
        untiled
            .push(time(t, GenSchedule::Lex, &maps, &format!("{}_untiled", k.name))? * 1e3 / points);
        let (mut cycles, mut wall) = (Vec::new(), Vec::new());
        for c in &ranked.candidates {
            let stem = format!("{}_tile_{}x{}", k.name, c.tile[0], c.tile[1]);
            wall.push(time(
                t,
                GenSchedule::SkewTiled { f, tile: c.tile },
                &maps,
                &stem,
            )?);
            cycles.push(c.memsim_cycles as f64);
        }
        let rho = spearman(&cycles, &wall);
        report.note(format!(
            "{}: memsim rank vs wall time, Spearman rho {rho}",
            k.name
        ));
        rhos.push(rho);
    }
    report.metric("codegen.emit_us", median(&emit_us), "us");
    report.metric("codegen.compile_s", median(&compile_s), "s");
    report.metric("memsim.rank_ms", median(&rank_ms), "ms");
    report.metric(
        "memsim.rank_rho",
        rhos.iter().sum::<f64>() / rhos.len() as f64,
        "rho",
    );
    report.metric("kernel.untiled_ns_per_point", geomean(&untiled), "ns");
    report.metric("kernel.natural_ns_per_point", geomean(&nat), "ns");
    Ok(())
}
