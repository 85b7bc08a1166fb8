//! The planner's benchmark: `plan` and `tune` workloads, plus a `serve`
//! phase in every traced run.
//!
//! ```text
//! perfbench --workload <plan|tune> --seed <n> --seconds <s> --trace <0|1>
//! perfbench --regen-golden
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with no spans recorded.
//! `--trace 1` is the separate traced run: it wraps calls into every layer
//! in spans and reports the per-layer metrics. The last line of standard
//! output is one JSON object: `correct`, `attempted`, `failed`, `metrics`.
//! See `README.md` for what each workload and metric means.

mod golden;
mod plan;
mod problems;
mod serve;
mod trace;
mod tune;
mod util;

use std::process::ExitCode;
use std::time::Duration;

use util::Report;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Option<Args>, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--regen-golden") {
        return Ok(None);
    }
    let get = |flag: &str| -> Result<String, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        argv.get(i + 1)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let num = |flag: &str, v: String| v.parse::<u64>().map_err(|e| format!("{flag}: {e}"));
    let workload = get("--workload")?;
    let seed = num("--seed", get("--seed")?)?;
    let seconds = num("--seconds", get("--seconds")?)?;
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other}")),
    };
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Some(Args {
        workload,
        seed,
        seconds,
        trace,
    }))
}

fn main() -> ExitCode {
    if cfg!(debug_assertions) {
        eprintln!("perfbench: refusing to report timings from a debug build; build with --release");
        return ExitCode::from(2);
    }
    let args = match parse_args() {
        Ok(Some(a)) => a,
        Ok(None) => {
            return match golden::regenerate() {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("perfbench: golden regeneration failed: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "{}",
        util::environment(&args.workload, args.seed, args.trace)
    );
    let golden = match golden::Golden::load() {
        Ok(g) => g,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let budget = Duration::from_secs(args.seconds);
    let mut report = Report::new();
    let outcome = match (args.workload.as_str(), args.trace) {
        ("plan", false) => plan::run(&golden, args.seed, budget, &mut report),
        ("tune", false) => tune::run(args.seed, budget, &mut report),
        (w @ ("plan" | "tune"), true) => traced(w, &golden, args.seed, budget, &mut report),
        (other, _) => Err(format!("unknown workload {other}; known: plan, tune")),
    };
    if let Err(e) = outcome {
        eprintln!("perfbench: {e}");
        return ExitCode::FAILURE;
    }
    report.print();
    ExitCode::SUCCESS
}

/// The traced run. Every per-layer metric comes from it, whichever
/// workload is named, so each layer group runs as its own phase: `plan`
/// gets most of the time when it is named and a short share otherwise,
/// `serve` sends a fixed number of requests, and `tune` runs longer when it
/// is named. Spans are written to the scratch directory when the run ends.
fn traced(
    workload: &str,
    golden: &golden::Golden,
    seed: u64,
    budget: Duration,
    report: &mut Report,
) -> Result<(), String> {
    let plan_share = budget.mul_f64(if workload == "plan" { 0.6 } else { 0.15 });
    let mut tracer = trace::Tracer::new();
    plan::traced(golden, seed, plan_share, &mut tracer, report)?;
    serve::traced(golden, seed, &mut tracer, report)?;
    tune::traced(seed, workload == "tune", &mut tracer, report)?;
    let path = util::scratch_dir().join(format!("trace-{workload}.jsonl"));
    tracer
        .dump(&path)
        .map_err(|e| format!("writing spans to {}: {e}", path.display()))?;
    report.note(format!("spans written to {}", path.display()));
    Ok(())
}
