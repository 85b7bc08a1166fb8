//! Generate executable tiled code from a certified plan, then let the
//! autotuner pick the tile size: §2–§4 analysis feeding §5 made runnable.
//!
//! Two halves:
//!
//! 1. [`uov::driver::plan_and_emit`] — one call from a [`LoopNest`] to a
//!    standalone Rust program (and its C99 twin) whose loops are
//!    skew-tiled and whose stores go through the planned UOV mapping.
//!    The certificate transcript hash of the plan is stamped into the
//!    emitted source's provenance header.
//! 2. [`uov::codegen::autotune`] — memsim-ranked tile-size search with
//!    wall-clock timing of the top K, degrading to simulation-only
//!    ranking when no `rustc` is on the `PATH`.
//!
//! Run with: `cargo run --release --example generate_and_tune`

use uov::codegen::{autotune, AutotuneConfig, CandidateStatus};
use uov::driver;
use uov::kernels::zoo;
use uov::loopir::examples as ir;
use uov::storage::{Layout, OvMap};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Plan and emit: the §5 stencil, skew-tiled at 4×32.
    let nest = ir::stencil5_nest(8, 64);
    let emitted = driver::plan_and_emit("stencil5", &nest, Layout::Interleaved, Some([4, 32]))?;
    println!("schedule    : {}", emitted.spec.schedule.describe());
    for line in &emitted.spec.provenance {
        println!("provenance  : {line}");
    }
    println!(
        "emitted     : {} lines of Rust, {} lines of C",
        emitted.rust_source.lines().count(),
        emitted.c_source.lines().count()
    );
    let cert_line = emitted
        .rust_source
        .lines()
        .find(|l| l.contains("certificate"))
        .expect("certificate hash is stamped into the source");
    println!("stamped     :{}", cert_line.trim_start_matches("//"));

    // 2. Autotune the bandwidth-bound deep8 kernel at a demo scale.
    //    (perfbench's `tune` workload times the shipped tile.)
    let entry = zoo::deep8(6, 2048);
    let maps = entry.maps(Layout::Interleaved);
    let map_refs: Vec<Option<&OvMap>> = maps.iter().map(|m| m.as_ref()).collect();
    let cfg = AutotuneConfig {
        tiles0: vec![2, 4],
        tiles1: vec![64, 256],
        top_k: 2,
        seed: 7,
        ..AutotuneConfig::default()
    };
    let report = autotune(entry.name, &entry.nest, &map_refs, entry.skew_f, &cfg)?;

    println!("\ntile     memsim-cycles  wall-ns      status");
    for c in &report.candidates {
        println!(
            "{:<8} {:<14} {:<12} {}",
            format!("{}x{}", c.tile[0], c.tile[1]),
            c.memsim_cycles,
            c.wall_ns.map_or("-".into(), |ns| ns.to_string()),
            match &c.status {
                CandidateStatus::Ranked => "ranked",
                CandidateStatus::Timed => "timed",
                CandidateStatus::CompileFailed(_) => "compile failed",
                CandidateStatus::RunFailed(_) => "run failed",
                CandidateStatus::TimedOut => "timed out",
            }
        );
    }
    match (report.degraded.as_ref(), report.best, report.best_speedup()) {
        (Some(why), _, _) => println!("\ndegraded to memsim-only ranking: {why:?}"),
        (None, Some(bi), Some(s)) => {
            let b = &report.candidates[bi];
            println!(
                "\nbest tile {}x{}: {s:.2}x over the untiled UOV-mapped sweep",
                b.tile[0], b.tile[1]
            );
        }
        _ => println!("\nno candidate was timed"),
    }
    Ok(())
}
