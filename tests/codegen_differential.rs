//! Differential suite for `uov-codegen`: compiled generated kernels must
//! be **bit-identical** to the `uov-loopir` reference interpreter.
//!
//! For every kernel-zoo entry, four program shapes are generated,
//! compiled with the host `rustc`, executed, and their captured
//! per-iteration values compared word-for-word against an interpreter
//! run over the same deterministic inputs:
//!
//! * natural storage, lexicographic order;
//! * UOV-mapped storage, lexicographic order and skew-tiled at three tile
//!   sizes: four variants of one program, compiled once and run under
//!   each variant's name (a name that is no variant must fail typed);
//! * (stencil5 only) the blocked modterm layout.
//!
//! The input seed comes from `UOV_TEST_SEED` so CI can sweep it.
//!
//! A second group fault-injects the ladder: missing toolchain, broken
//! source, and a run that exceeds its allowance must all surface as
//! *typed* [`uov::codegen::CodegenError`] values — never panics.
//!
//! A third group holds the autotuner's toolchain-free half to the
//! schedule crate: the in-process loop walker must visit exactly
//! [`uov::schedule::LoopSchedule`]'s order, and the memsim ranking of
//! perfbench's tile grid is pinned cycle for cycle.

use std::path::{Path, PathBuf};
use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use uov::codegen::{
    autotune, compile_rust, emit_rust, emit_rust_variants, find_tool, input_value, run_kernel,
    AutotuneConfig, CandidateStatus, CodegenError, DegradeReason, GenSchedule, KernelSpec,
};
use uov::isg::{IVec, IterationDomain as _, RectDomain};
use uov::kernels::zoo;
use uov::loopir::interp;
use uov::schedule::LoopSchedule;
use uov::storage::{Layout, OvMap};

fn seed_from_env() -> u64 {
    std::env::var("UOV_TEST_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0x5EED_C0DE)
}

fn work_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("uov-codegen-diff-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

const COMPILE_T: Duration = Duration::from_secs(120);
const RUN_T: Duration = Duration::from_secs(120);

/// Reference bits for `spec`'s nest: interpreter run over natural
/// storage, re-keyed by `(statement, row-major iteration index)` to match
/// the generated programs' capture arrays.
fn reference_bits(spec: &KernelSpec, seed: u64) -> Vec<Vec<u64>> {
    let nest = spec.nest();
    let outputs = interp::run_natural(nest, &|array, elem| input_value(seed, array, elem));
    let dom = nest.domain();
    let ext1 = dom.hi()[1] - dom.lo()[1] + 1;
    let mut bits = vec![vec![0u64; spec.points()]; nest.stmts().len()];
    for q in dom.points() {
        let lin = ((q[0] - dom.lo()[0]) * ext1 + (q[1] - dom.lo()[1])) as usize;
        for s in 0..nest.stmts().len() {
            let elem = nest.write_element(s, &q);
            let v = outputs[&(s, elem)];
            bits[s][lin] = v.to_bits();
        }
    }
    bits
}

/// Compile the Rust program `code` to `dir/<tag>`.
fn compile_in(dir: &Path, tag: &str, code: &str) -> PathBuf {
    let rustc = find_tool("rustc", None).expect("differential suite needs rustc on PATH");
    let src = dir.join(format!("{tag}.rs"));
    let bin = dir.join(tag);
    std::fs::write(&src, code).unwrap();
    compile_rust(&rustc, &src, &bin, false, COMPILE_T).unwrap();
    bin
}

/// Compile `spec` (Rust), run it, and assert its captured values equal
/// the interpreter reference bit for bit.
fn assert_rust_matches_reference(spec: &KernelSpec, seed: u64, dir: &Path, tag: &str) -> u64 {
    let bin = compile_in(dir, tag, &emit_rust(spec));
    assert_run_matches_reference(&bin, spec, seed, tag)
}

/// Run `bin` with `print = 1` and assert its captured values equal the
/// interpreter reference for `spec`'s nest bit for bit.
fn assert_run_matches_reference(bin: &Path, spec: &KernelSpec, seed: u64, tag: &str) -> u64 {
    let out = run_kernel(bin, seed, 1, true, RUN_T).unwrap();
    let expect = reference_bits(spec, seed);
    let total: usize = expect.iter().map(|v| v.len()).sum();
    assert_eq!(out.outs.len(), total, "{tag}: capture line count");
    for (s, lin, got) in &out.outs {
        assert_eq!(
            *got, expect[*s][*lin],
            "{tag}: stmt {s} point {lin}: compiled {got:#018x} != interpreter {:#018x}",
            expect[*s][*lin]
        );
    }
    out.check
}

#[test]
fn compiled_zoo_matches_interpreter_at_three_tile_sizes() {
    let seed = seed_from_env();
    let dir = work_dir("zoo");
    for entry in zoo::all_small() {
        let maps = entry.maps(Layout::Interleaved);
        let map_refs: Vec<Option<&OvMap>> = maps.iter().map(|m| m.as_ref()).collect();

        // Natural storage, untiled: the baseline shape.
        let natural = KernelSpec::new(entry.name, &entry.nest, &[], GenSchedule::Lex).unwrap();
        let check_nat =
            assert_rust_matches_reference(&natural, seed, &dir, &format!("{}_nat", entry.name));

        // Mapped, untiled and tiled at three tile sizes: variants of one
        // program, each run under its own name.
        let mapped = KernelSpec::new(entry.name, &entry.nest, &map_refs, GenSchedule::Lex).unwrap();
        let mut variants = vec![(format!("{}_lex", entry.name), GenSchedule::Lex)];
        for tile in [[2, 4], [3, 8], [5, 16]] {
            let name = format!("{}_t{}x{}", entry.name, tile[0], tile[1]);
            let f = entry.skew_f;
            variants.push((name, GenSchedule::SkewTiled { f, tile }));
        }
        let bin = compile_in(
            &dir,
            &format!("{}_mapped", entry.name),
            &emit_rust_variants(&mapped, &variants),
        );
        let mut checks = Vec::new();
        for (name, _) in &variants {
            let link = dir.join(name);
            std::fs::hard_link(&bin, &link).unwrap();
            checks.push(assert_run_matches_reference(&link, &mapped, seed, name));
        }
        assert_eq!(
            check_nat, checks[0],
            "{}: schedule-invariant checksum must not depend on storage",
            entry.name
        );
        for ((name, _), check) in variants.iter().zip(&checks).skip(1) {
            assert_eq!(*check, checks[0], "{name}: tiled checksum drifted");
        }

        // Under a name that is none of its variants the program refuses
        // to run.
        let stray = dir.join(format!("{}_stray", entry.name));
        std::fs::hard_link(&bin, &stray).unwrap();
        let err = run_kernel(&stray, seed, 1, false, RUN_T).unwrap_err();
        assert!(
            matches!(
                err,
                CodegenError::RunFailed {
                    status: Some(2),
                    ..
                }
            ),
            "{}: expected RunFailed, got {err}",
            entry.name
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn blocked_layout_matches_interpreter() {
    let seed = seed_from_env();
    let dir = work_dir("blocked");
    let entry = zoo::stencil5(6, 24); // OV (2,0): g=2 exercises the modterm
    let maps = entry.maps(Layout::Blocked);
    let map_refs: Vec<Option<&OvMap>> = maps.iter().map(|m| m.as_ref()).collect();
    let spec = KernelSpec::new(
        entry.name,
        &entry.nest,
        &map_refs,
        GenSchedule::SkewTiled {
            f: entry.skew_f,
            tile: [2, 8],
        },
    )
    .unwrap();
    assert_rust_matches_reference(&spec, seed, &dir, "stencil5_blocked");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn seeds_change_values_but_not_agreement() {
    // Two different seeds give different data; the compiled kernel tracks
    // the interpreter under both.
    let dir = work_dir("seeds");
    let entry = zoo::fig1(6, 5);
    let maps = entry.maps(Layout::Interleaved);
    let map_refs: Vec<Option<&OvMap>> = maps.iter().map(|m| m.as_ref()).collect();
    let spec = KernelSpec::new(entry.name, &entry.nest, &map_refs, GenSchedule::Lex).unwrap();
    let a = assert_rust_matches_reference(&spec, 11, &dir, "fig1_seed11");
    let b = assert_rust_matches_reference(&spec, 12, &dir, "fig1_seed12");
    assert_ne!(a, b, "different seeds must change the checksum");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn missing_toolchain_degrades_autotune_without_panicking() {
    let entry = zoo::stencil5(6, 24);
    let maps = entry.maps(Layout::Interleaved);
    let map_refs: Vec<Option<&OvMap>> = maps.iter().map(|m| m.as_ref()).collect();
    let cfg = AutotuneConfig {
        tiles0: vec![2, 4],
        tiles1: vec![8, 16],
        rustc: Some(PathBuf::from("/nonexistent/toolchain/rustc")),
        proxy_extent: [6, 24],
        ..AutotuneConfig::default()
    };
    let report = autotune(entry.name, &entry.nest, &map_refs, entry.skew_f, &cfg)
        .expect("degraded autotune is Ok, not Err");
    assert!(matches!(
        report.degraded,
        Some(DegradeReason::ToolchainMissing(_))
    ));
    assert_eq!(report.candidates.len(), 4);
    assert!(report
        .candidates
        .iter()
        .all(|c| c.status == CandidateStatus::Ranked));
    assert!(report.best.is_none());
}

/// The walker the ranking replays visits exactly the order the schedule
/// crate materialises: `SkewTiled { f, tile }` is
/// `skewed_tiled_2d(f, tile)` and `Lex` is `Lexicographic`, on boxes on
/// either side of the origin, under negative skews, and with tiles both
/// larger and smaller than the box.
#[test]
fn walker_visits_the_schedule_order() {
    let mut rng = StdRng::seed_from_u64(seed_from_env() ^ 0x7A1C);
    for case in 0..3000 {
        let lo = [rng.gen_range(-20..=20), rng.gen_range(-20..=20)];
        let hi = [lo[0] + rng.gen_range(0..=9), lo[1] + rng.gen_range(0..=9)];
        let dom = RectDomain::new(IVec::from(lo), IVec::from(hi));
        let f = rng.gen_range(-3..=3);
        let tile = [rng.gen_range(1..=12), rng.gen_range(1..=12)];
        let walk = |schedule: GenSchedule| {
            let mut order = Vec::new();
            schedule.for_each_point(&dom, |i, j| order.push(IVec::from([i, j])));
            order
        };
        assert_eq!(
            walk(GenSchedule::SkewTiled { f, tile }),
            LoopSchedule::skewed_tiled_2d(f, tile.to_vec()).order(&dom),
            "case {case}: f {f}, tile {tile:?}, box {lo:?}..={hi:?}"
        );
        assert_eq!(
            walk(GenSchedule::Lex),
            LoopSchedule::Lexicographic.order(&dom),
            "case {case}: box {lo:?}..={hi:?}"
        );
    }
}

/// The memsim ranking of perfbench's tile grid, pinned: the replay may
/// get cheaper, but every `(tile, memsim_cycles)` pair and their order
/// must stay byte-identical.
#[test]
fn memsim_ranking_of_the_zoo_is_pinned() {
    let cfg = AutotuneConfig {
        tiles0: vec![8, 16],
        tiles1: vec![256, 1024, 4096],
        rustc: Some(PathBuf::from("/nonexistent/toolchain/rustc")),
        ..AutotuneConfig::default()
    };
    let ties = |cycles: u64| -> Vec<([i64; 2], u64)> {
        [8, 16]
            .into_iter()
            .flat_map(|t0| [256, 1024, 4096].map(|t1| ([t0, t1], cycles)))
            .collect()
    };
    let cases = [
        (
            zoo::stencil5(64, 4096),
            vec![
                ([16, 256], 915_222),
                ([16, 1024], 923_708),
                ([8, 256], 1_328_046),
                ([8, 1024], 1_331_856),
                ([16, 4096], 2_124_506),
                ([8, 4096], 2_134_010),
            ],
        ),
        (
            zoo::deep8(16, 1 << 17),
            vec![
                ([16, 256], 1_131_776),
                ([16, 1024], 1_131_776),
                ([16, 4096], 1_574_144),
                ([8, 256], 1_577_984),
                ([8, 1024], 1_577_984),
                ([8, 4096], 1_987_584),
            ],
        ),
        (zoo::psm(512, 512), ties(186_599)),
        (zoo::fig1(512, 512), ties(100_063)),
    ];
    for (entry, want) in cases {
        let maps = entry.maps(Layout::Interleaved);
        let map_refs: Vec<Option<&OvMap>> = maps.iter().map(|m| m.as_ref()).collect();
        let report = autotune(entry.name, &entry.nest, &map_refs, entry.skew_f, &cfg).unwrap();
        let got: Vec<([i64; 2], u64)> = report
            .candidates
            .iter()
            .map(|c| (c.tile, c.memsim_cycles))
            .collect();
        assert_eq!(got, want, "{}: memsim ranking drifted", entry.name);
    }
}

#[test]
fn broken_source_is_a_typed_compile_failure() {
    let rustc = find_tool("rustc", None).expect("differential suite needs rustc on PATH");
    let dir = work_dir("broken");
    let src = dir.join("broken.rs");
    let bin = dir.join("broken");
    std::fs::write(&src, "fn main() { this is not rust }").unwrap();
    let err = compile_rust(&rustc, &src, &bin, false, COMPILE_T).unwrap_err();
    match err {
        CodegenError::CompileFailed { tool, status, .. } => {
            assert_eq!(tool, "rustc");
            assert_ne!(status, Some(0));
        }
        other => panic!("expected CompileFailed, got {other}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn overrunning_kernel_is_killed_with_a_typed_timeout() {
    let rustc = find_tool("rustc", None).expect("differential suite needs rustc on PATH");
    let dir = work_dir("timeout");
    let entry = zoo::stencil5(6, 32);
    let maps = entry.maps(Layout::Interleaved);
    let map_refs: Vec<Option<&OvMap>> = maps.iter().map(|m| m.as_ref()).collect();
    let spec = KernelSpec::new(entry.name, &entry.nest, &map_refs, GenSchedule::Lex)
        .unwrap()
        .with_capture(false);
    let src = dir.join("spin.rs");
    let bin = dir.join("spin");
    std::fs::write(&src, emit_rust(&spec)).unwrap();
    compile_rust(&rustc, &src, &bin, false, COMPILE_T).unwrap();
    // An unoptimised build doing ~10^10 statement executions cannot finish
    // inside 30 ms; the runner must kill it and type the failure.
    let err = run_kernel(&bin, 1, u32::MAX, false, Duration::from_millis(30)).unwrap_err();
    assert!(
        matches!(err, CodegenError::Timeout { .. }),
        "expected Timeout, got {err}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn fault_statuses_render_without_panicking() {
    // Display impls are part of the degradation contract: operators see
    // these strings in reports.
    let e = CodegenError::ToolchainMissing {
        tool: "rustc".into(),
    };
    assert!(e.to_string().contains("rustc"));
    let e = CodegenError::Timeout {
        what: "generated kernel".into(),
        millis: 30,
    };
    assert!(e.to_string().contains("30"));
    let v: IVec = [1, 2].into_iter().collect();
    assert!((1.0..2.0).contains(&input_value(3, 0, &v)));
}
