//! Tile-size autotuning: memsim-ranked candidate enumeration with
//! wall-clock timing of the top K.
//!
//! The tuner never guesses blindly and never dies loudly. Every legal
//! `(t0, t1)` candidate is first *ranked* by replaying its access stream
//! through a deliberately small [`uov_memsim::Machine`] over a scaled-down
//! proxy domain — cheap, deterministic, and toolchain-free. Each
//! statement's reads and write are lowered once per kernel to flat affine
//! forms in `(i, j)`, and [`GenSchedule::for_each_point`] walks the same
//! skew-tiled loops the emitter prints, so the replay builds no point list
//! and allocates nothing per point: about 2 ms per candidate at the
//! default proxy extent, most of it simulation. A tuning run is
//! `rustc`-bound: in perfbench's `tune` round the one build per kernel
//! takes about three quarters of the time, the timed runs most of the
//! rest, and the ranking about 5%. The untiled
//! baseline and the top K by simulated cycles are then emitted as
//! variants of one program ([`emit_rust_variants`]) and compiled once,
//! out of process: most of a `rustc` run is fixed cost, so one compile of
//! K + 1 variants costs far less than K + 1 compiles. The binary is
//! linked into the work directory under each variant's name (`baseline`,
//! `tile_<t0>x<t1>`), and each variant runs in its own process, selected
//! by the name it is invoked under, and is wall-clock timed against the
//! baseline. The ladder degrades step by step:
//!
//! * no `rustc` on the machine → the report still ranks every candidate by
//!   memsim cycles and says so via [`AutotuneReport::degraded`];
//! * the one compile fails or times out, or the baseline run fails → an
//!   `Err`, since nothing can be timed without them;
//! * one candidate crashes or hangs → that candidate is marked
//!   ([`CandidateStatus`]) and tuning continues;
//! * a timed candidate whose schedule-invariant checksum disagrees with
//!   the baseline is *disqualified*, not trusted.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use uov_isg::{IVec, RectDomain};
use uov_loopir::emit::MappedIndex;
use uov_loopir::{AffineExpr, LoopNest};
use uov_memsim::{CacheConfig, Machine, MachineConfig, TlbConfig};
use uov_storage::OvMap;

use crate::compile::{compile_rust, find_tool, run_kernel};
use crate::error::CodegenError;
use crate::kernel::{GenSchedule, KernelSpec};
use crate::rust_src::emit_rust_variants;

/// Knobs for one [`autotune`] run. [`AutotuneConfig::default`] gives a
/// search suitable for the kernel zoo.
#[derive(Debug, Clone)]
pub struct AutotuneConfig {
    /// Candidate tile extents along the outer (`u = i`) axis.
    pub tiles0: Vec<i64>,
    /// Candidate tile extents along the inner (`v = f·i + j`) axis.
    pub tiles1: Vec<i64>,
    /// How many memsim-ranked candidates to build (as variants of one
    /// program, beside the untiled baseline) and wall-clock time.
    pub top_k: usize,
    /// Input seed passed to every generated binary.
    pub seed: u64,
    /// Repetitions per timed run (total time is reported; more reps damp
    /// scheduler noise).
    pub reps: u32,
    /// Explicit `rustc` path; `None` searches `PATH`. Pointing this at a
    /// nonexistent file forces the memsim-only degradation path (used by
    /// fault-injection tests).
    pub rustc: Option<PathBuf>,
    /// Wall-clock allowance for the one compile that builds the baseline
    /// and every timed candidate together.
    pub compile_timeout: Duration,
    /// Wall-clock allowance per kernel run.
    pub run_timeout: Duration,
    /// Where to write the program and link its variants (`baseline`,
    /// `tile_<t0>x<t1>`), replacing files of those names; they stay for
    /// the caller to run. When `None`, a fresh temporary directory that
    /// is removed before [`autotune`] returns.
    pub work_dir: Option<PathBuf>,
    /// Per-axis caps on the proxy domain used for memsim ranking.
    pub proxy_extent: [i64; 2],
    /// Build candidates with optimisation (`-C opt-level=3`).
    pub optimize: bool,
    /// Extra provenance lines stamped into every emitted source.
    pub provenance: Vec<String>,
}

impl Default for AutotuneConfig {
    fn default() -> Self {
        AutotuneConfig {
            tiles0: vec![4, 8, 16, 32],
            tiles1: vec![64, 256, 1024, 4096],
            top_k: 3,
            seed: 1,
            reps: 1,
            rustc: None,
            compile_timeout: Duration::from_secs(60),
            run_timeout: Duration::from_secs(120),
            work_dir: None,
            proxy_extent: [16, 2048],
            optimize: true,
            provenance: Vec::new(),
        }
    }
}

/// What happened to one candidate as it climbed the ladder.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CandidateStatus {
    /// Ranked by memsim only (below the top-K cut, or toolchain missing).
    Ranked,
    /// Compiled, ran, checksum matched the baseline; `wall_ns` is valid.
    Timed,
    /// The variant crashed, exited nonzero, or produced a checksum that
    /// disagrees with the untiled baseline.
    RunFailed(String),
    /// The variant's run exceeded its allowance and was killed.
    TimedOut,
}

/// One candidate's full record.
#[derive(Debug, Clone)]
pub struct CandidateReport {
    /// Tile extents `(t0, t1)` along the transformed `(u, v)` axes.
    pub tile: [i64; 2],
    /// Simulated cycles over the proxy domain (the ranking key).
    pub memsim_cycles: u64,
    /// Measured wall-clock nanoseconds for `reps` repetitions, when timed.
    pub wall_ns: Option<u128>,
    /// Ladder outcome.
    pub status: CandidateStatus,
}

/// Why the tuner fell back to memsim-only ranking.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DegradeReason {
    /// No usable compiler; the inner string names what was searched for.
    ToolchainMissing(String),
}

/// The deterministic result of one [`autotune`] run.
#[derive(Debug, Clone)]
pub struct AutotuneReport {
    /// Kernel name.
    pub kernel: String,
    /// Input seed used for every run.
    pub seed: u64,
    /// Skew factor the tiling was legalised with.
    pub skew_f: i64,
    /// Wall-clock of the untiled (lexicographic) variant, when timed.
    pub baseline_wall_ns: Option<u128>,
    /// All candidates in memsim rank order (best simulated first).
    pub candidates: Vec<CandidateReport>,
    /// Index into `candidates` of the fastest *timed* candidate.
    pub best: Option<usize>,
    /// Set when wall-clock timing was skipped entirely.
    pub degraded: Option<DegradeReason>,
}

impl AutotuneReport {
    /// Baseline wall-clock divided by the best timed candidate's, when
    /// both exist. `> 1.0` means tiling won.
    pub fn best_speedup(&self) -> Option<f64> {
        let base = self.baseline_wall_ns?;
        let best = self.candidates.get(self.best?)?.wall_ns?;
        if best == 0 {
            return None;
        }
        Some(base as f64 / best as f64)
    }
}

/// The deliberately small machine the ranking pass simulates. Full-size
/// cache configs would make every proxy-scale working set resident and
/// rank all tiles equal; this one keeps capacity effects visible at
/// [`AutotuneConfig::proxy_extent`] scale.
fn proxy_machine() -> Machine {
    Machine::new(MachineConfig {
        name: "autotune proxy (sim)".into(),
        l1: CacheConfig {
            size_bytes: 1 << 10,
            line_bytes: 32,
            assoc: 2,
            hit_cycles: 1,
        },
        l2: Some(CacheConfig {
            size_bytes: 8 << 10,
            line_bytes: 32,
            assoc: 4,
            hit_cycles: 8,
        }),
        tlb: TlbConfig {
            entries: 8,
            page_bytes: 1 << 10,
            assoc: 8,
            miss_cycles: 30,
        },
        mem_cycles: 100,
        mem_capacity_bytes: 1 << 30,
        disk_cycles: 1_000_000,
        minor_fault_cycles: 300,
        alu_cycles: 1,
        branch_cycles: 2,
    })
}

/// Build the scaled-down twin of `nest` used for ranking: same statements
/// and arrays, domain clamped to `proxy_extent` per axis.
fn proxy_nest(nest: &LoopNest, proxy_extent: [i64; 2]) -> Result<LoopNest, CodegenError> {
    let dom = nest.domain();
    let lo = dom.lo().clone();
    let hi: IVec = (0..2)
        .map(|k| dom.hi()[k].min(lo[k] + proxy_extent[k].max(1) - 1))
        .collect();
    LoopNest::new(
        RectDomain::new(lo, hi),
        nest.arrays().to_vec(),
        nest.stmts().to_vec(),
    )
    .map_err(|e| CodegenError::BadOutput(format!("proxy nest construction failed: {e}")))
}

/// An affine form `a·i + b·j + c` in the two loop indices.
#[derive(Debug, Clone, Copy)]
struct Form2 {
    a: i64,
    b: i64,
    c: i64,
}

impl Form2 {
    fn of(e: &AffineExpr) -> Self {
        let k = e.coeffs();
        Form2 {
            a: k[0],
            b: k[1],
            c: e.constant_term(),
        }
    }

    fn at(self, i: i64, j: i64) -> i64 {
        self.c + (self.a * i + self.b * j)
    }
}

/// A buffer cell address, lowered once: the buffer's base byte address
/// and its [`MappedIndex`] as flat forms.
#[derive(Debug, Clone, Copy)]
struct Cell {
    base: u64,
    index: Form2,
    /// `(position, g, scale)` of the modterm `(position mod g)·scale`.
    modterm: Option<(Form2, i64, i64)>,
}

impl Cell {
    fn of(base: u64, idx: &MappedIndex) -> Self {
        let (index, modterm) = match idx {
            MappedIndex::Affine(e) => (Form2::of(e), None),
            MappedIndex::Mod {
                base,
                position,
                g,
                scale,
            } => (Form2::of(base), Some((Form2::of(position), *g, *scale))),
        };
        Cell {
            base,
            index,
            modterm,
        }
    }

    fn addr(self, i: i64, j: i64) -> u64 {
        let mut idx = self.index.at(i, j);
        if let Some((position, g, scale)) = self.modterm {
            idx += position.at(i, j).rem_euclid(g) * scale;
        }
        self.base.wrapping_add((idx as u64).wrapping_mul(8))
    }
}

/// A read of a statement's buffer: the element it names and, while that
/// element lies in the written box `lo..=hi`, the cell it loads.
#[derive(Debug, Clone, Copy)]
struct Read {
    elem: [Form2; 2],
    lo: [i64; 2],
    hi: [i64; 2],
    cell: Cell,
}

/// One statement's accesses, lowered once per kernel. A `None` read is
/// an imported input: generated inline by hashing, so no memory traffic.
#[derive(Debug, Clone)]
struct StmtReplay {
    reads: Vec<Option<Read>>,
    write: Cell,
}

/// Lower every statement's reads and write of `spec` to flat forms in
/// `(i, j)`, so the replay evaluates no [`AffineExpr`] and allocates
/// nothing per point.
fn lower_accesses(spec: &KernelSpec) -> Vec<StmtReplay> {
    // Per-statement buffer base addresses, page-spaced so distinct
    // buffers never alias in cache sets by accident of adjacency.
    let mut bases = Vec::with_capacity(spec.storage().len());
    let mut next: u64 = 1 << 12;
    for st in spec.storage() {
        bases.push(next);
        let bytes = (st.cells as u64).saturating_mul(8);
        next += bytes.div_ceil(1 << 12).saturating_add(1) << 12;
    }
    spec.nest()
        .stmts()
        .iter()
        .enumerate()
        .map(|(s, stmt)| StmtReplay {
            reads: stmt
                .rhs
                .reads()
                .into_iter()
                .map(|(array, subscript)| {
                    let ws = spec.writer_of(array)?;
                    let (lo, hi) = spec.written_box(ws);
                    Some(Read {
                        elem: [Form2::of(&subscript[0]), Form2::of(&subscript[1])],
                        lo: [lo[0], lo[1]],
                        hi: [hi[0], hi[1]],
                        cell: Cell::of(bases[ws], &spec.index_expr(ws, subscript)),
                    })
                })
                .collect(),
            write: Cell::of(bases[s], &spec.index_expr(s, &stmt.subscript)),
        })
        .collect()
}

/// Replay one candidate schedule's access stream over `dom` through the
/// proxy machine and return the simulated cycle count.
fn rank_candidate(stmts: &[StmtReplay], dom: &RectDomain, schedule: &GenSchedule) -> u64 {
    let mut machine = proxy_machine();
    schedule.for_each_point(dom, |i, j| {
        for st in stmts {
            for read in &st.reads {
                match read {
                    Some(r)
                        if (0..2).all(|k| {
                            let e = r.elem[k].at(i, j);
                            e >= r.lo[k] && e <= r.hi[k]
                        }) =>
                    {
                        machine.read(r.cell.addr(i, j));
                    }
                    // Imported input: charge the hash arithmetic.
                    _ => machine.alu(4),
                }
            }
            machine.write(st.write.addr(i, j));
            machine.alu(2);
        }
        machine.branch(1);
    });
    machine.cycles()
}

/// Enumerate, rank, and time tile sizes for `nest` under the skew `f`.
///
/// `maps[s]` folds statement `s`'s array through a UOV mapping exactly as
/// in [`KernelSpec::new`]. All generated programs run with capture off —
/// capture arrays have the natural footprint and would defeat the mapping
/// being measured.
///
/// # Errors
///
/// Spec construction errors ([`CodegenError::UnsupportedDepth`] and
/// friends), I/O failures in the work directory, a compile that fails or
/// times out, and a failed baseline run. A missing toolchain is *not* an
/// error: the report comes back memsim-ranked with
/// [`AutotuneReport::degraded`] set. Per-candidate run failures are
/// recorded in that candidate's [`CandidateStatus`].
pub fn autotune(
    name: &str,
    nest: &LoopNest,
    maps: &[Option<&OvMap>],
    f: i64,
    cfg: &AutotuneConfig,
) -> Result<AutotuneReport, CodegenError> {
    // Validate shape once up front (depth, arity, lowering).
    let base = KernelSpec::new(name, nest, maps, GenSchedule::Lex)?
        .with_capture(false)
        .with_provenance(cfg.provenance.clone());

    // Rank every candidate on the proxy twin. Candidate tiles are scaled
    // onto the proxy domain by the per-axis shrink ratio (in the skewed
    // `(u, v) = (i, f·i + j)` coordinates): a tile that covers a quarter
    // of the real `v` extent covers a quarter of the proxy's. Without
    // this, tiles larger than the proxy extent all collapse to the same
    // proxy iteration order and rank identically.
    let pnest = proxy_nest(nest, cfg.proxy_extent)?;
    let pmaps: Vec<Option<OvMap>> = maps
        .iter()
        .map(|m| m.map(|m| OvMap::new(pnest.domain(), m.ov().clone(), m.layout())))
        .collect();
    let pmap_refs: Vec<Option<&OvMap>> = pmaps.iter().map(|m| m.as_ref()).collect();
    let skewed_extents = |n: &LoopNest| -> [i64; 2] {
        let d = n.domain();
        let e0 = d.hi()[0] - d.lo()[0] + 1;
        let e1 = d.hi()[1] - d.lo()[1] + 1;
        [e0, f.abs() * (e0 - 1) + e1]
    };
    let rext = skewed_extents(nest);
    let pext = skewed_extents(&pnest);
    let scale_tile = |tile: [i64; 2]| -> [i64; 2] {
        let mut out = [0i64; 2];
        for k in 0..2 {
            out[k] = if rext[k] <= pext[k] {
                tile[k]
            } else {
                ((tile[k] * pext[k]) / rext[k]).max(1)
            };
        }
        out
    };
    if let Some(&bad) = cfg.tiles0.iter().chain(&cfg.tiles1).find(|&&t| t < 1) {
        return Err(CodegenError::InvalidTile(bad));
    }
    let lowered = lower_accesses(&KernelSpec::new(
        name,
        &pnest,
        &pmap_refs,
        GenSchedule::Lex,
    )?);
    let mut candidates = Vec::new();
    for &t0 in &cfg.tiles0 {
        for &t1 in &cfg.tiles1 {
            let tile = [t0, t1];
            let schedule = GenSchedule::SkewTiled {
                f,
                tile: scale_tile(tile),
            };
            candidates.push(CandidateReport {
                tile,
                memsim_cycles: rank_candidate(&lowered, pnest.domain(), &schedule),
                wall_ns: None,
                status: CandidateStatus::Ranked,
            });
        }
    }
    candidates.sort_by_key(|c| (c.memsim_cycles, c.tile));

    let mut report = AutotuneReport {
        kernel: name.to_string(),
        seed: cfg.seed,
        skew_f: f,
        baseline_wall_ns: None,
        candidates,
        best: None,
        degraded: None,
    };

    // Rung two: wall-clock the top K, if a compiler exists at all.
    let rustc = match find_tool("rustc", cfg.rustc.as_deref()) {
        Ok(p) => p,
        Err(CodegenError::ToolchainMissing { tool }) => {
            report.degraded = Some(DegradeReason::ToolchainMissing(tool));
            return Ok(report);
        }
        Err(e) => return Err(e),
    };
    let (dir, temporary) = match &cfg.work_dir {
        Some(d) => (d.clone(), false),
        None => {
            // Numbered per call: concurrent calls for one kernel name
            // must not remove each other's directory.
            let n = TEMP_DIRS.fetch_add(1, Ordering::Relaxed);
            let pid = std::process::id();
            let dir = std::env::temp_dir().join(format!("uov-autotune-{name}-{pid}-{n}"));
            (dir, true)
        }
    };
    std::fs::create_dir_all(&dir).map_err(|source| CodegenError::Io {
        what: format!("creating work dir {}", dir.display()),
        source,
    })?;
    let timed = time_top_k(&mut report, &base, f, &rustc, &dir, cfg);
    if temporary {
        let _ = std::fs::remove_dir_all(&dir);
    }
    timed?;
    report.best = report
        .candidates
        .iter()
        .enumerate()
        .filter(|(_, c)| c.status == CandidateStatus::Timed)
        .min_by_key(|(_, c)| c.wall_ns.unwrap_or(u128::MAX))
        .map(|(i, _)| i);
    Ok(report)
}

/// Numbers the temporary work directories of one process.
static TEMP_DIRS: AtomicU64 = AtomicU64::new(0);

/// Build the untiled baseline and the top K candidates of `report` as
/// variants of one program with one compile, link it into `dir` under
/// each variant's name, and time each variant in its own process against
/// the baseline's checksum.
fn time_top_k(
    report: &mut AutotuneReport,
    base: &KernelSpec,
    f: i64,
    rustc: &Path,
    dir: &Path,
    cfg: &AutotuneConfig,
) -> Result<(), CodegenError> {
    let k = cfg.top_k.min(report.candidates.len());
    let mut variants = vec![("baseline".to_string(), GenSchedule::Lex)];
    variants.extend(report.candidates[..k].iter().map(|c| {
        let name = format!("tile_{}x{}", c.tile[0], c.tile[1]);
        (name, GenSchedule::SkewTiled { f, tile: c.tile })
    }));
    let src = dir.join("variants.rs");
    let bin = dir.join("variants");
    std::fs::write(&src, emit_rust_variants(base, &variants)).map_err(|source| {
        CodegenError::Io {
            what: format!("writing {}", src.display()),
            source,
        }
    })?;
    compile_rust(rustc, &src, &bin, cfg.optimize, cfg.compile_timeout)?;
    for (name, _) in &variants {
        link_variant(&bin, &dir.join(name))?;
    }

    // Every candidate's checksum is judged against the baseline's, so a
    // failed baseline run leaves nothing to time.
    let base_run = run_kernel(
        &dir.join("baseline"),
        cfg.seed,
        cfg.reps,
        false,
        cfg.run_timeout,
    )?;
    report.baseline_wall_ns = Some(base_run.time_ns);
    for (c, (name, _)) in report.candidates[..k].iter_mut().zip(&variants[1..]) {
        c.status = match run_kernel(&dir.join(name), cfg.seed, cfg.reps, false, cfg.run_timeout) {
            Ok(out) if out.check == base_run.check => {
                c.wall_ns = Some(out.time_ns);
                CandidateStatus::Timed
            }
            Ok(out) => CandidateStatus::RunFailed(format!(
                "checksum {:016x} disagrees with baseline {:016x}",
                out.check, base_run.check
            )),
            Err(CodegenError::Timeout { .. }) => CandidateStatus::TimedOut,
            Err(e) => CandidateStatus::RunFailed(e.to_string()),
        };
    }
    Ok(())
}

/// Make `to` name the program `bin`, replacing any file already there: a
/// hard link, or a copy where the file system has none.
fn link_variant(bin: &Path, to: &Path) -> Result<(), CodegenError> {
    let io = |source| CodegenError::Io {
        what: format!("linking {} as {}", bin.display(), to.display()),
        source,
    };
    if let Err(e) = std::fs::remove_file(to) {
        if e.kind() != std::io::ErrorKind::NotFound {
            return Err(io(e));
        }
    }
    std::fs::hard_link(bin, to)
        .or_else(|_| std::fs::copy(bin, to).map(|_| ()))
        .map_err(io)
}

#[cfg(test)]
mod tests {
    use super::*;
    use uov_isg::ivec;
    use uov_loopir::examples;
    use uov_storage::Layout;

    fn small_stencil() -> (LoopNest, OvMap) {
        let nest = examples::stencil5_nest(6, 32);
        let map = OvMap::new(nest.domain(), ivec![2, 0], Layout::Interleaved);
        (nest, map)
    }

    #[test]
    fn missing_toolchain_degrades_to_memsim_ranking() {
        let (nest, map) = small_stencil();
        let cfg = AutotuneConfig {
            tiles0: vec![2, 4],
            tiles1: vec![8, 16],
            rustc: Some(PathBuf::from("/nonexistent/rustc-xyz")),
            proxy_extent: [6, 32],
            ..AutotuneConfig::default()
        };
        let report = autotune("stencil5", &nest, &[Some(&map)], 2, &cfg).unwrap();
        assert!(matches!(
            report.degraded,
            Some(DegradeReason::ToolchainMissing(_))
        ));
        assert_eq!(report.candidates.len(), 4);
        assert!(report
            .candidates
            .iter()
            .all(|c| c.status == CandidateStatus::Ranked && c.wall_ns.is_none()));
        // Rank order is non-decreasing in simulated cycles.
        assert!(report
            .candidates
            .windows(2)
            .all(|w| w[0].memsim_cycles <= w[1].memsim_cycles));
        assert!(report.baseline_wall_ns.is_none());
        assert!(report.best.is_none());
        assert!(report.best_speedup().is_none());
    }

    #[test]
    fn tiles_below_one_are_rejected_before_ranking() {
        let (nest, map) = small_stencil();
        // The proxy is smaller than the nest, so a zero `t1` would scale
        // to a proxy tile of 1 and rank; it is refused up front instead.
        let cfg = AutotuneConfig {
            tiles0: vec![2],
            tiles1: vec![8, 0],
            rustc: Some(PathBuf::from("/nonexistent/rustc-xyz")),
            proxy_extent: [6, 16],
            ..AutotuneConfig::default()
        };
        let err = autotune("stencil5", &nest, &[Some(&map)], 2, &cfg).unwrap_err();
        assert!(matches!(err, CodegenError::InvalidTile(0)), "{err}");
    }

    #[test]
    fn memsim_ranking_is_deterministic() {
        let (nest, map) = small_stencil();
        let cfg = AutotuneConfig {
            tiles0: vec![2, 4],
            tiles1: vec![8, 32],
            rustc: Some(PathBuf::from("/nonexistent/rustc-xyz")),
            proxy_extent: [6, 32],
            ..AutotuneConfig::default()
        };
        let a = autotune("stencil5", &nest, &[Some(&map)], 2, &cfg).unwrap();
        let b = autotune("stencil5", &nest, &[Some(&map)], 2, &cfg).unwrap();
        let key = |r: &AutotuneReport| -> Vec<([i64; 2], u64)> {
            r.candidates
                .iter()
                .map(|c| (c.tile, c.memsim_cycles))
                .collect()
        };
        assert_eq!(key(&a), key(&b));
    }

    #[test]
    fn end_to_end_times_top_candidates_when_rustc_present() {
        if find_tool("rustc", None).is_err() {
            eprintln!("skipping: no rustc on PATH");
            return;
        }
        let (nest, map) = small_stencil();
        let dir = std::env::temp_dir().join(format!("uov-autotune-test-{}", std::process::id()));
        let cfg = AutotuneConfig {
            tiles0: vec![2],
            tiles1: vec![8, 16],
            top_k: 2,
            optimize: false,
            proxy_extent: [6, 32],
            work_dir: Some(dir.clone()),
            ..AutotuneConfig::default()
        };
        let report = autotune("stencil5", &nest, &[Some(&map)], 2, &cfg).unwrap();
        assert!(report.degraded.is_none());
        assert!(report.baseline_wall_ns.is_some());
        let timed = report
            .candidates
            .iter()
            .filter(|c| c.status == CandidateStatus::Timed)
            .count();
        assert_eq!(timed, 2, "both top-K candidates should time cleanly");
        assert!(report.best.is_some());
        assert!(report.best_speedup().is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A `rustc` stand-in that appends one line per call to `log`, then
    /// runs the real compiler.
    #[cfg(unix)]
    fn logging_rustc(dir: &Path, log: &Path) -> PathBuf {
        use std::os::unix::fs::PermissionsExt as _;
        let real = find_tool("rustc", None).unwrap();
        let wrapper = dir.join("rustc-wrapper");
        let script = format!(
            "#!/bin/sh\necho \"$@\" >> '{}'\nexec '{}' \"$@\"\n",
            log.display(),
            real.display()
        );
        std::fs::write(&wrapper, script).unwrap();
        std::fs::set_permissions(&wrapper, std::fs::Permissions::from_mode(0o755)).unwrap();
        wrapper
    }

    #[cfg(unix)]
    #[test]
    fn one_compile_builds_the_baseline_and_every_timed_tile() {
        if find_tool("rustc", None).is_err() {
            eprintln!("skipping: no rustc on PATH");
            return;
        }
        let (nest, map) = small_stencil();
        let root = std::env::temp_dir().join(format!("uov-autotune-once-{}", std::process::id()));
        let work = root.join("work");
        std::fs::create_dir_all(&work).unwrap();
        // A stale file under a variant's name is replaced.
        std::fs::write(work.join("baseline"), "stale").unwrap();
        let log = root.join("rustc.log");
        let cfg = AutotuneConfig {
            tiles0: vec![2],
            tiles1: vec![8, 16],
            top_k: 2,
            optimize: false,
            proxy_extent: [6, 32],
            rustc: Some(logging_rustc(&root, &log)),
            work_dir: Some(work.clone()),
            ..AutotuneConfig::default()
        };
        let report = autotune("stencil5", &nest, &[Some(&map)], 2, &cfg).unwrap();
        let calls = std::fs::read_to_string(&log).unwrap();
        assert_eq!(calls.lines().count(), 1, "rustc calls:\n{calls}");

        let base = run_kernel(&work.join("baseline"), cfg.seed, 1, false, cfg.run_timeout).unwrap();
        let timed: Vec<[i64; 2]> = report
            .candidates
            .iter()
            .filter(|c| c.status == CandidateStatus::Timed)
            .map(|c| c.tile)
            .collect();
        assert_eq!(timed.len(), 2);
        for tile in timed {
            let bin = work.join(format!("tile_{}x{}", tile[0], tile[1]));
            let out = run_kernel(&bin, cfg.seed, 1, false, cfg.run_timeout).unwrap();
            assert_eq!(out.check, base.check, "{}", bin.display());
        }
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn temporary_work_dir_is_removed() {
        if find_tool("rustc", None).is_err() {
            eprintln!("skipping: no rustc on PATH");
            return;
        }
        let (nest, map) = small_stencil();
        let cfg = AutotuneConfig {
            tiles0: vec![2],
            tiles1: vec![8],
            top_k: 1,
            optimize: false,
            proxy_extent: [6, 32],
            ..AutotuneConfig::default()
        };
        let name = "temp_dir_probe";
        let report = autotune(name, &nest, &[Some(&map)], 2, &cfg).unwrap();
        assert!(report.best.is_some());
        let dir = format!("uov-autotune-{name}-{}", std::process::id());
        let left: Vec<_> = std::fs::read_dir(std::env::temp_dir())
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| {
                let file = p.file_name().unwrap().to_string_lossy();
                file == dir || file.starts_with(&format!("{dir}-"))
            })
            .collect();
        assert!(left.is_empty(), "left behind: {left:?}");
    }
}
