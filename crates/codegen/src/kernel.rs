//! The kernel model: what to generate, before it is rendered as source.
//!
//! A [`KernelSpec`] couples a validated 2-deep [`LoopNest`] with a
//! per-statement storage decision (natural dense array, or a UOV-mapped
//! 1-D buffer via [`OvAccess`]) and a [`GenSchedule`]. The Rust emitter
//! and the in-process loop walker consume the same spec, so the
//! loop-bound and index algebra is decided here exactly once.

use uov_isg::num::floor_div;
use uov_isg::{IVec, IterationDomain as _, RectDomain};
use uov_loopir::emit::{MappedIndex, OvAccess};
use uov_loopir::{AffineExpr, LoopNest};
use uov_storage::{OvMap, StorageMap as _};

use crate::error::CodegenError;

/// The execution order the generated loops realise.
///
/// Both shapes enumerate iterations in exactly the order of the
/// corresponding `uov_schedule::LoopSchedule` materialisation
/// (`Lexicographic`, and `TransformedTiled` with the 2-D skew
/// `v = f·i + j`), so interpreter-side legality results carry over to the
/// generated code verbatim. [`GenSchedule::for_each_point`] runs the same
/// loops in process.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GenSchedule {
    /// Original program order: lexicographic on `(i, j)`.
    Lex,
    /// Tiling in the image of the skew `u = i, v = f·i + j`; `f = 0` is
    /// plain rectangular tiling. Tiles are anchored at the image of the
    /// domain's lower corner and run in lexicographic `(tile, image)`
    /// order — the same total order as
    /// `LoopSchedule::skewed_tiled_2d(f, tile)`.
    SkewTiled {
        /// The legalising skew factor (0 when rectangular tiling is
        /// already legal).
        f: i64,
        /// Tile extents along the transformed `(u, v)` axes; both ≥ 1.
        tile: [i64; 2],
    },
}

impl GenSchedule {
    /// A short description for provenance comments and reports.
    pub fn describe(&self) -> String {
        match self {
            GenSchedule::Lex => "lexicographic (untiled)".to_string(),
            GenSchedule::SkewTiled { f, tile } => {
                format!("skew f={f}, tile {}x{}", tile[0], tile[1])
            }
        }
    }

    /// Run the loops the emitter prints for this schedule over the 2-D
    /// box `dom`, in process, calling `visit(i, j)` at every point.
    ///
    /// The `SkewTiled` arm walks the same `(tu, tv, u, v)` bounds as the
    /// generated Rust, so the visit order is the order the compiled
    /// kernel runs, with no point list materialised.
    ///
    /// # Panics
    ///
    /// Panics if `dom` is not 2-D or a tile extent is < 1.
    pub fn for_each_point(&self, dom: &RectDomain, mut visit: impl FnMut(i64, i64)) {
        let (lo0, hi0) = (dom.lo()[0], dom.hi()[0]);
        let (lo1, hi1) = (dom.lo()[1], dom.hi()[1]);
        match *self {
            GenSchedule::Lex => {
                for i in lo0..=hi0 {
                    for j in lo1..=hi1 {
                        visit(i, j);
                    }
                }
            }
            GenSchedule::SkewTiled { f, tile: [t0, t1] } => {
                let vank = f * lo0 + lo1;
                let vmin = (f * lo0).min(f * hi0) + lo1;
                let vmax = (f * lo0).max(f * hi0) + hi1;
                for tu in 0..=(hi0 - lo0) / t0 {
                    let ulo = lo0 + tu * t0;
                    let uhi = (ulo + t0 - 1).min(hi0);
                    for tv in floor_div(vmin - vank, t1)..=floor_div(vmax - vank, t1) {
                        let vband = vank + tv * t1;
                        for u in ulo..=uhi {
                            let vlo = vband.max(f * u + lo1);
                            let vhi = (vband + t1 - 1).min(f * u + hi1);
                            for v in vlo..=vhi {
                                visit(u, v - f * u);
                            }
                        }
                    }
                }
            }
        }
    }
}

/// How one statement's array is stored in the generated program.
#[derive(Debug, Clone)]
pub enum StmtAccess {
    /// Full array expansion: a dense row-major buffer over the statement's
    /// written box (`domain + write_offset`).
    Natural {
        /// The uniform write offset `c_w`.
        write_offset: IVec,
    },
    /// The statement's array folded through a UOV mapping.
    Mapped(OvAccess),
}

/// One statement's generation-ready storage decision.
#[derive(Debug, Clone)]
pub struct StmtStorage {
    /// Access lowering for this statement.
    pub access: StmtAccess,
    /// Buffer length in `f64` cells.
    pub cells: usize,
}

/// Everything the emitter needs to generate one executable kernel.
#[derive(Debug, Clone)]
pub struct KernelSpec {
    /// Kernel name, stamped into the generated source.
    pub name: String,
    nest: LoopNest,
    storage: Vec<StmtStorage>,
    /// The loop order to generate.
    pub schedule: GenSchedule,
    /// Extra provenance comment lines (certificate hashes, plan summary).
    pub provenance: Vec<String>,
    /// Generate per-iteration capture arrays (`OUT` lines) for
    /// differential testing. Off for benchmarking: capture storage is the
    /// natural (expanded) footprint and would defeat the mapping.
    pub capture: bool,
}

impl KernelSpec {
    /// Build a spec for `nest`, folding statement `s`'s array through
    /// `maps[s]` where present (natural storage otherwise).
    ///
    /// # Errors
    ///
    /// [`CodegenError::UnsupportedDepth`] for non-2-deep nests,
    /// [`CodegenError::MapArity`] when `maps` is longer than the statement
    /// list, [`CodegenError::InvalidTile`] for tile extents < 1, and
    /// lowering errors from [`OvAccess::new`]. Statements with non-uniform
    /// write subscripts are rejected even when unmapped — the capture
    /// indexing needs the producer-iteration inverse.
    pub fn new(
        name: impl Into<String>,
        nest: &LoopNest,
        maps: &[Option<&OvMap>],
        schedule: GenSchedule,
    ) -> Result<Self, CodegenError> {
        if nest.depth() != 2 {
            return Err(CodegenError::UnsupportedDepth(nest.depth()));
        }
        if maps.len() > nest.stmts().len() {
            return Err(CodegenError::MapArity {
                stmts: nest.stmts().len(),
                maps: maps.len(),
            });
        }
        if let GenSchedule::SkewTiled { tile, .. } = &schedule {
            if let Some(&bad) = tile.iter().find(|&&t| t < 1) {
                return Err(CodegenError::InvalidTile(bad));
            }
        }
        let mut storage = Vec::with_capacity(nest.stmts().len());
        for (s, stmt) in nest.stmts().iter().enumerate() {
            match maps.get(s).copied().flatten() {
                Some(map) => {
                    let access = OvAccess::new(nest, s, map)?;
                    storage.push(StmtStorage {
                        access: StmtAccess::Mapped(access),
                        cells: map.size(),
                    });
                }
                None => {
                    let mut write_offset = vec![0i64; stmt.subscript.len()];
                    for (pos, e) in stmt.subscript.iter().enumerate() {
                        let Some((_, c)) = e.index_offset() else {
                            return Err(CodegenError::Emit(
                                uov_loopir::EmitError::NonUniformWrite { stmt: s, pos },
                            ));
                        };
                        write_offset[pos] = c;
                    }
                    let cells = usize::try_from(nest.domain().num_points()).unwrap_or(usize::MAX);
                    storage.push(StmtStorage {
                        access: StmtAccess::Natural {
                            write_offset: IVec::from(write_offset),
                        },
                        cells,
                    });
                }
            }
        }
        Ok(KernelSpec {
            name: name.into(),
            nest: nest.clone(),
            storage,
            schedule,
            provenance: Vec::new(),
            capture: true,
        })
    }

    /// Attach provenance comment lines (certificate hashes, plan summary).
    pub fn with_provenance(mut self, lines: Vec<String>) -> Self {
        self.provenance = lines;
        self
    }

    /// Toggle capture arrays (see [`KernelSpec::capture`]).
    pub fn with_capture(mut self, capture: bool) -> Self {
        self.capture = capture;
        self
    }

    /// The nest being generated.
    pub fn nest(&self) -> &LoopNest {
        &self.nest
    }

    /// Per-statement storage decisions, indexed by statement.
    pub fn storage(&self) -> &[StmtStorage] {
        &self.storage
    }

    /// The uniform write offset `c_w` of statement `s`.
    pub fn write_offset(&self, s: usize) -> &IVec {
        match &self.storage[s].access {
            StmtAccess::Natural { write_offset } => write_offset,
            StmtAccess::Mapped(acc) => acc.write_offset(),
        }
    }

    /// Lower an access subscript of statement `s` to its buffer index.
    ///
    /// For natural storage this is the row-major linearisation of the
    /// producer iteration over the domain box; for mapped storage it is
    /// the `mv·q + shift (+ modterm)` form.
    pub fn index_expr(&self, s: usize, subscript: &[AffineExpr]) -> MappedIndex {
        match &self.storage[s].access {
            StmtAccess::Mapped(acc) => acc.index_of(subscript),
            StmtAccess::Natural { write_offset } => {
                let dom = self.nest.domain();
                let ext1 = dom.hi()[1] - dom.lo()[1] + 1;
                let depth = subscript[0].depth();
                // lin = (p0 − lo0)·ext1 + (p1 − lo1), p = elem − c_w.
                let p0 = subscript[0].clone() + (-write_offset[0] - dom.lo()[0]);
                let p1 = subscript[1].clone() + (-write_offset[1] - dom.lo()[1]);
                let lin = AffineExpr::constant(depth, 0)
                    .add_scaled(&p0, ext1)
                    .add_scaled(&p1, 1);
                MappedIndex::Affine(lin)
            }
        }
    }

    /// The written region of statement `s` as an inclusive element box:
    /// `(lo + c_w, hi + c_w)`. Reads outside it are imported inputs.
    pub fn written_box(&self, s: usize) -> (IVec, IVec) {
        let dom = self.nest.domain();
        let c = self.write_offset(s);
        let lo: IVec = (0..2).map(|k| dom.lo()[k] + c[k]).collect();
        let hi: IVec = (0..2).map(|k| dom.hi()[k] + c[k]).collect();
        (lo, hi)
    }

    /// The statement whose buffer serves reads of `array`: the *first*
    /// statement writing it (matching the interpreter's `writer_of`), or
    /// `None` when the array is a pure input.
    pub fn writer_of(&self, array: usize) -> Option<usize> {
        self.nest.stmts().iter().position(|s| s.array == array)
    }

    /// Row-major capture index of the iteration `(i, j)` over the domain,
    /// as an affine expression — where each statement's produced value is
    /// recorded for differential comparison.
    pub fn capture_index(&self) -> AffineExpr {
        let dom = self.nest.domain();
        let ext1 = dom.hi()[1] - dom.lo()[1] + 1;
        let i = AffineExpr::index(2, 0) + -dom.lo()[0];
        let j = AffineExpr::index(2, 1) + -dom.lo()[1];
        AffineExpr::constant(2, 0)
            .add_scaled(&i, ext1)
            .add_scaled(&j, 1)
    }

    /// Number of iteration points (capture array length).
    pub fn points(&self) -> usize {
        usize::try_from(self.nest.domain().num_points()).unwrap_or(usize::MAX)
    }
}

/// The deterministic, bit-exact input function shared between the library
/// (interpreter reference runs) and every generated program: imported
/// (halo) elements of `array` get `input_value(seed, array, elem)`.
///
/// The value is always in `[1, 2)` — built from the top bits of an
/// integer hash pasted into an IEEE-754 mantissa — so weighted stencil
/// sums stay far from denormals and the generated Rust and the
/// interpreter agree on every bit.
pub fn input_value(seed: u64, array: usize, elem: &IVec) -> f64 {
    let mut h = seed ^ (array as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    for k in 0..elem.dim() {
        h = (h ^ (elem[k] as u64)).wrapping_mul(0x0000_0100_0000_01B3);
        h ^= h >> 29;
    }
    f64::from_bits((h >> 12) | 0x3FF0_0000_0000_0000)
}

#[cfg(test)]
mod tests {
    use super::*;
    use uov_isg::ivec;
    use uov_loopir::examples;
    use uov_storage::Layout;

    #[test]
    fn depth_and_tile_validation() {
        let nest = examples::fig1_nest(4, 4);
        let err = KernelSpec::new(
            "k",
            &nest,
            &[],
            GenSchedule::SkewTiled { f: 0, tile: [2, 0] },
        )
        .unwrap_err();
        assert!(matches!(err, CodegenError::InvalidTile(0)));
    }

    #[test]
    fn natural_index_is_row_major_linearisation() {
        let nest = examples::stencil5_nest(3, 8); // lo (1,0), hi (3,7)
        let spec = KernelSpec::new("k", &nest, &[], GenSchedule::Lex).unwrap();
        let MappedIndex::Affine(lin) = spec.index_expr(0, &nest.stmts()[0].subscript) else {
            panic!("natural storage lowers to affine")
        };
        assert_eq!(lin.eval(&ivec![1, 0]), 0);
        assert_eq!(lin.eval(&ivec![1, 7]), 7);
        assert_eq!(lin.eval(&ivec![2, 0]), 8);
    }

    #[test]
    fn mapped_spec_uses_map_cells() {
        let nest = examples::stencil5_nest(4, 8);
        let map = OvMap::new(nest.domain(), ivec![2, 0], Layout::Interleaved);
        let spec = KernelSpec::new("k", &nest, &[Some(&map)], GenSchedule::Lex).unwrap();
        assert_eq!(spec.storage()[0].cells, 16);
    }

    #[test]
    fn input_value_is_deterministic_and_unit_interval() {
        let a = input_value(7, 0, &ivec![3, -2]);
        let b = input_value(7, 0, &ivec![3, -2]);
        assert_eq!(a.to_bits(), b.to_bits());
        assert!((1.0..2.0).contains(&a));
        assert_ne!(
            input_value(7, 0, &ivec![3, -2]).to_bits(),
            input_value(8, 0, &ivec![3, -2]).to_bits()
        );
    }
}
