//! The shared emitter backend: symbolic lowering of storage-mapped
//! accesses, used by both the C-like pseudocode of [`crate::codegen`] and
//! the executable source generation of `uov-codegen`.
//!
//! §4 of the paper reduces an occupancy vector to the storage mapping
//! `SMov(q) = mv·q + shift (+ modterm)`. This module performs that
//! reduction *symbolically*: given a statement's (uniform) write subscript
//! and an [`OvMap`], it turns any access subscript into a [`MappedIndex`] —
//! either a pure affine expression over the loop indices, or an affine
//! base plus a `(position mod g) · scale` term for non-prime OVs. Renderers
//! (pseudocode, Rust) then only decide surface syntax; the index algebra
//! lives here once.

use std::fmt;
use std::fmt::Write as _;

use uov_isg::{IVec, IterationDomain as _};
use uov_storage::{Layout, OvMap, StorageMap as _};

use crate::expr::AffineExpr;
use crate::nest::LoopNest;

/// Index-variable names used for emitted loops (`i`, `j`, `k`, then `i3`,
/// `i4`, … beyond depth 3). Shared by every emitter so generated sources
/// and pseudocode agree on naming.
pub fn index_name(k: usize) -> String {
    match k {
        0 => "i".to_string(),
        1 => "j".to_string(),
        2 => "k".to_string(),
        _ => format!("i{k}"),
    }
}

/// Render an affine expression as infix source (`-i + 2*j + 3`), valid in
/// both the C-like pseudocode and Rust. This is the one affine printer of
/// the workspace.
pub fn render_affine(e: &AffineExpr) -> String {
    let mut out = String::new();
    let mut first = true;
    for (k, &c) in e.coeffs().iter().enumerate() {
        if c == 0 {
            continue;
        }
        match (first, c) {
            (true, 1) => out.push_str(&index_name(k)),
            (true, -1) => {
                out.push('-');
                out.push_str(&index_name(k));
            }
            (true, c) => {
                let _ = write!(out, "{c}*{}", index_name(k));
            }
            (false, 1) => {
                let _ = write!(out, " + {}", index_name(k));
            }
            (false, -1) => {
                let _ = write!(out, " - {}", index_name(k));
            }
            (false, c) if c > 0 => {
                let _ = write!(out, " + {c}*{}", index_name(k));
            }
            (false, c) => {
                let _ = write!(out, " - {}*{}", -c, index_name(k));
            }
        }
        first = false;
    }
    let c = e.constant_term();
    if first {
        let _ = write!(out, "{c}");
    } else if c > 0 {
        let _ = write!(out, " + {c}");
    } else if c < 0 {
        let _ = write!(out, " - {}", -c);
    }
    out
}

/// A storage-mapped buffer index, symbolically: either a pure affine
/// function of the loop indices (prime OVs), or `base + (position mod g)
/// · scale` (non-prime OVs; `scale` is `1` for [`Layout::Interleaved`],
/// the block length for [`Layout::Blocked`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MappedIndex {
    /// A pure affine index (prime OV: no modterm needed).
    Affine(AffineExpr),
    /// `base + (position mod g) * scale`.
    Mod {
        /// The affine part of the address.
        base: AffineExpr,
        /// The position form whose residue mod `g` separates the storage
        /// equivalence classes.
        position: AffineExpr,
        /// The OV's content (number of residue classes), `> 1` here.
        g: i64,
        /// Multiplier on the residue: `1` interleaved, block length
        /// blocked.
        scale: i64,
    },
}

/// Error lowering a statement's accesses through an OV mapping.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EmitError {
    /// The statement's write subscript is not uniform (`i_k + c`) at the
    /// given position, so producer iterations cannot be reconstructed.
    NonUniformWrite {
        /// The statement index.
        stmt: usize,
        /// The offending subscript position.
        pos: usize,
    },
    /// Symbolic lowering currently supports 2-D mappings only.
    UnsupportedDim(usize),
}

impl fmt::Display for EmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EmitError::NonUniformWrite { stmt, pos } => write!(
                f,
                "write subscript {pos} of statement {stmt} is not uniform (i_k + c)"
            ),
            EmitError::UnsupportedDim(d) => {
                write!(f, "symbolic OV lowering supports 2-D mappings, got {d}-D")
            }
        }
    }
}

impl std::error::Error for EmitError {}

/// Precomputed symbolic pieces of an OV mapping `SMov(q) = mv·q + shift
/// (+ modterm)` for one statement: turns access subscripts into
/// [`MappedIndex`] expressions over the loop indices.
#[derive(Debug, Clone)]
pub struct OvAccess {
    array: usize,
    mv: IVec,
    shift: i64,
    g: i64,
    position_form: IVec,
    layout: Layout,
    block: i64,
    /// Constant offset turning a read subscript into its producer
    /// iteration (the write offset `c_w`, per dimension).
    write_offset: IVec,
}

impl OvAccess {
    /// Build the symbolic access lowering for statement `stmt` of `nest`
    /// under `map`.
    ///
    /// # Errors
    ///
    /// [`EmitError::NonUniformWrite`] when the statement's write subscript
    /// is not uniform, [`EmitError::UnsupportedDim`] for non-2-D mappings.
    ///
    /// # Panics
    ///
    /// Panics if `stmt` is out of range.
    pub fn new(nest: &LoopNest, stmt: usize, map: &OvMap) -> Result<Self, EmitError> {
        let write = &nest.stmts()[stmt].subscript;
        let mut write_offset = vec![0i64; write.len()];
        for (pos, e) in write.iter().enumerate() {
            let Some((_, c)) = e.index_offset() else {
                return Err(EmitError::NonUniformWrite { stmt, pos });
            };
            write_offset[pos] = c;
        }
        let Some(mv) = map.mapping_vector_2d() else {
            return Err(EmitError::UnsupportedDim(map.ov().dim()));
        };
        let dom = nest.domain();
        // Domains are non-empty by construction; an empty hull needs no
        // shift.
        let shift = -(dom
            .extreme_points()
            .iter()
            .map(|p| mv.dot(p))
            .min()
            .unwrap_or(0));
        let g = map.ov().content();
        Ok(OvAccess {
            array: nest.stmts()[stmt].array,
            shift,
            g,
            position_form: position_form_of(map),
            layout: map.layout(),
            block: (map.size() as i64) / g.max(1),
            mv,
            write_offset: IVec::from(write_offset),
        })
    }

    /// The array this statement writes (accesses of which are folded).
    pub fn array(&self) -> usize {
        self.array
    }

    /// The write offset `c_w` reconstructing producer iterations from
    /// element subscripts (`p = elem − c_w`).
    pub fn write_offset(&self) -> &IVec {
        &self.write_offset
    }

    /// Lower an access subscript (read or write, in *element* space) to
    /// the 1-D buffer index of its producing iteration.
    ///
    /// The producing iteration of `A[s(i)]` is `p = s(i) − c_w` for the
    /// uniform write `A[i + c_w]`; the index is then
    /// `Σ mv[k]·p_k + shift (+ modterm)`.
    ///
    /// # Panics
    ///
    /// Panics if the subscript is empty or its depth disagrees with the
    /// statement's.
    pub fn index_of(&self, subscript: &[AffineExpr]) -> MappedIndex {
        let mut linear = AffineExpr::constant(subscript[0].depth(), self.shift);
        let mut position = AffineExpr::constant(subscript[0].depth(), 0);
        for (k, sub) in subscript.iter().enumerate() {
            let p_k = sub.clone() + -self.write_offset[k];
            linear = linear.add_scaled(&p_k, self.mv[k]);
            position = position.add_scaled(&p_k, self.position_form[k]);
        }
        if self.g <= 1 {
            return MappedIndex::Affine(linear);
        }
        match self.layout {
            Layout::Interleaved => {
                // class·g + residue with class = mv·p − lo: scale the
                // whole linear form (whose constant already folds −lo in
                // via `shift`) by g.
                let base =
                    AffineExpr::constant(subscript[0].depth(), 0).add_scaled(&linear, self.g);
                MappedIndex::Mod {
                    base,
                    position,
                    g: self.g,
                    scale: 1,
                }
            }
            Layout::Blocked => MappedIndex::Mod {
                base: linear,
                position,
                g: self.g,
                scale: self.block,
            },
        }
    }
}

fn position_form_of(map: &OvMap) -> IVec {
    // The position row of the reduction: reconstruct from the OV — any
    // form with form·ov = g works for the modterm; use the one the map
    // itself uses via residue probing on unit vectors.
    let d = map.ov().dim();
    let zero = IVec::zero(d);
    let base = map.residue(&zero);
    (0..d)
        .map(|k| {
            let r = map.residue(&IVec::unit(d, k)) - base;
            r.rem_euclid(map.ov().content().max(1))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::examples;
    use uov_isg::ivec;

    #[test]
    fn render_affine_forms() {
        let e = AffineExpr::from_parts(vec![-1, 1], 3);
        assert_eq!(render_affine(&e), "-i + j + 3");
        let c = AffineExpr::constant(2, -2);
        assert_eq!(render_affine(&c), "-2");
        let m = AffineExpr::from_parts(vec![2, -3], 0);
        assert_eq!(render_affine(&m), "2*i - 3*j");
    }

    #[test]
    fn prime_ov_lowers_to_pure_affine() {
        let nest = examples::fig1_nest(4, 3);
        let map = OvMap::new(nest.domain(), ivec![1, 1], Layout::Interleaved);
        let acc = OvAccess::new(&nest, 0, &map).unwrap();
        let idx = acc.index_of(&nest.stmts()[0].subscript);
        let MappedIndex::Affine(e) = idx else {
            panic!("prime OV must need no modterm: {idx:?}")
        };
        // The symbolic index agrees with OvMap::map at every point.
        use uov_isg::IterationDomain as _;
        for q in nest.domain().points() {
            assert_eq!(e.eval(&q), map.map(&q) as i64, "at {q}");
        }
    }

    #[test]
    fn nonprime_ov_lowers_with_modterm() {
        let nest = examples::stencil5_nest(4, 8);
        for layout in [Layout::Interleaved, Layout::Blocked] {
            let map = OvMap::new(nest.domain(), ivec![2, 0], layout);
            let acc = OvAccess::new(&nest, 0, &map).unwrap();
            let idx = acc.index_of(&nest.stmts()[0].subscript);
            let MappedIndex::Mod {
                base,
                position,
                g,
                scale,
            } = idx
            else {
                panic!("non-prime OV needs a modterm: {idx:?}")
            };
            assert_eq!(g, 2);
            use uov_isg::IterationDomain as _;
            for q in nest.domain().points() {
                let addr = base.eval(&q) + position.eval(&q).rem_euclid(g) * scale;
                assert_eq!(addr, map.map(&q) as i64, "at {q} ({layout:?})");
            }
        }
    }

    #[test]
    fn non_uniform_write_is_typed() {
        use crate::{ArrayDecl, Assign, Expr, LoopNest};
        let sub = AffineExpr::from_parts(vec![2, 0], 0);
        let nest = LoopNest::new(
            uov_isg::RectDomain::grid(3, 3),
            vec![ArrayDecl {
                name: "A".into(),
                rank: 2,
            }],
            vec![Assign {
                array: 0,
                subscript: vec![sub, AffineExpr::index(2, 1)],
                rhs: Expr::Const(0.0),
            }],
        )
        .unwrap();
        let map = OvMap::new(nest.domain(), ivec![1, 1], Layout::Interleaved);
        assert_eq!(
            OvAccess::new(&nest, 0, &map).unwrap_err(),
            EmitError::NonUniformWrite { stmt: 0, pos: 0 }
        );
    }
}
