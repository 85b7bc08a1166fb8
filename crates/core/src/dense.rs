//! Dense, lazily-paged storage over a bounded search window.
//!
//! The UOV hot path — cone-membership memoisation in the
//! [`DoneOracle`](crate::DoneOracle) and PATHSET bookkeeping in the
//! branch-and-bound search — is dominated by point queries on small
//! integer vectors. Hash maps answer those in ~100ns with an allocation
//! per key; a flat array indexed by linearized window coordinates
//! answers them in a handful of instructions with no allocation at all.
//!
//! Three pieces live here:
//!
//! * [`Window`] — a row-major linearization of an axis-aligned box in
//!   `Z^d` containing the origin. [`Window::index`] bounds-checks every
//!   coordinate *before* doing any arithmetic, so adversarial
//!   near-`i64::MAX` coordinates return `None` (spill to the hash tier)
//!   instead of overflowing.
//! * [`ConeMemo`] — a tri-state (`unknown`/`false`/`true`) verdict array
//!   over a window, the oracle's dense DONE memo.
//! * [`MaskTable`] — the search's PATHSET node pool: a dense `u64` cell
//!   per window point (bit 63 is the PRESENT flag — stencils have at
//!   most 63 vectors, so PATHSET masks only ever use bits `0..=62`)
//!   plus a spill map and an arena of out-of-window coordinates,
//!   addressed by stable `u64` keys so queue entries are `Copy`.
//!
//! Both arrays are **lazily paged**: the backing store is a directory of
//! pages allocated on first write. A search that touches a few dozen
//! points near the origin pays for one or two small pages, not for the
//! whole window — which keeps the per-search fixed cost small next to
//! the search itself on the many small problems a planner sees. Each
//! table has its own page size: 4 KiB for [`ConeMemo`] (4,096 `u8`
//! cells) and 8 KiB for [`MaskTable`] (1,024 `u64` cells), whose sparse
//! nodes would otherwise each pull in a large, mostly empty page.
//!
//! Both are single-threaded: one search, or one oracle, owns each.
//!
//! Nothing here affects *answers*: the window is a cache-shaped view and
//! the spill tier is always consulted for out-of-window points, so
//! results are identical whatever bounds the window ends up with.

use std::collections::HashMap;

use uov_isg::IVec;

/// Cells per [`ConeMemo`] page, as a power of two: 4,096 `u8` cells make
/// 4 KiB pages. The oracle's verdicts sit densely near the origin, so
/// smaller pages would save little memory, and a directory four times as
/// large would spread the oracle's probes over more cache lines.
const CONE_PAGE_BITS: usize = 12;

/// Cells per [`MaskTable`] page, as a power of two: 1,024 `u64` cells make
/// 8 KiB pages. A search's PATHSET nodes sit sparsely in its window, so
/// each page first touched for one node costs its whole size: with 32 KiB
/// pages wave3's search on 16×32×32 peaked at 1,461 KB of heap, with
/// 8 KiB pages at 575 KB.
const MASK_PAGE_BITS: usize = 10;

/// PRESENT flag in a dense [`MaskTable`] cell. Sound because a stencil
/// has at most 63 vectors ([`SearchError::TooManyVectors`] otherwise),
/// so PATHSET masks only occupy bits `0..=62`.
///
/// [`SearchError::TooManyVectors`]: crate::SearchError::TooManyVectors
const PRESENT: u64 = 1 << 63;

/// Tag bit distinguishing spill-arena keys from dense window indices in
/// the `u64` key space handed out by [`MaskTable::merge`]. Dense indices
/// are bounded by the window entry budget, far below this bit.
const SPILL_TAG: u64 = 1 << 63;

/// Row-major linearization of an axis-aligned box `[lo_k, hi_k]` in
/// `Z^d` that contains the origin.
///
/// # Examples
///
/// ```
/// use uov_core::dense::Window;
///
/// let w = Window::from_bounds(&[-2, 0], &[2, 4], 1 << 20);
/// assert_eq!(w.len(), 25);
/// assert!(w.index(&[0, 0]).is_some());
/// assert!(w.index(&[3, 0]).is_none()); // out of bounds → spill tier
/// assert!(w.index(&[i64::MAX, 0]).is_none()); // no overflow either
/// ```
#[derive(Debug, Clone)]
pub struct Window {
    lo: Vec<i64>,
    extent: Vec<i64>,
    stride: Vec<usize>,
    len: usize,
}

impl Window {
    /// A window holding nothing: every [`Window::index`] query misses,
    /// so all traffic goes to the spill tier.
    pub fn empty(dim: usize) -> Self {
        Window {
            lo: vec![0; dim],
            extent: vec![0; dim],
            stride: vec![0; dim],
            len: 0,
        }
    }

    /// The box `[lo_k, hi_k]` per dimension, shrunk toward the origin
    /// until it holds at most `entry_budget` points.
    ///
    /// Bounds are clamped to contain 0 (the search and the cone walk
    /// both start there) and to `±i64::MAX/4` so extents cannot
    /// overflow. Shrinking halves the widest dimension toward the
    /// origin, which preserves the near-origin region where the hot
    /// traffic lives.
    ///
    /// # Panics
    ///
    /// Panics if `lo.len() != hi.len()`.
    pub fn from_bounds(lo: &[i64], hi: &[i64], entry_budget: usize) -> Self {
        assert_eq!(lo.len(), hi.len(), "window bounds dimension mismatch");
        let dim = lo.len();
        const CLAMP: i64 = i64::MAX / 4;
        let mut lo: Vec<i64> = lo.iter().map(|&l| l.clamp(-CLAMP, 0)).collect();
        let mut hi: Vec<i64> = hi.iter().map(|&h| h.clamp(0, CLAMP)).collect();
        if entry_budget == 0 || dim == 0 {
            return Window::empty(dim);
        }
        loop {
            let mut product: u128 = 1;
            for k in 0..dim {
                let extent = (hi[k] - lo[k]) as u128 + 1;
                product = product.saturating_mul(extent);
            }
            if product <= entry_budget as u128 {
                break;
            }
            // Halve the widest dimension toward the origin.
            let widest = match (0..dim).max_by_key(|&k| (hi[k] - lo[k]) as u128) {
                Some(k) => k,
                None => return Window::empty(dim),
            };
            if hi[widest] == 0 && lo[widest] == 0 {
                // Everything is already a point; budget < 1 per point.
                return Window::empty(dim);
            }
            hi[widest] /= 2;
            lo[widest] /= 2;
        }
        let extent: Vec<i64> = (0..dim).map(|k| hi[k] - lo[k] + 1).collect();
        let mut stride = vec![0usize; dim];
        let mut acc = 1usize;
        for k in (0..dim).rev() {
            stride[k] = acc;
            acc *= extent[k] as usize;
        }
        Window {
            lo,
            extent,
            stride,
            len: acc,
        }
    }

    /// Dimension of the window's coordinates.
    pub fn dim(&self) -> usize {
        self.lo.len()
    }

    /// Number of addressable points.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the window holds no points.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Linear index of `w`, or `None` when any coordinate falls outside
    /// the box (including coordinates so extreme the offset arithmetic
    /// would overflow — the bounds check happens first, which is what
    /// routes near-`i64::MAX` queries to the spill tier).
    #[inline]
    pub fn index(&self, w: &[i64]) -> Option<usize> {
        if self.len == 0 || w.len() != self.lo.len() {
            return None;
        }
        let mut idx = 0usize;
        for (k, &wk) in w.iter().enumerate() {
            let off = wk.checked_sub(self.lo[k])?;
            if off < 0 || off >= self.extent[k] {
                return None;
            }
            idx += off as usize * self.stride[k];
        }
        Some(idx)
    }

    /// Inverse of [`Window::index`]: the coordinates of linear index
    /// `idx`, written into `out`.
    pub fn decode(&self, mut idx: usize, out: &mut Vec<i64>) {
        out.clear();
        for k in 0..self.lo.len() {
            let q = idx / self.stride[k];
            idx %= self.stride[k];
            out.push(self.lo[k] + q as i64);
        }
    }
}

/// Directory of lazily-allocated pages of `2^BITS` cells; cells start at
/// zero.
#[derive(Debug)]
struct Pages<T, const BITS: usize> {
    pages: Vec<Option<Box<[T]>>>,
}

impl<T: Copy + Default, const BITS: usize> Pages<T, BITS> {
    const CELLS: usize = 1 << BITS;

    fn new(len: usize) -> Self {
        Pages {
            pages: (0..len.div_ceil(Self::CELLS)).map(|_| None).collect(),
        }
    }

    /// Read a cell; an unallocated page reads as zero.
    #[inline]
    fn load(&self, idx: usize) -> T {
        match &self.pages[idx >> BITS] {
            Some(page) => page[idx & (Self::CELLS - 1)],
            None => T::default(),
        }
    }

    /// The cell for `idx`, allocating its page on first touch.
    #[inline]
    fn cell(&mut self, idx: usize) -> &mut T {
        let page = self.pages[idx >> BITS]
            .get_or_insert_with(|| vec![T::default(); Self::CELLS].into_boxed_slice());
        &mut page[idx & (Self::CELLS - 1)]
    }
}

const VERDICT_FALSE: u8 = 1;
const VERDICT_TRUE: u8 = 2;

/// Dense tri-state cone-membership memo over a [`Window`].
///
/// Cell states are `unknown`, `false`, `true`; the occupancy counter
/// counts each recorded cell once.
#[derive(Debug)]
pub struct ConeMemo {
    window: Window,
    cells: Pages<u8, CONE_PAGE_BITS>,
    occupied: usize,
}

impl ConeMemo {
    /// An all-unknown memo over `window`.
    pub fn new(window: Window) -> Self {
        let cells = Pages::new(window.len());
        ConeMemo {
            window,
            cells,
            occupied: 0,
        }
    }

    /// The window this memo covers.
    pub fn window(&self) -> &Window {
        &self.window
    }

    /// The memoised verdict at `idx`, if one has been recorded.
    #[inline]
    pub fn get(&self, idx: usize) -> Option<bool> {
        match self.cells.load(idx) {
            0 => None,
            VERDICT_FALSE => Some(false),
            _ => Some(true),
        }
    }

    /// Record a verdict; returns whether the cell was previously
    /// unknown. A recorded verdict is never overwritten: verdicts for a
    /// fixed stencil are unique.
    pub fn set(&mut self, idx: usize, val: bool) -> bool {
        let cell = self.cells.cell(idx);
        if *cell != 0 {
            return false;
        }
        *cell = if val { VERDICT_TRUE } else { VERDICT_FALSE };
        self.occupied += 1;
        true
    }

    /// Number of recorded verdicts.
    pub fn len(&self) -> usize {
        self.occupied
    }

    /// Whether no verdict has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Outcome of [`MaskTable::merge`].
#[derive(Debug, Clone, Copy)]
pub struct MergeOutcome {
    /// Whether the merge added at least one new PATHSET bit (or the node
    /// itself); only then is a fresh queue entry worth pushing.
    pub grew: bool,
    /// The node's PATHSET mask after the merge.
    pub merged: u64,
    /// Whether the node was absent before this merge.
    pub is_new: bool,
    /// Stable key for the node — a dense window index, or a tagged
    /// spill-arena id. Feed it to [`MaskTable::mask_of`] /
    /// [`MaskTable::coords_of`].
    pub key: u64,
}

/// The search's PATHSET node pool: dense `u64` cells over a [`Window`]
/// (PRESENT bit + mask bits), spilling out-of-window nodes to a map plus
/// a coordinate arena so every node has a stable `Copy` key.
///
/// Queue entries throughout the search are `(cost, key, mask)` triples —
/// no heap-allocated vectors on the hot path. For in-window nodes the
/// key *is* the linear window index, which is ordered like `lex w`
/// within the window, so the canonical `(cost, ‖w‖², lex w)` tie-break
/// behaviour of the heap is preserved for dense traffic.
#[derive(Debug)]
pub struct MaskTable {
    window: Window,
    cells: Pages<u64, MASK_PAGE_BITS>,
    /// Keys of occupied dense cells in insertion order, so snapshots
    /// enumerate occupancy without scanning the whole window.
    dense_log: Vec<u32>,
    /// Out-of-window nodes: coords → (mask, arena id).
    spill: HashMap<IVec, (u64, u32)>,
    /// Spill id → coords, so spill keys decode without a map walk.
    arena: Vec<IVec>,
}

impl MaskTable {
    /// An empty node pool over `window`.
    pub fn new(window: Window) -> Self {
        debug_assert!(window.len() as u64 <= u32::MAX as u64 + 1);
        let cells = Pages::new(window.len());
        MaskTable {
            window,
            cells,
            dense_log: Vec::new(),
            spill: HashMap::new(),
            arena: Vec::new(),
        }
    }

    /// The window backing the dense tier.
    pub fn window(&self) -> &Window {
        &self.window
    }

    /// Total nodes across the dense and spill tiers (the memo-cap
    /// figure).
    pub fn len(&self) -> usize {
        self.dense_log.len() + self.spill.len()
    }

    /// Whether the pool holds no nodes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Current PATHSET mask of the node at `w`, if present.
    #[inline]
    pub fn probe(&self, w: &[i64]) -> Option<u64> {
        match self.window.index(w) {
            Some(idx) => {
                let cell = self.cells.load(idx);
                if cell & PRESENT != 0 {
                    Some(cell & !PRESENT)
                } else {
                    None
                }
            }
            None => self.spill.get(w).map(|&(mask, _)| mask),
        }
    }

    /// Stable key of an *existing* node (used when re-keying seeded
    /// frontier entries); `None` if the node is absent.
    pub fn key_of(&self, w: &[i64]) -> Option<u64> {
        match self.window.index(w) {
            Some(idx) => (self.cells.load(idx) & PRESENT != 0).then_some(idx as u64),
            None => self.spill.get(w).map(|&(_, id)| SPILL_TAG | id as u64),
        }
    }

    /// Union `mask` into the node at `w`, creating it if absent. Dense
    /// nodes merge with one `|=`: the PRESENT bit rides along, so presence
    /// and mask update together.
    pub fn merge(&mut self, w: &[i64], mask: u64) -> MergeOutcome {
        debug_assert_eq!(mask & PRESENT, 0, "PATHSET masks use bits 0..=62");
        match self.window.index(w) {
            Some(idx) => {
                let cell = self.cells.cell(idx);
                let prior = *cell;
                *cell |= PRESENT | mask;
                let is_new = prior & PRESENT == 0;
                let prior_mask = prior & !PRESENT;
                let merged = prior_mask | mask;
                if is_new {
                    self.dense_log.push(idx as u32);
                }
                MergeOutcome {
                    grew: is_new || merged != prior_mask,
                    merged,
                    is_new,
                    key: idx as u64,
                }
            }
            None => {
                if let Some((m, id)) = self.spill.get_mut(w) {
                    let merged = *m | mask;
                    let grew = merged != *m;
                    *m = merged;
                    return MergeOutcome {
                        grew,
                        merged,
                        is_new: false,
                        key: SPILL_TAG | *id as u64,
                    };
                }
                let id = self.arena.len() as u32;
                self.arena.push(IVec::from(w));
                self.spill.insert(IVec::from(w), (mask, id));
                MergeOutcome {
                    grew: true,
                    merged: mask,
                    is_new: true,
                    key: SPILL_TAG | id as u64,
                }
            }
        }
    }

    /// Current mask of the node behind `key`; `None` when the key names
    /// a node that was never created (a stale or foreign key).
    pub fn mask_of(&self, key: u64) -> Option<u64> {
        if key & SPILL_TAG == 0 {
            let cell = self.cells.load(key as usize);
            (cell & PRESENT != 0).then_some(cell & !PRESENT)
        } else {
            let coords = self.arena.get((key & !SPILL_TAG) as usize)?;
            self.spill.get(coords).map(|&(mask, _)| mask)
        }
    }

    /// Coordinates of the node behind `key`, written into `out`.
    /// Returns `false` (leaving `out` empty) for an unknown spill id.
    pub fn coords_of(&self, key: u64, out: &mut Vec<i64>) -> bool {
        if key & SPILL_TAG == 0 {
            self.window.decode(key as usize, out);
            true
        } else {
            out.clear();
            match self.arena.get((key & !SPILL_TAG) as usize) {
                Some(coords) => {
                    out.extend_from_slice(coords.as_slice());
                    true
                }
                None => false,
            }
        }
    }

    /// Every `(coords, mask)` pair across both tiers, in unspecified
    /// order (snapshot encoding sorts); cost is proportional to
    /// occupancy, not window size.
    pub fn entries(&self) -> Vec<(IVec, u64)> {
        let mut out = Vec::with_capacity(self.len());
        let mut coords = Vec::new();
        for &idx in &self.dense_log {
            let cell = self.cells.load(idx as usize);
            self.window.decode(idx as usize, &mut coords);
            out.push((IVec::from(coords.as_slice()), cell & !PRESENT));
        }
        out.extend(self.spill.iter().map(|(w, &(mask, _))| (w.clone(), mask)));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uov_isg::ivec;

    #[test]
    fn window_roundtrips_indices() {
        let w = Window::from_bounds(&[-3, -1], &[2, 4], 1 << 20);
        assert_eq!(w.len(), 36);
        let mut seen = std::collections::HashSet::new();
        let mut coords = Vec::new();
        for i in -3..=2i64 {
            for j in -1..=4i64 {
                let idx = w.index(&[i, j]).expect("in bounds");
                assert!(idx < w.len());
                assert!(seen.insert(idx), "index collision at ({i},{j})");
                w.decode(idx, &mut coords);
                assert_eq!(coords, vec![i, j]);
            }
        }
    }

    #[test]
    fn window_index_order_is_lex_order() {
        // Dense keys must sort like `lex w` so heap tie-breaks match the
        // canonical order.
        let w = Window::from_bounds(&[-2, -2], &[2, 2], 1 << 20);
        let mut points: Vec<Vec<i64>> = Vec::new();
        for i in -2..=2i64 {
            for j in -2..=2i64 {
                points.push(vec![i, j]);
            }
        }
        let mut by_lex = points.clone();
        by_lex.sort();
        let mut by_idx = points;
        by_idx.sort_by_key(|p| w.index(p).expect("in bounds"));
        assert_eq!(by_lex, by_idx);
    }

    #[test]
    fn window_rejects_extreme_coordinates_without_overflow() {
        let w = Window::from_bounds(&[-8, -8], &[8, 8], 1 << 20);
        for bad in [
            vec![i64::MAX, 0],
            vec![i64::MIN, 0],
            vec![0, i64::MAX - 1],
            vec![i64::MIN + 1, i64::MAX],
        ] {
            assert_eq!(w.index(&bad), None);
        }
    }

    #[test]
    fn window_shrinks_to_budget() {
        let w = Window::from_bounds(&[-1_000_000, -1_000_000], &[1_000_000, 1_000_000], 4096);
        assert!(w.len() <= 4096);
        assert!(!w.is_empty());
        assert!(w.index(&[0, 0]).is_some(), "origin stays in-window");
    }

    #[test]
    fn empty_window_spills_everything() {
        let w = Window::from_bounds(&[0], &[100], 0);
        assert!(w.is_empty());
        assert_eq!(w.index(&[0]), None);
    }

    #[test]
    fn cone_memo_records_and_counts() {
        let mut memo = ConeMemo::new(Window::from_bounds(&[-4], &[4], 64));
        let idx = memo.window().index(&[2]).expect("in bounds");
        assert_eq!(memo.get(idx), None);
        assert!(memo.set(idx, true));
        assert!(!memo.set(idx, true), "second write is not a new cell");
        assert_eq!(memo.get(idx), Some(true));
        assert_eq!(memo.len(), 1);
    }

    #[test]
    fn mask_table_dense_merge_and_stale_keys() {
        let mut t = MaskTable::new(Window::from_bounds(&[0, 0], &[8, 8], 1 << 10));
        let a = t.merge(&[1, 2], 0b01);
        assert!(a.is_new && a.grew);
        assert_eq!(a.merged, 0b01);
        let b = t.merge(&[1, 2], 0b10);
        assert!(!b.is_new && b.grew);
        assert_eq!(b.merged, 0b11);
        assert_eq!(b.key, a.key);
        let c = t.merge(&[1, 2], 0b01);
        assert!(!c.grew, "subset mask adds nothing");
        assert_eq!(t.probe(&[1, 2]), Some(0b11));
        assert_eq!(t.mask_of(a.key), Some(0b11));
        assert_eq!(t.len(), 1);
        let mut coords = Vec::new();
        assert!(t.coords_of(a.key, &mut coords));
        assert_eq!(coords, vec![1, 2]);
    }

    #[test]
    fn mask_table_spills_out_of_window_nodes() {
        let mut t = MaskTable::new(Window::from_bounds(&[0, 0], &[4, 4], 1 << 10));
        let far = [1_000_000i64, -7];
        let a = t.merge(&far, 0b1);
        assert!(a.is_new);
        assert_ne!(a.key & SPILL_TAG, 0, "out-of-window key is tagged");
        assert_eq!(t.probe(&far), Some(0b1));
        assert_eq!(t.key_of(&far), Some(a.key));
        assert_eq!(t.mask_of(a.key), Some(0b1));
        let mut coords = Vec::new();
        assert!(t.coords_of(a.key, &mut coords));
        assert_eq!(coords, far.to_vec());
        // Near-i64::MAX coordinates land in the spill tier, no overflow.
        let extreme = [i64::MAX - 1, i64::MIN + 2];
        let b = t.merge(&extreme, 0b10);
        assert!(b.is_new);
        assert_eq!(t.probe(&extreme), Some(0b10));
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn mask_table_entries_cover_both_tiers() {
        let mut t = MaskTable::new(Window::from_bounds(&[0, 0], &[4, 4], 1 << 10));
        t.merge(&[1, 1], 0b1);
        t.merge(&[2, 0], 0b10);
        t.merge(&[99, 99], 0b11);
        let mut entries = t.entries();
        entries.sort();
        assert_eq!(
            entries,
            vec![
                (ivec![1, 1], 0b1),
                (ivec![2, 0], 0b10),
                (ivec![99, 99], 0b11),
            ]
        );
    }
}
