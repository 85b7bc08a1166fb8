//! Parallel tiled execution on OV-mapped storage — the claim of §1/§2
//! ("\[tiling\] can also be used as a technique to implement parallelism"),
//! executed on real threads.
//!
//! After skewing, the 5-point stencil's inter-tile dependences are
//! component-wise non-negative, so all tiles on one anti-diagonal of the
//! tile grid are mutually independent and may run concurrently. The
//! interesting part is storage: the threads share **one** `2L`-cell
//! OV-mapped buffer, with no array expansion and no per-thread copies.
//!
//! Why that is race-free is precisely the UOV theorem: any two accesses
//! to the same cell are linked by a storage dependence, UOV-induced
//! storage dependences lie in the transitive closure of the value
//! dependences, value dependences order the tiles, and concurrently
//! scheduled tiles are unordered — so concurrent tiles can never touch a
//! common cell. A non-universal OV would make the code below racy; the
//! test suite cross-checks the parallel result bit-for-bit against every
//! sequential variant.

use std::sync::atomic::{AtomicUsize, Ordering};

use crate::stencil5::{Stencil5Config, WEIGHTS};

/// A shared mutable f32 buffer whose disjoint-access discipline is
/// guaranteed by the UOV theorem rather than by the type system.
struct TheoremCell {
    ptr: *mut f32,
    len: usize,
}

// SAFETY: `TheoremCell` is only handed to the wavefront executor below,
// which never lets two concurrent tiles access one cell (see module docs).
unsafe impl Sync for TheoremCell {}

impl TheoremCell {
    #[inline]
    unsafe fn read(&self, idx: usize) -> f32 {
        debug_assert!(idx < self.len);
        unsafe { *self.ptr.add(idx) }
    }

    #[inline]
    unsafe fn write(&self, idx: usize, v: f32) {
        debug_assert!(idx < self.len);
        unsafe { *self.ptr.add(idx) = v };
    }
}

/// Run the 5-point stencil with OV-mapped (blocked) storage, executing
/// each anti-diagonal wavefront of skewed tiles on `threads` worker
/// threads. Returns the final row, bit-identical to the sequential
/// variants.
///
/// # Panics
///
/// Panics if `input.len() != cfg.len`, sizes are zero, or `threads == 0`.
pub fn run_stencil5_wavefront(cfg: &Stencil5Config, input: &[f32], threads: usize) -> Vec<f32> {
    assert_eq!(
        input.len(),
        cfg.len,
        "input length must match configuration"
    );
    assert!(cfg.len > 0 && cfg.time_steps > 0, "degenerate problem size");
    assert!(threads > 0, "need at least one worker");
    let (len, t_steps) = (cfg.len, cfg.time_steps);
    let (tile_t, tile_u) = cfg.tile_shape();
    let (tile_t, tile_u) = (tile_t.max(1) as i64, tile_u.max(1) as i64);

    // OV (2,0) blocked storage: addr = x + (t mod 2)·L.
    let mut buf = vec![0.0f32; 2 * len];
    let shared = TheoremCell {
        ptr: buf.as_mut_ptr(),
        len: buf.len(),
    };
    let addr = |t: i64, x: i64| -> usize { x as usize + ((t & 1) as usize) * len };

    // Tile grid in skewed coordinates u = x + 2t.
    let t_lo = 1i64;
    let t_hi = t_steps as i64;
    let u_lo = 2 * t_lo;
    let u_hi = (len as i64 - 1) + 2 * t_hi;
    let n_trows = (t_hi - t_lo) / tile_t + 1;
    let n_ucols = (u_hi - u_lo) / tile_u + 1;

    let clamp = |x: i64| -> i64 { x.clamp(0, len as i64 - 1) };
    let input_ref: &[f32] = input;

    // One tile, sequential inside.
    let run_tile = |tr: i64, uc: i64| {
        let tb = t_lo + tr * tile_t;
        let te = (tb + tile_t - 1).min(t_hi);
        let ub = u_lo + uc * tile_u;
        let ue = (ub + tile_u - 1).min(u_hi);
        for t in tb..=te {
            for u in ub..=ue {
                let x = u - 2 * t;
                if x < 0 || x >= len as i64 {
                    continue;
                }
                let mut acc = 0.0f32;
                for (k, w) in (-2i64..=2).zip(WEIGHTS) {
                    let xx = clamp(x + k);
                    let v = if t == 1 {
                        input_ref[xx as usize]
                    } else {
                        // SAFETY: reads of the previous time row; any
                        // concurrent writer of this cell would be
                        // dependence-ordered with us (UOV theorem).
                        unsafe { shared.read(addr(t - 1, xx)) }
                    };
                    acc += w * v;
                }
                // SAFETY: as above, for the def-def direction.
                unsafe { shared.write(addr(t, x), acc) };
            }
        }
    };

    // Anti-diagonal wavefronts of the tile grid: every tile on the same
    // diagonal is independent (inter-tile deps are ≥ 0 component-wise
    // with at least one positive component).
    for diag in 0..(n_trows + n_ucols - 1) {
        let tiles: Vec<(i64, i64)> = (0..n_trows)
            .filter_map(|tr| {
                let uc = diag - tr;
                (0..n_ucols).contains(&uc).then_some((tr, uc))
            })
            .collect();
        let next = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..threads.min(tiles.len().max(1)) {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(&(tr, uc)) = tiles.get(i) else { break };
                    run_tile(tr, uc);
                });
            }
        });
    }

    let final_parity = (t_steps & 1) * len;
    buf[final_parity..final_parity + len].to_vec()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::PlainMemory;
    use crate::stencil5::{run, Variant};
    use crate::workloads;

    #[test]
    fn parallel_matches_sequential_bitwise() {
        let (len, t_steps) = (4097usize, 9usize);
        let input = workloads::random_f32(len, 77);
        let cfg = Stencil5Config {
            len,
            time_steps: t_steps,
            tile: Some((3, 256)),
        };
        let sequential = run(&mut PlainMemory::new(), Variant::OvBlocked, &cfg, &input);
        for threads in [1usize, 2, 4, 8] {
            let parallel = run_stencil5_wavefront(&cfg, &input, threads);
            assert_eq!(parallel, sequential, "{threads} threads diverged");
        }
    }

    #[test]
    fn many_repetitions_stay_deterministic() {
        // Races, if any existed, would be flaky: hammer the schedule.
        let (len, t_steps) = (513usize, 6usize);
        let input = workloads::random_f32(len, 3);
        let cfg = Stencil5Config {
            len,
            time_steps: t_steps,
            tile: Some((2, 64)),
        };
        let want = run(&mut PlainMemory::new(), Variant::Natural, &cfg, &input);
        for _ in 0..20 {
            assert_eq!(run_stencil5_wavefront(&cfg, &input, 4), want);
        }
    }

    #[test]
    fn tiny_problems_and_single_tiles() {
        for (len, t) in [(1usize, 1usize), (3, 2), (8, 1), (5, 7)] {
            let input = workloads::random_f32(len, 9);
            let cfg = Stencil5Config {
                len,
                time_steps: t,
                tile: Some((2, 4)),
            };
            let want = run(&mut PlainMemory::new(), Variant::OvBlocked, &cfg, &input);
            assert_eq!(
                run_stencil5_wavefront(&cfg, &input, 3),
                want,
                "len {len} T {t}"
            );
        }
    }
}
