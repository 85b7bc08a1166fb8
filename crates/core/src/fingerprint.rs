//! The workspace-standard dependency-free fingerprinting: FNV-1a-64 over
//! a canonical encoding of a `(stencil, objective)` problem instance.
//!
//! One fingerprint, three consumers:
//!
//! * **Checkpoint validation** ([`crate::checkpoint`]) — a snapshot
//!   records the fingerprint of the problem it belongs to, and resume
//!   refuses snapshots taken for a different stencil or objective.
//! * **Result certification** ([`certify`](mod@crate::certify)) — the
//!   certificate's transcript hash is seeded with the problem fingerprint,
//!   so two certificates can only collide if they certify the same
//!   problem.
//! * **The plan cache** (`uov-service`) — canonicalized problems are
//!   keyed by fingerprint into the sharded LRU, so every layer of the
//!   system agrees on what "the same problem" means.
//!
//! The encoding is canonical because [`Stencil`] stores its vectors
//! sorted and deduplicated, and the known-bounds branch hashes
//! the domain's *sorted* extreme points: two domains with identical
//! vertices and cardinality are deliberately interchangeable (they define
//! the same storage-class count for every candidate vector).

use uov_isg::Stencil;

use crate::search::Objective;

/// FNV-1a 64-bit streaming hasher.
///
/// Deliberately boring: the offset basis and prime are the published
/// constants, input is absorbed byte-by-byte, and there is no finishing
/// transformation — so a digest pinned in a test today stays pinned
/// forever (the checkpoint format depends on that stability).
#[derive(Debug, Clone)]
pub struct Fnv(u64);

/// The FNV-1a-64 offset basis.
const OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
/// The FNV-1a-64 prime.
const PRIME: u64 = 0x0000_0100_0000_01b3;

impl Default for Fnv {
    fn default() -> Self {
        Fnv::new()
    }
}

impl Fnv {
    /// A hasher in its initial state (the FNV offset basis).
    pub fn new() -> Self {
        Fnv(OFFSET_BASIS)
    }

    /// Absorb raw bytes.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(PRIME);
        }
    }

    /// Absorb a `u64` in little-endian byte order.
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// Absorb an `i64` in little-endian byte order.
    pub fn write_i64(&mut self, v: i64) {
        self.write(&v.to_le_bytes());
    }

    /// The digest of everything absorbed so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Fingerprint of a `(stencil, objective)` problem instance.
///
/// Covers the stencil's dimension and vectors and the objective's
/// identity: for [`Objective::KnownBounds`] the domain's point count and
/// sorted extreme points are hashed, so two domains with identical
/// vertices and cardinality are deliberately interchangeable (they define
/// the same storage-class counts for every candidate the search costs).
///
/// # Examples
///
/// ```
/// use uov_core::fingerprint::fingerprint;
/// use uov_core::search::Objective;
/// use uov_isg::{ivec, Stencil};
///
/// let s = Stencil::new(vec![ivec![1, 0], ivec![0, 1], ivec![1, 1]])?;
/// let a = fingerprint(&s, &Objective::ShortestVector);
/// assert_eq!(a, fingerprint(&s, &Objective::ShortestVector));
/// # Ok::<(), uov_isg::StencilError>(())
/// ```
pub fn fingerprint(stencil: &Stencil, objective: &Objective<'_>) -> u64 {
    let mut h = Fnv::new();
    h.write_u64(stencil.dim() as u64);
    h.write_u64(stencil.len() as u64);
    for v in stencil.iter() {
        for &c in v.as_slice() {
            h.write_i64(c);
        }
    }
    match objective {
        Objective::ShortestVector => h.write_u64(0),
        Objective::KnownBounds(domain) => {
            h.write_u64(1);
            h.write_u64(domain.num_points());
            let mut vertices = domain.extreme_points();
            vertices.sort();
            for p in &vertices {
                for &c in p.as_slice() {
                    h.write_i64(c);
                }
            }
        }
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use uov_isg::{ivec, RectDomain};

    #[test]
    fn fnv_matches_published_test_vectors() {
        // Classic FNV-1a-64 vectors: the empty string hashes to the
        // offset basis, and "a"/"foobar" to the published digests.
        assert_eq!(Fnv::new().finish(), 0xcbf2_9ce4_8422_2325);
        let mut h = Fnv::new();
        h.write(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
        let mut h = Fnv::new();
        h.write(b"foobar");
        assert_eq!(h.finish(), 0x8594_4171_f739_67e8);
    }

    /// Pins the exact digests the checkpoint format and the plan cache
    /// key on. If this test fails, old snapshots and cached plans stop
    /// resolving — bump the relevant format versions instead of changing
    /// the hash.
    #[test]
    fn problem_fingerprints_are_pinned() {
        let fig1 = Stencil::new(vec![ivec![1, 0], ivec![0, 1], ivec![1, 1]]).unwrap();
        assert_eq!(
            fingerprint(&fig1, &Objective::ShortestVector),
            0x5b31_cd69_f5a3_8244
        );
        let grid = RectDomain::grid(4, 4);
        assert_eq!(
            fingerprint(&fig1, &Objective::KnownBounds(&grid)),
            0xa527_a894_5914_6c95
        );
        let stencil5 = Stencil::new(vec![
            ivec![1, -2],
            ivec![1, -1],
            ivec![1, 0],
            ivec![1, 1],
            ivec![1, 2],
        ])
        .unwrap();
        assert_eq!(
            fingerprint(&stencil5, &Objective::ShortestVector),
            0xf069_1e85_1339_7251
        );
    }

    #[test]
    fn fingerprint_separates_problems() {
        let a = Stencil::new(vec![ivec![1, 0], ivec![0, 1], ivec![1, 1]]).unwrap();
        let b = Stencil::new(vec![ivec![1, 0], ivec![0, 1]]).unwrap();
        let short = fingerprint(&a, &Objective::ShortestVector);
        assert_ne!(short, fingerprint(&b, &Objective::ShortestVector));
        let g4 = RectDomain::grid(4, 4);
        let g5 = RectDomain::grid(5, 5);
        let kb4 = fingerprint(&a, &Objective::KnownBounds(&g4));
        assert_ne!(short, kb4);
        assert_ne!(kb4, fingerprint(&a, &Objective::KnownBounds(&g5)));
    }
}
