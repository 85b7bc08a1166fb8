//! Crash-safe binary snapshots of the branch-and-bound search state.
//!
//! Long UOV searches are exactly the runs that die to OOM kills and deploy
//! restarts (the problem is NP-complete, §5 of the paper), so the engine
//! can periodically serialize its frontier, PATHSET table, incumbent and
//! budget progress to disk and later resume from the latest snapshot via
//! [`crate::search::search_resume`]. The format is dependency-free and
//! deliberately boring:
//!
//! ```text
//! magic   b"UOVCKPT1"                      8 bytes
//! version u32 LE (currently 1)             4 bytes
//! fprint  u64 LE FNV-1a over the stencil   8 bytes
//!         vectors and the objective
//! dim     u16 LE                           2 bytes
//! nsect   u8                               1 byte
//! nsect × section:
//!     tag u8, len u64 LE, payload, crc32 u32 LE (over tag‖len‖payload)
//! ```
//!
//! Sections: `INCUMBENT` (cost + vector), `FRONTIER` (queue entries as
//! `(cost, offset, pathset)`), `KNOWN` (the PATHSET union per offset) and
//! `PROGRESS` (budget + statistics counters). Entries are sorted before
//! writing so a given search state always produces the identical file.
//! Unknown tags are CRC-checked and skipped, leaving room for future
//! sections without a version bump — which is also how this reader
//! decodes older files that carry the retired tag 5.
//!
//! Writes are atomic ([`crate::wire::write_atomic`]): the snapshot is
//! written to `<path>.tmp`, fsynced, and renamed over `<path>`, so a
//! crash mid-write leaves the previous snapshot intact. Readers validate
//! the magic, version, per-section CRCs and structural invariants, and
//! report every failure as a typed [`CheckpointError`] — a corrupt file
//! can never panic the engine or silently resume from garbage.

use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use uov_isg::IVec;

use crate::search::SearchStats;
use crate::wire::{write_atomic, Decoder, Encoder, WireError};

// Re-exported for compatibility: the fingerprint started life here and
// callers (certify, resume, the service plan cache) still reach it
// through `checkpoint::fingerprint`.
pub use crate::fingerprint::{fingerprint, Fnv};

/// File magic: "UOV checkpoint, format family 1".
const MAGIC: &[u8; 8] = b"UOVCKPT1";
/// Current format version.
const VERSION: u32 = 1;

/// Section tags.
const SEC_INCUMBENT: u8 = 1;
const SEC_FRONTIER: u8 = 2;
const SEC_KNOWN: u8 = 3;
const SEC_PROGRESS: u8 = 4;
// Tag 5 held a distributed work unit's lease epoch. Retired: never reuse it.

/// Where and how often to snapshot a search.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointConfig {
    /// Snapshot file. The writer uses `<path>.tmp` as scratch and renames
    /// atomically, so `path` always holds a complete snapshot (or nothing).
    pub path: PathBuf,
    /// Fully-processed nodes between snapshots; `0` behaves like `1`
    /// (snapshot after every node). A final snapshot is always written
    /// when the search stops, whatever the interval.
    pub interval: u64,
}

/// Typed failures of snapshot reading and writing.
///
/// Write failures never fail the search — they are recorded in
/// [`SearchResult::checkpoint_error`](crate::search::SearchResult) and
/// further checkpointing is disabled. Read failures abort a resume with
/// [`SearchError::Checkpoint`](crate::error::SearchError).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// An OS-level I/O failure (create, write, fsync, rename, read).
    Io {
        /// Which operation failed: `"write"` or `"read"`.
        op: &'static str,
        /// The OS error kind.
        kind: io::ErrorKind,
        /// The OS error message.
        msg: String,
    },
    /// The file does not start with the checkpoint magic.
    BadMagic,
    /// The file's format version is newer than this build understands.
    UnsupportedVersion(u32),
    /// The file ends before the declared structure does.
    Truncated,
    /// A section's CRC32 does not match its contents (bit rot, torn
    /// write on a non-atomic filesystem, or manual tampering).
    CrcMismatch {
        /// Tag of the failing section.
        section: u8,
    },
    /// The snapshot was taken for a different stencil or objective than
    /// the one being resumed.
    StencilMismatch {
        /// Fingerprint of the stencil/objective passed to resume.
        expected: u64,
        /// Fingerprint stored in the snapshot.
        found: u64,
    },
    /// The file decodes but violates a structural invariant of the search
    /// state (dimension mismatch, mask out of range, inconsistent
    /// frontier, non-recomputable cost, …).
    Corrupt(String),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io { op, msg, .. } => write!(f, "checkpoint {op} failed: {msg}"),
            CheckpointError::BadMagic => write!(f, "not a UOV checkpoint file (bad magic)"),
            CheckpointError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported checkpoint version {v} (this build reads ≤ {VERSION})"
                )
            }
            CheckpointError::Truncated => write!(f, "checkpoint file is truncated"),
            CheckpointError::CrcMismatch { section } => {
                write!(f, "checkpoint section {section} failed its CRC32 check")
            }
            CheckpointError::StencilMismatch { expected, found } => write!(
                f,
                "checkpoint was taken for a different stencil/objective \
                 (fingerprint {found:#018x}, expected {expected:#018x})"
            ),
            CheckpointError::Corrupt(msg) => write!(f, "checkpoint is corrupt: {msg}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

/// A decoded (or to-be-encoded) search snapshot.
///
/// The `frontier` holds every queue entry that was live at snapshot time
/// — including the entry the search had popped but not fully expanded —
/// and `known` the full PATHSET union table, so resuming re-creates
/// exactly the state the canonical-order determinism argument needs
/// (DESIGN §6d).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Snapshot {
    /// FNV-1a fingerprint of the stencil + objective (see [`fingerprint`]).
    pub fingerprint: u64,
    /// Stencil dimensionality; every vector below has this many entries.
    pub dim: usize,
    /// Objective value of the incumbent.
    pub incumbent_cost: u128,
    /// The incumbent UOV (at worst the always-legal initial `Σvᵢ`).
    pub incumbent: IVec,
    /// Live queue entries `(cost, offset, pathset)`.
    pub frontier: Vec<(u128, IVec, u64)>,
    /// PATHSET union per discovered offset.
    pub known: Vec<(IVec, u64)>,
    /// Budget nodes charged so far (restored so resumed runs cannot
    /// exceed a cumulative node cap).
    pub nodes_charged: u64,
    /// Statistics accumulated so far (`complete` is not stored; a resumed
    /// run recomputes it).
    pub stats: SearchStats,
}

impl From<WireError> for CheckpointError {
    fn from(e: WireError) -> Self {
        match e {
            WireError::Truncated => CheckpointError::Truncated,
            WireError::Oversized(what) => {
                CheckpointError::Corrupt(format!("{what} exceeds the section size"))
            }
            WireError::Crc { tag } => CheckpointError::CrcMismatch { section: tag },
        }
    }
}

// ---------------------------------------------------------------- encode

/// Serialize a snapshot to its canonical byte representation.
///
/// Canonical means byte-deterministic: frontier and PATHSET entries are
/// sorted, so equal snapshots always produce equal files.
///
/// # Errors
///
/// [`CheckpointError::Corrupt`] if the snapshot's dimension exceeds the
/// format's `u16` field (never reachable from the search engine).
pub fn encode_snapshot(snap: &Snapshot) -> Result<Vec<u8>, CheckpointError> {
    let dim = u16::try_from(snap.dim)
        .map_err(|_| CheckpointError::Corrupt("dimension exceeds u16".into()))?;

    let mut frontier: Vec<&(u128, IVec, u64)> = snap.frontier.iter().collect();
    frontier.sort();
    let mut known: Vec<&(IVec, u64)> = snap.known.iter().collect();
    known.sort();

    let mut e = Encoder::with_capacity(64 + 32 * (frontier.len() + known.len()));
    e.buf.extend_from_slice(MAGIC);
    e.u32(VERSION);
    e.u64(snap.fingerprint);
    e.u16(dim);
    e.u8(4); // section count

    let mut p = Encoder::new();
    p.u128(snap.incumbent_cost);
    p.vec(&snap.incumbent);
    e.section(SEC_INCUMBENT, &p.buf);

    let mut p = Encoder::new();
    p.u64(frontier.len() as u64);
    for (cost, w, mask) in frontier {
        p.u128(*cost);
        p.u64(*mask);
        p.vec(w);
    }
    e.section(SEC_FRONTIER, &p.buf);

    let mut p = Encoder::new();
    p.u64(known.len() as u64);
    for (w, mask) in known {
        p.u64(*mask);
        p.vec(w);
    }
    e.section(SEC_KNOWN, &p.buf);

    let mut p = Encoder::new();
    p.u64(snap.nodes_charged);
    p.u64(snap.stats.visited);
    p.u64(snap.stats.pushed);
    p.u64(snap.stats.improvements);
    p.u64(snap.stats.pruned);
    p.u64(snap.stats.capped);
    e.section(SEC_PROGRESS, &p.buf);

    Ok(e.buf)
}

/// Write a snapshot atomically: encode, write to `<path>.tmp`, fsync,
/// rename over `path`. A crash at any point leaves either the previous
/// snapshot or the new one — never a torn file.
///
/// # Errors
///
/// [`CheckpointError::Io`] on any filesystem failure (the scratch file is
/// best-effort removed), [`CheckpointError::Corrupt`] if the snapshot is
/// not encodable.
pub fn write_snapshot(path: &Path, snap: &Snapshot) -> Result<(), CheckpointError> {
    let bytes = encode_snapshot(snap)?;
    write_atomic(path, &bytes).map_err(|e| CheckpointError::Io {
        op: "write",
        kind: e.kind(),
        msg: e.to_string(),
    })
}

// ---------------------------------------------------------------- decode

/// Decode a snapshot from bytes, validating magic, version and every
/// section CRC.
///
/// # Errors
///
/// The full [`CheckpointError`] taxonomy except `Io` and
/// `StencilMismatch` (the fingerprint is returned for the caller to
/// check against the live stencil).
pub fn decode_snapshot(bytes: &[u8]) -> Result<Snapshot, CheckpointError> {
    let mut d = Decoder::new(bytes);
    if d.take(MAGIC.len())? != MAGIC {
        return Err(CheckpointError::BadMagic);
    }
    let version = d.u32()?;
    if version != VERSION {
        return Err(CheckpointError::UnsupportedVersion(version));
    }
    let fingerprint = d.u64()?;
    let dim = usize::from(d.u16()?);
    let nsect = d.u8()?;

    let mut incumbent: Option<(u128, IVec)> = None;
    let mut frontier: Option<Vec<(u128, IVec, u64)>> = None;
    let mut known: Option<Vec<(IVec, u64)>> = None;
    let mut progress: Option<[u64; 6]> = None;

    for _ in 0..nsect {
        let (tag, payload) = d.section()?;
        let mut p = Decoder::new(payload);
        let known_tag = matches!(tag, SEC_INCUMBENT | SEC_FRONTIER | SEC_KNOWN | SEC_PROGRESS);
        match tag {
            SEC_INCUMBENT => {
                let cost = p.u128()?;
                let w = p.vec(dim)?;
                incumbent = Some((cost, w));
            }
            SEC_FRONTIER => {
                let n = p.count(16 + 8 + 8 * dim)?;
                let mut entries = Vec::with_capacity(n);
                for _ in 0..n {
                    let cost = p.u128()?;
                    let mask = p.u64()?;
                    let w = p.vec(dim)?;
                    entries.push((cost, w, mask));
                }
                frontier = Some(entries);
            }
            SEC_KNOWN => {
                let n = p.count(8 + 8 * dim)?;
                let mut entries = Vec::with_capacity(n);
                for _ in 0..n {
                    let mask = p.u64()?;
                    let w = p.vec(dim)?;
                    entries.push((w, mask));
                }
                known = Some(entries);
            }
            SEC_PROGRESS => {
                let mut vals = [0u64; 6];
                for v in &mut vals {
                    *v = p.u64()?;
                }
                progress = Some(vals);
            }
            // Unknown-but-CRC-valid sections are skipped: room for
            // forward-compatible additions within version 1.
            _ => {}
        }
        // A known section must consume its payload exactly; leftover
        // bytes mean the header's `dim` disagrees with the writer's.
        if known_tag && p.pos != p.buf.len() {
            return Err(CheckpointError::Corrupt(
                "section payload has trailing bytes".into(),
            ));
        }
    }

    // The declared section count must account for every byte: leftover
    // bytes mean a damaged `nsect` silently dropped sections off the end
    // (a single bit flip there must not decode as a valid prefix).
    if d.pos != d.buf.len() {
        return Err(CheckpointError::Corrupt(
            "trailing bytes after the declared sections".into(),
        ));
    }

    let (incumbent_cost, incumbent) =
        incumbent.ok_or_else(|| CheckpointError::Corrupt("missing incumbent section".into()))?;
    let frontier =
        frontier.ok_or_else(|| CheckpointError::Corrupt("missing frontier section".into()))?;
    let known = known.ok_or_else(|| CheckpointError::Corrupt("missing PATHSET section".into()))?;
    let [nodes_charged, visited, pushed, improvements, pruned, capped] =
        progress.ok_or_else(|| CheckpointError::Corrupt("missing progress section".into()))?;

    Ok(Snapshot {
        fingerprint,
        dim,
        incumbent_cost,
        incumbent,
        frontier,
        known,
        nodes_charged,
        stats: SearchStats {
            visited,
            pushed,
            improvements,
            pruned,
            capped,
            complete: false,
        },
    })
}

/// Read and decode a snapshot file.
///
/// # Errors
///
/// [`CheckpointError::Io`] if the file cannot be read, else whatever
/// [`decode_snapshot`] reports.
pub fn read_snapshot(path: &Path) -> Result<Snapshot, CheckpointError> {
    let bytes = fs::read(path).map_err(|e| CheckpointError::Io {
        op: "read",
        kind: e.kind(),
        msg: e.to_string(),
    })?;
    decode_snapshot(&bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use uov_isg::ivec;

    fn sample() -> Snapshot {
        Snapshot {
            fingerprint: 0xDEAD_BEEF_0BAD_F00D,
            dim: 2,
            incumbent_cost: 4,
            incumbent: ivec![2, 0],
            frontier: vec![(2, ivec![1, 1], 0b011), (1, ivec![1, 0], 0b001)],
            known: vec![(ivec![0, 0], 0), (ivec![1, 0], 0b001), (ivec![1, 1], 0b011)],
            nodes_charged: 17,
            stats: SearchStats {
                visited: 5,
                pushed: 7,
                improvements: 1,
                pruned: 2,
                capped: 0,
                complete: false,
            },
        }
    }

    /// Files written while distributed search existed end in a tag-5
    /// section (a work unit's lease epoch). It decodes like any unknown
    /// section: CRC-checked, then skipped.
    #[test]
    fn retired_tag_5_section_is_crc_checked_and_skipped() {
        let mut want = sample();
        let mut old = encode_snapshot(&want).unwrap();
        // Header: magic 8 ‖ version 4 ‖ fingerprint 8 ‖ dim 2 ‖ nsect 1.
        old[22] += 1;
        let mut epoch = Encoder::new();
        epoch.u64(9);
        let mut section = Encoder::new();
        section.section(5, &epoch.buf);
        old.extend_from_slice(&section.buf);
        want.frontier.sort();
        want.known.sort();
        assert_eq!(decode_snapshot(&old), Ok(want));

        let crc_byte = old.len() - 1;
        old[crc_byte] ^= 0x5A;
        assert_eq!(
            decode_snapshot(&old),
            Err(CheckpointError::CrcMismatch { section: 5 })
        );
    }

    #[test]
    fn roundtrip_is_identity() {
        let snap = sample();
        let bytes = encode_snapshot(&snap).unwrap();
        let back = decode_snapshot(&bytes).unwrap();
        // Encoding sorts, so compare against the sorted original.
        let mut want = snap;
        want.frontier.sort();
        want.known.sort();
        assert_eq!(back, want);
    }

    #[test]
    fn encoding_is_byte_deterministic() {
        let mut a = sample();
        let b = {
            let mut s = sample();
            s.frontier.reverse();
            s.known.reverse();
            s
        };
        assert_eq!(
            encode_snapshot(&a).unwrap(),
            encode_snapshot(&b).unwrap(),
            "entry order must not leak into the file"
        );
        a.nodes_charged += 1;
        assert_ne!(encode_snapshot(&a).unwrap(), encode_snapshot(&b).unwrap());
    }

    #[test]
    fn bad_magic_is_detected() {
        let mut bytes = encode_snapshot(&sample()).unwrap();
        bytes[0] = b'X';
        assert_eq!(decode_snapshot(&bytes), Err(CheckpointError::BadMagic));
    }

    #[test]
    fn future_version_is_rejected() {
        let mut bytes = encode_snapshot(&sample()).unwrap();
        bytes[8..12].copy_from_slice(&99u32.to_le_bytes());
        assert_eq!(
            decode_snapshot(&bytes),
            Err(CheckpointError::UnsupportedVersion(99))
        );
    }

    #[test]
    fn every_truncation_point_is_detected() {
        let bytes = encode_snapshot(&sample()).unwrap();
        for cut in 0..bytes.len() {
            let err = decode_snapshot(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(
                    err,
                    CheckpointError::Truncated
                        | CheckpointError::BadMagic
                        | CheckpointError::CrcMismatch { .. }
                        | CheckpointError::Corrupt(_)
                ),
                "cut at {cut}: unexpected {err:?}"
            );
        }
    }

    #[test]
    fn every_single_bit_flip_is_detected() {
        let bytes = encode_snapshot(&sample()).unwrap();
        let reference = decode_snapshot(&bytes).unwrap();
        for byte in 0..bytes.len() {
            let mut flipped = bytes.clone();
            flipped[byte] ^= 1;
            match decode_snapshot(&flipped) {
                Err(_) => {}
                Ok(decoded) => {
                    // Flips in the fingerprint field decode fine but are
                    // caught by the resume-time fingerprint comparison.
                    assert_ne!(
                        decoded.fingerprint, reference.fingerprint,
                        "undetected bit flip at byte {byte}"
                    );
                }
            }
        }
    }

    #[test]
    fn atomic_write_roundtrips_and_leaves_no_scratch() {
        let path = std::env::temp_dir().join(format!("uov-ckpt-unit-{}.bin", std::process::id()));
        let snap = sample();
        write_snapshot(&path, &snap).unwrap();
        let mut tmp = path.as_os_str().to_os_string();
        tmp.push(".tmp");
        assert!(
            !Path::new(&tmp).exists(),
            "scratch file must be renamed away"
        );
        let back = read_snapshot(&path).unwrap();
        assert_eq!(back.nodes_charged, snap.nodes_charged);
        // Overwrite is atomic too: a second write replaces the first.
        write_snapshot(&path, &snap).unwrap();
        assert_eq!(read_snapshot(&path).unwrap(), back);
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn write_into_missing_directory_is_a_typed_error() {
        let path = Path::new("/nonexistent-dir-for-uov-tests/ckpt.bin");
        match write_snapshot(path, &sample()) {
            Err(CheckpointError::Io { op: "write", .. }) => {}
            other => panic!("expected Io error, got {other:?}"),
        }
    }

    /// The fingerprint moved to [`crate::fingerprint`]; this pins the
    /// compatibility re-export so existing `checkpoint::fingerprint`
    /// callers keep compiling and hashing identically.
    #[test]
    fn fingerprint_reexport_is_the_shared_fingerprint() {
        use crate::search::Objective;
        use uov_isg::Stencil;
        let s = Stencil::new(vec![ivec![1, 0], ivec![0, 1], ivec![1, 1]]).unwrap();
        assert_eq!(
            fingerprint(&s, &Objective::ShortestVector),
            crate::fingerprint::fingerprint(&s, &Objective::ShortestVector)
        );
    }
}
