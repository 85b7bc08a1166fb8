//! Memory backends: plain computation vs. traced simulation.
//!
//! Kernels are written once, generic over [`Memory`]. With
//! [`PlainMemory`] the abstraction compiles away to `Vec` indexing; with
//! [`TracedMemory`] every access additionally drives a simulated machine,
//! so one kernel source yields both wall-clock numbers and deterministic
//! cycles-per-iteration curves.

use uov_memsim::Machine;

/// Handle to an allocated buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Buf {
    id: u32,
}

/// The memory abstraction kernels run against.
///
/// `alu`/`branch` charge instruction costs on simulating backends and are
/// free on [`PlainMemory`].
pub trait Memory {
    /// Allocate a zero-initialised buffer of `len` f32 cells.
    fn alloc(&mut self, len: usize) -> Buf;

    /// Load `buf[idx]`.
    fn read(&mut self, buf: Buf, idx: usize) -> f32;

    /// Store `buf[idx] = v`.
    fn write(&mut self, buf: Buf, idx: usize, v: f32);

    /// Charge `n` arithmetic operations (free on plain memory).
    #[inline]
    fn alu(&mut self, _n: u64) {}

    /// Charge `n` hard-to-predict branches (free on plain memory).
    #[inline]
    fn branch(&mut self, _n: u64) {}
}

/// Values only: the fastest backend, used for correctness tests and
/// wall-clock benchmarks.
#[derive(Debug, Default)]
pub struct PlainMemory {
    bufs: Vec<Vec<f32>>,
}

impl PlainMemory {
    /// An empty backend.
    pub fn new() -> Self {
        PlainMemory::default()
    }

    /// Borrow a buffer's contents (for result extraction in tests).
    ///
    /// # Panics
    ///
    /// Panics if `buf` was not allocated by this backend.
    pub fn contents(&self, buf: Buf) -> &[f32] {
        &self.bufs[buf.id as usize]
    }
}

impl Memory for PlainMemory {
    fn alloc(&mut self, len: usize) -> Buf {
        self.bufs.push(vec![0.0; len]);
        Buf {
            id: (self.bufs.len() - 1) as u32,
        }
    }

    #[inline]
    fn read(&mut self, buf: Buf, idx: usize) -> f32 {
        self.bufs[buf.id as usize][idx]
    }

    #[inline]
    fn write(&mut self, buf: Buf, idx: usize, v: f32) {
        self.bufs[buf.id as usize][idx] = v;
    }
}

/// Values plus a simulated machine: every access is traced at a distinct
/// page-aligned base address per buffer, so buffers never falsely share
/// cache lines.
#[derive(Debug)]
pub struct TracedMemory {
    bufs: Vec<Vec<f32>>,
    bases: Vec<u64>,
    next_base: u64,
    machine: Machine,
}

/// Bytes per simulated array element (the paper's kernels are C `float`s).
pub const ELEM_BYTES: u64 = 4;

impl TracedMemory {
    /// Wrap a machine. The machine should be freshly reset (cold caches).
    pub fn new(machine: Machine) -> Self {
        TracedMemory {
            bufs: Vec::new(),
            bases: Vec::new(),
            next_base: 0,
            machine,
        }
    }

    /// The wrapped machine's accumulated statistics.
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// Borrow a buffer's contents.
    ///
    /// # Panics
    ///
    /// Panics if `buf` was not allocated by this backend.
    pub fn contents(&self, buf: Buf) -> &[f32] {
        &self.bufs[buf.id as usize]
    }

    #[inline]
    fn addr(&self, buf: Buf, idx: usize) -> u64 {
        self.bases[buf.id as usize] + idx as u64 * ELEM_BYTES
    }
}

impl Memory for TracedMemory {
    fn alloc(&mut self, len: usize) -> Buf {
        const PAGE: u64 = 8 << 10; // ≥ the largest preset page size
                                   // Stagger buffer starts by a few cache lines, as a real allocator
                                   // would: without this every buffer begins at the same cache set
                                   // and direct-mapped caches conflict pathologically.
        let stagger = (self.bufs.len() as u64 % 13) * 192;
        self.bufs.push(vec![0.0; len]);
        self.bases.push(self.next_base + stagger);
        let bytes = (len as u64 * ELEM_BYTES + stagger).max(1);
        self.next_base += bytes.div_ceil(PAGE) * PAGE + PAGE;
        Buf {
            id: (self.bufs.len() - 1) as u32,
        }
    }

    #[inline]
    fn read(&mut self, buf: Buf, idx: usize) -> f32 {
        self.machine.read(self.addr(buf, idx));
        self.bufs[buf.id as usize][idx]
    }

    #[inline]
    fn write(&mut self, buf: Buf, idx: usize, v: f32) {
        self.machine.write(self.addr(buf, idx));
        self.bufs[buf.id as usize][idx] = v;
    }

    #[inline]
    fn alu(&mut self, n: u64) {
        self.machine.alu(n);
    }

    #[inline]
    fn branch(&mut self, n: u64) {
        self.machine.branch(n);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uov_memsim::machines;

    #[test]
    fn plain_memory_round_trip() {
        let mut m = PlainMemory::new();
        let a = m.alloc(4);
        let b = m.alloc(2);
        m.write(a, 3, 7.0);
        m.write(b, 0, -1.0);
        assert_eq!(m.read(a, 3), 7.0);
        assert_eq!(m.read(a, 0), 0.0);
        assert_eq!(m.read(b, 0), -1.0);
        assert_eq!(m.contents(a), &[0.0, 0.0, 0.0, 7.0]);
    }

    #[test]
    fn traced_memory_counts_accesses_and_matches_values() {
        let mut m = TracedMemory::new(machines::pentium_pro());
        let a = m.alloc(128);
        for i in 0..128 {
            m.write(a, i, i as f32);
        }
        for i in 0..128 {
            assert_eq!(m.read(a, i), i as f32);
        }
        assert_eq!(m.machine().stats().accesses, 256);
        assert!(m.machine().cycles() > 0);
    }

    #[test]
    fn buffers_do_not_share_pages() {
        let mut m = TracedMemory::new(machines::pentium_pro());
        let a = m.alloc(1);
        let b = m.alloc(1);
        assert!(m.addr(b, 0) - m.addr(a, 0) >= 8 << 10);
    }

    #[test]
    fn plain_alu_is_free() {
        let mut m = PlainMemory::new();
        m.alu(1_000_000);
        m.branch(1_000_000);
        // No counters to check — the point is that it compiles to nothing
        // and doesn't panic.
    }
}
