//! # uov — Schedule-Independent Storage Mapping for Loops
//!
//! A Rust reproduction of Strout, Carter, Ferrante and Simon,
//! *Schedule-Independent Storage Mapping for Loops* (ASPLOS 1998): the
//! **universal occupancy vector (UOV)**, a storage-reuse pattern for
//! regular loops that is legal under *every* schedule respecting the
//! loop's value dependences — so locality transformations like tiling
//! remain applicable after storage has been folded to near-minimal size.
//!
//! This facade re-exports the whole workspace:
//!
//! * [`isg`] — integer vectors, dependence stencils, iteration domains;
//! * [`core`] — DONE/DEAD sets, UOV membership (NP-complete; exact
//!   oracle), the branch-and-bound optimal-UOV search, the PARTITION
//!   reduction;
//! * [`storage`] — OV storage mappings (mapping vector, modterm,
//!   interleaved/blocked layouts) and liveness-based legality checking;
//! * [`schedule`] — lexicographic/interchange/skewed/wavefront/tiled
//!   schedules, legality checks, random topological orders;
//! * [`loopir`] — a perfect-nest IR with value-based dependence analysis,
//!   array region analysis and a reference interpreter;
//! * [`memsim`] — deterministic cache/TLB/memory models of the paper's
//!   three evaluation machines;
//! * [`kernels`] — the paper's two benchmark codes (5-point stencil,
//!   protein string matching) in every storage variant;
//! * [`service`] — a dependency-free planning server (framed binary
//!   protocol, canonicalizing plan cache, single-flight dedup, admission
//!   control) so one warm process answers for many compiler invocations;
//! * `bench` — the experiment harness regenerating every table and
//!   figure.
//!
//! # Quickstart
//!
//! ```
//! use uov::isg::{ivec, Stencil};
//! use uov::core::search::{find_best_uov, Objective, SearchConfig};
//! use uov::storage::{Layout, OvMap, StorageMap};
//! use uov::isg::RectDomain;
//!
//! // 1. Describe the loop's value dependences (Figure 1 of the paper).
//! let stencil = Stencil::new(vec![ivec![1, 0], ivec![0, 1], ivec![1, 1]])?;
//!
//! // 2. Find the optimal universal occupancy vector.
//! let best = find_best_uov(&stencil, Objective::ShortestVector, &SearchConfig::default())?;
//! assert_eq!(best.uov, ivec![1, 1]);
//!
//! // 3. Build the storage mapping: n+m+1 cells instead of n·m.
//! let domain = RectDomain::new(ivec![0, 0], ivec![100, 50]);
//! let map = OvMap::new(&domain, best.uov, Layout::Interleaved);
//! assert_eq!(map.size(), 151);
//!
//! // The mapping is safe under every legal schedule — that is what
//! // "universal" means, and what this workspace's tests verify.
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod driver;
pub mod error;

/// The README's Rust snippets, compiled and run as doctests.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
struct ReadmeDoctests;

pub use error::Error;

pub use uov_bench as bench;
pub use uov_codegen as codegen;
pub use uov_core as core;
pub use uov_isg as isg;
pub use uov_kernels as kernels;
pub use uov_loopir as loopir;
pub use uov_memsim as memsim;
pub use uov_schedule as schedule;
pub use uov_service as service;
pub use uov_storage as storage;
