//! Occupancy-vector storage mappings (paper §4).
//!
//! After an occupancy vector has been chosen, the compiler must produce a
//! *storage mapping*: a function from iteration points to indices in
//! one-dimensional memory such that
//!
//! 1. points `ov` apart share a location,
//! 2. every point maps to an integer location,
//! 3. locations are consecutive (`0 .. size`).
//!
//! The paper derives the 2-D mapping vector `(i, j) → (−j, i)` for prime
//! OVs, adds a `modterm` for non-prime OVs (with *interleaved* or *blocked*
//! layout, §4.2), and counts allocations by projecting the ISG's extreme
//! points (§4.3). [`OvMap`] implements all of that for any dimension via a
//! unimodular lattice reduction that specialises to the paper's formulas in
//! 2-D.
//!
//! The crate also provides the machinery that makes schedule-independence
//! *checkable*: [`legality::check_order`] simulates an arbitrary execution
//! order against a mapping and reports the first liveness conflict, and
//! [`legality::schedule_independent_on_samples`] drives it with adversarial
//! random topological orders.
//!
//! # Example
//!
//! ```
//! use uov_isg::{ivec, IterationDomain, RectDomain};
//! use uov_storage::{OvMap, StorageMap, Layout};
//!
//! // Figure 1(b): UOV (1,1) on the bordered n×m grid needs n+m+1 cells.
//! let (n, m) = (6, 4);
//! let domain = RectDomain::new(ivec![0, 0], ivec![n, m]);
//! let map = OvMap::new(&domain, ivec![1, 1], Layout::Interleaved);
//! assert_eq!(map.size(), (n + m + 1) as usize);
//!
//! // Points one OV apart share storage; neighbours do not.
//! assert_eq!(map.map(&ivec![1, 1]), map.map(&ivec![2, 2]));
//! assert_ne!(map.map(&ivec![1, 1]), map.map(&ivec![1, 2]));
//! ```

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod baseline;
pub mod error;
pub mod legality;
pub mod mapping;

pub use error::MappingError;
pub use legality::{check_order, Conflict};
pub use mapping::{Layout, NaturalMap, OvMap, StorageMap};
