//! Integer-lattice mathematics and iteration-space geometry.
//!
//! This crate is the substrate shared by every other crate in the UOV
//! workspace. It models the objects of Strout et al., *Schedule-Independent
//! Storage Mapping for Loops* (ASPLOS 1998):
//!
//! * [`IVec`] — small integer vectors: iteration points, dependence
//!   distances, occupancy vectors and mapping vectors all live in `Z^d`.
//! * [`Stencil`] — the regular pattern of value dependences carried by every
//!   point of an iteration space graph (ISG).
//! * [`RectDomain`] / [`Polygon2`] — iteration domains (the set of ISG
//!   nodes), with extreme-point enumeration used for storage counting when
//!   loop bounds are known at compile time (paper §3.2, Fig. 3 and Fig. 6).
//! * [`IMat`] — dense integer matrices, including the unimodular completion
//!   used to build d-dimensional storage mappings (paper §4 generalised).
//! * number theory helpers ([`num`]) — gcd / extended gcd / lcm, which drive
//!   mapping-vector construction for prime and non-prime occupancy vectors.
//!
//! # Example
//!
//! ```
//! use uov_isg::{ivec, Stencil};
//!
//! // The stencil of Figure 1 of the paper: A[i,j] reads A[i-1,j], A[i,j-1]
//! // and A[i-1,j-1], so values flow along (1,0), (0,1) and (1,1).
//! let stencil = Stencil::new(vec![ivec![1, 0], ivec![0, 1], ivec![1, 1]])?;
//! assert_eq!(stencil.sum(), ivec![2, 2]); // the trivially legal UOV
//! # Ok::<(), uov_isg::StencilError>(())
//! ```

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod domain;
pub mod error;
pub mod matrix;
pub mod num;
pub mod poly;
pub mod project;
pub mod stencil;
pub mod vec;

pub use domain::{IterationDomain, RectDomain};
pub use error::IsgError;
pub use matrix::IMat;
pub use poly::Polygon2;
pub use stencil::{Stencil, StencilError};
pub use vec::IVec;
