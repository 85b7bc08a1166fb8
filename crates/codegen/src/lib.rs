//! `uov-codegen`: executable tiled-kernel generation from certified
//! UOV storage plans, plus a memsim-guided tile-size autotuner.
//!
//! Where `uov-loopir`'s emitter prints *pseudocode* for inspection, this
//! crate generates *programs*: standalone Rust sources whose loops
//! realise a legalised skewed tiling and whose array accesses go
//! through the paper's 1-D `mv·q + shift (+ modterm)` buffer form. The
//! generated programs are bit-identical to the `uov-loopir` interpreter
//! over shared deterministic inputs ([`input_value`]), which is what makes
//! the differential test-suite and the autotuner's checksum cross-checks
//! possible.
//!
//! Pipeline:
//!
//! 1. [`KernelSpec`] — nest + per-statement storage decision + schedule;
//! 2. [`emit_rust`] — render the spec as a Rust program speaking the
//!    `TIME_NS`/`CHECK`/`OUT` stdout protocol;
//!    [`emit_rust_variants`] renders several loop orders of one spec as
//!    variants of one program, picked by the name it is invoked under;
//! 3. [`compile`] — out-of-process `rustc` with hard timeouts and
//!    typed failures, never a panic or a hang;
//! 4. [`autotune()`] — enumerate legal tile sizes, rank all of them on a
//!    scaled-down `uov-memsim` machine, build the untiled baseline and the
//!    top K with one compile, wall-clock each, and degrade to memsim-only
//!    ranking when no toolchain exists.

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod autotune;
pub mod compile;
pub mod error;
pub mod kernel;
pub mod rust_src;

pub use autotune::{
    autotune, AutotuneConfig, AutotuneReport, CandidateReport, CandidateStatus, DegradeReason,
};
pub use compile::{compile_rust, find_tool, parse_output, run_kernel, RunOutput};
pub use error::CodegenError;
pub use kernel::{input_value, GenSchedule, KernelSpec, StmtAccess, StmtStorage};
pub use rust_src::{emit_rust, emit_rust_variants};
