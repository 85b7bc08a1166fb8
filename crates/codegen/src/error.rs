//! Typed errors for kernel generation, out-of-process compilation, and
//! autotuning. Every failure mode in this crate — including a missing
//! toolchain, a compiler diagnostic, and a hung candidate run — is a value
//! of [`CodegenError`]; nothing in the library path panics.

use std::fmt;
use std::io;

use uov_loopir::EmitError;

/// Any failure in the codegen pipeline.
#[derive(Debug)]
pub enum CodegenError {
    /// Symbolic access lowering failed (non-uniform write, unsupported
    /// mapping dimensionality).
    Emit(EmitError),
    /// Source generation supports 2-deep nests only (the paper's setting).
    UnsupportedDepth(usize),
    /// A `maps` slice did not line up with the nest's statement list.
    MapArity {
        /// Statements in the nest.
        stmts: usize,
        /// Entries supplied.
        maps: usize,
    },
    /// A tile extent was < 1.
    InvalidTile(i64),
    /// Tiling was requested but the plan found no legalising skew factor.
    TilingNotLegalized,
    /// No usable compiler binary was found (and none was configured).
    ToolchainMissing {
        /// The tool looked for (`rustc`).
        tool: String,
    },
    /// The compiler ran and rejected the source.
    CompileFailed {
        /// The tool invoked.
        tool: String,
        /// Its exit status, if it exited at all.
        status: Option<i32>,
        /// Trailing stderr for diagnosis.
        stderr: String,
    },
    /// A compile or run exceeded its wall-clock allowance and was killed.
    Timeout {
        /// What was running.
        what: String,
        /// The allowance that expired.
        millis: u64,
    },
    /// A generated binary exited nonzero.
    RunFailed {
        /// Its exit status, if it exited at all.
        status: Option<i32>,
        /// Trailing stderr for diagnosis.
        stderr: String,
    },
    /// A generated binary's stdout did not parse as the expected report.
    BadOutput(String),
    /// Filesystem or process-spawn failure (work dir, source write, exec).
    Io {
        /// What was being done.
        what: String,
        /// The underlying error.
        source: io::Error,
    },
}

impl fmt::Display for CodegenError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodegenError::Emit(e) => write!(f, "access lowering failed: {e}"),
            CodegenError::UnsupportedDepth(d) => {
                write!(f, "source generation supports 2-deep nests, got depth {d}")
            }
            CodegenError::MapArity { stmts, maps } => {
                write!(f, "nest has {stmts} statements but {maps} map entries")
            }
            CodegenError::InvalidTile(t) => write!(f, "tile extent must be >= 1, got {t}"),
            CodegenError::TilingNotLegalized => {
                write!(
                    f,
                    "tiling requested but the plan has no legalising skew factor"
                )
            }
            CodegenError::ToolchainMissing { tool } => {
                write!(f, "no `{tool}` binary found on PATH (and none configured)")
            }
            CodegenError::CompileFailed {
                tool,
                status,
                stderr,
            } => write!(
                f,
                "`{tool}` failed (status {status:?}): {}",
                stderr.trim_end()
            ),
            CodegenError::Timeout { what, millis } => {
                write!(f, "{what} exceeded {millis} ms and was killed")
            }
            CodegenError::RunFailed { status, stderr } => write!(
                f,
                "generated binary exited with status {status:?}: {}",
                stderr.trim_end()
            ),
            CodegenError::BadOutput(why) => write!(f, "unparseable kernel output: {why}"),
            CodegenError::Io { what, source } => write!(f, "{what}: {source}"),
        }
    }
}

impl std::error::Error for CodegenError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CodegenError::Emit(e) => Some(e),
            CodegenError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl From<EmitError> for CodegenError {
    fn from(e: EmitError) -> Self {
        CodegenError::Emit(e)
    }
}
