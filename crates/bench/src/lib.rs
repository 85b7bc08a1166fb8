//! Experiment harness regenerating every table and figure of the paper's
//! evaluation (§5), plus the worked examples of §1–§4.
//!
//! Each experiment is a function returning a [`report::Table`]; the
//! `experiments` binary dispatches on experiment names and prints the
//! tables as markdown (and CSV under `results/`). The mapping from paper
//! artefact to experiment:
//!
//! | paper artefact | experiment | module |
//! |----------------|------------|--------|
//! | Figure 1 (storage of the 3 versions) | `fig1` | [`experiments::storage`] |
//! | Figure 3 (longer OV can win) | `fig3` | [`experiments::storage`] |
//! | Figure 5 (stencil-5 UOV) + Figure 6 | `fig5`, `fig6` | [`experiments::storage`] |
//! | Table 1 / Table 2 (kernel storage) | `table1`, `table2` | [`experiments::storage`] |
//! | Figure 7 / Figure 8 (overhead, in-cache) | `fig7`, `fig8` | [`experiments::overhead`] |
//! | Figures 9–11 (5-pt stencil scaling) | `fig9`, `fig10`, `fig11` | [`experiments::scaling`] |
//! | Figures 12–14 (PSM scaling) | `fig12`, `fig13`, `fig14` | [`experiments::scaling`] |
//! | §3.1 theorem (NP-completeness) | `npc` | [`experiments::npc`] |
//! | §3.2 search behaviour (ablation) | `ablation` | [`experiments::ablation`] |
//!
//! Cycles come from the deterministic machine models of `uov-memsim`
//! (substituting for the 1998 hardware — see DESIGN.md §5); wall-clock
//! counterparts live in `benches/`.

#![warn(missing_docs)]

pub mod experiments;
pub mod report;

pub use report::Table;

/// Deterministic parallel map for experiment sweeps: results come back in
/// input order, identical to the sequential map (see `uov_core::par`).
pub use uov_core::par::fan_out as par_map;

/// Worker threads for embarrassingly-parallel experiment sweeps: every
/// host core. [`par_map`] returns the same table at any thread count.
pub fn sweep_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// How big the experiment sweeps are.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Small sweeps for CI and smoke testing (seconds).
    Quick,
    /// The full sweeps used for EXPERIMENTS.md (minutes).
    Full,
}
