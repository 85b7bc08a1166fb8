//! One module per experiment family.

pub mod ablation;
pub mod baseline;
pub mod extension;
pub mod npc;
pub mod overhead;
pub mod scaling;
pub mod storage;

use crate::{Scale, Table};

/// Run an experiment by its paper name (`fig1`, `table2`, `fig10`, `npc`,
/// `ablation`, …). Returns `None` for unknown names.
pub fn run(name: &str, scale: Scale) -> Option<Vec<Table>> {
    Some(match name {
        "fig1" => vec![storage::fig1()],
        "fig2" => vec![storage::fig2()],
        "fig3" => vec![storage::fig3()],
        "fig5" => vec![storage::fig5()],
        "fig6" => vec![storage::fig6()],
        "table1" => vec![storage::table1()],
        "table2" => vec![storage::table2()],
        "fig7" => vec![overhead::fig7(scale)],
        "fig8" => vec![overhead::fig8(scale)],
        "fig9" => vec![scaling::stencil5_scaling(0, scale)],
        "fig10" => vec![scaling::stencil5_scaling(1, scale)],
        "fig11" => vec![scaling::stencil5_scaling(2, scale)],
        "fig12" => vec![scaling::psm_scaling(0, scale)],
        "fig13" => vec![scaling::psm_scaling(1, scale)],
        "fig14" => vec![scaling::psm_scaling(2, scale)],
        "npc" => vec![npc::reduction_demo(scale)],
        "ablation" => ablation::all(scale),
        "jacobi" => vec![extension::jacobi(scale)],
        "tiles" => vec![extension::tile_sweep(scale)],
        "baseline" => vec![
            baseline::storage_vs_schedule(scale),
            baseline::storage_vs_schedule_no_diag(scale),
        ],
        _ => return None,
    })
}

/// Every experiment name, in paper order.
pub fn all_names() -> Vec<&'static str> {
    vec![
        "fig1", "fig2", "fig3", "fig5", "fig6", "table1", "table2", "fig7", "fig8", "fig9",
        "fig10", "fig11", "fig12", "fig13", "fig14", "npc", "ablation", "jacobi", "tiles",
        "baseline",
    ]
}
