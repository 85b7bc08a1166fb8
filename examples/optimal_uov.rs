//! Exploring the UOV search: shortest-vector vs known-bounds objectives
//! (the Figure-3 lesson), search budgets, and the NP-completeness
//! reduction from PARTITION.
//!
//! Run with: `cargo run --release --example optimal_uov`

use uov::core::npc::PartitionInstance;
use uov::core::objective::storage_class_count;
use uov::core::search::{find_best_uov, Objective, SearchConfig};
use uov::core::Budget;
use uov::isg::{ivec, Polygon2, Stencil};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // --- Figure 3: on a skewed ISG, the shortest UOV wastes storage. ---
    let stencil = Stencil::new(vec![ivec![1, -1], ivec![1, 0], ivec![1, 1], ivec![0, 1]])?;
    let isg = Polygon2::fig3_isg();

    let shortest = find_best_uov(
        &stencil,
        Objective::ShortestVector,
        &SearchConfig::default(),
    )?;
    let storage = find_best_uov(
        &stencil,
        Objective::KnownBounds(&isg),
        &SearchConfig::default(),
    )?;
    println!("Figure-3 ISG (skewed parallelogram):");
    println!(
        "  shortest UOV    = {}  → {} storage cells",
        shortest.uov,
        storage_class_count(&isg, &shortest.uov)
    );
    println!(
        "  known-bounds UOV = {} → {} storage cells",
        storage.uov, storage.cost
    );
    println!("  (the paper's example: ov (3,1) needs 16 cells, (3,0) needs 27)\n");

    // --- Search budgets: the incumbent is legal from the first visit. ---
    let stencil5 = Stencil::new(vec![
        ivec![1, -2],
        ivec![1, -1],
        ivec![1, 0],
        ivec![1, 1],
        ivec![1, 2],
    ])?;
    println!("5-pt stencil under shrinking search budgets:");
    for nodes in [1u64, 4, 16, u64::MAX] {
        let budget = if nodes == u64::MAX {
            Budget::unlimited()
        } else {
            Budget::unlimited().with_max_nodes(nodes)
        };
        let res = find_best_uov(
            &stencil5,
            Objective::ShortestVector,
            &SearchConfig {
                budget,
                ..SearchConfig::default()
            },
        )?;
        println!(
            "  max nodes {:>4} → UOV {} (len² {}) complete={}",
            if nodes == u64::MAX {
                "∞".to_string()
            } else {
                nodes.to_string()
            },
            res.uov,
            res.cost,
            res.stats.complete
        );
    }

    // --- NP-completeness: PARTITION answered through UOV membership. ---
    println!("\nPARTITION via the §3.1 reduction:");
    for values in [
        vec![3, 1, 1, 2, 2, 1],
        vec![1, 3],
        vec![8, 7, 6, 5, 4, 3, 2, 1],
    ] {
        let inst = PartitionInstance::new(values.clone())?;
        let dp = inst.solve_brute();
        let uov = inst.solve_via_uov();
        assert_eq!(dp, uov);
        println!("  {values:?} → partitionable = {uov}");
    }
    Ok(())
}
