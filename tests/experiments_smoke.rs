//! Smoke-test every experiment at quick scale and check the qualitative
//! shapes the paper reports.

use uov::bench::{experiments, Scale};

#[test]
fn every_experiment_runs_and_is_nonempty() {
    for name in experiments::all_names() {
        let tables = experiments::run(name, Scale::Quick)
            .unwrap_or_else(|| panic!("unknown experiment {name}"));
        assert!(!tables.is_empty(), "{name} produced no tables");
        for t in &tables {
            assert!(
                !t.rows().is_empty(),
                "{name}: table `{}` is empty",
                t.title()
            );
            assert!(t.to_markdown().contains("###"));
            assert!(!t.to_csv().is_empty());
        }
    }
}

#[test]
fn unknown_experiment_is_rejected() {
    assert!(experiments::run("fig99", Scale::Quick).is_none());
}

fn series(table: &uov::bench::Table, label: &str) -> Vec<f64> {
    table
        .rows()
        .iter()
        .find(|r| r[0] == label)
        .unwrap_or_else(|| panic!("missing series {label}"))[1..]
        .iter()
        .filter_map(|c| c.parse().ok())
        .collect()
}

#[test]
fn stencil_scaling_shapes_hold_on_all_machines() {
    for machine in 0..3 {
        let t = &experiments::run(["fig9", "fig10", "fig11"][machine], Scale::Quick).unwrap()[0];
        let natural = series(t, "Natural");
        let ov_tiled = series(t, "OV-Mapped Tiled");
        // At the largest quick size the tiled OV version wins against
        // untiled natural on every machine.
        assert!(
            ov_tiled.last().unwrap() < natural.last().unwrap(),
            "machine {machine}: tiled OV must win out of cache"
        );
    }
}

#[test]
fn psm_overhead_ordering_matches_fig8() {
    let t = &experiments::run("fig8", Scale::Quick).unwrap()[0];
    // Rows: Storage Optimized, Natural, OV-Mapped. Column per machine.
    for col in 1..=3 {
        let opt: f64 = t.rows()[0][col].parse().unwrap();
        let nat: f64 = t.rows()[1][col].parse().unwrap();
        let ov: f64 = t.rows()[2][col].parse().unwrap();
        assert!(opt < nat, "storage-optimized must have the least overhead");
        assert!(ov < nat, "OV-mapped must beat natural (Fig 8)");
    }
}

#[test]
fn npc_table_agrees_everywhere() {
    let t = &experiments::run("npc", Scale::Quick).unwrap()[0];
    for row in t.rows() {
        assert_eq!(row[2], row[3], "DP vs UOV disagreement: {row:?}");
    }
}

#[test]
fn ablation_confirms_optimality() {
    let tables = experiments::run("ablation", Scale::Quick).unwrap();
    assert_eq!(tables.len(), 4);
    for row in tables[0].rows() {
        if row[7] != "(skipped)" {
            assert_eq!(row[7], "true", "B&B missed the optimum: {row:?}");
        }
    }
}
