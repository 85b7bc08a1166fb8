//! Cross-crate integration: the full compiler pipeline — IR → dependence
//! analysis → UOV search → storage mapping → schedule-independent
//! execution — on every loop the paper discusses.

use uov::core::search::{find_best_uov, Objective, SearchConfig};
use uov::core::DoneOracle;
use uov::isg::{IVec, RectDomain};
use uov::loopir::{analysis, examples, interp};
use uov::schedule::{legality, random_topological_order, LoopSchedule};
use uov::storage::legality::{check_order, schedule_independent_on_samples};
use uov::storage::{Layout, OvMap, StorageMap};

fn border(_array: usize, e: &IVec) -> f64 {
    (e.iter()
        .enumerate()
        .map(|(k, &c)| (k as i64 + 1) * c)
        .sum::<i64>()) as f64
        * 0.01
        + 1.0
}

#[test]
fn fig1_full_pipeline() {
    let nest = examples::fig1_nest(7, 5);
    let stencil = analysis::flow_stencil(&nest, 0).expect("regular loop");
    let best = find_best_uov(
        &stencil,
        Objective::ShortestVector,
        &SearchConfig::default(),
    )
    .expect("stencil is in range");
    assert_eq!(best.uov, IVec::from([1, 1]));

    let map = OvMap::new(nest.domain(), best.uov.clone(), Layout::Interleaved);
    // Storage ~ n + m − 1 on the borderless interior domain.
    assert_eq!(map.size(), 7 + 5 - 1);

    // Conflict-free under sampled legal schedules…
    assert!(schedule_independent_on_samples(nest.domain(), &stencil, &map, 32).is_ok());

    // …and semantics-preserving through the interpreter.
    let live_out: Vec<(usize, IVec)> = (1..=5).map(|j| (0usize, IVec::from([7, j]))).collect();
    for schedule in [
        LoopSchedule::Lexicographic,
        LoopSchedule::Interchange(vec![1, 0]),
        LoopSchedule::tiled(vec![3, 2]),
        LoopSchedule::Wavefront(IVec::from([1, 1])),
    ] {
        let order = schedule.order(nest.domain());
        interp::assert_mapping_preserves_semantics(&nest, 0, &map, &order, &border, &live_out);
    }
}

#[test]
fn stencil5_full_pipeline() {
    let nest = examples::stencil5_nest(6, 14);
    let stencil = analysis::flow_stencil(&nest, 0).expect("regular loop");
    assert_eq!(stencil.len(), 5);

    // The optimal UOV is the paper's (2,0); rectangular tiling is illegal
    // but skew-2 tiling works.
    let best = find_best_uov(
        &stencil,
        Objective::ShortestVector,
        &SearchConfig::default(),
    )
    .expect("stencil is in range");
    assert_eq!(best.uov, IVec::from([2, 0]));
    assert!(!legality::rectangular_tiling_legal(&stencil));
    assert_eq!(legality::skew_factor_for_tiling(&stencil), Some(2));

    for layout in [Layout::Interleaved, Layout::Blocked] {
        let map = OvMap::new(nest.domain(), best.uov.clone(), layout);
        assert_eq!(map.size(), 2 * 14, "two rows of storage (Table 1)");
        let order = LoopSchedule::skewed_tiled_2d(2, vec![2, 5]).order(nest.domain());
        assert!(check_order(&order, nest.domain(), &stencil, &map).is_ok());
        let live_out: Vec<(usize, IVec)> = (0..14).map(|x| (0usize, IVec::from([6, x]))).collect();
        interp::assert_mapping_preserves_semantics(&nest, 0, &map, &order, &border, &live_out);
    }
}

#[test]
fn psm_per_statement_pipeline() {
    // Each assignment of the PSM nest gets its own stencil and its own
    // disjoint OV-mapped storage (paper §3, first paragraph).
    let nest = examples::psm_nest(6, 8);
    let h_stencil = analysis::flow_stencil(&nest, 0).expect("H is regular");
    let e_stencil = analysis::flow_stencil(&nest, 1).expect("E is regular");

    let h_best = find_best_uov(
        &h_stencil,
        Objective::ShortestVector,
        &SearchConfig::default(),
    )
    .expect("stencil is in range");
    let e_best = find_best_uov(
        &e_stencil,
        Objective::ShortestVector,
        &SearchConfig::default(),
    )
    .expect("stencil is in range");
    assert_eq!(h_best.uov, IVec::from([1, 1]));
    assert_eq!(e_best.uov, IVec::from([1, 0]));

    let h_map = OvMap::new(nest.domain(), h_best.uov.clone(), Layout::Interleaved);
    let e_map = OvMap::new(nest.domain(), e_best.uov.clone(), Layout::Interleaved);
    assert!(schedule_independent_on_samples(nest.domain(), &h_stencil, &h_map, 16).is_ok());
    assert!(schedule_independent_on_samples(nest.domain(), &e_stencil, &e_map, 16).is_ok());

    // Both statements mapped at once, interpreted under hostile orders.
    // (H's stencil is the coarser one; any order legal for it is legal for
    // E's {(1,0)} as well.)
    let reference = interp::run_natural(&nest, &border);
    for seed in 0..8 {
        let order = random_topological_order(nest.domain(), &h_stencil, seed);
        let maps: Vec<Option<&dyn StorageMap>> = vec![Some(&h_map), Some(&e_map)];
        let live_out: Vec<(usize, IVec)> = (1..=8).map(|j| (0usize, IVec::from([6, j]))).collect();
        let out = interp::run(&nest, &order, &maps, &border, &live_out);
        for key in &live_out {
            assert_eq!(
                out[key], reference[key],
                "mismatch at {key:?} (seed {seed})"
            );
        }
    }
}

#[test]
fn region_analysis_identifies_temporaries() {
    use std::collections::BTreeSet;
    let nest = examples::fig1_nest(5, 5);
    let regions = analysis::RegionAnalysis::run(&nest, 0).expect("regular");
    // Imported: row 0 and column 0 (the loop's inputs).
    assert!(regions.imported.iter().all(|e| e[0] == 0 || e[1] == 0));
    // Temporaries given a live-out last row: everything except row 5.
    let live_out: BTreeSet<IVec> = (1..=5).map(|j| IVec::from([5, j])).collect();
    let temps = regions.temporaries(&live_out);
    assert_eq!(temps.len(), 25 - 5);
}

#[test]
fn known_bounds_objective_integrates_with_mapping() {
    // Pick the storage-optimal UOV for a wide, short domain and check the
    // mapping's size equals the search's predicted cost.
    let nest = examples::fig1_nest(3, 30);
    let stencil = analysis::flow_stencil(&nest, 0).expect("regular");
    let best = find_best_uov(
        &stencil,
        Objective::KnownBounds(nest.domain()),
        &SearchConfig::default(),
    )
    .expect("stencil is in range");
    let map = OvMap::new(nest.domain(), best.uov.clone(), Layout::Interleaved);
    assert_eq!(map.size() as u128, best.cost);
    assert!(DoneOracle::new(&stencil).is_uov(&best.uov));
    // On a 3×30 domain a time-directed OV (3 classes/column ≤ 30+2
    // diagonals) beats the diagonal: sanity-check the economy.
    let diag = OvMap::new(nest.domain(), IVec::from([1, 1]), Layout::Interleaved);
    assert!(map.size() <= diag.size());
}

#[test]
fn natural_and_mapped_agree_on_a_bigger_grid() {
    let nest = examples::fig1_nest(12, 9);
    let stencil = analysis::flow_stencil(&nest, 0).expect("regular");
    let map = OvMap::new(nest.domain(), IVec::from([1, 1]), Layout::Blocked);
    let live_out: Vec<(usize, IVec)> = (1..=9).map(|j| (0usize, IVec::from([12, j]))).collect();
    for seed in 100..108 {
        let order = random_topological_order(nest.domain(), &stencil, seed);
        interp::assert_mapping_preserves_semantics(&nest, 0, &map, &order, &border, &live_out);
    }
    let _ = RectDomain::grid(2, 2); // keep the import exercised
}

#[test]
fn uov_mapping_survives_hierarchical_tiling() {
    // §7 future work: multi-level tiling. The schedule-independent
    // mapping needs no adjustment when the tiling gains levels.
    use uov::isg::{ivec, Stencil};
    use uov::schedule::{legality::skew_matrix_2d, HierarchicalTiling};
    let s = Stencil::new(vec![
        ivec![1, -2],
        ivec![1, -1],
        ivec![1, 0],
        ivec![1, 1],
        ivec![1, 2],
    ])
    .unwrap();
    let dom = RectDomain::new(ivec![0, 0], ivec![9, 13]);
    let map = OvMap::new(&dom, ivec![2, 0], Layout::Interleaved);
    let skew = skew_matrix_2d(2);
    for (outer, inner) in [(vec![4, 8], vec![2, 4]), (vec![6, 12], vec![3, 3])] {
        let order = HierarchicalTiling::new(outer, inner)
            .transformed(skew.clone())
            .order(&dom);
        assert!(
            check_order(&order, &dom, &s, &map).is_ok(),
            "UOV mapping must survive two-level tiling"
        );
    }
}

#[test]
fn triangular_domain_storage_counting() {
    // A lower-triangular nest (footnote 6's A·i ≤ b form): the UOV theory
    // and mappings work unchanged on non-rectangular ISGs.
    use uov::core::objective::{storage_class_count, storage_class_count_exact};
    use uov::isg::{ivec, IterationDomain as _, Polygon2};
    let tri = Polygon2::new(vec![(0, 0), (12, 0), (12, 12)]).expect("a triangle");
    for ov in [ivec![1, 1], ivec![1, 0], ivec![2, 1]] {
        let formula = storage_class_count(&tri, &ov);
        let exact = storage_class_count_exact(&tri, &ov);
        assert!(formula >= exact, "allocation must cover occupied classes");
        assert!(formula <= tri.num_points());
    }
    // Diagonal reuse on the triangle: classes = span of (−1,1) = 13.
    assert_eq!(storage_class_count(&tri, &ivec![1, 1]), 13);

    // And the mapping itself is conflict-free... on the bounding rectangle
    // the checker runs; on the triangle we verify address injectivity per
    // anti-diagonal directly.
    use uov::storage::{Layout, OvMap, StorageMap};
    let map = OvMap::new(&tri, ivec![1, 1], Layout::Interleaved);
    assert_eq!(map.size(), 13);
    for p in tri.points() {
        assert!(map.map(&p) < map.size());
        let q = &p + &ivec![1, 1];
        if tri.contains(&q) {
            assert_eq!(map.map(&p), map.map(&q));
        }
        let r = &p + &ivec![1, 0];
        if tri.contains(&r) {
            assert_ne!(map.map(&p), map.map(&r));
        }
    }
}
