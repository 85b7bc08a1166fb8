//! Compile-time cost of the UOV machinery itself: cone-membership
//! queries, the branch-and-bound search (paper §3.2 — "our branch and
//! bound algorithm is practical"), and NPC-instance membership.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use uov_core::npc::PartitionInstance;
use uov_core::search::{find_best_uov, Objective, SearchConfig};
use uov_core::DoneOracle;
use uov_isg::{IVec, Stencil};

fn stencils() -> Vec<(&'static str, Stencil)> {
    let v = |coords: &[[i64; 2]]| -> Vec<IVec> { coords.iter().map(|&c| IVec::from(c)).collect() };
    vec![
        ("fig1", Stencil::new(v(&[[1, 0], [0, 1], [1, 1]])).unwrap()),
        (
            "stencil5",
            Stencil::new(v(&[[1, -2], [1, -1], [1, 0], [1, 1], [1, 2]])).unwrap(),
        ),
        (
            "9pt",
            Stencil::new(v(&[
                [1, -4],
                [1, -3],
                [1, -2],
                [1, -1],
                [1, 0],
                [1, 1],
                [1, 2],
                [1, 3],
                [1, 4],
            ]))
            .unwrap(),
        ),
    ]
}

fn bench_search(c: &mut Criterion) {
    let mut group = c.benchmark_group("uov_search");
    for (name, s) in stencils() {
        group.bench_with_input(BenchmarkId::new("branch_and_bound", name), &s, |b, s| {
            b.iter(|| find_best_uov(s, Objective::ShortestVector, &SearchConfig::default()))
        });
        group.bench_with_input(BenchmarkId::new("is_uov_cold", name), &s, |b, s| {
            let w = s.sum();
            b.iter(|| DoneOracle::new(s).is_uov(&w))
        });
    }
    group.finish();
}

fn bench_npc(c: &mut Criterion) {
    let mut group = c.benchmark_group("npc_membership");
    for n in [4usize, 6, 8] {
        let values: Vec<i64> = (1..=n as i64).collect();
        let inst = PartitionInstance::new(values).unwrap();
        group.bench_with_input(
            BenchmarkId::new("partition_via_uov", n),
            &inst,
            |b, inst| b.iter(|| inst.solve_via_uov()),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_search, bench_npc);
criterion_main!(benches);
