//! Ablation of the branch-and-bound search (paper §3.2): how much work
//! the search does on a zoo of stencils, and what the objective choice
//! (shortest vector vs known bounds) changes.

use std::time::Duration;

use uov_core::budget::{Budget, Exhausted};
use uov_core::search::{exhaustive_best_uov, find_best_uov, Objective, SearchConfig};
use uov_isg::{IVec, Polygon2, RectDomain, Stencil};

use crate::report::Table;
use crate::Scale;

fn zoo() -> Vec<(&'static str, Stencil)> {
    let v = |coords: &[[i64; 2]]| -> Vec<IVec> { coords.iter().map(|&c| IVec::from(c)).collect() };
    vec![
        (
            "fig1 (3-pt)",
            Stencil::new(v(&[[1, 0], [0, 1], [1, 1]])).unwrap(),
        ),
        (
            "5-pt stencil",
            Stencil::new(v(&[[1, -2], [1, -1], [1, 0], [1, 1], [1, 2]])).unwrap(),
        ),
        (
            "fig2 (wedge)",
            Stencil::new(v(&[[1, -1], [1, 0], [1, 1]])).unwrap(),
        ),
        ("skewed pair", Stencil::new(v(&[[2, 1], [1, 3]])).unwrap()),
        (
            "wide fan",
            Stencil::new(v(&[[1, -3], [1, 0], [1, 3]])).unwrap(),
        ),
        (
            "9-pt stencil",
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

/// Search statistics per stencil: visits, pushes, prunes, and the found
/// optimum vs exhaustive enumeration.
pub fn search_stats(scale: Scale) -> Table {
    let mut t = Table::new(
        "§3.2 ablation — branch-and-bound search statistics (shortest-vector objective)",
        vec![
            "stencil".into(),
            "|V|".into(),
            "initial Σvᵢ".into(),
            "best UOV".into(),
            "visited".into(),
            "pushed".into(),
            "pruned".into(),
            "matches exhaustive".into(),
        ],
    );
    for (name, s) in zoo() {
        let res = find_best_uov(&s, Objective::ShortestVector, &SearchConfig::default())
            .expect("zoo stencils are in range");
        let verified = if scale == Scale::Full || s.len() <= 5 {
            let radius = i64::try_from(s.sum().max_abs()).expect("zoo stencils are small") + 1;
            exhaustive_best_uov(&s, Objective::ShortestVector, radius)
                .map(|ex| ex.cost == res.cost)
                .unwrap_or(false)
                .to_string()
        } else {
            "(skipped)".to_string()
        };
        t.push(vec![
            name.into(),
            s.len().to_string(),
            s.sum().to_string(),
            res.uov.to_string(),
            res.stats.visited.to_string(),
            res.stats.pushed.to_string(),
            res.stats.pruned.to_string(),
            verified,
        ]);
    }
    t
}

/// Objective comparison: the same stencil optimised for length vs for
/// storage on two domains (the Figure-3 lesson, quantified).
pub fn objective_comparison() -> Table {
    let s = Stencil::new(vec![
        IVec::from([1, -1]),
        IVec::from([1, 0]),
        IVec::from([1, 1]),
        IVec::from([0, 1]),
    ])
    .unwrap();
    let fig3 = Polygon2::fig3_isg();
    let square = RectDomain::grid(10, 10);
    let mut t = Table::new(
        "§3.2 ablation — shortest-vector vs known-bounds objective",
        vec![
            "domain".into(),
            "shortest UOV".into(),
            "its storage".into(),
            "storage-optimal UOV".into(),
            "its storage".into(),
        ],
    );
    let shortest = find_best_uov(&s, Objective::ShortestVector, &SearchConfig::default())
        .expect("fig3 stencil is in range");
    for (name, domain) in [
        ("fig3 skewed ISG", &fig3 as &dyn uov_isg::IterationDomain),
        ("10x10 grid", &square as &dyn uov_isg::IterationDomain),
    ] {
        let best = find_best_uov(&s, Objective::KnownBounds(domain), &SearchConfig::default())
            .expect("fig3 stencil is in range");
        let shortest_storage = uov_core::objective::storage_class_count(domain, &shortest.uov);
        t.push(vec![
            name.into(),
            shortest.uov.to_string(),
            shortest_storage.to_string(),
            best.uov.to_string(),
            best.cost.to_string(),
        ]);
    }
    t
}

/// Search-budget truncation: quality of the answer under a shrinking node
/// budget (the paper: "take the best answer found so far"). Each charged
/// node is one visited offset, hence the column name.
pub fn budget_truncation() -> Table {
    let s = Stencil::new(vec![
        IVec::from([1, -2]),
        IVec::from([1, -1]),
        IVec::from([1, 0]),
        IVec::from([1, 1]),
        IVec::from([1, 2]),
    ])
    .unwrap();
    let mut t = Table::new(
        "§3.2 ablation — answer quality vs search budget (5-pt stencil)",
        vec![
            "max visits".into(),
            "best UOV".into(),
            "cost (len²)".into(),
            "complete".into(),
        ],
    );
    for budget in [1u64, 2, 4, 8, 16, 64, u64::MAX] {
        let res = find_best_uov(
            &s,
            Objective::ShortestVector,
            &SearchConfig {
                budget: if budget == u64::MAX {
                    Budget::unlimited()
                } else {
                    Budget::unlimited().with_max_nodes(budget)
                },
                ..SearchConfig::default()
            },
        )
        .expect("5-pt stencil is in range");
        t.push(vec![
            if budget == u64::MAX {
                "∞".into()
            } else {
                budget.to_string()
            },
            res.uov.to_string(),
            res.cost.to_string(),
            res.stats.complete.to_string(),
        ]);
    }
    t
}

/// Graceful-degradation statistics: the zoo under deliberately tiny
/// resource budgets. Every run still yields a legal UOV (at worst the
/// initial `Σvᵢ`); the table records which resource ran out, whether the
/// answer fell back to `Σvᵢ`, and the memo size at truncation.
pub fn degradation_stats() -> Table {
    let mut t = Table::new(
        "§3.2 ablation — graceful degradation under tiny budgets",
        vec![
            "stencil".into(),
            "budget".into(),
            "UOV kept".into(),
            "fallback to Σvᵢ".into(),
            "exhausted by".into(),
            "memo at cutoff".into(),
        ],
    );
    let budgets: Vec<(&str, Budget)> = vec![
        (
            "deadline 0ns",
            Budget::unlimited().with_deadline(Duration::ZERO),
        ),
        ("4 nodes", Budget::unlimited().with_max_nodes(4)),
        ("memo 2", Budget::unlimited().with_max_memo_entries(2)),
    ];
    let mut deadline_hits = 0u64;
    let mut fallbacks = 0u64;
    let mut runs = 0u64;
    for (name, s) in zoo() {
        for (bname, budget) in &budgets {
            let res = find_best_uov(
                &s,
                Objective::ShortestVector,
                &SearchConfig {
                    budget: budget.clone(),
                    ..SearchConfig::default()
                },
            )
            .expect("zoo stencils are in range even under a tiny budget");
            runs += 1;
            let fell_back = res.uov == s.sum();
            fallbacks += u64::from(fell_back);
            let (reason, memo) = match &res.degradation {
                Some(d) => {
                    deadline_hits += u64::from(d.reason == Exhausted::Deadline);
                    (d.reason.to_string(), d.memo_entries_at_stop.to_string())
                }
                None => ("-".into(), "-".into()),
            };
            t.push(vec![
                name.into(),
                (*bname).into(),
                res.uov.to_string(),
                fell_back.to_string(),
                reason,
                memo,
            ]);
        }
    }
    t.push(vec![
        "TOTAL".into(),
        format!("{runs} runs"),
        String::new(),
        format!("{fallbacks} fallbacks"),
        format!("{deadline_hits} deadline hits"),
        String::new(),
    ]);
    t
}

/// Every ablation table at the given scale.
pub fn all(scale: Scale) -> Vec<Table> {
    vec![
        search_stats(scale),
        objective_comparison(),
        budget_truncation(),
        degradation_stats(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn search_always_matches_exhaustive_where_checked() {
        let t = search_stats(Scale::Full);
        for row in t.rows() {
            assert_eq!(row[7], "true", "exhaustive mismatch in {row:?}");
        }
    }

    #[test]
    fn fig3_objective_difference_shows() {
        let t = objective_comparison();
        let fig3_row = &t.rows()[0];
        let shortest_storage: u64 = fig3_row[2].parse().unwrap();
        let best_storage: u64 = fig3_row[4].parse().unwrap();
        assert!(best_storage <= shortest_storage);
    }

    #[test]
    fn degradation_stats_always_keep_a_legal_uov() {
        use uov_core::DoneOracle;
        let t = degradation_stats();
        let zoo_by_name: std::collections::HashMap<_, _> = zoo().into_iter().collect();
        for row in t.rows() {
            if row[0] == "TOTAL" {
                continue;
            }
            let s = &zoo_by_name[row[0].as_str()];
            let uov: IVec = row[2]
                .trim_matches(|c| c == '(' || c == ')')
                .split(", ")
                .map(|c| c.parse::<i64>().unwrap())
                .collect();
            assert!(
                DoneOracle::new(s).is_uov(&uov),
                "degraded answer must stay legal: {row:?}"
            );
        }
        // The zero deadline rows must all report a deadline degradation.
        let total = t.rows().last().unwrap().clone();
        assert!(total[4].starts_with(&zoo().len().to_string()), "{total:?}");
    }

    #[test]
    fn budget_is_monotone() {
        let t = budget_truncation();
        let costs: Vec<u128> = t.rows().iter().map(|r| r[2].parse().unwrap()).collect();
        for w in costs.windows(2) {
            assert!(w[1] <= w[0], "more budget must never worsen the answer");
        }
        assert_eq!(*costs.last().unwrap(), 4, "unbounded search finds (2,0)");
    }
}
