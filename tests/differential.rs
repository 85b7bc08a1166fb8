//! Differential suite: the branch-and-bound against its independent
//! references.
//!
//! For randomized stencils the engine must agree with the brute-force
//! `exhaustive_best_uov` enumeration wherever the search radius provably
//! contains the optimum, a search interrupted and resumed from its
//! snapshot must do the work of an uninterrupted one, and the planning
//! service must answer exactly what a direct search does.
//!
//! The stencil generator is seeded from the `UOV_TEST_SEED` environment
//! variable (default below) so CI can sweep seeds to vary the tested
//! stencils.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use uov::core::checkpoint::CheckpointConfig;
use uov::core::search::{
    exhaustive_best_uov, find_best_uov, search_resume, Objective, SearchConfig,
};
use uov::core::Budget;
use uov::isg::{IVec, RectDomain, Stencil};

fn seed_from_env() -> u64 {
    std::env::var("UOV_TEST_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0x5EED_0D1F)
}

/// A random valid stencil: `n` lexicographically positive vectors with
/// coordinates in `[-bound, bound]`.
fn random_stencil(rng: &mut StdRng, dim: usize, bound: i64, max_vecs: usize) -> Stencil {
    loop {
        let n = rng.gen_range(1..=max_vecs);
        let mut vs = Vec::with_capacity(n);
        for _ in 0..n {
            let v = loop {
                let cand: Vec<i64> = (0..dim).map(|_| rng.gen_range(-bound..=bound)).collect();
                let cand = IVec::from(cand);
                if cand.is_lex_positive() {
                    break cand;
                }
            };
            vs.push(v);
        }
        if let Ok(s) = Stencil::new(vs) {
            return s;
        }
    }
}

/// A search radius guaranteed to contain the shortest-vector optimum:
/// `‖w*‖₂ ≤ ‖Σvᵢ‖₂ ≤ Σ|initialᵢ|`, so the ∞-norm box of that radius
/// covers every candidate the branch-and-bound could prefer.
fn covering_radius(s: &Stencil) -> i64 {
    let initial = s.sum();
    (0..s.dim()).map(|i| initial[i].abs()).sum::<i64>() + 1
}

/// The branch-and-bound against brute force: enumerate every UOV in a
/// box known to contain the optimum and take the key-minimum. The search
/// must land on the identical vector.
#[test]
fn both_engines_match_exhaustive_within_covering_radius() {
    let mut rng = StdRng::seed_from_u64(seed_from_env() ^ 0xE8AA);
    for case in 0..16 {
        let s = random_stencil(&mut rng, 2, 2, 4);
        let radius = covering_radius(&s);
        let ex = exhaustive_best_uov(&s, Objective::ShortestVector, radius)
            .expect("the initial UOV is inside the covering radius");
        let bb = find_best_uov(&s, Objective::ShortestVector, &SearchConfig::default())
            .expect("small coordinates cannot overflow");
        assert_eq!(
            bb.cost, ex.cost,
            "case {case}: cost differs from exhaustive for {s:?}"
        );
        assert_eq!(
            bb.uov, ex.uov,
            "case {case}: tie-break differs from exhaustive for {s:?}"
        );
    }
}

/// Crash-safe resume under the same differential contract: interrupt a
/// seeded search after a random number of node charges, resume it from
/// the snapshot, and the final `(uov, cost)` must be **byte-identical**
/// to the uninterrupted run's, reached by the same work: every
/// `SearchStats` counter equal too.
#[test]
fn interrupted_then_resumed_search_is_byte_identical() {
    let mut rng = StdRng::seed_from_u64(seed_from_env() ^ 0xC4C4);
    for case in 0..12 {
        let dim = rng.gen_range(1usize..=3);
        let s = random_stencil(&mut rng, dim, 2, 4);
        let cut = rng.gen_range(1u64..40);
        let reference = find_best_uov(&s, Objective::ShortestVector, &SearchConfig::default())
            .expect("small coordinates cannot overflow");
        let mut path = std::env::temp_dir();
        path.push(format!(
            "uov_diff_resume_{}_{case}.ckpt",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        let interrupted = SearchConfig {
            budget: Budget::unlimited().with_max_nodes(cut),
            checkpoint: Some(CheckpointConfig {
                path: path.clone(),
                interval: 1,
            }),
            ..SearchConfig::default()
        };
        let partial = find_best_uov(&s, Objective::ShortestVector, &interrupted)
            .expect("a node cap never turns a valid instance into an error");
        assert_eq!(
            partial.checkpoint_error, None,
            "case {case}: snapshot write failed for {s:?}"
        );
        let resumed = search_resume(
            &path,
            &s,
            Objective::ShortestVector,
            &SearchConfig::default(),
        )
        .expect("a clean snapshot must resume");
        assert_eq!(
            (resumed.uov.clone(), resumed.cost),
            (reference.uov.clone(), reference.cost),
            "case {case}: resume diverged at cut={cut} for {s:?}"
        );
        assert_eq!(
            resumed.stats, reference.stats,
            "case {case}: resume at cut={cut} did other work than the uninterrupted run for {s:?}"
        );
        assert!(resumed.degradation.is_none(), "case {case}");
        let _ = std::fs::remove_file(&path);
    }
}

// ---------------------------------------------------------------------
// Planning service vs direct search: a service query, a direct
// `find_best_uov` (the same engine `driver::plan` runs per statement),
// and a cache-hit replay must all return the byte-identical
// `(uov, cost)` — including when the resubmission is coordinate-permuted
// and is answered through the canonicalizing cache.
// ---------------------------------------------------------------------

mod service_vs_direct {
    use super::{random_stencil, seed_from_env};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use uov::core::search::{find_best_uov, Objective, SearchConfig};
    use uov::isg::{ivec, IVec, RectDomain, Stencil};
    use uov::service::{
        serve, CacheOutcome, Client, ObjectiveSpec, PlanRequest, ReplicateRequest, ServerConfig,
        ServerHandle,
    };

    fn test_server() -> ServerHandle {
        serve("127.0.0.1:0", ServerConfig::default()).expect("bind test server")
    }

    fn query(
        client: &mut Client,
        stencil: &Stencil,
        objective: ObjectiveSpec,
    ) -> (IVec, u128, u64, CacheOutcome) {
        let resp = client
            .plan(&PlanRequest {
                stencil: stencil.clone(),
                objective,
                deadline_ms: 0,
                flags: 0,
            })
            .expect("service must answer a valid request");
        assert_eq!(
            resp.degradation,
            uov::service::DegradationCode::None,
            "an unlimited-deadline request must not degrade"
        );
        (resp.uov, resp.cost, resp.certificate_hash, resp.cache)
    }

    /// Every coordinate permutation of `s` that keeps all vectors
    /// lexicographically positive, as whole stencils, with its σ.
    fn valid_permutations(s: &Stencil) -> Vec<(Vec<usize>, Stencil)> {
        fn perms(n: usize) -> Vec<Vec<usize>> {
            if n == 1 {
                return vec![vec![0]];
            }
            let mut out = Vec::new();
            for p in perms(n - 1) {
                for slot in 0..n {
                    let mut q: Vec<usize> = p
                        .iter()
                        .map(|&x| if x >= slot { x + 1 } else { x })
                        .collect();
                    q.insert(0, slot);
                    out.push(q);
                }
            }
            out
        }
        let mut out = Vec::new();
        for perm in perms(s.dim()) {
            let vectors: Vec<IVec> = s
                .iter()
                .map(|v| IVec::from(perm.iter().map(|&k| v[k]).collect::<Vec<i64>>()))
                .collect();
            if !vectors.iter().all(IVec::is_lex_positive) {
                continue;
            }
            if let Ok(t) = Stencil::new(vectors) {
                out.push((perm, t));
            }
        }
        out
    }

    /// Cold service query ≡ direct search ≡ cache-hit replay, on seeded
    /// random stencils — the `(uov, cost)` triple byte-identical across
    /// all three, and the replay certificate-identical to the cold solve.
    #[test]
    fn service_query_equals_direct_search_equals_replay() {
        let server = test_server();
        let mut client = Client::connect(server.endpoint()).expect("connect");
        let mut rng = StdRng::seed_from_u64(seed_from_env() ^ 0x5E4C);
        for case in 0..24 {
            let dim = 1 + (case % 3);
            let s = random_stencil(&mut rng, dim, 2, 4);
            let direct = find_best_uov(&s, Objective::ShortestVector, &SearchConfig::default())
                .expect("small coordinates cannot overflow");
            let (cold_uov, cold_cost, cold_cert, _) =
                query(&mut client, &s, ObjectiveSpec::ShortestVector);
            let (re_uov, re_cost, re_cert, re_cache) =
                query(&mut client, &s, ObjectiveSpec::ShortestVector);
            assert_eq!(
                (cold_uov.clone(), cold_cost),
                (direct.uov.clone(), direct.cost),
                "case {case}: service diverged from direct search for {s:?}"
            );
            assert_eq!(
                (re_uov, re_cost),
                (cold_uov, cold_cost),
                "case {case}: replay diverged for {s:?}"
            );
            assert_eq!(re_cache, CacheOutcome::Hit, "case {case}: replay must hit");
            assert_eq!(
                re_cert, cold_cert,
                "case {case}: replay certificate differs from cold solve for {s:?}"
            );
        }
        server.shutdown();
        let stats = server.join();
        assert_eq!(stats.panics, 0);
        assert_eq!(stats.protocol_errors, 0);
    }

    /// Coordinate-permuted resubmission: the canonicalizing cache answers
    /// σ(problem) from the entry the unpermuted problem populated, and
    /// the answer must be byte-identical to a *direct search of the
    /// permuted problem* — the cache may never be observable.
    #[test]
    fn permuted_resubmission_is_byte_identical_to_its_own_direct_search() {
        let server = test_server();
        let mut client = Client::connect(server.endpoint()).expect("connect");
        let mut rng = StdRng::seed_from_u64(seed_from_env() ^ 0xCA70);
        for case in 0..12 {
            let dim = 2 + (case % 2);
            let s = random_stencil(&mut rng, dim, 2, 4);
            // Populate the canonical entry.
            let _ = query(&mut client, &s, ObjectiveSpec::ShortestVector);
            for (perm, permuted) in valid_permutations(&s) {
                let direct = find_best_uov(
                    &permuted,
                    Objective::ShortestVector,
                    &SearchConfig::default(),
                )
                .expect("small coordinates cannot overflow");
                let (uov, cost, _, cache) =
                    query(&mut client, &permuted, ObjectiveSpec::ShortestVector);
                assert_eq!(
                    (uov, cost),
                    (direct.uov.clone(), direct.cost),
                    "case {case}: σ={perm:?} answer diverged from direct search for {s:?}"
                );
                assert_eq!(
                    cache,
                    CacheOutcome::Hit,
                    "case {case}: σ={perm:?} must be answered from the canonical entry"
                );
            }
        }
        server.shutdown();
        assert_eq!(server.join().panics, 0);
    }

    /// The same permutation contract under the paper's storage objective:
    /// the domain permutes alongside the stencil, and the permuted query
    /// still matches its own direct search byte-for-byte. In 3-D the class
    /// count comes from a bounding box that depends on the basis, so the
    /// cost of an answer, and even the optimum, can move with the axis
    /// order; the cache keeps each 3-D order in a slot of its own.
    #[test]
    fn permuted_known_bounds_queries_match_direct_search() {
        let server = test_server();
        let mut client = Client::connect(server.endpoint()).expect("connect");
        let mut rng = StdRng::seed_from_u64(seed_from_env() ^ 0xD073);
        // Boxes with distinct sides, so every permutation is observable:
        // eight 2-D stencils, then four on each 3-D box.
        let boxes = [(vec![5, 8], 8), (vec![2, 5, 3], 4), (vec![4, 2, 6], 4)];
        let cases = boxes
            .iter()
            .flat_map(|(hi, n)| std::iter::repeat_n(hi, *n))
            .enumerate();
        for (case, hi) in cases {
            let hi = IVec::from(hi.clone());
            let lo = IVec::zero(hi.dim());
            let s = random_stencil(&mut rng, hi.dim(), 2, 4);
            let base_dom = RectDomain::new(lo.clone(), hi.clone());
            let _ = query(&mut client, &s, ObjectiveSpec::KnownBounds(base_dom));
            for (perm, permuted) in valid_permutations(&s) {
                let pdom = permuted_box(&lo, &hi, &perm);
                let direct = find_best_uov(
                    &permuted,
                    Objective::KnownBounds(&pdom),
                    &SearchConfig::default(),
                )
                .expect("small coordinates cannot overflow");
                let (uov, cost, _, _) =
                    query(&mut client, &permuted, ObjectiveSpec::KnownBounds(pdom));
                assert_eq!(
                    (uov, cost),
                    (direct.uov.clone(), direct.cost),
                    "case {case}: σ={perm:?} storage answer diverged for {s:?}"
                );
            }
        }
        server.shutdown();
        assert_eq!(server.join().panics, 0);

        // Replicated inserts: an answer pushed in its sender's axes to a
        // cold replica, then every axis order queried there. In 3-D the
        // optimum moves with the axis order, so only the sender's order
        // may be served from the pushed entry. On (1,1,1)..=(5,7,2) this
        // stencil's optimum costs 66 as sent and 63 in two other orders,
        // which a replica once answered with the pushed (3,0,3) at 66.
        let skew =
            Stencil::new(vec![ivec![0, 1, 1], ivec![1, 0, 1], ivec![1, 1, -1]]).expect("valid");
        let (pushed, _) =
            replicate_then_query_every_order(&skew, &ivec![1, 1, 1], &ivec![5, 7, 2], 0);
        assert_eq!(pushed, (ivec![3, 3, 0], 66));
        // diag3, pushed in its last lex-positive order: one order's
        // optimum costs 154 and the others' 192.
        let diag3 =
            Stencil::new(vec![ivec![1, 0, 0], ivec![0, 1, 0], ivec![1, 1, 1]]).expect("valid");
        let last = valid_permutations(&diag3).len() - 1;
        let (_, mut costs) =
            replicate_then_query_every_order(&diag3, &IVec::zero(3), &ivec![3, 7, 5], last);
        costs.sort_unstable();
        costs.dedup();
        assert_eq!(
            costs,
            [154, 192],
            "diag3's optimum moves with the axis order"
        );
    }

    /// Push the direct answer of `s` in its `sender`-th lex-positive axis
    /// order on `[lo, hi]` to a cold replica, then query every order
    /// there: each answer must equal its own direct search, and only the
    /// sender's order may hit. Returns the pushed `(uov, cost)` and each
    /// order's cost.
    fn replicate_then_query_every_order(
        s: &Stencil,
        lo: &IVec,
        hi: &IVec,
        sender: usize,
    ) -> ((IVec, u128), Vec<u128>) {
        let orders = valid_permutations(s);
        let (sender_perm, sender_stencil) = orders[sender].clone();
        let sender_dom = permuted_box(lo, hi, &sender_perm);
        let pushed = find_best_uov(
            &sender_stencil,
            Objective::KnownBounds(&sender_dom),
            &SearchConfig::default(),
        )
        .expect("small coordinates cannot overflow");
        let replica = test_server();
        let mut client = Client::connect(replica.endpoint()).expect("connect");
        let stored = client
            .replicate(&ReplicateRequest {
                stencil: sender_stencil,
                objective: ObjectiveSpec::KnownBounds(sender_dom),
                uov: pushed.uov.clone(),
                cost: pushed.cost,
            })
            .expect("a certified answer is accepted")
            .stored;
        assert!(stored, "the replica refused a certified answer");
        let mut served = Vec::new();
        for (perm, permuted) in orders {
            let pdom = permuted_box(lo, hi, &perm);
            let direct = find_best_uov(
                &permuted,
                Objective::KnownBounds(&pdom),
                &SearchConfig::default(),
            )
            .expect("small coordinates cannot overflow");
            let (uov, cost, _, cache) =
                query(&mut client, &permuted, ObjectiveSpec::KnownBounds(pdom));
            assert_eq!(
                (uov, cost),
                (direct.uov, direct.cost),
                "σ={perm:?} of {s:?}: the replica's answer diverged from direct search"
            );
            served.push((perm, cost, cache));
        }
        // Answers first, then how the cache produced them.
        for (perm, cost, cache) in &served {
            let want = if *perm == sender_perm {
                CacheOutcome::Hit
            } else {
                CacheOutcome::Miss
            };
            assert_eq!(*cache, want, "σ={perm:?} of {s:?} at cost {cost}");
        }
        let costs = served.iter().map(|&(_, cost, _)| cost).collect();
        replica.shutdown();
        assert_eq!(replica.join().panics, 0);
        ((pushed.uov, pushed.cost), costs)
    }

    /// `[lo, hi]` with its axes permuted by `perm`.
    fn permuted_box(lo: &IVec, hi: &IVec, perm: &[usize]) -> RectDomain {
        let pick = |v: &IVec| IVec::from(perm.iter().map(|&k| v[k]).collect::<Vec<i64>>());
        RectDomain::new(pick(lo), pick(hi))
    }
}

/// Resuming a *completed* search is a no-op that returns the same answer:
/// the final snapshot of a finished run has an empty frontier, and
/// resuming it must simply re-emit the incumbent.
#[test]
fn resuming_a_completed_search_returns_the_same_answer() {
    let mut rng = StdRng::seed_from_u64(seed_from_env() ^ 0x1D1D);
    let s = random_stencil(&mut rng, 2, 2, 4);
    let mut path = std::env::temp_dir();
    path.push(format!("uov_diff_complete_{}.ckpt", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let config = SearchConfig {
        checkpoint: Some(CheckpointConfig {
            path: path.clone(),
            interval: 4,
        }),
        ..SearchConfig::default()
    };
    let done = find_best_uov(&s, Objective::ShortestVector, &config).expect("in range");
    assert_eq!(done.checkpoint_error, None);
    let resumed = search_resume(
        &path,
        &s,
        Objective::ShortestVector,
        &SearchConfig::default(),
    )
    .expect("a final snapshot must resume");
    assert_eq!((resumed.uov, resumed.cost), (done.uov, done.cost));
    let _ = std::fs::remove_file(&path);
}

// ---------------------------------------------------------------------
// Kernel zoo: the paper's named stencils, pinned as fixed instances so
// the dense engine is compared against the old engine's committed
// answers (uov, cost), each certified by the independent checker.
// ---------------------------------------------------------------------

mod kernel_zoo {
    use super::*;
    use uov::core::certify::certify;
    use uov::isg::ivec;

    /// Named stencils with their known-optimal shortest UOVs. The
    /// expected vectors are the old engine's answers (each is also easy
    /// to verify by hand against §3 of the paper); a dense-engine
    /// divergence here is a correctness bug, not a perf artifact.
    fn zoo() -> Vec<(&'static str, Stencil, IVec, u128)> {
        vec![
            (
                "fig1-pipeline",
                Stencil::new(vec![ivec![1, 0], ivec![0, 1], ivec![1, 1]]).unwrap(),
                ivec![1, 1],
                2,
            ),
            (
                "stencil5",
                Stencil::new(vec![
                    ivec![1, -2],
                    ivec![1, -1],
                    ivec![1, 0],
                    ivec![1, 1],
                    ivec![1, 2],
                ])
                .unwrap(),
                ivec![2, 0],
                4,
            ),
            (
                "jacobi-1d",
                Stencil::new(vec![ivec![1, -1], ivec![1, 0], ivec![1, 1]]).unwrap(),
                ivec![2, 0],
                4,
            ),
            (
                "psm-h",
                Stencil::new(vec![ivec![1, 1], ivec![1, 0], ivec![0, 1]]).unwrap(),
                ivec![1, 1],
                2,
            ),
            (
                "semigroup-23",
                Stencil::new(vec![ivec![2], ivec![3]]).unwrap(),
                ivec![5],
                25,
            ),
            (
                "skewed-wavefront",
                Stencil::new(vec![ivec![1, 1], ivec![2, 1]]).unwrap(),
                ivec![3, 2],
                13,
            ),
        ]
    }

    /// Every zoo kernel solves to its pinned `(uov, cost)`, and the
    /// independent checker certifies that answer.
    #[test]
    fn zoo_answers_are_pinned_and_certified() {
        for (name, s, expect_uov, expect_cost) in zoo() {
            let best = find_best_uov(&s, Objective::ShortestVector, &SearchConfig::default())
                .unwrap_or_else(|e| panic!("{name}: search failed: {e}"));
            assert_eq!(
                best.uov, expect_uov,
                "{name}: uov drifted from pinned answer"
            );
            assert_eq!(best.cost, expect_cost, "{name}: cost drifted");
            let cert = certify(&s, &Objective::ShortestVector, &best)
                .unwrap_or_else(|e| panic!("{name}: result failed certify: {e}"));
            assert_eq!((cert.uov, cert.cost), (expect_uov, expect_cost), "{name}");
        }
    }
}

// ---------------------------------------------------------------------
// Storage-class counting: the search's allocation-free counter against
// the allocating count it replaced, kept here as a test-local reference
// (row-vector lattice reduction over `IVec`s, `try_form_range` per
// projected row, `num_points` cap). The two must agree on every `Ok`
// value and fail on exactly the same inputs, overflow included.
// ---------------------------------------------------------------------

mod class_count {
    use super::*;
    use uov::core::objective::{try_storage_class_count, ClassCounter};
    use uov::isg::num::checked_extended_gcd;
    use uov::isg::project::try_form_range;
    use uov::isg::{HalfspaceDomain2, IMat, IsgError, IterationDomain, Polygon2};

    /// The row-vector reduction: rows of the unimodular `W` with
    /// `W·v = (content, 0, …, 0)`, every row operation overflow-checked.
    fn reference_reduction(v: &IVec) -> Result<Vec<IVec>, IsgError> {
        if v.is_zero() {
            return Err(IsgError::ZeroVector);
        }
        v.try_content()?;
        let d = v.dim();
        let mut w: Vec<IVec> = (0..d).map(|k| IVec::unit(d, k)).collect();
        let mut cur = v.as_slice().to_vec();
        for i in 1..d {
            let (a, b) = (cur[0], cur[i]);
            if b == 0 {
                continue;
            }
            let (g, x, y) =
                checked_extended_gcd(a, b).ok_or(IsgError::Overflow("reference gcd"))?;
            let neg_b_over_g = (b / g)
                .checked_neg()
                .ok_or(IsgError::Overflow("reference coefficient"))?;
            let new0 = w[0]
                .checked_scaled(x)?
                .checked_add(&w[i].checked_scaled(y)?)?;
            let newi = w[0]
                .checked_scaled(neg_b_over_g)?
                .checked_add(&w[i].checked_scaled(a / g)?)?;
            (w[0], w[i]) = (new0, newi);
            (cur[0], cur[i]) = (g, 0);
        }
        if cur[0] < 0 {
            w[0] = w[0].checked_scaled(-1)?;
        }
        Ok(w)
    }

    fn reference_count(domain: &dyn IterationDomain, ov: &IVec) -> Result<u64, IsgError> {
        if ov.is_zero() {
            return Err(IsgError::ZeroVector);
        }
        if ov.dim() != domain.dim() {
            return Err(IsgError::DimMismatch {
                expected: domain.dim(),
                found: ov.dim(),
            });
        }
        let mut classes = ov.try_content()? as u64;
        for form in &reference_reduction(ov)?[1..] {
            let (lo, hi) = try_form_range(domain, form)?;
            let span = hi
                .checked_sub(lo)
                .and_then(|s| s.checked_add(1))
                .ok_or(IsgError::Overflow("reference span"))?;
            classes = classes.saturating_mul(span as u64);
        }
        Ok(classes.min(domain.num_points()))
    }

    /// One coordinate: mostly small, sometimes mid-sized, sometimes at or
    /// within a few steps of ±i64::MAX and i64::MIN.
    fn coord(rng: &mut StdRng) -> i64 {
        match rng.gen_range(0u32..10) {
            0..=5 => rng.gen_range(-6i64..=6),
            6 => rng.gen_range(-1_000_000i64..=1_000_000),
            7 => i64::MAX - rng.gen_range(0i64..=3),
            8 => i64::MIN + rng.gen_range(0i64..=3),
            _ => rng.gen_range(-(1i64 << 40)..=(1i64 << 40)),
        }
    }

    /// A random box of dimension `dim`: small in three cases of four, with
    /// a bound near the i64 extremes (so spans overflow) otherwise.
    fn random_box(rng: &mut StdRng, dim: usize) -> RectDomain {
        let huge = rng.gen_range(0u32..4) == 0;
        let (lo, hi): (Vec<i64>, Vec<i64>) = (0..dim)
            .map(|_| {
                if huge {
                    let lo = rng.gen_range(i64::MIN..=0);
                    (lo, rng.gen_range(0..=i64::MAX))
                } else {
                    let lo = rng.gen_range(-20i64..=20);
                    (lo, lo + rng.gen_range(0i64..=30))
                }
            })
            .unzip();
        RectDomain::new(IVec::from(lo), IVec::from(hi))
    }

    #[test]
    fn counter_matches_the_allocating_reference() {
        let mut rng = StdRng::seed_from_u64(seed_from_env() ^ 0xC1A55);
        let mut domains: Vec<Box<dyn IterationDomain>> = vec![
            Box::new(Polygon2::fig3_isg()),
            Box::new(HalfspaceDomain2::lower_triangle(1, 12)),
        ];
        for _ in 0..48 {
            let dim = rng.gen_range(1usize..=4);
            domains.push(Box::new(random_box(&mut rng, dim)));
        }
        // One scratch buffer across every domain and dimension: a count
        // must not depend on what the previous one left behind.
        let mut scratch = Vec::new();
        let (mut oks, mut errs) = (0u32, 0u32);
        for (case, domain) in domains.iter().enumerate() {
            let domain: &dyn IterationDomain = domain.as_ref();
            let counter = ClassCounter::new(domain);
            for _ in 0..40 {
                // Mostly the domain's dimension; now and then one off, or
                // the zero vector.
                let dim = match rng.gen_range(0u32..16) {
                    0 => domain.dim() + 1,
                    1 if domain.dim() > 1 => domain.dim() - 1,
                    _ => domain.dim(),
                };
                let ov = if rng.gen_range(0u32..16) == 0 {
                    IVec::zero(dim)
                } else {
                    IVec::from((0..dim).map(|_| coord(&mut rng)).collect::<Vec<_>>())
                };
                let want = reference_count(domain, &ov).ok();
                let got = counter.try_count(ov.as_slice(), &mut scratch).ok();
                assert_eq!(got, want, "case {case}: counter on {domain:?}, ov {ov}");
                let one_shot = try_storage_class_count(domain, &ov).ok();
                assert_eq!(
                    one_shot, want,
                    "case {case}: one-shot on {domain:?}, ov {ov}"
                );
                let rows = IMat::try_lattice_reduction(&ov)
                    .ok()
                    .map(|w| (0..w.rows()).map(|r| w.row(r)).collect::<Vec<_>>());
                assert_eq!(
                    rows,
                    reference_reduction(&ov).ok(),
                    "case {case}: W of {ov}"
                );
                match want {
                    Some(_) => oks += 1,
                    None => errs += 1,
                }
            }
        }
        // Both outcomes must be exercised, or the differential is vacuous.
        assert!(oks > 200 && errs > 200, "{oks} Ok and {errs} Err counts");
    }
}
