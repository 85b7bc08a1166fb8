//! The fixed problem sets the workloads draw from. Every problem has an
//! id, and `golden.txt` holds its certified answer.

use std::collections::HashSet;

use uov::core::fingerprint;
use uov::isg::{IVec, RectDomain, Stencil};
use uov::loopir::{examples, AffineExpr, ArrayDecl, Assign, Expr, LoopNest};
use uov::service::canon::canonicalize;
use uov::service::loadgen::stencil_pool;
use uov::service::{ObjectiveSpec, PlanRequest};

pub struct PlanProblem {
    pub id: String,
    pub nest: LoopNest,
}

pub struct ServeProblem {
    pub id: String,
    pub req: PlanRequest,
    pub kind: Kind,
}

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Warmed into the cache before timing starts.
    Hot,
    /// An axis-swapped twin of a hot problem, never warmed: it hits only
    /// through canonicalization.
    Twin,
    /// Never seen: misses the cache, searches, certifies and inserts.
    Miss,
}

/// A single-statement nest `A[q] = Σ c · A[q − v]` over `lo..=hi`: its
/// flow stencil is exactly `deps`.
fn stencil_nest(deps: &[IVec], lo: IVec, hi: IVec) -> LoopNest {
    let d = lo.dim();
    let at = |off: &IVec| -> Vec<AffineExpr> {
        (0..d)
            .map(|k| AffineExpr::index(d, k) + (-off[k]))
            .collect()
    };
    let weight = 1.0 / deps.len() as f64;
    let rhs = deps.iter().fold(Expr::Const(0.0), |acc, v| {
        Expr::add(acc, Expr::mul(Expr::Const(weight), Expr::read(0, at(v))))
    });
    LoopNest::new(
        RectDomain::new(lo, hi),
        vec![ArrayDecl {
            name: "A".into(),
            rank: d,
        }],
        vec![Assign {
            array: 0,
            subscript: at(&IVec::zero(d)),
            rhs,
        }],
    )
    .unwrap_or_else(|e| panic!("benchmark nest is well-formed: {e}"))
}

/// The `plan` workload's nests: the paper's kernels at several domain
/// sizes, the `(1,0)(0,1)(1,k)` family, and three 3-D stencils.
pub fn plan_problems() -> Vec<PlanProblem> {
    let mut out = Vec::new();
    let mut push = |id: String, nest: LoopNest| out.push(PlanProblem { id, nest });
    for (n, m) in [(32, 32), (128, 128), (512, 512)] {
        push(format!("fig1-{n}x{m}"), examples::fig1_nest(n, m));
        push(format!("psm-{n}x{m}"), examples::psm_nest(n, m));
    }
    for (t, l) in [(8, 128), (16, 256), (24, 512)] {
        push(format!("stencil5-{t}x{l}"), examples::stencil5_nest(t, l));
    }
    for (t, l) in [(16, 1024), (32, 1024), (16, 4096)] {
        push(format!("deep8-{t}x{l}"), examples::deep8_nest(t, l));
    }
    for k in 1..=4 {
        let deps = [IVec::from([1, 0]), IVec::from([0, 1]), IVec::from([1, k])];
        for n in [64, 256] {
            let hi = IVec::from([n, n]);
            push(
                format!("skew{k}-{n}x{n}"),
                stencil_nest(&deps, IVec::from([1, 1]), hi),
            );
        }
    }
    let v = |a: [i64; 3]| IVec::from(a);
    let heat3 = [
        v([1, 0, 0]),
        v([1, 1, 0]),
        v([1, -1, 0]),
        v([1, 0, 1]),
        v([1, 0, -1]),
    ];
    let wave3 = [v([1, 0, 0]), v([1, 1, 0]), v([1, 0, 1])];
    let diag3 = [v([1, 0, 0]), v([0, 1, 0]), v([1, 1, 1])];
    // 3-D searches range from under a millisecond to seconds with the
    // domain; these sizes keep every problem within a few tens of ms.
    for (name, deps, t, n) in [
        ("heat3", &heat3[..], 8, 16),
        ("heat3", &heat3[..], 16, 32),
        ("wave3", &wave3[..], 16, 32),
        ("diag3", &diag3[..], 16, 32),
    ] {
        push(
            format!("{name}-{t}x{n}x{n}"),
            stencil_nest(deps, v([1, 1, 1]), v([t, n, n])),
        );
    }
    out
}

/// Swap the axes of a 2-D stencil when every swapped vector stays
/// lex-positive: the same problem to the canonicalizing cache.
fn axis_swapped(s: &Stencil) -> Option<Stencil> {
    let swapped: Vec<IVec> = s.iter().map(|v| IVec::from([v[1], v[0]])).collect();
    if !swapped.iter().all(IVec::is_lex_positive) {
        return None;
    }
    Stencil::new(swapped).ok().filter(|t| t != s)
}

fn request(stencil: Stencil, objective: ObjectiveSpec) -> PlanRequest {
    PlanRequest {
        stencil,
        objective,
        deadline_ms: 0,
        flags: 0,
    }
}

/// Hot problems for `serve`: the first pool stencils under both
/// objectives, plus axis-swapped twins that exercise canonicalization.
pub fn hot_problems() -> Vec<ServeProblem> {
    let mut out = Vec::new();
    for (i, s) in stencil_pool(32).into_iter().enumerate() {
        let small = ObjectiveSpec::KnownBounds(RectDomain::grid(8, 8));
        if let Some(t) = axis_swapped(&s) {
            out.push(ServeProblem {
                id: format!("hot{i}-sv-swapped"),
                req: request(t, ObjectiveSpec::ShortestVector),
                kind: Kind::Twin,
            });
        }
        out.push(ServeProblem {
            id: format!("hot{i}-kb8"),
            req: request(s.clone(), small),
            kind: Kind::Hot,
        });
        out.push(ServeProblem {
            id: format!("hot{i}-sv"),
            req: request(s, ObjectiveSpec::ShortestVector),
            kind: Kind::Hot,
        });
    }
    out
}

/// Number of never-seen problems: about twice what the traced serve phase
/// sends (a seeded 2% of its 26 000 requests).
pub const MISS_PROBLEMS: usize = 1_000;

/// Never-seen `KnownBounds` problems for `serve`: pool stencils over
/// domains no hot problem uses, with pairwise distinct canonical forms,
/// so each one misses the cache, searches, certifies and inserts.
pub fn miss_problems() -> Vec<ServeProblem> {
    let pool = stencil_pool(96);
    let mut seen = HashSet::new();
    let mut out = Vec::new();
    let mut i = 0usize;
    while out.len() < MISS_PROBLEMS {
        let s = pool[i % pool.len()].clone();
        let round = (i / pool.len()) as i64;
        let (n, m) = (10 + round % 24, 12 + round / 24 + round % 7);
        i += 1;
        let objective = ObjectiveSpec::KnownBounds(RectDomain::grid(n, m));
        let canon = canonicalize(&s, &objective);
        if !seen.insert(fingerprint(&canon.stencil, &canon.objective.as_objective())) {
            continue;
        }
        out.push(ServeProblem {
            id: format!("miss{}", out.len()),
            req: request(s, objective),
            kind: Kind::Miss,
        });
    }
    out
}
