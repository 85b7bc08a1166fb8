//! The `plan` workload: a compiler pass planning loop nests.
//!
//! One thread runs a closed loop of `driver::plan_with` calls (one search
//! thread, certification on) over the fixed problem set, in seeded
//! shuffled rounds. No socket or cache is involved: search and the oracle do nearly
//! all of the work.

use std::hint::black_box;
use std::time::{Duration, Instant};

use uov::core::budget::Budget;
use uov::core::certify::certify;
use uov::core::search::{find_best_uov, Objective, SearchConfig};
use uov::core::DoneOracle;
use uov::driver::{plan_with, PlanConfig, TransformPlan};
use uov::isg::{IVec, Stencil};
use uov::loopir::analysis::flow_stencil;
use uov::loopir::{codegen, LoopNest};
use uov::schedule::legality;
use uov::storage::{Layout, OvMap};

use crate::golden::{Answer, Golden};
use crate::problems::{plan_problems, PlanProblem};
use crate::trace::Tracer;
use crate::util::{
    geomean, median, peak_rss_mb, quantile, sorted, tail_q, us, Calibration, Report, Rng, Sample,
};

/// Set-up is repeated this many times and reported as the median.
const SETUP_REPS: usize = 9;
/// `core.search.nodes` sums the nodes of this many traced plans, a fixed
/// prefix of the seeded sequence, so it repeats exactly for a seed.
const NODE_PREFIX: usize = 200;
/// Timings reserved per problem per second of `--seconds`: about four
/// times what the fastest host mode plans.
const SAMPLES_PER_PROBLEM_PER_S: usize = 100;

fn answers(plan: &TransformPlan) -> Result<Vec<Answer>, String> {
    plan.statements
        .iter()
        .enumerate()
        .map(|(s, st)| {
            let st = st.as_ref().map_err(|e| format!("stmt {s}: {e}"))?;
            if st.degradation.is_some() {
                return Err(format!("stmt {s}: degraded answer"));
            }
            let cert = st.certificate.as_ref().ok_or("missing certificate")?;
            Ok(Answer {
                uov: st.uov.clone(),
                cost: cert.cost,
                hash: cert.transcript_hash,
            })
        })
        .collect()
}

/// Compare a plan's answers with the golden file.
fn verify(golden: &Golden, id: &str, got: Result<Vec<Answer>, String>) -> Option<String> {
    let got = match got {
        Ok(a) => a,
        Err(e) => return Some(format!("{id}: {e}")),
    };
    if got.len() != golden.statements(id) {
        return Some(format!(
            "{id}: {} statements, golden has {}",
            got.len(),
            golden.statements(id)
        ));
    }
    got.iter()
        .enumerate()
        .find_map(|(s, a)| golden.check(id, s, a))
}

fn plan_once(nest: &LoopNest) -> Result<Vec<Answer>, String> {
    plan_with(nest, &PlanConfig::default())
        .map_err(|e| e.to_string())
        .and_then(|p| answers(&p))
}

/// Set-up: build the problem set and plan each problem once (first-touch
/// allocation, lazy statics), checking every answer.
fn setup(golden: &Golden, report: &mut Report) -> Vec<PlanProblem> {
    let problems = plan_problems();
    for p in &problems {
        report.check(verify(golden, &p.id, plan_once(&p.nest)));
    }
    problems
}

pub fn run(
    golden: &Golden,
    seed: u64,
    budget: Duration,
    report: &mut Report,
) -> Result<(), String> {
    let mut cal = Calibration::new();
    let mut setups = Vec::new();
    let mut problems = Vec::new();
    for _ in 0..SETUP_REPS {
        let (p, s) = cal.bracket(|| setup(golden, report));
        problems = p;
        setups.push(s);
    }
    let mut order = Order::new(seed, problems.len());
    // Reserved up front, large enough for the fastest host seen, so the
    // timings are not reallocated between plans: growing them mixed the
    // benchmark's own buffers into the planner's heap and moved the peak
    // RSS by up to 1 MB with the number of plans a run made.
    let capacity = SAMPLES_PER_PROBLEM_PER_S * budget.as_secs() as usize;
    let mut by_problem: Vec<Vec<Sample>> = problems
        .iter()
        .map(|_| Vec::with_capacity(capacity))
        .collect();
    let start = Instant::now();
    while start.elapsed() < budget {
        let i = order.next();
        let p = &problems[i];
        let t0 = Instant::now();
        let got = plan_once(black_box(&p.nest));
        let t1 = Instant::now();
        by_problem[i].push(Sample {
            t0,
            t1,
            us: us(t1 - t0),
        });
        report.check(verify(golden, &p.id, got));
        cal.tick();
    }
    // Read before the statistics below allocate copies of the timings.
    let rss = peak_rss_mb();
    // The median is per problem, averaged with the geometric mean, so the
    // few large searches weigh no more than the many small ones. The tail
    // is over all plans pooled: the large searches set it, and their time,
    // unlike a small plan's tail, follows the host's speed as the reference
    // loop does.
    let medians: Vec<f64> = by_problem
        .iter()
        .map(|samples| median(&samples.iter().map(|s| cal.refs(s)).collect::<Vec<_>>()))
        .collect();
    let refs = sorted(by_problem.iter().flatten().map(|s| cal.refs(s)).collect());
    let lat = sorted(by_problem.iter().flatten().map(|s| s.us).collect());
    let q = tail_q(lat.len());
    report.setup(&cal, &setups);
    report.metric("peak_rss_mb", rss, "MB");
    report.metric("p50_ref", geomean(&medians), "ref");
    report.metric("tail_ref", quantile(&refs, q), "ref");
    report.metric(
        "throughput_per_ref",
        refs.len() as f64 / refs.iter().sum::<f64>(),
        "1/ref",
    );
    report.note(format!(
        "ref_us = {} us (median reference time)",
        cal.median_us()
    ));
    report.note(format!(
        "plan_p50_ms = {} ms (all plans pooled)",
        quantile(&lat, 0.5) / 1e3
    ));
    report.note(format!(
        "plan_p{:.0}_ms = {} ms (all plans pooled, n = {})",
        q * 100.0,
        quantile(&lat, q) / 1e3,
        lat.len()
    ));
    report.note(format!(
        "plans_per_s = {} 1/s",
        lat.len() as f64 / (lat.iter().sum::<f64>() / 1e6)
    ));
    Ok(())
}

/// The seeded problem order: rounds that each plan every problem once,
/// shuffled per round. Every run plans the same mix, so a seed changes the
/// order but not how much of each problem a run holds.
struct Order {
    rng: Rng,
    n: usize,
    round: Vec<usize>,
}

impl Order {
    fn new(seed: u64, n: usize) -> Self {
        Order {
            rng: Rng::new(seed),
            n,
            round: Vec::new(),
        }
    }

    fn next(&mut self) -> usize {
        if self.round.is_empty() {
            self.round = (0..self.n).collect();
            self.rng.shuffle(&mut self.round);
        }
        self.round.pop().expect("the problem set is not empty")
    }
}

/// Search counters of one traced plan.
#[derive(Default)]
struct Counters {
    visited: u64,
    pushed: u64,
    pruned: u64,
}

/// A stepwise plan: answers, each statement's stencil and UOV, counters.
type Stepwise = (Vec<Answer>, Vec<(Stencil, IVec)>, Counters);

/// `driver::plan_with`'s steps, in the driver's order, each in a span.
fn stepwise(nest: &LoopNest, t: &mut Tracer, req: u64) -> Result<Stepwise, String> {
    t.span("driver.plan", req, |t| {
        let mut union: Vec<IVec> = Vec::new();
        let mut answers = Vec::new();
        let mut solved = Vec::new();
        let mut counters = Counters::default();
        let objective = Objective::KnownBounds(nest.domain());
        for stmt in 0..nest.stmts().len() {
            let stencil = t
                .span("loopir.analysis", req, |_| flow_stencil(nest, stmt))
                .map_err(|e| format!("stmt {stmt}: {e}"))?;
            union.extend(stencil.vectors().iter().cloned());
            let config = SearchConfig {
                budget: Budget::unlimited(),
                threads: 1,
                ..SearchConfig::default()
            };
            let best = t
                .span("core.search", req, |_| {
                    find_best_uov(&stencil, objective, &config)
                })
                .map_err(|e| e.to_string())?;
            counters.visited += best.stats.visited;
            counters.pushed += best.stats.pushed;
            counters.pruned += best.stats.pruned;
            let cert = t
                .span("core.certify", req, |_| {
                    certify(&stencil, &objective, &best)
                })
                .map_err(|e| e.to_string())?;
            let map = t
                .span("storage.mapping", req, |_| {
                    OvMap::try_new(nest.domain(), best.uov.clone(), Layout::default())
                })
                .map_err(|e| e.to_string())?;
            if nest.depth() == 2 {
                t.span("loopir.codegen", req, |_| {
                    black_box(codegen::emit_ov_mapped(nest, stmt, &map))
                });
            }
            if best.degradation.is_some() {
                return Err(format!("stmt {stmt}: degraded answer"));
            }
            answers.push(Answer {
                uov: best.uov.clone(),
                cost: cert.cost,
                hash: cert.transcript_hash,
            });
            solved.push((stencil, best.uov));
        }
        t.span("schedule.legality", req, |_| {
            if let Ok(all) = Stencil::new(union) {
                if !legality::rectangular_tiling_legal(&all) {
                    black_box(legality::skew_factor_for_tiling(&all));
                }
            }
        });
        Ok((answers, solved, counters))
    })
}

/// The traced `plan` phase. Each drawn problem runs once through
/// `plan_with` untraced and once stepwise under spans, in alternating
/// order; the per-problem time ratio is the tracing overhead.
pub fn traced(
    golden: &Golden,
    seed: u64,
    budget: Duration,
    t: &mut Tracer,
    report: &mut Report,
) -> Result<(), String> {
    let problems = plan_problems();
    // The stepwise pipeline must give plan_with's answers exactly.
    for p in &problems {
        let direct = plan_once(&p.nest);
        let steps = stepwise(&p.nest, &mut Tracer::new(), 0).map(|(a, _, _)| a);
        let same = match (&direct, &steps) {
            (Ok(d), Ok(s)) if d == s => None,
            _ => Some(format!(
                "{}: stepwise {steps:?} differs from plan_with {direct:?}",
                p.id
            )),
        };
        report.check(same.or_else(|| verify(golden, &p.id, direct)));
    }
    let mut order = Order::new(seed, problems.len());
    let mut untraced_us = vec![Vec::new(); problems.len()];
    let mut traced_us = vec![Vec::new(); problems.len()];
    let (mut prefix_nodes, mut total) = (0u64, Counters::default());
    let (mut probe_us, mut memo_max) = (Vec::new(), 0usize);
    let start = Instant::now();
    let mut req = 0u64;
    while start.elapsed() < budget || (req as usize) < NODE_PREFIX {
        let i = order.next();
        let p = &problems[i];
        for traced_first in [req.is_multiple_of(2), !req.is_multiple_of(2)] {
            let clock = Instant::now();
            if traced_first {
                let got = stepwise(&p.nest, t, req);
                traced_us[i].push(us(clock.elapsed()));
                let got = got.map(|(answers, solved, c)| {
                    if (req as usize) < NODE_PREFIX {
                        prefix_nodes += c.visited;
                    }
                    total.visited += c.visited;
                    total.pushed += c.pushed;
                    total.pruned += c.pruned;
                    for (stencil, uov) in &solved {
                        let clock = Instant::now();
                        let oracle = t.span("core.oracle.probe", req, |_| {
                            let o = DoneOracle::new(stencil);
                            black_box(o.is_uov(uov));
                            o
                        });
                        probe_us.push(us(clock.elapsed()));
                        memo_max = memo_max.max(oracle.cache_len());
                    }
                    answers
                });
                report.check(verify(golden, &p.id, got));
            } else {
                let got = plan_once(&p.nest);
                untraced_us[i].push(us(clock.elapsed()));
                report.check(verify(golden, &p.id, got));
            }
        }
        req += 1;
    }
    let per_plan = |name: &str| median(&t.self_us(name));
    let search_us = t.self_us("core.search");
    let search_s: f64 = search_us.iter().sum::<f64>() / 1e6;
    let ratios: Vec<f64> = (0..problems.len())
        .filter(|&i| traced_us[i].len() >= 3)
        .map(|i| median(&traced_us[i]) / median(&untraced_us[i]))
        .collect();
    report.metric("loopir.analysis.us", per_plan("loopir.analysis"), "us");
    report.metric("storage.mapping.us", per_plan("storage.mapping"), "us");
    report.metric("loopir.codegen.us", per_plan("loopir.codegen"), "us");
    report.metric("schedule.legality.us", per_plan("schedule.legality"), "us");
    report.metric("core.search.ms", median(&search_us) / 1e3, "ms");
    report.metric("core.search.nodes", prefix_nodes as f64, "count");
    report.metric(
        "core.search.nodes_per_s",
        total.visited as f64 / search_s,
        "1/s",
    );
    report.metric(
        "core.search.prune_ratio",
        total.pruned as f64 / total.pushed.max(1) as f64,
        "ratio",
    );
    report.metric("core.oracle.probe_us", median(&probe_us), "us");
    report.metric("core.oracle.memo_entries", memo_max as f64, "count");
    report.metric("core.certify.us", per_plan("core.certify"), "us");
    report.metric(
        "trace.plan_overhead_pct",
        (geomean(&ratios) - 1.0) * 100.0,
        "%",
    );
    report.note(format!(
        "traced plans: {req} ({NODE_PREFIX} counted for core.search.nodes)"
    ));
    Ok(())
}
