//! Golden answers: `(uov, cost, certificate transcript hash)` for every
//! statement of every `plan` and `serve` problem, in `golden.txt`.
//!
//! `--regen-golden` recomputes the file and cross-checks each answer with
//! the brute-force `exhaustive_best_uov` over the box that holds it, so a
//! search that misses a cheaper UOV inside that box cannot be committed as
//! golden. Runs only read the file.

use std::collections::HashMap;
use std::fmt::Write as _;

use uov::core::certify::certify;
use uov::core::search::{exhaustive_best_uov, find_best_uov, Objective, SearchConfig};
use uov::driver::{plan_with, PlanConfig};
use uov::isg::{IVec, Stencil};

use crate::problems::{hot_problems, miss_problems, plan_problems};
use crate::util::bench_dir;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Answer {
    pub uov: IVec,
    pub cost: u128,
    pub hash: u64,
}

pub struct Golden(HashMap<String, Vec<Answer>>);

const FILE: &str = "golden.txt";

impl Golden {
    pub fn load() -> Result<Self, String> {
        let path = bench_dir().join(FILE);
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("reading {}: {e}", path.display()))?;
        let mut map: HashMap<String, Vec<Answer>> = HashMap::new();
        for line in text
            .lines()
            .filter(|l| !l.starts_with('#') && !l.is_empty())
        {
            let f: Vec<&str> = line.split_whitespace().collect();
            let parsed = (|| {
                let [id, stmt, uov, cost, hash] = f.as_slice() else {
                    return None;
                };
                let uov: Vec<i64> = uov
                    .split(',')
                    .map(|c| c.parse().ok())
                    .collect::<Option<_>>()?;
                let answer = Answer {
                    uov: IVec::from(uov),
                    cost: cost.parse().ok()?,
                    hash: u64::from_str_radix(hash, 16).ok()?,
                };
                Some((id.to_string(), stmt.parse::<usize>().ok()?, answer))
            })();
            let (id, stmt, answer) = parsed.ok_or_else(|| format!("bad golden line: {line}"))?;
            let stmts = map.entry(id).or_default();
            if stmts.len() != stmt {
                return Err(format!("golden statements out of order: {line}"));
            }
            stmts.push(answer);
        }
        Ok(Golden(map))
    }

    /// Compare one statement's answer; `Some(reason)` on mismatch.
    pub fn check(&self, id: &str, stmt: usize, got: &Answer) -> Option<String> {
        match self.answer(id, stmt) {
            None => Some(format!("{id} stmt {stmt}: no golden answer")),
            Some(want) if want != got => Some(format!(
                "{id} stmt {stmt}: got uov {} cost {} hash {:016x}, golden uov {} cost {} hash {:016x}",
                got.uov, got.cost, got.hash, want.uov, want.cost, want.hash
            )),
            Some(_) => None,
        }
    }

    pub fn answer(&self, id: &str, stmt: usize) -> Option<&Answer> {
        self.0.get(id).and_then(|s| s.get(stmt))
    }

    pub fn statements(&self, id: &str) -> usize {
        self.0.get(id).map_or(0, Vec::len)
    }
}

fn line(out: &mut String, id: &str, stmt: usize, a: &Answer) {
    let uov: Vec<String> = a.uov.as_slice().iter().map(i64::to_string).collect();
    let _ = writeln!(
        out,
        "{id} {stmt} {} {} {:016x}",
        uov.join(","),
        a.cost,
        a.hash
    );
}

/// Brute-force cross-check: the cheapest UOV in the box that holds `a`
/// must be `a` itself.
fn cross_check(
    id: &str,
    stencil: &Stencil,
    objective: Objective<'_>,
    a: &Answer,
) -> Result<(), String> {
    let radius = a
        .uov
        .as_slice()
        .iter()
        .map(|c| c.abs())
        .max()
        .unwrap_or(1)
        .max(1);
    match exhaustive_best_uov(stencil, objective, radius) {
        Some(r) if r.uov == a.uov && r.cost == a.cost => Ok(()),
        other => Err(format!(
            "{id}: search found {} (cost {}), exhaustive radius {radius} found {:?}",
            a.uov,
            a.cost,
            other.map(|r| (r.uov.to_string(), r.cost))
        )),
    }
}

/// Recompute every golden answer, cross-check it, and write the file.
pub fn regenerate() -> Result<(), String> {
    let mut out = String::from(
        "# Golden answers for perfbench: <problem id> <statement> <uov> <cost> <certificate transcript hash>.\n\
         # Regenerate with `cargo run --release --manifest-path perfbench/Cargo.toml -- --regen-golden`.\n",
    );
    for p in plan_problems() {
        let plan =
            plan_with(&p.nest, &PlanConfig::default()).map_err(|e| format!("{}: {e}", p.id))?;
        for (s, st) in plan.statements.iter().enumerate() {
            let st = st.as_ref().map_err(|e| format!("{} stmt {s}: {e}", p.id))?;
            let cert = st.certificate.as_ref().ok_or("certification is on")?;
            let a = Answer {
                uov: st.uov.clone(),
                cost: cert.cost,
                hash: cert.transcript_hash,
            };
            cross_check(
                &p.id,
                &st.stencil,
                Objective::KnownBounds(p.nest.domain()),
                &a,
            )?;
            line(&mut out, &p.id, s, &a);
        }
    }
    for p in hot_problems().into_iter().chain(miss_problems()) {
        let objective = p.req.objective.as_objective();
        let best = find_best_uov(&p.req.stencil, objective, &SearchConfig::default())
            .map_err(|e| format!("{}: {e}", p.id))?;
        let cert =
            certify(&p.req.stencil, &objective, &best).map_err(|e| format!("{}: {e}", p.id))?;
        let a = Answer {
            uov: best.uov,
            cost: cert.cost,
            hash: cert.transcript_hash,
        };
        cross_check(&p.id, &p.req.stencil, objective, &a)?;
        line(&mut out, &p.id, 0, &a);
    }
    let path = bench_dir().join(FILE);
    std::fs::write(&path, out).map_err(|e| format!("writing {}: {e}", path.display()))
}
