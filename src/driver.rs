//! The compiler driver: from a loop nest to a complete storage plan.
//!
//! This is the end-to-end shape a production pass would take — the paper's
//! §2–§4 pipeline as one call:
//!
//! 1. **Eligibility** (§2): value-based dependence analysis extracts each
//!    statement's flow stencil; non-regular statements are reported, not
//!    silently skipped.
//! 2. **UOV selection** (§3): branch-and-bound per statement, using the
//!    known-bounds objective since the nest's domain is concrete. The
//!    search honours a caller-supplied [`Budget`]; when it runs out, the
//!    statement keeps the best legal UOV found (at worst `Σvᵢ`) and the
//!    plan records the [`Degradation`].
//! 3. **Mapping construction** (§4): an [`OvMap`] per statement, with the
//!    modterm layout chosen by the caller.
//! 4. **Schedule advice** (§2/§5): whether rectangular tiling is already
//!    legal, and if not, the 2-D skew factor that legalises it.
//!
//! The transformed pseudocode of a 2-D statement is rendered on demand
//! from its mapping with [`uov_loopir::codegen::emit_ov_mapped`], and
//! [`plan_and_emit`] lowers a whole plan to compilable source.
//!
//! # Example
//!
//! ```
//! use uov::driver::{plan, TransformPlan};
//! use uov::loopir::examples;
//! use uov::storage::Layout;
//!
//! let nest = examples::fig1_nest(32, 16);
//! let plan = plan(&nest, Layout::Interleaved)?;
//! let stmt = &plan.statements[0].as_ref().expect("regular statement");
//! assert_eq!(stmt.uov.to_string(), "(1, 1)");
//! assert!(stmt.degradation.is_none()); // search ran to completion
//! assert!(plan.rectangular_tiling_legal);
//! assert!(stmt.natural_cells > stmt.mapped_cells);
//! # Ok::<(), uov::Error>(())
//! ```

use uov_core::budget::{Budget, Degradation, Exhausted};
use uov_core::certify::{certify, Certificate};
use uov_core::checkpoint::CheckpointConfig;
use uov_core::search::{find_best_uov, Objective, SearchConfig};
use uov_core::search::{SearchResult, SearchStats};
use uov_isg::{IVec, IterationDomain as _, Stencil};
use uov_loopir::analysis::{flow_stencil, AnalysisError};
use uov_loopir::LoopNest;
use uov_schedule::legality;
use uov_service::{DegradationCode, MeshClient, ObjectiveSpec, PlanRequest};
use uov_storage::{Layout, OvMap, StorageMap as _};

use crate::error::Error;

/// Tunables for [`plan_with`].
#[derive(Debug, Clone)]
pub struct PlanConfig {
    /// Modterm layout for non-prime occupancy vectors.
    pub layout: Layout,
    /// Resource budget applied to each statement's UOV search. A deadline
    /// or cancellation token is global (every statement shares the same
    /// wall clock and flag); node and memo caps apply per statement.
    pub budget: Budget,
    /// Re-validate every emitted UOV (including degraded fallbacks) with
    /// the independent checker before the plan is returned, attaching a
    /// [`Certificate`] to each statement. On by default; a rejected result
    /// aborts the plan with [`Error::Certify`] rather than emitting an
    /// unverified mapping.
    pub certify: bool,
    /// Crash-safe snapshotting for each statement's search. The statement
    /// index is appended to the configured path (`<path>.stmt0`,
    /// `<path>.stmt1`, …) so per-statement snapshots never collide.
    pub checkpoint: Option<CheckpointConfig>,
}

impl Default for PlanConfig {
    fn default() -> Self {
        PlanConfig {
            layout: Layout::default(),
            budget: Budget::unlimited(),
            certify: true,
            checkpoint: None,
        }
    }
}

/// The storage plan for one regular statement.
#[derive(Debug)]
pub struct StatementPlan {
    /// The statement's flow-dependence stencil.
    pub stencil: Stencil,
    /// The storage-minimal universal occupancy vector for this domain —
    /// or, if the budget ran out, the best legal UOV found in time.
    pub uov: IVec,
    /// The constructed mapping.
    pub map: OvMap,
    /// Cells of the natural (fully expanded) storage.
    pub natural_cells: u64,
    /// Cells of the OV-mapped storage.
    pub mapped_cells: u64,
    /// Present iff the UOV search was cut short by the budget; the UOV
    /// above is still universal, merely possibly non-optimal.
    pub degradation: Option<Degradation>,
    /// Independent re-validation of the UOV and its cost; present unless
    /// certification was disabled via [`PlanConfig::certify`].
    pub certificate: Option<Certificate>,
}

/// The full plan for a nest.
#[derive(Debug)]
pub struct TransformPlan {
    /// Per-statement outcomes: `Ok` with a plan, or the analysis error
    /// explaining why the statement is not UOV-eligible.
    pub statements: Vec<Result<StatementPlan, AnalysisError>>,
    /// Whether rectangular tiling of the original space is already legal
    /// for the union of all regular statements' dependences.
    pub rectangular_tiling_legal: bool,
    /// The 2-D skew factor that legalises tiling, when one is needed and
    /// the nest is 2-deep.
    pub skew_factor: Option<i64>,
}

impl TransformPlan {
    /// Degradation records of every budget-truncated statement search.
    pub fn degradations(&self) -> Vec<&Degradation> {
        self.statements
            .iter()
            .filter_map(|s| s.as_ref().ok())
            .filter_map(|s| s.degradation.as_ref())
            .collect()
    }
}

/// Derive the complete schedule-independent storage plan for `nest` with
/// an unlimited budget.
///
/// Irregular statements never fail the whole plan — they surface as `Err`
/// entries in [`TransformPlan::statements`].
///
/// # Errors
///
/// Hard failures only: coordinates outside `i64` range anywhere in the
/// pipeline, a stencil too large for the search, or a mapping whose
/// allocation cannot be addressed.
pub fn plan(nest: &LoopNest, layout: Layout) -> Result<TransformPlan, Error> {
    plan_with(
        nest,
        &PlanConfig {
            layout,
            ..PlanConfig::default()
        },
    )
}

/// [`plan`] with an explicit [`PlanConfig`] (layout, search budget,
/// certification and checkpointing).
///
/// When the budget expires mid-search, the affected statements keep their
/// best incumbent UOV — at worst the always-legal initial UOV `Σvᵢ` — and
/// carry a [`Degradation`] record; this function still returns `Ok`.
/// Unless disabled, every emitted UOV (degraded ones included) is
/// re-validated by the independent certifier before the plan is returned.
///
/// # Errors
///
/// Same hard failures as [`plan`], plus [`Error::Certify`] if the
/// certifier rejects a search result — a rejected mapping is never
/// handed to the caller.
pub fn plan_with(nest: &LoopNest, config: &PlanConfig) -> Result<TransformPlan, Error> {
    plan_statements(nest, config.layout, |stmt, stencil| {
        let search_config = SearchConfig {
            // Fresh node counter per statement; deadline and
            // cancellation stay global through the clone.
            budget: config.budget.clone(),
            checkpoint: config.checkpoint.as_ref().map(|c| {
                let mut path = c.path.clone().into_os_string();
                path.push(format!(".stmt{stmt}"));
                CheckpointConfig {
                    path: path.into(),
                    interval: c.interval,
                }
            }),
            ..SearchConfig::default()
        };
        let objective = Objective::KnownBounds(nest.domain());
        let best = find_best_uov(stencil, objective, &search_config)?;
        let certificate = if config.certify {
            Some(certify(stencil, &objective, &best)?)
        } else {
            None
        };
        Ok(Solved {
            uov: best.uov,
            degradation: best.degradation,
            certificate,
        })
    })
}

/// How one statement's UOV was obtained: the only step in which local
/// and remote planning differ.
struct Solved {
    uov: IVec,
    degradation: Option<Degradation>,
    certificate: Option<Certificate>,
}

/// The per-statement planning loop shared by [`plan_with`] and
/// [`plan_remote`]: stencil extraction, then `solve` for each regular
/// statement's UOV and certificate, then mapping construction and
/// tiling advice — all local.
fn plan_statements(
    nest: &LoopNest,
    layout: Layout,
    mut solve: impl FnMut(usize, &Stencil) -> Result<Solved, Error>,
) -> Result<TransformPlan, Error> {
    let mut statements = Vec::with_capacity(nest.stmts().len());
    let mut union: Vec<IVec> = Vec::new();
    for stmt in 0..nest.stmts().len() {
        match flow_stencil(nest, stmt) {
            Err(e) => statements.push(Err(e)),
            Ok(stencil) => {
                union.extend(stencil.vectors().iter().cloned());
                let solved = solve(stmt, &stencil)?;
                let map = OvMap::try_new(nest.domain(), solved.uov.clone(), layout)?;
                statements.push(Ok(StatementPlan {
                    natural_cells: nest.domain().num_points(),
                    mapped_cells: map.size() as u64,
                    stencil,
                    uov: solved.uov,
                    map,
                    degradation: solved.degradation,
                    certificate: solved.certificate,
                }));
            }
        }
    }
    let (rectangular_tiling_legal, skew_factor) = tiling_advice(union);
    Ok(TransformPlan {
        statements,
        rectangular_tiling_legal,
        skew_factor,
    })
}

/// Tiling legality and skew advice for the union of all regular
/// statements' dependences.
fn tiling_advice(union: Vec<IVec>) -> (bool, Option<i64>) {
    match Stencil::new(union) {
        Ok(all_deps) => {
            let legal = legality::rectangular_tiling_legal(&all_deps);
            let skew = if legal {
                Some(0)
            } else {
                legality::skew_factor_for_tiling(&all_deps)
            };
            (legal, skew)
        }
        Err(_) => (true, Some(0)), // no carried dependences at all
    }
}

/// [`plan`], but with every per-statement UOV search delegated to the
/// planning service through `client` — one warm replica list (and its
/// canonicalizing plan caches) answering for many compiler invocations.
///
/// Each statement is one routed [`MeshClient::plan`]: sent to its
/// consistent-hash home replica, failing over along the ring when the
/// home is down, under the client's breakers and backoff. The client
/// is caller-owned, so its connections stay warm
/// across nests and its decision log ([`MeshClient::events`]) can be
/// inspected afterwards.
///
/// The remote answer is *never trusted blind*: each statement's UOV is
/// re-certified locally, and the local certificate's transcript hash must
/// equal the hash the server computed. Mapping construction and tiling
/// legality stay local, so the returned
/// [`TransformPlan`] is interchangeable with [`plan`]'s — the engine's
/// deterministic total order makes the two byte-identical for completed
/// searches.
///
/// `deadline_ms` is forwarded as the per-statement service budget
/// (`0` = unlimited); an expired deadline degrades to a legal UOV, it
/// does not error.
///
/// # Errors
///
/// [`Error::Service`] when the client exhausts its attempts, a server
/// rejects a request, or a certificate hash mismatches; otherwise the
/// same hard failures as [`plan`].
pub fn plan_remote(
    nest: &LoopNest,
    layout: Layout,
    client: &mut MeshClient,
    deadline_ms: u32,
) -> Result<TransformPlan, Error> {
    plan_statements(nest, layout, |stmt, stencil| {
        let objective = Objective::KnownBounds(nest.domain());
        let resp = client
            .plan(&PlanRequest {
                stencil: stencil.clone(),
                objective: ObjectiveSpec::KnownBounds(nest.domain().clone()),
                deadline_ms,
                flags: 0,
            })
            .map_err(|e| Error::Service(e.to_string()))?;
        // The wire carries the degradation *reason*; node/memo counters
        // are search-internal and stay at zero here.
        let degradation = match resp.degradation {
            DegradationCode::None => None,
            code => Some(Degradation {
                reason: match code {
                    DegradationCode::Deadline => Exhausted::Deadline,
                    DegradationCode::Nodes => Exhausted::Nodes,
                    DegradationCode::Memo => Exhausted::Memo,
                    _ => Exhausted::Cancelled,
                },
                nodes_at_stop: 0,
                memo_entries_at_stop: 0,
                fell_back_to_initial: false,
            }),
        };
        let as_result = SearchResult {
            uov: resp.uov,
            cost: resp.cost,
            stats: SearchStats::default(),
            degradation,
            checkpoint_error: None,
        };
        let certificate = certify(stencil, &objective, &as_result)?;
        if certificate.transcript_hash != resp.certificate_hash {
            return Err(Error::Service(format!(
                "certificate mismatch for statement {stmt}: server {:#018x}, local {:#018x}",
                resp.certificate_hash, certificate.transcript_hash
            )));
        }
        Ok(Solved {
            uov: as_result.uov,
            degradation: as_result.degradation,
            certificate: Some(certificate),
        })
    })
}

/// A planned kernel rendered as compilable source, ready for
/// [`uov_codegen::compile`] or the autotuner.
#[derive(Debug)]
pub struct EmittedKernel {
    /// The generation spec (nest + per-statement storage + schedule).
    pub spec: uov_codegen::KernelSpec,
    /// Standalone Rust program speaking the `TIME_NS`/`CHECK`/`OUT`
    /// protocol.
    pub rust_source: String,
    /// The storage plan the spec was derived from.
    pub plan: TransformPlan,
}

/// Plan `nest` and lower the result to executable source in one call:
/// §2–§4 (stencils, UOVs, mappings) followed by §5 made runnable (tiled
/// loops over the mapped buffers).
///
/// Regular statements get their planned [`OvMap`]; statements the
/// analysis rejects keep natural (fully expanded) storage — the emitted
/// kernel still runs. With `tile = Some([t0, t1])` the loops are tiled in
/// the skewed space `(u, v) = (i, f·i + j)` using the plan's legalising
/// skew factor. Each statement's certificate transcript hash is stamped
/// into the generated source's provenance header, so an artifact can be
/// traced back to the exact certified plan that produced it.
///
/// # Errors
///
/// Planning errors as in [`plan`]; [`Error::Codegen`] when tiling is
/// requested but no skew factor legalises it, or when the nest shape is
/// outside the generator's support (non-2-deep, non-uniform writes).
pub fn plan_and_emit(
    name: &str,
    nest: &LoopNest,
    layout: Layout,
    tile: Option<[i64; 2]>,
) -> Result<EmittedKernel, Error> {
    use uov_codegen::{emit_rust, CodegenError, GenSchedule, KernelSpec};

    let plan = plan(nest, layout)?;
    let maps: Vec<Option<&OvMap>> = plan
        .statements
        .iter()
        .map(|s| s.as_ref().ok().map(|p| &p.map))
        .collect();
    let schedule = match tile {
        None => GenSchedule::Lex,
        Some(tile) => {
            let f = plan
                .skew_factor
                .ok_or_else(|| Error::from(CodegenError::TilingNotLegalized))?;
            GenSchedule::SkewTiled { f, tile }
        }
    };
    let mut provenance = vec![format!(
        "plan: {layout:?} layout, {} statement(s), skew {:?}",
        plan.statements.len(),
        plan.skew_factor
    )];
    for (s, st) in plan.statements.iter().enumerate() {
        match st {
            Ok(p) => {
                let cert = match &p.certificate {
                    Some(c) => format!("certificate {:016x}", c.transcript_hash),
                    None => "uncertified".to_string(),
                };
                provenance.push(format!(
                    "stmt {s}: uov {}, {} -> {} cells, {cert}",
                    p.uov, p.natural_cells, p.mapped_cells
                ));
            }
            Err(e) => provenance.push(format!("stmt {s}: natural storage ({e})")),
        }
    }
    let spec = KernelSpec::new(name, nest, &maps, schedule)?.with_provenance(provenance);
    Ok(EmittedKernel {
        rust_source: emit_rust(&spec),
        spec,
        plan,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;
    use uov_core::budget::Exhausted;
    use uov_core::DoneOracle;
    use uov_loopir::examples;

    #[test]
    fn plan_and_emit_stamps_certificate_and_tiles() {
        let nest = examples::stencil5_nest(5, 16);
        let ek = plan_and_emit("stencil5", &nest, Layout::Interleaved, Some([2, 8])).unwrap();
        let hash = format!(
            "{:016x}",
            ek.plan.statements[0]
                .as_ref()
                .unwrap()
                .certificate
                .as_ref()
                .unwrap()
                .transcript_hash
        );
        assert!(
            ek.rust_source.contains(&hash),
            "certificate hash in Rust source"
        );
        assert!(ek.rust_source.contains("for tu in"), "tiled loops emitted");
        assert!(matches!(
            ek.spec.schedule,
            uov_codegen::GenSchedule::SkewTiled { f: 2, tile: [2, 8] }
        ));
    }

    #[test]
    fn plan_and_emit_rejects_tiling_without_skew() {
        // An untileable union has no legalising skew; emitting untiled
        // still works, tiling is a typed refusal.
        let nest = examples::stencil5_nest(4, 12);
        let ok = plan_and_emit("stencil5", &nest, Layout::Blocked, None).unwrap();
        assert!(ok.rust_source.contains("fn main"));
        assert!(!ok.rust_source.contains("for tu in"));
    }

    #[test]
    fn fig1_plan() {
        let nest = examples::fig1_nest(10, 6);
        let p = plan(&nest, Layout::Interleaved).unwrap();
        assert_eq!(p.statements.len(), 1);
        let s = p.statements[0].as_ref().unwrap();
        assert_eq!(s.uov, IVec::from([1, 1]));
        assert!(s.degradation.is_none());
        assert!(p.rectangular_tiling_legal);
        assert_eq!(p.skew_factor, Some(0));
        assert!(uov_loopir::codegen::emit_ov_mapped(&nest, 0, &s.map)
            .contains("for (i = 1; i <= 10; i++)"));
        assert!(s.mapped_cells < s.natural_cells);
    }

    #[test]
    fn stencil5_plan_needs_skew() {
        let nest = examples::stencil5_nest(6, 20);
        let p = plan(&nest, Layout::Blocked).unwrap();
        let s = p.statements[0].as_ref().unwrap();
        assert_eq!(s.uov[0], 2, "two time steps of reuse");
        assert!(!p.rectangular_tiling_legal);
        assert_eq!(p.skew_factor, Some(2));
    }

    #[test]
    fn psm_plan_has_two_statements() {
        let nest = examples::psm_nest(8, 8);
        let p = plan(&nest, Layout::Interleaved).unwrap();
        assert_eq!(p.statements.len(), 2);
        assert!(p.statements.iter().all(|s| s.is_ok()));
        // Rectangular tiling is legal for the combined dependences.
        assert!(p.rectangular_tiling_legal);
    }

    #[test]
    fn irregular_statement_reported_not_paniced() {
        use uov_loopir::{AffineExpr, ArrayDecl, Assign, Expr};
        // B[i,j] = A[i,j]: no carried dependence — reported as such.
        let full = vec![AffineExpr::index(2, 0), AffineExpr::index(2, 1)];
        let nest = LoopNest::new(
            uov_isg::RectDomain::grid(3, 3),
            vec![
                ArrayDecl {
                    name: "A".into(),
                    rank: 2,
                },
                ArrayDecl {
                    name: "B".into(),
                    rank: 2,
                },
            ],
            vec![Assign {
                array: 1,
                subscript: full.clone(),
                rhs: Expr::read(0, full),
            }],
        )
        .unwrap();
        let p = plan(&nest, Layout::Interleaved).unwrap();
        assert!(matches!(
            p.statements[0],
            Err(AnalysisError::NoCarriedDependence)
        ));
        assert!(p.rectangular_tiling_legal);
    }

    #[test]
    fn expired_deadline_degrades_to_legal_uov() {
        let nest = examples::stencil5_nest(6, 20);
        let config = PlanConfig {
            layout: Layout::Interleaved,
            budget: Budget::unlimited().with_deadline(Duration::ZERO),
            ..PlanConfig::default()
        };
        let p = plan_with(&nest, &config).unwrap();
        let s = p.statements[0].as_ref().unwrap();
        let d = s
            .degradation
            .as_ref()
            .expect("expired deadline must degrade");
        assert_eq!(d.reason, Exhausted::Deadline);
        assert_eq!(p.degradations().len(), 1);
        // The degraded UOV is still universal for the stencil.
        assert!(DoneOracle::new(&s.stencil).is_uov(&s.uov));
        // And the mapping realises it.
        assert_eq!(s.map.ov(), &s.uov);
    }

    #[test]
    fn every_statement_carries_a_certificate_by_default() {
        let nest = examples::psm_nest(8, 8);
        let p = plan(&nest, Layout::Interleaved).unwrap();
        for s in &p.statements {
            let s = s.as_ref().unwrap();
            let cert = s.certificate.as_ref().expect("certify defaults to on");
            assert_eq!(cert.uov, s.uov);
            assert_eq!(cert.dependences_checked, s.stencil.len());
            assert!(!cert.degraded);
        }
    }

    #[test]
    fn degraded_statements_certify_as_degraded() {
        let nest = examples::stencil5_nest(6, 20);
        let config = PlanConfig {
            layout: Layout::Interleaved,
            budget: Budget::unlimited().with_max_nodes(1),
            ..PlanConfig::default()
        };
        let p = plan_with(&nest, &config).unwrap();
        let s = p.statements[0].as_ref().unwrap();
        assert!(s.degradation.is_some());
        let cert = s.certificate.as_ref().unwrap();
        assert!(cert.degraded, "Σvᵢ fallback certifies, flagged degraded");
        assert_eq!(cert.uov, s.uov);
    }

    #[test]
    fn certification_can_be_disabled() {
        let nest = examples::fig1_nest(10, 6);
        let config = PlanConfig {
            layout: Layout::Interleaved,
            certify: false,
            ..PlanConfig::default()
        };
        let p = plan_with(&nest, &config).unwrap();
        assert!(p.statements[0].as_ref().unwrap().certificate.is_none());
    }

    #[test]
    fn checkpointed_plan_writes_one_snapshot_per_statement() {
        use uov_core::checkpoint::CheckpointConfig;
        let nest = examples::psm_nest(8, 8);
        let mut base = std::env::temp_dir();
        base.push(format!("uov_driver_plan_{}.ckpt", std::process::id()));
        let config = PlanConfig {
            layout: Layout::Interleaved,
            checkpoint: Some(CheckpointConfig {
                path: base.clone(),
                interval: 8,
            }),
            ..PlanConfig::default()
        };
        let p = plan_with(&nest, &config).unwrap();
        assert_eq!(p.statements.len(), 2);
        for stmt in 0..2 {
            let mut path = base.clone().into_os_string();
            path.push(format!(".stmt{stmt}"));
            let path = std::path::PathBuf::from(path);
            let snap = uov_core::checkpoint::read_snapshot(&path)
                .expect("each statement search leaves a final snapshot");
            assert_eq!(
                snap.incumbent,
                p.statements[stmt].as_ref().unwrap().uov,
                "stmt{stmt}"
            );
            let _ = std::fs::remove_file(&path);
        }
    }

    #[test]
    fn service_backed_plan_matches_local_plan() {
        let server =
            uov_service::serve("127.0.0.1:0", uov_service::ServerConfig::default()).unwrap();
        // One client for every nest: its connection stays warm.
        let mut client = MeshClient::new(
            &[server.endpoint().to_string()],
            uov_service::MeshConfig::default(),
        )
        .unwrap();
        for nest in [
            examples::fig1_nest(10, 6),
            examples::stencil5_nest(6, 20),
            examples::psm_nest(8, 8),
        ] {
            let local = plan(&nest, Layout::Interleaved).unwrap();
            let remote = plan_remote(&nest, Layout::Interleaved, &mut client, 0).unwrap();
            assert_eq!(local.statements.len(), remote.statements.len());
            for (l, r) in local.statements.iter().zip(&remote.statements) {
                let (l, r) = (l.as_ref().unwrap(), r.as_ref().unwrap());
                assert_eq!(l.uov, r.uov, "service and local plans must agree");
                assert_eq!(l.mapped_cells, r.mapped_cells);
                // The remote certificate is recomputed locally and must
                // hash identically to the in-process plan's.
                assert_eq!(
                    l.certificate.as_ref().unwrap().transcript_hash,
                    r.certificate.as_ref().unwrap().transcript_hash
                );
            }
            assert_eq!(
                local.rectangular_tiling_legal,
                remote.rectangular_tiling_legal
            );
            assert_eq!(local.skew_factor, remote.skew_factor);
        }
        server.shutdown();
        server.join();
    }

    #[test]
    fn replica_list_plan_survives_a_dead_replica() {
        let nest = examples::fig1_nest(10, 6);
        let req = PlanRequest {
            stencil: flow_stencil(&nest, 0).unwrap(),
            objective: ObjectiveSpec::KnownBounds(nest.domain().clone()),
            deadline_ms: 0,
            flags: 0,
        };
        // Two reserved endpoints; the statement's ring home stays dead
        // (bound, then dropped, so every attempt there is refused) and
        // the client fails over to the other.
        let listeners = [
            std::net::TcpListener::bind("127.0.0.1:0").unwrap(),
            std::net::TcpListener::bind("127.0.0.1:0").unwrap(),
        ];
        let endpoints: Vec<String> = listeners
            .iter()
            .map(|l| l.local_addr().unwrap().to_string())
            .collect();
        let mut client = MeshClient::new(&endpoints, uov_service::MeshConfig::default()).unwrap();
        let home = client.ring().route(MeshClient::routing_key(&req));
        drop(listeners);
        let server =
            uov_service::serve(&endpoints[1 - home], uov_service::ServerConfig::default()).unwrap();
        let local = plan(&nest, Layout::Interleaved).unwrap();
        let remote = plan_remote(&nest, Layout::Interleaved, &mut client, 0).unwrap();
        let (l, r) = (
            local.statements[0].as_ref().unwrap(),
            remote.statements[0].as_ref().unwrap(),
        );
        assert_eq!(l.uov, r.uov);
        assert_eq!(
            l.certificate.as_ref().unwrap().transcript_hash,
            r.certificate.as_ref().unwrap().transcript_hash
        );
        assert_eq!(client.stats().failovers, 1, "the dead home was not skipped");
        server.shutdown();
        server.join();
    }

    #[test]
    fn generous_budget_matches_unbudgeted_plan() {
        let nest = examples::fig1_nest(10, 6);
        let config = PlanConfig {
            layout: Layout::Interleaved,
            budget: Budget::unlimited()
                .with_deadline(Duration::from_secs(60))
                .with_max_nodes(10_000_000),
            ..PlanConfig::default()
        };
        let p = plan_with(&nest, &config).unwrap();
        let s = p.statements[0].as_ref().unwrap();
        assert_eq!(s.uov, IVec::from([1, 1]));
        assert!(s.degradation.is_none());
        assert!(p.degradations().is_empty());
    }
}
