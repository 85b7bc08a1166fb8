//! The whole pipeline as a single compiler pass: analyse a loop nest,
//! pick per-statement UOVs, build mappings, advise on tiling, and emit
//! the transformed pseudocode (the paper's Figure 1(a) → 1(b), automated).
//!
//! Run with: `cargo run --release --example compiler_driver`

use uov::driver::plan;
use uov::loopir::{codegen, examples};
use uov::storage::Layout;

fn main() -> Result<(), uov::Error> {
    for (name, nest) in [
        (
            "figure-1 running example (12×8)",
            examples::fig1_nest(12, 8),
        ),
        (
            "5-point stencil (T=6, L=24)",
            examples::stencil5_nest(6, 24),
        ),
        (
            "protein string matching (10×14)",
            examples::psm_nest(10, 14),
        ),
    ] {
        println!("======== {name} ========\n");
        println!("-- original --\n{}", codegen::emit_natural(&nest));
        let p = plan(&nest, Layout::Interleaved)?;
        for (idx, stmt) in p.statements.iter().enumerate() {
            match stmt {
                Err(e) => println!("statement {idx}: not UOV-eligible: {e}"),
                Ok(s) => {
                    println!(
                        "statement {idx}: stencil {:?}\n  UOV {} → {} cells (was {})",
                        s.stencil, s.uov, s.mapped_cells, s.natural_cells
                    );
                    if let Some(cert) = &s.certificate {
                        println!("  {cert}");
                        println!("  certificate transcript {:#018x}", cert.transcript_hash);
                    }
                }
            }
        }
        println!(
            "tiling: {}",
            if p.rectangular_tiling_legal {
                "rectangular tiling legal as-is".to_string()
            } else {
                format!("needs skew j' = j + {}·i", p.skew_factor.expect("2-D nest"))
            }
        );
        if let Some(Ok(s)) = p.statements.first() {
            let code = codegen::emit_ov_mapped(&nest, 0, &s.map);
            println!("\n-- OV-mapped (statement 0) --\n{code}");
        }
    }

    // The same pass under a hard real-time budget: statements whose search
    // is cut short keep the best legal UOV found and record a degradation.
    // (An already-expired deadline, so the degraded path always shows; a
    // real pass would use e.g. `with_deadline(Duration::from_millis(1))`.)
    use std::time::Duration;
    use uov::core::Budget;
    use uov::driver::{plan_with, PlanConfig};
    let nest = examples::stencil5_nest(6, 24);
    let config = PlanConfig {
        layout: Layout::Interleaved,
        budget: Budget::unlimited().with_deadline(Duration::ZERO),
        ..PlanConfig::default()
    };
    let p = plan_with(&nest, &config)?;
    println!("======== budgeted pass (expired deadline) ========\n");
    for stmt in p.statements.iter().flatten() {
        match &stmt.degradation {
            Some(d) => println!("UOV {} — {d}", stmt.uov),
            None => println!("UOV {} — search ran to completion", stmt.uov),
        }
        // Even the degraded fallback is independently certified before
        // plan_with returns; the certificate says so explicitly.
        if let Some(cert) = &stmt.certificate {
            println!("  {cert}");
            println!("  certificate transcript {:#018x}", cert.transcript_hash);
        }
    }
    Ok(())
}
