//! Emit a complete, self-contained Rust program for a [`KernelSpec`].
//!
//! The generated program is the executable twin of
//! `uov_loopir::interp::run`: every value is computed by the same `f64`
//! expression tree in the same association order, imported halo elements
//! come from the same integer-hash [`input_value`] function, and each
//! statement's produced values are captured *as written* — so a correct
//! storage mapping makes the output bit-identical to the interpreter under
//! every legal schedule.
//!
//! One program holds one or more *variants* of the spec: the same nest
//! and storage under different loop orders ([`emit_rust_variants`]).
//! The helpers and domain constants are emitted once; each variant's
//! buffers, repetition loop and output live in an `#[inline(never)]`
//! function of its own. `main` runs the variant named by the file name
//! it was invoked under, so one compile serves them all: link the binary
//! under each variant's name. A one-variant program ([`emit_rust`]) runs
//! whatever its name.
//!
//! Protocol of the generated binary:
//!
//! ```text
//! <variant> [seed] [reps] [print]
//! TIME_NS <total-nanoseconds-for-all-reps>
//! CHECK <16-hex schedule-invariant checksum>
//! OUT <stmt> <lin> <16-hex f64 bits>     (one per point, when print=1)
//! ```
//!
//! Invoked under a name that is not one of several variants, it prints
//! the variant names to stderr and exits with status 2.
//!
//! [`input_value`]: crate::kernel::input_value

use std::fmt::Write as _;

use uov_loopir::emit::{render_affine, MappedIndex};
use uov_loopir::Expr;

use crate::kernel::{GenSchedule, KernelSpec};

/// Render a [`MappedIndex`] as a Rust `i64` expression over `i`/`j`.
fn index_to_rust(idx: &MappedIndex) -> String {
    match idx {
        MappedIndex::Affine(e) => render_affine(e),
        MappedIndex::Mod {
            base,
            position,
            g,
            scale,
        } => {
            let modterm = format!("({}).rem_euclid({g})", render_affine(position));
            if *scale == 1 {
                format!("({}) + {modterm}", render_affine(base))
            } else {
                format!("({}) + {modterm} * {scale}", render_affine(base))
            }
        }
    }
}

/// Hoist every read of `expr` into a `let r<n> = …;` binding (depth-first,
/// left-to-right — the interpreter's evaluation order) and return the
/// value expression over those bindings.
fn expr_to_rust(expr: &Expr, spec: &KernelSpec, seed_var: &str, binds: &mut Vec<String>) -> String {
    match expr {
        Expr::Const(c) => format!("({c:?}f64)"),
        Expr::Index(k) => format!("({} as f64)", uov_loopir::emit::index_name(*k)),
        Expr::Add(a, b) => format!(
            "({} + {})",
            expr_to_rust(a, spec, seed_var, binds),
            expr_to_rust(b, spec, seed_var, binds)
        ),
        Expr::Sub(a, b) => format!(
            "({} - {})",
            expr_to_rust(a, spec, seed_var, binds),
            expr_to_rust(b, spec, seed_var, binds)
        ),
        Expr::Mul(a, b) => format!(
            "({} * {})",
            expr_to_rust(a, spec, seed_var, binds),
            expr_to_rust(b, spec, seed_var, binds)
        ),
        Expr::Max(a, b) => {
            let a = expr_to_rust(a, spec, seed_var, binds);
            let b = expr_to_rust(b, spec, seed_var, binds);
            format!("({a}).max({b})")
        }
        Expr::Read { array, subscript } => {
            let n = binds.len();
            let e0 = render_affine(&subscript[0]);
            let e1 = render_affine(&subscript[1]);
            let bind = match spec.writer_of(*array) {
                None => format!("let r{n} = inp({seed_var}, {array}, {e0}, {e1});"),
                Some(ws) => {
                    let (wlo, whi) = spec.written_box(ws);
                    let idx = index_to_rust(&spec.index_expr(ws, subscript));
                    format!(
                        "let r{n} = {{ let e0: i64 = {e0}; let e1: i64 = {e1}; \
                         if e0 >= {} && e0 <= {} && e1 >= {} && e1 <= {} \
                         {{ b{ws}[({idx}) as usize] }} else {{ inp({seed_var}, {array}, e0, e1) }} }};",
                        wlo[0], whi[0], wlo[1], whi[1]
                    )
                }
            };
            binds.push(bind);
            format!("r{n}")
        }
    }
}

/// The loop body shared by every schedule: all statements at point
/// `(i, j)`, each value stored through its buffer index, captured, and
/// folded into the schedule-invariant checksum.
fn body(spec: &KernelSpec, indent: &str) -> String {
    let mut out = String::new();
    for (s, stmt) in spec.nest().stmts().iter().enumerate() {
        let mut binds = Vec::new();
        let value = expr_to_rust(&stmt.rhs, spec, "seed", &mut binds);
        for b in &binds {
            let _ = writeln!(out, "{indent}{b}");
        }
        let widx = index_to_rust(&spec.index_expr(s, &stmt.subscript));
        let _ = writeln!(out, "{indent}let v{s}: f64 = {value};");
        let _ = writeln!(out, "{indent}b{s}[({widx}) as usize] = v{s};");
        if spec.capture {
            let cap = render_affine(&spec.capture_index());
            let _ = writeln!(out, "{indent}cap{s}[({cap}) as usize] = v{s}.to_bits();");
        }
        let _ = writeln!(out, "{indent}check ^= mix({s}, i, j, v{s}.to_bits());");
    }
    out
}

/// Append variant `v`'s function: `spec`'s buffers, the repetition loop
/// over `schedule`, the timing and the output.
fn emit_variant(out: &mut String, spec: &KernelSpec, v: usize, schedule: &GenSchedule) {
    let dom = spec.nest().domain();
    let (lo0, hi0) = (dom.lo()[0], dom.hi()[0]);
    let (lo1, hi1) = (dom.lo()[1], dom.hi()[1]);
    let _ = writeln!(
        out,
        "#[inline(never)]\nfn variant_{v}(seed: u64, reps: u32, print_out: bool) {{"
    );
    for (s, st) in spec.storage().iter().enumerate() {
        let _ = writeln!(out, "    let mut b{s}: Vec<f64> = vec![0.0; {}];", st.cells);
        if spec.capture {
            let _ = writeln!(
                out,
                "    let mut cap{s}: Vec<u64> = vec![0; {}];",
                spec.points()
            );
        }
    }
    let _ = writeln!(
        out,
        "    let mut check: u64 = 0;\n\
         \x20   let t0 = std::time::Instant::now();\n\
         \x20   for _rep in 0..reps {{\n\
         \x20       check = 0;"
    );
    match schedule {
        GenSchedule::Lex => {
            let _ = writeln!(
                out,
                "        for i in LO0..=HI0 {{\n\
                 \x20           for j in LO1..=HI1 {{"
            );
            out.push_str(&body(spec, "                "));
            let _ = writeln!(out, "            }}\n        }}");
        }
        GenSchedule::SkewTiled { f, tile } => {
            let (t0, t1) = (tile[0], tile[1]);
            // Tiles live in the image space (u, v) = (i, f·i + j),
            // anchored at the image of the domain's lower corner; loops
            // enumerate lexicographically by (tile u, tile v, u, v) —
            // exactly LoopSchedule::skewed_tiled_2d's order, and the
            // bounds GenSchedule::for_each_point walks in process.
            let vmin = (f * lo0).min(f * hi0) + lo1;
            let vmax = (f * lo0).max(f * hi0) + hi1;
            let _ = writeln!(
                out,
                "        let vank: i64 = {f} * LO0 + LO1;\n\
                 \x20       for tu in 0..=((HI0 - LO0) / {t0}) {{\n\
                 \x20           for tv in fdiv({vmin} - vank, {t1})..=fdiv({vmax} - vank, {t1}) {{\n\
                 \x20               let ulo = LO0 + tu * {t0};\n\
                 \x20               let uhi = if ulo + {t0} - 1 < HI0 {{ ulo + {t0} - 1 }} else {{ HI0 }};\n\
                 \x20               for u in ulo..=uhi {{\n\
                 \x20                   let vband = vank + tv * {t1};\n\
                 \x20                   let vlo = if vband > {f} * u + LO1 {{ vband }} else {{ {f} * u + LO1 }};\n\
                 \x20                   let vhi = if vband + {t1} - 1 < {f} * u + HI1 {{ vband + {t1} - 1 }} else {{ {f} * u + HI1 }};\n\
                 \x20                   for v in vlo..=vhi {{\n\
                 \x20                       let i = u;\n\
                 \x20                       let j = v - {f} * u;"
            );
            out.push_str(&body(spec, "                        "));
            let _ = writeln!(
                out,
                "                    }}\n\
                 \x20               }}\n\
                 \x20           }}\n\
                 \x20       }}"
            );
        }
    }
    let _ = writeln!(
        out,
        "    }}\n\
         \x20   let ns: u128 = t0.elapsed().as_nanos();\n\
         \x20   println!(\"TIME_NS {{ns}}\");\n\
         \x20   println!(\"CHECK {{check:016x}}\");"
    );
    if spec.capture {
        let _ = writeln!(out, "    if print_out {{");
        for s in 0..spec.storage().len() {
            let _ = writeln!(
                out,
                "        for (lin, bits) in cap{s}.iter().enumerate() {{\n\
                 \x20           println!(\"OUT {s} {{lin}} {{bits:016x}}\");\n\
                 \x20       }}"
            );
        }
        let _ = writeln!(out, "    }}");
    }
    let _ = writeln!(out, "}}\n");
}

/// Generate the complete Rust program for `spec`: the one-variant case
/// of [`emit_rust_variants`], so it runs whatever name it is invoked
/// under.
pub fn emit_rust(spec: &KernelSpec) -> String {
    emit_rust_variants(spec, &[(spec.name.clone(), spec.schedule.clone())])
}

/// Generate one Rust program holding `spec` under each of `variants`'
/// loop orders.
///
/// `spec` supplies the nest, the storage, capture and provenance; its
/// own `schedule` is not used. Each variant supplies the file name that
/// selects it and the schedule it runs. One compile then builds every
/// variant; link the binary under each variant's name to run them. With
/// several variants, a name that is none of them exits with status 2.
pub fn emit_rust_variants(spec: &KernelSpec, variants: &[(String, GenSchedule)]) -> String {
    let dom = spec.nest().domain();
    let (lo0, hi0) = (dom.lo()[0], dom.hi()[0]);
    let (lo1, hi1) = (dom.lo()[1], dom.hi()[1]);
    let mut out = String::new();
    let _ = writeln!(out, "// Generated by uov-codegen — do not edit.");
    let _ = writeln!(out, "// kernel: {}", spec.name);
    for (name, schedule) in variants {
        let _ = writeln!(out, "// variant {name:?}: {}", schedule.describe());
    }
    for line in &spec.provenance {
        let _ = writeln!(out, "// {line}");
    }
    let _ = writeln!(
        out,
        "#![allow(unused)]\n\
         \n\
         /// Deterministic input for imported (halo) elements; must match\n\
         /// uov_codegen::kernel::input_value bit for bit.\n\
         fn inp(seed: u64, array: usize, e0: i64, e1: i64) -> f64 {{\n\
         \x20   let mut h = seed ^ (array as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);\n\
         \x20   h = (h ^ (e0 as u64)).wrapping_mul(0x0000_0100_0000_01B3);\n\
         \x20   h ^= h >> 29;\n\
         \x20   h = (h ^ (e1 as u64)).wrapping_mul(0x0000_0100_0000_01B3);\n\
         \x20   h ^= h >> 29;\n\
         \x20   f64::from_bits((h >> 12) | 0x3FF0_0000_0000_0000)\n\
         }}\n\
         \n\
         /// Schedule-invariant checksum mix: XOR-accumulated over points.\n\
         fn mix(s: u64, i: i64, j: i64, bits: u64) -> u64 {{\n\
         \x20   let mut h = s.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ bits;\n\
         \x20   h = (h ^ (i as u64)).wrapping_mul(0x0000_0100_0000_01B3);\n\
         \x20   h = (h ^ (j as u64)).wrapping_mul(0x0000_0100_0000_01B3);\n\
         \x20   h ^ (h >> 31)\n\
         }}\n\
         \n\
         fn fdiv(a: i64, b: i64) -> i64 {{\n\
         \x20   let q = a / b;\n\
         \x20   if a % b != 0 && (a < 0) != (b < 0) {{ q - 1 }} else {{ q }}\n\
         }}\n"
    );
    let _ = writeln!(out, "const LO0: i64 = {lo0};\nconst HI0: i64 = {hi0};");
    let _ = writeln!(out, "const LO1: i64 = {lo1};\nconst HI1: i64 = {hi1};\n");
    for (v, (_, schedule)) in variants.iter().enumerate() {
        emit_variant(&mut out, spec, v, schedule);
    }
    let _ = writeln!(
        out,
        "fn main() {{\n\
         \x20   let args: Vec<String> = std::env::args().collect();\n\
         \x20   let seed: u64 = args.get(1).and_then(|a| a.parse().ok()).unwrap_or(1);\n\
         \x20   let reps: u32 = args.get(2).and_then(|a| a.parse().ok()).unwrap_or(1);\n\
         \x20   let print_out = args.get(3).map(|a| a == \"1\").unwrap_or(false);"
    );
    if variants.len() == 1 {
        let _ = writeln!(out, "    variant_0(seed, reps, print_out);");
    } else {
        let _ = writeln!(
            out,
            "    let name = args\n\
             \x20       .first()\n\
             \x20       .and_then(|a| std::path::Path::new(a).file_name())\n\
             \x20       .and_then(|n| n.to_str())\n\
             \x20       .unwrap_or(\"\");\n\
             \x20   match name {{"
        );
        for (v, (name, _)) in variants.iter().enumerate() {
            let _ = writeln!(
                out,
                "        {name:?} => variant_{v}(seed, reps, print_out),"
            );
        }
        let names: Vec<&str> = variants.iter().map(|(n, _)| n.as_str()).collect();
        let _ = writeln!(
            out,
            "        other => {{\n\
             \x20           eprintln!(\"no variant named {{other:?}}; variants: {{}}\", {:?});\n\
             \x20           std::process::exit(2);\n\
             \x20       }}\n\
             \x20   }}",
            names.join(", ")
        );
    }
    let _ = writeln!(out, "}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use uov_isg::ivec;
    use uov_loopir::examples;
    use uov_storage::{Layout, OvMap};

    #[test]
    fn emitted_source_has_protocol_and_mapped_index() {
        let nest = examples::stencil5_nest(4, 8);
        let map = OvMap::new(nest.domain(), ivec![2, 0], Layout::Interleaved);
        let spec = super::super::kernel::KernelSpec::new(
            "stencil5",
            &nest,
            &[Some(&map)],
            GenSchedule::SkewTiled { f: 2, tile: [2, 4] },
        )
        .unwrap()
        .with_provenance(vec!["certificate transcript hash 0xdeadbeef".into()]);
        let src = emit_rust(&spec);
        assert!(src.contains("// kernel: stencil5"));
        assert!(src.contains("0xdeadbeef"));
        assert!(src.contains("TIME_NS"));
        assert!(src.contains("rem_euclid(2)"), "modterm expected:\n{src}");
        assert!(src.contains("for tu in"), "tile loops expected");
    }

    #[test]
    fn variants_share_helpers_and_dispatch_on_name() {
        let nest = examples::fig1_nest(4, 4);
        let spec =
            super::super::kernel::KernelSpec::new("fig1", &nest, &[], GenSchedule::Lex).unwrap();
        let tiled = GenSchedule::SkewTiled { f: 1, tile: [2, 4] };
        let src = emit_rust_variants(
            &spec,
            &[
                ("baseline".to_string(), GenSchedule::Lex),
                ("tile_2x4".to_string(), tiled),
            ],
        );
        assert_eq!(src.matches("fn inp(").count(), 1);
        assert_eq!(src.matches("const LO0").count(), 1);
        assert_eq!(src.matches("#[inline(never)]").count(), 2);
        assert!(src.contains("\"baseline\" => variant_0(seed, reps, print_out)"));
        assert!(src.contains("\"tile_2x4\" => variant_1(seed, reps, print_out)"));
        let single = emit_rust(&spec);
        assert!(single.contains("    variant_0(seed, reps, print_out);"));
        assert!(!single.contains("match name"));
    }

    #[test]
    fn untiled_natural_emits_plain_loops() {
        let nest = examples::fig1_nest(4, 4);
        let spec =
            super::super::kernel::KernelSpec::new("fig1", &nest, &[], GenSchedule::Lex).unwrap();
        let src = emit_rust(&spec);
        assert!(src.contains("for i in LO0..=HI0"));
        assert!(!src.contains("for tu in"));
    }
}
