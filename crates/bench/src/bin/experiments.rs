//! Regenerate the paper's tables and figures.
//!
//! ```text
//! experiments [--quick] [--csv DIR] [NAME…|all]
//! ```
//!
//! Names are the paper's own: `fig1 fig2 fig3 fig5 fig6 table1 table2
//! fig7 fig8 fig9 fig10 fig11 fig12 fig13 fig14 npc ablation`, plus the
//! schedule studies `jacobi tiles baseline`.

use std::path::PathBuf;
use std::process::ExitCode;

use uov_bench::{experiments, Scale};

fn main() -> ExitCode {
    let mut scale = Scale::Full;
    let mut csv_dir: Option<PathBuf> = None;
    let mut names: Vec<String> = Vec::new();

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => scale = Scale::Quick,
            "--csv" => match args.next() {
                Some(dir) => csv_dir = Some(PathBuf::from(dir)),
                None => {
                    eprintln!("--csv needs a directory argument");
                    return ExitCode::FAILURE;
                }
            },
            "--help" | "-h" => {
                println!("usage: experiments [--quick] [--csv DIR] [NAME…|all]");
                println!("experiments: {}", experiments::all_names().join(" "));
                return ExitCode::SUCCESS;
            }
            name => names.push(name.to_string()),
        }
    }
    if names.is_empty() || names.iter().any(|n| n == "all") {
        names = experiments::all_names()
            .iter()
            .map(|s| s.to_string())
            .collect();
    }

    for name in &names {
        let Some(tables) = experiments::run(name, scale) else {
            eprintln!(
                "unknown experiment `{name}` (known: {})",
                experiments::all_names().join(", ")
            );
            return ExitCode::FAILURE;
        };
        for (i, table) in tables.iter().enumerate() {
            println!("{}", table.to_markdown());
            if let Some(dir) = &csv_dir {
                let file = if tables.len() == 1 {
                    name.clone()
                } else {
                    format!("{name}_{i}")
                };
                if let Err(e) = table.save_csv(dir, &file) {
                    eprintln!("failed to write {file}.csv: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
    }
    ExitCode::SUCCESS
}
