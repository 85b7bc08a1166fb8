//! Crash-safe checkpoint/resume, demonstrated end to end.
//!
//! The search below visits ~1.3 million nodes (a few seconds of work).
//! Run it with a snapshot path and it periodically writes an atomic,
//! CRC-protected snapshot of the entire search state; kill the process
//! at any point — even `kill -9` — and re-running the same command
//! resumes from the last snapshot and finishes with the **byte-identical**
//! `(uov, cost)` a never-interrupted run produces.
//!
//! ```text
//! cargo run --release --example checkpoint_resume clean
//!     # → uov=... cost=...   (reference, no checkpointing)
//!
//! cargo run --release --example checkpoint_resume run /tmp/search.ckpt
//!     # kill -9 it mid-run, then run the same command again — repeat as
//!     # often as you like; the final line is identical to `clean`.
//! ```
//!
//! Only the result line goes to stdout; progress notes go to stderr, so
//! `diff <(... clean) <(... run PATH)` is a meaningful equality check.

use std::path::Path;

use uov::core::checkpoint::CheckpointConfig;
use uov::core::search::{find_best_uov, search_resume, Objective, SearchConfig, SearchResult};
use uov::core::{certify, SearchError};
use uov::isg::{ivec, Stencil};

/// Nodes expanded before the first snapshot. Each later gap is at least
/// the nodes expanded so far, so the gaps double: a kill loses at most
/// `max(INTERVAL, half the work done)`. Each snapshot re-encodes and
/// fsyncs the whole PATHSET table, which grows with the search (to about
/// 42 MB here); with doubling gaps that is six snapshots, and on a 2-vCPU
/// host a checkpointed run takes about twice as long as `clean`.
const INTERVAL: u64 = 50_000;

fn workload() -> Stencil {
    Stencil::new(vec![
        ivec![3, 0, 0],
        ivec![0, 4, 0],
        ivec![0, 0, 5],
        ivec![1, 2, 3],
        ivec![2, 1, 1],
        ivec![1, 1, 4],
    ])
    .expect("static stencil is valid")
}

fn report(stencil: &Stencil, result: &SearchResult) {
    // Re-validate before printing: the result line is only ever a
    // certified one, resumed or not.
    let cert = certify(stencil, &Objective::ShortestVector, result)
        .expect("the engine's answer must pass the independent checker");
    eprintln!("note: {cert}");
    println!("uov={} cost={}", result.uov, result.cost);
}

fn main() -> Result<(), SearchError> {
    let args: Vec<String> = std::env::args().collect();
    let stencil = workload();
    match args.get(1).map(String::as_str) {
        Some("clean") => {
            let res = find_best_uov(
                &stencil,
                Objective::ShortestVector,
                &SearchConfig::default(),
            )?;
            report(&stencil, &res);
        }
        Some("run") => {
            let path = args.get(2).map(Path::new).unwrap_or_else(|| {
                eprintln!("usage: checkpoint_resume run <snapshot-path>");
                std::process::exit(2);
            });
            let config = SearchConfig {
                checkpoint: Some(CheckpointConfig {
                    path: path.to_path_buf(),
                    interval: INTERVAL,
                }),
                ..SearchConfig::default()
            };
            let res = if path.exists() {
                eprintln!("note: resuming from {}", path.display());
                search_resume(path, &stencil, Objective::ShortestVector, &config)?
            } else {
                eprintln!("note: fresh run, snapshotting to {}", path.display());
                find_best_uov(&stencil, Objective::ShortestVector, &config)?
            };
            if let Some(e) = &res.checkpoint_error {
                eprintln!("note: snapshot writes failed: {e}");
            }
            report(&stencil, &res);
        }
        _ => {
            eprintln!("usage: checkpoint_resume clean | checkpoint_resume run <snapshot-path>");
            std::process::exit(2);
        }
    }
    Ok(())
}
