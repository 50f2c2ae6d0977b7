//! `turncheck` — explicit-state bounded model checking of the production
//! engines, pinned to the turn-model proofs.
//!
//! Usage:
//!
//! ```text
//! turncheck [--quick] [--out FILE] [--ttr-out FILE] [--inject-bad]
//!
//! --quick        certify the safe turn sets on 2×2 only (skip 3×3)
//! --out FILE     write the JSON report here (default results/mc.json)
//! --ttr-out FILE write the first counterexample's replay TTRL log here
//!                (default results/mc_counterexample.ttr)
//! --inject-bad   run only a planted arbitration bug (one router skips
//!                the turn-set filter) declared deadlock free; the run
//!                must then FAIL on a reachable stuck state (self-test
//!                of the gate)
//! ```
//!
//! Exit status is zero exactly when every configuration met its
//! expectation: census-safe turn sets exhaustively deadlock free within
//! their misroute bounds, census-unsafe sets refuted by a reachable
//! deadlock that refines the CDG proof cycle and replays to a stuck
//! state on a fresh engine.

use std::path::Path;
use std::process::ExitCode;
use turnroute_analysis::cli;
use turnroute_analysis::mc::{run, McOptions, McReport};

/// Write the first counterexample's replay log to `--ttr-out`.
fn write_ttr(args: &cli::Args, report: &McReport) -> Result<(), String> {
    let Some(ttr) = &report.counterexample_ttr else {
        return Ok(());
    };
    let path = Path::new(
        args.value("--ttr-out")
            .unwrap_or("results/mc_counterexample.ttr"),
    );
    if let Some(dir) = path.parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    std::fs::write(path, ttr).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    eprintln!(
        "turncheck: counterexample log written to {} ({} bytes)",
        path.display(),
        ttr.len()
    );
    Ok(())
}

fn main() -> ExitCode {
    let usage = "turncheck [--quick] [--out FILE] [--ttr-out FILE] [--inject-bad]";
    cli::main(
        usage,
        "results/mc.json",
        |args| {
            run(&McOptions {
                quick: args.has("--quick"),
                inject_bad: args.has("--inject-bad"),
            })
        },
        write_ttr,
    )
}
