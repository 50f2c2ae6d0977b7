//! `turnprove` — machine-checkable proof certificates for every
//! configuration of the turn-model workspace.
//!
//! Usage:
//!
//! ```text
//! turnprove [--quick] [--out FILE] [--inject-bad]
//!
//! --quick        shrink the sweep mesh and the cross-validation runs
//! --out FILE     write the JSON report here (default results/turnprove.json)
//! --inject-bad   declare a planted cyclic VC assignment deadlock free;
//!                the run must then FAIL with a checker-validated witness
//!                cycle (self-test of the gate)
//! ```
//!
//! Exit status is zero exactly when every certificate was accepted by the
//! independent checker, every verdict matched its expectation, and every
//! simulator cross-validation agreed.

use std::process::ExitCode;
use turnroute_analysis::cli;
use turnroute_analysis::prove::{run, ProveOptions};

fn main() -> ExitCode {
    let usage = "turnprove [--quick] [--out FILE] [--inject-bad]";
    cli::main(
        usage,
        "results/turnprove.json",
        |args| {
            run(&ProveOptions {
                quick: args.has("--quick"),
                inject_bad: args.has("--inject-bad"),
            })
        },
        |_, _| Ok(()),
    )
}
