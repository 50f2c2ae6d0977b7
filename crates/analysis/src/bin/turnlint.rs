//! `turnlint` — the machine-checkable CI gate over the turn-model
//! design space.
//!
//! Usage:
//!
//! ```text
//! turnlint [--quick] [--out FILE] [--inject-bad] [--min-witness]
//!
//! --quick        shorten simulation runs and skip the 3D census
//! --out FILE     write the JSON report here (default results/turnlint.json)
//! --inject-bad   inject a known-broken turn set; the run must then FAIL
//!                with a witness cycle (self-test of the gate)
//! --min-witness  report globally-minimal witness cycles (BFS girth
//!                search) and pin the unrestricted mesh CDG girth
//! ```
//!
//! Exit status is zero exactly when every claim, matrix row, and
//! sanitized simulation passed.

use std::process::ExitCode;
use turnroute_analysis::cli;
use turnroute_analysis::lint::{run, LintOptions};

fn main() -> ExitCode {
    let usage = "turnlint [--quick] [--out FILE] [--inject-bad] [--min-witness]";
    cli::main(
        usage,
        "results/turnlint.json",
        |args| {
            run(&LintOptions {
                quick: args.has("--quick"),
                inject_bad: args.has("--inject-bad"),
                min_witness: args.has("--min-witness"),
            })
        },
        |_, _| Ok(()),
    )
}
