//! `turnsynth` — synthesized escape/adaptive VC assignments, with
//! certificates, for every cyclic configuration in the matrix.
//!
//! Usage:
//!
//! ```text
//! turnsynth [--quick] [--out FILE] [--inject-bad]
//!
//! --quick        shrink the simulator cross-checks
//! --out FILE     write the JSON report here (default results/turnsynth.json)
//! --inject-bad   plant a dependency cycle inside the escape class of one
//!                synthesized assignment while keeping the clean
//!                certificate; the independent checker — not the
//!                synthesizer — must reject it and the run must FAIL
//!                (self-test of the gate)
//! ```
//!
//! Exit status is zero exactly when every cyclic input received a
//! synthesized assignment whose certificate the independent checker
//! accepted, with full connectivity, no escape dead ends, and agreeing
//! simulator cross-validations.

use std::process::ExitCode;
use turnroute_analysis::cli;
use turnroute_analysis::synth::{run, SynthOptions};

fn main() -> ExitCode {
    let usage = "turnsynth [--quick] [--out FILE] [--inject-bad]";
    cli::main(
        usage,
        "results/turnsynth.json",
        |args| {
            run(&SynthOptions {
                quick: args.has("--quick"),
                inject_bad: args.has("--inject-bad"),
            })
        },
        |_, _| Ok(()),
    )
}
