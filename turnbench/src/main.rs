//! `turnbench`: the repository's benchmark.
//!
//! ```text
//! turnbench --workload <name> [--seed N] [--seconds S] [--trace [0|1]] [--self-test]
//! turnbench compare <runs-A.jsonl> <runs-B.jsonl> [--benchmark <BENCHMARK.json>]
//! turnbench baseline <runs.jsonl>
//! ```
//!
//! See `README.md` beside this package for the workloads, the metrics and
//! what each is expected to move.

mod compare;
mod env;
mod json;
mod run;
mod spec;
mod stats;
mod trace;
mod workloads;

use std::process::ExitCode;

const USAGE: &str = "usage:
  turnbench --workload <name> [--seed N] [--seconds S] [--trace [0|1]] [--self-test]
  turnbench compare <runs-A.jsonl> <runs-B.jsonl> [--benchmark <BENCHMARK.json>]
  turnbench baseline <runs.jsonl>";

/// Report a command-line or input-file problem; exit code 2 keeps it apart
/// from a failed check (1).
fn usage_error(message: &str) -> ExitCode {
    eprintln!("turnbench: {message}\n{USAGE}");
    eprintln!("workloads:");
    for w in &workloads::WORKLOADS {
        eprintln!("  {:<14} {}", w.name, w.why);
    }
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("compare") => compare::compare(&args[1..]),
        Some("baseline") => compare::baseline(&args[1..]),
        _ => run::main(&args),
    }
}
