//! The command line the four analysis tools share.
//!
//! Each binary states its flags once, as its usage line (`turnprove
//! [--quick] [--out FILE] [--inject-bad]`), and hands [`main`] that line,
//! its default `--out` path and its run. [`main`] parses the flags the
//! line lists, prints the usage on anything else, runs the tool, prints
//! the report, writes the JSON artifact and exits with the verdict.

use crate::{LintReport, McReport, ProveReport, SynthReport};
use std::path::Path;
use std::process::ExitCode;

/// A tool's report, as [`main`] prints, writes and judges it.
pub trait Report {
    /// Human-readable diagnostics, printed to stdout.
    fn render(&self) -> String;
    /// The JSON artifact written to `--out`.
    fn to_json(&self) -> String;
    /// Whether the run passed: the exit status.
    fn passed(&self) -> bool;
}

macro_rules! report {
    ($($report:ty),*) => {$(impl Report for $report {
        fn render(&self) -> String { <$report>::render(self) }
        fn to_json(&self) -> String { <$report>::to_json(self) }
        fn passed(&self) -> bool { <$report>::passed(self) }
    })*};
}

report!(LintReport, McReport, ProveReport, SynthReport);

/// The flags a command line gave, each with its value if it takes one.
#[derive(Debug)]
pub struct Args(Vec<(String, Option<String>)>);

impl Args {
    /// Parse `args` against `usage`, whose `[--flag]` and `[--flag VALUE]`
    /// items are the accepted flags; `None` on any other argument or a
    /// missing value.
    pub fn parse(usage: &str, args: impl IntoIterator<Item = String>) -> Option<Args> {
        let items = usage.split('[').skip(1).filter_map(|i| i.split(']').next());
        let flags: Vec<Vec<&str>> = items.map(|i| i.split(' ').collect()).collect();
        let mut args = args.into_iter();
        let mut given = Vec::new();
        while let Some(arg) = args.next() {
            let flag = flags.iter().find(|f| f[0] == arg)?;
            let value = if flag.len() > 1 {
                Some(args.next()?)
            } else {
                None
            };
            given.push((arg, value));
        }
        Some(Args(given))
    }

    /// Whether `flag` was given.
    pub fn has(&self, flag: &str) -> bool {
        self.0.iter().any(|(f, _)| f == flag)
    }

    /// The value `flag` was last given.
    pub fn value(&self, flag: &str) -> Option<&str> {
        self.0.iter().rev().find(|(f, _)| f == flag)?.1.as_deref()
    }
}

/// Run one analysis tool from the process's arguments. `usage` is the
/// tool's name followed by its flags (see [`Args::parse`]); `--out FILE`
/// names the JSON artifact (default `default_out`). `after` writes any
/// further files, returning the message for a failure.
pub fn main<R: Report>(
    usage: &str,
    default_out: &str,
    run: impl FnOnce(&Args) -> R,
    after: impl FnOnce(&Args, &R) -> Result<(), String>,
) -> ExitCode {
    let tool = usage.split(' ').next().unwrap_or(usage);
    let Some(args) = Args::parse(usage, std::env::args().skip(1)) else {
        eprintln!("usage: {usage}");
        return ExitCode::FAILURE;
    };
    let report = run(&args);
    print!("{}", report.render());
    let out = Path::new(args.value("--out").unwrap_or(default_out));
    let written = turnroute_obslog::artifact::write_artifact(out, &report.to_json())
        .map_err(|e| format!("cannot write {}: {e}", out.display()));
    if written.is_ok() {
        eprintln!("{tool}: report written to {}", out.display());
    }
    match written.and_then(|()| after(&args, &report)) {
        Err(e) => {
            eprintln!("{tool}: {e}");
            ExitCode::FAILURE
        }
        Ok(()) if report.passed() => ExitCode::SUCCESS,
        Ok(()) => ExitCode::FAILURE,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const USAGE: &str = "tool [--quick] [--out FILE] [--ttr-out FILE] [--inject-bad]";

    fn parse(args: &[&str]) -> Option<Args> {
        Args::parse(USAGE, args.iter().map(|a| a.to_string()))
    }

    #[test]
    fn the_usage_line_is_the_flag_table() {
        let args = parse(&["--quick", "--out", "a", "--ttr-out", "t", "--out", "b"]).unwrap();
        assert!(args.has("--quick") && !args.has("--inject-bad"));
        assert_eq!(args.value("--out"), Some("b"), "the last value wins");
        assert_eq!(args.value("--ttr-out"), Some("t"));
        assert_eq!(args.value("--quick"), None);
        assert!(parse(&[]).is_some_and(|a| !a.has("--quick")));
    }

    #[test]
    fn unknown_flags_and_missing_values_are_usage_errors() {
        assert!(parse(&["--min-witness"]).is_none());
        assert!(parse(&["--out"]).is_none());
        assert!(parse(&["quick"]).is_none());
        assert!(parse(&["FILE"]).is_none());
    }
}
