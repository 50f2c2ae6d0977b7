//! `exp` — regenerate the paper's figures and tables.
//!
//! ```text
//! exp <subcommand> [--quick] [--seed N] [--out DIR] [--metrics-out FILE] [--trace] [--inject-bad]
//! ```
//!
//! The subcommands are the rows of [`ROWS`] — what each regenerates and
//! the files it writes under `--out` (without `--out`, text goes to
//! stdout) — plus `all`, which runs every row in table order. Running
//! `exp` with no arguments prints the table.

use std::path::PathBuf;
use std::process::ExitCode;
use turnroute_experiments::{
    adaptiveness_exp, buffers, census, chaos, claims, faults, fig1, figures, linkload, mc_exp,
    node_delay, nonminimal_exp, numbering_exp, paths, pcube_table, policies, scope, synth_exp,
    theorems, vc_ablation, Scale,
};
use turnroute_model::RoutingFunction;
use turnroute_obslog::artifact;
use turnroute_routing::{mesh2d, RoutingMode};
use turnroute_traffic::MeshTranspose;

struct Options {
    scale: Scale,
    seed: u64,
    out: Option<PathBuf>,
    /// Run sweeps instrumented and write per-point channel heatmaps and
    /// latency histograms (JSON) to this path.
    metrics_out: Option<PathBuf>,
    /// Emit the flit-level event trace / deadlock postmortem (JSONL) for
    /// subcommands that support it (`fig1`).
    trace: bool,
    /// `chaos` only: submit a deliberately stale certificate to the
    /// checker gate; the run passes only if the checker rejects it.
    inject_bad: bool,
}

impl Options {
    /// The mesh side the scale-dependent tables use.
    fn mesh_side(&self) -> u16 {
        match self.scale {
            Scale::Quick => 8,
            Scale::Full => 16,
        }
    }
}

/// One file's content: text goes through the shared artifact writer (or
/// to stdout), a sealed binary log is written raw and only under `--out`.
enum Content {
    Text(String),
    Binary(Vec<u8>),
}

/// What one subcommand produced.
#[derive(Default)]
struct Produced {
    /// Contents of the row's files, in order; a trailing optional file
    /// (`fig1`'s trace) may be missing.
    files: Vec<Content>,
    /// Per-point sweep metrics, when the row ran instrumented.
    metrics: Option<String>,
    /// Why the process must exit nonzero once the files are written: the
    /// study's own pass/fail contract did not hold.
    failed: Option<String>,
}

impl Produced {
    fn text(files: impl IntoIterator<Item = String>) -> Produced {
        Produced {
            files: files.into_iter().map(Content::Text).collect(),
            ..Produced::default()
        }
    }

    /// A study with a pass/fail contract: `what` FAILED unless `passed`.
    fn study(md: String, passed: bool, what: &str) -> Produced {
        Produced {
            failed: (!passed).then(|| format!("{what} FAILED:\n{md}")),
            ..Produced::text([md])
        }
    }
}

/// A subcommand: its name, what it regenerates, the files it writes, and
/// how. Usage, dispatch and `all` all read this one table.
struct Row {
    name: &'static str,
    about: &'static str,
    files: &'static [&'static str],
    run: fn(&Options) -> Produced,
}

#[rustfmt::skip]
const ROWS: &[Row] = &[
    Row { name: "fig1", about: "Figure 1 deadlock demonstration (--trace: + JSONL postmortem)",
          files: &["fig1.md", "fig1_postmortem.jsonl"],
          run: |o| Produced::text([fig1::render()].into_iter().chain(o.trace.then(fig1::postmortem))) },
    Row { name: "turn-census", about: "Figures 2-4 + the 16-way census",
          files: &["turn_census.md"], run: |_| Produced::text([census::render()]) },
    Row { name: "turn-census-3d", about: "the 4096-way 3D census (extension)",
          files: &["turn_census_3d.md"], run: |_| Produced::text([census::render_3d()]) },
    Row { name: "example-paths", about: "Figures 5b/9b/10b path traces",
          files: &["example_paths.md"], run: |_| Produced::text([paths::render()]) },
    Row { name: "numbering", about: "Figures 6-8, Theorems 2 & 5",
          files: &["numbering.md"], run: |_| Produced::text([numbering_exp::render()]) },
    Row { name: "theorems", about: "Theorems 1 & 6 counts",
          files: &["theorems.md"], run: |_| Produced::text([theorems::render(6)]) },
    Row { name: "adaptiveness-2d", about: "Section 3.4 adaptiveness table",
          files: &["adaptiveness_2d.md"],
          run: |o| Produced::text([adaptiveness_exp::render(o.mesh_side())]) },
    Row { name: "pcube-table", about: "Section 5 10-cube table",
          files: &["pcube_table.md"], run: |_| Produced::text([pcube_table::render()]) },
    Row { name: "fig13", about: "Section 6 sweep: uniform traffic, 16x16 mesh",
          files: &["fig13.md", "fig13.csv", "fig13.svg"], run: |o| figure(13, o) },
    Row { name: "fig14", about: "Section 6 sweep: matrix transpose, 16x16 mesh",
          files: &["fig14.md", "fig14.csv", "fig14.svg"], run: |o| figure(14, o) },
    Row { name: "fig15", about: "Section 6 sweep: matrix transpose, binary 8-cube",
          files: &["fig15.md", "fig15.csv", "fig15.svg"], run: |o| figure(15, o) },
    Row { name: "fig16", about: "Section 6 sweep: reverse flip, binary 8-cube",
          files: &["fig16.md", "fig16.csv", "fig16.svg"], run: |o| figure(16, o) },
    Row { name: "claims", about: "Section 6 scalar claims",
          files: &["claims.md"], run: |o| Produced::text([claims::render(o.scale, o.seed)]) },
    Row { name: "link-load", about: "channel-load imbalance ablation",
          files: &["link_load.md"], run: |o| Produced::text([render_link_load(o.seed)]) },
    Row { name: "policy-ablation", about: "input/output selection policy grid ([19])",
          files: &["policy_ablation.md"],
          run: |o| {
              let wf = mesh2d::west_first(RoutingMode::Minimal);
              Produced::text([policies::render(&wf, o.scale, o.seed)])
          } },
    Row { name: "nonminimal", about: "minimal vs nonminimal, healthy and faulty",
          files: &["nonminimal.md"],
          run: |o| Produced::text([nonminimal_exp::render(o.scale, o.seed)]) },
    Row { name: "vc-ablation", about: "no-extra-channel adaptivity vs double-y VCs",
          files: &["vc_ablation.md"], run: |o| Produced::text([vc_ablation::render(o.scale, o.seed)]) },
    Row { name: "buffer-depth", about: "input-buffer depth sensitivity",
          files: &["buffer_depth.md"], run: |o| Produced::text([buffers::render(o.scale, o.seed)]) },
    Row { name: "node-delay", about: "Section 7's route-selection delay trade-off",
          files: &["node_delay.md"], run: |o| Produced::text([node_delay::render(o.scale, o.seed)]) },
    Row { name: "faults", about: "graceful degradation vs failed-link fraction",
          files: &["faults.md", "faults.csv", "faults.json"],
          run: |o| Produced::text(fault_outputs(o.scale, o.seed)) },
    // Both engines under a seeded MTTF/MTTR fault storm with the healing
    // engine and invariant sanitizer attached; the sealed binary healing
    // log is replayable and byte-comparable via `turnstat`.
    Row { name: "chaos", about: "chaos-storm soak with certificate-gated healing (--inject-bad: self-test)",
          files: &["chaos.md", "chaos_heal.ttr"],
          run: |o| {
              let report = chaos::soak(o.scale, o.seed, o.inject_bad);
              let mut produced = Produced::study(report.render(), report.passed(), "chaos soak");
              produced.files.push(Content::Binary(report.log));
              produced
          } },
    // Load ramp with blame decomposition, planted collapse with
    // early-warning lead time, clean heavy-load baseline, and chaos-storm
    // telemetry determinism; fails unless the early-warning contract held.
    Row { name: "scope", about: "turnscope saturation-approach study",
          files: &["scope.md"],
          run: |o| {
              let report = scope::study(o.scale, o.seed);
              Produced::study(report.render(), report.passed(), "scope study")
          } },
    Row { name: "mc", about: "turncheck exhaustive state-space census",
          files: &["mc.md"],
          run: |o| {
              let (md, passed) = mc_exp::study(o.scale);
              Produced::study(md, passed, "model-checking census")
          } },
    Row { name: "synth", about: "turnsynth escape/adaptive synthesis study",
          files: &["synth.md"],
          run: |o| {
              let (md, passed) = synth_exp::study(o.scale);
              Produced::study(md, passed, "synthesis study")
          } },
];

fn usage() -> ExitCode {
    eprintln!(
        "usage: exp <subcommand> [--quick] [--seed N] [--out DIR] [--metrics-out FILE] \
         [--trace] [--inject-bad]\n\nsubcommands:"
    );
    for row in ROWS {
        eprintln!("  {:<16} {}", row.name, row.about);
    }
    eprintln!("  {:<16} every subcommand above, in order", "all");
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let Some(cmd) = args.next() else {
        return usage();
    };
    let mut opts = Options {
        scale: Scale::Full,
        seed: 1,
        out: None,
        metrics_out: None,
        trace: false,
        inject_bad: false,
    };
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--quick" => opts.scale = Scale::Quick,
            "--trace" => opts.trace = true,
            "--inject-bad" => opts.inject_bad = true,
            "--seed" => {
                let Some(v) = args.next().and_then(|s| s.parse().ok()) else {
                    return usage();
                };
                opts.seed = v;
            }
            "--out" => {
                let Some(v) = args.next() else {
                    return usage();
                };
                opts.out = Some(PathBuf::from(v));
            }
            "--metrics-out" => {
                let Some(v) = args.next() else {
                    return usage();
                };
                opts.metrics_out = Some(PathBuf::from(v));
            }
            _ => return usage(),
        }
    }

    // `--faults` accepted as an alias so the sweep reads naturally as a
    // flag: `exp --faults --quick`.
    let cmd = if cmd == "--faults" { "faults" } else { &cmd };
    let selected: Vec<&Row> = ROWS
        .iter()
        .filter(|row| cmd == "all" || cmd == row.name)
        .collect();
    if selected.is_empty() {
        return usage();
    }
    let mut metrics_docs: Vec<String> = Vec::new();
    let mut failures: Vec<String> = Vec::new();
    for row in selected {
        if cmd == "all" {
            eprintln!("running {}...", row.name);
        }
        let produced = (row.run)(&opts);
        metrics_docs.extend(produced.metrics);
        failures.extend(produced.failed);
        for (name, content) in row.files.iter().zip(produced.files) {
            let Some(dir) = &opts.out else {
                if let Content::Text(text) = content {
                    println!("{}", artifact::normalized(text));
                }
                continue;
            };
            let path = dir.join(name);
            let written = match content {
                // The shared artifact writer normalizes every text file
                // to exactly one trailing newline, so reruns are
                // byte-identical and diff- and POSIX-tool-friendly.
                Content::Text(text) => artifact::write_artifact(&path, &text),
                Content::Binary(bytes) => std::fs::write(&path, bytes),
            };
            if let Err(e) = written {
                eprintln!("cannot write {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
            eprintln!("wrote {}", path.display());
        }
    }
    if let Some(path) = &opts.metrics_out {
        if metrics_docs.is_empty() {
            eprintln!("--metrics-out applies to sweep subcommands (fig13..fig16, all)");
            return ExitCode::FAILURE;
        }
        let doc = if metrics_docs.len() == 1 {
            metrics_docs.remove(0)
        } else {
            format!("[{}]", metrics_docs.join(","))
        };
        if let Err(e) = artifact::write_artifact(path, &doc) {
            eprintln!("cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        eprintln!("wrote {}", path.display());
    }
    for failure in &failures {
        eprintln!("{failure}");
    }
    if failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Run the graceful-degradation sweep: every turn-model algorithm over
/// the same random link-failure patterns on a uniform-traffic mesh.
fn fault_outputs(scale: Scale, seed: u64) -> [String; 3] {
    let m = match scale {
        Scale::Quick => 8,
        Scale::Full => 16,
    };
    let mesh = turnroute_topology::Mesh::new_2d(m, m);
    let uniform = turnroute_traffic::Uniform::new();
    let fractions = faults::default_fractions();
    let algorithms: Vec<Box<dyn RoutingFunction + Sync>> = vec![
        Box::new(mesh2d::xy()),
        Box::new(mesh2d::west_first(RoutingMode::Minimal)),
        Box::new(mesh2d::north_last(RoutingMode::Minimal)),
        Box::new(mesh2d::negative_first(RoutingMode::Minimal)),
    ];
    let curves: Vec<_> = algorithms
        .iter()
        .map(|alg| faults::fault_sweep(&mesh, alg.as_ref(), &uniform, &fractions, scale, seed))
        .collect();
    let title = format!("Graceful degradation under link faults, {m}x{m} mesh");
    [
        faults::to_markdown(&curves, &title),
        faults::to_csv(&curves),
        faults::to_json(&curves, &title),
    ]
}

fn render_link_load(seed: u64) -> String {
    let algorithms: Vec<Box<dyn RoutingFunction>> = vec![
        Box::new(mesh2d::xy()),
        Box::new(mesh2d::west_first(RoutingMode::Minimal)),
        Box::new(mesh2d::negative_first(RoutingMode::Minimal)),
    ];
    linkload::render(&algorithms, &MeshTranspose::new(), seed)
}

/// Run one figure's sweeps once and render all artifacts from them;
/// under `--metrics-out` additionally capture per-point channel heatmaps
/// and latency histograms as a JSON document.
fn figure(n: u8, opts: &Options) -> Produced {
    let (scale, seed, instrument) = (opts.scale, opts.seed, opts.metrics_out.is_some());
    let (sweeps, title) = match n {
        13 => (
            figures::fig13(scale, seed, instrument),
            "Figure 13: uniform traffic, 16x16 mesh",
        ),
        14 => (
            figures::fig14(scale, seed, instrument),
            "Figure 14: matrix-transpose traffic, 16x16 mesh",
        ),
        15 => (
            figures::fig15(scale, seed, instrument),
            "Figure 15: matrix-transpose traffic, binary 8-cube",
        ),
        16 => (
            figures::fig16(scale, seed, instrument),
            "Figure 16: reverse-flip traffic, binary 8-cube",
        ),
        _ => unreachable!("the table names figures 13 to 16"),
    };
    let md = turnroute_experiments::sweep::to_markdown(&sweeps, title);
    let mut csv = String::new();
    for (i, s) in sweeps.iter().enumerate() {
        let one = s.to_csv();
        if i == 0 {
            csv.push_str(&one);
        } else {
            // Skip the repeated header line.
            csv.extend(one.split_once('\n').map(|(_, rest)| rest.to_string()));
        }
    }
    let svg = turnroute_experiments::plot::latency_vs_throughput_svg(&sweeps, title, 120.0);
    Produced {
        metrics: instrument.then(|| turnroute_experiments::sweep::metrics_json(&sweeps, title)),
        ..Produced::text([md, csv, svg])
    }
}
