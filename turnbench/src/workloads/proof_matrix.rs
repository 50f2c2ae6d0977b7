//! `proof_matrix`: the four analysis matrices at full scale, in-process.
//!
//! `analysis` does the work and drives the engines differently from the
//! other workloads: `mc` snapshots, restores and steps them with scripted
//! choices; `prove`, `synth` and `lint` cross-check verdicts with
//! saturating probe runs. It catches an engine speed-up that makes
//! snapshots or `Sim::new` dearer. The matrices take no seed: their
//! inputs are the fixed configuration lists inside `analysis`.

use super::{timed, Layers, Rep, Workload};
use crate::trace::Tracer;
use std::hint::black_box;
use turnroute_analysis::extract;
use turnroute_analysis::lint::{self, LintOptions};
use turnroute_analysis::mc::{self, McOptions};
use turnroute_analysis::prove::{self, ProveOptions};
use turnroute_analysis::synth::{self, SynthOptions};
use turnroute_routing::{mesh2d, RoutingMode};
use turnroute_topology::Mesh;

pub const PROOF_MATRIX: Workload = Workload {
    name: "proof_matrix",
    why:
        "analysis does the work and drives the engines through snapshot/restore and scripted steps",
    min_reps: 3,
    setup,
    rep,
    layers,
};

/// Lower west-first on the 16×16 mesh to the explicit channel graph the
/// prover works on. The matrices build their configurations inside the
/// timed calls; this is one such lowering measured on its own.
fn setup(_seed: u64) {
    let mesh = Mesh::new_2d(16, 16);
    let routing = mesh2d::west_first(RoutingMode::Minimal);
    black_box(extract::from_routing("west-first 16x16", &mesh, &routing));
}

fn count(oks: impl Iterator<Item = bool>) -> (u64, u64) {
    oks.fold((0, 0), |(n, bad), ok| (n + 1, bad + u64::from(!ok)))
}

fn rep(_seed: u64, tr: &mut Tracer) -> Rep {
    let mut timed_s = Vec::new();
    let (proved, checked, synthesized, linted) = tr.scope("body", |tr| {
        let t = &mut timed_s;
        (
            timed(tr, "analysis.prove.run", t, |_| {
                prove::run(&ProveOptions::default())
            }),
            timed(tr, "analysis.mc.run", t, |_| mc::run(&McOptions::default())),
            timed(tr, "analysis.synth.run", t, |_| {
                synth::run(&SynthOptions::default())
            }),
            timed(tr, "analysis.lint.run", t, |_| {
                lint::run(&LintOptions::default())
            }),
        )
    });

    let counts = [
        count(proved.entries.iter().map(|e| e.ok())),
        count(proved.cross_checks.iter().map(|c| c.ok())),
        count(checked.entries.iter().map(|e| e.ok())),
        count(synthesized.entries.iter().map(|e| e.ok())),
        count(synthesized.cross_checks.iter().map(|c| c.ok())),
        count(linted.claims.iter().map(|c| c.passed)),
        count(linted.matrix.iter().map(|m| m.ok())),
        count(linted.sanitizer.iter().map(|s| s.ok())),
    ];
    let sum = |f: fn(&(u64, u64)) -> u64| counts.iter().map(f).sum::<u64>();
    let mc_states: u64 = checked.entries.iter().map(|e| e.states as u64).sum();
    let mc_transitions: u64 = checked.entries.iter().map(|e| e.transitions as u64).sum();
    Rep {
        timed_s,
        // The model checker's engine steps; the probe runs inside the
        // other matrices do not report their cycle counts.
        sim_cycles: mc_transitions,
        ops: sum(|c| c.0),
        failed: sum(|c| c.1),
        digest: vec![
            ("prove_passed", u64::from(proved.passed())),
            ("prove_entries", proved.entries.len() as u64),
            (
                "prove_channels",
                proved.entries.iter().map(|e| e.channels as u64).sum(),
            ),
            (
                "prove_deps",
                proved.entries.iter().map(|e| e.deps as u64).sum(),
            ),
            (
                "prove_certified_pairs",
                proved
                    .entries
                    .iter()
                    .map(|e| e.certified_pairs as u64)
                    .sum(),
            ),
            ("mc_passed", u64::from(checked.passed())),
            ("mc_entries", checked.entries.len() as u64),
            ("mc_states", mc_states),
            ("mc_transitions", mc_transitions),
            ("synth_passed", u64::from(synthesized.passed())),
            ("synth_entries", synthesized.entries.len() as u64),
            (
                "synth_channels",
                synthesized
                    .entries
                    .iter()
                    .map(|e| e.synth_channels as u64)
                    .sum(),
            ),
            (
                "synth_deps",
                synthesized
                    .entries
                    .iter()
                    .map(|e| e.synth_deps as u64)
                    .sum(),
            ),
            ("lint_passed", u64::from(linted.passed())),
            ("lint_claims", linted.claims.len() as u64),
            ("lint_matrix", linted.matrix.len() as u64),
            ("lint_sanitizer_runs", linted.sanitizer.len() as u64),
        ],
        parts: vec![
            ("mc_states", mc_states as f64),
            ("synth_entries", synthesized.entries.len() as f64),
        ],
    }
}

fn layers(_seed: u64, tr: &mut Tracer, traced: &[Rep], out: &mut Layers) {
    let reps = traced.len() as f64;
    let seconds = |span: &str| tr.self_ns(span) / 1e9 / reps;
    out.set("analysis.prove.matrix_s", seconds("analysis.prove.run"));
    out.set("analysis.mc.matrix_s", seconds("analysis.mc.run"));
    out.set(
        "analysis.mc.states_per_s",
        traced[0].part("mc_states") / seconds("analysis.mc.run"),
    );
    out.set("analysis.synth.matrix_s", seconds("analysis.synth.run"));
    out.set(
        "analysis.synth.ms_per_entry",
        seconds("analysis.synth.run") * 1e3 / traced[0].part("synth_entries"),
    );
    out.set("analysis.lint.matrix_s", seconds("analysis.lint.run"));
}
