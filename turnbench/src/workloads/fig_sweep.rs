//! `fig_sweep`: Figures 13 and 16 at quick scale — what a user of the
//! repository actually runs (`exp fig13 --quick`, `exp fig16 --quick`).
//!
//! The only workload that pays `Sim::new` once per point (136 times), runs
//! the full warm-up/measure/drain protocol, routes on the hypercube, and
//! goes through `experiments::sweep`'s one-thread-per-point fan-out.

use super::{timed, Layers, Rep, Workload};
use crate::env;
use crate::stats::{fnv1a64_from, FNV_OFFSET};
use crate::trace::Tracer;
use std::hint::black_box;
use turnroute_experiments::sweep::{to_markdown, SweepResult};
use turnroute_experiments::{figures, Scale};
use turnroute_routing::{hypercube, mesh2d, ndmesh, RoutingFunction, RoutingMode};
use turnroute_sim::{Sim, SimConfig};
use turnroute_topology::{Hypercube, Mesh};
use turnroute_traffic::{ReverseFlip, Uniform};

pub const FIG_SWEEP: Workload = Workload {
    name: "fig_sweep",
    why: "what a user runs: 136 independent runs with per-point Sim::new, drain, cube routing, sweep threads",
    // One repetition is a whole pass over both figures; its digest is
    // pinned by golden.json and the Figure 16 shape instead of a second
    // repetition.
    min_reps: 1,
    setup,
    rep,
    layers,
};

/// The paper's Figure 16 result: p-cube sustains at least twice e-cube's
/// throughput under reverse-flip traffic (2422 vs 639 flits/µs at quick
/// scale, seed 1).
const PCUBE_OVER_ECUBE: f64 = 2.0;

/// Build, once each, the eight (topology, algorithm) engines the sweeps
/// build 17 times each. Construction happens inside `fig13`/`fig16`, so
/// this is the set-up cost a sweep point pays, measured on its own.
fn setup(seed: u64) {
    let cfg = || SimConfig::builder().injection_rate(0.10).seed(seed).build();
    let mesh = Mesh::new_2d(16, 16);
    let uniform = Uniform::new();
    let mesh_algorithms: [Box<dyn RoutingFunction>; 4] = [
        Box::new(mesh2d::xy()),
        Box::new(mesh2d::west_first(RoutingMode::Minimal)),
        Box::new(mesh2d::north_last(RoutingMode::Minimal)),
        Box::new(mesh2d::negative_first(RoutingMode::Minimal)),
    ];
    for alg in &mesh_algorithms {
        black_box(Sim::new(&mesh, alg, &uniform, cfg()).now());
    }
    let cube = Hypercube::new(8);
    let flip = ReverseFlip::new();
    let cube_algorithms: [Box<dyn RoutingFunction>; 4] = [
        Box::new(hypercube::e_cube(8)),
        Box::new(hypercube::p_cube(8, RoutingMode::Minimal)),
        Box::new(ndmesh::all_but_one_negative_first(8, RoutingMode::Minimal)),
        Box::new(ndmesh::all_but_one_positive_last(8, RoutingMode::Minimal)),
    ];
    for alg in &cube_algorithms {
        black_box(Sim::new(&cube, alg, &flip, cfg()).now());
    }
}

fn sustainable(sweeps: &[SweepResult], algorithm: &str) -> f64 {
    sweeps
        .iter()
        .find(|s| s.algorithm == algorithm)
        .unwrap_or_else(|| panic!("figure 16 has no '{algorithm}' curve"))
        .sustainable_throughput()
}

fn rep(seed: u64, tr: &mut Tracer) -> Rep {
    let cpu_start = env::cpu_seconds();
    let mut timed_s = Vec::new();
    let (fig13, fig16, rendered) = tr.scope("body", |tr| {
        let fig13 = timed(tr, "experiments.figures.fig13", &mut timed_s, |_| {
            figures::fig13(Scale::Quick, seed, false)
        });
        let fig16 = timed(tr, "experiments.figures.fig16", &mut timed_s, |_| {
            figures::fig16(Scale::Quick, seed, false)
        });
        let rendered = timed(tr, "experiments.sweep.render", &mut timed_s, |_| {
            let mut out = vec![
                to_markdown(&fig13, "Figure 13: uniform traffic, 16x16 mesh"),
                to_markdown(&fig16, "Figure 16: reverse-flip traffic, binary 8-cube"),
            ];
            out.extend(fig13.iter().chain(&fig16).map(SweepResult::to_csv));
            out
        });
        (fig13, fig16, rendered)
    });
    let cpu_s = env::cpu_seconds() - cpu_start;

    let points = || fig13.iter().chain(&fig16).flat_map(|s| &s.points);
    let ops = points().count() as u64;
    let shape_holds =
        sustainable(&fig16, "p-cube") >= PCUBE_OVER_ECUBE * sustainable(&fig16, "e-cube");
    // A broken Figure 16 shape is a wrong model: no point of it counts.
    let failed = if shape_holds {
        points().filter(|p| p.report.deadlocked).count() as u64
    } else {
        ops
    };
    // The two markdown documents first, then the eight CSVs.
    let fnv_of = |docs: &[String]| {
        docs.iter()
            .fold(FNV_OFFSET, |h, doc| fnv1a64_from(h, doc.as_bytes()))
    };
    Rep {
        timed_s,
        sim_cycles: points().map(|p| p.report.end_cycle).sum(),
        ops,
        failed,
        digest: vec![
            ("points", ops),
            ("csv_fnv", fnv_of(&rendered[2..])),
            ("markdown_fnv", fnv_of(&rendered[..2])),
            (
                "pcube_sustainable_bits",
                sustainable(&fig16, "p-cube").to_bits(),
            ),
            (
                "ecube_sustainable_bits",
                sustainable(&fig16, "e-cube").to_bits(),
            ),
        ],
        parts: vec![("points", ops as f64), ("cpu_s", cpu_s)],
    }
}

fn layers(_seed: u64, tr: &mut Tracer, traced: &[Rep], out: &mut Layers) {
    let reps = traced.len() as f64;
    let body_s = tr.durations_ns("body").iter().sum::<f64>() / 1e9;
    let cpu_s: f64 = traced.iter().map(|r| r.part("cpu_s")).sum();
    out.set(
        "experiments.sweep.mesh_s",
        tr.self_ns("experiments.figures.fig13") / 1e9 / reps,
    );
    out.set(
        "experiments.sweep.cube_s",
        tr.self_ns("experiments.figures.fig16") / 1e9 / reps,
    );
    out.set(
        "experiments.sweep.render_ms",
        tr.self_ns("experiments.sweep.render") / 1e6 / reps,
    );
    out.set("experiments.sweep.points", traced[0].part("points"));
    out.set("experiments.sweep.cpu_s", cpu_s / reps);
    out.set(
        "experiments.sweep.core_utilisation",
        cpu_s / (body_s * env::nproc() as f64),
    );
}
