//! Fixed-input probes of single layers, run on every traced run: the
//! costs no workload's spans can isolate (one routing decision, one
//! snapshot, one channel-graph lowering). Inputs are drawn from the seed;
//! the program sees only the generated values.

use super::Layers;
use crate::stats::median;
use crate::trace::Tracer;
use std::hint::black_box;
use turnroute_analysis::{check, extract, prove};
use turnroute_model::{Cdg, RoutingFunction};
use turnroute_rng::rngs::StdRng;
use turnroute_rng::{Rng, SeedableRng};
use turnroute_routing::{hypercube, mesh2d, RoutingMode};
use turnroute_sim::{Sim, SimConfig};
use turnroute_topology::{Direction, Hypercube, Mesh, NodeId, Topology};
use turnroute_traffic::{TrafficPattern, Uniform};
use turnroute_vc::{DoubleYAdaptive, TableVcRouting, VcSim};

/// Seeded inputs per micro-probe pass, and passes per sample.
const INPUTS: usize = 4_096;
const PASSES: usize = 64;
const SAMPLES: usize = 5;

/// Run `f` [`SAMPLES`] times, each in a span called `span`; the median
/// span duration in ns.
fn sampled_ns<R>(tr: &mut Tracer, span: &'static str, mut f: impl FnMut() -> R) -> f64 {
    let before = tr.durations_ns(span).len();
    for _ in 0..SAMPLES {
        tr.scope(span, |_| black_box(f()));
    }
    median(&tr.durations_ns(span)[before..])
}

/// [`sampled_ns`] of [`PASSES`] passes over `inputs`, per input.
fn per_input_ns<I, R>(
    tr: &mut Tracer,
    span: &'static str,
    inputs: &[I],
    mut f: impl FnMut(&I) -> R,
) -> f64 {
    let total = sampled_ns(tr, span, || {
        for _ in 0..PASSES {
            for input in inputs {
                black_box(f(black_box(input)));
            }
        }
    });
    total / (PASSES * inputs.len()) as f64
}

/// Seeded (current, destination, arrival direction) triples on `topo`.
fn routing_triples(
    topo: &dyn Topology,
    rng: &mut StdRng,
) -> Vec<(NodeId, NodeId, Option<Direction>)> {
    let nodes = topo.num_nodes() as u32;
    let dirs = 2 * topo.num_dims();
    (0..INPUTS)
        .map(|_| {
            let current = rng.gen_range(0..nodes);
            let dest = (current + rng.gen_range(1..nodes)) % nodes;
            // One decision in four is at the source (no arrival channel).
            let arrived =
                (rng.gen_range(0..4u32) > 0).then(|| Direction::from_index(rng.gen_range(0..dirs)));
            (NodeId(current), NodeId(dest), arrived)
        })
        .collect()
}

pub fn run(seed: u64, tr: &mut Tracer, out: &mut Layers) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mesh = Mesh::new_2d(16, 16);
    let cube = Hypercube::new(8);
    let west_first = mesh2d::west_first(RoutingMode::Minimal);
    let p_cube = hypercube::p_cube(8, RoutingMode::Minimal);
    let uniform = Uniform::new();
    let double_y = DoubleYAdaptive::new();
    let cfg = || SimConfig::builder().injection_rate(0.30).seed(seed).build();

    // routing, topology, traffic: ns per call over seeded inputs.
    let mesh_triples = routing_triples(&mesh, &mut rng);
    let cube_triples = routing_triples(&cube, &mut rng);
    out.set(
        "routing.mesh_wf_ns_per_decision",
        per_input_ns(tr, "routing.mesh_wf.route", &mesh_triples, |&(c, d, a)| {
            west_first.route(&mesh, c, d, a)
        }),
    );
    out.set(
        "routing.cube_pcube_ns_per_decision",
        per_input_ns(
            tr,
            "routing.cube_pcube.route",
            &cube_triples,
            |&(c, d, a)| p_cube.route(&cube, c, d, a),
        ),
    );
    out.set(
        "topology.min_hops_ns",
        per_input_ns(tr, "topology.mesh.min_hops", &mesh_triples, |&(c, d, _)| {
            mesh.min_hops(c, d)
        }),
    );
    out.set(
        "traffic.ns_per_destination",
        per_input_ns(tr, "traffic.uniform.dest", &mesh_triples, |&(c, _, _)| {
            uniform.dest(&mesh, c, &mut rng)
        }),
    );

    // sim.engine, vc: construction, snapshot, restore.
    out.set(
        "sim.engine.new_ms",
        sampled_ns(tr, "sim.engine.new", || {
            Sim::new(&mesh, &west_first, &uniform, cfg()).now()
        }) / 1e6,
    );
    let mut loaded = Sim::new(&mesh, &west_first, &uniform, cfg());
    for _ in 0..2_000 {
        loaded.step();
    }
    let snapshot = loaded.snapshot();
    out.set(
        "sim.engine.snapshot_ns",
        sampled_ns(tr, "sim.engine.snapshot", || loaded.snapshot()),
    );
    out.set(
        "sim.engine.restore_ns",
        sampled_ns(tr, "sim.engine.restore", || loaded.restore(&snapshot)),
    );
    out.set(
        "vc.sim.new_ms",
        sampled_ns(tr, "vc.sim.new", || {
            VcSim::new(&mesh, &double_y, &uniform, cfg()).now()
        }) / 1e6,
    );
    out.set(
        "vc.table.from_function_ms",
        sampled_ns(tr, "vc.table.from_function", || {
            TableVcRouting::from_function(&mesh, &double_y)
        }) / 1e6,
    );

    // model, analysis: the proof pipeline on two fixed specs.
    out.set(
        "model.cdg_build_ms",
        sampled_ns(tr, "model.cdg.from_routing", || {
            (
                Cdg::from_routing(&mesh, &west_first),
                Cdg::from_routing(&cube, &p_cube),
            )
        }) / 1e6,
    );
    let lower = || {
        [
            extract::from_routing("west-first 16x16", &mesh, &west_first),
            extract::from_routing("p-cube 8-cube", &cube, &p_cube),
        ]
    };
    out.set(
        "analysis.extract.ms",
        sampled_ns(tr, "analysis.extract.from_routing", lower) / 1e6,
    );
    let specs = lower();
    let edges: usize = specs.iter().map(|s| s.deps.len()).sum();
    let prove_ns = sampled_ns(tr, "analysis.prove.prove", || {
        specs.each_ref().map(prove::prove)
    });
    out.set(
        "analysis.prove.edges_per_s",
        edges as f64 / (prove_ns / 1e9),
    );
    let certificates = specs.each_ref().map(prove::prove);
    out.set(
        "analysis.check.ms",
        sampled_ns(tr, "analysis.check.check", || {
            for (spec, certificate) in specs.iter().zip(&certificates) {
                check::check(spec, certificate).expect("the prover's certificate checks");
            }
        }) / 1e6,
    );
}
