//! `mesh_heavy`, `mesh_light`, `vc_heavy`: one engine stepped cycle by
//! cycle on the paper's 16×16 mesh under uniform traffic, single-threaded.

use super::{report_digest, timed, Layers, Rep, Workload};
use crate::stats::{median, percentile};
use crate::trace::Tracer;
use std::hint::black_box;
use turnroute_routing::{mesh2d, RoutingMode};
use turnroute_sim::{Phase, PhaseProfiler, Sim, SimConfig};
use turnroute_topology::Mesh;
use turnroute_traffic::Uniform;
use turnroute_vc::{DoubleYAdaptive, VcSim};

/// Untimed cycles before the timed body, so source queues and buffers are
/// in their loaded state when timing starts.
const WARMUP_CYCLES: u64 = 2_000;
/// Cycles per `step_x1000` span; the window series shows queue-growth
/// drift inside one repetition.
const WINDOW_CYCLES: u64 = 1_000;

/// One offered load of the base engine.
struct MeshLoad {
    /// Flits per node per cycle.
    rate: f64,
    /// Timed cycles per repetition. Long enough that source queues fill:
    /// 2,000-cycle windows under-state the heavy-load cost per cycle.
    cycles: u64,
    /// Whether the network must keep up with the load.
    sustainable: bool,
}

const HEAVY: MeshLoad = MeshLoad {
    rate: 0.30,
    cycles: 50_000,
    sustainable: false,
};
const LIGHT: MeshLoad = MeshLoad {
    rate: 0.02,
    cycles: 300_000,
    sustainable: true,
};
const VC_RATE: f64 = 0.30;
const VC_CYCLES: u64 = 60_000;

pub const MESH_HEAVY: Workload = Workload {
    name: "mesh_heavy",
    why: "saturated network: traversal, arbitration and route computation do the work",
    min_reps: 3,
    setup: |seed| mesh_setup(&HEAVY, seed),
    rep: |seed, tr| mesh_rep(&HEAVY, seed, tr),
    layers: |seed, tr, traced, out| mesh_layers(&HEAVY, seed, tr, traced, out),
};

pub const MESH_LIGHT: Workload = Workload {
    name: "mesh_light",
    why: "mostly idle routers: the per-slot scan of empty channels dominates",
    min_reps: 3,
    setup: |seed| mesh_setup(&LIGHT, seed),
    rep: |seed, tr| mesh_rep(&LIGHT, seed, tr),
    layers: |seed, tr, traced, out| mesh_layers(&LIGHT, seed, tr, traced, out),
};

pub const VC_HEAVY: Workload = Workload {
    name: "vc_heavy",
    why: "the other engine (lanes sharing a link): a Sim-only change predicts no change here",
    min_reps: 3,
    setup: vc_setup,
    rep: vc_rep,
    layers: vc_layers,
};

fn config(rate: f64, seed: u64) -> SimConfig {
    SimConfig::builder().injection_rate(rate).seed(seed).build()
}

/// The two engines share no trait; this is the one method the timed loop
/// needs from either.
trait Engine {
    fn step(&mut self);
}

impl Engine for Sim<'_> {
    fn step(&mut self) {
        Sim::step(self);
    }
}

impl Engine for VcSim<'_> {
    fn step(&mut self) {
        VcSim::step(self);
    }
}

/// Warm up untimed, then step `cycles` timed cycles in spans of
/// [`WINDOW_CYCLES`]. Returns the seconds of each window.
fn step_timed(
    engine: &mut impl Engine,
    cycles: u64,
    window_span: &'static str,
    tr: &mut Tracer,
) -> Vec<f64> {
    tr.scope("warmup", |_| {
        for _ in 0..WARMUP_CYCLES {
            engine.step();
        }
    });
    let mut timed_s = Vec::with_capacity((cycles / WINDOW_CYCLES) as usize);
    tr.scope("body", |tr| {
        for _ in 0..cycles / WINDOW_CYCLES {
            timed(tr, window_span, &mut timed_s, |_| {
                for _ in 0..WINDOW_CYCLES {
                    engine.step();
                }
            });
        }
    });
    timed_s
}

fn mesh_setup(load: &MeshLoad, seed: u64) {
    let mesh = Mesh::new_2d(16, 16);
    let routing = mesh2d::west_first(RoutingMode::Minimal);
    let pattern = Uniform::new();
    let sim = Sim::new(&mesh, &routing, &pattern, config(load.rate, seed));
    black_box(sim.now());
}

fn mesh_rep(load: &MeshLoad, seed: u64, tr: &mut Tracer) -> Rep {
    let mesh = Mesh::new_2d(16, 16);
    let routing = mesh2d::west_first(RoutingMode::Minimal);
    let pattern = Uniform::new();
    let mut sim = tr.scope("sim.engine.new", |_| {
        Sim::new(&mesh, &routing, &pattern, config(load.rate, seed))
    });
    sim.set_measure_window(WARMUP_CYCLES, WARMUP_CYCLES + load.cycles);
    let timed_s = step_timed(&mut sim, load.cycles, "sim.engine.step_x1000", tr);
    let report = sim.report();
    let flit_hops = sim.total_channel_flits();
    let ok = !report.deadlocked && (!load.sustainable || report.delivered_fraction() >= 0.98);
    Rep {
        timed_s,
        sim_cycles: load.cycles,
        ops: 1,
        failed: u64::from(!ok),
        digest: report_digest(&report, flit_hops),
        parts: vec![
            ("flit_hops", flit_hops as f64),
            ("delivered_packets", report.delivered_packets as f64),
            ("max_queue_len", report.max_queue_len as f64),
        ],
    }
}

/// From the window spans of the traced repetitions: ns per cycle, ns per
/// flit hop, and the ns-per-cycle series over the windows.
fn stepping_layers(
    window_span: &str,
    cycles: u64,
    tr: &Tracer,
    traced: &[Rep],
) -> (f64, f64, Vec<f64>) {
    let windows = tr.durations_ns(window_span);
    let total_ns: f64 = tr.self_ns(window_span);
    let total_cycles = (cycles * traced.len() as u64) as f64;
    let flit_hops: f64 = traced.iter().map(|r| r.part("flit_hops")).sum();
    let per_window: Vec<f64> = windows.iter().map(|ns| ns / WINDOW_CYCLES as f64).collect();
    (total_ns / total_cycles, total_ns / flit_hops, per_window)
}

fn mesh_layers(load: &MeshLoad, seed: u64, tr: &mut Tracer, traced: &[Rep], out: &mut Layers) {
    let (per_cycle, per_hop, per_window) =
        stepping_layers("sim.engine.step_x1000", load.cycles, tr, traced);
    out.set("sim.engine.ns_per_cycle", per_cycle);
    out.set("sim.engine.ns_per_flit_hop", per_hop);
    out.set("sim.engine.window_ns_per_cycle_p50", median(&per_window));
    out.set(
        "sim.engine.window_ns_per_cycle_p90",
        percentile(&per_window, 0.9),
    );
    // Simulated, exact: the same in every repetition.
    out.set("sim.engine.flit_hops", traced[0].part("flit_hops"));
    out.set(
        "sim.engine.delivered_packets",
        traced[0].part("delivered_packets"),
    );
    out.set("sim.engine.max_queue_len", traced[0].part("max_queue_len"));

    // The spans cannot see inside `Sim::step`; the engine's own phase
    // profiler can, on a separate pass over the same configuration.
    let mesh = Mesh::new_2d(16, 16);
    let routing = mesh2d::west_first(RoutingMode::Minimal);
    let pattern = Uniform::new();
    let cfg = SimConfig::builder()
        .injection_rate(load.rate)
        .seed(seed)
        .warmup_cycles(WARMUP_CYCLES)
        .measure_cycles(load.cycles)
        .drain_cycles(0)
        .build();
    let mut prof = PhaseProfiler::new();
    tr.scope("sim.engine.run_profiled", |_| {
        black_box(Sim::new(&mesh, &routing, &pattern, cfg).run_profiled(&mut prof));
    });
    for phase in Phase::ALL {
        let name = match phase {
            Phase::Injection => "sim.engine.phase.injection_ns_per_cycle",
            Phase::Routing => "sim.engine.phase.routing_ns_per_cycle",
            Phase::Arbitration => "sim.engine.phase.arbitration_ns_per_cycle",
            Phase::Traversal => "sim.engine.phase.traversal_ns_per_cycle",
            Phase::Drain => "sim.engine.phase.drain_ns_per_cycle",
        };
        out.set(name, prof.mean_nanos_per_cycle(phase));
    }
}

fn vc_setup(seed: u64) {
    let mesh = Mesh::new_2d(16, 16);
    let routing = DoubleYAdaptive::new();
    let pattern = Uniform::new();
    let sim = VcSim::new(&mesh, &routing, &pattern, config(VC_RATE, seed));
    black_box(sim.now());
}

fn vc_rep(seed: u64, tr: &mut Tracer) -> Rep {
    let mesh = Mesh::new_2d(16, 16);
    let routing = DoubleYAdaptive::new();
    let pattern = Uniform::new();
    let mut sim = tr.scope("vc.sim.new", |_| {
        VcSim::new(&mesh, &routing, &pattern, config(VC_RATE, seed))
    });
    let timed_s = step_timed(&mut sim, VC_CYCLES, "vc.sim.step_x1000", tr);
    let report = sim.report();
    // The VC engine keeps no per-channel flit counts; every flit of a
    // delivered packet crossed every channel its header did.
    let flit_hops: u64 = sim
        .packets()
        .iter()
        .filter(|p| p.delivered.is_some())
        .map(|p| u64::from(p.hops) * u64::from(p.len))
        .sum();
    Rep {
        timed_s,
        sim_cycles: VC_CYCLES,
        ops: 1,
        failed: u64::from(report.deadlocked),
        digest: report_digest(&report, flit_hops),
        parts: vec![("flit_hops", flit_hops as f64)],
    }
}

fn vc_layers(_seed: u64, tr: &mut Tracer, traced: &[Rep], out: &mut Layers) {
    let (per_cycle, per_hop, _) = stepping_layers("vc.sim.step_x1000", VC_CYCLES, tr, traced);
    out.set("vc.sim.ns_per_cycle", per_cycle);
    out.set("vc.sim.ns_per_flit_hop", per_hop);
}
