//! Seam between the engine and the certificates under faults: every hop
//! the engine moves a packet is a route the degraded-mode certificate
//! offers, and every consecutive channel pair is one of its dependencies —
//! the engine never takes a dependency the certificate does not cover.

use std::collections::{HashMap, HashSet};
use turnroute_analysis::extract;
use turnroute_routing::{mesh2d, RoutingFunction, RoutingMode};
use turnroute_sim::{FaultPlan, Sim, SimConfig};
use turnroute_topology::{Mesh, NodeId, Topology};
use turnroute_traffic::Uniform;

#[test]
fn every_engine_hop_under_faults_is_a_certified_route_and_dependency() {
    let mesh = Mesh::new_2d(6, 6);
    let n = mesh.num_nodes();
    let channel_of: HashMap<(NodeId, NodeId), u32> = mesh
        .channels()
        .iter()
        .map(|ch| ((ch.src(), ch.dst()), ch.id().0))
        .collect();
    let algorithms: [Box<dyn RoutingFunction>; 4] = [
        Box::new(mesh2d::xy()),
        Box::new(mesh2d::west_first(RoutingMode::Minimal)),
        Box::new(mesh2d::north_last(RoutingMode::Minimal)),
        Box::new(mesh2d::negative_first(RoutingMode::Minimal)),
    ];
    let pattern = Uniform::new();
    let (mut hops, mut misrouted) = (0usize, 0usize);
    for alg in &algorithms {
        for seed in 1..=4u64 {
            // Static from cycle 0: 8 % of the links and one interior node.
            let dead = NodeId(13 + seed as u32);
            let plan = FaultPlan::random_links(&mesh, 0.08, 0, seed).permanent_node(dead, 0);
            let faults = plan.fault_set_at(0, &mesh);
            let spec = extract::from_faulted_routing("seam", &mesh, alg.as_ref(), &faults);
            let deps: HashSet<(u32, u32)> = spec.deps.iter().copied().collect();

            let cfg = SimConfig::builder()
                .injection_rate(0.05)
                .warmup_cycles(0)
                .measure_cycles(1_500)
                .drain_cycles(1_500)
                .packet_timeout(400)
                .record_paths(true)
                .fault_plan(plan)
                .seed(seed)
                .build();
            let mut sim = Sim::new(&mesh, alg.as_ref(), &pattern, cfg);
            let _ = sim.run();
            for p in sim.packets() {
                let mut held: Option<u32> = None;
                for hop in sim.packet_path(p.id).windows(2) {
                    let taken = channel_of[&(hop[0], hop[1])];
                    let state = held.map_or(hop[0].index(), |h| n + h as usize);
                    let offered = &spec.routes[p.dst.index()][state];
                    assert!(
                        offered.contains(&taken),
                        "{} seed {seed}: {} -> {} took c{taken} at {}, certified {offered:?}",
                        alg.name(),
                        p.src,
                        p.dst,
                        hop[0]
                    );
                    if let Some(h) = held {
                        assert!(deps.contains(&(h, taken)), "uncovered c{h} -> c{taken}");
                    }
                    held = Some(taken);
                    hops += 1;
                }
                misrouted += usize::from(p.misroutes > 0);
            }
        }
    }
    assert!(hops >= 1_000, "only {hops} hops replayed");
    assert!(misrouted > 0, "the fallback was never exercised");
}
