//! Quickstart: verify a routing algorithm is deadlock free, trace a
//! route, and simulate some traffic.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use turnroute::model::{Cdg, RoutingFunction};
use turnroute::routing::{mesh2d, RoutingMode};
use turnroute::sim::{Sim, SimConfig};
use turnroute::topology::{Mesh, Topology};
use turnroute::traffic::Uniform;

fn main() {
    // 1. A 16x16 mesh, as in the paper's evaluation.
    let mesh = Mesh::new_2d(16, 16);
    println!(
        "topology: 16x16 mesh, {} nodes, {} unidirectional channels",
        mesh.num_nodes(),
        mesh.channels().len()
    );

    // 2. West-first routing, and a mechanical proof it cannot deadlock:
    //    its channel dependency graph is acyclic, so a strictly monotonic
    //    channel numbering exists (Dally & Seitz).
    let wf = mesh2d::west_first(RoutingMode::Minimal);
    let cdg = Cdg::from_routing(&mesh, &wf);
    assert!(cdg.is_acyclic());
    let numbers = cdg.graph().numbering().expect("acyclic CDG");
    println!(
        "west-first: CDG acyclic ({} dependencies), numbering witness over {} channels",
        cdg.num_edges(),
        numbers.len()
    );

    // 3. Trace the adaptive options of one packet.
    let src = mesh.node_at_coords(&[12, 3]);
    let dst = mesh.node_at_coords(&[2, 9]);
    let first = wf.route(&mesh, src, dst, None);
    println!(
        "routing {} -> {}: first-hop options {first} (west must come first)",
        mesh.coord_of(src),
        mesh.coord_of(dst)
    );

    // 4. Simulate uniform traffic at a moderate load.
    let pattern = Uniform::new();
    let cfg = SimConfig::builder()
        .injection_rate(0.10)
        .warmup_cycles(2_000)
        .measure_cycles(8_000)
        .drain_cycles(8_000)
        .seed(7)
        .build();
    let report = Sim::new(&mesh, &wf, &pattern, cfg).run();
    println!("simulation: {report}");
    assert!(!report.deadlocked);
}
