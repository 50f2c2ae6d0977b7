//! The turn model on a hexagonal mesh — the paper's Section 7 future
//! work, realized.
//!
//! ```text
//! cargo run --release --example hexagonal
//! ```

use turnroute::analysis::verify;
use turnroute::model::{Cdg, RoutingFunction};
use turnroute::routing::hex::negative_first_hex;
use turnroute::routing::{FullyAdaptive, RoutingMode};
use turnroute::sim::{Sim, SimConfig};
use turnroute::topology::{HexMesh, Topology};
use turnroute::traffic::Uniform;

fn main() {
    // A 8x8 rhombus of hexagonally connected nodes: three axes, six
    // directions, 60- and 120-degree turns, three-turn minimal cycles.
    let hex = HexMesh::new(8, 8);
    println!(
        "hexagonal mesh: {} nodes, {} unidirectional channels",
        hex.num_nodes(),
        hex.channels().len()
    );

    // Unrestricted adaptivity deadlocks on hexagons too.
    let fa = FullyAdaptive::new();
    let cyclic = Cdg::from_routing(&hex, &fa).find_cycle().is_some();
    println!("fully adaptive dependency graph cyclic: {cyclic}");

    // Negative-first, generalized over the three hex axes, passes every
    // check: the turn model transfers exactly as the paper predicted.
    let nf = negative_first_hex(RoutingMode::Minimal);
    print!("{}", verify(&hex, &nf));

    // Routing uses the diagonal axis: mixed offsets resolve in fewer
    // hops than on a square mesh.
    let src = hex.node_at_axial(0, 5);
    let dst = hex.node_at_axial(4, 0);
    println!(
        "\n(0,5) -> (4,0): hex distance {} (a 2D mesh would need {})",
        hex.min_hops(src, dst),
        4 + 5
    );
    let dirs = nf.route(&hex, src, dst, None);
    println!("first-hop options: {dirs}");

    // And it simulates: uniform traffic, no deadlock, full delivery.
    let cfg = SimConfig::builder()
        .injection_rate(0.08)
        .warmup_cycles(2_000)
        .measure_cycles(8_000)
        .drain_cycles(8_000)
        .seed(13)
        .build();
    let report = Sim::new(&hex, &nf, &Uniform::new(), cfg).run();
    println!("\nuniform traffic at 0.08 flits/node/cycle: {report}");
    assert!(!report.deadlocked);
}
