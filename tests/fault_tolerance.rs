//! Integration: the turn-model deadlock-freedom guarantee survives fault
//! injection end to end.
//!
//! Faults only *remove* outputs from a routing relation (and the misroute
//! fallback stays inside the declared turn set), so the faulted channel
//! dependency graph is a subgraph of the fault-free one and inherits its
//! acyclicity. These tests exercise that argument mechanically — across
//! many random fault patterns, through the static [`FaultAware`] wrapper,
//! and through a full simulator run.

use turnroute::analysis::verify;
use turnroute::model::{FaultMasked, RoutingFunction};
use turnroute::routing::{mesh2d, FaultAware, RoutingMode};
use turnroute::sim::{FaultPlan, RunTermination, Sim, SimConfig};
use turnroute::topology::{Direction, FaultSet, Mesh, NodeId, Topology};
use turnroute::traffic::Uniform;
use turnroute_rng::{Rng, SeedableRng, StdRng};

fn mesh_algorithms() -> Vec<Box<dyn RoutingFunction>> {
    vec![
        Box::new(mesh2d::xy()),
        Box::new(mesh2d::west_first(RoutingMode::Minimal)),
        Box::new(mesh2d::north_last(RoutingMode::Minimal)),
        Box::new(mesh2d::negative_first(RoutingMode::Minimal)),
    ]
}

/// A random fault pattern: each link fails independently with probability
/// `link_p`, and every third seed additionally downs one random node.
fn random_pattern(mesh: &Mesh, seed: u64, link_p: f64) -> FaultSet {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut faults = FaultSet::new(mesh);
    for ch in mesh.channels() {
        if rng.gen_bool(link_p) {
            faults.fail_link(mesh, ch.src(), ch.dir());
        }
    }
    if seed.is_multiple_of(3) {
        let node = NodeId(rng.gen_range(0..mesh.num_nodes() as u32));
        faults.fail_node(mesh, node);
    }
    faults
}

#[test]
fn turn_sets_stay_deadlock_free_under_random_fault_patterns() {
    let mesh = Mesh::new_2d(6, 6);
    for seed in 0..20u64 {
        // Sweep from light damage to heavy damage as seeds advance.
        let link_p = 0.05 + 0.015 * seed as f64;
        let faults = random_pattern(&mesh, seed, link_p);
        for alg in mesh_algorithms() {
            // A checker-validated certificate: besides the verdict, the
            // checker has seen every ordered pair covered exactly once.
            let v = verify(&mesh, &FaultMasked::new(alg.as_ref(), &mesh, &faults));
            assert!(
                v.deadlock_free.is_ok() && v.progress.is_ok(),
                "seed {seed} ({} links, {} nodes failed): {v}",
                faults.failed_link_count(),
                faults.failed_node_count()
            );
        }
    }
}

#[test]
fn heavy_damage_partitions_but_never_cycles() {
    // Far past any reasonable operating point: half the links gone. The
    // network is badly partitioned — reachability collapses — but the
    // routing relation must still be cycle free.
    let mesh = Mesh::new_2d(6, 6);
    for seed in 100..105u64 {
        let faults = random_pattern(&mesh, seed, 0.5);
        for alg in mesh_algorithms() {
            let v = verify(&mesh, &FaultMasked::new(alg.as_ref(), &mesh, &faults));
            assert!(
                v.deadlock_free.is_ok() && v.progress.is_ok(),
                "seed {seed}: {v}"
            );
            assert!(!v.connected.is_ok(), "seed {seed}: {v}");
        }
    }
}

#[test]
fn fault_aware_wrapper_routes_around_a_failed_link() {
    let mesh = Mesh::new_2d(5, 5);
    let src = mesh.node_at_coords(&[1, 2]);
    let dst = mesh.node_at_coords(&[4, 2]);
    let mut faults = FaultSet::new(&mesh);
    // Break the xy path at its second hop.
    faults.fail_link(&mesh, mesh.node_at_coords(&[2, 2]), Direction::EAST);
    let dead_slot = mesh.channel_slot(mesh.node_at_coords(&[2, 2]), Direction::EAST);

    let routed = FaultAware::new(mesh2d::west_first(RoutingMode::Minimal), &mesh, faults);
    // Walk the last offered direction at every hop: one arbitration
    // policy's path, which must still avoid the failed link.
    let mut cur = src;
    let mut arrived = None;
    let mut hops = 0;
    while cur != dst {
        let dirs = routed.route(&mesh, cur, dst, arrived);
        let dir = dirs.iter().last().expect("no route offered");
        assert_ne!(
            mesh.channel_slot(cur, dir),
            dead_slot,
            "walk crossed the failed link"
        );
        cur = mesh.neighbor(cur, dir).unwrap();
        arrived = Some(dir);
        hops += 1;
        assert!(hops < 50, "walk did not converge");
    }
    assert!(hops >= 3, "a detour cannot be shorter than the direct path");
}

#[test]
fn simulator_completes_and_delivers_under_a_static_fault_plan() {
    // End-to-end through the facade: a mid-mesh link dies at cycle zero and
    // a node dies transiently; the run must end in graceful completion with
    // real deliveries, not a deadlock verdict.
    let mesh = Mesh::new_2d(6, 6);
    let plan = FaultPlan::new()
        .permanent_link(NodeId(14), Direction::EAST, 0)
        .transient_node(NodeId(21), 500, 500);
    let cfg = SimConfig::builder()
        .injection_rate(0.05)
        .warmup_cycles(500)
        .measure_cycles(2_000)
        .drain_cycles(3_000)
        .packet_timeout(1_500)
        .max_retries(1)
        .seed(7)
        .fault_plan(plan)
        .build();
    let wf = mesh2d::west_first(RoutingMode::Minimal);
    let report = Sim::new(&mesh, &wf, &Uniform::new(), cfg).run();
    assert_eq!(report.termination, RunTermination::Completed, "{report}");
    assert!(report.delivered_packets > 0, "{report}");
    assert!(
        report.delivered_fraction() > 0.5,
        "one dead link should not halve throughput: {report}"
    );
}
