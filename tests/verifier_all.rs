//! Integration: the one-call verifier signs off on every shipped
//! algorithm and rejects the known-broken ones.

use turnroute::analysis::verify;
use turnroute::analysis::Check;
use turnroute::model::RoutingFunction;
use turnroute::routing::torus::{NegativeFirstTorus, WrapOnFirstHop};
use turnroute::routing::{hypercube, mesh2d, ndmesh, FullyAdaptive, RoutingMode};
use turnroute::topology::{Hypercube, Mesh, Torus};

#[test]
fn all_minimal_mesh_algorithms_fully_verify() {
    let mesh = Mesh::new_2d(5, 6);
    let algorithms: Vec<Box<dyn RoutingFunction>> = vec![
        Box::new(mesh2d::xy()),
        Box::new(mesh2d::west_first(RoutingMode::Minimal)),
        Box::new(mesh2d::north_last(RoutingMode::Minimal)),
        Box::new(mesh2d::negative_first(RoutingMode::Minimal)),
    ];
    for alg in &algorithms {
        let report = verify(&mesh, alg);
        assert!(report.all_ok(), "{report}");
        // All of these declare a turn set, so the check must have run.
        assert_eq!(report.turns_consistent, Check::Passed, "{}", alg.name());
    }
}

#[test]
fn nd_and_cube_algorithms_fully_verify() {
    let mesh = Mesh::new(vec![3, 3, 3]);
    for alg in [
        ndmesh::negative_first(3, RoutingMode::Minimal),
        ndmesh::all_but_one_negative_first(3, RoutingMode::Minimal),
        ndmesh::all_but_one_positive_last(3, RoutingMode::Minimal),
    ] {
        let report = verify(&mesh, &alg);
        assert!(report.all_ok(), "{report}");
    }
    let cube = Hypercube::new(5);
    let report = verify(&cube, &hypercube::p_cube(5, RoutingMode::Minimal));
    assert!(report.all_ok(), "{report}");
    let report = verify(&cube, &hypercube::e_cube(5));
    assert!(report.all_ok(), "{report}");
}

#[test]
fn torus_adaptations_verify_deadlock_and_connectivity() {
    let torus = Torus::new(4, 2);
    let nf = NegativeFirstTorus::new(2);
    let report = verify(&torus, &nf);
    assert!(report.all_ok(), "{report}");
    assert_eq!(report.minimal, Check::Skipped); // strictly nonminimal

    let wrapped = WrapOnFirstHop::new(mesh2d::west_first(RoutingMode::Minimal), &torus);
    let report = verify(&torus, &wrapped);
    assert!(report.deadlock_free.is_ok(), "{report}");
    assert!(report.channels_valid.is_ok(), "{report}");
    assert!(report.connected.is_ok(), "{report}");
}

#[test]
fn fully_adaptive_is_rejected_for_deadlock() {
    let mesh = Mesh::new_2d(4, 4);
    let report = verify(&mesh, &FullyAdaptive::new());
    assert!(!report.all_ok());
    assert!(matches!(report.deadlock_free, Check::Failed(_)));
    // Everything else about it is fine — that is the point of the paper:
    // adaptiveness itself is easy, deadlock freedom is the problem.
    assert!(report.connected.is_ok());
    assert!(report.minimal.is_ok());
    assert!(report.channels_valid.is_ok());
}

#[test]
fn nonminimal_modes_verify_deadlock_freedom() {
    let mesh = Mesh::new_2d(4, 5);
    for alg in [
        mesh2d::west_first(RoutingMode::Nonminimal),
        mesh2d::north_last(RoutingMode::Nonminimal),
        mesh2d::negative_first(RoutingMode::Nonminimal),
    ] {
        let report = verify(&mesh, &alg);
        assert!(report.deadlock_free.is_ok(), "{report}");
        assert!(report.channels_valid.is_ok(), "{report}");
        assert!(report.turns_consistent.is_ok(), "{report}");
        assert_eq!(report.minimal, Check::Skipped);
    }
}

#[test]
fn the_verdict_is_boring_on_degenerate_networks() {
    // The smallest meshes each constructor accepts, thin in either
    // dimension, and the smallest cubes and torus.
    for (x, y) in [(2, 2), (2, 5), (5, 2)] {
        let mesh = Mesh::new_2d(x, y);
        let algorithms: [Box<dyn RoutingFunction>; 4] = [
            Box::new(mesh2d::xy()),
            Box::new(mesh2d::west_first(RoutingMode::Minimal)),
            Box::new(mesh2d::north_last(RoutingMode::Minimal)),
            Box::new(mesh2d::negative_first(RoutingMode::Minimal)),
        ];
        for alg in &algorithms {
            let report = verify(&mesh, alg);
            assert!(report.all_ok(), "mesh {x}x{y}: {report}");
        }
    }
    for dims in [1, 2] {
        let report = verify(&Hypercube::new(dims), &hypercube::e_cube(dims));
        assert!(report.all_ok(), "{dims}-cube: {report}");
    }
    let report = verify(
        &Hypercube::new(2),
        &hypercube::p_cube(2, RoutingMode::Minimal),
    );
    assert!(report.all_ok(), "2-cube: {report}");
    let report = verify(&Torus::new(3, 2), &NegativeFirstTorus::new(2));
    assert!(report.all_ok(), "3-ary 2-cube: {report}");
}
