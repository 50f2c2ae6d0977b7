//! Integration: every shipped routing algorithm is mechanically deadlock
//! free on its target topologies, and the turn-model bookkeeping is
//! consistent end to end.

use turnroute::analysis::{check, extract, prove, verify, Check, Verdict};
use turnroute::model::numbering::{negative_first_numbering, west_first_numbering};
use turnroute::model::{Cdg, RoutingFunction};
use turnroute::routing::torus::{NegativeFirstTorus, WrapOnFirstHop};
use turnroute::routing::{hypercube, mesh2d, ndmesh, DimensionOrder, RoutingMode};
use turnroute::topology::{Hypercube, Mesh, Topology, Torus};

fn mesh_algorithms() -> Vec<Box<dyn RoutingFunction>> {
    vec![
        Box::new(mesh2d::xy()),
        Box::new(mesh2d::west_first(RoutingMode::Minimal)),
        Box::new(mesh2d::west_first(RoutingMode::Nonminimal)),
        Box::new(mesh2d::north_last(RoutingMode::Minimal)),
        Box::new(mesh2d::north_last(RoutingMode::Nonminimal)),
        Box::new(mesh2d::negative_first(RoutingMode::Minimal)),
        Box::new(mesh2d::negative_first(RoutingMode::Nonminimal)),
    ]
}

#[test]
fn all_2d_algorithms_have_acyclic_cdgs_on_assorted_meshes() {
    for (m, n) in [(4u16, 4u16), (8, 8), (3, 9), (9, 3), (2, 6)] {
        let mesh = Mesh::new_2d(m, n);
        for alg in mesh_algorithms() {
            let cdg = Cdg::from_routing(&mesh, &alg);
            assert!(
                cdg.is_acyclic(),
                "{} ({:?}) cyclic on {m}x{n}",
                alg.name(),
                alg.is_minimal()
            );
        }
    }
}

#[test]
fn all_nd_algorithms_have_acyclic_cdgs() {
    for dims in [vec![3u16, 3, 3], vec![2, 4, 3], vec![2, 2, 2, 2]] {
        let mesh = Mesh::new(dims.clone());
        let n = mesh.num_dims();
        let algorithms: Vec<Box<dyn RoutingFunction>> = vec![
            Box::new(DimensionOrder::e_cube(n)),
            Box::new(ndmesh::negative_first(n, RoutingMode::Minimal)),
            Box::new(ndmesh::negative_first(n, RoutingMode::Nonminimal)),
            Box::new(ndmesh::all_but_one_negative_first(n, RoutingMode::Minimal)),
            Box::new(ndmesh::all_but_one_negative_first(
                n,
                RoutingMode::Nonminimal,
            )),
            Box::new(ndmesh::all_but_one_positive_last(n, RoutingMode::Minimal)),
            Box::new(ndmesh::all_but_one_positive_last(
                n,
                RoutingMode::Nonminimal,
            )),
        ];
        for alg in &algorithms {
            assert!(
                Cdg::from_routing(&mesh, alg).is_acyclic(),
                "{} cyclic on {dims:?}",
                alg.name()
            );
        }
    }
}

#[test]
fn hypercube_algorithms_have_acyclic_cdgs() {
    for n in [3usize, 4, 5, 6] {
        let cube = Hypercube::new(n);
        let algorithms: Vec<Box<dyn RoutingFunction>> = vec![
            Box::new(hypercube::e_cube(n)),
            Box::new(hypercube::p_cube(n, RoutingMode::Minimal)),
            Box::new(hypercube::p_cube(n, RoutingMode::Nonminimal)),
            Box::new(ndmesh::all_but_one_negative_first(n, RoutingMode::Minimal)),
            Box::new(ndmesh::all_but_one_positive_last(n, RoutingMode::Minimal)),
        ];
        for alg in &algorithms {
            assert!(
                Cdg::from_routing(&cube, alg).is_acyclic(),
                "{} cyclic on {n}-cube",
                alg.name()
            );
        }
    }
}

#[test]
fn torus_adaptations_have_acyclic_cdgs() {
    for (k, n) in [(3u16, 2usize), (4, 2), (5, 2), (3, 3)] {
        let torus = Torus::new(k, n);
        let nf = NegativeFirstTorus::new(n);
        assert!(
            Cdg::from_routing(&torus, &nf).is_acyclic(),
            "NF-torus cyclic on {k}-ary {n}-cube"
        );
        if n == 2 {
            let wrapped = WrapOnFirstHop::new(mesh2d::negative_first(RoutingMode::Minimal), &torus);
            assert!(
                Cdg::from_routing(&torus, &wrapped).is_acyclic(),
                "wrap-first-hop cyclic on {k}-ary {n}-cube"
            );
        }
    }
}

#[test]
fn every_route_move_is_within_the_declared_turn_set() {
    let mesh = Mesh::new_2d(6, 6);
    for alg in mesh_algorithms() {
        let report = verify(&mesh, &alg);
        assert_eq!(report.turns_consistent, Check::Passed, "{}", alg.name());
    }
}

/// Whether the independent checker accepts `numbering` in place of the
/// prover's own as the certificate of `routing` on `topo`.
fn accepts(
    topo: &dyn Topology,
    routing: &dyn RoutingFunction,
    numbering: Vec<u64>,
) -> Result<(), String> {
    let spec = extract::from_routing(routing.name(), topo, routing);
    let mut cert = prove::prove(&spec);
    check::check(&spec, &cert).expect("the prover's own certificate");
    cert.verdict = Verdict::Acyclic { numbering };
    check::check(&spec, &cert)
}

#[test]
fn paper_numbering_witnesses_agree_with_cdg_witnesses() {
    // Theorem 2 and Theorem 5 witness the same algorithms the CDG clears.
    // Theorem 2's numbers decrease along a route, so the certificate
    // states them subtracted from the largest.
    for (m, n) in [(6u16, 5u16), (3, 7), (7, 3)] {
        let mesh = Mesh::new_2d(m, n);
        let numbers = west_first_numbering(&mesh);
        let top = *numbers.iter().max().expect("channels");
        let negated = numbers.iter().map(|&x| (top - x) as u64).collect();
        let wf = mesh2d::west_first(RoutingMode::Minimal);
        accepts(&mesh, &wf, negated).expect("Theorem 2 numbering");
    }
    for dims in [vec![3u16, 4, 2], vec![5, 2, 3]] {
        let mesh = Mesh::new(dims);
        let numbers = negative_first_numbering(&mesh);
        let nf = ndmesh::negative_first(mesh.num_dims(), RoutingMode::Minimal);
        let numbering = numbers
            .iter()
            .map(|&x| u64::try_from(x).expect("K-n-X >= 0"));
        accepts(&mesh, &nf, numbering.collect()).expect("Theorem 5 numbering");
    }
}

#[test]
fn turn_set_cdg_is_a_superset_of_routing_cdg() {
    // The turn-set relation covers every move the concrete minimal
    // routing can make, so its edge set must contain the routing CDG's.
    let mesh = Mesh::new_2d(5, 5);
    for alg in [
        mesh2d::west_first(RoutingMode::Minimal),
        mesh2d::north_last(RoutingMode::Minimal),
        mesh2d::negative_first(RoutingMode::Minimal),
    ] {
        let set = alg.turn_set(2).expect("2d turn set");
        let from_set = Cdg::from_turn_set(&mesh, &set);
        let from_routing = Cdg::from_routing(&mesh, &alg);
        assert!(from_set.num_edges() >= from_routing.num_edges());
        for ch in from_routing.channels() {
            for succ in from_routing.successors(ch.id()) {
                assert!(
                    from_set.successors(ch.id()).contains(succ),
                    "{}: routing edge missing from turn-set CDG",
                    alg.name()
                );
            }
        }
    }
}
