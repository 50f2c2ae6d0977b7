//! Cross-crate randomized property tests (seeded, deterministic).

use turnroute::model::adaptiveness::{
    count_minimal_paths, s_fully_adaptive, s_negative_first, s_north_last, s_west_first,
};
use turnroute::model::RoutingFunction;
use turnroute::routing::torus::{NegativeFirstTorus, WrapOnFirstHop};
use turnroute::routing::{hypercube, mesh2d, ndmesh, RoutingMode};
use turnroute::topology::{Direction, Hypercube, Mesh, NodeId, Topology, Torus};
use turnroute::vc::{DoubleYAdaptive, VcRoutingFunction, VirtualDirection};
use turnroute_rng::{Rng, RngCore, SeedableRng, StdRng};

fn random_mesh2d(rng: &mut StdRng) -> Mesh {
    Mesh::new_2d(rng.gen_range(2u16..9), rng.gen_range(2u16..9))
}

fn random_pair(rng: &mut dyn RngCore, total: usize) -> (NodeId, NodeId) {
    let total = total as u32;
    let src = NodeId(rng.gen_range(0u32..total));
    loop {
        let dst = NodeId(rng.gen_range(0u32..total));
        if dst != src {
            return (src, dst);
        }
    }
}

/// Greedy walk following the *last* offered direction, checking turn
/// legality and minimality along the way.
fn walk_checked(topo: &dyn Topology, alg: &dyn RoutingFunction, src: NodeId, dst: NodeId) -> usize {
    let mut cur = src;
    let mut arrived: Option<Direction> = None;
    let mut hops = 0usize;
    let turn_set = alg.turn_set(topo.num_dims());
    while cur != dst {
        let dirs = alg.route(topo, cur, dst, arrived);
        assert!(!dirs.is_empty(), "{} stuck at {cur}", alg.name());
        let dir = dirs.iter().last().expect("nonempty");
        if let (Some(set), Some(arr)) = (&turn_set, arrived) {
            assert!(set.is_allowed(arr, dir), "illegal turn {arr}->{dir}");
        }
        let next = topo.neighbor(cur, dir).expect("offered channel exists");
        if alg.is_minimal() {
            assert_eq!(topo.min_hops(next, dst), topo.min_hops(cur, dst) - 1);
        }
        cur = next;
        arrived = Some(dir);
        hops += 1;
        assert!(hops <= 4 * (topo.num_nodes() + 4), "walk too long");
    }
    hops
}

#[test]
fn minimal_2d_algorithms_deliver_all_pairs() {
    let mut rng = StdRng::seed_from_u64(0xA11);
    for _ in 0..64 {
        let mesh = random_mesh2d(&mut rng);
        let (src, dst) = random_pair(&mut rng, mesh.num_nodes());
        for alg in [
            mesh2d::west_first(RoutingMode::Minimal),
            mesh2d::north_last(RoutingMode::Minimal),
            mesh2d::negative_first(RoutingMode::Minimal),
        ] {
            let hops = walk_checked(&mesh, &alg, src, dst);
            assert_eq!(hops, mesh.min_hops(src, dst));
        }
    }
}

#[test]
fn closed_forms_match_exhaustive_counts() {
    let mut rng = StdRng::seed_from_u64(0xB22);
    for _ in 0..64 {
        let mesh = random_mesh2d(&mut rng);
        let (src, dst) = random_pair(&mut rng, mesh.num_nodes());
        let (cs, cd) = (mesh.coord_of(src), mesh.coord_of(dst));
        let wf = mesh2d::west_first(RoutingMode::Minimal);
        assert_eq!(
            count_minimal_paths(&mesh, &wf, src, dst),
            s_west_first(&cs, &cd)
        );
        let nl = mesh2d::north_last(RoutingMode::Minimal);
        assert_eq!(
            count_minimal_paths(&mesh, &nl, src, dst),
            s_north_last(&cs, &cd)
        );
        let nf = mesh2d::negative_first(RoutingMode::Minimal);
        assert_eq!(
            count_minimal_paths(&mesh, &nf, src, dst),
            s_negative_first(&cs, &cd)
        );
    }
}

#[test]
fn xy_has_exactly_one_path_everywhere() {
    let mut rng = StdRng::seed_from_u64(0xC33);
    for _ in 0..64 {
        let mesh = random_mesh2d(&mut rng);
        let (src, dst) = random_pair(&mut rng, mesh.num_nodes());
        assert_eq!(count_minimal_paths(&mesh, &mesh2d::xy(), src, dst), 1);
    }
}

#[test]
fn pcube_counts_match_formula() {
    let mut rng = StdRng::seed_from_u64(0xD44);
    for _ in 0..64 {
        let n = rng.gen_range(3usize..8);
        let cube = Hypercube::new(n);
        let (src, dst) = random_pair(&mut rng, cube.num_nodes());
        let alg = hypercube::p_cube(n, RoutingMode::Minimal);
        let h1 = (cube.address(src) & !cube.address(dst)).count_ones();
        let h0 = (!cube.address(src) & cube.address(dst) & ((1 << n) - 1)).count_ones();
        assert_eq!(
            count_minimal_paths(&cube, &alg, src, dst),
            turnroute::model::adaptiveness::s_pcube(h1, h0)
        );
    }
}

#[test]
fn partial_counts_never_exceed_fully_adaptive() {
    let mut rng = StdRng::seed_from_u64(0xE55);
    for _ in 0..64 {
        let mesh = random_mesh2d(&mut rng);
        let (src, dst) = random_pair(&mut rng, mesh.num_nodes());
        let sf = s_fully_adaptive(&mesh.coord_of(src), &mesh.coord_of(dst));
        for alg in [
            mesh2d::west_first(RoutingMode::Minimal),
            mesh2d::north_last(RoutingMode::Minimal),
            mesh2d::negative_first(RoutingMode::Minimal),
        ] {
            let sp = count_minimal_paths(&mesh, &alg, src, dst);
            assert!(sp >= 1 && sp <= sf);
        }
    }
}

#[test]
fn nd_negative_first_delivers() {
    let mut rng = StdRng::seed_from_u64(0xF66);
    for _ in 0..64 {
        let ndims = rng.gen_range(2usize..4);
        let dims: Vec<u16> = (0..ndims).map(|_| rng.gen_range(2u16..5)).collect();
        let mesh = Mesh::new(dims);
        let n = mesh.num_dims();
        let (src, dst) = random_pair(&mut rng, mesh.num_nodes());
        for alg in [
            ndmesh::negative_first(n, RoutingMode::Minimal),
            ndmesh::all_but_one_negative_first(n, RoutingMode::Minimal),
            ndmesh::all_but_one_positive_last(n, RoutingMode::Minimal),
        ] {
            let hops = walk_checked(&mesh, &alg, src, dst);
            assert_eq!(hops, mesh.min_hops(src, dst));
        }
    }
}

#[test]
fn nonminimal_walks_terminate_with_first_choice_policy() {
    // Following the FIRST offered direction (lowest index = most
    // negative) of nonminimal negative-first still terminates:
    // phase-1 wandering is bounded by the mesh boundary and phase 2
    // is productive.
    let mut rng = StdRng::seed_from_u64(0x177);
    for _ in 0..64 {
        let mesh = random_mesh2d(&mut rng);
        let (src, dst) = random_pair(&mut rng, mesh.num_nodes());
        let alg = mesh2d::negative_first(RoutingMode::Nonminimal);
        let mut cur = src;
        let mut arrived = None;
        let mut hops = 0usize;
        while cur != dst {
            let dirs = alg.route(&mesh, cur, dst, arrived);
            assert!(!dirs.is_empty());
            let dir = dirs.iter().next().expect("nonempty");
            cur = mesh.neighbor(cur, dir).expect("exists");
            arrived = Some(dir);
            hops += 1;
            assert!(hops <= 6 * mesh.num_nodes(), "nonminimal walk unbounded");
        }
    }
}

/// `route` is a pure function of its arguments: the prover tabulates it
/// once and the engine memoises its answer for as long as a head waits.
/// Every routing function of the turnprove matrix, every state.
#[test]
fn route_is_a_pure_function_of_its_arguments() {
    fn twice(topo: &dyn Topology, alg: &dyn RoutingFunction) {
        let arrivals = || std::iter::once(None).chain(Direction::all(topo.num_dims()).map(Some));
        let nodes = || (0..topo.num_nodes() as u32).map(NodeId);
        for at in nodes() {
            for dst in nodes() {
                for arrived in arrivals() {
                    let first = alg.route(topo, at, dst, arrived);
                    let again = alg.route(topo, at, dst, arrived);
                    assert_eq!(first, again, "{} at {at} to {dst}", alg.name());
                }
            }
        }
    }
    let mesh = Mesh::new_2d(4, 4);
    for mode in [RoutingMode::Minimal, RoutingMode::Nonminimal] {
        twice(&mesh, &mesh2d::west_first(mode));
        twice(&mesh, &mesh2d::north_last(mode));
        twice(&mesh, &mesh2d::negative_first(mode));
        twice(&Hypercube::new(3), &hypercube::p_cube(3, mode));
    }
    twice(&mesh, &mesh2d::xy());
    twice(&Hypercube::new(3), &hypercube::e_cube(3));
    let torus = Torus::new(4, 2);
    twice(&torus, &NegativeFirstTorus::new(2));
    let west_first = mesh2d::west_first(RoutingMode::Minimal);
    twice(&torus, &WrapOnFirstHop::new(west_first, &torus));

    let double_y = DoubleYAdaptive::new();
    let arrivals = || std::iter::once(None).chain(VirtualDirection::double_y_all().map(Some));
    for at in (0..16).map(NodeId) {
        for dst in (0..16).map(NodeId) {
            for arrived in arrivals() {
                let first = double_y.route(&mesh, at, dst, arrived);
                assert_eq!(first, double_y.route(&mesh, at, dst, arrived));
            }
        }
    }
}
