//! Randomized tests for topology invariants (seeded, deterministic).

use turnroute_rng::{Rng, SeedableRng, StdRng};
use turnroute_topology::{
    Coord, Direction, HexMesh, Hypercube, Mesh, NodeId, Sign, Topology, Torus,
};

const CASES: usize = 128;

fn random_mesh(rng: &mut StdRng) -> Mesh {
    let ndims = rng.gen_range(1usize..4);
    Mesh::new(
        (0..ndims)
            .map(|_| rng.gen_range(2u16..8))
            .collect::<Vec<_>>(),
    )
}

fn random_torus(rng: &mut StdRng) -> Torus {
    Torus::new(rng.gen_range(3u16..8), rng.gen_range(1usize..4))
}

fn random_node(rng: &mut StdRng, topo: &dyn Topology) -> NodeId {
    NodeId(rng.gen_range(0u32..topo.num_nodes() as u32))
}

#[test]
fn mesh_coord_round_trip() {
    let mut rng = StdRng::seed_from_u64(0x701);
    for _ in 0..CASES {
        let mesh = random_mesh(&mut rng);
        let node = random_node(&mut rng, &mesh);
        assert_eq!(mesh.node_at(&mesh.coord_of(node)), node);
    }
}

#[test]
fn torus_coord_round_trip() {
    let mut rng = StdRng::seed_from_u64(0x702);
    for _ in 0..CASES {
        let torus = random_torus(&mut rng);
        let node = random_node(&mut rng, &torus);
        assert_eq!(torus.node_at(&torus.coord_of(node)), node);
    }
}

#[test]
fn mesh_neighbor_is_symmetric() {
    let mut rng = StdRng::seed_from_u64(0x703);
    for _ in 0..CASES {
        let mesh = random_mesh(&mut rng);
        let node = random_node(&mut rng, &mesh);
        for dir in Direction::all(mesh.num_dims()) {
            if let Some(next) = mesh.neighbor(node, dir) {
                assert_eq!(mesh.neighbor(next, dir.opposite()), Some(node));
                assert_eq!(mesh.min_hops(node, next), 1);
            }
        }
    }
}

#[test]
fn torus_neighbor_is_symmetric() {
    let mut rng = StdRng::seed_from_u64(0x704);
    for _ in 0..CASES {
        let torus = random_torus(&mut rng);
        let node = random_node(&mut rng, &torus);
        for dir in Direction::all(torus.num_dims()) {
            let next = torus
                .neighbor(node, dir)
                .expect("torus channels always exist");
            assert_eq!(torus.neighbor(next, dir.opposite()), Some(node));
        }
    }
}

#[test]
fn productive_dirs_reduce_distance() {
    let mut rng = StdRng::seed_from_u64(0x705);
    for _ in 0..CASES {
        let mesh = random_mesh(&mut rng);
        let from = random_node(&mut rng, &mesh);
        let to = random_node(&mut rng, &mesh);
        let dist = mesh.min_hops(from, to);
        for dir in mesh.productive_dirs(from, to).iter() {
            let next = mesh.neighbor(from, dir).expect("productive channel exists");
            assert_eq!(mesh.min_hops(next, to), dist - 1);
        }
        // Unproductive existing channels do not reduce distance.
        for dir in Direction::all(mesh.num_dims()) {
            if !mesh.productive_dirs(from, to).contains(dir) {
                if let Some(next) = mesh.neighbor(from, dir) {
                    assert!(mesh.min_hops(next, to) >= dist);
                }
            }
        }
    }
}

#[test]
fn torus_productive_dirs_reduce_distance() {
    let mut rng = StdRng::seed_from_u64(0x706);
    for _ in 0..CASES {
        let torus = random_torus(&mut rng);
        let from = random_node(&mut rng, &torus);
        let to = random_node(&mut rng, &torus);
        let dist = torus.min_hops(from, to);
        for dir in torus.productive_dirs(from, to).iter() {
            let next = torus
                .neighbor(from, dir)
                .expect("torus channels always exist");
            assert_eq!(torus.min_hops(next, to), dist - 1);
        }
    }
}

#[test]
fn hypercube_matches_k2_mesh_distances() {
    let mut rng = StdRng::seed_from_u64(0x707);
    for _ in 0..CASES {
        let n = rng.gen_range(1usize..8);
        let cube = Hypercube::new(n);
        let mesh = Mesh::new_cubic(2, n);
        let x = random_node(&mut rng, &cube);
        let y = random_node(&mut rng, &cube);
        assert_eq!(cube.min_hops(x, y), mesh.min_hops(x, y));
        assert_eq!(cube.coord_of(x), mesh.coord_of(x));
        for dir in Direction::all(n) {
            assert_eq!(cube.neighbor(x, dir), mesh.neighbor(x, dir));
        }
    }
}

#[test]
fn manhattan_triangle_inequality() {
    let mut rng = StdRng::seed_from_u64(0x708);
    for _ in 0..CASES {
        let ndims = rng.gen_range(1usize..4);
        let mesh = Mesh::new(
            (0..ndims)
                .map(|_| rng.gen_range(2u16..6))
                .collect::<Vec<_>>(),
        );
        let x = random_node(&mut rng, &mesh);
        let y = random_node(&mut rng, &mesh);
        let z = random_node(&mut rng, &mesh);
        assert!(mesh.min_hops(x, z) <= mesh.min_hops(x, y) + mesh.min_hops(y, z));
    }
}

#[test]
fn hex_mesh_invariants() {
    let mut rng = StdRng::seed_from_u64(0x709);
    for _ in 0..CASES {
        let hex = HexMesh::new(rng.gen_range(2u16..8), rng.gen_range(2u16..8));
        let x = random_node(&mut rng, &hex);
        let y = random_node(&mut rng, &hex);
        // Distance is a metric: symmetric, zero iff equal.
        assert_eq!(hex.min_hops(x, y), hex.min_hops(y, x));
        assert_eq!(hex.min_hops(x, y) == 0, x == y);
        // Neighbors are mutual and at distance 1.
        for dir in Direction::all(3) {
            if let Some(next) = hex.neighbor(x, dir) {
                assert_eq!(hex.neighbor(next, dir.opposite()), Some(x));
                assert_eq!(hex.min_hops(x, next), 1);
            }
        }
        // Productive moves reduce distance by exactly one.
        let dist = hex.min_hops(x, y);
        for dir in hex.productive_dirs(x, y).iter() {
            let next = hex.neighbor(x, dir).expect("productive channel exists");
            assert_eq!(hex.min_hops(next, y), dist - 1);
        }
        // Coordinate round trip.
        assert_eq!(hex.node_at(&hex.coord_of(x)), x);
    }
}

#[test]
fn hex_triangle_inequality() {
    let mut rng = StdRng::seed_from_u64(0x70A);
    for _ in 0..CASES {
        let hex = HexMesh::new(rng.gen_range(2u16..7), rng.gen_range(2u16..7));
        let x = random_node(&mut rng, &hex);
        let y = random_node(&mut rng, &hex);
        let z = random_node(&mut rng, &hex);
        assert!(hex.min_hops(x, z) <= hex.min_hops(x, y) + hex.min_hops(y, z));
    }
}

#[test]
fn coord_manhattan_symmetric() {
    let mut rng = StdRng::seed_from_u64(0x70B);
    for _ in 0..CASES {
        let len = rng.gen_range(1usize..5);
        let a: Vec<u16> = (0..len).map(|_| rng.gen_range(0u16..16)).collect();
        let b: Vec<u16> = (0..len).map(|_| rng.gen_range(0u16..16)).collect();
        let ca = Coord::new(a);
        let cb = Coord::new(b);
        assert_eq!(ca.manhattan(&cb), cb.manhattan(&ca));
    }
}

/// Distances and productive directions are those of the nodes'
/// coordinates: per dimension, the coordinate difference on a mesh and the
/// shorter way round on a torus (both ways on a tie).
#[test]
fn distances_are_those_of_the_coordinates() {
    let mut rng = StdRng::seed_from_u64(0x708);
    for _ in 0..CASES {
        let (mesh, torus) = (random_mesh(&mut rng), random_torus(&mut rng));
        let topos: [&dyn Topology; 2] = [&mesh, &torus];
        for topo in topos {
            let (a, b) = (random_node(&mut rng, topo), random_node(&mut rng, topo));
            let (ca, cb) = (topo.coord_of(a), topo.coord_of(b));
            let (mut hops, mut dirs) = (0, Vec::new());
            for dim in 0..topo.num_dims() {
                let (f, t, k) = (
                    usize::from(ca.get(dim)),
                    usize::from(cb.get(dim)),
                    topo.radix(dim),
                );
                let (plus, minus) = if topo.has_wraparound(dim) {
                    ((t + k - f) % k, (f + k - t) % k)
                } else {
                    (t.saturating_sub(f), f.saturating_sub(t))
                };
                let shorter = if topo.has_wraparound(dim) {
                    plus.min(minus)
                } else {
                    plus + minus
                };
                hops += shorter;
                for (way, dir) in [
                    (plus, Direction::new(dim, Sign::Plus)),
                    (minus, Direction::new(dim, Sign::Minus)),
                ] {
                    if way > 0 && way == shorter {
                        dirs.push(dir);
                    }
                }
            }
            assert_eq!(topo.min_hops(a, b), hops, "{a} -> {b}");
            let mut got: Vec<_> = topo.productive_dirs(a, b).iter().collect();
            got.sort_by_key(|d| d.index());
            dirs.sort_by_key(|d| d.index());
            assert_eq!(got, dirs, "{a} -> {b}");
        }
    }
}
