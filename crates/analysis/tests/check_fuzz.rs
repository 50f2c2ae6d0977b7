//! Fuzz the independent checker that `verify` trusts.
//!
//! Real `(spec, certificate, progress)` triples — acyclic, cyclic,
//! fault-degraded, virtual-channel, nonminimal, livelocking and
//! dead-ended — are mutated under seeded randomness. Three properties:
//! an untouched triple is accepted; every mutation that breaks a proof
//! (a numbering swapped across a dependency edge, a witness step outside
//! `deps`, a path channel its state does not offer, a pair dropped or
//! covered twice, an out-of-range id, a short route table; a rank swapped
//! across an offered move, a reachable state unranked, a dead end dropped
//! or invented, a lasso step not offered, a lasso that never closes or
//! does not start at injection) is rejected; and no mutation of any field makes the checker
//! panic. The paper's own numberings (Theorems 2 and 5) stand in for the
//! prover's: accepted as they are, rejected with one entry perturbed
//! across a dependency edge or handed to the wrong algorithm. The
//! prover's hop distances are pinned against `min_hops`.

use std::collections::HashSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use turnroute_analysis::{
    check, extract, prove, Certificate, GraphSpec, Progress, ProgressVerdict, TurnSetRouting,
    Verdict,
};
use turnroute_model::numbering::{negative_first_numbering, west_first_numbering};
use turnroute_model::{RoutingFunction, TurnSet};
use turnroute_rng::{Rng, SeedableRng, StdRng};
use turnroute_routing::{mesh2d, ndmesh, FullyAdaptive, RoutingMode};
use turnroute_topology::{
    DirSet, Direction, FaultSet, HexMesh, Hypercube, Mesh, NodeId, Topology, Torus,
};
use turnroute_vc::DoubleYAdaptive;

/// Offers every direction everywhere: a packet can circle forever.
struct Wanderer;

impl RoutingFunction for Wanderer {
    fn name(&self) -> &str {
        "wanderer"
    }

    fn route(&self, topo: &dyn Topology, at: NodeId, _: NodeId, _: Option<Direction>) -> DirSet {
        Direction::all(topo.num_dims())
            .filter(|&d| topo.neighbor(at, d).is_some())
            .collect()
    }

    fn is_minimal(&self) -> bool {
        false
    }
}

/// The seven real specs, each with the prover's own two proofs.
fn corpus() -> Vec<(GraphSpec, Certificate, Progress)> {
    let mesh3 = Mesh::new_2d(3, 3);
    let mesh4 = Mesh::new_2d(4, 4);
    let mesh5 = Mesh::new_2d(5, 5);
    let wf = mesh2d::west_first(RoutingMode::Minimal);
    let mut faults = FaultSet::new(&mesh5);
    faults.fail_node(&mesh5, mesh5.node_at_coords(&[2, 2]));
    let straight = TurnSetRouting::new("straight-only", TurnSet::no_turns(2), &mesh3);
    let specs = [
        extract::from_routing("west-first 4x4", &mesh4, &wf),
        extract::from_routing("fully-adaptive 4x4", &mesh4, &FullyAdaptive::new()),
        extract::from_faulted_routing("west-first 5x5 + node", &mesh5, &wf, &faults),
        extract::from_vc_routing("double-y 4x4", &mesh4, &DoubleYAdaptive::new()),
        extract::from_routing(
            "west-first nonminimal 5x5",
            &mesh5,
            &mesh2d::west_first(RoutingMode::Nonminimal),
        ),
        extract::from_routing("wanderer 3x3", &mesh3, &Wanderer),
        extract::from_routing("straight-only 3x3", &mesh3, &straight),
    ];
    specs
        .into_iter()
        .map(|spec| {
            let cert = prove::prove(&spec);
            let progress = prove::progress(&spec);
            (spec, cert, progress)
        })
        .collect()
}

fn pick<T: Copy>(rng: &mut StdRng, items: &[T]) -> T {
    items[rng.gen_range(0..items.len())]
}

/// A channel id `held -> c` is not a dependency edge for.
fn non_successor(rng: &mut StdRng, spec: &GraphSpec, held: u32) -> u32 {
    let deps: HashSet<(u32, u32)> = spec.deps.iter().copied().collect();
    loop {
        let c = rng.gen_range(0..spec.channels.len() as u32);
        if !deps.contains(&(held, c)) {
            return c;
        }
    }
}

/// One mutation that must make the certificate invalid, of kind `kind`.
fn break_it(rng: &mut StdRng, kind: usize, spec: &mut GraphSpec, cert: &mut Certificate) {
    let n_ch = spec.channels.len() as u32;
    match kind {
        // Swap the numbers across one dependency edge.
        0 => match &mut cert.verdict {
            Verdict::Acyclic { numbering } => {
                let (a, b) = pick(rng, &spec.deps);
                numbering.swap(a as usize, b as usize);
            }
            // A cyclic graph has no numbering to swap in: claim the
            // identity, which some edge of the cycle must decrease.
            Verdict::Cyclic { .. } => {
                let numbering = (0..u64::from(n_ch)).collect();
                cert.verdict = Verdict::Acyclic { numbering };
            }
        },
        // A witness step outside `deps`.
        1 => {
            let cycle = match &cert.verdict {
                Verdict::Cyclic { cycle } => {
                    let mut cycle = cycle.clone();
                    let k = rng.gen_range(1..cycle.len());
                    cycle[k] = non_successor(rng, spec, cycle[k - 1]);
                    cycle
                }
                Verdict::Acyclic { .. } => {
                    let (a, b) = pick(rng, &spec.deps);
                    vec![a, b] // b -> a closes it, and acyclic deps lack it
                }
            };
            cert.verdict = Verdict::Cyclic { cycle };
        }
        // A path channel not offered in its state.
        2 => {
            let p = rng.gen_range(0..cert.paths.len());
            let path = &mut cert.paths[p];
            let i = rng.gen_range(0..path.path.len());
            let state = match i {
                0 => path.src as usize,
                _ => spec.channel_state(path.path[i - 1]),
            };
            let offered = &spec.routes[path.dst as usize][state];
            path.path[i] = loop {
                let c = rng.gen_range(0..n_ch);
                if !offered.contains(&c) {
                    break c;
                }
            };
        }
        // A dropped pair.
        3 => {
            let claims = cert.paths.len() + cert.unreachable.len();
            let k = rng.gen_range(0..claims);
            if k < cert.paths.len() {
                cert.paths.remove(k);
            } else {
                cert.unreachable.remove(k - cert.paths.len());
            }
        }
        // A duplicated pair: twice certified, or certified and claimed.
        4 => {
            let p = cert.paths[rng.gen_range(0..cert.paths.len())].clone();
            if rng.gen_bool(0.5) {
                cert.unreachable.push((p.src, p.dst));
            } else {
                cert.paths.push(p);
            }
        }
        // An out-of-range id, somewhere.
        5 => {
            let far = n_ch + rng.gen_range(0..3u32);
            match rng.gen_range(0..5u32) {
                0 => spec.deps.push((far, 0)),
                1 => {
                    let d = rng.gen_range(0..spec.routes.len());
                    spec.routes[d][0].push(far);
                }
                2 => spec.channels[0].dst = spec.num_nodes + rng.gen_range(0..3u32),
                3 => {
                    let p = rng.gen_range(0..cert.paths.len());
                    let path = &mut cert.paths[p].path;
                    let i = rng.gen_range(0..path.len());
                    path[i] = far;
                }
                _ => cert.unreachable.push((spec.num_nodes, 0)),
            }
        }
        // A short `routes`: one destination or one state missing.
        _ => {
            let d = rng.gen_range(0..spec.routes.len());
            if rng.gen_bool(0.5) {
                spec.routes.remove(d);
            } else {
                spec.routes[d].pop();
            }
        }
    }
}

/// A ranked state toward some destination, with a move it offers that
/// does not deliver: `(dest, state, next state)`.
fn ranked_move(rng: &mut StdRng, spec: &GraphSpec, p: &Progress) -> (usize, usize, usize) {
    loop {
        let dest = rng.gen_range(0..spec.num_nodes as usize);
        let s = rng.gen_range(0..spec.num_states());
        if p.rank[dest][s] == u32::MAX {
            continue;
        }
        let onward: Vec<u32> = spec.routes[dest][s]
            .iter()
            .copied()
            .filter(|&c| spec.channels[c as usize].dst as usize != dest)
            .collect();
        if !onward.is_empty() {
            return (dest, s, spec.channel_state(pick(rng, &onward)));
        }
    }
}

/// The prover's lasso, or for a bounded claim a certified path walked as
/// one (which revisits nothing, so it is no lasso either).
fn some_walk(
    rng: &mut StdRng,
    spec: &GraphSpec,
    cert: &Certificate,
    p: &Progress,
) -> (u32, Vec<u32>) {
    match &p.verdict {
        ProgressVerdict::Unbounded { dest, lasso } => (*dest, lasso.clone()),
        ProgressVerdict::Bounded => {
            let path = &cert.paths[rng.gen_range(0..cert.paths.len())];
            let states = path.path.iter().map(|&c| spec.channel_state(c) as u32);
            (path.dst, std::iter::once(path.src).chain(states).collect())
        }
    }
}

/// One mutation that must make the progress claim invalid, of kind
/// `kind`.
fn break_progress(
    rng: &mut StdRng,
    kind: usize,
    spec: &GraphSpec,
    cert: &Certificate,
    p: &mut Progress,
) {
    let n = spec.num_nodes;
    match kind {
        // Swap the ranks across one offered move. An unbounded claim has
        // a move that cannot lower any rank: claim bounded instead.
        0 => match p.verdict {
            ProgressVerdict::Bounded => {
                let (dest, s, t) = ranked_move(rng, spec, p);
                p.rank[dest].swap(s, t);
            }
            ProgressVerdict::Unbounded { .. } => p.verdict = ProgressVerdict::Bounded,
        },
        // Unrank a reachable state.
        1 => {
            let (dest, _, t) = ranked_move(rng, spec, p);
            let s = if rng.gen_bool(0.5) {
                t
            } else {
                (dest + 1) % n as usize
            };
            p.rank[dest][s] = u32::MAX;
        }
        // Drop a dead end, or list a ranked state that moves on.
        2 => {
            if !p.dead_ends.is_empty() && rng.gen_bool(0.5) {
                p.dead_ends.remove(rng.gen_range(0..p.dead_ends.len()));
            } else {
                let (dest, s, _) = ranked_move(rng, spec, p);
                p.dead_ends.push((dest as u32, s as u32));
                p.dead_ends.sort_unstable();
            }
        }
        // A lasso step that is not offered.
        3 => {
            let (dest, mut lasso) = some_walk(rng, spec, cert, p);
            let k = rng.gen_range(1..lasso.len());
            let offered = &spec.routes[dest as usize][lasso[k - 1] as usize];
            let c = loop {
                let c = rng.gen_range(0..spec.channels.len() as u32);
                if !offered.contains(&c) {
                    break c;
                }
            };
            lasso[k] = n + c;
            p.verdict = ProgressVerdict::Unbounded { dest, lasso };
        }
        // An offered walk that never closes: the lasso's closing state,
        // or a certified path's delivering channel, dropped.
        4 => {
            let (dest, mut lasso) = some_walk(rng, spec, cert, p);
            lasso.pop();
            p.verdict = ProgressVerdict::Unbounded { dest, lasso };
        }
        // A lasso that does not start at an injection state.
        _ => {
            let (dest, mut lasso) = some_walk(rng, spec, cert, p);
            if rng.gen_bool(0.5) {
                lasso.remove(0);
            } else {
                lasso[0] = dest;
            }
            p.verdict = ProgressVerdict::Unbounded { dest, lasso };
        }
    }
}

#[test]
fn the_unmutated_certificates_are_accepted() {
    let corpus = corpus();
    for (spec, cert, progress) in &corpus {
        check::check(spec, cert).unwrap_or_else(|e| panic!("{}: {e}", spec.name));
        check::progress(spec, progress).unwrap_or_else(|e| panic!("{}: {e}", spec.name));
    }
    // The corpus spans both verdicts and a partitioned network, and both
    // progress verdicts, a misroute bound and dead ends.
    assert!(corpus.iter().any(|(_, c, _)| !c.verdict.is_acyclic()));
    assert!(corpus.iter().any(|(_, c, _)| !c.unreachable.is_empty()));
    assert!(corpus
        .iter()
        .any(|(_, _, p)| p.verdict != ProgressVerdict::Bounded));
    assert!(corpus
        .iter()
        .any(|(_, _, p)| p.verdict == ProgressVerdict::Bounded && p.max_misroutes > 0));
    assert!(corpus.iter().any(|(_, _, p)| !p.dead_ends.is_empty()));
}

#[test]
fn breaking_mutations_are_rejected() {
    for (spec, cert, _) in corpus() {
        for kind in 0..7 {
            for seed in 0..24u64 {
                let mut rng = StdRng::seed_from_u64(seed * 7 + kind as u64);
                let (mut s, mut c) = (spec.clone(), cert.clone());
                break_it(&mut rng, kind, &mut s, &mut c);
                assert!(
                    check::check(&s, &c).is_err(),
                    "{}: mutation kind {kind}, seed {seed} was accepted",
                    spec.name
                );
            }
        }
    }
}

#[test]
fn breaking_progress_mutations_are_rejected() {
    for (spec, cert, progress) in corpus() {
        for kind in 0..6 {
            for seed in 0..24u64 {
                let mut rng = StdRng::seed_from_u64(seed * 6 + kind as u64);
                let mut p = progress.clone();
                break_progress(&mut rng, kind, &spec, &cert, &mut p);
                assert!(
                    check::progress(&spec, &p).is_err(),
                    "{}: progress mutation kind {kind}, seed {seed} was accepted",
                    spec.name
                );
            }
        }
    }
}

/// Theorem 2's numbering, which decreases along a west-first route, as
/// the increasing numbering a certificate states.
fn negated_west_first(mesh: &Mesh) -> Vec<u64> {
    let numbers = west_first_numbering(mesh);
    let top = *numbers.iter().max().expect("channels");
    numbers.iter().map(|&x| (top - x) as u64).collect()
}

/// `routing` lowered on `topo`, certified by the prover but for the
/// numbering, which is `numbering`.
fn with_numbering(
    name: &str,
    topo: &dyn Topology,
    routing: &dyn RoutingFunction,
    numbering: Vec<u64>,
) -> (GraphSpec, Certificate) {
    let spec = extract::from_routing(name, topo, routing);
    let mut cert = prove::prove(&spec);
    cert.verdict = Verdict::Acyclic { numbering };
    (spec, cert)
}

/// Theorem 2 for west-first on a 4×4 mesh, Theorem 5 for negative-first
/// on a 3×3×3 mesh.
fn paper_certificates() -> [(GraphSpec, Certificate); 2] {
    let (mesh4, mesh3) = (Mesh::new_2d(4, 4), Mesh::new(vec![3, 3, 3]));
    let theorem_5 = negative_first_numbering(&mesh3).into_iter();
    [
        with_numbering(
            "west-first 4x4, Theorem 2",
            &mesh4,
            &mesh2d::west_first(RoutingMode::Minimal),
            negated_west_first(&mesh4),
        ),
        with_numbering(
            "negative-first 3x3x3, Theorem 5",
            &mesh3,
            &ndmesh::negative_first(3, RoutingMode::Minimal),
            theorem_5
                .map(|x| u64::try_from(x).expect("K-n-X >= 0"))
                .collect(),
        ),
    ]
}

#[test]
fn the_papers_numberings_are_accepted() {
    for (spec, cert) in paper_certificates() {
        check::check(&spec, &cert).unwrap_or_else(|e| panic!("{}: {e}", spec.name));
    }
}

#[test]
fn a_paper_numbering_perturbed_across_a_dependency_edge_is_rejected() {
    for (spec, cert) in paper_certificates() {
        for seed in 0..24u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let (a, b) = pick(&mut rng, &spec.deps);
            let mut c = cert.clone();
            let Verdict::Acyclic { numbering } = &mut c.verdict else {
                unreachable!("a numbering was put in");
            };
            numbering[b as usize] = numbering[a as usize];
            assert!(
                check::check(&spec, &c).is_err(),
                "{}: edge ({a}, {b}) left unordered was accepted",
                spec.name
            );
        }
    }
}

#[test]
fn the_west_first_numbering_does_not_prove_negative_first() {
    // Negative-first takes turns west-first prohibits.
    let mesh = Mesh::new_2d(4, 4);
    let (spec, cert) = with_numbering(
        "negative-first 4x4, Theorem 2",
        &mesh,
        &mesh2d::negative_first(RoutingMode::Minimal),
        negated_west_first(&mesh),
    );
    assert!(check::check(&spec, &cert).is_err());
}

#[test]
fn the_provers_hop_distances_are_min_hops() {
    let topologies: [&dyn Topology; 4] = [
        &Mesh::new_2d(5, 4),
        &Torus::new(4, 2),
        &Hypercube::new(4),
        &HexMesh::new(4, 4),
    ];
    for (i, topo) in topologies.into_iter().enumerate() {
        let spec = extract::from_routing("wanderer", topo, &Wanderer);
        for dest in 0..topo.num_nodes() {
            let hops = prove::hops_to(&spec, dest as u32);
            for (v, &h) in hops.iter().enumerate() {
                let want = topo.min_hops(NodeId(v as u32), NodeId(dest as u32));
                assert_eq!(h as usize, want, "topology {i}: n{v} -> n{dest}");
            }
        }
    }
}

/// Overwrite one arbitrary field of the triple with an arbitrary value.
fn scramble(rng: &mut StdRng, spec: &mut GraphSpec, cert: &mut Certificate, p: &mut Progress) {
    let n_ch = spec.channels.len() as u32;
    let any = |rng: &mut StdRng| match rng.gen_range(0..4u32) {
        0 => u32::MAX - rng.gen_range(0..2u32),
        1 => rng.gen_range(0..4u32),
        _ => rng.gen_range(0..n_ch + 4),
    };
    match rng.gen_range(0..17u32) {
        0 => spec.num_nodes = any(rng),
        1 => {
            let i = rng.gen_range(0..spec.channels.len());
            spec.channels[i].src = any(rng);
        }
        2 => {
            let i = rng.gen_range(0..spec.deps.len());
            spec.deps[i] = (any(rng), any(rng));
        }
        3 => {
            let d = rng.gen_range(0..spec.routes.len());
            let s = rng.gen_range(0..spec.routes[d].len());
            spec.routes[d][s] = (0..rng.gen_range(0..3u32)).map(|_| any(rng)).collect();
        }
        4 => {
            let d = rng.gen_range(0..spec.routes.len());
            let len = rng.gen_range(0..spec.routes[d].len() + 2);
            spec.routes[d].resize(len, Vec::new());
        }
        5 => {
            let len = rng.gen_range(0..spec.channels.len() + 2);
            let numbering = (0..len).map(|_| u64::from(any(rng))).collect();
            cert.verdict = Verdict::Acyclic { numbering };
        }
        6 => {
            let len = rng.gen_range(0..6u32);
            let cycle = (0..len).map(|_| any(rng)).collect();
            cert.verdict = Verdict::Cyclic { cycle };
        }
        7 => {
            let p = rng.gen_range(0..cert.paths.len());
            cert.paths[p].src = any(rng);
            cert.paths[p].dst = any(rng);
        }
        8 => {
            let p = rng.gen_range(0..cert.paths.len());
            let len = rng.gen_range(0..spec.channels.len() + 2);
            cert.paths[p].path = (0..len).map(|_| any(rng)).collect();
        }
        9 => cert.unreachable.push((any(rng), any(rng))),
        10 => {
            let p = rng.gen_range(0..cert.paths.len());
            cert.paths.truncate(p);
        }
        11 => spec
            .channels
            .truncate(rng.gen_range(0..spec.channels.len())),
        12 => {
            let d = rng.gen_range(0..p.rank.len());
            let s = rng.gen_range(0..p.rank[d].len());
            p.rank[d][s] = any(rng);
        }
        13 => {
            let d = rng.gen_range(0..p.rank.len());
            let len = rng.gen_range(0..p.rank[d].len() + 2);
            p.rank[d].resize(len, any(rng));
        }
        14 => p.rank.truncate(rng.gen_range(0..p.rank.len())),
        15 => p.dead_ends.push((any(rng), any(rng))),
        _ => {
            let len = rng.gen_range(0..6u32);
            let lasso = (0..len).map(|_| any(rng)).collect();
            p.verdict = ProgressVerdict::Unbounded {
                dest: any(rng),
                lasso,
            };
        }
    }
}

#[test]
fn arbitrary_mutations_never_panic() {
    for (spec, cert, progress) in corpus() {
        for seed in 0..150u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let (mut s, mut c, mut p) = (spec.clone(), cert.clone(), progress.clone());
            for _ in 0..rng.gen_range(1..4u32) {
                if s.channels.is_empty() || s.deps.is_empty() || s.routes.is_empty() {
                    break;
                }
                if s.routes.iter().any(Vec::is_empty) || c.paths.is_empty() {
                    break;
                }
                if p.rank.is_empty() || p.rank.iter().any(Vec::is_empty) {
                    break;
                }
                scramble(&mut rng, &mut s, &mut c, &mut p);
            }
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                (check::check(&s, &c), check::progress(&s, &p))
            }));
            assert!(outcome.is_ok(), "{}: seed {seed} panicked", spec.name);
        }
    }
}
