//! Fuzz the independent checker that `verify` trusts.
//!
//! Real `(spec, certificate)` pairs — acyclic, cyclic, fault-degraded and
//! virtual-channel — are mutated under seeded randomness. Three
//! properties: an untouched pair is accepted; every mutation that breaks
//! the proof (a numbering swapped across a dependency edge, a witness
//! step outside `deps`, a path channel its state does not offer, a pair
//! dropped or covered twice, an out-of-range id, a short route table) is
//! rejected; and no mutation of any field makes the checker panic.

use std::collections::HashSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use turnroute_analysis::{check, extract, prove, Certificate, GraphSpec, Verdict};
use turnroute_rng::{Rng, SeedableRng, StdRng};
use turnroute_routing::{mesh2d, FullyAdaptive, RoutingMode};
use turnroute_topology::{FaultSet, Mesh, Topology};
use turnroute_vc::DoubleYAdaptive;

/// The four real pairs, each with the prover's own certificate.
fn corpus() -> Vec<(GraphSpec, Certificate)> {
    let mesh4 = Mesh::new_2d(4, 4);
    let mesh5 = Mesh::new_2d(5, 5);
    let wf = mesh2d::west_first(RoutingMode::Minimal);
    let mut faults = FaultSet::new(&mesh5);
    faults.fail_node(&mesh5, mesh5.node_at_coords(&[2, 2]));
    let specs = [
        extract::from_routing("west-first 4x4", &mesh4, &wf),
        extract::from_routing("fully-adaptive 4x4", &mesh4, &FullyAdaptive::new()),
        extract::from_faulted_routing("west-first 5x5 + node", &mesh5, &wf, &faults),
        extract::from_vc_routing("double-y 4x4", &mesh4, &DoubleYAdaptive::new()),
    ];
    specs
        .into_iter()
        .map(|spec| {
            let cert = prove::prove(&spec);
            (spec, cert)
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

#[test]
fn the_unmutated_certificates_are_accepted() {
    let corpus = corpus();
    for (spec, cert) in &corpus {
        check::check(spec, cert).unwrap_or_else(|e| panic!("{}: {e}", spec.name));
    }
    // The corpus spans both verdicts and a partitioned network.
    assert!(corpus.iter().any(|(_, c)| !c.verdict.is_acyclic()));
    assert!(corpus.iter().any(|(_, c)| !c.unreachable.is_empty()));
}

#[test]
fn breaking_mutations_are_rejected() {
    for (spec, cert) in corpus() {
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

/// Overwrite one arbitrary field of the pair with an arbitrary value.
fn scramble(rng: &mut StdRng, spec: &mut GraphSpec, cert: &mut Certificate) {
    let n_ch = spec.channels.len() as u32;
    let any = |rng: &mut StdRng| match rng.gen_range(0..4u32) {
        0 => u32::MAX - rng.gen_range(0..2u32),
        1 => rng.gen_range(0..4u32),
        _ => rng.gen_range(0..n_ch + 4),
    };
    match rng.gen_range(0..12u32) {
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
        _ => spec
            .channels
            .truncate(rng.gen_range(0..spec.channels.len())),
    }
}

#[test]
fn arbitrary_mutations_never_panic() {
    for (spec, cert) in corpus() {
        for seed in 0..150u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let (mut s, mut c) = (spec.clone(), cert.clone());
            for _ in 0..rng.gen_range(1..4u32) {
                if s.channels.is_empty() || s.deps.is_empty() || s.routes.is_empty() {
                    break;
                }
                if s.routes.iter().any(Vec::is_empty) || c.paths.is_empty() {
                    break;
                }
                scramble(&mut rng, &mut s, &mut c);
            }
            let outcome = catch_unwind(AssertUnwindSafe(|| check::check(&s, &c)));
            assert!(outcome.is_ok(), "{}: seed {seed} panicked", spec.name);
        }
    }
}
