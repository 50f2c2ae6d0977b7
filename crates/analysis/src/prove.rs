//! The `turnprove` prover and driver: proof certificates over the whole
//! configuration matrix.
//!
//! [`prove`] takes an extracted [`GraphSpec`] and produces a
//! [`Certificate`]: a total channel numbering when the dependency graph
//! is acyclic, a *minimal* witness cycle when it is not (both searches
//! are the model crate's [`DepGraph`] kernel), and one explicit
//! legal path per deliverable ordered node pair. Every certificate is
//! immediately re-validated by the independent checker
//! ([`crate::check`]) — the driver records the checker's verdict, never
//! the prover's word for it. [`progress`] walks the same spec's route
//! tables once more for the separate [`Progress`] claim: reachability,
//! a rank or a lasso, the dead ends and the misroute bound.
//!
//! [`run`] walks the matrix: the named 2D/3D turn sets, all twelve safe
//! two-turn sets, the hypercube and torus algorithms, the double-y
//! virtual-channel scheme, and every fault plan of the experiments
//! crate's degradation sweep — then cross-validates a seeded selection
//! of verdicts against live simulator behavior through
//! [`turnroute_sim::harness`].

use crate::certificate::{Certificate, GraphSpec, PathCert, Progress, ProgressVerdict, Verdict};
use crate::extract;
use crate::routing::TurnSetRouting;
use crate::synth::report::{butterfly3_links, netlist6_links};
use turnroute_model::cycle::two_turn_prohibitions;
use turnroute_model::{presets, DepGraph, TurnSet};
use turnroute_routing::torus::{NegativeFirstTorus, WrapOnFirstHop};
use turnroute_routing::{hex, hypercube, mesh2d, RoutingFunction, RoutingMode};
use turnroute_sim::obs::json;
use turnroute_sim::{harness, FaultPlan, Sim, SimConfig};
use turnroute_topology::{FaultSet, HexMesh, Hypercube, Mesh, Topology, Torus};
use turnroute_traffic::Uniform;
use turnroute_vc::{DoubleYAdaptive, VcSim};

/// Options controlling a prove run.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProveOptions {
    /// Shrink the sweep mesh and the cross-validation runs (CI-friendly).
    pub quick: bool,
    /// Add a configuration with a planted cyclic virtual-channel
    /// assignment *expected to be acyclic*; the run must then fail with a
    /// checker-validated witness cycle (self-test of the gate).
    pub inject_bad: bool,
}

/// The failure-fraction grid of the fault sweep: `exp faults` runs it and
/// this matrix proves every plan on it.
pub const SWEEP_FRACTIONS: [f64; 6] = [0.0, 0.02, 0.05, 0.10, 0.15, 0.20];

/// The default seed of the `exp` binary, whose sweep plans
/// ([`FaultPlan::sweep_point`]) this matrix reproves.
pub const SWEEP_SEED: u64 = 1;

/// One proven configuration.
#[derive(Debug, Clone)]
pub struct ProveEntry {
    /// Configuration name (topology × routing × faults).
    pub config: String,
    /// Extraction kind: `turn-set`, `routing`, `routing+faults`, or `vc`.
    pub kind: String,
    /// Channel-vertex count of the extracted graph.
    pub channels: usize,
    /// Dependency-edge count.
    pub deps: usize,
    /// Whether the configuration is expected to be deadlock free.
    pub expect_acyclic: bool,
    /// The proven verdict: `true` = acyclicity certificate emitted.
    pub acyclic: bool,
    /// Whether the independent checker accepted the certificate.
    pub checker_ok: bool,
    /// The checker's rejection reason, when it rejected.
    pub checker_err: Option<String>,
    /// Ordered pairs with a certified path.
    pub certified_pairs: usize,
    /// Ordered pairs claimed unreachable (fault-degraded configs only).
    pub unreachable_pairs: usize,
    /// Whether every ordered pair must be certified (healthy configs).
    pub expect_full_connectivity: bool,
    /// Rendered witness cycle, when the verdict is cyclic.
    pub witness: Option<String>,
}

impl ProveEntry {
    /// Whether this configuration satisfied its expectations with a
    /// checker-validated certificate.
    pub fn ok(&self) -> bool {
        self.checker_ok
            && self.acyclic == self.expect_acyclic
            && (!self.expect_full_connectivity || self.unreachable_pairs == 0)
    }
}

/// One cross-validation of a static verdict against live simulation.
#[derive(Debug, Clone)]
pub struct CrossCheck {
    /// Configuration simulated.
    pub config: String,
    /// The static verdict: certificate of acyclicity exists.
    pub static_acyclic: bool,
    /// Whether the seeded run ended in detected deadlock.
    pub deadlocked: bool,
}

impl CrossCheck {
    /// Agreement: for these probe configurations acyclicity and observed
    /// deadlock are mutually exclusive and jointly exhaustive.
    pub fn ok(&self) -> bool {
        self.static_acyclic != self.deadlocked
    }
}

/// The complete outcome of a prove run.
#[derive(Debug, Clone)]
pub struct ProveReport {
    /// Whether the run used the shortened quick profile.
    pub quick: bool,
    /// Safe two-turn sets found by the exhaustive pair sweep (must be 12).
    pub two_turn_safe: usize,
    /// Every proven configuration, in matrix order.
    pub entries: Vec<ProveEntry>,
    /// The simulator cross-validations.
    pub cross_checks: Vec<CrossCheck>,
}

impl ProveReport {
    /// The overall CI verdict.
    pub fn passed(&self) -> bool {
        self.two_turn_safe == 12
            && self.entries.iter().all(ProveEntry::ok)
            && self.cross_checks.iter().all(CrossCheck::ok)
    }

    /// Human-readable diagnostics.
    pub fn render(&self) -> String {
        let mut out = String::from("== turnprove: proof certificates ==\n");
        for e in &self.entries {
            out.push_str(&format!(
                "{} {:<52} [{}] {} ch, {} deps, verdict {}, {} paths / {} unreachable\n",
                if e.ok() { "ok  " } else { "FAIL" },
                e.config,
                e.kind,
                e.channels,
                e.deps,
                if e.acyclic {
                    "acyclic (numbering checked)"
                } else {
                    "CYCLIC (witness checked)"
                },
                e.certified_pairs,
                e.unreachable_pairs,
            ));
            if let Some(w) = &e.witness {
                out.push_str(&format!("       witness: {w}\n"));
            }
            if let Some(err) = &e.checker_err {
                out.push_str(&format!("       checker rejected: {err}\n"));
            }
        }
        out.push_str(&format!(
            "safe two-turn sets: {} (expected 12)\n",
            self.two_turn_safe
        ));
        out.push_str("\n== turnprove: simulator cross-validation ==\n");
        for x in &self.cross_checks {
            out.push_str(&format!(
                "{} {:<52} static {}, simulated {}\n",
                if x.ok() { "ok  " } else { "FAIL" },
                x.config,
                if x.static_acyclic {
                    "acyclic"
                } else {
                    "cyclic"
                },
                if x.deadlocked {
                    "deadlocked"
                } else {
                    "deadlock-free"
                },
            ));
        }
        out.push_str(&format!(
            "\nturnprove: {}\n",
            if self.passed() { "PASS" } else { "FAIL" }
        ));
        out
    }

    /// Machine-readable form, stable field order, for
    /// `results/turnprove.json`.
    pub fn to_json(&self) -> String {
        let entries: Vec<String> = self
            .entries
            .iter()
            .map(|e| {
                format!(
                    "{{\"config\":{},\"kind\":{},\"channels\":{},\"deps\":{},\
                     \"expect_acyclic\":{},\"acyclic\":{},\"checker_ok\":{},\
                     \"certified_pairs\":{},\"unreachable_pairs\":{},\
                     \"expect_full_connectivity\":{},\"ok\":{}{}{}}}",
                    json::string(&e.config),
                    json::string(&e.kind),
                    e.channels,
                    e.deps,
                    e.expect_acyclic,
                    e.acyclic,
                    e.checker_ok,
                    e.certified_pairs,
                    e.unreachable_pairs,
                    e.expect_full_connectivity,
                    e.ok(),
                    match &e.witness {
                        Some(w) => format!(",\"witness\":{}", json::string(w)),
                        None => String::new(),
                    },
                    match &e.checker_err {
                        Some(err) => format!(",\"checker_err\":{}", json::string(err)),
                        None => String::new(),
                    },
                )
            })
            .collect();
        let xval: Vec<String> = self
            .cross_checks
            .iter()
            .map(|x| {
                format!(
                    "{{\"config\":{},\"static_acyclic\":{},\"deadlocked\":{},\"ok\":{}}}",
                    json::string(&x.config),
                    x.static_acyclic,
                    x.deadlocked,
                    x.ok(),
                )
            })
            .collect();
        format!(
            "{{\"title\":\"turnprove\",\"quick\":{},\"passed\":{},\
             \"two_turn_safe\":{},\"entries\":[{}],\"cross_checks\":[{}]}}",
            self.quick,
            self.passed(),
            self.two_turn_safe,
            entries.join(","),
            xval.join(","),
        )
    }
}

/// Prove one extracted channel graph: deadlock verdict with proof object,
/// plus connectivity certificates for every deliverable ordered pair.
pub fn prove(spec: &GraphSpec) -> Certificate {
    let verdict = verdict_of(spec);
    let (paths, unreachable) = connectivity(spec);
    Certificate {
        verdict,
        paths,
        unreachable,
    }
}

/// The deadlock verdict alone: a total channel numbering from scratch, or
/// a minimal witness cycle — any cycle by depth-first search, shrunk to
/// the shortest cycle through one of its vertices (ties toward the
/// earlier vertex of the DFS cycle). Shared with the incremental healer
/// ([`crate::heal`]), whose full-reprove fallback needs the verdict
/// without paying for connectivity twice.
pub(crate) fn verdict_of(spec: &GraphSpec) -> Verdict {
    let graph = DepGraph::from_edges(spec.channels.len(), &spec.deps);
    if let Some(numbers) = graph.numbering() {
        return Verdict::Acyclic {
            numbering: numbers.into_iter().map(|x| x as u64).collect(),
        };
    }
    let seed = graph.find_cycle().expect("no numbering, so a cycle");
    let cycle = graph.shortest_cycle_among(seed);
    Verdict::Cyclic {
        cycle: cycle.expect("a vertex of a DFS cycle lies on a cycle"),
    }
}

/// Connectivity certificates: for each destination, a reverse
/// breadth-first search computes the residual distance of every channel
/// state, then each source's path greedily descends the distance. Pairs
/// with no finite-distance injection channel are claimed unreachable.
pub(crate) fn connectivity(spec: &GraphSpec) -> (Vec<PathCert>, Vec<(u32, u32)>) {
    let n = spec.num_nodes as usize;
    let n_ch = spec.channels.len();
    let mut paths = Vec::new();
    let mut unreachable = Vec::new();
    let mut rev: Vec<Vec<u32>> = vec![Vec::new(); n_ch];
    for dest in 0..n {
        let table = &spec.routes[dest];
        for r in &mut rev {
            r.clear();
        }
        for held in 0..n_ch {
            for &next in &table[n + held] {
                rev[next as usize].push(held as u32);
            }
        }
        // dist[c] = channels still to acquire after c before reaching dest.
        let mut dist = vec![u32::MAX; n_ch];
        let mut queue = std::collections::VecDeque::new();
        for (c, ch) in spec.channels.iter().enumerate() {
            if ch.dst as usize == dest {
                dist[c] = 0;
                queue.push_back(c);
            }
        }
        while let Some(c) = queue.pop_front() {
            for &p in &rev[c] {
                if dist[p as usize] == u32::MAX {
                    dist[p as usize] = dist[c] + 1;
                    queue.push_back(p as usize);
                }
            }
        }
        for src in 0..n {
            if src == dest {
                continue;
            }
            let first = table[src]
                .iter()
                .copied()
                .filter(|&c| dist[c as usize] != u32::MAX)
                .min_by_key(|&c| (dist[c as usize], c));
            let Some(mut cur) = first else {
                unreachable.push((src as u32, dest as u32));
                continue;
            };
            let mut path = vec![cur];
            while dist[cur as usize] > 0 {
                let want = dist[cur as usize] - 1;
                cur = table[n + cur as usize]
                    .iter()
                    .copied()
                    .filter(|&c| dist[c as usize] == want)
                    .min()
                    .expect("distance admits a descending successor");
                path.push(cur);
            }
            paths.push(PathCert {
                src: src as u32,
                dst: dest as u32,
                path,
            });
        }
    }
    paths.sort_by_key(|p| (p.src, p.dst));
    unreachable.sort_unstable();
    (paths, unreachable)
}

/// Walk every state a packet can reach from an injection state, per
/// destination, by depth-first search over `spec.routes` alone. A state's
/// rank is its finish order, so on an acyclic state graph every move
/// lowers it; the first move back onto the search stack gives the lasso,
/// and the walk goes on so that `rank` and `dead_ends` cover every
/// reachable state either way. The misroute bound is a longest-path
/// count folded in at each finish, with hop distances from [`hops_to`].
pub fn progress(spec: &GraphSpec) -> Progress {
    let n = spec.num_nodes as usize;
    let mut rank = vec![vec![u32::MAX; spec.num_states()]; n];
    let mut lasso = None;
    let mut dead_ends = Vec::new();
    let mut max_misroutes = 0;
    // worst[s]: most unproductive hops on a walk from s; on_stack[s]: s is
    // on the search stack; stack: (state, next offer to follow).
    let mut worst = vec![0u32; spec.num_states()];
    let mut on_stack = vec![false; spec.num_states()];
    let mut stack: Vec<(usize, usize)> = Vec::new();
    for (dest, (table, rank)) in spec.routes.iter().zip(&mut rank).enumerate() {
        let hops = hops_to(spec, dest as u32);
        worst.fill(0);
        let mut finished = 0;
        for src in (0..n).filter(|&src| src != dest) {
            if rank[src] != u32::MAX {
                continue;
            }
            stack.push((src, 0));
            on_stack[src] = true;
            while let Some(&mut (s, ref mut next)) = stack.last_mut() {
                if let Some(&c) = table[s].get(*next) {
                    *next += 1;
                    let t = spec.channel_state(c);
                    if spec.channels[c as usize].dst as usize == dest || rank[t] != u32::MAX {
                        continue;
                    }
                    if on_stack[t] {
                        lasso.get_or_insert_with(|| {
                            let walk = stack.iter().map(|&(s, _)| s as u32);
                            (dest as u32, walk.chain([t as u32]).collect())
                        });
                    } else {
                        on_stack[t] = true;
                        stack.push((t, 0));
                    }
                    continue;
                }
                // A delivering move's state is never finished: worst 0.
                let at = spec.node_of(s);
                worst[s] = table[s]
                    .iter()
                    .map(|&c| {
                        let to = spec.channels[c as usize].dst as usize;
                        u32::from(hops[to] >= hops[at]) + worst[spec.channel_state(c)]
                    })
                    .max()
                    .unwrap_or(0);
                max_misroutes = max_misroutes.max(worst[s]);
                if table[s].is_empty() {
                    dead_ends.push((dest as u32, s as u32));
                }
                rank[s] = finished;
                finished += 1;
                on_stack[s] = false;
                stack.pop();
            }
        }
    }
    dead_ends.sort_unstable();
    let verdict = match lasso {
        None => ProgressVerdict::Bounded,
        Some((dest, lasso)) => {
            max_misroutes = 0;
            ProgressVerdict::Unbounded { dest, lasso }
        }
    };
    Progress {
        rank,
        verdict,
        dead_ends,
        max_misroutes,
    }
}

/// Hop distance from every node to `dest` over `spec.channels`, by
/// breadth-first search backwards from `dest`; `u32::MAX` where no
/// channel path leads.
pub fn hops_to(spec: &GraphSpec, dest: u32) -> Vec<u32> {
    let mut hops = vec![u32::MAX; spec.num_nodes as usize];
    hops[dest as usize] = 0;
    // Round `d` reaches the nodes one channel short of round `d - 1`'s.
    for d in 1u32.. {
        let mut grew = false;
        for ch in &spec.channels {
            if hops[ch.dst as usize] == d - 1 && hops[ch.src as usize] == u32::MAX {
                hops[ch.src as usize] = d;
                grew = true;
            }
        }
        if !grew {
            break;
        }
    }
    hops
}

/// Prove `spec`, run the independent checker on the result, and fold both
/// outcomes into a matrix entry.
fn entry(kind: &str, expect_acyclic: bool, expect_full: bool, spec: &GraphSpec) -> ProveEntry {
    let cert = prove(spec);
    let checked = crate::check::check(spec, &cert);
    let witness = match &cert.verdict {
        Verdict::Cyclic { cycle } => Some(spec.render_cycle(cycle)),
        Verdict::Acyclic { .. } => None,
    };
    ProveEntry {
        config: spec.name.clone(),
        kind: kind.to_string(),
        channels: spec.channels.len(),
        deps: spec.deps.len(),
        expect_acyclic,
        acyclic: cert.verdict.is_acyclic(),
        checker_ok: checked.is_ok(),
        checker_err: checked.err(),
        certified_pairs: cert.paths.len(),
        unreachable_pairs: cert.unreachable.len(),
        expect_full_connectivity: expect_full,
        witness,
    }
}

/// Run the full prove matrix.
pub fn run(opts: &ProveOptions) -> ProveReport {
    let mut entries = Vec::new();

    // Named 2D turn sets: deterministic baseline plus the paper's three
    // adaptive disciplines, proven from the potential (turn-set) CDG.
    let mesh5 = Mesh::new_2d(5, 5);
    let named_2d: [(&str, TurnSet); 4] = [
        ("xy", presets::xy_turns()),
        ("west-first", presets::west_first_turns()),
        ("north-last", presets::north_last_turns()),
        ("negative-first", presets::negative_first_turns(2)),
    ];
    for (nm, set) in &named_2d {
        let spec = extract::from_turn_set(format!("mesh5x5/{nm}"), &mesh5, set);
        entries.push(entry("turn-set", true, true, &spec));
    }

    // Every safe two-turn set: of the 28 ways to prohibit two 90-degree
    // turns, the matrix keeps the ones whose certificate is acyclic —
    // exactly the paper's 12. turnsynth takes the other 16.
    let mesh4 = Mesh::new_2d(4, 4);
    let mut two_turn_safe = 0usize;
    for ([a, b], set) in two_turn_prohibitions() {
        let spec = extract::from_turn_set(format!("mesh4x4/two-turn {{{a}, {b}}}"), &mesh4, &set);
        let e = entry("turn-set", true, true, &spec);
        if e.acyclic {
            two_turn_safe += 1;
            entries.push(e);
        }
    }

    // Named 3D turn sets.
    let mesh3 = Mesh::new_cubic(3, 3);
    let named_3d: [(&str, TurnSet); 3] = [
        ("negative-first-3d", presets::negative_first_turns(3)),
        ("abonf-3d", presets::all_but_one_negative_first_turns(3)),
        ("abopl-3d", presets::all_but_one_positive_last_turns(3)),
    ];
    for (nm, set) in &named_3d {
        let spec = extract::from_turn_set(format!("mesh3x3x3/{nm}"), &mesh3, set);
        entries.push(entry("turn-set", true, true, &spec));
    }

    // Routing-function extraction: hypercube and torus algorithms, whose
    // disciplines are not plain 2D turn sets.
    let cube = Hypercube::new(4);
    let e_cube = hypercube::e_cube(4);
    let p_cube = hypercube::p_cube(4, RoutingMode::Minimal);
    let cube_algs: [&dyn RoutingFunction; 2] = [&e_cube, &p_cube];
    for alg in cube_algs {
        let spec = extract::from_routing(format!("4-cube/{}", alg.name()), &cube, alg);
        entries.push(entry("routing", true, true, &spec));
    }
    let torus = Torus::new(4, 2);
    let nft = NegativeFirstTorus::new(2);
    let spec = extract::from_routing(format!("4-ary 2-cube/{}", nft.name()), &torus, &nft);
    entries.push(entry("routing", true, true, &spec));
    let wrapped = WrapOnFirstHop::new(mesh2d::west_first(RoutingMode::Minimal), &torus);
    let spec = extract::from_routing(format!("4-ary 2-cube/{}", wrapped.name()), &torus, &wrapped);
    entries.push(entry("routing", true, true, &spec));

    // The torus with every 90-degree turn allowed: the wraparound rings
    // alone close dependency cycles, so even the full turn set is
    // refuted — the cyclic side of the matrix turnsynth inverts.
    let spec = extract::from_turn_set("4-ary 2-cube/unrestricted", &torus, &TurnSet::all_ninety(2));
    entries.push(entry("turn-set", false, true, &spec));

    // An irregular netlist with no topology object at all: up*/down*
    // over a 6-node graph of two bridged triangles, extracted directly
    // from its link list. Exercises the spec format's claim that the
    // prover/checker pair is topology-agnostic.
    let spec = extract::from_netlist("netlist6/up-down (irregular)", 6, &netlist6_links());
    entries.push(entry("netlist", true, true, &spec));

    // The 3-stage butterfly, unrestricted: without the up*/down*
    // discipline the straight/cross link pairs between adjacent stages
    // close 4-cycles (another cyclic input for turnsynth).
    let spec = extract::from_netlist_unrestricted(
        "butterfly3/unrestricted (multistage)",
        12,
        &butterfly3_links(),
    );
    entries.push(entry("netlist", false, true, &spec));

    // The hexagonal mesh of Section 7: negative-first over six directions,
    // proven intact and under a single failed diagonal link (the degraded
    // relation keeps its acyclicity but may lose pairs to the mask).
    let hexm = HexMesh::new(4, 4);
    let nf_hex = hex::negative_first_hex(RoutingMode::Minimal);
    let spec = extract::from_routing(format!("hex4x4/{}", nf_hex.name()), &hexm, &nf_hex);
    entries.push(entry("routing", true, true, &spec));
    let mut hex_faults = FaultSet::new(&hexm);
    let victim = hexm.node_at_axial(1, 1);
    let dir = turnroute_topology::Direction::all(3)
        .find(|&d| hexm.neighbor(victim, d).is_some())
        .expect("interior hex node has neighbors");
    hex_faults.fail_link(&hexm, victim, dir);
    let spec = extract::from_faulted_routing(
        format!("hex4x4/{}+fault (1 link down)", nf_hex.name()),
        &hexm,
        &nf_hex,
        &hex_faults,
    );
    entries.push(entry("routing+faults", true, false, &spec));

    // The double-y virtual-channel scheme: fully adaptive, minimal, and
    // certified deadlock free over *virtual* channels.
    let vc_mesh = if opts.quick {
        Mesh::new_2d(4, 4)
    } else {
        Mesh::new_2d(8, 8)
    };
    let vc_name = format!("mesh{0}x{0}/double-y-adaptive", vc_mesh.radix(0));
    let spec = extract::from_vc_routing(vc_name, &vc_mesh, &DoubleYAdaptive::new());
    entries.push(entry("vc", true, true, &spec));

    // Every fault plan of the experiments sweep: same mesh, same seed
    // derivation, same fractions — the degraded relation (fault-masked
    // routes plus turn-legal misroute fallbacks) is proven per pattern.
    let sweep_mesh = if opts.quick {
        Mesh::new_2d(8, 8)
    } else {
        Mesh::new_2d(16, 16)
    };
    let radix = sweep_mesh.radix(0);
    let xy = mesh2d::xy();
    let wf = mesh2d::west_first(RoutingMode::Minimal);
    let nl = mesh2d::north_last(RoutingMode::Minimal);
    let nf = mesh2d::negative_first(RoutingMode::Minimal);
    let sweep_algs: [&dyn RoutingFunction; 4] = [&xy, &wf, &nl, &nf];
    for alg in sweep_algs {
        for &fraction in &SWEEP_FRACTIONS {
            let plan = FaultPlan::sweep_point(&sweep_mesh, fraction, SWEEP_SEED);
            let faults = plan.fault_set_at(0, &sweep_mesh);
            let name = format!(
                "mesh{radix}x{radix}/{}+faults f={fraction:.2} ({} links down)",
                alg.name(),
                faults.failed_link_count(),
            );
            let spec = extract::from_faulted_routing(name, &sweep_mesh, alg, &faults);
            entries.push(entry("routing+faults", true, fraction == 0.0, &spec));
        }
    }

    // Negative controls: the prover must emit checker-validated witness
    // cycles for the known-broken relations, or the gate is blind.
    let spec = extract::from_turn_set(
        "mesh4x4/unrestricted (negative control)",
        &mesh4,
        &TurnSet::all_ninety(2),
    );
    entries.push(entry("turn-set", false, true, &spec));
    let spec = extract::from_vc_routing(
        "mesh4x4/planted-cyclic-vc (negative control)",
        &mesh4,
        &extract::PlantedCyclicVc,
    );
    entries.push(entry("vc", false, true, &spec));

    if opts.inject_bad {
        // The self-test: the same planted cyclic assignment, but declared
        // deadlock free — the run must fail, with the witness on record.
        let spec = extract::from_vc_routing(
            "mesh4x4/planted-cyclic-vc (injected via --inject-bad)",
            &mesh4,
            &extract::PlantedCyclicVc,
        );
        entries.push(entry("vc", true, true, &spec));
    }

    let cross_checks = cross_validate(opts.quick);

    ProveReport {
        quick: opts.quick,
        two_turn_safe,
        entries,
        cross_checks,
    }
}

/// Seeded simulator runs confronting a selection of static verdicts with
/// engine behavior: an acyclic certificate must survive a saturating
/// probe; the cyclic negative control must realize its predicted
/// deadlock.
fn cross_validate(quick: bool) -> Vec<CrossCheck> {
    let mut checks = Vec::new();
    let mesh = Mesh::new_2d(4, 4);
    let pattern = Uniform::new();
    let measure = if quick { 4_000 } else { 12_000 };

    // Acyclic: west-first's maximal coherent function under saturation.
    let wf = TurnSetRouting::new("west-first", presets::west_first_turns(), &mesh);
    let report = harness::saturating_probe(&mesh, &wf, &pattern, 0xA11CE, measure, 1_000);
    checks.push(CrossCheck {
        config: "mesh4x4/west-first saturating probe".into(),
        static_acyclic: true,
        deadlocked: report.deadlocked,
    });

    // Cyclic: the unrestricted set's predicted cycle becomes a real
    // deadlock (same shape as the cross-validation test suite).
    let unrestricted = TurnSetRouting::new("unrestricted", TurnSet::all_ninety(2), &mesh);
    let report = harness::saturating_probe(&mesh, &unrestricted, &pattern, 3, 30_000, 200);
    checks.push(CrossCheck {
        config: "mesh4x4/unrestricted saturating probe".into(),
        static_acyclic: false,
        deadlocked: report.deadlocked,
    });

    // Acyclic over virtual channels: double-y under saturation in the VC
    // engine.
    let routing = DoubleYAdaptive::new();
    let cfg = harness::saturating_config(0xDB1, measure, 1_000);
    let report = VcSim::new(&mesh, &routing, &pattern, cfg).run();
    checks.push(CrossCheck {
        config: "mesh4x4/double-y-adaptive saturating probe".into(),
        static_acyclic: true,
        deadlocked: report.deadlocked,
    });

    // A degraded relation: xy under the sweep's 5% fault plan, with the
    // timeout machinery on so partition shows up as drops, not deadlock.
    let sweep_mesh = Mesh::new_2d(8, 8);
    let plan = FaultPlan::sweep_point(&sweep_mesh, 0.05, SWEEP_SEED);
    let xy = mesh2d::xy();
    let cfg = SimConfig::builder()
        .injection_rate(0.1)
        .warmup_cycles(0)
        .measure_cycles(if quick { 2_000 } else { 6_000 })
        .drain_cycles(2_000)
        .packet_timeout(300)
        .max_retries(1)
        .deadlock_threshold(5_000)
        .fault_plan(plan)
        .seed(0xFA17)
        .build();
    let report = Sim::new(&sweep_mesh, &xy, &pattern, cfg).run();
    checks.push(CrossCheck {
        config: "mesh8x8/xy+faults f=0.05 degradation probe".into(),
        static_acyclic: true,
        deadlocked: report.deadlocked,
    });

    checks
}

#[cfg(test)]
mod tests {
    use super::*;
    use turnroute_routing::FullyAdaptive;

    #[test]
    fn quick_prove_passes_end_to_end() {
        let report = run(&ProveOptions {
            quick: true,
            inject_bad: false,
        });
        assert!(report.passed(), "\n{}", report.render());
        assert_eq!(report.two_turn_safe, 12);
        assert!(json::validate(&report.to_json()), "{}", report.to_json());
        // The negative controls must be present, cyclic, and checked.
        let nc = report
            .entries
            .iter()
            .filter(|e| e.config.contains("negative control"))
            .collect::<Vec<_>>();
        assert_eq!(nc.len(), 2);
        for e in nc {
            assert!(!e.acyclic && e.checker_ok && e.ok(), "{}", e.config);
            assert!(e.witness.is_some());
        }
    }

    #[test]
    fn inject_bad_fails_with_a_checker_validated_witness() {
        let report = run(&ProveOptions {
            quick: true,
            inject_bad: true,
        });
        assert!(!report.passed());
        let bad = report
            .entries
            .iter()
            .find(|e| e.config.contains("--inject-bad"))
            .expect("injected entry present");
        assert!(!bad.ok() && !bad.acyclic);
        assert!(bad.checker_ok, "the witness itself must be valid");
        let w = bad.witness.as_deref().expect("witness present");
        assert!(w.contains("channel cycle"), "{w}");
    }

    #[test]
    fn minimal_function_has_zero_misroute_bound() {
        let mesh = Mesh::new_2d(5, 5);
        let spec = extract::from_routing("minimal", &mesh, &FullyAdaptive::new());
        let p = progress(&spec);
        crate::check::progress(&spec, &p).expect("the claim checks");
        assert_eq!(p.verdict, ProgressVerdict::Bounded);
        assert_eq!(p.max_misroutes, 0);
        assert_eq!(p.dead_ends, []);
    }

    #[test]
    fn unrestricted_wandering_is_flagged_with_a_witness() {
        let mesh = Mesh::new_2d(3, 3);
        let spec = extract::from_routing("wanderer", &mesh, &crate::lint::Wanderer);
        let p = progress(&spec);
        crate::check::progress(&spec, &p).expect("the lasso checks");
        let why = p.lasso_witness(&spec).expect("wanderer must fail progress");
        assert!(why.contains("revisited"), "{why}");
        assert!(why.contains("[injected] -> "), "{why}");
    }

    #[test]
    fn minimal_cycle_is_genuinely_minimal_on_a_known_graph() {
        // Ring 0 -> 1 -> 2 -> 0 plus a long detour; the witness must pick
        // the 3-cycle.
        let spec = GraphSpec {
            name: "ring".into(),
            num_nodes: 1,
            channels: (0..6)
                .map(|i| crate::certificate::ChannelVertex {
                    src: 0,
                    dst: 0,
                    label: format!("c{i}"),
                })
                .collect(),
            deps: vec![(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 5), (5, 0)],
            routes: vec![vec![Vec::new(); 7]],
        };
        let Verdict::Cyclic { cycle } = verdict_of(&spec) else {
            panic!("the ring is cyclic");
        };
        assert_eq!(cycle.len(), 3, "{cycle:?}");
    }
}
