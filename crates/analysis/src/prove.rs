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
//! the prover's word for it.
//!
//! [`run`] walks the matrix: the named 2D/3D turn sets, all twelve safe
//! two-turn sets, the hypercube and torus algorithms, the double-y
//! virtual-channel scheme, and every fault plan of the experiments
//! crate's degradation sweep — then cross-validates a seeded selection
//! of verdicts against live simulator behavior through
//! [`turnroute_sim::harness`].

use crate::certificate::{Certificate, GraphSpec, PathCert, Verdict};
use crate::extract;
use crate::routing::TurnSetRouting;
use turnroute_model::{presets, Cdg, DepGraph, Turn, TurnSet};
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

/// The failure-fraction grid of the experiments crate's fault sweep,
/// mirrored here so every fault plan the degradation curves run is also
/// proven. `turnroute-experiments` asserts the two grids stay equal.
pub const SWEEP_FRACTIONS: [f64; 6] = [0.0, 0.02, 0.05, 0.10, 0.15, 0.20];

/// The default seed of the `exp` binary, whose sweep plans this matrix
/// reproves (`fault_seed = seed + round(fraction * 10_000)`).
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

    // Every safe two-turn set: sweep all 28 unordered pairs of prohibited
    // 90-degree turns; exactly the paper's 12 survive the cycle test, and
    // each survivor gets a full certificate.
    let mesh4 = Mesh::new_2d(4, 4);
    let turns = Turn::all_ninety(2);
    let mut two_turn_safe = 0usize;
    for i in 0..turns.len() {
        for j in (i + 1)..turns.len() {
            let mut set = TurnSet::all_ninety(2);
            set.prohibit(turns[i]);
            set.prohibit(turns[j]);
            if !Cdg::from_turn_set(&mesh4, &set).is_acyclic() {
                continue;
            }
            two_turn_safe += 1;
            let spec = extract::from_turn_set(
                format!("mesh4x4/two-turn {{{}, {}}}", turns[i], turns[j]),
                &mesh4,
                &set,
            );
            entries.push(entry("turn-set", true, true, &spec));
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
    let spec = extract::from_netlist(
        "netlist6/up-down (irregular)",
        6,
        &[
            (0, 1),
            (0, 2),
            (1, 2),
            (1, 3),
            (2, 4),
            (3, 4),
            (3, 5),
            (4, 5),
        ],
    );
    entries.push(entry("netlist", true, true, &spec));

    // The 3-stage butterfly, unrestricted: without the up*/down*
    // discipline the straight/cross link pairs between adjacent stages
    // close 4-cycles (another cyclic input for turnsynth).
    let spec = extract::from_netlist_unrestricted(
        "butterfly3/unrestricted (multistage)",
        12,
        &crate::synth::report::butterfly3_links(),
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
            let fault_seed = SWEEP_SEED.wrapping_add((fraction * 10_000.0).round() as u64);
            let plan = FaultPlan::random_links(&sweep_mesh, fraction, 0, fault_seed);
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
    let fault_seed = SWEEP_SEED.wrapping_add((0.05f64 * 10_000.0).round() as u64);
    let plan = FaultPlan::random_links(&sweep_mesh, 0.05, 0, fault_seed);
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
