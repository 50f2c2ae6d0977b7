//! The `turnsynth` driver: synthesize a certified escape/adaptive
//! assignment for every cyclic configuration the matrix can produce.
//!
//! For each input the driver proves the *input* is cyclic (recording the
//! witness length), synthesizes the split, re-runs the full prover on
//! the synthesized spec, and records only what the independent checker
//! accepts. Seeded saturating runs in the vc crate's engines confront
//! every topology family with live behavior: the unsplit relation must
//! deadlock, the synthesized one must deliver every packet.

use crate::certificate::{GraphSpec, Verdict};
use crate::extract;
use crate::prove::prove;
use crate::synth::lower::{escape_dead_end, synthesize, SynthResult};
use turnroute_model::cycle::two_turn_prohibitions;
use turnroute_model::TurnSet;
use turnroute_rng::{Rng, SeedableRng, StdRng};
use turnroute_sim::obs::json;
use turnroute_sim::SimConfig;
use turnroute_topology::{HexMesh, Mesh, NodeId, Topology, Torus};
use turnroute_traffic::Uniform;
use turnroute_vc::{SpecSim, SpecView, TableVcRouting, VcSim};

/// Options controlling a synth run.
#[derive(Debug, Clone, Copy, Default)]
pub struct SynthOptions {
    /// Shrink the simulator cross-checks (CI-friendly).
    pub quick: bool,
    /// Tamper one synthesized assignment so a cyclic dependency hides
    /// inside the escape class while the certificate still claims
    /// acyclicity; the independent checker — not the synthesizer — must
    /// reject it and fail the run (self-test of the gate).
    pub inject_bad: bool,
}

/// One synthesized configuration.
#[derive(Debug, Clone)]
pub struct SynthEntry {
    /// Input configuration name.
    pub config: String,
    /// Input extraction kind: `turn-set`, `vc`, or `netlist`.
    pub kind: String,
    /// Input channel count.
    pub input_channels: usize,
    /// Input dependency-edge count.
    pub input_deps: usize,
    /// Length of the input's proven witness cycle.
    pub witness_len: usize,
    /// Virtual-channel classes in the synthesized assignment.
    pub classes: usize,
    /// Adaptive-class size (== input channel count).
    pub adaptive_channels: usize,
    /// Escape-class size after reachability pruning.
    pub escape_channels: usize,
    /// Feedback edges cut from the adaptive relation.
    pub feedback_cut: usize,
    /// Synthesized channel count.
    pub synth_channels: usize,
    /// Synthesized dependency-edge count.
    pub synth_deps: usize,
    /// The re-proven verdict on the synthesized spec.
    pub acyclic: bool,
    /// Whether the independent checker accepted the certificate.
    pub checker_ok: bool,
    /// The checker's rejection reason, when it rejected.
    pub checker_err: Option<String>,
    /// Ordered pairs with a certified path in the synthesized spec.
    pub certified_pairs: usize,
    /// Ordered pairs the prover claims unreachable (must be zero — the
    /// escape class restores full connectivity).
    pub unreachable_pairs: usize,
    /// Whether the adversarial escape dead-end check passed.
    pub escape_ok: bool,
}

impl SynthEntry {
    /// A synthesized assignment counts only when the independent checker
    /// certified it acyclic, fully connected, and escape-dead-end free.
    pub fn ok(&self) -> bool {
        self.acyclic && self.checker_ok && self.unreachable_pairs == 0 && self.escape_ok
    }
}

/// One live-engine confrontation of an unsplit/synthesized pair.
#[derive(Debug, Clone, Default)]
pub struct SynthCrossCheck {
    /// Configuration simulated.
    pub config: String,
    /// Engine used: `specsim` (channel-graph resource model) or `vcsim`
    /// (wormhole virtual-channel engine).
    pub engine: String,
    /// Whether the *unsplit* relation deadlocked under the seeded
    /// saturating run (it must).
    pub unsplit_deadlocked: bool,
    /// Packets injected into the synthesized relation.
    pub synth_injected: u64,
    /// Packets the synthesized relation delivered (must equal injected).
    pub synth_delivered: u64,
    /// Whether the synthesized relation deadlocked (it must not).
    pub synth_deadlocked: bool,
}

impl SynthCrossCheck {
    /// The acceptance shape: deadlock without the split, 100% delivery
    /// with it.
    pub fn ok(&self) -> bool {
        self.unsplit_deadlocked
            && !self.synth_deadlocked
            && self.synth_injected > 0
            && self.synth_delivered == self.synth_injected
    }
}

/// The complete outcome of a synth run.
#[derive(Debug, Clone)]
pub struct SynthReport {
    /// Whether the run used the shortened quick profile.
    pub quick: bool,
    /// Every synthesized configuration, in matrix order.
    pub entries: Vec<SynthEntry>,
    /// The live-engine cross-validations.
    pub cross_checks: Vec<SynthCrossCheck>,
}

impl SynthReport {
    /// The overall CI verdict.
    pub fn passed(&self) -> bool {
        !self.entries.is_empty()
            && self.entries.iter().all(SynthEntry::ok)
            && self.cross_checks.iter().all(SynthCrossCheck::ok)
    }

    /// Human-readable diagnostics.
    pub fn render(&self) -> String {
        let mut out = String::from("== turnsynth: synthesized VC assignments ==\n");
        for e in &self.entries {
            out.push_str(&format!(
                "{} {:<52} [{}] {} ch / {} deps (witness {}) -> {} classes, \
                 {} adaptive + {} escape, {} cut, {} deps, verdict {}, {} paths / {} unreachable\n",
                if e.ok() { "ok  " } else { "FAIL" },
                e.config,
                e.kind,
                e.input_channels,
                e.input_deps,
                e.witness_len,
                e.classes,
                e.adaptive_channels,
                e.escape_channels,
                e.feedback_cut,
                e.synth_deps,
                if e.acyclic {
                    "acyclic (numbering checked)"
                } else {
                    "CYCLIC"
                },
                e.certified_pairs,
                e.unreachable_pairs,
            ));
            if let Some(err) = &e.checker_err {
                out.push_str(&format!("       checker rejected: {err} (self-test)\n"));
            }
            if !e.escape_ok {
                out.push_str("       escape relation has a dead end\n");
            }
        }
        out.push_str("\n== turnsynth: simulator cross-validation ==\n");
        for x in &self.cross_checks {
            out.push_str(&format!(
                "{} {:<52} [{}] unsplit {}, synth {}/{} delivered{}\n",
                if x.ok() { "ok  " } else { "FAIL" },
                x.config,
                x.engine,
                if x.unsplit_deadlocked {
                    "deadlocked"
                } else {
                    "DID NOT deadlock"
                },
                x.synth_delivered,
                x.synth_injected,
                if x.synth_deadlocked {
                    ", DEADLOCKED"
                } else {
                    ""
                },
            ));
        }
        out.push_str(&format!(
            "\nturnsynth: {}\n",
            if self.passed() { "PASS" } else { "FAIL" }
        ));
        out
    }

    /// Machine-readable form, stable field order, for
    /// `results/turnsynth.json`.
    pub fn to_json(&self) -> String {
        let entries: Vec<String> = self
            .entries
            .iter()
            .map(|e| {
                format!(
                    "{{\"config\":{},\"kind\":{},\"input_channels\":{},\"input_deps\":{},\
                     \"witness_len\":{},\"classes\":{},\"adaptive_channels\":{},\
                     \"escape_channels\":{},\"feedback_cut\":{},\"synth_channels\":{},\
                     \"synth_deps\":{},\"acyclic\":{},\"checker_ok\":{},\
                     \"certified_pairs\":{},\"unreachable_pairs\":{},\"escape_ok\":{},\
                     \"ok\":{}{}}}",
                    json::string(&e.config),
                    json::string(&e.kind),
                    e.input_channels,
                    e.input_deps,
                    e.witness_len,
                    e.classes,
                    e.adaptive_channels,
                    e.escape_channels,
                    e.feedback_cut,
                    e.synth_channels,
                    e.synth_deps,
                    e.acyclic,
                    e.checker_ok,
                    e.certified_pairs,
                    e.unreachable_pairs,
                    e.escape_ok,
                    e.ok(),
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
                    "{{\"config\":{},\"engine\":{},\"unsplit_deadlocked\":{},\
                     \"synth_injected\":{},\"synth_delivered\":{},\
                     \"synth_deadlocked\":{},\"ok\":{}}}",
                    json::string(&x.config),
                    json::string(&x.engine),
                    x.unsplit_deadlocked,
                    x.synth_injected,
                    x.synth_delivered,
                    x.synth_deadlocked,
                    x.ok(),
                )
            })
            .collect();
        format!(
            "{{\"title\":\"turnsynth\",\"quick\":{},\"passed\":{},\
             \"entries\":[{}],\"cross_checks\":[{}]}}",
            self.quick,
            self.passed(),
            entries.join(","),
            xval.join(","),
        )
    }
}

/// The 3-stage butterfly netlist: three columns of four switches; column
/// `s` row `r` links straight to `(s+1, r)` and across to
/// `(s+1, r XOR 2^s)`. Unrestricted routing over it is cyclic (the
/// straight/cross link pairs close 4-cycles).
pub fn butterfly3_links() -> Vec<(u32, u32)> {
    let node = |s: u32, r: u32| s * 4 + r;
    let mut links = Vec::new();
    for s in 0..2u32 {
        for r in 0..4u32 {
            links.push((node(s, r), node(s + 1, r)));
            let cross = r ^ (1 << s);
            links.push((node(s, r), node(s + 1, cross)));
        }
    }
    links
}

/// The 6-node irregular netlist of the turnprove matrix (two bridged
/// triangles).
pub fn netlist6_links() -> [(u32, u32); 8] {
    [
        (0, 1),
        (0, 2),
        (1, 2),
        (1, 3),
        (2, 4),
        (3, 4),
        (3, 5),
        (4, 5),
    ]
}

/// Synthesize + prove + check + dead-end-check one cyclic input.
fn entry(kind: &str, input: &GraphSpec) -> (SynthEntry, Option<SynthResult>) {
    let witness_len = match prove(input).verdict {
        Verdict::Cyclic { cycle } => cycle.len(),
        Verdict::Acyclic { .. } => 0,
    };
    let base = SynthEntry {
        config: input.name.clone(),
        kind: kind.to_string(),
        input_channels: input.channels.len(),
        input_deps: input.deps.len(),
        witness_len,
        classes: 0,
        adaptive_channels: 0,
        escape_channels: 0,
        feedback_cut: 0,
        synth_channels: 0,
        synth_deps: 0,
        acyclic: false,
        checker_ok: false,
        checker_err: None,
        certified_pairs: 0,
        unreachable_pairs: 0,
        escape_ok: false,
    };
    if witness_len == 0 {
        return (
            SynthEntry {
                checker_err: Some("input is not cyclic; nothing to synthesize".into()),
                ..base
            },
            None,
        );
    }
    let result = match synthesize(input) {
        Ok(r) => r,
        Err(err) => {
            return (
                SynthEntry {
                    checker_err: Some(err),
                    ..base
                },
                None,
            )
        }
    };
    let cert = prove(&result.spec);
    let checked = crate::check::check(&result.spec, &cert);
    let e = SynthEntry {
        classes: result.num_classes(),
        adaptive_channels: result.num_adaptive,
        escape_channels: result.escape.len(),
        feedback_cut: result.feedback.len(),
        synth_channels: result.spec.channels.len(),
        synth_deps: result.spec.deps.len(),
        acyclic: cert.verdict.is_acyclic(),
        checker_ok: checked.is_ok(),
        checker_err: checked.err(),
        certified_pairs: cert.paths.len(),
        unreachable_pairs: cert.unreachable.len(),
        escape_ok: escape_dead_end(&result).is_none(),
        ..base
    };
    (e, Some(result))
}

/// Confront an unsplit/synthesized pair with an engine over a seed
/// sweep: the unsplit relation must deadlock for at least one seed
/// (deadlock is *possible* without the split), and the synthesized
/// relation must deliver every packet on *every* seed. `probe(split,
/// seed)` runs one of the two and returns `(injected, delivered,
/// deadlocked)`.
fn confront(
    config: String,
    engine: &str,
    seeds: std::ops::Range<u64>,
    probe: impl Fn(bool, u64) -> (u64, u64, bool),
) -> SynthCrossCheck {
    let mut x = SynthCrossCheck {
        config,
        engine: engine.into(),
        ..SynthCrossCheck::default()
    };
    for seed in seeds {
        if !x.unsplit_deadlocked {
            x.unsplit_deadlocked = probe(false, seed).2;
        }
        let (injected, delivered, deadlocked) = probe(true, seed);
        x.synth_injected += injected;
        x.synth_delivered += delivered;
        x.synth_deadlocked |= deadlocked;
    }
    x
}

/// [`confront`] with seeded saturating runs of the channel-graph resource
/// model ([`SpecSim`]), which executes the specs themselves.
fn spec_pair(
    family: &str,
    unsplit: &GraphSpec,
    synth: &GraphSpec,
    base_seed: u64,
    per_node: usize,
    quick: bool,
) -> SynthCrossCheck {
    let tries = if quick { 16 } else { 48 };
    let max = if quick { 50_000 } else { 200_000 };
    let probe = |split, seed| {
        let spec = if split { synth } else { unsplit };
        let chans: Vec<(u32, u32)> = spec.channels.iter().map(|c| (c.src, c.dst)).collect();
        let view = SpecView {
            num_nodes: spec.num_nodes as usize,
            channels: &chans,
            routes: &spec.routes,
        };
        let run = SpecSim::new(view, seed, per_node).run(200, max);
        (run.injected, run.delivered, run.deadlocked)
    };
    let config = format!("{family} saturating probe");
    confront(config, "specsim", base_seed..base_seed + tries, probe)
}

/// `spec` as a [`TableVcRouting`] on `topo` with `num_classes` lanes per
/// link, channel `c` riding lane `lane(c)`: lane 0 throughout for an
/// unsplit relation, 0 / 1 for a synthesized split's adaptive / escape
/// ids.
pub fn spec_table(
    topo: &dyn Topology,
    spec: &GraphSpec,
    num_classes: usize,
    lane: impl Fn(usize) -> usize,
) -> TableVcRouting {
    let channels = spec.channels.iter().enumerate();
    let channels = channels.map(|(c, ch)| (NodeId(ch.src), NodeId(ch.dst), lane(c)));
    let routes = spec.routes.clone();
    TableVcRouting::new(&spec.name, topo, num_classes, false, channels, routes)
}

/// Drive the wormhole VC engine over a tabulated routing with a fixed
/// seeded workload; returns `(injected, delivered, deadlocked)`.
pub fn drive_vcsim(
    topo: &dyn Topology,
    table: &TableVcRouting,
    seed: u64,
    per_node: usize,
    max_cycles: u64,
) -> (u64, u64, bool) {
    let pattern = Uniform::new();
    let cfg = SimConfig::builder()
        .injection_rate(0.0)
        .warmup_cycles(0)
        .measure_cycles(max_cycles)
        .drain_cycles(0)
        .deadlock_threshold(300)
        .seed(seed)
        .build();
    let mut sim = VcSim::new(topo, table, &pattern, cfg);
    let mut rng = StdRng::seed_from_u64(seed);
    let n = topo.num_nodes();
    let mut injected = 0u64;
    for v in 0..n {
        for _ in 0..per_node {
            let mut d = rng.gen_range(0..n - 1);
            if d >= v {
                d += 1;
            }
            sim.inject_packet(NodeId(v as u32), NodeId(d as u32), 4);
            injected += 1;
        }
    }
    let mut cycles = 0u64;
    loop {
        let delivered = sim
            .packets()
            .iter()
            .filter(|p| p.delivered.is_some())
            .count() as u64;
        if delivered == injected || sim.deadlocked() || cycles >= max_cycles {
            return (injected, delivered, sim.deadlocked());
        }
        sim.step();
        cycles += 1;
    }
}

/// Run the full synth matrix.
pub fn run(opts: &SynthOptions) -> SynthReport {
    let mut entries = Vec::new();
    let mut cross_checks = Vec::new();
    let mesh4 = Mesh::new_2d(4, 4);

    // The 16 two-turn sets the prover refutes: the 4 census-unsafe ones,
    // and the 12 that prohibit two turns of one abstract cycle and so
    // break none of the other. turnprove keeps the other 12 of the 28.
    for ([a, b], set) in two_turn_prohibitions() {
        let name = format!("mesh4x4/two-turn {{{a}, {b}}} (unsafe)");
        let (e, _) = entry("turn-set", &extract::from_turn_set(name, &mesh4, &set));
        if e.witness_len > 0 {
            entries.push(e);
        }
    }

    // The fully unrestricted mesh: every 90-degree turn allowed. This is
    // the configuration whose synthesized split generalizes double-y, and
    // the one the wormhole VC engine cross-checks end to end.
    let unrestricted =
        extract::from_turn_set("mesh4x4/unrestricted", &mesh4, &TurnSet::all_ninety(2));
    let (e, mesh_synth) = entry("turn-set", &unrestricted);
    entries.push(e);
    if let Some(result) = &mesh_synth {
        cross_checks.push(spec_pair(
            "mesh4x4/unrestricted",
            &unrestricted,
            &result.spec,
            0x5EED_0001,
            8,
            opts.quick,
        ));
        let k = result.num_adaptive;
        let before = spec_table(&mesh4, &unrestricted, 1, |_| 0);
        let after = spec_table(&mesh4, &result.spec, 2, |c| usize::from(c >= k));
        let tries = if opts.quick { 8 } else { 16 };
        let max = if opts.quick { 20_000 } else { 60_000 };
        let probe = |split, seed| {
            let table = if split { &after } else { &before };
            drive_vcsim(&mesh4, table, seed, 8, max)
        };
        let config = "mesh4x4/unrestricted wormhole probe".to_string();
        let seeds = 0x5EED_0007..0x5EED_0007 + tries;
        cross_checks.push(confront(config, "vcsim", seeds, probe));
    }

    // The other cyclic inputs, each with the seed and packets per node of
    // its spec-level probe: both torus radices unrestricted (the
    // wraparound rings alone are cyclic, so every turn set needs the
    // split), the hexagonal mesh over its six directions, the irregular
    // netlist (acyclic as up*/down* in turnprove) and the 3-stage
    // butterfly without their discipline, and the planted cyclic VC
    // assignment, whose split stacks a second split on top.
    let (all_2d, all_hex) = (TurnSet::all_ninety(2), TurnSet::all_ninety(3));
    let hexm = HexMesh::new(4, 4);
    let inputs = [
        (
            "turn-set",
            extract::from_turn_set("4-ary 2-cube/unrestricted", &Torus::new(4, 2), &all_2d),
            Some((0x5EED_0002, 8)),
        ),
        (
            "turn-set",
            extract::from_turn_set("3-ary 2-cube/unrestricted", &Torus::new(3, 2), &all_2d),
            None,
        ),
        (
            "turn-set",
            extract::from_turn_set("hex4x4/unrestricted", &hexm, &all_hex),
            Some((0x5EED_0003, 64)),
        ),
        (
            "netlist",
            extract::from_netlist_unrestricted(
                "netlist6/unrestricted (irregular)",
                6,
                &netlist6_links(),
            ),
            Some((0x5EED_0004, 8)),
        ),
        (
            "netlist",
            extract::from_netlist_unrestricted(
                "butterfly3/unrestricted (multistage)",
                12,
                &butterfly3_links(),
            ),
            Some((0x5EED_0005, 8)),
        ),
        (
            "vc",
            extract::from_vc_routing(
                "mesh4x4/planted-cyclic-vc",
                &mesh4,
                &extract::PlantedCyclicVc,
            ),
            Some((0x5EED_0006, 16)),
        ),
    ];
    for (kind, spec, probe) in inputs {
        let (e, result) = entry(kind, &spec);
        entries.push(e);
        if let (Some(result), Some((seed, per_node))) = (result, probe) {
            // The probe is named after the input, without its kind.
            let family = spec.name.split(" (").next().unwrap_or_default();
            let synth = &result.spec;
            cross_checks.push(spec_pair(family, &spec, synth, seed, per_node, opts.quick));
        }
    }

    if opts.inject_bad {
        entries.push(inject_bad_entry(&mesh_synth));
    }

    SynthReport {
        quick: opts.quick,
        entries,
        cross_checks,
    }
}

/// The planted defect behind `turnsynth --inject-bad`: take the clean
/// mesh synthesis, wire a two-channel dependency cycle *inside the
/// escape class* (a reversal pair, each offering the other), and pair
/// the tampered spec with the clean certificate's numbering. The
/// synthesizer never sees the tamper — the independent checker must be
/// the one to reject it.
fn inject_bad_entry(mesh_synth: &Option<SynthResult>) -> SynthEntry {
    let result = mesh_synth
        .as_ref()
        .expect("mesh4x4/unrestricted must synthesize before the self-test");
    let clean_cert = prove(&result.spec);
    let mut bad = result.spec.clone();
    bad.name = "mesh4x4/unrestricted/synth (escape cycle injected via --inject-bad)".into();
    let k = result.num_adaptive;
    // A reversal pair inside the escape class: e_ab and e_ba.
    let (ea, eb) = result
        .escape
        .iter()
        .find_map(|a| {
            result
                .escape
                .iter()
                .find(|b| b.src == a.dst && b.dst == a.src)
                .map(|b| (a.id, b.id))
        })
        .expect("bidirectional mesh links have reversal pairs");
    bad.deps.push((ea, eb));
    bad.deps.push((eb, ea));
    bad.deps.sort_unstable();
    let n = bad.num_nodes as usize;
    for dest in 0..n {
        let state_a = n + ea as usize;
        let state_b = n + eb as usize;
        if !bad.routes[dest][state_a].is_empty() && !bad.routes[dest][state_a].contains(&eb) {
            bad.routes[dest][state_a].push(eb);
        }
        if !bad.routes[dest][state_b].is_empty() && !bad.routes[dest][state_b].contains(&ea) {
            bad.routes[dest][state_b].push(ea);
        }
    }
    let checked = crate::check::check(&bad, &clean_cert);
    SynthEntry {
        config: bad.name.clone(),
        kind: "vc".into(),
        input_channels: result.num_adaptive,
        input_deps: 0,
        witness_len: 2,
        classes: result.num_classes(),
        adaptive_channels: k,
        escape_channels: result.escape.len(),
        feedback_cut: result.feedback.len(),
        synth_channels: bad.channels.len(),
        synth_deps: bad.deps.len(),
        acyclic: clean_cert.verdict.is_acyclic(),
        checker_ok: checked.is_ok(),
        checker_err: checked.err(),
        certified_pairs: clean_cert.paths.len(),
        unreachable_pairs: clean_cert.unreachable.len(),
        escape_ok: false,
    }
}
