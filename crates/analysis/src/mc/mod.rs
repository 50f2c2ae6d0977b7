//! `turncheck` — explicit-state model checking that pins the engines to
//! their proofs.
//!
//! The rest of this crate proves properties of *abstractions*: CDG
//! acyclicity, channel numberings, progress potentials. This module
//! closes the loop by exhaustively driving the **production engines**
//! through every reachable global state of small configurations and
//! checking that what the proofs promise is what the engines do:
//!
//! * every census-safe two-turn prohibition yields **zero** reachable
//!   deadlock states (bounded certification over an injection front);
//! * every census-unsafe prohibition yields a **concrete** reachable
//!   deadlock whose circular wait maps, edge for edge, onto the CDG
//!   proof cycle (the refinement check);
//! * misroute counters never exceed the intrinsic bound `turnlint`'s
//!   progress proof computes (progress under fairness);
//! * every deadlock found is emitted as a replayable [`Scenario`] the
//!   simulator re-executes to the same stuck state — recorded to a TTRL
//!   log `turnstat` can replay.
//!
//! The trust boundary is deliberately thin: the checker re-models
//! *nothing*. Transitions are real [`turnroute_sim::Sim`] /
//! [`turnroute_vc::VcSim`] steps behind the scripted-arbitration seam,
//! and the checker only encodes, hashes, and compares the states those
//! steps produce. See DESIGN.md §13 for the soundness argument.

mod driver;
mod encode;
mod explore;
mod front;
mod scenario;

pub use driver::BuggyRouter;
pub use front::{antipodal_exchange, corner_exchange, witness_front, FrontPacket, Witness};
pub use scenario::{replay_wormhole, ReplayOutcome, Scenario, ScenarioStep};

use crate::certificate::ProgressVerdict;
use crate::routing::TurnSetRouting;
use encode::EncodeCtx;
use explore::{explore, ExploreOutcome, ExploreParams};
use turnroute_model::cycle::two_turn_census;
use turnroute_model::{RoutingFunction, TurnSet};
use turnroute_routing::{hypercube::e_cube, mesh2d, torus::NegativeFirstTorus, RoutingMode};
use turnroute_sim::obs::json;
use turnroute_sim::{Engine, Lanes, LengthDist, Sim, SimConfig};
use turnroute_topology::{Hypercube, Mesh, NodeId, Topology, Torus};
use turnroute_traffic::Uniform;
use turnroute_vc::{DoubleYAdaptive, VcSim};

/// State budget for one certification run; hitting it marks the entry
/// incomplete (and failed). Generous — the largest matrix entry (3×3,
/// four 2-flit packets, subset injection) stays well under it.
const MAX_STATES: usize = 4_000_000;

/// Options for a `turncheck` run.
#[derive(Debug, Clone, Default)]
pub struct McOptions {
    /// Skip the 3×3 mesh census (CI's fast path).
    pub quick: bool,
    /// Self-test: verify only the planted [`BuggyRouter`] configuration,
    /// claiming it deadlock free — the run must FAIL, proving the
    /// checker can see a real arbitration bug.
    pub inject_bad: bool,
}

/// One verified configuration.
#[derive(Debug, Clone)]
pub struct McEntry {
    /// Human-readable configuration name.
    pub name: String,
    /// `"sim"` (wormhole) or `"vc"` (virtual-channel engine).
    pub engine: &'static str,
    /// The property claimed: no reachable deadlock (true) or a reachable
    /// deadlock refining the proof witness (false).
    pub expect_deadlock_free: bool,
    /// Distinct canonical states reached.
    pub states: usize,
    /// Engine steps taken.
    pub transitions: usize,
    /// Whether the bounded state space was exhausted.
    pub complete: bool,
    /// Symmetry group order used for canonicalization (1 = none).
    pub group_order: usize,
    /// Whether a reachable deadlock state was found.
    pub deadlock: bool,
    /// Unsafe entries: whether the engine's waits-for cycle maps edge
    /// for edge onto CDG dependency edges of the turn set.
    pub refinement_ok: Option<bool>,
    /// Unsafe entries: whether the engine's cycle is exactly the
    /// shortest proof cycle (any rotation) — the strongest refinement.
    pub witness_match: Option<bool>,
    /// Unsafe entries: whether the counterexample scenario replayed on a
    /// fresh engine to a state the engine's own detector declared stuck.
    pub replay_stuck: Option<bool>,
    /// Largest misroute counter observed anywhere in the state space.
    pub max_misroutes: u32,
    /// The intrinsic bound `max_misroutes` is checked against, when the
    /// configuration has one (0 for minimal routing).
    pub misroute_bound: Option<u32>,
    /// The replayable counterexample, for deadlock entries.
    pub scenario: Option<Scenario>,
}

impl McEntry {
    /// Whether this entry's claim was verified.
    pub fn ok(&self) -> bool {
        let misroutes_ok = self.misroute_bound.is_none_or(|b| self.max_misroutes <= b);
        if self.expect_deadlock_free {
            self.complete && !self.deadlock && misroutes_ok
        } else {
            self.deadlock
                && self.refinement_ok == Some(true)
                && self.witness_match != Some(false)
                && self.replay_stuck == Some(true)
        }
    }
}

/// The complete result of a `turncheck` run.
pub struct McReport {
    /// One entry per verified configuration.
    pub entries: Vec<McEntry>,
    /// The sealed TTRL log of the first counterexample replay, for the
    /// `mc_counterexample.ttr` artifact `turnstat` replays in CI.
    pub counterexample_ttr: Option<Vec<u8>>,
}

impl McReport {
    /// Whether every entry verified its claim.
    pub fn passed(&self) -> bool {
        self.entries.iter().all(McEntry::ok)
    }

    /// Render the human-readable summary.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("turncheck: explicit-state model checking of the production engines\n");
        for e in &self.entries {
            let claim = if e.expect_deadlock_free {
                "deadlock-free"
            } else {
                "deadlocks-as-proven"
            };
            let extra = match (e.refinement_ok, e.replay_stuck) {
                (Some(r), Some(p)) => format!(
                    ", refinement {}, replay {}{}",
                    tick(r),
                    tick(p),
                    match e.witness_match {
                        Some(w) => format!(", witness {}", tick(w)),
                        None => String::new(),
                    }
                ),
                _ => String::new(),
            };
            let bound = match e.misroute_bound {
                Some(b) => format!(", misroutes {}/{}", e.max_misroutes, b),
                None => String::new(),
            };
            out.push_str(&format!(
                "  [{}] {} ({}, {}): {} states, {} transitions, sym {}{}{}{}\n",
                if e.ok() { "PASS" } else { "FAIL" },
                e.name,
                e.engine,
                claim,
                e.states,
                e.transitions,
                e.group_order,
                if e.complete { "" } else { ", INCOMPLETE" },
                bound,
                extra,
            ));
        }
        let (pass, total) = (
            self.entries.iter().filter(|e| e.ok()).count(),
            self.entries.len(),
        );
        out.push_str(&format!(
            "turncheck: {}/{} configurations verified — {}\n",
            pass,
            total,
            if self.passed() {
                "all engine behaviors pinned to their proofs"
            } else {
                "MODEL CHECKING FAILED"
            }
        ));
        out
    }

    /// Render the JSON artifact.
    pub fn to_json(&self) -> String {
        let entries: Vec<String> = self
            .entries
            .iter()
            .map(|e| {
                format!(
                    "{{\"name\":{},\"engine\":{},\"expect_deadlock_free\":{},\
                     \"states\":{},\"transitions\":{},\"complete\":{},\"group_order\":{},\
                     \"deadlock\":{},\"refinement_ok\":{},\"witness_match\":{},\
                     \"replay_stuck\":{},\"max_misroutes\":{},\"misroute_bound\":{},\
                     \"scenario\":{},\"ok\":{}}}",
                    json::string(&e.name),
                    json::string(e.engine),
                    e.expect_deadlock_free,
                    e.states,
                    e.transitions,
                    e.complete,
                    e.group_order,
                    e.deadlock,
                    opt_bool(e.refinement_ok),
                    opt_bool(e.witness_match),
                    opt_bool(e.replay_stuck),
                    e.max_misroutes,
                    e.misroute_bound
                        .map_or("null".to_string(), |b| b.to_string()),
                    e.scenario
                        .as_ref()
                        .map_or("null".to_string(), Scenario::to_json),
                    e.ok(),
                )
            })
            .collect();
        format!(
            "{{\"tool\":\"turncheck\",\"passed\":{},\"entries\":[{}]}}",
            self.passed(),
            entries.join(",")
        )
    }
}

fn tick(b: bool) -> &'static str {
    if b {
        "ok"
    } else {
        "FAIL"
    }
}

fn opt_bool(b: Option<bool>) -> String {
    b.map_or("null".to_string(), |v| v.to_string())
}

/// The exploration configuration: manual injection only, the engine's
/// own deadlock detector parked out of reach (the explorer judges
/// stuckness itself, and a mid-exploration detector trip would make
/// excluded timers behaviorally observable).
fn mc_config(buffer_depth: u32, misroute_budget: u32) -> SimConfig {
    SimConfig::builder()
        .injection_rate(0.0)
        .lengths(LengthDist::Fixed(2))
        .deadlock_threshold(1 << 60)
        .misroute_budget(misroute_budget)
        .buffer_depth(buffer_depth)
        .build()
}

fn set_label(set: &TurnSet) -> String {
    let turns: Vec<String> = set
        .prohibited_ninety()
        .iter()
        .map(|t| t.to_string())
        .collect();
    format!("prohibit {}", turns.join(" + "))
}

/// Exhaustively certify one census-safe turn set deadlock free on the
/// `side`×`side` mesh: corner-exchange front, full injection-subset
/// nondeterminism, every arbitration resolution, symmetry-reduced.
fn certify_set(side: u16, set: &TurnSet) -> McEntry {
    let mesh = Mesh::new_2d(side, side);
    let routing = TurnSetRouting::new(set_label(set), set.clone(), &mesh);
    let front = corner_exchange(&mesh, 2);
    let cfg = mc_config(1, 0);
    let ctx = EncodeCtx::mesh_stabilizer(&mesh, set, &front, cfg.buffer_depth);
    let pattern = Uniform::new();
    let mut sim = Sim::new(&mesh, &routing, &pattern, cfg);
    let outcome = explore(
        &mut sim,
        &front,
        &ctx,
        &ExploreParams {
            enumerate_injection: true,
            stop_at_first_deadlock: false,
            max_states: MAX_STATES,
        },
    );
    entry_from(
        format!("mesh{side} {}", set_label(set)),
        "sim",
        true,
        ctx.group_order(),
        &outcome,
    )
}

/// Refute one census-unsafe turn set on the `side`×`side` mesh: drive
/// the engine to a reachable deadlock from the witness front, check the
/// circular wait refines the CDG proof cycle, and replay the scenario.
fn refute_set(side: u16, set: &TurnSet, ttr: &mut Option<Vec<u8>>) -> McEntry {
    let mesh = Mesh::new_2d(side, side);
    // Single-flit packets: a 2-flit worm would still have its tail in
    // the injection channel while its head holds the first cycle
    // channel, blocking front packets that share a source router with
    // another cycle channel. One flit = one held channel, exactly the
    // abstract token of the CDG argument.
    let (front, witness) =
        witness_front(&mesh, set, 1).expect("census-unsafe sets have a proof cycle");
    let routing = TurnSetRouting::new(set_label(set), set.clone(), &mesh);
    let cfg = mc_config(1, 0);
    let ctx = EncodeCtx::mesh_stabilizer(&mesh, set, &front, cfg.buffer_depth);
    let pattern = Uniform::new();
    let mut sim = Sim::new(&mesh, &routing, &pattern, cfg.clone());
    let outcome = explore(
        &mut sim,
        &front,
        &ctx,
        &ExploreParams {
            enumerate_injection: false,
            stop_at_first_deadlock: true,
            max_states: MAX_STATES,
        },
    );
    let mut entry = entry_from(
        format!("mesh{side} {}", set_label(set)),
        "sim",
        false,
        ctx.group_order(),
        &outcome,
    );
    if let Some(dl) = &outcome.first_deadlock {
        let refinement = !dl.cycle_slots.is_empty() && {
            // Every consecutive engine wait is a CDG dependency edge —
            // checked against the turn set's own dependency graph.
            witness.matches(&mesh, &dl.cycle_slots) || consecutive_edges_ok(&witness, &mesh, dl)
        };
        entry.refinement_ok = Some(refinement);
        entry.witness_match = Some(witness.matches(&mesh, &dl.cycle_slots));
        let scenario = Scenario::from_deadlock(dl);
        let threshold = 32 + scenario.steps.len() as u64;
        let replay = replay_wormhole(&mesh, &routing, &front, &cfg, &scenario, threshold);
        entry.replay_stuck = Some(replay.stuck && replay.delivered < front.len() as u64);
        if ttr.is_none() {
            *ttr = Some(replay.ttr);
        }
        entry.scenario = Some(scenario);
    }
    entry
}

/// Weaker half of the refinement predicate for larger meshes: the
/// engine's wait cycle need not be the *shortest* proof cycle, but every
/// edge of it must exist in the turn set's CDG.
fn consecutive_edges_ok(witness: &Witness, mesh: &Mesh, dl: &explore::Deadlock) -> bool {
    let chans = witness.cdg.channels();
    let chan_at = |slot: usize| {
        chans
            .iter()
            .find(|c| mesh.channel_slot(c.src(), c.dir()) == slot)
            .map(|c| c.id())
    };
    !dl.cycle_slots.is_empty()
        && dl.cycle_slots.iter().enumerate().all(|(i, &s)| {
            let next = dl.cycle_slots[(i + 1) % dl.cycle_slots.len()];
            match (chan_at(s), chan_at(next)) {
                (Some(a), Some(b)) => witness.cdg.successors(a).contains(&b.0),
                _ => false,
            }
        })
}

fn entry_from(
    name: String,
    engine: &'static str,
    expect_free: bool,
    group_order: usize,
    outcome: &ExploreOutcome,
) -> McEntry {
    McEntry {
        name,
        engine,
        expect_deadlock_free: expect_free,
        states: outcome.states,
        transitions: outcome.transitions,
        complete: outcome.complete,
        group_order,
        deadlock: outcome.deadlocks > 0,
        refinement_ok: None,
        witness_match: None,
        replay_stuck: None,
        max_misroutes: outcome.max_misroutes,
        misroute_bound: if expect_free { Some(0) } else { None },
        scenario: None,
    }
}

/// Certify a configuration on an arbitrary wormhole engine with no
/// symmetry reduction.
fn certify_plain<'a, L: Lanes<'a>>(
    name: String,
    engine_kind: &'static str,
    engine: &mut Engine<'a, L>,
    front: &[FrontPacket],
    num_nodes: usize,
    buffer_depth: u32,
    misroute_bound: u32,
) -> McEntry {
    let ctx = EncodeCtx::identity(engine.num_slots(), num_nodes, front, buffer_depth);
    let outcome = explore(
        engine,
        front,
        &ctx,
        &ExploreParams {
            enumerate_injection: true,
            stop_at_first_deadlock: false,
            max_states: MAX_STATES,
        },
    );
    let mut e = entry_from(name, engine_kind, true, 1, &outcome);
    e.misroute_bound = Some(misroute_bound);
    e
}

/// [`certify_plain`] on the wormhole engine: `routing` on `topo` under
/// `cfg`, from `front`, with misroute bound `bound`.
fn certify_sim(
    name: &str,
    topo: &dyn Topology,
    routing: &dyn RoutingFunction,
    front: &[FrontPacket],
    cfg: SimConfig,
    bound: u32,
) -> McEntry {
    let pattern = Uniform::new();
    let (nodes, depth) = (topo.num_nodes(), cfg.buffer_depth);
    let mut sim = Sim::new(topo, routing, &pattern, cfg);
    certify_plain(name.into(), "sim", &mut sim, front, nodes, depth, bound)
}

/// Run the full `turncheck` matrix.
pub fn run(opts: &McOptions) -> McReport {
    let mut entries = Vec::new();
    let mut ttr: Option<Vec<u8>> = None;

    if opts.inject_bad {
        entries.push(inject_bad_entry());
        return McReport {
            entries,
            counterexample_ttr: None,
        };
    }

    // The census, exhaustively. Classification comes from the 3×3 mesh —
    // the smallest that exhibits the paper's 12/4 split: on 2×2 every
    // two-turn CDG is acyclic (the complex S-shaped cycles of Figure 4
    // need three columns), and the four paper-unsafe sets are not even
    // connected there (both turns between two positive directions gone
    // means no diagonal journey exists at all).
    let census = two_turn_census(&Mesh::new_2d(3, 3));
    let sides: &[u16] = if opts.quick { &[2] } else { &[2, 3] };
    for &side in sides {
        for (set, free) in &census.entries {
            if *free {
                entries.push(certify_set(side, set));
            }
        }
    }
    // Refutations always run on 3×3, the smallest mesh where the proof
    // cycle exists; they are cheap (all-at-once injection, stop at the
    // first deadlock), so quick mode keeps them too.
    for (set, free) in &census.entries {
        if !free {
            entries.push(refute_set(3, set, &mut ttr));
        }
    }

    // Ring (1D torus): negative-first with the wraparound classification.
    let ring = Torus::new(4, 1);
    let (routing, front) = (NegativeFirstTorus::new(1), antipodal_exchange(&ring, 2));
    let (name, cfg) = ("ring4 negative-first-torus", mc_config(1, 0));
    entries.push(certify_sim(name, &ring, &routing, &front, cfg, 0));

    // Hypercube-2: dimension-ordered e-cube.
    let cube = Hypercube::new(2);
    let (routing, front) = (e_cube(2), antipodal_exchange(&cube, 2));
    let (name, cfg) = ("hypercube2 e-cube", mc_config(1, 0));
    entries.push(certify_sim(name, &cube, &routing, &front, cfg, 0));

    // The virtual-channel engine: double-y adaptive on the 2×2 mesh.
    let mesh = Mesh::new_2d(2, 2);
    let front = corner_exchange(&mesh, 2);
    {
        let routing = DoubleYAdaptive::new();
        let pattern = Uniform::new();
        let cfg = mc_config(1, 0);
        let mut sim = VcSim::new(&mesh, &routing, &pattern, cfg.clone());
        entries.push(certify_plain(
            "mesh2 double-y adaptive".to_string(),
            "vc",
            &mut sim,
            &front,
            4,
            cfg.buffer_depth,
            0,
        ));
    }

    // Deeper buffers: west-first with 2-flit buffers (toward virtual
    // cut-through; the snapshot seam must hold regardless of depth).
    let set = mesh2d::west_first(RoutingMode::Minimal)
        .turn_set(2)
        .expect("west-first has a turn set");
    let routing = TurnSetRouting::new("west-first".to_string(), set, &mesh);
    let (name, cfg) = ("mesh2 west-first buffers=2", mc_config(2, 0));
    entries.push(certify_sim(name, &mesh, &routing, &front, cfg, 0));

    // Progress under fairness: nonminimal west-first must keep every
    // reachable misroute counter within the intrinsic bound the static
    // progress proof computes — with budget above the bound, so the
    // engine is not doing the limiting.
    let routing = mesh2d::west_first(RoutingMode::Nonminimal);
    let spec = crate::extract::from_routing(routing.name(), &mesh, &routing);
    let progress = crate::verify::checked_progress(&spec);
    let bounded = matches!(&progress, Ok(p) if p.verdict == ProgressVerdict::Bounded);
    let bound = progress.map_or(0, |p| p.max_misroutes);
    let name = format!("mesh2 west-first nonminimal (bound {bound})");
    let cfg = mc_config(1, bound + 2);
    let mut e = certify_sim(&name, &mesh, &routing, &front, cfg, bound);
    // A failed progress proof would make the bound meaningless.
    e.complete = e.complete && bounded;
    entries.push(e);

    McReport {
        entries,
        counterexample_ttr: ttr,
    }
}

/// The `--inject-bad` self-test: west-first with the turn filter skipped
/// at router n1, *claimed* deadlock free. The claim must fail — the
/// explorer reaches the dead-end wedge the skipped filter creates — or
/// the checker is blind.
fn inject_bad_entry() -> McEntry {
    let mesh = Mesh::new_2d(2, 2);
    let set = mesh2d::west_first(RoutingMode::Minimal)
        .turn_set(2)
        .expect("west-first has a turn set");
    let inner = TurnSetRouting::new("west-first".to_string(), set, &mesh);
    let routing = BuggyRouter::new(inner, NodeId(1));
    let front = corner_exchange(&mesh, 2);
    let pattern = Uniform::new();
    let cfg = mc_config(1, 0);
    let buffer_depth = cfg.buffer_depth;
    let mut sim = Sim::new(&mesh, &routing, &pattern, cfg);
    let ctx = EncodeCtx::identity(sim.num_slots(), 4, &front, buffer_depth);
    let outcome = explore(
        &mut sim,
        &front,
        &ctx,
        &ExploreParams {
            enumerate_injection: true,
            stop_at_first_deadlock: true,
            max_states: MAX_STATES,
        },
    );
    entry_from(
        "mesh2 planted-bug west-first (filter skipped at n1)".to_string(),
        "sim",
        true, // the lie the self-test must expose
        1,
        &outcome,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_matrix_passes() {
        let report = run(&McOptions {
            quick: true,
            inject_bad: false,
        });
        assert!(report.passed(), "{}", report.render());
        // The quick matrix still covers the full census (2×2
        // certifications, 3×3 refutations) plus the cross-topology and
        // fairness entries.
        assert_eq!(report.entries.len(), 12 + 4 + 5);
        assert!(report.counterexample_ttr.is_some());
        // Every entry's state space, pinned: an encoder that merges two
        // states (or splits one) moves these counts.
        let spaces: Vec<_> = report
            .entries
            .iter()
            .map(|e| (e.name.as_str(), e.states, e.transitions, e.group_order))
            .collect();
        assert_eq!(
            spaces,
            [
                ("mesh2 prohibit north->west + north->east", 1764, 4397, 2),
                ("mesh2 prohibit west->south + north->east", 1487, 3927, 2),
                ("mesh2 prohibit south->east + north->east", 1715, 4083, 2),
                ("mesh2 prohibit east->south + north->west", 1487, 3927, 2),
                ("mesh2 prohibit west->south + east->south", 1715, 4083, 2),
                ("mesh2 prohibit east->south + east->north", 1764, 4397, 2),
                ("mesh2 prohibit south->west + north->west", 1715, 4083, 2),
                ("mesh2 prohibit south->west + south->east", 1764, 4397, 2),
                ("mesh2 prohibit east->north + south->west", 1487, 3927, 2),
                ("mesh2 prohibit west->south + west->north", 1764, 4397, 2),
                ("mesh2 prohibit west->north + south->east", 1487, 3927, 2),
                ("mesh2 prohibit west->north + east->north", 1715, 4083, 2),
                ("mesh3 prohibit east->north + north->east", 150, 3061, 2),
                ("mesh3 prohibit east->south + south->east", 159, 3161, 2),
                ("mesh3 prohibit west->south + south->west", 141, 3029, 2),
                ("mesh3 prohibit west->north + north->west", 148, 3057, 2),
                ("ring4 negative-first-torus", 2109, 5280, 1),
                ("hypercube2 e-cube", 2401, 4939, 1),
                ("mesh2 double-y adaptive", 7059, 18980, 1),
                ("mesh2 west-first buffers=2", 3956, 9048, 1),
                ("mesh2 west-first nonminimal (bound 1)", 3369, 8002, 1),
            ]
        );
        // 12 certifications, each exhaustive with zero deadlocks.
        let safe: Vec<_> = report
            .entries
            .iter()
            .filter(|e| e.name.starts_with("mesh2 prohibit"))
            .collect();
        assert_eq!(safe.len(), 12);
        for e in safe {
            assert!(e.expect_deadlock_free && e.complete && !e.deadlock);
            assert_eq!(e.max_misroutes, 0, "{}: minimal routing misrouted", e.name);
        }
        // 4 refutations, each with a refined, replayed counterexample.
        let unsafe_entries: Vec<_> = report
            .entries
            .iter()
            .filter(|e| e.name.starts_with("mesh3 prohibit"))
            .collect();
        assert_eq!(unsafe_entries.len(), 4);
        for e in unsafe_entries {
            assert!(!e.expect_deadlock_free && e.deadlock, "{}", e.name);
            assert_eq!(e.refinement_ok, Some(true), "{}", e.name);
            assert_eq!(e.witness_match, Some(true), "{}", e.name);
            assert_eq!(e.replay_stuck, Some(true), "{}", e.name);
        }
    }

    #[test]
    fn inject_bad_is_caught() {
        let report = run(&McOptions {
            quick: true,
            inject_bad: true,
        });
        assert!(
            !report.passed(),
            "planted arbitration bug escaped the checker"
        );
        assert_eq!(report.entries.len(), 1);
        assert!(report.entries[0].deadlock, "the wedge must be reachable");
    }

    #[test]
    fn json_artifact_is_well_formed() {
        let report = run(&McOptions {
            quick: true,
            inject_bad: true,
        });
        let json = report.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"tool\":\"turncheck\""));
        assert!(json.contains("\"passed\":false"));
    }

    #[test]
    fn json_escapes_control_characters_in_names() {
        let mut report = run(&McOptions {
            quick: true,
            inject_bad: true,
        });
        report.entries[0].name = "tab\tbell\u{7}".into();
        let json = report.to_json();
        assert!(json::validate(&json), "{json}");
        assert!(json.contains(r#""name":"tab\tbell\u0007""#), "{json}");
    }
}
