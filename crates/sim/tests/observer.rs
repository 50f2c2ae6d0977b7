//! Observer event contract: exact firing counts on tiny deterministic
//! runs, and the deadlock postmortem path end to end.

use turnroute_model::{RoutingFunction, TurnSet};
use turnroute_routing::{mesh2d, RoutingMode};
use turnroute_sim::obs::{json, Event, SimObserver, Telemetry};
use turnroute_sim::{Sim, SimConfig};
use turnroute_topology::{DirSet, Direction, Mesh, NodeId, Topology};
use turnroute_traffic::{Permutation, Uniform};

/// Counts the events of the kinds the tests below predict.
#[derive(Debug, Default)]
struct Counter {
    injects: usize,
    advances: usize,
    ejections: usize,
    tails: usize,
    turns: usize,
    misroutes: usize,
    stalls: usize,
    delivers: usize,
    deadlocks: usize,
    hops_delivered: u32,
}

impl SimObserver for Counter {
    fn on_event(&mut self, _now: u64, ev: &Event<'_>) {
        match *ev {
            Event::Inject { .. } => self.injects += 1,
            Event::FlitAdvance { to, is_tail, .. } => {
                self.advances += 1;
                self.ejections += usize::from(to.is_none());
                self.tails += usize::from(is_tail);
            }
            Event::Turn { .. } => self.turns += 1,
            Event::Misroute { .. } => self.misroutes += 1,
            Event::Stall { .. } => self.stalls += 1,
            Event::Deliver { hops, .. } => {
                self.delivers += 1;
                self.hops_delivered += hops;
            }
            Event::Deadlock(_) => self.deadlocks += 1,
            _ => {}
        }
    }
}

fn quiet() -> SimConfig {
    SimConfig::builder()
        .injection_rate(0.0)
        .deadlock_threshold(500)
        .build()
}

/// One 3-flit packet crossing a 2×2 mesh corner to corner under xy:
/// every event count is exactly predictable.
#[test]
fn hook_counts_on_a_single_packet() {
    let mesh = Mesh::new_2d(2, 2);
    let xy = mesh2d::xy();
    let pattern = Uniform::new();
    let mut sim = Sim::with_observer(&mesh, &xy, &pattern, quiet(), Counter::default());
    let src = mesh.node_at_coords(&[0, 0]);
    let dst = mesh.node_at_coords(&[1, 1]);
    sim.inject_packet(src, dst, 3);
    assert!(sim.run_until_idle(200));
    let c = sim.observer();
    assert_eq!(c.injects, 1);
    assert_eq!(c.delivers, 1);
    // xy path: east then north — exactly one turn, no misroutes.
    assert_eq!(c.turns, 1);
    assert_eq!(c.misroutes, 0);
    assert_eq!(c.hops_delivered, 2);
    // Each of the 3 flits advances through injection -> 2 network
    // channels -> ejection buffer -> consumption: 4 moves each, the
    // final consumption move with `to == None`.
    assert_eq!(c.advances, 12);
    assert_eq!(c.ejections, 3);
    // The tail flit fires `is_tail` once per channel it leaves.
    assert_eq!(c.tails, 4);
    assert_eq!(c.deadlocks, 0);
}

/// Two opposing single-flit packets on a shared row: a lone packet never
/// stalls, so any stall reported here comes from real contention — and a
/// single-flit worm re-running the same scenario gives a lower bound.
#[test]
fn stalls_fire_only_under_contention() {
    let mesh = Mesh::new_2d(4, 2);
    let xy = mesh2d::xy();
    let pattern = Uniform::new();
    let row: Vec<NodeId> = (0..4).map(|x| mesh.node_at_coords(&[x, 0])).collect();

    // Uncontended: one packet, no stalls.
    let mut sim = Sim::with_observer(&mesh, &xy, &pattern, quiet(), Counter::default());
    sim.inject_packet(row[0], row[3], 2);
    assert!(sim.run_until_idle(200));
    assert_eq!(sim.observer().stalls, 0, "a lone packet never stalls");

    // Contended: a second worm injected right behind the first on the
    // same eastbound row must stall behind it.
    let mut sim = Sim::with_observer(&mesh, &xy, &pattern, quiet(), Counter::default());
    sim.inject_packet(row[0], row[3], 6);
    sim.inject_packet(row[1], row[3], 6);
    assert!(sim.run_until_idle(400));
    let c = sim.observer();
    assert_eq!(c.delivers, 2);
    assert!(c.stalls > 0, "the follower worm must stall at least once");
}

/// Deterministic left-turning routing for the deadlock test (the
/// paper's Figure 1 hazard, self-contained here).
#[derive(Debug, Clone, Copy, Default)]
struct TurnLeft;

impl TurnLeft {
    fn left_of(d: Direction) -> Direction {
        match d {
            Direction::EAST => Direction::NORTH,
            Direction::NORTH => Direction::WEST,
            Direction::WEST => Direction::SOUTH,
            Direction::SOUTH => Direction::EAST,
            _ => unreachable!("2D directions only"),
        }
    }
}

impl RoutingFunction for TurnLeft {
    fn name(&self) -> &str {
        "turn-left (deadlocks)"
    }

    fn route(
        &self,
        topo: &dyn Topology,
        current: NodeId,
        dest: NodeId,
        arrived: Option<Direction>,
    ) -> DirSet {
        let productive = topo.productive_dirs(current, dest);
        if productive.len() <= 1 {
            return productive;
        }
        if let Some(arr) = arrived {
            if productive.contains(arr) {
                return DirSet::single(arr);
            }
        }
        for d in productive.iter() {
            if productive.contains(Self::left_of(d)) {
                return DirSet::single(d);
            }
        }
        DirSet::single(productive.iter().next().expect("nonempty"))
    }

    fn is_minimal(&self) -> bool {
        true
    }

    fn turn_set(&self, num_dims: usize) -> Option<TurnSet> {
        Some(TurnSet::all_ninety(num_dims))
    }
}

/// A forced circular wait fires `Event::Deadlock` exactly once, the
/// captured snapshot names the cycle, and the telemetry postmortem is
/// line-by-line parseable JSON.
#[test]
fn deadlock_postmortem_is_captured_and_parseable() {
    let mesh = Mesh::new_2d(2, 2);
    let pattern = Permutation::new("square", (0..4).map(NodeId).collect());
    let cfg = SimConfig::builder()
        .injection_rate(0.0)
        .warmup_cycles(0)
        .measure_cycles(300)
        .drain_cycles(0)
        .deadlock_threshold(50)
        .build();
    let sources = [
        (mesh.node_at_coords(&[0, 0]), mesh.node_at_coords(&[1, 1])),
        (mesh.node_at_coords(&[1, 0]), mesh.node_at_coords(&[0, 1])),
        (mesh.node_at_coords(&[1, 1]), mesh.node_at_coords(&[0, 0])),
        (mesh.node_at_coords(&[0, 1]), mesh.node_at_coords(&[1, 0])),
    ];

    let routing = TurnLeft;
    let mut sim = Sim::with_observer(&mesh, &routing, &pattern, cfg, Telemetry::new(&mesh));
    for (src, dst) in sources {
        sim.inject_packet(src, dst, 8);
    }
    let report = sim.run();
    assert!(report.deadlocked);

    let telemetry = sim.into_observer();
    let snap = telemetry
        .trace
        .snapshot()
        .expect("snapshot captured at deadlock");
    assert_eq!(
        snap.cycle_channels().len(),
        4,
        "four worms in a square wait"
    );

    let dump = telemetry.trace.postmortem_jsonl();
    assert!(dump.lines().count() >= 3);
    for line in dump.lines() {
        assert!(json::validate(line), "invalid JSON line: {line}");
    }
    assert!(dump.lines().next().unwrap().contains("\"deadlocked\":true"));
}

/// The same deterministic run reports identical results with and
/// without an observer attached — observing is strictly read-only.
#[test]
fn observer_does_not_perturb_the_simulation() {
    let mesh = Mesh::new_2d(4, 4);
    let wf = mesh2d::west_first(RoutingMode::Minimal);
    let pattern = Uniform::new();
    let cfg = SimConfig::builder()
        .injection_rate(0.08)
        .warmup_cycles(200)
        .measure_cycles(1_000)
        .drain_cycles(1_000)
        .seed(7)
        .build();

    let plain = Sim::new(&mesh, &wf, &pattern, cfg.clone()).run();
    let mut observed = Sim::with_observer(&mesh, &wf, &pattern, cfg, Counter::default());
    let report = observed.run();

    assert_eq!(report.delivered_packets, plain.delivered_packets);
    assert_eq!(report.avg_latency_cycles, plain.avg_latency_cycles);
    assert_eq!(report.p99_latency_cycles, plain.p99_latency_cycles);
    assert_eq!(report.total_stall_cycles, plain.total_stall_cycles);
    // `Deliver` fires for every packet, including warmup and drain
    // deliveries outside the measurement window.
    assert!(observed.observer().delivers as u64 >= report.delivered_packets);
}
