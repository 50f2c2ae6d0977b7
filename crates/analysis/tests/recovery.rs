//! Recovery-path coverage: a transient fault forces in-flight packets
//! off their minimal paths, and once the fault heals those already
//! misrouted packets must still reach their destinations under the
//! restored relation — no timeouts, no retries, routing alone.
//!
//! The behavioral claim is cross-checked statically: the checked
//! progress claim must list no dead end for the pristine relation the
//! survivors finish under nor for the fault-masked relation they were
//! detoured by, so the simulator's recovery is the dynamic face of a
//! proven dead-end-free graph.

use std::collections::HashSet;

use turnroute_analysis::{checked_progress, extract};
use turnroute_model::{FaultMasked, RoutingFunction};
use turnroute_routing::{mesh2d, RoutingMode};
use turnroute_sim::obs::{ChannelLayout, Event};
use turnroute_sim::{FaultPlan, InvariantObserver, LengthDist, Sim, SimConfig, SimObserver};
use turnroute_topology::{Direction, Mesh, NodeId, Topology};
use turnroute_traffic::Tornado;
use turnroute_vc::{DoubleYAdaptive, VcSim};

/// Collects which packets were ever misrouted and which were delivered,
/// so the test can assert set inclusion rather than bare counters.
#[derive(Default)]
struct RecoveryTrace {
    misrouted: HashSet<u32>,
    delivered: HashSet<u32>,
    drops: u64,
}

impl SimObserver for RecoveryTrace {
    fn on_event(&mut self, _now: u64, ev: &Event<'_>) {
        match *ev {
            Event::Misroute { packet, .. } => _ = self.misrouted.insert(packet.0),
            Event::Deliver { packet, .. } => _ = self.delivered.insert(packet.0),
            Event::Drop { .. } => self.drops += 1,
            _ => {}
        }
    }
}

/// A transient east-link fault in the adaptive phase of west-first: the
/// engine detours same-row eastbound packets (misroutes), the fault
/// heals mid-run, and every misrouted packet is still delivered.
#[test]
fn wormhole_misrouted_packets_survive_a_transient_fault() {
    let mesh = Mesh::new_2d(6, 6);
    let wf = mesh2d::west_first(RoutingMode::Minimal);
    // Fail a central east link while the measurement window is live.
    let plan = FaultPlan::new().transient_link(NodeId(14), Direction::EAST, 300, 900);
    let cfg = SimConfig::builder()
        .injection_rate(0.25)
        .lengths(LengthDist::Fixed(4))
        .warmup_cycles(0)
        .measure_cycles(2_000)
        .drain_cycles(6_000)
        .packet_timeout(0) // disabled: recovery must come from routing, not retry
        .deadlock_threshold(20_000)
        .seed(0xeca1)
        .fault_plan(plan.clone())
        .build();
    let layout = ChannelLayout::for_topology(&mesh);
    let depth = cfg.buffer_depth;
    let obs = (
        RecoveryTrace::default(),
        InvariantObserver::new(layout, depth),
    );
    let pattern = Tornado::new();
    let mut sim = Sim::with_observer(&mesh, &wf, &pattern, cfg, obs);
    let report = sim.run();
    let (trace, sanitizer) = sim.observer();

    assert!(!report.deadlocked, "transient fault must not wedge the run");
    sanitizer.assert_clean();
    assert!(
        !trace.misrouted.is_empty(),
        "the fault never forced a detour; the scenario is vacuous"
    );
    assert_eq!(trace.drops, 0, "no packet may be dropped to 'recover'");
    assert_eq!(
        report.delivered_packets, report.generated_packets,
        "every generated packet must be delivered after the fault heals"
    );
    for pid in &trace.misrouted {
        assert!(
            trace.delivered.contains(pid),
            "misrouted packet {pid} was never delivered after the heal"
        );
    }

    // Static cross-check: the restored relation the survivors finish
    // under, and the masked relation that detoured them mid-fault, are
    // both dead-end-free — delivery was guaranteed, not lucky.
    let dead_ends = |routing: &dyn RoutingFunction| {
        let spec = extract::from_routing(routing.name(), &mesh, routing);
        checked_progress(&spec)
            .expect("the progress claim checks")
            .dead_ends
    };
    assert_eq!(dead_ends(&wf), [], "restored relation");
    let mid_fault = plan.fault_set_at(600, &mesh);
    let masked = FaultMasked::new(&wf, &mesh, &mid_fault);
    assert_eq!(dead_ends(&masked), [], "masked relation");
}

/// The same transient on the virtual-channel engine: double-y adaptive
/// packets blocked by the dead link wait it out (timeouts disabled) and
/// are all delivered once the link heals, with the sanitizer attached.
#[test]
fn vc_packets_blocked_by_a_transient_fault_recover_after_the_heal() {
    let mesh = Mesh::new_2d(6, 6);
    let routing = DoubleYAdaptive::new();
    let plan = FaultPlan::new().transient_link(NodeId(14), Direction::EAST, 300, 900);
    let cfg = SimConfig::builder()
        .injection_rate(0.25)
        .lengths(LengthDist::Fixed(4))
        .warmup_cycles(0)
        .measure_cycles(2_000)
        .drain_cycles(6_000)
        .packet_timeout(0)
        .deadlock_threshold(20_000)
        .seed(0xeca2)
        .fault_plan(plan)
        .build();
    // Two lanes on each of a node's four links: the shape of a
    // four-dimension layout, which the sanitizer shadows.
    let obs = InvariantObserver::new(ChannelLayout::new(mesh.num_nodes(), 4), cfg.buffer_depth);
    let pattern = Tornado::new();
    let mut sim = VcSim::with_observer(&mesh, &routing, &pattern, cfg, obs);
    let report = sim.run();

    assert!(!report.deadlocked, "transient fault must not wedge the run");
    sim.observer().assert_clean();
    assert_eq!(report.dropped_packets, 0);
    assert_eq!(report.retries, 0, "recovery must not lean on retries");
    assert_eq!(
        report.delivered_packets, report.generated_packets,
        "every generated packet must be delivered after the fault heals"
    );
    assert!(report.generated_packets > 50, "scenario carried real load");
}

/// Determinism of the recovery path itself: the same seeded transient
/// produces the same misrouted set and the same delivery outcome.
#[test]
fn recovery_runs_are_deterministic_across_identical_seeds() {
    let run = || {
        let mesh = Mesh::new_2d(6, 6);
        let wf = mesh2d::west_first(RoutingMode::Minimal);
        let plan = FaultPlan::new().transient_link(NodeId(14), Direction::EAST, 300, 900);
        let cfg = SimConfig::builder()
            .injection_rate(0.25)
            .lengths(LengthDist::Fixed(4))
            .warmup_cycles(0)
            .measure_cycles(2_000)
            .drain_cycles(6_000)
            .packet_timeout(0)
            .deadlock_threshold(20_000)
            .seed(0xeca1)
            .fault_plan(plan)
            .build();
        let pattern = Tornado::new();
        let mut sim = Sim::with_observer(&mesh, &wf, &pattern, cfg, RecoveryTrace::default());
        let report = sim.run();
        let mut misrouted: Vec<u32> = sim.observer().misrouted.iter().copied().collect();
        misrouted.sort_unstable();
        (
            report.delivered_packets,
            report.generated_packets,
            misrouted,
        )
    };
    assert_eq!(run(), run());
}
