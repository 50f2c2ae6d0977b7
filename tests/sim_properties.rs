//! Randomized tests of simulator invariants across random configurations
//! (seeded, deterministic).

use turnroute::routing::{mesh2d, DimensionOrder, RoutingMode};
use turnroute::sim::{Engine, FaultPlan, Lanes, LengthDist, Sim, SimConfig, SimConfigBuilder};
use turnroute::topology::{Direction, Mesh, NodeId, Topology};
use turnroute::traffic::Uniform;
use turnroute::vc::{DoubleYAdaptive, VcSim};
use turnroute_rng::{Rng, RngCore, SeedableRng, StdRng};

fn random_cfg(rng: &mut StdRng) -> SimConfig {
    // drain == measure so the measurement window can be reconstructed
    // from the report below.
    let measure = rng.gen_range(500u64..3_000);
    SimConfig::builder()
        .injection_rate(rng.gen_range(0.01f64..0.4))
        .lengths(LengthDist::Fixed(rng.gen_range(2u32..24)))
        .warmup_cycles(rng.gen_range(0u64..500))
        .measure_cycles(measure)
        .drain_cycles(measure)
        .buffer_depth(rng.gen_range(1u32..5))
        .deadlock_threshold(5_000)
        .seed(rng.next_u64())
        .build()
}

/// Conservation and sanity across random loads, lengths, seeds, and
/// buffer depths: the turn-model algorithms never deadlock, delivered
/// packets are exact-minimal, and the report's accounting is
/// internally consistent.
#[test]
fn random_runs_conserve_and_never_deadlock() {
    let mesh = Mesh::new_2d(6, 6);
    let algorithms: [Box<dyn turnroute::model::RoutingFunction>; 4] = [
        Box::new(mesh2d::xy()),
        Box::new(mesh2d::west_first(RoutingMode::Minimal)),
        Box::new(mesh2d::north_last(RoutingMode::Minimal)),
        Box::new(mesh2d::negative_first(RoutingMode::Minimal)),
    ];
    let pattern = Uniform::new();
    let mut rng = StdRng::seed_from_u64(0x51A1);
    for case in 0..24 {
        let cfg = random_cfg(&mut rng);
        let alg = &algorithms[case % algorithms.len()];
        let mut sim = Sim::new(&mesh, alg, &pattern, cfg);
        let report = sim.run();

        assert!(!report.deadlocked, "{} deadlocked", alg.name());
        assert!(report.delivered_packets <= report.generated_packets);
        assert!(report.delivered_fraction() <= 1.0 + 1e-9);

        // Per-packet invariants.
        let mut delivered_window_packets = 0;
        for p in sim.packets() {
            if let Some(done) = p.delivered {
                assert!(p.injected.is_some());
                assert!(done >= p.injected.unwrap());
                let min = mesh.min_hops(p.src, p.dst) as u32;
                assert_eq!(p.hops, min, "minimal routing must be exact");
                // Uncontended latency is exactly injection + hops +
                // ejection transfers for the head (hops + 2 ... but the
                // head enters the injection buffer in its creation
                // cycle), then len - 1 flit cycles for the tail:
                // hops + len + 1. Queuing and contention only add.
                let floor = u64::from(min) + u64::from(p.len) + 1;
                assert!(
                    p.latency().unwrap() >= floor,
                    "latency {} below physical floor {}",
                    p.latency().unwrap(),
                    floor
                );
            }
            if p.delivered.is_some()
                && p.created >= cfg_window_start(&report)
                && p.created < cfg_window_end(&report)
            {
                delivered_window_packets += 1;
            }
        }
        assert_eq!(delivered_window_packets, report.delivered_packets);
    }
}

/// Reconstruct the measurement window from a completed run: the harness
/// sets `drain == measure`, so the window starts at `end - 2 * measure`.
fn cfg_window_start(report: &turnroute::sim::SimReport) -> u64 {
    report.end_cycle - 2 * report.measure_cycles
}

fn cfg_window_end(report: &turnroute::sim::SimReport) -> u64 {
    cfg_window_start(report) + report.measure_cycles
}

// ---- route memo -------------------------------------------------------
//
// The engine remembers what the lane adapter offered each blocked head
// and drops that memo on `restore`. So an engine restored from its own
// snapshot before every cycle computes every offer afresh, and is the
// reference the memoised engine must match state for state. (Debug
// builds also recompute the offer on every memo hit and compare.)

/// Step `warm` plainly and `cold` memo-free for `cycles` cycles, applying
/// `poke` to each before every cycle, and demand identical outcomes.
fn memo_changes_nothing<'a, L: Lanes<'a>>(
    mut warm: Engine<'a, L>,
    mut cold: Engine<'a, L>,
    cycles: u64,
    poke: impl Fn(&mut Engine<'a, L>),
) -> Engine<'a, L> {
    for _ in 0..cycles {
        poke(&mut warm);
        warm.step();
        poke(&mut cold);
        let snap = cold.snapshot();
        cold.restore(&snap);
        cold.step();
    }
    assert_eq!(warm.report(), cold.report());
    assert_eq!(warm.snapshot(), cold.snapshot());
    warm
}

fn saturating(seed: u64) -> SimConfigBuilder {
    SimConfig::builder()
        .injection_rate(0.5)
        .lengths(LengthDist::Fixed(6))
        .warmup_cycles(0)
        .measure_cycles(10_000)
        .deadlock_threshold(5_000)
        .seed(seed)
}

#[test]
fn memo_survives_a_link_failing_and_healing_beside_blocked_heads() {
    let mesh = Mesh::new_2d(6, 6);
    // Every output of one central router goes down and comes back, one
    // after the other, while its inputs are full of waiting heads.
    let hub = mesh.node_at_coords(&[3, 3]);
    let plan = Direction::all(2)
        .enumerate()
        .fold(FaultPlan::new(), |plan, (i, dir)| {
            plan.transient_link(hub, dir, 100 + 60 * i as u64, 90)
        });
    let cfg = saturating(31).fault_plan(plan).build();
    let pattern = Uniform::new();

    let wf = mesh2d::west_first(RoutingMode::Minimal);
    let sim = || Sim::new(&mesh, &wf, &pattern, cfg.clone());
    let end = memo_changes_nothing(sim(), sim(), 600, |_| {});
    assert_eq!(end.applied_fault_events(), 8);

    let dy = DoubleYAdaptive::new();
    let vc = || VcSim::new(&mesh, &dy, &pattern, cfg.clone());
    let end = memo_changes_nothing(vc(), vc(), 600, |_| {});
    assert_eq!(end.applied_fault_events(), 8);
}

#[test]
fn memo_survives_quarantine_and_hold_toggles() {
    let mesh = Mesh::new_2d(6, 6);
    let routing = mesh2d::negative_first(RoutingMode::Minimal);
    let pattern = Uniform::new();
    let cfg = saturating(32).build();
    let hub = mesh.node_at_coords(&[2, 2]);
    let sim = || Sim::new(&mesh, &routing, &pattern, cfg.clone());
    let end = memo_changes_nothing(sim(), sim(), 500, |sim| match sim.now() {
        120 => sim.set_quarantine(hub, Direction::NORTH, true),
        180 => sim.set_hold(hub, true),
        240 => sim.set_hold(hub, false),
        300 => sim.set_quarantine(hub, Direction::NORTH, false),
        _ => {}
    });
    assert!(!end.is_quarantined(hub, Direction::NORTH));
}

#[test]
fn memo_is_dropped_by_restore_from_a_different_history() {
    // The model checker's pattern: one engine, restored over and over
    // from snapshots of states it was never in. Packet 1 means a
    // different packet in the two histories below — same input slot,
    // another destination — so a memo kept across `restore` would route
    // it by the wrong offer.
    let mesh = Mesh::new_2d(4, 4);
    let routing = mesh2d::xy();
    let pattern = Uniform::new();
    let cfg = SimConfig::builder().injection_rate(0.0).build();
    let at = |x, y| mesh.node_at_coords(&[x, y]);
    let history = |dst: NodeId, cycles: u64| {
        let mut sim = Sim::new(&mesh, &routing, &pattern, cfg.clone());
        // A long worm holds router (1,0)'s east output...
        sim.inject_packet(at(1, 0), at(3, 0), 40);
        // ...while packet 1 reaches that router from the west.
        sim.inject_packet(at(0, 0), dst, 2);
        for _ in 0..cycles {
            sim.step();
        }
        sim
    };
    let slot = mesh.channel_slot(at(0, 0), Direction::EAST);
    let head_waits = |sim: &Sim| {
        sim.slot_flits(slot).next() == Some((1, true, false)) && sim.slot_binding(slot).is_none()
    };
    // Eastbound, it has been refused the held output (offer memoised).
    let mut reused = history(at(3, 0), 10);
    assert!(head_waits(&reused));
    // Northbound, it has just arrived and was not routed yet.
    let mut donor = history(at(1, 3), 2);
    assert!(head_waits(&donor));

    reused.restore(&donor.snapshot());
    for _ in 0..100 {
        donor.step();
        reused.step();
    }
    assert!(donor.is_idle());
    assert_eq!(reused.report(), donor.report());
    assert_eq!(reused.snapshot(), donor.snapshot());
}

#[test]
fn memo_survives_timeouts_reinjecting_the_same_packet_id() {
    let mesh = Mesh::new_2d(6, 6);
    let routing = mesh2d::west_first(RoutingMode::Minimal);
    let pattern = Uniform::new();
    let cfg = saturating(35).packet_timeout(90).max_retries(3).build();
    let sim = || Sim::new(&mesh, &routing, &pattern, cfg.clone());
    let end = memo_changes_nothing(sim(), sim(), 800, |_| {});
    assert!(end.report().retries > 0, "no packet was ever re-injected");
}

#[test]
fn memo_is_read_before_the_misroute_budget_filter() {
    // Budget 1: the same slot sees heads still under their budget (the
    // unproductive offers stand) and heads at it (they are withdrawn);
    // both read the one memoised offer.
    let mesh = Mesh::new_2d(6, 6);
    let routing = mesh2d::west_first(RoutingMode::Nonminimal);
    let pattern = Uniform::new();
    let cfg = saturating(36).misroute_budget(1).build();
    let sim = || Sim::new(&mesh, &routing, &pattern, cfg.clone());
    let end = memo_changes_nothing(sim(), sim(), 800, |_| {});
    let misrouted = end.packets().iter().filter(|p| p.misroutes == 1).count();
    assert!(misrouted > 0, "no head ever reached its budget");
    assert!(end.packets().iter().all(|p| p.misroutes <= 1));
}

#[test]
fn memo_survives_a_line_of_single_flit_packets_in_deep_buffers() {
    let line = Mesh::new(vec![9]);
    let routing = DimensionOrder::e_cube(1);
    let pattern = Uniform::new();
    let cfg = saturating(37)
        .lengths(LengthDist::Fixed(1))
        .buffer_depth(4)
        .build();
    let sim = || Sim::new(&line, &routing, &pattern, cfg.clone());
    let end = memo_changes_nothing(sim(), sim(), 600, |_| {});
    assert!(end.report().delivered_flits_in_window > 0);
    assert!(end.packets().iter().any(|p| p.src == NodeId(0)));
}
