//! Randomized tests of simulator invariants across random configurations
//! (seeded, deterministic).

use turnroute::routing::{mesh2d, DimensionOrder, RoutingMode};
use turnroute::sim::obs::ChannelLayout;
use turnroute::sim::{
    Engine, FaultPlan, InputPolicy, InvariantObserver, Lanes, LengthDist, OutputPolicy,
    PhaseProfiler, Sim, SimConfig, SimConfigBuilder, SimObserver, Work,
};
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

/// Step `warm` plainly and `cold` restored from its own snapshot before
/// each of `cycles` cycles — no memo, and (further down) every source
/// polled, every queue sampled, every head awake, no worm frozen —
/// applying `poke` to each
/// before every cycle, and demand identical outcomes.
fn derived_state_changes_nothing<'a, L: Lanes<'a>>(
    warm: Engine<'a, L>,
    cold: Engine<'a, L>,
    cycles: u64,
    poke: impl Fn(&mut Engine<'a, L>),
) -> Engine<'a, L> {
    beside_its_reference(warm, cold, cycles, poke).0
}

/// [`derived_state_changes_nothing`] under any observer, handing back
/// both engines — the plain one first — for what they observed.
fn beside_its_reference<'a, L: Lanes<'a>, O: SimObserver>(
    mut warm: Engine<'a, L, O>,
    mut cold: Engine<'a, L, O>,
    cycles: u64,
    poke: impl Fn(&mut Engine<'a, L, O>),
) -> (Engine<'a, L, O>, Engine<'a, L, O>) {
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
    (warm, cold)
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
    let end = derived_state_changes_nothing(sim(), sim(), 600, |_| {});
    assert_eq!(end.applied_fault_events(), 8);

    let dy = DoubleYAdaptive::new();
    let vc = || VcSim::new(&mesh, &dy, &pattern, cfg.clone());
    let end = derived_state_changes_nothing(vc(), vc(), 600, |_| {});
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
    let end = derived_state_changes_nothing(sim(), sim(), 500, |sim| match sim.now() {
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
    // In deep buffers too, where a purged worm's slots held several of
    // its flits and a retried head waits for its source's last tail.
    let mesh = Mesh::new_2d(6, 6);
    let routing = mesh2d::west_first(RoutingMode::Minimal);
    let pattern = Uniform::new();
    for depth in [1, 2, 3] {
        let cfg = saturating(35)
            .packet_timeout(90)
            .max_retries(3)
            .buffer_depth(depth)
            .build();
        let sim = || Sim::new(&mesh, &routing, &pattern, cfg.clone());
        let end = derived_state_changes_nothing(sim(), sim(), 800, |_| {});
        assert!(
            end.report().retries > 0,
            "depth {depth}: nothing re-injected"
        );
    }
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
    let end = derived_state_changes_nothing(sim(), sim(), 800, |_| {});
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
    let end = derived_state_changes_nothing(sim(), sim(), 600, |_| {});
    assert!(end.report().delivered_flits_in_window > 0);
    assert!(end.packets().iter().any(|p| p.src == NodeId(0)));
}

// ---- derived indices ----------------------------------------------------
//
// The engine walks an occupied-slot set, an arrival calendar and an
// active-source set instead of every channel and node. `restore` drops
// the calendar and widens the source set to every node, so the engine
// restored from its own snapshot before every cycle — the memo-free one
// above — is also the one that polls every source and rebuilds the
// calendar from `next_arrival` each cycle: the full scans, as a
// reference. (Debug builds also cross-check all three against a full
// scan once per cycle.)

#[test]
fn active_set_is_rebuilt_by_restore_from_a_different_history() {
    let mesh = Mesh::new_2d(6, 6);
    let routing = mesh2d::west_first(RoutingMode::Minimal);
    let pattern = Uniform::new();
    let cfg = SimConfig::builder()
        .injection_rate(0.05)
        .lengths(LengthDist::Fixed(6))
        .seed(41)
        .build();
    let history = |cycles: u64| {
        let mut sim = Sim::new(&mesh, &routing, &pattern, cfg.clone());
        for _ in 0..cycles {
            sim.step();
        }
        sim
    };
    // The fresh engine, stepped from cycle 0 throughout, with a backlog
    // at every source.
    let mut donor = history(300);
    for v in 0..36 {
        donor.inject_packet(NodeId(v), NodeId(35 - v), 9);
        donor.inject_packet(NodeId(v), NodeId(35 - v), 9);
    }
    // Another engine's calendar and source set describe cycle 1,000 of a
    // history without them: a handful of active sources, arrivals due
    // 700 cycles late.
    let mut reused = history(1_000);
    reused.restore(&donor.snapshot());
    for _ in 0..700 {
        donor.step();
        reused.step();
    }
    assert!(donor.report().delivered_packets > 100);
    assert_eq!(reused.report(), donor.report());
    assert_eq!(reused.snapshot(), donor.snapshot());
}

#[test]
fn active_set_shows_a_window_opened_mid_run_its_backlog() {
    let mesh = Mesh::new_2d(6, 6);
    let routing = mesh2d::xy();
    let pattern = Uniform::new();
    let cfg = saturating(42).build();
    let (opens, closes) = (400, 900);
    // The fresh engine knows its window from cycle 0; the other has none
    // until the cycle it opens.
    let mut fresh = Sim::new(&mesh, &routing, &pattern, cfg.clone());
    fresh.set_measure_window(opens, closes);
    let mut late = Sim::new(&mesh, &routing, &pattern, cfg);
    late.set_measure_window(u64::MAX, u64::MAX);
    for _ in 0..opens {
        fresh.step();
        late.step();
    }
    assert_eq!(late.report().max_queue_len, 0, "no window yet");
    let backlog = (0..mesh.num_nodes())
        .map(|v| late.source_queue(v).count())
        .max()
        .unwrap();
    assert!(backlog > 10, "not saturated: {backlog}");
    late.set_measure_window(opens, closes);
    // Most sources have no arrival this cycle; their queues count anyway.
    fresh.step();
    late.step();
    assert!(late.report().max_queue_len >= backlog);
    assert_eq!(late.report(), fresh.report());
    for _ in opens + 1..closes + 100 {
        fresh.step();
        late.step();
    }
    assert_eq!(late.report(), fresh.report());
}

#[test]
fn active_set_takes_back_a_source_when_a_timeout_requeues_its_packet() {
    // A two-flit packet leaves its source whole, the source leaves the
    // set, and the worm waits at a failed link until its lifetime ends:
    // the retry is queued at a source that was no longer polled.
    let mesh = Mesh::new_2d(4, 4);
    let routing = mesh2d::xy();
    let pattern = Uniform::new();
    let at = |x, y| mesh.node_at_coords(&[x, y]);
    let plan = FaultPlan::new().transient_link(at(2, 0), Direction::EAST, 0, 300);
    let cfg = SimConfig::builder()
        .injection_rate(0.0)
        .packet_timeout(150)
        .max_retries(5)
        .deadlock_threshold(5_000)
        .fault_plan(plan)
        .build();
    let sim = || {
        let mut sim = Sim::new(&mesh, &routing, &pattern, cfg.clone());
        sim.inject_packet(at(0, 0), at(3, 0), 2);
        sim
    };
    let waiting_at_source =
        |sim: &Sim| sim.source_queue(0).count() + sim.source_emitting(0).iter().count();
    let end = derived_state_changes_nothing(sim(), sim(), 500, |sim| match sim.now() {
        149 => {
            assert!(sim.packets()[0].injected.is_some());
            assert_eq!(waiting_at_source(sim), 0, "the whole packet left");
        }
        151 => assert_eq!(waiting_at_source(sim), 1, "the retry is not back"),
        _ => {}
    });
    assert!(end.is_idle());
    assert!(
        end.packets()[0].delivered.is_some(),
        "the retry was never fed"
    );
    assert_eq!(end.report().retries, 2);
}

#[test]
fn active_set_leaves_max_queue_len_unsampled_at_rate_zero() {
    // `max_queue_len` is sampled by message generation, which a rate of
    // zero switches off whole — hand-injected packets queue unrecorded.
    let mesh = Mesh::new_2d(4, 4);
    let routing = mesh2d::xy();
    let pattern = Uniform::new();
    let cfg = SimConfig::builder().injection_rate(0.0).build();
    let sim = || {
        let mut sim = Sim::new(&mesh, &routing, &pattern, cfg.clone());
        for _ in 0..3 {
            sim.inject_packet(NodeId(0), NodeId(15), 4);
            sim.inject_packet(NodeId(5), NodeId(10), 4);
        }
        sim
    };
    let end = derived_state_changes_nothing(sim(), sim(), 200, |_| {});
    assert!(end.is_idle());
    assert_eq!(end.report().delivered_packets, 6);
    assert_eq!(end.report().max_queue_len, 0);
}

#[test]
fn active_set_keeps_a_held_source_and_a_faulty_injection_slot() {
    // Neither source can inject, both stay in the set, and each starts
    // the cycle it is let go.
    let mesh = Mesh::new_2d(4, 4);
    let routing = mesh2d::west_first(RoutingMode::Minimal);
    let pattern = Uniform::new();
    let (held, down) = (NodeId(0), NodeId(10));
    let plan = FaultPlan::new().transient_node(down, 0, 120);
    let cfg = SimConfig::builder()
        .injection_rate(0.0)
        .deadlock_threshold(5_000)
        .fault_plan(plan)
        .build();
    let sim = || {
        let mut sim = Sim::new(&mesh, &routing, &pattern, cfg.clone());
        sim.set_hold(held, true);
        sim.inject_packet(held, NodeId(15), 5);
        sim.inject_packet(down, NodeId(3), 5);
        sim
    };
    let poke = |sim: &mut Sim| {
        if sim.now() == 80 {
            sim.set_hold(held, false);
        }
    };
    let end = derived_state_changes_nothing(sim(), sim(), 300, poke);
    assert!(end.is_idle());
    assert_eq!(end.packets()[0].injected, Some(80));
    assert_eq!(end.packets()[1].injected, Some(120));
    assert_eq!(end.report().delivered_packets, 2);
}

#[test]
fn active_set_on_the_smallest_and_thinnest_networks() {
    // Two nodes, a line, a two-row mesh under the lane-sharing engine;
    // single-flit packets, depth-4 buffers; light enough that most
    // cycles most of each set is empty.
    let pattern = Uniform::new();
    let cfg = |seed: u64| {
        SimConfig::builder()
            .injection_rate(0.1)
            .lengths(LengthDist::Fixed(1))
            .buffer_depth(4)
            .warmup_cycles(0)
            .measure_cycles(10_000)
            .seed(seed)
            .build()
    };
    let routing = DimensionOrder::e_cube(1);
    for (nodes, seed) in [(2, 43), (9, 44), (40, 45)] {
        let line = Mesh::new(vec![nodes]);
        let sim = || Sim::new(&line, &routing, &pattern, cfg(seed));
        let end = derived_state_changes_nothing(sim(), sim(), 600, |_| {});
        let report = end.report();
        assert!(report.delivered_packets > 20, "{nodes} nodes: {report}");
        assert!(!report.deadlocked);
    }
    let dy = DoubleYAdaptive::new();
    for (rows, seed) in [(2, 46), (17, 47)] {
        let mesh = Mesh::new_2d(2, rows);
        let vc = || VcSim::new(&mesh, &dy, &pattern, cfg(seed));
        let end = derived_state_changes_nothing(vc(), vc(), 600, |_| {});
        let report = end.report();
        assert!(report.delivered_packets > 20, "2x{rows}: {report}");
        assert!(!report.deadlocked);
    }
}

#[test]
fn injection_takes_a_head_only_into_an_empty_buffer() {
    // Deep buffers, long packets and short lifetimes: a source's next head
    // must wait for the last packet's tail to leave its injection buffer,
    // the rule every network channel obeys. Were it let in behind that
    // tail it would take over the channel's owner while the tail is still
    // there, and the purges that follow would clear the wrong flits until
    // a push finds a full buffer.
    let mesh = Mesh::new_2d(6, 6);
    let routing = mesh2d::west_first(RoutingMode::Minimal);
    let pattern = Uniform::new();
    for seed in 1..=5 {
        let cfg = SimConfig::builder()
            .injection_rate(0.9)
            .lengths(LengthDist::Fixed(20))
            .buffer_depth(2)
            .packet_timeout(60)
            .deadlock_threshold(5_000)
            .seed(seed)
            .build();
        let sanitizer = InvariantObserver::new(ChannelLayout::for_topology(&mesh), 2);
        let mut sim = Sim::with_observer(&mesh, &routing, &pattern, cfg, sanitizer);
        for _ in 0..800 {
            sim.step();
        }
        let report = sim.report();
        assert!(report.dropped_packets > 0, "seed {seed}: {report}");
        assert!(report.delivered_packets > 0, "seed {seed}: {report}");
        let violations = sim.observer().violations();
        assert!(violations.is_empty(), "seed {seed}: {violations:?}");
    }
}

#[test]
fn active_set_follows_purges_of_deep_injection_buffers() {
    // The injection regression's configuration beside the reference:
    // purges empty injection buffers that hold several flits, and a
    // parked source's retried head waits for the last tail to leave.
    let mesh = Mesh::new_2d(6, 6);
    let routing = mesh2d::west_first(RoutingMode::Minimal);
    let pattern = Uniform::new();
    for (seed, depth) in [(1, 2), (2, 3)] {
        let cfg = SimConfig::builder()
            .injection_rate(0.9)
            .lengths(LengthDist::Fixed(20))
            .buffer_depth(depth)
            .packet_timeout(60)
            .max_retries(1)
            .deadlock_threshold(5_000)
            .seed(seed)
            .build();
        let sim = || Sim::new(&mesh, &routing, &pattern, cfg.clone());
        let end = derived_state_changes_nothing(sim(), sim(), 800, |_| {});
        let report = end.report();
        assert!(report.retries > 0 && report.dropped_packets > 0, "{report}");
    }
}

#[test]
#[should_panic(expected = "radix >= 2")]
fn active_set_has_no_one_by_one_network_to_index() {
    // The 1×1 "network" is refused where it would be described, before
    // any engine (and any word of any set) is sized for it.
    let _ = Mesh::new_2d(1, 1);
}

// ---- queue sample -------------------------------------------------------
//
// `max_queue_len` is read only at the nodes whose queue grew since the
// last read, because between two reads a queue can only shrink, and
// `restore` marks every node. So the engine restored from its own
// snapshot before every cycle — the reference above — reads every queue
// in every cycle of the window: the full sample.
// (`active_set_leaves_max_queue_len_unsampled_at_rate_zero` covers a rate
// of zero, where nothing is sampled.)

/// A rate above zero, so that the queues are sampled, and too low for any
/// packet of its own in a short run: every packet is placed by hand.
fn hand_fed(seed: u64) -> SimConfigBuilder {
    SimConfig::builder()
        .injection_rate(1e-9)
        .deadlock_threshold(5_000)
        .seed(seed)
}

/// Queue twelve eight-flit packets at node 0 of a 6×6 mesh.
fn queue_a_burst(sim: &mut Sim<'_>) {
    for _ in 0..12 {
        sim.inject_packet(NodeId(0), NodeId(35), 8);
    }
}

#[test]
fn queue_sample_equals_the_full_one_in_a_window_opened_after_warm_up() {
    // A burst queued between two windows, at a source that queues
    // nothing after it: the second window still counts the backlog.
    let mesh = Mesh::new_2d(6, 6);
    let routing = mesh2d::xy();
    let pattern = Uniform::new();
    let cfg = hand_fed(83).build();
    let sim = || {
        let mut sim = Sim::new(&mesh, &routing, &pattern, cfg.clone());
        sim.set_measure_window(100, 200);
        sim
    };
    let end = derived_state_changes_nothing(sim(), sim(), 600, |sim| match sim.now() {
        150 => {
            sim.inject_packet(NodeId(7), NodeId(28), 6);
        }
        250 => queue_a_burst(sim),
        300 => sim.set_measure_window(300, 500),
        _ => {}
    });
    assert_eq!(end.packets().len(), 13, "a packet of the rate's own");
    assert!(end.report().max_queue_len >= 5, "{}", end.report());
}

#[test]
fn queue_sample_reads_every_queue_after_a_restore_from_another_history() {
    // The donor queued a burst before its window opened; the reused
    // engine has sampled every cycle of its own history, so nothing of
    // its own is left to read when it takes the donor's state mid-window.
    let mesh = Mesh::new_2d(6, 6);
    let routing = mesh2d::xy();
    let pattern = Uniform::new();
    let cfg = hand_fed(84).build();
    let mut donor = Sim::new(&mesh, &routing, &pattern, cfg.clone());
    donor.set_measure_window(300, 600);
    for _ in 0..280 {
        if donor.now() == 250 {
            queue_a_burst(&mut donor);
        }
        donor.step();
    }
    let mut reused = Sim::new(&mesh, &routing, &pattern, cfg);
    for _ in 0..500 {
        if reused.now().is_multiple_of(50) {
            reused.inject_packet(NodeId(9), NodeId(20), 4);
        }
        reused.step();
    }
    assert!(reused.report().max_queue_len > 0);
    reused.restore(&donor.snapshot());
    for _ in 0..320 {
        donor.step();
        reused.step();
    }
    assert!(donor.report().max_queue_len >= 5, "{}", donor.report());
    assert_eq!(reused.report(), donor.report());
    assert_eq!(reused.snapshot(), donor.snapshot());
}

#[test]
fn queue_sample_follows_a_retry_and_a_drop_at_one_source_in_one_cycle() {
    // Two worms from one source wait at a failed link. At cycle 200 the
    // first expires out of retries (dropped) and the second with one
    // left (queued again): one queue shrinks and grows in one cycle.
    // The link stays down, and the retry expires at 300.
    let mesh = Mesh::new_2d(4, 4);
    let routing = mesh2d::xy();
    let pattern = Uniform::new();
    let at = |x, y| mesh.node_at_coords(&[x, y]);
    let plan = FaultPlan::new().transient_link(at(2, 0), Direction::EAST, 0, 1_000);
    let cfg = hand_fed(85)
        .packet_timeout(100)
        .max_retries(1)
        .fault_plan(plan)
        .build();
    let sim = || {
        let mut sim = Sim::new(&mesh, &routing, &pattern, cfg.clone());
        sim.inject_packet(at(0, 0), at(3, 0), 2);
        sim
    };
    let end = derived_state_changes_nothing(sim(), sim(), 400, |sim| {
        if sim.now() == 100 {
            sim.inject_packet(at(0, 0), at(3, 0), 2);
        }
    });
    let report = end.report();
    assert_eq!((report.retries, report.dropped_packets), (2, 2), "{report}");
    let dropped = end.packets().iter().map(|p| p.dropped);
    assert!(dropped.eq([Some(200), Some(300)]));
    assert_eq!(report.max_queue_len, 2, "{report}");
}

// ---- sleep rules --------------------------------------------------------
//
// A refused head is not collected again until its router releases an
// output (or its hold changes, or every offer may have); a worm blocked
// behind a waiting head is not planned again until that head is granted.
// `restore` forgets every refusal and thaws every worm, so the engine
// restored from its own snapshot before every cycle — the reference
// above — is also the one that asks every waiting head and plans from
// every occupied slot every cycle. A wake-up lost anywhere shows as a
// grant or a move that comes late, or never. (Debug builds also
// re-evaluate every sleeper and re-plan every cycle from scratch.)

#[test]
fn sleep_survives_links_and_a_node_failing_and_healing_beside_sleeping_heads() {
    let mesh = Mesh::new_2d(6, 6);
    // Every output of one central router goes down and comes back while
    // its inputs are full of sleeping heads, and so does a whole
    // neighbour — its ejection channel with it, which is what the heads
    // that have arrived there sleep on.
    let hub = mesh.node_at_coords(&[3, 3]);
    let plan = Direction::all(2)
        .enumerate()
        .fold(FaultPlan::new(), |plan, (i, dir)| {
            plan.transient_link(hub, dir, 100 + 60 * i as u64, 90)
        })
        .transient_node(mesh.node_at_coords(&[2, 3]), 150, 120);
    let cfg = saturating(51).fault_plan(plan).build();
    let pattern = Uniform::new();

    let wf = mesh2d::west_first(RoutingMode::Minimal);
    let sim = || Sim::new(&mesh, &wf, &pattern, cfg.clone());
    let end = derived_state_changes_nothing(sim(), sim(), 700, |_| {});
    assert_eq!(end.applied_fault_events(), 10);

    let dy = DoubleYAdaptive::new();
    let vc = || VcSim::new(&mesh, &dy, &pattern, cfg.clone());
    let end = derived_state_changes_nothing(vc(), vc(), 700, |_| {});
    assert_eq!(end.applied_fault_events(), 10);
}

#[test]
fn sleep_ends_when_a_hold_or_a_quarantine_is_released() {
    let mesh = Mesh::new_2d(6, 6);
    let routing = mesh2d::negative_first(RoutingMode::Minimal);
    let pattern = Uniform::new();
    let cfg = saturating(52).build();
    let at = |x, y| mesh.node_at_coords(&[x, y]);
    // A held router refuses every head at its inputs, and nothing it owns
    // is released while they sleep: only the hold's release wakes them.
    let held = [at(2, 2), at(3, 2), at(2, 3), at(3, 3)];
    let sim = || Sim::new(&mesh, &routing, &pattern, cfg.clone());
    let end = derived_state_changes_nothing(sim(), sim(), 700, |sim| match sim.now() {
        120 => sim.set_quarantine(at(2, 2), Direction::NORTH, true),
        180 => held.iter().for_each(|&v| sim.set_hold(v, true)),
        330 => held.iter().for_each(|&v| sim.set_hold(v, false)),
        400 => sim.set_quarantine(at(2, 2), Direction::NORTH, false),
        _ => {}
    });
    let through_the_hold = |p: &turnroute::sim::Packet| {
        held.contains(&p.src) && p.injected.is_some_and(|t| t >= 330) && p.delivered.is_some()
    };
    assert!(end.packets().iter().any(through_the_hold));
}

#[test]
fn sleep_is_forgotten_by_restore_from_a_different_history() {
    // `restore` takes `now` backwards: a refusal stamped at cycle 900
    // would keep the head that meets that slot at cycle 150 asleep for
    // 750 cycles, and a frozen bit would hold another worm's flits in
    // place for good.
    let mesh = Mesh::new_2d(6, 6);
    let routing = mesh2d::west_first(RoutingMode::Minimal);
    let pattern = Uniform::new();
    let cfg = saturating(53).build();
    let history = |cycles: u64| {
        let mut sim = Sim::new(&mesh, &routing, &pattern, cfg.clone());
        for _ in 0..cycles {
            sim.step();
        }
        sim
    };
    let mut donor = history(150);
    let mut reused = history(900);
    reused.restore(&donor.snapshot());
    for _ in 0..600 {
        donor.step();
        reused.step();
    }
    assert!(donor.report().delivered_flits_in_window > 1_000);
    assert_eq!(reused.report(), donor.report());
    assert_eq!(reused.snapshot(), donor.snapshot());
}

#[test]
fn sleep_ends_when_a_timeout_purges_the_worm_in_the_way() {
    // A purge frees outputs that sleepers want without any tail having
    // left them, and clears frozen slots whose next occupant must move.
    let mesh = Mesh::new_2d(6, 6);
    let routing = mesh2d::west_first(RoutingMode::Minimal);
    let pattern = Uniform::new();
    for (seed, lifetime, depth) in [(54, 60, 1), (55, 150, 1), (72, 60, 2), (73, 150, 4)] {
        let cfg = saturating(seed)
            .lengths(LengthDist::Fixed(20))
            .packet_timeout(lifetime)
            .max_retries(2)
            .buffer_depth(depth)
            .build();
        let sim = || Sim::new(&mesh, &routing, &pattern, cfg.clone());
        let end = derived_state_changes_nothing(sim(), sim(), 800, |_| {});
        let report = end.report();
        assert!(report.retries > 0 && report.dropped_packets > 0, "{report}");
    }
}

#[test]
fn sleep_under_a_misroute_budget_a_routing_delay_and_deep_buffers() {
    let mesh = Mesh::new_2d(6, 6);
    let pattern = Uniform::new();
    let minimal = mesh2d::west_first(RoutingMode::Minimal);
    let nonminimal = mesh2d::north_last(RoutingMode::Nonminimal);
    let configs = [
        // Out of budget a head's unproductive offers are withdrawn: what
        // it sleeps on differs from what the memo holds for it.
        saturating(56).misroute_budget(1).build(),
        saturating(57).misroute_budget(3).buffer_depth(2).build(),
        // A head is not asked for `routing_delay` cycles after arriving,
        // refused or not; frozen all the while.
        saturating(58).routing_delay(3).build(),
        saturating(59).routing_delay(1).buffer_depth(3).build(),
        // A frozen slot with room still takes flits from upstream.
        saturating(60).buffer_depth(2).build(),
        saturating(61).buffer_depth(4).build(),
        // Purges empty deep slots behind a routing delay.
        saturating(74)
            .routing_delay(1)
            .buffer_depth(3)
            .packet_timeout(80)
            .max_retries(1)
            .build(),
    ];
    for (i, cfg) in configs.iter().enumerate() {
        let routing = if i < 2 { &nonminimal } else { &minimal };
        let sim = || Sim::new(&mesh, routing, &pattern, cfg.clone());
        let end = derived_state_changes_nothing(sim(), sim(), 600, |_| {});
        let report = end.report();
        assert!(report.delivered_flits_in_window > 100, "{i}: {report}");
        assert!(report.queued_at_end > 0, "{i}: not saturated");
    }
}

#[test]
fn sleep_under_every_input_policy() {
    // `Random` draws once per collected head, sleepers included;
    // `PortOrder` and `Fcfs` order the heads that are awake.
    let mesh = Mesh::new_2d(6, 6);
    let routing = mesh2d::negative_first(RoutingMode::Minimal);
    let pattern = Uniform::new();
    let policies = [
        (InputPolicy::Random, OutputPolicy::Random),
        (InputPolicy::Random, OutputPolicy::LowestDim),
        (InputPolicy::PortOrder, OutputPolicy::HighestDim),
        (InputPolicy::Fcfs, OutputPolicy::Random),
    ];
    for (i, (input, output)) in policies.into_iter().enumerate() {
        let cfg = saturating(62 + i as u64)
            .input_policy(input)
            .output_policy(output)
            .build();
        let sim = || Sim::new(&mesh, &routing, &pattern, cfg.clone());
        let end = derived_state_changes_nothing(sim(), sim(), 600, |_| {});
        assert!(end.report().queued_at_end > 0, "{input:?}: not saturated");
    }
}

#[test]
fn sleep_where_lanes_share_links_and_moves_are_withdrawn() {
    // A move withdrawn because its link's one flit per cycle was spent
    // is planned again next cycle: it must never be frozen.
    let mesh = Mesh::new_2d(6, 6);
    let routing = DoubleYAdaptive::new();
    let pattern = Uniform::new();
    for (seed, depth) in [(66, 1), (67, 2), (68, 4)] {
        let cfg = saturating(seed).buffer_depth(depth).build();
        let vc = || VcSim::new(&mesh, &routing, &pattern, cfg.clone());
        let end = derived_state_changes_nothing(vc(), vc(), 600, |_| {});
        let report = end.report();
        assert!(report.delivered_flits_in_window > 500, "{report}");
        assert!(report.queued_at_end > 0, "depth {depth}: not saturated");
    }
}

#[test]
fn sleep_on_a_line_of_single_flit_packets_in_deep_buffers_under_the_sanitizer() {
    // Every flit is a head and a tail, buffers are deeper than packets
    // are long, a router has two outputs: every grant is a release. With
    // an observer attached the stall scan reads the undecided state of
    // every frozen slot, and the sanitizer's shadow buffers follow every
    // move, so the two sanitizers must have seen the same stream, and a
    // clean one: a source's next head waits for the last tail to leave
    // its injection buffer, so no channel ever holds two packets.
    let pattern = Uniform::new();
    let routing = DimensionOrder::e_cube(1);
    for (nodes, seed) in [(2, 69), (9, 70), (33, 71)] {
        let line = Mesh::new(vec![nodes]);
        let cfg = saturating(seed)
            .lengths(LengthDist::Fixed(1))
            .buffer_depth(4)
            .build();
        let sim = || {
            let sanitizer = InvariantObserver::new(ChannelLayout::for_topology(&line), 4);
            Sim::with_observer(&line, &routing, &pattern, cfg.clone(), sanitizer)
        };
        let (warm, cold) = beside_its_reference(sim(), sim(), 600, |_| {});
        let (seen, reference) = (warm.observer(), cold.observer());
        assert_eq!(seen.summary(), reference.summary());
        assert!(seen.violations().is_empty(), "{:?}", seen.violations());
        assert!(reference.violations().is_empty());
        let summary = seen.summary();
        assert_eq!(
            summary.sourced_flits,
            summary.consumed_flits + summary.in_flight_flits
        );
        assert!(summary.consumed_flits > 100, "{nodes} nodes: {summary:?}");
    }
}

// ---- work counters ------------------------------------------------------
//
// The five `Work` counters are integers the seed determines, and they say
// what the engine did, not only what it computed: a change that keeps
// every report but makes the engine visit, poll or route more (a lost
// skip, an extra wake, a wider scan) moves them. Pinned here, such a
// change fails every build deterministically.

/// The five counters, in `Work::ALL` order, over `cycles` profiled steps.
fn work_of<'a, L: Lanes<'a>>(mut sim: Engine<'a, L>, cycles: u64) -> [u64; 5] {
    let mut prof = PhaseProfiler::new();
    for _ in 0..cycles {
        sim.step_profiled(&mut prof);
    }
    Work::ALL.map(|work| prof.work(work))
}

#[test]
fn work_counters_are_pinned_on_both_adapters_at_two_loads() {
    let mesh = Mesh::new_2d(8, 8);
    let pattern = Uniform::new();
    let wf = mesh2d::west_first(RoutingMode::Minimal);
    let dy = DoubleYAdaptive::new();
    let cfg = |rate: f64, seed: u64| SimConfig::builder().injection_rate(rate).seed(seed).build();
    // head_attempts, route_computations, memo_hits, slots_visited,
    // sources_polled: `Sim` at 0.30 and 0.02, then `VcSim` at 0.30.
    let pinned = [
        (
            1,
            [
                [1_529, 1_000, 529, 128_228, 18_670],
                [150, 148, 2, 23_741, 3_002],
                [1_541, 1_060, 481, 134_566, 18_406],
            ],
        ),
        (
            5,
            [
                [1_623, 1_047, 576, 128_800, 19_080],
                [124, 122, 2, 16_653, 2_197],
                [1_873, 1_240, 633, 156_507, 21_455],
            ],
        ),
    ];
    for (seed, work) in pinned {
        let counted = [
            work_of(Sim::new(&mesh, &wf, &pattern, cfg(0.30, seed)), 2_000),
            work_of(Sim::new(&mesh, &wf, &pattern, cfg(0.02, seed)), 2_000),
            work_of(VcSim::new(&mesh, &dy, &pattern, cfg(0.30, seed)), 2_000),
        ];
        assert_eq!(counted, work, "seed {seed}");
    }
}
