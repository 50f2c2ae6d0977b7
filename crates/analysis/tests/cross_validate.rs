//! Cross-validation: the static CDG verdict on random turn sets must
//! agree with live simulator behavior.
//!
//! For a seeded stream of random turn-set prohibitions, each set is
//! classified statically (CDG acyclicity, coherent connectivity, no
//! adversarial dead ends) and every set the analysis clears is then run
//! through the wormhole simulator under its maximal coherent minimal
//! routing function with the invariant sanitizer attached: the run must
//! complete without tripping the deadlock detector and without a single
//! shadow-model violation. The converse direction is pinned by the
//! unrestricted turn set, whose cyclic CDG manifests as a real detected
//! deadlock under load.

use turnroute_analysis::certificate::Verdict;
use turnroute_analysis::{check, extract, find_dead_end, prove, TurnSetRouting};
use turnroute_model::{Cdg, Turn, TurnSet};
use turnroute_rng::{Rng, SeedableRng, StdRng};
use turnroute_sim::obs::{ChannelLayout, DeadlockSnapshot, Event};
use turnroute_sim::{harness, InvariantObserver, RunTermination, Sim, SimConfig, SimObserver};
use turnroute_topology::Mesh;
use turnroute_traffic::Uniform;
use turnroute_vc::{DoubleYAdaptive, VcSim};

/// Build the turn set prohibiting exactly the turns selected by `mask`
/// over the eight 90-degree turns of the 2D mesh.
fn set_from_mask(mask: u32) -> TurnSet {
    let turns = Turn::all_ninety(2);
    let mut set = TurnSet::all_ninety(2);
    for (i, &t) in turns.iter().enumerate() {
        if mask & (1 << i) != 0 {
            set.prohibit(t);
        }
    }
    set
}

#[test]
fn acyclic_and_connected_sets_never_deadlock_in_simulation() {
    let mesh = Mesh::new_2d(4, 4);
    let mut rng = StdRng::seed_from_u64(0x727a); // stable stream
    let mut sampled = Vec::new();
    while sampled.len() < 48 {
        let mask = rng.gen_range(0u32..256);
        if !sampled.contains(&mask) {
            sampled.push(mask);
        }
    }

    let mut simulated = 0usize;
    for mask in sampled {
        let set = set_from_mask(mask);
        let acyclic = Cdg::from_turn_set(&mesh, &set).is_acyclic();
        let routing = TurnSetRouting::new(format!("mask-{mask:#04x}"), set, &mesh);
        let usable = routing.fully_connected() && find_dead_end(&mesh, &routing).is_none();
        if !(acyclic && usable) {
            continue;
        }
        // The analysis cleared this set: the simulator must agree, under
        // a seed derived from the same stream.
        let cfg = SimConfig::builder()
            .injection_rate(0.15)
            .warmup_cycles(100)
            .measure_cycles(600)
            .drain_cycles(800)
            .deadlock_threshold(5_000)
            .seed(rng.gen_range(0u64..u64::MAX))
            .build();
        let obs = InvariantObserver::new(ChannelLayout::for_topology(&mesh), cfg.buffer_depth);
        let pattern = Uniform::new();
        let mut sim = Sim::with_observer(&mesh, &routing, &pattern, cfg, obs);
        let report = sim.run();
        assert!(
            !report.deadlocked,
            "statically clean set {mask:#04x} deadlocked in simulation"
        );
        assert_eq!(report.termination, RunTermination::Completed, "{mask:#04x}");
        sim.observer().assert_clean();
        assert!(report.delivered_packets > 0, "{mask:#04x}");
        simulated += 1;
    }
    // The property must not pass vacuously: the seeded stream is known
    // to contain several usable deadlock-free sets.
    assert!(
        simulated >= 3,
        "only {simulated} sets qualified; the sample is too thin to mean anything"
    );
}

#[test]
fn the_unrestricted_set_deadlocks_under_load_as_the_cdg_predicts() {
    let mesh = Mesh::new_2d(4, 4);
    let set = TurnSet::all_ninety(2);
    assert!(
        Cdg::from_turn_set(&mesh, &set).find_cycle().is_some(),
        "the unrestricted set must have a cyclic CDG"
    );
    // Its coherent function is plain minimal fully adaptive routing:
    // drive it hard and the predicted dependency cycle becomes a real
    // deadlock, while the sanitizer confirms the stuck flits are all
    // still accounted for.
    let routing = TurnSetRouting::new("unrestricted", set, &mesh);
    let cfg = SimConfig::builder()
        .injection_rate(0.9)
        .warmup_cycles(0)
        .measure_cycles(30_000)
        .drain_cycles(0)
        .deadlock_threshold(200)
        .seed(3)
        .build();
    let obs = InvariantObserver::new(ChannelLayout::for_topology(&mesh), cfg.buffer_depth);
    let pattern = Uniform::new();
    let mut sim = Sim::with_observer(&mesh, &routing, &pattern, cfg, obs);
    let report = sim.run();
    assert!(report.deadlocked, "the cyclic CDG must realize a deadlock");
    let obs = sim.observer();
    obs.assert_clean();
    assert!(
        obs.summary().in_flight_flits > 0,
        "stuck flits are conserved"
    );
}

#[test]
fn static_verdicts_are_deterministic_across_identical_streams() {
    // Same seed, same verdict sequence: the analysis layer must be as
    // reproducible as the simulator it gates.
    let mesh = Mesh::new_2d(4, 4);
    let verdicts = |seed: u64| -> Vec<(u32, bool, bool)> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..24)
            .map(|_| {
                let mask = rng.gen_range(0u32..256);
                let set = set_from_mask(mask);
                let acyclic = Cdg::from_turn_set(&mesh, &set).is_acyclic();
                let routing = TurnSetRouting::new("probe", set, &mesh);
                let usable = routing.fully_connected() && find_dead_end(&mesh, &routing).is_none();
                (mask, acyclic, usable)
            })
            .collect()
    };
    assert_eq!(verdicts(41), verdicts(41));
    assert_ne!(
        verdicts(41).iter().map(|v| v.0).collect::<Vec<_>>(),
        verdicts(42).iter().map(|v| v.0).collect::<Vec<_>>(),
        "different seeds must sample different masks"
    );
}

#[test]
fn double_y_certificate_agrees_with_the_vc_simulator() {
    // Forward direction: turnprove certifies the double-y assignment
    // acyclic over *virtual* channels (checker-validated numbering, full
    // connectivity), so the VC engine must survive saturating load.
    let mesh = Mesh::new_2d(4, 4);
    let routing = DoubleYAdaptive::new();
    let spec = extract::from_vc_routing("double-y", &mesh, &routing);
    let cert = prove::prove(&spec);
    check::check(&spec, &cert).expect("double-y certificate must check");
    assert!(cert.verdict.is_acyclic(), "double-y must be acyclic");
    assert!(cert.unreachable.is_empty(), "double-y must be connected");

    let pattern = Uniform::new();
    let cfg = harness::saturating_config(0x2b5, 8_000, 1_000);
    let report = VcSim::new(&mesh, &routing, &pattern, cfg).run();
    assert!(
        !report.deadlocked,
        "certified-acyclic double-y deadlocked under saturation"
    );
    assert!(report.delivered_packets > 0);
}

#[test]
fn planted_cyclic_vc_yields_a_witness_the_checker_accepts() {
    // Converse direction: break the double-y discipline (fully adaptive
    // on both y classes) and the prover must produce a concrete witness
    // cycle — and that witness must itself survive the independent
    // checker, or the negative control proves nothing.
    let mesh = Mesh::new_2d(4, 4);
    let spec = extract::from_vc_routing("planted", &mesh, &extract::PlantedCyclicVc);
    let cert = prove::prove(&spec);
    check::check(&spec, &cert).expect("witness certificate must check");
    let Verdict::Cyclic { cycle } = &cert.verdict else {
        panic!("planted cyclic VC assignment certified acyclic");
    };
    assert!(cycle.len() >= 2, "degenerate witness: {cycle:?}");
    // Every channel on the witness is a doubled y channel or an x channel
    // of the VC graph; rendering must name virtual directions.
    let rendered = spec.render_cycle(cycle);
    assert!(rendered.contains("channel cycle"), "{rendered}");
}

#[test]
fn planted_cyclic_vc_deadlock_fires_on_deadlock_with_a_circular_wait() {
    // The behavioral side of the negative control, on the VC adapter: the
    // planted assignment wedges under saturation, the engine fires a
    // `Deadlock` event, and the frozen waits-for graph names the worms on
    // the circular wait (the event and the snapshot are the one core's,
    // so virtual channels get them without a second implementation).
    #[derive(Default)]
    struct Wedge(Option<DeadlockSnapshot>);
    impl SimObserver for Wedge {
        fn on_event(&mut self, _now: u64, ev: &Event<'_>) {
            if let Event::Deadlock(snapshot) = ev {
                self.0 = Some((*snapshot).clone());
            }
        }
    }
    let mesh = Mesh::new_2d(8, 8);
    let pattern = Uniform::new();
    let cfg = harness::saturating_config(11, 20_000, 300);
    let mut sim = VcSim::with_observer(
        &mesh,
        &extract::PlantedCyclicVc,
        &pattern,
        cfg,
        Wedge::default(),
    );
    let report = sim.run();
    assert!(
        report.deadlocked,
        "planted cyclic VC never wedged: {report}"
    );
    let snapshot = sim.observer().0.as_ref().expect("on_deadlock fired");
    assert_eq!(snapshot.layout, sim.channel_layout());
    let cycle = snapshot.cycle_channels();
    assert!(cycle.len() >= 2, "no circular wait in {snapshot:?}");
    assert!(cycle.iter().all(|&c| c < snapshot.layout.inj_base));
}
