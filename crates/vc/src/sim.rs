//! Virtual-channel wormhole simulator: the lane adapter that instantiates
//! the one wormhole core of [`turnroute_sim`] over a network whose
//! physical links carry several virtual channels.
//!
//! The mechanics (buffers, header reservation, tail release, input
//! selection, faults, healing, snapshots, profiling) are the core's own;
//! the adapter contributes the lane structure — and with it the one
//! addition: each *physical* link transfers at most one flit per cycle,
//! shared by its virtual channels — the bandwidth cost of virtual
//! channels the paper points out ("it also reduces the bandwidths of the
//! virtual channels already sharing the physical channel").

use crate::{VcRoutingFunction, VirtualDirection};
use turnroute_sim::{Candidate, Engine, Lanes, NoopObserver, OutputPolicy, SimReport};
use turnroute_topology::{Direction, NodeId, Topology};

/// Results of a virtual-channel simulation (same shape as the base
/// simulator's report).
pub type VcSimReport = SimReport;

/// A wormhole simulation over any topology with `num_classes` virtual
/// channels per physical link: [`turnroute_sim::Engine`] over
/// [`VcLanes`].
///
/// Same [`SimConfig`](turnroute_sim::SimConfig), API, observer events and
/// snapshot type as the base simulator. Output selection takes the routing
/// function's first offered virtual channel that is free (`output_policy`
/// does not apply: the offer order *is* the function's preference). The
/// turn-level events (`Turn`, `Misroute`) are specific to physical
/// directions and are not fired.
pub type VcSim<'a, O = NoopObserver> = Engine<'a, VcLanes<'a>, O>;

/// The lane adapter of a virtual-channel network: `num_classes` lanes per
/// physical link, link-major — lane `l` of the link leaving `node` in `dir`
/// is slot `topo.channel_slot(node, dir) * num_classes + l`, which is
/// `node * per_node + vd.index_in(num_classes)`.
pub struct VcLanes<'a> {
    topo: &'a dyn Topology,
    routing: &'a dyn VcRoutingFunction,
    num_classes: usize,
    /// Slots per router, `2 · dims · num_classes`, cached so that a slot
    /// is arithmetic rather than a call into the topology.
    per_node: usize,
}

impl VcLanes<'_> {
    fn vdir_of_slot(&self, slot: usize) -> VirtualDirection {
        let vidx = slot % self.per_node;
        let dir = Direction::from_index(vidx / self.num_classes);
        VirtualDirection::of_lane(dir, vidx % self.num_classes)
    }
}

impl<'a> Lanes<'a> for VcLanes<'a> {
    const SHARED_LINKS: bool = true;
    type Routing = dyn VcRoutingFunction + 'a;

    fn new(topo: &'a dyn Topology, routing: &'a Self::Routing) -> Self {
        let num_classes = routing.num_classes();
        assert!(num_classes >= 1, "need at least one VC class");
        VcLanes {
            topo,
            routing,
            num_classes,
            per_node: 2 * topo.num_dims() * num_classes,
        }
    }

    fn routing_name(&self) -> &str {
        self.routing.name()
    }

    fn is_minimal(&self) -> bool {
        self.routing.is_minimal()
    }

    fn lanes_per_link(&self) -> usize {
        self.num_classes
    }

    fn lane_exists(&self, dir: Direction, lane: usize) -> bool {
        self.routing
            .channel_exists(VirtualDirection::of_lane(dir, lane))
    }

    fn turn_dir(&self, slot: usize) -> Option<Direction> {
        Some(self.vdir_of_slot(slot).dir())
    }

    // Unusable channels are simply skipped: removing outputs from a VC
    // assignment never adds edges to its virtual-channel dependency graph,
    // so deadlock freedom survives any fault pattern; packets with every
    // offered channel down wait for the packet timeout.
    fn candidates(
        &self,
        at: NodeId,
        dst: NodeId,
        arrived: Option<usize>,
        _faults_possible: bool,
        usable: impl Fn(usize) -> bool,
        out: &mut Vec<Candidate>,
    ) {
        let arrived = arrived.map(|slot| self.vdir_of_slot(slot));
        for vd in self.routing.route(self.topo, at, dst, arrived) {
            debug_assert!(
                self.routing.channel_exists(vd) && self.topo.neighbor(at, vd.dir()).is_some(),
                "offered channel must exist"
            );
            let slot = at.index() * self.per_node + vd.index_in(self.num_classes);
            debug_assert_eq!(
                slot,
                self.topo.channel_slot(at, vd.dir()) * self.num_classes + vd.class().index()
            );
            if usable(slot) {
                out.push(Candidate {
                    dir: vd.dir(),
                    slot,
                    productive: true,
                });
            }
        }
    }

    fn select(&self, candidates: &[Candidate], _policy: OutputPolicy) -> Option<Candidate> {
        candidates.first().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DoubleYAdaptive, TableVcRouting};
    use turnroute_model::{Cdg, RoutingFunction};
    use turnroute_obslog::LogObserver;
    use turnroute_routing::{mesh2d, RoutingMode};
    use turnroute_sim::obs::ChannelLayout;
    use turnroute_sim::{
        ChoiceScript, InputPolicy, LengthDist, Phase, PhaseProfiler, RunTermination, Sim, SimConfig,
    };
    use turnroute_topology::Mesh;
    use turnroute_traffic::{MeshTranspose, Uniform};

    fn quiet_cfg() -> SimConfig {
        SimConfig::builder()
            .injection_rate(0.0)
            .deadlock_threshold(500)
            .build()
    }

    #[test]
    fn single_packet_latency_matches_base_model() {
        let mesh = Mesh::new_2d(8, 8);
        let alg = DoubleYAdaptive::new();
        let pattern = Uniform::new();
        let mut sim = VcSim::new(&mesh, &alg, &pattern, quiet_cfg());
        let src = mesh.node_at_coords(&[1, 1]);
        let dst = mesh.node_at_coords(&[5, 4]);
        let id = sim.inject_packet(src, dst, 10);
        assert!(sim.run_until_idle(500));
        let p = sim.packets()[id.index()];
        assert_eq!(p.hops, 7);
        // Identical pipeline to the base sim: head consumed at cycle 9,
        // tail 9 flit-cycles later.
        assert_eq!(p.latency(), Some(18));
    }

    #[test]
    fn delivers_uniform_traffic_without_deadlock() {
        let mesh = Mesh::new_2d(8, 8);
        let alg = DoubleYAdaptive::new();
        let pattern = Uniform::new();
        let cfg = SimConfig::builder()
            .injection_rate(0.05)
            .lengths(LengthDist::Fixed(8))
            .warmup_cycles(500)
            .measure_cycles(3_000)
            .drain_cycles(4_000)
            .seed(2)
            .build();
        let report = VcSim::new(&mesh, &alg, &pattern, cfg).run();
        assert!(!report.deadlocked);
        assert!(report.delivered_fraction() > 0.99);
        assert!(report.generated_packets > 100);
    }

    #[test]
    fn oversaturation_does_not_deadlock() {
        let mesh = Mesh::new_2d(8, 8);
        let alg = DoubleYAdaptive::new();
        let pattern = MeshTranspose::new();
        let cfg = SimConfig::builder()
            .injection_rate(0.8)
            .warmup_cycles(0)
            .measure_cycles(6_000)
            .drain_cycles(0)
            .deadlock_threshold(2_000)
            .seed(3)
            .build();
        let report = VcSim::new(&mesh, &alg, &pattern, cfg).run();
        assert!(!report.deadlocked);
        assert!(report.delivered_flits_in_window > 0);
    }

    #[test]
    fn physical_link_bandwidth_is_shared() {
        // Two packets heading north through the same physical link on
        // different virtual channels: total time must reflect one
        // flit/cycle of shared bandwidth, not two.
        let mesh = Mesh::new_2d(4, 4);
        let alg = DoubleYAdaptive::new();
        let pattern = Uniform::new();
        let mut sim = VcSim::new(&mesh, &alg, &pattern, quiet_cfg());
        // Packet A: pure vertical (uses y2). Packet B: west-then-north at
        // the same column (uses y1 while westbound... it starts at the
        // column, so it is pure vertical too — give it a west leg first).
        let a = sim.inject_packet(
            mesh.node_at_coords(&[1, 0]),
            mesh.node_at_coords(&[1, 3]),
            20,
        );
        let b = sim.inject_packet(
            mesh.node_at_coords(&[2, 0]),
            mesh.node_at_coords(&[1, 3]),
            20,
        );
        assert!(sim.run_until_idle(1_000));
        let (pa, pb) = (sim.packets()[a.index()], sim.packets()[b.index()]);
        // Both traverse the column-1 northward links; with one flit per
        // cycle per physical link their tails must be >= 20 cycles apart
        // (they also share the ejection channel).
        let (da, db) = (pa.delivered.unwrap(), pb.delivered.unwrap());
        assert!(da.abs_diff(db) >= 20, "physical bandwidth not shared");
    }

    #[test]
    fn deterministic_given_seed() {
        let mesh = Mesh::new_2d(8, 8);
        let alg = DoubleYAdaptive::new();
        let pattern = Uniform::new();
        let cfg = SimConfig::builder()
            .injection_rate(0.06)
            .warmup_cycles(200)
            .measure_cycles(1_000)
            .drain_cycles(1_000)
            .seed(42)
            .build();
        let r1 = VcSim::new(&mesh, &alg, &pattern, cfg.clone()).run();
        let r2 = VcSim::new(&mesh, &alg, &pattern, cfg).run();
        assert_eq!(r1, r2);
    }

    #[test]
    fn fault_plan_runs_are_deterministic() {
        let mesh = Mesh::new_2d(8, 8);
        let alg = DoubleYAdaptive::new();
        let pattern = Uniform::new();
        let plan = turnroute_sim::FaultPlan::random_links(&mesh, 0.05, 300, 11).transient_node(
            NodeId(19),
            500,
            400,
        );
        let cfg = SimConfig::builder()
            .injection_rate(0.05)
            .warmup_cycles(200)
            .measure_cycles(1_500)
            .drain_cycles(1_500)
            .packet_timeout(900)
            .max_retries(1)
            .seed(21)
            .fault_plan(plan)
            .build();
        let r1 = VcSim::new(&mesh, &alg, &pattern, cfg.clone()).run();
        let r2 = VcSim::new(&mesh, &alg, &pattern, cfg).run();
        assert_eq!(r1, r2);
        assert!(r1.delivered_packets > 0);
    }

    #[test]
    fn faulty_link_is_routed_around() {
        // Double-y is adaptive in x until aligned: with the eastward link
        // out of the source down, the packet detours via the row above.
        let mesh = Mesh::new_2d(4, 4);
        let alg = DoubleYAdaptive::new();
        let pattern = Uniform::new();
        let src = mesh.node_at_coords(&[0, 0]);
        let dst = mesh.node_at_coords(&[2, 2]);
        let plan = turnroute_sim::FaultPlan::new().permanent_link(src, Direction::EAST, 0);
        let cfg = SimConfig::builder()
            .injection_rate(0.0)
            .deadlock_threshold(500)
            .fault_plan(plan)
            .build();
        let mut sim = VcSim::new(&mesh, &alg, &pattern, cfg);
        let id = sim.inject_packet(src, dst, 5);
        assert!(sim.run_until_idle(500));
        let p = sim.packets()[id.index()];
        assert!(p.delivered.is_some());
        assert_eq!(p.hops, 4, "minimal detour north-then-east");
    }

    #[test]
    fn invariant_sanitizer_stays_clean_under_load_faults_and_retries() {
        use turnroute_sim::InvariantObserver;
        let mesh = Mesh::new_2d(6, 6);
        let alg = DoubleYAdaptive::new();
        let pattern = MeshTranspose::new();
        let plan = turnroute_sim::FaultPlan::new()
            .transient_link(NodeId(10), Direction::NORTH, 200, 300)
            .transient_node(NodeId(21), 500, 200);
        let cfg = SimConfig::builder()
            .injection_rate(0.3)
            .warmup_cycles(200)
            .measure_cycles(1_500)
            .drain_cycles(1_000)
            .packet_timeout(600)
            .max_retries(1)
            .deadlock_threshold(5_000)
            .seed(9)
            .fault_plan(plan)
            .build();
        let layout = ChannelLayout::new(mesh.num_nodes(), 4);
        let obs = InvariantObserver::new(layout, cfg.buffer_depth);
        let mut sim = VcSim::with_observer(&mesh, &alg, &pattern, cfg, obs);
        assert_eq!(sim.channel_layout(), layout);
        let report = sim.run();
        assert!(!report.deadlocked);
        let obs = sim.observer();
        obs.assert_clean();
        let s = obs.summary();
        assert!(s.sourced_flits > 0 && s.consumed_flits > 0);
    }

    #[test]
    fn depth_two_run_is_sanitizer_clean() {
        // Every node sends one 20-flit packet to its transpose at once:
        // worms collide and compress into the depth-2 buffers, and the
        // shadow model — built from the configured depth — sees neither an
        // overfull buffer nor a lost flit. (One packet per source: at
        // depth > 1 the engine lets a queued packet's head into an
        // injection buffer still holding the previous tail, which the
        // sanitizer rightly flags; see ROADMAP.)
        use turnroute_sim::InvariantObserver;
        let mesh = Mesh::new_2d(6, 6);
        let alg = DoubleYAdaptive::new();
        let pattern = Uniform::new();
        let cfg = SimConfig::builder()
            .injection_rate(0.0)
            .deadlock_threshold(500)
            .buffer_depth(2)
            .build();
        let obs = InvariantObserver::new(ChannelLayout::new(36, 4), cfg.buffer_depth);
        let mut sim = VcSim::with_observer(&mesh, &alg, &pattern, cfg, obs);
        let mut sent = 0;
        for x in 0..6u16 {
            for y in (0..6u16).filter(|&y| y != x) {
                let (src, dst) = (mesh.node_at_coords(&[x, y]), mesh.node_at_coords(&[y, x]));
                sim.inject_packet(src, dst, 20);
                sent += 1;
            }
        }
        assert!(sim.run_until_idle(5_000));
        let obs = sim.observer();
        obs.assert_clean();
        assert_eq!(obs.summary().consumed_flits, sent * 20);
    }

    #[test]
    fn deeper_vc_buffers_are_used() {
        // A blocked worm compresses into its held channels: behind a held
        // router, a 6-flit packet three hops out fits entirely into depth-2
        // buffers (injection + 2 network channels), but not into depth 1.
        let mesh = Mesh::new_2d(4, 4);
        let alg = DoubleYAdaptive::new();
        let pattern = Uniform::new();
        let mut queued_flits = Vec::new();
        for depth in [1u32, 2] {
            let cfg = SimConfig::builder()
                .injection_rate(0.0)
                .deadlock_threshold(500)
                .buffer_depth(depth)
                .build();
            let mut sim = VcSim::new(&mesh, &alg, &pattern, cfg);
            sim.set_hold(mesh.node_at_coords(&[2, 0]), true);
            sim.inject_packet(
                mesh.node_at_coords(&[0, 0]),
                mesh.node_at_coords(&[3, 0]),
                6,
            );
            for _ in 0..50 {
                sim.step();
            }
            let flits: usize = (0..sim.num_slots())
                .map(|s| sim.slot_flits(s).count())
                .sum();
            queued_flits.push(flits);
        }
        assert_eq!(queued_flits, [3, 6]);
    }

    #[test]
    fn routing_delay_adds_per_hop_latency() {
        // As in the base adapter's edge-case test: one extra cycle of
        // route selection per router adds hops + 1 cycles (every router
        // the header is routed at, ejection binding included).
        let mesh = Mesh::new_2d(8, 8);
        let alg = DoubleYAdaptive::new();
        let pattern = Uniform::new();
        let mut base = None;
        for delay in [0u64, 1, 2] {
            let cfg = SimConfig::builder()
                .injection_rate(0.0)
                .routing_delay(delay)
                .build();
            let mut sim = VcSim::new(&mesh, &alg, &pattern, cfg);
            let id = sim.inject_packet(NodeId(0), NodeId(7), 10); // 7 hops
            assert!(sim.run_until_idle(500));
            let latency = sim.packets()[id.index()].latency().unwrap();
            match base {
                None => base = Some(latency),
                Some(b) => assert_eq!(latency, b + delay * 8, "delay {delay}"),
            }
        }
    }

    #[test]
    fn input_policy_is_honoured() {
        // Under contention the service order decides who waits, so the
        // three input policies must produce three different runs (they
        // were one and the same while the VC engine ignored the field).
        let mesh = Mesh::new_2d(8, 8);
        let alg = DoubleYAdaptive::new();
        let pattern = Uniform::new();
        let run = |policy| {
            let cfg = SimConfig::builder()
                .injection_rate(0.25)
                .warmup_cycles(200)
                .measure_cycles(1_500)
                .drain_cycles(500)
                .input_policy(policy)
                .seed(5)
                .build();
            VcSim::new(&mesh, &alg, &pattern, cfg).run()
        };
        let fcfs = run(InputPolicy::Fcfs);
        let port = run(InputPolicy::PortOrder);
        let random = run(InputPolicy::Random);
        assert!(fcfs.delivered_packets > 100, "{fcfs}");
        assert_ne!(fcfs, port);
        assert_ne!(fcfs, random);
        assert_ne!(port, random);
    }

    #[test]
    fn held_router_pauses_and_resumes_arbitration() {
        let mesh = Mesh::new_2d(4, 4);
        let alg = DoubleYAdaptive::new();
        let pattern = Uniform::new();
        let mut sim = VcSim::new(&mesh, &alg, &pattern, quiet_cfg());
        let src = mesh.node_at_coords(&[0, 0]);
        let mid = mesh.node_at_coords(&[1, 0]);
        let dst = mesh.node_at_coords(&[3, 0]);
        sim.set_hold(mid, true);
        let id = sim.inject_packet(src, dst, 3);
        // The head reaches the held router and waits there; nothing is
        // granted past it, so the network never goes idle.
        assert!(!sim.run_until_idle(100));
        assert!(sim.packets()[id.index()].delivered.is_none());
        sim.set_hold(mid, false);
        assert!(sim.run_until_idle(200));
        assert!(sim.packets()[id.index()].delivered.is_some());
    }

    #[test]
    fn quarantined_link_is_avoided_like_a_fault_and_releases() {
        let mesh = Mesh::new_2d(4, 4);
        let alg = DoubleYAdaptive::new();
        let pattern = Uniform::new();
        let mut sim = VcSim::new(&mesh, &alg, &pattern, quiet_cfg());
        let src = mesh.node_at_coords(&[0, 0]);
        let dst = mesh.node_at_coords(&[2, 2]);
        sim.set_quarantine(src, Direction::EAST, true);
        assert!(sim.is_quarantined(src, Direction::EAST));
        let id = sim.inject_packet(src, dst, 5);
        assert!(sim.run_until_idle(500));
        // Same detour as the faulty-link test: double-y goes north first
        // and the quarantined link (every lane of it) carries nothing.
        let p = sim.packets()[id.index()];
        assert_eq!(p.hops, 4);
        assert!(p.delivered.is_some());
        assert_eq!(sim.channel_load(src, Direction::EAST), 0);
        // Released, the link is grantable again.
        sim.set_quarantine(src, Direction::EAST, false);
        assert!(!sim.is_quarantined(src, Direction::EAST));
        let id2 = sim.inject_packet(src, mesh.node_at_coords(&[2, 0]), 5);
        assert!(sim.run_until_idle(500));
        assert!(sim.packets()[id2.index()].delivered.is_some());
        assert!(sim.channel_load(src, Direction::EAST) > 0);
    }

    #[test]
    fn profiled_run_matches_plain_run_exactly() {
        let mesh = Mesh::new_2d(8, 8);
        let alg = DoubleYAdaptive::new();
        let pattern = Uniform::new();
        let cfg = SimConfig::builder()
            .injection_rate(0.08)
            .warmup_cycles(200)
            .measure_cycles(500)
            .drain_cycles(500)
            .seed(17)
            .build();
        let plain = VcSim::new(&mesh, &alg, &pattern, cfg.clone()).run();
        let mut prof = PhaseProfiler::new();
        let profiled = VcSim::new(&mesh, &alg, &pattern, cfg).run_profiled(&mut prof);
        assert_eq!(plain, profiled, "profiling must not perturb simulation");
        assert_eq!(prof.cycles(), 1_200);
        for phase in Phase::ALL {
            assert!(prof.nanos(phase) > 0, "{} never timed", phase.name());
        }
    }

    /// `routing` tabulated as a one-class VC function: its lowering, each
    /// state offering the same physical directions in `DirSet` (ascending
    /// index) order.
    fn one_class_table(mesh: &Mesh, routing: &dyn RoutingFunction) -> TableVcRouting {
        let lowered = Cdg::lower(mesh, routing, true);
        let channels = lowered.channels.iter().map(|ch| (ch.src, ch.dst, 0));
        let (name, minimal) = (routing.name(), routing.is_minimal());
        TableVcRouting::new(name, mesh, 1, minimal, channels, lowered.routes)
    }

    #[test]
    fn one_lane_vc_run_equals_the_base_simulator() {
        // The two adapters over one core, differentially: with one lane
        // per link the bandwidth arbiter never bites and "first free
        // offered" in ascending direction order is lowest-dimension output
        // selection, so reports and packet records agree exactly.
        let mesh = Mesh::new_2d(8, 8);
        let pattern = Uniform::new();
        let algorithms: [Box<dyn RoutingFunction>; 2] = [
            Box::new(mesh2d::xy()),
            Box::new(mesh2d::west_first(RoutingMode::Minimal)),
        ];
        for routing in &algorithms {
            let table = one_class_table(&mesh, routing.as_ref());
            for rate in [0.05, 0.30] {
                for seed in [1u64, 2, 3] {
                    let cfg = SimConfig::builder()
                        .injection_rate(rate)
                        .warmup_cycles(200)
                        .measure_cycles(1_000)
                        .drain_cycles(500)
                        .seed(seed)
                        .build();
                    let record = |engine| {
                        LogObserver::start(&mesh, routing.as_ref(), &pattern, &cfg, engine)
                    };
                    let (base_log, vc_log) = (record("sim"), record("vc"));
                    let header_len = (base_log.byte_len(), vc_log.byte_len());
                    let mut base = Sim::with_observer(
                        &mesh,
                        routing.as_ref(),
                        &pattern,
                        cfg.clone(),
                        base_log,
                    );
                    let mut vc = VcSim::with_observer(&mesh, &table, &pattern, cfg, vc_log);
                    let what = format!("{} rate {rate} seed {seed}", routing.name());
                    assert_eq!(base.run(), vc.run(), "{what}");
                    assert_eq!(base.packets(), vc.packets(), "{what}");
                    assert!(base.packets().len() > 20, "{what}: no load");
                    // The same hook stream, turns included: the TTRL
                    // bodies agree up to the checksum, which also covers
                    // the header naming the engine.
                    let (base_log, vc_log) =
                        (base.into_observer().finish(), vc.into_observer().finish());
                    let body = |log: &[u8], at: usize| log[at..log.len() - 8].to_vec();
                    assert!(
                        body(&base_log, header_len.0) == body(&vc_log, header_len.1),
                        "{what}: the recorded event streams differ"
                    );
                }
            }
        }
    }

    /// The lowered table answers only the states the dependency analysis
    /// walks (every injection, every productive arrival): a minimal
    /// relation's packets reach no others, so the engine runs the table
    /// exactly as it runs the function. This is what lets
    /// `table::tests::snapshot_routes_identically_to_double_y` compare
    /// those states only.
    #[test]
    fn the_engine_cannot_tell_double_y_from_its_table() {
        let mesh = Mesh::new_2d(8, 8);
        let pattern = Uniform::new();
        let dy = DoubleYAdaptive::new();
        let table = TableVcRouting::from_function(&mesh, &dy);
        for rate in [0.05, 0.30] {
            for seed in [1u64, 2, 3] {
                let cfg = SimConfig::builder()
                    .injection_rate(rate)
                    .warmup_cycles(200)
                    .measure_cycles(1_000)
                    .drain_cycles(500)
                    .seed(seed)
                    .build();
                let mut direct = VcSim::new(&mesh, &dy, &pattern, cfg.clone());
                let mut tabulated = VcSim::new(&mesh, &table, &pattern, cfg);
                let what = format!("rate {rate} seed {seed}");
                assert_eq!(direct.run(), tabulated.run(), "{what}");
                assert_eq!(direct.packets(), tabulated.packets(), "{what}");
                assert!(direct.packets().len() > 20, "{what}: no load");
            }
        }
    }

    #[test]
    fn snapshot_restore_resumes_bit_for_bit() {
        let mesh = Mesh::new_2d(6, 6);
        let alg = DoubleYAdaptive::new();
        let pattern = Uniform::new();
        let cfg = SimConfig::builder()
            .injection_rate(0.06)
            .warmup_cycles(100)
            .measure_cycles(400)
            .drain_cycles(400)
            .seed(31)
            .build();
        let plain = VcSim::new(&mesh, &alg, &pattern, cfg.clone()).run();
        let mut sim = VcSim::new(&mesh, &alg, &pattern, cfg);
        sim.set_measure_window(100, 500);
        for _ in 0..250 {
            sim.step();
        }
        let snap = sim.snapshot();
        sim.inject_packet(NodeId(0), NodeId(35), 7);
        for _ in 0..40 {
            sim.step();
        }
        sim.restore(&snap);
        assert_eq!(sim.snapshot(), snap, "restore is lossless");
        while sim.now() < 900 && !sim.deadlocked() {
            sim.step();
        }
        assert_eq!(sim.report(), plain, "restored run diverged");
    }

    #[test]
    fn scripted_step_explores_the_free_vc_choice() {
        // A head offered two free virtual channels (the adaptive
        // east-or-north choice): digit 0 takes the first, digit 1 the
        // second — distinct owners result.
        let mesh = Mesh::new_2d(4, 4);
        let alg = DoubleYAdaptive::new();
        let pattern = Uniform::new();
        let mut owners = Vec::new();
        for digit in [0u32, 1] {
            let mut sim = VcSim::new(&mesh, &alg, &pattern, quiet_cfg());
            sim.inject_packet(
                mesh.node_at_coords(&[0, 0]),
                mesh.node_at_coords(&[2, 2]),
                3,
            );
            {
                let mut s = ChoiceScript::default();
                sim.step_with_choices(&mut s); // head enters injection buffer
            }
            let mut script = ChoiceScript::new(vec![digit]);
            sim.step_with_choices(&mut script);
            let chosen: Vec<usize> = (0..sim.num_slots())
                .filter(|&s| s < sim.channel_layout().inj_base && sim.slot_owner(s).is_some())
                .collect();
            assert_eq!(chosen.len(), 1, "exactly one network VC acquired");
            assert!(
                !script.arities().is_empty(),
                "two free VCs must be a choice point"
            );
            owners.push(chosen[0]);
        }
        assert_ne!(owners[0], owners[1], "digit did not change the VC pick");
    }

    #[test]
    fn down_destination_degrades_to_unroutable_drop() {
        let mesh = Mesh::new_2d(4, 4);
        let alg = DoubleYAdaptive::new();
        let pattern = Uniform::new();
        let dst = mesh.node_at_coords(&[3, 3]);
        let plan = turnroute_sim::FaultPlan::new().permanent_node(dst, 0);
        let cfg = SimConfig::builder()
            .injection_rate(0.0)
            .warmup_cycles(0)
            .measure_cycles(400)
            .drain_cycles(400)
            .packet_timeout(200)
            .deadlock_threshold(10_000)
            .fault_plan(plan)
            .build();
        let mut sim = VcSim::new(&mesh, &alg, &pattern, cfg);
        sim.inject_packet(mesh.node_at_coords(&[0, 0]), dst, 5);
        let report = sim.run();
        assert_eq!(report.termination, RunTermination::Completed);
        assert_eq!(report.unroutable_packets, 1);
        assert_eq!(report.delivered_packets, 0);
        assert!(sim.is_idle(), "purge must empty the network");
    }
}
