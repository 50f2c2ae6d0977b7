//! The simulation engine: wormhole mechanics, arbitration, and the
//! measurement protocol — one core, instantiated per [`Lanes`] adapter.
//!
//! An [`Engine`] is a static network description, set by the constructor;
//! its simulation state, a [`SimSnapshot`], so taking a snapshot is
//! cloning it; and the [`derived`] state recomputable from that snapshot,
//! which lets each phase of a cycle — one file each — pay for what changed
//! rather than for the whole network.

mod advance;
mod arbitrate;
mod derived;
mod faults;
mod inject;
mod views;

use crate::flits::{field_wise_clone, FlitBuffers};
use crate::lanes::{Candidate, Lanes, SingleLane, MAX_LANES_PER_LINK};
use crate::obs::{Event, NoopObserver, SimObserver};
use crate::profile::{Phase, PhaseProfiler, Work};
use crate::report::BlameTotals;
use crate::{ChoiceScript, FaultEvent, Packet, SimConfig, SimReport};
use advance::Plan;
use derived::Derived;
use std::collections::VecDeque;
use std::time::Instant;
use turnroute_rng::rngs::StdRng;
use turnroute_rng::SeedableRng;
use turnroute_topology::{Direction, NodeId, Topology};
use turnroute_traffic::TrafficPattern;

/// Sentinel for "no packet" / "no channel".
const NONE_U32: u32 = u32::MAX;

/// Who resolves arbitration's two choice points — which waiting head a
/// router serves next and which free candidate output it takes. The
/// `SCRIPTED` constant is the [`NoopObserver`] `ENABLED` trick reused:
/// each stepper monomorphises to one branch.
trait Arbiter {
    /// Whether decisions come from [`Arbiter::decide`] instead of the
    /// configured input policy and the adapter's output selection.
    const SCRIPTED: bool;
    /// Resolve one `arity`-way decision.
    fn decide(&mut self, arity: usize) -> usize;
}

/// The configured policies: `cfg.input_policy` orders the heads and
/// [`Lanes::select`] picks the output.
struct Policies;

impl Arbiter for Policies {
    const SCRIPTED: bool = false;

    fn decide(&mut self, _arity: usize) -> usize {
        unreachable!("policy-driven arbitration consults no oracle")
    }
}

impl Arbiter for ChoiceScript {
    const SCRIPTED: bool = true;

    fn decide(&mut self, arity: usize) -> usize {
        ChoiceScript::decide(self, arity)
    }
}

/// Where the stepper's per-phase wall-clock spans and exact work counts
/// go.
trait SpanSink: Sized {
    /// Run one engine phase, attributing its time to `phase`. The phase
    /// is handed the sink back so it can [`count`](SpanSink::count).
    fn time<R>(&mut self, phase: Phase, f: impl FnOnce(&mut Self) -> R) -> R;
    /// Count one completed cycle.
    fn add_cycle(&mut self);
    /// Count `n` units of seed-determined `work`.
    #[inline(always)]
    fn count(&mut self, _work: Work, _n: u64) {}
}

/// No profiling: the phases run bare.
struct NoSpans;

impl SpanSink for NoSpans {
    #[inline(always)]
    fn time<R>(&mut self, _phase: Phase, f: impl FnOnce(&mut Self) -> R) -> R {
        f(self)
    }

    #[inline(always)]
    fn add_cycle(&mut self) {}
}

impl SpanSink for PhaseProfiler {
    fn time<R>(&mut self, phase: Phase, f: impl FnOnce(&mut Self) -> R) -> R {
        let start = Instant::now();
        let result = f(self);
        let nanos = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.record_nanos(phase, nanos);
        result
    }

    fn add_cycle(&mut self) {
        PhaseProfiler::add_cycle(self);
    }

    fn count(&mut self, work: Work, n: u64) {
        self.add_work(work, n);
    }
}

field_wise_clone! {
    /// An engine's simulation state, which [`Engine::snapshot`] copies
    /// out and [`Engine::restore`] copies back in.
    ///
    /// The snapshot boundary is the *simulation* state: cycle counter, RNG,
    /// channel/buffer/worm state, sources, fault and healing state, and
    /// every measurement counter the report reads. The static network
    /// description (topology, routing, config, existence tables), the
    /// derived state recomputable from the snapshot, and the attached
    /// observer are outside the boundary — restoring rewinds the network,
    /// not the telemetry already emitted about it.
    #[derive(Debug, PartialEq)]
    pub struct SimSnapshot {
        now: u64,
        rng: StdRng,

        // --- fault injection ---
        /// Next unapplied entry of the engine's compiled fault events; with
        /// an empty plan the per-cycle fault check is the single predictable
        /// branch `fault_cursor < fault_events.len()`.
        fault_cursor: usize,
        /// Per-slot failure refcount (overlapping faults compose): a
        /// channel is faulty while it is positive.
        fault_depth: Vec<u16>,
        /// Per-node failure refcount; a down router neither injects nor
        /// ejects, and all its incident channels are failed.
        node_down: Vec<u16>,
        /// Whether any fault source exists (scheduled plan or `set_fault`).
        /// Gates every hot-path `fault_depth` lookup and the adapter's
        /// degraded-mode routing so fault-free arbitration is byte-for-byte
        /// the old code path.
        faults_possible: bool,

        // --- online reconfiguration (turnheal) ---
        /// Routers whose output arbitration is paused while the healing
        /// driver re-proves a region (ejection continues; in-flight worms
        /// drain).
        held: Vec<bool>,
        /// Channels excluded from new acquisitions by a `Cyclic` verdict
        /// (escape-path-only mode); composes with faults.
        quarantined: Vec<bool>,
        /// Whether any hold or quarantine was ever set; gates the hot-path
        /// lookups exactly like `faults_possible`, so runs without a healing
        /// driver pay one predictable branch.
        healing_possible: bool,

        // --- graceful degradation ---
        /// Packet-lifetime deadlines, nondecreasing (every push uses
        /// `now + packet_timeout` and `now` is monotone), so expiry is an
        /// amortized O(1) front-pop scan.
        deadlines: VecDeque<(u64, u32)>,
        /// Retries consumed per packet.
        retry_counts: Vec<u32>,
        dropped_packets: u64,
        unroutable_packets: u64,
        total_retries: u64,

        // --- channels ---
        owner: Vec<u32>,
        /// Per-channel input buffers (FIFO, capacity `cfg.buffer_depth`;
        /// the paper's routers use depth 1). A buffer only ever holds flits
        /// of the packet owning the channel.
        buf: FlitBuffers,
        /// Output binding for each *input* channel, while a worm crosses it.
        assigned_out: Vec<u32>,
        /// Cycle the current head flit arrived in this buffer (for FCFS).
        head_since: Vec<u64>,

        // --- sources ---
        packets: Vec<Packet>,
        /// Per-packet node paths (populated when `cfg.record_paths`).
        paths: Vec<Vec<NodeId>>,
        queues: Vec<VecDeque<u32>>,
        emitting: Vec<Option<Emitting>>,
        next_arrival: Vec<f64>,

        // --- latency blame attribution (turnscope) ---
        /// Per-packet count of in-network cycles with at least one flit
        /// movement, current injection attempt only (reset on retry).
        progress_cycles: Vec<u64>,
        /// Cycle stamp deduplicating `progress_cycles` increments when
        /// several flits of one packet move in the same cycle
        /// (`u64::MAX` = no movement yet).
        last_progress: Vec<u64>,
        /// Per-packet count of progress cycles spent on non-productive
        /// (misrouted) header moves, current injection attempt only.
        misroute_progress: Vec<u64>,
        /// Whether each input channel's current output binding was granted
        /// non-productively; checked when the header leaves the channel.
        misroute_assigned: Vec<bool>,
        /// Blame totals accumulated over delivered window packets.
        blame: BlameTotals,

        // --- measurement ---
        window: (u64, u64),
        generated_packets: u64,
        generated_flits: u64,
        delivered_flits_in_window: u64,
        /// Flits that entered each channel's buffer during the measurement
        /// window (per-channel utilization).
        channel_flits: Vec<u64>,
        max_queue_len: usize,
        last_move: u64,
        deadlocked: bool,
        /// Occupied-channel cycles that advanced nothing, measurement
        /// window only.
        total_stall_cycles: u64,
    }
}

impl SimSnapshot {
    /// Whether cycle `t` is in the measurement window.
    fn in_window(&self, t: u64) -> bool {
        (self.window.0..self.window.1).contains(&t)
    }
}

/// Per-source stream state: the packet currently being pushed into the
/// injection channel and how many of its flits have been emitted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Emitting {
    packet: u32,
    sent: u32,
}

/// A wormhole network simulation in progress.
///
/// Construct with [`Engine::new`] (through the [`Sim`] alias, or
/// `turnroute_vc::VcSim`), optionally seed packets with
/// [`Engine::inject_packet`], then either call [`Engine::run`] for the
/// full warmup/measure/drain protocol or drive individual cycles with
/// [`Engine::step`].
///
/// The engine is generic over a [`Lanes`] adapter describing the network
/// (see [`crate::lanes`]) and over a [`SimObserver`] receiving flit-level
/// telemetry [`Event`]s; the default [`NoopObserver`] has `ENABLED =
/// false` and every event is built and fired behind that associated
/// constant, so an unobserved simulation compiles to the same code as if
/// there were nothing to observe. Attach collectors with
/// [`Engine::with_observer`].
pub struct Engine<'a, L: Lanes<'a>, O: SimObserver = NoopObserver> {
    // --- static network description ---
    lanes: L,
    topo: &'a dyn Topology,
    pattern: &'a dyn TrafficPattern,
    cfg: SimConfig,
    num_nodes: usize,
    lanes_per_link: usize,
    /// First injection slot; ejection slots follow.
    inj_base: usize,
    ej_base: usize,
    num_channels: usize,
    /// Whether each network slot is a real channel.
    exists: Vec<bool>,
    /// Router whose input buffer each channel feeds (ejection channels
    /// feed the local processor and carry their node here).
    input_router: Vec<u32>,
    /// Physical link of each slot, for the per-cycle bandwidth arbiter;
    /// empty unless [`Lanes::SHARED_LINKS`].
    phys_link: Vec<u32>,
    /// Time-sorted transitions compiled from the config's fault plan.
    fault_events: Vec<FaultEvent>,

    /// Everything the simulation is: a snapshot is a clone of it.
    state: SimSnapshot,
    /// What the phases walk and skip by instead of the whole network;
    /// recomputable from `state`, so outside it.
    derived: Derived,
    obs: O,

    // scratch buffers reused across cycles
    scratch_heads: Vec<u32>,
    scratch_plan: Plan,
    scratch_candidates: Vec<Candidate>,
    /// Links that already carried a flit this cycle; empty unless
    /// [`Lanes::SHARED_LINKS`].
    scratch_link_used: Vec<bool>,
}

/// The paper's simulator: one channel per physical link of any topology.
pub type Sim<'a, O = NoopObserver> = Engine<'a, SingleLane<'a>, O>;

impl<'a, L: Lanes<'a>> Engine<'a, L> {
    /// Create a simulation of `routing` on `topo` under `pattern`.
    ///
    /// # Panics
    ///
    /// Panics if the topology has fewer than 2 nodes.
    pub fn new(
        topo: &'a dyn Topology,
        routing: &'a L::Routing,
        pattern: &'a dyn TrafficPattern,
        cfg: SimConfig,
    ) -> Engine<'a, L> {
        Engine::with_observer(topo, routing, pattern, cfg, NoopObserver)
    }
}

impl<'a, L: Lanes<'a>, O: SimObserver> Engine<'a, L, O> {
    /// Like [`Engine::new`], but with `observer` attached to receive
    /// flit-level telemetry hooks (see [`crate::obs`]).
    ///
    /// # Panics
    ///
    /// Panics if the topology has fewer than 2 nodes.
    pub fn with_observer(
        topo: &'a dyn Topology,
        routing: &'a L::Routing,
        pattern: &'a dyn TrafficPattern,
        cfg: SimConfig,
        observer: O,
    ) -> Engine<'a, L, O> {
        let lanes = L::new(topo, routing);
        let num_nodes = topo.num_nodes();
        assert!(num_nodes >= 2, "need at least two nodes");
        let lanes_per_link = lanes.lanes_per_link();
        assert!(
            lanes_per_link == 1 || (L::SHARED_LINKS && lanes_per_link > 1),
            "adapter's lane count contradicts its SHARED_LINKS"
        );
        assert!(lanes_per_link <= MAX_LANES_PER_LINK, "too many lanes");
        let inj_base = topo.channel_slot_count() * lanes_per_link;
        let ej_base = inj_base + num_nodes;
        let num_channels = ej_base + num_nodes;

        // Which lanes a link carries depends only on its direction.
        let carried: Vec<bool> = Direction::all(topo.num_dims())
            .flat_map(|dir| (0..lanes_per_link).map(move |lane| (dir, lane)))
            .map(|(dir, lane)| lanes.lane_exists(dir, lane))
            .collect();
        let mut exists = vec![false; num_channels];
        let mut input_router = vec![NONE_U32; num_channels];
        let mut most_outputs = 0;
        for node in 0..num_nodes {
            let node_id = NodeId(node as u32);
            let mut outputs = 0;
            for dir in Direction::all(topo.num_dims()) {
                let Some(next) = topo.neighbor(node_id, dir) else {
                    continue;
                };
                let first = topo.channel_slot(node_id, dir) * lanes_per_link;
                for lane in 0..lanes_per_link {
                    if carried[dir.index() * lanes_per_link + lane] {
                        exists[first + lane] = true;
                        input_router[first + lane] = next.0;
                        outputs += 1;
                    }
                }
            }
            most_outputs = most_outputs.max(outputs);
            exists[inj_base + node] = true;
            input_router[inj_base + node] = node as u32;
            exists[ej_base + node] = true;
            input_router[ej_base + node] = node as u32;
        }
        // Network lanes share their link; each injection and ejection
        // channel is a link of its own.
        let network_links = inj_base / lanes_per_link;
        let num_links = if L::SHARED_LINKS {
            network_links + 2 * num_nodes
        } else {
            0
        };
        let mut phys_link: Vec<u32> = Vec::new();
        if L::SHARED_LINKS {
            phys_link.reserve_exact(num_channels);
            for link in 0..network_links as u32 {
                phys_link.extend(std::iter::repeat_n(link, lanes_per_link));
            }
            phys_link.extend(network_links as u32..num_links as u32);
        }

        let fault_events = cfg.fault_plan.events();
        let state = SimSnapshot {
            now: 0,
            rng: StdRng::seed_from_u64(cfg.seed),
            fault_cursor: 0,
            fault_depth: vec![0; num_channels],
            node_down: vec![0; num_nodes],
            faults_possible: !fault_events.is_empty(),
            held: vec![false; num_nodes],
            quarantined: vec![false; num_channels],
            healing_possible: false,
            deadlines: VecDeque::new(),
            retry_counts: Vec::new(),
            dropped_packets: 0,
            unroutable_packets: 0,
            total_retries: 0,
            buf: FlitBuffers::new(num_channels, cfg.buffer_depth as usize),
            owner: vec![NONE_U32; num_channels],
            assigned_out: vec![NONE_U32; num_channels],
            head_since: vec![0; num_channels],
            packets: Vec::new(),
            paths: Vec::new(),
            queues: vec![VecDeque::new(); num_nodes],
            emitting: vec![None; num_nodes],
            next_arrival: vec![0.0; num_nodes],
            progress_cycles: Vec::new(),
            last_progress: Vec::new(),
            misroute_progress: Vec::new(),
            misroute_assigned: vec![false; num_channels],
            blame: BlameTotals::default(),
            window: (0, u64::MAX),
            generated_packets: 0,
            generated_flits: 0,
            delivered_flits_in_window: 0,
            channel_flits: vec![0; num_channels],
            max_queue_len: 0,
            last_move: 0,
            deadlocked: false,
            total_stall_cycles: 0,
        };
        let mut sim = Engine {
            lanes,
            topo,
            pattern,
            cfg,
            num_nodes,
            lanes_per_link,
            inj_base,
            ej_base,
            num_channels,
            exists,
            input_router,
            phys_link,
            fault_events,
            state,
            derived: Derived::new(num_nodes, lanes_per_link, inj_base, most_outputs),
            obs: observer,
            scratch_heads: Vec::new(),
            scratch_plan: Plan::default(),
            scratch_candidates: Vec::new(),
            scratch_link_used: vec![false; num_links],
        };
        // Stagger first arrivals so all nodes do not fire at cycle 0.
        if sim.cfg.injection_rate > 0.0 {
            let mean = sim.mean_interarrival();
            for v in 0..num_nodes {
                sim.state.next_arrival[v] = sim.sample_exp(mean);
            }
        }
        sim
    }

    /// Set the measurement window `[start, end)` explicitly. [`Engine::run`]
    /// derives the window from the configuration; an external driver that
    /// steps the engine cycle by cycle (the healing driver) sets it once
    /// up front so [`Engine::report`] summarizes the same window `run` would.
    pub fn set_measure_window(&mut self, start: u64, end: u64) {
        self.state.window = (start, end);
    }

    /// The one phase sequence of a simulated cycle. Every public stepper
    /// is this function under a choice of arbiter (configured policies or
    /// a [`ChoiceScript`]) and span sink (a [`PhaseProfiler`] or
    /// nothing); both are zero-cost type parameters, so the plain stepper
    /// carries neither an oracle check nor timing overhead.
    fn cycle<A: Arbiter, S: SpanSink>(&mut self, arb: &mut A, spans: &mut S) {
        spans.time(Phase::Drain, |_| {
            self.apply_faults();
            self.expire_packets();
        });
        spans.time(Phase::Injection, |spans| self.generate(spans));
        spans.time(Phase::Routing, |spans| {
            self.collect_route_heads::<A, S>(spans)
        });
        spans.time(Phase::Arbitration, |spans| self.arbitrate_heads(arb, spans));
        spans.time(Phase::Traversal, |spans| self.advance(spans));
        spans.time(Phase::Injection, |spans| self.feed_injection(spans));
        spans.time(Phase::Drain, |_| self.detect_deadlock());
        #[cfg(debug_assertions)]
        self.check_derived_state();
        if O::ENABLED {
            self.fire(Event::CycleEnd);
        }
        self.state.now += 1;
        spans.add_cycle();
    }

    /// Hand `ev`, which happened this cycle, to the observer. Call sites
    /// sit behind `if O::ENABLED`, so nothing is built for a
    /// [`NoopObserver`].
    #[inline(always)]
    fn fire(&mut self, ev: Event<'_>) {
        self.obs.on_event(self.state.now, &ev);
    }

    /// Advance the simulation by one cycle.
    pub fn step(&mut self) {
        self.cycle(&mut Policies, &mut NoSpans);
    }

    /// Advance one cycle with each engine phase timed onto `prof`.
    /// Simulation behavior is [`Engine::step`]'s, byte for byte.
    pub fn step_profiled(&mut self, prof: &mut PhaseProfiler) {
        self.cycle(&mut Policies, prof);
    }

    /// Advance one cycle with every arbitration decision resolved by
    /// `script` instead of the configured input/output policies.
    ///
    /// The mechanics are [`Engine::step`]'s own; only the *selection*
    /// among waiting heads and among free candidate outputs is delegated
    /// to the oracle. `turncheck` enumerates scripts (see
    /// [`ChoiceScript::next_script`]) to cover every schedule any policy
    /// could produce; the decision points are:
    ///
    /// 1. per router, which waiting head is served next (the input-policy
    ///    axis), and
    /// 2. per served head, which free candidate output it takes (the
    ///    output-policy axis; with several lanes per link, the
    ///    lane-allocation axis as well).
    ///
    /// Heads are grouped by input router in router-index order. Same-cycle
    /// arbitrations at *distinct* routers commute — a router only reads
    /// and grants ownership of its own output channels and only writes
    /// the bindings of its own input channels — so exploring service
    /// orders within each router while fixing the router order is a sound
    /// partial-order reduction, not a loss of coverage. The shared-link
    /// bandwidth arbiter in `advance` stays deterministic (plan order): it
    /// is work-conserving and re-arbitrated from scratch every cycle, so
    /// it can delay a flit by at most the link's service of other ready
    /// flits and can never create a circular wait.
    pub fn step_with_choices(&mut self, script: &mut ChoiceScript) {
        self.cycle(script, &mut NoSpans);
    }

    /// The warmup → measure → drain protocol over [`Engine::cycle`].
    fn run_spanned<S: SpanSink>(&mut self, spans: &mut S) -> SimReport {
        let start = self.state.now;
        let measure_start = start + self.cfg.warmup_cycles;
        let measure_end = measure_start + self.cfg.measure_cycles;
        let total_end = measure_end + self.cfg.drain_cycles;
        self.state.window = (measure_start, measure_end);
        while self.state.now < total_end && !self.state.deadlocked {
            self.cycle(&mut Policies, spans);
        }
        self.report()
    }

    /// [`Engine::run`] plus a phase profile accumulated onto `prof`.
    pub fn run_profiled(&mut self, prof: &mut PhaseProfiler) -> SimReport {
        self.run_spanned(prof)
    }

    /// Run the full warmup → measure → drain protocol from the current
    /// state and summarize.
    pub fn run(&mut self) -> SimReport {
        self.run_spanned(&mut NoSpans)
    }

    /// Step until the network is empty (queues drained, no flits in
    /// flight) or `max_cycles` elapse. Returns `true` if it drained.
    pub fn run_until_idle(&mut self, max_cycles: u64) -> bool {
        let end = self.state.now + max_cycles;
        while self.state.now < end && !self.state.deadlocked {
            self.step();
            if self.is_idle() {
                return true;
            }
        }
        self.is_idle()
    }

    /// Whether no packet is queued, streaming, or in flight.
    pub fn is_idle(&self) -> bool {
        let s = &self.state;
        s.buf.occupied() == 0
            && self
                .derived
                .sources()
                .all(|v| s.queues[v].is_empty() && s.emitting[v].is_none())
    }
}

impl<'a, L: Lanes<'a>, O: SimObserver> std::fmt::Debug for Engine<'a, L, O> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("now", &self.state.now)
            .field("routing", &self.lanes.routing_name())
            .field("pattern", &self.pattern.name())
            .field("packets", &self.state.packets.len())
            .field("deadlocked", &self.state.deadlocked)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{InputPolicy, PacketBlame, PacketId};
    use turnroute_model::RoutingFunction;
    use turnroute_routing::{mesh2d, RoutingMode};
    use turnroute_topology::Mesh;
    use turnroute_traffic::Uniform;

    pub(super) fn quiet_cfg() -> SimConfig {
        SimConfig::builder()
            .injection_rate(0.0)
            .deadlock_threshold(500)
            .build()
    }

    #[test]
    fn single_packet_latency_is_distance_plus_length() {
        // One packet, no contention: the head takes one cycle per channel
        // (injection + hops + ejection) and the tail follows len-1 cycles
        // behind.
        let mesh = Mesh::new_2d(8, 8);
        let routing = mesh2d::west_first(RoutingMode::Minimal);
        let pattern = Uniform::new();
        let mut sim = Sim::new(&mesh, &routing, &pattern, quiet_cfg());
        let src = mesh.node_at_coords(&[1, 1]);
        let dst = mesh.node_at_coords(&[5, 4]); // 7 hops
        let id = sim.inject_packet(src, dst, 10);
        assert!(sim.run_until_idle(500));
        let p = sim.packets()[id.index()];
        assert_eq!(p.hops, 7);
        // The head enters the injection buffer at the end of cycle 0, is
        // consumed after 1 injection + 7 network + 1 ejection transfers
        // (cycle 9), and the tail follows 9 flit-cycles behind: cycle 18.
        assert_eq!(p.latency(), Some(18));
        assert_eq!(p.misroutes, 0);
    }

    #[test]
    fn deterministic_given_seed() {
        let mesh = Mesh::new_2d(8, 8);
        let routing = mesh2d::negative_first(RoutingMode::Minimal);
        let pattern = Uniform::new();
        let cfg = SimConfig::builder()
            .injection_rate(0.08)
            .warmup_cycles(300)
            .measure_cycles(1_000)
            .drain_cycles(1_000)
            .seed(42)
            .build();
        let r1 = Sim::new(&mesh, &routing, &pattern, cfg.clone()).run();
        let r2 = Sim::new(&mesh, &routing, &pattern, cfg).run();
        assert_eq!(r1, r2);
    }

    #[test]
    fn profiled_run_matches_plain_run_exactly() {
        let mesh = Mesh::new_2d(8, 8);
        let routing = mesh2d::west_first(RoutingMode::Minimal);
        let pattern = Uniform::new();
        let cfg = SimConfig::builder()
            .injection_rate(0.08)
            .warmup_cycles(200)
            .measure_cycles(500)
            .drain_cycles(500)
            .seed(17)
            .build();
        let plain = Sim::new(&mesh, &routing, &pattern, cfg.clone()).run();
        let mut prof = PhaseProfiler::new();
        let profiled = Sim::new(&mesh, &routing, &pattern, cfg).run_profiled(&mut prof);
        assert_eq!(plain, profiled, "profiling must not perturb simulation");
        assert_eq!(prof.cycles(), 1_200);
        assert!(prof.total_nanos() > 0);
        // Every phase ran (traversal and arbitration dominate, but even
        // drain does fault/expiry checks each cycle).
        for phase in Phase::ALL {
            assert!(prof.nanos(phase) > 0, "{} never timed", phase.name());
        }
    }

    #[test]
    fn conservation_all_packets_delivered_at_low_load() {
        let mesh = Mesh::new_2d(8, 8);
        let routing = mesh2d::west_first(RoutingMode::Minimal);
        let pattern = Uniform::new();
        let cfg = SimConfig::builder()
            .injection_rate(0.05)
            .lengths(crate::LengthDist::Fixed(10))
            .warmup_cycles(0)
            .measure_cycles(2_000)
            .drain_cycles(3_000)
            .seed(3)
            .build();
        let mut sim = Sim::new(&mesh, &routing, &pattern, cfg);
        let report = sim.run();
        assert!(!report.deadlocked);
        assert_eq!(report.delivered_packets, report.generated_packets);
        assert_eq!(report.queued_at_end, 0);
        assert!(report.generated_packets > 50, "load too low to be a test");
    }

    #[test]
    fn two_packets_contend_for_one_channel() {
        // Both packets need the same output channel; FCFS serializes them.
        let mesh = Mesh::new_2d(4, 4);
        let routing = mesh2d::xy();
        let pattern = Uniform::new();
        let mut sim = Sim::new(&mesh, &routing, &pattern, quiet_cfg());
        let a = sim.inject_packet(
            mesh.node_at_coords(&[0, 0]),
            mesh.node_at_coords(&[3, 0]),
            10,
        );
        let b = sim.inject_packet(
            mesh.node_at_coords(&[0, 0]),
            mesh.node_at_coords(&[2, 0]),
            10,
        );
        assert!(sim.run_until_idle(500));
        let (pa, pb) = (sim.packets()[a.index()], sim.packets()[b.index()]);
        // Same source: b cannot even start injecting until a's tail left
        // the injection channel.
        assert!(pb.injected.unwrap() >= pa.injected.unwrap() + 10);
        // To the cycle: b's head, refused the channel a's tail is still
        // in, sleeps, and is granted the cycle after the tail frees it —
        // as when it asked every cycle.
        assert_eq!((pa.delivered, pb.delivered), (Some(14), Some(24)));
    }

    #[test]
    fn faulty_channel_is_avoided_by_adaptive_routing() {
        let mesh = Mesh::new_2d(4, 4);
        let routing = mesh2d::west_first(RoutingMode::Minimal);
        let pattern = Uniform::new();
        let mut sim = Sim::new(&mesh, &routing, &pattern, quiet_cfg());
        let src = mesh.node_at_coords(&[0, 0]);
        let dst = mesh.node_at_coords(&[2, 2]);
        // Break the eastward channel out of the source; WF can go north.
        sim.set_fault(src, Direction::EAST);
        let id = sim.inject_packet(src, dst, 5);
        assert!(sim.run_until_idle(500));
        let p = sim.packets()[id.index()];
        assert_eq!(p.hops, 4);
        assert!(p.delivered.is_some());
    }

    #[test]
    fn held_router_pauses_and_resumes_arbitration() {
        let mesh = Mesh::new_2d(4, 4);
        let routing = mesh2d::west_first(RoutingMode::Minimal);
        let pattern = Uniform::new();
        let mut sim = Sim::new(&mesh, &routing, &pattern, quiet_cfg());
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
    fn held_source_does_not_inject() {
        let mesh = Mesh::new_2d(4, 4);
        let routing = mesh2d::xy();
        let pattern = Uniform::new();
        let mut sim = Sim::new(&mesh, &routing, &pattern, quiet_cfg());
        let src = mesh.node_at_coords(&[0, 0]);
        let dst = mesh.node_at_coords(&[2, 0]);
        sim.set_hold(src, true);
        let id = sim.inject_packet(src, dst, 2);
        assert!(!sim.run_until_idle(100), "queued packet never enters");
        assert!(sim.packets()[id.index()].injected.is_none());
        sim.set_hold(src, false);
        assert!(sim.run_until_idle(100));
        assert!(sim.packets()[id.index()].delivered.is_some());
    }

    #[test]
    fn quarantined_channel_is_avoided_like_a_fault_and_releases() {
        let mesh = Mesh::new_2d(4, 4);
        let routing = mesh2d::west_first(RoutingMode::Minimal);
        let pattern = Uniform::new();
        let mut sim = Sim::new(&mesh, &routing, &pattern, quiet_cfg());
        let src = mesh.node_at_coords(&[0, 0]);
        let dst = mesh.node_at_coords(&[2, 2]);
        sim.set_quarantine(src, Direction::EAST, true);
        assert!(sim.is_quarantined(src, Direction::EAST));
        let id = sim.inject_packet(src, dst, 5);
        assert!(sim.run_until_idle(500));
        // Same detour as the faulty-channel test: west-first goes north
        // and the quarantined channel carries nothing.
        let p = sim.packets()[id.index()];
        assert_eq!(p.hops, 4);
        assert!(p.delivered.is_some());
        assert_eq!(sim.channel_load(src, Direction::EAST), 0);
        // Released, the channel is grantable again.
        sim.set_quarantine(src, Direction::EAST, false);
        assert!(!sim.is_quarantined(src, Direction::EAST));
        let id2 = sim.inject_packet(src, mesh.node_at_coords(&[2, 0]), 5);
        assert!(sim.run_until_idle(500));
        assert!(sim.packets()[id2.index()].delivered.is_some());
        assert!(sim.channel_load(src, Direction::EAST) > 0);
    }

    #[test]
    fn is_idle_initially() {
        let mesh = Mesh::new_2d(4, 4);
        let routing = mesh2d::xy();
        let pattern = Uniform::new();
        let sim = Sim::new(&mesh, &routing, &pattern, quiet_cfg());
        assert!(sim.is_idle());
        assert_eq!(sim.now(), 0);
        assert!(!sim.deadlocked());
        let dbg = format!("{sim:?}");
        assert!(dbg.contains("xy"), "{dbg}");
    }

    #[test]
    fn channel_loads_count_path_flits() {
        // One 10-flit packet along a straight 3-hop eastward path: each
        // network channel on the path carries all 10 flits.
        let mesh = Mesh::new_2d(4, 4);
        let routing = mesh2d::xy();
        let pattern = Uniform::new();
        let mut sim = Sim::new(&mesh, &routing, &pattern, quiet_cfg());
        let src = mesh.node_at_coords(&[0, 1]);
        let dst = mesh.node_at_coords(&[3, 1]);
        sim.inject_packet(src, dst, 10);
        assert!(sim.run_until_idle(200));
        for x in 0..3u16 {
            let node = mesh.node_at_coords(&[x, 1]);
            assert_eq!(sim.channel_load(node, Direction::EAST), 10);
        }
        assert_eq!(sim.channel_load(src, Direction::NORTH), 0);
        assert_eq!(sim.max_channel_load(), 10);
        assert_eq!(sim.total_channel_flits(), 30);
    }

    #[test]
    fn fault_plan_runs_are_deterministic() {
        let mesh = Mesh::new_2d(8, 8);
        let routing = mesh2d::west_first(RoutingMode::Minimal);
        let pattern = Uniform::new();
        let plan = crate::FaultPlan::random_links(&mesh, 0.08, 200, 99).transient_node(
            NodeId(27),
            400,
            300,
        );
        let cfg = SimConfig::builder()
            .injection_rate(0.06)
            .warmup_cycles(300)
            .measure_cycles(1_500)
            .drain_cycles(1_500)
            .packet_timeout(800)
            .max_retries(1)
            .seed(7)
            .fault_plan(plan)
            .build();
        let r1 = Sim::new(&mesh, &routing, &pattern, cfg.clone()).run();
        let r2 = Sim::new(&mesh, &routing, &pattern, cfg).run();
        assert_eq!(r1, r2);
        assert!(r1.delivered_packets > 0);
    }

    #[test]
    fn transient_fault_heals_and_packet_gets_through() {
        // On a 1D line the only output toward the destination is the
        // failed link and no fallback direction exists, so the packet
        // waits at the source, the fault heals at cycle 100, and it
        // delivers.
        let mesh = Mesh::new(vec![4]);
        let routing = turnroute_routing::DimensionOrder::new("x", vec![0]);
        let pattern = Uniform::new();
        let src = mesh.node_at_coords(&[0]);
        let dst = mesh.node_at_coords(&[3]);
        let plan = crate::FaultPlan::new().transient_link(src, Direction::EAST, 0, 100);
        let cfg = SimConfig::builder()
            .injection_rate(0.0)
            .deadlock_threshold(5_000)
            .fault_plan(plan)
            .build();
        let mut sim = Sim::new(&mesh, &routing, &pattern, cfg);
        let id = sim.inject_packet(src, dst, 5);
        assert!(sim.run_until_idle(1_000));
        let p = sim.packets()[id.index()];
        assert!(p.delivered.is_some());
        assert!(p.delivered.unwrap() >= 100, "delivered before the heal");
    }

    /// Deterministic left-turner that forces the paper's Figure 1
    /// circular wait on a 2x2 mesh (used by the precedence tests).
    #[derive(Debug, Clone, Copy)]
    struct TurnLeft;

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
        ) -> turnroute_topology::DirSet {
            let left_of = |d: Direction| match d {
                Direction::EAST => Direction::NORTH,
                Direction::NORTH => Direction::WEST,
                Direction::WEST => Direction::SOUTH,
                Direction::SOUTH => Direction::EAST,
                _ => unreachable!("2D directions only"),
            };
            let productive = topo.productive_dirs(current, dest);
            if productive.len() <= 1 {
                return productive;
            }
            if let Some(arr) = arrived {
                if productive.contains(arr) {
                    return turnroute_topology::DirSet::single(arr);
                }
            }
            for d in productive.iter() {
                if productive.contains(left_of(d)) {
                    return turnroute_topology::DirSet::single(d);
                }
            }
            turnroute_topology::DirSet::single(productive.iter().next().expect("nonempty"))
        }

        fn is_minimal(&self) -> bool {
            true
        }
    }

    /// Four diagonal packets on a 2x2 mesh under [`TurnLeft`]: a
    /// guaranteed circular wait.
    fn square_deadlock_sim<'a>(
        mesh: &'a Mesh,
        routing: &'a TurnLeft,
        pattern: &'a Uniform,
        cfg: SimConfig,
    ) -> Sim<'a> {
        let mut sim = Sim::new(mesh, routing, pattern, cfg);
        let pairs = [
            ([0u16, 0], [1u16, 1]),
            ([1, 0], [0, 1]),
            ([1, 1], [0, 0]),
            ([0, 1], [1, 0]),
        ];
        for (s, d) in pairs {
            sim.inject_packet(mesh.node_at_coords(&s), mesh.node_at_coords(&d), 8);
        }
        sim
    }

    #[test]
    fn partitioned_destination_counts_as_unroutable() {
        // The destination node goes down permanently; with a lifetime and
        // no retries the packet is purged as unroutable and the run ends
        // Completed, not deadlocked.
        let mesh = Mesh::new_2d(4, 4);
        let routing = mesh2d::west_first(RoutingMode::Minimal);
        let pattern = Uniform::new();
        let dst = mesh.node_at_coords(&[3, 3]);
        let plan = crate::FaultPlan::new().permanent_node(dst, 0);
        let cfg = SimConfig::builder()
            .injection_rate(0.0)
            .warmup_cycles(0)
            .measure_cycles(400)
            .drain_cycles(400)
            .packet_timeout(200)
            .deadlock_threshold(10_000)
            .fault_plan(plan)
            .build();
        let mut sim = Sim::new(&mesh, &routing, &pattern, cfg);
        sim.inject_packet(mesh.node_at_coords(&[0, 0]), dst, 5);
        let report = sim.run();
        assert_eq!(report.termination, crate::RunTermination::Completed);
        assert!(!report.deadlocked);
        assert_eq!(report.unroutable_packets, 1);
        assert_eq!(report.dropped_packets, 0);
        assert_eq!(report.delivered_packets, 0);
        assert!(sim.is_idle(), "purge must empty the network");
    }

    #[test]
    fn timeout_below_threshold_degrades_instead_of_deadlocking() {
        // Force a circular wait, with the packet lifetime shorter than the
        // deadlock threshold: expiries purge the blocked worms and the run
        // ends Completed with the loss accounted, never tripping the
        // detector.
        let mesh = Mesh::new_2d(2, 2);
        let routing = TurnLeft;
        let pattern = Uniform::new();
        let cfg = SimConfig::builder()
            .injection_rate(0.0)
            .warmup_cycles(0)
            .measure_cycles(300)
            .drain_cycles(300)
            .packet_timeout(80)
            .deadlock_threshold(2_000)
            .build();
        let mut sim = square_deadlock_sim(&mesh, &routing, &pattern, cfg);
        let report = sim.run();
        assert_eq!(report.termination, crate::RunTermination::Completed);
        assert!(!report.deadlocked);
        assert_eq!(
            report.dropped_packets + report.delivered_packets,
            4,
            "{report}"
        );
        assert!(report.dropped_packets > 0, "{report}");
        assert!(sim.is_idle(), "expiries must have drained the network");
    }

    #[test]
    fn threshold_below_timeout_still_declares_deadlock() {
        // Same circular wait, precedence reversed: the deadlock detector
        // fires before any lifetime expires, and nothing is dropped.
        let mesh = Mesh::new_2d(2, 2);
        let routing = TurnLeft;
        let pattern = Uniform::new();
        let cfg = SimConfig::builder()
            .injection_rate(0.0)
            .warmup_cycles(0)
            .measure_cycles(300)
            .drain_cycles(300)
            .packet_timeout(2_000)
            .deadlock_threshold(80)
            .build();
        let mut sim = square_deadlock_sim(&mesh, &routing, &pattern, cfg);
        let report = sim.run();
        assert_eq!(report.termination, crate::RunTermination::Deadlock);
        assert!(report.deadlocked);
        assert_eq!(report.dropped_packets, 0);
    }

    #[test]
    fn retries_requeue_and_are_counted() {
        // Block the packet's only way out long enough to expire its first
        // lifetime; the retry re-queues it and it delivers after the heal.
        let mesh = Mesh::new_2d(4, 4);
        let routing = mesh2d::xy();
        let pattern = Uniform::new();
        let src = mesh.node_at_coords(&[0, 0]);
        let dst = mesh.node_at_coords(&[3, 0]);
        let plan = crate::FaultPlan::new().transient_link(src, Direction::EAST, 0, 300);
        let cfg = SimConfig::builder()
            .injection_rate(0.0)
            .warmup_cycles(0)
            .measure_cycles(1_000)
            .drain_cycles(1_000)
            .packet_timeout(150)
            .max_retries(5)
            .deadlock_threshold(5_000)
            .fault_plan(plan)
            .build();
        let mut sim = Sim::new(&mesh, &routing, &pattern, cfg);
        let id = sim.inject_packet(src, dst, 5);
        let report = sim.run();
        let p = sim.packets()[id.index()];
        assert!(p.delivered.is_some(), "{report}");
        assert!(report.retries >= 1, "{report}");
        assert_eq!(report.dropped_packets, 0);
    }

    #[test]
    fn down_node_does_not_inject() {
        // A down source cannot stream packets into the network; its
        // queued packet expires as unroutable.
        let mesh = Mesh::new_2d(4, 4);
        let routing = mesh2d::xy();
        let pattern = Uniform::new();
        let src = mesh.node_at_coords(&[1, 1]);
        let plan = crate::FaultPlan::new().permanent_node(src, 0);
        let cfg = SimConfig::builder()
            .injection_rate(0.0)
            .warmup_cycles(0)
            .measure_cycles(400)
            .drain_cycles(400)
            .packet_timeout(100)
            .deadlock_threshold(10_000)
            .fault_plan(plan)
            .build();
        let mut sim = Sim::new(&mesh, &routing, &pattern, cfg);
        let id = sim.inject_packet(src, mesh.node_at_coords(&[3, 3]), 5);
        let report = sim.run();
        let p = sim.packets()[id.index()];
        assert!(p.injected.is_none());
        assert!(p.dropped.is_some());
        assert_eq!(report.unroutable_packets, 1);
    }

    #[test]
    fn blame_identity_and_report_totals_match_latencies() {
        struct Blames(Vec<(PacketId, PacketBlame)>);
        impl SimObserver for Blames {
            fn on_event(&mut self, _now: u64, ev: &Event<'_>) {
                if let Event::Blame { packet, blame } = *ev {
                    self.0.push((packet, blame));
                }
            }
        }
        let mesh = Mesh::new_2d(8, 8);
        let routing = mesh2d::west_first(RoutingMode::Minimal);
        let pattern = Uniform::new();
        let cfg = SimConfig::builder()
            .injection_rate(0.20)
            .warmup_cycles(100)
            .measure_cycles(800)
            .drain_cycles(2_000)
            .seed(11)
            .build();
        let mut sim = Sim::with_observer(&mesh, &routing, &pattern, cfg, Blames(Vec::new()));
        let report = sim.run();
        assert!(report.delivered_packets > 50, "{report}");
        let blames = std::mem::take(&mut sim.observer_mut().0);
        assert!(!blames.is_empty());
        let mut window_total = 0u64;
        for &(id, blame) in &blames {
            let p = sim.packets()[id.index()];
            assert_eq!(
                blame.total(),
                p.latency().expect("blamed packets were delivered"),
                "blame identity broken for {id:?}"
            );
            if p.created >= 100 && p.created < 900 {
                window_total += blame.total();
            }
        }
        // The report's blame totals cover exactly the delivered window
        // packets, so they sum to that cohort's total latency mass.
        assert_eq!(report.blame.total(), window_total);
        assert!(report.blame.queue_cycles > 0, "{report}");
        assert!(report.blame.service_cycles > 0, "{report}");
    }

    #[test]
    #[should_panic(expected = "snapshot from a different network shape")]
    fn restore_rejects_a_snapshot_taken_at_another_buffer_depth() {
        // Same channels and nodes, shallower buffers: restored as they
        // are, the depth-2 engine would push a second flit into a buffer
        // that holds one.
        let mesh = Mesh::new_2d(4, 4);
        let routing = mesh2d::xy();
        let pattern = Uniform::new();
        let shallow = Sim::new(&mesh, &routing, &pattern, quiet_cfg());
        let cfg = SimConfig::builder()
            .injection_rate(0.0)
            .buffer_depth(2)
            .build();
        let mut deep = Sim::new(&mesh, &routing, &pattern, cfg);
        deep.restore(&shallow.snapshot());
        deep.inject_packet(NodeId(0), NodeId(15), 4);
        deep.run_until_idle(100);
    }

    #[test]
    fn saturated_run_times_out_instead_of_completing() {
        let mesh = Mesh::new_2d(8, 8);
        let routing = mesh2d::west_first(RoutingMode::Minimal);
        let pattern = Uniform::new();
        let cfg = crate::harness::saturating_config(5, 400, 10_000);
        let report = Sim::new(&mesh, &routing, &pattern, cfg).run();
        assert_eq!(report.termination, crate::RunTermination::Timeout);
        assert!(!report.deadlocked);
        assert!(report.queued_at_end > 0, "{report}");
    }

    #[test]
    #[should_panic(expected = "must leave its source")]
    fn inject_rejects_self_packet() {
        let mesh = Mesh::new_2d(4, 4);
        let routing = mesh2d::xy();
        let pattern = Uniform::new();
        let mut sim = Sim::new(&mesh, &routing, &pattern, quiet_cfg());
        let _ = sim.inject_packet(NodeId(3), NodeId(3), 5);
    }

    #[test]
    fn snapshot_restore_resumes_bit_for_bit() {
        // A plain run and a run that is snapshotted mid-flight, perturbed
        // (extra steps, an extra packet), and restored must produce the
        // same report — the snapshot boundary covers everything the
        // simulation reads.
        let mesh = Mesh::new_2d(8, 8);
        let routing = mesh2d::west_first(RoutingMode::Minimal);
        let pattern = Uniform::new();
        let cfg = SimConfig::builder()
            .injection_rate(0.08)
            .warmup_cycles(100)
            .measure_cycles(400)
            .drain_cycles(400)
            .seed(23)
            .build();
        let plain = Sim::new(&mesh, &routing, &pattern, cfg.clone()).run();
        let mut sim = Sim::new(&mesh, &routing, &pattern, cfg);
        sim.set_measure_window(100, 500);
        for _ in 0..250 {
            sim.step();
        }
        let snap = sim.snapshot();
        // Perturb: junk steps plus a junk packet, then rewind.
        sim.inject_packet(NodeId(0), NodeId(60), 7);
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
    fn scripted_step_with_empty_scripts_matches_port_order_lowest_dim() {
        // Digit 0 everywhere = serve heads in slot order, take the first
        // candidate the routing function offers. Under a deterministic
        // single-dir routing function (xy) every policy collapses to that,
        // so scripted and plain runs must agree exactly.
        let mesh = Mesh::new_2d(4, 4);
        let routing = mesh2d::xy();
        let pattern = Uniform::new();
        let cfg = SimConfig::builder()
            .injection_rate(0.0)
            .deadlock_threshold(500)
            .input_policy(InputPolicy::PortOrder)
            .build();
        let mut plain = Sim::new(&mesh, &routing, &pattern, cfg.clone());
        let mut scripted = Sim::new(&mesh, &routing, &pattern, cfg);
        for (src, dst) in [(0u32, 15u32), (5, 3), (12, 2), (9, 6)] {
            plain.inject_packet(NodeId(src), NodeId(dst), 4);
            scripted.inject_packet(NodeId(src), NodeId(dst), 4);
        }
        for _ in 0..120 {
            plain.step();
            let mut script = ChoiceScript::default();
            scripted.step_with_choices(&mut script);
        }
        assert_eq!(scripted.snapshot(), plain.snapshot());
        assert!(plain.is_idle() && scripted.is_idle());
    }

    #[test]
    fn scripted_choices_cover_both_contending_heads() {
        // Two heads meet at router (1,0) the same cycle, both needing its
        // +y output under xy routing; the script's digit decides which is
        // served first, and both winners are reachable.
        let mesh = Mesh::new_2d(4, 4);
        let routing = mesh2d::xy();
        let pattern = Uniform::new();
        let mut winners = Vec::new();
        for digit in [0u32, 1] {
            let mut sim = Sim::new(&mesh, &routing, &pattern, quiet_cfg());
            let dst = mesh.node_at_coords(&[1, 2]);
            let a = sim.inject_packet(mesh.node_at_coords(&[0, 0]), dst, 3);
            let b = sim.inject_packet(mesh.node_at_coords(&[2, 0]), dst, 3);
            // Two choice-free steps march both heads to the meeting
            // router's input buffers.
            for _ in 0..2 {
                let mut s = ChoiceScript::default();
                sim.step_with_choices(&mut s);
                assert!(s.arities().is_empty(), "premature choice point");
            }
            let mut script = ChoiceScript::new(vec![digit]);
            sim.step_with_choices(&mut script);
            assert_eq!(script.arities(), &[2], "expected one 2-way contention");
            let pa = sim.packets()[a.index()];
            let pb = sim.packets()[b.index()];
            assert_ne!(pa.hops, pb.hops, "exactly one head won the channel");
            winners.push(pa.hops > pb.hops);
        }
        assert_ne!(winners[0], winners[1], "digit did not change the winner");
    }
}
