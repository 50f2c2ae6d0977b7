//! The simulation engine: wormhole mechanics, arbitration, and the
//! measurement protocol — one core, instantiated per [`Lanes`] adapter.

use crate::flits::{BufFlit, FlitBuffers, Ones, WORD_BITS};
use crate::lanes::{Candidate, Lanes, SingleLane, MAX_LANES_PER_LINK};
use crate::obs::{
    ChannelLayout, DeadlockSnapshot, Event, NoopObserver, PacketBlame, SimObserver, StallReason,
    StreamingHistogram, WaitEdge,
};
use crate::profile::{Phase, PhaseProfiler, Work};
use crate::report::BlameTotals;
use crate::{
    ChoiceScript, FaultTarget, InputPolicy, LengthDist, OutputPolicy, Packet, PacketId,
    RunTermination, SimConfig, SimReport,
};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::ops::Range;
use std::time::Instant;
use turnroute_model::Turn;
use turnroute_rng::rngs::StdRng;
use turnroute_rng::{Rng, SeedableRng};
use turnroute_topology::{Direction, NodeId, Topology};
use turnroute_traffic::TrafficPattern;

/// Sentinel for "no packet" / "no channel".
const NONE_U32: u32 = u32::MAX;

/// Route-memo entry layout: the output slot in the low 31 bits, the
/// productive bit on top. [`NONE_U32`] ends an offer shorter than the
/// memo's stride.
const MEMO_PRODUCTIVE: u32 = 1 << 31;

/// `advance`'s verdict on whether a channel's front flit moves this
/// cycle: not asked yet, being asked (on the search stack), yes, no.
const UNKNOWN: u8 = 0;
const IN_PROGRESS: u8 = 1;
const YES: u8 = 2;
const NO: u8 = 3;

/// The channels `advance` need not plan from: those whose front flit
/// cannot move until arbitration grants their worm's head an output. A
/// slot is *frozen* when the planner finds its front flit unassigned, or
/// bound to a full slot that is itself frozen — so the frozen slots of a
/// worm are a suffix of it ending at its waiting head, and a grant there
/// thaws them by walking `feeder` upstream while the bits are set.
#[derive(Default)]
struct Frozen {
    /// One bit per channel; empty until the first freeze.
    bits: Vec<u32>,
    /// Per channel `o`, the slot that froze bound to it. Written only
    /// then, so an entry may be stale: [`Frozen::thaw`] follows it only
    /// while the engine's binding table agrees.
    feeder: Vec<u32>,
}

impl Frozen {
    /// The members among channels `w * WORD_BITS..`, as a mask.
    #[inline]
    fn word(&self, w: usize) -> u32 {
        self.bits.get(w).copied().unwrap_or(0)
    }

    #[inline]
    fn contains(&self, c: usize) -> bool {
        self.word(c / WORD_BITS) & (1 << (c % WORD_BITS)) != 0
    }

    /// Freeze `c`, one of `channels`, whose front flit is unassigned or
    /// (`bound_to`) waits on that full, frozen slot.
    fn freeze(&mut self, c: usize, bound_to: Option<usize>, channels: usize) {
        if self.bits.is_empty() {
            self.bits.resize(channels.div_ceil(WORD_BITS), 0);
            self.feeder.resize(channels, NONE_U32);
        }
        self.bits[c / WORD_BITS] |= 1 << (c % WORD_BITS);
        if let Some(o) = bound_to {
            self.feeder[o] = c as u32;
        }
    }

    /// Thaw `c` alone (its worm is being purged).
    #[inline]
    fn remove(&mut self, c: usize) {
        if let Some(word) = self.bits.get_mut(c / WORD_BITS) {
            *word &= !(1 << (c % WORD_BITS));
        }
    }

    /// The head waiting at `c` was granted an output: thaw its worm, from
    /// `c` upstream along the bindings in `assigned_out`, up to the first
    /// slot that is not frozen.
    #[inline]
    fn thaw(&mut self, mut c: usize, assigned_out: &[u32]) {
        while self.contains(c) {
            self.remove(c);
            let up = self.feeder[c] as usize;
            if assigned_out.get(up) != Some(&(c as u32)) {
                break;
            }
            c = up;
        }
    }

    /// Thaw everything.
    fn clear(&mut self) {
        self.bits.clear();
    }
}

/// Per-source stream state: the packet currently being pushed into the
/// injection channel and how many of its flits have been emitted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Emitting {
    packet: u32,
    sent: u32,
}

/// What arbitration can do for the head flit waiting at one input
/// channel, before contention is considered: bind the ejection channel,
/// wait out a healing hold, or choose among the candidate outputs.
/// Shared by [`try_assign`](Engine::try_assign) under either arbiter and
/// the deadlock snapshot's wanted-output reconstruction, so all see
/// byte-identical routing semantics.
enum RouteDecision {
    /// Destination reached: bind this ejection slot (if free).
    Eject(usize),
    /// The input router is held by the healing driver; grant nothing.
    Hold,
    /// The caller's candidate list now holds the adapter's raw offer for
    /// this head — every existing, healthy output, in offer order —
    /// before the misroute-budget and free-channel filters.
    Offer {
        /// Whether the offer was read back from the route memo instead
        /// of computed.
        memoised: bool,
        /// Out of misroute budget: a nonminimal function's unproductive
        /// offers are withdrawn while any productive one remains.
        productive_only: bool,
    },
}

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

/// A complete copy of one engine's mutable state, produced by
/// [`Engine::snapshot`] and consumed by [`Engine::restore`].
///
/// The snapshot boundary is the *simulation* state: cycle counter, RNG,
/// channel/buffer/worm state, sources, fault and healing state, and every
/// measurement counter the report reads. The static network description
/// (topology, routing, config, existence tables) and the attached
/// observer are outside the boundary — restoring rewinds the network, not
/// the telemetry already emitted about it.
#[derive(Debug, Clone, PartialEq)]
pub struct SimSnapshot {
    now: u64,
    rng: StdRng,
    faulty: Vec<bool>,
    fault_cursor: usize,
    fault_depth: Vec<u16>,
    node_down: Vec<u16>,
    faults_possible: bool,
    held: Vec<bool>,
    quarantined: Vec<bool>,
    healing_possible: bool,
    deadlines: VecDeque<(u64, u32)>,
    retry_counts: Vec<u32>,
    dropped_packets: u64,
    unroutable_packets: u64,
    total_retries: u64,
    owner: Vec<u32>,
    buf: FlitBuffers,
    assigned_out: Vec<u32>,
    head_since: Vec<u64>,
    packets: Vec<Packet>,
    paths: Vec<Vec<NodeId>>,
    queues: Vec<VecDeque<u32>>,
    emitting: Vec<Option<Emitting>>,
    next_arrival: Vec<f64>,
    progress_cycles: Vec<u64>,
    last_progress: Vec<u64>,
    misroute_progress: Vec<u64>,
    misroute_assigned: Vec<bool>,
    blame: BlameTotals,
    window: (u64, u64),
    generated_packets: u64,
    generated_flits: u64,
    delivered_flits_in_window: u64,
    channel_flits: Vec<u64>,
    max_queue_len: usize,
    last_move: u64,
    deadlocked: bool,
    total_stall_cycles: u64,
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
    lanes: L,
    topo: &'a dyn Topology,
    pattern: &'a dyn TrafficPattern,
    cfg: SimConfig,
    rng: StdRng,
    obs: O,
    now: u64,

    // --- static network description ---
    num_nodes: usize,
    lanes_per_link: usize,
    /// Network slots per node: its links' lanes, existing or not.
    link_slots_per_node: usize,
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
    /// Broken channels (fault injection): `faulty[slot]` is
    /// `fault_depth[slot] > 0`, maintained on every fault transition.
    faulty: Vec<bool>,

    // --- fault injection ---
    /// Time-sorted transitions compiled from the config's fault plan.
    fault_events: Vec<crate::FaultEvent>,
    /// Next unapplied entry of `fault_events`; with an empty plan the
    /// per-cycle fault check is the single predictable branch
    /// `fault_cursor < fault_events.len()`.
    fault_cursor: usize,
    /// Per-slot failure refcount (overlapping faults compose).
    fault_depth: Vec<u16>,
    /// Per-node failure refcount; a down router neither injects nor
    /// ejects, and all its incident channels are failed.
    node_down: Vec<u16>,
    /// Whether any fault source exists (scheduled plan or `set_fault`).
    /// Gates every hot-path `faulty` lookup and the adapter's
    /// degraded-mode routing so fault-free arbitration is byte-for-byte
    /// the old code path.
    faults_possible: bool,

    // --- online reconfiguration (turnheal) ---
    /// Routers whose output arbitration is paused while the healing
    /// driver re-proves a region (ejection continues; in-flight worms
    /// drain).
    held: Vec<bool>,
    /// Channels excluded from new acquisitions by a `Cyclic` verdict
    /// (escape-path-only mode); composes with `faulty`.
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

    // --- dynamic channel state ---
    owner: Vec<u32>,
    /// Per-channel input buffers (FIFO, capacity `cfg.buffer_depth`; the
    /// paper's routers use depth 1). A buffer only ever holds flits of
    /// the packet owning the channel.
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
    /// Occupied-channel cycles that advanced nothing, measurement window
    /// only.
    total_stall_cycles: u64,

    // --- route memo ---
    /// Per input slot, the packet id + 1 of the head whose raw offer
    /// `memo` holds there (0 = none). Empty, like `memo`, until the
    /// first blocked head stores: construction pays nothing for it.
    memo_key: Vec<u32>,
    /// `memo_stride` entries per input slot: the adapter's offer for the
    /// head named by `memo_key`, in offer order (see [`MEMO_PRODUCTIVE`]).
    /// Derived state — recomputable from what a [`SimSnapshot`] holds —
    /// so it is outside the snapshot and [`Engine::restore`] drops it.
    memo: Vec<u32>,
    /// The most output lanes any router has: no offer is longer.
    memo_stride: usize,

    // --- derived indices ---
    // What the per-cycle phases walk instead of every channel and node
    // (the third, the occupied-slot set, lives in `buf`). Like the memo
    // they are recomputable from what a [`SimSnapshot`] holds, so they
    // are outside it; each is walked in ascending order, which is the
    // order of the full scan it replaced.
    /// The arrival calendar: per node, the first cycle `generate` must
    /// visit it, `ceil(next_arrival)`, least first. Empty until the first
    /// `generate` with a positive injection rate builds it, so
    /// construction and rate-0 runs pay nothing for it.
    arrivals: BinaryHeap<Reverse<(u64, u32)>>,
    /// The active-source set, one bit per node: a superset of the nodes
    /// with a queued or emitting packet. Set where a source queue is
    /// pushed, cleared by `feed_injection` when it finds the node idle.
    /// Its few words are allocated by the first packet queued, not by
    /// the constructor, where one more allocation, even this small,
    /// measured +0.7 µs (4 %) on `Sim::new`.
    active_sources: Vec<u32>,

    // --- sleep rules ---
    // What the heavy-load phases no longer poll because it cannot have
    // changed. Derived state again: outside the snapshot, allocated by
    // the first refusal and the first freeze, dropped by `restore`.
    /// Per input slot, the last cycle arbitration refused the head there
    /// (0 = never; a head is not routable at cycle 0). The refusal is the
    /// current head's exactly when it is newer than `head_since`, and
    /// that head is *asleep* — not collected — while it is also newer
    /// than its router's `freed_at`. Empty, like `freed_at`, until the
    /// first refusal.
    refused_at: Vec<u64>,
    /// Per router, the last cycle one of its outputs was released or its
    /// hold changed: the two things, short of a wake-all, that can turn a
    /// refusal there into a grant.
    freed_at: Vec<u64>,
    /// The blocked worms `advance` skips.
    frozen: Frozen,

    // scratch buffers reused across cycles
    scratch_heads: Vec<u32>,
    scratch_state: Vec<u8>,
    scratch_order: Vec<u32>,
    scratch_stack: Vec<u32>,
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
        topo: &'a L::Topo,
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
        topo: &'a L::Topo,
        routing: &'a L::Routing,
        pattern: &'a dyn TrafficPattern,
        cfg: SimConfig,
        observer: O,
    ) -> Engine<'a, L, O> {
        let lanes = L::new(topo, routing);
        let topo = lanes.topology();
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
        let mut memo_stride = 0;
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
            memo_stride = memo_stride.max(outputs);
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
        let faults_possible = !fault_events.is_empty();
        let mut sim = Engine {
            lanes,
            topo,
            pattern,
            rng: StdRng::seed_from_u64(cfg.seed),
            obs: observer,
            now: 0,
            num_nodes,
            lanes_per_link,
            link_slots_per_node: inj_base / num_nodes,
            inj_base,
            ej_base,
            num_channels,
            exists,
            input_router,
            phys_link,
            faulty: vec![false; num_channels],
            fault_events,
            fault_cursor: 0,
            fault_depth: vec![0; num_channels],
            node_down: vec![0; num_nodes],
            faults_possible,
            held: vec![false; num_nodes],
            quarantined: vec![false; num_channels],
            healing_possible: false,
            deadlines: VecDeque::new(),
            retry_counts: Vec::new(),
            dropped_packets: 0,
            unroutable_packets: 0,
            total_retries: 0,
            buf: FlitBuffers::new(num_channels, cfg.buffer_depth as usize),
            cfg,
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
            memo_key: Vec::new(),
            memo: Vec::new(),
            memo_stride,
            arrivals: BinaryHeap::new(),
            active_sources: Vec::new(),
            refused_at: Vec::new(),
            freed_at: Vec::new(),
            frozen: Frozen::default(),
            scratch_heads: Vec::new(),
            scratch_state: Vec::new(),
            scratch_order: Vec::new(),
            scratch_stack: Vec::new(),
            scratch_candidates: Vec::new(),
            scratch_link_used: vec![false; num_links],
        };
        // Stagger first arrivals so all nodes do not fire at cycle 0.
        if sim.cfg.injection_rate > 0.0 {
            let mean = sim.mean_interarrival();
            for v in 0..num_nodes {
                sim.next_arrival[v] = sim.sample_exp(mean);
            }
        }
        sim
    }

    /// The current cycle.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Whether deadlock was detected.
    pub fn deadlocked(&self) -> bool {
        self.deadlocked
    }

    /// The attached observer.
    pub fn observer(&self) -> &O {
        &self.obs
    }

    /// The attached observer, mutably.
    pub fn observer_mut(&mut self) -> &mut O {
        &mut self.obs
    }

    /// Consume the simulation and keep only the observer.
    pub fn into_observer(self) -> O {
        self.obs
    }

    /// All packets created so far.
    pub fn packets(&self) -> &[Packet] {
        &self.packets
    }

    /// The engine's slot numbering, for decoding observer events:
    /// `2 * num_dims * lanes_per_link` network slots per node (the shape
    /// of a `num_dims * lanes_per_link`-dimension layout), then one
    /// injection and one ejection slot per node. With several lanes per link
    /// [`ChannelLayout::dir_of`] is meaningless — a network slot is a
    /// (direction, lane) pair — but the injection/ejection predicates and
    /// `node_of` decode correctly.
    pub fn channel_layout(&self) -> ChannelLayout {
        ChannelLayout::new(self.num_nodes, self.topo.num_dims() * self.lanes_per_link)
    }

    /// Every lane slot of the physical link leaving `node` in `dir`
    /// (whether or not the link or the lane exists).
    fn link_slots(&self, node: NodeId, dir: Direction) -> Range<usize> {
        let first = self.topo.channel_slot(node, dir) * self.lanes_per_link;
        first..first + self.lanes_per_link
    }

    /// Flits that crossed the physical link leaving `node` in `dir`
    /// during the measurement window. Zero for nonexistent channels.
    pub fn channel_load(&self, node: NodeId, dir: Direction) -> u64 {
        self.channel_flits[self.link_slots(node, dir)].iter().sum()
    }

    /// The heaviest per-channel flit count observed during the
    /// measurement window, over network channels only.
    pub fn max_channel_load(&self) -> u64 {
        self.channel_flits[..self.inj_base]
            .iter()
            .copied()
            .max()
            .unwrap_or(0)
    }

    /// Total flits that crossed network channels during the measurement
    /// window (the network's transferred volume; equals Σ hops over the
    /// window's flits when traffic is in steady state).
    pub fn total_channel_flits(&self) -> u64 {
        self.channel_flits[..self.inj_base].iter().sum()
    }

    /// The node path a packet's header has taken so far (source
    /// included). Empty unless the run was configured with
    /// [`SimConfig::record_paths`].
    pub fn packet_path(&self, id: PacketId) -> &[NodeId] {
        if self.cfg.record_paths {
            &self.paths[id.index()]
        } else {
            &[]
        }
    }

    /// Mark the link leaving `node` in `dir` (every lane of it) as
    /// faulty; the routing arbitration will never assign it. For
    /// scheduled or transient failures use [`SimConfig::fault_plan`]
    /// instead.
    ///
    /// # Panics
    ///
    /// Panics if the channel does not exist.
    pub fn set_fault(&mut self, node: NodeId, dir: Direction) {
        if !self.faults_possible {
            // The adapter's degraded-mode discipline starts applying.
            self.faults_possible = true;
            self.wipe_memo();
        }
        let any = self.shift_link(node, dir, true);
        assert!(any, "no channel at {node} {dir}");
    }

    /// Pause (`on`) or resume output arbitration at `node`. A held router
    /// grants no new output channels: heads wait in place while the
    /// healing driver re-proves the region. Ejection still binds, and
    /// worms already granted outputs keep draining, so a hold never
    /// strands in-flight traffic.
    pub fn set_hold(&mut self, node: NodeId, on: bool) {
        self.healing_possible = true;
        self.held[node.index()] = on;
        // A release changes every refusal the hold caused.
        self.wake_router(node.index());
    }

    /// Quarantine (`on`) or release the link leaving `node` in `dir`
    /// (every lane of it): a quarantined channel is never assigned to a
    /// new worm, exactly like a faulty one, but its failure refcount is
    /// untouched — this is the healing driver's escape-path-only mode for
    /// channels implicated in a `Cyclic` verdict.
    ///
    /// # Panics
    ///
    /// Panics if the channel does not exist.
    pub fn set_quarantine(&mut self, node: NodeId, dir: Direction, on: bool) {
        let slots = self.link_slots(node, dir);
        assert!(
            self.exists[slots.clone()].contains(&true),
            "no channel at {node} {dir}"
        );
        self.healing_possible = true;
        self.quarantined[slots].fill(on);
        self.wipe_memo();
    }

    /// Whether the link leaving `node` in `dir` is quarantined.
    pub fn is_quarantined(&self, node: NodeId, dir: Direction) -> bool {
        self.quarantined[self.link_slots(node, dir)].contains(&true)
    }

    /// How many entries of the compiled fault-event stream have been
    /// applied so far. A healing driver polls this after each step to
    /// detect that a fault transition (and hence a new masked channel
    /// graph) just took effect.
    pub fn applied_fault_events(&self) -> usize {
        self.fault_cursor
    }

    /// Set the measurement window `[start, end)` explicitly. [`Engine::run`]
    /// derives the window from the configuration; an external driver that
    /// steps the engine cycle by cycle (the healing driver) sets it once
    /// up front so [`Engine::report`] summarizes the same window `run` would.
    pub fn set_measure_window(&mut self, start: u64, end: u64) {
        self.window = (start, end);
    }

    /// Manually queue a packet (useful with `injection_rate == 0`).
    ///
    /// # Panics
    ///
    /// Panics if `src == dst` or `len == 0`.
    pub fn inject_packet(&mut self, src: NodeId, dst: NodeId, len: u32) -> PacketId {
        assert_ne!(src, dst, "packet must leave its source");
        assert!(len >= 1, "packet needs at least one flit");
        let id = self.create_packet(src, dst, len);
        PacketId(id)
    }

    fn create_packet(&mut self, src: NodeId, dst: NodeId, len: u32) -> u32 {
        let id = self.packets.len() as u32;
        self.packets.push(Packet {
            id: PacketId(id),
            src,
            dst,
            len,
            created: self.now,
            injected: None,
            delivered: None,
            dropped: None,
            hops: 0,
            misroutes: 0,
        });
        if self.cfg.packet_timeout > 0 {
            self.deadlines
                .push_back((self.now + self.cfg.packet_timeout, id));
            self.retry_counts.push(0);
        }
        self.progress_cycles.push(0);
        self.last_progress.push(u64::MAX);
        self.misroute_progress.push(0);
        self.enqueue(src.index(), id);
        if self.cfg.record_paths {
            self.paths.push(vec![src]);
        }
        if self.in_window() {
            self.generated_packets += 1;
            self.generated_flits += u64::from(len);
        }
        id
    }

    /// Queue packet `pid` at its source `v`, which joins the
    /// active-source set: the one place a source queue grows.
    fn enqueue(&mut self, v: usize, pid: u32) {
        self.queues[v].push_back(pid);
        if self.active_sources.is_empty() {
            self.active_sources = vec![0; self.num_nodes.div_ceil(WORD_BITS)];
        }
        self.active_sources[v / WORD_BITS] |= 1 << (v % WORD_BITS);
    }

    /// The active-source set, ascending.
    fn active_sources(&self) -> impl Iterator<Item = usize> + '_ {
        let words = self.active_sources.iter().enumerate();
        words.flat_map(|(w, &word)| Ones::of(w, word))
    }

    /// Put every node in the active-source set. A superset is all the
    /// set promises, so this is how it is rebuilt in O(words) where the
    /// queues were replaced wholesale; the next `feed_injection` drops
    /// the nodes it finds idle.
    fn activate_all_sources(&mut self) {
        self.active_sources.clear();
        let words = self.num_nodes.div_ceil(WORD_BITS);
        self.active_sources.resize(words, u32::MAX);
        let tail = self.num_nodes % WORD_BITS;
        if tail != 0 {
            let last = self.active_sources.last_mut().expect("at least two nodes");
            *last = (1 << tail) - 1;
        }
    }

    fn in_window(&self) -> bool {
        self.now >= self.window.0 && self.now < self.window.1
    }

    fn mean_interarrival(&self) -> f64 {
        self.cfg.lengths.mean() / self.cfg.injection_rate
    }

    fn sample_exp(&mut self, mean: f64) -> f64 {
        let u: f64 = self.rng.gen_range(f64::EPSILON..1.0);
        -mean * u.ln()
    }

    fn sample_len(&mut self) -> u32 {
        match self.cfg.lengths {
            LengthDist::Fixed(n) => n,
            LengthDist::Bimodal { short, long } => {
                if self.rng.gen_bool(0.5) {
                    short
                } else {
                    long
                }
            }
        }
    }

    #[inline]
    fn inj_slot(&self, node: usize) -> usize {
        self.inj_base + node
    }

    #[inline]
    fn ej_slot(&self, node: usize) -> usize {
        self.ej_base + node
    }

    #[inline]
    fn is_ejection(&self, slot: usize) -> bool {
        slot >= self.ej_base
    }

    #[inline]
    fn is_injection(&self, slot: usize) -> bool {
        slot >= self.inj_base && slot < self.ej_base
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
        self.assert_indices_cover_a_full_scan();
        if O::ENABLED {
            self.fire(Event::CycleEnd);
        }
        self.now += 1;
        spans.add_cycle();
    }

    /// The scans the derived indices replaced, as their cross-check:
    /// the occupied-slot set is exactly the channels holding a flit
    /// (and only those are frozen) and no node outside the
    /// active-source set has a packet queued or emitting. Debug builds
    /// run it once per cycle, which makes every test a differential
    /// test of the indices; release builds carry none of it.
    #[cfg(debug_assertions)]
    fn assert_indices_cover_a_full_scan(&self) {
        self.buf.assert_occupied_set_is_exact();
        for c in (0..self.num_channels).filter(|&c| self.frozen.contains(c)) {
            assert!(!self.buf.is_empty(c), "empty slot {c} is frozen");
        }
        let mut active = self.active_sources().peekable();
        for v in 0..self.num_nodes {
            if active.next_if_eq(&v).is_none() {
                assert!(
                    self.queues[v].is_empty() && self.emitting[v].is_none(),
                    "node {v} has a packet but is not in the active-source set"
                );
            }
        }
        assert!(
            active.next().is_none(),
            "active-source bit past the last node"
        );
    }

    /// Hand `ev`, which happened this cycle, to the observer. Call sites
    /// sit behind `if O::ENABLED`, so nothing is built for a
    /// [`NoopObserver`].
    #[inline(always)]
    fn fire(&mut self, ev: Event<'_>) {
        self.obs.on_event(self.now, &ev);
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
        let start = self.now;
        let measure_start = start + self.cfg.warmup_cycles;
        let measure_end = measure_start + self.cfg.measure_cycles;
        let total_end = measure_end + self.cfg.drain_cycles;
        self.window = (measure_start, measure_end);
        while self.now < total_end && !self.deadlocked {
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
        let end = self.now + max_cycles;
        while self.now < end && !self.deadlocked {
            self.step();
            if self.is_idle() {
                return true;
            }
        }
        self.is_idle()
    }

    /// Whether no packet is queued, streaming, or in flight.
    pub fn is_idle(&self) -> bool {
        self.buf.occupied() == 0
            && self
                .active_sources()
                .all(|v| self.queues[v].is_empty() && self.emitting[v].is_none())
    }

    /// Streaming histogram of total latencies (creation to tail
    /// consumption) of delivered packets created in the measurement
    /// window — the distribution the report's quantiles come from.
    pub fn latency_histogram(&self) -> StreamingHistogram {
        let (ms, me) = self.window;
        let mut hist = StreamingHistogram::new();
        for p in &self.packets {
            if p.created < ms || p.created >= me {
                continue;
            }
            if let Some(lat) = p.latency() {
                hist.record(lat);
            }
        }
        hist
    }

    /// Build a report summarizing packets created in the measurement
    /// window.
    pub fn report(&self) -> SimReport {
        let (ms, me) = self.window;
        let hist = self.latency_histogram();
        let mut network_sum = 0u64;
        let mut hops_sum = 0u64;
        let mut misroute_sum = 0u64;
        for p in &self.packets {
            if p.created < ms || p.created >= me {
                continue;
            }
            if let Some(lat) = p.latency() {
                network_sum += p.network_latency().unwrap_or(lat);
                hops_sum += u64::from(p.hops);
                misroute_sum += u64::from(p.misroutes);
            }
        }
        let delivered = hist.count();
        let avg = |sum: u64, n: u64| if n == 0 { 0.0 } else { sum as f64 / n as f64 };
        SimReport {
            generated_packets: self.generated_packets,
            generated_flits: self.generated_flits,
            delivered_packets: delivered,
            delivered_flits_in_window: self.delivered_flits_in_window,
            measure_cycles: me.saturating_sub(ms),
            avg_latency_cycles: hist.mean(),
            p50_latency_cycles: hist.p50() as f64,
            p90_latency_cycles: hist.p90() as f64,
            p99_latency_cycles: hist.p99() as f64,
            max_latency_cycles: hist.max(),
            avg_network_latency_cycles: avg(network_sum, delivered),
            avg_hops: avg(hops_sum, delivered),
            avg_misroutes: avg(misroute_sum, delivered),
            blame: self.blame,
            total_stall_cycles: self.total_stall_cycles,
            queued_at_end: self.queues.iter().map(|q| q.len() as u64).sum(),
            max_queue_len: self.max_queue_len,
            dropped_packets: self.dropped_packets,
            unroutable_packets: self.unroutable_packets,
            retries: self.total_retries,
            deadlocked: self.deadlocked,
            termination: if self.deadlocked {
                RunTermination::Deadlock
            } else if self.generated_packets
                > delivered + self.dropped_packets + self.unroutable_packets
            {
                // Part of the measured cohort was still queued or in
                // flight at the horizon: the network never drained the
                // measured load (saturation collapse), which is what the
                // turnscope detectors are meant to call ahead of time.
                // (Packets generated *after* the window — the drain phase
                // keeps injecting — do not count against completion.)
                RunTermination::Timeout
            } else {
                RunTermination::Completed
            },
            end_cycle: self.now,
        }
    }

    // ---- per-cycle phases -------------------------------------------

    /// Apply every fault transition scheduled at or before `now`. With an
    /// empty plan this is a single always-false branch.
    fn apply_faults(&mut self) {
        while self.fault_cursor < self.fault_events.len()
            && self.fault_events[self.fault_cursor].at <= self.now
        {
            let ev = self.fault_events[self.fault_cursor];
            self.fault_cursor += 1;
            match ev.target {
                FaultTarget::Link { node, dir } => {
                    let any = self.shift_link(node, dir, ev.down);
                    assert!(any, "fault plan names a missing channel: {node} {dir}");
                }
                FaultTarget::Node(v) => {
                    let vi = v.index();
                    if ev.down {
                        self.node_down[vi] += 1;
                    } else {
                        self.node_down[vi] -= 1;
                    }
                    for dir in Direction::all(self.topo.num_dims()) {
                        self.shift_link(v, dir, ev.down);
                        if let Some(prev) = self.topo.neighbor(v, dir.opposite()) {
                            self.shift_link(prev, dir, ev.down);
                        }
                    }
                    self.shift_fault(self.inj_slot(vi), ev.down);
                    self.shift_fault(self.ej_slot(vi), ev.down);
                }
            }
        }
    }

    /// Shift the failure refcount of every existing lane of the link
    /// leaving `node` in `dir` (a link fault takes down all its lanes);
    /// returns whether the link has any.
    fn shift_link(&mut self, node: NodeId, dir: Direction, down: bool) -> bool {
        let mut any = false;
        for slot in self.link_slots(node, dir) {
            if self.exists[slot] {
                self.shift_fault(slot, down);
                any = true;
            }
        }
        any
    }

    /// Adjust one channel's failure refcount and report edge transitions
    /// to the observer.
    fn shift_fault(&mut self, slot: usize, down: bool) {
        let was = self.fault_depth[slot] > 0;
        if down {
            self.fault_depth[slot] += 1;
        } else {
            self.fault_depth[slot] -= 1;
        }
        let is = self.fault_depth[slot] > 0;
        self.faulty[slot] = is;
        if was != is {
            self.wipe_memo();
            if O::ENABLED {
                self.fire(Event::Fault { slot, active: is });
            }
        }
    }

    /// Purge packets whose lifetime expired: retry (re-queue at the
    /// source) while retries remain and delivery is still possible,
    /// otherwise drop and account. With `packet_timeout == 0` this is a
    /// single always-false branch.
    fn expire_packets(&mut self) {
        if self.cfg.packet_timeout == 0 {
            return;
        }
        while let Some(&(deadline, pid)) = self.deadlines.front() {
            if deadline > self.now {
                break;
            }
            self.deadlines.pop_front();
            let p = self.packets[pid as usize];
            if p.delivered.is_some() || p.dropped.is_some() {
                continue; // resolved before its deadline; stale entry
            }
            self.purge_packet(pid);
            if O::ENABLED {
                let packet = PacketId(pid);
                self.fire(Event::Purge { packet });
            }
            let unroutable = self.node_down[p.src.index()] > 0 || self.node_down[p.dst.index()] > 0;
            let counted = self.created_in_window(&p);
            if !unroutable && self.retry_counts[pid as usize] < self.cfg.max_retries {
                self.retry_counts[pid as usize] += 1;
                if counted {
                    self.total_retries += 1;
                }
                let p = &mut self.packets[pid as usize];
                p.injected = None;
                p.hops = 0;
                p.misroutes = 0;
                // Blame restarts with the attempt: queue wait absorbs the
                // failed attempt's time (queue = injected − created uses
                // the *final* injection cycle).
                self.progress_cycles[pid as usize] = 0;
                self.last_progress[pid as usize] = u64::MAX;
                self.misroute_progress[pid as usize] = 0;
                let src = p.src.index();
                self.enqueue(src, pid);
                self.deadlines
                    .push_back((self.now + self.cfg.packet_timeout, pid));
            } else {
                self.packets[pid as usize].dropped = Some(self.now);
                if counted {
                    if unroutable {
                        self.unroutable_packets += 1;
                    } else {
                        self.dropped_packets += 1;
                    }
                }
                if O::ENABLED {
                    let packet = PacketId(pid);
                    self.fire(Event::Drop { packet, unroutable });
                }
            }
            // A purge is progress: freed channels change the network's
            // state, so deadlock detection must not trip while timeouts
            // are draining a blocked network. This is the documented
            // precedence — `packet_timeout < deadlock_threshold` degrades
            // gracefully, the reverse declares deadlock first.
            self.last_move = self.now;
        }
    }

    fn created_in_window(&self, p: &Packet) -> bool {
        p.created >= self.window.0 && p.created < self.window.1
    }

    /// Remove every trace of `pid` from the network: its source-queue
    /// entry, its emission stream, and every channel the worm holds
    /// (a channel's buffer only ever holds flits of its owning packet).
    fn purge_packet(&mut self, pid: u32) {
        let src = self.packets[pid as usize].src.index();
        self.queues[src].retain(|&q| q != pid);
        if matches!(self.emitting[src], Some(e) if e.packet == pid) {
            self.emitting[src] = None;
        }
        for slot in 0..self.num_channels {
            if self.owner[slot] != pid {
                continue;
            }
            debug_assert!(self.buf.queued(slot).iter().all(|f| f.packet == pid));
            self.buf.clear(slot);
            self.owner[slot] = NONE_U32;
            self.assigned_out[slot] = NONE_U32;
            self.frozen.remove(slot);
            self.release_output(slot);
        }
    }

    /// Create the packets arriving this cycle. Only the nodes the
    /// arrival calendar has due are visited — in node order, like the
    /// scan of every node this replaces, so the RNG draws fall in the
    /// same order: after any cycle's `generate` no node is left with
    /// `next_arrival <= now`, hence every entry due at a later `now` is
    /// due exactly then and (due, node) order is node order.
    fn generate<S: SpanSink>(&mut self, spans: &mut S) {
        if self.cfg.injection_rate <= 0.0 {
            return;
        }
        let mean = self.mean_interarrival();
        // `t <= now` exactly when `due(t) <= now` (the cast saturates,
        // which covers an infinite `t`).
        let due = |t: f64| t.ceil() as u64;
        let mut arrivals = std::mem::take(&mut self.arrivals);
        if arrivals.len() != self.num_nodes {
            // First use, or dropped by `restore`: heapify in one pass.
            let mut entries = arrivals.into_vec();
            entries.clear();
            let times = self.next_arrival.iter().zip(0u32..);
            entries.extend(times.map(|(&t, node)| Reverse((due(t), node))));
            arrivals = entries.into();
        }
        let mut polled = 0;
        while let Some(mut next) = arrivals.peek_mut() {
            let Reverse((at, node)) = *next;
            if at > self.now {
                break;
            }
            polled += 1;
            let v = node as usize;
            while self.next_arrival[v] <= self.now as f64 {
                let step = self.sample_exp(mean);
                self.next_arrival[v] += step;
                let src = NodeId(v as u32);
                let dst = self.pattern.dest(self.topo, src, &mut self.rng);
                if let Some(dst) = dst {
                    let len = self.sample_len();
                    self.create_packet(src, dst, len);
                }
                // Self-directed messages are consumed locally: no network
                // traffic, no queueing.
            }
            *next = Reverse((due(self.next_arrival[v]), node));
        }
        self.arrivals = arrivals;
        debug_assert!(
            self.next_arrival.iter().all(|&t| t > self.now as f64),
            "an arrival the calendar did not have due"
        );
        if self.in_window() {
            // A node outside the set has an empty queue.
            for w in 0..self.active_sources.len() {
                for v in Ones::of(w, self.active_sources[w]) {
                    polled += 1;
                    self.max_queue_len = self.max_queue_len.max(self.queues[v].len());
                }
            }
        }
        spans.count(Work::SourcesPolled, polled);
    }

    /// Phase A, first half: collect input channels whose buffered flit
    /// is an unassigned head into `scratch_heads`, in service order — the
    /// input policy's, or grouped by router for a scripted arbiter.
    ///
    /// A head that is [`asleep`](Engine::asleep) would be refused again,
    /// and a refusal has no side effect, so it is left out — where that
    /// is invisible. Ordering a subset gives the subset of the order, so
    /// `Fcfs` and `PortOrder` drop sleepers before sorting; `Random`
    /// draws once per collected head, so it shuffles them all and drops
    /// sleepers after; a scripted arbiter is asked to pick among all the
    /// heads of a router, so it keeps them.
    fn collect_route_heads<A: Arbiter, S: SpanSink>(&mut self, spans: &mut S) {
        let mut heads = std::mem::take(&mut self.scratch_heads);
        heads.clear();
        let mut visited = 0;
        let keep_sleepers = A::SCRIPTED || self.cfg.input_policy == InputPolicy::Random;
        // Only an occupied slot can hold a head, and the slots from
        // `ej_base` up are ejection buffers, which are not routed.
        let routed_words = self.ej_base.div_ceil(WORD_BITS);
        for w in 0..routed_words {
            for slot in self.buf.occupied_in(w).take_while(|&c| c < self.ej_base) {
                visited += 1;
                debug_assert!(self.exists[slot], "a flit in a channel that is not there");
                if self.assigned_out[slot] != NONE_U32 {
                    continue;
                }
                // A header arriving at cycle t is normally routable at
                // t+1; routing_delay postpones that by `delay` further
                // cycles.
                if matches!(self.buf.front(slot), Some(f) if f.is_head)
                    && self.now > self.head_since[slot] + self.cfg.routing_delay
                    && (keep_sleepers || !self.asleep(slot))
                {
                    heads.push(slot as u32);
                }
            }
        }
        spans.count(Work::SlotsVisited, visited);
        if A::SCRIPTED {
            heads.sort_unstable_by_key(|&c| (self.input_router[c as usize], c));
        } else {
            match self.cfg.input_policy {
                InputPolicy::Fcfs => {
                    heads.sort_unstable_by_key(|&c| (self.head_since[c as usize], c));
                }
                InputPolicy::PortOrder => heads.sort_unstable(),
                InputPolicy::Random => {
                    // Fisher–Yates with the run RNG for determinism.
                    for i in (1..heads.len()).rev() {
                        let j = self.rng.gen_range(0..=i);
                        heads.swap(i, j);
                    }
                    heads.retain(|&c| !self.asleep(c as usize));
                }
            }
        }
        self.scratch_heads = heads;
    }

    /// Phase A, second half: look up or compute routes and grant output
    /// channels to the collected heads — in order, or per router in an
    /// order the scripted arbiter chooses.
    fn arbitrate_heads<A: Arbiter, S: SpanSink>(&mut self, arb: &mut A, spans: &mut S) {
        let heads = std::mem::take(&mut self.scratch_heads);
        if A::SCRIPTED {
            let mut i = 0;
            while i < heads.len() {
                let router = self.input_router[heads[i] as usize];
                let group = heads[i..]
                    .iter()
                    .take_while(|&&c| self.input_router[c as usize] == router);
                let mut remaining: Vec<u32> = group.copied().collect();
                i += remaining.len();
                while !remaining.is_empty() {
                    let c = remaining.remove(arb.decide(remaining.len()));
                    self.try_assign(c as usize, arb, spans);
                }
            }
        } else {
            for &c in &heads {
                self.try_assign(c as usize, arb, spans);
            }
        }
        self.scratch_heads = heads;
    }

    /// Whether `slot` may be granted to a new worm: faulty and
    /// quarantined channels are excluded, each behind its own
    /// possible-flag so undisturbed runs never load the tables.
    #[inline]
    fn unusable(&self, slot: usize) -> bool {
        (self.faults_possible && self.faulty[slot])
            || (self.healing_possible && self.quarantined[slot])
    }

    /// Whether the head at input channel `c` was refused and nothing that
    /// could turn the refusal into a grant has happened since: no output
    /// of its router released, no hold there changed, no wake-all. The
    /// comparisons are strict: a release in cycle `t`'s `advance` follows
    /// that cycle's refusals and wakes the head for `t + 1`. Debug builds
    /// re-evaluate every sleeper, which makes every test a differential
    /// test of the wake points; a spurious wake is only a wasted attempt.
    fn asleep(&self, c: usize) -> bool {
        let Some(&refused) = self.refused_at.get(c) else {
            return false;
        };
        let asleep =
            refused > self.head_since[c] && refused > self.freed_at[self.input_router[c] as usize];
        #[cfg(debug_assertions)]
        if asleep {
            let mut offer = Vec::new();
            let refused_again = match self.route_decision(c, &mut offer) {
                RouteDecision::Eject(ej) => !self.grantable(ej),
                RouteDecision::Hold => true,
                RouteDecision::Offer {
                    productive_only, ..
                } => !offer.iter().any(|k| self.open(k, productive_only)),
            };
            assert!(refused_again, "the head asleep at slot {c} missed a wake");
        }
        asleep
    }

    /// Arbitration refused the head at input channel `c` this cycle.
    fn refuse(&mut self, c: usize) {
        if self.refused_at.is_empty() {
            self.refused_at = vec![0; self.ej_base];
            self.freed_at = vec![0; self.num_nodes];
        }
        self.refused_at[c] = self.now;
    }

    /// Wake the heads asleep at router `v`.
    #[inline]
    fn wake_router(&mut self, v: usize) {
        if let Some(freed) = self.freed_at.get_mut(v) {
            *freed = self.now;
        }
    }

    /// Channel `slot` lost its owner: if it is an output of a router — a
    /// link out of it (slots are link-major, so the router is arithmetic
    /// on the slot) or its ejection channel — the heads asleep there wake.
    #[inline]
    fn release_output(&mut self, slot: usize) {
        if slot < self.inj_base {
            self.wake_router(slot / self.link_slots_per_node);
        } else if slot >= self.ej_base {
            self.wake_router(slot - self.ej_base);
        }
    }

    /// Everything arbitration knows about the head at input channel `c`
    /// before contention: ejection binding, healing hold, or the
    /// adapter's offer (written to `candidates`) with the misroute-budget
    /// verdict on it. This is the single copy of the routing semantics
    /// that [`try_assign`](Engine::try_assign) and
    /// [`wanted_output`](Engine::wanted_output) both consume.
    ///
    /// Only the offer comes from the route memo: it is a pure function of
    /// the input slot, the packet's destination, the fault / quarantine
    /// masks and `faults_possible`, and the memo is wiped wherever one of
    /// those changes. Everything that can change while a head waits — the
    /// ejection test, the hold, the budget verdict, and all the caller
    /// does with free channels, selection and the RNG — runs every time.
    fn route_decision(&self, c: usize, candidates: &mut Vec<Candidate>) -> RouteDecision {
        let flit = self.buf.front(c).expect("head present");
        let pkt = self.packets[flit.packet as usize];
        let v = NodeId(self.input_router[c]);
        // Destination reached: bind to the ejection channel.
        if v == pkt.dst {
            return RouteDecision::Eject(self.ej_slot(v.index()));
        }
        // A held router grants nothing while its region re-proves;
        // ejection (above) still drains delivered traffic.
        if self.healing_possible && self.held[v.index()] {
            return RouteDecision::Hold;
        }
        candidates.clear();
        // Packet ids are never reused (except across `restore`, which
        // wipes), and a packet that meets this slot again — a retry at
        // its source, a nonminimal worm coming back — has the same
        // destination, hence the same offer.
        let memoised = self.memo_key.get(c) == Some(&(flit.packet + 1));
        if memoised {
            // Slots are link-major and a node's links direction-minor,
            // so the output direction is arithmetic on the slot.
            let lanes = self.lanes_per_link as u32;
            let dirs = 2 * self.topo.num_dims() as u32;
            let stride = self.memo_stride;
            let entries = self.memo[c * stride..][..stride].iter();
            candidates.extend(entries.take_while(|&&e| e != NONE_U32).map(|&e| {
                let slot = e & !MEMO_PRODUCTIVE;
                Candidate {
                    dir: Direction::from_index((slot / lanes % dirs) as usize),
                    slot: slot as usize,
                    productive: e & MEMO_PRODUCTIVE != 0,
                }
            }));
            #[cfg(debug_assertions)]
            {
                let mut fresh = Vec::new();
                self.compute_offer(c, v, pkt.dst, &mut fresh);
                assert_eq!(*candidates, fresh, "stale route memo at slot {c}");
            }
        } else {
            self.compute_offer(c, v, pkt.dst, candidates);
        }
        let productive_only = !self.lanes.is_minimal()
            && pkt.misroutes >= self.cfg.misroute_budget
            && candidates.iter().any(|k| k.productive);
        RouteDecision::Offer {
            memoised,
            productive_only,
        }
    }

    /// Ask the adapter what the head at input channel `c` of router `v`,
    /// bound for `dst`, may take: the computation the route memo saves.
    fn compute_offer(&self, c: usize, v: NodeId, dst: NodeId, out: &mut Vec<Candidate>) {
        let arrived = (!self.is_injection(c)).then_some(c);
        self.lanes.candidates(
            v,
            dst,
            arrived,
            self.faults_possible,
            |slot| !self.unusable(slot),
            out,
        );
    }

    /// Remember `offer` as what the adapter offers the head waiting at
    /// input channel `c`.
    fn store_memo(&mut self, c: usize, offer: &[Candidate]) {
        let packet = self.buf.front(c).expect("head present").packet;
        let stride = self.memo_stride;
        if offer.len() > stride {
            // An adapter repeating itself; nothing to gain from caching it.
            return;
        }
        if self.memo_key.is_empty() {
            self.memo_key = vec![0; self.ej_base];
            self.memo = vec![0; self.ej_base * stride];
        }
        let entries = &mut self.memo[c * stride..][..stride];
        for (entry, k) in entries.iter_mut().zip(offer) {
            *entry = k.slot as u32 | if k.productive { MEMO_PRODUCTIVE } else { 0 };
        }
        if let Some(end) = entries.get_mut(offer.len()) {
            *end = NONE_U32;
        }
        self.memo_key[c] = packet + 1;
    }

    /// Forget every memoised offer. Called exactly where an input of
    /// [`Lanes::candidates`] other than the head itself changes: a
    /// `faulty[]` edge, a quarantine, `faults_possible` turning on, and
    /// [`Engine::restore`] (packet ids start over). A refusal made on an
    /// old offer (or of an ejection channel since repaired) says nothing
    /// about the new one, so every sleeping head wakes as well.
    fn wipe_memo(&mut self) {
        self.memo_key.fill(0);
        self.refused_at.fill(0);
    }

    /// Commit one granted output: channel bindings, misroute marking,
    /// packet accounting, path recording, and observer hooks.
    fn commit_grant(&mut self, c: usize, pick: Candidate) {
        let packet = self.buf.front(c).expect("head present").packet;
        let v = NodeId(self.input_router[c]);
        self.assigned_out[c] = pick.slot as u32;
        self.owner[pick.slot] = packet;
        self.misroute_assigned[c] = !pick.productive;
        self.frozen.thaw(c, &self.assigned_out);
        if O::ENABLED {
            let (packet, at, dir) = (PacketId(packet), v, pick.dir);
            if !self.is_injection(c) {
                if let Some(arr) = self.lanes.turn_dir(c) {
                    let turn = Turn::new(arr, dir);
                    self.fire(Event::Turn { packet, at, turn });
                }
            }
            if !pick.productive {
                self.fire(Event::Misroute { packet, at, dir });
            }
        }
        let p = &mut self.packets[packet as usize];
        p.hops += 1;
        if !pick.productive {
            p.misroutes += 1;
        }
        if self.cfg.record_paths {
            let next = NodeId(self.input_router[pick.slot]);
            self.paths[packet as usize].push(next);
        }
    }

    /// Whether ejection slot `ej` can be bound to a new worm.
    #[inline]
    fn grantable(&self, ej: usize) -> bool {
        self.owner[ej] == NONE_U32 && !self.unusable(ej)
    }

    /// Whether offered output `k` can be granted: free, and within the
    /// misroute budget.
    #[inline]
    fn open(&self, k: &Candidate, productive_only: bool) -> bool {
        self.owner[k.slot] == NONE_U32 && (k.productive || !productive_only)
    }

    /// Bind the ejection slot for the worm at `c` if it is free (ejection
    /// is never a choice point).
    fn try_eject(&mut self, c: usize, ej: usize) {
        let packet = self.buf.front(c).expect("head present").packet;
        if self.grantable(ej) {
            self.assigned_out[c] = ej as u32;
            self.owner[ej] = packet;
            self.misroute_assigned[c] = false;
            self.frozen.thaw(c, &self.assigned_out);
        } else {
            self.refuse(c);
        }
    }

    /// Route the head at input channel `c` and grant it an output if one
    /// is free: the scripted arbiter's pick, or the adapter's selection
    /// under `cfg.output_policy`. A head that stays blocked leaves its
    /// offer in the route memo, so each later attempt costs one `owner`
    /// load per candidate instead of a routing call, and the stamp of its
    /// refusal, so the next attempt waits for something to have changed.
    fn try_assign<A: Arbiter, S: SpanSink>(&mut self, c: usize, arb: &mut A, spans: &mut S) {
        let mut candidates = std::mem::take(&mut self.scratch_candidates);
        match self.route_decision(c, &mut candidates) {
            RouteDecision::Eject(ej) => self.try_eject(c, ej),
            RouteDecision::Hold => self.refuse(c),
            RouteDecision::Offer {
                memoised,
                productive_only,
            } => {
                spans.count(Work::HeadAttempts, 1);
                let source = if memoised {
                    Work::MemoHits
                } else {
                    Work::RouteComputations
                };
                spans.count(source, 1);
                let open = |k: &Candidate| self.open(k, productive_only);
                if candidates.iter().any(open) {
                    candidates.retain(open);
                    // Misroute only when necessary: if any productive
                    // channel is free, unproductive ones are not taken.
                    if candidates.iter().any(|k| k.productive) {
                        candidates.retain(|k| k.productive);
                    }
                    let pick = if A::SCRIPTED {
                        candidates[arb.decide(candidates.len())]
                    } else {
                        match self.lanes.select(&candidates, self.cfg.output_policy) {
                            Some(pick) => pick,
                            None => candidates[self.rng.gen_range(0..candidates.len())],
                        }
                    };
                    self.commit_grant(c, pick);
                } else {
                    if !memoised {
                        // Blocked on its first attempt: heads granted at
                        // once (nearly all, at light load) never touch
                        // the memo.
                        self.store_memo(c, &candidates);
                    }
                    self.refuse(c);
                }
            }
        }
        self.scratch_candidates = candidates;
    }

    /// Decide whether the flit at the front of occupied channel `start`
    /// moves this cycle, and with it every undecided channel its move
    /// waits on: a depth-first walk along output bindings that appends
    /// the movers to `order` targets first.
    ///
    /// A channel found `NO` for a reason that outlasts the cycle — its
    /// front flit is unassigned, or bound to a full slot that is itself
    /// frozen — is frozen, and a frozen slot reached through a binding
    /// reads as `NO` without being decided (its `state` stays `UNKNOWN`,
    /// which every later reader treats as "does not move").
    fn plan_from(
        &self,
        start: usize,
        state: &mut [u8],
        order: &mut Vec<u32>,
        stack: &mut Vec<u32>,
        frozen: &mut Frozen,
    ) {
        let depth = self.cfg.buffer_depth as usize;
        stack.clear();
        stack.push(start as u32);
        while let Some(&c) = stack.last() {
            let c = c as usize;
            match state[c] {
                UNKNOWN => {
                    if self.buf.is_empty(c) {
                        state[c] = NO;
                        stack.pop();
                        continue;
                    }
                    if self.is_ejection(c) {
                        state[c] = YES;
                        order.push(c as u32);
                        stack.pop();
                        continue;
                    }
                    let o = self.assigned_out[c];
                    if o == NONE_U32 {
                        // A head waiting for a grant, which thaws it.
                        state[c] = NO;
                        frozen.freeze(c, None, self.num_channels);
                        stack.pop();
                        continue;
                    }
                    let o = o as usize;
                    if self.buf.len(o) < depth {
                        state[c] = YES;
                        order.push(c as u32);
                        stack.pop();
                        continue;
                    }
                    match state[o] {
                        UNKNOWN if !frozen.contains(o) => {
                            state[c] = IN_PROGRESS;
                            stack.push(o as u32);
                        }
                        YES => {
                            state[c] = YES;
                            order.push(c as u32);
                            stack.pop();
                        }
                        // Full, and frozen — not moving until its worm's
                        // head is granted, and nor is `c` — or on a
                        // dependency cycle (`IN_PROGRESS`: a wormhole
                        // deadlock in the making) or blocked behind one.
                        _ => {
                            state[c] = NO;
                            if frozen.contains(o) {
                                frozen.freeze(c, Some(o), self.num_channels);
                            }
                            stack.pop();
                        }
                    }
                }
                IN_PROGRESS => {
                    let o = self.assigned_out[c] as usize;
                    if state[o] == YES {
                        state[c] = YES;
                        order.push(c as u32);
                    } else {
                        state[c] = NO;
                        if frozen.contains(o) {
                            frozen.freeze(c, Some(o), self.num_channels);
                        }
                    }
                    stack.pop();
                }
                _ => {
                    stack.pop();
                }
            }
        }
    }

    /// Plan the cycle's moves into `order`, targets first: from every
    /// occupied channel that is not frozen, in slot order — an empty one
    /// moves nothing, a frozen one cannot, and the search reaches either
    /// anyway when a worm is bound to it. Returns the slots visited.
    fn plan_moves(
        &self,
        state: &mut Vec<u8>,
        order: &mut Vec<u32>,
        stack: &mut Vec<u32>,
        frozen: &mut Frozen,
    ) -> u64 {
        state.clear();
        state.resize(self.num_channels, UNKNOWN);
        order.clear();
        let mut visited = 0;
        for w in 0..self.buf.occupied_words() {
            for start in self.buf.occupied_in(w).without(frozen.word(w)) {
                visited += 1;
                if state[start] == UNKNOWN {
                    self.plan_from(start, state, order, stack, frozen);
                }
            }
        }
        visited
    }

    /// Phase B: advance flits in lockstep. A flit moves when its bound
    /// output buffer has room or is itself vacating this cycle; dependency
    /// cycles (deadlock) advance nothing. Where lanes share links, each
    /// physical link additionally carries at most one flit per cycle.
    fn advance<S: SpanSink>(&mut self, spans: &mut S) {
        let mut state = std::mem::take(&mut self.scratch_state);
        let mut order = std::mem::take(&mut self.scratch_order);
        let mut stack = std::mem::take(&mut self.scratch_stack);
        let mut frozen = std::mem::take(&mut self.frozen);
        let visited = self.plan_moves(&mut state, &mut order, &mut stack, &mut frozen);
        spans.count(Work::SlotsVisited, visited);
        // The plan from every occupied channel with nothing frozen, as
        // the frozen set's cross-check: debug builds take the skips and
        // then make every cycle of every test a differential test of
        // them; release builds carry none of it.
        #[cfg(debug_assertions)]
        {
            let (mut state, mut full, mut thawed) = (Vec::new(), Vec::new(), Frozen::default());
            self.plan_moves(&mut state, &mut full, &mut stack, &mut thawed);
            assert_eq!(order, full, "a frozen slot could have moved");
        }
        self.frozen = frozen;

        let depth = self.cfg.buffer_depth as usize;
        // Shared links: one flit per physical link per cycle, granted in
        // plan order (targets first). A move is withdrawn if its link's
        // budget is spent or its full target did not actually vacate
        // (because that move was itself withdrawn); withdrawal cascades
        // upstream through the `state` check.
        if L::SHARED_LINKS {
            self.scratch_link_used.fill(false);
            order.retain(|&c| {
                let c = c as usize;
                if c >= self.ej_base {
                    // Consuming from the ejection buffer is the processor
                    // side; the ejection link was paid when entering it.
                    return true;
                }
                let o = self.assigned_out[c] as usize;
                let link = self.phys_link[o] as usize;
                let room = self.buf.len(o) < depth || state[o] == YES;
                if !room || self.scratch_link_used[link] {
                    state[c] = NO;
                    return false;
                }
                self.scratch_link_used[link] = true;
                true
            });
        }

        // Stall accounting: every occupied channel either moves a flit
        // this cycle (it is in `order`) or stalls in place.
        let in_window = self.in_window();
        if in_window {
            self.total_stall_cycles += (self.buf.occupied() - order.len()) as u64;
        }
        if O::ENABLED {
            for w in 0..self.buf.occupied_words() {
                for c in self.buf.occupied_in(w) {
                    if state[c] == YES {
                        continue;
                    }
                    let front = self.buf.front(c).expect("occupied");
                    let reason = if self.assigned_out[c] == NONE_U32 {
                        StallReason::NotRouted
                    } else {
                        StallReason::Backpressure
                    };
                    let (slot, packet) = (c, PacketId(front.packet));
                    self.fire(Event::Stall {
                        slot,
                        packet,
                        reason,
                    });
                }
            }
        }

        // Apply moves targets-first.
        for &c in &order {
            let c = c as usize;
            let flit = self.buf.pop_front(c).expect("flit scheduled to move");
            self.last_move = self.now;
            // Blame: this cycle made forward progress for the flit's
            // packet (stamp deduplicates several flits of one worm
            // moving in the same cycle).
            let pidx = flit.packet as usize;
            if self.last_progress[pidx] != self.now {
                self.last_progress[pidx] = self.now;
                self.progress_cycles[pidx] += 1;
            }
            if self.is_ejection(c) {
                if in_window {
                    self.delivered_flits_in_window += 1;
                }
                if O::ENABLED {
                    self.fire(Event::FlitAdvance {
                        from: c,
                        to: None,
                        packet: PacketId(flit.packet),
                        is_tail: flit.is_tail,
                    });
                }
                if flit.is_tail {
                    self.owner[c] = NONE_U32;
                    self.release_output(c);
                    let p = &mut self.packets[pidx];
                    p.delivered = Some(self.now);
                    let (id, created, hops) = (p.id, p.created, p.hops);
                    let injected = p.injected.expect("delivered packet was injected");
                    let latency = self.now - created;
                    let in_network = self.now - injected;
                    let progress = self.progress_cycles[pidx];
                    let misroute = self.misroute_progress[pidx];
                    let blame = PacketBlame {
                        queue_cycles: injected - created,
                        blocked_cycles: in_network - progress,
                        service_cycles: progress - misroute,
                        misroute_cycles: misroute,
                    };
                    debug_assert_eq!(blame.total(), latency);
                    if created >= self.window.0 && created < self.window.1 {
                        self.blame.queue_cycles += blame.queue_cycles;
                        self.blame.blocked_cycles += blame.blocked_cycles;
                        self.blame.service_cycles += blame.service_cycles;
                        self.blame.misroute_cycles += blame.misroute_cycles;
                    }
                    if O::ENABLED {
                        let packet = id;
                        self.fire(Event::Deliver {
                            packet,
                            latency,
                            hops,
                        });
                        self.fire(Event::Blame { packet, blame });
                    }
                }
            } else {
                let o = self.assigned_out[c] as usize;
                debug_assert!(self.buf.len(o) < depth);
                if in_window {
                    self.channel_flits[o] += 1;
                }
                if flit.is_head {
                    self.head_since[o] = self.now;
                    // The header crossing a non-productively granted
                    // channel marks this progress cycle as misroute
                    // penalty (the head moves at most once per cycle, so
                    // misroute progress never exceeds total progress).
                    if self.misroute_assigned[c] {
                        self.misroute_progress[pidx] += 1;
                    }
                }
                self.buf.push_back(o, flit);
                if O::ENABLED {
                    self.fire(Event::FlitAdvance {
                        from: c,
                        to: Some(o),
                        packet: PacketId(flit.packet),
                        is_tail: flit.is_tail,
                    });
                }
                if flit.is_tail {
                    self.owner[c] = NONE_U32;
                    self.assigned_out[c] = NONE_U32;
                    self.release_output(c);
                }
            }
        }

        self.scratch_state = state;
        self.scratch_order = order;
        self.scratch_stack = stack;
    }

    /// Feed the next flit of the current packet into each free injection
    /// buffer (the processor side of the injection channel). Only the
    /// active sources are visited, in node order; one that cannot inject
    /// now — its slot faulty or full, its router held — stays in the set.
    fn feed_injection<S: SpanSink>(&mut self, spans: &mut S) {
        let mut polled = 0;
        for w in 0..self.active_sources.len() {
            // A copy of the word: `feed_source` clears the bit it is on.
            for v in Ones::of(w, self.active_sources[w]) {
                polled += 1;
                self.feed_source(v);
            }
        }
        spans.count(Work::SourcesPolled, polled);
    }

    /// Node `v`'s turn in [`feed_injection`](Engine::feed_injection).
    fn feed_source(&mut self, v: usize) {
        let depth = self.cfg.buffer_depth as usize;
        let inj = self.inj_slot(v);
        if (self.faults_possible && self.faulty[inj])
            || (self.healing_possible && self.held[v])
            || self.buf.len(inj) >= depth
        {
            return;
        }
        if self.emitting[v].is_none() {
            let Some(pid) = self.queues[v].pop_front() else {
                // Nothing queued, nothing emitting: `v` leaves the set.
                self.active_sources[v / WORD_BITS] &= !(1 << (v % WORD_BITS));
                return;
            };
            self.packets[pid as usize].injected = Some(self.now);
            self.emitting[v] = Some(Emitting {
                packet: pid,
                sent: 0,
            });
            if O::ENABLED {
                let p = self.packets[pid as usize];
                self.fire(Event::Inject {
                    packet: p.id,
                    src: p.src,
                    dst: p.dst,
                    len: p.len,
                });
            }
        }
        let Emitting { packet, sent } = self.emitting[v].expect("set above");
        let len = self.packets[packet as usize].len;
        let flit = BufFlit {
            packet,
            is_head: sent == 0,
            is_tail: sent + 1 == len,
        };
        if flit.is_head {
            self.head_since[inj] = self.now;
            self.owner[inj] = packet;
        }
        if O::ENABLED {
            self.fire(Event::FlitSource {
                slot: inj,
                packet: PacketId(packet),
                is_tail: flit.is_tail,
            });
        }
        self.buf.push_back(inj, flit);
        self.emitting[v] = if sent + 1 == len {
            None
        } else {
            Some(Emitting {
                packet,
                sent: sent + 1,
            })
        };
    }

    fn detect_deadlock(&mut self) {
        if self.now.saturating_sub(self.last_move) >= self.cfg.deadlock_threshold
            && self.buf.occupied() > 0
        {
            self.deadlocked = true;
            if O::ENABLED {
                let snapshot = self.deadlock_snapshot();
                self.fire(Event::Deadlock(&snapshot));
            }
        }
    }

    /// The frozen waits-for graph over currently occupied channels.
    ///
    /// Each occupied channel contributes one edge naming the front flit's
    /// packet and, when the worm is routed, the output channel it waits
    /// on; [`DeadlockSnapshot::cycle_channels`] then separates worms on
    /// an actual circular wait from traffic merely blocked behind them.
    pub fn deadlock_snapshot(&self) -> DeadlockSnapshot {
        let layout = self.channel_layout();
        let mut edges = Vec::new();
        let mut candidates = Vec::new();
        for c in 0..self.num_channels {
            let Some(front) = self.buf.front(c) else {
                continue;
            };
            let waits_for = if self.is_ejection(c) {
                None
            } else if self.assigned_out[c] != NONE_U32 {
                Some(self.assigned_out[c] as usize)
            } else if front.is_head {
                // Unrouted head: arbitration never bound it because every
                // output it wants is held by another worm. Re-derive the
                // wanted output — that is the true waits-for edge.
                self.wanted_output(c, &mut candidates)
            } else {
                None
            };
            edges.push(WaitEdge {
                channel: c,
                packet: front.packet,
                buffered: self.buf.len(c),
                head_waiting: front.is_head,
                waits_for,
            });
        }
        DeadlockSnapshot {
            now: self.now,
            layout,
            edges,
        }
    }

    /// The output channel the (unassigned) head flit at `c` is waiting
    /// to acquire: [`Engine::try_assign`]'s candidate selection minus the
    /// free-channel filter. With several busy alternatives the adapter's
    /// preferred one is reported (`Random` falls back to `LowestDim` —
    /// the snapshot cannot perturb the RNG, nor, being `&self`, the
    /// route memo: it reads a matching entry and stores nothing).
    /// `candidates` is the caller's scratch list.
    fn wanted_output(&self, c: usize, candidates: &mut Vec<Candidate>) -> Option<usize> {
        self.buf.front(c)?;
        match self.route_decision(c, candidates) {
            RouteDecision::Eject(ej) => Some(ej),
            // Arbitration paused: the head waits on the hold.
            RouteDecision::Hold => None,
            // Preferring productive outputs whenever one is on offer
            // already withdraws what `productive_only` would.
            RouteDecision::Offer { .. } => {
                if candidates.iter().any(|k| k.productive) {
                    candidates.retain(|k| k.productive);
                }
                let policy = match self.cfg.output_policy {
                    OutputPolicy::Random => OutputPolicy::LowestDim,
                    policy => policy,
                };
                self.lanes.select(candidates, policy).map(|k| k.slot)
            }
        }
    }

    // ---- snapshot / restore -----------------------------------------

    /// Capture the engine's complete mutable state.
    ///
    /// See [`SimSnapshot`] for the boundary. Restoring the snapshot into
    /// the same (or an identically-shaped) simulation with
    /// [`Engine::restore`] resumes execution bit-for-bit: same RNG stream,
    /// same arbitration outcomes, same report.
    pub fn snapshot(&self) -> SimSnapshot {
        SimSnapshot {
            now: self.now,
            rng: self.rng.clone(),
            faulty: self.faulty.clone(),
            fault_cursor: self.fault_cursor,
            fault_depth: self.fault_depth.clone(),
            node_down: self.node_down.clone(),
            faults_possible: self.faults_possible,
            held: self.held.clone(),
            quarantined: self.quarantined.clone(),
            healing_possible: self.healing_possible,
            deadlines: self.deadlines.clone(),
            retry_counts: self.retry_counts.clone(),
            dropped_packets: self.dropped_packets,
            unroutable_packets: self.unroutable_packets,
            total_retries: self.total_retries,
            owner: self.owner.clone(),
            buf: self.buf.clone(),
            assigned_out: self.assigned_out.clone(),
            head_since: self.head_since.clone(),
            packets: self.packets.clone(),
            paths: self.paths.clone(),
            queues: self.queues.clone(),
            emitting: self.emitting.clone(),
            next_arrival: self.next_arrival.clone(),
            progress_cycles: self.progress_cycles.clone(),
            last_progress: self.last_progress.clone(),
            misroute_progress: self.misroute_progress.clone(),
            misroute_assigned: self.misroute_assigned.clone(),
            blame: self.blame,
            window: self.window,
            generated_packets: self.generated_packets,
            generated_flits: self.generated_flits,
            delivered_flits_in_window: self.delivered_flits_in_window,
            channel_flits: self.channel_flits.clone(),
            max_queue_len: self.max_queue_len,
            last_move: self.last_move,
            deadlocked: self.deadlocked,
            total_stall_cycles: self.total_stall_cycles,
        }
    }

    /// Restore state captured by [`Engine::snapshot`]. The observer is not
    /// rewound — see [`SimSnapshot`] for the boundary.
    ///
    /// # Panics
    ///
    /// Panics if the snapshot came from a differently-shaped network
    /// (different channel or node count).
    pub fn restore(&mut self, snap: &SimSnapshot) {
        assert_eq!(
            snap.owner.len(),
            self.num_channels,
            "snapshot from a different network shape"
        );
        assert_eq!(
            snap.queues.len(),
            self.num_nodes,
            "snapshot from a different network shape"
        );
        self.now = snap.now;
        self.rng = snap.rng.clone();
        self.faulty.clone_from(&snap.faulty);
        self.fault_cursor = snap.fault_cursor;
        self.fault_depth.clone_from(&snap.fault_depth);
        self.node_down.clone_from(&snap.node_down);
        self.faults_possible = snap.faults_possible;
        self.held.clone_from(&snap.held);
        self.quarantined.clone_from(&snap.quarantined);
        self.healing_possible = snap.healing_possible;
        self.deadlines.clone_from(&snap.deadlines);
        self.retry_counts.clone_from(&snap.retry_counts);
        self.dropped_packets = snap.dropped_packets;
        self.unroutable_packets = snap.unroutable_packets;
        self.total_retries = snap.total_retries;
        self.owner.clone_from(&snap.owner);
        self.buf.clone_from(&snap.buf);
        self.assigned_out.clone_from(&snap.assigned_out);
        self.head_since.clone_from(&snap.head_since);
        self.packets.clone_from(&snap.packets);
        self.paths.clone_from(&snap.paths);
        self.queues.clone_from(&snap.queues);
        self.emitting.clone_from(&snap.emitting);
        self.next_arrival.clone_from(&snap.next_arrival);
        self.progress_cycles.clone_from(&snap.progress_cycles);
        self.last_progress.clone_from(&snap.last_progress);
        self.misroute_progress.clone_from(&snap.misroute_progress);
        self.misroute_assigned.clone_from(&snap.misroute_assigned);
        self.blame = snap.blame;
        self.window = snap.window;
        self.generated_packets = snap.generated_packets;
        self.generated_flits = snap.generated_flits;
        self.delivered_flits_in_window = snap.delivered_flits_in_window;
        self.channel_flits.clone_from(&snap.channel_flits);
        self.max_queue_len = snap.max_queue_len;
        self.last_move = snap.last_move;
        self.deadlocked = snap.deadlocked;
        self.total_stall_cycles = snap.total_stall_cycles;
        // Derived state is not in the snapshot: the memo and the arrival
        // calendar are dropped (each is rebuilt by its first use), the
        // active-source set is widened to every node, every head wakes
        // and every worm thaws. `now` may have gone backwards, so no
        // stamp may survive to be read as newer than it is.
        self.wipe_memo();
        self.freed_at.fill(0);
        self.frozen.clear();
        self.arrivals.clear();
        self.activate_all_sources();
    }

    // ---- model-checker state views ----------------------------------

    /// Total channel slots: network channels, then one injection and one
    /// ejection channel per node (same numbering as
    /// [`crate::obs::ChannelLayout`]).
    pub fn num_slots(&self) -> usize {
        self.num_channels
    }

    /// The packet whose worm currently owns `slot`, if any.
    pub fn slot_owner(&self, slot: usize) -> Option<u32> {
        (self.owner[slot] != NONE_U32).then_some(self.owner[slot])
    }

    /// The output slot the worm crossing input `slot` is bound to, if
    /// routed.
    pub fn slot_binding(&self, slot: usize) -> Option<usize> {
        (self.assigned_out[slot] != NONE_U32).then_some(self.assigned_out[slot] as usize)
    }

    /// The flits buffered at `slot`, front first, as
    /// `(packet, is_head, is_tail)`.
    pub fn slot_flits(&self, slot: usize) -> impl Iterator<Item = (u32, bool, bool)> + '_ {
        self.buf
            .queued(slot)
            .iter()
            .map(|f| (f.packet, f.is_head, f.is_tail))
    }

    /// Packets queued at `node`'s source, front first.
    pub fn source_queue(&self, node: usize) -> impl Iterator<Item = u32> + '_ {
        self.queues[node].iter().copied()
    }

    /// The packet currently streaming into `node`'s injection channel and
    /// how many of its flits have been emitted.
    pub fn source_emitting(&self, node: usize) -> Option<(u32, u32)> {
        self.emitting[node].map(|e| (e.packet, e.sent))
    }
}

impl<'a, L: Lanes<'a>, O: SimObserver> std::fmt::Debug for Engine<'a, L, O> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("now", &self.now)
            .field("routing", &self.lanes.routing_name())
            .field("pattern", &self.pattern.name())
            .field("packets", &self.packets.len())
            .field("deadlocked", &self.deadlocked)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use turnroute_model::RoutingFunction;
    use turnroute_routing::{mesh2d, RoutingMode};
    use turnroute_topology::Mesh;
    use turnroute_traffic::Uniform;

    fn quiet_cfg() -> SimConfig {
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

    fn saturated_cfg(seed: u64) -> SimConfig {
        SimConfig::builder()
            .injection_rate(0.5)
            .deadlock_threshold(5_000)
            .seed(seed)
            .build()
    }

    #[test]
    fn is_idle_agrees_with_a_buffer_scan() {
        // `is_idle` reads the occupied-slot set and the active-source
        // set; every push, pop and purge (timeouts clear whole worms and
        // re-queue at sources the set had dropped) must keep them in step
        // with a scan of the buffers, queues and emitters.
        let mesh = Mesh::new_2d(4, 4);
        let routing = mesh2d::west_first(RoutingMode::Minimal);
        let pattern = Uniform::new();
        let cfg = SimConfig::builder()
            .injection_rate(0.4)
            .packet_timeout(60)
            .max_retries(1)
            .deadlock_threshold(5_000)
            .seed(9)
            .build();
        let mut sim = Sim::new(&mesh, &routing, &pattern, cfg);
        let scanned_idle = |sim: &Sim| {
            (0..sim.num_channels).all(|c| sim.buf.is_empty(c))
                && sim.queues.iter().all(VecDeque::is_empty)
                && sim.emitting.iter().all(Option::is_none)
        };
        for _ in 0..600 {
            sim.step();
            sim.buf.assert_occupied_set_is_exact();
            let active: Vec<usize> = sim.active_sources().collect();
            for v in 0..sim.num_nodes {
                let busy = !sim.queues[v].is_empty() || sim.emitting[v].is_some();
                assert!(
                    !busy || active.contains(&v),
                    "cycle {}: node {v}",
                    sim.now()
                );
            }
            assert_eq!(sim.is_idle(), scanned_idle(&sim), "cycle {}", sim.now());
        }
        assert!(sim.report().retries > 0, "no purge exercised");
        // Stop the sources and let the network drain.
        sim.cfg.injection_rate = 0.0;
        assert!(sim.run_until_idle(5_000));
        assert!(scanned_idle(&sim));
        // Drained, the lazily cleared set empties within a cycle.
        sim.step();
        assert_eq!(sim.active_sources().count(), 0);
    }

    /// Step `sim` once, profiled. Returns the slots occupied during the
    /// cycle and the most slots its two scans may visit: head collection
    /// every occupied slot that is routed, the planning loop every
    /// occupied slot that does not stay frozen through the cycle (in a
    /// `Sim` without timeouts a slot thawed by a grant moves, so the ones
    /// frozen before and after are the ones frozen when planning starts;
    /// a few more are frozen by the search before the loop reaches them).
    fn step_counting_slots(sim: &mut Sim, prof: &mut PhaseProfiler) -> (u64, u64) {
        // Nothing moves between the start of a cycle and `advance`.
        let occupied = sim.buf.occupied() as u64;
        let routed = (0..sim.ej_base).filter(|&c| !sim.buf.is_empty(c)).count() as u64;
        let before = sim.frozen.bits.clone();
        sim.step_profiled(prof);
        let frozen_throughout = before.iter().zip(&sim.frozen.bits);
        let skipped: u32 = frozen_throughout.map(|(a, b)| (a & b).count_ones()).sum();
        (occupied, routed + occupied - u64::from(skipped))
    }

    #[test]
    fn occupied_set_work_counters_follow_the_flits_not_the_network() {
        // The complexity claim: the per-cycle scans cost what is in
        // flight. Head collection visits an occupied routed slot once per
        // cycle and the advance's planning loop an occupied slot that is
        // not frozen once; the full scans they replaced read every slot
        // below `ej_base` and every slot.
        let mesh = Mesh::new_2d(8, 8);
        let routing = mesh2d::west_first(RoutingMode::Minimal);
        let pattern = Uniform::new();
        let cfg = SimConfig::builder().injection_rate(0.02).seed(4).build();
        let mut sim = Sim::new(&mesh, &routing, &pattern, cfg);
        let mut prof = PhaseProfiler::new();
        let (cycles, mut occupied_slot_cycles, mut to_visit) = (4_000u64, 0u64, 0u64);
        for _ in 0..cycles {
            let (occupied, visits) = step_counting_slots(&mut sim, &mut prof);
            occupied_slot_cycles += occupied;
            to_visit += visits;
        }
        let visited = prof.work(Work::SlotsVisited);
        assert!(occupied_slot_cycles > cycles, "load too low to be a test");
        assert!(visited <= to_visit, "{visited} of {to_visit}");
        assert!(visited > occupied_slot_cycles, "both scans count");
        assert!(
            visited < 2 * occupied_slot_cycles,
            "ejection slots are not routed"
        );
        let full_scans = (sim.ej_base + sim.num_channels) as u64 * cycles;
        assert!(20 * visited < full_scans, "{visited} of {full_scans}");
        // Sources: a calendar visit per arrival, a feed per flit (and
        // one more for the source to leave the set) and — the window is
        // open throughout — a queue-length sample per active source; the
        // scans they replaced polled every node twice a cycle.
        let polled = prof.work(Work::SourcesPolled);
        assert!(polled > sim.delivered_flits_in_window, "{polled}");
        assert!(10 * polled < 2 * sim.num_nodes as u64 * cycles, "{polled}");
    }

    #[test]
    fn occupied_set_and_calendar_cost_construction_and_snapshots_nothing() {
        let mesh = Mesh::new_2d(8, 8);
        let routing = mesh2d::west_first(RoutingMode::Minimal);
        let pattern = Uniform::new();
        let cfg = SimConfig::builder().injection_rate(0.05).seed(6).build();
        let mut sim = Sim::new(&mesh, &routing, &pattern, cfg);
        // The calendar is built by the first `generate` and the source
        // set by the first packet, not by `new`.
        assert_eq!(sim.arrivals.capacity(), 0);
        assert_eq!(sim.active_sources.capacity(), 0);
        // Nor are the sleep stamps and the frozen set: the first refusal
        // and the first freeze allocate them.
        let sleep_state = |sim: &Sim| {
            [
                sim.refused_at.capacity() + sim.freed_at.capacity(),
                sim.frozen.bits.capacity() + sim.frozen.feeder.capacity(),
            ]
        };
        assert_eq!(sleep_state(&sim), [0, 0]);
        sim.step();
        assert_eq!(sim.arrivals.len(), 64);
        for _ in 0..200 {
            sim.step();
        }
        // `restore` drops it, widens the source set to every node (the
        // next cycle's feed narrows it again) and carries the slot set
        // inside the buffers' one `len` allocation.
        let snap = sim.snapshot();
        let sources = sim.active_sources().count();
        assert!(sim.buf.occupied() > 0 && sources < 64);
        assert!(sleep_state(&sim).iter().all(|&allocated| allocated > 0));
        sim.restore(&snap);
        // No stamp and no frozen bit outlives the `now` it was made in.
        assert!(sim.refused_at.iter().chain(&sim.freed_at).all(|&t| t == 0));
        assert!(sim.frozen.bits.is_empty());
        assert!(sim.arrivals.is_empty());
        assert_eq!(sim.active_sources().count(), 64);
        sim.buf.assert_occupied_set_is_exact();
        assert_eq!(sim.snapshot(), snap, "none of it is snapshot state");
        sim.step();
        assert_eq!(sim.arrivals.len(), 64);
        assert!(sim.active_sources().count() <= sources + 2);
        // A rate of zero — every model-checker run — never builds one.
        let mut quiet = Sim::new(&mesh, &routing, &pattern, quiet_cfg());
        quiet.inject_packet(NodeId(0), NodeId(63), 5);
        assert!(quiet.run_until_idle(200));
        assert_eq!(quiet.arrivals.capacity(), 0);
    }

    #[test]
    fn memo_counters_pin_one_route_computation_per_hop() {
        // The complexity claim: a head's offer is computed once per hop
        // however long it stays blocked. Without faults or timeouts every
        // computation is either a granted hop or a head still waiting at
        // the end, and every other attempt is a memo hit.
        let mesh = Mesh::new_2d(8, 8);
        let routing = mesh2d::west_first(RoutingMode::Minimal);
        let pattern = Uniform::new();
        let mut sim = Sim::new(&mesh, &routing, &pattern, saturated_cfg(1));
        let mut prof = PhaseProfiler::new();
        for _ in 0..3_000 {
            sim.step_profiled(&mut prof);
        }
        let hops: u64 = sim.packets().iter().map(|p| u64::from(p.hops)).sum();
        // Heads the last cycle's arbitration tried and could not serve.
        let last = sim.now() - 1;
        let waiting = (0..sim.ej_base)
            .filter(|&c| {
                let Some(front) = sim.buf.front(c) else {
                    return false;
                };
                front.is_head
                    && sim.assigned_out[c] == NONE_U32
                    && last > sim.head_since[c]
                    && NodeId(sim.input_router[c]) != sim.packets[front.packet as usize].dst
            })
            .count() as u64;
        assert!(waiting > 0, "not saturated");
        assert_eq!(prof.work(Work::RouteComputations), hops + waiting);
        assert_eq!(
            prof.work(Work::HeadAttempts),
            prof.work(Work::RouteComputations) + prof.work(Work::MemoHits)
        );
        // A head that stays blocked reads its offer back whenever a
        // release at its router wakes it.
        assert!(prof.work(Work::MemoHits) > 0, "{}", prof.render());
    }

    #[test]
    fn memo_is_wiped_where_an_offer_can_change_and_only_there() {
        let mesh = Mesh::new_2d(8, 8);
        let routing = mesh2d::west_first(RoutingMode::Minimal);
        let pattern = Uniform::new();
        let mut sim = Sim::new(&mesh, &routing, &pattern, saturated_cfg(2));
        assert!(sim.memo_key.is_empty(), "construction pays nothing");
        let warm = |sim: &Sim| sim.memo_key.iter().any(|&k| k != 0);
        let rewarm = |sim: &mut Sim| {
            for _ in 0..300 {
                sim.step();
            }
            assert!(warm(sim), "no blocked head at saturation");
        };
        rewarm(&mut sim);
        let node = mesh.node_at_coords(&[3, 3]);

        // A hold changes no offer.
        sim.set_hold(node, true);
        sim.set_hold(node, false);
        assert!(warm(&sim));
        // The snapshot has no memo in it and taking one leaves it alone.
        let snap = sim.snapshot();
        let _ = sim.deadlock_snapshot();
        assert!(warm(&sim));

        sim.set_quarantine(node, Direction::EAST, true);
        assert!(!warm(&sim), "quarantine on");
        rewarm(&mut sim);
        sim.set_quarantine(node, Direction::EAST, false);
        assert!(!warm(&sim), "quarantine off");
        rewarm(&mut sim);
        // First fault: `faults_possible` flips and a `faulty[]` edge.
        sim.set_fault(node, Direction::NORTH);
        assert!(!warm(&sim), "fault");
        rewarm(&mut sim);
        // A second fault on the same link deepens the refcount: no edge,
        // no change to any offer.
        sim.set_fault(node, Direction::NORTH);
        assert!(warm(&sim));
        // Restore starts packet ids over.
        sim.restore(&snap);
        assert!(!warm(&sim), "restore");
        assert_eq!(sim.snapshot(), snap);
    }

    #[test]
    fn sleep_counters_pin_attempts_to_hops_not_to_blocked_cycles() {
        // The complexity claim: a blocked head is asked again only when
        // an output of its router was released, so attempts follow the
        // hops made, not the cycles spent waiting (188 attempts per route
        // computation on this configuration when every head was polled
        // every cycle). Route computations are what they were: one per
        // hop, plus the heads still waiting.
        let mesh = Mesh::new_2d(16, 16);
        let routing = mesh2d::west_first(RoutingMode::Minimal);
        let pattern = Uniform::new();
        let cfg = SimConfig::builder().injection_rate(0.3).seed(1).build();
        let mut sim = Sim::new(&mesh, &routing, &pattern, cfg);
        let mut prof = PhaseProfiler::new();
        let (mut occupied_slot_cycles, mut to_visit) = (0u64, 0u64);
        for _ in 0..3_000 {
            let (occupied, visits) = step_counting_slots(&mut sim, &mut prof);
            occupied_slot_cycles += occupied;
            to_visit += visits;
        }
        let hops: u64 = sim.packets().iter().map(|p| u64::from(p.hops)).sum();
        let computed = prof.work(Work::RouteComputations);
        let attempts = prof.work(Work::HeadAttempts);
        let asleep = (0..sim.ej_base).filter(|&c| sim.asleep(c)).count() as u64;
        assert!(asleep > 100, "not saturated: {asleep} heads asleep");
        assert!(hops < computed && computed <= hops + asleep + 16);
        assert_eq!(attempts, computed + prof.work(Work::MemoHits));
        assert!(attempts <= 3 * computed, "{}", prof.render());
        // Traversal likewise: most occupied slots are frozen behind a
        // waiting head, and the planning loop does not start from them.
        let visited = prof.work(Work::SlotsVisited);
        assert!(visited <= to_visit, "{visited} of {to_visit}");
        assert!(
            2 * visited < 3 * occupied_slot_cycles,
            "{visited} of {occupied_slot_cycles}"
        );
    }

    #[test]
    fn sleep_ends_the_cycle_after_the_wanted_output_is_released() {
        let mesh = Mesh::new_2d(4, 4);
        let routing = mesh2d::xy();
        let pattern = Uniform::new();
        let at = |x, y| mesh.node_at_coords(&[x, y]);
        let input = mesh.channel_slot(at(0, 0), Direction::EAST);
        let wanted = mesh.channel_slot(at(1, 0), Direction::EAST);
        // A long worm holds router (1,0)'s east output, and `delay` cycles
        // later a head sets out to reach that router from the west and
        // want it. Returns the engine the cycle the worm let go, and for
        // how many cycles the head slept.
        let until_released = |delay: u64| {
            let mut sim = Sim::new(&mesh, &routing, &pattern, quiet_cfg());
            sim.inject_packet(at(1, 0), at(3, 0), 12);
            let mut slept = 0;
            while sim.owner[wanted] != NONE_U32 || sim.now() < 3 {
                if sim.now() == delay {
                    sim.inject_packet(at(0, 0), at(3, 0), 2);
                }
                slept += u64::from(sim.asleep(input));
                sim.step();
                assert!(sim.now() < 40, "the worm never let go");
            }
            (sim, slept)
        };
        // Granted the cycle after the release, the latency it had when it
        // asked every cycle.
        let granted_next = |mut sim: Sim, released: u64| {
            assert_eq!(sim.freed_at[at(1, 0).index()], released);
            assert_eq!(sim.assigned_out[input], NONE_U32);
            assert!(!sim.asleep(input));
            sim.step();
            assert_eq!(sim.assigned_out[input], wanted as u32);
            assert!(sim.run_until_idle(100));
            assert_eq!(sim.packets()[1].delivered, Some(released + 5));
        };

        // Refused on arrival, asleep for as long as the worm passes, and
        // woken by the traversal that takes its tail out of the channel.
        let (sim, slept) = until_released(0);
        let released = sim.now() - 1;
        assert_eq!(sim.refused_at[input], 2);
        assert_eq!(slept, released - 2);
        assert!(slept >= 8, "asleep for {slept} cycles only");
        granted_next(sim, released);

        // Arriving just in time to be refused by the arbitration of the
        // very cycle whose traversal frees the channel: the two stamps
        // are equal, and equal is awake.
        let (sim, slept) = until_released(released - 2);
        assert_eq!(sim.now() - 1, released);
        assert_eq!(sim.refused_at[input], released);
        assert_eq!(slept, 0);
        granted_next(sim, released);
    }

    #[test]
    fn sleep_thaws_a_granted_worm_and_no_other() {
        let channels = 70;
        let mut frozen = Frozen::default();
        assert!(!frozen.contains(69), "nothing allocated, nothing frozen");
        frozen.thaw(69, &[]);
        let mut assigned_out = vec![NONE_U32; channels];
        // A worm waits at 3 with two full slots behind it, 40 -> 7 -> 3,
        // frozen in the order the planner finds them.
        (assigned_out[7], assigned_out[40]) = (3, 7);
        frozen.freeze(3, None, channels);
        frozen.freeze(7, Some(3), channels);
        frozen.freeze(40, Some(7), channels);
        // Slot 9 once froze bound to 64 and has moved on since; now
        // another worm's head waits in each.
        frozen.freeze(9, Some(64), channels);
        frozen.remove(9);
        frozen.freeze(9, None, channels);
        frozen.freeze(64, None, channels);
        let members = |frozen: &Frozen| -> Vec<usize> {
            (0..channels).filter(|&c| frozen.contains(c)).collect()
        };
        assert_eq!(members(&frozen), [3, 7, 9, 40, 64]);
        // The grant at 64 follows no stale back-pointer into 9.
        frozen.thaw(64, &assigned_out);
        assert_eq!(members(&frozen), [3, 7, 9, 40]);
        // The grant at 3 thaws its worm to the last frozen slot.
        frozen.thaw(3, &assigned_out);
        assert_eq!(members(&frozen), [9]);
        // Dropped, the set allocates again on the next freeze.
        frozen.clear();
        assert!(members(&frozen).is_empty());
        frozen.freeze(69, None, channels);
        assert_eq!(members(&frozen), [69]);
    }

    #[test]
    fn sleep_leaves_a_scripted_step_every_head_to_choose_from() {
        // `decide(n)` counts the waiting heads of a router, so a scripted
        // step is handed the sleepers too.
        let mesh = Mesh::new_2d(4, 4);
        let routing = mesh2d::xy();
        let pattern = Uniform::new();
        let mut sim = Sim::new(&mesh, &routing, &pattern, quiet_cfg());
        let at = |x, y| mesh.node_at_coords(&[x, y]);
        // A long worm holds router (1,0)'s north output; two heads come
        // in from the west and the east wanting it.
        sim.inject_packet(at(1, 0), at(1, 3), 30);
        sim.inject_packet(at(0, 0), at(1, 2), 3);
        sim.inject_packet(at(2, 0), at(1, 2), 3);
        for _ in 0..6 {
            sim.step();
        }
        let from_west = mesh.channel_slot(at(0, 0), Direction::EAST);
        let from_east = mesh.channel_slot(at(2, 0), Direction::WEST);
        assert!(sim.asleep(from_west) && sim.asleep(from_east));
        // Policy-driven, neither is collected...
        let mut prof = PhaseProfiler::new();
        sim.step_profiled(&mut prof);
        assert_eq!(prof.work(Work::HeadAttempts), 0);
        // ...scripted, both are, and both are refused again.
        let mut script = ChoiceScript::default();
        sim.step_with_choices(&mut script);
        assert_eq!(script.arities(), &[2]);
        assert!(sim.asleep(from_west) && sim.asleep(from_east));
        assert!(sim.run_until_idle(200));
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
