//! Flit-level telemetry: one [`Event`] vocabulary and composable
//! collectors.
//!
//! The engine is generic over a [`SimObserver`] and hands it every
//! [`Event`] through [`SimObserver::on_event`]; the default
//! [`NoopObserver`] has `ENABLED = false`, so every event is built behind
//! an `if O::ENABLED` the compiler folds away — an uninstrumented
//! simulation pays nothing. Collectors in this module implement the trait
//! and can be composed with tuples (`(A, B)`) or via the all-in-one
//! [`Telemetry`] bundle:
//!
//! ```
//! use turnroute_sim::obs::Telemetry;
//! use turnroute_sim::{Sim, SimConfig};
//! use turnroute_routing::{mesh2d, RoutingMode};
//! use turnroute_topology::Mesh;
//! use turnroute_traffic::Uniform;
//!
//! let mesh = Mesh::new_2d(4, 4);
//! let routing = mesh2d::west_first(RoutingMode::Minimal);
//! let pattern = Uniform::new();
//! let cfg = SimConfig::builder().injection_rate(0.05).seed(7).build();
//! let mut sim = Sim::with_observer(&mesh, &routing, &pattern, cfg, Telemetry::new(&mesh));
//! for _ in 0..500 {
//!     sim.step();
//! }
//! let telemetry = sim.observer();
//! assert!(telemetry.census.total() > 0 || telemetry.heatmap.total_load() > 0);
//! ```

mod census;
mod detect;
mod frame;
mod heatmap;
mod hist;
mod invariant;
pub mod json;
mod trace;

pub use census::TurnCensus;
pub use detect::{Alert, AlertKind, DetectorBank, DetectorConfig};
pub use frame::{ChannelWindow, FrameCollector, TelemetryFrame};
pub use heatmap::ChannelHeatmap;
pub use hist::StreamingHistogram;
pub use invariant::{InvariantObserver, InvariantSummary};
pub use trace::RingTrace;

use crate::PacketId;
use turnroute_model::Turn;
use turnroute_topology::{Direction, NodeId, Topology};

/// Why an occupied channel failed to advance a flit this cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StallReason {
    /// The buffered head flit has no output channel yet (all candidates
    /// busy, faulty, or the header is still in its routing delay).
    NotRouted,
    /// An output is assigned but the downstream buffer never vacated
    /// (includes flits caught in a dependency cycle).
    Backpressure,
}

/// One transition of the online reconfiguration protocol (`turnheal`).
///
/// The engine itself never emits these — the healing driver
/// (`turnroute-analysis`'s `heal` module) fires them as [`Event::Heal`]
/// on the simulation's observer so every
/// reconfiguration decision lands in the same event stream as the flit
/// traffic it reacts to, in deterministic order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HealEvent {
    /// A fault transition opened reconfiguration epoch `epoch`;
    /// `transitions` counts the channel up/down edges folded into it.
    EpochOpen {
        /// Epoch index (0 is the initial fault-free epoch).
        epoch: u32,
        /// Fault transitions that triggered the epoch.
        transitions: u32,
    },
    /// The re-proof of the epoch's masked channel graph finished.
    Proof {
        /// Epoch the proof belongs to.
        epoch: u32,
        /// Simulated proof latency in cycles (a deterministic function
        /// of the proof work, so same-seed logs stay byte-identical).
        latency: u64,
        /// Whether the incremental numbering repair sufficed (`false`
        /// means the full prover ran).
        incremental: bool,
        /// The verdict: acyclic (safe to swap) or cyclic (quarantine).
        acyclic: bool,
    },
    /// The independent checker validated the epoch's certificate.
    Certificate {
        /// Epoch the certificate covers.
        epoch: u32,
        /// FNV-1a-64 hash of the canonical certificate rendering.
        hash: u64,
    },
    /// Routing switched to the epoch's newly certified masked relation.
    TableSwap {
        /// Epoch whose relation is now live.
        epoch: u32,
    },
    /// A channel entered or left quarantine (escape-path-only mode).
    Quarantine {
        /// Epoch that changed the channel's status.
        epoch: u32,
        /// The quarantined channel slot.
        slot: u32,
        /// `true` = quarantined, `false` = released.
        on: bool,
    },
}

/// Where one delivered packet's latency went, cycle by cycle.
///
/// The engine maintains the decomposition so the four components sum to
/// the packet's total latency *exactly* — an identity the sanitizer
/// ([`InvariantObserver`]) re-derives from the raw hook stream and
/// asserts on every delivery:
///
/// * `queue_cycles` — creation to injection start: time spent waiting in
///   the source processor's queue (retried attempts fold in here, since a
///   retry re-queues the packet).
/// * `blocked_cycles` — network cycles in which *no* flit of the packet
///   moved: the worm was stalled behind busy channels or credit
///   starvation.
/// * `service_cycles` — network cycles in which at least one flit moved
///   along a productive reservation: the useful pipeline transfer time.
/// * `misroute_cycles` — network cycles in which the header advanced
///   through a channel granted *non-productively* (a misroute): the
///   detour penalty.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PacketBlame {
    /// Creation to injection start (source-queue wait).
    pub queue_cycles: u64,
    /// In-network cycles where no flit of the packet moved.
    pub blocked_cycles: u64,
    /// In-network cycles with productive flit movement.
    pub service_cycles: u64,
    /// In-network cycles whose header movement was a misroute detour.
    pub misroute_cycles: u64,
}

impl PacketBlame {
    /// The components' sum — by the blame identity, the packet's total
    /// latency (creation to tail consumption) in cycles.
    pub fn total(&self) -> u64 {
        self.queue_cycles + self.blocked_cycles + self.service_cycles + self.misroute_cycles
    }
}

/// One thing that happened in a simulation: the single vocabulary the
/// engine, the healing driver, every collector, the TTRL log and replay
/// share. The cycle it happened at travels beside it
/// ([`SimObserver::on_event`]'s `now`).
///
/// The engine fires the first thirteen kinds; [`Event::Heal`] comes from
/// the healing driver, and [`Event::Frame`] / [`Event::Alert`] from
/// frame-aware drivers (the obslog recorder's embedded
/// [`FrameCollector`], or replay re-dispatching recorded ones).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event<'a> {
    /// A packet started streaming into its source's injection buffer.
    Inject {
        /// The packet.
        packet: PacketId,
        /// Its source node.
        src: NodeId,
        /// Its destination node.
        dst: NodeId,
        /// Its length in flits.
        len: u32,
    },
    /// A flit entered the network from the processor side: it was pushed
    /// into injection buffer `slot`. Fired once per flit (unlike
    /// [`Event::Inject`], once per packet), so a collector that counts
    /// these sees every flit the engine ever owns.
    FlitSource {
        /// The injection slot.
        slot: usize,
        /// The flit's packet.
        packet: PacketId,
        /// Whether this was the tail flit.
        is_tail: bool,
    },
    /// A flit moved from channel `from` into channel `to`'s buffer.
    FlitAdvance {
        /// Source channel slot.
        from: usize,
        /// Destination channel slot; `None` = consumed at its
        /// destination's ejection buffer.
        to: Option<usize>,
        /// The flit's packet.
        packet: PacketId,
        /// Whether this was the tail flit.
        is_tail: bool,
    },
    /// A header reserved an output channel, turning from its arrival
    /// direction. Not fired for injections (no arrival direction).
    Turn {
        /// The packet.
        packet: PacketId,
        /// Router where the turn happened.
        at: NodeId,
        /// The turn taken.
        turn: Turn,
    },
    /// A header reserved an unproductive (nonminimal) output channel.
    Misroute {
        /// The packet.
        packet: PacketId,
        /// Router where the misroute happened.
        at: NodeId,
        /// The unproductive direction taken.
        dir: Direction,
    },
    /// An occupied channel advanced nothing this cycle.
    Stall {
        /// The occupied channel slot.
        slot: usize,
        /// Packet whose flit sits at the buffer's front.
        packet: PacketId,
        /// Why nothing moved.
        reason: StallReason,
    },
    /// A packet's tail flit was consumed at its destination.
    Deliver {
        /// The packet.
        packet: PacketId,
        /// Creation-to-consumption latency in cycles.
        latency: u64,
        /// Network hops taken.
        hops: u32,
    },
    /// A delivered packet's latency decomposition. Fired immediately
    /// after the packet's [`Event::Deliver`], at the same cycle;
    /// `blame.total()` equals that delivery's latency.
    Blame {
        /// The packet.
        packet: PacketId,
        /// Where its latency went.
        blame: PacketBlame,
    },
    /// A scheduled fault changed a channel's state. Fired once per
    /// affected channel slot (a node fault fires for every incident
    /// channel).
    Fault {
        /// The affected channel slot.
        slot: usize,
        /// `true` = just failed, `false` = healed.
        active: bool,
    },
    /// A packet was purged after exhausting its lifetime and retries.
    Drop {
        /// The packet.
        packet: PacketId,
        /// Delivery was impossible (its source or destination router was
        /// down); otherwise it timed out while routable.
        unroutable: bool,
    },
    /// Every flit of `packet` was just removed from the network (lifetime
    /// expiry). Fired for both retried and dropped packets, *before* the
    /// corresponding [`Event::Drop`] if the packet is dropped —
    /// conservation-checking collectors reconcile their shadow state here.
    Purge {
        /// The packet.
        packet: PacketId,
    },
    /// The engine finished every phase of the cycle. Collectors that
    /// maintain per-cycle invariants (conservation, occupancy) audit them
    /// here, when the network state is quiescent.
    CycleEnd,
    /// Deadlock detection tripped; the snapshot holds the frozen
    /// waits-for graph and channel occupancy.
    Deadlock(&'a DeadlockSnapshot),
    /// The online reconfiguration engine made a protocol transition.
    Heal(HealEvent),
    /// A windowed telemetry frame was sealed.
    Frame(&'a TelemetryFrame),
    /// An early-warning detector tripped over the frame stream.
    Alert(&'a Alert),
}

/// Receives every [`Event`] of a run, in the order it happened.
///
/// `ENABLED` gates the call sites: when `false` (the [`NoopObserver`])
/// the instrumentation compiles away entirely.
pub trait SimObserver {
    /// Whether the engine should build and fire events at all.
    const ENABLED: bool = true;

    /// `ev` happened at cycle `now`. The default ignores it, so a
    /// collector matches only the kinds it needs.
    fn on_event(&mut self, _now: u64, _ev: &Event<'_>) {}

    /// Driver-side entry point for [`Event::Frame`] — the engine never
    /// fires it; whoever seals frames hands them over through this.
    fn on_frame(&mut self, now: u64, frame: &TelemetryFrame) {
        self.on_event(now, &Event::Frame(frame));
    }

    /// Driver-side entry point for [`Event::Alert`], like
    /// [`SimObserver::on_frame`].
    fn on_alert(&mut self, now: u64, alert: &Alert) {
        self.on_event(now, &Event::Alert(alert));
    }
}

/// The default do-nothing observer; `ENABLED = false` removes every event
/// from the compiled engine.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopObserver;

impl SimObserver for NoopObserver {
    const ENABLED: bool = false;
}

/// Two observers side by side, both receiving every event.
impl<A: SimObserver, B: SimObserver> SimObserver for (A, B) {
    const ENABLED: bool = A::ENABLED || B::ENABLED;

    #[inline]
    fn on_event(&mut self, now: u64, ev: &Event<'_>) {
        self.0.on_event(now, ev);
        self.1.on_event(now, ev);
    }
}

/// The engine's channel-slot numbering, decoupled from the engine so
/// collectors can decode slots on their own: network slots are
/// `node * 2 * num_dims + dir.index()`, then one injection slot per node,
/// then one ejection slot per node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChannelLayout {
    /// Nodes in the topology.
    pub num_nodes: usize,
    /// Dimensions of the topology (2 directions each).
    pub num_dims: usize,
    /// First injection slot == number of network slots.
    pub inj_base: usize,
    /// First ejection slot.
    pub ej_base: usize,
    /// Total slots (network + injection + ejection).
    pub num_channels: usize,
}

impl ChannelLayout {
    /// Layout for a topology with `num_nodes` nodes and `num_dims`
    /// dimensions.
    pub fn new(num_nodes: usize, num_dims: usize) -> ChannelLayout {
        let inj_base = num_nodes * 2 * num_dims;
        let ej_base = inj_base + num_nodes;
        ChannelLayout {
            num_nodes,
            num_dims,
            inj_base,
            ej_base,
            num_channels: ej_base + num_nodes,
        }
    }

    /// Layout matching what the engine builds for `topo`.
    pub fn for_topology(topo: &dyn Topology) -> ChannelLayout {
        ChannelLayout::new(topo.num_nodes(), topo.num_dims())
    }

    /// Whether `slot` is an injection slot.
    pub fn is_injection(&self, slot: usize) -> bool {
        (self.inj_base..self.ej_base).contains(&slot)
    }

    /// Whether `slot` is an ejection slot.
    pub fn is_ejection(&self, slot: usize) -> bool {
        slot >= self.ej_base
    }

    /// The node whose router the slot belongs to: the channel's *source*
    /// node for network slots, the local node for injection/ejection.
    pub fn node_of(&self, slot: usize) -> NodeId {
        if slot >= self.inj_base {
            NodeId(((slot - self.inj_base) % self.num_nodes) as u32)
        } else {
            NodeId((slot / (2 * self.num_dims)) as u32)
        }
    }

    /// The direction of a network slot (`None` for injection/ejection).
    pub fn dir_of(&self, slot: usize) -> Option<Direction> {
        if slot >= self.inj_base {
            None
        } else {
            Some(Direction::from_index(slot % (2 * self.num_dims)))
        }
    }

    /// Human-readable slot name, e.g. `"n12>E"`, `"inj n3"`, `"ej n3"`.
    pub fn describe(&self, slot: usize) -> String {
        if self.is_ejection(slot) {
            format!("ej n{}", slot - self.ej_base)
        } else if self.is_injection(slot) {
            format!("inj n{}", slot - self.inj_base)
        } else {
            format!(
                "n{}>{}",
                self.node_of(slot).0,
                Direction::from_index(slot % (2 * self.num_dims))
            )
        }
    }
}

/// One blocked channel in a frozen deadlock: who occupies it and which
/// channel it is waiting on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WaitEdge {
    /// The occupied channel slot.
    pub channel: usize,
    /// Packet whose flit sits at the buffer's front.
    pub packet: u32,
    /// Flits buffered in this channel.
    pub buffered: usize,
    /// Whether the front flit is an (unrouted or blocked) header.
    pub head_waiting: bool,
    /// The output channel this worm is bound to, if routed.
    pub waits_for: Option<usize>,
}

/// Frozen waits-for graph and channel occupancy, captured when deadlock
/// detection trips.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeadlockSnapshot {
    /// Cycle at which the snapshot was taken.
    pub now: u64,
    /// Slot numbering used by `edges`.
    pub layout: ChannelLayout,
    /// One edge per occupied channel.
    pub edges: Vec<WaitEdge>,
}

impl DeadlockSnapshot {
    /// The snapshot as one JSON object (used as the last line of a
    /// postmortem dump).
    pub fn to_json(&self) -> String {
        let mut edges = String::new();
        for (i, e) in self.edges.iter().enumerate() {
            if i > 0 {
                edges.push(',');
            }
            edges.push_str(&format!(
                "{{\"channel\":{},\"name\":{},\"packet\":{},\"buffered\":{},\"head_waiting\":{},\"waits_for\":{}}}",
                e.channel,
                json::string(&self.layout.describe(e.channel)),
                e.packet,
                e.buffered,
                e.head_waiting,
                match e.waits_for {
                    Some(w) => w.to_string(),
                    None => "null".into(),
                },
            ));
        }
        format!(
            "{{\"event\":\"deadlock_snapshot\",\"cycle\":{},\"occupied_channels\":{},\"edges\":[{}]}}",
            self.now,
            self.edges.len(),
            edges
        )
    }

    /// Channels that form circular waits (slots on some cycle of the
    /// waits-for graph) — the actual deadlocked worms, as opposed to
    /// traffic merely blocked behind them.
    pub fn cycle_channels(&self) -> Vec<usize> {
        // waits_for is a partial function: each node has at most one
        // outgoing edge, so every cycle is reachable by pointer chasing.
        let mut next = vec![usize::MAX; self.layout.num_channels];
        for e in &self.edges {
            if let Some(w) = e.waits_for {
                next[e.channel] = w;
            }
        }
        let mut on_cycle = vec![false; self.layout.num_channels];
        let mut mark = vec![0u32; self.layout.num_channels];
        let mut pass = 0u32;
        for e in &self.edges {
            pass += 1;
            let mut c = e.channel;
            // Walk until we leave the graph, hit an earlier pass, or
            // revisit this pass's own path (a new cycle).
            while c != usize::MAX && mark[c] == 0 {
                mark[c] = pass;
                c = next[c];
            }
            if c != usize::MAX && mark[c] == pass {
                // Found a fresh cycle: walk it once more to mark members.
                let start = c;
                loop {
                    on_cycle[c] = true;
                    c = next[c];
                    if c == start {
                        break;
                    }
                }
            }
        }
        (0..self.layout.num_channels)
            .filter(|&c| on_cycle[c])
            .collect()
    }
}

/// Everything-on collector bundle: per-channel heatmap, turn census, and
/// a ring-buffer event trace with deadlock postmortem.
#[derive(Debug, Clone)]
pub struct Telemetry {
    /// Per-channel load and stall-attribution heatmap.
    pub heatmap: ChannelHeatmap,
    /// Counts of turns taken, by direction pair.
    pub census: TurnCensus,
    /// Bounded event trace; dumps a JSONL postmortem after deadlock.
    pub trace: RingTrace,
}

impl Telemetry {
    /// Default trace depth (events kept for the postmortem).
    pub const DEFAULT_TRACE_DEPTH: usize = 256;

    /// Collectors sized for `topo`.
    pub fn new(topo: &dyn Topology) -> Telemetry {
        let layout = ChannelLayout::for_topology(topo);
        Telemetry {
            heatmap: ChannelHeatmap::new(layout),
            census: TurnCensus::new(topo.num_dims()),
            trace: RingTrace::new(Self::DEFAULT_TRACE_DEPTH),
        }
    }

    /// The combined collector state as one JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"channels\":{},\"turns\":{}}}",
            self.heatmap.to_json(),
            self.census.to_json()
        )
    }
}

impl SimObserver for Telemetry {
    #[inline]
    fn on_event(&mut self, now: u64, ev: &Event<'_>) {
        self.heatmap.on_event(now, ev);
        self.census.on_event(now, ev);
        self.trace.on_event(now, ev);
    }
}

/// Test shorthand: build one [`Event`] from plain operands and fire it.
#[cfg(test)]
pub(crate) mod fire {
    use super::*;

    pub fn inject(o: &mut impl SimObserver, now: u64, packet: u32, src: u32, dst: u32, len: u32) {
        let (packet, src, dst) = (PacketId(packet), NodeId(src), NodeId(dst));
        o.on_event(
            now,
            &Event::Inject {
                packet,
                src,
                dst,
                len,
            },
        );
    }

    pub fn flit_source(o: &mut impl SimObserver, now: u64, slot: usize, packet: u32, tail: bool) {
        let (packet, is_tail) = (PacketId(packet), tail);
        o.on_event(
            now,
            &Event::FlitSource {
                slot,
                packet,
                is_tail,
            },
        );
    }

    pub fn advance(
        o: &mut impl SimObserver,
        now: u64,
        from: usize,
        to: Option<usize>,
        packet: u32,
        is_tail: bool,
    ) {
        let packet = PacketId(packet);
        o.on_event(
            now,
            &Event::FlitAdvance {
                from,
                to,
                packet,
                is_tail,
            },
        );
    }

    pub fn turn(o: &mut impl SimObserver, now: u64, packet: u32, from: Direction, to: Direction) {
        let (packet, at, turn) = (PacketId(packet), NodeId(0), Turn::new(from, to));
        o.on_event(now, &Event::Turn { packet, at, turn });
    }

    pub fn stall(
        o: &mut impl SimObserver,
        now: u64,
        slot: usize,
        packet: u32,
        reason: StallReason,
    ) {
        let packet = PacketId(packet);
        o.on_event(
            now,
            &Event::Stall {
                slot,
                packet,
                reason,
            },
        );
    }

    pub fn deliver(o: &mut impl SimObserver, now: u64, packet: u32, latency: u64, hops: u32) {
        let packet = PacketId(packet);
        o.on_event(
            now,
            &Event::Deliver {
                packet,
                latency,
                hops,
            },
        );
    }

    pub fn blame(o: &mut impl SimObserver, now: u64, packet: u32, blame: PacketBlame) {
        let packet = PacketId(packet);
        o.on_event(now, &Event::Blame { packet, blame });
    }

    pub fn cycle_ends(o: &mut impl SimObserver, cycles: std::ops::Range<u64>) {
        for now in cycles {
            o.on_event(now, &Event::CycleEnd);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_decodes_slots() {
        // 2x2 mesh: 4 nodes, 2 dims -> 16 network slots, inj 16..20,
        // ej 20..24.
        let l = ChannelLayout::new(4, 2);
        assert_eq!(l.inj_base, 16);
        assert_eq!(l.ej_base, 20);
        assert_eq!(l.num_channels, 24);
        assert_eq!(l.node_of(5), NodeId(1));
        assert_eq!(l.dir_of(5), Some(Direction::from_index(1)));
        assert!(l.is_injection(17) && !l.is_injection(21));
        assert!(l.is_ejection(21) && !l.is_ejection(17));
        assert_eq!(l.node_of(17), NodeId(1));
        assert_eq!(l.node_of(21), NodeId(1));
        assert_eq!(l.dir_of(17), None);
        assert_eq!(l.describe(17), "inj n1");
        assert_eq!(l.describe(21), "ej n1");
        assert!(l.describe(5).starts_with("n1>"));
    }

    #[test]
    fn snapshot_finds_circular_wait() {
        // 0 -> 1 -> 2 -> 0 is a cycle; 3 -> 0 is blocked traffic behind it.
        let layout = ChannelLayout::new(4, 1);
        let edge = |c: usize, w: Option<usize>| WaitEdge {
            channel: c,
            packet: c as u32,
            buffered: 1,
            head_waiting: w.is_none(),
            waits_for: w,
        };
        let snap = DeadlockSnapshot {
            now: 99,
            layout,
            edges: vec![
                edge(0, Some(1)),
                edge(1, Some(2)),
                edge(2, Some(0)),
                edge(3, Some(0)),
            ],
        };
        assert_eq!(snap.cycle_channels(), vec![0, 1, 2]);
        let j = snap.to_json();
        assert!(j.contains("\"cycle\":99"), "{j}");
        assert!(json::validate(&j), "snapshot JSON must parse: {j}");
    }

    #[test]
    #[allow(clippy::assertions_on_constants)]
    fn noop_is_disabled_and_tuples_or_enabled() {
        assert!(!NoopObserver::ENABLED);
        assert!(!<(NoopObserver, NoopObserver)>::ENABLED);
        assert!(<(TurnCensus, NoopObserver)>::ENABLED);
    }
}
