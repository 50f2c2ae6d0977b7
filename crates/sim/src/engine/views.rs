//! What the engine shows of itself: accessors, the report, the deadlock
//! snapshot, [`Engine::snapshot`] / [`Engine::restore`], and the model
//! checker's views of the state.

use super::arbitrate::RouteDecision;
use super::{Engine, SimSnapshot, NONE_U32};
use crate::lanes::{Candidate, Lanes};
use crate::obs::{ChannelLayout, DeadlockSnapshot, SimObserver, StreamingHistogram, WaitEdge};
use crate::{OutputPolicy, Packet, PacketId, RunTermination, SimReport};
use std::ops::Range;
use turnroute_topology::{Direction, NodeId};

impl<'a, L: Lanes<'a>, O: SimObserver> Engine<'a, L, O> {
    /// The current cycle.
    pub fn now(&self) -> u64 {
        self.state.now
    }

    /// Whether deadlock was detected.
    pub fn deadlocked(&self) -> bool {
        self.state.deadlocked
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
        &self.state.packets
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
    pub(super) fn link_slots(&self, node: NodeId, dir: Direction) -> Range<usize> {
        let first = self.topo.channel_slot(node, dir) * self.lanes_per_link;
        first..first + self.lanes_per_link
    }

    /// Flits that crossed the physical link leaving `node` in `dir`
    /// during the measurement window. Zero for nonexistent channels.
    pub fn channel_load(&self, node: NodeId, dir: Direction) -> u64 {
        self.state.channel_flits[self.link_slots(node, dir)]
            .iter()
            .sum()
    }

    /// The heaviest per-channel flit count observed during the
    /// measurement window, over network channels only.
    pub fn max_channel_load(&self) -> u64 {
        self.state.channel_flits[..self.inj_base]
            .iter()
            .copied()
            .max()
            .unwrap_or(0)
    }

    /// Total flits that crossed network channels during the measurement
    /// window (the network's transferred volume; equals Σ hops over the
    /// window's flits when traffic is in steady state).
    pub fn total_channel_flits(&self) -> u64 {
        self.state.channel_flits[..self.inj_base].iter().sum()
    }

    /// The node path a packet's header has taken so far (source
    /// included). Empty unless the run was configured with
    /// [`crate::SimConfig::record_paths`].
    pub fn packet_path(&self, id: PacketId) -> &[NodeId] {
        if self.cfg.record_paths {
            &self.state.paths[id.index()]
        } else {
            &[]
        }
    }

    /// Streaming histogram of total latencies (creation to tail
    /// consumption) of delivered packets created in the measurement
    /// window — the distribution the report's quantiles come from.
    pub fn latency_histogram(&self) -> StreamingHistogram {
        let s = &self.state;
        let mut hist = StreamingHistogram::new();
        for p in s.packets.iter().filter(|p| s.in_window(p.created)) {
            if let Some(lat) = p.latency() {
                hist.record(lat);
            }
        }
        hist
    }

    /// Build a report summarizing packets created in the measurement
    /// window.
    pub fn report(&self) -> SimReport {
        let s = &self.state;
        let (ms, me) = s.window;
        let hist = self.latency_histogram();
        let mut network_sum = 0u64;
        let mut hops_sum = 0u64;
        let mut misroute_sum = 0u64;
        for p in s.packets.iter().filter(|p| s.in_window(p.created)) {
            if let Some(lat) = p.latency() {
                network_sum += p.network_latency().unwrap_or(lat);
                hops_sum += u64::from(p.hops);
                misroute_sum += u64::from(p.misroutes);
            }
        }
        let delivered = hist.count();
        let avg = |sum: u64, n: u64| if n == 0 { 0.0 } else { sum as f64 / n as f64 };
        SimReport {
            generated_packets: s.generated_packets,
            generated_flits: s.generated_flits,
            delivered_packets: delivered,
            delivered_flits_in_window: s.delivered_flits_in_window,
            measure_cycles: me.saturating_sub(ms),
            avg_latency_cycles: hist.mean(),
            p50_latency_cycles: hist.p50() as f64,
            p90_latency_cycles: hist.p90() as f64,
            p99_latency_cycles: hist.p99() as f64,
            max_latency_cycles: hist.max(),
            avg_network_latency_cycles: avg(network_sum, delivered),
            avg_hops: avg(hops_sum, delivered),
            avg_misroutes: avg(misroute_sum, delivered),
            blame: s.blame,
            total_stall_cycles: s.total_stall_cycles,
            queued_at_end: s.queues.iter().map(|q| q.len() as u64).sum(),
            max_queue_len: s.max_queue_len,
            dropped_packets: s.dropped_packets,
            unroutable_packets: s.unroutable_packets,
            retries: s.total_retries,
            deadlocked: s.deadlocked,
            termination: if s.deadlocked {
                RunTermination::Deadlock
            } else if s.generated_packets > delivered + s.dropped_packets + s.unroutable_packets {
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
            end_cycle: s.now,
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
        let s = &self.state;
        let mut edges = Vec::new();
        let mut candidates = Vec::new();
        for c in 0..self.num_channels {
            let Some(front) = s.buf.front(c) else {
                continue;
            };
            let waits_for = if c >= self.ej_base {
                None
            } else if s.assigned_out[c] != NONE_U32 {
                Some(s.assigned_out[c] as usize)
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
                buffered: s.buf.len(c),
                head_waiting: front.is_head,
                waits_for,
            });
        }
        DeadlockSnapshot {
            now: s.now,
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

    /// Capture the engine's complete mutable state.
    ///
    /// See [`SimSnapshot`] for the boundary. Restoring the snapshot into
    /// the same (or an identically-shaped) simulation with
    /// [`Engine::restore`] resumes execution bit-for-bit: same RNG stream,
    /// same arbitration outcomes, same report.
    pub fn snapshot(&self) -> SimSnapshot {
        self.state.clone()
    }

    /// Restore state captured by [`Engine::snapshot`], reusing this
    /// engine's allocations. The observer is not rewound — see
    /// [`SimSnapshot`] for the boundary.
    ///
    /// # Panics
    ///
    /// Panics if the snapshot came from a differently-shaped network
    /// (different channel or node count, or different buffer depth).
    pub fn restore(&mut self, snap: &SimSnapshot) {
        let shape = |s: &SimSnapshot| (s.owner.len(), s.queues.len(), s.buf.depth());
        let same = shape(snap) == shape(&self.state);
        assert!(same, "snapshot from a different network shape");
        self.state.clone_from(snap);
        self.derived.rewound();
    }

    /// Total channel slots: network channels, then one injection and one
    /// ejection channel per node (same numbering as
    /// [`crate::obs::ChannelLayout`]).
    pub fn num_slots(&self) -> usize {
        self.num_channels
    }

    /// The packet whose worm currently owns `slot`, if any.
    pub fn slot_owner(&self, slot: usize) -> Option<u32> {
        (self.state.owner[slot] != NONE_U32).then_some(self.state.owner[slot])
    }

    /// The output slot the worm crossing input `slot` is bound to, if
    /// routed.
    pub fn slot_binding(&self, slot: usize) -> Option<usize> {
        let out = self.state.assigned_out[slot];
        (out != NONE_U32).then_some(out as usize)
    }

    /// The flits buffered at `slot`, front first, as
    /// `(packet, is_head, is_tail)`.
    pub fn slot_flits(&self, slot: usize) -> impl Iterator<Item = (u32, bool, bool)> + '_ {
        self.state
            .buf
            .queued(slot)
            .iter()
            .map(|f| (f.packet, f.is_head, f.is_tail))
    }

    /// Packets queued at `node`'s source, front first.
    pub fn source_queue(&self, node: usize) -> impl Iterator<Item = u32> + '_ {
        self.state.queues[node].iter().copied()
    }

    /// The packet currently streaming into `node`'s injection channel and
    /// how many of its flits have been emitted.
    pub fn source_emitting(&self, node: usize) -> Option<(u32, u32)> {
        self.state.emitting[node].map(|e| (e.packet, e.sent))
    }
}
