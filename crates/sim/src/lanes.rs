//! Lane adapters: what the wormhole core is told about a network.
//!
//! The paper's Section 7 treats virtual channels as lanes that share a
//! physical channel and split its bandwidth. The engine takes that
//! literally: every physical link carries `lanes_per_link` channel
//! slots, and everything that differs between "one channel per link" and
//! "several virtual channels per link" sits behind the [`Lanes`] trait —
//! which lanes exist, which outputs a head may take, and how one is
//! selected. Buffers, worms, faults, expiry, traversal, measurement and
//! snapshots are the engine's and exist once.
//!
//! # Slot numbering
//!
//! Network slots are link-major: the lanes of the link leaving `node` in
//! `dir` are the `lanes_per_link` consecutive slots starting at
//! `topo.channel_slot(node, dir) * lanes_per_link`. One injection and one
//! ejection slot per node follow, as in
//! [`ChannelLayout`](crate::obs::ChannelLayout).

use crate::OutputPolicy;
use turnroute_model::{degraded_route, RoutingFunction, TurnSet};
use turnroute_topology::{Direction, NodeId, Topology};

/// One output a waiting head may acquire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Candidate {
    /// Physical direction of the output link.
    pub dir: Direction,
    /// The output lane's slot.
    pub slot: usize,
    /// Whether taking it brings the packet closer to its destination.
    pub productive: bool,
}

/// The most lanes a physical link carries under any adapter (a
/// virtual-channel class is a `u8`). The engine asserts it, so with the
/// node and dimension counts it bounds every slot an engine can number —
/// which is what lets log replay reject a slot no engine could have
/// written ([`ChannelLayout::new`](crate::obs::ChannelLayout::new) over
/// `num_dims * MAX_LANES_PER_LINK`).
pub const MAX_LANES_PER_LINK: usize = 256;

/// The network description one engine instantiation runs over.
///
/// `'a` is the lifetime of the borrowed topology and routing function;
/// the adapter names their types so that one generic constructor serves
/// every instantiation.
pub trait Lanes<'a>: Sized {
    /// Whether a link can carry more than one lane, so that lanes compete
    /// for the link's one flit per cycle. A compile-time fact of the
    /// adapter, not an option: the one-lane instantiation compiles the
    /// bandwidth arbiter (and its per-slot link table) away.
    const SHARED_LINKS: bool;
    /// The topology the adapter is built over.
    type Topo: ?Sized + 'a;
    /// The routing function the adapter consults.
    type Routing: ?Sized + 'a;

    /// Bind the adapter to its network.
    fn new(topo: &'a Self::Topo, routing: &'a Self::Routing) -> Self;
    /// The physical topology (nodes, neighbors, link numbering).
    fn topology(&self) -> &'a dyn Topology;
    /// Name of the routing function, for `Debug` output.
    fn routing_name(&self) -> &str;
    /// Whether the routing function offers only shortest-path moves (the
    /// misroute budget applies only when it does not).
    fn is_minimal(&self) -> bool;
    /// Slots per physical link; `1` unless [`Lanes::SHARED_LINKS`], and
    /// never more than [`MAX_LANES_PER_LINK`].
    fn lanes_per_link(&self) -> usize;
    /// Whether links in direction `dir` carry lane number `lane` (the
    /// link itself existing is the topology's business).
    fn lane_exists(&self, dir: Direction, lane: usize) -> bool;
    /// The physical direction a head buffered at network `slot` arrived
    /// in, for the `Turn` event; `None` if the adapter has no turn
    /// notion over physical directions.
    fn turn_dir(&self, slot: usize) -> Option<Direction>;
    /// Append, in preference order, every output the head at router `at`
    /// bound for `dst` may take, having arrived on network slot `arrived`
    /// (`None` at injection). Only existing lanes for which `usable`
    /// holds are offered; `faults_possible` tells the adapter that lanes
    /// may be unusable, so any degraded-mode routing discipline applies.
    ///
    /// Pure in its arguments and the `usable` mask: the engine memoises
    /// the offer per waiting head (slot and productive bit; `dir` must be
    /// the physical direction of `slot`'s link) and asks again only after
    /// the mask or `faults_possible` changed.
    fn candidates(
        &self,
        at: NodeId,
        dst: NodeId,
        arrived: Option<usize>,
        faults_possible: bool,
        usable: impl Fn(usize) -> bool,
        out: &mut Vec<Candidate>,
    );
    /// The adapter's output selection among `candidates`: `Some` is its
    /// deterministic pick (`None` only when `candidates` is empty),
    /// `None` on a nonempty list asks the engine for a uniform draw from
    /// the run RNG.
    fn select(&self, candidates: &[Candidate], policy: OutputPolicy) -> Option<Candidate>;
}

/// The paper's network: one channel per physical link of any
/// [`Topology`], routed by a [`RoutingFunction`] over physical
/// directions, output selection by [`OutputPolicy`].
pub struct SingleLane<'a> {
    topo: &'a dyn Topology,
    routing: &'a dyn RoutingFunction,
    /// The routing function's declared turn set, which
    /// [`degraded_route`] keeps every output inside once faults are
    /// possible.
    turn_filter: Option<TurnSet>,
}

impl<'a> Lanes<'a> for SingleLane<'a> {
    const SHARED_LINKS: bool = false;
    type Topo = dyn Topology + 'a;
    type Routing = dyn RoutingFunction + 'a;

    fn new(topo: &'a Self::Topo, routing: &'a Self::Routing) -> Self {
        SingleLane {
            topo,
            routing,
            turn_filter: routing.turn_set(topo.num_dims()),
        }
    }

    fn topology(&self) -> &'a dyn Topology {
        self.topo
    }

    fn routing_name(&self) -> &str {
        self.routing.name()
    }

    fn is_minimal(&self) -> bool {
        self.routing.is_minimal()
    }

    fn lanes_per_link(&self) -> usize {
        1
    }

    fn lane_exists(&self, _dir: Direction, _lane: usize) -> bool {
        true
    }

    fn turn_dir(&self, slot: usize) -> Option<Direction> {
        Some(Direction::from_index(slot % (2 * self.topo.num_dims())))
    }

    fn candidates(
        &self,
        at: NodeId,
        dst: NodeId,
        arrived: Option<usize>,
        faults_possible: bool,
        usable: impl Fn(usize) -> bool,
        out: &mut Vec<Candidate>,
    ) {
        let arrived = arrived.and_then(|slot| self.turn_dir(slot));
        // Under faults the offer is the degraded-mode relation — the very
        // function the healing certificates are extracted from. Fault-free
        // runs skip it entirely.
        let dirs = if faults_possible {
            let (routing, turns, topo) = (self.routing, self.turn_filter.as_ref(), self.topo);
            degraded_route(routing, turns, topo, at, dst, arrived, |dir| {
                topo.neighbor(at, dir).is_some() && usable(topo.channel_slot(at, dir))
            })
        } else {
            self.routing.route(self.topo, at, dst, arrived)
        };
        let here = self.topo.min_hops(at, dst);
        for dir in dirs.iter() {
            let Some(next) = self.topo.neighbor(at, dir) else {
                continue;
            };
            let slot = self.topo.channel_slot(at, dir);
            if usable(slot) {
                out.push(Candidate {
                    dir,
                    slot,
                    productive: self.topo.min_hops(next, dst) < here,
                });
            }
        }
    }

    fn select(&self, candidates: &[Candidate], policy: OutputPolicy) -> Option<Candidate> {
        let by_dim = candidates.iter().copied();
        match policy {
            OutputPolicy::LowestDim => by_dim.min_by_key(|k| k.dir.index()),
            OutputPolicy::HighestDim => by_dim.max_by_key(|k| k.dir.index()),
            OutputPolicy::Random => None,
        }
    }
}
