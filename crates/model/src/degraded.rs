//! Degraded-mode routing: the one rule for routing around failures.
//!
//! The paper's fault-tolerance claim (Sections 1, 3.3 and 7) is that a
//! packet may be misrouted around a failure *inside the turn set*:
//! whatever it does, it only ever takes allowed turns, so the live channel
//! dependency graph stays a subgraph of the turn set's acyclic graph.
//! [`degraded_route`] is that rule. The simulator's arbitration calls it
//! for every head it routes once faults are possible, and [`FaultMasked`]
//! freezes it over a static [`FaultSet`] so the verifier, the `turnprove`
//! extraction and the healing driver certify the very relation the engine
//! runs.

use crate::{RoutingFunction, TurnSet};
use std::borrow::Borrow;
use turnroute_topology::{DirSet, Direction, FaultSet, NodeId, Topology};

/// The directions a packet at `at`, bound for `dst`, having `arrived`
/// (`None` at injection), may take when some channels are not `healthy`.
///
/// Primary: what `routing` offers, restricted to the `turns` legal from
/// `arrived` and to healthy channels. If that is empty and the algorithm
/// declares a turn set, fallback: *any* turn-legal healthy direction — a
/// misroute around the failure, bounded by the packet's lifetime rather
/// than by a misroute budget. Both are filtered through the turn set
/// because a misrouted packet can reach arrival states its algorithm
/// never produces on a healthy network.
///
/// `healthy` must be false for a direction that leaves the network.
pub fn degraded_route(
    routing: &dyn RoutingFunction,
    turns: Option<&TurnSet>,
    topo: &dyn Topology,
    at: NodeId,
    dst: NodeId,
    arrived: Option<Direction>,
    healthy: impl Fn(Direction) -> bool,
) -> DirSet {
    let legal: DirSet = match turns {
        Some(set) => set.legal_outputs(arrived),
        None => DirSet::all(topo.num_dims()),
    };
    let usable = |dirs: DirSet| -> DirSet { dirs.iter().filter(|&d| healthy(d)).collect() };
    let primary = usable(routing.route(topo, at, dst, arrived).intersection(legal));
    if !primary.is_empty() || turns.is_none() {
        return primary;
    }
    usable(legal)
}

/// A routing function frozen over a static fault pattern: the
/// [`degraded_route`] relation with "healthy" meaning the link and the
/// router it enters are both up in the [`FaultSet`].
///
/// Every direction offered, primary or fallback, is legal under the
/// wrapped algorithm's declared turn set, so the induced CDG is a subgraph
/// of the turn set's CDG and inherits its acyclicity for any fault
/// pattern; [`crate::verifier::verify_under_faults`] checks that
/// mechanically per pattern. States no packet can be in — at a failed
/// router, or having arrived over a failed channel — offer nothing, which
/// keeps their vacuous dependencies out of the graph.
///
/// `R` and `F` may own or borrow: the analyses build
/// `FaultMasked<&dyn RoutingFunction, &FaultSet>`, a caller that wants a
/// self-contained routing function builds `FaultMasked<R, FaultSet>`.
pub struct FaultMasked<R, F = FaultSet> {
    inner: R,
    faults: F,
    turns: Option<TurnSet>,
    name: String,
}

impl<R: RoutingFunction, F: Borrow<FaultSet>> FaultMasked<R, F> {
    /// Mask `inner` by `faults` on `topo`. The turn set is resolved once,
    /// against `topo.num_dims()`.
    pub fn new(inner: R, topo: &dyn Topology, faults: F) -> Self {
        FaultMasked {
            turns: inner.turn_set(topo.num_dims()),
            name: format!("{}+faults", inner.name()),
            inner,
            faults,
        }
    }
}

impl<R: RoutingFunction, F: Borrow<FaultSet>> RoutingFunction for FaultMasked<R, F> {
    fn name(&self) -> &str {
        &self.name
    }

    fn route(
        &self,
        topo: &dyn Topology,
        current: NodeId,
        dest: NodeId,
        arrived: Option<Direction>,
    ) -> DirSet {
        let faults = self.faults.borrow();
        let arrived_over_failed = arrived.is_some_and(|a| {
            topo.neighbor(current, a.opposite())
                .is_none_or(|prev| faults.link_failed(topo.channel_slot(prev, a)))
        });
        if current == dest || faults.node_failed(current) || arrived_over_failed {
            return DirSet::empty();
        }
        let turns = self.turns.as_ref();
        degraded_route(&self.inner, turns, topo, current, dest, arrived, |dir| {
            topo.neighbor(current, dir).is_some_and(|next| {
                !faults.link_failed(topo.channel_slot(current, dir)) && !faults.node_failed(next)
            })
        })
    }

    fn is_minimal(&self) -> bool {
        false // the fallback misroutes
    }

    fn turn_set(&self, num_dims: usize) -> Option<TurnSet> {
        self.inner.turn_set(num_dims)
    }
}
