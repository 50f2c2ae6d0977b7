//! Channel dependency graphs (Dally & Seitz).
//!
//! A routing algorithm is deadlock free if the channels of the network can
//! be numbered so that every packet is routed along strictly decreasing (or
//! increasing) numbers — equivalently, if the *channel dependency graph*
//! (CDG) is acyclic. Vertices are unidirectional channels; there is an edge
//! from channel `c1` to channel `c2` if a packet holding `c1` may next
//! acquire `c2`. This module builds CDGs two ways — from a raw
//! [`TurnSet`] (all moves the turn rules permit) or from a concrete
//! [`RoutingFunction`] (only moves some destination actually induces) — and
//! searches them for cycles.

use crate::depgraph::{self, DepGraph, Lowering};
use crate::{RoutingFunction, TurnSet};
use turnroute_topology::{Channel, ChannelId, Topology};

/// A channel dependency graph over the channels of a topology.
///
/// # Example
///
/// ```
/// use turnroute_model::{Cdg, TurnSet};
/// use turnroute_topology::Mesh;
///
/// let mesh = Mesh::new_2d(4, 4);
/// // With every 90-degree turn allowed the CDG is cyclic (deadlock).
/// let unrestricted = Cdg::from_turn_set(&mesh, &TurnSet::all_ninety(2));
/// assert!(unrestricted.find_cycle().is_some());
/// ```
#[derive(Debug, Clone)]
pub struct Cdg {
    channels: Vec<Channel>,
    graph: DepGraph,
}

impl Cdg {
    /// Build the CDG induced by a turn set: a dependency exists from each
    /// channel into a node to each channel out of that node whenever the
    /// corresponding turn (or straight continuation) is allowed.
    ///
    /// This is the *potential* dependency graph — it assumes a packet might
    /// take any allowed turn, as nonminimal routing permits. Acyclicity
    /// here is the strongest verdict: the turn rules alone prevent
    /// deadlock regardless of destination logic.
    ///
    /// # Panics
    ///
    /// Panics if the turn set's dimensionality differs from the topology's.
    pub fn from_turn_set(topo: &dyn Topology, set: &TurnSet) -> Cdg {
        assert_eq!(
            set.num_dims(),
            topo.num_dims(),
            "turn set dimensionality must match topology"
        );
        let channels = topo.channels();
        let mut slot_to_channel = vec![u32::MAX; topo.channel_slot_count()];
        for ch in &channels {
            slot_to_channel[topo.channel_slot(ch.src(), ch.dir())] = ch.id().0;
        }
        let successors = |ch: &Channel| -> Vec<u32> {
            let legal = set.legal_outputs(Some(ch.dir()));
            let built = legal
                .iter()
                .filter(|&out| topo.neighbor(ch.dst(), out).is_some());
            built
                .map(|out| slot_to_channel[topo.channel_slot(ch.dst(), out)])
                .collect()
        };
        let graph = DepGraph::from_successors(channels.iter().map(successors).collect());
        Cdg { channels, graph }
    }

    /// Build the CDG induced by a routing function: a dependency exists
    /// from `c1` into node `v` to `c2` out of `v` iff *some* destination
    /// makes the routing function offer `c2` to a packet that arrived on
    /// `c1`.
    ///
    /// Only *reachable* states are quantified: for a minimal routing
    /// function, a packet holding `c1` must have found `c1` productive, so
    /// destinations that `c1` does not move toward are excluded.
    pub fn from_routing(topo: &dyn Topology, routing: &dyn RoutingFunction) -> Cdg {
        let graph = Self::lower(topo, routing, false).graph;
        let channels = topo.channels();
        debug_assert_eq!(channels.len(), graph.num_vertices());
        Cdg { channels, graph }
    }

    /// `routing` lowered onto the channels of `topo` by the one walk
    /// ([`depgraph::lower`]), with the route table if `with_routes`; the
    /// channels are exactly [`Topology::channels`]. A channel's
    /// successors are the union of direction sets, so they are put in
    /// direction order, which is channel-id order.
    pub fn lower(
        topo: &dyn Topology,
        routing: &dyn RoutingFunction,
        with_routes: bool,
    ) -> Lowering {
        let mut lowered = depgraph::lower(
            topo,
            1,
            |_, _| true,
            routing.is_minimal(),
            with_routes,
            |at, dest, held, out| {
                let dirs = routing.route(topo, at, dest, held.map(|(dir, _)| dir));
                out.extend(dirs.iter().map(|dir| (dir, 0)));
            },
        );
        lowered.graph.sort_successors();
        lowered
    }

    /// The channels (vertices) of the graph, indexed by channel id.
    pub fn channels(&self) -> &[Channel] {
        &self.channels
    }

    /// The dependency graph itself, vertex `i` being channel id `i`.
    pub fn graph(&self) -> &DepGraph {
        &self.graph
    }

    /// Number of dependency edges.
    pub fn num_edges(&self) -> usize {
        self.graph.num_edges()
    }

    /// The successor channel ids of `channel`.
    pub fn successors(&self, channel: ChannelId) -> &[u32] {
        self.graph.successors(channel.0)
    }

    /// Find a dependency cycle, returning the channels along it (each
    /// waiting on the next, the last waiting on the first), or `None` if
    /// the graph is acyclic — i.e. the routing is deadlock free.
    pub fn find_cycle(&self) -> Option<Vec<ChannelId>> {
        self.graph.find_cycle().map(channel_ids)
    }

    /// Whether the dependency graph is acyclic (deadlock free).
    pub fn is_acyclic(&self) -> bool {
        self.find_cycle().is_none()
    }

    /// Find a *globally minimal* dependency cycle: no cycle in the graph
    /// has fewer channels. Returns `None` iff the graph is acyclic.
    ///
    /// [`Cdg::find_cycle`] returns whatever cycle DFS stumbles into first,
    /// which on a big mesh can thread through dozens of channels; a
    /// shortest cycle is the witness a human can actually read. The
    /// shortest cycle through every vertex in ascending order, the first
    /// of the shortest winning; deterministic, so the same graph always
    /// yields the same witness. Format matches `find_cycle`.
    pub fn find_shortest_cycle(&self) -> Option<Vec<ChannelId>> {
        let all = 0..self.channels.len() as u32;
        self.graph.shortest_cycle_among(all).map(channel_ids)
    }
}

fn channel_ids(cycle: Vec<u32>) -> Vec<ChannelId> {
    cycle.into_iter().map(ChannelId).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;
    use turnroute_topology::Mesh;

    #[test]
    fn unrestricted_2d_mesh_is_cyclic() {
        let mesh = Mesh::new_2d(3, 3);
        let cdg = Cdg::from_turn_set(&mesh, &TurnSet::all_ninety(2));
        let cycle = cdg.find_cycle().expect("unrestricted turns deadlock");
        // Witness is a real cycle: each channel's successor list contains
        // the next channel.
        for (i, &c) in cycle.iter().enumerate() {
            let next = cycle[(i + 1) % cycle.len()];
            assert!(cdg.successors(c).contains(&next.0));
        }
        assert!(!cdg.is_acyclic());
    }

    #[test]
    fn named_turn_sets_are_acyclic() {
        let mesh = Mesh::new_2d(5, 4);
        assert!(Cdg::from_turn_set(&mesh, &presets::xy_turns()).is_acyclic());
        assert!(Cdg::from_turn_set(&mesh, &presets::west_first_turns()).is_acyclic());
        let mesh = Mesh::new(vec![3, 3, 3]);
        assert!(Cdg::from_turn_set(&mesh, &presets::negative_first_turns(3)).is_acyclic());
    }

    #[test]
    fn shortest_cycle_of_the_unrestricted_mesh_is_one_unit_square() {
        let mesh = Mesh::new_2d(4, 4);
        let cdg = Cdg::from_turn_set(&mesh, &TurnSet::all_ninety(2));
        assert_eq!(cdg.find_shortest_cycle().expect("cyclic").len(), 4);
        let xy = Cdg::from_turn_set(&mesh, &presets::xy_turns());
        assert!(xy.find_shortest_cycle().is_none());
    }

    #[test]
    fn edge_count_straight_only() {
        // With no turns allowed, edges are straight continuations only.
        let mesh = Mesh::new_2d(4, 4);
        let cdg = Cdg::from_turn_set(&mesh, &TurnSet::no_turns(2));
        // Horizontal: each row has chains of length 3 (x: 0->1->2->3), so
        // 2 straight-dependencies per row per direction; same vertically.
        assert_eq!(cdg.num_edges(), 4 * 2 * 2 + 4 * 2 * 2);
        assert!(cdg.is_acyclic());
    }
}
