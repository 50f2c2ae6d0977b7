//! The tabulated virtual-channel routing relation.
//!
//! A [`TableVcRouting`] is a routing relation in the one form the
//! workspace tabulates relations in, the output of
//! [`turnroute_model::depgraph::lower`]: a channel list, and per
//! destination the channel ids offered in each state. It has no walk of
//! its own. [`TableVcRouting::from_function`] is the lowering of any
//! [`VcRoutingFunction`]; [`TableVcRouting::new`] takes a relation that is
//! already a table, such as a certified `GraphSpec`'s routes with one lane
//! per class, on any topology.

use crate::{VcCdg, VcRoutingFunction, VirtualDirection};
use turnroute_model::depgraph::LaneChannel;
use turnroute_topology::{Direction, NodeId, Topology};

/// A routing relation over virtual channels, stored as its table.
#[derive(Debug, Clone)]
pub struct TableVcRouting {
    name: String,
    minimal: bool,
    num_classes: usize,
    /// Virtual directions per router, `2 · dims · num_classes`.
    per_node: usize,
    /// The channels; the position is the channel id.
    channels: Vec<LaneChannel>,
    /// Whether some channel is lane `vd.class()` of a link in `vd.dir()`,
    /// indexed by `vd.index_in(num_classes)`.
    exists: Vec<bool>,
    /// `routes[dest][state]`: the channel ids offered to a packet bound
    /// for `dest`, in offer order. States `0..num_nodes` are injection at
    /// that node, state `num_nodes + id` is holding channel `id`
    /// ([`turnroute_model::depgraph::Lowering::routes`]).
    routes: Vec<Vec<Vec<u32>>>,
    /// `arrived[v * per_node + vd.index_in(num_classes)]`: the state of a
    /// packet that entered router `v` on virtual direction `vd`, that is
    /// `num_nodes` plus the id of the channel it came by; `u32::MAX` where
    /// no channel enters.
    arrived: Vec<u32>,
}

impl TableVcRouting {
    /// The table of `routing` on `topo`: its lowering ([`VcCdg::lower`]),
    /// so it holds exactly the states the dependency analysis asks about
    /// (every injection, and for a minimal relation every productive
    /// arrival) and routes identically to `routing` on them.
    pub fn from_function(topo: &dyn Topology, routing: &dyn VcRoutingFunction) -> TableVcRouting {
        let lowered = VcCdg::lower(topo, routing, true);
        let channels = lowered.channels.iter().map(|ch| (ch.src, ch.dst, ch.lane));
        TableVcRouting::new(
            format!("{} (tabulated)", routing.name()),
            topo,
            routing.num_classes(),
            routing.is_minimal(),
            channels,
            lowered.routes,
        )
    }

    /// The relation `routes` (indexed as [`Lowering::routes`]) over
    /// `channels`, each given as `(src, dst, lane)` and numbered by
    /// position. A channel's direction is the one whose link from `src`
    /// reaches `dst`, so wraparound links need no special case.
    ///
    /// [`Lowering::routes`]: turnroute_model::depgraph::Lowering::routes
    ///
    /// # Panics
    ///
    /// Panics if a channel is no link of `topo` or is given twice, a lane
    /// is not below `num_classes`, or `routes` is not one table of
    /// `num_nodes + channels` states per destination.
    pub fn new(
        name: impl Into<String>,
        topo: &dyn Topology,
        num_classes: usize,
        minimal: bool,
        channels: impl IntoIterator<Item = (NodeId, NodeId, usize)>,
        routes: Vec<Vec<Vec<u32>>>,
    ) -> TableVcRouting {
        let num_nodes = topo.num_nodes();
        let per_node = 2 * topo.num_dims() * num_classes;
        let mut exists = vec![false; per_node];
        let mut arrived = vec![u32::MAX; num_nodes * per_node];
        let mut lane_channels = Vec::new();
        for (src, dst, lane) in channels {
            assert!(lane < num_classes, "lane {lane} of {num_classes} classes");
            let dir = Direction::all(topo.num_dims())
                .find(|&d| topo.neighbor(src, d) == Some(dst))
                .unwrap_or_else(|| panic!("channel {src} -> {dst} is not a link"));
            let vidx = dir.index() * num_classes + lane;
            let state = &mut arrived[dst.index() * per_node + vidx];
            assert_eq!(*state, u32::MAX, "channel {src} -> {dst} given twice");
            *state = (num_nodes + lane_channels.len()) as u32;
            exists[vidx] = true;
            lane_channels.push(LaneChannel {
                src,
                dst,
                dir,
                lane,
            });
        }
        let states = num_nodes + lane_channels.len();
        assert!(
            routes.len() == num_nodes && routes.iter().all(|t| t.len() == states),
            "routes must hold {states} states for each of {num_nodes} destinations"
        );
        TableVcRouting {
            name: name.into(),
            minimal,
            num_classes,
            per_node,
            channels: lane_channels,
            exists,
            routes,
            arrived,
        }
    }
}

impl VcRoutingFunction for TableVcRouting {
    fn name(&self) -> &str {
        &self.name
    }

    fn route(
        &self,
        _topo: &dyn Topology,
        current: NodeId,
        dest: NodeId,
        arrived: Option<VirtualDirection>,
    ) -> Vec<VirtualDirection> {
        if current == dest {
            return Vec::new();
        }
        let at = current.index() * self.per_node;
        let state = match arrived {
            None => current.index(),
            Some(vd) => self.arrived[at + vd.index_in(self.num_classes)] as usize,
        };
        // An arrival no channel makes (`u32::MAX`, past every state) is
        // offered nothing.
        let Some(offered) = self.routes[dest.index()].get(state) else {
            return Vec::new();
        };
        let vdir = |&id: &u32| {
            let ch = &self.channels[id as usize];
            VirtualDirection::of_lane(ch.dir, ch.lane)
        };
        offered.iter().map(vdir).collect()
    }

    fn is_minimal(&self) -> bool {
        self.minimal
    }

    fn num_classes(&self) -> usize {
        self.num_classes
    }

    fn channel_exists(&self, vd: VirtualDirection) -> bool {
        self.exists[vd.index_in(self.num_classes)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DoubleYAdaptive;
    use turnroute_topology::Mesh;

    /// The table answers every state the lowering walks — injection, and
    /// for a minimal relation each productive arrival — as double-y does.
    /// The other arrivals the engine never reaches, which
    /// `sim::tests::the_engine_cannot_tell_double_y_from_its_table` pins by
    /// running both.
    #[test]
    fn snapshot_routes_identically_to_double_y() {
        let mesh = Mesh::new_2d(4, 4);
        let dy = DoubleYAdaptive::new();
        let table = TableVcRouting::from_function(&mesh, &dy);
        for dest in 0..mesh.num_nodes() {
            let dest = NodeId(dest as u32);
            for node in 0..mesh.num_nodes() {
                let node = NodeId(node as u32);
                assert_eq!(
                    table.route(&mesh, node, dest, None),
                    dy.route(&mesh, node, dest, None),
                    "injection state {node} -> {dest}"
                );
                for vd in VirtualDirection::all_classes(2, 2) {
                    let Some(prev) = mesh.neighbor(node, vd.dir().opposite()) else {
                        continue;
                    };
                    if !dy.channel_exists(vd)
                        || mesh.min_hops(node, dest) >= mesh.min_hops(prev, dest)
                    {
                        continue;
                    }
                    assert_eq!(
                        table.route(&mesh, node, dest, Some(vd)),
                        dy.route(&mesh, node, dest, Some(vd)),
                        "holding state {node} ({vd}) -> {dest}"
                    );
                }
            }
        }
    }

    #[test]
    fn snapshot_cdg_is_acyclic_like_double_y() {
        let mesh = Mesh::new_2d(4, 4);
        let dy = DoubleYAdaptive::new();
        let table = TableVcRouting::from_function(&mesh, &dy);
        let direct = VcCdg::from_routing(&mesh, &dy);
        let via_table = VcCdg::from_routing(&mesh, &table);
        assert!(via_table.is_acyclic());
        assert_eq!(direct.channels().len(), via_table.channels().len());
    }
}
