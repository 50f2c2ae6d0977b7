//! Channel dependency graphs over virtual channels.

use crate::{VcClass, VcRoutingFunction, VirtualDirection};
use turnroute_model::depgraph::{self, DepGraph, LaneChannel, Offer};
use turnroute_topology::{Mesh, NodeId};

/// One virtual channel of the double-y mesh.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct VcChannel {
    /// Dense id.
    pub id: u32,
    /// Router the channel leaves.
    pub src: NodeId,
    /// Router the channel enters.
    pub dst: NodeId,
    /// The virtual direction it routes packets in.
    pub vdir: VirtualDirection,
}

/// The Dally–Seitz dependency graph with *virtual* channels as vertices —
/// the form of the analysis needed once extra channels enter the picture
/// (each virtual channel is a resource of its own).
#[derive(Debug, Clone)]
pub struct VcCdg {
    channels: Vec<VcChannel>,
    graph: DepGraph,
}

impl VcCdg {
    /// Build the dependency graph induced by `routing` on `mesh`,
    /// quantifying only reachable `(incoming channel, destination)` states
    /// for minimal functions. The routing function declares its class
    /// count and which virtual channels exist; channels are enumerated
    /// node-major in dense [`VirtualDirection::index_in`] order.
    ///
    /// # Panics
    ///
    /// Panics if `routing` offers a virtual channel it declares
    /// nonexistent.
    pub fn from_routing(mesh: &Mesh, routing: &dyn VcRoutingFunction) -> VcCdg {
        Self::lower(mesh, routing, false).0
    }

    /// [`VcCdg::from_routing`] and, if `with_routes`, the route table the
    /// same walk produces (see
    /// [`turnroute_model::depgraph::Lowering::routes`]).
    pub fn lower(
        mesh: &Mesh,
        routing: &dyn VcRoutingFunction,
        with_routes: bool,
    ) -> (VcCdg, Vec<Vec<Vec<u32>>>) {
        let vdir = |(dir, lane): Offer| VirtualDirection::new(dir, VcClass::new(lane as u8));
        let lowered = depgraph::lower(
            mesh,
            routing.num_classes(),
            |dir, lane| routing.channel_exists(vdir((dir, lane))),
            routing.is_minimal(),
            with_routes,
            |at, dest, held, out| {
                let offered = routing.route(mesh, at, dest, held.map(vdir));
                out.extend(offered.iter().map(|vd| (vd.dir(), vd.class().index())));
            },
        );
        let channel = |(id, ch): (usize, &LaneChannel)| VcChannel {
            id: id as u32,
            src: ch.src,
            dst: ch.dst,
            vdir: vdir((ch.dir, ch.lane)),
        };
        let cdg = VcCdg {
            channels: lowered.channels.iter().enumerate().map(channel).collect(),
            graph: lowered.graph,
        };
        (cdg, lowered.routes)
    }

    /// The virtual channels (vertices).
    pub fn channels(&self) -> &[VcChannel] {
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

    /// The successor channel ids of the virtual channel `id`.
    pub fn successors(&self, id: u32) -> &[u32] {
        self.graph.successors(id)
    }

    /// Find a dependency cycle, or `None` if the graph is acyclic.
    pub fn find_cycle(&self) -> Option<Vec<u32>> {
        self.graph.find_cycle()
    }

    /// Whether the graph is acyclic (deadlock free).
    pub fn is_acyclic(&self) -> bool {
        self.find_cycle().is_none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DoubleYAdaptive;
    use turnroute_topology::{Direction, Sign, Topology};

    #[test]
    fn double_y_is_acyclic_on_assorted_meshes() {
        for (m, n) in [(3u16, 3u16), (4, 4), (8, 8), (5, 3), (3, 7)] {
            let mesh = Mesh::new_2d(m, n);
            let cdg = VcCdg::from_routing(&mesh, &DoubleYAdaptive::new());
            assert!(cdg.is_acyclic(), "cyclic on {m}x{n}");
        }
    }

    #[test]
    fn channel_count_includes_doubled_y() {
        let mesh = Mesh::new_2d(4, 4);
        let cdg = VcCdg::from_routing(&mesh, &DoubleYAdaptive::new());
        // x channels: 2 * 3 * 4 = 24 (one class); y channels: 24 * 2.
        assert_eq!(cdg.channels().len(), 24 + 48);
        assert!(cdg.num_edges() > 0);
    }

    /// A deliberately unrestricted VC routing: fully adaptive on both
    /// classes — which reintroduces the deadlock cycles.
    struct Unrestricted;

    impl VcRoutingFunction for Unrestricted {
        fn name(&self) -> &str {
            "unrestricted"
        }

        fn route(
            &self,
            mesh: &Mesh,
            current: NodeId,
            dest: NodeId,
            _arrived: Option<VirtualDirection>,
        ) -> Vec<VirtualDirection> {
            let mut out = Vec::new();
            let (c, d) = (mesh.coord_of(current), mesh.coord_of(dest));
            if d.get(0) != c.get(0) {
                let sign = if d.get(0) > c.get(0) {
                    Sign::Plus
                } else {
                    Sign::Minus
                };
                out.push(VirtualDirection::new(
                    Direction::new(0, sign),
                    crate::VcClass::One,
                ));
            }
            if d.get(1) != c.get(1) {
                let sign = if d.get(1) > c.get(1) {
                    Sign::Plus
                } else {
                    Sign::Minus
                };
                out.push(VirtualDirection::new(
                    Direction::new(1, sign),
                    crate::VcClass::One,
                ));
                out.push(VirtualDirection::new(
                    Direction::new(1, sign),
                    crate::VcClass::Two,
                ));
            }
            out
        }

        fn is_minimal(&self) -> bool {
            true
        }
    }

    #[test]
    fn unrestricted_vc_routing_still_deadlocks() {
        // Extra channels alone do not prevent deadlock: the turn rules do.
        let mesh = Mesh::new_2d(4, 4);
        let cdg = VcCdg::from_routing(&mesh, &Unrestricted);
        assert!(cdg.find_cycle().is_some());
    }
}
