//! The double-y fully adaptive routing algorithm.

use crate::{VcClass, VcRoutingFunction, VirtualDirection};
use turnroute_topology::{Direction, Mesh, NodeId, Topology};

/// Minimal fully adaptive deadlock-free routing on a 2D mesh whose
/// vertical channels are doubled into classes `y1` and `y2`.
///
/// Derived with the turn model over virtual directions
/// `{west, east, north1, south1, north2, south2}`:
///
/// * a packet with westward hops remaining routes adaptively among
///   `west` and the productive `y1` channel;
/// * a packet with no westward hops remaining routes adaptively among
///   `east` and the productive `y2` channel;
/// * prohibited turns: everything from the `{east, y2}` side into the
///   `{west, y1}` side — `east -> y1`, `y2 -> west`, `y2 -> y1`
///   (0-degree), and `east -> west` / reversals.
///
/// Every shortest path remains available (`S = S_f`, the multinomial of
/// Section 3.4) because at each hop both productive physical moves are
/// offered — only the *class* of the vertical move is constrained. The
/// price is one extra virtual channel per vertical link: precisely the
/// buffer-and-control cost the paper attributes to channel-adding
/// approaches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DoubleYAdaptive;

impl DoubleYAdaptive {
    /// Create the double-y routing function.
    pub fn new() -> DoubleYAdaptive {
        DoubleYAdaptive
    }

    /// Whether a virtual direction belongs to the `{west, y1}` side.
    fn is_side_one(vd: VirtualDirection) -> bool {
        vd.dir() == Direction::WEST || (vd.dir().dim() == 1 && vd.class() == VcClass::One)
    }
}

impl VcRoutingFunction for DoubleYAdaptive {
    fn name(&self) -> &str {
        "double-y fully adaptive"
    }

    fn route(
        &self,
        topo: &dyn Topology,
        current: NodeId,
        dest: NodeId,
        arrived: Option<VirtualDirection>,
    ) -> Vec<VirtualDirection> {
        let productive = topo.productive_dirs(current, dest);
        let needs_west = productive.contains(Direction::WEST);
        // Coherence: once on the {east, y2} side, {west, y1} is locked
        // out; a packet still needing west there is an unreachable state.
        if needs_west && matches!(arrived, Some(vd) if !Self::is_side_one(vd)) {
            return Vec::new();
        }
        // Every productive move, a vertical one on y1 while westward hops
        // remain and on y2 after (x links carry class One only).
        let class = |dir: Direction| VcClass::new(u8::from(dir.dim() == 1 && !needs_west));
        let vdir = |dir| VirtualDirection::new(dir, class(dir));
        productive.iter().map(vdir).collect()
    }

    fn is_minimal(&self) -> bool {
        true
    }
}

/// Count the shortest paths `DoubleYAdaptive` allows between two nodes by
/// memoized dynamic programming (virtual-channel analog of
/// [`turnroute_model::adaptiveness::count_minimal_paths`]).
pub fn count_paths(mesh: &Mesh, src: NodeId, dst: NodeId) -> u128 {
    use std::collections::HashMap;
    let alg = DoubleYAdaptive::new();
    fn go(
        mesh: &Mesh,
        alg: &DoubleYAdaptive,
        memo: &mut HashMap<(u32, usize), u128>,
        node: NodeId,
        arrived: Option<VirtualDirection>,
        dst: NodeId,
    ) -> u128 {
        if node == dst {
            return 1;
        }
        let key = (node.0, arrived.map_or(0, |vd| vd.index() + 1));
        if let Some(&v) = memo.get(&key) {
            return v;
        }
        let mut total = 0u128;
        for vd in alg.route(mesh, node, dst, arrived) {
            let next = mesh.neighbor(node, vd.dir()).expect("offered channel");
            total += go(mesh, alg, memo, next, Some(vd), dst);
        }
        memo.insert(key, total);
        total
    }
    go(mesh, &alg, &mut HashMap::new(), src, None, dst)
}

#[cfg(test)]
mod tests {
    use super::*;
    use turnroute_model::adaptiveness::s_fully_adaptive;

    #[test]
    fn fully_adaptive_on_every_pair() {
        let mesh = Mesh::new_2d(6, 6);
        for s in 0..mesh.num_nodes() {
            for d in 0..mesh.num_nodes() {
                if s == d {
                    continue;
                }
                let (s, d) = (NodeId(s as u32), NodeId(d as u32));
                let counted = count_paths(&mesh, s, d);
                let full = s_fully_adaptive(&mesh.coord_of(s), &mesh.coord_of(d));
                assert_eq!(counted, full, "pair {s}->{d}");
            }
        }
    }

    #[test]
    fn westbound_packets_use_class_one() {
        let mesh = Mesh::new_2d(8, 8);
        let alg = DoubleYAdaptive::new();
        let cur = mesh.node_at_coords(&[5, 5]);
        let dst = mesh.node_at_coords(&[2, 7]);
        let out = alg.route(&mesh, cur, dst, None);
        assert_eq!(out.len(), 2);
        assert!(out.contains(&VirtualDirection::new(Direction::WEST, VcClass::One)));
        assert!(out.contains(&VirtualDirection::new(Direction::NORTH, VcClass::One)));
    }

    #[test]
    fn eastbound_packets_use_class_two() {
        let mesh = Mesh::new_2d(8, 8);
        let alg = DoubleYAdaptive::new();
        let cur = mesh.node_at_coords(&[5, 5]);
        let dst = mesh.node_at_coords(&[7, 2]);
        let out = alg.route(&mesh, cur, dst, None);
        assert_eq!(out.len(), 2);
        assert!(out.contains(&VirtualDirection::new(Direction::EAST, VcClass::One)));
        assert!(out.contains(&VirtualDirection::new(Direction::SOUTH, VcClass::Two)));
    }

    #[test]
    fn pure_vertical_uses_class_two() {
        let mesh = Mesh::new_2d(8, 8);
        let alg = DoubleYAdaptive::new();
        let cur = mesh.node_at_coords(&[4, 1]);
        let dst = mesh.node_at_coords(&[4, 6]);
        let out = alg.route(&mesh, cur, dst, None);
        assert_eq!(
            out,
            vec![VirtualDirection::new(Direction::NORTH, VcClass::Two)]
        );
    }

    #[test]
    fn unreachable_states_are_empty() {
        let mesh = Mesh::new_2d(8, 8);
        let alg = DoubleYAdaptive::new();
        let cur = mesh.node_at_coords(&[5, 5]);
        let west_dst = mesh.node_at_coords(&[2, 5]);
        // Arrived on east or y2 while still needing west: unreachable.
        for arr in [
            VirtualDirection::new(Direction::EAST, VcClass::One),
            VirtualDirection::new(Direction::NORTH, VcClass::Two),
        ] {
            assert!(alg.route(&mesh, cur, west_dst, Some(arr)).is_empty());
        }
    }

    #[test]
    fn route_is_empty_at_destination() {
        let mesh = Mesh::new_2d(4, 4);
        let alg = DoubleYAdaptive::new();
        let node = mesh.node_at_coords(&[2, 2]);
        assert!(alg.route(&mesh, node, node, None).is_empty());
    }
}
