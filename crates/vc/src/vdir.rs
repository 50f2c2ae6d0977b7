//! Virtual directions: a physical direction plus a virtual-channel class.

use turnroute_topology::{Direction, Mesh, NodeId, Topology};

/// The virtual-channel class of a channel. The double-y mesh uses
/// [`VcClass::One`] for x channels and both classes for y channels;
/// synthesized assignments may use any number of classes, so the class is
/// an open index rather than a closed enum.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VcClass(u8);

#[allow(non_upper_case_globals)]
impl VcClass {
    /// The first (or only) virtual channel of a physical link.
    pub const One: VcClass = VcClass(0);
    /// The second virtual channel of a doubled physical link.
    pub const Two: VcClass = VcClass(1);

    /// The class with zero-based index `index`.
    #[inline]
    pub fn new(index: u8) -> VcClass {
        VcClass(index)
    }

    /// Zero-based class index — used in slot indexing.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for VcClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0 + 1)
    }
}

/// A virtual direction: the paper's Step 1 treats the `v` channels of a
/// physical direction as `v` distinct virtual directions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VirtualDirection {
    dir: Direction,
    class: VcClass,
}

impl VirtualDirection {
    /// Create a virtual direction.
    pub fn new(dir: Direction, class: VcClass) -> VirtualDirection {
        VirtualDirection { dir, class }
    }

    /// Lane `lane` of the links in `dir`: the form a lowered channel or
    /// offer ([`turnroute_model::depgraph::Offer`]) names it in.
    #[inline]
    pub fn of_lane(dir: Direction, lane: usize) -> VirtualDirection {
        VirtualDirection::new(dir, VcClass::new(lane as u8))
    }

    /// The underlying physical direction.
    #[inline]
    pub fn dir(self) -> Direction {
        self.dir
    }

    /// The virtual-channel class.
    #[inline]
    pub fn class(self) -> VcClass {
        self.class
    }

    /// Dense index in `0..4n` (two classes per physical direction; class
    /// slots of single-channel directions simply go unused).
    #[inline]
    pub fn index(self) -> usize {
        self.index_in(2)
    }

    /// Dense index in `0..(2 * dims * num_classes)` when every physical
    /// direction carries `num_classes` virtual-channel slots.
    #[inline]
    pub fn index_in(self, num_classes: usize) -> usize {
        debug_assert!(self.class.index() < num_classes);
        self.dir.index() * num_classes + self.class.index()
    }

    /// All virtual directions of an `num_dims`-dimensional mesh with
    /// `num_classes` classes per physical direction, in dense
    /// [`VirtualDirection::index_in`] order.
    pub fn all_classes(num_dims: usize, num_classes: usize) -> Vec<VirtualDirection> {
        let mut out = Vec::with_capacity(2 * num_dims * num_classes);
        for dir in Direction::all(num_dims) {
            for class in 0..num_classes {
                out.push(VirtualDirection::new(dir, VcClass::new(class as u8)));
            }
        }
        out
    }

    /// All virtual directions of a double-y 2D mesh: `west`, `east` in
    /// class One, and both classes of `north` and `south`.
    pub fn double_y_all() -> [VirtualDirection; 6] {
        [
            VirtualDirection::new(Direction::WEST, VcClass::One),
            VirtualDirection::new(Direction::EAST, VcClass::One),
            VirtualDirection::new(Direction::NORTH, VcClass::One),
            VirtualDirection::new(Direction::NORTH, VcClass::Two),
            VirtualDirection::new(Direction::SOUTH, VcClass::One),
            VirtualDirection::new(Direction::SOUTH, VcClass::Two),
        ]
    }

    /// Whether this virtual direction exists in the double-y scheme
    /// (x channels have a single class).
    pub fn exists_in_double_y(self) -> bool {
        self.dir.dim() == 1 || self.class == VcClass::One
    }
}

impl std::fmt::Display for VirtualDirection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.dir.dim() == 0 {
            write!(f, "{}", self.dir)
        } else {
            write!(f, "{}{}", self.dir, self.class)
        }
    }
}

/// A routing function over the virtual channels of a topology.
///
/// The contract mirrors
/// [`turnroute_model::RoutingFunction`]: empty output exactly at the
/// destination, only existing channels, and for minimal functions only
/// distance-reducing physical moves. Unreachable `(arrived, dest)` states
/// must return the empty set so dependency analysis stays exact.
///
/// # Contract
///
/// * `route` is a pure function of its arguments — the prover tabulates
///   it and the engine memoises it.
pub trait VcRoutingFunction {
    /// Short human-readable name.
    fn name(&self) -> &str;

    /// Legal output virtual channels for a packet at `current` bound for
    /// `dest`, having arrived on `arrived` (`None` at injection).
    fn route(
        &self,
        topo: &dyn Topology,
        current: NodeId,
        dest: NodeId,
        arrived: Option<VirtualDirection>,
    ) -> Vec<VirtualDirection>;

    /// Whether only shortest-path moves are offered.
    fn is_minimal(&self) -> bool;

    /// Number of virtual-channel classes per physical direction. The
    /// default matches the hand-coded double-y scheme.
    fn num_classes(&self) -> usize {
        2
    }

    /// Whether the virtual channel `vd` exists on links that carry it.
    /// The default matches double-y: x links carry a single class.
    fn channel_exists(&self, vd: VirtualDirection) -> bool {
        vd.exists_in_double_y()
    }
}

/// The virtual channels leaving `node` in a double-y mesh, in a stable
/// order.
pub fn outgoing_vdirs(mesh: &Mesh, node: NodeId) -> Vec<VirtualDirection> {
    VirtualDirection::double_y_all()
        .into_iter()
        .filter(|vd| mesh.neighbor(node, vd.dir()).is_some())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn six_virtual_directions() {
        let all = VirtualDirection::double_y_all();
        assert_eq!(all.len(), 6);
        for vd in all {
            assert!(vd.exists_in_double_y());
        }
        assert!(!VirtualDirection::new(Direction::WEST, VcClass::Two).exists_in_double_y());
    }

    #[test]
    fn display_marks_classes_on_y_only() {
        assert_eq!(
            VirtualDirection::new(Direction::WEST, VcClass::One).to_string(),
            "west"
        );
        assert_eq!(
            VirtualDirection::new(Direction::NORTH, VcClass::Two).to_string(),
            "north2"
        );
    }

    #[test]
    fn indices_are_unique() {
        let mut seen = std::collections::HashSet::new();
        for vd in VirtualDirection::double_y_all() {
            assert!(seen.insert(vd.index()));
        }
    }

    #[test]
    fn all_classes_is_in_dense_index_order() {
        for classes in 1..=4usize {
            let all = VirtualDirection::all_classes(2, classes);
            assert_eq!(all.len(), 4 * classes);
            for (i, vd) in all.iter().enumerate() {
                assert_eq!(vd.index_in(classes), i);
            }
        }
    }

    #[test]
    fn two_class_dense_index_matches_legacy_index() {
        for vd in VirtualDirection::all_classes(2, 2) {
            assert_eq!(vd.index_in(2), vd.index());
        }
    }

    #[test]
    fn corner_node_has_fewer_outgoing() {
        let mesh = Mesh::new_2d(4, 4);
        let corner = mesh.node_at_coords(&[0, 0]);
        // east (1 class) + north (2 classes).
        assert_eq!(outgoing_vdirs(&mesh, corner).len(), 3);
        let center = mesh.node_at_coords(&[1, 1]);
        assert_eq!(outgoing_vdirs(&mesh, center).len(), 6);
    }
}
