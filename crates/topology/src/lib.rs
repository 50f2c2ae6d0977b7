//! Direct-network topologies for wormhole routing.
//!
//! This crate models the interconnection-network substrate of the turn-model
//! paper (Glass & Ni): *n*-dimensional meshes, *k*-ary *n*-cubes (tori), and
//! hypercubes, together with the vocabulary shared by every other crate in
//! the workspace — node identifiers, per-dimension coordinates, directions
//! (a dimension plus a sign), and unidirectional channels.
//!
//! # Example
//!
//! ```
//! use turnroute_topology::{Mesh, Topology, Direction, Sign};
//!
//! let mesh = Mesh::new_2d(4, 4);
//! let origin = mesh.node_at_coords(&[0, 0]);
//! let east = Direction::new(0, Sign::Plus);
//! let next = mesh.neighbor(origin, east).expect("(1,0) exists");
//! assert_eq!(mesh.coord_of(next).as_slice(), &[1, 0]);
//! assert_eq!(mesh.min_hops(origin, mesh.node_at_coords(&[3, 3])), 6);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod channel;
mod coord;
mod direction;
mod fault;
mod hex;
mod hypercube;
mod mesh;
mod torus;

pub use channel::{Channel, ChannelId};
pub use coord::Coord;
pub use direction::{DirSet, Direction, Sign};
pub use fault::FaultSet;
pub use hex::HexMesh;
pub use hypercube::Hypercube;
pub use mesh::Mesh;
pub use torus::Torus;

/// Identifier of a node (router + local processor) in a topology.
///
/// Node ids are dense: `0..topology.num_nodes()`. They linearize the node
/// coordinate with dimension 0 varying fastest, matching the paper's
/// `(x_0, x_1, …, x_{n-1})` convention.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The dense index of this node, for indexing per-node tables.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl From<u32> for NodeId {
    fn from(value: u32) -> Self {
        NodeId(value)
    }
}

/// A direct-network topology: a set of nodes on an *n*-dimensional grid and
/// the unidirectional channels connecting neighboring nodes.
///
/// All three concrete topologies ([`Mesh`], [`Torus`], [`Hypercube`]) share
/// this interface, which is object-safe so that simulators and analyses can
/// hold a `&dyn Topology`.
pub trait Topology {
    /// Number of dimensions *n*.
    fn num_dims(&self) -> usize;

    /// Number of nodes along dimension `dim` (the paper's `k_i`).
    ///
    /// # Panics
    ///
    /// Panics if `dim >= self.num_dims()`.
    fn radix(&self, dim: usize) -> usize;

    /// Total number of nodes.
    fn num_nodes(&self) -> usize;

    /// Whether the topology has wraparound channels in `dim`.
    fn has_wraparound(&self, dim: usize) -> bool;

    /// The coordinates of `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    fn coord_of(&self, node: NodeId) -> Coord;

    /// The node at `coord`.
    ///
    /// # Panics
    ///
    /// Panics if `coord` has the wrong dimensionality or any component is
    /// out of range.
    fn node_at(&self, coord: &Coord) -> NodeId;

    /// The neighbor of `node` in direction `dir`, or `None` if the channel
    /// does not exist (mesh boundary).
    fn neighbor(&self, node: NodeId, dir: Direction) -> Option<NodeId>;

    /// Whether the channel leaving `node` in direction `dir` is a wraparound
    /// channel. `false` whenever [`Topology::neighbor`] is `None`.
    fn is_wrap(&self, node: NodeId, dir: Direction) -> bool;

    /// Minimum number of hops between two nodes.
    fn min_hops(&self, a: NodeId, b: NodeId) -> usize;

    /// The set of directions whose channels lie on some shortest path from
    /// `from` to `to` (the *productive* directions). Empty iff `from == to`.
    fn productive_dirs(&self, from: NodeId, to: NodeId) -> DirSet;

    /// Convenience: the node at the given coordinate components.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`Topology::node_at`].
    fn node_at_coords(&self, comps: &[u16]) -> NodeId
    where
        Self: Sized,
    {
        self.node_at(&Coord::new(comps.to_vec()))
    }

    /// Enumerate every unidirectional network channel, in a stable order
    /// (by source node index, then direction index).
    fn channels(&self) -> Vec<Channel> {
        let n = self.num_dims();
        let mut out = Vec::new();
        for node in 0..self.num_nodes() {
            let node = NodeId(node as u32);
            for d in Direction::all(n) {
                if let Some(dst) = self.neighbor(node, d) {
                    out.push(Channel::new(
                        ChannelId(out.len() as u32),
                        node,
                        dst,
                        d,
                        self.is_wrap(node, d),
                    ));
                }
            }
        }
        out
    }

    /// A dense upper bound on channel slot indices used by
    /// [`Topology::channel_slot`]: `num_nodes * 2 * num_dims`.
    fn channel_slot_count(&self) -> usize {
        self.num_nodes() * 2 * self.num_dims()
    }

    /// A dense per-(node, direction) slot index for the output channel of
    /// `node` in `dir`, valid whether or not the channel exists. Useful for
    /// flat per-channel tables; slots of nonexistent channels stay unused.
    fn channel_slot(&self, node: NodeId, dir: Direction) -> usize {
        node.index() * 2 * self.num_dims() + dir.index()
    }
}

/// Shared helper: the coordinates of `node`, dimension by dimension, in
/// the mixed-radix numbering of the grid topologies (dimension 0 varies
/// fastest), without building a [`Coord`]. Panics if `node` is not below
/// `num_nodes`.
pub(crate) fn digits(
    radices: impl Iterator<Item = u16>,
    num_nodes: usize,
    node: NodeId,
) -> impl Iterator<Item = u16> {
    assert!(node.index() < num_nodes, "node {node} out of range");
    let mut rem = node.0;
    radices.map(move |k| {
        let k = u32::from(k);
        let digit = (rem % k) as u16;
        rem /= k;
        digit
    })
}

/// Shared helper: productive directions on a pure mesh (no wraparound),
/// from the `(from, to)` coordinate pair of every dimension.
pub(crate) fn mesh_productive_dirs(pairs: impl Iterator<Item = (u16, u16)>) -> DirSet {
    let mut set = DirSet::empty();
    for (dim, (f, t)) in pairs.enumerate() {
        if t > f {
            set.insert(Direction::new(dim, Sign::Plus));
        } else if t < f {
            set.insert(Direction::new(dim, Sign::Minus));
        }
    }
    set
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_id_display_and_index() {
        let node = NodeId(7);
        assert_eq!(node.to_string(), "n7");
        assert_eq!(node.index(), 7);
        assert_eq!(NodeId::from(3u32), NodeId(3));
    }

    #[test]
    fn channel_slots_are_dense_and_unique() {
        let mesh = Mesh::new_2d(3, 3);
        let mut seen = vec![false; mesh.channel_slot_count()];
        for node in 0..mesh.num_nodes() {
            for dir in Direction::all(2) {
                let slot = mesh.channel_slot(NodeId(node as u32), dir);
                assert!(!seen[slot], "slot {slot} reused");
                seen[slot] = true;
            }
        }
    }

    #[test]
    fn mesh_productive_dirs_empty_for_same_node() {
        let a = [1, 1];
        assert!(mesh_productive_dirs(a.into_iter().zip(a)).is_empty());
    }
}
