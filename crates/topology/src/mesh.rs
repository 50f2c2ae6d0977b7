//! *n*-dimensional mesh topology.

use crate::{digits, mesh_productive_dirs, Coord, DirSet, Direction, NodeId, Sign, Topology};

/// An *n*-dimensional mesh with `k_0 × k_1 × … × k_{n-1}` nodes and no
/// wraparound channels.
///
/// Two nodes are neighbors iff their coordinates agree in all dimensions
/// except one, where they differ by exactly 1. Interior nodes have `2n`
/// neighbors; corner nodes have `n`.
///
/// # Example
///
/// ```
/// use turnroute_topology::{Mesh, Topology, Direction};
///
/// let mesh = Mesh::new_2d(8, 8); // the paper's example meshes
/// assert_eq!(mesh.num_nodes(), 64);
/// let corner = mesh.node_at_coords(&[0, 0]);
/// assert!(mesh.neighbor(corner, Direction::WEST).is_none());
/// assert!(mesh.neighbor(corner, Direction::EAST).is_some());
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Mesh {
    radices: Vec<u16>,
    /// strides[i] = product of radices[0..i]; node id = Σ x_i * strides[i].
    strides: Vec<usize>,
    num_nodes: usize,
}

impl Mesh {
    /// Create an *n*-dimensional mesh with the given per-dimension radices.
    ///
    /// # Panics
    ///
    /// Panics if `radices` is empty, any radix is `< 2` (the paper requires
    /// `k_i ≥ 2`), there are more than 16 dimensions, or the node count
    /// overflows `u32`.
    pub fn new(radices: Vec<u16>) -> Mesh {
        assert!(!radices.is_empty(), "mesh needs at least one dimension");
        assert!(radices.len() <= 16, "at most 16 dimensions supported");
        assert!(
            radices.iter().all(|&k| k >= 2),
            "every mesh dimension must have radix >= 2"
        );
        let mut strides = Vec::with_capacity(radices.len());
        let mut acc: usize = 1;
        for &k in &radices {
            strides.push(acc);
            acc = acc
                .checked_mul(usize::from(k))
                .expect("node count overflow");
        }
        assert!(acc <= u32::MAX as usize, "node count must fit in u32");
        Mesh {
            radices,
            strides,
            num_nodes: acc,
        }
    }

    /// Create a 2D `m × n` mesh (`m` columns along x, `n` rows along y).
    ///
    /// # Panics
    ///
    /// Panics if `m < 2` or `n < 2`.
    pub fn new_2d(m: u16, n: u16) -> Mesh {
        Mesh::new(vec![m, n])
    }

    /// Create a cubic mesh: `n` dimensions of radix `k` each.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`Mesh::new`].
    pub fn new_cubic(k: u16, n: usize) -> Mesh {
        Mesh::new(vec![k; n])
    }

    /// The per-dimension radices.
    pub fn radices(&self) -> &[u16] {
        &self.radices
    }

    /// The coordinates of `node`, dimension by dimension.
    fn digits(&self, node: NodeId) -> impl Iterator<Item = u16> + '_ {
        digits(self.radices.iter().copied(), self.num_nodes, node)
    }
}

impl Topology for Mesh {
    fn num_dims(&self) -> usize {
        self.radices.len()
    }

    fn radix(&self, dim: usize) -> usize {
        usize::from(self.radices[dim])
    }

    fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    fn has_wraparound(&self, dim: usize) -> bool {
        assert!(dim < self.radices.len(), "dimension out of range");
        false
    }

    fn coord_of(&self, node: NodeId) -> Coord {
        Coord::new(self.digits(node).collect())
    }

    fn node_at(&self, coord: &Coord) -> NodeId {
        assert_eq!(
            coord.num_dims(),
            self.num_dims(),
            "coordinate dimensionality mismatch"
        );
        let mut id = 0usize;
        for (dim, &c) in coord.as_slice().iter().enumerate() {
            assert!(
                usize::from(c) < self.radix(dim),
                "coordinate {coord} out of range in dimension {dim}"
            );
            id += usize::from(c) * self.strides[dim];
        }
        NodeId(id as u32)
    }

    fn neighbor(&self, node: NodeId, dir: Direction) -> Option<NodeId> {
        let dim = dir.dim();
        assert!(dim < self.num_dims(), "direction {dir} out of range");
        let k = usize::from(self.radices[dim]);
        let c = (node.index() / self.strides[dim]) % k;
        match dir.sign() {
            Sign::Minus if c > 0 => Some(NodeId((node.index() - self.strides[dim]) as u32)),
            Sign::Plus if c + 1 < k => Some(NodeId((node.index() + self.strides[dim]) as u32)),
            _ => None,
        }
    }

    fn is_wrap(&self, _node: NodeId, _dir: Direction) -> bool {
        false
    }

    fn min_hops(&self, a: NodeId, b: NodeId) -> usize {
        self.digits(a)
            .zip(self.digits(b))
            .map(|(x, y)| usize::from(x.abs_diff(y)))
            .sum()
    }

    fn productive_dirs(&self, from: NodeId, to: NodeId) -> DirSet {
        mesh_productive_dirs(self.digits(from).zip(self.digits(to)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coord_round_trip_4x4() {
        let mesh = Mesh::new_2d(4, 4);
        for id in 0..mesh.num_nodes() {
            let node = NodeId(id as u32);
            let c = mesh.coord_of(node);
            assert_eq!(mesh.node_at(&c), node);
        }
    }

    #[test]
    fn linearization_dimension_zero_fastest() {
        let mesh = Mesh::new_2d(4, 3);
        assert_eq!(mesh.node_at_coords(&[1, 0]), NodeId(1));
        assert_eq!(mesh.node_at_coords(&[0, 1]), NodeId(4));
        assert_eq!(mesh.node_at_coords(&[3, 2]), NodeId(11));
    }

    #[test]
    fn boundary_nodes_lack_channels() {
        let mesh = Mesh::new_2d(4, 4);
        let sw = mesh.node_at_coords(&[0, 0]);
        let ne = mesh.node_at_coords(&[3, 3]);
        assert!(mesh.neighbor(sw, Direction::WEST).is_none());
        assert!(mesh.neighbor(sw, Direction::SOUTH).is_none());
        assert!(mesh.neighbor(ne, Direction::EAST).is_none());
        assert!(mesh.neighbor(ne, Direction::NORTH).is_none());
        assert_eq!(
            mesh.neighbor(sw, Direction::EAST),
            Some(mesh.node_at_coords(&[1, 0]))
        );
        assert_eq!(
            mesh.neighbor(sw, Direction::NORTH),
            Some(mesh.node_at_coords(&[0, 1]))
        );
    }

    #[test]
    fn channel_count_2d() {
        // A m x n mesh has 2*( (m-1)*n + (n-1)*m ) unidirectional channels.
        let mesh = Mesh::new_2d(16, 16);
        assert_eq!(mesh.channels().len(), 2 * (15 * 16 + 15 * 16));
    }

    #[test]
    fn channel_count_3d() {
        let mesh = Mesh::new(vec![3, 4, 5]);
        let expected = 2 * (2 * 4 * 5 + 3 * 3 * 5 + 3 * 4 * 4);
        assert_eq!(mesh.channels().len(), expected);
    }

    #[test]
    fn channels_have_stable_dense_ids() {
        let mesh = Mesh::new_2d(3, 3);
        for (i, ch) in mesh.channels().iter().enumerate() {
            assert_eq!(ch.id().index(), i);
            assert!(!ch.is_wrap());
            assert_eq!(mesh.neighbor(ch.src(), ch.dir()), Some(ch.dst()));
        }
    }

    #[test]
    fn min_hops_is_manhattan() {
        let mesh = Mesh::new_2d(8, 8);
        let a = mesh.node_at_coords(&[1, 2]);
        let b = mesh.node_at_coords(&[6, 0]);
        assert_eq!(mesh.min_hops(a, b), 7);
    }

    #[test]
    fn productive_dirs_quadrants() {
        let mesh = Mesh::new_2d(8, 8);
        let c = mesh.node_at_coords(&[4, 4]);
        let ne = mesh.node_at_coords(&[6, 6]);
        let dirs = mesh.productive_dirs(c, ne);
        assert!(dirs.contains(Direction::EAST) && dirs.contains(Direction::NORTH));
        assert_eq!(dirs.len(), 2);
        let w = mesh.node_at_coords(&[0, 4]);
        assert_eq!(mesh.productive_dirs(c, w), DirSet::single(Direction::WEST));
        assert!(mesh.productive_dirs(c, c).is_empty());
    }

    #[test]
    #[should_panic(expected = "radix >= 2")]
    fn rejects_radix_one() {
        let _ = Mesh::new(vec![4, 1]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn node_at_rejects_out_of_range() {
        let mesh = Mesh::new_2d(4, 4);
        let _ = mesh.node_at(&Coord::new(vec![4, 0]));
    }

    #[test]
    fn cubic_constructor() {
        let mesh = Mesh::new_cubic(4, 3);
        assert_eq!(mesh.num_dims(), 3);
        assert_eq!(mesh.num_nodes(), 64);
        assert_eq!(mesh.radices(), &[4, 4, 4]);
        assert!(!mesh.has_wraparound(2));
    }
}
