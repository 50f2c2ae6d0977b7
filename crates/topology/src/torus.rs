//! *k*-ary *n*-cube (torus) topology.

use crate::{digits, Coord, DirSet, Direction, NodeId, Sign, Topology};

/// A *k*-ary *n*-cube: `k^n` nodes with modular (wraparound) neighbor
/// arithmetic in every dimension, giving the topology edge symmetry.
///
/// Requires `k ≥ 3`; for `k = 2` the two directions of a dimension would
/// denote the same physical channel pair — use
/// [`Hypercube`](crate::Hypercube) for that case, as the paper does.
///
/// # Example
///
/// ```
/// use turnroute_topology::{Torus, Topology, Direction};
///
/// let torus = Torus::new(4, 2); // 4-ary 2-cube
/// let east_edge = torus.node_at_coords(&[3, 0]);
/// // Wraparound: east of (3,0) is (0,0).
/// assert_eq!(torus.neighbor(east_edge, Direction::EAST),
///            Some(torus.node_at_coords(&[0, 0])));
/// assert!(torus.is_wrap(east_edge, Direction::EAST));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Torus {
    k: u16,
    n: usize,
    strides: Vec<usize>,
    num_nodes: usize,
}

impl Torus {
    /// Create a *k*-ary *n*-cube.
    ///
    /// # Panics
    ///
    /// Panics if `k < 3`, `n == 0`, `n > 16`, or the node count overflows
    /// `u32`.
    pub fn new(k: u16, n: usize) -> Torus {
        assert!(k >= 3, "torus radix must be >= 3 (use Hypercube for k = 2)");
        assert!(n >= 1, "torus needs at least one dimension");
        assert!(n <= 16, "at most 16 dimensions supported");
        let mut strides = Vec::with_capacity(n);
        let mut acc: usize = 1;
        for _ in 0..n {
            strides.push(acc);
            acc = acc
                .checked_mul(usize::from(k))
                .expect("node count overflow");
        }
        assert!(acc <= u32::MAX as usize, "node count must fit in u32");
        Torus {
            k,
            n,
            strides,
            num_nodes: acc,
        }
    }

    /// The radix `k` shared by every dimension.
    pub fn k(&self) -> usize {
        usize::from(self.k)
    }

    /// The coordinates of `node`, dimension by dimension.
    fn digits(&self, node: NodeId) -> impl Iterator<Item = u16> {
        digits(std::iter::repeat_n(self.k, self.n), self.num_nodes, node)
    }
}

impl Topology for Torus {
    fn num_dims(&self) -> usize {
        self.n
    }

    fn radix(&self, dim: usize) -> usize {
        assert!(dim < self.n, "dimension out of range");
        usize::from(self.k)
    }

    fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    fn has_wraparound(&self, dim: usize) -> bool {
        assert!(dim < self.n, "dimension out of range");
        true
    }

    fn coord_of(&self, node: NodeId) -> Coord {
        Coord::new(self.digits(node).collect())
    }

    fn node_at(&self, coord: &Coord) -> NodeId {
        assert_eq!(
            coord.num_dims(),
            self.n,
            "coordinate dimensionality mismatch"
        );
        let mut id = 0usize;
        for (dim, &c) in coord.as_slice().iter().enumerate() {
            assert!(
                c < self.k,
                "coordinate {coord} out of range in dimension {dim}"
            );
            id += usize::from(c) * self.strides[dim];
        }
        NodeId(id as u32)
    }

    fn neighbor(&self, node: NodeId, dir: Direction) -> Option<NodeId> {
        let dim = dir.dim();
        assert!(dim < self.n, "direction {dir} out of range");
        let k = usize::from(self.k);
        let c = (node.index() / self.strides[dim]) % k;
        let next = match dir.sign() {
            Sign::Minus => (c + k - 1) % k,
            Sign::Plus => (c + 1) % k,
        };
        let base = node.index() - c * self.strides[dim];
        Some(NodeId((base + next * self.strides[dim]) as u32))
    }

    fn is_wrap(&self, node: NodeId, dir: Direction) -> bool {
        let dim = dir.dim();
        assert!(dim < self.n, "direction {dir} out of range");
        let k = usize::from(self.k);
        let c = (node.index() / self.strides[dim]) % k;
        match dir.sign() {
            Sign::Minus => c == 0,
            Sign::Plus => c == k - 1,
        }
    }

    fn min_hops(&self, a: NodeId, b: NodeId) -> usize {
        let k = usize::from(self.k);
        self.digits(a)
            .zip(self.digits(b))
            .map(|(x, y)| {
                let delta = usize::from(x.abs_diff(y));
                delta.min(k - delta)
            })
            .sum()
    }

    fn productive_dirs(&self, from: NodeId, to: NodeId) -> DirSet {
        let k = usize::from(self.k);
        let mut set = DirSet::empty();
        for (dim, (f, t)) in self.digits(from).zip(self.digits(to)).enumerate() {
            let (f, t) = (usize::from(f), usize::from(t));
            if f == t {
                continue;
            }
            let forward = (t + k - f) % k; // hops travelling Plus
            let backward = k - forward; // hops travelling Minus
            if forward <= backward {
                set.insert(Direction::new(dim, Sign::Plus));
            }
            if backward <= forward {
                set.insert(Direction::new(dim, Sign::Minus));
            }
        }
        set
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_node_has_2n_channels() {
        let torus = Torus::new(4, 2);
        assert_eq!(torus.channels().len(), torus.num_nodes() * 4);
        for node in 0..torus.num_nodes() {
            for dir in Direction::all(2) {
                assert!(torus.neighbor(NodeId(node as u32), dir).is_some());
            }
        }
    }

    #[test]
    fn coord_round_trip() {
        let torus = Torus::new(5, 3);
        for id in 0..torus.num_nodes() {
            let node = NodeId(id as u32);
            assert_eq!(torus.node_at(&torus.coord_of(node)), node);
        }
    }

    #[test]
    fn wraparound_neighbors() {
        let torus = Torus::new(4, 2);
        let west_edge = torus.node_at_coords(&[0, 2]);
        assert_eq!(
            torus.neighbor(west_edge, Direction::WEST),
            Some(torus.node_at_coords(&[3, 2]))
        );
        assert!(torus.is_wrap(west_edge, Direction::WEST));
        assert!(!torus.is_wrap(west_edge, Direction::EAST));
        assert!(torus.has_wraparound(0));
    }

    #[test]
    fn min_hops_uses_wraparound() {
        let torus = Torus::new(8, 1);
        let a = torus.node_at_coords(&[0]);
        let b = torus.node_at_coords(&[6]);
        assert_eq!(torus.min_hops(a, b), 2); // wrap westwards: 0 -> 7 -> 6
    }

    #[test]
    fn productive_dirs_tie_allows_both() {
        let torus = Torus::new(4, 1);
        let a = torus.node_at_coords(&[0]);
        let b = torus.node_at_coords(&[2]); // distance 2 both ways
        let dirs = torus.productive_dirs(a, b);
        assert_eq!(dirs.len(), 2);
    }

    #[test]
    fn productive_dirs_prefers_short_way() {
        let torus = Torus::new(8, 2);
        let a = torus.node_at_coords(&[1, 0]);
        let b = torus.node_at_coords(&[7, 0]); // 2 hops west (wrap), 6 east
        assert_eq!(torus.productive_dirs(a, b), DirSet::single(Direction::WEST));
    }

    #[test]
    fn wrap_channel_flagged_in_enumeration() {
        let torus = Torus::new(4, 2);
        let wraps = torus.channels().iter().filter(|c| c.is_wrap()).count();
        // Per dimension: one wrap channel per row per direction = 4 rows * 2 dirs * 2 dims.
        assert_eq!(wraps, 16);
    }

    #[test]
    #[should_panic(expected = "use Hypercube")]
    fn rejects_k2() {
        let _ = Torus::new(2, 3);
    }
}
