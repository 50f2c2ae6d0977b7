//! Channel numberings: the deadlock-freedom witnesses of the paper's
//! proofs.
//!
//! Dally & Seitz: a routing algorithm is deadlock free if the network's
//! channels can be numbered so that the algorithm routes every packet along
//! channels with strictly decreasing (or increasing) numbers. This module
//! gives the concrete numberings used in the paper's proofs, as closed
//! forms: the west-first two-digit scheme of Theorem 2 (Figures 6–8) and
//! the negative-first scheme of Theorem 5. Whether a numbering proves a
//! routing relation deadlock free is the checker's question:
//! `turnroute_analysis::check` validates it as the certificate of the
//! relation's lowered channel graph.

use turnroute_topology::{Mesh, Sign, Topology};

/// The negative-first channel numbering of Theorem 5.
///
/// With `K = Σ k_i` and `X = Σ x_i` for the node a channel leaves, every
/// channel leaving in a positive direction is numbered `K − n + X` and
/// every channel leaving in a negative direction `K − n − X`. The
/// negative-first algorithm routes every packet along strictly increasing
/// numbers.
///
/// Returns one number per channel, indexed by
/// [`ChannelId`](turnroute_topology::ChannelId) in the order of
/// [`Topology::channels`].
pub fn negative_first_numbering(topo: &dyn Topology) -> Vec<i64> {
    let k_sum: i64 = (0..topo.num_dims()).map(|d| topo.radix(d) as i64).sum();
    let n = topo.num_dims() as i64;
    topo.channels()
        .iter()
        .map(|ch| {
            let x = i64::from(topo.coord_of(ch.src()).component_sum());
            match ch.dir().sign() {
                Sign::Plus => k_sum - n + x,
                Sign::Minus => k_sum - n - x,
            }
        })
        .collect()
}

/// A west-first channel numbering for a 2D mesh in the spirit of Figures
/// 6–8 (Theorem 2): lexicographic two-digit numbers `(a, b)` encoded as
/// `a * base + b`, with westward channels numbered above all others and
/// decreasing the farther west, and eastward/northward/southward channels
/// decreasing the farther east (north/south runs tie-broken by the second
/// digit). The west-first algorithm routes every packet along strictly
/// decreasing numbers.
///
/// # Panics
///
/// Panics if `mesh` is not 2-dimensional.
pub fn west_first_numbering(mesh: &Mesh) -> Vec<i64> {
    assert_eq!(mesh.num_dims(), 2, "west-first numbering is for 2D meshes");
    let m = mesh.radix(0) as i64;
    let n = mesh.radix(1) as i64;
    let base = n.max(1) + 1;
    mesh.channels()
        .iter()
        .map(|ch| {
            let c = mesh.coord_of(ch.src());
            let (x, y) = (i64::from(c.get(0)), i64::from(c.get(1)));
            let (a, b) = match (ch.dir().dim(), ch.dir().sign()) {
                (0, Sign::Minus) => (2 * m + x, 0),                  // west
                (0, Sign::Plus) => (2 * (m - 1 - x), 0),             // east
                (1, Sign::Plus) => (2 * (m - 1 - x) + 1, n - 1 - y), // north
                (1, Sign::Minus) => (2 * (m - 1 - x) + 1, y),        // south
                _ => unreachable!("2D mesh has dims 0 and 1"),
            };
            a * base + b
        })
        .collect()
}
