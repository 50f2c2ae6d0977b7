//! Channel numberings: the deadlock-freedom witnesses of the paper's
//! proofs.
//!
//! Dally & Seitz: a routing algorithm is deadlock free if the network's
//! channels can be numbered so that the algorithm routes every packet along
//! channels with strictly decreasing (or increasing) numbers. This module
//! implements the concrete numberings used in the paper's proofs — the
//! west-first two-digit scheme of Theorem 2 (Figures 6–8) and the
//! negative-first scheme of Theorem 5 — plus a generic numbering extracted
//! from any acyclic [`Cdg`], and a checker that verifies monotonicity over
//! every move a routing function can make.

use crate::{Cdg, DepGraph, RoutingFunction};
use turnroute_topology::{ChannelId, Mesh, Sign, Topology};

/// Whether packets must see strictly increasing or strictly decreasing
/// channel numbers along their routes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Monotonic {
    /// Numbers must strictly increase hop over hop (Theorem 5 style).
    Increasing,
    /// Numbers must strictly decrease hop over hop (Theorem 2 style).
    Decreasing,
}

/// A reported violation of monotonicity: the packet moved from the first
/// channel to the second, but their numbers are not ordered as required.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Violation {
    /// The channel the packet arrived on.
    pub from: ChannelId,
    /// The channel the packet departed on.
    pub to: ChannelId,
    /// Number assigned to `from`.
    pub from_number: i64,
    /// Number assigned to `to`.
    pub to_number: i64,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "move {}({}) -> {}({}) violates monotonic numbering",
            self.from, self.from_number, self.to, self.to_number
        )
    }
}

/// The negative-first channel numbering of Theorem 5.
///
/// With `K = Σ k_i` and `X = Σ x_i` for the node a channel leaves, every
/// channel leaving in a positive direction is numbered `K − n + X` and
/// every channel leaving in a negative direction `K − n − X`. The
/// negative-first algorithm routes every packet along strictly increasing
/// numbers.
///
/// Returns one number per channel, indexed by [`ChannelId`] in the order of
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

/// Extract a channel numbering from an acyclic CDG: channel numbers are
/// topological positions, so every dependency edge — hence every move any
/// covered packet can make — strictly increases the number. Returns `None`
/// if the CDG is cyclic (no such numbering exists; the routing deadlocks).
pub fn numbering_from_cdg(cdg: &Cdg) -> Option<Vec<i64>> {
    cdg.graph().numbering()
}

/// Extract a numbering for an *arbitrary* dependency relation — the
/// generalization of [`numbering_from_cdg`] to graphs whose vertices are
/// not the physical channels of a [`Topology`]: virtual channels of the
/// double-y scheme, fault-degraded channel graphs, or anything else with
/// dense `u32` vertex ids. `edges` are `(from, to)` pairs; the result
/// assigns every vertex a number such that every edge strictly increases
/// it, or `None` if the relation is cyclic (no numbering exists).
///
/// # Panics
///
/// Panics if an edge endpoint is `>= num_vertices`.
pub fn numbering_from_edges(num_vertices: usize, edges: &[(u32, u32)]) -> Option<Vec<i64>> {
    DepGraph::from_edges(num_vertices, edges).numbering()
}

/// Verify that `routing` moves packets along strictly monotonic channel
/// numbers: for every dependency `c1 -> c2` of the routing function's CDG
/// ([`Cdg::from_routing`]: some destination makes it offer `c2` to a
/// packet holding `c1`), `numbers[c2]` must be ordered after `numbers[c1]`
/// as `monotonic` requires.
///
/// # Errors
///
/// Returns the first [`Violation`] found.
///
/// # Panics
///
/// Panics if `numbers.len()` differs from the topology's channel count.
pub fn verify_monotonic(
    topo: &dyn Topology,
    routing: &dyn RoutingFunction,
    numbers: &[i64],
    monotonic: Monotonic,
) -> Result<(), Violation> {
    let cdg = Cdg::from_routing(topo, routing);
    assert_eq!(
        numbers.len(),
        cdg.channels().len(),
        "one number per channel required"
    );
    for (c1, c2) in cdg.graph().edges() {
        let (a, b) = (numbers[c1 as usize], numbers[c2 as usize]);
        let ok = match monotonic {
            Monotonic::Increasing => a < b,
            Monotonic::Decreasing => a > b,
        };
        if !ok {
            return Err(Violation {
                from: ChannelId(c1),
                to: ChannelId(c2),
                from_number: a,
                to_number: b,
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TurnSet;
    use turnroute_topology::{DirSet, Direction, NodeId};

    /// Minimal negative-first routing, inlined for witness tests.
    struct MinimalNegativeFirst;

    impl RoutingFunction for MinimalNegativeFirst {
        fn name(&self) -> &str {
            "negative-first (test)"
        }

        fn route(
            &self,
            topo: &dyn Topology,
            current: NodeId,
            dest: NodeId,
            arrived: Option<Direction>,
        ) -> DirSet {
            let productive = topo.productive_dirs(current, dest);
            if matches!(arrived, Some(d) if d.sign() == Sign::Plus) {
                // Phase 2: once traveling positive, never turn negative.
                return productive
                    .iter()
                    .filter(|d| d.sign() == Sign::Plus)
                    .collect();
            }
            let negative: DirSet = productive
                .iter()
                .filter(|d| d.sign() == Sign::Minus)
                .collect();
            if negative.is_empty() {
                productive
            } else {
                negative
            }
        }

        fn is_minimal(&self) -> bool {
            true
        }
    }

    /// Minimal west-first routing, inlined for witness tests.
    struct MinimalWestFirst;

    impl RoutingFunction for MinimalWestFirst {
        fn name(&self) -> &str {
            "west-first (test)"
        }

        fn route(
            &self,
            topo: &dyn Topology,
            current: NodeId,
            dest: NodeId,
            arrived: Option<Direction>,
        ) -> DirSet {
            let productive = topo.productive_dirs(current, dest);
            if productive.contains(Direction::WEST) {
                match arrived {
                    None | Some(Direction::WEST) => DirSet::single(Direction::WEST),
                    // A west-first packet never needs west after leaving it;
                    // this state is unreachable.
                    Some(_) => DirSet::empty(),
                }
            } else {
                productive
            }
        }

        fn is_minimal(&self) -> bool {
            true
        }
    }

    #[test]
    fn theorem_5_numbering_increases_for_negative_first() {
        for dims in [vec![4, 4], vec![3, 3, 3], vec![5, 2, 3]] {
            let mesh = Mesh::new(dims);
            let numbers = negative_first_numbering(&mesh);
            verify_monotonic(
                &mesh,
                &MinimalNegativeFirst,
                &numbers,
                Monotonic::Increasing,
            )
            .expect("Theorem 5 numbering must strictly increase");
        }
    }

    #[test]
    fn theorem_2_numbering_decreases_for_west_first() {
        for (m, n) in [(4, 4), (8, 8), (3, 7), (7, 3)] {
            let mesh = Mesh::new_2d(m, n);
            let numbers = west_first_numbering(&mesh);
            verify_monotonic(&mesh, &MinimalWestFirst, &numbers, Monotonic::Decreasing)
                .expect("Theorem 2 style numbering must strictly decrease");
        }
    }

    #[test]
    fn west_first_numbering_fails_for_negative_first() {
        // Negative-first takes turns west-first prohibits, so the
        // west-first numbering must NOT witness it.
        let mesh = Mesh::new_2d(4, 4);
        let numbers = west_first_numbering(&mesh);
        assert!(verify_monotonic(
            &mesh,
            &MinimalNegativeFirst,
            &numbers,
            Monotonic::Decreasing
        )
        .is_err());
    }

    #[test]
    fn cdg_numbering_witnesses_every_acyclic_preset() {
        let mesh = Mesh::new_2d(4, 4);
        let set = crate::presets::negative_first_turns(2);
        let cdg = Cdg::from_turn_set(&mesh, &set);
        let numbers = numbering_from_cdg(&cdg).expect("acyclic");
        verify_monotonic(
            &mesh,
            &MinimalNegativeFirst,
            &numbers,
            Monotonic::Increasing,
        )
        .expect("topological numbering witnesses the covered routing");
    }

    #[test]
    fn cdg_numbering_none_when_cyclic() {
        let mesh = Mesh::new_2d(3, 3);
        let cdg = Cdg::from_turn_set(&mesh, &TurnSet::all_ninety(2));
        assert!(numbering_from_cdg(&cdg).is_none());
    }

    #[test]
    fn violation_display_is_informative() {
        let v = Violation {
            from: ChannelId(1),
            to: ChannelId(2),
            from_number: 5,
            to_number: 5,
        };
        let s = v.to_string();
        assert!(s.contains("c1(5)") && s.contains("c2(5)"), "{s}");
    }
}
