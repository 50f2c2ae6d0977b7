//! Hexagonal-mesh routing — the paper's Section 7 extension, realized.
//!
//! "Another obvious extension of our work is to apply the turn model to
//! other topologies, such as hexagonal … networks, all of which permit
//! adaptive routing without the addition of channels. In such topologies,
//! the turns are not necessarily 90-degrees and the abstract cycles are
//! not necessarily formed by four turns."
//!
//! A hexagonal mesh ([`turnroute_topology::HexMesh`]) has six directions
//! along three axes, so its turns come in 60- and 120-degree varieties and
//! its minimal cycles have three turns (a triangle of axes). The
//! negative-first prohibition pattern still breaks every cycle: prohibit
//! all turns from a positive direction to a negative direction, route
//! adaptively among productive negative directions first, then among
//! positive ones. The generic [`TwoPhase`] scheme
//! expresses this directly; this module just names it and pins down its
//! properties with hex-specific tests.

use crate::{RoutingMode, TwoPhase};
use turnroute_topology::{DirSet, Direction, Sign};

/// Negative-first routing for hexagonal meshes: phase 1 routes adaptively
/// among the productive negative directions (west, north-west,
/// south-west), phase 2 among the positive ones. Deadlock free by the
/// turn model — every cycle of the hex channel graph needs a
/// positive-to-negative turn — and verified mechanically by the channel
/// dependency graph in this module's tests (the full one-call verdict on
/// assorted hex meshes is in `turnroute_analysis::verify`'s tests).
pub fn negative_first_hex(mode: RoutingMode) -> TwoPhase {
    let phase1: DirSet = Direction::all(3)
        .filter(|d| d.sign() == Sign::Minus)
        .collect();
    TwoPhase::new("negative-first-hex", 3, phase1, mode)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FullyAdaptive, RoutingFunction};
    use turnroute_model::adaptiveness::count_minimal_paths;
    use turnroute_model::Cdg;
    use turnroute_topology::{HexMesh, NodeId, Topology};

    #[test]
    fn unrestricted_adaptivity_deadlocks_on_hex_too() {
        // The hazard the turn model fixes is not mesh-specific.
        let hex = HexMesh::new(4, 4);
        assert!(Cdg::from_routing(&hex, &FullyAdaptive::new())
            .find_cycle()
            .is_some());
    }

    #[test]
    fn nonminimal_mode_is_deadlock_free() {
        let hex = HexMesh::new(4, 4);
        let nf = negative_first_hex(RoutingMode::Nonminimal);
        assert!(Cdg::from_routing(&hex, &nf).is_acyclic());
    }

    #[test]
    fn diagonal_axis_gives_more_paths_than_a_square_mesh() {
        // From (0,0) to (2,2): on a 2D mesh that pair has 6 shortest
        // paths under full adaptivity; on the hex rhombus the distance is
        // 4 (no +C shortcut for same-sign offsets) and negative-first is
        // fully adaptive on the all-positive quadrant.
        let hex = HexMesh::new(5, 5);
        let nf = negative_first_hex(RoutingMode::Minimal);
        let src = hex.node_at_axial(0, 0);
        let dst = hex.node_at_axial(2, 2);
        assert_eq!(hex.min_hops(src, dst), 4);
        let paths = count_minimal_paths(&hex, &nf, src, dst);
        assert!(paths >= 6, "expected rich adaptivity, got {paths}");
    }

    #[test]
    fn mixed_offsets_use_the_diagonal_axis() {
        // dq = +2, dr = -3 resolves in 3 hops via -B and +C moves.
        let hex = HexMesh::new(6, 6);
        let nf = negative_first_hex(RoutingMode::Minimal);
        let src = hex.node_at_axial(0, 3);
        let dst = hex.node_at_axial(2, 0);
        let mut cur = src;
        let mut arrived = None;
        let mut hops = 0;
        while cur != dst {
            let dirs = nf.route(&hex, cur, dst, arrived);
            assert!(!dirs.is_empty(), "stuck at {cur}");
            let dir = dirs.iter().next().unwrap();
            cur = hex.neighbor(cur, dir).unwrap();
            arrived = Some(dir);
            hops += 1;
        }
        assert_eq!(hops, 3);
    }

    #[test]
    fn phase1_comes_first_on_hex() {
        let hex = HexMesh::new(6, 6);
        let nf = negative_first_hex(RoutingMode::Minimal);
        // dq = -1, dr = +3: the productive directions are -C (negative)
        // and +B (positive); negative-first must offer only -C first.
        let src = hex.node_at_axial(1, 0);
        let dst = hex.node_at_axial(0, 3);
        let dirs = nf.route(&hex, src, dst, None);
        assert!(!dirs.is_empty());
        for d in dirs.iter() {
            assert_eq!(d.sign(), Sign::Minus, "phase 1 must be negative, got {d}");
            assert_eq!(d.dim(), 2, "the productive negative axis is C");
        }
        // After the -C hop, only +B remains productive.
        let mid = hex.node_at_axial(0, 1);
        let dirs = nf.route(&hex, mid, dst, Some(Direction::new(2, Sign::Minus)));
        assert_eq!(dirs.len(), 1);
        let d = dirs.iter().next().unwrap();
        assert_eq!((d.dim(), d.sign()), (1, Sign::Plus));
    }

    #[test]
    fn hex_path_counts_match_exhaustive_walks() {
        let hex = HexMesh::new(4, 4);
        let nf = negative_first_hex(RoutingMode::Minimal);
        for s in 0..hex.num_nodes() {
            for d in 0..hex.num_nodes() {
                if s == d {
                    continue;
                }
                let (s, d) = (NodeId(s as u32), NodeId(d as u32));
                let paths = count_minimal_paths(&hex, &nf, s, d);
                assert!(paths >= 1, "{s}->{d} unroutable");
            }
        }
    }
}
