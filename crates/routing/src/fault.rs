//! Fault-aware routing: wrap any turn-model algorithm so it routes around
//! a static fault pattern.
//!
//! [`FaultAware`] is [`turnroute_model::FaultMasked`] owning its fault
//! pattern: the degraded-mode rule the simulator arbitrates by
//! ([`turnroute_model::degraded_route`]) frozen into a routing function.
//! Offered directions that cross a failed link or enter a failed node are
//! removed, and — when that empties the set — any healthy direction the
//! algorithm's turn set allows from the current arrival direction is
//! offered instead, a misroute around the fault.
//!
//! # Deadlock safety
//!
//! Every direction offered, primary or fallback, is legal under the
//! wrapped algorithm's declared turn set. The channel dependency graph of
//! the wrapper is therefore a subgraph of the turn set's CDG, which the
//! turn model proves acyclic — so wrapping cannot introduce deadlock, for
//! any fault pattern. `turnroute_model::verifier::verify_under_faults`
//! checks the same property mechanically per pattern, on this same type.

use turnroute_model::FaultMasked;
use turnroute_topology::FaultSet;

/// A routing function filtered through a static fault pattern it owns,
/// with a turn-legal misroute fallback when every primary output is
/// failed.
///
/// # Example
///
/// ```
/// use turnroute_routing::{mesh2d, FaultAware, RoutingMode};
/// use turnroute_model::RoutingFunction;
/// use turnroute_topology::{Direction, FaultSet, Mesh, Topology};
///
/// let mesh = Mesh::new_2d(4, 4);
/// let mut faults = FaultSet::new(&mesh);
/// let src = mesh.node_at_coords(&[1, 1]);
/// faults.fail_link(&mesh, src, Direction::EAST);
///
/// let routed = FaultAware::new(mesh2d::xy(), &mesh, faults);
/// // xy would go east; the fault-aware wrapper detours instead of
/// // offering the dead channel.
/// let dirs = routed.route(&mesh, src, mesh.node_at_coords(&[3, 1]), None);
/// assert!(!dirs.contains(Direction::EAST));
/// assert!(!dirs.is_empty());
/// ```
pub type FaultAware<R> = FaultMasked<R, FaultSet>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{mesh2d, RoutingMode};
    use turnroute_model::RoutingFunction;
    use turnroute_topology::{Direction, Mesh, NodeId, Topology};

    #[test]
    fn empty_fault_set_routes_like_inner_filtered_by_turns() {
        let mesh = Mesh::new_2d(5, 5);
        let wf = mesh2d::west_first(RoutingMode::Minimal);
        let wrapped = FaultAware::new(
            mesh2d::west_first(RoutingMode::Minimal),
            &mesh,
            FaultSet::new(&mesh),
        );
        for s in 0..25u32 {
            for d in 0..25u32 {
                if s == d {
                    continue;
                }
                let (s, d) = (NodeId(s), NodeId(d));
                // At injection (arrived None) the turn filter is vacuous.
                assert_eq!(
                    wrapped.route(&mesh, s, d, None),
                    wf.route(&mesh, s, d, None)
                );
            }
        }
    }

    #[test]
    fn detours_around_failed_link() {
        let mesh = Mesh::new_2d(5, 5);
        let mut faults = FaultSet::new(&mesh);
        let src = mesh.node_at_coords(&[1, 2]);
        faults.fail_link(&mesh, src, Direction::EAST);
        let routed = FaultAware::new(mesh2d::west_first(RoutingMode::Minimal), &mesh, faults);
        // Destination due east: the minimal move is the failed channel, so
        // the fallback offers a turn-legal detour instead.
        let dirs = routed.route(&mesh, src, mesh.node_at_coords(&[3, 2]), None);
        assert!(!dirs.contains(Direction::EAST));
        assert!(!dirs.is_empty(), "fallback must offer a detour");
        assert!(!routed.is_minimal());
        assert!(routed.name().contains("+faults"));
    }

    #[test]
    fn greedy_walk_delivers_around_single_fault() {
        // A single failed eastward link: every pair must still deliver
        // within a generous hop bound when we walk preferring productive
        // moves.
        let mesh = Mesh::new_2d(5, 5);
        let mut faults = FaultSet::new(&mesh);
        faults.fail_link(&mesh, mesh.node_at_coords(&[2, 2]), Direction::EAST);
        let routed = FaultAware::new(mesh2d::west_first(RoutingMode::Minimal), &mesh, faults);
        let limit = 8 * 25;
        for s in 0..25u32 {
            for d in 0..25u32 {
                if s == d {
                    continue;
                }
                let (src, dst) = (NodeId(s), NodeId(d));
                let mut cur = src;
                let mut arrived = None;
                let mut hops = 0;
                while cur != dst {
                    let dirs = routed.route(&mesh, cur, dst, arrived);
                    // Prefer a productive direction, else take any.
                    let productive = mesh.productive_dirs(cur, dst);
                    let step = dirs
                        .iter()
                        .find(|&x| productive.contains(x))
                        .or_else(|| dirs.iter().next())
                        .unwrap_or_else(|| panic!("dead end at {cur} for {src}->{dst}"));
                    cur = mesh.neighbor(cur, step).unwrap();
                    arrived = Some(step);
                    hops += 1;
                    assert!(hops <= limit, "walk {src}->{dst} exceeded {limit} hops");
                }
            }
        }
    }
}
