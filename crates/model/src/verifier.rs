//! Per-move checks of a routing function.
//!
//! Deadlock freedom and connectivity are answered once, by the checked
//! certificate behind `turnroute_analysis::verify`. What a certificate
//! does not establish lives here: three checks over every coherent
//! arrival state, each asking whether the moves a [`RoutingFunction`]
//! offers are the moves it promises — minimal ([`check_minimal`]), over
//! existing channels ([`check_channels`]), and inside its declared turn
//! set ([`check_turns`]).

use crate::RoutingFunction;
use turnroute_topology::{Direction, NodeId, Topology};

/// The outcome of one verification check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Check {
    /// The check ran and passed.
    Passed,
    /// The check ran and failed, with an explanation.
    Failed(String),
    /// The check does not apply (e.g. minimality of a nonminimal
    /// function).
    Skipped,
}

impl Check {
    /// Whether this check is not a failure.
    pub fn is_ok(&self) -> bool {
        !matches!(self, Check::Failed(_))
    }
}

/// For a minimal function: every move offered at injection strictly
/// reduces the distance to the destination. Skipped for nonminimal
/// functions.
pub fn check_minimal(topo: &dyn Topology, routing: &dyn RoutingFunction) -> Check {
    if !routing.is_minimal() {
        return Check::Skipped;
    }
    for cur in 0..topo.num_nodes() {
        let cur = NodeId(cur as u32);
        for dst in 0..topo.num_nodes() {
            let dst = NodeId(dst as u32);
            if cur == dst {
                continue;
            }
            let here = topo.min_hops(cur, dst);
            for dir in routing.route(topo, cur, dst, None).iter() {
                let Some(next) = topo.neighbor(cur, dir) else {
                    continue; // reported by check_channels
                };
                if topo.min_hops(next, dst) >= here {
                    return Check::Failed(format!(
                        "unproductive move {dir} at {cur} toward {dst} from a minimal function"
                    ));
                }
            }
        }
    }
    Check::Passed
}

/// Every direction offered, at injection or in any coherent arrival
/// state, corresponds to an existing channel.
pub fn check_channels(topo: &dyn Topology, routing: &dyn RoutingFunction) -> Check {
    let arrivals: Vec<Option<Direction>> = std::iter::once(None)
        .chain(Direction::all(topo.num_dims()).map(Some))
        .collect();
    for cur in 0..topo.num_nodes() {
        let cur = NodeId(cur as u32);
        for dst in 0..topo.num_nodes() {
            let dst = NodeId(dst as u32);
            for &arrived in &arrivals {
                // Only coherent arrival states (a channel into `cur`).
                if let Some(a) = arrived {
                    if topo.neighbor(cur, a.opposite()).is_none() {
                        continue;
                    }
                }
                for dir in routing.route(topo, cur, dst, arrived).iter() {
                    if topo.neighbor(cur, dir).is_none() {
                        return Check::Failed(format!(
                            "nonexistent channel {dir} offered at {cur} (dest {dst})"
                        ));
                    }
                }
            }
        }
    }
    Check::Passed
}

/// Every move from a coherent arrival state is allowed by the function's
/// declared turn set. Skipped when it declares none.
pub fn check_turns(topo: &dyn Topology, routing: &dyn RoutingFunction) -> Check {
    let Some(set) = routing.turn_set(topo.num_dims()) else {
        return Check::Skipped;
    };
    for cur in 0..topo.num_nodes() {
        let cur = NodeId(cur as u32);
        for dst in 0..topo.num_nodes() {
            let dst = NodeId(dst as u32);
            for arrived in Direction::all(topo.num_dims()) {
                if topo.neighbor(cur, arrived.opposite()).is_none() {
                    continue;
                }
                for out in routing.route(topo, cur, dst, Some(arrived)).iter() {
                    if !set.is_allowed(arrived, out) {
                        return Check::Failed(format!(
                            "move {arrived} -> {out} at {cur} is outside the declared turn set"
                        ));
                    }
                }
            }
        }
    }
    Check::Passed
}

#[cfg(test)]
mod tests {
    use super::*;
    use turnroute_topology::{DirSet, Mesh};

    /// Offers every existing direction: nonminimal, no turn set.
    struct Wanderer;

    impl RoutingFunction for Wanderer {
        fn name(&self) -> &str {
            "wanderer"
        }

        fn route(
            &self,
            topo: &dyn Topology,
            current: NodeId,
            _dest: NodeId,
            _arrived: Option<Direction>,
        ) -> DirSet {
            Direction::all(topo.num_dims())
                .filter(|&d| topo.neighbor(current, d).is_some())
                .collect()
        }

        fn is_minimal(&self) -> bool {
            false
        }
    }

    /// Claims minimality and the west-first turn set, but always offers
    /// east, off the mesh edge and away from western destinations.
    struct AlwaysEast;

    impl RoutingFunction for AlwaysEast {
        fn name(&self) -> &str {
            "always-east"
        }

        fn route(
            &self,
            _topo: &dyn Topology,
            _current: NodeId,
            _dest: NodeId,
            _arrived: Option<Direction>,
        ) -> DirSet {
            DirSet::single(Direction::EAST)
        }

        fn is_minimal(&self) -> bool {
            true
        }

        fn turn_set(&self, num_dims: usize) -> Option<crate::TurnSet> {
            (num_dims == 2).then(crate::presets::west_first_turns)
        }
    }

    #[test]
    fn a_nonminimal_function_without_a_turn_set_skips_two_checks() {
        let mesh = Mesh::new_2d(3, 3);
        assert_eq!(check_minimal(&mesh, &Wanderer), Check::Skipped);
        assert_eq!(check_turns(&mesh, &Wanderer), Check::Skipped);
        assert_eq!(check_channels(&mesh, &Wanderer), Check::Passed);
    }

    #[test]
    fn each_check_names_the_move_it_rejects() {
        let mesh = Mesh::new_2d(3, 3);
        let failed = |c: Check| match c {
            Check::Failed(why) => why,
            other => panic!("expected a failure, got {other:?}"),
        };
        assert!(failed(check_minimal(&mesh, &AlwaysEast)).contains("unproductive move"));
        assert!(failed(check_channels(&mesh, &AlwaysEast)).contains("nonexistent channel"));
        // Arriving westbound and reversing east is no legal turn.
        assert!(failed(check_turns(&mesh, &AlwaysEast)).contains("outside the declared turn set"));
    }
}
