//! Turn sets as executable routing functions, plus the adversarial
//! reachability check that licenses simulator cross-validation.
//!
//! The enumeration sweeps classify *turn sets*; the simulator runs
//! *routing functions*. The bridge is subtler than "offer every
//! productive direction the set allows": a turn set does not encode the
//! paper's phase discipline, so the greedy induced function has
//! adversarial dead ends for virtually every prohibition (take the
//! prohibited turn's source direction last and the packet is stuck —
//! e.g. hopping north first under west-first strands a packet that
//! still needs to go west). What the paper's algorithms actually do is
//! keep the trip *completable* at every hop.
//!
//! [`TurnSetRouting`] constructs exactly that: the **maximal coherent
//! minimal routing function** of a turn set on a topology — a direction
//! is offered iff it is productive, turn-legal, and the remaining trip
//! can still finish inside the turn set. Computed by backward induction
//! over distance-to-destination, this mechanically re-derives the phase
//! ordering (under the west-first set, westward hops come first) and
//! lets a set's static CDG verdict be cross-validated against live
//! simulations.
//!
//! [`find_dead_end`] is the matching audit: explore every `(node,
//! arrival)` state reachable under *any* sequence of offered choices and
//! report one where nothing is offered. `None` here plus an acyclic CDG
//! is what guarantees a simulation delivers under any arbitration.

use turnroute_model::{RoutingFunction, TurnSet};
use turnroute_topology::{DirSet, Direction, NodeId, Topology};

/// The maximal coherent minimal routing function induced by a turn set
/// on a fixed topology: offer every productive, turn-legal direction
/// from which the rest of the trip remains completable.
///
/// Bound to the topology supplied at construction; `route` panics if
/// called with a topology of different shape.
#[derive(Debug, Clone)]
pub struct TurnSetRouting {
    name: String,
    set: TurnSet,
    num_nodes: usize,
    num_dims: usize,
    /// `table[dest * num_states + state]` = offered-direction bitmask,
    /// where `state = node * (2n+1) + arrival_code`.
    table: Vec<u32>,
}

impl TurnSetRouting {
    /// Build the coherent function for `set` on `topo`, named `name`.
    ///
    /// Cost is `O(nodes^2 · directions)` table construction, done once.
    ///
    /// # Panics
    ///
    /// Panics if `set` and `topo` disagree on dimensionality.
    pub fn new(name: impl Into<String>, set: TurnSet, topo: &dyn Topology) -> TurnSetRouting {
        assert_eq!(
            set.num_dims(),
            topo.num_dims(),
            "turn set and topology dimensionality must match"
        );
        let n = topo.num_nodes();
        let nd = topo.num_dims();
        let num_arr = 2 * nd + 1;
        let num_states = n * num_arr;
        let state_of = |v: NodeId, arr: Option<Direction>| -> usize {
            v.index() * num_arr + arr.map_or(0, |a| 1 + a.index())
        };

        let mut table = vec![0u32; n * num_states];
        let mut order: Vec<NodeId> = Vec::with_capacity(n);
        for dest in (0..n).map(|d| NodeId(d as u32)) {
            // Backward induction: productive moves strictly decrease the
            // distance to `dest`, so nodes processed nearest-first always
            // find their successors' entries already computed.
            order.clear();
            order.extend((0..n).map(|v| NodeId(v as u32)).filter(|&v| v != dest));
            order.sort_by_key(|&v| topo.min_hops(v, dest));
            for &v in &order {
                for code in 0..num_arr {
                    let arr = match code {
                        0 => None,
                        c => Some(Direction::from_index(c - 1)),
                    };
                    let legal = set.legal_outputs(arr);
                    let mut bits = 0u32;
                    for dir in topo.productive_dirs(v, dest).intersection(legal).iter() {
                        let Some(u) = topo.neighbor(v, dir) else {
                            continue;
                        };
                        let done = u == dest
                            || table[dest.index() * num_states + state_of(u, Some(dir))] != 0;
                        if done {
                            bits |= 1 << dir.index();
                        }
                    }
                    table[dest.index() * num_states + state_of(v, arr)] = bits;
                }
            }
        }

        TurnSetRouting {
            name: name.into(),
            set,
            num_nodes: n,
            num_dims: nd,
            table,
        }
    }

    /// The underlying turn set.
    pub fn turn_set(&self) -> &TurnSet {
        &self.set
    }

    /// Whether every source can inject toward every destination — the
    /// cheap necessary half of connectivity (the sufficient half is that
    /// every offered continuation is completable, which holds by
    /// construction).
    pub fn fully_connected(&self) -> bool {
        let num_arr = 2 * self.num_dims + 1;
        let num_states = self.num_nodes * num_arr;
        (0..self.num_nodes).all(|dest| {
            (0..self.num_nodes)
                .filter(|&src| src != dest)
                .all(|src| self.table[dest * num_states + src * num_arr] != 0)
        })
    }
}

impl RoutingFunction for TurnSetRouting {
    fn name(&self) -> &str {
        &self.name
    }

    fn route(
        &self,
        topo: &dyn Topology,
        current: NodeId,
        dest: NodeId,
        arrived: Option<Direction>,
    ) -> DirSet {
        assert_eq!(topo.num_nodes(), self.num_nodes, "bound to one topology");
        if current == dest {
            return DirSet::empty();
        }
        let num_arr = 2 * self.num_dims + 1;
        let num_states = self.num_nodes * num_arr;
        let state = current.index() * num_arr + arrived.map_or(0, |a| 1 + a.index());
        let bits = self.table[dest.index() * num_states + state];
        Direction::all(self.num_dims)
            .filter(|d| bits & (1 << d.index()) != 0)
            .collect()
    }

    fn is_minimal(&self) -> bool {
        true
    }

    fn turn_set(&self, num_dims: usize) -> Option<TurnSet> {
        (num_dims == self.set.num_dims()).then(|| self.set.clone())
    }
}

/// Search the adversarial routing state graph for a reachable dead end:
/// a `(node, arrival)` state short of the destination where `routing`
/// offers no direction at all.
///
/// Returns a description of the first dead end found, or `None` when
/// every adversarially reachable state keeps moving. Unlike a certified
/// path (one legal route per pair), this explores *every* offered
/// branch, so `None` here plus an acyclic CDG guarantees the simulator
/// delivers under any arbitration.
pub fn find_dead_end(topo: &dyn Topology, routing: &dyn RoutingFunction) -> Option<String> {
    let n = topo.num_nodes();
    let num_arr = 2 * topo.num_dims() + 1;
    let state_of =
        |v: NodeId, arr: Option<Direction>| v.index() * num_arr + arr.map_or(0, |a| 1 + a.index());

    let mut seen = vec![false; n * num_arr];
    let mut frontier: Vec<(NodeId, Option<Direction>)> = Vec::new();
    for dest in (0..n).map(|d| NodeId(d as u32)) {
        seen.iter_mut().for_each(|s| *s = false);
        frontier.clear();
        for src in (0..n).map(|s| NodeId(s as u32)) {
            if src != dest {
                seen[state_of(src, None)] = true;
                frontier.push((src, None));
            }
        }
        while let Some((v, arr)) = frontier.pop() {
            let offered = routing.route(topo, v, dest, arr);
            if offered.is_empty() {
                return Some(match arr {
                    Some(a) => format!("dead end at {v} (arrived {a}) routing toward {dest}"),
                    None => format!("dead end at {v} (at injection) routing toward {dest}"),
                });
            }
            for dir in offered.iter() {
                let Some(u) = topo.neighbor(v, dir) else {
                    continue; // flagged by `check_channels`
                };
                if u == dest {
                    continue;
                }
                let s = state_of(u, Some(dir));
                if !seen[s] {
                    seen[s] = true;
                    frontier.push((u, Some(dir)));
                }
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::verify;
    use turnroute_model::{presets, Cdg};
    use turnroute_topology::Mesh;

    #[test]
    fn preset_turn_sets_fully_verify_as_routing_functions() {
        let mesh = Mesh::new_2d(5, 4);
        for (name, set) in [
            ("west-first", presets::west_first_turns()),
            ("north-last", presets::north_last_turns()),
            ("negative-first", presets::negative_first_turns(2)),
            ("xy", presets::xy_turns()),
        ] {
            let routing = TurnSetRouting::new(name, set, &mesh);
            assert!(routing.fully_connected(), "{name}");
            let report = verify(&mesh, &routing);
            assert!(report.all_ok(), "{report}");
            assert_eq!(find_dead_end(&mesh, &routing), None, "{name}");
            assert!(
                Cdg::from_routing(&mesh, &routing).is_acyclic(),
                "{name}: induced CDG must stay inside the acyclic set CDG"
            );
        }
    }

    #[test]
    fn coherence_rederives_the_phase_discipline() {
        // Under the west-first set, a packet needing both west and north
        // must be offered only west at injection: hopping north first
        // would strand it (north->west is prohibited).
        let mesh = Mesh::new_2d(4, 4);
        let wf = TurnSetRouting::new("west-first", presets::west_first_turns(), &mesh);
        let src = mesh.node_at_coords(&[2, 0]);
        let dst = mesh.node_at_coords(&[0, 2]);
        let offered = wf.route(&mesh, src, dst, None);
        assert_eq!(offered.len(), 1, "{offered:?}");
        assert!(offered.contains(Direction::WEST));
        // Once the westward leg is done, adaptivity returns.
        let turn_point = mesh.node_at_coords(&[0, 0]);
        let north_only = wf.route(&mesh, turn_point, dst, Some(Direction::WEST));
        assert!(north_only.contains(Direction::NORTH));
    }

    #[test]
    fn over_restricted_set_has_a_dead_end() {
        // With every turn prohibited (straight continuation only), a
        // packet needing two legs can never turn: nothing coherent is
        // offered at injection, which the dead-end finder reports.
        let mesh = Mesh::new_2d(3, 3);
        let routing = TurnSetRouting::new("straight-only", TurnSet::no_turns(2), &mesh);
        assert!(!routing.fully_connected());
        let dead = find_dead_end(&mesh, &routing);
        assert!(dead.is_some());
        assert!(dead.unwrap().contains("dead end"), "must describe the stop");
    }
}
