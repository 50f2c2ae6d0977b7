//! Turn sets as executable routing functions.
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
//! simulations. Whether a set's function strands a packet anywhere is
//! the checked progress claim's `dead_ends`
//! ([`crate::verify::checked_progress`]).

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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::extract;
    use crate::verify::{checked_progress, verify};
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
            let report = verify(&mesh, &routing);
            assert!(report.all_ok(), "{report}");
            let spec = extract::from_routing(name, &mesh, &routing);
            let progress = checked_progress(&spec).expect("the progress claim checks");
            assert_eq!(progress.dead_ends, [], "{name}");
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
        // offered at injection, which the progress claim lists.
        let mesh = Mesh::new_2d(3, 3);
        let routing = TurnSetRouting::new("straight-only", TurnSet::no_turns(2), &mesh);
        let spec = extract::from_routing("straight-only", &mesh, &routing);
        let progress = checked_progress(&spec).expect("the progress claim checks");
        // Toward n0, the four sources off its row and column.
        let toward_n0: Vec<(u32, u32)> = progress.dead_ends.iter().copied().take(4).collect();
        assert_eq!(toward_n0, [(0, 4), (0, 5), (0, 7), (0, 8)]);
        let dead = progress.dead_end_witness(&spec).expect("a dead end");
        assert!(dead.contains("dead end at n4 [injected]"), "{dead}");
    }
}
