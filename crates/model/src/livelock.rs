//! Progress (livelock-freedom) analysis: proving a bounded-misroute
//! potential function exists for a routing function.
//!
//! The paper requires routing algorithms to be both deadlock free *and*
//! livelock free. For minimal functions livelock freedom is immediate —
//! every hop strictly decreases the distance to the destination, so the
//! distance itself is the potential function. For *nonminimal* functions
//! (the `two_phase` wander modes, the fault-aware misroute fallback) no
//! such one-liner applies, and the verifier historically just skipped the
//! question.
//!
//! This module closes that gap mechanically. Fix a destination `d` and
//! consider the **routing state graph**: states are `(node, arrival)`
//! pairs a packet headed for `d` can occupy, and there is an edge for
//! every direction the routing function offers, whichever the adversary
//! (traffic, arbitration) makes the packet take. If this graph is
//! **acyclic** for every destination, its topological order *is* a
//! potential function: every hop strictly decreases it, so any packet
//! reaches `d` within a bounded number of hops, misrouting included —
//! livelock is impossible no matter how unluckily channels are granted.
//! The analysis also extracts the **intrinsic misroute bound**: the
//! maximum number of unproductive hops on any path of the (acyclic)
//! state graph, which is the worst case any packet can suffer.
//!
//! The connection to deadlock freedom is the same one the paper exploits:
//! a cycle of states maps onto a cycle of channel dependencies, so a
//! routing relation whose channel dependency graph is acyclic can never
//! livelock an individual packet either. Running the check directly (per
//! destination, over reachable states only) both validates that argument
//! end to end and produces a concrete witness walk when it fails.

use crate::verifier::Check;
use crate::RoutingFunction;
use turnroute_topology::{Direction, NodeId, Topology};

/// Outcome of the progress analysis of one routing function.
#[derive(Debug, Clone, PartialEq)]
pub struct ProgressReport {
    /// Name of the analyzed algorithm.
    pub algorithm: String,
    /// Whether a bounded-misroute potential function exists (the
    /// adversarial routing state graph is acyclic for every destination).
    /// The failure message contains a witness walk that revisits a state.
    pub bounded: Check,
    /// The intrinsic misroute bound: the maximum number of unproductive
    /// hops on any adversarial path, over all source/destination pairs.
    /// Zero for minimal functions. Meaningful only when `bounded` passed.
    pub max_misroutes: usize,
}

/// One offered move out of a routing state.
#[derive(Debug, Clone, Copy)]
struct Edge {
    /// Target state, or `None` when the move delivers to the destination.
    to: Option<usize>,
    /// The direction taken (for witness printing).
    dir: Direction,
    /// Whether the move fails to decrease `min_hops` to the destination.
    unproductive: bool,
}

const WHITE: u8 = 0;
const GRAY: u8 = 1;
const BLACK: u8 = 2;

/// Prove (or refute) that `routing` admits a bounded-misroute potential
/// function on `topo`.
///
/// Explores, per destination, every state `(node, arrival)` reachable
/// under adversarial choices among the offered directions. Runtime is
/// `O(nodes^2 · directions^2)` — the same ballpark as lowering the
/// relation onto its channel dependency graph.
pub fn check_progress(topo: &dyn Topology, routing: &dyn RoutingFunction) -> ProgressReport {
    let n = topo.num_nodes();
    let num_arr = 2 * topo.num_dims() + 1;
    let num_states = n * num_arr;
    // Offered directions can't escape the topology's direction set, so a
    // state is (node, arrival code); code 0 is "freshly injected".
    let state_of = |v: NodeId, arr: Option<Direction>| -> usize {
        v.index() * num_arr + arr.map_or(0, |a| 1 + a.index())
    };
    let show = |s: usize| -> String {
        let v = NodeId((s / num_arr) as u32);
        match s % num_arr {
            0 => format!("{v}[injected]"),
            c => format!("{v}[arrived {}]", Direction::from_index(c - 1)),
        }
    };

    let mut max_misroutes = 0usize;
    let mut color = vec![WHITE; num_states];
    // Max unproductive hops on any path out of a finished state.
    let mut worst = vec![0u32; num_states];
    let mut edges: Vec<Option<Vec<Edge>>> = vec![None; num_states];
    // DFS stack of (state, next edge index to explore).
    let mut stack: Vec<(usize, usize)> = Vec::new();

    for dest in (0..n).map(|d| NodeId(d as u32)) {
        color.iter_mut().for_each(|c| *c = WHITE);
        worst.iter_mut().for_each(|w| *w = 0);
        edges.iter_mut().for_each(|e| *e = None);
        let here = |v: NodeId| topo.min_hops(v, dest);

        for src in (0..n).map(|s| NodeId(s as u32)) {
            if src == dest || color[state_of(src, None)] != WHITE {
                continue;
            }
            stack.clear();
            stack.push((state_of(src, None), 0));
            color[state_of(src, None)] = GRAY;
            while let Some(&mut (s, ref mut next)) = stack.last_mut() {
                if edges[s].is_none() {
                    let v = NodeId((s / num_arr) as u32);
                    let arr = match s % num_arr {
                        0 => None,
                        c => Some(Direction::from_index(c - 1)),
                    };
                    let mut out = Vec::new();
                    for dir in routing.route(topo, v, dest, arr).iter() {
                        let Some(u) = topo.neighbor(v, dir) else {
                            continue; // reported by the channels-valid check
                        };
                        out.push(Edge {
                            to: (u != dest).then(|| state_of(u, Some(dir))),
                            dir,
                            unproductive: here(u) >= here(v),
                        });
                    }
                    edges[s] = Some(out);
                }
                let outs = edges[s].as_ref().expect("computed above");
                let Some(&e) = outs.get(*next) else {
                    // Finished: fold children into the misroute bound.
                    let w = outs
                        .iter()
                        .map(|e| u32::from(e.unproductive) + e.to.map_or(0, |t| worst[t]))
                        .max()
                        .unwrap_or(0);
                    worst[s] = w;
                    max_misroutes = max_misroutes.max(w as usize);
                    color[s] = BLACK;
                    stack.pop();
                    continue;
                };
                *next += 1;
                let Some(t) = e.to else { continue };
                match color[t] {
                    WHITE => {
                        color[t] = GRAY;
                        stack.push((t, 0));
                    }
                    GRAY => {
                        // A reachable state repeats: the adversary can loop
                        // this walk forever. Reconstruct it from the stack.
                        let pos = stack
                            .iter()
                            .position(|&(fs, _)| fs == t)
                            .expect("gray state is on the stack");
                        let mut walk = String::new();
                        for &(fs, fnext) in &stack[pos..] {
                            let taken = edges[fs].as_ref().expect("visited")[fnext - 1];
                            walk.push_str(&format!("{} --{}--> ", show(fs), taken.dir));
                        }
                        walk.push_str(&format!("{} (revisited)", show(t)));
                        return ProgressReport {
                            algorithm: routing.name().to_string(),
                            bounded: Check::Failed(format!(
                                "routing to {dest} admits an unbounded adversarial walk: {walk}"
                            )),
                            max_misroutes: 0,
                        };
                    }
                    _ => {}
                }
            }
        }
    }

    ProgressReport {
        algorithm: routing.name().to_string(),
        bounded: Check::Passed,
        max_misroutes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use turnroute_topology::{DirSet, Mesh};

    /// Minimal fully adaptive: livelock free by the distance argument.
    struct MinimalAdaptive;

    impl RoutingFunction for MinimalAdaptive {
        fn name(&self) -> &str {
            "minimal-adaptive"
        }

        fn route(
            &self,
            topo: &dyn Topology,
            current: NodeId,
            dest: NodeId,
            _arrived: Option<Direction>,
        ) -> DirSet {
            topo.productive_dirs(current, dest)
        }

        fn is_minimal(&self) -> bool {
            true
        }
    }

    /// Offers every direction everywhere: the adversary can walk any
    /// cycle of the mesh forever.
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

    #[test]
    fn minimal_function_has_zero_misroute_bound() {
        let mesh = Mesh::new_2d(5, 5);
        let report = check_progress(&mesh, &MinimalAdaptive);
        assert_eq!(report.bounded, Check::Passed);
        assert_eq!(report.max_misroutes, 0);
    }

    #[test]
    fn unrestricted_wandering_is_flagged_with_a_witness() {
        let mesh = Mesh::new_2d(3, 3);
        let report = check_progress(&mesh, &Wanderer);
        let Check::Failed(why) = &report.bounded else {
            panic!("wanderer must fail progress: {report:?}");
        };
        assert!(why.contains("revisited"), "{why}");
        assert!(why.contains("-->"), "{why}");
    }
}
