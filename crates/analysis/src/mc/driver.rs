//! The seam between the explorer and the real routers.
//!
//! `turncheck`'s whole point is that it model-checks the *production
//! engine*, not a re-model of it: every transition the explorer takes is
//! one [`turnroute_sim::Engine::step_with_choices`] of the same code CI
//! benchmarks and the experiments run. There is one engine, so the
//! explorer is simply generic over its [`Lanes`] adapter and calls the
//! engine's own snapshot/scripted-step seam and state views; the only
//! derived view kept here is [`deadlock_cycle`].
//!
//! [`BuggyRouter`] is the planted defect for the CI gate's self-test: a
//! wrapper that, at exactly one router, ignores the turn discipline and
//! offers every productive direction (and reports no turn set, so the
//! engine's own arbitration-side filter is skipped too). A checker that
//! cannot find the resulting reachable wedge is blind, and the gate
//! fails.

use turnroute_model::{RoutingFunction, TurnSet};
use turnroute_sim::{Engine, Lanes};
use turnroute_topology::{DirSet, Direction, NodeId, Topology};

/// The circular wait of `engine`'s current state, as an *ordered* slot
/// cycle (each entry waits for the next, wrapping), or empty when no
/// circular wait exists.
pub(crate) fn deadlock_cycle<'a, L: Lanes<'a>>(engine: &Engine<'a, L>) -> Vec<usize> {
    let snap = engine.deadlock_snapshot();
    let members = snap.cycle_channels();
    let Some(&start) = members.first() else {
        return Vec::new();
    };
    // cycle_channels reports membership sorted by slot index; recover
    // the wait order by chasing the (partial-function) waits-for
    // pointers around the cycle.
    let mut next = vec![usize::MAX; snap.layout.num_channels];
    for e in &snap.edges {
        if let Some(w) = e.waits_for {
            next[e.channel] = w;
        }
    }
    let mut cycle = vec![start];
    let mut c = next[start];
    while c != start && c != usize::MAX && cycle.len() <= members.len() {
        cycle.push(c);
        c = next[c];
    }
    if c == start {
        cycle
    } else {
        Vec::new()
    }
}

/// The planted defect for the `--inject-bad` self-test: at router `at`,
/// the turn-set discipline is skipped and every productive direction is
/// offered; everywhere else the wrapped function is consulted verbatim.
/// [`RoutingFunction::turn_set`] reports `None`, so the engine's
/// arbitration-side turn filter — the second line of defense — is off as
/// well, exactly the failure mode of an arbiter wired past its filter.
pub struct BuggyRouter<R> {
    inner: R,
    at: NodeId,
    name: String,
}

impl<R: RoutingFunction> BuggyRouter<R> {
    /// Wrap `inner`, planting the filter skip at router `at`.
    pub fn new(inner: R, at: NodeId) -> BuggyRouter<R> {
        let name = format!("buggy({} at n{})", inner.name(), at.0);
        BuggyRouter { inner, at, name }
    }
}

impl<R: RoutingFunction> RoutingFunction for BuggyRouter<R> {
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
        if current == self.at && current != dest {
            topo.productive_dirs(current, dest)
        } else {
            self.inner.route(topo, current, dest, arrived)
        }
    }

    fn is_minimal(&self) -> bool {
        self.inner.is_minimal()
    }

    fn turn_set(&self, _num_dims: usize) -> Option<TurnSet> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::extract::PlantedCyclicVc;
    use turnroute_sim::harness;
    use turnroute_topology::Mesh;
    use turnroute_traffic::Uniform;
    use turnroute_vc::VcSim;

    #[test]
    fn deadlock_cycle_orders_a_virtual_channel_wedge() {
        let mesh = Mesh::new_2d(8, 8);
        let pattern = Uniform::new();
        let cfg = harness::saturating_config(11, 20_000, 300);
        let mut sim = VcSim::new(&mesh, &PlantedCyclicVc, &pattern, cfg);
        assert!(sim.run().deadlocked);
        let cycle = deadlock_cycle(&sim);
        assert!(cycle.len() >= 2, "{cycle:?}");
        // Each entry waits for the next, wrapping.
        let snap = sim.deadlock_snapshot();
        for (i, &c) in cycle.iter().enumerate() {
            let edge = snap
                .edges
                .iter()
                .find(|e| e.channel == c)
                .expect("occupied");
            assert_eq!(edge.waits_for, Some(cycle[(i + 1) % cycle.len()]));
        }
    }
}
