//! Deterministic fault-injection schedules.
//!
//! A [`FaultPlan`] is a list of scheduled link/node failures — permanent or
//! transient — that the engine applies as simulated time passes. Plans are
//! plain data: cloneable, comparable, and independent of any simulator
//! instance, so the same plan can drive the base engine and the
//! virtual-channel simulator and both stay deterministic (identical seed +
//! identical plan ⇒ identical report).
//!
//! The fault model is *fail-stop for new channel acquisitions*: a failed
//! channel is never assigned to a new worm, but flits already streaming
//! across it drain normally (the link completes in-flight transfers). A
//! failed node additionally stops injecting and ejecting. Packets whose
//! only legal routes are failed simply wait; the engine's packet timeout
//! ([`crate::SimConfig::packet_timeout`]) then retries or drops them, which
//! is what turns a partitioned network into a degradation summary instead
//! of a hang.

use turnroute_rng::rngs::StdRng;
use turnroute_rng::{Rng, SeedableRng};
use turnroute_topology::{Direction, FaultSet, NodeId, Topology};

/// The component a fault takes down.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultTarget {
    /// The unidirectional channel leaving `node` in `dir`.
    Link {
        /// Source router of the channel.
        node: NodeId,
        /// Direction the channel points.
        dir: Direction,
    },
    /// A whole router: every channel leaving or entering it, plus its
    /// injection and ejection service.
    Node(NodeId),
}

/// One scheduled failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fault {
    /// What fails.
    pub target: FaultTarget,
    /// Cycle the failure activates.
    pub start: u64,
    /// How long it lasts; `None` is permanent. A transient fault is active
    /// during `[start, start + duration)`.
    pub duration: Option<u64>,
}

/// A state transition compiled from a [`FaultPlan`]: at cycle `at`, the
/// target goes `down` (or comes back up). Overlapping faults on the same
/// component are reference-counted by the simulators, so transitions can
/// be applied independently.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// Cycle the transition takes effect.
    pub at: u64,
    /// What changes state.
    pub target: FaultTarget,
    /// `true` = failure activates, `false` = it heals.
    pub down: bool,
}

/// A deterministic schedule of link and node failures.
///
/// # Example
///
/// ```
/// use turnroute_sim::{FaultPlan, FaultTarget};
/// use turnroute_topology::{Direction, NodeId};
///
/// let plan = FaultPlan::new()
///     .permanent_link(NodeId(5), Direction::EAST, 1_000)
///     .transient_node(NodeId(9), 2_000, 500);
/// assert_eq!(plan.len(), 2);
/// assert!(!plan.is_empty());
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultPlan {
    faults: Vec<Fault>,
}

impl FaultPlan {
    /// An empty plan (the default): no faults, and the engine's fault
    /// machinery stays a branch-predictable no-op.
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    /// Add an arbitrary fault.
    pub fn with(mut self, fault: Fault) -> FaultPlan {
        self.faults.push(fault);
        self
    }

    /// Fail the channel leaving `node` in `dir` forever, starting at
    /// `start`.
    pub fn permanent_link(self, node: NodeId, dir: Direction, start: u64) -> FaultPlan {
        self.with(Fault {
            target: FaultTarget::Link { node, dir },
            start,
            duration: None,
        })
    }

    /// Fail the channel leaving `node` in `dir` for `duration` cycles
    /// starting at `start`.
    pub fn transient_link(
        self,
        node: NodeId,
        dir: Direction,
        start: u64,
        duration: u64,
    ) -> FaultPlan {
        self.with(Fault {
            target: FaultTarget::Link { node, dir },
            start,
            duration: Some(duration),
        })
    }

    /// Fail `node` (all incident channels and its local services) forever,
    /// starting at `start`.
    pub fn permanent_node(self, node: NodeId, start: u64) -> FaultPlan {
        self.with(Fault {
            target: FaultTarget::Node(node),
            start,
            duration: None,
        })
    }

    /// Fail `node` for `duration` cycles starting at `start`.
    pub fn transient_node(self, node: NodeId, start: u64, duration: u64) -> FaultPlan {
        self.with(Fault {
            target: FaultTarget::Node(node),
            start,
            duration: Some(duration),
        })
    }

    /// A plan failing `fraction` of `topo`'s channels permanently at
    /// `start`, chosen uniformly without replacement by a dedicated RNG
    /// seeded with `seed` — independent of the simulation seed, so the
    /// same fault pattern can be replayed under different traffic.
    ///
    /// The count is `ceil(fraction * channels)`, clamped to the channel
    /// count; `fraction <= 0` yields an empty plan.
    pub fn random_links(topo: &dyn Topology, fraction: f64, start: u64, seed: u64) -> FaultPlan {
        let mut channels = topo.channels();
        if fraction <= 0.0 || channels.is_empty() {
            return FaultPlan::new();
        }
        let count = ((fraction * channels.len() as f64).ceil() as usize).min(channels.len());
        let mut rng = StdRng::seed_from_u64(seed);
        // Partial Fisher–Yates: the first `count` entries are a uniform
        // sample without replacement, in a deterministic order.
        for i in 0..count {
            let j = rng.gen_range(i..channels.len());
            channels.swap(i, j);
        }
        let mut plan = FaultPlan::new();
        for ch in &channels[..count] {
            plan = plan.permanent_link(ch.src(), ch.dir(), start);
        }
        plan
    }

    /// The plan of one fault-sweep point: [`FaultPlan::random_links`] from
    /// cycle 0, drawn with the seed `seed + round(fraction * 10_000)`. At
    /// one `(seed, fraction)` every swept algorithm meets the same
    /// failures, and `turnprove` reproves exactly the plans `exp faults`
    /// runs.
    pub fn sweep_point(topo: &dyn Topology, fraction: f64, seed: u64) -> FaultPlan {
        let pattern_seed = seed.wrapping_add((fraction * 10_000.0).round() as u64);
        FaultPlan::random_links(topo, fraction, 0, pattern_seed)
    }

    /// The scheduled faults, in insertion order.
    pub fn faults(&self) -> &[Fault] {
        &self.faults
    }

    /// Number of scheduled faults.
    pub fn len(&self) -> usize {
        self.faults.len()
    }

    /// Whether no faults are scheduled.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// The static [`FaultSet`] this plan induces at `cycle`: every fault
    /// whose active window `[start, start + duration)` covers the cycle is
    /// applied. This is the bridge from the simulator's *scheduled* fault
    /// model to the static channel-graph analyses — `turnprove` snapshots a
    /// sweep plan at a cycle of interest and verifies the degraded graph
    /// the simulator actually routes on.
    pub fn fault_set_at(&self, cycle: u64, topo: &dyn Topology) -> FaultSet {
        let mut set = FaultSet::new(topo);
        for f in &self.faults {
            let active =
                f.start <= cycle && f.duration.is_none_or(|d| cycle < f.start.saturating_add(d));
            if !active {
                continue;
            }
            match f.target {
                FaultTarget::Link { node, dir } => set.fail_link(topo, node, dir),
                FaultTarget::Node(node) => set.fail_node(topo, node),
            }
        }
        set
    }

    /// Compile the plan into a time-sorted list of down/up transitions for
    /// a simulator to consume with a single cursor. At the same cycle all
    /// downs apply before all ups (each group in plan order): a component
    /// healing and re-failing on the boundary cycle keeps its refcount
    /// positive throughout — the same continuous-failure view
    /// [`FaultPlan::fault_set_at`] reports for that cycle — instead of
    /// dipping through a spurious up/down edge pair mid-cycle.
    pub fn events(&self) -> Vec<FaultEvent> {
        let mut events = Vec::with_capacity(2 * self.faults.len());
        for f in &self.faults {
            if f.duration == Some(0) {
                continue; // active during [start, start): never active
            }
            events.push(FaultEvent {
                at: f.start,
                target: f.target,
                down: true,
            });
            if let Some(d) = f.duration {
                events.push(FaultEvent {
                    at: f.start.saturating_add(d),
                    target: f.target,
                    down: false,
                });
            }
        }
        events.sort_by_key(|e| (e.at, !e.down)); // stable: ties keep plan order
        events
    }
}

impl std::fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let links = self
            .faults
            .iter()
            .filter(|f| matches!(f.target, FaultTarget::Link { .. }))
            .count();
        write!(
            f,
            "FaultPlan({} link faults, {} node faults)",
            links,
            self.faults.len() - links
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use turnroute_topology::Mesh;

    #[test]
    fn empty_plan_has_no_events() {
        let plan = FaultPlan::new();
        assert!(plan.is_empty());
        assert_eq!(plan.len(), 0);
        assert!(plan.events().is_empty());
        assert_eq!(plan, FaultPlan::default());
    }

    #[test]
    fn transient_fault_compiles_to_down_then_up() {
        let plan = FaultPlan::new().transient_link(NodeId(3), Direction::NORTH, 100, 50);
        let events = plan.events();
        assert_eq!(events.len(), 2);
        assert!(events[0].down && events[0].at == 100);
        assert!(!events[1].down && events[1].at == 150);
        assert_eq!(events[0].target, events[1].target);
    }

    #[test]
    fn events_are_time_sorted() {
        let plan = FaultPlan::new()
            .permanent_link(NodeId(0), Direction::EAST, 500)
            .transient_node(NodeId(1), 100, 300) // up at 400
            .permanent_node(NodeId(2), 0);
        let events = plan.events();
        let times: Vec<u64> = events.iter().map(|e| e.at).collect();
        assert_eq!(times, vec![0, 100, 400, 500]);
    }

    #[test]
    fn random_links_is_deterministic_and_sized() {
        let mesh = Mesh::new_2d(8, 8);
        let total = mesh.channels().len();
        let a = FaultPlan::random_links(&mesh, 0.1, 0, 7);
        let b = FaultPlan::random_links(&mesh, 0.1, 0, 7);
        assert_eq!(a, b, "same seed must give the same pattern");
        assert_eq!(a.len(), (0.1f64 * total as f64).ceil() as usize);
        let c = FaultPlan::random_links(&mesh, 0.1, 0, 8);
        assert_ne!(a, c, "different seeds should differ");
        // No duplicate links in the sample.
        let mut targets: Vec<_> = a
            .faults()
            .iter()
            .map(|f| match f.target {
                FaultTarget::Link { node, dir } => (node.0, dir.index()),
                FaultTarget::Node(_) => unreachable!("random_links emits links"),
            })
            .collect();
        targets.sort_unstable();
        targets.dedup();
        assert_eq!(targets.len(), a.len());
    }

    #[test]
    fn random_links_edge_fractions() {
        let mesh = Mesh::new_2d(4, 4);
        assert!(FaultPlan::random_links(&mesh, 0.0, 0, 1).is_empty());
        let all = FaultPlan::random_links(&mesh, 1.0, 0, 1);
        assert_eq!(all.len(), mesh.channels().len());
        let over = FaultPlan::random_links(&mesh, 2.0, 0, 1);
        assert_eq!(over.len(), mesh.channels().len());
    }

    #[test]
    fn fault_set_at_snapshots_active_windows() {
        let mesh = Mesh::new_2d(4, 4);
        let plan = FaultPlan::new()
            .permanent_link(NodeId(0), Direction::EAST, 100)
            .transient_link(NodeId(5), Direction::NORTH, 200, 50)
            .permanent_node(NodeId(9), 300);
        let at = |cycle| plan.fault_set_at(cycle, &mesh);
        assert!(at(0).is_empty());
        assert_eq!(at(100).failed_link_count(), 1);
        // Transient active during [200, 250).
        assert_eq!(at(225).failed_link_count(), 2);
        assert_eq!(at(250).failed_link_count(), 1);
        let late = at(1_000);
        assert!(late.node_failed(NodeId(9)));
        assert_eq!(late.failed_node_count(), 1);
        // The snapshot agrees with the surviving-channel view.
        assert!(late.surviving_channels(&mesh).len() < mesh.channels().len());
    }

    #[test]
    fn random_links_snapshot_matches_plan_size() {
        let mesh = Mesh::new_2d(8, 8);
        let plan = FaultPlan::random_links(&mesh, 0.05, 0, 42);
        let set = plan.fault_set_at(0, &mesh);
        assert_eq!(set.failed_link_count(), plan.len());
    }

    /// Stable key for a fault target (FaultTarget has no Hash impl).
    fn target_key(t: FaultTarget) -> (u8, u32, u32) {
        match t {
            FaultTarget::Link { node, dir } => (0, node.0, dir.index() as u32),
            FaultTarget::Node(v) => (1, v.0, 0),
        }
    }

    /// Whether `plan` has any fault on `t` whose window covers `cycle`.
    fn active_at(plan: &FaultPlan, t: FaultTarget, cycle: u64) -> bool {
        plan.faults().iter().any(|f| {
            f.target == t
                && f.start <= cycle
                && f.duration.is_none_or(|d| cycle < f.start.saturating_add(d))
        })
    }

    #[test]
    fn same_cycle_heal_and_refail_never_dips_through_up() {
        // Fault A heals at 150 exactly when fault B fails. Plan order
        // pushes A's up before B's down; the compiled stream must still
        // apply the down first so the refcount stays positive across the
        // boundary — matching fault_set_at(150), which reports the link
        // continuously failed.
        let plan = FaultPlan::new()
            .transient_link(NodeId(1), Direction::EAST, 100, 50)
            .transient_link(NodeId(1), Direction::EAST, 150, 30);
        let events = plan.events();
        let boundary: Vec<&FaultEvent> = events.iter().filter(|e| e.at == 150).collect();
        assert_eq!(boundary.len(), 2);
        assert!(boundary[0].down, "down must precede up at the boundary");
        assert!(!boundary[1].down);
        // Walking the stream, the depth never touches zero until 180.
        let mut depth = 0i64;
        for e in &events {
            depth += if e.down { 1 } else { -1 };
            if e.at < 180 {
                assert!(depth > 0, "spurious heal at cycle {}", e.at);
            }
        }
        assert_eq!(depth, 0);
        let mesh = Mesh::new_2d(4, 4);
        assert_eq!(plan.fault_set_at(150, &mesh).failed_link_count(), 1);
    }

    #[test]
    fn zero_duration_fault_compiles_to_nothing() {
        // Active during [start, start) — never active — so it must not
        // leave a down/up blip in the event stream either.
        let plan = FaultPlan::new().transient_link(NodeId(1), Direction::NORTH, 40, 0);
        assert!(plan.events().is_empty());
        let mesh = Mesh::new_2d(4, 4);
        assert!(plan.fault_set_at(40, &mesh).is_empty());
    }

    #[test]
    fn random_plans_refcounts_match_snapshots_with_one_edge_per_cycle() {
        // Regression property for the same-cycle heal/re-fail ordering:
        // over random plans, walk the compiled event stream keeping a
        // refcount per component. Per component and cycle there is at
        // most one observable up/down edge, the count never underflows,
        // and the post-cycle state equals the plan's declared window
        // coverage (what fault_set_at snapshots).
        use std::collections::HashMap;
        use turnroute_rng::rngs::StdRng;
        use turnroute_rng::{Rng, SeedableRng};
        for seed in 0..24u64 {
            let mut rng = StdRng::seed_from_u64(0xFA_417 ^ seed);
            let mut plan = FaultPlan::new();
            for _ in 0..40 {
                let target = if rng.gen_bool(0.3) {
                    FaultTarget::Node(NodeId(rng.gen_range(0..16u32)))
                } else {
                    FaultTarget::Link {
                        node: NodeId(rng.gen_range(0..16u32)),
                        dir: Direction::from_index(rng.gen_range(0..4usize)),
                    }
                };
                let start = rng.gen_range(0..40u64);
                let duration = if rng.gen_bool(0.1) {
                    None
                } else {
                    Some(rng.gen_range(1..20u64))
                };
                plan = plan.with(Fault {
                    target,
                    start,
                    duration,
                });
            }
            let events = plan.events();
            assert!(events.windows(2).all(|w| w[0].at <= w[1].at));
            let mut depth: HashMap<(u8, u32, u32), i64> = HashMap::new();
            let mut i = 0;
            while i < events.len() {
                let cycle = events[i].at;
                let mut edges: HashMap<(u8, u32, u32), u32> = HashMap::new();
                let mut touched: Vec<FaultTarget> = Vec::new();
                while i < events.len() && events[i].at == cycle {
                    let e = events[i];
                    let k = target_key(e.target);
                    let d = depth.entry(k).or_insert(0);
                    let was = *d > 0;
                    *d += if e.down { 1 } else { -1 };
                    assert!(*d >= 0, "seed {seed}: refcount underflow at {cycle}");
                    if was != (*d > 0) {
                        *edges.entry(k).or_insert(0) += 1;
                    }
                    touched.push(e.target);
                    i += 1;
                }
                for t in touched {
                    let k = target_key(t);
                    assert!(
                        edges.get(&k).copied().unwrap_or(0) <= 1,
                        "seed {seed}: component toggled twice within cycle {cycle}"
                    );
                    assert_eq!(
                        depth[&k] > 0,
                        active_at(&plan, t, cycle),
                        "seed {seed}: post-cycle state disagrees with the window at {cycle}"
                    );
                }
            }
        }
    }

    #[test]
    fn display_counts_kinds() {
        let plan = FaultPlan::new()
            .permanent_link(NodeId(0), Direction::EAST, 0)
            .permanent_node(NodeId(1), 0);
        assert_eq!(plan.to_string(), "FaultPlan(1 link faults, 1 node faults)");
    }
}
