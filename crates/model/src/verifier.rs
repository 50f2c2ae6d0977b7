//! One-call verification of routing functions.
//!
//! Bundles every check this crate can run against a [`RoutingFunction`]
//! into a single report: deadlock freedom (channel dependency graph),
//! connectivity (every pair deliverable), minimality (distance strictly
//! decreases), channel validity (only existing channels offered), and
//! turn-set consistency (every move uses an allowed turn). Run it against
//! a custom algorithm before trusting it with a network.

use crate::{Cdg, FaultMasked, RoutingFunction};
use turnroute_topology::{ChannelId, Direction, FaultSet, NodeId, Topology};

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

/// A full verification report for a routing function on a topology.
#[derive(Debug, Clone, PartialEq)]
pub struct VerificationReport {
    /// Name of the verified algorithm.
    pub algorithm: String,
    /// Channel dependency graph acyclicity (Dally–Seitz deadlock
    /// freedom). The failure message includes a witness cycle.
    pub deadlock_free: Check,
    /// Every ordered pair of nodes is deliverable by greedily following
    /// offered directions (worst-case direction choice).
    pub connected: Check,
    /// For minimal functions: every offered move reduces the distance to
    /// the destination.
    pub minimal: Check,
    /// A bounded-misroute potential function exists: the adversarial
    /// routing state graph is acyclic for every destination (see
    /// [`crate::livelock`]). This is the livelock-freedom check that
    /// covers nonminimal functions, for which `minimal` is skipped; the
    /// failure message contains a witness walk.
    pub progress: Check,
    /// Every offered direction corresponds to an existing channel.
    pub channels_valid: Check,
    /// Every move is allowed by the function's declared turn set (if it
    /// declares one).
    pub turns_consistent: Check,
}

impl VerificationReport {
    /// Whether every applicable check passed.
    pub fn all_ok(&self) -> bool {
        self.deadlock_free.is_ok()
            && self.connected.is_ok()
            && self.minimal.is_ok()
            && self.progress.is_ok()
            && self.channels_valid.is_ok()
            && self.turns_consistent.is_ok()
    }
}

impl std::fmt::Display for VerificationReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "verification of {}:", self.algorithm)?;
        write_checks(
            f,
            &[
                ("deadlock-free", &self.deadlock_free),
                ("connected", &self.connected),
                ("minimal", &self.minimal),
                ("progress", &self.progress),
                ("channels-valid", &self.channels_valid),
                ("turns-consistent", &self.turns_consistent),
            ],
        )
    }
}

fn write_checks(f: &mut std::fmt::Formatter<'_>, checks: &[(&str, &Check)]) -> std::fmt::Result {
    for (name, check) in checks {
        match check {
            Check::Passed => writeln!(f, "  {name}: ok")?,
            Check::Skipped => writeln!(f, "  {name}: n/a")?,
            Check::Failed(why) => writeln!(f, "  {name}: FAILED — {why}")?,
        }
    }
    Ok(())
}

/// Run every applicable check of `routing` on `topo`.
///
/// Runtime is roughly `O(nodes^2 * diameter)` for connectivity plus the
/// CDG construction; keep topologies modest (hundreds of nodes).
pub fn verify(topo: &dyn Topology, routing: &dyn RoutingFunction) -> VerificationReport {
    VerificationReport {
        algorithm: routing.name().to_string(),
        deadlock_free: check_deadlock(topo, routing),
        connected: check_connected(topo, routing),
        minimal: check_minimal(topo, routing),
        progress: crate::livelock::check_progress(topo, routing).bounded,
        channels_valid: check_channels(topo, routing),
        turns_consistent: check_turns(topo, routing),
    }
}

fn check_deadlock(topo: &dyn Topology, routing: &dyn RoutingFunction) -> Check {
    let cdg = Cdg::from_routing(topo, routing);
    match cdg.find_cycle() {
        None => Check::Passed,
        Some(cycle) => {
            let shown: Vec<String> = cycle
                .iter()
                .take(6)
                .map(|&c: &ChannelId| cdg.channels()[c.index()].to_string())
                .collect();
            Check::Failed(format!(
                "dependency cycle of {} channels: {}{}",
                cycle.len(),
                shown.join(" -> "),
                if cycle.len() > 6 { " -> ..." } else { "" }
            ))
        }
    }
}

/// Every ordered pair of distinct nodes.
fn ordered_pairs(topo: &dyn Topology) -> impl Iterator<Item = (NodeId, NodeId)> {
    let nodes = 0..topo.num_nodes() as u32;
    nodes
        .clone()
        .flat_map(move |s| nodes.clone().map(move |d| (NodeId(s), NodeId(d))))
        .filter(|(s, d)| s != d)
}

/// Greedy worst-case walk from `src` to `dst`: always take the *last*
/// offered direction, a simple adversarial choice. For minimal coherent
/// functions this still reaches the destination in exactly `min_hops`
/// steps; the bounded walk length catches livelocks, and the error says
/// where a walk that does not deliver gave up.
fn greedy_walk(
    topo: &dyn Topology,
    routing: &dyn RoutingFunction,
    src: NodeId,
    dst: NodeId,
) -> Result<(), String> {
    let limit = 8 * (topo.num_nodes() + 8);
    let (mut cur, mut arrived, mut hops) = (src, None, 0usize);
    while cur != dst {
        let dirs = routing.route(topo, cur, dst, arrived);
        let Some(dir) = dirs.iter().last() else {
            return Err(format!(
                "dead end at {cur} routing {src} -> {dst} (arrived {arrived:?})"
            ));
        };
        let Some(next) = topo.neighbor(cur, dir) else {
            return Err(format!(
                "nonexistent channel {dir} offered at {cur} for {src} -> {dst}"
            ));
        };
        cur = next;
        arrived = Some(dir);
        hops += 1;
        if hops > limit {
            return Err(format!(
                "walk {src} -> {dst} exceeded {limit} hops (livelock?)"
            ));
        }
    }
    Ok(())
}

fn check_connected(topo: &dyn Topology, routing: &dyn RoutingFunction) -> Check {
    let failure =
        ordered_pairs(topo).find_map(|(src, dst)| greedy_walk(topo, routing, src, dst).err());
    failure.map_or(Check::Passed, Check::Failed)
}

fn check_minimal(topo: &dyn Topology, routing: &dyn RoutingFunction) -> Check {
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
                    continue; // reported by channels_valid
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

fn check_channels(topo: &dyn Topology, routing: &dyn RoutingFunction) -> Check {
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

fn check_turns(topo: &dyn Topology, routing: &dyn RoutingFunction) -> Check {
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

/// Verification of a routing function operating under a fault pattern.
///
/// Built by [`verify_under_faults`]. Under faults, full connectivity is not
/// expected — the network may be partitioned — so reachability is reported
/// as a census rather than a pass/fail check. Deadlock freedom, however,
/// must survive *every* fault pattern: filtering a turn set's outputs (and
/// misrouting along still-allowed turns) only removes channel-dependency
/// edges, so the faulted CDG stays a subgraph of the fault-free one.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultVerification {
    /// Name of the verified algorithm.
    pub algorithm: String,
    /// Channels failed in the pattern this report covers.
    pub failed_links: usize,
    /// Nodes failed in the pattern this report covers.
    pub failed_nodes: usize,
    /// Acyclicity of the CDG induced by the fault-masked routing function
    /// (including its misroute-around-fault fallback moves).
    pub deadlock_free: Check,
    /// Livelock freedom of the masked relation: even with the misroute
    /// fallback active, the adversarial routing state graph stays acyclic,
    /// so every detour around the fault pattern is bounded (see
    /// [`crate::livelock`]).
    pub progress: Check,
    /// Ordered pairs a greedy worst-case walk still delivers.
    pub reachable_pairs: usize,
    /// Ordered pairs that dead-end, livelock, or touch a failed node.
    pub unreachable_pairs: usize,
}

impl FaultVerification {
    /// Whether the surviving routing relation is deadlock free and
    /// livelock free.
    pub fn all_ok(&self) -> bool {
        self.deadlock_free.is_ok() && self.progress.is_ok()
    }
}

impl std::fmt::Display for FaultVerification {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "fault verification of {} ({} links, {} nodes failed):",
            self.algorithm, self.failed_links, self.failed_nodes
        )?;
        let checks = [
            ("deadlock-free", &self.deadlock_free),
            ("progress", &self.progress),
        ];
        write_checks(f, &checks)?;
        writeln!(
            f,
            "  reachable pairs: {} of {}",
            self.reachable_pairs,
            self.reachable_pairs + self.unreachable_pairs
        )
    }
}

/// Verify `routing` on `topo` under the fault pattern `faults`.
///
/// Checks that the channel dependency graph induced by the fault-masked
/// routing relation (primary routes and misroute fallbacks, both filtered
/// through the declared turn set) remains acyclic, and censuses which
/// ordered node pairs a greedy worst-case walk still delivers. Partition is
/// reported, not failed: only a dependency cycle makes `all_ok()` false.
pub fn verify_under_faults(
    topo: &dyn Topology,
    routing: &dyn RoutingFunction,
    faults: &FaultSet,
) -> FaultVerification {
    let masked = FaultMasked::new(routing, topo, faults);
    let deadlock_free = check_deadlock(topo, &masked);
    let progress = crate::livelock::check_progress(topo, &masked).bounded;
    // Dead ends and over-long walks are tallied, not fatal: a faulted
    // network may legitimately be partitioned. A failed endpoint shows up
    // as a dead end too — nothing leaves one, nothing healthy enters one.
    let pairs = topo.num_nodes() * topo.num_nodes().saturating_sub(1);
    let reachable = ordered_pairs(topo)
        .filter(|&(src, dst)| greedy_walk(topo, &masked, src, dst).is_ok())
        .count();
    FaultVerification {
        algorithm: routing.name().to_string(),
        failed_links: faults.failed_link_count(),
        failed_nodes: faults.failed_node_count(),
        deadlock_free,
        progress,
        reachable_pairs: reachable,
        unreachable_pairs: pairs - reachable,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TurnSet;
    use turnroute_topology::{DirSet, Mesh};

    /// A minimal fully adaptive function: connected and minimal, but not
    /// deadlock free.
    struct FullyAdaptive;

    impl RoutingFunction for FullyAdaptive {
        fn name(&self) -> &str {
            "fully-adaptive"
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

    /// Deterministic xy for an all-green report.
    struct Xy;

    impl RoutingFunction for Xy {
        fn name(&self) -> &str {
            "xy"
        }

        fn route(
            &self,
            topo: &dyn Topology,
            current: NodeId,
            dest: NodeId,
            arrived: Option<Direction>,
        ) -> DirSet {
            let (c, d) = (topo.coord_of(current), topo.coord_of(dest));
            if c.get(0) != d.get(0) {
                if matches!(arrived, Some(a) if a.dim() == 1) {
                    return DirSet::empty(); // unreachable state
                }
                let sign = if d.get(0) > c.get(0) {
                    turnroute_topology::Sign::Plus
                } else {
                    turnroute_topology::Sign::Minus
                };
                return DirSet::single(Direction::new(0, sign));
            }
            if c.get(1) != d.get(1) {
                let sign = if d.get(1) > c.get(1) {
                    turnroute_topology::Sign::Plus
                } else {
                    turnroute_topology::Sign::Minus
                };
                let dir = Direction::new(1, sign);
                if arrived == Some(dir.opposite()) {
                    return DirSet::empty();
                }
                return DirSet::single(dir);
            }
            DirSet::empty()
        }

        fn is_minimal(&self) -> bool {
            true
        }
    }

    /// A broken function: routes straight toward dest in x only, so pairs
    /// differing in y are undeliverable.
    struct XOnly;

    impl RoutingFunction for XOnly {
        fn name(&self) -> &str {
            "x-only"
        }

        fn route(
            &self,
            topo: &dyn Topology,
            current: NodeId,
            dest: NodeId,
            _arrived: Option<Direction>,
        ) -> DirSet {
            let (c, d) = (topo.coord_of(current), topo.coord_of(dest));
            if c.get(0) != d.get(0) {
                let sign = if d.get(0) > c.get(0) {
                    turnroute_topology::Sign::Plus
                } else {
                    turnroute_topology::Sign::Minus
                };
                DirSet::single(Direction::new(0, sign))
            } else {
                DirSet::empty()
            }
        }

        fn is_minimal(&self) -> bool {
            true
        }
    }

    #[test]
    fn xy_passes_everything() {
        let mesh = Mesh::new_2d(5, 5);
        let report = verify(&mesh, &Xy);
        assert!(report.all_ok(), "{report}");
        assert_eq!(report.turns_consistent, Check::Skipped); // no turn set declared
        assert!(report.to_string().contains("deadlock-free: ok"));
    }

    #[test]
    fn fully_adaptive_fails_deadlock_only() {
        let mesh = Mesh::new_2d(4, 4);
        let report = verify(&mesh, &FullyAdaptive);
        assert!(!report.all_ok());
        assert!(matches!(report.deadlock_free, Check::Failed(_)));
        assert!(report.connected.is_ok());
        assert!(report.minimal.is_ok());
        assert!(report.channels_valid.is_ok());
        let text = report.to_string();
        assert!(text.contains("FAILED"), "{text}");
        assert!(text.contains("dependency cycle"), "{text}");
    }

    #[test]
    fn x_only_fails_connectivity() {
        let mesh = Mesh::new_2d(4, 4);
        let report = verify(&mesh, &XOnly);
        assert!(matches!(report.connected, Check::Failed(ref why) if why.contains("dead end")));
    }

    /// West-first as a turn-set-declaring minimal adaptive function, for
    /// fault verification without depending on the routing crate.
    struct WestFirstLike;

    impl RoutingFunction for WestFirstLike {
        fn name(&self) -> &str {
            "west-first-like"
        }

        fn route(
            &self,
            topo: &dyn Topology,
            current: NodeId,
            dest: NodeId,
            _arrived: Option<Direction>,
        ) -> DirSet {
            let productive = topo.productive_dirs(current, dest);
            // If west is productive it must be taken first; otherwise route
            // fully adaptively among the remaining productive directions.
            if productive.contains(Direction::WEST) {
                DirSet::single(Direction::WEST)
            } else {
                productive
            }
        }

        fn is_minimal(&self) -> bool {
            true
        }

        fn turn_set(&self, num_dims: usize) -> Option<TurnSet> {
            (num_dims == 2).then(crate::presets::west_first_turns)
        }
    }

    #[test]
    fn healthy_fault_verification_reaches_everything() {
        let mesh = Mesh::new_2d(5, 5);
        let faults = FaultSet::new(&mesh);
        let report = verify_under_faults(&mesh, &WestFirstLike, &faults);
        assert!(report.all_ok(), "{report}");
        assert_eq!(report.unreachable_pairs, 0);
        assert_eq!(report.reachable_pairs, 25 * 24);
    }

    #[test]
    fn single_link_fault_stays_deadlock_free_and_connected() {
        let mesh = Mesh::new_2d(5, 5);
        let mut faults = FaultSet::new(&mesh);
        // An eastward link failure: west-first can always route around it.
        faults.fail_link(&mesh, mesh.node_at_coords(&[2, 2]), Direction::EAST);
        let report = verify_under_faults(&mesh, &WestFirstLike, &faults);
        assert!(report.all_ok(), "{report}");
        assert_eq!(report.failed_links, 1);
        assert!(report.to_string().contains("deadlock-free: ok"));
    }

    #[test]
    fn node_fault_partitions_but_stays_deadlock_free() {
        let mesh = Mesh::new_2d(4, 4);
        let mut faults = FaultSet::new(&mesh);
        faults.fail_node(&mesh, mesh.node_at_coords(&[1, 1]));
        let report = verify_under_faults(&mesh, &WestFirstLike, &faults);
        // Pairs touching the dead node are unreachable; the survivors'
        // dependency graph must still be acyclic.
        assert!(report.all_ok(), "{report}");
        assert!(report.unreachable_pairs >= 2 * 15);
        assert_eq!(
            report.reachable_pairs + report.unreachable_pairs,
            16 * 15,
            "{report}"
        );
    }

    #[test]
    fn shipped_algorithms_pass() {
        // The real algorithms are verified end to end in the workspace
        // integration tests; here, spot-check the verifier against the
        // model-crate test double from the numbering module family.
        let mesh = Mesh::new_2d(4, 4);
        let report = verify(&mesh, &Xy);
        assert!(report.all_ok());
    }
}
