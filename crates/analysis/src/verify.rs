//! One-call verification of a routing function.
//!
//! [`verify`] bundles every check the workspace runs against a
//! [`RoutingFunction`] into one [`VerificationReport`]. Deadlock freedom
//! and connectivity are read from one certificate: the relation is
//! lowered ([`extract::from_routing`]), proven ([`prove::prove`]) and
//! re-validated by the independent checker ([`check::check`]). The rest
//! are the checks a certificate does not make: the model crate's per-move
//! checks (minimality, channel existence, turn-set conformance), the
//! bounded-misroute progress proof, and [`find_dead_end`], which explores
//! every adversarial branch. A routing function under a fault pattern is
//! verified the same way, wrapped in [`turnroute_model::FaultMasked`].

use crate::certificate::Verdict;
use crate::routing::find_dead_end;
use crate::{check, extract, prove};
use turnroute_model::livelock::check_progress;
use turnroute_model::verifier::{check_channels, check_minimal, check_turns, Check};
use turnroute_model::RoutingFunction;
use turnroute_topology::{NodeId, Topology};

/// A full verification report for a routing function on a topology.
#[derive(Debug, Clone, PartialEq)]
pub struct VerificationReport {
    /// Name of the verified algorithm.
    pub algorithm: String,
    /// Channel dependency graph acyclicity (Dally–Seitz deadlock
    /// freedom), from the checked certificate. The failure message is
    /// the prover's minimal witness cycle, or the checker's rejection.
    pub deadlock_free: Check,
    /// Every ordered pair of nodes has a certified legal path, and no
    /// adversarially reachable state offers nothing.
    pub connected: Check,
    /// For minimal functions: every offered move reduces the distance to
    /// the destination.
    pub minimal: Check,
    /// A bounded-misroute potential function exists: the adversarial
    /// routing state graph is acyclic for every destination (see
    /// [`turnroute_model::livelock`]). This is the livelock-freedom check
    /// that covers nonminimal functions, for which `minimal` is skipped;
    /// the failure message contains a witness walk.
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
        self.checks().iter().all(|(_, check)| check.is_ok())
    }

    /// The six checks with their report names, in report order.
    pub fn checks(&self) -> [(&'static str, &Check); 6] {
        [
            ("deadlock-free", &self.deadlock_free),
            ("connected", &self.connected),
            ("minimal", &self.minimal),
            ("progress", &self.progress),
            ("channels-valid", &self.channels_valid),
            ("turns-consistent", &self.turns_consistent),
        ]
    }
}

impl std::fmt::Display for VerificationReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "verification of {}:", self.algorithm)?;
        for (name, check) in self.checks() {
            match check {
                Check::Passed => writeln!(f, "  {name}: ok")?,
                Check::Skipped => writeln!(f, "  {name}: n/a")?,
                Check::Failed(why) => writeln!(f, "  {name}: FAILED — {why}")?,
            }
        }
        Ok(())
    }
}

/// Run every applicable check of `routing` on `topo`.
///
/// Runtime is dominated by the certificate's per-destination walks,
/// roughly `O(nodes · channels · degree)`; keep topologies modest
/// (hundreds of nodes).
pub fn verify(topo: &dyn Topology, routing: &dyn RoutingFunction) -> VerificationReport {
    let spec = extract::from_routing(routing.name(), topo, routing);
    let cert = prove::prove(&spec);
    let (deadlock_free, connected) = match check::check(&spec, &cert) {
        Err(why) => {
            let rejected = Check::Failed(format!("certificate rejected by the checker: {why}"));
            (rejected.clone(), rejected)
        }
        Ok(()) => {
            let deadlock_free = match &cert.verdict {
                Verdict::Acyclic { .. } => Check::Passed,
                Verdict::Cyclic { cycle } => Check::Failed(spec.render_cycle(cycle)),
            };
            let connected = match cert.unreachable.first() {
                Some(&(src, dst)) => Check::Failed(format!(
                    "no legal path {} -> {} ({} of {} ordered pairs unreachable)",
                    NodeId(src),
                    NodeId(dst),
                    cert.unreachable.len(),
                    cert.unreachable.len() + cert.paths.len()
                )),
                None => find_dead_end(topo, routing).map_or(Check::Passed, Check::Failed),
            };
            (deadlock_free, connected)
        }
    };
    VerificationReport {
        algorithm: routing.name().to_string(),
        deadlock_free,
        connected,
        minimal: check_minimal(topo, routing),
        progress: check_progress(topo, routing).bounded,
        channels_valid: check_channels(topo, routing),
        turns_consistent: check_turns(topo, routing),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use turnroute_model::FaultMasked;
    use turnroute_routing::hex::negative_first_hex;
    use turnroute_routing::{mesh2d, FullyAdaptive, RoutingMode};
    use turnroute_topology::{DirSet, Direction, FaultSet, HexMesh, Mesh, Sign};

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
            match d.get(0).cmp(&c.get(0)) {
                std::cmp::Ordering::Greater => DirSet::single(Direction::new(0, Sign::Plus)),
                std::cmp::Ordering::Less => DirSet::single(Direction::new(0, Sign::Minus)),
                std::cmp::Ordering::Equal => DirSet::empty(),
            }
        }

        fn is_minimal(&self) -> bool {
            true
        }
    }

    #[test]
    fn xy_passes_everything() {
        let report = verify(&Mesh::new_2d(5, 5), &mesh2d::xy());
        assert!(report.all_ok(), "{report}");
        assert_eq!(report.turns_consistent, Check::Passed);
        assert!(report.to_string().contains("deadlock-free: ok"));
    }

    #[test]
    fn fully_adaptive_fails_deadlock_only() {
        let report = verify(&Mesh::new_2d(4, 4), &FullyAdaptive::new());
        assert!(!report.all_ok());
        assert!(matches!(report.deadlock_free, Check::Failed(_)));
        assert!(report.connected.is_ok());
        assert!(report.minimal.is_ok());
        assert!(report.channels_valid.is_ok());
        let text = report.to_string();
        assert!(text.contains("FAILED"), "{text}");
        // The prover's minimal witness: one unit square.
        assert!(text.contains("channel cycle of 4"), "{text}");
    }

    #[test]
    fn x_only_fails_connectivity() {
        let report = verify(&Mesh::new_2d(4, 4), &XOnly);
        assert!(report.deadlock_free.is_ok(), "{report}");
        assert!(
            matches!(report.connected, Check::Failed(ref why) if why.contains("no legal path")),
            "{report}"
        );
    }

    #[test]
    fn healthy_fault_masking_changes_nothing() {
        let mesh = Mesh::new_2d(5, 5);
        let wf = mesh2d::west_first(RoutingMode::Minimal);
        let faults = FaultSet::new(&mesh);
        let report = verify(&mesh, &FaultMasked::new(&wf, &mesh, &faults));
        assert!(report.all_ok(), "{report}");
        assert_eq!(report.connected, Check::Passed);
    }

    #[test]
    fn single_link_fault_stays_deadlock_free_and_connected() {
        let mesh = Mesh::new_2d(5, 5);
        let wf = mesh2d::west_first(RoutingMode::Minimal);
        let mut faults = FaultSet::new(&mesh);
        // An eastward link failure: west-first can always route around it.
        faults.fail_link(&mesh, mesh.node_at_coords(&[2, 2]), Direction::EAST);
        let report = verify(&mesh, &FaultMasked::new(&wf, &mesh, &faults));
        assert!(report.deadlock_free.is_ok(), "{report}");
        assert!(report.progress.is_ok(), "{report}");
        assert_eq!(report.connected, Check::Passed, "{report}");
    }

    #[test]
    fn node_fault_partitions_but_stays_deadlock_free() {
        let mesh = Mesh::new_2d(4, 4);
        let wf = mesh2d::west_first(RoutingMode::Minimal);
        let mut faults = FaultSet::new(&mesh);
        faults.fail_node(&mesh, mesh.node_at_coords(&[1, 1]));
        let report = verify(&mesh, &FaultMasked::new(&wf, &mesh, &faults));
        // Pairs touching the dead node are unreachable; the survivors'
        // dependency graph must still be acyclic.
        assert!(report.deadlock_free.is_ok(), "{report}");
        assert!(report.progress.is_ok(), "{report}");
        assert!(!report.connected.is_ok(), "{report}");
        let cert = prove::prove(&extract::from_faulted_routing("wf", &mesh, &wf, &faults));
        assert!(cert.unreachable.len() >= 2 * 15);
        assert_eq!(cert.paths.len() + cert.unreachable.len(), 16 * 15);
    }

    #[test]
    fn hex_negative_first_verifies_on_assorted_meshes() {
        for (q, r) in [(3u16, 3u16), (4, 4), (5, 3), (3, 6)] {
            let hex = HexMesh::new(q, r);
            let report = verify(&hex, &negative_first_hex(RoutingMode::Minimal));
            assert!(report.all_ok(), "hex {q}x{r}: {report}");
        }
    }
}
