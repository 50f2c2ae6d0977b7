//! One-call verification of a routing function.
//!
//! [`verify`] bundles every check the workspace runs against a
//! [`RoutingFunction`] into one [`VerificationReport`]. The relation is
//! lowered once ([`Cdg::lower`], the one walk of a routing relation), and
//! every verdict is read from that walk or from the spec it yields:
//! deadlock freedom and the paths of connectivity from the certificate
//! ([`prove::prove`], [`check::check`]), progress and the dead-end half
//! of connectivity from the progress claim ([`checked_progress`]), both
//! re-validated by the independent checker; minimality and channel
//! existence from the offers the walk records (`Lowering::unproductive`,
//! `Lowering::unbuilt`); and turn-set conformance from the checker's
//! route-coverage scan against the declared turn set's potential
//! dependencies ([`Cdg::from_turn_set`]). A routing function under a
//! fault pattern is verified the same way, wrapped in
//! [`turnroute_model::FaultMasked`].

use crate::certificate::{GraphSpec, Progress, Verdict};
use crate::{check, extract, prove};
use turnroute_model::depgraph::Move;
use turnroute_model::{Cdg, RoutingFunction};
use turnroute_topology::{NodeId, Topology};

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
    /// freedom), from the checked certificate. The failure message is
    /// the prover's minimal witness cycle, or the checker's rejection.
    pub deadlock_free: Check,
    /// Every ordered pair of nodes has a certified legal path, and no
    /// adversarially reachable state offers nothing.
    pub connected: Check,
    /// For minimal functions: every offered move reduces the distance to
    /// the destination.
    pub minimal: Check,
    /// A bounded-misroute potential function exists: the checked rank
    /// falls along every move between reachable states, for every
    /// destination. This is the livelock-freedom check that covers
    /// nonminimal functions, for which `minimal` is skipped; the failure
    /// message is the prover's lasso.
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
/// Runtime is dominated by lowering the relation and the certificate's
/// per-destination walks, roughly `O(nodes · channels · degree)`; keep
/// topologies modest (hundreds of nodes). Minimality and channel
/// existence cover every state the lowering asks the relation about:
/// every injection state, and every held state a packet can reach.
pub fn verify(topo: &dyn Topology, routing: &dyn RoutingFunction) -> VerificationReport {
    let lowered = Cdg::lower(topo, routing, true);
    let (unbuilt, unproductive) = (lowered.unbuilt, lowered.unproductive);
    let spec = extract::routing_spec(routing.name().to_string(), topo, lowered);
    let cert = prove::prove(&spec);
    let progress = checked_progress(&spec);
    let rejected =
        |what: &str, why: &str| Check::Failed(format!("{what} rejected by the checker: {why}"));
    let (deadlock_free, connected) = match check::check(&spec, &cert) {
        Err(why) => (rejected("certificate", &why), rejected("certificate", &why)),
        Ok(()) => {
            let deadlock_free = match &cert.verdict {
                Verdict::Acyclic { .. } => Check::Passed,
                Verdict::Cyclic { cycle } => Check::Failed(spec.render_cycle(cycle)),
            };
            let connected = match (cert.unreachable.first(), &progress) {
                (Some(&(src, dst)), _) => Check::Failed(format!(
                    "no legal path {} -> {} ({} of {} ordered pairs unreachable)",
                    NodeId(src),
                    NodeId(dst),
                    cert.unreachable.len(),
                    cert.unreachable.len() + cert.paths.len()
                )),
                (None, Err(why)) => rejected("progress proof", why),
                (None, Ok(p)) => p
                    .dead_end_witness(&spec)
                    .map_or(Check::Passed, Check::Failed),
            };
            (deadlock_free, connected)
        }
    };
    let offered = |what: &str, m: Option<Move>| {
        m.map_or(Check::Passed, |m| {
            let state = m.held.map_or("at injection".to_string(), |c| {
                format!("holding {}", spec.channels[c as usize].label)
            });
            Check::Failed(format!(
                "{what} {} offered at {} toward {} ({state})",
                m.offer.0, m.at, m.dest
            ))
        })
    };
    let turns_consistent = match routing.turn_set(topo.num_dims()) {
        None => Check::Skipped,
        Some(set) => {
            let allowed = Cdg::from_turn_set(topo, &set).graph().edges().collect();
            check::check_routes_covered_by_deps(&spec, &allowed).map_or_else(
                |why| Check::Failed(format!("outside the declared turn set: {why}")),
                |()| Check::Passed,
            )
        }
    };
    VerificationReport {
        algorithm: routing.name().to_string(),
        deadlock_free,
        connected,
        minimal: if routing.is_minimal() {
            offered("unproductive move", unproductive)
        } else {
            Check::Skipped
        },
        progress: match &progress {
            Err(why) => rejected("progress proof", why),
            Ok(p) => p.lasso_witness(&spec).map_or(Check::Passed, Check::Failed),
        },
        channels_valid: offered("nonexistent channel", unbuilt),
        turns_consistent,
    }
}

/// The progress claim over `spec` ([`prove::progress`]), once the
/// independent checker ([`check::progress`]) has accepted it.
///
/// # Errors
///
/// Returns the checker's rejection.
pub fn checked_progress(spec: &GraphSpec) -> Result<Progress, String> {
    let progress = prove::progress(spec);
    check::progress(spec, &progress)?;
    Ok(progress)
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

        fn turn_set(&self, num_dims: usize) -> Option<turnroute_model::TurnSet> {
            (num_dims == 2).then(turnroute_model::presets::west_first_turns)
        }
    }

    /// Claims minimality and offers only productive moves at injection,
    /// but adds north at every held state.
    struct NorthOnceMoving;

    impl RoutingFunction for NorthOnceMoving {
        fn name(&self) -> &str {
            "north-once-moving"
        }

        fn route(
            &self,
            topo: &dyn Topology,
            current: NodeId,
            dest: NodeId,
            arrived: Option<Direction>,
        ) -> DirSet {
            let mut dirs = topo.productive_dirs(current, dest);
            if arrived.is_some() {
                dirs.insert(Direction::NORTH);
            }
            dirs
        }

        fn is_minimal(&self) -> bool {
            true
        }
    }

    fn failed(check: &Check) -> &str {
        match check {
            Check::Failed(why) => why,
            other => panic!("expected a failure, got {other:?}"),
        }
    }

    #[test]
    fn a_nonminimal_function_without_a_turn_set_skips_two_checks() {
        let report = verify(&Mesh::new_2d(3, 3), &crate::lint::Wanderer);
        assert_eq!(report.minimal, Check::Skipped);
        assert_eq!(report.turns_consistent, Check::Skipped);
        assert_eq!(report.channels_valid, Check::Passed);
    }

    #[test]
    fn each_per_move_check_names_the_move_it_rejects() {
        let report = verify(&Mesh::new_2d(3, 3), &AlwaysEast);
        assert_eq!(
            failed(&report.minimal),
            "unproductive move east offered at n1 toward n0 (at injection)"
        );
        assert_eq!(
            failed(&report.channels_valid),
            "nonexistent channel east offered at n2 toward n0 (at injection)"
        );
        // Arriving westbound and reversing east is no legal turn.
        assert!(
            failed(&report.turns_consistent).starts_with("outside the declared turn set"),
            "{report}"
        );
    }

    #[test]
    fn an_unproductive_move_from_a_held_channel_is_not_minimal() {
        let report = verify(&Mesh::new_2d(4, 4), &NorthOnceMoving);
        assert_eq!(
            failed(&report.minimal),
            "unproductive move north offered at n1 toward n0 (holding c5 n2 -> n1 (west))"
        );
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
