//! The `turnlint` driver: run every analysis layer and bundle the
//! verdicts into one report with human diagnostics and a JSON artifact.
//!
//! Three layers run in sequence:
//!
//! 1. **Design-space enumeration** ([`crate::enumeration`]) — the paper's
//!    censuses and the exhaustive subset sweeps, each count asserted
//!    against the paper's number, failures carrying witness cycles.
//! 2. **Verification matrix** — every shipped routing algorithm verified
//!    on its topology through [`crate::verify()`] (deadlock freedom and
//!    connectivity from the checked certificate; minimality, progress,
//!    channel validity, turn-set consistency), plus the same call over
//!    fault-masked relations and negative controls proving the analyzer
//!    actually rejects broken relations (fully adaptive routing, an
//!    unrestricted wanderer).
//! 3. **Invariant-sanitized simulations** — full runs of both wormhole
//!    engines with the [`turnroute_sim::InvariantObserver`] shadow model
//!    attached: flit conservation, buffer accounting, and per-cycle
//!    bandwidth invariants audited every cycle.
//!
//! [`LintReport::passed`] is the CI verdict; [`LintReport::to_json`]
//! renders the machine-readable artifact written to
//! `results/turnlint.json`.

use crate::claim::{witness_cycle, Claim};
use crate::enumeration;
use crate::routing::{find_dead_end, TurnSetRouting};
use crate::verify::verify;
use turnroute_model::livelock::check_progress;
use turnroute_model::verifier::Check;
use turnroute_model::{Cdg, FaultMasked, RoutingFunction, Turn, TurnSet};
use turnroute_routing::torus::{NegativeFirstTorus, WrapOnFirstHop};
use turnroute_routing::{hypercube, mesh2d, ndmesh, FullyAdaptive, RoutingMode};
use turnroute_sim::obs::{json, ChannelLayout};
use turnroute_sim::{FaultPlan, InvariantObserver, InvariantSummary, Sim, SimConfig};
use turnroute_topology::{Direction, FaultSet, Hypercube, Mesh, Topology, Torus};
use turnroute_traffic::{MeshTranspose, TrafficPattern, Uniform};
use turnroute_vc::{DoubleYAdaptive, VcSim};

/// Options controlling a lint run.
#[derive(Debug, Clone, Copy, Default)]
pub struct LintOptions {
    /// Shrink simulation lengths and skip the 3D census (CI-friendly).
    pub quick: bool,
    /// Inject a deliberately broken turn set; the run must then fail
    /// with a witness cycle (self-test of the gate itself).
    pub inject_bad: bool,
    /// Report globally-minimal witness cycles (BFS girth search) instead
    /// of the first cycle depth-first search happens to hit, and add a
    /// claim pinning the unrestricted mesh CDG girth.
    pub min_witness: bool,
}

/// One row of the algorithm × topology verification matrix.
#[derive(Debug, Clone)]
pub struct MatrixEntry {
    /// Topology the algorithm was verified on.
    pub topology: String,
    /// Algorithm name as reported by the routing function.
    pub algorithm: String,
    /// Names of the checks this row requires to pass.
    pub required: Vec<String>,
    /// Failed required checks, as `name: message` strings.
    pub failures: Vec<String>,
}

impl MatrixEntry {
    /// Whether every required check passed.
    pub fn ok(&self) -> bool {
        self.failures.is_empty()
    }
}

/// One invariant-sanitized simulation run.
#[derive(Debug, Clone)]
pub struct SanitizerRun {
    /// Which engine ran (`sim` or `vc`).
    pub engine: String,
    /// Routing algorithm under test.
    pub algorithm: String,
    /// Traffic pattern driving the run.
    pub pattern: String,
    /// Whether the run ended in detected deadlock (must not).
    pub deadlocked: bool,
    /// Shadow-model accounting totals at end of run.
    pub summary: InvariantSummary,
    /// Recorded invariant violations (must be empty).
    pub violations: Vec<String>,
}

impl SanitizerRun {
    /// Whether the run completed without deadlock or violations.
    pub fn ok(&self) -> bool {
        !self.deadlocked && self.violations.is_empty()
    }
}

/// The complete outcome of a lint run.
#[derive(Debug, Clone)]
pub struct LintReport {
    /// Whether the run used the shortened quick profile.
    pub quick: bool,
    /// Enumeration, progress, and negative-control claims.
    pub claims: Vec<Claim>,
    /// The verification matrix.
    pub matrix: Vec<MatrixEntry>,
    /// The sanitized simulation runs.
    pub sanitizer: Vec<SanitizerRun>,
}

impl LintReport {
    /// The overall CI verdict.
    pub fn passed(&self) -> bool {
        self.claims.iter().all(|c| c.passed)
            && self.matrix.iter().all(MatrixEntry::ok)
            && self.sanitizer.iter().all(SanitizerRun::ok)
    }

    /// Human-readable diagnostics, one block per layer.
    pub fn render(&self) -> String {
        let mut out = String::from("== turnlint: design-space claims ==\n");
        for c in &self.claims {
            out.push_str(&c.render());
            out.push('\n');
        }
        out.push_str("\n== turnlint: verification matrix ==\n");
        for m in &self.matrix {
            if m.ok() {
                out.push_str(&format!(
                    "ok   {:<28} on {:<18} ({})\n",
                    m.algorithm,
                    m.topology,
                    m.required.join(", ")
                ));
            } else {
                out.push_str(&format!("FAIL {:<28} on {}\n", m.algorithm, m.topology));
                for f in &m.failures {
                    out.push_str(&format!("       {f}\n"));
                }
            }
        }
        out.push_str("\n== turnlint: invariant sanitizer ==\n");
        for s in &self.sanitizer {
            out.push_str(&format!(
                "{} {:<4} {:<28} {:<16} sourced {} consumed {} purged {} in-flight {} over {} cycles\n",
                if s.ok() { "ok  " } else { "FAIL" },
                s.engine,
                s.algorithm,
                s.pattern,
                s.summary.sourced_flits,
                s.summary.consumed_flits,
                s.summary.purged_flits,
                s.summary.in_flight_flits,
                s.summary.audited_cycles,
            ));
            for v in &s.violations {
                out.push_str(&format!("       {v}\n"));
            }
            if s.deadlocked {
                out.push_str("       run ended in detected deadlock\n");
            }
        }
        out.push_str(&format!(
            "\nturnlint: {}\n",
            if self.passed() { "PASS" } else { "FAIL" }
        ));
        out
    }

    /// Machine-readable form of the whole report.
    pub fn to_json(&self) -> String {
        let claims: Vec<String> = self
            .claims
            .iter()
            .map(|c| {
                format!(
                    "{{\"name\":{},\"detail\":{},\"expected\":{},\"actual\":{},\"passed\":{}{}}}",
                    json::string(&c.name),
                    json::string(&c.detail),
                    json::string(&c.expected),
                    json::string(&c.actual),
                    c.passed,
                    match &c.witness {
                        Some(w) => format!(",\"witness\":{}", json::string(w)),
                        None => String::new(),
                    }
                )
            })
            .collect();
        let matrix: Vec<String> = self
            .matrix
            .iter()
            .map(|m| {
                format!(
                    "{{\"topology\":{},\"algorithm\":{},\"ok\":{},\"required\":[{}],\"failures\":[{}]}}",
                    json::string(&m.topology),
                    json::string(&m.algorithm),
                    m.ok(),
                    m.required
                        .iter()
                        .map(|r| json::string(r))
                        .collect::<Vec<_>>()
                        .join(","),
                    m.failures
                        .iter()
                        .map(|f| json::string(f))
                        .collect::<Vec<_>>()
                        .join(","),
                )
            })
            .collect();
        let sanitizer: Vec<String> = self
            .sanitizer
            .iter()
            .map(|s| {
                format!(
                    "{{\"engine\":{},\"algorithm\":{},\"pattern\":{},\"ok\":{},\"deadlocked\":{},\
                     \"sourced_flits\":{},\"consumed_flits\":{},\"purged_flits\":{},\
                     \"in_flight_flits\":{},\"audited_cycles\":{},\"violations\":[{}]}}",
                    json::string(&s.engine),
                    json::string(&s.algorithm),
                    json::string(&s.pattern),
                    s.ok(),
                    s.deadlocked,
                    s.summary.sourced_flits,
                    s.summary.consumed_flits,
                    s.summary.purged_flits,
                    s.summary.in_flight_flits,
                    s.summary.audited_cycles,
                    s.violations
                        .iter()
                        .map(|v| json::string(v))
                        .collect::<Vec<_>>()
                        .join(","),
                )
            })
            .collect();
        format!(
            "{{\"title\":\"turnlint\",\"quick\":{},\"passed\":{},\"claims\":[{}],\
             \"matrix\":[{}],\"sanitizer\":[{}]}}",
            self.quick,
            self.passed(),
            claims.join(","),
            matrix.join(","),
            sanitizer.join(","),
        )
    }
}

/// Run the full lint: enumeration claims, progress claims, negative
/// controls, the verification matrix, and sanitized simulations.
pub fn run(opts: &LintOptions) -> LintReport {
    let mut claims = Vec::new();

    // Layer 1: design-space enumeration.
    let mesh = Mesh::new_2d(4, 4);
    claims.extend(enumeration::two_turn_claims(&mesh));
    claims.extend(enumeration::exhaustive_2d_claims(&mesh));
    claims.extend(enumeration::hex_claims());
    if !opts.quick {
        claims.extend(enumeration::census_3d_claims(&Mesh::new_cubic(3, 3)));
    }

    // Layer 2a: progress (livelock-freedom) claims for the nonminimal
    // relations, where minimality can't stand in for a potential function.
    claims.extend(progress_claims());
    claims.extend(negative_control_claims());

    // Layer 2b: the algorithm × topology verification matrix.
    let matrix = verification_matrix(opts.quick);

    // Layer 3: invariant-sanitized simulation runs.
    let sanitizer = sanitizer_runs(opts.quick);

    if opts.min_witness {
        claims.push(min_witness_girth_claim(&Mesh::new_2d(4, 4)));
    }
    if opts.inject_bad {
        claims.push(injected_bad_claim(&Mesh::new_2d(4, 4), opts.min_witness));
    }

    LintReport {
        quick: opts.quick,
        claims,
        matrix,
        sanitizer,
    }
}

/// Progress claims: every nonminimal relation the workspace ships must
/// admit a bounded-misroute potential function, fault-masked relations
/// included.
fn progress_claims() -> Vec<Claim> {
    let mut claims = Vec::new();
    let mesh = Mesh::new_2d(5, 5);
    for alg in [
        mesh2d::west_first(RoutingMode::Nonminimal),
        mesh2d::north_last(RoutingMode::Nonminimal),
        mesh2d::negative_first(RoutingMode::Nonminimal),
    ] {
        claims.push(progress_claim(&mesh, &alg, "5x5 mesh"));
    }
    let torus = Torus::new(4, 2);
    claims.push(progress_claim(
        &torus,
        &NegativeFirstTorus::new(2),
        "4-ary 2-cube",
    ));

    // Fault-masked relations: the misroute fallback must stay both
    // deadlock free and livelock free under a mixed fault pattern.
    let mut faults = FaultSet::new(&mesh);
    let center = mesh.node_at_coords(&[2, 2]);
    faults.fail_link(&mesh, center, Direction::EAST);
    faults.fail_link(&mesh, mesh.node_at_coords(&[1, 3]), Direction::NORTH);
    faults.fail_node(&mesh, mesh.node_at_coords(&[3, 1]));
    for alg in [
        mesh2d::west_first(RoutingMode::Minimal),
        mesh2d::negative_first(RoutingMode::Minimal),
    ] {
        let fv = verify(&mesh, &FaultMasked::new(&alg, &mesh, &faults));
        let mut c = Claim::check(
            &format!("progress-under-faults-{}", alg.name()),
            "fault-masked relation (misroute fallback included) stays deadlock \
             and livelock free under 2 failed links + 1 failed node",
            "deadlock-free and bounded",
            match (&fv.deadlock_free, &fv.progress) {
                (Check::Failed(_), _) => "dependency cycle",
                (_, Check::Failed(_)) => "unbounded walk",
                _ => "deadlock-free and bounded",
            },
        );
        if let Check::Failed(msg) = &fv.deadlock_free {
            c = c.with_witness(msg.clone());
        } else if let Check::Failed(msg) = &fv.progress {
            c = c.with_witness(msg.clone());
        }
        claims.push(c);
    }
    claims
}

fn progress_claim(topo: &dyn Topology, alg: &dyn RoutingFunction, wher: &str) -> Claim {
    let pr = check_progress(topo, alg);
    let mut c = Claim::check(
        &format!("progress-{}", pr.algorithm),
        &format!(
            "bounded-misroute potential function exists on the {wher} \
             (intrinsic bound: {} unproductive hops)",
            pr.max_misroutes
        ),
        "bounded",
        if pr.bounded.is_ok() {
            "bounded"
        } else {
            "unbounded"
        },
    );
    if let Check::Failed(msg) = &pr.bounded {
        c = c.with_witness(msg.clone());
    }
    c
}

/// Negative controls: the analyzer must *reject* the known-broken
/// relations, with concrete witnesses — otherwise a vacuously green
/// matrix proves nothing.
fn negative_control_claims() -> Vec<Claim> {
    let mut claims = Vec::new();

    // Fully adaptive minimal routing: the paper's motivating hazard.
    let mesh = Mesh::new_2d(4, 4);
    let report = verify(&mesh, &FullyAdaptive::new());
    let mut c = Claim::check(
        "negative-control-fully-adaptive",
        "unrestricted fully adaptive routing must be rejected for deadlock",
        "dependency cycle found",
        match &report.deadlock_free {
            Check::Failed(_) => "dependency cycle found",
            _ => "accepted (BUG: the gate is blind)",
        },
    );
    if let Check::Failed(msg) = &report.deadlock_free {
        c = c.with_witness(msg.clone());
    }
    claims.push(c);

    // A wanderer offering every direction everywhere: must fail progress
    // with a witness walk that revisits a state.
    struct Wanderer;
    impl RoutingFunction for Wanderer {
        fn name(&self) -> &str {
            "wanderer"
        }
        fn route(
            &self,
            topo: &dyn Topology,
            current: turnroute_topology::NodeId,
            _dest: turnroute_topology::NodeId,
            _arrived: Option<Direction>,
        ) -> turnroute_topology::DirSet {
            Direction::all(topo.num_dims())
                .filter(|&d| topo.neighbor(current, d).is_some())
                .collect()
        }
        fn is_minimal(&self) -> bool {
            false
        }
    }
    let pr = check_progress(&Mesh::new_2d(3, 3), &Wanderer);
    let mut c = Claim::check(
        "negative-control-wanderer",
        "an unrestricted wanderer must be rejected for livelock",
        "unbounded walk found",
        match &pr.bounded {
            Check::Failed(_) => "unbounded walk found",
            _ => "accepted (BUG: the progress check is blind)",
        },
    );
    if let Check::Failed(msg) = &pr.bounded {
        c = c.with_witness(msg.clone());
    }
    claims.push(c);

    // An over-restricted turn set: the dead-end finder must catch it.
    let small = Mesh::new_2d(3, 3);
    let dead = find_dead_end(
        &small,
        &TurnSetRouting::new("straight-only", TurnSet::no_turns(2), &small),
    );
    let mut c = Claim::check(
        "negative-control-dead-end",
        "a straight-only relation must be rejected for unreachable turns",
        "dead end found",
        match &dead {
            Some(_) => "dead end found",
            None => "accepted (BUG: the reachability check is blind)",
        },
    );
    if let Some(msg) = dead {
        c = c.with_witness(msg);
    }
    claims.push(c);
    claims
}

/// The `--inject-bad` self-test: a turn set prohibiting a single turn
/// cannot be deadlock free (Theorem 1), and the gate must fail on it
/// with a concrete witness cycle.
fn injected_bad_claim(mesh: &Mesh, min_witness: bool) -> Claim {
    let mut set = TurnSet::all_ninety(2);
    set.prohibit(Turn::new(Direction::NORTH, Direction::WEST));
    let cdg = Cdg::from_turn_set(mesh, &set);
    let mut c = Claim::check(
        "injected-bad-turn-set",
        "deliberately broken set (only north->west prohibited) injected via \
         --inject-bad; this claim is expected to FAIL and carry a witness",
        "acyclic",
        if cdg.is_acyclic() {
            "acyclic"
        } else {
            "cyclic"
        },
    );
    let cycle = if min_witness {
        cdg.find_shortest_cycle()
    } else {
        cdg.find_cycle()
    };
    if let Some(cycle) = cycle {
        c = c.with_witness(witness_cycle(&cdg, &cycle));
    }
    c
}

/// The `--min-witness` girth claim: on the unrestricted mesh CDG the
/// globally shortest dependency cycle is the four channels around one
/// unit square, so the BFS girth search must report exactly 4.
fn min_witness_girth_claim(mesh: &Mesh) -> Claim {
    let cdg = Cdg::from_turn_set(mesh, &TurnSet::all_ninety(2));
    let cycle = cdg.find_shortest_cycle();
    let actual = cycle
        .as_ref()
        .map_or_else(|| "acyclic".to_string(), |c| c.len().to_string());
    let mut c = Claim::check(
        "min-witness-girth",
        "shortest dependency cycle of the unrestricted 4x4 mesh CDG has \
         exactly 4 channels (one unit square)",
        "4",
        &actual,
    );
    if let Some(cycle) = cycle {
        c = c.with_witness(witness_cycle(&cdg, &cycle));
    }
    c
}

const ALL_CHECKS: &[&str] = &[
    "deadlock-free",
    "connected",
    "minimal",
    "progress",
    "channels-valid",
    "turns-consistent",
];

fn matrix_row(
    topology: &str,
    topo: &dyn Topology,
    alg: &dyn RoutingFunction,
    required: &[&str],
) -> MatrixEntry {
    let rep = verify(topo, alg);
    let failures = rep
        .checks()
        .into_iter()
        .filter(|(name, _)| required.contains(name))
        .filter_map(|(name, check)| match check {
            Check::Failed(msg) => Some(format!("{name}: {msg}")),
            _ => None,
        })
        .collect();
    MatrixEntry {
        topology: topology.to_string(),
        algorithm: alg.name().to_string(),
        required: required.iter().map(|r| r.to_string()).collect(),
        failures,
    }
}

/// Verify every shipped algorithm on its home topology.
fn verification_matrix(quick: bool) -> Vec<MatrixEntry> {
    let mut rows = Vec::new();

    let mesh = Mesh::new_2d(5, 6);
    let minimal: Vec<Box<dyn RoutingFunction>> = vec![
        Box::new(mesh2d::xy()),
        Box::new(mesh2d::west_first(RoutingMode::Minimal)),
        Box::new(mesh2d::north_last(RoutingMode::Minimal)),
        Box::new(mesh2d::negative_first(RoutingMode::Minimal)),
    ];
    for alg in &minimal {
        rows.push(matrix_row("mesh 5x6", &mesh, alg.as_ref(), ALL_CHECKS));
    }
    // Nonminimal modes: minimality is skipped by definition, and
    // connectivity is not required because it does not hold. Progress
    // bounds every walk but promises no delivery: nonminimal north-last
    // strands a packet that wanders east along the south edge ("dead end
    // at n4 (arrived east) routing toward n0" on this mesh).
    let nonminimal_checks = &[
        "deadlock-free",
        "progress",
        "channels-valid",
        "turns-consistent",
    ];
    for alg in [
        mesh2d::west_first(RoutingMode::Nonminimal),
        mesh2d::north_last(RoutingMode::Nonminimal),
        mesh2d::negative_first(RoutingMode::Nonminimal),
    ] {
        rows.push(matrix_row("mesh 5x6", &mesh, &alg, nonminimal_checks));
    }

    let mesh3 = Mesh::new(vec![3, 3, 3]);
    for alg in [
        ndmesh::negative_first(3, RoutingMode::Minimal),
        ndmesh::all_but_one_negative_first(3, RoutingMode::Minimal),
        ndmesh::all_but_one_positive_last(3, RoutingMode::Minimal),
    ] {
        rows.push(matrix_row("mesh 3x3x3", &mesh3, &alg, ALL_CHECKS));
    }

    let dims = if quick { 4 } else { 5 };
    let cube = Hypercube::new(dims);
    let cube_name = format!("{dims}-cube");
    rows.push(matrix_row(
        &cube_name,
        &cube,
        &hypercube::e_cube(dims),
        ALL_CHECKS,
    ));
    rows.push(matrix_row(
        &cube_name,
        &cube,
        &hypercube::p_cube(dims, RoutingMode::Minimal),
        ALL_CHECKS,
    ));

    let torus = Torus::new(4, 2);
    rows.push(matrix_row(
        "4-ary 2-cube",
        &torus,
        &NegativeFirstTorus::new(2),
        ALL_CHECKS,
    ));
    let wrapped = WrapOnFirstHop::new(mesh2d::west_first(RoutingMode::Minimal), &torus);
    rows.push(matrix_row(
        "4-ary 2-cube",
        &torus,
        &wrapped,
        &["deadlock-free", "connected", "channels-valid"],
    ));
    rows
}

fn scaled(cycles: u64, quick: bool) -> u64 {
    if quick {
        cycles / 4
    } else {
        cycles
    }
}

fn sim_sanitizer_run(
    mesh: &Mesh,
    alg: &dyn RoutingFunction,
    pattern: &dyn TrafficPattern,
    pattern_name: &str,
    cfg: SimConfig,
) -> SanitizerRun {
    let obs = InvariantObserver::new(ChannelLayout::for_topology(mesh), cfg.buffer_depth);
    let mut sim = Sim::with_observer(mesh, alg, pattern, cfg, obs);
    let report = sim.run();
    let obs = sim.observer();
    SanitizerRun {
        engine: "sim".to_string(),
        algorithm: alg.name().to_string(),
        pattern: pattern_name.to_string(),
        deadlocked: report.deadlocked,
        summary: obs.summary(),
        violations: obs.violations().to_vec(),
    }
}

/// Full-length sanitized runs of both engines: loaded minimal traffic,
/// nonminimal misrouting, faults with timeouts and retries, and the
/// virtual-channel engine.
fn sanitizer_runs(quick: bool) -> Vec<SanitizerRun> {
    let mut runs = Vec::new();

    let mesh = Mesh::new_2d(6, 6);
    runs.push(sim_sanitizer_run(
        &mesh,
        &mesh2d::west_first(RoutingMode::Minimal),
        &Uniform::new(),
        "uniform",
        SimConfig::builder()
            .injection_rate(0.3)
            .warmup_cycles(scaled(400, quick))
            .measure_cycles(scaled(2_000, quick))
            .drain_cycles(scaled(1_200, quick))
            .seed(11)
            .build(),
    ));

    let mesh5 = Mesh::new_2d(5, 5);
    runs.push(sim_sanitizer_run(
        &mesh5,
        &mesh2d::north_last(RoutingMode::Nonminimal),
        &MeshTranspose::new(),
        "transpose",
        SimConfig::builder()
            .injection_rate(0.25)
            .warmup_cycles(scaled(200, quick))
            .measure_cycles(scaled(1_200, quick))
            .drain_cycles(scaled(1_200, quick))
            .misroute_budget(4)
            .seed(23)
            .build(),
    ));

    let center = mesh5.node_at_coords(&[2, 2]);
    let plan = FaultPlan::new()
        .transient_link(center, Direction::EAST, 100, scaled(400, quick))
        .transient_node(center, scaled(600, quick), scaled(300, quick));
    runs.push(sim_sanitizer_run(
        &mesh5,
        &mesh2d::negative_first(RoutingMode::Minimal),
        &Uniform::new(),
        "uniform+faults",
        SimConfig::builder()
            .injection_rate(0.2)
            .warmup_cycles(0)
            .measure_cycles(scaled(1_600, quick))
            .drain_cycles(scaled(1_000, quick))
            .packet_timeout(150)
            .max_retries(1)
            .deadlock_threshold(5_000)
            .fault_plan(plan)
            .seed(5)
            .build(),
    ));

    // The virtual-channel adapter, same shadow model.
    let routing = DoubleYAdaptive::new();
    let pattern = MeshTranspose::new();
    let cfg = SimConfig::builder()
        .injection_rate(0.3)
        .warmup_cycles(scaled(200, quick))
        .measure_cycles(scaled(1_200, quick))
        .drain_cycles(scaled(1_200, quick))
        .seed(7)
        .build();
    let obs = InvariantObserver::new(ChannelLayout::new(mesh.num_nodes(), 4), cfg.buffer_depth);
    let mut sim = VcSim::with_observer(&mesh, &routing, &pattern, cfg, obs);
    let report = sim.run();
    let obs = sim.observer();
    runs.push(SanitizerRun {
        engine: "vc".to_string(),
        algorithm: "double-y-adaptive".to_string(),
        pattern: "transpose".to_string(),
        deadlocked: report.deadlocked,
        summary: obs.summary(),
        violations: obs.violations().to_vec(),
    });
    runs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_lint_passes_end_to_end() {
        let report = run(&LintOptions {
            quick: true,
            ..LintOptions::default()
        });
        assert!(report.passed(), "\n{}", report.render());
        assert!(json::validate(&report.to_json()), "{}", report.to_json());
        // Negative controls must be present and green.
        assert!(report
            .claims
            .iter()
            .any(|c| c.name == "negative-control-fully-adaptive" && c.passed));
    }

    #[test]
    fn injected_bad_set_fails_with_a_witness_cycle() {
        let report = run(&LintOptions {
            quick: true,
            inject_bad: true,
            ..LintOptions::default()
        });
        assert!(!report.passed());
        let bad = report
            .claims
            .iter()
            .find(|c| c.name == "injected-bad-turn-set")
            .expect("the injected claim must be present");
        assert!(!bad.passed);
        let w = bad.witness.as_deref().expect("must carry a witness");
        assert!(w.contains("channel cycle"), "{w}");
        assert!(w.contains("turns:"), "{w}");
    }

    #[test]
    fn min_witness_produces_minimal_cycles_and_girth_claim() {
        // Both the injected-bad witness and the girth claim come from the
        // BFS girth search, so both cycles must be girth-length: 4
        // channels each. (cdg.rs proves minimality of the search itself
        // by exhaustive bounded-depth enumeration.)
        let girth = min_witness_girth_claim(&Mesh::new_2d(4, 4));
        assert!(girth.passed, "{}", girth.actual);
        let gw = girth.witness.as_deref().expect("girth claim witness");
        assert_eq!(gw.matches(" -> ").count(), 4, "{gw}");

        let bad = injected_bad_claim(&Mesh::new_2d(4, 4), true);
        assert!(!bad.passed);
        let bw = bad.witness.as_deref().expect("injected-bad witness");
        // "a -> b -> c -> d -> back to a" has exactly 4 arrows for a
        // 4-channel cycle; the DFS default finds longer ones.
        assert_eq!(bw.matches(" -> ").count(), 4, "{bw}");
        let dfs = injected_bad_claim(&Mesh::new_2d(4, 4), false);
        let dw = dfs.witness.as_deref().expect("DFS witness");
        assert!(dw.matches(" -> ").count() >= 4, "{dw}");
    }
}
