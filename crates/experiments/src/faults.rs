//! Graceful-degradation experiments: delivered fraction and latency vs
//! failed-link percentage.
//!
//! For each link-failure fraction, a deterministic random fault pattern
//! ([`turnroute_sim::FaultPlan::random_links`]) is injected from cycle 0
//! and every routing algorithm runs the same pattern under the same
//! traffic, with a packet lifetime and one retry so blocked packets are
//! counted as dropped instead of hanging the run. The curves show how
//! each turn-model algorithm degrades: how much of the offered traffic
//! still arrives, and what the survivors pay in latency.

use crate::Scale;
use turnroute_model::RoutingFunction;
use turnroute_sim::{FaultPlan, Sim, SimConfig, SimReport};
use turnroute_topology::Topology;
use turnroute_traffic::TrafficPattern;

/// One point of a fault sweep: one fault pattern, one run.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPoint {
    /// Fraction of network links failed (0.0 = healthy baseline).
    pub fraction: f64,
    /// Number of links the pattern actually failed.
    pub failed_links: usize,
    /// The run's results.
    pub report: SimReport,
}

/// Degradation curve of one routing algorithm over increasing failure
/// fractions.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultCurve {
    /// Routing algorithm name.
    pub algorithm: String,
    /// Traffic pattern name.
    pub pattern: String,
    /// Points in increasing failure-fraction order.
    pub points: Vec<FaultPoint>,
}

/// The moderate offered load the degradation runs use, far below
/// saturation so delivered-fraction loss is attributable to faults, not
/// congestion.
pub const FAULT_SWEEP_RATE: f64 = 0.05;

/// Packet lifetime for a given scale (must exceed the healthy p99 by a
/// wide margin so it only fires on genuinely stuck packets).
fn packet_timeout(scale: Scale) -> u64 {
    match scale {
        Scale::Quick => 2_000,
        Scale::Full => 4_000,
    }
}

/// Run one algorithm over the failure fractions `fractions` (`exp faults`
/// passes `turnprove`'s grid, [`turnroute_analysis::prove::SWEEP_FRACTIONS`]).
/// Points are independent simulations on parallel threads. A point's
/// faults are [`FaultPlan::sweep_point`] of `(seed, fraction)`, so every
/// algorithm faces identical failures.
pub fn fault_sweep<T, R, P>(
    topo: &T,
    routing: &R,
    pattern: &P,
    fractions: &[f64],
    scale: Scale,
    seed: u64,
) -> FaultCurve
where
    T: Topology + Sync,
    R: RoutingFunction + Sync + ?Sized,
    P: TrafficPattern + Sync,
{
    let (warmup, measure, drain) = scale.cycles();
    let points = std::thread::scope(|scope| {
        let handles: Vec<_> = fractions
            .iter()
            .map(|&fraction| {
                scope.spawn(move || {
                    let plan = FaultPlan::sweep_point(topo, fraction, seed);
                    let failed_links = plan.len();
                    let cfg = SimConfig::builder()
                        .injection_rate(FAULT_SWEEP_RATE)
                        .warmup_cycles(warmup)
                        .measure_cycles(measure)
                        .drain_cycles(drain)
                        .packet_timeout(packet_timeout(scale))
                        .max_retries(1)
                        .seed(seed)
                        .fault_plan(plan)
                        .build();
                    let report = Sim::new(topo, &routing, pattern, cfg).run();
                    FaultPoint {
                        fraction,
                        failed_links,
                        report,
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("fault sweep worker panicked"))
            .collect()
    });
    FaultCurve {
        algorithm: routing.name().to_string(),
        pattern: pattern.name().to_string(),
        points,
    }
}

/// Render several curves as CSV
/// (`algorithm,pattern,fraction,failed_links,...`).
pub fn to_csv(curves: &[FaultCurve]) -> String {
    let mut out = String::from(
        "algorithm,pattern,failed_fraction,failed_links,delivered_fraction,\
         p50_latency_us,p99_latency_us,dropped,unroutable,retries,termination\n",
    );
    for c in curves {
        for p in &c.points {
            let r = &p.report;
            out.push_str(&format!(
                "{},{},{:.3},{},{:.4},{:.2},{:.2},{},{},{},{}\n",
                c.algorithm,
                c.pattern,
                p.fraction,
                p.failed_links,
                r.delivered_fraction(),
                r.p50_latency_cycles / turnroute_sim::CYCLES_PER_MICROSEC,
                r.p99_latency_cycles / turnroute_sim::CYCLES_PER_MICROSEC,
                r.dropped_packets,
                r.unroutable_packets,
                r.retries,
                r.termination,
            ));
        }
    }
    out
}

/// Render several curves as one JSON document.
pub fn to_json(curves: &[FaultCurve], title: &str) -> String {
    let mut out = format!(
        "{{\"title\":{},\"injection_rate\":{FAULT_SWEEP_RATE},\"curves\":[",
        turnroute_sim::obs::json::string(title)
    );
    for (i, c) in curves.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"algorithm\":{},\"pattern\":{},\"points\":[",
            turnroute_sim::obs::json::string(&c.algorithm),
            turnroute_sim::obs::json::string(&c.pattern)
        ));
        for (j, p) in c.points.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            let r = &p.report;
            out.push_str(&format!(
                "{{\"failed_fraction\":{},\"failed_links\":{},\
                 \"delivered_fraction\":{:.4},\"p50_latency_cycles\":{},\
                 \"p99_latency_cycles\":{},\"dropped\":{},\"unroutable\":{},\
                 \"retries\":{},\"termination\":{}}}",
                p.fraction,
                p.failed_links,
                r.delivered_fraction(),
                r.p50_latency_cycles,
                r.p99_latency_cycles,
                r.dropped_packets,
                r.unroutable_packets,
                r.retries,
                turnroute_sim::obs::json::string(&r.termination.to_string()),
            ));
        }
        out.push_str("]}");
    }
    out.push_str("]}");
    out
}

/// Render the curves as a markdown report.
pub fn to_markdown(curves: &[FaultCurve], title: &str) -> String {
    let mut out = format!(
        "## {title}\n\nOffered load {FAULT_SWEEP_RATE} flits/node/cycle; identical random \
         link-fault patterns per fraction across algorithms; packets are dropped after \
         their lifetime expires (one retry).\n\n"
    );
    for c in curves {
        out.push_str(&format!("### {}\n\n", c.algorithm));
        out.push_str(
            "| failed links | delivered frac | p50 (us) | p99 (us) | dropped | unroutable | retries | end |\n\
             |---:|---:|---:|---:|---:|---:|---:|:---|\n",
        );
        for p in &c.points {
            let r = &p.report;
            out.push_str(&format!(
                "| {:.0}% ({}) | {:.3} | {:.1} | {:.1} | {} | {} | {} | {} |\n",
                p.fraction * 100.0,
                p.failed_links,
                r.delivered_fraction(),
                r.p50_latency_cycles / turnroute_sim::CYCLES_PER_MICROSEC,
                r.p99_latency_cycles / turnroute_sim::CYCLES_PER_MICROSEC,
                r.dropped_packets,
                r.unroutable_packets,
                r.retries,
                r.termination,
            ));
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use turnroute_routing::{mesh2d, RoutingMode};
    use turnroute_topology::Mesh;
    use turnroute_traffic::Uniform;

    #[test]
    fn healthy_point_delivers_everything() {
        let mesh = Mesh::new_2d(4, 4);
        let wf = mesh2d::west_first(RoutingMode::Minimal);
        let uniform = Uniform::new();
        let curve = fault_sweep(&mesh, &wf, &uniform, &[0.0], Scale::Quick, 1);
        let p = &curve.points[0];
        assert_eq!(p.failed_links, 0);
        assert!(p.report.delivered_fraction() > 0.99, "{}", p.report);
        assert_eq!(p.report.dropped_packets, 0);
    }

    #[test]
    fn faulty_points_degrade_but_never_deadlock() {
        let mesh = Mesh::new_2d(6, 6);
        let wf = mesh2d::west_first(RoutingMode::Minimal);
        let uniform = Uniform::new();
        let curve = fault_sweep(&mesh, &wf, &uniform, &[0.05, 0.15], Scale::Quick, 3);
        for p in &curve.points {
            assert!(p.failed_links > 0);
            assert_eq!(
                p.report.termination,
                turnroute_sim::RunTermination::Completed,
                "fraction {} must degrade gracefully, not deadlock",
                p.fraction
            );
            assert!(p.report.delivered_packets > 0, "{}", p.report);
        }
    }

    #[test]
    fn renderers_produce_consistent_output() {
        let mesh = Mesh::new_2d(4, 4);
        let xy = mesh2d::xy();
        let uniform = Uniform::new();
        let curve = fault_sweep(&mesh, &xy, &uniform, &[0.0, 0.1], Scale::Quick, 1);
        let csv = to_csv(std::slice::from_ref(&curve));
        assert_eq!(csv.lines().count(), 3, "{csv}");
        assert!(csv.starts_with("algorithm,"));
        let md = to_markdown(std::slice::from_ref(&curve), "Fault tolerance");
        assert!(md.contains("## Fault tolerance"));
        assert!(md.contains("| failed links |"));
        let json = to_json(&[curve], "Fault tolerance");
        assert!(turnroute_sim::obs::json::validate(&json), "{json}");
        assert!(json.contains("\"delivered_fraction\""));
    }

    #[test]
    fn sweep_artifacts_are_byte_identical_across_reruns() {
        let mesh = Mesh::new_2d(4, 4);
        let wf = mesh2d::west_first(RoutingMode::Minimal);
        let uniform = Uniform::new();
        let artifacts = || {
            let curve = fault_sweep(&mesh, &wf, &uniform, &[0.0, 0.05], Scale::Quick, 1);
            (
                to_csv(std::slice::from_ref(&curve)),
                to_json(std::slice::from_ref(&curve), "t"),
            )
        };
        assert_eq!(
            artifacts(),
            artifacts(),
            "results/ artifacts must rerun clean"
        );
    }
}
