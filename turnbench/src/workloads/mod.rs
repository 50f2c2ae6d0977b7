//! The six workloads. Names are the contract with `BENCHMARK.json`; sizes
//! are fixed here so two commits always run the same simulated work.

mod engines;
mod fig_sweep;
pub mod probes;
mod proof_matrix;
mod record_replay;

use crate::stats::median;
use crate::trace::Tracer;
use std::time::Instant;

/// Simulated results of one repetition, as ordered `(field, value)` pairs.
/// Floating-point fields are stored as their bit patterns. A simulator
/// speed-up must leave every field identical.
pub type Digest = Vec<(&'static str, u64)>;

/// Named values a workload hands to its per-layer metrics.
pub type Parts = Vec<(&'static str, f64)>;

/// What one repetition of a workload's timed body produced.
pub struct Rep {
    /// Host seconds of each part of the timed body, in order: a
    /// 1,000-cycle window, one figure, one replay pass, one matrix. Every
    /// repetition of a workload has the same parts.
    pub timed_s: Vec<f64>,
    /// Engine cycles simulated inside the timed body.
    pub sim_cycles: u64,
    /// Operations attempted (engine runs, sweep points, replays, matrix
    /// entries).
    pub ops: u64,
    /// Operations whose own check failed.
    pub failed: u64,
    /// What the program computed; compared between repetitions and, at
    /// seed 1, against `golden.json`.
    pub digest: Digest,
    /// Sub-timings and counts for the per-layer metrics.
    pub parts: Parts,
}

impl Rep {
    /// Host seconds of the timed body.
    pub fn wall_s(&self) -> f64 {
        self.timed_s.iter().sum()
    }

    /// The part called `name`.
    ///
    /// # Panics
    ///
    /// Panics if the workload recorded no such part.
    pub fn part(&self, name: &str) -> f64 {
        self.parts
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("no part '{name}'"))
            .1
    }
}

/// Host seconds of the timed body over several repetitions: each part's
/// median over the repetitions, summed. This machine stalls for about a
/// second at a time, often; a stall inflates whole repetitions but only a
/// few parts of each, so the part-wise median is far steadier than the
/// median of the repetitions' totals. With one repetition it is that
/// repetition's wall time.
pub fn steady_wall_s(reps: &[Rep]) -> f64 {
    (0..reps[0].timed_s.len())
        .map(|part| median(&reps.iter().map(|r| r.timed_s[part]).collect::<Vec<_>>()))
        .sum()
}

/// Run `f` in a span called `span` and append its host seconds to
/// `timed_s`.
fn timed<R>(
    tr: &mut Tracer,
    span: &'static str,
    timed_s: &mut Vec<f64>,
    f: impl FnOnce(&mut Tracer) -> R,
) -> R {
    let start = Instant::now();
    let result = tr.scope(span, f);
    timed_s.push(start.elapsed().as_secs_f64());
    result
}

/// Per-layer metric values measured so far, by name.
#[derive(Default)]
pub struct Layers(pub Vec<(&'static str, f64)>);

impl Layers {
    /// # Panics
    ///
    /// Panics if `name` is not in [`crate::spec::PER_LAYER`]: a misspelt
    /// metric would otherwise be dropped and print as 0.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            crate::spec::PER_LAYER.iter().any(|m| m.0 == name),
            "'{name}' is not a per-layer metric"
        );
        self.0.push((name, value));
    }
}

/// One named workload.
pub struct Workload {
    pub name: &'static str,
    /// Why the workload exists — which layer does the work in it.
    pub why: &'static str,
    /// Repetitions run even when one exceeds the time budget.
    pub min_reps: usize,
    /// Build everything the timed body needs (topology, routing, tables,
    /// engine, log header) and drop it; timed for `setup_s`.
    pub setup: fn(seed: u64),
    /// One repetition: fresh set-up, untimed warm-up, timed body, checks.
    pub rep: fn(seed: u64, tr: &mut Tracer) -> Rep,
    /// Derive this workload's per-layer metrics from the traced
    /// repetitions' spans and parts, running extra passes where the spans
    /// cannot see inside a call.
    pub layers: fn(seed: u64, tr: &mut Tracer, traced: &[Rep], out: &mut Layers),
}

pub static WORKLOADS: [Workload; 6] = [
    engines::MESH_HEAVY,
    engines::MESH_LIGHT,
    engines::VC_HEAVY,
    fig_sweep::FIG_SWEEP,
    record_replay::RECORD_REPLAY,
    proof_matrix::PROOF_MATRIX,
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The simulated statistics of one engine run that every engine workload
/// pins: a speed-up may change none of them.
fn report_digest(report: &turnroute_sim::SimReport, flit_hops: u64) -> Digest {
    vec![
        ("flit_hops", flit_hops),
        ("generated_packets", report.generated_packets),
        ("generated_flits", report.generated_flits),
        ("delivered_packets", report.delivered_packets),
        (
            "delivered_flits_in_window",
            report.delivered_flits_in_window,
        ),
        ("avg_latency_bits", report.avg_latency_cycles.to_bits()),
        ("p99_latency_bits", report.p99_latency_cycles.to_bits()),
        ("queued_at_end", report.queued_at_end),
        ("end_cycle", report.end_cycle),
    ]
}
