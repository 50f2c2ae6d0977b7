//! Span-based engine phase profiler.
//!
//! [`crate::Engine::step_profiled`] wraps each engine phase in a
//! [`Span`] that accumulates wall-clock nanoseconds onto a
//! [`PhaseProfiler`], answering "where does a simulated cycle's cost go?"
//! without instrumenting the hot path of plain [`crate::Engine::step`] —
//! both are the one stepper, whose span sink is a type parameter that is
//! either this profiler or a no-op the compiler removes.
//!
//! Wall-clock numbers are inherently nondeterministic; they belong in
//! human-facing output (`turnstat profile`) and must never be embedded in
//! byte-compared artifacts.

use std::time::Instant;

/// One engine phase of a simulated cycle.
///
/// The mapping to engine internals:
///
/// * `Injection` — message generation at the processors plus feeding
///   flits into injection buffers.
/// * `Routing` — collecting routable header flits and ordering them under
///   the input-selection policy.
/// * `Arbitration` — route computation and output-channel grants for the
///   selected headers (winners turn, losers stall).
/// * `Traversal` — the lockstep flit advance across all channels.
/// * `Drain` — bookkeeping that brackets the cycle: fault application,
///   lifetime expiry, and deadlock detection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Generation and source feeding.
    Injection,
    /// Routable-header collection and input selection.
    Routing,
    /// Route computation and output arbitration.
    Arbitration,
    /// Lockstep flit advance.
    Traversal,
    /// Faults, expiry, and deadlock detection.
    Drain,
}

impl Phase {
    /// Every phase, in reporting order.
    pub const ALL: [Phase; 5] = [
        Phase::Injection,
        Phase::Routing,
        Phase::Arbitration,
        Phase::Traversal,
        Phase::Drain,
    ];

    /// Stable lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Injection => "injection",
            Phase::Routing => "routing",
            Phase::Arbitration => "arbitration",
            Phase::Traversal => "traversal",
            Phase::Drain => "drain",
        }
    }

    fn index(self) -> usize {
        match self {
            Phase::Injection => 0,
            Phase::Routing => 1,
            Phase::Arbitration => 2,
            Phase::Traversal => 3,
            Phase::Drain => 4,
        }
    }
}

/// Accumulated wall-clock cost per engine phase, plus the cycle count it
/// covers.
#[derive(Debug, Clone, Copy, Default)]
pub struct PhaseProfiler {
    nanos: [u64; 5],
    cycles: u64,
}

impl PhaseProfiler {
    /// An empty profile.
    pub fn new() -> PhaseProfiler {
        PhaseProfiler::default()
    }

    /// Open a span attributing time to `phase` until it drops.
    pub fn span(&mut self, phase: Phase) -> Span<'_> {
        Span {
            profiler: self,
            phase,
            start: Instant::now(),
        }
    }

    /// Attribute `nanos` to `phase` directly.
    pub fn record_nanos(&mut self, phase: Phase, nanos: u64) {
        self.nanos[phase.index()] += nanos;
    }

    /// Count one completed cycle.
    pub fn add_cycle(&mut self) {
        self.cycles += 1;
    }

    /// Nanoseconds attributed to `phase`.
    pub fn nanos(&self, phase: Phase) -> u64 {
        self.nanos[phase.index()]
    }

    /// Nanoseconds across all phases.
    pub fn total_nanos(&self) -> u64 {
        self.nanos.iter().sum()
    }

    /// Cycles profiled.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Mean nanoseconds per cycle spent in `phase` (0 before any cycle).
    pub fn mean_nanos_per_cycle(&self, phase: Phase) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.nanos(phase) as f64 / self.cycles as f64
        }
    }

    /// Fold another profile into this one.
    pub fn merge(&mut self, other: &PhaseProfiler) {
        for (a, b) in self.nanos.iter_mut().zip(other.nanos.iter()) {
            *a += b;
        }
        self.cycles += other.cycles;
    }

    /// Human-readable table: per-phase total, share, and mean per cycle.
    pub fn render(&self) -> String {
        let total = self.total_nanos().max(1);
        let mut out = format!(
            "phase profile over {} cycles ({} ns wall total)\n\
             | phase       | total ns | share | ns/cycle |\n\
             |---|---:|---:|---:|\n",
            self.cycles,
            self.total_nanos()
        );
        for phase in Phase::ALL {
            out.push_str(&format!(
                "| {:<11} | {} | {:.1}% | {:.1} |\n",
                phase.name(),
                self.nanos(phase),
                100.0 * self.nanos(phase) as f64 / total as f64,
                self.mean_nanos_per_cycle(phase),
            ));
        }
        out
    }

    /// The profile as one JSON object. Wall-clock values are
    /// nondeterministic: never embed this in a byte-compared artifact.
    pub fn to_json(&self) -> String {
        let mut phases = String::new();
        for (i, phase) in Phase::ALL.into_iter().enumerate() {
            if i > 0 {
                phases.push(',');
            }
            phases.push_str(&format!(
                "{{\"phase\":\"{}\",\"nanos\":{}}}",
                phase.name(),
                self.nanos(phase)
            ));
        }
        format!(
            "{{\"cycles\":{},\"total_nanos\":{},\"phases\":[{}]}}",
            self.cycles,
            self.total_nanos(),
            phases
        )
    }
}

/// RAII span: attributes the time between creation and drop to one phase.
#[derive(Debug)]
pub struct Span<'a> {
    profiler: &'a mut PhaseProfiler,
    phase: Phase,
    start: Instant,
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        let nanos = u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.profiler.record_nanos(self.phase, nanos);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_accumulate_and_render() {
        let mut p = PhaseProfiler::new();
        p.record_nanos(Phase::Routing, 100);
        p.record_nanos(Phase::Routing, 50);
        p.record_nanos(Phase::Traversal, 850);
        p.add_cycle();
        p.add_cycle();
        assert_eq!(p.nanos(Phase::Routing), 150);
        assert_eq!(p.total_nanos(), 1_000);
        assert_eq!(p.cycles(), 2);
        assert!((p.mean_nanos_per_cycle(Phase::Routing) - 75.0).abs() < 1e-9);
        let table = p.render();
        assert!(table.contains("routing"));
        assert!(table.contains("15.0%"));
        assert!(crate::obs::json::validate(&p.to_json()));
    }

    #[test]
    fn real_spans_record_nonzero_time() {
        let mut p = PhaseProfiler::new();
        {
            let _s = p.span(Phase::Arbitration);
            // Do a little real work so even coarse clocks tick.
            let mut x = 0u64;
            for i in 0..10_000u64 {
                x = x.wrapping_add(i * i);
            }
            std::hint::black_box(x);
        }
        assert!(p.nanos(Phase::Arbitration) > 0);
    }

    #[test]
    fn merge_sums_profiles() {
        let mut a = PhaseProfiler::new();
        a.record_nanos(Phase::Drain, 10);
        a.add_cycle();
        let mut b = PhaseProfiler::new();
        b.record_nanos(Phase::Drain, 5);
        b.record_nanos(Phase::Injection, 7);
        b.add_cycle();
        a.merge(&b);
        assert_eq!(a.nanos(Phase::Drain), 15);
        assert_eq!(a.nanos(Phase::Injection), 7);
        assert_eq!(a.cycles(), 2);
    }
}
