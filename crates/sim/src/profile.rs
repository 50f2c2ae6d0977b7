//! Engine phase profiler.
//!
//! [`crate::Engine::step_profiled`] times each engine phase onto a
//! [`PhaseProfiler`] and counts the [`Work`] done in it,
//! answering "where does a simulated cycle's cost go?" without
//! instrumenting the hot path of plain [`crate::Engine::step`] — both are
//! the one stepper, whose span sink is a type parameter that is either
//! this profiler or a no-op the compiler removes.
//!
//! Wall-clock numbers are inherently nondeterministic; they belong in
//! human-facing output (`turnstat profile`) and must never be embedded in
//! byte-compared artifacts. The work counts are exact: the same seed
//! gives the same integers on any machine.

/// One engine phase of a simulated cycle.
///
/// The mapping to engine internals:
///
/// * `Injection` — message generation at the nodes the arrival calendar
///   has due and the queue-length sample at the nodes whose queue grew,
///   plus feeding flits into the injection buffers of the active sources.
/// * `Routing` — collecting, from the waiting-head set, the routable
///   header flits that are awake (not refused since their router last
///   released an output) and ordering them under the input-selection
///   policy.
/// * `Arbitration` — memo read or route computation, then grants, for
///   the selected headers (winners turn, losers stall and go to sleep).
/// * `Traversal` — the lockstep flit advance, planned from the occupied
///   channels that are not frozen behind a waiting header.
/// * `Drain` — bookkeeping that brackets the cycle: fault application,
///   lifetime expiry, and deadlock detection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Generation and source feeding.
    Injection,
    /// Routable-header collection and input selection.
    Routing,
    /// Memo read or route computation, then grants.
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

/// Seed-determined units of engine work, counted exactly.
///
/// `HeadAttempts == RouteComputations + MemoHits`: every attempt to
/// route a waiting head past the ejection and hold tests gets its offer
/// from one of the two. A refused head is attempted again only after an
/// output of its router was released, so attempts grow with the hops
/// made, not with the cycles spent blocked. `SlotsVisited` and
/// `SourcesPolled` are what the per-cycle scans cost: they grow with what
/// changed, not with the size of the network or with what waits — head
/// collection visits the awake heads (every waiting head under `Random`
/// or a scripted arbiter), the planning loop every occupied slot that is
/// not frozen; generation visits the nodes with an arrival due and the
/// queues that grew, and feeding the sources that can take a flit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Work {
    /// Attempts to grant a waiting head an output channel.
    HeadAttempts,
    /// Attempts that asked the lane adapter (a routing-function call).
    RouteComputations,
    /// Attempts answered from the engine's route memo.
    MemoHits,
    /// Channel slots examined by head collection (the waiting heads it
    /// walks) and by the planning loop of the flit advance (the frozen
    /// ones it skips not counted).
    SlotsVisited,
    /// Nodes examined by message generation (arrivals due, queues
    /// sampled) and by injection feeding.
    SourcesPolled,
}

impl Work {
    /// Every counter, in reporting order.
    pub const ALL: [Work; 5] = [
        Work::HeadAttempts,
        Work::RouteComputations,
        Work::MemoHits,
        Work::SlotsVisited,
        Work::SourcesPolled,
    ];

    /// Stable lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            Work::HeadAttempts => "head_attempts",
            Work::RouteComputations => "route_computations",
            Work::MemoHits => "memo_hits",
            Work::SlotsVisited => "slots_visited",
            Work::SourcesPolled => "sources_polled",
        }
    }
}

/// Accumulated wall-clock cost per engine phase and exact [`Work`]
/// counts, plus the cycle count they cover.
#[derive(Debug, Clone, Copy, Default)]
pub struct PhaseProfiler {
    nanos: [u64; 5],
    work: [u64; Work::ALL.len()],
    cycles: u64,
}

impl PhaseProfiler {
    /// An empty profile.
    pub fn new() -> PhaseProfiler {
        PhaseProfiler::default()
    }

    /// Attribute `nanos` to `phase` directly.
    pub fn record_nanos(&mut self, phase: Phase, nanos: u64) {
        self.nanos[phase.index()] += nanos;
    }

    /// Count `n` units of `work`.
    pub fn add_work(&mut self, work: Work, n: u64) {
        self.work[work as usize] += n;
    }

    /// Units of `work` counted.
    pub fn work(&self, work: Work) -> u64 {
        self.work[work as usize]
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
        for (a, b) in self.work.iter_mut().zip(other.work.iter()) {
            *a += b;
        }
        self.cycles += other.cycles;
    }

    /// Human-readable table: per-phase total, share, and mean per cycle,
    /// then the work counts.
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
        for work in Work::ALL {
            out.push_str(&format!("{}: {}\n", work.name(), self.work(work)));
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
        let work: Vec<String> = Work::ALL
            .iter()
            .map(|w| format!("\"{}\":{}", w.name(), self.work(*w)))
            .collect();
        format!(
            "{{\"cycles\":{},\"total_nanos\":{},\"phases\":[{}],\"work\":{{{}}}}}",
            self.cycles,
            self.total_nanos(),
            phases,
            work.join(",")
        )
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
        p.add_work(Work::MemoHits, 3);
        p.add_work(Work::MemoHits, 4);
        assert_eq!(p.work(Work::MemoHits), 7);
        assert!(p.render().contains("memo_hits: 7"));
        assert!(p.to_json().contains("\"memo_hits\":7"));
        p.add_work(Work::SlotsVisited, 9);
        p.add_work(Work::SourcesPolled, 2);
        assert!(p.render().contains("slots_visited: 9\nsources_polled: 2\n"));
        assert!(p
            .to_json()
            .contains("\"slots_visited\":9,\"sources_polled\":2"));
        assert!(crate::obs::json::validate(&p.to_json()));
    }

    #[test]
    fn merge_sums_profiles() {
        let mut a = PhaseProfiler::new();
        a.record_nanos(Phase::Drain, 10);
        a.add_cycle();
        let mut b = PhaseProfiler::new();
        b.record_nanos(Phase::Drain, 5);
        b.record_nanos(Phase::Injection, 7);
        b.add_work(Work::HeadAttempts, 2);
        b.add_cycle();
        a.merge(&b);
        assert_eq!(a.work(Work::HeadAttempts), 2);
        assert_eq!(a.nanos(Phase::Drain), 15);
        assert_eq!(a.nanos(Phase::Injection), 7);
        assert_eq!(a.cycles(), 2);
    }
}
