//! Chaos-storm soak: seeded MTTF/MTTR fault storms driven through the
//! certificate-gated healing engine and the virtual-channel engine.
//!
//! A [`StormSpec`] compiles to a deterministic fault plan of overlapping
//! permanent and transient faults ([`turnroute_sim::harness::chaos_plan`]).
//! The soak then runs the storm twice:
//!
//! 1. **Wormhole engine, healing attached** — `turnheal` pauses
//!    arbitration around each fault transition, re-proves the masked
//!    channel graph, and swaps only behind the checker gate, while the
//!    [`InvariantObserver`] shadow model audits every flit move and a
//!    [`HealingLog`] records the full reconfiguration protocol as a
//!    replayable TTRL stream.
//! 2. **Virtual-channel engine** — the identical storm under the same
//!    sanitizer, so both engines face millions of faulted cycles.
//!
//! The soak passes only if both sanitizers stay clean, neither engine
//! deadlocks, every reconfiguration epoch carries a checker-validated
//! certificate, and each engine's delivered fraction stays above the
//! storm's severity-derived floor. With `inject_bad`, the first
//! post-baseline epoch deliberately submits the previous (stale)
//! certificate to the checker, which must reject it — the self-test CI
//! runs to prove the gate is load-bearing.

use crate::Scale;
use turnroute_analysis::{run_healing, HealOptions, HealReport};
use turnroute_obslog::log::fnv1a64;
use turnroute_obslog::LogObserver;
use turnroute_routing::{mesh2d, RoutingMode};
use turnroute_sim::harness::{chaos_plan, StormSpec};
use turnroute_sim::obs::{ChannelLayout, Event};
use turnroute_sim::{InvariantObserver, InvariantSummary, SimConfig, SimObserver};
use turnroute_topology::{Mesh, Topology};
use turnroute_traffic::Uniform;
use turnroute_vc::{DoubleYAdaptive, VcSim};

/// Forwards only the healing protocol — [`Event::Fault`] transitions and
/// [`Event::Heal`]s — into a TTRL log. The resulting *healing log* stays
/// kilobytes even over million-cycle storms, replays through `turnstat`
/// like any other log, and is the byte-compared determinism witness of
/// the chaos CI gate.
pub struct HealingLog(pub LogObserver);

impl SimObserver for HealingLog {
    #[inline]
    fn on_event(&mut self, now: u64, ev: &Event<'_>) {
        if matches!(ev, Event::Fault { .. } | Event::Heal(_)) {
            self.0.on_event(now, ev);
        }
    }
}

/// The storm the soak runs at a given scale. `Full` is the
/// acceptance-scale storm: a million-cycle horizon with overlapping
/// permanent and transient link faults plus transient node faults.
/// `Quick` shrinks the horizon for CI while keeping every ingredient
/// (overlap, permanents, node faults) present.
pub fn storm(scale: Scale, seed: u64) -> StormSpec {
    match scale {
        Scale::Quick => StormSpec {
            horizon: 12_000,
            link_mttf: 900,
            mean_repair: 500,
            permanent_fraction: 0.08,
            node_mttf: 5_000,
            node_mean_repair: 300,
            seed,
        },
        Scale::Full => StormSpec {
            horizon: 1_000_000,
            link_mttf: 2_000,
            mean_repair: 900,
            permanent_fraction: 0.002,
            node_mttf: 25_000,
            node_mean_repair: 500,
            seed,
        },
    }
}

/// One engine's share of the soak.
#[derive(Debug, Clone)]
pub struct EngineSoak {
    /// Engine label (`sim+heal` or `vc`).
    pub engine: String,
    /// Delivered fraction over the measurement window.
    pub delivered_fraction: f64,
    /// The floor the storm's severity demands.
    pub floor: f64,
    /// Whether the run deadlocked.
    pub deadlocked: bool,
    /// Shadow-model audit counters.
    pub sanitizer: InvariantSummary,
    /// Recorded sanitizer violations (empty on a clean run).
    pub violations: Vec<String>,
}

impl EngineSoak {
    /// Clean sanitizer, no deadlock, delivered fraction above the floor.
    pub fn passed(&self) -> bool {
        self.sanitizer.violations == 0 && !self.deadlocked && self.delivered_fraction >= self.floor
    }
}

/// Everything one chaos soak established.
#[derive(Debug, Clone)]
pub struct ChaosReport {
    /// The storm that ran.
    pub spec: StormSpec,
    /// Expected fraction of channels concurrently failed.
    pub severity: f64,
    /// Fault transitions the compiled plan schedules.
    pub fault_transitions: usize,
    /// The healing engine's epoch-by-epoch report.
    pub heal: HealReport,
    /// Wormhole-engine (healing) soak results.
    pub sim: EngineSoak,
    /// Virtual-channel-engine soak results.
    pub vc: EngineSoak,
    /// The sealed healing log (TTRL bytes).
    pub log: Vec<u8>,
    /// FNV-1a-64 of the sealed healing log — two same-seed soaks must
    /// print the same hash.
    pub log_hash: u64,
}

impl ChaosReport {
    /// The soak's overall verdict: both engines pass, every epoch is
    /// certified, and (when the self-test ran) the stale certificate was
    /// rejected.
    pub fn passed(&self) -> bool {
        self.sim.passed() && self.vc.passed() && self.heal.passed()
    }

    /// Human-readable soak summary (the `chaos.md` artifact).
    pub fn render(&self) -> String {
        let s = &self.spec;
        let mut out = format!(
            "## Chaos-storm soak\n\n\
             Storm: horizon {} cycles, link MTTF {} / MTTR {} ({}% permanent), \
             node MTTF {} / MTTR {}, storm seed {} — {} scheduled fault \
             transitions, expected severity {:.4} (concurrently-failed channel \
             fraction).\n\n",
            s.horizon,
            s.link_mttf,
            s.mean_repair,
            (s.permanent_fraction * 100.0).round(),
            s.node_mttf,
            s.node_mean_repair,
            s.seed,
            self.fault_transitions,
            self.severity,
        );
        out.push_str(
            "| engine | delivered | floor | deadlock | sanitizer violations | verdict |\n\
             |:---|---:|---:|:---|---:|:---|\n",
        );
        for e in [&self.sim, &self.vc] {
            out.push_str(&format!(
                "| {} | {:.4} | {:.4} | {} | {} | {} |\n",
                e.engine,
                e.delivered_fraction,
                e.floor,
                if e.deadlocked { "DEADLOCK" } else { "no" },
                e.sanitizer.violations,
                if e.passed() { "pass" } else { "FAIL" },
            ));
        }
        out.push_str(&format!(
            "\nHealing: {} epochs ({} incremental), every epoch certified: {}.\n",
            self.heal.epochs.len(),
            self.heal.incremental_epochs(),
            if self.heal.certified() { "yes" } else { "NO" },
        ));
        match self.heal.injected_caught {
            Some(true) => out
                .push_str("inject-bad self-test ok: the checker rejected the stale certificate.\n"),
            Some(false) => out.push_str(
                "inject-bad self-test FAILED: the stale certificate slipped past the checker.\n",
            ),
            None => {}
        }
        out.push_str(&format!(
            "Healing log: {} bytes, fnv1a64 {:016x} (same seed ⇒ same hash).\n\n\
             Soak verdict: **{}**\n",
            self.log.len(),
            self.log_hash,
            if self.passed() { "PASS" } else { "FAIL" },
        ));
        for e in [&self.sim, &self.vc] {
            for v in &e.violations {
                out.push_str(&format!("  {}: {v}\n", e.engine));
            }
        }
        out
    }
}

/// The soak's simulator configuration: moderate load so delivery loss is
/// attributable to the storm, a packet lifetime with retries so blocked
/// packets degrade into drops instead of hanging the run, and a measure
/// window covering the whole storm horizon.
fn soak_config(spec: &StormSpec, topo: &dyn Topology, traffic_seed: u64) -> SimConfig {
    SimConfig::builder()
        .injection_rate(0.05)
        .warmup_cycles(1_000)
        .measure_cycles(spec.horizon)
        .drain_cycles(4_000)
        .packet_timeout(1_500)
        .max_retries(2)
        .deadlock_threshold(20_000)
        .fault_plan(chaos_plan(topo, spec))
        .seed(traffic_seed)
        .build()
}

/// Run the full soak: the storm through the healing wormhole engine and
/// the virtual-channel engine, both sanitized.
pub fn soak(scale: Scale, seed: u64, inject_bad: bool) -> ChaosReport {
    let m = match scale {
        Scale::Quick => 6,
        Scale::Full => 8,
    };
    let mesh = Mesh::new_2d(m, m);
    let spec = storm(scale, seed);
    let severity = spec.severity(&mesh);
    let floor = spec.delivered_floor(&mesh);
    let pattern = Uniform::new();
    let wf = mesh2d::west_first(RoutingMode::Minimal);

    // Engine 1: wormhole + healing, sanitized and logged.
    let cfg = soak_config(&spec, &mesh, seed.wrapping_add(1));
    let fault_transitions = cfg.fault_plan.events().len();
    let log = HealingLog(LogObserver::start(&mesh, &wf, &pattern, &cfg, "sim"));
    let sanitizer = InvariantObserver::new(ChannelLayout::for_topology(&mesh), cfg.buffer_depth);
    let (heal, (log, sanitizer)) = run_healing(
        &mesh,
        &wf,
        &pattern,
        cfg,
        (log, sanitizer),
        &HealOptions { inject_bad },
    );
    let log = log.0.finish();
    let log_hash = fnv1a64(&log);
    let sim = EngineSoak {
        engine: "sim+heal".to_string(),
        delivered_fraction: heal.sim.delivered_fraction(),
        floor,
        deadlocked: heal.sim.deadlocked,
        sanitizer: sanitizer.summary(),
        violations: sanitizer.violations().to_vec(),
    };

    // Engine 2: the virtual-channel adapter under the identical storm.
    let routing = DoubleYAdaptive::new();
    let cfg = soak_config(&spec, &mesh, seed.wrapping_add(2));
    let obs = InvariantObserver::new(ChannelLayout::new(mesh.num_nodes(), 4), cfg.buffer_depth);
    let mut vc_sim = VcSim::with_observer(&mesh, &routing, &pattern, cfg, obs);
    let report = vc_sim.run();
    let obs = vc_sim.observer();
    let vc = EngineSoak {
        engine: "vc".to_string(),
        delivered_fraction: report.delivered_fraction(),
        floor,
        deadlocked: report.deadlocked,
        sanitizer: obs.summary(),
        violations: obs.violations().to_vec(),
    };

    ChaosReport {
        spec,
        severity,
        fault_transitions,
        heal,
        sim,
        vc,
        log,
        log_hash,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use turnroute_obslog::verify_bytes;

    fn tiny() -> ChaosReport {
        // A scaled-down quick storm so the test stays fast; every soak
        // ingredient (overlap, permanents, node faults, healing, both
        // engines) is still present.
        let spec = StormSpec {
            horizon: 4_000,
            ..storm(Scale::Quick, 3)
        };
        let mesh = Mesh::new_2d(6, 6);
        assert!(chaos_plan(&mesh, &spec).len() > 2);
        soak_with(spec, false)
    }

    fn soak_with(spec: StormSpec, inject_bad: bool) -> ChaosReport {
        // Inline copy of `soak` over an explicit spec (the public entry
        // fixes the spec by scale so artifacts stay canonical).
        let mesh = Mesh::new_2d(6, 6);
        let severity = spec.severity(&mesh);
        let floor = spec.delivered_floor(&mesh);
        let pattern = Uniform::new();
        let wf = mesh2d::west_first(RoutingMode::Minimal);
        let cfg = soak_config(&spec, &mesh, spec.seed.wrapping_add(1));
        let fault_transitions = cfg.fault_plan.events().len();
        let log = HealingLog(LogObserver::start(&mesh, &wf, &pattern, &cfg, "sim"));
        let sanitizer =
            InvariantObserver::new(ChannelLayout::for_topology(&mesh), cfg.buffer_depth);
        let (heal, (log, sanitizer)) = run_healing(
            &mesh,
            &wf,
            &pattern,
            cfg,
            (log, sanitizer),
            &HealOptions { inject_bad },
        );
        let log = log.0.finish();
        let log_hash = fnv1a64(&log);
        let sim = EngineSoak {
            engine: "sim+heal".to_string(),
            delivered_fraction: heal.sim.delivered_fraction(),
            floor,
            deadlocked: heal.sim.deadlocked,
            sanitizer: sanitizer.summary(),
            violations: sanitizer.violations().to_vec(),
        };
        let routing = DoubleYAdaptive::new();
        let cfg = soak_config(&spec, &mesh, spec.seed.wrapping_add(2));
        let obs = InvariantObserver::new(ChannelLayout::new(mesh.num_nodes(), 4), cfg.buffer_depth);
        let mut vc_sim = VcSim::with_observer(&mesh, &routing, &pattern, cfg, obs);
        let report = vc_sim.run();
        let obs = vc_sim.observer();
        let vc = EngineSoak {
            engine: "vc".to_string(),
            delivered_fraction: report.delivered_fraction(),
            floor,
            deadlocked: report.deadlocked,
            sanitizer: obs.summary(),
            violations: obs.violations().to_vec(),
        };
        ChaosReport {
            spec,
            severity,
            fault_transitions,
            heal,
            sim,
            vc,
            log,
            log_hash,
        }
    }

    #[test]
    fn tiny_storm_soaks_clean_in_both_engines() {
        let r = tiny();
        assert!(r.passed(), "\n{}", r.render());
        assert!(r.heal.epochs.len() > 1, "storm must open healing epochs");
        assert!(r.heal.certified());
        // The healing log is a valid TTRL stream carrying the protocol.
        let s = verify_bytes(&r.log).expect("healing log verifies");
        // Epoch extensions re-emit EpochOpen under the same id, so the
        // event count can exceed the completed-epoch record count.
        assert!(s.count("heal_epoch") >= r.heal.epochs.len() as u64);
        assert_eq!(s.count("heal_proof"), r.heal.epochs.len() as u64);
        assert_eq!(s.count("heal_cert"), r.heal.epochs.len() as u64);
        assert!(s.count("heal_swap") > 0);
        assert!(s.count("fault") > 0);
        assert!(r.render().contains("PASS"));
    }

    #[test]
    fn same_seed_soaks_are_byte_identical() {
        let (a, b) = (tiny(), tiny());
        assert_eq!(a.log, b.log, "healing logs must be byte-identical");
        assert_eq!(a.log_hash, b.log_hash);
        assert_eq!(a.render(), b.render());
    }

    #[test]
    fn inject_bad_is_caught_by_the_checker_gate() {
        let spec = StormSpec {
            horizon: 4_000,
            ..storm(Scale::Quick, 3)
        };
        let r = soak_with(spec, true);
        assert_eq!(r.heal.injected_caught, Some(true), "\n{}", r.heal.render());
        assert!(r.passed(), "\n{}", r.render());
        assert!(r.render().contains("self-test ok"));
    }
}
