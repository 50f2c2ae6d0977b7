//! `turnheal` — certificate-gated online reconfiguration.
//!
//! The rest of the prover stack answers *offline* questions: given a
//! fault pattern, is the degraded relation deadlock free? This module
//! closes the loop *online*. [`run_healing`] owns a live [`Sim`] and, on
//! every fault transition the engine applies, runs one **healing epoch**:
//!
//! 1. **hold** — output arbitration pauses at the routers adjacent to the
//!    changed links/nodes ([`Sim::set_hold`]); in-flight worms keep
//!    draining, and everywhere else traffic degrades onto the
//!    turn-legal misroute fallback of `turnroute_model::degraded_route`;
//! 2. **re-extract** — the fault-masked channel graph is rebuilt by
//!    lowering [`FaultMasked`], that same function over the epoch's
//!    fault set ([`crate::extract::from_faulted_routing`]), so the
//!    relation certified is the relation the engine arbitrates by;
//! 3. **re-prove, incrementally** — when only connectivity changed (every
//!    new dependency edge already respects the previous epoch's total
//!    channel numbering) the numbering is *reused*; violations are
//!    repaired locally Pearce–Kelly style; only a genuine cycle falls
//!    back to a full [`crate::prove::prove`] pass for a minimal witness.
//!    Connectivity certificates are recomputed every epoch regardless —
//!    the independent checker demands complete pair coverage;
//! 4. **gate** — the routing tables switch to the new masked relation
//!    only once [`crate::check::check`] has validated the certificate
//!    ([`HealEvent::TableSwap`]); if the relation is cyclic, the witness
//!    channels are quarantined ([`Sim::set_quarantine`], escape-path-only
//!    mode) and the reduced graph is re-proven until a certificate
//!    exists.
//!
//! The simulated **proof latency** of an epoch is a deterministic
//! function of the proof work actually performed (graph operations at
//! [`OPS_PER_CYCLE`] per cycle), so two same-seed runs heal at identical
//! cycles and their observability logs compare byte for byte. Every
//! transition is emitted as an [`Event::Heal`] — epoch open,
//! proof, certificate digest, table swap, quarantine — which the obslog
//! crate records as its own event tags.
//!
//! [`FaultMasked`]: turnroute_model::FaultMasked

use crate::certificate::{Certificate, GraphSpec, Verdict};
use crate::{check, extract, prove};
use std::collections::HashSet;
use turnroute_model::RoutingFunction;
use turnroute_sim::obs::Event;
use turnroute_sim::{
    FaultEvent, FaultTarget, HealEvent, NoopObserver, Sim, SimConfig, SimObserver, SimReport,
};
use turnroute_topology::{Direction, FaultSet, NodeId, Topology};
use turnroute_traffic::TrafficPattern;

/// Graph operations the simulated prover retires per cycle. The proof
/// latency of an epoch is `1 + ops / OPS_PER_CYCLE` cycles, where `ops`
/// counts edges scanned, region vertices reordered, and connectivity
/// states relaxed — deterministic, so healing runs replay exactly.
pub const OPS_PER_CYCLE: u64 = 64;

/// Options controlling a healing run.
#[derive(Debug, Clone, Copy, Default)]
pub struct HealOptions {
    /// Self-test of the certificate gate: on the first post-baseline
    /// epoch, *skip* the re-proof and submit the previous epoch's stale
    /// certificate for the new channel graph. The checker must reject it
    /// ([`HealReport::injected_caught`]); the run then proceeds on the
    /// genuine certificate so the soak still completes.
    pub inject_bad: bool,
}

/// One completed healing epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EpochRecord {
    /// Epoch number; 0 is the pre-traffic baseline proof.
    pub epoch: u32,
    /// Cycle the epoch opened (fault transition applied).
    pub opened_at: u64,
    /// Cycle the certificate gate resolved and holds released.
    pub completed_at: u64,
    /// Fault-plan transitions folded into this epoch.
    pub transitions: u32,
    /// Simulated proof latency in cycles.
    pub proof_latency: u64,
    /// Whether the previous numbering was reused or locally repaired
    /// (`false` means a full re-prove, including every quarantine pass).
    pub incremental: bool,
    /// Whether the masked relation itself was acyclic. `false` engaged
    /// quarantine: the certificate covers the reduced graph.
    pub acyclic: bool,
    /// Whether the independent checker validated the epoch's certificate.
    pub checker_ok: bool,
    /// Whether this record is the `--inject-bad` stale-certificate
    /// submission (its `checker_ok` is expected to be `false`).
    pub injected: bool,
    /// FNV-1a digest of the certificate's canonical content.
    pub cert_hash: u64,
    /// Channels quarantined by this epoch's certificate.
    pub quarantined_channels: u32,
}

/// Summary of a healing run: every epoch plus the simulation report.
#[derive(Debug, Clone)]
pub struct HealReport {
    /// Configuration label (`heal/<routing>`).
    pub config: String,
    /// Every epoch, in completion order.
    pub epochs: Vec<EpochRecord>,
    /// With [`HealOptions::inject_bad`]: whether the checker rejected the
    /// stale certificate. `None` when no injection ran.
    pub injected_caught: Option<bool>,
    /// The underlying simulation's report.
    pub sim: SimReport,
}

impl HealReport {
    /// Every genuine (non-injected) epoch carries a checker-validated
    /// certificate.
    pub fn certified(&self) -> bool {
        !self.epochs.is_empty() && self.epochs.iter().all(|e| e.injected || e.checker_ok)
    }

    /// Epochs that reused or locally repaired the previous numbering.
    pub fn incremental_epochs(&self) -> usize {
        self.epochs.iter().filter(|e| e.incremental).count()
    }

    /// The run's overall verdict: certificates for every epoch, no
    /// deadlock, and (when the self-test ran) the stale certificate was
    /// caught.
    pub fn passed(&self) -> bool {
        self.certified() && !self.sim.deadlocked && self.injected_caught.unwrap_or(true)
    }

    /// Human-readable summary, one line per epoch.
    pub fn render(&self) -> String {
        let mut out = format!(
            "turnheal {} — {} epochs ({} incremental), delivered {}/{}, {}\n",
            self.config,
            self.epochs.len(),
            self.incremental_epochs(),
            self.sim.delivered_packets,
            self.sim.generated_packets,
            if self.passed() { "PASS" } else { "FAIL" },
        );
        for e in &self.epochs {
            out.push_str(&format!(
                "  epoch {:>3} @{:>8} +{:>3}cy {} {} cert={:016x}{}{}{}\n",
                e.epoch,
                e.opened_at,
                e.proof_latency,
                if e.incremental { "inc " } else { "full" },
                if e.checker_ok { "ok " } else { "ERR" },
                e.cert_hash,
                if e.acyclic { "" } else { " CYCLIC" },
                if e.quarantined_channels > 0 {
                    " quarantined"
                } else {
                    ""
                },
                if e.injected { " (injected)" } else { "" },
            ));
        }
        out
    }
}

/// Stable FNV-1a digest of a certificate's canonical content: verdict tag
/// and numbering (or witness cycle), then every path certificate, then
/// every unreachable claim — all fields the checker validates, none of
/// the free-form labels.
pub fn certificate_hash(cert: &Certificate) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    fn mix(h: &mut u64, x: u64) {
        for b in x.to_le_bytes() {
            *h ^= u64::from(b);
            *h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    match &cert.verdict {
        Verdict::Acyclic { numbering } => {
            mix(&mut h, 1);
            mix(&mut h, numbering.len() as u64);
            for &x in numbering {
                mix(&mut h, x);
            }
        }
        Verdict::Cyclic { cycle } => {
            mix(&mut h, 2);
            mix(&mut h, cycle.len() as u64);
            for &c in cycle {
                mix(&mut h, c.into());
            }
        }
    }
    mix(&mut h, cert.paths.len() as u64);
    for p in &cert.paths {
        mix(&mut h, p.src.into());
        mix(&mut h, p.dst.into());
        mix(&mut h, p.path.len() as u64);
        for &c in &p.path {
            mix(&mut h, c.into());
        }
    }
    mix(&mut h, cert.unreachable.len() as u64);
    for &(s, d) in &cert.unreachable {
        mix(&mut h, s.into());
        mix(&mut h, d.into());
    }
    h
}

/// The previous epoch's proof state carried into the next incremental
/// attempt: the dependency edge set it was proven over and the total
/// numbering that orders it.
struct Prior {
    deps: HashSet<(u32, u32)>,
    numbering: Vec<u64>,
}

/// Repair `prior`'s numbering for the dependency edges of the new epoch,
/// Pearce–Kelly style. Edge removals never invalidate a numbering, so
/// only *added* edges are examined: satisfied ones are free, violations
/// reorder just the affected region. Returns `None` when an added edge
/// closes a cycle (the caller falls back to a full prove for a minimal
/// witness); `ops` accumulates the work performed either way.
fn repair_numbering(
    n: usize,
    prior: &Prior,
    deps: &[(u32, u32)],
    ops: &mut u64,
) -> Option<Vec<u64>> {
    let mut num = prior.numbering.clone();
    let mut adj: Vec<Vec<u32>> = vec![Vec::new(); n];
    let mut radj: Vec<Vec<u32>> = vec![Vec::new(); n];
    let mut added = Vec::new();
    for &(a, b) in deps {
        *ops += 1;
        if prior.deps.contains(&(a, b)) {
            adj[a as usize].push(b);
            radj[b as usize].push(a);
        } else {
            added.push((a, b));
        }
    }
    for (a, b) in added {
        let (ai, bi) = (a as usize, b as usize);
        *ops += 1;
        if num[ai] >= num[bi] {
            // Affected region: forward from b among positions <= num[a]
            // (a valid order bounds any b→a path below num[a]), backward
            // from a among positions >= num[b].
            let (lb, ub) = (num[bi], num[ai]);
            let mut fwd = Vec::new();
            let mut seen = vec![false; n];
            let mut stack = vec![bi];
            seen[bi] = true;
            while let Some(v) = stack.pop() {
                if v == ai {
                    return None; // b reaches a: the new edge closes a cycle
                }
                fwd.push(v);
                for &w in &adj[v] {
                    *ops += 1;
                    let wi = w as usize;
                    if !seen[wi] && num[wi] <= ub {
                        seen[wi] = true;
                        stack.push(wi);
                    }
                }
            }
            let mut bwd = Vec::new();
            let mut stack = vec![ai];
            seen[ai] = true;
            while let Some(v) = stack.pop() {
                bwd.push(v);
                for &w in &radj[v] {
                    *ops += 1;
                    let wi = w as usize;
                    if !seen[wi] && num[wi] >= lb {
                        seen[wi] = true;
                        stack.push(wi);
                    }
                }
            }
            // Reassign the pooled positions: backward region first (it
            // must precede), then forward, each in its old relative order.
            bwd.sort_by_key(|&v| num[v]);
            fwd.sort_by_key(|&v| num[v]);
            let mut pool: Vec<u64> = bwd.iter().chain(&fwd).map(|&v| num[v]).collect();
            pool.sort_unstable();
            for (v, p) in bwd.iter().chain(&fwd).zip(pool) {
                *ops += 1;
                num[*v] = p;
            }
        }
        adj[ai].push(b);
        radj[bi].push(a);
    }
    Some(num)
}

/// The proof of one epoch (possibly after quarantine passes).
struct EpochProof {
    cert: Certificate,
    /// Whether the *first* proof attempt (before quarantine) was acyclic.
    masked_acyclic: bool,
    incremental: bool,
    ops: u64,
    quarantine: Vec<(NodeId, Direction)>,
}

/// Prove the fault-masked relation of `faults`, quarantining witness
/// cycles until a certificate exists. The returned certificate always
/// carries an acyclic verdict — over the masked graph itself when the
/// turn discipline held, or over the quarantine-reduced graph otherwise —
/// and the spec it certifies.
fn prove_epoch(
    label: &str,
    topo: &dyn Topology,
    routing: &dyn RoutingFunction,
    faults: &FaultSet,
    prior: Option<&Prior>,
) -> (GraphSpec, EpochProof) {
    let channels = topo.channels();
    let mut overlay = faults.clone();
    let mut quarantine: Vec<(NodeId, Direction)> = Vec::new();
    let mut ops = 0u64;
    let mut masked_acyclic = None;
    let mut incremental = false;
    loop {
        let spec = extract::from_faulted_routing(label.to_string(), topo, routing, &overlay);
        let n = spec.channels.len();
        let verdict = match prior {
            // Quarantine passes re-prove from scratch: the reduced graph
            // diverges too far for the previous numbering to be a prior.
            Some(p) if p.numbering.len() == n && quarantine.is_empty() => {
                match repair_numbering(n, p, &spec.deps, &mut ops) {
                    Some(numbering) => {
                        incremental = true;
                        Verdict::Acyclic { numbering }
                    }
                    None => {
                        incremental = false;
                        ops += (n + spec.deps.len()) as u64;
                        prove::verdict_of(&spec)
                    }
                }
            }
            _ => {
                ops += (n + spec.deps.len()) as u64;
                prove::verdict_of(&spec)
            }
        };
        if verdict.is_acyclic() {
            let acyclic_masked = *masked_acyclic.get_or_insert(true);
            // Connectivity is recomputed every epoch: the checker demands
            // complete ordered-pair coverage per certificate.
            let (paths, unreachable) = prove::connectivity(&spec);
            ops += spec.num_nodes as u64 * (n as u64 + spec.num_nodes as u64);
            let cert = Certificate {
                verdict,
                paths,
                unreachable,
            };
            return (
                spec,
                EpochProof {
                    cert,
                    masked_acyclic: acyclic_masked,
                    incremental,
                    ops,
                    quarantine,
                },
            );
        }
        let Verdict::Cyclic { cycle } = verdict else {
            unreachable!("non-acyclic verdict is cyclic");
        };
        masked_acyclic.get_or_insert(false);
        incremental = false;
        assert!(
            quarantine.len() < channels.len(),
            "quarantine cannot exceed the channel count"
        );
        for &c in &cycle {
            let ch = &channels[c as usize];
            if !overlay.link_failed_at(topo, ch.src(), ch.dir()) {
                overlay.fail_link(topo, ch.src(), ch.dir());
                quarantine.push((ch.src(), ch.dir()));
            }
        }
    }
}

/// A healing epoch in flight: opened on a fault transition, resolved at
/// `due` once its simulated proof latency has elapsed. A further
/// transition before `due` extends the same epoch with a fresh proof.
struct Pending {
    epoch: u32,
    opened_at: u64,
    due: u64,
    transitions: u32,
    spec: GraphSpec,
    proof: EpochProof,
}

/// Run the warmup → measure → drain protocol with the healing engine
/// attached, returning the heal report and the observer (through which
/// every [`HealEvent`] was emitted).
pub fn run_healing<O: SimObserver>(
    topo: &dyn Topology,
    routing: &dyn RoutingFunction,
    pattern: &dyn TrafficPattern,
    cfg: SimConfig,
    observer: O,
    opts: &HealOptions,
) -> (HealReport, O) {
    let config = format!("heal/{}", routing.name());
    let plan = cfg.fault_plan.clone();
    let events = plan.events();
    let measure_start = cfg.warmup_cycles;
    let measure_end = measure_start + cfg.measure_cycles;
    let total_end = measure_end + cfg.drain_cycles;
    let mut sim = Sim::with_observer(topo, routing, pattern, cfg, observer);
    sim.set_measure_window(measure_start, measure_end);

    let mut records: Vec<EpochRecord> = Vec::new();
    let mut injected_caught: Option<bool> = None;
    let mut prior: Option<Prior> = None;
    let mut last_cert: Option<(GraphSpec, Certificate)> = None;
    let mut held: HashSet<NodeId> = HashSet::new();
    let mut active_quarantine: Vec<(NodeId, Direction)> = Vec::new();
    let mut pending: Option<Pending> = None;
    let mut next_epoch: u32 = 1;
    let mut applied_seen = 0usize;

    // Epoch 0: the pre-traffic baseline. The pristine relation is proven
    // and gated before the first cycle, priming the numbering every later
    // epoch repairs (and, for an undisciplined relation, engaging
    // quarantine from the start).
    {
        let (spec, proof) = prove_epoch(
            &format!("{config}/epoch0"),
            topo,
            routing,
            &FaultSet::new(topo),
            None,
        );
        let latency = 1 + proof.ops / OPS_PER_CYCLE;
        sim.observer_mut().on_event(
            0,
            &Event::Heal(HealEvent::EpochOpen {
                epoch: 0,
                transitions: 0,
            }),
        );
        complete_epoch(
            &mut sim,
            topo,
            Pending {
                epoch: 0,
                opened_at: 0,
                due: 0,
                transitions: 0,
                spec,
                proof,
            },
            latency,
            false,
            &mut records,
            &mut prior,
            &mut last_cert,
            &mut held,
            &mut active_quarantine,
            &mut injected_caught,
        );
    }

    // Main loop: step, fold freshly applied fault transitions into an
    // epoch (opening or extending one), resolve the epoch at its due
    // cycle. After the configured horizon, an epoch still in flight is
    // allowed to resolve so every transition ends under a certificate.
    let hard_end = total_end + 100_000;
    while !sim.deadlocked()
        && (sim.now() < total_end || (pending.is_some() && sim.now() < hard_end))
    {
        sim.step();
        let t = sim.now() - 1;
        let applied = sim.applied_fault_events();
        if applied > applied_seen {
            let fresh = &events[applied_seen..applied];
            let transitions = fresh.len() as u32;
            for node in region_of(topo, fresh) {
                sim.set_hold(node, true);
                held.insert(node);
            }
            applied_seen = applied;
            let (epoch, opened_at, folded) = match pending.take() {
                Some(p) => (p.epoch, p.opened_at, p.transitions + transitions),
                None => {
                    let e = next_epoch;
                    next_epoch += 1;
                    (e, t, transitions)
                }
            };
            sim.observer_mut()
                .on_event(t, &Event::Heal(HealEvent::EpochOpen { epoch, transitions }));
            let faults = plan.fault_set_at(t, topo);
            let (spec, proof) = prove_epoch(
                &format!("{config}/epoch{epoch}"),
                topo,
                routing,
                &faults,
                prior.as_ref(),
            );
            let due = t + 1 + proof.ops / OPS_PER_CYCLE;
            pending = Some(Pending {
                epoch,
                opened_at,
                due,
                transitions: folded,
                spec,
                proof,
            });
        }
        if pending.as_ref().is_some_and(|p| sim.now() >= p.due) {
            let p = pending.take().expect("pending checked above");
            let latency = p.due - p.opened_at;
            let inject = opts.inject_bad && injected_caught.is_none();
            complete_epoch(
                &mut sim,
                topo,
                p,
                latency,
                inject,
                &mut records,
                &mut prior,
                &mut last_cert,
                &mut held,
                &mut active_quarantine,
                &mut injected_caught,
            );
        }
    }

    let sim_report = sim.report();
    let observer = sim.into_observer();
    (
        HealReport {
            config,
            epochs: records,
            injected_caught,
            sim: sim_report,
        },
        observer,
    )
}

/// [`run_healing`] with no observer attached.
pub fn run_healing_sim(
    topo: &dyn Topology,
    routing: &dyn RoutingFunction,
    pattern: &dyn TrafficPattern,
    cfg: SimConfig,
    opts: &HealOptions,
) -> HealReport {
    run_healing(topo, routing, pattern, cfg, NoopObserver, opts).0
}

/// The routers adjacent to a batch of fault transitions: both endpoints
/// of each changed link, a changed node and all its neighbors. This is
/// the region whose arbitration pauses while the epoch re-proves.
fn region_of(topo: &dyn Topology, events: &[FaultEvent]) -> HashSet<NodeId> {
    let mut region = HashSet::new();
    for ev in events {
        match ev.target {
            FaultTarget::Link { node, dir } => {
                region.insert(node);
                if let Some(peer) = topo.neighbor(node, dir) {
                    region.insert(peer);
                }
            }
            FaultTarget::Node(v) => {
                region.insert(v);
                for dir in Direction::all(topo.num_dims()) {
                    if let Some(peer) = topo.neighbor(v, dir) {
                        region.insert(peer);
                    }
                }
            }
        }
    }
    region
}

/// Resolve one epoch at its due cycle: validate the certificate through
/// the independent checker (first the stale one, when injecting), emit
/// the proof/certificate/swap/quarantine events, reconcile the engine's
/// quarantine flags, release the holds, and record the epoch.
#[allow(clippy::too_many_arguments)]
fn complete_epoch<O: SimObserver>(
    sim: &mut Sim<'_, O>,
    topo: &dyn Topology,
    p: Pending,
    latency: u64,
    inject: bool,
    records: &mut Vec<EpochRecord>,
    prior: &mut Option<Prior>,
    last_cert: &mut Option<(GraphSpec, Certificate)>,
    held: &mut HashSet<NodeId>,
    active_quarantine: &mut Vec<(NodeId, Direction)>,
    injected_caught: &mut Option<bool>,
) {
    let now = sim.now();
    // A transient that heals before its proof resolves leaves the masked
    // graph identical to the last certified one; the stale certificate is
    // then genuinely valid, so the self-test waits for an epoch that
    // actually moved the graph.
    let stale = last_cert
        .as_ref()
        .filter(|(s, _)| s.deps != p.spec.deps || s.routes != p.spec.routes)
        .map(|(_, cert)| cert);
    if let (true, Some(stale)) = (inject, stale) {
        // The self-test: pretend the re-proof was skipped and the stale
        // certificate submitted for the new graph. The gate must refuse.
        let stale_ok = check::check(&p.spec, stale).is_ok();
        *injected_caught = Some(!stale_ok);
        records.push(EpochRecord {
            epoch: p.epoch,
            opened_at: p.opened_at,
            completed_at: now,
            transitions: p.transitions,
            proof_latency: latency,
            incremental: false,
            acyclic: p.proof.masked_acyclic,
            checker_ok: stale_ok,
            injected: true,
            cert_hash: certificate_hash(stale),
            quarantined_channels: 0,
        });
    }
    let checker_ok = check::check(&p.spec, &p.proof.cert).is_ok();
    let hash = certificate_hash(&p.proof.cert);
    sim.observer_mut().on_event(
        now,
        &Event::Heal(HealEvent::Proof {
            epoch: p.epoch,
            latency,
            incremental: p.proof.incremental,
            acyclic: p.proof.masked_acyclic,
        }),
    );
    sim.observer_mut().on_event(
        now,
        &Event::Heal(HealEvent::Certificate {
            epoch: p.epoch,
            hash,
        }),
    );
    if checker_ok {
        // Reconcile quarantine: release channels the new certificate no
        // longer excludes, exclude the ones it does.
        for &(node, dir) in active_quarantine.iter() {
            if !p.proof.quarantine.contains(&(node, dir)) {
                sim.set_quarantine(node, dir, false);
                sim.observer_mut().on_event(
                    now,
                    &Event::Heal(HealEvent::Quarantine {
                        epoch: p.epoch,
                        slot: topo.channel_slot(node, dir) as u32,
                        on: false,
                    }),
                );
            }
        }
        for &(node, dir) in &p.proof.quarantine {
            if !active_quarantine.contains(&(node, dir)) {
                sim.set_quarantine(node, dir, true);
                sim.observer_mut().on_event(
                    now,
                    &Event::Heal(HealEvent::Quarantine {
                        epoch: p.epoch,
                        slot: topo.channel_slot(node, dir) as u32,
                        on: true,
                    }),
                );
            }
        }
        *active_quarantine = p.proof.quarantine.clone();
        sim.observer_mut()
            .on_event(now, &Event::Heal(HealEvent::TableSwap { epoch: p.epoch }));
        if let Verdict::Acyclic { numbering } = &p.proof.cert.verdict {
            *prior = Some(Prior {
                deps: p.spec.deps.iter().copied().collect(),
                numbering: numbering.clone(),
            });
        }
        *last_cert = Some((p.spec.clone(), p.proof.cert.clone()));
    }
    for node in held.drain() {
        sim.set_hold(node, false);
    }
    records.push(EpochRecord {
        epoch: p.epoch,
        opened_at: p.opened_at,
        completed_at: now,
        transitions: p.transitions,
        proof_latency: latency,
        incremental: p.proof.incremental,
        acyclic: p.proof.masked_acyclic,
        checker_ok,
        injected: false,
        cert_hash: hash,
        quarantined_channels: p.proof.quarantine.len() as u32,
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use turnroute_routing::{hex, mesh2d, FullyAdaptive, RoutingMode};
    use turnroute_sim::FaultPlan;
    use turnroute_topology::{HexMesh, Mesh, NodeId};
    use turnroute_traffic::Uniform;

    /// Counts every healing event fired on the observer.
    #[derive(Default)]
    struct HealCounter {
        opens: u32,
        proofs: u32,
        certs: u32,
        swaps: u32,
        quarantines: u32,
    }

    impl SimObserver for HealCounter {
        fn on_event(&mut self, _now: u64, ev: &Event<'_>) {
            match ev {
                Event::Heal(HealEvent::EpochOpen { .. }) => self.opens += 1,
                Event::Heal(HealEvent::Proof { .. }) => self.proofs += 1,
                Event::Heal(HealEvent::Certificate { .. }) => self.certs += 1,
                Event::Heal(HealEvent::TableSwap { .. }) => self.swaps += 1,
                Event::Heal(HealEvent::Quarantine { .. }) => self.quarantines += 1,
                _ => {}
            }
        }
    }

    fn heal_cfg(plan: FaultPlan) -> SimConfig {
        SimConfig::builder()
            .injection_rate(0.05)
            .warmup_cycles(200)
            .measure_cycles(2_000)
            .drain_cycles(2_000)
            .packet_timeout(600)
            .max_retries(2)
            .fault_plan(plan)
            .seed(5)
            .build()
    }

    #[test]
    fn repair_reuses_and_reorders_and_detects_cycles() {
        // Prior: a 4-chain 0→1→2→3 numbered in order.
        let prior = Prior {
            deps: [(0, 1), (1, 2), (2, 3)].into_iter().collect(),
            numbering: vec![0, 1, 2, 3],
        };
        let mut ops = 0;
        // All edges retained → numbering reused verbatim.
        let same = repair_numbering(4, &prior, &[(0, 1), (1, 2), (2, 3)], &mut ops).unwrap();
        assert_eq!(same, vec![0, 1, 2, 3]);
        // Added satisfied edge: free.
        let easy = repair_numbering(4, &prior, &[(0, 1), (1, 2), (2, 3), (0, 3)], &mut ops);
        assert_eq!(easy.unwrap(), vec![0, 1, 2, 3]);
        // Added violating but acyclic edge 3→… needs a reorder: drop
        // (2,3), add (3,2). Valid orders must put 3 before 2.
        let fixed = repair_numbering(4, &prior, &[(0, 1), (1, 2), (3, 2)], &mut ops).unwrap();
        assert!(fixed[3] < fixed[2], "{fixed:?}");
        assert!(fixed[0] < fixed[1] && fixed[1] < fixed[2]);
        // Added cycle-closing edge must be detected.
        assert!(repair_numbering(4, &prior, &[(0, 1), (1, 2), (2, 3), (3, 0)], &mut ops).is_none());
        assert!(ops > 0);
    }

    #[test]
    fn transient_fault_heals_with_certificates_for_every_epoch() {
        let mesh = Mesh::new_2d(6, 6);
        let wf = mesh2d::west_first(RoutingMode::Minimal);
        let plan = FaultPlan::new().transient_link(
            mesh.node_at_coords(&[2, 2]),
            turnroute_topology::Direction::EAST,
            500,
            700,
        );
        let (report, counter) = run_healing(
            &mesh,
            &wf,
            &Uniform::new(),
            heal_cfg(plan),
            HealCounter::default(),
            &HealOptions::default(),
        );
        assert!(report.passed(), "{}", report.render());
        // Baseline + fail + heal = three epochs, all certified.
        assert_eq!(report.epochs.len(), 3, "{}", report.render());
        assert!(report.certified());
        // The heal epoch restores dependency edges: the numbering is
        // repaired, not re-derived.
        assert!(
            report.epochs[2].incremental,
            "heal epoch should be incremental: {}",
            report.render()
        );
        assert!(report.sim.delivered_packets > 0);
        // Every epoch produced its open/proof/certificate/swap events.
        assert_eq!(counter.opens, 3);
        assert_eq!(counter.proofs, 3);
        assert_eq!(counter.certs, 3);
        assert_eq!(counter.swaps, 3);
        assert_eq!(counter.quarantines, 0);
    }

    #[test]
    fn healing_runs_replay_byte_identically() {
        let mesh = Mesh::new_2d(6, 6);
        let nl = mesh2d::north_last(RoutingMode::Minimal);
        let plan = FaultPlan::new()
            .transient_link(NodeId(7), turnroute_topology::Direction::NORTH, 300, 400)
            .transient_node(NodeId(14), 900, 300);
        let run = || {
            run_healing_sim(
                &mesh,
                &nl,
                &Uniform::new(),
                heal_cfg(plan.clone()),
                &HealOptions::default(),
            )
        };
        let (a, b) = (run(), run());
        assert_eq!(a.epochs, b.epochs, "same seed, same healing history");
        assert_eq!(a.sim.delivered_packets, b.sim.delivered_packets);
        assert!(a.passed(), "{}", a.render());
    }

    #[test]
    fn healing_log_records_every_transition_and_is_byte_stable() {
        use turnroute_obslog::{verify_bytes, LogObserver};
        let mesh = Mesh::new_2d(6, 6);
        let wf = mesh2d::west_first(RoutingMode::Minimal);
        let plan = FaultPlan::new().transient_link(
            mesh.node_at_coords(&[3, 3]),
            turnroute_topology::Direction::WEST,
            400,
            600,
        );
        let pattern = Uniform::new();
        let record = || {
            let cfg = heal_cfg(plan.clone());
            let log = LogObserver::start(&mesh, &wf, &pattern, &cfg, "sim");
            let (report, log) =
                run_healing(&mesh, &wf, &pattern, cfg, log, &HealOptions::default());
            assert!(report.passed(), "{}", report.render());
            (report, log.finish())
        };
        let (report, bytes) = record();
        let s = verify_bytes(&bytes).expect("healing log must verify");
        // Every epoch's full transition sequence landed in the log.
        let epochs = report.epochs.len() as u64;
        assert_eq!(s.count("heal_epoch"), epochs);
        assert_eq!(s.count("heal_proof"), epochs);
        assert_eq!(s.count("heal_cert"), epochs);
        assert_eq!(s.count("heal_swap"), epochs);
        assert_eq!(s.count("fault"), 2, "one down edge, one up edge");
        // Same seed, same storm: the sealed logs are byte-identical.
        let (_, again) = record();
        assert_eq!(bytes, again, "healing log must be byte-deterministic");
    }

    #[test]
    fn cyclic_relation_is_quarantined_into_a_certificate() {
        // Fully adaptive minimal routing has a cyclic CDG: the baseline
        // epoch must engage escape-path-only mode and still certify the
        // reduced graph.
        let mesh = Mesh::new_2d(4, 4);
        let report = run_healing_sim(
            &mesh,
            &FullyAdaptive::new(),
            &Uniform::new(),
            heal_cfg(FaultPlan::new()),
            &HealOptions::default(),
        );
        let base = &report.epochs[0];
        assert!(!base.acyclic, "fully adaptive must be cyclic");
        assert!(base.quarantined_channels > 0);
        assert!(base.checker_ok, "reduced graph must certify");
        assert!(report.certified(), "{}", report.render());
    }

    #[test]
    fn hex_mesh_heals_under_the_same_protocol() {
        let hexm = HexMesh::new(4, 4);
        let nf = hex::negative_first_hex(RoutingMode::Minimal);
        let victim = hexm.node_at_axial(1, 1);
        let dir = turnroute_topology::Direction::all(3)
            .find(|&d| hexm.neighbor(victim, d).is_some())
            .expect("interior hex node has neighbors");
        let plan = FaultPlan::new().transient_link(victim, dir, 400, 600);
        let report = run_healing_sim(
            &hexm,
            &nf,
            &Uniform::new(),
            heal_cfg(plan),
            &HealOptions::default(),
        );
        assert!(report.passed(), "{}", report.render());
        assert_eq!(report.epochs.len(), 3);
        assert!(report.sim.delivered_packets > 0);
    }

    #[test]
    fn stale_certificate_is_caught_by_the_gate() {
        let mesh = Mesh::new_2d(6, 6);
        let wf = mesh2d::west_first(RoutingMode::Minimal);
        let plan = FaultPlan::new().transient_link(
            mesh.node_at_coords(&[1, 2]),
            turnroute_topology::Direction::NORTH,
            400,
            500,
        );
        let report = run_healing_sim(
            &mesh,
            &wf,
            &Uniform::new(),
            heal_cfg(plan),
            &HealOptions { inject_bad: true },
        );
        assert_eq!(report.injected_caught, Some(true), "{}", report.render());
        let injected: Vec<_> = report.epochs.iter().filter(|e| e.injected).collect();
        assert_eq!(injected.len(), 1);
        assert!(!injected[0].checker_ok, "stale cert must be rejected");
        // The genuine certificates still gate the run to completion.
        assert!(report.passed(), "{}", report.render());
    }

    #[test]
    fn certificate_hash_distinguishes_content() {
        let mesh = Mesh::new_2d(4, 4);
        let wf = mesh2d::west_first(RoutingMode::Minimal);
        let spec = extract::from_routing("wf", &mesh, &wf);
        let cert = prove::prove(&spec);
        assert_eq!(certificate_hash(&cert), certificate_hash(&cert));
        let mut other = cert.clone();
        if let Verdict::Acyclic { numbering } = &mut other.verdict {
            numbering.swap(0, 1);
        }
        assert_ne!(certificate_hash(&cert), certificate_hash(&other));
    }
}
