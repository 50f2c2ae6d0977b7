//! The replay-equivalence aggregate stack.
//!
//! [`ReplayableAggregates`] derives everything it reports *purely from
//! observed events* — never from engine internals — which is exactly what
//! makes it replayable: drive it live beside a [`crate::LogObserver`] or
//! re-drive it from the recorded log, and it lands in the same state, byte
//! for byte. It carries the PR 1 collectors (latency histogram, channel
//! heatmap, turn census) plus hook-derived counters.

use crate::artifact::JsonObject;
use crate::metrics::{self, Registry};
use turnroute_sim::obs::{ChannelHeatmap, ChannelLayout, Event, StreamingHistogram, TurnCensus};
use turnroute_sim::{BlameTotals, SimObserver};

/// Event-derived aggregates that replay bit-identically from a log.
#[derive(Debug, Clone)]
pub struct ReplayableAggregates {
    /// Per-channel load and stall-attribution heatmap.
    pub heatmap: ChannelHeatmap,
    /// Turns taken, by direction pair.
    pub census: TurnCensus,
    /// Latency of every delivered packet (creation to tail consumption).
    pub latency: StreamingHistogram,
    /// Hops of every delivered packet.
    pub hops: StreamingHistogram,
    /// Latency blame summed over every blamed delivery.
    pub blame: BlameTotals,
    injected_packets: u64,
    injected_flits: u64,
    sourced_flits: u64,
    delivered_packets: u64,
    consumed_flits: u64,
    misroutes: u64,
    faults: u64,
    drops: u64,
    unroutable_drops: u64,
    purges: u64,
    blamed_packets: u64,
    frames: u64,
    alerts: u64,
    deadlocked: bool,
    last_cycle: u64,
}

impl ReplayableAggregates {
    /// An empty stack over `layout`'s channel numbering.
    pub fn new(layout: ChannelLayout) -> ReplayableAggregates {
        ReplayableAggregates {
            heatmap: ChannelHeatmap::new(layout),
            census: TurnCensus::new(layout.num_dims),
            latency: StreamingHistogram::new(),
            hops: StreamingHistogram::new(),
            blame: BlameTotals::default(),
            injected_packets: 0,
            injected_flits: 0,
            sourced_flits: 0,
            delivered_packets: 0,
            consumed_flits: 0,
            misroutes: 0,
            faults: 0,
            drops: 0,
            unroutable_drops: 0,
            purges: 0,
            blamed_packets: 0,
            frames: 0,
            alerts: 0,
            deadlocked: false,
            last_cycle: 0,
        }
    }

    /// Packets that started streaming into the network.
    pub fn injected_packets(&self) -> u64 {
        self.injected_packets
    }

    /// Packets whose tail was consumed at its destination.
    pub fn delivered_packets(&self) -> u64 {
        self.delivered_packets
    }

    /// Whether a deadlock snapshot was observed.
    pub fn deadlocked(&self) -> bool {
        self.deadlocked
    }

    /// Final cycle the stack saw end.
    pub fn last_cycle(&self) -> u64 {
        self.last_cycle
    }

    /// Deliveries that carried a latency-blame decomposition.
    pub fn blamed_packets(&self) -> u64 {
        self.blamed_packets
    }

    /// Telemetry frames observed (decoded from a replayed log, or fired
    /// live by a frame-enabled recorder sharing the run).
    pub fn frames_seen(&self) -> u64 {
        self.frames
    }

    /// Early-warning alerts observed.
    pub fn alerts_seen(&self) -> u64 {
        self.alerts
    }

    /// The whole stack as one canonical, key-ordered JSON artifact — the
    /// byte string `turnstat verify` compares between live and replayed
    /// runs.
    pub fn snapshot_json(&self) -> String {
        let mut counters = JsonObject::new();
        counters
            .set("alerts", self.alerts.to_string())
            .set("blamed_packets", self.blamed_packets.to_string())
            .set("consumed_flits", self.consumed_flits.to_string())
            .set("delivered_packets", self.delivered_packets.to_string())
            .set("drops", self.drops.to_string())
            .set("faults", self.faults.to_string())
            .set("frames", self.frames.to_string())
            .set("injected_flits", self.injected_flits.to_string())
            .set("injected_packets", self.injected_packets.to_string())
            .set("misroutes", self.misroutes.to_string())
            .set("purges", self.purges.to_string())
            .set("sourced_flits", self.sourced_flits.to_string())
            .set("unroutable_drops", self.unroutable_drops.to_string());
        let mut blame = JsonObject::new();
        blame
            .set("blocked_cycles", self.blame.blocked_cycles.to_string())
            .set("misroute_cycles", self.blame.misroute_cycles.to_string())
            .set("queue_cycles", self.blame.queue_cycles.to_string())
            .set("service_cycles", self.blame.service_cycles.to_string());
        let mut root = JsonObject::new();
        root.set("blame", blame.render())
            .set("census", self.census.to_json())
            .set("counters", counters.render())
            .set("deadlocked", self.deadlocked.to_string())
            .set("heatmap", self.heatmap.to_json())
            .set("hops", self.hops.to_json())
            .set("last_cycle", self.last_cycle.to_string())
            .set("latency", self.latency.to_json());
        root.render()
    }

    /// Export the stack onto a fresh metrics [`Registry`].
    pub fn to_registry(&self) -> Registry {
        let mut reg = Registry::new();
        metrics::export_heatmap(&mut reg, &self.heatmap);
        metrics::export_census(&mut reg, &self.census);
        metrics::export_latency(&mut reg, &self.latency);
        for (name, help, v) in [
            (
                "turnroute_injected_packets_total",
                "Packets that started streaming into the network",
                self.injected_packets,
            ),
            (
                "turnroute_delivered_packets_total",
                "Packets whose tail was consumed at its destination",
                self.delivered_packets,
            ),
            (
                "turnroute_misroutes_total",
                "Unproductive hops taken",
                self.misroutes,
            ),
            (
                "turnroute_fault_transitions_total",
                "Channel fault state changes observed",
                self.faults,
            ),
            (
                "turnroute_dropped_packets_total",
                "Packets dropped after exhausting lifetime and retries",
                self.drops,
            ),
            (
                "turnroute_purges_total",
                "Packets purged from the network",
                self.purges,
            ),
            (
                "turnroute_frames_total",
                "Telemetry frames observed",
                self.frames,
            ),
            (
                "turnroute_alerts_total",
                "Early-warning alerts observed",
                self.alerts,
            ),
        ] {
            reg.counter_add(name, help, &[], v);
        }
        for (component, v) in [
            ("queue", self.blame.queue_cycles),
            ("blocked", self.blame.blocked_cycles),
            ("service", self.blame.service_cycles),
            ("misroute", self.blame.misroute_cycles),
        ] {
            reg.counter_add(
                "turnroute_blame_cycles_total",
                "Latency blame attributed to delivered packets, by component",
                &[("component", component)],
                v,
            );
        }
        reg.gauge_set(
            "turnroute_deadlocked",
            "1 when a deadlock snapshot was observed",
            &[],
            f64::from(u8::from(self.deadlocked)),
        );
        reg.gauge_set(
            "turnroute_last_cycle",
            "Final simulated cycle observed",
            &[],
            self.last_cycle as f64,
        );
        reg
    }
}

impl SimObserver for ReplayableAggregates {
    #[inline]
    fn on_event(&mut self, now: u64, ev: &Event<'_>) {
        self.heatmap.on_event(now, ev);
        self.census.on_event(now, ev);
        match *ev {
            Event::Inject { len, .. } => {
                self.injected_packets += 1;
                self.injected_flits += u64::from(len);
            }
            Event::FlitSource { .. } => self.sourced_flits += 1,
            Event::FlitAdvance { to: None, .. } => self.consumed_flits += 1,
            Event::Misroute { .. } => self.misroutes += 1,
            Event::Deliver { latency, hops, .. } => {
                self.delivered_packets += 1;
                self.latency.record(latency);
                self.hops.record(u64::from(hops));
            }
            Event::Blame { blame, .. } => {
                self.blamed_packets += 1;
                let sum = &mut self.blame;
                sum.queue_cycles = sum.queue_cycles.saturating_add(blame.queue_cycles);
                sum.blocked_cycles = sum.blocked_cycles.saturating_add(blame.blocked_cycles);
                sum.service_cycles = sum.service_cycles.saturating_add(blame.service_cycles);
                sum.misroute_cycles = sum.misroute_cycles.saturating_add(blame.misroute_cycles);
            }
            Event::Fault { .. } => self.faults += 1,
            Event::Drop { unroutable, .. } => {
                self.drops += 1;
                self.unroutable_drops += u64::from(unroutable);
            }
            Event::Purge { .. } => self.purges += 1,
            Event::CycleEnd => self.last_cycle = now,
            Event::Deadlock(_) => self.deadlocked = true,
            Event::Frame(_) => self.frames += 1,
            Event::Alert(_) => self.alerts += 1,
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::LogObserver;
    use crate::replay::replay;
    use turnroute_routing::{mesh2d, RoutingMode};
    use turnroute_sim::{FaultPlan, Sim, SimConfig};
    use turnroute_topology::{Direction, Mesh, NodeId};
    use turnroute_traffic::Uniform;

    #[test]
    fn replayed_aggregates_match_live_byte_for_byte() {
        let mesh = Mesh::new_2d(6, 6);
        let routing = mesh2d::west_first(RoutingMode::Minimal);
        let pattern = Uniform::new();
        let cfg = SimConfig::builder()
            .injection_rate(0.08)
            .seed(42)
            .warmup_cycles(100)
            .measure_cycles(400)
            .drain_cycles(400)
            .fault_plan(FaultPlan::new().transient_link(NodeId(14), Direction::EAST, 150, 100))
            .build();
        let layout = ChannelLayout::for_topology(&mesh);
        let log = LogObserver::start(&mesh, &routing, &pattern, &cfg, "sim");
        let live = ReplayableAggregates::new(layout);
        let mut sim = Sim::with_observer(&mesh, &routing, &pattern, cfg, (log, live));
        let report = sim.run();
        let (log, live) = sim.into_observer();
        let bytes = log.finish();

        let mut replayed = ReplayableAggregates::new(layout);
        replay(&bytes, &mut replayed).expect("replays");
        assert_eq!(live.snapshot_json(), replayed.snapshot_json());
        assert_eq!(
            live.to_registry().prometheus_text(),
            replayed.to_registry().prometheus_text()
        );
        assert_eq!(
            live.to_registry().json_snapshot(),
            replayed.to_registry().json_snapshot()
        );
        // The stack saw real traffic and the scheduled fault transitions.
        // The report counts only measurement-window packets; the observer
        // sees every delivery, so it is a superset.
        assert!(live.delivered_packets() >= report.delivered_packets);
        assert!(report.delivered_packets > 0);
        assert!(live.faults >= 2);
        assert!(!live.deadlocked());
        assert!(turnroute_sim::obs::json::validate(&live.snapshot_json()));
    }

    #[test]
    fn snapshot_json_is_stable_for_an_empty_stack() {
        let a = ReplayableAggregates::new(ChannelLayout::new(4, 2));
        let b = ReplayableAggregates::new(ChannelLayout::new(4, 2));
        assert_eq!(a.snapshot_json(), b.snapshot_json());
        assert!(a.snapshot_json().contains("\"deadlocked\":false"));
    }
}
