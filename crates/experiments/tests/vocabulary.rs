//! Completeness of the forwarders: every observer that passes events on
//! passes on exactly the kinds it should, for all sixteen.

use std::collections::BTreeMap;
use turnroute_experiments::chaos::HealingLog;
use turnroute_model::Turn;
use turnroute_obslog::{summarize, LogHeader, LogObserver};
use turnroute_sim::obs::{
    ChannelHeatmap, ChannelLayout, DeadlockSnapshot, Event, RingTrace, StallReason,
    StreamingHistogram, TurnCensus,
};
use turnroute_sim::{
    Alert, AlertKind, HealEvent, NoopObserver, PacketBlame, PacketId, SimObserver, Telemetry,
    TelemetryFrame,
};
use turnroute_topology::{Direction, Mesh, NodeId};

/// The kind's name. No wildcard arm: a seventeenth kind fails to compile
/// here until `one_of_each` fires it too.
fn kind(ev: &Event<'_>) -> &'static str {
    match ev {
        Event::Inject { .. } => "inject",
        Event::FlitSource { .. } => "flit-source",
        Event::FlitAdvance { .. } => "flit-advance",
        Event::Turn { .. } => "turn",
        Event::Misroute { .. } => "misroute",
        Event::Stall { .. } => "stall",
        Event::Deliver { .. } => "deliver",
        Event::Blame { .. } => "blame",
        Event::Fault { .. } => "fault",
        Event::Drop { .. } => "drop",
        Event::Purge { .. } => "purge",
        Event::CycleEnd => "cycle-end",
        Event::Deadlock(_) => "deadlock",
        Event::Heal(_) => "heal",
        Event::Frame(_) => "frame",
        Event::Alert(_) => "alert",
    }
}

/// Fire one event of every kind at `o`, all at cycle 0, on a 4×4 mesh.
fn one_of_each(o: &mut impl SimObserver) {
    let layout = ChannelLayout::new(16, 2);
    let (packet, at, slot) = (PacketId(3), NodeId(5), 21);
    let snapshot = DeadlockSnapshot {
        now: 0,
        layout,
        edges: Vec::new(),
    };
    let frame = TelemetryFrame {
        seq: 0,
        window_start: 0,
        window_end: 0,
        injected_packets: 1,
        delivered_packets: 1,
        dropped_packets: 1,
        in_flight_packets: 0,
        open_heal_epochs: 0,
        latency: StreamingHistogram::new(),
        channels: Vec::new(),
    };
    let alert = Alert {
        kind: AlertKind::DeliveredSag,
        seq: 0,
        cycle: 0,
        slot: None,
        value: 1,
        threshold: 2,
    };
    #[rustfmt::skip]
    let all = [
        Event::Inject { packet, src: NodeId(0), dst: at, len: 2 },
        Event::FlitSource { slot: layout.inj_base, packet, is_tail: false },
        Event::FlitAdvance { from: layout.inj_base, to: Some(slot), packet, is_tail: false },
        Event::Turn { packet, at, turn: Turn::new(Direction::EAST, Direction::NORTH) },
        Event::Misroute { packet, at, dir: Direction::SOUTH },
        Event::Stall { slot, packet, reason: StallReason::NotRouted },
        Event::Deliver { packet, latency: 9, hops: 3 },
        Event::Blame { packet, blame: PacketBlame { service_cycles: 9, ..PacketBlame::default() } },
        Event::Fault { slot, active: true },
        Event::Drop { packet, unroutable: false },
        Event::Purge { packet },
        Event::CycleEnd,
        Event::Deadlock(&snapshot),
        Event::Heal(HealEvent::TableSwap { epoch: 1 }),
        Event::Frame(&frame),
        Event::Alert(&alert),
    ];
    for ev in &all {
        o.on_event(0, ev);
    }
}

/// Counts what it is handed, by kind.
#[derive(Default, PartialEq, Debug)]
struct Kinds(BTreeMap<&'static str, u32>);

impl SimObserver for Kinds {
    fn on_event(&mut self, _now: u64, ev: &Event<'_>) {
        *self.0.entry(kind(ev)).or_default() += 1;
    }
}

/// Hands on only the listed kinds.
struct Only<O>(&'static [&'static str], O);

impl<O: SimObserver> SimObserver for Only<O> {
    fn on_event(&mut self, now: u64, ev: &Event<'_>) {
        if self.0.contains(&kind(ev)) {
            self.1.on_event(now, ev);
        }
    }
}

#[test]
fn a_tuple_hands_every_kind_to_both_sides() {
    let mut direct = Kinds::default();
    one_of_each(&mut direct);
    assert_eq!(direct.0.len(), 16);
    assert!(direct.0.values().all(|&n| n == 1));

    let mut pair = (Kinds::default(), (NoopObserver, Kinds::default()));
    one_of_each(&mut pair);
    assert_eq!(pair.0, direct);
    assert_eq!(pair.1 .1, direct);
}

#[test]
fn the_driver_side_entry_points_fire_frame_and_alert() {
    let mut seen = Kinds::default();
    struct Entry<'a>(&'a mut Kinds);
    impl SimObserver for Entry<'_> {
        fn on_event(&mut self, now: u64, ev: &Event<'_>) {
            match *ev {
                Event::Frame(frame) => self.0.on_frame(now, frame),
                Event::Alert(alert) => self.0.on_alert(now, alert),
                _ => {}
            }
        }
    }
    one_of_each(&mut Entry(&mut seen));
    assert_eq!(seen.0, BTreeMap::from([("alert", 1), ("frame", 1)]));
}

/// `Telemetry` hands all sixteen kinds to all three collectors. That is
/// the same as handing each collector only the kinds it keeps — the nine
/// the per-hook forwarder used to pick out — because each ignores the rest.
#[test]
fn telemetry_forwarding_everything_equals_forwarding_what_each_collector_keeps() {
    let mesh = Mesh::new_2d(4, 4);
    let mut telemetry = Telemetry::new(&mesh);
    one_of_each(&mut telemetry);

    let fresh = Telemetry::new(&mesh);
    let mut heatmap = Only(&["flit-advance", "stall"], fresh.heatmap);
    let mut census = Only(&["turn"], fresh.census);
    #[rustfmt::skip]
    const TRACED: &[&str] =
        &["inject", "flit-advance", "turn", "misroute", "deliver", "deadlock", "fault", "drop"];
    let mut trace = Only(TRACED, fresh.trace);
    one_of_each(&mut heatmap);
    one_of_each(&mut census);
    one_of_each(&mut trace);
    let (heatmap, census, trace): (ChannelHeatmap, TurnCensus, RingTrace) =
        (heatmap.1, census.1, trace.1);
    assert_eq!((heatmap.total_load(), heatmap.total_stall_cycles()), (1, 1));
    assert_eq!(census.total(), 1);
    assert_eq!(trace.events().count(), 7);
    assert!(trace.snapshot().is_some());
    assert_eq!(telemetry.heatmap, heatmap);
    assert_eq!(telemetry.census, census);
    assert_eq!(telemetry.trace, trace);
}

#[test]
fn a_healing_log_records_fault_and_heal_and_nothing_else() {
    let header = LogHeader {
        engine: "sim".into(),
        topology: "4x4".into(),
        nodes: 16,
        dims: 2,
        routing: "-".into(),
        pattern: "-".into(),
        turns: "-".into(),
        seed: 0,
        config: "-".into(),
        config_hash: 0,
        fault_events: 1,
    };
    let mut log = HealingLog(LogObserver::with_header(&header));
    one_of_each(&mut log);
    let summary = summarize(&log.0.finish()).expect("a valid log");
    assert_eq!(summary.events, 2);
    assert_eq!((summary.count("fault"), summary.count("heal_swap")), (1, 1));
}
