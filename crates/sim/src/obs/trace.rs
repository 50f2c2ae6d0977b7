//! Bounded event trace with deadlock postmortems.

use super::{DeadlockSnapshot, Event, SimObserver};
use std::collections::VecDeque;

/// One traced event as a JSON object (one JSONL line).
fn to_json(now: u64, ev: &Event<'_>) -> String {
    match *ev {
        Event::Inject { packet, src, dst, len } => format!(
            "{{\"event\":\"inject\",\"cycle\":{now},\"packet\":{},\"src\":{},\"dst\":{},\"len\":{len}}}",
            packet.0, src.0, dst.0
        ),
        Event::FlitAdvance { from, to, packet, is_tail } => format!(
            "{{\"event\":\"advance\",\"cycle\":{now},\"packet\":{},\"from\":{from},\"to\":{},\"is_tail\":{is_tail}}}",
            packet.0,
            match to {
                Some(t) => t.to_string(),
                None => "null".into(),
            }
        ),
        Event::Turn { packet, at, turn } => format!(
            "{{\"event\":\"turn\",\"cycle\":{now},\"packet\":{},\"at\":{},\"turn\":{}}}",
            packet.0,
            at.0,
            super::json::string(&turn.to_string())
        ),
        Event::Misroute { packet, at, dir } => format!(
            "{{\"event\":\"misroute\",\"cycle\":{now},\"packet\":{},\"at\":{},\"dir\":{}}}",
            packet.0,
            at.0,
            super::json::string(&dir.to_string())
        ),
        Event::Deliver { packet, latency, hops } => format!(
            "{{\"event\":\"deliver\",\"cycle\":{now},\"packet\":{},\"latency\":{latency},\"hops\":{hops}}}",
            packet.0
        ),
        Event::Fault { slot, active } => format!(
            "{{\"event\":\"fault\",\"cycle\":{now},\"slot\":{slot},\"active\":{active}}}"
        ),
        Event::Drop { packet, unroutable } => format!(
            "{{\"event\":\"drop\",\"cycle\":{now},\"packet\":{},\"unroutable\":{unroutable}}}",
            packet.0
        ),
        _ => unreachable!("the ring keeps only the seven kinds above"),
    }
}

/// Keeps the last `capacity` events in a ring buffer; when the engine
/// detects deadlock the snapshot is captured, and
/// [`RingTrace::postmortem_jsonl`] renders the whole story — the final
/// events leading in, then the frozen waits-for graph — as JSONL.
///
/// Seven kinds are traced: inject, flit-advance, turn, misroute, deliver,
/// fault and drop.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RingTrace {
    capacity: usize,
    events: VecDeque<(u64, Event<'static>)>,
    dropped: u64,
    snapshot: Option<DeadlockSnapshot>,
}

impl RingTrace {
    /// A trace keeping the last `capacity` events (at least 1).
    pub fn new(capacity: usize) -> RingTrace {
        let capacity = capacity.max(1);
        RingTrace {
            capacity,
            events: VecDeque::with_capacity(capacity),
            dropped: 0,
            snapshot: None,
        }
    }

    /// The buffered `(cycle, event)` pairs, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &(u64, Event<'static>)> {
        self.events.iter()
    }

    /// Events that fell out of the ring.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The deadlock snapshot, if the run deadlocked.
    pub fn snapshot(&self) -> Option<&DeadlockSnapshot> {
        self.snapshot.as_ref()
    }

    /// The postmortem as JSONL: a header line, the last events oldest
    /// first, and the deadlock snapshot (when one was captured) last.
    /// Every line is one JSON object.
    pub fn postmortem_jsonl(&self) -> String {
        let mut out = format!(
            "{{\"event\":\"trace_header\",\"events\":{},\"dropped\":{},\"deadlocked\":{}}}\n",
            self.events.len(),
            self.dropped,
            self.snapshot.is_some()
        );
        for (now, e) in &self.events {
            out.push_str(&to_json(*now, e));
            out.push('\n');
        }
        if let Some(snap) = &self.snapshot {
            out.push_str(&snap.to_json());
            out.push('\n');
        }
        out
    }
}

impl SimObserver for RingTrace {
    fn on_event(&mut self, now: u64, ev: &Event<'_>) {
        // The traced kinds borrow nothing, so each is rebuilt as an
        // `Event<'static>` the ring can own.
        let kept = match *ev {
            Event::Inject {
                packet,
                src,
                dst,
                len,
            } => Event::Inject {
                packet,
                src,
                dst,
                len,
            },
            Event::FlitAdvance {
                from,
                to,
                packet,
                is_tail,
            } => Event::FlitAdvance {
                from,
                to,
                packet,
                is_tail,
            },
            Event::Turn { packet, at, turn } => Event::Turn { packet, at, turn },
            Event::Misroute { packet, at, dir } => Event::Misroute { packet, at, dir },
            Event::Deliver {
                packet,
                latency,
                hops,
            } => Event::Deliver {
                packet,
                latency,
                hops,
            },
            Event::Fault { slot, active } => Event::Fault { slot, active },
            Event::Drop { packet, unroutable } => Event::Drop { packet, unroutable },
            Event::Deadlock(snapshot) => {
                self.snapshot = Some(snapshot.clone());
                return;
            }
            _ => return,
        };
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back((now, kept));
    }
}

#[cfg(test)]
mod tests {
    use super::super::{fire, ChannelLayout, WaitEdge};
    use super::*;
    use crate::PacketId;
    use turnroute_model::Turn;
    use turnroute_topology::{Direction, NodeId};

    /// The packets of the buffered deliveries, oldest first.
    fn delivered(t: &RingTrace) -> Vec<u32> {
        t.events()
            .map(|(_, e)| match e {
                Event::Deliver { packet, .. } => packet.0,
                other => panic!("unexpected {other:?}"),
            })
            .collect()
    }

    #[test]
    fn ring_is_bounded_and_drops_oldest() {
        let mut t = RingTrace::new(3);
        for i in 0..5u32 {
            fire::deliver(&mut t, u64::from(i), i, 10 + u64::from(i), 2);
        }
        assert_eq!(t.dropped(), 2);
        assert_eq!(delivered(&t), [2, 3, 4]);
    }

    #[test]
    fn ring_at_exactly_capacity_drops_nothing() {
        let mut t = RingTrace::new(4);
        for i in 0..4u32 {
            fire::deliver(&mut t, u64::from(i), i, u64::from(i), 1);
        }
        // Full to the brim: nothing dropped yet, all four retained in order.
        assert_eq!(t.dropped(), 0);
        assert_eq!(delivered(&t), [0, 1, 2, 3]);
        // One past capacity evicts exactly the oldest.
        fire::deliver(&mut t, 4, 4, 4, 1);
        assert_eq!(t.dropped(), 1);
        assert_eq!(delivered(&t), [1, 2, 3, 4]);
        // The postmortem header reflects the boundary crossing.
        assert!(t
            .postmortem_jsonl()
            .starts_with("{\"event\":\"trace_header\",\"events\":4,\"dropped\":1,"));
    }

    #[test]
    fn fault_and_drop_events_are_json() {
        let mut t = RingTrace::new(8);
        let (slot, packet) = (12, PacketId(4));
        t.on_event(5, &Event::Fault { slot, active: true });
        t.on_event(
            9,
            &Event::Fault {
                slot,
                active: false,
            },
        );
        let unroutable = true;
        t.on_event(11, &Event::Drop { packet, unroutable });
        assert_eq!(t.events().count(), 3);
        let dump = t.postmortem_jsonl();
        for line in dump.lines() {
            assert!(crate::obs::json::validate(line), "bad JSON: {line}");
        }
        assert!(dump.ends_with(
            "{\"event\":\"fault\",\"cycle\":9,\"slot\":12,\"active\":false}\n\
             {\"event\":\"drop\",\"cycle\":11,\"packet\":4,\"unroutable\":true}\n"
        ));
    }

    #[test]
    fn untraced_kinds_stay_out_of_the_ring() {
        let mut t = RingTrace::new(8);
        fire::flit_source(&mut t, 0, 16, 0, true);
        fire::stall(&mut t, 1, 3, 0, crate::obs::StallReason::NotRouted);
        fire::blame(&mut t, 2, 0, crate::obs::PacketBlame::default());
        t.on_event(
            2,
            &Event::Purge {
                packet: PacketId(0),
            },
        );
        fire::cycle_ends(&mut t, 0..3);
        assert_eq!((t.events().count(), t.dropped()), (0, 0));
        // What is left renders: the header line alone.
        assert_eq!(t.postmortem_jsonl().lines().count(), 1);
    }

    #[test]
    fn postmortem_lines_are_json() {
        let mut t = RingTrace::new(16);
        let (packet, at) = (PacketId(0), NodeId(1));
        fire::inject(&mut t, 0, 0, 0, 3, 4);
        fire::turn(&mut t, 2, 0, Direction::EAST, Direction::NORTH);
        let dir = Direction::SOUTH;
        t.on_event(3, &Event::Misroute { packet, at, dir });
        fire::advance(&mut t, 3, 0, Some(4), 0, false);
        fire::advance(&mut t, 4, 4, None, 0, true);
        fire::deliver(&mut t, 4, 0, 9, 2);
        let snap = DeadlockSnapshot {
            now: 7,
            layout: ChannelLayout::new(4, 2),
            edges: vec![WaitEdge {
                channel: 1,
                packet: 0,
                buffered: 1,
                head_waiting: true,
                waits_for: None,
            }],
        };
        t.on_event(7, &Event::Deadlock(&snap));
        let dump = t.postmortem_jsonl();
        let lines: Vec<&str> = dump.lines().collect();
        // header + 6 events + snapshot
        assert_eq!(lines.len(), 8);
        for line in &lines {
            assert!(crate::obs::json::validate(line), "bad JSON line: {line}");
        }
        assert!(lines[0].contains("\"deadlocked\":true"));
        let turn = Turn::new(Direction::EAST, Direction::NORTH);
        assert_eq!(
            lines[2],
            format!("{{\"event\":\"turn\",\"cycle\":2,\"packet\":0,\"at\":0,\"turn\":\"{turn}\"}}")
        );
        assert_eq!(
            lines[5],
            "{\"event\":\"advance\",\"cycle\":4,\"packet\":0,\"from\":4,\"to\":null,\"is_tail\":true}"
        );
        assert!(lines[7].contains("deadlock_snapshot"));
    }
}
