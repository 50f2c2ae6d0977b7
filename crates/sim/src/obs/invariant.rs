//! Invariant sanitizer: a shadow model of channel occupancy that audits
//! the engine's every move.
//!
//! [`InvariantObserver`] maintains its own copy of every channel buffer,
//! fed purely by observer hooks, and cross-checks each event against it:
//!
//! * **flit conservation** — every flit that enters the network (counted
//!   per flit by [`Event::FlitSource`]) is eventually consumed at an
//!   ejection channel, purged by a timeout, or still buffered; the
//!   three-way sum is re-audited at every [`Event::CycleEnd`];
//! * **credit / buffer accounting** — no buffer ever exceeds the
//!   configured depth, and a buffer only ever holds flits of a single
//!   packet (the wormhole ownership invariant);
//! * **no teleport** — a flit can only leave the *front* of the buffer it
//!   actually occupies, in FIFO order, and each channel moves at most one
//!   flit per cycle in each direction (the unit-bandwidth invariant);
//! * **latency blame identity** — every [`Event::Blame`] decomposition
//!   must sum exactly to the delivery's latency, and each component is
//!   re-derived from the raw event stream: the queue share
//!   from the injection stamp, the service + misroute share from distinct
//!   cycles with flit movement, the blocked share as the in-network
//!   remainder.
//!
//! The observer never panics; violations accumulate as human-readable
//! strings so a harness can choose between [`InvariantObserver::is_clean`]
//! for a boolean gate and [`InvariantObserver::assert_clean`] in tests.
//! Because it implements [`SimObserver`], it runs against the engine
//! under either lane adapter (`Sim::with_observer`,
//! `VcSim::with_observer`), and composes with other collectors via the
//! tuple impl.

use std::collections::{HashMap, VecDeque};

use super::{ChannelLayout, Event, PacketBlame, SimObserver};
use crate::PacketId;

/// Cap on recorded violation messages; past this, only the count grows.
const MAX_RECORDED: usize = 64;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ShadowFlit {
    packet: u32,
    is_tail: bool,
}

/// Per-packet state for re-deriving the blame decomposition from raw
/// hooks: when the packet (last) started injecting, the last cycle any of
/// its flits moved, and how many distinct movement cycles it has seen.
#[derive(Debug, Clone, Copy)]
struct BlameShadow {
    injected: u64,
    last_move: u64,
    progress: u64,
}

/// Counters summarizing what the sanitizer audited.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InvariantSummary {
    /// Flits that entered the network from a processor.
    pub sourced_flits: u64,
    /// Flits consumed at an ejection channel.
    pub consumed_flits: u64,
    /// Flits removed by packet purges (timeout retry or drop).
    pub purged_flits: u64,
    /// Flits currently buffered somewhere in the shadow network.
    pub in_flight_flits: u64,
    /// Cycles whose end-of-cycle conservation audit ran.
    pub audited_cycles: u64,
    /// Delivered-packet blame decompositions audited against the raw
    /// hook stream.
    pub blamed_packets: u64,
    /// Total violations detected (recorded messages are capped).
    pub violations: u64,
}

/// Shadow-state sanitizer for the simulation engines; see the module docs
/// for the invariants it enforces.
#[derive(Debug, Clone)]
pub struct InvariantObserver {
    layout: ChannelLayout,
    depth: usize,
    shadow: Vec<VecDeque<ShadowFlit>>,
    /// Cycle stamp of the last flit pushed into / popped from each slot
    /// (`u64::MAX` = never), for the one-flit-per-cycle check.
    last_push: Vec<u64>,
    last_pop: Vec<u64>,
    /// In-flight packets' blame shadows, keyed by packet id; entries are
    /// created at injection and retired at blame audit or purge.
    blame_shadow: HashMap<u32, BlameShadow>,
    /// The most recent delivery `(packet, cycle, latency)`, held for the
    /// immediately following blame decomposition.
    last_deliver: Option<(u32, u64, u64)>,
    summary: InvariantSummary,
    recorded: Vec<String>,
}

impl InvariantObserver {
    /// Sanitizer for an engine with `layout`'s slot numbering and
    /// `buffer_depth`-flit channel buffers.
    ///
    /// For `Sim` pass [`ChannelLayout::for_topology`]; any instantiation
    /// reports its numbering via
    /// [`Engine::channel_layout`](crate::Engine::channel_layout).
    pub fn new(layout: ChannelLayout, buffer_depth: u32) -> InvariantObserver {
        InvariantObserver {
            layout,
            depth: buffer_depth as usize,
            shadow: vec![VecDeque::new(); layout.num_channels],
            last_push: vec![u64::MAX; layout.num_channels],
            last_pop: vec![u64::MAX; layout.num_channels],
            blame_shadow: HashMap::new(),
            last_deliver: None,
            summary: InvariantSummary::default(),
            recorded: Vec::new(),
        }
    }

    /// Whether any invariant has been violated so far.
    pub fn is_clean(&self) -> bool {
        self.summary.violations == 0
    }

    /// The recorded violation messages (capped at a fixed number; the
    /// [`InvariantSummary::violations`] counter is exact).
    pub fn violations(&self) -> &[String] {
        &self.recorded
    }

    /// Audit counters so far.
    pub fn summary(&self) -> InvariantSummary {
        self.summary
    }

    /// Panic with every recorded violation if any invariant failed — the
    /// test-suite form of the gate.
    pub fn assert_clean(&self) {
        assert!(
            self.is_clean(),
            "invariant sanitizer found {} violation(s):\n{}",
            self.summary.violations,
            self.recorded.join("\n")
        );
    }

    fn record(&mut self, msg: String) {
        self.summary.violations += 1;
        if self.recorded.len() < MAX_RECORDED {
            self.recorded.push(msg);
        }
    }

    fn name(&self, slot: usize) -> String {
        self.layout.describe(slot)
    }

    /// Push a flit into `slot`'s shadow buffer, checking depth, single
    /// ownership, and the one-push-per-cycle bandwidth limit.
    fn shadow_push(&mut self, now: u64, slot: usize, flit: ShadowFlit) {
        if slot >= self.shadow.len() {
            self.record(format!("cycle {now}: flit pushed into unknown slot {slot}"));
            return;
        }
        if self.last_push[slot] == now {
            self.record(format!(
                "cycle {now}: two flits entered {} in one cycle (unit bandwidth violated)",
                self.name(slot)
            ));
        }
        self.last_push[slot] = now;
        if self.shadow[slot].len() >= self.depth {
            self.record(format!(
                "cycle {now}: buffer overflow at {}: {} flits buffered, depth {} (credit accounting violated)",
                self.name(slot),
                self.shadow[slot].len(),
                self.depth
            ));
        }
        if let Some(resident) = self.shadow[slot].front() {
            if resident.packet != flit.packet {
                self.record(format!(
                    "cycle {now}: {} holds flits of packet {} but received a flit of packet {} (wormhole ownership violated)",
                    self.name(slot),
                    resident.packet,
                    flit.packet
                ));
            }
        }
        self.shadow[slot].push_back(flit);
    }

    /// Pop the flit of `packet` from the front of `slot`'s shadow buffer,
    /// checking FIFO order and the one-pop-per-cycle bandwidth limit.
    fn shadow_pop(&mut self, now: u64, slot: usize, packet: u32, is_tail: bool) -> bool {
        if slot >= self.shadow.len() {
            self.record(format!("cycle {now}: flit left unknown slot {slot}"));
            return false;
        }
        if self.last_pop[slot] == now {
            self.record(format!(
                "cycle {now}: two flits left {} in one cycle (unit bandwidth violated)",
                self.name(slot)
            ));
        }
        self.last_pop[slot] = now;
        match self.shadow[slot].front().copied() {
            None => {
                self.record(format!(
                    "cycle {now}: flit of packet {packet} left empty buffer {} (teleport)",
                    self.name(slot)
                ));
                false
            }
            Some(front) if front.packet != packet || front.is_tail != is_tail => {
                self.record(format!(
                    "cycle {now}: {} advanced packet {packet} (tail={is_tail}) but its front flit is packet {} (tail={}) (FIFO order violated)",
                    self.name(slot),
                    front.packet,
                    front.is_tail
                ));
                false
            }
            Some(_) => {
                self.shadow[slot].pop_front();
                true
            }
        }
    }

    fn flit_sourced(&mut self, now: u64, slot: usize, packet: PacketId, is_tail: bool) {
        if slot < self.shadow.len() && !self.layout.is_injection(slot) {
            self.record(format!(
                "cycle {now}: packet {} sourced a flit into non-injection slot {}",
                packet.0,
                self.name(slot)
            ));
        }
        self.shadow_push(
            now,
            slot,
            ShadowFlit {
                packet: packet.0,
                is_tail,
            },
        );
        self.summary.sourced_flits += 1;
        self.summary.in_flight_flits += 1;
    }

    fn flit_advanced(&mut self, now: u64, from: usize, to: Option<usize>, p: PacketId, t: bool) {
        if let Some(b) = self.blame_shadow.get_mut(&p.0) {
            if b.last_move != now {
                b.last_move = now;
                b.progress += 1;
            }
        }
        let popped = self.shadow_pop(now, from, p.0, t);
        match to {
            Some(o) => self.shadow_push(
                now,
                o,
                ShadowFlit {
                    packet: p.0,
                    is_tail: t,
                },
            ),
            None => {
                if from < self.shadow.len() && !self.layout.is_ejection(from) {
                    self.record(format!(
                        "cycle {now}: packet {} consumed from non-ejection slot {}",
                        p.0,
                        self.name(from)
                    ));
                }
                self.summary.consumed_flits += 1;
                if popped {
                    self.summary.in_flight_flits -= 1;
                }
            }
        }
    }

    fn audit_blame(&mut self, now: u64, packet: PacketId, blame: PacketBlame) {
        self.summary.blamed_packets += 1;
        let Some((pid, dnow, latency)) = self.last_deliver.take() else {
            self.record(format!(
                "cycle {now}: blame for packet {} without a preceding delivery",
                packet.0
            ));
            return;
        };
        if pid != packet.0 || dnow != now {
            self.record(format!(
                "cycle {now}: blame for packet {} does not match the last delivery \
                 (packet {pid} at cycle {dnow})",
                packet.0
            ));
            return;
        }
        if blame.total() != latency {
            self.record(format!(
                "cycle {now}: blame identity violated for packet {}: components sum to {} \
                 but latency is {latency}",
                packet.0,
                blame.total()
            ));
        }
        // Re-derive each component from the raw hook stream. All checks
        // are phrased as additions so a corrupt decomposition cannot
        // underflow the audit itself.
        let Some(shadow) = self.blame_shadow.remove(&packet.0) else {
            self.record(format!(
                "cycle {now}: blame for packet {} which was never injected",
                packet.0
            ));
            return;
        };
        let network = now.saturating_sub(shadow.injected);
        if blame.queue_cycles + network != latency {
            self.record(format!(
                "cycle {now}: packet {}'s queue share is {} but latency {latency} minus \
                 {network} in-network cycles leaves {}",
                packet.0,
                blame.queue_cycles,
                latency.saturating_sub(network)
            ));
        }
        if blame.service_cycles + blame.misroute_cycles != shadow.progress {
            self.record(format!(
                "cycle {now}: packet {} moved flits on {} distinct cycles but blame claims \
                 {} service + {} misroute",
                packet.0, shadow.progress, blame.service_cycles, blame.misroute_cycles
            ));
        }
        if blame.blocked_cycles + shadow.progress != network {
            self.record(format!(
                "cycle {now}: packet {}'s blocked share is {} but {network} in-network cycles \
                 minus {} movement cycles leaves {}",
                packet.0,
                blame.blocked_cycles,
                shadow.progress,
                network.saturating_sub(shadow.progress)
            ));
        }
    }

    fn purged(&mut self, packet: PacketId) {
        // The engine resets its per-packet blame counters on retry and
        // fires `Inject` again if the packet re-enters; dropping the
        // shadow here mirrors both the retry and the drop path.
        self.blame_shadow.remove(&packet.0);
        let mut removed = 0u64;
        for buf in &mut self.shadow {
            let before = buf.len();
            buf.retain(|f| f.packet != packet.0);
            removed += (before - buf.len()) as u64;
        }
        self.summary.purged_flits += removed;
        self.summary.in_flight_flits -= removed.min(self.summary.in_flight_flits);
    }

    fn audit_cycle(&mut self, now: u64) {
        self.summary.audited_cycles += 1;
        let buffered: u64 = self.shadow.iter().map(|b| b.len() as u64).sum();
        if buffered != self.summary.in_flight_flits {
            self.record(format!(
                "cycle {now}: in-flight counter {} disagrees with {} buffered shadow flits",
                self.summary.in_flight_flits, buffered
            ));
            self.summary.in_flight_flits = buffered;
        }
        let s = self.summary;
        let accounted = s.consumed_flits + s.purged_flits + s.in_flight_flits;
        if s.sourced_flits != accounted {
            self.record(format!(
                "cycle {now}: flit conservation violated: {} sourced but {} accounted \
                 ({} consumed + {} purged + {} in flight)",
                s.sourced_flits, accounted, s.consumed_flits, s.purged_flits, s.in_flight_flits
            ));
        }
    }
}

impl SimObserver for InvariantObserver {
    fn on_event(&mut self, now: u64, ev: &Event<'_>) {
        match *ev {
            // A retry fires this again; overwriting restarts the
            // in-network clock, matching the engine's own counter reset
            // (the failed attempt folds into the queue share).
            Event::Inject { packet, .. } => {
                let fresh = BlameShadow {
                    injected: now,
                    last_move: u64::MAX,
                    progress: 0,
                };
                self.blame_shadow.insert(packet.0, fresh);
            }
            Event::FlitSource {
                slot,
                packet,
                is_tail,
            } => self.flit_sourced(now, slot, packet, is_tail),
            Event::FlitAdvance {
                from,
                to,
                packet,
                is_tail,
            } => self.flit_advanced(now, from, to, packet, is_tail),
            Event::Deliver {
                packet, latency, ..
            } => self.last_deliver = Some((packet.0, now, latency)),
            Event::Blame { packet, blame } => self.audit_blame(now, packet, blame),
            Event::Purge { packet } => self.purged(packet),
            Event::CycleEnd => self.audit_cycle(now),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::fire;
    use super::*;

    fn obs() -> InvariantObserver {
        InvariantObserver::new(ChannelLayout::new(4, 2), 1)
    }

    #[test]
    fn clean_stream_stays_clean() {
        let mut o = obs();
        let l = ChannelLayout::new(4, 2);
        let (inj, ej) = (l.inj_base, l.ej_base);
        // A 2-flit packet: source both flits, advance them to ejection,
        // consume them.
        fire::flit_source(&mut o, 0, inj, 7, false);
        fire::advance(&mut o, 1, inj, Some(ej), 7, false);
        fire::flit_source(&mut o, 1, inj, 7, true);
        fire::advance(&mut o, 2, ej, None, 7, false);
        fire::advance(&mut o, 2, inj, Some(ej), 7, true);
        fire::advance(&mut o, 3, ej, None, 7, true);
        o.on_event(3, &Event::CycleEnd);
        o.assert_clean();
        let s = o.summary();
        assert_eq!(s.sourced_flits, 2);
        assert_eq!(s.consumed_flits, 2);
        assert_eq!(s.in_flight_flits, 0);
    }

    #[test]
    fn teleport_is_flagged() {
        let mut o = obs();
        // Flit leaves a buffer it never entered.
        fire::advance(&mut o, 5, 0, Some(1), 3, false);
        assert!(!o.is_clean());
        assert!(
            o.violations()[0].contains("teleport"),
            "{:?}",
            o.violations()
        );
    }

    #[test]
    fn overflow_and_double_move_are_flagged() {
        let mut o = obs();
        let inj = ChannelLayout::new(4, 2).inj_base;
        fire::flit_source(&mut o, 0, inj, 1, false);
        // Depth is 1: a second resident flit overflows.
        fire::flit_source(&mut o, 1, inj, 1, false);
        assert_eq!(o.summary().violations, 1);
        assert!(o.violations()[0].contains("overflow"));
        // Two pops from one slot in the same cycle violate unit bandwidth.
        fire::advance(&mut o, 2, inj, Some(0), 1, false);
        fire::advance(&mut o, 2, inj, Some(1), 1, false);
        assert!(o.violations().iter().any(|v| v.contains("unit bandwidth")));
    }

    #[test]
    fn conservation_audit_catches_lost_flits() {
        let mut o = obs();
        let inj = ChannelLayout::new(4, 2).inj_base;
        fire::flit_source(&mut o, 0, inj, 1, true);
        // Tamper with the shadow state to simulate an unobserved loss.
        o.shadow[inj].clear();
        o.on_event(0, &Event::CycleEnd);
        assert!(!o.is_clean());
        assert!(o.violations().iter().any(|v| v.contains("conservation")));
    }

    #[test]
    fn consistent_blame_stream_stays_clean() {
        let mut o = obs();
        let l = ChannelLayout::new(4, 2);
        let (inj, ej) = (l.inj_base, l.ej_base);
        // Packet 7, created cycle 0, injected cycle 2, single flit.
        // Moves on cycles 3 (inj -> ej) and 5 (consumed): progress 2,
        // network 3, blocked 1, queue 2, latency 5.
        fire::inject(&mut o, 2, 7, 0, 1, 1);
        fire::flit_source(&mut o, 2, inj, 7, true);
        fire::advance(&mut o, 3, inj, Some(ej), 7, true);
        fire::advance(&mut o, 5, ej, None, 7, true);
        fire::deliver(&mut o, 5, 7, 5, 1);
        fire::blame(
            &mut o,
            5,
            7,
            PacketBlame {
                queue_cycles: 2,
                blocked_cycles: 1,
                service_cycles: 2,
                misroute_cycles: 0,
            },
        );
        o.on_event(5, &Event::CycleEnd);
        o.assert_clean();
        assert_eq!(o.summary().blamed_packets, 1);
    }

    #[test]
    fn inconsistent_blame_is_flagged() {
        let mut o = obs();
        let l = ChannelLayout::new(4, 2);
        let (inj, ej) = (l.inj_base, l.ej_base);
        fire::inject(&mut o, 2, 7, 0, 1, 1);
        fire::flit_source(&mut o, 2, inj, 7, true);
        fire::advance(&mut o, 3, inj, Some(ej), 7, true);
        fire::advance(&mut o, 5, ej, None, 7, true);
        fire::deliver(&mut o, 5, 7, 5, 1);
        // Same totals, but a cycle of blocked time misattributed to
        // service: the movement-derived check must catch it.
        fire::blame(
            &mut o,
            5,
            7,
            PacketBlame {
                queue_cycles: 2,
                blocked_cycles: 0,
                service_cycles: 3,
                misroute_cycles: 0,
            },
        );
        assert!(!o.is_clean());
        assert!(
            o.violations().iter().any(|v| v.contains("moved flits")),
            "{:?}",
            o.violations()
        );
        // And a decomposition that does not even sum to the latency.
        let mut o = obs();
        fire::inject(&mut o, 0, 1, 0, 1, 1);
        fire::deliver(&mut o, 4, 1, 4, 1);
        fire::blame(&mut o, 4, 1, PacketBlame::default());
        assert!(o
            .violations()
            .iter()
            .any(|v| v.contains("blame identity violated")));
    }

    #[test]
    fn purge_reconciles_shadow_state() {
        let mut o = obs();
        let inj = ChannelLayout::new(4, 2).inj_base;
        fire::flit_source(&mut o, 0, inj, 9, false);
        o.on_event(
            1,
            &Event::Purge {
                packet: PacketId(9),
            },
        );
        o.on_event(1, &Event::CycleEnd);
        o.assert_clean();
        assert_eq!(o.summary().purged_flits, 1);
        assert_eq!(o.summary().in_flight_flits, 0);
    }
}
