//! Windowed telemetry frames: the streaming observability unit.
//!
//! A [`FrameCollector`] rides a run (or a replay) and, every `cadence`
//! cycles, seals a [`TelemetryFrame`] — a self-contained snapshot of what
//! the window saw: per-channel utilization and blocked-cycle counts, the
//! in-flight packet census, injected/delivered/dropped deltas, a latency
//! quantile sketch, and the number of open healing epochs.
//!
//! The collector derives *everything* from observer hooks — never from
//! engine internals — so replaying a recorded log through a fresh
//! collector seals frames identical to the ones sealed live. That is the
//! byte-identity contract `turnstat frames --check` and the CI turnscope
//! gate enforce, and it is what makes frames a safe streaming contract:
//! a consumer of the frame stream (a dashboard, a detector bank, a future
//! daemon client) can be re-driven offline from the log and must land in
//! the same state.

use super::hist::StreamingHistogram;
use super::{Event, HealEvent, SimObserver};
use crate::lanes::MAX_LANES_PER_LINK;

/// One channel's activity inside a single frame window. Frames carry
/// only channels with non-zero activity, keyed by slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChannelWindow {
    /// Channel slot (engine numbering, see
    /// [`super::ChannelLayout`]).
    pub slot: usize,
    /// Flits that entered this channel's buffer during the window.
    pub util: u64,
    /// Cycles this channel was occupied but advanced nothing.
    pub blocked: u64,
}

/// A sealed telemetry window: everything one frame of the stream says.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TelemetryFrame {
    /// Frame sequence number, 0-based from the start of the run.
    pub seq: u64,
    /// First cycle the window covers.
    pub window_start: u64,
    /// Last cycle the window covers (inclusive).
    pub window_end: u64,
    /// Packets that started streaming into the network this window.
    pub injected_packets: u64,
    /// Packets whose tail was consumed this window.
    pub delivered_packets: u64,
    /// Packets dropped this window (lifetime/retry exhaustion).
    pub dropped_packets: u64,
    /// Packets in flight at seal time (injected − delivered − purged,
    /// over the whole run).
    pub in_flight_packets: u64,
    /// Healing epochs open at seal time (epoch opens minus table swaps).
    pub open_heal_epochs: u64,
    /// Latency sketch of this window's deliveries.
    pub latency: StreamingHistogram,
    /// Per-channel activity, slot-ordered, non-zero entries only.
    pub channels: Vec<ChannelWindow>,
}

impl TelemetryFrame {
    /// Window length in cycles.
    pub fn window_len(&self) -> u64 {
        self.window_end - self.window_start + 1
    }

    /// Total blocked-cycle mass across all channels this window — the
    /// congestion pressure signal the slope detector watches.
    pub fn blocked_mass(&self) -> u64 {
        self.channels.iter().map(|c| c.blocked).sum()
    }

    /// Total channel-buffer entries this window.
    pub fn util_mass(&self) -> u64 {
        self.channels.iter().map(|c| c.util).sum()
    }

    /// The frame as one JSON object (used for the `turnstat frames`
    /// JSON-lines export).
    pub fn to_json(&self) -> String {
        let mut channels = String::new();
        for (i, c) in self.channels.iter().enumerate() {
            if i > 0 {
                channels.push(',');
            }
            channels.push_str(&format!(
                "{{\"slot\":{},\"util\":{},\"blocked\":{}}}",
                c.slot, c.util, c.blocked
            ));
        }
        format!(
            "{{\"seq\":{},\"window_start\":{},\"window_end\":{},\
             \"injected_packets\":{},\"delivered_packets\":{},\
             \"dropped_packets\":{},\"in_flight_packets\":{},\
             \"open_heal_epochs\":{},\"blocked_mass\":{},\
             \"latency\":{},\"channels\":[{}]}}",
            self.seq,
            self.window_start,
            self.window_end,
            self.injected_packets,
            self.delivered_packets,
            self.dropped_packets,
            self.in_flight_packets,
            self.open_heal_epochs,
            self.blocked_mass(),
            self.latency.to_json(),
            channels
        )
    }
}

/// Observer that seals a [`TelemetryFrame`] every `cadence` cycles.
///
/// Purely hook-derived, so it can ride a live run *or* be re-driven from
/// a recorded log and seal identical frames. Sealed frames accumulate in
/// order; drain them with [`FrameCollector::take_frames`] or inspect via
/// [`FrameCollector::frames`].
#[derive(Debug, Clone)]
pub struct FrameCollector {
    cadence: u64,
    num_channels: usize,
    /// Growth stops here; activity on slots past it is not counted.
    max_channels: usize,
    // Window-local state, reset at each seal.
    util: Vec<u64>,
    blocked: Vec<u64>,
    injected: u64,
    delivered: u64,
    dropped: u64,
    latency: StreamingHistogram,
    // Run-global state carried across windows.
    in_flight: u64,
    open_epochs: u64,
    seq: u64,
    window_start: u64,
    frames: Vec<TelemetryFrame>,
}

impl FrameCollector {
    /// A collector sealing one frame per `cadence` cycles over
    /// `num_channels` slots — the single-lane layout's count; it grows on
    /// demand up to [`MAX_LANES_PER_LINK`] times that, which covers every
    /// lane adapter over the same network.
    ///
    /// # Panics
    ///
    /// Panics if `cadence` is zero.
    pub fn new(num_channels: usize, cadence: u64) -> FrameCollector {
        assert!(cadence > 0, "frame cadence must be positive");
        FrameCollector {
            cadence,
            num_channels,
            max_channels: num_channels.saturating_mul(MAX_LANES_PER_LINK),
            util: vec![0; num_channels],
            blocked: vec![0; num_channels],
            injected: 0,
            delivered: 0,
            dropped: 0,
            latency: StreamingHistogram::new(),
            in_flight: 0,
            open_epochs: 0,
            seq: 0,
            window_start: 0,
            frames: Vec::new(),
        }
    }

    /// The sealing cadence in cycles.
    pub fn cadence(&self) -> u64 {
        self.cadence
    }

    /// Frames sealed so far, in order.
    pub fn frames(&self) -> &[TelemetryFrame] {
        &self.frames
    }

    /// Drain the sealed frames, leaving the collector running.
    pub fn take_frames(&mut self) -> Vec<TelemetryFrame> {
        std::mem::take(&mut self.frames)
    }

    /// Whether `slot` is countable, growing to cover it if need be:
    /// engines with extra virtual-channel slots exceed the layout-derived
    /// pre-size. Growth is `#[cold]` so the hot path stays a bounds check
    /// plus an increment; active slots are found by a full sweep at seal
    /// time, which is amortized to nothing at realistic cadences.
    #[inline]
    fn covers(&mut self, slot: usize) -> bool {
        slot < self.num_channels || self.grow(slot)
    }

    #[cold]
    fn grow(&mut self, slot: usize) -> bool {
        if slot >= self.max_channels {
            return false;
        }
        self.num_channels = slot + 1;
        self.util.resize(self.num_channels, 0);
        self.blocked.resize(self.num_channels, 0);
        true
    }

    fn seal(&mut self, window_end: u64) {
        let channels = (0..self.num_channels)
            .filter(|&slot| self.util[slot] != 0 || self.blocked[slot] != 0)
            .map(|slot| ChannelWindow {
                slot,
                util: self.util[slot],
                blocked: self.blocked[slot],
            })
            .collect();
        self.frames.push(TelemetryFrame {
            seq: self.seq,
            window_start: self.window_start,
            window_end,
            injected_packets: self.injected,
            delivered_packets: self.delivered,
            dropped_packets: self.dropped,
            in_flight_packets: self.in_flight,
            open_heal_epochs: self.open_epochs,
            latency: std::mem::take(&mut self.latency),
            channels,
        });
        self.util.fill(0);
        self.blocked.fill(0);
        self.injected = 0;
        self.delivered = 0;
        self.dropped = 0;
        self.seq += 1;
        self.window_start = window_end + 1;
    }
}

impl SimObserver for FrameCollector {
    #[inline]
    fn on_event(&mut self, now: u64, ev: &Event<'_>) {
        match *ev {
            Event::Inject { .. } => {
                self.injected += 1;
                self.in_flight += 1;
            }
            Event::FlitAdvance { to: Some(to), .. } if self.covers(to) => self.util[to] += 1,
            Event::Stall { slot, .. } if self.covers(slot) => self.blocked[slot] += 1,
            Event::Deliver { latency, .. } => {
                self.delivered += 1;
                self.in_flight = self.in_flight.saturating_sub(1);
                self.latency.record(latency);
            }
            Event::Drop { .. } => self.dropped += 1,
            Event::Purge { .. } => self.in_flight = self.in_flight.saturating_sub(1),
            Event::Heal(HealEvent::EpochOpen { .. }) => self.open_epochs += 1,
            Event::Heal(HealEvent::TableSwap { .. }) => {
                self.open_epochs = self.open_epochs.saturating_sub(1);
            }
            Event::CycleEnd if now % self.cadence == self.cadence - 1 => self.seal(now),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::fire;
    use super::*;
    use crate::obs::json;

    #[test]
    fn collector_seals_on_cadence_and_resets_window_state() {
        let mut c = FrameCollector::new(8, 10);
        // Window 0: one injection, one flit into slot 3, one stall on 5.
        fire::inject(&mut c, 2, 0, 0, 1, 10);
        fire::advance(&mut c, 3, 0, Some(3), 0, false);
        fire::stall(&mut c, 4, 5, 0, crate::obs::StallReason::Backpressure);
        fire::cycle_ends(&mut c, 0..10);
        // Window 1: a delivery only.
        fire::deliver(&mut c, 12, 0, 10, 2);
        fire::cycle_ends(&mut c, 10..20);
        let frames = c.take_frames();
        assert_eq!(frames.len(), 2);
        let f0 = &frames[0];
        assert_eq!((f0.seq, f0.window_start, f0.window_end), (0, 0, 9));
        assert_eq!(f0.injected_packets, 1);
        assert_eq!(f0.in_flight_packets, 1);
        assert_eq!(f0.channels.len(), 2);
        assert_eq!(
            f0.channels[0],
            ChannelWindow {
                slot: 3,
                util: 1,
                blocked: 0
            }
        );
        assert_eq!(
            f0.channels[1],
            ChannelWindow {
                slot: 5,
                util: 0,
                blocked: 1
            }
        );
        assert_eq!(f0.blocked_mass(), 1);
        assert_eq!(f0.util_mass(), 1);
        assert_eq!(f0.window_len(), 10);
        let f1 = &frames[1];
        assert_eq!((f1.seq, f1.window_start, f1.window_end), (1, 10, 19));
        assert_eq!(f1.injected_packets, 0, "window counters reset");
        assert_eq!(f1.delivered_packets, 1);
        assert_eq!(f1.in_flight_packets, 0);
        assert!(f1.channels.is_empty());
        assert_eq!(f1.latency.count(), 1);
        assert!(json::validate(&f0.to_json()), "{}", f0.to_json());
        assert!(json::validate(&f1.to_json()), "{}", f1.to_json());
    }

    #[test]
    fn heal_epochs_track_opens_and_swaps() {
        let mut c = FrameCollector::new(4, 5);
        let open = HealEvent::EpochOpen {
            epoch: 1,
            transitions: 1,
        };
        c.on_event(0, &Event::Heal(open));
        fire::cycle_ends(&mut c, 0..5);
        assert_eq!(c.frames()[0].open_heal_epochs, 1);
        c.on_event(6, &Event::Heal(HealEvent::TableSwap { epoch: 1 }));
        fire::cycle_ends(&mut c, 5..10);
        assert_eq!(c.frames()[1].open_heal_epochs, 0);
    }

    #[test]
    fn growth_covers_every_lane_adapter_and_nothing_beyond() {
        // Pre-sized for 8 slots: growth reaches 8 * MAX_LANES_PER_LINK
        // slots and not one further, whatever slot an event names.
        let mut c = FrameCollector::new(8, 10);
        let last = 8 * MAX_LANES_PER_LINK - 1;
        fire::stall(&mut c, 0, last, 0, crate::obs::StallReason::NotRouted);
        fire::advance(&mut c, 0, 0, Some(last + 1), 0, false);
        fire::stall(&mut c, 0, 1 << 50, 0, crate::obs::StallReason::NotRouted);
        fire::cycle_ends(&mut c, 0..10);
        let slots: Vec<usize> = c.frames()[0].channels.iter().map(|w| w.slot).collect();
        assert_eq!(slots, [last]);
    }

    #[test]
    #[should_panic(expected = "cadence")]
    fn zero_cadence_is_rejected() {
        let _ = FrameCollector::new(4, 0);
    }
}
