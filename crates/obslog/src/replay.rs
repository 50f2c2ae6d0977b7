//! Replay: re-drive any observer stack from a recorded log, without
//! re-simulating.
//!
//! The reader validates the framing before dispatching a single event —
//! magic, version, header shape, the trailing FNV-1a-64 checksum — and,
//! while walking, every tag and every operand ([`crate::codec::decode`]).
//! A log that fails any check is rejected with a [`LogError`]: truncation
//! and bit flips cannot silently produce plausible-but-wrong aggregates,
//! and a well-checksummed log of hostile operands cannot crash a
//! collector.
//!
//! # Trust boundary
//!
//! A log is *evidence about a run*, not the run itself: replay reproduces
//! exactly what the recording observer saw (the hook stream), nothing
//! more. Anything an observer can compute — histograms, heatmaps, turn
//! censuses, counters — replays bit-identically; engine internals that
//! never crossed a hook (queue contents, RNG state) are not in the log and
//! cannot be reconstructed from it. `turnstat verify` checks integrity
//! and determinism; it does not prove the recorder was honest about the
//! simulation — trust in the log is trust in whoever recorded it.

use crate::codec::{self, tag, Reader, KINDS};
use crate::log::{fnv1a64, LogHeader, MAGIC, VERSION};
use turnroute_sim::obs::Event;
use turnroute_sim::{NoopObserver, SimObserver};

/// Why a byte stream was rejected as a log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LogError {
    /// The stream does not start with the `TTRL` magic.
    BadMagic,
    /// The format version is one this reader does not understand.
    BadVersion(u16),
    /// The stream ends before its framing says it should.
    Truncated,
    /// The trailing FNV-1a-64 checksum does not match the stream.
    ChecksumMismatch,
    /// The header text is malformed.
    BadHeader(String),
    /// An unknown event tag was encountered.
    BadTag {
        /// Byte offset of the offending tag.
        offset: usize,
        /// The tag byte found there.
        tag: u8,
    },
    /// The trailer's event count disagrees with the events present.
    EventCountMismatch {
        /// Count declared in the trailer.
        declared: u64,
        /// Events actually decoded.
        actual: u64,
    },
    /// Bytes remain after the checksum.
    TrailingData,
    /// An operand is outside the range its field, or the header's
    /// network, allows.
    OutOfRange {
        /// Byte offset of the offending operand.
        offset: usize,
        /// Which operand it is.
        field: &'static str,
        /// The value found there.
        value: u64,
    },
    /// An embedded telemetry frame failed strict decoding (its declared
    /// payload length disagrees with its content, or its schema version
    /// is unknown).
    BadFrame {
        /// Byte offset of the frame event's tag.
        offset: usize,
        /// What the frame decoder objected to.
        why: String,
    },
}

impl std::fmt::Display for LogError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LogError::BadMagic => write!(f, "not a turntrace log (bad magic)"),
            LogError::BadVersion(v) => write!(f, "unsupported log version {v}"),
            LogError::Truncated => write!(f, "log is truncated"),
            LogError::ChecksumMismatch => write!(f, "checksum mismatch (log is corrupt)"),
            LogError::BadHeader(why) => write!(f, "malformed header: {why}"),
            LogError::BadTag { offset, tag } => {
                write!(f, "unknown event tag {tag} at byte {offset}")
            }
            LogError::EventCountMismatch { declared, actual } => write!(
                f,
                "event count mismatch: trailer declares {declared}, found {actual}"
            ),
            LogError::TrailingData => write!(f, "trailing bytes after checksum"),
            LogError::OutOfRange {
                offset,
                field,
                value,
            } => write!(f, "{field} {value} out of range at byte {offset}"),
            LogError::BadFrame { offset, why } => {
                write!(f, "bad telemetry frame at byte {offset}: {why}")
            }
        }
    }
}

impl std::error::Error for LogError {}

/// What a walk over a log established.
#[derive(Debug, Clone)]
pub struct LogSummary {
    /// The parsed header.
    pub header: LogHeader,
    /// Total events decoded (cycle advances included).
    pub events: u64,
    /// Final value of the cycle clock.
    pub cycles: u64,
    /// Total stream length in bytes.
    pub bytes: usize,
    /// Per-event-kind counts, in tag order.
    pub counts: Vec<(&'static str, u64)>,
}

impl LogSummary {
    /// The count for one event kind (0 if absent).
    pub fn count(&self, kind: &str) -> u64 {
        self.counts
            .iter()
            .find(|(k, _)| *k == kind)
            .map_or(0, |&(_, n)| n)
    }

    /// Human-readable multi-line rendering.
    pub fn render(&self) -> String {
        let h = &self.header;
        let mut out = format!(
            "turntrace log v{VERSION}: {} bytes, {} events, {} cycles\n\
             engine={} topology={} nodes={} dims={}\n\
             routing={} pattern={} seed={}\n\
             turns={}\n\
             config_hash={:016x} fault_events={}\n",
            self.bytes,
            self.events,
            self.cycles,
            h.engine,
            h.topology,
            h.nodes,
            h.dims,
            h.routing,
            h.pattern,
            h.seed,
            h.turns,
            h.config_hash,
            h.fault_events,
        );
        for (kind, n) in &self.counts {
            if *n > 0 {
                out.push_str(&format!("  {kind:>13} {n}\n"));
            }
        }
        out
    }
}

/// Validate framing and checksum and parse the header, returning the
/// header and the byte range holding the event stream (trailer excluded).
fn parse_frame(bytes: &[u8]) -> Result<(LogHeader, usize), LogError> {
    if bytes.len() < MAGIC.len() + 2 + 4 {
        return Err(
            if bytes.starts_with(&MAGIC) || MAGIC.starts_with(&bytes[..bytes.len().min(4)]) {
                LogError::Truncated
            } else {
                LogError::BadMagic
            },
        );
    }
    if bytes[..4] != MAGIC {
        return Err(LogError::BadMagic);
    }
    let version = u16::from_le_bytes([bytes[4], bytes[5]]);
    if version != VERSION {
        return Err(LogError::BadVersion(version));
    }
    // Checksum first: it covers everything up to itself, so any damage —
    // header or body — surfaces as one unambiguous error.
    if bytes.len() < 10 + 8 {
        return Err(LogError::Truncated);
    }
    let body_end = bytes.len() - 8;
    let declared = u64::from_le_bytes(bytes[body_end..].try_into().expect("8 bytes"));
    if fnv1a64(&bytes[..body_end]) != declared {
        return Err(LogError::ChecksumMismatch);
    }
    let header_len = u32::from_le_bytes(bytes[6..10].try_into().expect("4 bytes")) as usize;
    let events_at = 10 + header_len;
    if events_at > body_end {
        return Err(LogError::Truncated);
    }
    let text = std::str::from_utf8(&bytes[10..events_at])
        .map_err(|_| LogError::BadHeader("header is not UTF-8".to_string()))?;
    let header = LogHeader::parse(text).map_err(LogError::BadHeader)?;
    Ok((header, events_at))
}

/// Walk a validated log and hand every recorded event to `obs`.
///
/// Events are dispatched exactly as the engine originally fired them, so
/// any [`SimObserver`] that derives its state purely from events (the
/// [`crate::ReplayableAggregates`] stack, a heatmap, a census…) ends up in
/// the same state it would have reached riding the live run.
pub fn replay<O: SimObserver>(bytes: &[u8], obs: &mut O) -> Result<LogSummary, LogError> {
    replay_bounded(bytes, obs, 0, u64::MAX)
}

/// [`replay`] restricted to the cycle window `[from, to]` (inclusive).
///
/// The *whole* stream is still parsed and validated — framing, checksum,
/// every tag and operand, the trailer count — but events are dispatched,
/// and counted in the summary, only for cycles inside the window. This
/// backs `turnstat summarize --from/--to`: integrity is never windowed,
/// only attention.
pub fn replay_bounded<O: SimObserver>(
    bytes: &[u8],
    obs: &mut O,
    from: u64,
    to: u64,
) -> Result<LogSummary, LogError> {
    walk(bytes, from, to, |_, now, ev| obs.on_event(now, ev))
}

/// Byte offsets of every `Frame` event's tag in a valid log, in stream
/// order. Used by the `turnstat frames --inject-bad` self-test to tamper
/// with a frame's declared payload length precisely.
pub fn frame_offsets(bytes: &[u8]) -> Result<Vec<usize>, LogError> {
    let mut offsets = Vec::new();
    walk(bytes, 0, u64::MAX, |at, _, ev| {
        if matches!(ev, Event::Frame(_)) {
            offsets.push(at);
        }
    })?;
    Ok(offsets)
}

/// Validate the whole of `bytes` and call `visit(tag offset, cycle,
/// event)` for every event at a cycle in `[from, to]`.
fn walk(
    bytes: &[u8],
    from: u64,
    to: u64,
    mut visit: impl FnMut(usize, u64, &Event<'_>),
) -> Result<LogSummary, LogError> {
    let (header, events_at) = parse_frame(bytes)?;
    let mut r = Reader::new(&bytes[..bytes.len() - 8], events_at, &header)?;
    let mut total = 0u64;
    let mut counts = [0u64; KINDS.len()];
    loop {
        let at = r.pos();
        let t = r.u8()?;
        if t == tag::END {
            let declared = r.varint()?;
            if declared != total {
                return Err(LogError::EventCountMismatch {
                    declared,
                    actual: total,
                });
            }
            if !r.at_end() {
                return Err(LogError::TrailingData);
            }
            break;
        }
        total += 1;
        if t == tag::CYCLE_ADVANCE {
            r.advance_clock()?;
        }
        let now = r.now();
        let in_bounds = now >= from && now <= to;
        if t != tag::CYCLE_ADVANCE {
            let ev = codec::decode(&mut r, t)?;
            if in_bounds {
                visit(at, now, &ev);
            }
        }
        counts[usize::from(t)] += u64::from(in_bounds);
    }
    Ok(LogSummary {
        events: counts.iter().sum(),
        cycles: r.now(),
        bytes: bytes.len(),
        counts: KINDS[1..]
            .iter()
            .map(|&(t, name, _)| (name, counts[usize::from(t)]))
            .collect(),
        header,
    })
}

/// Walk a log without driving any observer; returns the summary.
pub fn summarize(bytes: &[u8]) -> Result<LogSummary, LogError> {
    replay(bytes, &mut NoopObserver)
}

/// Full integrity check: framing, checksum, header, and a complete walk of
/// every event. Alias of [`summarize`] — validation *is* the walk.
pub fn verify_bytes(bytes: &[u8]) -> Result<LogSummary, LogError> {
    summarize(bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::LogObserver;
    use turnroute_routing::{mesh2d, RoutingMode};
    use turnroute_sim::{Sim, SimConfig};
    use turnroute_topology::Mesh;
    use turnroute_traffic::Uniform;

    fn record(seed: u64) -> Vec<u8> {
        let mesh = Mesh::new_2d(4, 4);
        let routing = mesh2d::west_first(RoutingMode::Minimal);
        let pattern = Uniform::new();
        let cfg = SimConfig::builder()
            .injection_rate(0.05)
            .seed(seed)
            .warmup_cycles(50)
            .measure_cycles(200)
            .drain_cycles(200)
            .build();
        let log = LogObserver::start(&mesh, &routing, &pattern, &cfg, "sim");
        let mut sim = Sim::with_observer(&mesh, &routing, &pattern, cfg, log);
        sim.run();
        sim.into_observer().finish()
    }

    #[test]
    fn recorded_log_verifies_and_summarizes() {
        let bytes = record(11);
        let s = verify_bytes(&bytes).expect("valid log");
        assert_eq!(s.header.seed, 11);
        assert!(s.count("inject") > 0);
        assert!(s.count("deliver") > 0);
        assert!(s.count("cycle_end") > 0);
        // 50 + 200 + 200 cycles, numbered 0..=449.
        assert_eq!(s.cycles, 449);
        assert!(s.render().contains("deliver"));
    }

    #[test]
    fn same_seed_twice_is_byte_identical_different_seed_is_not() {
        let a = record(11);
        let b = record(11);
        let c = record(12);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn truncation_is_rejected_at_any_length() {
        let bytes = record(3);
        for cut in [
            0,
            2,
            6,
            9,
            bytes.len() / 2,
            bytes.len() - 9,
            bytes.len() - 1,
        ] {
            assert!(
                verify_bytes(&bytes[..cut]).is_err(),
                "truncation to {cut} bytes must be rejected"
            );
        }
    }

    #[test]
    fn bit_flips_are_rejected_everywhere() {
        let bytes = record(3);
        // Flip one bit in the magic, the header, the body, and the
        // trailer; every single one must be caught.
        for at in [0, 12, bytes.len() / 2, bytes.len() - 4] {
            let mut bad = bytes.clone();
            bad[at] ^= 0x10;
            assert!(
                verify_bytes(&bad).is_err(),
                "bit flip at byte {at} must be rejected"
            );
        }
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut bytes = record(3);
        bytes.push(0xab);
        assert!(verify_bytes(&bytes).is_err());
    }

    #[test]
    fn event_count_mismatch_is_detected() {
        // Re-seal a log with a wrong trailer count but a fresh (valid)
        // checksum: only the count walk can catch it.
        let bytes = record(3);
        let mut bad = bytes[..bytes.len() - 8].to_vec();
        // Trailer is END tag + varint count; bump the first count byte's
        // low bits without touching continuation. Find the END tag by
        // re-walking is overkill — instead append a fresh END with a bogus
        // count after stripping the old trailer bytes.
        // Strip existing END+varint: walk back over the varint.
        let mut i = bad.len() - 1;
        while bad[i] & 0x80 != 0 {
            i -= 1;
        }
        // i now points at the last varint byte; scan back to the END tag.
        let mut j = i;
        while j > 0 && bad[j - 1] & 0x80 != 0 {
            j -= 1;
        }
        bad.truncate(j - 1);
        bad.push(super::tag::END);
        crate::log::write_varint(&mut bad, 1);
        let sum = fnv1a64(&bad);
        bad.extend_from_slice(&sum.to_le_bytes());
        assert!(matches!(
            verify_bytes(&bad),
            Err(LogError::EventCountMismatch { declared: 1, .. })
        ));
    }

    #[test]
    fn heal_events_round_trip_through_the_log() {
        use crate::log::LogHeader;
        use turnroute_sim::HealEvent;

        let mesh = Mesh::new_2d(4, 4);
        let routing = mesh2d::west_first(RoutingMode::Minimal);
        let cfg = SimConfig::builder().seed(1).build();
        let header = LogHeader::describe(&mesh, &routing, &Uniform::new(), &cfg, "sim");
        let fired = vec![
            (
                0u64,
                HealEvent::EpochOpen {
                    epoch: 0,
                    transitions: 0,
                },
            ),
            (
                0,
                HealEvent::Proof {
                    epoch: 0,
                    latency: 3,
                    incremental: false,
                    acyclic: true,
                },
            ),
            (
                0,
                HealEvent::Certificate {
                    epoch: 0,
                    hash: 0xdead_beef_cafe_f00d,
                },
            ),
            (0, HealEvent::TableSwap { epoch: 0 }),
            (
                500,
                HealEvent::EpochOpen {
                    epoch: 1,
                    transitions: 2,
                },
            ),
            (
                517,
                HealEvent::Proof {
                    epoch: 1,
                    latency: 17,
                    incremental: true,
                    acyclic: false,
                },
            ),
            (
                517,
                HealEvent::Quarantine {
                    epoch: 1,
                    slot: 42,
                    on: true,
                },
            ),
            (
                900,
                HealEvent::Quarantine {
                    epoch: 2,
                    slot: 42,
                    on: false,
                },
            ),
        ];
        let mut log = LogObserver::with_header(&header);
        for &(now, ev) in &fired {
            log.on_event(now, &Event::Heal(ev));
        }
        let bytes = log.finish();

        struct Collect(Vec<(u64, HealEvent)>);
        impl SimObserver for Collect {
            fn on_event(&mut self, now: u64, ev: &Event<'_>) {
                match *ev {
                    Event::Heal(ev) => self.0.push((now, ev)),
                    other => panic!("unexpected {other:?}"),
                }
            }
        }
        let mut got = Collect(Vec::new());
        let s = replay(&bytes, &mut got).expect("valid log");
        assert_eq!(got.0, fired, "replay must reconstruct every heal event");
        assert_eq!(s.count("heal_epoch"), 2);
        assert_eq!(s.count("heal_proof"), 2);
        assert_eq!(s.count("heal_cert"), 1);
        assert_eq!(s.count("heal_swap"), 1);
        assert_eq!(s.count("heal_quarantine"), 2);
        assert_eq!(s.cycles, 900);
        assert!(s.render().contains("heal_cert"));
    }

    #[test]
    fn error_display_is_informative() {
        assert!(LogError::BadMagic.to_string().contains("magic"));
        assert!(LogError::ChecksumMismatch.to_string().contains("corrupt"));
        assert!(LogError::BadVersion(9).to_string().contains('9'));
        assert!(LogError::BadFrame {
            offset: 7,
            why: "nope".to_string()
        }
        .to_string()
        .contains("byte 7"));
    }

    /// Record the standard small run with frames at cadence 64 and return
    /// (bytes, live frames, live alerts).
    fn record_with_frames(
        seed: u64,
    ) -> (
        Vec<u8>,
        Vec<turnroute_sim::TelemetryFrame>,
        Vec<turnroute_sim::Alert>,
    ) {
        let mesh = Mesh::new_2d(4, 4);
        let routing = mesh2d::west_first(RoutingMode::Minimal);
        let pattern = Uniform::new();
        let cfg = SimConfig::builder()
            .injection_rate(0.05)
            .seed(seed)
            .warmup_cycles(50)
            .measure_cycles(200)
            .drain_cycles(200)
            .build();
        let log = LogObserver::start_with_frames(&mesh, &routing, &pattern, &cfg, "sim", 64);
        let mut sim = Sim::with_observer(&mesh, &routing, &pattern, cfg, log);
        sim.run();
        let log = sim.into_observer();
        let frames = log.frames().to_vec();
        let alerts = log.alerts().to_vec();
        (log.finish(), frames, alerts)
    }

    /// Collects decoded frame/alert events and re-derives frames from the
    /// raw event stream at the same time.
    struct FrameCompare {
        logged: Vec<turnroute_sim::TelemetryFrame>,
        logged_alerts: Vec<turnroute_sim::Alert>,
        rederived: turnroute_sim::FrameCollector,
        blames: u64,
    }

    impl SimObserver for FrameCompare {
        fn on_event(&mut self, now: u64, ev: &Event<'_>) {
            self.rederived.on_event(now, ev);
            match *ev {
                Event::Blame { blame, .. } => {
                    self.blames += 1;
                    assert!(blame.total() > 0);
                }
                Event::Frame(frame) => self.logged.push(frame.clone()),
                Event::Alert(alert) => self.logged_alerts.push(*alert),
                _ => {}
            }
        }
    }

    #[test]
    fn replayed_frames_match_live_frames_exactly() {
        let (bytes, live_frames, live_alerts) = record_with_frames(11);
        assert!(!live_frames.is_empty());
        let mut cmp = FrameCompare {
            logged: Vec::new(),
            logged_alerts: Vec::new(),
            // Deliberately undersized: the collector must grow itself
            // from the event stream.
            rederived: turnroute_sim::FrameCollector::new(1, 64),
            blames: 0,
        };
        let s = replay(&bytes, &mut cmp).expect("valid log");
        assert_eq!(cmp.logged, live_frames, "decoded frames == live frames");
        assert_eq!(cmp.logged_alerts, live_alerts);
        assert_eq!(
            cmp.rederived.frames(),
            &live_frames[..],
            "event-rederived frames == live frames"
        );
        assert_eq!(s.count("frame"), live_frames.len() as u64);
        assert_eq!(s.count("blame"), s.count("deliver"));
        assert_eq!(cmp.blames, s.count("deliver"));
    }

    #[test]
    fn bounded_replay_windows_attention_not_integrity() {
        let (bytes, _, _) = record_with_frames(11);
        let full = summarize(&bytes).expect("valid");
        let s = replay_bounded(&bytes, &mut NoopObserver, 100, 199).expect("valid");
        assert_eq!(s.count("cycle_end"), 100);
        assert!(s.events < full.events);
        assert!(s.count("deliver") < full.count("deliver"));
        assert_eq!(s.cycles, full.cycles, "final clock is not windowed");
        // An empty window still validates the whole stream.
        let empty = replay_bounded(&bytes, &mut NoopObserver, 10_000, 20_000).expect("valid");
        assert_eq!(empty.events, 0);
        let mut bad = bytes.clone();
        let mid = bad.len() / 2;
        bad[mid] ^= 0x10;
        assert!(replay_bounded(&bad, &mut NoopObserver, 10_000, 20_000).is_err());
    }

    #[test]
    fn tampered_frame_length_is_rejected_even_behind_a_fresh_checksum() {
        let (bytes, live_frames, _) = record_with_frames(11);
        let offsets = frame_offsets(&bytes).expect("valid log");
        assert_eq!(offsets.len(), live_frames.len());
        // Shrink the first frame's declared payload length by one and
        // re-seal the checksum: only strict frame decoding can catch it.
        let mut bad = bytes[..bytes.len() - 8].to_vec();
        // Nudge the declared length by one (the low bits of the first
        // varint byte), whatever the varint's width.
        let len_at = offsets[0] + 1;
        if bad[len_at] & 0x7f != 0 {
            bad[len_at] -= 1;
        } else {
            bad[len_at] += 1;
        }
        let sum = fnv1a64(&bad);
        bad.extend_from_slice(&sum.to_le_bytes());
        let err = verify_bytes(&bad).expect_err("tampered frame length must be rejected");
        assert!(
            matches!(
                err,
                LogError::BadFrame { .. }
                    | LogError::BadTag { .. }
                    | LogError::OutOfRange { .. }
                    | LogError::Truncated
            ),
            "unexpected rejection {err:?}"
        );
    }
}
