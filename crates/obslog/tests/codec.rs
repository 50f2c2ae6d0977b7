//! The wire contract of the event vocabulary: the bytes every kind
//! encodes to (pinned against the recorder as it was before the codec
//! table existed), the round trip through `decode`, the format table in
//! the docs, and what the reader does with logs that are well sealed but
//! hostile.

use std::process::Command;
use turnroute_model::Turn;
use turnroute_obslog::codec::{decode, encode, tag, Reader, KINDS};
use turnroute_obslog::log::{fnv1a64, write_varint};
use turnroute_obslog::{
    replay, scenario, summarize, verify_bytes, FrameScope, LogError, LogHeader, LogObserver,
    ReplayableAggregates,
};
use turnroute_rng::{Rng, RngCore, SeedableRng, StdRng};
use turnroute_sim::obs::{
    ChannelLayout, ChannelWindow, DeadlockSnapshot, Event, StallReason, StreamingHistogram,
    WaitEdge,
};
use turnroute_sim::{
    Alert, AlertKind, HealEvent, PacketBlame, PacketId, Sim, SimObserver, TelemetryFrame,
};
use turnroute_topology::{Direction, NodeId};

const NODES: u64 = 16;
const DIMS: u64 = 2;
/// One past the largest slot `decode` admits under [`header`]: 256 lanes
/// on each of 4 links per node, plus injection and ejection.
const SLOTS: u64 = NODES * (2 * DIMS * 256 + 2);

/// The 4×4 header every golden vector was captured under.
fn header() -> LogHeader {
    LogHeader {
        engine: "sim".into(),
        topology: "4x4".into(),
        nodes: NODES,
        dims: DIMS,
        routing: "golden".into(),
        pattern: "none".into(),
        turns: "-".into(),
        seed: 1,
        config: "golden".into(),
        config_hash: 0,
        fault_events: 0,
    }
}

/// What `fire` makes a recorder under [`header`] append to its stream.
fn recorded(mut log: LogObserver, fire: impl FnOnce(&mut LogObserver)) -> Vec<u8> {
    let skip = log.byte_len();
    fire(&mut log);
    let end = log.byte_len();
    log.finish()[skip..end].to_vec()
}

/// `decode(bytes)` must be exactly `ev`, consuming every byte.
fn assert_decodes_to(bytes: &[u8], ev: &Event<'_>) {
    let mut r = Reader::new(bytes, 0, &header()).expect("header is in range");
    let t = r.u8().expect("tag");
    let want = Ok::<_, &LogError>(ev);
    assert_eq!(decode(&mut r, t).as_ref(), want, "decoding {bytes:?}");
    assert!(r.at_end(), "decode left bytes of {ev:?} unread");
}

#[test]
fn every_kind_encodes_to_the_bytes_the_per_hook_recorder_wrote() {
    let packet = PacketId(300);
    let at = NodeId(9);
    let snapshot = DeadlockSnapshot {
        now: 0,
        layout: ChannelLayout::new(16, 2),
        edges: vec![
            WaitEdge {
                channel: 4,
                packet: 7,
                buffered: 1,
                head_waiting: false,
                waits_for: Some(9),
            },
            WaitEdge {
                channel: 9,
                packet: 300,
                buffered: 2,
                head_waiting: true,
                waits_for: None,
            },
        ],
    };
    let blame = PacketBlame {
        queue_cycles: 2,
        blocked_cycles: 130,
        service_cycles: 40,
        misroute_cycles: 0,
    };
    let turn = Turn::new(Direction::EAST, Direction::NORTH);
    // Captured from the parent commit's `LogObserver`, one hook call per
    // row with these operands, at cycle 0 under `header()`.
    #[rustfmt::skip]
    let golden: [(Event<'_>, &[u8]); 19] = [
        (Event::Inject { packet, src: NodeId(3), dst: NodeId(12), len: 200 },
            &[0x02, 0xac, 0x02, 0x03, 0x0c, 0xc8, 0x01]),
        (Event::FlitSource { slot: 70, packet, is_tail: true }, &[0x03, 0x46, 0xac, 0x02, 0x01]),
        (Event::FlitAdvance { from: 70, to: Some(130), packet, is_tail: false },
            &[0x04, 0x46, 0x83, 0x01, 0xac, 0x02, 0x00]),
        (Event::FlitAdvance { from: 85, to: None, packet, is_tail: true },
            &[0x04, 0x55, 0x00, 0xac, 0x02, 0x01]),
        (Event::Turn { packet, at, turn }, &[0x05, 0xac, 0x02, 0x09, 0x01, 0x03]),
        (Event::Misroute { packet, at, dir: Direction::SOUTH }, &[0x06, 0xac, 0x02, 0x09, 0x02]),
        (Event::Stall { slot: 41, packet, reason: StallReason::Backpressure },
            &[0x07, 0x29, 0xac, 0x02, 0x01]),
        (Event::Deliver { packet, latency: 1234, hops: 6 }, &[0x08, 0xac, 0x02, 0xd2, 0x09, 0x06]),
        (Event::Fault { slot: 22, active: true }, &[0x09, 0x16, 0x01]),
        (Event::Drop { packet, unroutable: true }, &[0x0a, 0xac, 0x02, 0x01]),
        (Event::Purge { packet }, &[0x0b, 0xac, 0x02]),
        (Event::CycleEnd, &[0x0c]),
        (Event::Deadlock(&snapshot),
            &[0x0d, 0x02, 0x04, 0x07, 0x01, 0x00, 0x0a, 0x09, 0xac, 0x02, 0x02, 0x01, 0x00]),
        (Event::Heal(HealEvent::EpochOpen { epoch: 3, transitions: 2 }), &[0x0e, 0x03, 0x02]),
        (Event::Heal(HealEvent::Proof { epoch: 3, latency: 517, incremental: true, acyclic: false }),
            &[0x0f, 0x03, 0x85, 0x04, 0x01, 0x00]),
        (Event::Heal(HealEvent::Certificate { epoch: 3, hash: 0xdead_beef_cafe_f00d }),
            &[0x10, 0x03, 0x8d, 0xe0, 0xfb, 0xd7, 0xfc, 0xdd, 0xef, 0xd6, 0xde, 0x01]),
        (Event::Heal(HealEvent::TableSwap { epoch: 3 }), &[0x11, 0x03]),
        (Event::Heal(HealEvent::Quarantine { epoch: 3, slot: 42, on: true }),
            &[0x12, 0x03, 0x2a, 0x01]),
        (Event::Blame { packet, blame }, &[0x13, 0xac, 0x02, 0x02, 0x82, 0x01, 0x28, 0x00]),
    ];
    for (ev, bytes) in &golden {
        let mut buf = Vec::new();
        encode(ev, &mut buf);
        assert_eq!(&buf, bytes, "{ev:?}");
        assert_decodes_to(bytes, ev);
        // The recorder writes exactly the codec's bytes.
        let log = LogObserver::with_header(&header());
        assert_eq!(&recorded(log, |log| log.on_event(0, ev)), bytes);
    }
    // The clock: an event at cycle 7 is preceded by one CYCLE_ADVANCE.
    let log = LogObserver::with_header(&header());
    assert_eq!(
        recorded(log, |log| log.on_event(7, &Event::Purge { packet })),
        [0x01, 0x07, 0x0b, 0xac, 0x02]
    );
}

/// The two kinds the recorder writes on its own account: at cadence 2,
/// one injection, one delivery, and slot 5 stalled every cycle for three
/// windows — the third window trips credit starvation, so the stream
/// carries CYCLE_END, then FRAME, then ALERT, at the same cycle.
#[test]
fn frames_and_alerts_land_where_the_per_hook_recorder_put_them() {
    #[rustfmt::skip]
    let golden: &[u8] = &[
        0x02, 0xac, 0x02, 0x03, 0x0c, 0xc8, 0x01, 0x07, 0x05, 0xac, 0x02, 0x01, 0x0c, 0x01, 0x01,
        0x07, 0x05, 0xac, 0x02, 0x01, 0x0c, 0x14, 0x11, 0x01, 0x00, 0x00, 0x01, 0x01, 0x00, 0x00,
        0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x05, 0x00, 0x02, 0x01, 0x01, 0x07, 0x05, 0xac,
        0x02, 0x01, 0x0c, 0x01, 0x01, 0x07, 0x05, 0xac, 0x02, 0x01, 0x08, 0xac, 0x02, 0x28, 0x06,
        0x0c, 0x14, 0x13, 0x01, 0x01, 0x02, 0x03, 0x00, 0x01, 0x00, 0x00, 0x00, 0x28, 0x28, 0x28,
        0x01, 0x28, 0x01, 0x01, 0x05, 0x00, 0x02, 0x01, 0x01, 0x07, 0x05, 0xac, 0x02, 0x01, 0x0c,
        0x01, 0x01, 0x07, 0x05, 0xac, 0x02, 0x01, 0x0c, 0x14, 0x11, 0x01, 0x02, 0x04, 0x05, 0x00,
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x05, 0x00, 0x02, 0x15, 0x00, 0x02,
        0x05, 0x06, 0xc0, 0x84, 0x3d, 0xa0, 0xf7, 0x36,
    ];
    let packet = PacketId(300);
    let body = recorded(LogObserver::with_frames(&header(), 2), |log| {
        let (src, dst, len) = (NodeId(3), NodeId(12), 200);
        log.on_event(
            0,
            &Event::Inject {
                packet,
                src,
                dst,
                len,
            },
        );
        for now in 0..6 {
            let (slot, reason) = (5, StallReason::Backpressure);
            log.on_event(
                now,
                &Event::Stall {
                    slot,
                    packet,
                    reason,
                },
            );
            if now == 3 {
                let (latency, hops) = (40, 6);
                log.on_event(
                    now,
                    &Event::Deliver {
                        packet,
                        latency,
                        hops,
                    },
                );
            }
            log.on_event(now, &Event::CycleEnd);
        }
        assert_eq!((log.frames().len(), log.alerts().len()), (3, 1));
    });
    assert_eq!(body, golden);
}

/// A draw that exercises every varint width: a random bit length first.
fn wide(rng: &mut StdRng) -> u64 {
    rng.next_u64() >> rng.gen_range(0..64u32)
}

fn random_frame(rng: &mut StdRng) -> TelemetryFrame {
    let mut latency = StreamingHistogram::new();
    for _ in 0..rng.gen_range(0..4u32) {
        latency.record(wide(rng));
    }
    let window_end = wide(rng) % u64::MAX;
    TelemetryFrame {
        seq: wide(rng),
        window_start: wide(rng) % (window_end + 1),
        window_end,
        injected_packets: wide(rng),
        delivered_packets: wide(rng),
        dropped_packets: wide(rng),
        in_flight_packets: wide(rng),
        open_heal_epochs: wide(rng),
        latency,
        channels: (0..rng.gen_range(0..4u32))
            .map(|_| ChannelWindow {
                slot: (wide(rng) % SLOTS) as usize,
                util: wide(rng),
                blocked: wide(rng),
            })
            .collect(),
    }
}

/// A random in-range event of the kind tagged `t`, handed to `check`.
fn with_random_event(t: u8, rng: &mut StdRng, check: impl FnOnce(&Event<'_>)) {
    let n32 = |rng: &mut StdRng| (wide(rng) >> 32) as u32;
    let flag = |rng: &mut StdRng| rng.gen_bool(0.5);
    let slot = |rng: &mut StdRng| (wide(rng) % SLOTS) as usize;
    let slot_opt = |rng: &mut StdRng| {
        wide(rng)
            .checked_rem(SLOTS + 1)?
            .checked_sub(1)
            .map(|s| s as usize)
    };
    let node = |rng: &mut StdRng| NodeId(rng.gen_range(0..NODES) as u32);
    let dir = |rng: &mut StdRng| Direction::from_index(rng.gen_range(0..2 * DIMS) as usize);
    let packet = PacketId(n32(rng));
    let (snapshot, frame, alert);
    let ev = match t {
        tag::INJECT => Event::Inject {
            packet,
            src: node(rng),
            dst: node(rng),
            len: n32(rng),
        },
        tag::FLIT_SOURCE => Event::FlitSource {
            slot: slot(rng),
            packet,
            is_tail: flag(rng),
        },
        tag::ADVANCE => Event::FlitAdvance {
            from: slot(rng),
            to: slot_opt(rng),
            packet,
            is_tail: flag(rng),
        },
        tag::TURN => Event::Turn {
            packet,
            at: node(rng),
            turn: Turn::new(dir(rng), dir(rng)),
        },
        tag::MISROUTE => Event::Misroute {
            packet,
            at: node(rng),
            dir: dir(rng),
        },
        tag::STALL => Event::Stall {
            slot: slot(rng),
            packet,
            reason: [StallReason::NotRouted, StallReason::Backpressure][usize::from(flag(rng))],
        },
        tag::DELIVER => Event::Deliver {
            packet,
            latency: wide(rng),
            hops: n32(rng),
        },
        tag::FAULT => Event::Fault {
            slot: slot(rng),
            active: flag(rng),
        },
        tag::DROP => Event::Drop {
            packet,
            unroutable: flag(rng),
        },
        tag::PURGE => Event::Purge { packet },
        tag::CYCLE_END => Event::CycleEnd,
        tag::DEADLOCK => {
            snapshot = DeadlockSnapshot {
                now: 0,
                layout: ChannelLayout::new(NODES as usize, DIMS as usize),
                edges: (0..rng.gen_range(0..5u32))
                    .map(|_| WaitEdge {
                        channel: slot(rng),
                        packet: n32(rng),
                        buffered: n32(rng) as usize,
                        head_waiting: flag(rng),
                        waits_for: slot_opt(rng),
                    })
                    .collect(),
            };
            Event::Deadlock(&snapshot)
        }
        tag::HEAL_EPOCH => Event::Heal(HealEvent::EpochOpen {
            epoch: n32(rng),
            transitions: n32(rng),
        }),
        tag::HEAL_PROOF => Event::Heal(HealEvent::Proof {
            epoch: n32(rng),
            latency: wide(rng),
            incremental: flag(rng),
            acyclic: flag(rng),
        }),
        tag::HEAL_CERT => Event::Heal(HealEvent::Certificate {
            epoch: n32(rng),
            hash: wide(rng),
        }),
        tag::HEAL_SWAP => Event::Heal(HealEvent::TableSwap { epoch: n32(rng) }),
        tag::HEAL_QUARANTINE => Event::Heal(HealEvent::Quarantine {
            epoch: n32(rng),
            slot: slot(rng) as u32,
            on: flag(rng),
        }),
        tag::BLAME => Event::Blame {
            packet,
            blame: PacketBlame {
                queue_cycles: wide(rng),
                blocked_cycles: wide(rng),
                service_cycles: wide(rng),
                misroute_cycles: wide(rng),
            },
        },
        tag::FRAME => {
            frame = random_frame(rng);
            Event::Frame(&frame)
        }
        tag::ALERT => {
            alert = Alert {
                kind: AlertKind::from_code(rng.gen_range(0..3u64)).expect("three kinds"),
                seq: wide(rng),
                cycle: wide(rng),
                slot: slot_opt(rng),
                value: wide(rng),
                threshold: wide(rng),
            };
            Event::Alert(&alert)
        }
        other => panic!("KINDS names tag {other}, which this test cannot draw"),
    };
    check(&ev);
}

#[test]
fn a_thousand_random_events_of_every_kind_round_trip() {
    let mut rng = StdRng::seed_from_u64(0x7e57);
    // Every kind but the two that are not events: the trailer, the clock.
    for &(t, name, _) in &KINDS[2..] {
        for _ in 0..1_000 {
            with_random_event(t, &mut rng, |ev| {
                let mut bytes = Vec::new();
                encode(ev, &mut bytes);
                assert_eq!(bytes[0], t, "{name} is tagged {t}");
                assert_decodes_to(&bytes, ev);
            });
        }
    }
}

/// The table in the codec's module docs and the copy in DESIGN.md §10 are
/// the rows of `KINDS`, verbatim and complete.
#[test]
fn the_documented_format_table_is_the_codec_table() {
    let table: String = KINDS
        .iter()
        .map(|(t, name, operands)| format!("| {t} | {name} | {operands}|\n"))
        .collect();
    let rows = |text: &str, prefix: &str| -> String {
        text.lines()
            .filter_map(|line| line.strip_prefix(prefix))
            .filter(|line| {
                let tag = line
                    .strip_prefix("| ")
                    .and_then(|rest| rest.split_once(" | "));
                tag.is_some_and(|(tag, _)| tag.parse::<u8>().is_ok())
            })
            .map(|line| format!("{line}\n"))
            .collect()
    };
    assert_eq!(rows(include_str!("../src/codec.rs"), "//! "), table);
    assert_eq!(rows(include_str!("../../../DESIGN.md"), ""), table);
    // Tags are dense from 0, so a tag indexes `KINDS`.
    assert!(KINDS.iter().enumerate().all(|(i, k)| usize::from(k.0) == i));
}

/// A sealed log under [`header`] whose event stream is `body`, `events`
/// events long: well framed, correctly counted, correctly checksummed.
fn sealed(header: &LogHeader, body: &[u8], events: u64) -> Vec<u8> {
    let empty = LogObserver::with_header(header);
    let mut bytes = empty.clone().finish()[..empty.byte_len()].to_vec();
    bytes.extend_from_slice(body);
    bytes.push(tag::END);
    write_varint(&mut bytes, events);
    let sum = fnv1a64(&bytes);
    bytes.extend_from_slice(&sum.to_le_bytes());
    bytes
}

/// One event: `tag` and its operands as varints.
fn event(tag: u8, operands: &[u64]) -> Vec<u8> {
    let mut body = vec![tag];
    for &v in operands {
        write_varint(&mut body, v);
    }
    body
}

/// The four one-event bodies that took `turnstat` down before operands
/// were range checked, each with the field the reader must name.
fn hostile_bodies() -> [(&'static str, Vec<u8>, &'static str); 4] {
    [
        // `Direction::new` asserted on it.
        (
            "turn-direction-1000",
            event(tag::TURN, &[0, 0, 1000, 0]),
            "direction",
        ),
        // Indexed past a 2-D `TurnCensus`.
        (
            "turn-direction-7-in-2d",
            event(tag::TURN, &[0, 0, 7, 0]),
            "direction",
        ),
        // Indexed past the `ChannelHeatmap`.
        (
            "advance-to-slot-100000",
            event(tag::ADVANCE, &[0, 100_001, 0, 0]),
            "slot",
        ),
        // Made `FrameCollector::grow` ask for 9 PB.
        (
            "stall-on-slot-2^50",
            event(tag::STALL, &[1 << 50, 0, 0]),
            "slot",
        ),
    ]
}

#[test]
fn hostile_operands_are_typed_errors_not_crashes() {
    for (name, body, field) in hostile_bodies() {
        let bytes = sealed(&header(), &body, 1);
        // The body sits before END, a one-byte count and the checksum.
        let body_at = bytes.len() - 10 - body.len();
        let rejection = |got: Result<(), LogError>| match got {
            Err(LogError::OutOfRange {
                offset, field: f, ..
            }) => {
                assert_eq!(f, field, "{name}");
                assert!(
                    (body_at + 1..body_at + body.len()).contains(&offset),
                    "{name}"
                );
            }
            other => panic!("{name}: expected an out-of-range rejection, got {other:?}"),
        };
        rejection(verify_bytes(&bytes).map(|_| ()));
        let layout = ChannelLayout::new(NODES as usize, DIMS as usize);
        rejection(replay(&bytes, &mut ReplayableAggregates::new(layout)).map(|_| ()));
        rejection(replay(&bytes, &mut FrameScope::new(&header(), 100)).map(|_| ()));
    }
}

#[test]
fn slots_of_a_wider_engine_than_the_collectors_expect_are_survivable() {
    // Slot 5,000 is past the single-lane layout's 96 slots but within
    // what a virtual-channel engine on the same network could number:
    // the reader admits it, the heatmap does not count it, the frame
    // collector grows to it.
    let (slot, layout) = (5_000, ChannelLayout::new(NODES as usize, DIMS as usize));
    assert!(slot >= layout.num_channels && (slot as u64) < SLOTS);
    let mut body = event(tag::ADVANCE, &[slot as u64, slot as u64 + 1, 0, 0]);
    body.extend(event(tag::STALL, &[slot as u64, 0, 1]));
    body.extend(event(tag::CYCLE_END, &[]));
    let bytes = sealed(&header(), &body, 3);
    let mut aggregates = ReplayableAggregates::new(layout);
    replay(&bytes, &mut aggregates).expect("in range for some engine");
    assert_eq!(aggregates.heatmap.total_load(), 0);
    assert_eq!(aggregates.heatmap.total_stall_cycles(), 0);
    let mut scope = FrameScope::new(&header(), 1);
    replay(&bytes, &mut scope).expect("in range for some engine");
    let want = ChannelWindow {
        slot,
        util: 1,
        blocked: 1,
    };
    assert_eq!(scope.frames()[0].channels, [want]);
}

#[test]
fn a_header_no_engine_could_have_written_is_rejected_before_any_event() {
    for (nodes, dims) in [(16, 129), (1 << 40, 2), (u64::MAX, u64::MAX)] {
        let h = LogHeader {
            nodes,
            dims,
            ..header()
        };
        let got = verify_bytes(&sealed(&h, &[], 0));
        assert!(matches!(got, Err(LogError::BadHeader(_))), "{got:?}");
    }
}

#[test]
fn a_clock_that_would_reach_never_is_rejected() {
    let mut body = event(tag::CYCLE_ADVANCE, &[u64::MAX - 1]);
    assert!(verify_bytes(&sealed(&header(), &body, 1)).is_ok());
    body.extend(event(tag::CYCLE_ADVANCE, &[1]));
    let got = verify_bytes(&sealed(&header(), &body, 2));
    assert!(matches!(got, Err(LogError::OutOfRange { .. })), "{got:?}");
}

/// `turnstat` reports each hostile log as rejected and exits 1 — not a
/// panic's 101, not an abort's signal.
#[test]
fn turnstat_rejects_hostile_logs_without_crashing() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"));
    for (name, body, _) in hostile_bodies() {
        let log = dir.join(format!("hostile-{name}.ttr"));
        std::fs::write(&log, sealed(&header(), &body, 1)).expect("write log");
        let out = dir.join(format!("hostile-{name}.out"));
        let commands: [&[&str]; 4] = [
            &["replay", "--out"],
            &["summarize"],
            &["verify"],
            &["frames", "--check", "--out"],
        ];
        for args in commands {
            let mut cmd = Command::new(env!("CARGO_BIN_EXE_turnstat"));
            cmd.arg(args[0]).arg(&log).args(&args[1..]);
            if args.last() == Some(&"--out") {
                cmd.arg(&out);
            }
            let run = cmd.output().expect("turnstat runs");
            let stderr = String::from_utf8_lossy(&run.stderr);
            assert_eq!(run.status.code(), Some(1), "{name} {args:?}: {stderr}");
            assert!(stderr.contains("rejected: "), "{name} {args:?}: {stderr}");
        }
    }
}

/// ROADMAP aim 3c for the TTRL decoder: mangle a real recording — the
/// canonical `--quick` scenario through its scheduled fault, one frame
/// included — ten thousand ways, re-seal each with a correct checksum so
/// only content-level checks stand between the bytes and the collectors,
/// and replay it into what `turnstat replay` and `turnstat frames --check`
/// drive. Every outcome is `Ok` or a typed `LogError`; a panic (this is a
/// debug build: overflow and bounds checks are on) fails the test.
#[test]
fn ten_thousand_resealed_mutations_never_panic() {
    let s = scenario::canonical(7, true);
    let cadence = scenario::frame_cadence(true);
    let log =
        LogObserver::start_with_frames(&s.mesh, &*s.routing, &s.pattern, &s.cfg, "sim", cadence);
    let mut sim = Sim::with_observer(&s.mesh, &*s.routing, &s.pattern, s.cfg, log);
    for _ in 0..160 {
        sim.step();
    }
    let pristine = sim.into_observer().finish();
    let clean = summarize(&pristine).expect("the recording itself is valid");
    for kind in ["frame", "fault", "turn", "stall", "deliver", "blame"] {
        assert!(clean.count(kind) > 0, "the recording carries no {kind}");
    }
    let layout = ChannelLayout::new(clean.header.nodes as usize, clean.header.dims as usize);

    let mut rng = StdRng::seed_from_u64(0xf022);
    let body_end = pristine.len() - 8;
    let (mut accepted, mut out_of_range, mut other) = (0u32, 0u32, 0u32);
    for _ in 0..10_000 {
        let mut bytes = pristine[..body_end].to_vec();
        for _ in 0..rng.gen_range(1..=3u32) {
            let at = rng.gen_range(0..body_end);
            match rng.gen_range(0..4u32) {
                0 => bytes[at] = rng.next_u64() as u8,
                1 => bytes[at] ^= 1 << rng.gen_range(0..8u32),
                // Splice varints together, or cut one short.
                2 => bytes[at] ^= 0x80,
                _ => bytes[at] = 0xff,
            }
        }
        let sum = fnv1a64(&bytes);
        bytes.extend_from_slice(&sum.to_le_bytes());

        // Sized for the network that was recorded, whatever the mangled
        // header now claims.
        let mut stack = (
            ReplayableAggregates::new(layout),
            FrameScope::new(&clean.header, cadence),
        );
        match replay(&bytes, &mut stack) {
            Ok(_) => {
                accepted += 1;
                assert!(!stack.0.snapshot_json().is_empty());
            }
            Err(LogError::OutOfRange { .. }) => out_of_range += 1,
            Err(_) => other += 1,
        }
    }
    // The fuzz reached all three outcomes, not just the first check.
    let outcomes = [accepted, out_of_range, other];
    assert!(outcomes.iter().all(|&n| n > 500), "{outcomes:?}");
    assert_eq!(outcomes.iter().sum::<u32>(), 10_000);
}
