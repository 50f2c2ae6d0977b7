//! The TTRL event codec: the one place a log's body is written and read.
//!
//! The body is the serialized [`Event`] stream: per event a tag byte, then
//! its operands as LEB128 varints. The table below is the whole format,
//! and the code states it once — each row of the `codec!` invocation
//! further down yields the kind's [`tag`] constant, its [`KINDS`] entry,
//! its [`encode`] arm and its [`decode`] arm. The recorder
//! ([`crate::LogObserver`]) and the reader ([`crate::replay()`]) both come
//! through here.
//!
//! | tag | kind | operands |
//! |---:|---|---|
//! | 0 | end | events:n64 |
//! | 1 | cycle_advance | delta:n64 |
//! | 2 | inject | packet:packet src:node dst:node len:n32 |
//! | 3 | flit_source | slot:slot packet:packet is_tail:flag |
//! | 4 | advance | from:slot to:slot_opt packet:packet is_tail:flag |
//! | 5 | turn | packet:packet at:node turn:turn |
//! | 6 | misroute | packet:packet at:node dir:dir |
//! | 7 | stall | slot:slot packet:packet reason:reason |
//! | 8 | deliver | packet:packet latency:n64 hops:n32 |
//! | 9 | fault | slot:slot active:flag |
//! | 10 | drop | packet:packet unroutable:flag |
//! | 11 | purge | packet:packet |
//! | 12 | cycle_end | |
//! | 13 | deadlock | snapshot:snapshot |
//! | 14 | heal_epoch | epoch:n32 transitions:n32 |
//! | 15 | heal_proof | epoch:n32 latency:n64 incremental:flag acyclic:flag |
//! | 16 | heal_cert | epoch:n32 hash:n64 |
//! | 17 | heal_swap | epoch:n32 |
//! | 18 | heal_quarantine | epoch:n32 slot:slot32 on:flag |
//! | 19 | blame | packet:packet queue_cycles:n64 blocked_cycles:n64 service_cycles:n64 misroute_cycles:n64 |
//! | 20 | frame | frame:frame |
//! | 21 | alert | alert:alert |
//!
//! Operands read `name:type`. A type is one varint unless it says
//! otherwise, and [`decode`] rejects a value outside its range:
//!
//! * `n64` — any value; `n32` and `packet` — below 2³²; `flag` — 0 or 1;
//!   `reason` — 0 not routed, 1 backpressure.
//! * `node` — below the header's `nodes`; `dir` — a direction index below
//!   2·`dims`; `turn` — two `dir`s, from then to.
//! * `slot` (`slot32` where the event holds it as a `u32`) — below the
//!   slot count of the widest engine the header's network admits
//!   ([`MAX_LANES_PER_LINK`] lanes on every link, plus injection and
//!   ejection); `slot_opt` — a slot plus one, 0 meaning none.
//! * `snapshot` — `n:n64`, then n × `channel:slot packet:n32
//!   buffered:n32 head_waiting:flag waits_for:slot_opt`; the layout is
//!   rebuilt from the header.
//! * `frame` — `len:n64`, then `len` bytes of [`crate::frame_codec`]
//!   payload, every channel a `slot`.
//! * `alert` — `kind:n64` (an [`AlertKind`] code) `seq:n64 cycle:n64
//!   slot:slot_opt value:n64 threshold:n64`.
//!
//! `end` is the trailer (the FNV-1a-64 checksum, `u64` LE, follows its
//! count) and `cycle_advance` moves the clock every later event happens
//! at; neither is an [`Event`]. The clock may not reach `u64::MAX`, which
//! is "never" to every consumer of cycle stamps.

use crate::frame_codec::{decode_frame_payload, encode_frame_payload};
use crate::log::{write_varint, LogHeader};
use crate::replay::LogError;
use turnroute_model::Turn;
use turnroute_sim::obs::{ChannelLayout, DeadlockSnapshot, Event, StallReason, WaitEdge};
use turnroute_sim::{
    Alert, AlertKind, HealEvent, PacketBlame, PacketId, TelemetryFrame, MAX_LANES_PER_LINK,
};
use turnroute_topology::{Direction, NodeId};

/// One row per kind: `TAG = value, "summary name", [the Event], operand:
/// type, ...;`. The bracketed event is written once and used twice — as
/// the pattern [`encode`] matches and as the expression [`decode`] builds
/// from the operands it just read — and every operand type names a
/// module below with a `put` and a `get`.
macro_rules! codec {
    ($($(#[$doc:meta])* $TAG:ident = $value:literal, $name:literal,
       [$($event:tt)+] $(, $operand:ident: $ty:ident)*;)*) => {
        /// Event tag bytes. Tag 0 terminates the stream.
        pub mod tag {
            /// End of stream; followed by the event count and checksum.
            pub const END: u8 = 0;
            /// Advance the implicit cycle clock by a varint delta.
            pub const CYCLE_ADVANCE: u8 = 1;
            $($(#[$doc])* pub const $TAG: u8 = $value;)*
        }

        /// `(tag, summary name, operands)` of every kind, in tag order;
        /// operands are space-terminated `name:type` pairs in wire order.
        pub const KINDS: &[(u8, &str, &str)] = &[
            (tag::END, "end", "events:n64 "),
            (tag::CYCLE_ADVANCE, "cycle_advance", "delta:n64 "),
            $((
                tag::$TAG,
                $name,
                concat!($(stringify!($operand), ":", stringify!($ty), " "),*),
            ),)*
        ];

        /// Append `ev` to `buf`. One byte form per event: recording the
        /// same events twice yields the same bytes.
        #[inline]
        pub fn encode(ev: &Event<'_>, buf: &mut Vec<u8>) {
            match *ev {
                $($($event)+ => {
                    buf.push(tag::$TAG);
                    $($ty::put(buf, $operand);)*
                })*
            }
        }

        /// Read the operands of the event whose tag byte `tag` was just
        /// consumed. Rejects an unknown tag and any operand outside its
        /// range, so nothing decoded here can index out of bounds or size
        /// an allocation beyond what the header's network admits. The
        /// walk's hot path: inlined into it, with the error held in `r`.
        #[inline(always)]
        pub(crate) fn read_event<'r>(r: &'r mut Reader<'_>, tag: u8) -> Result<Event<'r>, Rejected> {
            Ok(match tag {
                $(tag::$TAG => {
                    $(let $operand = $ty::get(r)?;)*
                    $($event)+
                })*
                _ => {
                    let offset = r.pos.saturating_sub(1);
                    return Err(r.fail(LogError::BadTag { offset, tag }));
                }
            })
        }
    };
}

codec! {
    /// A packet started streaming into the network.
    INJECT = 2, "inject", [Event::Inject { packet, src, dst, len }],
        packet: packet, src: node, dst: node, len: n32;
    /// A flit was pushed into an injection buffer.
    FLIT_SOURCE = 3, "flit_source", [Event::FlitSource { slot, packet, is_tail }],
        slot: slot, packet: packet, is_tail: flag;
    /// A flit crossed between channel buffers (or was consumed).
    ADVANCE = 4, "advance", [Event::FlitAdvance { from, to, packet, is_tail }],
        from: slot, to: slot_opt, packet: packet, is_tail: flag;
    /// A header won arbitration and turned at a router.
    TURN = 5, "turn", [Event::Turn { packet, at, turn }], packet: packet, at: node, turn: turn;
    /// A header took an unproductive channel.
    MISROUTE = 6, "misroute", [Event::Misroute { packet, at, dir }],
        packet: packet, at: node, dir: dir;
    /// An occupied channel advanced nothing (arbitration loser or
    /// backpressure).
    STALL = 7, "stall", [Event::Stall { slot, packet, reason }],
        slot: slot, packet: packet, reason: reason;
    /// A packet's tail was consumed at its destination.
    DELIVER = 8, "deliver", [Event::Deliver { packet, latency, hops }],
        packet: packet, latency: n64, hops: n32;
    /// A scheduled fault changed a channel's state.
    FAULT = 9, "fault", [Event::Fault { slot, active }], slot: slot, active: flag;
    /// A packet was dropped after exhausting lifetime and retries.
    DROP = 10, "drop", [Event::Drop { packet, unroutable }], packet: packet, unroutable: flag;
    /// A packet's flits were purged from the network (retry or drop).
    PURGE = 11, "purge", [Event::Purge { packet }], packet: packet;
    /// The engine finished every phase of the current cycle.
    CYCLE_END = 12, "cycle_end", [Event::CycleEnd];
    /// Deadlock detection tripped; carries the frozen waits-for graph.
    DEADLOCK = 13, "deadlock", [Event::Deadlock(snapshot)], snapshot: snapshot;
    /// A fault transition opened (or extended) a reconfiguration epoch.
    HEAL_EPOCH = 14, "heal_epoch", [Event::Heal(HealEvent::EpochOpen { epoch, transitions })],
        epoch: n32, transitions: n32;
    /// An epoch's re-proof finished (latency, incremental, verdict).
    HEAL_PROOF = 15, "heal_proof",
        [Event::Heal(HealEvent::Proof { epoch, latency, incremental, acyclic })],
        epoch: n32, latency: n64, incremental: flag, acyclic: flag;
    /// The checker validated an epoch's certificate; carries its hash.
    HEAL_CERT = 16, "heal_cert", [Event::Heal(HealEvent::Certificate { epoch, hash })],
        epoch: n32, hash: n64;
    /// Routing swapped to an epoch's newly certified masked relation.
    HEAL_SWAP = 17, "heal_swap", [Event::Heal(HealEvent::TableSwap { epoch })], epoch: n32;
    /// A channel entered or left quarantine (escape-path-only mode).
    HEAL_QUARANTINE = 18, "heal_quarantine",
        [Event::Heal(HealEvent::Quarantine { epoch, slot, on })],
        epoch: n32, slot: slot32, on: flag;
    /// A delivered packet's latency blame decomposition.
    BLAME = 19, "blame",
        [Event::Blame { packet, blame: PacketBlame {
            queue_cycles, blocked_cycles, service_cycles, misroute_cycles,
        } }],
        packet: packet, queue_cycles: n64, blocked_cycles: n64, service_cycles: n64,
        misroute_cycles: n64;
    /// A sealed telemetry frame; length-prefixed versioned payload.
    FRAME = 20, "frame", [Event::Frame(frame)], frame: frame;
    /// An early-warning detector fired on the frame stream.
    ALERT = 21, "alert", [Event::Alert(alert)], alert: alert;
}

/// Read the operands of the event whose tag byte `tag` was just consumed,
/// into an [`Event`] or the [`LogError`] saying why they are not one —
/// the same checks, and the same errors, as the walk behind
/// [`crate::replay()`].
///
/// This reads a good event twice, so it is for callers that decode a
/// single event; the walk does not use it, and a hot loop should not.
pub fn decode<'r>(r: &'r mut Reader<'_>, tag: u8) -> Result<Event<'r>, LogError> {
    let at = r.pos;
    if let Some(rejected) = read_event(r, tag).err() {
        return Err(r.take_error(rejected));
    }
    // Read the good event again to return it: a branch that hands out
    // the first read's borrow of `r` cannot also use `r` on the other.
    r.pos = at;
    Ok(read_event(r, tag).expect("the same bytes decode the same"))
}

/// A rejected read. The reader that made it holds the [`LogError`] saying
/// why, and gives it back for the token ([`Reader::take_error`]). Being
/// zero-size, it keeps the hot path's `Result`s as narrow as their values;
/// only [`Reader::fail`] makes one.
#[derive(Debug)]
pub(crate) struct Rejected(());

/// A read position in a log's event stream, the clock it stands at, the
/// operand ranges the log's header decides, and the payloads a decoded
/// [`Event`] borrows.
#[derive(Debug)]
pub struct Reader<'b> {
    bytes: &'b [u8],
    pos: usize,
    now: u64,
    nodes: u64,
    dirs: u64,
    slots: u64,
    layout: ChannelLayout,
    snapshot: Option<DeadlockSnapshot>,
    frame: Option<TelemetryFrame>,
    alert: Option<Alert>,
    /// Why the last read was rejected, until the caller takes it.
    error: Option<LogError>,
}

impl<'b> Reader<'b> {
    /// A reader at `pos` in `bytes` (for a log: everything before the
    /// checksum), with the limits `header`'s network implies. Rejects a
    /// header no engine could have written: more dimensions than a
    /// [`Direction`] can name, or more slots than the engine's `u32` slot
    /// ids.
    pub fn new(bytes: &'b [u8], pos: usize, header: &LogHeader) -> Result<Reader<'b>, LogError> {
        let (nodes, dims) = (header.nodes, header.dims);
        let slots = (dims <= 128)
            .then(|| 2 * dims * MAX_LANES_PER_LINK as u64 + 2)
            .and_then(|per_node| nodes.checked_mul(per_node))
            .filter(|&slots| slots <= u64::from(u32::MAX))
            .ok_or_else(|| {
                let why = format!("no engine numbers {nodes} nodes in {dims} dimensions");
                LogError::BadHeader(why)
            })?;
        Ok(Reader {
            bytes,
            pos,
            now: 0,
            nodes,
            dirs: 2 * dims,
            slots,
            layout: ChannelLayout::new(nodes as usize, dims as usize),
            snapshot: None,
            frame: None,
            alert: None,
            error: None,
        })
    }

    /// Offset of the next unread byte.
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// The cycle the next event happens at.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Whether every byte has been read.
    pub fn at_end(&self) -> bool {
        self.pos == self.bytes.len()
    }

    /// The next byte. The walk reads bytes without building a
    /// [`LogError`] per call; this is for single reads.
    pub fn u8(&mut self) -> Result<u8, LogError> {
        self.read_u8().map_err(|rejected| self.take_error(rejected))
    }

    /// The next LEB128 varint. One whose value does not fit a `u64` is
    /// [`LogError::Truncated`], like one the stream cuts short. Like
    /// [`Reader::u8`], this is for single reads, not the walk.
    pub fn varint(&mut self) -> Result<u64, LogError> {
        self.read_varint()
            .map_err(|rejected| self.take_error(rejected))
    }

    /// Hold `error` as the reason for a rejection, and return its token.
    /// Out of line and cold, so building the error costs the hot path
    /// nothing but the branch to here.
    #[cold]
    #[inline(never)]
    pub(crate) fn fail(&mut self, error: LogError) -> Rejected {
        self.error = Some(error);
        Rejected(())
    }

    /// The error held for `rejected`.
    pub(crate) fn take_error(&mut self, rejected: Rejected) -> LogError {
        let Rejected(()) = rejected;
        self.error.take().expect("a rejection holds its error")
    }

    /// [`Reader::u8`] on the hot path.
    #[inline(always)]
    pub(crate) fn read_u8(&mut self) -> Result<u8, Rejected> {
        match self.bytes.get(self.pos) {
            Some(&b) => {
                self.pos += 1;
                Ok(b)
            }
            None => Err(self.fail(LogError::Truncated)),
        }
    }

    /// [`Reader::varint`] on the hot path.
    #[inline(always)]
    pub(crate) fn read_varint(&mut self) -> Result<u64, Rejected> {
        let mut out = 0u64;
        let mut shift = 0u32;
        loop {
            let b = self.read_u8()?;
            // The tenth byte holds bit 63 alone; anything above it
            // would be silently dropped by the shift.
            if shift >= 64 || (shift == 63 && b & 0x7e != 0) {
                return Err(self.fail(LogError::Truncated));
            }
            out |= u64::from(b & 0x7f) << shift;
            if b & 0x80 == 0 {
                return Ok(out);
            }
            shift += 7;
        }
    }

    /// The next varint, which must be below `bound`.
    #[inline(always)]
    fn below(&mut self, bound: u64, field: &'static str) -> Result<u64, Rejected> {
        let offset = self.pos;
        let value = self.read_varint()?;
        if value < bound {
            return Ok(value);
        }
        Err(self.fail(LogError::OutOfRange {
            offset,
            field,
            value,
        }))
    }

    /// Read a `cycle_advance`'s operand and move the clock by it.
    #[inline(always)]
    pub(crate) fn advance_clock(&mut self) -> Result<(), Rejected> {
        self.now += self.below(u64::MAX - self.now, "cycle delta")?;
        Ok(())
    }
}

/// A one-varint operand type: how `put` turns a value into the varint,
/// and how `get` reads and checks one.
macro_rules! operand {
    ($(#[$doc:meta])* $ty:ident: $T:ty, |$v:ident| $put:expr, |$r:ident| $get:expr) => {
        $(#[$doc])*
        mod $ty {
            use super::*;
            #[inline]
            pub fn put(buf: &mut Vec<u8>, $v: $T) {
                write_varint(buf, $put);
            }
            #[inline(always)]
            pub fn get($r: &mut Reader<'_>) -> Result<$T, Rejected> {
                Ok($get)
            }
        }
    };
}

operand!(n64: u64, |v| v, |r| r.read_varint()?);
operand!(n32: u32, |v| v.into(), |r| r.below(1 << 32, "n32")? as u32);
operand!(packet: PacketId, |v| v.0.into(), |r| PacketId(n32::get(r)?));
operand!(flag: bool, |v| v.into(), |r| r.below(2, "flag")? != 0);
operand!(node: NodeId, |v| v.0.into(), |r| NodeId(r.below(r.nodes, "node")? as u32));
operand!(slot: usize, |v| v as u64, |r| r.below(r.slots, "slot")? as usize);
operand!(slot32: u32, |v| v.into(), |r| slot::get(r)? as u32);
operand!(
    /// Shifted by one: 0 is `None`.
    slot_opt: Option<usize>,
    |v| v.map_or(0, |s| s as u64 + 1),
    |r| r.below(r.slots + 1, "slot")?.checked_sub(1).map(|s| s as usize)
);
operand!(
    dir: Direction,
    |v| v.index() as u64,
    |r| Direction::from_index(r.below(r.dirs, "direction")? as usize)
);
operand!(
    reason: StallReason,
    |v| (v == StallReason::Backpressure).into(),
    |r| [StallReason::NotRouted, StallReason::Backpressure][usize::from(flag::get(r)?)]
);

mod turn {
    use super::*;
    #[inline]
    pub fn put(buf: &mut Vec<u8>, v: Turn) {
        dir::put(buf, v.from_dir());
        dir::put(buf, v.to_dir());
    }
    #[inline(always)]
    pub fn get(r: &mut Reader<'_>) -> Result<Turn, Rejected> {
        Ok(Turn::new(dir::get(r)?, dir::get(r)?))
    }
}

mod snapshot {
    use super::*;
    pub fn put(buf: &mut Vec<u8>, v: &DeadlockSnapshot) {
        n64::put(buf, v.edges.len() as u64);
        for e in &v.edges {
            slot::put(buf, e.channel);
            n32::put(buf, e.packet);
            n64::put(buf, e.buffered as u64);
            flag::put(buf, e.head_waiting);
            slot_opt::put(buf, e.waits_for);
        }
    }
    pub fn get<'r>(r: &'r mut Reader<'_>) -> Result<&'r DeadlockSnapshot, Rejected> {
        let n = n64::get(r)?;
        let mut edges = Vec::with_capacity(n.min(4096) as usize);
        for _ in 0..n {
            edges.push(WaitEdge {
                channel: slot::get(r)?,
                packet: n32::get(r)?,
                buffered: n32::get(r)? as usize,
                head_waiting: flag::get(r)?,
                waits_for: slot_opt::get(r)?,
            });
        }
        let (now, layout) = (r.now, r.layout);
        Ok(r.snapshot.insert(DeadlockSnapshot { now, layout, edges }))
    }
}

mod frame {
    use super::*;
    pub fn put(buf: &mut Vec<u8>, v: &TelemetryFrame) {
        let payload = encode_frame_payload(v);
        n64::put(buf, payload.len() as u64);
        buf.extend_from_slice(&payload);
    }
    pub fn get<'r>(r: &'r mut Reader<'_>) -> Result<&'r TelemetryFrame, Rejected> {
        let offset = r.pos.saturating_sub(1);
        let len = n64::get(r)?;
        let (rest, slots) = (&r.bytes[r.pos..], r.slots);
        let payload = usize::try_from(len).ok().and_then(|len| rest.get(..len));
        let Some(payload) = payload else {
            return Err(r.fail(LogError::Truncated));
        };
        let frame = decode_frame_payload(payload).and_then(|f| {
            match f.channels.iter().find(|c| c.slot as u64 >= slots) {
                Some(c) => Err(format!("channel slot {} is outside the network", c.slot)),
                None => Ok(f),
            }
        });
        match frame {
            Ok(frame) => {
                r.pos += payload.len();
                Ok(r.frame.insert(frame))
            }
            Err(why) => Err(r.fail(LogError::BadFrame { offset, why })),
        }
    }
}

mod alert {
    use super::*;
    pub fn put(buf: &mut Vec<u8>, v: &Alert) {
        n64::put(buf, v.kind.code());
        n64::put(buf, v.seq);
        n64::put(buf, v.cycle);
        slot_opt::put(buf, v.slot);
        n64::put(buf, v.value);
        n64::put(buf, v.threshold);
    }
    pub fn get<'r>(r: &'r mut Reader<'_>) -> Result<&'r Alert, Rejected> {
        let (offset, value) = (r.pos, n64::get(r)?);
        let field = "alert kind";
        let Some(kind) = AlertKind::from_code(value) else {
            return Err(r.fail(LogError::OutOfRange {
                offset,
                field,
                value,
            }));
        };
        let alert = Alert {
            kind,
            seq: n64::get(r)?,
            cycle: n64::get(r)?,
            slot: slot_opt::get(r)?,
            value: n64::get(r)?,
            threshold: n64::get(r)?,
        };
        Ok(r.alert.insert(alert))
    }
}
