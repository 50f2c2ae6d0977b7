//! The append-only binary event log and the observer that records it.
//!
//! # Framing
//!
//! A log is one contiguous byte stream (see DESIGN.md §10):
//!
//! ```text
//! magic "TTRL" | version u16 LE | header_len u32 LE | header text
//! | event* | END tag | event_count varint | FNV-1a-64 checksum u64 LE
//! ```
//!
//! The header is line-oriented `key=value` text in a fixed key order, so
//! it is both human-readable (`strings run.ttr | head`) and trivially
//! parseable without a JSON reader. It carries everything needed to
//! interpret the body — engine, topology shape, routing algorithm and its
//! declared turn set, traffic pattern, seed, the full canonical
//! configuration (fault plan included) and its hash.
//!
//! The body is the serialized [`Event`] stream; [`crate::codec`] states
//! every kind's tag and operands. Cycle numbers are delta-encoded: a
//! `CYCLE_ADVANCE` moves the clock, and every following event implicitly
//! happens at the current cycle. Recording the same `(config, seed)`
//! twice yields byte-identical logs because the engine is deterministic
//! and this encoding has exactly one form per event stream.
//!
//! Arbitration outcomes are captured by the event vocabulary itself:
//! winners appear as `Turn` events (the grant names the turn taken) and
//! losers as `Stall` events with the `NotRouted` reason.
//!
//! # Telemetry frames
//!
//! A recorder built with [`LogObserver::with_frames`] additionally rides
//! a [`FrameScope`]: every `cadence` cycles it seals a telemetry frame
//! and writes it into the stream as a `Frame` event (length-prefixed,
//! see [`crate::frame_codec`]), followed by any early-warning `Alert`
//! events the detectors raise on that frame. Frames are derived purely
//! from the same events the log records, so replaying the log through a
//! fresh scope re-seals byte-identical frames — `turnstat frames --check`
//! enforces exactly that.

use crate::codec::{self, tag};
use turnroute_model::RoutingFunction;
use turnroute_sim::obs::{ChannelLayout, Event};
use turnroute_sim::{
    Alert, DetectorBank, FaultTarget, FrameCollector, LengthDist, SimConfig, SimObserver,
    TelemetryFrame,
};
use turnroute_topology::Topology;
use turnroute_traffic::TrafficPattern;

/// First four bytes of every log file.
pub const MAGIC: [u8; 4] = *b"TTRL";
/// Current format version.
pub const VERSION: u16 = 1;

/// Append `v` as an LEB128 varint.
#[inline]
pub fn write_varint(buf: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(byte);
            return;
        }
        buf.push(byte | 0x80);
    }
}

/// FNV-1a 64-bit hash of `bytes`.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The canonical one-line rendering of a configuration — the string the
/// header's `config_hash` is computed over. Every field participates, so
/// two configs hash equal iff they are equal.
pub fn canonical_config(cfg: &SimConfig) -> String {
    let lengths = match cfg.lengths {
        LengthDist::Fixed(n) => format!("fixed({n})"),
        LengthDist::Bimodal { short, long } => format!("bimodal({short},{long})"),
    };
    format!(
        "rate={};lengths={};warmup={};measure={};drain={};seed={};input={:?};output={:?};\
         misroute_budget={};deadlock_threshold={};buffer_depth={};routing_delay={};\
         record_paths={};timeout={};retries={};faults={}",
        cfg.injection_rate,
        lengths,
        cfg.warmup_cycles,
        cfg.measure_cycles,
        cfg.drain_cycles,
        cfg.seed,
        cfg.input_policy,
        cfg.output_policy,
        cfg.misroute_budget,
        cfg.deadlock_threshold,
        cfg.buffer_depth,
        cfg.routing_delay,
        cfg.record_paths,
        cfg.packet_timeout,
        cfg.max_retries,
        canonical_fault_plan(cfg),
    )
}

/// Canonical rendering of the scheduled fault plan.
fn canonical_fault_plan(cfg: &SimConfig) -> String {
    let mut out = String::from("[");
    for (i, f) in cfg.fault_plan.faults().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        match f.target {
            FaultTarget::Link { node, dir } => {
                out.push_str(&format!("link({},{})", node.0, dir.index()));
            }
            FaultTarget::Node(v) => out.push_str(&format!("node({})", v.0)),
        }
        match f.duration {
            Some(d) => out.push_str(&format!("@{}+{}", f.start, d)),
            None => out.push_str(&format!("@{}+inf", f.start)),
        }
    }
    out.push(']');
    out
}

/// Human description of a topology's shape: radices joined by `x`, with a
/// wrap marker when any dimension wraps around.
pub fn describe_topology(topo: &dyn Topology) -> String {
    let radices: Vec<String> = (0..topo.num_dims())
        .map(|d| topo.radix(d).to_string())
        .collect();
    let wrap = (0..topo.num_dims()).any(|d| topo.has_wraparound(d));
    format!("{}{}", radices.join("x"), if wrap { " wrap" } else { "" })
}

/// The self-describing header at the front of every log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogHeader {
    /// Which engine recorded the run (`sim` or `vc`).
    pub engine: String,
    /// Topology shape, e.g. `8x8`.
    pub topology: String,
    /// Node count (sizes the replay [`turnroute_sim::obs::ChannelLayout`]).
    pub nodes: u64,
    /// Dimension count (the other half of the layout).
    pub dims: u64,
    /// Routing algorithm name.
    pub routing: String,
    /// Traffic pattern name.
    pub pattern: String,
    /// The routing function's declared turn set, or `-` when it has none.
    pub turns: String,
    /// The run's RNG seed (also inside `config`; surfaced for tooling).
    pub seed: u64,
    /// Canonical configuration string, fault plan included.
    pub config: String,
    /// FNV-1a 64 hash of `config`.
    pub config_hash: u64,
    /// Number of scheduled fault transitions compiled from the plan.
    pub fault_events: u64,
}

/// Header keys, in serialization order. Parsing requires exactly these
/// keys in exactly this order — one canonical byte form per header.
const HEADER_KEYS: [&str; 11] = [
    "engine",
    "topology",
    "nodes",
    "dims",
    "routing",
    "pattern",
    "turns",
    "seed",
    "config",
    "config_hash",
    "fault_events",
];

impl LogHeader {
    /// Describe a run about to be recorded.
    pub fn describe(
        topo: &dyn Topology,
        routing: &dyn RoutingFunction,
        pattern: &dyn TrafficPattern,
        cfg: &SimConfig,
        engine: &str,
    ) -> LogHeader {
        let config = canonical_config(cfg);
        LogHeader {
            engine: engine.to_string(),
            topology: describe_topology(topo),
            nodes: topo.num_nodes() as u64,
            dims: topo.num_dims() as u64,
            routing: routing.name().to_string(),
            pattern: pattern.name().to_string(),
            turns: routing
                .turn_set(topo.num_dims())
                .map_or_else(|| "-".to_string(), |s| s.to_string()),
            seed: cfg.seed,
            config_hash: fnv1a64(config.as_bytes()),
            config,
            fault_events: 2 * cfg.fault_plan.len() as u64
                - cfg
                    .fault_plan
                    .faults()
                    .iter()
                    .filter(|f| f.duration.is_none())
                    .count() as u64,
        }
    }

    /// The header as `key=value` lines in the fixed key order.
    pub fn to_text(&self) -> String {
        let values = [
            self.engine.clone(),
            self.topology.clone(),
            self.nodes.to_string(),
            self.dims.to_string(),
            self.routing.clone(),
            self.pattern.clone(),
            self.turns.clone(),
            self.seed.to_string(),
            self.config.clone(),
            format!("{:016x}", self.config_hash),
            self.fault_events.to_string(),
        ];
        let mut out = String::new();
        for (key, value) in HEADER_KEYS.iter().zip(values.iter()) {
            debug_assert!(!value.contains('\n'), "header values are single-line");
            out.push_str(key);
            out.push('=');
            out.push_str(value);
            out.push('\n');
        }
        out
    }

    /// Parse the `key=value` text back; inverse of [`LogHeader::to_text`].
    pub fn parse(text: &str) -> Result<LogHeader, String> {
        let mut values: Vec<&str> = Vec::with_capacity(HEADER_KEYS.len());
        let mut lines = text.lines();
        for key in HEADER_KEYS {
            let line = lines.next().ok_or_else(|| format!("missing key {key}"))?;
            let (k, v) = line
                .split_once('=')
                .ok_or_else(|| format!("malformed line {line:?}"))?;
            if k != key {
                return Err(format!("expected key {key}, found {k}"));
            }
            values.push(v);
        }
        if lines.next().is_some() {
            return Err("trailing header lines".to_string());
        }
        let int = |s: &str, what: &str| {
            s.parse::<u64>()
                .map_err(|_| format!("bad integer for {what}: {s:?}"))
        };
        Ok(LogHeader {
            engine: values[0].to_string(),
            topology: values[1].to_string(),
            nodes: int(values[2], "nodes")?,
            dims: int(values[3], "dims")?,
            routing: values[4].to_string(),
            pattern: values[5].to_string(),
            turns: values[6].to_string(),
            seed: int(values[7], "seed")?,
            config: values[8].to_string(),
            config_hash: u64::from_str_radix(values[9], 16)
                .map_err(|_| format!("bad config_hash: {:?}", values[9]))?,
            fault_events: int(values[10], "fault_events")?,
        })
    }
}

/// A [`SimObserver`] that serializes every [`Event`] into the binary log
/// format. Compose it with other collectors via the tuple observer; call
/// [`LogObserver::finish`] after the run to seal the log with its trailer
/// and checksum.
#[derive(Debug, Clone)]
pub struct LogObserver {
    stream: Stream,
    frames: Option<FrameScope>,
}

/// The bytes written so far and the clock they stand at.
#[derive(Debug, Clone)]
struct Stream {
    buf: Vec<u8>,
    cycle: u64,
    events: u64,
}

impl Stream {
    /// Append `ev` at cycle `now`, moving the clock first if need be.
    #[inline]
    fn write(&mut self, now: u64, ev: &Event<'_>) {
        if now != self.cycle {
            debug_assert!(now > self.cycle, "simulated time is monotone");
            self.buf.push(tag::CYCLE_ADVANCE);
            write_varint(&mut self.buf, now - self.cycle);
            self.cycle = now;
            self.events += 1;
        }
        codec::encode(ev, &mut self.buf);
        self.events += 1;
    }
}

/// Streaming telemetry over an event stream: the collector that seals
/// windows, the detector bank that watches them, and everything the two
/// have emitted so far. Purely event-derived, so a scope riding a live
/// run and one re-driven from that run's log hold the same frames and
/// alerts (`turnstat frames --check`).
#[derive(Debug, Clone)]
pub struct FrameScope {
    collector: FrameCollector,
    bank: DetectorBank,
    frames: Vec<TelemetryFrame>,
    alerts: Vec<Alert>,
}

impl FrameScope {
    /// A scope sealing one frame per `cadence` cycles, pre-sized for
    /// `header`'s network.
    ///
    /// # Panics
    ///
    /// Panics if `cadence` is zero.
    pub fn new(header: &LogHeader, cadence: u64) -> FrameScope {
        let layout = ChannelLayout::new(header.nodes as usize, header.dims as usize);
        FrameScope {
            collector: FrameCollector::new(layout.num_channels, cadence),
            bank: DetectorBank::new(layout.num_channels),
            frames: Vec::new(),
            alerts: Vec::new(),
        }
    }

    /// Telemetry frames sealed so far.
    pub fn frames(&self) -> &[TelemetryFrame] {
        &self.frames
    }

    /// Early-warning alerts raised so far.
    pub fn alerts(&self) -> &[Alert] {
        &self.alerts
    }
}

impl SimObserver for FrameScope {
    #[inline]
    fn on_event(&mut self, now: u64, ev: &Event<'_>) {
        self.collector.on_event(now, ev);
        if matches!(ev, Event::CycleEnd) {
            for frame in self.collector.take_frames() {
                self.alerts.extend(self.bank.push(&frame));
                self.frames.push(frame);
            }
        }
    }
}

impl LogObserver {
    /// Start a log for a run of `routing` on `topo` under `pattern`,
    /// deriving the header from the run's inputs.
    pub fn start(
        topo: &dyn Topology,
        routing: &dyn RoutingFunction,
        pattern: &dyn TrafficPattern,
        cfg: &SimConfig,
        engine: &str,
    ) -> LogObserver {
        LogObserver::with_header(&LogHeader::describe(topo, routing, pattern, cfg, engine))
    }

    /// Start a log with an explicit header.
    pub fn with_header(header: &LogHeader) -> LogObserver {
        let mut buf = Vec::with_capacity(64 * 1024);
        buf.extend_from_slice(&MAGIC);
        buf.extend_from_slice(&VERSION.to_le_bytes());
        let text = header.to_text();
        buf.extend_from_slice(&(text.len() as u32).to_le_bytes());
        buf.extend_from_slice(text.as_bytes());
        let (cycle, events) = (0, 0);
        LogObserver {
            stream: Stream { buf, cycle, events },
            frames: None,
        }
    }

    /// Start a frame-enabled log: in addition to raw events, seal a
    /// telemetry frame every `cadence` cycles, run the early-warning
    /// detectors on it, and write both into the stream as `Frame` and
    /// `Alert` events.
    ///
    /// The embedded collector is pre-sized from the header's layout and
    /// grows on demand, so engines that number extra virtual-channel
    /// slots (the `vc` engine) record correctly too.
    ///
    /// # Panics
    ///
    /// Panics if `cadence` is zero.
    pub fn with_frames(header: &LogHeader, cadence: u64) -> LogObserver {
        let mut log = LogObserver::with_header(header);
        log.frames = Some(FrameScope::new(header, cadence));
        log
    }

    /// [`LogObserver::with_frames`] with the header derived from the
    /// run's inputs, like [`LogObserver::start`].
    pub fn start_with_frames(
        topo: &dyn Topology,
        routing: &dyn RoutingFunction,
        pattern: &dyn TrafficPattern,
        cfg: &SimConfig,
        engine: &str,
        cadence: u64,
    ) -> LogObserver {
        LogObserver::with_frames(
            &LogHeader::describe(topo, routing, pattern, cfg, engine),
            cadence,
        )
    }

    /// Events recorded so far (cycle advances included).
    pub fn events(&self) -> u64 {
        self.stream.events
    }

    /// Telemetry frames sealed so far (empty unless frame-enabled).
    pub fn frames(&self) -> &[TelemetryFrame] {
        self.frames.as_ref().map_or(&[], FrameScope::frames)
    }

    /// Early-warning alerts raised so far (empty unless frame-enabled).
    pub fn alerts(&self) -> &[Alert] {
        self.frames.as_ref().map_or(&[], FrameScope::alerts)
    }

    /// Bytes buffered so far (header included, trailer not).
    pub fn byte_len(&self) -> usize {
        self.stream.buf.len()
    }

    /// Seal the log: append the end tag, event count, and whole-stream
    /// FNV-1a-64 checksum, and return the complete byte stream.
    pub fn finish(self) -> Vec<u8> {
        let Stream {
            mut buf, events, ..
        } = self.stream;
        buf.push(tag::END);
        write_varint(&mut buf, events);
        let sum = fnv1a64(&buf);
        buf.extend_from_slice(&sum.to_le_bytes());
        buf
    }
}

impl SimObserver for LogObserver {
    /// Records `ev`. A frame-enabled recorder also feeds its scope, and
    /// writes whatever that seals — the frame, then the alerts it trips —
    /// right behind the cycle-end event that sealed it, at the same
    /// cycle. The scope's output is recorded here and *not* fired down
    /// the observer chain: callers hand [`LogObserver::frames`] /
    /// [`LogObserver::alerts`] to whoever else should count them.
    #[inline]
    fn on_event(&mut self, now: u64, ev: &Event<'_>) {
        self.stream.write(now, ev);
        let Some(scope) = &mut self.frames else {
            return;
        };
        let (frames, alerts) = (scope.frames.len(), scope.alerts.len());
        scope.on_event(now, ev);
        // At most one window closes per cycle end, so "each frame, then
        // its alerts" is "the new frames, then the new alerts".
        for frame in &scope.frames[frames..] {
            self.stream.write(now, &Event::Frame(frame));
        }
        for alert in &scope.alerts[alerts..] {
            self.stream.write(now, &Event::Alert(alert));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use turnroute_sim::FaultPlan;
    use turnroute_topology::{Direction, NodeId};

    #[test]
    fn varint_round_trips_boundaries() {
        for v in [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX] {
            let mut buf = Vec::new();
            write_varint(&mut buf, v);
            let mut pos = 0;
            let mut out = 0u64;
            let mut shift = 0;
            loop {
                let b = buf[pos];
                pos += 1;
                out |= u64::from(b & 0x7f) << shift;
                if b & 0x80 == 0 {
                    break;
                }
                shift += 7;
            }
            assert_eq!(out, v);
            assert_eq!(pos, buf.len());
        }
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn canonical_config_covers_fault_plan() {
        let plan = FaultPlan::new()
            .permanent_link(NodeId(5), Direction::EAST, 100)
            .transient_node(NodeId(9), 2_000, 500);
        let a = SimConfig::builder().seed(7).build();
        let b = SimConfig::builder().seed(7).fault_plan(plan).build();
        assert_ne!(canonical_config(&a), canonical_config(&b));
        assert_ne!(
            fnv1a64(canonical_config(&a).as_bytes()),
            fnv1a64(canonical_config(&b).as_bytes())
        );
        assert!(canonical_config(&b).contains("node(9)@2000+500"));
    }

    #[test]
    fn header_text_round_trips() {
        use turnroute_routing::{mesh2d, RoutingMode};
        use turnroute_topology::Mesh;
        use turnroute_traffic::Uniform;
        let mesh = Mesh::new_2d(4, 4);
        let routing = mesh2d::west_first(RoutingMode::Minimal);
        let cfg = SimConfig::builder().seed(3).build();
        let h = LogHeader::describe(&mesh, &routing, &Uniform::new(), &cfg, "sim");
        assert_eq!(h.topology, "4x4");
        assert_eq!(h.nodes, 16);
        assert_eq!(h.seed, 3);
        assert_ne!(h.turns, "-");
        let parsed = LogHeader::parse(&h.to_text()).expect("parses");
        assert_eq!(parsed, h);
    }

    #[test]
    fn frame_enabled_recording_is_deterministic_and_seals_frames() {
        use turnroute_routing::{mesh2d, RoutingMode};
        use turnroute_sim::Sim;
        use turnroute_topology::Mesh;
        use turnroute_traffic::Uniform;
        let record = || {
            let mesh = Mesh::new_2d(4, 4);
            let routing = mesh2d::west_first(RoutingMode::Minimal);
            let pattern = Uniform::new();
            let cfg = SimConfig::builder()
                .injection_rate(0.05)
                .seed(11)
                .warmup_cycles(50)
                .measure_cycles(200)
                .drain_cycles(200)
                .build();
            let log = LogObserver::start_with_frames(&mesh, &routing, &pattern, &cfg, "sim", 64);
            let mut sim = Sim::with_observer(&mesh, &routing, &pattern, cfg, log);
            sim.run();
            let log = sim.into_observer();
            let frames = log.frames().to_vec();
            (log.finish(), frames)
        };
        let (a, frames) = record();
        let (b, _) = record();
        assert_eq!(a, b, "frame-enabled recording is deterministic");
        assert!(frames.len() >= 4, "sealed {} frames", frames.len());
        assert_eq!(frames[0].window_end - frames[0].window_start + 1, 64);
        assert!(frames.iter().any(|f| f.delivered_packets > 0));
        // The frame-enabled log strictly contains the plain log's bytes
        // plus frame events: same run without frames must be shorter.
        let mesh = Mesh::new_2d(4, 4);
        let routing = mesh2d::west_first(RoutingMode::Minimal);
        let pattern = Uniform::new();
        let cfg = SimConfig::builder()
            .injection_rate(0.05)
            .seed(11)
            .warmup_cycles(50)
            .measure_cycles(200)
            .drain_cycles(200)
            .build();
        let log = LogObserver::start(&mesh, &routing, &pattern, &cfg, "sim");
        let mut sim = Sim::with_observer(&mesh, &routing, &pattern, cfg, log);
        sim.run();
        let plain = sim.into_observer().finish();
        assert!(plain.len() < a.len());
    }

    #[test]
    fn header_parse_rejects_mangled_text() {
        use turnroute_routing::mesh2d;
        use turnroute_topology::Mesh;
        use turnroute_traffic::Uniform;
        let mesh = Mesh::new_2d(4, 4);
        let routing = mesh2d::xy();
        let cfg = SimConfig::default();
        let text = LogHeader::describe(&mesh, &routing, &Uniform::new(), &cfg, "sim").to_text();
        assert!(LogHeader::parse(&text.replace("engine=", "motor=")).is_err());
        // Drop the last line entirely: a key goes missing.
        let cut = text.trim_end_matches('\n').rfind('\n').unwrap();
        assert!(LogHeader::parse(&text[..cut + 1]).is_err());
        assert!(LogHeader::parse(&format!("{text}extra=1\n")).is_err());
    }
}
