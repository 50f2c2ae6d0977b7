//! `record_replay`: a run recorded into a TTRL log with telemetry frames,
//! then verified once and replayed five times without simulating. Write
//! sits beside read so a codec change that helps one and costs the other
//! shows.

use super::{report_digest, timed, Layers, Rep, Workload};
use crate::stats::fnv1a64;
use crate::trace::Tracer;
use std::hint::black_box;
use std::time::Instant;
use turnroute_obslog::{replay, verify_bytes, LogObserver, ReplayableAggregates};
use turnroute_routing::{mesh2d, RoutingMode};
use turnroute_sim::obs::ChannelLayout;
use turnroute_sim::{FrameCollector, InvariantObserver, NoopObserver, Sim, SimConfig, SimObserver};
use turnroute_topology::Mesh;
use turnroute_traffic::Uniform;

pub const RECORD_REPLAY: Workload = Workload {
    name: "record_replay",
    why: "obslog does the work: event encoding on the recording run, decoding on verify and replay",
    min_reps: 3,
    setup,
    rep,
    layers,
};

const RATE: f64 = 0.20;
/// Warm-up, measure and drain of the recorded run: 20,000 cycles in all.
const PROTOCOL: (u64, u64, u64) = (2_000, 16_000, 2_000);
const RUN_CYCLES: u64 = PROTOCOL.0 + PROTOCOL.1 + PROTOCOL.2;
const FRAME_CADENCE: u64 = 1_000;
const REPLAYS: usize = 5;

fn config(seed: u64) -> SimConfig {
    SimConfig::builder()
        .injection_rate(RATE)
        .seed(seed)
        .warmup_cycles(PROTOCOL.0)
        .measure_cycles(PROTOCOL.1)
        .drain_cycles(PROTOCOL.2)
        .build()
}

fn setup(seed: u64) {
    let mesh = Mesh::new_2d(16, 16);
    let routing = mesh2d::west_first(RoutingMode::Minimal);
    let pattern = Uniform::new();
    let cfg = config(seed);
    let log = LogObserver::start_with_frames(&mesh, &routing, &pattern, &cfg, "sim", FRAME_CADENCE);
    let live = ReplayableAggregates::new(ChannelLayout::for_topology(&mesh));
    let sim = Sim::with_observer(&mesh, &routing, &pattern, cfg, (log, live));
    black_box(sim.now());
}

fn rep(seed: u64, tr: &mut Tracer) -> Rep {
    let mesh = Mesh::new_2d(16, 16);
    let routing = mesh2d::west_first(RoutingMode::Minimal);
    let pattern = Uniform::new();
    let layout = ChannelLayout::for_topology(&mesh);
    let cfg = config(seed);
    let mut sim = tr.scope("sim.engine.new", |_| {
        let log =
            LogObserver::start_with_frames(&mesh, &routing, &pattern, &cfg, "sim", FRAME_CADENCE);
        let live = ReplayableAggregates::new(layout);
        Sim::with_observer(&mesh, &routing, &pattern, cfg.clone(), (log, live))
    });

    let mut timed_s = Vec::new();
    let (report, flit_hops, live, bytes) = timed(tr, "obslog.record", &mut timed_s, |tr| {
        let report = tr.scope("sim.engine.run", |_| sim.run());
        let flit_hops = sim.total_channel_flits();
        let (log, mut live) = sim.into_observer();
        // The recorder seals frames and alerts itself instead of firing
        // them down the hook chain; hand them to the live aggregates so
        // they count what a replay of the log will.
        for frame in log.frames() {
            live.on_frame(frame.window_end, frame);
        }
        for alert in log.alerts() {
            live.on_alert(alert.cycle, alert);
        }
        let bytes = tr.scope("obslog.log.finish", |_| log.finish());
        (report, flit_hops, live, bytes)
    });
    let (verified, replayed) = tr.scope("obslog.replay", |tr| {
        let verified = timed(tr, "obslog.replay.verify", &mut timed_s, |_| {
            verify_bytes(&bytes)
        });
        let replayed: Vec<_> = (0..REPLAYS)
            .map(|_| {
                timed(tr, "obslog.replay.pass", &mut timed_s, |_| {
                    let mut fresh = ReplayableAggregates::new(layout);
                    replay(&bytes, &mut fresh).map(|_| fresh.snapshot_json())
                })
            })
            .collect();
        (verified, replayed)
    });
    let (record_s, replay_s) = (timed_s[0], timed_s[1..].iter().sum());

    let live_json = live.snapshot_json();
    let events = verified.as_ref().map_or(0, |s| s.events);
    let failed = u64::from(report.deadlocked)
        + u64::from(verified.is_err())
        + replayed
            .iter()
            .filter(|r| r.as_ref().ok() != Some(&live_json))
            .count() as u64;
    let mut digest = report_digest(&report, flit_hops);
    digest.extend([
        ("log_bytes", bytes.len() as u64),
        ("log_events", events),
        ("log_fnv", fnv1a64(&bytes)),
        ("snapshot_fnv", fnv1a64(live_json.as_bytes())),
    ]);
    Rep {
        timed_s,
        sim_cycles: RUN_CYCLES,
        // The recording run, the verify walk, and each replay.
        ops: 2 + REPLAYS as u64,
        failed,
        digest,
        parts: vec![
            ("record_s", record_s),
            ("replay_s", replay_s),
            ("bytes", bytes.len() as f64),
            ("events", events as f64),
        ],
    }
}

/// An enabled observer with every hook left empty: the price of attaching
/// anything at all.
struct ArmedNoop;

impl SimObserver for ArmedNoop {}

/// ns per cycle of the recorded run's configuration with `observer`
/// attached instead of the recorder.
fn ladder_rung<O: SimObserver>(span: &'static str, seed: u64, observer: O, tr: &mut Tracer) -> f64 {
    let mesh = Mesh::new_2d(16, 16);
    let routing = mesh2d::west_first(RoutingMode::Minimal);
    let pattern = Uniform::new();
    let mut sim = Sim::with_observer(&mesh, &routing, &pattern, config(seed), observer);
    let start = Instant::now();
    tr.scope(span, |_| black_box(sim.run()));
    start.elapsed().as_secs_f64() * 1e9 / RUN_CYCLES as f64
}

fn layers(seed: u64, tr: &mut Tracer, traced: &[Rep], out: &mut Layers) {
    let reps = traced.len() as f64;
    let mean = |part: &str| traced.iter().map(|r| r.part(part)).sum::<f64>() / reps;
    let (bytes, events) = (traced[0].part("bytes"), traced[0].part("events"));
    let mb = bytes / 1e6;
    out.set("obslog.record_s", mean("record_s"));
    out.set("obslog.replay_s", mean("replay_s"));
    out.set("obslog.log.bytes", bytes);
    out.set("obslog.log.events", events);
    out.set("obslog.log.record_mb_per_s", mb / mean("record_s"));

    let verify_s = tr.self_ns("obslog.replay.verify") / 1e9 / reps;
    let pass_s = tr.self_ns("obslog.replay.pass") / 1e9 / (reps * REPLAYS as f64);
    out.set("obslog.replay.verify_mb_per_s", mb / verify_s);
    out.set("obslog.replay.mb_per_s", mb / pass_s);
    out.set("obslog.replay.ns_per_event", pass_s * 1e9 / events);

    // The observer ladder: the same run with one observer each, from
    // nothing attached up to the recorder, so the recorder's own cost is
    // the top rung minus the bottom one.
    let mesh = Mesh::new_2d(16, 16);
    let layout = ChannelLayout::for_topology(&mesh);
    let cfg = config(seed);
    let routing = mesh2d::west_first(RoutingMode::Minimal);
    let noop = ladder_rung("sim.obs.ladder.noop", seed, NoopObserver, tr);
    let armed = ladder_rung("sim.obs.ladder.armed", seed, ArmedNoop, tr);
    let frames = ladder_rung(
        "sim.obs.ladder.frames",
        seed,
        FrameCollector::new(layout.num_channels, FRAME_CADENCE),
        tr,
    );
    let sanitizer = ladder_rung(
        "sim.obs.ladder.sanitizer",
        seed,
        InvariantObserver::new(layout, cfg.buffer_depth),
        tr,
    );
    let log = ladder_rung(
        "sim.obs.ladder.log",
        seed,
        LogObserver::start(&mesh, &routing, &Uniform::new(), &cfg, "sim"),
        tr,
    );
    out.set("sim.obs.ladder.noop_ns_per_cycle", noop);
    out.set("sim.obs.ladder.armed_ns_per_cycle", armed);
    out.set("sim.obs.ladder.frames_ns_per_cycle", frames);
    out.set("sim.obs.ladder.sanitizer_ns_per_cycle", sanitizer);
    out.set("sim.obs.ladder.log_ns_per_cycle", log);
    out.set(
        "obslog.log.ns_per_event",
        (mean("record_s") * 1e9 - noop * RUN_CYCLES as f64) / events,
    );
}
