//! `turnstat` — record, summarize, replay, diff, and verify turntrace
//! event logs.
//!
//! Usage:
//!
//! ```text
//! turnstat record --out DIR [--seed N] [--quick]
//!     run the canonical scenario, writing DIR/run.ttr (binary log,
//!     telemetry frames included), DIR/aggregates.json (replayable
//!     aggregate artifact), and DIR/metrics.prom (Prometheus text)
//!
//! turnstat summarize FILE [--from N] [--to N]
//!     print a log's header and per-event-kind counts; with --from/--to,
//!     count only events inside the cycle window (integrity is still
//!     checked over the whole stream)
//!
//! turnstat frames FILE [--out FILE] [--prom FILE] [--check] [--inject-bad]
//!     export the log's telemetry frames and alerts as JSON-lines (to
//!     --out, else stdout) and optionally as windowed Prometheus text
//!     (--prom); with --check, re-derive the frames and alerts from the
//!     raw hook stream and require them to match the logged ones exactly;
//!     with --inject-bad, tamper with frame framing in memory and plant a
//!     synthetic saturation ramp, requiring every corruption to be
//!     rejected and the blocked-mass detector to fire (self-test: exits
//!     nonzero)
//!
//! turnstat replay FILE --out FILE
//!     re-drive the aggregate stack from the log (no simulation) and
//!     write its aggregates.json
//!
//! turnstat diff A B
//!     compare two logs; exit zero iff they are byte-identical
//!
//! turnstat verify FILE [--against AGG.json] [--inject-bad]
//!     full integrity walk (framing, checksum, every event); with
//!     --against, additionally require the replayed aggregates to be
//!     byte-identical to a live-recorded artifact; with --inject-bad,
//!     corrupt the log in memory (truncation + bit flips) and require
//!     every corruption to be rejected (self-test: exits nonzero)
//!
//! turnstat profile [--seed N] [--quick]
//!     run the canonical scenario with the engine phase profiler and
//!     print the per-phase wall-clock table
//! ```

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use turnroute_obslog::log::fnv1a64;
use turnroute_obslog::{
    artifact, frame_offsets, metrics, replay, scenario, verify_bytes, FrameScope, LogSummary,
    Registry, ReplayableAggregates,
};
use turnroute_sim::obs::{ChannelLayout, ChannelWindow, Event, StreamingHistogram};
use turnroute_sim::{
    Alert, AlertKind, DetectorBank, NoopObserver, PhaseProfiler, Sim, SimObserver, TelemetryFrame,
};

fn usage() -> ExitCode {
    eprintln!(
        "usage: turnstat record --out DIR [--seed N] [--quick]\n\
         \x20      turnstat summarize FILE [--from N] [--to N]\n\
         \x20      turnstat frames FILE [--out FILE] [--prom FILE] [--check] [--inject-bad]\n\
         \x20      turnstat replay FILE --out FILE\n\
         \x20      turnstat diff A B\n\
         \x20      turnstat verify FILE [--against AGG.json] [--inject-bad]\n\
         \x20      turnstat profile [--seed N] [--quick]"
    );
    ExitCode::FAILURE
}

fn read_log(path: &Path) -> Result<Vec<u8>, ExitCode> {
    std::fs::read(path).map_err(|e| {
        eprintln!("turnstat: cannot read {}: {e}", path.display());
        ExitCode::FAILURE
    })
}

fn write_text(path: &Path, content: &str) -> Result<(), ExitCode> {
    artifact::write_artifact(path, content).map_err(|e| {
        eprintln!("turnstat: cannot write {}: {e}", path.display());
        ExitCode::FAILURE
    })
}

struct Common {
    seed: u64,
    quick: bool,
    out: Option<PathBuf>,
    against: Option<PathBuf>,
    prom: Option<PathBuf>,
    from: Option<u64>,
    to: Option<u64>,
    check: bool,
    inject_bad: bool,
    files: Vec<PathBuf>,
}

fn parse(mut args: std::env::Args) -> Option<Common> {
    let mut c = Common {
        seed: 7,
        quick: false,
        out: None,
        against: None,
        prom: None,
        from: None,
        to: None,
        check: false,
        inject_bad: false,
        files: Vec::new(),
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => c.quick = true,
            "--check" => c.check = true,
            "--inject-bad" => c.inject_bad = true,
            "--seed" => c.seed = args.next()?.parse().ok()?,
            "--from" => c.from = Some(args.next()?.parse().ok()?),
            "--to" => c.to = Some(args.next()?.parse().ok()?),
            "--out" => c.out = Some(PathBuf::from(args.next()?)),
            "--against" => c.against = Some(PathBuf::from(args.next()?)),
            "--prom" => c.prom = Some(PathBuf::from(args.next()?)),
            _ if arg.starts_with("--") => return None,
            _ => c.files.push(PathBuf::from(arg)),
        }
    }
    Some(c)
}

fn main() -> ExitCode {
    let mut args = std::env::args();
    let _ = args.next();
    let Some(cmd) = args.next() else {
        return usage();
    };
    let Some(c) = parse(args) else {
        return usage();
    };
    match (cmd.as_str(), c.files.len()) {
        ("record", 0) => record(&c),
        ("summarize", 1) => summarize(&c),
        ("frames", 1) => frames_cmd(&c),
        ("replay", 1) => replay_cmd(&c),
        ("diff", 2) => diff(&c),
        ("verify", 1) => verify(&c),
        ("profile", 0) => profile(&c),
        _ => usage(),
    }
}

fn record(c: &Common) -> ExitCode {
    let Some(dir) = &c.out else {
        eprintln!("turnstat record: --out DIR is required");
        return ExitCode::FAILURE;
    };
    let rec = scenario::record(c.seed, c.quick);
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("turnstat: cannot create {}: {e}", dir.display());
        return ExitCode::FAILURE;
    }
    // The log is binary: raw bytes, no newline normalization.
    let log_path = dir.join("run.ttr");
    if let Err(e) = std::fs::write(&log_path, &rec.bytes) {
        eprintln!("turnstat: cannot write {}: {e}", log_path.display());
        return ExitCode::FAILURE;
    }
    if write_text(
        &dir.join("aggregates.json"),
        &rec.aggregates.snapshot_json(),
    )
    .is_err()
        || write_text(
            &dir.join("metrics.prom"),
            &rec.aggregates.to_registry().prometheus_text(),
        )
        .is_err()
    {
        return ExitCode::FAILURE;
    }
    eprintln!(
        "turnstat: recorded seed {} ({} bytes, {} packets delivered, {} frames) into {}",
        c.seed,
        rec.bytes.len(),
        rec.report.delivered_packets,
        rec.frames.len(),
        dir.display()
    );
    ExitCode::SUCCESS
}

fn summarize(c: &Common) -> ExitCode {
    let bytes = match read_log(&c.files[0]) {
        Ok(b) => b,
        Err(code) => return code,
    };
    let windowed = c.from.is_some() || c.to.is_some();
    let (from, to) = (c.from.unwrap_or(0), c.to.unwrap_or(u64::MAX));
    let result = if windowed {
        turnroute_obslog::replay_bounded(&bytes, &mut NoopObserver, from, to)
    } else {
        turnroute_obslog::summarize(&bytes)
    };
    match result {
        Ok(s) => {
            if windowed {
                println!(
                    "window: cycles {from}..{} (integrity checked over the whole stream)",
                    if to == u64::MAX {
                        "end".to_string()
                    } else {
                        to.to_string()
                    }
                );
            }
            print!("{}", s.render());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("turnstat: rejected: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Collects the frame and alert events a log carries, as decoded by the
/// replayer.
#[derive(Default)]
struct FrameStream {
    frames: Vec<TelemetryFrame>,
    alerts: Vec<Alert>,
}

impl SimObserver for FrameStream {
    fn on_event(&mut self, _now: u64, ev: &Event<'_>) {
        match *ev {
            Event::Frame(frame) => self.frames.push(frame.clone()),
            Event::Alert(alert) => self.alerts.push(*alert),
            _ => {}
        }
    }
}

fn frames_cmd(c: &Common) -> ExitCode {
    let bytes = match read_log(&c.files[0]) {
        Ok(b) => b,
        Err(code) => return code,
    };
    if c.inject_bad {
        return frames_inject_bad(&bytes);
    }
    let mut stream = FrameStream::default();
    let header = match replay(&bytes, &mut stream) {
        Ok(LogSummary { header, .. }) => header,
        Err(e) => {
            eprintln!("turnstat: rejected: {e}");
            return ExitCode::FAILURE;
        }
    };
    if stream.frames.is_empty() {
        eprintln!("turnstat frames: log carries no telemetry frames (record without frames?)");
        return ExitCode::FAILURE;
    }
    let mut jsonl = String::new();
    for f in &stream.frames {
        jsonl.push_str(&f.to_json());
        jsonl.push('\n');
    }
    for a in &stream.alerts {
        jsonl.push_str(&a.to_json());
        jsonl.push('\n');
    }
    match &c.out {
        Some(out) => {
            if write_text(out, &jsonl).is_err() {
                return ExitCode::FAILURE;
            }
        }
        None => print!("{jsonl}"),
    }
    if let Some(prom) = &c.prom {
        let mut reg = Registry::new();
        metrics::export_frames(&mut reg, &stream.frames, &stream.alerts);
        if write_text(prom, &reg.prometheus_text()).is_err() {
            return ExitCode::FAILURE;
        }
    }
    if c.check {
        // Re-derive frames and alerts from the raw event stream with a
        // fresh scope, which ignores the logged frame/alert events
        // entirely. Frame 0 opens at cycle 0, so its window length *is*
        // the cadence — no out-of-band configuration needed.
        let cadence = stream.frames[0].window_len();
        let mut re = FrameScope::new(&header, cadence);
        if let Err(e) = replay(&bytes, &mut re) {
            eprintln!("turnstat: rejected: {e}");
            return ExitCode::FAILURE;
        }
        if re.frames() != stream.frames {
            eprintln!(
                "turnstat frames: re-derived frames DIFFER from logged frames ({} vs {})",
                re.frames().len(),
                stream.frames.len()
            );
            return ExitCode::FAILURE;
        }
        if re.alerts() != stream.alerts {
            eprintln!(
                "turnstat frames: re-derived alerts DIFFER from logged alerts ({} vs {})",
                re.alerts().len(),
                stream.alerts.len()
            );
            return ExitCode::FAILURE;
        }
        println!(
            "frames match: {} frames, {} alerts re-derived identically",
            stream.frames.len(),
            stream.alerts.len()
        );
    }
    eprintln!(
        "turnstat: {} frames, {} alerts",
        stream.frames.len(),
        stream.alerts.len()
    );
    ExitCode::SUCCESS
}

/// Re-seal a checksum-stripped body so only content-level validation can
/// catch the tampering.
fn reseal(mut body: Vec<u8>) -> Vec<u8> {
    let sum = fnv1a64(&body);
    body.extend_from_slice(&sum.to_le_bytes());
    body
}

/// First byte index after the varint starting at `at`.
fn varint_end(bytes: &[u8], mut at: usize) -> usize {
    while bytes[at] & 0x80 != 0 {
        at += 1;
    }
    at + 1
}

/// Self-test for the turnscope layer: tamper with frame framing behind a
/// freshly re-sealed checksum (the checksum cannot save us — only strict
/// frame decoding can), and plant a synthetic saturation ramp that the
/// blocked-mass growth detector must flag. Mirrors `turnstat verify
/// --inject-bad`: exits nonzero when every check passes so CI can invert.
fn frames_inject_bad(bytes: &[u8]) -> ExitCode {
    if let Err(e) = verify_bytes(bytes) {
        eprintln!("turnstat: input log is itself invalid ({e}); nothing to self-test");
        return ExitCode::FAILURE;
    }
    let offsets = match frame_offsets(bytes) {
        Ok(o) if !o.is_empty() => o,
        Ok(_) => {
            eprintln!("turnstat frames: log carries no telemetry frames; nothing to self-test");
            return ExitCode::FAILURE;
        }
        Err(e) => {
            eprintln!("turnstat: rejected: {e}");
            return ExitCode::FAILURE;
        }
    };
    fn caught(name: &str, corrupted: &[u8]) -> bool {
        match verify_bytes(corrupted) {
            Err(e) => {
                eprintln!("turnstat: {name}: rejected: {e}");
                true
            }
            Ok(_) => {
                eprintln!("turnstat: {name}: ACCEPTED — corruption went undetected");
                false
            }
        }
    }
    let mut all_caught = true;
    // 1. Shrink/grow the first frame's declared payload length by one and
    //    re-seal: the payload no longer decodes to exactly its length.
    let mut bad = bytes[..bytes.len() - 8].to_vec();
    let len_at = offsets[0] + 1;
    if bad[len_at] & 0x7f != 0 {
        bad[len_at] -= 1;
    } else {
        bad[len_at] += 1;
    }
    all_caught &= caught("frame-length-tamper", &reseal(bad));
    // 2. Flip the frame's schema version byte (first payload byte) and
    //    re-seal: strict decoding refuses unknown versions.
    let mut bad = bytes[..bytes.len() - 8].to_vec();
    let payload_at = varint_end(&bad, offsets[0] + 1);
    bad[payload_at] ^= 0x7f;
    all_caught &= caught("frame-version-tamper", &reseal(bad));
    // 3. Plant a saturation ramp — blocked-cycle mass strictly rising
    //    across windows, well past the slope floor — and require the
    //    blocked-mass growth detector to fire before the ramp tops out.
    let mut bank = DetectorBank::new(2);
    let mut fired = None;
    for (seq, mass) in [100u64, 220, 380, 560, 900].into_iter().enumerate() {
        let seq = seq as u64;
        let frame = TelemetryFrame {
            seq,
            window_start: seq * 1_000,
            window_end: seq * 1_000 + 999,
            injected_packets: 40,
            delivered_packets: 35,
            dropped_packets: 0,
            in_flight_packets: 5,
            open_heal_epochs: 0,
            latency: StreamingHistogram::new(),
            channels: vec![
                ChannelWindow {
                    slot: 0,
                    util: 400,
                    blocked: mass / 2,
                },
                ChannelWindow {
                    slot: 1,
                    util: 400,
                    blocked: mass - mass / 2,
                },
            ],
        };
        for alert in bank.push(&frame) {
            if alert.kind == AlertKind::BlockedMassGrowth && fired.is_none() {
                fired = Some(alert);
            }
        }
    }
    match fired {
        Some(a) => eprintln!(
            "turnstat: planted-saturation: blocked-mass detector fired at seq {} (mass {} >= floor {})",
            a.seq, a.value, a.threshold
        ),
        None => {
            eprintln!("turnstat: planted-saturation: detector STAYED SILENT through the ramp");
            all_caught = false;
        }
    }
    if all_caught {
        eprintln!("turnstat: self-test ok: every injected corruption was rejected");
        ExitCode::FAILURE // inject-bad runs report failure by design
    } else {
        ExitCode::SUCCESS // detector is blind: let CI's inversion catch it
    }
}

fn replay_into_aggregates(bytes: &[u8]) -> Result<ReplayableAggregates, ExitCode> {
    let header = match turnroute_obslog::summarize(bytes) {
        Ok(s) => s.header,
        Err(e) => {
            eprintln!("turnstat: rejected: {e}");
            return Err(ExitCode::FAILURE);
        }
    };
    let layout = ChannelLayout::new(header.nodes as usize, header.dims as usize);
    let mut agg = ReplayableAggregates::new(layout);
    match replay(bytes, &mut agg) {
        Ok(_) => Ok(agg),
        Err(e) => {
            eprintln!("turnstat: rejected: {e}");
            Err(ExitCode::FAILURE)
        }
    }
}

fn replay_cmd(c: &Common) -> ExitCode {
    let Some(out) = &c.out else {
        eprintln!("turnstat replay: --out FILE is required");
        return ExitCode::FAILURE;
    };
    let bytes = match read_log(&c.files[0]) {
        Ok(b) => b,
        Err(code) => return code,
    };
    let agg = match replay_into_aggregates(&bytes) {
        Ok(a) => a,
        Err(code) => return code,
    };
    if write_text(out, &agg.snapshot_json()).is_err() {
        return ExitCode::FAILURE;
    }
    eprintln!("turnstat: replayed aggregates written to {}", out.display());
    ExitCode::SUCCESS
}

fn diff(c: &Common) -> ExitCode {
    let (a, b) = match (read_log(&c.files[0]), read_log(&c.files[1])) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(code), _) | (_, Err(code)) => return code,
    };
    if a == b {
        println!("identical ({} bytes)", a.len());
        return ExitCode::SUCCESS;
    }
    println!("logs differ: {} vs {} bytes", a.len(), b.len());
    if let Some(at) = a.iter().zip(b.iter()).position(|(x, y)| x != y) {
        println!("first differing byte at offset {at}");
    }
    // Field-level context when both parse.
    if let (Ok(sa), Ok(sb)) = (
        turnroute_obslog::summarize(&a),
        turnroute_obslog::summarize(&b),
    ) {
        for key in ["seed", "config_hash"] {
            let (va, vb) = match key {
                "seed" => (sa.header.seed, sb.header.seed),
                _ => (sa.header.config_hash, sb.header.config_hash),
            };
            if va != vb {
                println!("header {key}: {va:#x} vs {vb:#x}");
            }
        }
        for (kind, na) in &sa.counts {
            let nb = sb.count(kind);
            if *na != nb {
                println!("events {kind}: {na} vs {nb}");
            }
        }
    }
    ExitCode::FAILURE
}

fn verify(c: &Common) -> ExitCode {
    let bytes = match read_log(&c.files[0]) {
        Ok(b) => b,
        Err(code) => return code,
    };
    if c.inject_bad {
        return verify_inject_bad(&bytes);
    }
    let summary = match verify_bytes(&bytes) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("turnstat: rejected: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "verified: {} events over {} cycles, checksum ok",
        summary.events, summary.cycles
    );
    if let Some(against) = &c.against {
        let expected = match std::fs::read_to_string(against) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("turnstat: cannot read {}: {e}", against.display());
                return ExitCode::FAILURE;
            }
        };
        let agg = match replay_into_aggregates(&bytes) {
            Ok(a) => a,
            Err(code) => return code,
        };
        let replayed = artifact::normalized(agg.snapshot_json());
        if replayed == artifact::normalized(expected) {
            println!(
                "verified: replayed aggregates byte-identical to {}",
                against.display()
            );
        } else {
            eprintln!(
                "turnstat: replayed aggregates DIFFER from {} — log and artifact disagree",
                against.display()
            );
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

/// Self-test: corrupt the (valid) log several ways in memory; every
/// corruption must be rejected. Mirrors `turnlint --inject-bad`: the
/// command exits nonzero so CI can assert the detector actually detects.
fn verify_inject_bad(bytes: &[u8]) -> ExitCode {
    if let Err(e) = verify_bytes(bytes) {
        eprintln!("turnstat: input log is itself invalid ({e}); nothing to self-test");
        return ExitCode::FAILURE;
    }
    fn caught(name: &str, corrupted: &[u8]) -> bool {
        match verify_bytes(corrupted) {
            Err(e) => {
                eprintln!("turnstat: {name}: rejected: {e}");
                true
            }
            Ok(_) => {
                eprintln!("turnstat: {name}: ACCEPTED — corruption went undetected");
                false
            }
        }
    }
    let mut all_caught = true;
    all_caught &= caught("truncated-75%", &bytes[..bytes.len() * 3 / 4]);
    all_caught &= caught("truncated-mid-trailer", &bytes[..bytes.len() - 4]);
    for (name, at) in [
        ("bit-flip-header", 16usize),
        ("bit-flip-body", bytes.len() / 2),
        ("bit-flip-checksum", bytes.len() - 2),
    ] {
        let mut bad = bytes.to_vec();
        bad[at] ^= 0x20;
        all_caught &= caught(name, &bad);
    }
    if all_caught {
        eprintln!("turnstat: self-test ok: every injected corruption was rejected");
        ExitCode::FAILURE // inject-bad runs report failure by design
    } else {
        ExitCode::SUCCESS // detector is blind: let CI's inversion catch it
    }
}

fn profile(c: &Common) -> ExitCode {
    let s = scenario::canonical(c.seed, c.quick);
    let mut prof = PhaseProfiler::new();
    let mut sim = Sim::new(&s.mesh, &*s.routing, &s.pattern, s.cfg);
    let report = sim.run_profiled(&mut prof);
    print!("{}", prof.render());
    println!(
        "delivered {} packets, avg latency {:.1} cycles",
        report.delivered_packets, report.avg_latency_cycles
    );
    ExitCode::SUCCESS
}
