//! `turntrace`: recording/replay observability for the turn-model
//! simulators.
//!
//! Six pieces, layered on the one event vocabulary every
//! [`turnroute_sim::SimObserver`] sees ([`turnroute_sim::obs::Event`]):
//!
//! * [`log`] — an append-only binary event log. A [`log::LogObserver`]
//!   rides a run and serializes every event (injections, turns,
//!   arbitration outcomes, fault transitions, drops, deliveries) behind a
//!   versioned header that names the configuration hash, seed, fault
//!   plan, and turn set, so a `.ttr` file is self-describing.
//! * [`codec`] — the body format, stated once: per event kind its tag,
//!   its name, its encoder and its range-checking decoder, all from one
//!   table row. The recorder and the reader both come through it.
//! * [`replay()`] — a reader that re-drives *any* observer stack from a log
//!   without re-simulating. Recording the same `(config, seed)` twice
//!   yields byte-identical logs, and replaying a log through
//!   [`ReplayableAggregates`] reproduces the live run's aggregate
//!   artifacts byte for byte — the determinism contract `turnstat
//!   verify` enforces.
//! * [`frame_codec`] — the strict binary codec for the `turnscope`
//!   streaming telemetry frames a frame-enabled recorder
//!   ([`LogObserver::with_frames`]) seals into the stream, alongside
//!   per-packet latency-blame events and early-warning detector alerts.
//!   `turnstat frames` exports the stream as JSON-lines or windowed
//!   Prometheus text and cross-checks logged frames against re-derived
//!   ones.
//! * [`metrics`] — a labeled metrics registry (counters, gauges,
//!   streaming histograms) with Prometheus-style text exposition and
//!   key-ordered JSON snapshots; the PR 1 collectors (latency histogram,
//!   channel heatmap, turn census) export onto it.
//! * [`artifact`] — the one shared results-artifact writer: every file
//!   the workspace's binaries emit goes through it, which is where
//!   trailing-newline and key-ordering byte-stability is enforced.
//!
//! The `turnstat` binary in this crate records, summarizes, replays,
//! diffs, and verifies logs; `ci/check.sh` gates on it.
//!
//! # Example
//!
//! ```
//! use turnroute_obslog::{LogObserver, ReplayableAggregates, replay};
//! use turnroute_sim::{Sim, SimConfig};
//! use turnroute_sim::obs::ChannelLayout;
//! use turnroute_routing::{mesh2d, RoutingMode};
//! use turnroute_topology::Mesh;
//! use turnroute_traffic::Uniform;
//!
//! let mesh = Mesh::new_2d(4, 4);
//! let routing = mesh2d::west_first(RoutingMode::Minimal);
//! let pattern = Uniform::new();
//! let cfg = SimConfig::builder().injection_rate(0.05).seed(7)
//!     .warmup_cycles(50).measure_cycles(200).drain_cycles(200).build();
//! let layout = ChannelLayout::for_topology(&mesh);
//!
//! // Record a run with aggregates collected live.
//! let log = LogObserver::start(&mesh, &routing, &pattern, &cfg, "sim");
//! let live = ReplayableAggregates::new(layout);
//! let mut sim = Sim::with_observer(&mesh, &routing, &pattern, cfg, (log, live));
//! sim.run();
//! let (log, live) = sim.into_observer();
//! let bytes = log.finish();
//!
//! // Replay the log — no simulation — into a fresh aggregate stack.
//! let mut replayed = ReplayableAggregates::new(layout);
//! replay(&bytes, &mut replayed).unwrap();
//! assert_eq!(live.snapshot_json(), replayed.snapshot_json());
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod aggregates;
pub mod artifact;
pub mod codec;
pub mod frame_codec;
pub mod log;
pub mod metrics;
pub mod replay;
pub mod scenario;

pub use aggregates::ReplayableAggregates;
pub use log::{FrameScope, LogHeader, LogObserver};
pub use metrics::Registry;
pub use replay::{
    frame_offsets, replay, replay_bounded, summarize, verify_bytes, LogError, LogSummary,
};
