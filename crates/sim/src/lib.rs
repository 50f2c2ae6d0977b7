//! Cycle-accurate flit-level wormhole routing simulator.
//!
//! Reproduces the simulation methodology of Section 6 of the turn-model
//! paper:
//!
//! * a pair of unidirectional channels between neighboring routers and
//!   between each router and its local processor;
//! * every channel has the same bandwidth (20 flits/µs — one flit per
//!   simulated cycle, so a cycle is 0.05 µs);
//! * each input channel has a single-flit buffer;
//! * messages are generated per node at negative-exponentially distributed
//!   intervals, each one packet of 10 or 200 flits with equal probability;
//! * blocked messages queue at the source processor; arriving messages are
//!   consumed immediately (through the ejection channel, at channel
//!   bandwidth);
//! * *local first-come-first-served* input selection and *lowest
//!   dimension* ("xy") output selection by default, both configurable.
//!
//! The wormhole mechanics are faithful: a packet's header flit reserves
//! each channel it routes onto, body flits pipeline behind it through the
//! single-flit buffers, and the channel is released only when the tail
//! flit has passed — which is exactly why circular waits deadlock, and
//! what the turn model prevents.
//!
//! # Example
//!
//! ```
//! use turnroute_sim::{Sim, SimConfig};
//! use turnroute_routing::{mesh2d, RoutingMode};
//! use turnroute_topology::Mesh;
//! use turnroute_traffic::Uniform;
//!
//! let mesh = Mesh::new_2d(8, 8);
//! let routing = mesh2d::west_first(RoutingMode::Minimal);
//! let pattern = Uniform::new();
//! let cfg = SimConfig::builder()
//!     .injection_rate(0.05)
//!     .warmup_cycles(500)
//!     .measure_cycles(2_000)
//!     .drain_cycles(2_000)
//!     .seed(1)
//!     .build();
//! let report = Sim::new(&mesh, &routing, &pattern, cfg).run();
//! assert!(report.delivered_packets > 0);
//! assert!(!report.deadlocked);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod choice;
mod config;
mod engine;
mod fault;
mod flits;
pub mod harness;
pub mod lanes;
pub mod obs;
mod packet;
mod policies;
pub mod profile;
mod report;

pub use choice::ChoiceScript;
pub use config::{LengthDist, SimConfig, SimConfigBuilder, CYCLES_PER_MICROSEC};
pub use engine::{Engine, Sim, SimSnapshot};
pub use fault::{Fault, FaultEvent, FaultPlan, FaultTarget};
pub use lanes::{Candidate, Lanes, SingleLane, MAX_LANES_PER_LINK};
pub use obs::{
    Alert, AlertKind, DetectorBank, DetectorConfig, Event, FrameCollector, HealEvent,
    InvariantObserver, InvariantSummary, NoopObserver, PacketBlame, SimObserver, Telemetry,
    TelemetryFrame,
};
pub use packet::{Packet, PacketId};
pub use policies::{InputPolicy, OutputPolicy};
pub use profile::{Phase, PhaseProfiler, Work};
pub use report::{BlameTotals, RunTermination, SimReport};
