//! The turn model for adaptive routing (Glass & Ni) — core machinery.
//!
//! The turn model designs wormhole routing algorithms that are deadlock
//! free, livelock free, and maximally adaptive *without* adding physical or
//! virtual channels. It works by analyzing the directions in which packets
//! can turn in a network and the cycles those turns can form, then
//! prohibiting just enough turns to break every cycle.
//!
//! This crate provides:
//!
//! * [`Turn`] and [`TurnSet`] — the turn vocabulary and allowed-turn tables
//!   (Section 2 of the paper);
//! * [`cycle`] — enumeration of the abstract cycles in each plane and the
//!   necessary-condition check that a turn set breaks all of them
//!   (Theorem 1);
//! * [`Cdg`] — the channel dependency graph of Dally & Seitz, the
//!   mechanical deadlock-freedom verdict used throughout the workspace,
//!   a view of the [`depgraph`] kernel (one graph, one set of searches,
//!   one walk over a routing relation's reachable states);
//! * [`degraded_route`] and [`FaultMasked`] — the one rule for routing
//!   around failures inside the turn set;
//! * [`numbering`] — the channel-numbering witnesses from the paper's
//!   proofs (Figures 6–8, Theorem 5);
//! * [`adaptiveness`] — the closed-form path counts of Sections 3.4 and 5
//!   plus exhaustive path enumeration to validate them;
//! * [`RoutingFunction`] — the interface concrete algorithms implement;
//! * [`verifier`] — a one-call bundle of every check, for validating
//!   custom routing functions before trusting them with a network.
//!
//! # Example: verifying west-first is deadlock free
//!
//! ```
//! use turnroute_model::{presets, Cdg};
//! use turnroute_topology::Mesh;
//!
//! let mesh = Mesh::new_2d(8, 8);
//! let west_first = presets::west_first_turns();
//! let cdg = Cdg::from_turn_set(&mesh, &west_first);
//! assert!(cdg.find_cycle().is_none(), "west-first CDG is acyclic");
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod adaptiveness;
mod cdg;
pub mod cycle;
mod degraded;
pub mod depgraph;
pub mod livelock;
pub mod numbering;
pub mod presets;
mod route;
pub mod symmetry;
mod turn;
mod turnset;
pub mod verifier;

pub use cdg::Cdg;
pub use degraded::{degraded_route, FaultMasked};
pub use depgraph::DepGraph;
pub use route::RoutingFunction;
pub use turn::{Turn, TurnKind};
pub use turnset::TurnSet;
