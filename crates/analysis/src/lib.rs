//! `turnlint` — static analysis of the turn-model design space, progress
//! proofs, and simulator invariant sanitization.
//!
//! The rest of the workspace *implements* the turn model; this crate
//! *audits* it, exhaustively and mechanically:
//!
//! * [`enumeration`] — every census the paper states a number for, re-run
//!   from scratch: the 16-way two-turn census and its three symmetry
//!   classes, the exhaustive 256-subset sweep behind Theorem 1's
//!   quarter-of-the-turns bound, the 4096-candidate 3D generalization,
//!   and the hexagonal triangle cycles of Section 7. Every count is a
//!   machine-checkable [`Claim`]; every failure carries a witness cycle.
//! * [`routing`] — [`TurnSetRouting`] turns any turn set into the
//!   maximally adaptive minimal routing function it permits, so static
//!   CDG verdicts can be cross-validated against live simulations.
//! * [`verify()`] — the one-call verdict on a routing function: deadlock
//!   freedom, connectivity and bounded-misroute progress read from two
//!   checker-validated proofs over one lowered spec (below), and
//!   minimality, channel existence and turn-set conformance read off the
//!   same lowering. Under faults, verify the
//!   [`turnroute_model::FaultMasked`] relation.
//! * [`lint`] — the driver behind the `turnlint` binary: enumeration
//!   claims, the algorithm × topology verification matrix (including the
//!   bounded-misroute progress check and fault-masked verification),
//!   negative controls, and full simulation runs of both wormhole
//!   engines under the [`turnroute_sim::InvariantObserver`] shadow
//!   model. One JSON artifact, one exit code: the CI gate.
//! * [`heal`] — `turnheal`, certificate-gated online reconfiguration:
//!   a healing driver that, on every live fault transition, pauses
//!   arbitration around the changed region, incrementally re-proves the
//!   fault-masked channel graph (numbering repair with a full-prove
//!   fallback), and swaps routing tables only once the independent
//!   checker has validated the epoch's certificate — quarantining
//!   witness channels when the degraded relation turns cyclic.
//! * [`mc`] — `turncheck`, explicit-state bounded model checking that
//!   drives the *production engines* (not a re-model) through every
//!   reachable global state of small configurations: canonical state
//!   encoding with symmetry reduction, exhaustive certification of every
//!   census-safe turn set, refinement of every census-unsafe deadlock
//!   onto its CDG proof cycle, replayable counterexample scenarios, and
//!   a misroute-bound progress check under full arbitration
//!   nondeterminism.
//! * [`certificate`], [`extract`], [`prove`], [`check`] — `turnprove`,
//!   the generalized channel-graph verifier: every configuration
//!   (topology × routing × virtual channels × faults) is lowered to an
//!   explicit [`certificate::GraphSpec`], proven deadlock free by a
//!   total channel numbering (or refuted by a minimal witness cycle),
//!   certified connected path by path, and the whole proof object is
//!   re-validated by the deliberately tiny independent checker before
//!   CI believes a word of it. A second proof over the same spec, a
//!   [`Progress`], ranks every reachable routing state (no livelock) and
//!   lists the ones that offer nothing (dead ends), checked the same way.
//! * [`synth`] — `turnsynth`, the constructive inverse of `turnprove`:
//!   every *cyclic* verdict in the matrix is turned into a synthesized
//!   escape/adaptive virtual-channel assignment (the mechanical
//!   generalization of the hand-coded double-y split), lowered back to a
//!   [`certificate::GraphSpec`], re-proven acyclic, validated by the
//!   same independent checker, and cross-checked by seeded saturating
//!   runs where the unsplit relation deadlocks and the synthesized one
//!   delivers every packet.
//!
//! # Example
//!
//! ```
//! use turnroute_analysis::lint::{run, LintOptions};
//!
//! let report = run(&LintOptions { quick: true, ..LintOptions::default() });
//! assert!(report.passed(), "{}", report.render());
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod certificate;
pub mod check;
pub mod claim;
pub mod enumeration;
pub mod extract;
pub mod heal;
pub mod lint;
pub mod mc;
pub mod prove;
pub mod routing;
pub mod synth;
pub mod verify;

pub use certificate::{
    Certificate, ChannelVertex, GraphSpec, PathCert, Progress, ProgressVerdict, Verdict,
};
pub use claim::{witness_cycle, Claim};
pub use heal::{run_healing, run_healing_sim, EpochRecord, HealOptions, HealReport};
pub use lint::{LintOptions, LintReport};
pub use mc::{McEntry, McOptions, McReport};
pub use prove::{ProveOptions, ProveReport};
pub use routing::TurnSetRouting;
pub use synth::{SynthEntry, SynthOptions, SynthReport, SynthResult};
pub use verify::{checked_progress, verify, Check, VerificationReport};
