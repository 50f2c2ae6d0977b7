//! Virtual-channel extension of the turn model.
//!
//! The turn-model paper confines itself to networks *without* extra
//! channels, but notes (Section 2, Section 7) that "adding extra physical
//! or virtual channels to the topologies allows the model to produce
//! fully adaptive routing algorithms, the topic of a forthcoming paper
//! \[18\]". This crate follows that pointer for the 2D mesh:
//!
//! * the **y channels are doubled** into virtual classes `y1` and `y2`
//!   (Step 1 of the model: channels in one physical direction split into
//!   distinct virtual directions);
//! * the turn rules prohibit every turn from the `{east, y2}` side back
//!   into the `{west, y1}` side (including the 0-degree turns
//!   `y2 -> y1`), breaking all cycles while leaving **every shortest
//!   path** available;
//! * the resulting [`DoubleYAdaptive`] algorithm is *minimal and fully
//!   adaptive* — `S = S_f` for every pair — at the cost of one extra
//!   virtual channel (buffer + control logic) per vertical link, exactly
//!   the trade-off the paper discusses;
//! * deadlock freedom is verified mechanically by [`VcCdg`], the channel
//!   dependency graph over *virtual* channels;
//! * [`VcSim`] simulates it faithfully — it is the base simulator's one
//!   wormhole core over the [`VcLanes`] adapter: virtual channels have
//!   private buffers but **share the physical link's bandwidth** (one
//!   flit per physical link per cycle).
//!
//! # Example
//!
//! ```
//! use turnroute_vc::{DoubleYAdaptive, VcCdg};
//! use turnroute_topology::Mesh;
//!
//! let mesh = Mesh::new_2d(8, 8);
//! let alg = DoubleYAdaptive::new();
//! // Fully adaptive *and* deadlock free — with one extra y channel.
//! assert!(VcCdg::from_routing(&mesh, &alg).is_acyclic());
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod double_y;
mod graph;
mod sim;
mod specsim;
mod table;
mod vdir;

pub use double_y::{count_paths, DoubleYAdaptive};
pub use graph::{VcCdg, VcChannel};
pub use sim::{VcLanes, VcSim, VcSimReport};
pub use specsim::{SpecSim, SpecSimReport, SpecView};
pub use table::TableVcRouting;
pub use vdir::{outgoing_vdirs, VcClass, VcRoutingFunction, VirtualDirection};
