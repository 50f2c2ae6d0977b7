//! The `turnprove` certificate format: explicit channel graphs and the
//! machine-checkable proofs emitted over them.
//!
//! A [`GraphSpec`] is the *trusted* input: a channel graph extracted
//! mechanically (see [`crate::extract`]) from a topology, a routing
//! function, a virtual-channel assignment, and an optional fault pattern.
//! Vertices are (virtual) channels; `deps` are the Dally–Seitz dependency
//! edges; `routes` is the per-destination routing relation over *states*
//! (a packet is either at its injection node or holding a channel).
//!
//! A [`Certificate`] is the *untrusted* output of the prover
//! ([`crate::prove`]): a deadlock [`Verdict`] — either a total channel
//! numbering witnessing acyclicity, or a concrete witness cycle — plus one
//! [`PathCert`] per deliverable ordered node pair. The independent checker
//! ([`crate::check`]) validates a certificate against its spec without
//! trusting anything the prover computed; only the extraction itself is
//! in the trusted computing base (see `DESIGN.md` §9).
//!
//! A [`Progress`] is the prover's second, separate claim over the same
//! spec: which routing states a packet can reach, a rank that falls along
//! every move between them (so no packet moves forever) or a lasso that
//! shows one can, and the reachable states that offer nothing.

/// One vertex of a channel graph: a unidirectional (virtual) channel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChannelVertex {
    /// Router the channel leaves.
    pub src: u32,
    /// Router the channel enters.
    pub dst: u32,
    /// Human-readable label (`c12 n5 -> n6 (east)`, `c40 n3 -> n7 (north2)`).
    pub label: String,
}

/// An explicit channel graph: the common denominator every configuration —
/// bare turn set, named algorithm, virtual-channel assignment, fault-masked
/// relation — is lowered to before proving.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GraphSpec {
    /// Configuration name (topology × routing × faults).
    pub name: String,
    /// Number of router nodes.
    pub num_nodes: u32,
    /// The channel vertices, indexed by dense id.
    pub channels: Vec<ChannelVertex>,
    /// Dependency edges `(from, to)` between channel ids: a packet holding
    /// `from` may next request `to`.
    pub deps: Vec<(u32, u32)>,
    /// The routing relation: `routes[dest][state]` lists the channel ids a
    /// packet in `state` bound for node `dest` may acquire next. States
    /// `0..num_nodes` are injection-at-node; state `num_nodes + c` is
    /// holding channel `c`. Empty at the destination and at unreachable
    /// states.
    pub routes: Vec<Vec<Vec<u32>>>,
}

impl GraphSpec {
    /// Number of routing states per destination.
    pub fn num_states(&self) -> usize {
        self.num_nodes as usize + self.channels.len()
    }

    /// The state index for a packet holding channel `c`.
    pub fn channel_state(&self, c: u32) -> usize {
        self.num_nodes as usize + c as usize
    }

    /// The node a packet in `state` is at: its injection node, or the
    /// node the channel it holds enters.
    pub(crate) fn node_of(&self, state: usize) -> usize {
        match state.checked_sub(self.num_nodes as usize) {
            None => state,
            Some(c) => self.channels[c].dst as usize,
        }
    }

    /// Render a routing state: `n4 [injected]`, or the label of the
    /// channel held.
    pub(crate) fn render_state(&self, state: u32) -> String {
        match state.checked_sub(self.num_nodes) {
            None => format!("n{state} [injected]"),
            Some(c) => self.channels[c as usize].label.clone(),
        }
    }

    /// Render a dependency cycle over this spec's channels as a
    /// human-readable witness line.
    pub fn render_cycle(&self, cycle: &[u32]) -> String {
        let shown: Vec<&str> = cycle
            .iter()
            .take(8)
            .map(|&c| self.channels[c as usize].label.as_str())
            .collect();
        format!(
            "channel cycle of {} [{}{} -> back to {}]",
            cycle.len(),
            shown.join(" -> "),
            if cycle.len() > 8 { " -> ..." } else { "" },
            self.channels[cycle[0] as usize].label,
        )
    }
}

/// The deadlock-freedom half of a certificate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// The dependency graph is acyclic; `numbering[c]` is a total channel
    /// ordering under which every dependency edge strictly increases —
    /// exactly the paper's channel-numbering proof obligation, checkable
    /// in one pass over `deps`.
    Acyclic {
        /// One number per channel, indexed by channel id.
        numbering: Vec<u64>,
    },
    /// The dependency graph is cyclic; `cycle` is a concrete witness, each
    /// channel depending on the next and the last on the first.
    Cyclic {
        /// The channel ids along the witness cycle.
        cycle: Vec<u32>,
    },
}

impl Verdict {
    /// Whether this verdict claims acyclicity (deadlock freedom).
    pub fn is_acyclic(&self) -> bool {
        matches!(self, Verdict::Acyclic { .. })
    }
}

/// A connectivity certificate for one ordered node pair: an explicit legal
/// path under the routing relation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PathCert {
    /// Source node.
    pub src: u32,
    /// Destination node.
    pub dst: u32,
    /// The channels traversed, in order; the first must be offered at
    /// injection, every later one at the state holding its predecessor,
    /// and the last must enter `dst`.
    pub path: Vec<u32>,
}

/// The verdict of a [`Progress`] claim.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProgressVerdict {
    /// Every offered move between ranked states strictly lowers the rank,
    /// so every packet delivers or stops at a dead end within a bounded
    /// number of hops, misroutes included.
    Bounded,
    /// A packet bound for `dest` can move forever.
    Unbounded {
        /// The destination the walk never reaches.
        dest: u32,
        /// States from an injection state along offered, undelivering
        /// moves; the last state is one visited earlier.
        lasso: Vec<u32>,
    },
}

/// What the prover claims about the states of one [`GraphSpec`] a packet
/// can reach under any sequence of offered choices. Kept apart from
/// [`Certificate`], whose hash the healing driver records.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Progress {
    /// `rank[dest][state]`; `u32::MAX` marks a state the prover claims
    /// no packet bound for `dest` reaches.
    pub rank: Vec<Vec<u32>>,
    /// Whether the rank is a potential function, or the walk that breaks
    /// one.
    pub verdict: ProgressVerdict,
    /// The ranked `(dest, state)` pairs short of `dest` with an empty
    /// offer, ascending.
    pub dead_ends: Vec<(u32, u32)>,
    /// The intrinsic misroute bound: most hops that do not shorten the
    /// distance to the destination on any walk. Zero when unbounded.
    /// Reported, not checked.
    pub max_misroutes: u32,
}

impl Progress {
    /// The lasso as a witness line, or `None` under [`ProgressVerdict::Bounded`].
    pub fn lasso_witness(&self, spec: &GraphSpec) -> Option<String> {
        let ProgressVerdict::Unbounded { dest, lasso } = &self.verdict else {
            return None;
        };
        let walk: Vec<String> = lasso.iter().map(|&s| spec.render_state(s)).collect();
        Some(format!(
            "routing to n{dest} admits an unbounded adversarial walk: {} (revisited)",
            walk.join(" -> ")
        ))
    }

    /// The first dead end as a witness line, or `None` when there is none.
    pub fn dead_end_witness(&self, spec: &GraphSpec) -> Option<String> {
        let &(dest, state) = self.dead_ends.first()?;
        Some(format!(
            "dead end at {} routing toward n{dest} (first of {} reachable)",
            spec.render_state(state),
            self.dead_ends.len()
        ))
    }
}

/// Everything the prover claims about one [`GraphSpec`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Certificate {
    /// The deadlock verdict with its proof object.
    pub verdict: Verdict,
    /// One path certificate per deliverable ordered pair, in `(src, dst)`
    /// lexicographic order.
    pub paths: Vec<PathCert>,
    /// Ordered pairs the prover claims are *not* deliverable (possible
    /// only under faults). Unreachability carries no checkable witness —
    /// the checker verifies coverage and leaves the claim to the driver's
    /// expectations (see `DESIGN.md` §9 on the trust boundary).
    pub unreachable: Vec<(u32, u32)>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_spec() -> GraphSpec {
        GraphSpec {
            name: "tiny".into(),
            num_nodes: 2,
            channels: vec![
                ChannelVertex {
                    src: 0,
                    dst: 1,
                    label: "c0 n0 -> n1".into(),
                },
                ChannelVertex {
                    src: 1,
                    dst: 0,
                    label: "c1 n1 -> n0".into(),
                },
            ],
            deps: vec![],
            routes: vec![
                vec![vec![], vec![1], vec![], vec![]],
                vec![vec![0], vec![], vec![], vec![]],
            ],
        }
    }

    #[test]
    fn state_indexing() {
        let spec = tiny_spec();
        assert_eq!(spec.num_states(), 4);
        assert_eq!(spec.channel_state(1), 3);
    }

    #[test]
    fn cycle_rendering_names_labels() {
        let spec = tiny_spec();
        let w = spec.render_cycle(&[0, 1]);
        assert!(w.contains("channel cycle of 2"), "{w}");
        assert!(w.contains("c0 n0 -> n1"), "{w}");
        assert!(w.contains("back to c0"), "{w}");
    }
}
