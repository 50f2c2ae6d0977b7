//! Escape-class construction and the lowering to a certified `GraphSpec`.
//!
//! Given a cyclic input spec, the synthesizer splits every physical
//! channel into two virtual channels:
//!
//! * the **adaptive** class keeps the input's routing relation minus the
//!   moves riding a cut feedback edge (see
//!   [`super::decompose::feedback_edges`]) — its dependency relation is a
//!   subgraph of the acyclic remainder;
//! * the **escape** class carries an up*/down* relation over the node
//!   graph induced by the input's channels (the same discipline as
//!   `extract::from_netlist`): a breadth-first spanning tree from node 0
//!   levels the nodes, `up` moves strictly decrease `(level, id)`, down
//!   moves strictly increase it, reversals and down→up transitions are
//!   prohibited, and per-destination good-reachability prunes dead ends.
//!
//! Every injection state and every live adaptive state additionally
//! offers the escape entry moves for its node, so a packet blocked in
//! the adaptive class can always drain: adaptive→adaptive edges live in
//! the acyclic remainder, adaptive→escape edges point one way into the
//! escape layer, and escape→escape edges follow the acyclic up*/down*
//! order — the union is acyclic by layered composition, which the
//! *prover* (not this module) re-establishes on every output.

use crate::certificate::{ChannelVertex, GraphSpec};
use std::collections::VecDeque;
use turnroute_model::DepGraph;

use super::decompose::feedback_edges;

/// One synthesized escape channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EscapeChannel {
    /// Channel id in the synthesized spec.
    pub id: u32,
    /// Router the channel leaves.
    pub src: u32,
    /// Router the channel enters.
    pub dst: u32,
    /// Whether the move is `up` (toward the spanning-tree root order).
    pub up: bool,
}

/// The synthesizer's output: a lowered spec plus the decomposition that
/// produced it. The spec carries **no certificate** — the caller must run
/// the prover and the independent checker on it (see `DESIGN.md` §14 on
/// the trust boundary).
#[derive(Debug, Clone)]
pub struct SynthResult {
    /// The synthesized escape/adaptive channel graph. Channels
    /// `0..num_adaptive` are the adaptive class (same ids as the input's
    /// channels); the escape class follows.
    pub spec: GraphSpec,
    /// Input channel count == adaptive-class size.
    pub num_adaptive: usize,
    /// The escape class, in synthesized channel-id order.
    pub escape: Vec<EscapeChannel>,
    /// Indices into the *input* spec's `deps` that were cut from the
    /// adaptive relation (an inclusion-minimal feedback set).
    pub feedback: Vec<usize>,
    /// Directed physical links of the induced node graph.
    pub phys_links: usize,
}

impl SynthResult {
    /// Virtual-channel classes per physical channel (adaptive + escape).
    pub fn num_classes(&self) -> usize {
        2
    }
}

/// Synthesize an escape/adaptive virtual-channel assignment for a cyclic
/// input spec.
///
/// Errors when the input is already acyclic (nothing to synthesize),
/// when its channels induce a disconnected node graph, or when the
/// escape relation cannot reach some destination (a malformed input —
/// up*/down* over a connected bidirectional link graph always can).
pub fn synthesize(input: &GraphSpec) -> Result<SynthResult, String> {
    let n = input.num_nodes as usize;
    let k = input.channels.len();
    if DepGraph::from_edges(k, &input.deps).numbering().is_some() {
        return Err(format!(
            "{}: input dependency graph is already acyclic; nothing to synthesize",
            input.name
        ));
    }

    // ---- feedback decomposition over the input relation -------------
    let feedback = feedback_edges(k, &input.deps);
    let cut: std::collections::HashSet<(u32, u32)> =
        feedback.iter().map(|&i| input.deps[i]).collect();

    // ---- induced node graph + escape channel set --------------------
    // One escape channel per *directed link*: parallel input channels
    // over the same (src, dst) share one escape lane.
    let mut links: Vec<(u32, u32)> = input.channels.iter().map(|c| (c.src, c.dst)).collect();
    links.sort_unstable();
    links.dedup();
    let mut adj: Vec<Vec<u32>> = vec![Vec::new(); n];
    for &(a, b) in &links {
        adj[a as usize].push(b);
    }
    let mut level = vec![u32::MAX; n];
    level[0] = 0;
    let mut queue = VecDeque::from([0u32]);
    while let Some(v) = queue.pop_front() {
        for &w in &adj[v as usize] {
            if level[w as usize] == u32::MAX {
                level[w as usize] = level[v as usize] + 1;
                queue.push_back(w);
            }
        }
    }
    if level.contains(&u32::MAX) {
        return Err(format!(
            "{}: channel graph does not connect every node from node 0",
            input.name
        ));
    }
    let up = |c: (u32, u32)| (level[c.1 as usize], c.1) < (level[c.0 as usize], c.0);

    // Escape transitions: continue without reversing, never down→up.
    let e = links.len();
    let mut esucc: Vec<Vec<u32>> = vec![Vec::new(); e];
    for (i, &c1) in links.iter().enumerate() {
        for (j, &c2) in links.iter().enumerate() {
            let continues = c2.0 == c1.1 && c2.1 != c1.0;
            let down_to_up = !up(c1) && up(c2);
            if continues && !down_to_up {
                esucc[i].push(j as u32);
            }
        }
    }
    let mut epred: Vec<Vec<u32>> = vec![Vec::new(); e];
    for (i, succs) in esucc.iter().enumerate() {
        for &j in succs {
            epred[j as usize].push(i as u32);
        }
    }

    // Per-destination good-reachability over the escape relation.
    let mut good = vec![vec![false; e]; n];
    for (dest, good_d) in good.iter_mut().enumerate() {
        let mut queue: VecDeque<usize> = (0..e)
            .filter(|&c| links[c].1 == dest as u32)
            .inspect(|&c| good_d[c] = true)
            .collect();
        while let Some(c) = queue.pop_front() {
            for &p in &epred[c] {
                if !good_d[p as usize] {
                    good_d[p as usize] = true;
                    queue.push_back(p as usize);
                }
            }
        }
        // Delivery guarantee: every node must have a good escape start.
        for v in 0..n {
            if v == dest {
                continue;
            }
            if !(0..e).any(|c| links[c].0 == v as u32 && good_d[c]) {
                return Err(format!(
                    "{}: escape relation cannot reach n{dest} from n{v}",
                    input.name
                ));
            }
        }
    }

    // Escape channels actually offered somewhere: good for some dest.
    let used: Vec<usize> = (0..e)
        .filter(|&c| good.iter().any(|good_d| good_d[c]))
        .collect();
    let mut escape_id = vec![u32::MAX; e];
    let mut escape = Vec::with_capacity(used.len());
    for (slot, &c) in used.iter().enumerate() {
        let id = (k + slot) as u32;
        escape_id[c] = id;
        escape.push(EscapeChannel {
            id,
            src: links[c].0,
            dst: links[c].1,
            up: up(links[c]),
        });
    }

    // ---- lowered channel list ---------------------------------------
    let mut channels: Vec<ChannelVertex> = input
        .channels
        .iter()
        .map(|c| ChannelVertex {
            src: c.src,
            dst: c.dst,
            label: format!("{} [adaptive]", c.label),
        })
        .collect();
    for esc in &escape {
        channels.push(ChannelVertex {
            src: esc.src,
            dst: esc.dst,
            label: format!(
                "e{} n{} -> n{} ({}) [escape]",
                esc.id,
                esc.src,
                esc.dst,
                if esc.up { "up" } else { "down" }
            ),
        });
    }

    // ---- lowered routing relation -----------------------------------
    let num_states = n + channels.len();
    let mut routes = Vec::with_capacity(n);
    let mut dep_set = std::collections::BTreeSet::new();
    for (dest, good_d) in good.iter().enumerate() {
        // Escape entry moves per node, in escape-id order.
        let start_at = |v: u32| -> Vec<u32> {
            (0..e)
                .filter(|&c| links[c].0 == v && good_d[c])
                .map(|c| escape_id[c])
                .collect()
        };
        let mut table = vec![Vec::new(); num_states];
        for (v, slot) in table.iter_mut().enumerate().take(n) {
            if v == dest {
                continue;
            }
            let mut moves = input.routes[dest][v].clone();
            moves.extend(start_at(v as u32));
            *slot = moves;
        }
        for (c, vert) in input.channels.iter().enumerate() {
            if vert.dst == dest as u32 {
                continue;
            }
            let orig = &input.routes[dest][n + c];
            if orig.is_empty() {
                continue; // unreachable adaptive state stays unreachable
            }
            let mut moves: Vec<u32> = orig
                .iter()
                .copied()
                .filter(|&m| !cut.contains(&(c as u32, m)))
                .collect();
            moves.extend(start_at(vert.dst));
            for &m in &moves {
                dep_set.insert((c as u32, m));
            }
            table[n + c] = moves;
        }
        for (slot, &c) in used.iter().enumerate() {
            if links[c].1 == dest as u32 || !good_d[c] {
                continue;
            }
            let moves: Vec<u32> = esucc[c]
                .iter()
                .copied()
                .filter(|&next| good_d[next as usize])
                .map(|next| escape_id[next as usize])
                .collect();
            let id = (k + slot) as u32;
            for &m in &moves {
                dep_set.insert((id, m));
            }
            table[n + k + slot] = moves;
        }
        routes.push(table);
    }

    let spec = GraphSpec {
        name: format!("{}/synth", input.name),
        num_nodes: input.num_nodes,
        channels,
        deps: dep_set.into_iter().collect(),
        routes,
    };
    Ok(SynthResult {
        spec,
        num_adaptive: k,
        escape,
        feedback,
        phys_links: e,
    })
}

/// Adversarial dead-end check of the escape class alone: for every
/// destination, every escape channel the relation can put a packet in
/// must either enter the destination or offer a further escape move —
/// the escape-class analogue of the progress claim's dead ends, run
/// independently of the construction's own reachability pruning.
pub fn escape_dead_end(result: &SynthResult) -> Option<String> {
    let spec = &result.spec;
    let n = spec.num_nodes as usize;
    let k = result.num_adaptive;
    let is_escape = |c: u32| (c as usize) >= k;
    for dest in 0..n {
        // Every escape channel offered anywhere for this destination.
        let mut offered: Vec<u32> = Vec::new();
        for table in &spec.routes[dest] {
            for &m in table {
                if is_escape(m) && !offered.contains(&m) {
                    offered.push(m);
                }
            }
        }
        // Injection must always have an escape start.
        for v in 0..n {
            if v == dest {
                continue;
            }
            if !spec.routes[dest][v].iter().any(|&m| is_escape(m)) {
                return Some(format!("n{v} has no escape start toward n{dest}"));
            }
        }
        for c in offered {
            let vert = &spec.channels[c as usize];
            if vert.dst == dest as u32 {
                continue;
            }
            let moves = &spec.routes[dest][n + c as usize];
            if !moves.iter().any(|&m| is_escape(m)) {
                return Some(format!("escape dead end toward n{dest}: {}", vert.label));
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::extract;
    use turnroute_model::TurnSet;
    use turnroute_topology::Mesh;

    #[test]
    fn unrestricted_mesh_synthesizes_a_checked_split() {
        let mesh = Mesh::new_2d(4, 4);
        let input = extract::from_turn_set("m", &mesh, &TurnSet::all_ninety(2));
        let result = synthesize(&input).expect("cyclic input synthesizes");
        assert_eq!(result.num_adaptive, input.channels.len());
        assert!(!result.feedback.is_empty(), "something must be cut");
        let cert = crate::prove::prove(&result.spec);
        assert!(cert.verdict.is_acyclic());
        crate::check::check(&result.spec, &cert).expect("checker accepts");
        assert!(cert.unreachable.is_empty());
        assert!(escape_dead_end(&result).is_none());
    }

    #[test]
    fn acyclic_input_is_rejected() {
        let input = extract::from_netlist("tree", 4, &[(0, 1), (0, 2), (2, 3)]);
        let err = synthesize(&input).unwrap_err();
        assert!(err.contains("already acyclic"), "{err}");
    }

    #[test]
    fn adaptive_class_keeps_the_input_moves_minus_the_cut() {
        let mesh = Mesh::new_2d(3, 3);
        let input = extract::from_turn_set("m3", &mesh, &TurnSet::all_ninety(2));
        let result = synthesize(&input).expect("synthesizes");
        let cut: std::collections::HashSet<(u32, u32)> =
            result.feedback.iter().map(|&i| input.deps[i]).collect();
        let n = input.num_nodes as usize;
        for dest in 0..n {
            for (c, vert) in input.channels.iter().enumerate() {
                if vert.dst == dest as u32 || input.routes[dest][n + c].is_empty() {
                    continue;
                }
                let synth_moves = &result.spec.routes[dest][n + c];
                for &m in &input.routes[dest][n + c] {
                    let expect = !cut.contains(&(c as u32, m));
                    assert_eq!(
                        synth_moves.contains(&m),
                        expect,
                        "dest {dest} channel {c} move {m}"
                    );
                }
            }
        }
    }
}
