//! The channel-dependency kernel: one graph, one set of searches, and the
//! one walk that lowers a routing relation onto it.
//!
//! Everything the workspace proves about deadlock is a statement about a
//! directed graph whose vertices are channels (Dally & Seitz): acyclic iff
//! a monotone channel numbering exists. [`DepGraph`] is that graph with
//! the three searches the proofs need — any cycle, Kahn's numbering, and a
//! shortest cycle through a vertex — and [`lower`] is the only place a
//! routing function is walked over its reachable `(destination, state)`
//! pairs. [`crate::Cdg`], `turnroute_vc::VcCdg`, the `turnprove`
//! extraction and the prover are all views of these two items, so the
//! graph that is searched, the relation that is certified and the routes
//! that are tabulated cannot drift apart.

use std::collections::VecDeque;
use turnroute_topology::{Direction, NodeId, Topology};

/// A dependency graph over dense `u32` vertex ids, as successor lists.
/// Successor order is part of the value: it decides which cycle the
/// searches report and which numbering Kahn's algorithm emits.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DepGraph {
    adj: Vec<Vec<u32>>,
}

impl DepGraph {
    /// The graph with `num_vertices` vertices and the given `(from, to)`
    /// edges, each vertex's successors in edge order.
    ///
    /// # Panics
    ///
    /// Panics if an edge endpoint is `>= num_vertices`.
    pub fn from_edges(num_vertices: usize, edges: &[(u32, u32)]) -> DepGraph {
        let mut adj = vec![Vec::new(); num_vertices];
        for &(a, b) in edges {
            assert!((b as usize) < num_vertices, "edge endpoint out of range");
            adj[a as usize].push(b);
        }
        DepGraph { adj }
    }

    /// The graph with the given successor lists.
    pub fn from_successors(adj: Vec<Vec<u32>>) -> DepGraph {
        DepGraph { adj }
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.adj.len()
    }

    /// Number of edges.
    pub fn num_edges(&self) -> usize {
        self.adj.iter().map(Vec::len).sum()
    }

    /// The successors of `v`.
    pub fn successors(&self, v: u32) -> &[u32] {
        &self.adj[v as usize]
    }

    /// Every edge, by source vertex then successor order.
    pub fn edges(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        self.adj
            .iter()
            .enumerate()
            .flat_map(|(v, succs)| succs.iter().map(move |&w| (v as u32, w)))
    }

    /// Put every successor list in ascending vertex order.
    pub fn sort_successors(&mut self) {
        for succs in &mut self.adj {
            succs.sort_unstable();
        }
    }

    /// Find a cycle — each vertex's successors contain the next, the last
    /// wraps to the first — or `None` if the graph is acyclic. Iterative
    /// depth-first search from every vertex in ascending order; a
    /// successor still on the current (gray) path closes a cycle.
    pub fn find_cycle(&self) -> Option<Vec<u32>> {
        const WHITE: u8 = 0;
        const GRAY: u8 = 1;
        const BLACK: u8 = 2;
        let n = self.adj.len();
        let mut color = vec![WHITE; n];
        let mut path: Vec<u32> = Vec::new();
        // Stack of (vertex, next-successor-index).
        let mut stack: Vec<(usize, usize)> = Vec::new();
        for start in 0..n {
            if color[start] != WHITE {
                continue;
            }
            color[start] = GRAY;
            path.push(start as u32);
            stack.push((start, 0));
            while let Some(&mut (v, ref mut next)) = stack.last_mut() {
                let Some(&w) = self.adj[v].get(*next) else {
                    color[v] = BLACK;
                    stack.pop();
                    path.pop();
                    continue;
                };
                *next += 1;
                match color[w as usize] {
                    WHITE => {
                        color[w as usize] = GRAY;
                        path.push(w);
                        stack.push((w as usize, 0));
                    }
                    GRAY => {
                        let pos = path.iter().position(|&x| x == w).expect("gray on path");
                        return Some(path[pos..].to_vec());
                    }
                    _ => {}
                }
            }
        }
        None
    }

    /// A number per vertex such that every edge strictly increases it —
    /// the Dally–Seitz channel numbering — or `None` if the graph is
    /// cyclic (no such numbering exists). Kahn's algorithm with a LIFO
    /// ready list; the topological position is the number.
    pub fn numbering(&self) -> Option<Vec<i64>> {
        let n = self.adj.len();
        let mut indegree = vec![0usize; n];
        for (_, w) in self.edges() {
            indegree[w as usize] += 1;
        }
        let mut ready: Vec<usize> = (0..n).filter(|&v| indegree[v] == 0).collect();
        let mut numbers = vec![0i64; n];
        let mut seen = 0usize;
        while let Some(v) = ready.pop() {
            numbers[v] = seen as i64;
            seen += 1;
            for &w in &self.adj[v] {
                indegree[w as usize] -= 1;
                if indegree[w as usize] == 0 {
                    ready.push(w as usize);
                }
            }
        }
        (seen == n).then_some(numbers)
    }

    /// A shortest cycle through `s`, starting at `s`, or `None` if `s`
    /// lies on no cycle. Breadth-first search over successors until an
    /// edge returns to `s`.
    pub fn shortest_cycle_through(&self, s: u32) -> Option<Vec<u32>> {
        let mut parent = vec![u32::MAX; self.adj.len()];
        let mut queue = VecDeque::from([s]);
        while let Some(v) = queue.pop_front() {
            for &w in &self.adj[v as usize] {
                if w == s {
                    // The shortest path s -> v, closed by the edge v -> s.
                    let mut cycle = vec![v];
                    let mut cur = v;
                    while cur != s {
                        cur = parent[cur as usize];
                        cycle.push(cur);
                    }
                    cycle.reverse();
                    return Some(cycle);
                }
                if parent[w as usize] == u32::MAX {
                    parent[w as usize] = v;
                    queue.push_back(w);
                }
            }
        }
        None
    }

    /// The shortest of the shortest cycles through each of `sources`, the
    /// earliest source winning ties. Over every vertex this is a globally
    /// minimal cycle; over the vertices of one known cycle it is a minimal
    /// witness near that cycle.
    pub fn shortest_cycle_among(&self, sources: impl IntoIterator<Item = u32>) -> Option<Vec<u32>> {
        sources
            .into_iter()
            .filter_map(|s| self.shortest_cycle_through(s))
            .min_by_key(Vec::len)
    }
}

/// One channel of a lowered network: lane `lane` of the physical link
/// leaving `src` in `dir`. A network without virtual channels has one
/// lane per link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaneChannel {
    /// Router the channel leaves.
    pub src: NodeId,
    /// Router the channel enters.
    pub dst: NodeId,
    /// Physical direction of the link.
    pub dir: Direction,
    /// Lane of the link.
    pub lane: usize,
}

/// An output a routing relation offers: a lane of the link in a direction.
pub type Offer = (Direction, usize);

/// An offer [`lower`] was given: to a packet at `at` bound for `dest`,
/// holding channel `held` (`None` at injection).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Move {
    /// Router the packet is at.
    pub at: NodeId,
    /// Destination of the packet.
    pub dest: NodeId,
    /// Channel id the packet holds, `None` at injection.
    pub held: Option<u32>,
    /// What the relation offered.
    pub offer: Offer,
}

/// A routing relation lowered onto channels by [`lower`].
#[derive(Debug, Clone)]
pub struct Lowering {
    /// The channels, node-major, then by direction, then by lane; the
    /// position is the channel id. With one lane per link these are
    /// exactly [`Topology::channels`].
    pub channels: Vec<LaneChannel>,
    /// Channel dependencies: `c1 -> c2` iff some destination makes the
    /// relation offer `c2` to a packet holding `c1`. Successors are in
    /// discovery order (destination ascending, then offer order).
    pub graph: DepGraph,
    /// `routes[dest][state]`: the channels offered to a packet bound for
    /// `dest` in `state`, where states `0..num_nodes` are injection at
    /// that node and state `num_nodes + c` is holding channel `c`. Empty
    /// unless requested. Every held-state entry is, by construction, a set
    /// of `graph` successors.
    pub routes: Vec<Vec<Vec<u32>>>,
    /// The first offer, in walk order, whose direction leaves the network.
    pub unbuilt: Option<Move>,
    /// For a `minimal` relation, the first offer, in walk order, that does
    /// not bring the packet closer to its destination.
    pub unproductive: Option<Move>,
}

/// Lower a routing relation: walk every reachable `(destination, state)`
/// once, asking `route(at, dest, held, out)` for the offers of a packet at
/// `at` bound for `dest` that holds `held` (`None` at injection).
///
/// Links carry `lanes` lanes, of which `lane_exists(dir, lane)` says
/// which are built. Only reachable states are asked: a packet of a
/// `minimal` relation holds a channel only if that channel moved it
/// closer to its destination. Injection states add no dependency, so they
/// are walked only `with_routes`.
///
/// An offer whose direction leaves the network is skipped (mesh
/// boundaries; a relation may offer them and let the network drop them)
/// and the first is kept as [`Lowering::unbuilt`]. The first offer of a
/// `minimal` relation that does not lower the hop count is kept as
/// [`Lowering::unproductive`]: the walk skipped the states such a move
/// reaches, so the skipping is sound only while it is `None`.
///
/// # Panics
///
/// Panics if the relation offers a lane that `lane_exists` denies on a
/// link that exists: the routing function contradicts its own channel
/// declaration.
pub fn lower(
    topo: &dyn Topology,
    lanes: usize,
    lane_exists: impl Fn(Direction, usize) -> bool,
    minimal: bool,
    with_routes: bool,
    mut route: impl FnMut(NodeId, NodeId, Option<Offer>, &mut Vec<Offer>),
) -> Lowering {
    let num_nodes = topo.num_nodes();
    let nodes = || (0..num_nodes as u32).map(NodeId);
    let mut slot_to_id = vec![u32::MAX; topo.channel_slot_count() * lanes];
    let mut channels = Vec::new();
    for src in nodes() {
        for dir in Direction::all(topo.num_dims()) {
            let Some(dst) = topo.neighbor(src, dir) else {
                continue;
            };
            for lane in (0..lanes).filter(|&l| lane_exists(dir, l)) {
                slot_to_id[topo.channel_slot(src, dir) * lanes + lane] = channels.len() as u32;
                channels.push(LaneChannel {
                    src,
                    dst,
                    dir,
                    lane,
                });
            }
        }
    }

    let (mut unbuilt, mut unproductive) = (None, None);
    let mut offers = Vec::new();
    let mut resolve =
        |at: NodeId, dest: NodeId, held: Option<u32>, hops: &[usize], ids: &mut Vec<u32>| {
            offers.clear();
            ids.clear();
            let held_lane = held.map(|c| (channels[c as usize].dir, channels[c as usize].lane));
            route(at, dest, held_lane, &mut offers);
            for &offer @ (dir, lane) in &offers {
                let this = Move {
                    at,
                    dest,
                    held,
                    offer,
                };
                let Some(next) = topo.neighbor(at, dir) else {
                    unbuilt.get_or_insert(this);
                    continue;
                };
                if minimal && hops[next.index()] >= hops[at.index()] {
                    unproductive.get_or_insert(this);
                }
                let id = slot_to_id[topo.channel_slot(at, dir) * lanes + lane];
                assert_ne!(id, u32::MAX, "routing offered a nonexistent channel");
                ids.push(id);
            }
        };

    let mut adj = vec![Vec::new(); channels.len()];
    let mut routes = Vec::new();
    let mut outs = Vec::new();
    for dest in nodes() {
        let hops: Vec<usize> = nodes().map(|v| topo.min_hops(v, dest)).collect();
        let mut table = Vec::new();
        if with_routes {
            table = vec![Vec::new(); num_nodes + channels.len()];
            for at in nodes().filter(|&at| at != dest) {
                resolve(at, dest, None, &hops, &mut outs);
                table[at.index()] = outs.clone();
            }
        }
        for (c, ch) in channels.iter().enumerate() {
            if ch.dst == dest || (minimal && hops[ch.dst.index()] >= hops[ch.src.index()]) {
                continue;
            }
            resolve(ch.dst, dest, Some(c as u32), &hops, &mut outs);
            for &id in &outs {
                if !adj[c].contains(&id) {
                    adj[c].push(id);
                }
            }
            if with_routes {
                table[num_nodes + c] = outs.clone();
            }
        }
        if with_routes {
            routes.push(table);
        }
    }
    Lowering {
        channels,
        graph: DepGraph { adj },
        routes,
        unbuilt,
        unproductive,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{presets, Cdg, TurnSet};
    use turnroute_topology::Mesh;

    /// A 3-ring with a long detour back to its start, vertex 6 isolated.
    fn ring_with_detour() -> DepGraph {
        let edges = [(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 5), (5, 0)];
        DepGraph::from_edges(7, &edges)
    }

    fn sample_graphs() -> Vec<DepGraph> {
        let mesh = Mesh::new_2d(4, 3);
        let of = |set: &TurnSet| Cdg::from_turn_set(&mesh, set).graph().clone();
        vec![
            of(&TurnSet::all_ninety(2)),
            of(&presets::xy_turns()),
            of(&presets::west_first_turns()),
            of(&presets::negative_first_turns(2)),
            ring_with_detour(),
            DepGraph::from_edges(4, &[(0, 1), (1, 2), (0, 2), (3, 1)]),
            DepGraph::from_edges(1, &[(0, 0)]),
            DepGraph::from_edges(0, &[]),
        ]
    }

    fn assert_is_cycle(graph: &DepGraph, cycle: &[u32]) {
        assert!(!cycle.is_empty());
        for (i, &v) in cycle.iter().enumerate() {
            let next = cycle[(i + 1) % cycle.len()];
            assert!(graph.successors(v).contains(&next), "{v} -/-> {next}");
        }
    }

    #[test]
    fn cycle_witnesses_are_real_cycles() {
        for graph in sample_graphs() {
            if let Some(cycle) = graph.find_cycle() {
                assert_is_cycle(&graph, &cycle);
                for &v in &cycle {
                    let through = graph.shortest_cycle_through(v).expect("v is on a cycle");
                    assert_is_cycle(&graph, &through);
                    assert_eq!(through[0], v);
                    assert!(through.len() <= cycle.len());
                }
            }
        }
    }

    #[test]
    fn a_numbering_exists_iff_acyclic_and_increases_along_every_edge() {
        for graph in sample_graphs() {
            let numbers = graph.numbering();
            assert_eq!(numbers.is_some(), graph.find_cycle().is_none());
            if let Some(numbers) = numbers {
                assert_eq!(numbers.len(), graph.num_vertices());
                for (a, b) in graph.edges() {
                    assert!(numbers[a as usize] < numbers[b as usize], "{a} -> {b}");
                }
            }
        }
    }

    /// Exhaustive ground truth for minimality: depth-bounded DFS over all
    /// simple paths — is there any cycle with fewer than `k` vertices?
    fn has_cycle_shorter_than(graph: &DepGraph, k: usize) -> bool {
        fn dfs(g: &DepGraph, s: u32, v: u32, depth: usize, k: usize, on: &mut [bool]) -> bool {
            for &w in g.successors(v) {
                if w == s && depth + 1 < k {
                    return true;
                }
                if !on[w as usize] && depth + 1 < k {
                    on[w as usize] = true;
                    if dfs(g, s, w, depth + 1, k, on) {
                        return true;
                    }
                    on[w as usize] = false;
                }
            }
            false
        }
        (0..graph.num_vertices() as u32).any(|s| {
            let mut on_path = vec![false; graph.num_vertices()];
            on_path[s as usize] = true;
            dfs(graph, s, s, 0, k, &mut on_path)
        })
    }

    #[test]
    fn shortest_cycle_over_all_vertices_is_globally_minimal() {
        for graph in sample_graphs() {
            let all = 0..graph.num_vertices() as u32;
            let Some(cycle) = graph.shortest_cycle_among(all.clone()) else {
                assert!(graph.find_cycle().is_none());
                continue;
            };
            assert_is_cycle(&graph, &cycle);
            assert!(!has_cycle_shorter_than(&graph, cycle.len()));
            // Deterministic, and ties go to the earliest source.
            assert_eq!(graph.shortest_cycle_among(all.clone()), Some(cycle.clone()));
            let first = all
                .filter_map(|s| graph.shortest_cycle_through(s))
                .find(|c| c.len() == cycle.len());
            assert_eq!(first, Some(cycle));
        }
        // Restricted to the vertices of the long way round, the search
        // still finds the 3-ring through their shared vertex 0.
        let ring = ring_with_detour();
        assert_eq!(ring.shortest_cycle_among([3, 4, 5, 0]), Some(vec![0, 1, 2]));
        assert_eq!(ring.shortest_cycle_through(6), None);
    }

    /// Lower "offer every direction, on `lane`" over a 3x3 mesh whose x
    /// links carry one lane and whose y links carry two.
    fn lower_everywhere(lane: usize) -> Lowering {
        let mesh = Mesh::new_2d(3, 3);
        let exists = |dir: Direction, l: usize| l == 0 || dir.dim() == 1;
        lower(&mesh, 2, exists, false, true, |_, _, _, out| {
            out.extend(Direction::all(2).map(|dir| (dir, lane)));
        })
    }

    #[test]
    fn offers_that_leave_the_network_are_skipped() {
        let lowered = lower_everywhere(0);
        // 12 x channels with one lane, 12 y channels with two.
        assert_eq!(lowered.channels.len(), 12 + 24);
        for (c, ch) in lowered.channels.iter().enumerate() {
            for &next in lowered.graph.successors(c as u32) {
                assert_eq!(lowered.channels[next as usize].src, ch.dst);
            }
        }
        // A corner offers its two built lane-0 channels, nothing else, and
        // the first offer off the mesh is kept: south at node 1, injecting
        // toward node 0.
        assert_eq!(lowered.routes[8][0].len(), 2);
        let first = lowered.unbuilt.expect("offers leave the mesh");
        assert_eq!(
            (first.at, first.held, first.offer.0),
            (NodeId(1), None, Direction::SOUTH)
        );
        assert_eq!(lowered.unproductive, None, "not claimed minimal");
        // Held-state routes are dependency edges by construction.
        let n = 9;
        for table in &lowered.routes {
            for (c, outs) in table[n..].iter().enumerate() {
                assert!(outs
                    .iter()
                    .all(|o| lowered.graph.successors(c as u32).contains(o)));
            }
        }
    }

    #[test]
    #[should_panic(expected = "routing offered a nonexistent channel")]
    fn offering_a_lane_the_relation_declares_unbuilt_panics() {
        lower_everywhere(1); // x links have no lane 1
    }
}
