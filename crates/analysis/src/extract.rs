//! Mechanical extraction of explicit channel graphs.
//!
//! Everything `turnprove` verifies is first lowered to a
//! [`GraphSpec`] by one of the functions here — from a bare [`TurnSet`]
//! (potential dependencies), a concrete [`RoutingFunction`] (induced
//! dependencies, optionally degraded by a [`FaultSet`] through
//! [`FaultMasked`], the rule the engine itself arbitrates by), or a
//! [`VcRoutingFunction`] over the virtual channels it declares.
//! Dependency edges and route tables both come out of one walk of the
//! relation (`turnroute_model::depgraph::lower`, behind [`Cdg`] and
//! [`VcCdg`]), and one helper turns that walk into a spec, so a
//! held-state route is a dependency edge by construction.
//!
//! Extraction is the trusted computing base of the prover/checker split:
//! the checker validates certificates against these specs, so a bug here
//! is a bug in the *question*, not in the *proof* (see `DESIGN.md` §9).

use crate::certificate::{ChannelVertex, GraphSpec};
use crate::routing::TurnSetRouting;
use turnroute_model::depgraph::{LaneChannel, Lowering};
use turnroute_model::{Cdg, FaultMasked, RoutingFunction, TurnSet};
use turnroute_topology::{Direction, FaultSet, NodeId, Topology};
use turnroute_vc::{VcCdg, VcRoutingFunction, VirtualDirection};

/// Lower a bare turn set: the routing relation is the maximal coherent
/// minimal function the set permits ([`TurnSetRouting`]), and the
/// dependency edges are widened from the ones that function induces to
/// the *potential* CDG (any allowed turn, regardless of destination — the
/// strongest claim).
pub fn from_turn_set(name: impl Into<String>, topo: &dyn Topology, set: &TurnSet) -> GraphSpec {
    let name = name.into();
    let routing = TurnSetRouting::new(name.clone(), set.clone(), topo);
    let mut spec = from_routing(name, topo, &routing);
    spec.deps = Cdg::from_turn_set(topo, set).graph().edges().collect();
    spec
}

/// Lower a concrete routing function: dependency edges are the induced
/// CDG (only moves some destination actually provokes), and the routing
/// relation is the function itself.
pub fn from_routing(
    name: impl Into<String>,
    topo: &dyn Topology,
    routing: &dyn RoutingFunction,
) -> GraphSpec {
    routing_spec(name.into(), topo, Cdg::lower(topo, routing, true))
}

/// A routing function's [`Cdg::lower`]ing, with routes, as the prover's
/// question.
pub(crate) fn routing_spec(name: String, topo: &dyn Topology, lowered: Lowering) -> GraphSpec {
    let channels = topo.channels();
    spec_of(name, topo, lowered, |id, _| channels[id].to_string())
}

/// Lower a routing function under a fault pattern, through
/// [`FaultMasked`]: primary routes and turn-legal misroute fallbacks
/// filtered by the fault set, failed-input arrival states excluded as
/// vacuous.
pub fn from_faulted_routing(
    name: impl Into<String>,
    topo: &dyn Topology,
    routing: &dyn RoutingFunction,
    faults: &FaultSet,
) -> GraphSpec {
    from_routing(name, topo, &FaultMasked::new(routing, topo, faults))
}

/// Lower a virtual-channel routing function over the channel set it
/// declares on `topo`: vertices are *virtual* channels.
pub fn from_vc_routing(
    name: impl Into<String>,
    topo: &dyn Topology,
    routing: &dyn VcRoutingFunction,
) -> GraphSpec {
    let lowered = VcCdg::lower(topo, routing, true);
    spec_of(name.into(), topo, lowered, |id, ch| {
        let vdir = VirtualDirection::of_lane(ch.dir, ch.lane);
        format!("c{id} {} -> {} ({vdir})", ch.src, ch.dst)
    })
}

/// A lowered relation as the prover's question, channel `id` labelled
/// `label(id, channel)`.
fn spec_of(
    name: String,
    topo: &dyn Topology,
    lowered: Lowering,
    label: impl Fn(usize, &LaneChannel) -> String,
) -> GraphSpec {
    let vertex = |(id, ch): (usize, &LaneChannel)| ChannelVertex {
        src: ch.src.0,
        dst: ch.dst.0,
        label: label(id, ch),
    };
    GraphSpec {
        name,
        num_nodes: topo.num_nodes() as u32,
        channels: lowered.channels.iter().enumerate().map(vertex).collect(),
        deps: lowered.graph.edges().collect(),
        routes: lowered.routes,
    }
}

/// Lower an arbitrary connected netlist under up*/down* routing. No
/// topology object exists for an irregular graph, so this extraction is
/// self-contained: a breadth-first spanning tree from node 0 assigns
/// every node a level, the channel `a -> b` is *up* iff
/// `(level[b], b) < (level[a], a)` (id breaks level ties, so "up" is a
/// total order toward the root), dependency edges admit every
/// non-reversing transition except the prohibited down -> up, and the
/// route relation offers, per destination, exactly the channels from
/// which the destination stays reachable through legal transitions.
/// Every up-only prefix has strictly decreasing `(level, id)` and every
/// down-only suffix strictly increasing, so the dependency graph is
/// acyclic and the prover's numbering exists.
///
/// # Panics
///
/// Panics when a link endpoint is out of range, a link is a self-loop,
/// or the netlist is not connected.
pub fn from_netlist(name: impl Into<String>, num_nodes: u32, links: &[(u32, u32)]) -> GraphSpec {
    let level = netlist_levels(num_nodes, links);
    let up = |c: (u32, u32)| (level[c.1 as usize], c.1) < (level[c.0 as usize], c.0);
    let label = |c: (u32, u32)| {
        let way = if up(c) { "up" } else { "down" };
        format!("{} -> {} ({way})", c.0, c.1)
    };
    netlist_spec(name.into(), num_nodes, links, label, |c1, c2| {
        up(c1) || !up(c2) // everything but the prohibited down -> up
    })
}

/// Lower an arbitrary connected netlist under *unrestricted* routing:
/// every non-reversing continuation is legal, and per destination the
/// relation offers exactly the channels from which the destination stays
/// reachable. On any netlist with an undirected cycle this relation is
/// cyclic — the irregular-topology analogue of `all_ninety` on a mesh,
/// and the raw material the synthesizer ([`crate::synth`]) splits into a
/// certified escape/adaptive assignment.
///
/// # Panics
///
/// Panics when a link endpoint is out of range, a link is a self-loop,
/// or the netlist is not connected.
pub fn from_netlist_unrestricted(
    name: impl Into<String>,
    num_nodes: u32,
    links: &[(u32, u32)],
) -> GraphSpec {
    netlist_levels(num_nodes, links);
    let label = |c: (u32, u32)| format!("{} -> {}", c.0, c.1);
    netlist_spec(name.into(), num_nodes, links, label, |_, _| true)
}

/// Breadth-first level of every node from node 0, after checking the
/// netlist is well formed and connected.
fn netlist_levels(num_nodes: u32, links: &[(u32, u32)]) -> Vec<u32> {
    let mut adj: Vec<Vec<u32>> = vec![Vec::new(); num_nodes as usize];
    for &(a, b) in links {
        assert!(
            a < num_nodes && b < num_nodes && a != b,
            "bad link ({a}, {b})"
        );
        adj[a as usize].push(b);
        adj[b as usize].push(a);
    }
    let mut level = vec![u32::MAX; num_nodes as usize];
    level[0] = 0;
    let mut queue = std::collections::VecDeque::from([0u32]);
    while let Some(v) = queue.pop_front() {
        for &w in &adj[v as usize] {
            if level[w as usize] == u32::MAX {
                level[w as usize] = level[v as usize] + 1;
                queue.push_back(w);
            }
        }
    }
    assert!(
        level.iter().all(|&l| l != u32::MAX),
        "netlist is not connected"
    );
    level
}

/// The netlist lowering proper: one channel per direction per link, in
/// link order; a dependency for every non-reversing continuation that
/// `legal` admits; and per destination the routes that keep the
/// destination reachable through dependencies. Every dependency `c1 ->
/// c2` is such a route for the destination `c2` enters, so routes and
/// dependencies are the same relation.
fn netlist_spec(
    name: String,
    num_nodes: u32,
    links: &[(u32, u32)],
    label: impl Fn((u32, u32)) -> String,
    legal: impl Fn((u32, u32), (u32, u32)) -> bool,
) -> GraphSpec {
    let n = num_nodes as usize;
    let chans: Vec<(u32, u32)> = links.iter().flat_map(|&(a, b)| [(a, b), (b, a)]).collect();
    let verts: Vec<ChannelVertex> = chans
        .iter()
        .map(|&(a, b)| ChannelVertex {
            src: a,
            dst: b,
            label: label((a, b)),
        })
        .collect();

    let mut deps = Vec::new();
    let mut succ: Vec<Vec<u32>> = vec![Vec::new(); chans.len()];
    let mut pred: Vec<Vec<u32>> = vec![Vec::new(); chans.len()];
    for (i, &c1) in chans.iter().enumerate() {
        for (j, &c2) in chans.iter().enumerate() {
            let continues = c2.0 == c1.1 && c2.1 != c1.0; // no reversal
            if continues && legal(c1, c2) {
                deps.push((i as u32, j as u32));
                succ[i].push(j as u32);
                pred[j].push(i as u32);
            }
        }
    }

    let mut routes = Vec::with_capacity(n);
    for dest in 0..num_nodes {
        // good[c]: holding c, some legal continuation delivers at dest.
        let mut good = vec![false; chans.len()];
        let mut queue: std::collections::VecDeque<usize> = (0..chans.len())
            .filter(|&c| chans[c].1 == dest)
            .inspect(|&c| good[c] = true)
            .collect();
        while let Some(c) = queue.pop_front() {
            for &p in &pred[c] {
                if !good[p as usize] {
                    good[p as usize] = true;
                    queue.push_back(p as usize);
                }
            }
        }
        let mut table = vec![Vec::new(); n + chans.len()];
        for (c, &(a, b)) in chans.iter().enumerate() {
            if a != dest && good[c] {
                table[a as usize].push(c as u32);
            }
            if b != dest {
                let onward = succ[c].iter().copied();
                table[n + c] = onward.filter(|&next| good[next as usize]).collect();
            }
        }
        routes.push(table);
    }
    GraphSpec {
        name,
        num_nodes,
        channels: verts,
        deps,
        routes,
    }
}

/// A deliberately broken virtual-channel assignment: fully adaptive on
/// *both* y classes with no side discipline, which reintroduces the
/// dependency cycles the double-y rules exist to break. This is the
/// planted defect behind `turnprove --inject-bad` and the standing
/// negative control — the prover must emit a witness cycle for it, and
/// the checker must accept that witness.
pub struct PlantedCyclicVc;

impl VcRoutingFunction for PlantedCyclicVc {
    fn name(&self) -> &str {
        "planted-cyclic-vc"
    }

    fn route(
        &self,
        topo: &dyn Topology,
        current: NodeId,
        dest: NodeId,
        _arrived: Option<VirtualDirection>,
    ) -> Vec<VirtualDirection> {
        // Every productive move, a vertical one on both classes.
        let lanes =
            |dir: Direction| (0..1 + dir.dim()).map(move |l| VirtualDirection::of_lane(dir, l));
        topo.productive_dirs(current, dest)
            .iter()
            .flat_map(lanes)
            .collect()
    }

    fn is_minimal(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use turnroute_model::presets;
    use turnroute_topology::Mesh;
    use turnroute_vc::DoubleYAdaptive;

    #[test]
    fn turn_set_spec_is_well_formed_and_checkable() {
        let mesh = Mesh::new_2d(4, 4);
        let spec = from_turn_set("wf", &mesh, &presets::west_first_turns());
        assert_eq!(spec.num_nodes, 16);
        assert_eq!(spec.channels.len(), 48);
        let cert = crate::prove::prove(&spec);
        crate::check::check(&spec, &cert).expect("west-first certificate");
        assert!(cert.verdict.is_acyclic());
    }

    #[test]
    fn faulted_spec_excludes_dead_routes() {
        use turnroute_topology::Direction;
        let mesh = Mesh::new_2d(4, 4);
        let routing = TurnSetRouting::new("wf", presets::west_first_turns(), &mesh);
        let mut faults = FaultSet::new(&mesh);
        let victim = mesh.node_at_coords(&[1, 1]);
        faults.fail_link(&mesh, victim, Direction::EAST);
        let spec = from_faulted_routing("wf+f", &mesh, &routing, &faults);
        // The failed channel must never appear as a route target.
        let dead = mesh
            .channels()
            .iter()
            .find(|ch| ch.src() == victim && ch.dir() == Direction::EAST)
            .map(|ch| ch.id().0)
            .expect("channel exists");
        for table in &spec.routes {
            for outs in table {
                assert!(!outs.contains(&dead), "failed channel offered");
            }
        }
    }

    #[test]
    fn double_y_spec_has_virtual_vertices() {
        let mesh = Mesh::new_2d(4, 4);
        let spec = from_vc_routing("dy", &mesh, &DoubleYAdaptive::new());
        // 24 x channels + 48 doubled y channels.
        assert_eq!(spec.channels.len(), 72);
        assert!(spec.channels.iter().any(|v| v.label.contains("north2")));
    }

    #[test]
    fn netlist_up_down_is_acyclic_fully_connected_and_checkable() {
        // The irregular 6-node graph from the prove matrix: two triangles
        // bridged twice — not a mesh, not a tree, not vertex-symmetric.
        let spec = from_netlist(
            "netlist6",
            6,
            &[
                (0, 1),
                (0, 2),
                (1, 2),
                (1, 3),
                (2, 4),
                (3, 4),
                (3, 5),
                (4, 5),
            ],
        );
        assert_eq!(spec.channels.len(), 16);
        // Every channel is labeled with its tree orientation.
        assert!(spec
            .channels
            .iter()
            .all(|v| { v.label.ends_with("(up)") != v.label.ends_with("(down)") }));
        let cert = crate::prove::prove(&spec);
        crate::check::check(&spec, &cert).expect("up*/down* certificate");
        assert!(cert.verdict.is_acyclic(), "down->up prohibition suffices");
        assert!(cert.unreachable.is_empty(), "up*/down* is fully connected");
        assert_eq!(cert.paths.len(), 30);
    }

    #[test]
    #[should_panic(expected = "not connected")]
    fn netlist_extraction_rejects_disconnected_graphs() {
        from_netlist("split", 4, &[(0, 1), (2, 3)]);
    }

    #[test]
    fn planted_cyclic_vc_is_cyclic() {
        let mesh = Mesh::new_2d(4, 4);
        assert!(VcCdg::from_routing(&mesh, &PlantedCyclicVc)
            .find_cycle()
            .is_some());
    }

    #[test]
    fn hand_coded_and_tabulated_double_y_lower_identically() {
        // The dedupe guarantee: the hand-coded double-y function and the
        // table form the synthesizer emits share one VC-lowering path
        // (the generalized `VcCdg`), so snapshotting double-y into a
        // table and lowering both must agree channel for channel —
        // same vertices, same labels, same dependency relation, same
        // routing tables.
        let mesh = Mesh::new_2d(4, 4);
        let dy = DoubleYAdaptive::new();
        let table = turnroute_vc::TableVcRouting::from_function(&mesh, &dy);
        let direct = from_vc_routing("dy", &mesh, &dy);
        let via_table = from_vc_routing("dy", &mesh, &table);
        assert_eq!(direct.channels, via_table.channels, "channel-for-channel");
        assert_eq!(direct.deps, via_table.deps);
        assert_eq!(direct, via_table);
    }

    #[test]
    fn netlist_unrestricted_is_cyclic_but_connected() {
        let spec = from_netlist_unrestricted(
            "netlist6-unres",
            6,
            &[
                (0, 1),
                (0, 2),
                (1, 2),
                (1, 3),
                (2, 4),
                (3, 4),
                (3, 5),
                (4, 5),
            ],
        );
        let cert = crate::prove::prove(&spec);
        crate::check::check(&spec, &cert).expect("cyclic certificate checks");
        assert!(!cert.verdict.is_acyclic(), "no discipline, no proof");
        assert_eq!(cert.paths.len(), 30, "still fully connected");
    }
}
