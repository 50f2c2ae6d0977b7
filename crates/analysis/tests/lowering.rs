//! One walk behind every lowering: `Cdg`, `VcCdg` and `GraphSpec` built
//! from one relation agree edge for edge, and extraction asks the routing
//! function about each `(destination, state)` at most once.

use std::cell::RefCell;
use std::collections::{BTreeSet, HashMap};
use turnroute_analysis::extract;
use turnroute_model::{Cdg, RoutingFunction, TurnSet};
use turnroute_routing::{mesh2d, RoutingMode};
use turnroute_topology::{DirSet, Direction, Mesh, NodeId, Topology};
use turnroute_vc::{VcCdg, VcClass, VcRoutingFunction, VirtualDirection};

/// A physical routing function seen as a one-class virtual-channel one.
struct OneClass<'a>(&'a dyn RoutingFunction);

impl VcRoutingFunction for OneClass<'_> {
    fn name(&self) -> &str {
        self.0.name()
    }

    fn route(
        &self,
        topo: &dyn Topology,
        current: NodeId,
        dest: NodeId,
        arrived: Option<VirtualDirection>,
    ) -> Vec<VirtualDirection> {
        let dirs = self
            .0
            .route(topo, current, dest, arrived.map(|vd| vd.dir()));
        dirs.iter()
            .map(|dir| VirtualDirection::new(dir, VcClass::One))
            .collect()
    }

    fn is_minimal(&self) -> bool {
        self.0.is_minimal()
    }

    fn num_classes(&self) -> usize {
        1
    }

    fn channel_exists(&self, _vd: VirtualDirection) -> bool {
        true
    }
}

#[test]
fn cdg_vc_cdg_and_graph_spec_agree_edge_for_edge() {
    let mesh = Mesh::new_2d(5, 4);
    let algorithms: [Box<dyn RoutingFunction>; 3] = [
        Box::new(mesh2d::xy()),
        Box::new(mesh2d::west_first(RoutingMode::Minimal)),
        Box::new(mesh2d::negative_first(RoutingMode::Nonminimal)),
    ];
    for alg in &algorithms {
        let cdg = Cdg::from_routing(&mesh, alg.as_ref());
        let vc = VcCdg::from_routing(&mesh, &OneClass(alg.as_ref()));
        let spec = extract::from_routing("spec", &mesh, alg.as_ref());
        let vc_spec = extract::from_vc_routing("vc-spec", &mesh, &OneClass(alg.as_ref()));

        // Same channels, in the same order.
        assert_eq!(cdg.channels().len(), vc.channels().len());
        for (a, b) in cdg.channels().iter().zip(vc.channels()) {
            assert_eq!((a.src(), a.dst(), a.dir()), (b.src, b.dst, b.vdir.dir()));
        }
        // Same dependency relation (successor order is each view's own).
        let edges: BTreeSet<(u32, u32)> = cdg.graph().edges().collect();
        assert_eq!(edges.len(), cdg.num_edges(), "{}", alg.name());
        assert_eq!(edges, vc.graph().edges().collect(), "{}", alg.name());
        assert_eq!(edges, spec.deps.iter().copied().collect(), "{}", alg.name());
        assert_eq!(spec.deps, cdg.graph().edges().collect::<Vec<_>>());
        // Same routes, and every held-state route is a dependency.
        assert_eq!(spec.routes, vc_spec.routes, "{}", alg.name());
        let n = mesh.num_nodes();
        for table in &spec.routes {
            for (held, outs) in table[n..].iter().enumerate() {
                for &next in outs {
                    assert!(edges.contains(&(held as u32, next)));
                }
            }
        }
    }
}

type Query = (NodeId, NodeId, Option<Direction>);

/// A routing function that counts how often each query is asked.
struct Counting {
    inner: Box<dyn RoutingFunction>,
    asked: RefCell<HashMap<Query, u32>>,
}

impl RoutingFunction for Counting {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn route(
        &self,
        topo: &dyn Topology,
        current: NodeId,
        dest: NodeId,
        arrived: Option<Direction>,
    ) -> DirSet {
        *self
            .asked
            .borrow_mut()
            .entry((current, dest, arrived))
            .or_default() += 1;
        self.inner.route(topo, current, dest, arrived)
    }

    fn is_minimal(&self) -> bool {
        self.inner.is_minimal()
    }

    fn turn_set(&self, num_dims: usize) -> Option<TurnSet> {
        self.inner.turn_set(num_dims)
    }
}

#[test]
fn extraction_asks_each_destination_state_at_most_once() {
    let mesh = Mesh::new_2d(5, 5);
    let counting = Counting {
        inner: Box::new(mesh2d::west_first(RoutingMode::Minimal)),
        asked: RefCell::default(),
    };
    let spec = extract::from_routing("wf", &mesh, &counting);
    let asked = counting.asked.borrow();
    assert!(asked.values().all(|&times| times == 1), "a state re-asked");
    // Every nonempty table entry was asked for, and nothing else was.
    let filled = spec.routes.iter().flatten().filter(|outs| !outs.is_empty());
    assert!(filled.count() <= asked.len());
    let n = mesh.num_nodes();
    assert!(asked.len() <= n * (n - 1) + mesh.channels().len() * (n - 1));
}
