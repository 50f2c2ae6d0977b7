//! Static fault patterns over a topology's links and nodes.
//!
//! A [`FaultSet`] is a snapshot of which unidirectional channels and which
//! nodes are out of service. It is the vocabulary shared by the fault-aware
//! routing adapters (which filter their offered directions against it), the
//! analysis layer's certificates (which check that the surviving relation
//! stays deadlock free), and the simulator's fault-injection schedules (which
//! produce one effective `FaultSet` per cycle).
//!
//! Failing a node fails every channel touching it: all channels leaving it,
//! all channels entering it from neighbors, and implicitly its local
//! injection/ejection service (the simulator handles the latter).

use crate::{Direction, NodeId, Topology};

/// A set of failed unidirectional links and failed nodes, indexed by the
/// topology's dense [`Topology::channel_slot`] numbering.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultSet {
    num_dims: usize,
    /// Per-channel-slot failure flags (`channel_slot_count` entries).
    links: Vec<bool>,
    /// Per-node failure flags.
    nodes: Vec<bool>,
    failed_links: usize,
}

impl FaultSet {
    /// An all-healthy fault set sized for `topo`.
    pub fn new(topo: &dyn Topology) -> FaultSet {
        FaultSet {
            num_dims: topo.num_dims(),
            links: vec![false; topo.channel_slot_count()],
            nodes: vec![false; topo.num_nodes()],
            failed_links: 0,
        }
    }

    /// Mark the channel leaving `node` in `dir` as failed.
    ///
    /// # Panics
    ///
    /// Panics if the channel does not exist in `topo`.
    pub fn fail_link(&mut self, topo: &dyn Topology, node: NodeId, dir: Direction) {
        assert!(
            topo.neighbor(node, dir).is_some(),
            "no channel at {node} {dir}"
        );
        let slot = topo.channel_slot(node, dir);
        if !self.links[slot] {
            self.links[slot] = true;
            self.failed_links += 1;
        }
    }

    /// Restore the channel leaving `node` in `dir`.
    pub fn heal_link(&mut self, topo: &dyn Topology, node: NodeId, dir: Direction) {
        let slot = topo.channel_slot(node, dir);
        if self.links[slot] {
            self.links[slot] = false;
            self.failed_links -= 1;
        }
    }

    /// Mark `node` as failed, failing every channel leaving or entering it.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range for `topo`.
    pub fn fail_node(&mut self, topo: &dyn Topology, node: NodeId) {
        assert!(node.index() < self.nodes.len(), "no node {node}");
        self.nodes[node.index()] = true;
        for dir in Direction::all(self.num_dims) {
            if topo.neighbor(node, dir).is_some() {
                self.fail_link(topo, node, dir);
            }
            // The neighbor's channel *into* this node.
            if let Some(prev) = topo.neighbor(node, dir.opposite()) {
                self.fail_link(topo, prev, dir);
            }
        }
    }

    /// Whether the channel at `slot` (per [`Topology::channel_slot`]) is
    /// failed.
    #[inline]
    pub fn link_failed(&self, slot: usize) -> bool {
        self.links[slot]
    }

    /// Whether the channel leaving `node` in `dir` is failed.
    pub fn link_failed_at(&self, topo: &dyn Topology, node: NodeId, dir: Direction) -> bool {
        self.links[topo.channel_slot(node, dir)]
    }

    /// Whether `node` is failed.
    #[inline]
    pub fn node_failed(&self, node: NodeId) -> bool {
        self.nodes[node.index()]
    }

    /// Whether nothing is failed.
    pub fn is_empty(&self) -> bool {
        self.failed_links == 0 && !self.nodes.iter().any(|&n| n)
    }

    /// Number of failed channels (node failures count their incident
    /// channels).
    pub fn failed_link_count(&self) -> usize {
        self.failed_links
    }

    /// Number of failed nodes.
    pub fn failed_node_count(&self) -> usize {
        self.nodes.iter().filter(|&&n| n).count()
    }

    /// Channel slots currently failed, in increasing slot order.
    pub fn failed_slots(&self) -> impl Iterator<Item = usize> + '_ {
        self.links
            .iter()
            .enumerate()
            .filter_map(|(slot, &f)| f.then_some(slot))
    }

    /// The channels of `topo` that survive this fault pattern — the
    /// vertices of the fault-degraded channel graph. A channel survives if
    /// its own slot is healthy and neither endpoint node is failed.
    pub fn surviving_channels(&self, topo: &dyn Topology) -> Vec<crate::Channel> {
        topo.channels()
            .into_iter()
            .filter(|ch| {
                !self.link_failed(topo.channel_slot(ch.src(), ch.dir()))
                    && !self.node_failed(ch.src())
                    && !self.node_failed(ch.dst())
            })
            .collect()
    }
}

impl std::fmt::Display for FaultSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "FaultSet({} links, {} nodes failed)",
            self.failed_links,
            self.failed_node_count()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Mesh;

    #[test]
    fn starts_healthy() {
        let mesh = Mesh::new_2d(4, 4);
        let faults = FaultSet::new(&mesh);
        assert!(faults.is_empty());
        assert_eq!(faults.failed_link_count(), 0);
        assert_eq!(faults.failed_node_count(), 0);
        assert_eq!(faults.failed_slots().count(), 0);
    }

    #[test]
    fn fail_and_heal_link_round_trip() {
        let mesh = Mesh::new_2d(4, 4);
        let mut faults = FaultSet::new(&mesh);
        let node = mesh.node_at_coords(&[1, 1]);
        faults.fail_link(&mesh, node, Direction::EAST);
        assert!(faults.link_failed_at(&mesh, node, Direction::EAST));
        assert!(faults.link_failed(mesh.channel_slot(node, Direction::EAST)));
        assert_eq!(faults.failed_link_count(), 1);
        // Failing twice does not double count.
        faults.fail_link(&mesh, node, Direction::EAST);
        assert_eq!(faults.failed_link_count(), 1);
        faults.heal_link(&mesh, node, Direction::EAST);
        assert!(faults.is_empty());
    }

    #[test]
    fn node_failure_takes_out_incident_channels() {
        let mesh = Mesh::new_2d(4, 4);
        let mut faults = FaultSet::new(&mesh);
        let node = mesh.node_at_coords(&[1, 1]);
        faults.fail_node(&mesh, node);
        assert!(faults.node_failed(node));
        assert_eq!(faults.failed_node_count(), 1);
        // Interior node: 4 outgoing + 4 incoming channels.
        assert_eq!(faults.failed_link_count(), 8);
        for dir in Direction::all(2) {
            assert!(faults.link_failed_at(&mesh, node, dir));
            let prev = mesh.neighbor(node, dir.opposite()).unwrap();
            assert!(faults.link_failed_at(&mesh, prev, dir));
        }
        assert!(faults.to_string().contains("8 links, 1 nodes"));
    }

    #[test]
    fn corner_node_failure_counts_existing_channels_only() {
        let mesh = Mesh::new_2d(4, 4);
        let mut faults = FaultSet::new(&mesh);
        faults.fail_node(&mesh, mesh.node_at_coords(&[0, 0]));
        // Corner: 2 outgoing + 2 incoming.
        assert_eq!(faults.failed_link_count(), 4);
    }

    #[test]
    #[should_panic(expected = "no channel")]
    fn failing_nonexistent_link_panics() {
        let mesh = Mesh::new_2d(4, 4);
        let mut faults = FaultSet::new(&mesh);
        faults.fail_link(&mesh, mesh.node_at_coords(&[0, 0]), Direction::WEST);
    }
}
