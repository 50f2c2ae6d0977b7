//! The routing-function interface implemented by concrete algorithms.

use crate::TurnSet;
use turnroute_topology::{DirSet, Direction, NodeId, Topology};

/// A wormhole routing function: given where a packet is, where it is going,
/// and how it got here, which output directions may it take next?
///
/// Implementations live in the `turnroute-routing` crate; analyses
/// ([`crate::Cdg::from_routing`], [`crate::adaptiveness`]) and the
/// simulator consume the trait.
///
/// # Contract
///
/// * `route` returns the empty set iff `current == dest` (the packet is
///   delivered to the local processor).
/// * Every returned direction must correspond to an existing channel
///   (`topo.neighbor(current, dir).is_some()`).
/// * For a minimal function ([`RoutingFunction::is_minimal`] is `true`),
///   every returned direction must reduce the distance to `dest`.
/// * The function must be *connected*: following any sequence of returned
///   directions eventually reaches `dest`.
/// * If [`RoutingFunction::turn_set`] returns a set, every move the
///   function makes must use an allowed turn of that set — this is what
///   ties a concrete algorithm back to the turn model, and tests enforce
///   it.
/// * `route` is a pure function of its arguments — the prover tabulates
///   it and the engine memoises it.
pub trait RoutingFunction {
    /// A short human-readable name, e.g. `"west-first"`.
    fn name(&self) -> &str;

    /// Legal output directions for a packet at `current`, destined for
    /// `dest`, that arrived traveling in `arrived` (`None` when the packet
    /// is being injected at `current`).
    fn route(
        &self,
        topo: &dyn Topology,
        current: NodeId,
        dest: NodeId,
        arrived: Option<Direction>,
    ) -> DirSet;

    /// Whether this function only ever offers shortest-path moves.
    fn is_minimal(&self) -> bool;

    /// The turn set the function's moves are drawn from, when it is a pure
    /// turn-model algorithm over `num_dims` dimensions. Algorithms whose
    /// legality depends on more than the pair of directions (e.g. torus
    /// wraparound rules) return `None` and are verified through
    /// [`crate::Cdg::from_routing`] instead.
    fn turn_set(&self, num_dims: usize) -> Option<TurnSet> {
        let _ = num_dims;
        None
    }
}

impl<T: RoutingFunction + ?Sized> RoutingFunction for &T {
    fn name(&self) -> &str {
        (**self).name()
    }

    fn route(
        &self,
        topo: &dyn Topology,
        current: NodeId,
        dest: NodeId,
        arrived: Option<Direction>,
    ) -> DirSet {
        (**self).route(topo, current, dest, arrived)
    }

    fn is_minimal(&self) -> bool {
        (**self).is_minimal()
    }

    fn turn_set(&self, num_dims: usize) -> Option<TurnSet> {
        (**self).turn_set(num_dims)
    }
}

impl<T: RoutingFunction + ?Sized> RoutingFunction for Box<T> {
    fn name(&self) -> &str {
        (**self).name()
    }

    fn route(
        &self,
        topo: &dyn Topology,
        current: NodeId,
        dest: NodeId,
        arrived: Option<Direction>,
    ) -> DirSet {
        (**self).route(topo, current, dest, arrived)
    }

    fn is_minimal(&self) -> bool {
        (**self).is_minimal()
    }

    fn turn_set(&self, num_dims: usize) -> Option<TurnSet> {
        (**self).turn_set(num_dims)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use turnroute_topology::Mesh;

    /// A trivial minimal fully-adaptive function used to test the blanket
    /// impls.
    struct FullyAdaptive;

    impl RoutingFunction for FullyAdaptive {
        fn name(&self) -> &str {
            "fully-adaptive"
        }

        fn route(
            &self,
            topo: &dyn Topology,
            current: NodeId,
            dest: NodeId,
            _arrived: Option<Direction>,
        ) -> DirSet {
            topo.productive_dirs(current, dest)
        }

        fn is_minimal(&self) -> bool {
            true
        }
    }

    #[test]
    fn blanket_impls_delegate() {
        let mesh = Mesh::new_2d(4, 4);
        let f = FullyAdaptive;
        let by_ref: &dyn RoutingFunction = &&f;
        let boxed: Box<dyn RoutingFunction> = Box::new(FullyAdaptive);
        let a = NodeId(0);
        let b = NodeId(15);
        assert_eq!(by_ref.name(), "fully-adaptive");
        assert_eq!(boxed.name(), "fully-adaptive");
        assert!(by_ref.is_minimal() && boxed.is_minimal());
        assert_eq!(by_ref.route(&mesh, a, b, None), f.route(&mesh, a, b, None));
        assert_eq!(boxed.route(&mesh, a, b, None), f.route(&mesh, a, b, None));
        assert!(by_ref.turn_set(2).is_none());
        assert!(boxed.turn_set(2).is_none());
    }
}
