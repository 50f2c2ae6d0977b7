//! Canonical state encoding, symmetry canonicalization, and FNV hashing.
//!
//! A global state of a scripted exploration is determined by: which front
//! packets are still pending, every channel slot's owner/binding/buffered
//! flits, every source queue and emitter, and every packet's
//! delivered/misroute status. Everything else the engine snapshot carries
//! is deliberately *excluded* from the encoding:
//!
//! * `now` and `head_since` — with `routing_delay = 0` a settled head is
//!   always past its delay gate, so absolute time never changes which
//!   transitions are enabled;
//! * the RNG — scripted steps consult the oracle, never the RNG (the
//!   injection rate is zero and no policy is `Random`);
//! * statistics (latency sums, stall counters, measurement windows) —
//!   observational, not behavioral.
//!
//! Packet identity is the other canonicalization problem: the engines
//! assign dense packet ids in injection order, so the same physical
//! configuration reached through two injection schedules would encode
//! differently. The explorer therefore relabels every engine packet id to
//! its *front index* (stable across schedules) before encoding.
//!
//! On square meshes the encoder additionally canonicalizes under the
//! stabilizer of the configuration: the mesh symmetries that fix the turn
//! set *and* permute the injection front onto itself. Such a symmetry
//! commutes with every scripted transition (the explorer enumerates all
//! arbitration orders, so the successor *set* is equivariant), making
//! min-over-orbit a sound state-space reduction. The canonical form is
//! the lexicographically smallest encoding over the stabilizer.

use super::front::FrontPacket;
use std::hash::{BuildHasher, Hasher};
use turnroute_model::symmetry::mesh_symmetries;
use turnroute_model::TurnSet;
use turnroute_sim::{Engine, Lanes};
use turnroute_topology::{Direction, Mesh, NodeId, Topology};

/// 64-bit FNV-1a, the visited-set hasher. The set keys on the *full*
/// canonical encoding (a hash collision must never merge two distinct
/// states — that would certify an unexplored space), so the hasher only
/// has to be fast and well distributed, not cryptographic.
pub struct Fnv1a64(u64);

impl Hasher for Fnv1a64 {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }
}

/// [`BuildHasher`] handing out [`Fnv1a64`] with the standard offset
/// basis.
#[derive(Debug, Clone, Default)]
pub struct FnvBuild;

impl BuildHasher for FnvBuild {
    type Hasher = Fnv1a64;

    fn build_hasher(&self) -> Fnv1a64 {
        Fnv1a64(0xcbf2_9ce4_8422_2325)
    }
}

/// One state-space symmetry, precomputed as index maps: `slot_to[s]` is
/// the image slot of `s`, `node_to[v]` the image node, `front_to[i]` the
/// image front index.
#[derive(Debug, Clone)]
pub(crate) struct StatePerm {
    slot_to: Vec<usize>,
    front_to: Vec<u32>,
    /// Inverses, so encoding can iterate output indices in order.
    slot_from: Vec<usize>,
    node_from: Vec<usize>,
    front_from: Vec<u32>,
}

impl StatePerm {
    fn identity(num_slots: usize, num_nodes: usize, front_len: usize) -> StatePerm {
        StatePerm {
            slot_to: (0..num_slots).collect(),
            front_to: (0..front_len as u32).collect(),
            slot_from: (0..num_slots).collect(),
            node_from: (0..num_nodes).collect(),
            front_from: (0..front_len as u32).collect(),
        }
    }

    fn from_maps(slot_to: Vec<usize>, node_to: &[usize], front_to: Vec<u32>) -> StatePerm {
        let mut slot_from = vec![0; slot_to.len()];
        for (old, &new) in slot_to.iter().enumerate() {
            slot_from[new] = old;
        }
        let mut node_from = vec![0; node_to.len()];
        for (old, &new) in node_to.iter().enumerate() {
            node_from[new] = old;
        }
        let mut front_from = vec![0; front_to.len()];
        for (old, &new) in front_to.iter().enumerate() {
            front_from[new as usize] = old as u32;
        }
        StatePerm {
            slot_to,
            front_to,
            slot_from,
            node_from,
            front_from,
        }
    }
}

/// The encoding context of one configuration: shape constants plus the
/// symmetry group to canonicalize under (always at least the identity).
pub(crate) struct EncodeCtx {
    pub num_slots: usize,
    pub num_nodes: usize,
    pub front_len: usize,
    perms: Vec<StatePerm>,
}

impl EncodeCtx {
    /// A context with no symmetry reduction.
    pub fn identity(num_slots: usize, num_nodes: usize, front_len: usize) -> EncodeCtx {
        EncodeCtx {
            num_slots,
            num_nodes,
            front_len,
            perms: vec![StatePerm::identity(num_slots, num_nodes, front_len)],
        }
    }

    /// A context canonicalizing under the stabilizer of `(set, front)`
    /// inside the hyperoctahedral group of `mesh`: the symmetries that
    /// preserve every side length, fix the turn set, and permute the
    /// front onto itself. Falls back to the identity alone when nothing
    /// else qualifies.
    pub fn mesh_stabilizer(mesh: &Mesh, set: &TurnSet, front: &[FrontPacket]) -> EncodeCtx {
        let n = mesh.num_dims();
        let radix: Vec<u16> = mesh.radices().to_vec();
        let num_nodes = mesh.num_nodes();
        let inj_base = num_nodes * 2 * n;
        let ej_base = inj_base + num_nodes;
        let num_slots = ej_base + num_nodes;
        let mut perms = Vec::new();
        // Only canonicalize on square meshes: there every signed axis
        // permutation is a graph automorphism. (On non-square meshes the
        // identity fallback below keeps the context valid.)
        let square = radix.windows(2).all(|w| w[0] == w[1]);
        if square {
            for g in mesh_symmetries(n) {
                if g.apply(set) != *set {
                    continue;
                }
                let node_to: Vec<usize> = (0..num_nodes)
                    .map(|v| {
                        let c = mesh.coord_of(NodeId(v as u32));
                        mesh.node_at_coords(&g.apply_coords(c.as_slice(), &radix))
                            .index()
                    })
                    .collect();
                let Some(front_to) = front_action(front, &node_to) else {
                    continue;
                };
                let mut slot_to = vec![0usize; num_slots];
                for (v, &img) in node_to.iter().enumerate() {
                    for d in Direction::all(n) {
                        let old = mesh.channel_slot(NodeId(v as u32), d);
                        let new = mesh.channel_slot(NodeId(img as u32), g.apply_dir(d));
                        slot_to[old] = new;
                    }
                    slot_to[inj_base + v] = inj_base + img;
                    slot_to[ej_base + v] = ej_base + img;
                }
                perms.push(StatePerm::from_maps(slot_to, &node_to, front_to));
            }
        }
        if perms.is_empty() {
            perms.push(StatePerm::identity(num_slots, num_nodes, front.len()));
        }
        EncodeCtx {
            num_slots,
            num_nodes,
            front_len: front.len(),
            perms,
        }
    }

    /// Group order (1 = no reduction).
    pub fn group_order(&self) -> usize {
        self.perms.len()
    }
}

/// The front permutation induced by a node map, or `None` when the front
/// is not invariant under it (duplicates pair up greedily, which is sound
/// — identical packets are interchangeable in every view).
fn front_action(front: &[FrontPacket], node_to: &[usize]) -> Option<Vec<u32>> {
    let mut front_to = vec![u32::MAX; front.len()];
    let mut taken = vec![false; front.len()];
    for (i, p) in front.iter().enumerate() {
        let img = (
            node_to[p.src.index()] as u32,
            node_to[p.dst.index()] as u32,
            p.len,
        );
        let j = front
            .iter()
            .enumerate()
            .position(|(j, q)| !taken[j] && (q.src.0, q.dst.0, q.len) == img)?;
        taken[j] = true;
        front_to[i] = j as u32;
    }
    Some(front_to)
}

/// One channel slot's contents: `(owner_front, binding_slot, flits)`,
/// each flit `(front, head, tail)`; `u32::MAX` / `usize::MAX` mean none.
type SlotView = (u32, usize, Vec<(u32, bool, bool)>);

/// The symmetry-free view of one engine state, with packets already
/// relabeled to front indices.
#[derive(Debug, Clone, Default)]
pub(crate) struct RawView {
    /// Per slot: owner, binding, and buffered flits.
    slots: Vec<SlotView>,
    /// Per node: queued front indices, front first.
    queues: Vec<Vec<u32>>,
    /// Per node: `(front, flits_sent)` of the packet streaming in.
    emitting: Vec<Option<(u32, u32)>>,
    /// Per front index: `(delivered, misroutes)`; pending packets read
    /// `(false, 0)`.
    packets: Vec<(bool, u32)>,
    /// Front indices not yet injected, as a bitmask.
    pending: u32,
}

/// Extract the relabeled view of `engine`'s current state. `order[p]` is
/// the front index of engine packet id `p`.
pub(crate) fn extract_view<'a, L: Lanes<'a>>(
    engine: &Engine<'a, L>,
    order: &[u32],
    pending: u32,
    ctx: &EncodeCtx,
) -> RawView {
    let relabel = |p: u32| order[p as usize];
    let mut view = RawView {
        pending,
        ..RawView::default()
    };
    for s in 0..ctx.num_slots {
        let owner = engine.slot_owner(s).map_or(u32::MAX, relabel);
        let binding = engine.slot_binding(s).unwrap_or(usize::MAX);
        let flits = engine
            .slot_flits(s)
            .map(|(p, h, t)| (relabel(p), h, t))
            .collect();
        view.slots.push((owner, binding, flits));
    }
    for v in 0..ctx.num_nodes {
        view.queues
            .push(engine.source_queue(v).map(relabel).collect());
        view.emitting.push(
            engine
                .source_emitting(v)
                .map(|(p, sent)| (relabel(p), sent)),
        );
    }
    view.packets = vec![(false, 0); ctx.front_len];
    for (p, &front) in engine.packets().iter().zip(order) {
        view.packets[front as usize] = (p.delivered.is_some(), p.misroutes);
    }
    view
}

/// The canonical encoding of `view`: the lexicographically smallest byte
/// string over the context's symmetry group.
pub(crate) fn canonical(view: &RawView, ctx: &EncodeCtx) -> Vec<u8> {
    ctx.perms
        .iter()
        .map(|perm| encode_under(view, perm))
        .min()
        .expect("at least the identity")
}

fn encode_under(view: &RawView, perm: &StatePerm) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 * view.slots.len());
    let mut pending = 0u32;
    for i in 0..perm.front_to.len() {
        if view.pending & (1 << i) != 0 {
            pending |= 1 << perm.front_to[i];
        }
    }
    out.extend_from_slice(&pending.to_le_bytes());
    for new_s in 0..view.slots.len() {
        let (owner, binding, ref flits) = view.slots[perm.slot_from[new_s]];
        push_front(&mut out, owner, perm);
        if binding == usize::MAX {
            out.extend_from_slice(&u16::MAX.to_le_bytes());
        } else {
            out.extend_from_slice(&(perm.slot_to[binding] as u16).to_le_bytes());
        }
        out.push(flits.len() as u8);
        for &(p, head, tail) in flits {
            push_front(&mut out, p, perm);
            out.push(u8::from(head) << 1 | u8::from(tail));
        }
    }
    for new_v in 0..view.queues.len() {
        let old_v = perm.node_from[new_v];
        let q = &view.queues[old_v];
        out.push(q.len() as u8);
        for &p in q {
            push_front(&mut out, p, perm);
        }
        match view.emitting[old_v] {
            Some((p, sent)) => {
                out.push(1);
                push_front(&mut out, p, perm);
                out.push(sent as u8);
            }
            None => out.push(0),
        }
    }
    for new_f in 0..perm.front_from.len() {
        let (delivered, misroutes) = view.packets[perm.front_from[new_f] as usize];
        out.push(u8::from(delivered));
        out.push(misroutes as u8);
    }
    out
}

fn push_front(out: &mut Vec<u8>, front: u32, perm: &StatePerm) {
    if front == u32::MAX {
        out.push(u8::MAX);
    } else {
        out.push(perm.front_to[front as usize] as u8);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use turnroute_model::presets;

    fn front_2x2() -> Vec<FrontPacket> {
        // Corner exchange on the 2x2 mesh: invariant under the whole
        // square group.
        [(0u32, 3u32), (3, 0), (1, 2), (2, 1)]
            .iter()
            .map(|&(s, d)| FrontPacket {
                src: NodeId(s),
                dst: NodeId(d),
                len: 2,
            })
            .collect()
    }

    /// A hand-built non-symmetric view on the 2x2 mesh: packet 0's head
    /// sits in the east channel out of node 0.
    fn sample_view(mesh: &Mesh, ctx: &EncodeCtx, slot: usize, front: u32) -> RawView {
        let _ = mesh;
        let mut view = RawView {
            pending: 0b1100,
            ..RawView::default()
        };
        view.slots = vec![(u32::MAX, usize::MAX, Vec::new()); ctx.num_slots];
        view.slots[slot] = (front, usize::MAX, vec![(front, true, false)]);
        view.queues = vec![Vec::new(); ctx.num_nodes];
        view.emitting = vec![None; ctx.num_nodes];
        view.packets = vec![(false, 0); ctx.front_len];
        view
    }

    #[test]
    fn isomorphic_states_encode_identically() {
        // On the 2x2 mesh the x-flip swaps n0<->n1 and n2<->n3, so it
        // maps "front packet 0 (n0->n3) heading east out of n0" onto
        // "front packet 2 (n1->n2) heading west out of n1", and the
        // pending set {2, 3} onto {0, 1}. The two states are isomorphic,
        // so their canonical encodings — and hence their FNV hashes —
        // must be equal.
        let mesh = Mesh::new_2d(2, 2);
        let wf = TurnSet::all_ninety(2); // fixed by the full square group
        let ctx = EncodeCtx::mesh_stabilizer(&mesh, &wf, &front_2x2());
        assert_eq!(ctx.group_order(), 8, "corner front keeps the full group");
        let east_out_of_0 = mesh.channel_slot(NodeId(0), Direction::EAST);
        let west_out_of_1 = mesh.channel_slot(NodeId(1), Direction::WEST);
        let a = sample_view(&mesh, &ctx, east_out_of_0, 0);
        let mut b = sample_view(&mesh, &ctx, west_out_of_1, 2);
        b.pending = 0b0011;
        let ca = canonical(&a, &ctx);
        let cb = canonical(&b, &ctx);
        assert_eq!(ca, cb, "isomorphic states must share a canonical form");
        let h = FnvBuild;
        assert_eq!(h.hash_one(&ca), h.hash_one(&cb));
        // Sanity: a turn set with a smaller stabilizer really shrinks the
        // group (negative-first is only fixed by symmetries that preserve
        // signs), and shrinking the group never invalidates the context.
        let nf = presets::negative_first_turns(2);
        let ctx_nf = EncodeCtx::mesh_stabilizer(&mesh, &nf, &front_2x2());
        assert!(ctx_nf.group_order() < 8);
        assert!(ctx_nf.group_order() >= 1);
    }

    #[test]
    fn mutated_states_encode_differently() {
        // Flipping any observable bit — owner, flit flags, pending mask,
        // misroute counters — must change the canonical form: the visited
        // set keys on these bytes, so two genuinely different states must
        // never merge.
        let mesh = Mesh::new_2d(2, 2);
        let wf = TurnSet::all_ninety(2);
        let ctx = EncodeCtx::mesh_stabilizer(&mesh, &wf, &front_2x2());
        let slot = mesh.channel_slot(NodeId(0), Direction::EAST);
        let base = sample_view(&mesh, &ctx, slot, 0);
        let c0 = canonical(&base, &ctx);

        let mut m1 = base.clone();
        m1.slots[slot].2[0].1 = false; // head flag off
        assert_ne!(canonical(&m1, &ctx), c0);

        let mut m2 = base.clone();
        m2.pending = 0b1000;
        assert_ne!(canonical(&m2, &ctx), c0);

        let mut m3 = base.clone();
        m3.packets[2] = (false, 1); // a misroute appears
        assert_ne!(canonical(&m3, &ctx), c0);

        let mut m4 = base.clone();
        m4.queues[2].push(3);
        assert_ne!(canonical(&m4, &ctx), c0);
    }

    #[test]
    fn identity_context_is_order_sensitive_but_stable() {
        let mesh = Mesh::new_2d(2, 2);
        let ctx = EncodeCtx::identity(16 + 4 + 4, 4, 4);
        let slot = mesh.channel_slot(NodeId(0), Direction::EAST);
        let v = sample_view(&mesh, &ctx, slot, 0);
        assert_eq!(canonical(&v, &ctx), canonical(&v.clone(), &ctx));
        assert_eq!(ctx.group_order(), 1);
    }
}
