//! Canonical state encoding, written straight from the engine, and the
//! visited-set hasher.
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
//! differently. The encoder therefore relabels every engine packet id to
//! its *front index* (stable across schedules) as it writes.
//!
//! On square meshes the encoder additionally canonicalizes under the
//! stabilizer of the configuration: the mesh symmetries that fix the turn
//! set *and* permute the injection front onto itself. Such a symmetry
//! commutes with every scripted transition (the explorer enumerates all
//! arbitration orders, so the successor *set* is equivariant), making
//! min-over-orbit a sound state-space reduction. The canonical form is
//! the lexicographically smallest encoding over the stabilizer.
//!
//! [`encode`] reads the engine through its state views and writes one
//! permutation's encoding at a time into caller-owned buffers, record by
//! record: the pending mask, one record per slot, one per node, then the
//! packet statuses. A permutation is abandoned at the first record that
//! takes it above the smallest encoding so far, and nothing is allocated
//! once the buffers have grown.
//!
//! Every field is a checked narrowing. [`EncodeCtx`] refuses a slot
//! count, front, buffer depth or packet length that does not fit its
//! field, and per-state counters convert with `try_from`: a larger
//! configuration panics instead of truncating two distinct states onto
//! one encoding.

use super::front::FrontPacket;
use std::cmp::Ordering;
use std::hash::{BuildHasher, Hasher};
use turnroute_model::symmetry::mesh_symmetries;
use turnroute_model::TurnSet;
use turnroute_sim::{Engine, Lanes};
use turnroute_topology::{Direction, Mesh, NodeId, Topology};

/// The largest front the encoding admits: the pending set is a `u32`
/// mask.
const MAX_FRONT: usize = 32;

const FNV_PRIME: u64 = 0x100_0000_01b3;

/// The visited-set hasher: FNV-1a over 8-byte words, finished with the
/// murmur3 avalanche so that the table's low bucket bits depend on every
/// input byte. The set keys on the *full* canonical encoding (a hash
/// collision must never merge two distinct states — that would certify
/// an unexplored space), so the hasher only has to be fast and well
/// distributed, not cryptographic.
pub struct Fnv1a64(u64);

impl Fnv1a64 {
    fn mix(&mut self, word: u64) {
        self.0 = (self.0 ^ word).wrapping_mul(FNV_PRIME);
    }
}

impl Hasher for Fnv1a64 {
    fn finish(&self) -> u64 {
        let mut h = self.0;
        h ^= h >> 33;
        h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
        h ^= h >> 33;
        h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
        h ^ (h >> 33)
    }

    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            self.mix(u64::from_le_bytes(word.try_into().expect("8-byte chunk")));
        }
        let rest = words.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.mix(u64::from_le_bytes(word));
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

/// One state-space symmetry, precomputed as index maps. The forward maps
/// hold the encoded field values: `slot_to[s]` is the image slot of `s`,
/// `front_to[i]` the image front index.
#[derive(Debug, Clone)]
struct StatePerm {
    slot_to: Vec<u16>,
    front_to: Vec<u8>,
    /// Inverses, so encoding can write the records in output order.
    slot_from: Vec<usize>,
    node_from: Vec<usize>,
}

impl StatePerm {
    fn identity(num_slots: usize, num_nodes: usize, front_len: usize) -> StatePerm {
        let nodes: Vec<usize> = (0..num_nodes).collect();
        StatePerm::from_maps((0..num_slots).collect(), &nodes, (0..front_len).collect())
    }

    fn from_maps(slot_to: Vec<usize>, node_to: &[usize], front_to: Vec<usize>) -> StatePerm {
        let invert = |to: &[usize]| {
            let mut from = vec![0; to.len()];
            for (old, &new) in to.iter().enumerate() {
                from[new] = old;
            }
            from
        };
        StatePerm {
            slot_from: invert(&slot_to),
            node_from: invert(node_to),
            slot_to: slot_to
                .iter()
                .map(|&s| u16::try_from(s).expect("EncodeCtx bounds the slot count"))
                .collect(),
            front_to: front_to
                .iter()
                .map(|&i| u8::try_from(i).expect("EncodeCtx bounds the front"))
                .collect(),
        }
    }
}

/// The encoding context of one configuration: the symmetry group to
/// canonicalize under (always at least the identity). Both constructors
/// panic on a configuration that does not fit the encoding (see
/// [`check_fits`]).
pub(crate) struct EncodeCtx {
    perms: Vec<StatePerm>,
}

impl EncodeCtx {
    /// A context with no symmetry reduction.
    pub fn identity(
        num_slots: usize,
        num_nodes: usize,
        front: &[FrontPacket],
        buffer_depth: u32,
    ) -> EncodeCtx {
        check_fits(num_slots, front, buffer_depth);
        EncodeCtx {
            perms: vec![StatePerm::identity(num_slots, num_nodes, front.len())],
        }
    }

    /// A context canonicalizing under the stabilizer of `(set, front)`
    /// inside the hyperoctahedral group of `mesh`: the symmetries that
    /// preserve every side length, fix the turn set, and permute the
    /// front onto itself. Falls back to the identity alone when nothing
    /// else qualifies.
    pub fn mesh_stabilizer(
        mesh: &Mesh,
        set: &TurnSet,
        front: &[FrontPacket],
        buffer_depth: u32,
    ) -> EncodeCtx {
        let n = mesh.num_dims();
        let radix: Vec<u16> = mesh.radices().to_vec();
        let num_nodes = mesh.num_nodes();
        let inj_base = num_nodes * 2 * n;
        let ej_base = inj_base + num_nodes;
        let num_slots = ej_base + num_nodes;
        check_fits(num_slots, front, buffer_depth);
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
        EncodeCtx { perms }
    }

    /// The number of front packets the context was built for.
    pub fn front_len(&self) -> usize {
        self.perms[0].front_to.len()
    }

    /// Group order (1 = no reduction).
    pub fn group_order(&self) -> usize {
        self.perms.len()
    }
}

/// Refuse a configuration whose values would not fit their encoded
/// fields: a slot index is a `u16` with `u16::MAX` meaning "unbound", a
/// front index a byte (and the pending set a `u32` mask), a slot's flit
/// count and an emitter's sent count bytes. Truncating any of them could
/// merge two distinct states.
fn check_fits(num_slots: usize, front: &[FrontPacket], buffer_depth: u32) {
    assert!(
        num_slots <= usize::from(u16::MAX),
        "{num_slots} slots do not fit the encoding's u16 slot field"
    );
    assert!(
        front.len() <= MAX_FRONT,
        "a front of {} packets does not fit the u32 pending mask",
        front.len()
    );
    assert!(
        buffer_depth <= u32::from(u8::MAX),
        "buffer depth {buffer_depth} does not fit the encoding's flit-count byte"
    );
    assert!(
        front.iter().all(|p| p.len <= u32::from(u8::MAX)),
        "a packet's length does not fit the encoding's sent-count byte"
    );
}

/// The front permutation induced by a node map, or `None` when the front
/// is not invariant under it (duplicates pair up greedily, which is sound
/// — identical packets are interchangeable in every view).
fn front_action(front: &[FrontPacket], node_to: &[usize]) -> Option<Vec<usize>> {
    let mut front_to = vec![usize::MAX; front.len()];
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
        front_to[i] = j;
    }
    Some(front_to)
}

/// Write the canonical encoding of `engine`'s current state into `canon`:
/// the smallest encoding over `ctx`'s symmetry group. `order[p]` is the
/// front index of engine packet id `p` and `pending` the mask of front
/// indices not yet injected. `scratch` receives each challenging
/// permutation's encoding; the two buffers swap when one wins.
pub(crate) fn encode<'a, L: Lanes<'a>>(
    engine: &Engine<'a, L>,
    order: &[u32],
    pending: u32,
    ctx: &EncodeCtx,
    canon: &mut Vec<u8>,
    scratch: &mut Vec<u8>,
) {
    let (first, rest) = ctx.perms.split_first().expect("at least the identity");
    canon.clear();
    write_under(engine, order, pending, first, canon, None);
    for perm in rest {
        scratch.clear();
        if write_under(engine, order, pending, perm, scratch, Some(canon)) {
            std::mem::swap(canon, scratch);
        }
    }
}

/// Write the encoding of `engine`'s state under `perm` into `out`.
/// Against a `best`, give up at the first record that takes `out` above
/// it. Returns whether `out` holds a complete encoding smaller than
/// `best` (always, when there is none).
fn write_under<'a, L: Lanes<'a>>(
    engine: &Engine<'a, L>,
    order: &[u32],
    pending: u32,
    perm: &StatePerm,
    out: &mut Vec<u8>,
    best: Option<&[u8]>,
) -> bool {
    let mut w = Challenger {
        out,
        best: best.unwrap_or_default(),
        tied: best.is_some(),
    };
    let mut labels = [0u8; MAX_FRONT];
    for (label, &front) in labels.iter_mut().zip(order) {
        *label = perm.front_to[front as usize];
    }
    let labels = &labels[..order.len()];
    let label = |p: u32| labels[p as usize];
    let mut image = 0u32;
    for (i, &to) in perm.front_to.iter().enumerate() {
        if pending & (1 << i) != 0 {
            image |= 1 << to;
        }
    }
    w.out.extend_from_slice(&image.to_le_bytes());
    if !w.settle(0) {
        return false;
    }
    for &s in &perm.slot_from {
        let start = w.out.len();
        let owner = engine.slot_owner(s).map_or(u8::MAX, label);
        let binding = engine.slot_binding(s).map_or(u16::MAX, |b| perm.slot_to[b]);
        let [lo, hi] = binding.to_le_bytes();
        // The flit count is patched in once the flits are written.
        w.out.extend_from_slice(&[owner, lo, hi, 0]);
        let mut flits = 0usize;
        for (p, head, tail) in engine.slot_flits(s) {
            w.out
                .extend_from_slice(&[label(p), u8::from(head) << 1 | u8::from(tail)]);
            flits += 1;
        }
        w.out[start + 3] = u8::try_from(flits).expect("EncodeCtx bounds the buffer depth");
        if !w.settle(start) {
            return false;
        }
    }
    for &v in &perm.node_from {
        let start = w.out.len();
        w.out.push(0);
        let mut queued = 0usize;
        for p in engine.source_queue(v) {
            w.out.push(label(p));
            queued += 1;
        }
        w.out[start] = u8::try_from(queued).expect("EncodeCtx bounds the front");
        match engine.source_emitting(v) {
            Some((p, sent)) => {
                let sent = u8::try_from(sent).expect("EncodeCtx bounds the packet length");
                w.out.extend_from_slice(&[1, label(p), sent]);
            }
            None => w.out.push(0),
        }
        if !w.settle(start) {
            return false;
        }
    }
    // `(delivered, misroutes)` per front index, in image order; pending
    // packets read `(0, 0)`.
    let start = w.out.len();
    w.out.resize(start + 2 * perm.front_to.len(), 0);
    for (p, &front) in engine.packets().iter().zip(order) {
        let at = start + 2 * usize::from(perm.front_to[front as usize]);
        let misroutes = u8::try_from(p.misroutes).expect("misroute count fits a byte");
        w.out[at..at + 2].copy_from_slice(&[u8::from(p.delivered.is_some()), misroutes]);
    }
    w.settle(start) && (!w.tied || w.out.len() < w.best.len())
}

/// One permutation's encoding as it is written, compared record by
/// record against the best encoding so far.
struct Challenger<'b> {
    out: &'b mut Vec<u8>,
    best: &'b [u8],
    /// Whether `out` still equals `best`'s prefix of the same length.
    /// Once it is below, nothing more needs comparing.
    tied: bool,
}

impl Challenger<'_> {
    /// Compare the record written since `start`; `false` once `out` is
    /// known to exceed `best`.
    fn settle(&mut self, start: usize) -> bool {
        if self.tied {
            let theirs = &self.best[start..self.out.len().min(self.best.len())];
            match self.out[start..].cmp(theirs) {
                Ordering::Less => self.tied = false,
                Ordering::Equal => {}
                Ordering::Greater => return false,
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::super::mc_config;
    use super::*;
    use crate::mc::front::corner_exchange;
    use crate::routing::TurnSetRouting;
    use turnroute_model::{presets, RoutingFunction};
    use turnroute_routing::{mesh2d, RoutingMode};
    use turnroute_sim::{ChoiceScript, Sim};
    use turnroute_traffic::Uniform;

    /// A packet injected into the empty network before the first step:
    /// `(src, dst, flits, front label)`.
    type Inject = (u32, u32, u32, u32);

    /// Drive a fresh 2×2 engine under `routing`: inject `packets`, take
    /// one scripted step per digit string of `steps`, let `look` check
    /// the engine reached the state meant, and return the state's
    /// canonical encoding with `pending` still to inject.
    fn reach(
        routing: &dyn RoutingFunction,
        packets: &[Inject],
        steps: &[&[u32]],
        pending: u32,
        ctx: &EncodeCtx,
        look: impl FnOnce(&Sim<'_>),
    ) -> Vec<u8> {
        let mesh = Mesh::new_2d(2, 2);
        let pattern = Uniform::new();
        let mut sim = Sim::new(&mesh, routing, &pattern, mc_config(1, 2));
        for &(src, dst, len, _) in packets {
            sim.inject_packet(NodeId(src), NodeId(dst), len);
        }
        for digits in steps {
            sim.step_with_choices(&mut ChoiceScript::new(digits.to_vec()));
        }
        look(&sim);
        let order: Vec<u32> = packets.iter().map(|p| p.3).collect();
        let (mut canon, mut scratch) = (Vec::new(), Vec::new());
        encode(&sim, &order, pending, ctx, &mut canon, &mut scratch);
        canon
    }

    /// Corner-exchange front packet `i` of the 2×2 mesh.
    fn front_packet(i: u32) -> Inject {
        let p = &corner_exchange(&Mesh::new_2d(2, 2), 2)[i as usize];
        (p.src.0, p.dst.0, p.len, i)
    }

    /// The 2×2 all-ninety context: the corner-exchange front is fixed by
    /// the whole square group.
    fn full_group() -> (Mesh, TurnSetRouting, EncodeCtx) {
        let mesh = Mesh::new_2d(2, 2);
        let set = TurnSet::all_ninety(2);
        let ctx = EncodeCtx::mesh_stabilizer(&mesh, &set, &corner_exchange(&mesh, 2), 1);
        let routing = TurnSetRouting::new("all-ninety", set, &mesh);
        (mesh, routing, ctx)
    }

    /// Front packet 0 (n0 → n3) after two steps whose one choice is the
    /// x hop: its head sits in the east channel out of n0.
    fn east_out_of_0(routing: &dyn RoutingFunction, ctx: &EncodeCtx) -> Vec<u8> {
        let slot = Mesh::new_2d(2, 2).channel_slot(NodeId(0), Direction::EAST);
        reach(
            routing,
            &[front_packet(0)],
            &[&[], &[0]],
            0b1110,
            ctx,
            |sim| {
                assert_eq!(sim.slot_owner(slot), Some(0));
                assert!(sim.slot_flits(slot).eq([(0, true, false)]));
            },
        )
    }

    /// Front packet 2 (n1 -> n2), stepped like [`east_out_of_0`]: its
    /// head sits in the west channel out of n1.
    fn west_out_of_1(routing: &dyn RoutingFunction, ctx: &EncodeCtx) -> Vec<u8> {
        let slot = Mesh::new_2d(2, 2).channel_slot(NodeId(1), Direction::WEST);
        reach(
            routing,
            &[front_packet(2)],
            &[&[], &[0]],
            0b1011,
            ctx,
            |sim| {
                assert_eq!(sim.slot_owner(slot), Some(0));
            },
        )
    }

    #[test]
    fn isomorphic_states_encode_identically() {
        // On the 2x2 mesh the x-flip swaps n0<->n1 and n2<->n3, so it
        // maps "front packet 0 (n0->n3) heading east out of n0" onto
        // "front packet 2 (n1->n2) heading west out of n1", and the
        // pending set {1, 2, 3} onto {0, 1, 3}. The two states are
        // isomorphic, so their canonical encodings — and hence their
        // hashes — must be equal.
        let (mesh, routing, ctx) = full_group();
        assert_eq!(ctx.group_order(), 8, "corner front keeps the full group");
        let ca = east_out_of_0(&routing, &ctx);
        let cb = west_out_of_1(&routing, &ctx);
        assert_eq!(ca, cb, "isomorphic states must share a canonical form");
        let h = FnvBuild;
        assert_eq!(h.hash_one(&ca), h.hash_one(&cb));
        // Without the group the two are different byte strings: the
        // equality above is the symmetry's doing.
        let front = corner_exchange(&mesh, 2);
        let plain = EncodeCtx::identity(16 + 4 + 4, 4, &front, 1);
        assert_ne!(
            east_out_of_0(&routing, &plain),
            west_out_of_1(&routing, &plain)
        );
        // Sanity: a turn set with a smaller stabilizer really shrinks the
        // group (negative-first is only fixed by symmetries that preserve
        // signs), and shrinking the group never invalidates the context.
        let nf = presets::negative_first_turns(2);
        let ctx_nf = EncodeCtx::mesh_stabilizer(&mesh, &nf, &front, 1);
        assert!(ctx_nf.group_order() < 8);
        assert!(ctx_nf.group_order() >= 1);
    }

    #[test]
    fn mutated_states_encode_differently() {
        // Changing any observable field — flit flags, pending mask,
        // misroute counters, source queues — must change the canonical
        // form: the visited set keys on these bytes, so two genuinely
        // different states must never merge.
        let (mesh, routing, ctx) = full_group();
        let slot = mesh.channel_slot(NodeId(0), Direction::EAST);
        let c0 = east_out_of_0(&routing, &ctx);

        // One step on, the tail has replaced the head in that channel.
        let m1 = reach(
            &routing,
            &[front_packet(0)],
            &[&[], &[0], &[]],
            0b1110,
            &ctx,
            |sim| {
                assert!(sim.slot_flits(slot).eq([(0, false, true)]));
            },
        );
        assert_ne!(m1, c0);

        // The same engine state with another packet still to inject.
        let m2 = reach(
            &routing,
            &[front_packet(0)],
            &[&[], &[0]],
            0b1010,
            &ctx,
            |_| {},
        );
        assert_ne!(m2, c0);

        // A misroute appears. West-first sends front packet 0 (n0 -> n3,
        // labelled 0) through n1 or n2, and a single-flit packet from n0
        // to n1 (labelled 1) behind it: when the x hop holds the east
        // channel out of n0, it takes the north one — a misroute.
        // Mirrored in the diagonal, the two runs differ in that counter
        // alone, so their canonical forms differ in exactly one byte.
        let west_first = mesh2d::west_first(RoutingMode::Nonminimal);
        let pair = [front_packet(0), (0, 1, 1, 1)];
        let misrouted = reach(
            &west_first,
            &pair,
            &[&[], &[0], &[], &[]],
            0b1100,
            &ctx,
            |sim| {
                assert_eq!(sim.packets()[1].misroutes, 1);
            },
        );
        let direct = reach(
            &west_first,
            &pair,
            &[&[], &[1], &[], &[]],
            0b1100,
            &ctx,
            |sim| {
                assert_eq!(sim.packets()[1].misroutes, 0);
            },
        );
        let differing = misrouted.iter().zip(&direct).filter(|(a, b)| a != b);
        assert_eq!((misrouted.len(), differing.count()), (direct.len(), 1));
        assert_ne!(misrouted, direct);

        // A packet waits in n0's source queue behind the one streaming
        // out; the pending mask is the same.
        let queued = |packets: &[Inject]| reach(&routing, packets, &[&[]], 0b1100, &ctx, |_| {});
        let m4 = queued(&pair);
        assert_ne!(m4, queued(&pair[..1]));
    }

    #[test]
    fn identity_context_is_order_sensitive_but_stable() {
        let (mesh, routing, _) = full_group();
        let ctx = EncodeCtx::identity(16 + 4 + 4, 4, &corner_exchange(&mesh, 2), 1);
        assert_eq!(east_out_of_0(&routing, &ctx), east_out_of_0(&routing, &ctx));
        assert_eq!(ctx.group_order(), 1);
    }

    #[test]
    #[should_panic(expected = "does not fit the encoding's flit-count byte")]
    fn oversized_context_is_refused() {
        let mesh = Mesh::new_2d(2, 2);
        let _ = EncodeCtx::identity(16 + 4 + 4, 4, &corner_exchange(&mesh, 2), 256);
    }
}
