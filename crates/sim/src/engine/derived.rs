//! The engine's derived state: what the per-cycle phases walk and skip
//! by instead of the whole network, all of it recomputable from the
//! [`SimSnapshot`](super::SimSnapshot) beside it. Six structures, each
//! with its invariant where it is declared; the occupied-slot set is the
//! flit buffers' own. The engine reads them through the queries below and
//! keeps them true by raising an event wherever one of their inputs
//! changes:
//!
//! | event | raised where | effect |
//! |---|---|---|
//! | `offer_inputs_changed` | a channel failing or healing, a quarantine | memo wiped, every waiting head wakes |
//! | `output_released` | a tail leaves a channel | the heads waiting at its router wake |
//! | `hold_changed` | `set_hold` | the heads waiting at that router wake |
//! | `head_arrived` | a head enters a routed slot | it waits, awake |
//! | `refused` | arbitration refuses a head | it sleeps |
//! | `granted` | a head is granted an output | it stops waiting, its worm thaws |
//! | `purged` | a purge empties a channel | as a grant and a release; an injection slot's source rejoins |
//! | `injection_left` | a flit leaves an injection slot | its source rejoins the active set |
//! | `enqueued` | a packet is queued at a source | the source joins the active set and the queue sample |
//! | `rewound` | `restore` | all dropped, each rebuilt by its first use |
//!
//! Nothing is allocated before its first use. Debug builds take every
//! skip and then check it against the work it saved.

#[cfg(debug_assertions)]
use super::advance::Plan;
use super::{Engine, NONE_U32};
use crate::flits::{Ones, WORD_BITS};
use crate::lanes::{Candidate, Lanes};
use crate::obs::SimObserver;
use crate::Packet;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use turnroute_topology::Direction;

/// Route-memo entry layout: the output slot in the low 31 bits, the
/// productive bit on top. [`NONE_U32`] ends an offer shorter than the
/// memo's stride.
const MEMO_PRODUCTIVE: u32 = 1 << 31;

/// The first cycle an arrival at `t` is due: `t <= now` exactly when
/// `due(t) <= now` (the cast saturates, which covers an infinite `t`).
fn due(t: f64) -> u64 {
    t.ceil() as u64
}

/// The word and the mask of member `i` of a bit set.
#[inline]
fn bit(i: usize) -> (usize, u32) {
    (i / WORD_BITS, 1 << (i % WORD_BITS))
}

/// The six structures, and the slot arithmetic they need.
#[derive(Default)]
pub(super) struct Derived {
    nodes: usize,
    lanes: usize,
    /// Network slots per node: slots are link-major and a node's links
    /// direction-minor, so a network slot's router and direction are
    /// arithmetic on it.
    link_slots: usize,
    inj_base: usize,
    ej_base: usize,
    /// Route memo: per input slot, the packet id + 1 of the head whose
    /// raw offer `memo` holds there (0 = none). An offer is a pure
    /// function of the slot, the destination and the fault / quarantine
    /// masks; ids are not reused within one history, and a packet that
    /// meets a slot again has the same destination.
    memo_key: Vec<u32>,
    /// `memo_stride` entries per input slot, in offer order (see
    /// [`MEMO_PRODUCTIVE`]); `memo_stride` is the most output lanes any
    /// router has.
    memo: Vec<u32>,
    memo_stride: usize,
    /// Arrival calendar: per node, `due(next_arrival)`, least first.
    /// After a cycle's `generate` no node is left with `next_arrival <=
    /// now`, so every entry due later is due exactly then, and `(due,
    /// node)` order is node order.
    arrivals: BinaryHeap<Reverse<(u64, u32)>>,
    /// Active-source set, a bit per node: a superset of the nodes whose
    /// injection buffer can take their next flit. The feeding walk drops
    /// a node it finds idle or blocked by its own buffer; a held node or
    /// one whose injection slot is faulty stays in.
    active_sources: Vec<u32>,
    /// Queue-sample set, a bit per node (sized with the active-source
    /// set): a superset of the nodes whose queue grew since
    /// `max_queue_len` last read it. Any other queue is no longer than it
    /// was then, so it cannot raise the maximum.
    grown: Vec<u32>,
    /// Waiting heads, a bit per routed slot: those whose front flit is a
    /// head with no output bound. Empty until the first head collection
    /// after construction or a rewind builds it from a scan.
    waiting: Vec<u32>,
    /// The waiting heads that are awake: not refused since they arrived
    /// or since their router last released an output or changed its
    /// hold, which are the only things short of a wake-all that can turn
    /// a refusal into a grant. The others are asleep.
    awake: Vec<u32>,
    /// The routed slots whose input router is `v`, at
    /// `inputs[input_start[v]..input_start[v + 1]]`; built with `waiting`.
    inputs: Vec<u32>,
    input_start: Vec<u32>,
    /// The blocked worms the planner freezes and the events thaw.
    pub(super) frozen: Frozen,
}

impl Derived {
    /// For `nodes` nodes, `lanes` lanes per link, injection slots from
    /// `inj_base` on and at most `memo_stride` output lanes per router.
    pub(super) fn new(nodes: usize, lanes: usize, inj_base: usize, memo_stride: usize) -> Derived {
        Derived {
            nodes,
            lanes,
            link_slots: inj_base / nodes,
            inj_base,
            ej_base: inj_base + nodes,
            memo_stride,
            ..Derived::default()
        }
    }

    /// An input of [`Lanes::candidates`] other than the head changed. A
    /// refusal made on an old offer (or of an ejection channel since
    /// repaired) says nothing about the new one, so every head wakes.
    pub(super) fn offer_inputs_changed(&mut self) {
        self.memo_key.fill(0);
        self.awake.clone_from(&self.waiting);
    }

    /// Channel `slot` lost its owner. A link slot is an output of the
    /// router it leaves and an ejection slot of its node's; an injection
    /// slot is no router's output.
    #[inline]
    pub(super) fn output_released(&mut self, slot: usize) {
        if slot < self.inj_base {
            self.hold_changed(slot / self.link_slots);
        } else if slot >= self.ej_base {
            self.hold_changed(slot - self.ej_base);
        }
    }

    /// Router `v`'s hold was set or lifted, or one of its outputs was
    /// released: the heads asleep there wake.
    #[inline]
    pub(super) fn hold_changed(&mut self, v: usize) {
        if self.waiting.is_empty() {
            return;
        }
        let inputs = self.input_start[v] as usize..self.input_start[v + 1] as usize;
        for &c in &self.inputs[inputs] {
            let (w, m) = bit(c as usize);
            self.awake[w] |= self.waiting[w] & m;
        }
    }

    /// A head entered channel `c`, empty until then: at a routed slot it
    /// waits for an output, awake.
    #[inline]
    pub(super) fn head_arrived(&mut self, c: usize) {
        if c < self.ej_base && !self.waiting.is_empty() {
            let (w, m) = bit(c);
            self.waiting[w] |= m;
            self.awake[w] |= m;
        }
    }

    /// Arbitration refused the head at input channel `c`: it sleeps.
    #[inline]
    pub(super) fn refused(&mut self, c: usize) {
        let (w, m) = bit(c);
        self.awake[w] &= !m;
    }

    /// The head at channel `c` has gone: granted, or purged.
    #[inline]
    fn stops_waiting(&mut self, c: usize) {
        let (w, m) = bit(c);
        if let Some(word) = self.waiting.get_mut(w) {
            *word &= !m;
            self.awake[w] &= !m;
        }
    }

    /// The head at input channel `c` was granted an output, now bound in
    /// `assigned_out`: it stops waiting, and its worm thaws, upstream
    /// along the bindings up to the first slot not frozen.
    #[inline]
    pub(super) fn granted(&mut self, mut c: usize, assigned_out: &[u32]) {
        self.stops_waiting(c);
        while self.frozen.contains(c) {
            self.frozen.remove(c);
            let up = self.frozen.feeder[c] as usize;
            if assigned_out.get(up) != Some(&(c as u32)) {
                break;
            }
            c = up;
        }
    }

    /// A purge emptied channel `slot`.
    #[inline]
    pub(super) fn purged(&mut self, slot: usize) {
        self.frozen.remove(slot);
        self.stops_waiting(slot);
        self.output_released(slot);
        if (self.inj_base..self.ej_base).contains(&slot) {
            self.injection_left(slot - self.inj_base);
        }
    }

    /// A packet was queued at node `v`.
    #[inline]
    pub(super) fn enqueued(&mut self, v: usize) {
        let (w, m) = self.source_joins(v);
        self.grown[w] |= m;
    }

    /// A flit left node `v`'s injection buffer: its source may feed
    /// again.
    #[inline]
    pub(super) fn injection_left(&mut self, v: usize) {
        self.source_joins(v);
    }

    /// Put node `v` in the active-source set; returns its bit.
    #[inline]
    fn source_joins(&mut self, v: usize) -> (usize, u32) {
        if self.active_sources.is_empty() {
            self.active_sources = vec![0; self.nodes.div_ceil(WORD_BITS)];
            self.grown = vec![0; self.nodes.div_ceil(WORD_BITS)];
        }
        let (w, m) = bit(v);
        self.active_sources[w] |= m;
        (w, m)
    }

    /// The simulation state was replaced wholesale: packet ids mean other
    /// packets and `now` may have gone backwards. The active-source and
    /// queue-sample sets become every node, the supersets the next feed
    /// and the next sample narrow.
    pub(super) fn rewound(&mut self) {
        self.memo_key.fill(0);
        self.waiting.clear();
        self.awake.clear();
        self.frozen.bits.clear();
        self.arrivals.clear();
        let (words, tail) = (self.nodes.div_ceil(WORD_BITS), self.nodes % WORD_BITS);
        for set in [&mut self.active_sources, &mut self.grown] {
            set.clear();
            set.resize(words, u32::MAX);
            if tail != 0 {
                set[words - 1] = (1 << tail) - 1;
            }
        }
    }

    /// Remember `offer` as what the adapter offers packet `packet`'s head
    /// at input channel `c`.
    pub(super) fn store_memo(&mut self, c: usize, packet: u32, offer: &[Candidate]) {
        let stride = self.memo_stride;
        if offer.len() > stride {
            // An adapter repeating itself; nothing to gain from caching it.
            return;
        }
        if self.memo_key.is_empty() {
            self.memo_key = vec![0; self.ej_base];
            self.memo = vec![0; self.ej_base * stride];
        }
        let entries = &mut self.memo[c * stride..][..stride];
        for (entry, k) in entries.iter_mut().zip(offer) {
            *entry = k.slot as u32 | if k.productive { MEMO_PRODUCTIVE } else { 0 };
        }
        if let Some(end) = entries.get_mut(offer.len()) {
            *end = NONE_U32;
        }
        self.memo_key[c] = packet + 1;
    }

    /// The least node with an arrival due at `now`, if any; it must be
    /// [`rescheduled`](Derived::rescheduled) before the next call. The
    /// first call after construction or a rewind builds the calendar.
    pub(super) fn next_due(&mut self, now: u64, next_arrival: &[f64]) -> Option<usize> {
        if self.arrivals.len() != self.nodes {
            let mut entries = std::mem::take(&mut self.arrivals).into_vec();
            entries.clear();
            let times = next_arrival.iter().zip(0u32..);
            entries.extend(times.map(|(&t, node)| Reverse((due(t), node))));
            self.arrivals = entries.into();
        }
        let &Reverse((at, node)) = self.arrivals.peek()?;
        (at <= now).then_some(node as usize)
    }

    /// The node [`next_due`](Derived::next_due) named has its next
    /// arrival at `next`.
    #[inline]
    pub(super) fn rescheduled(&mut self, next: f64) {
        let mut top = self.arrivals.peek_mut().expect("a node was due");
        top.0 .0 = due(next);
    }

    /// Words in the active-source set and in the queue-sample set.
    #[inline]
    pub(super) fn source_words(&self) -> usize {
        self.active_sources.len()
    }

    /// The active sources among nodes `w * WORD_BITS..`, ascending, as a
    /// copy: the walk may drop the node it is on.
    #[inline]
    pub(super) fn sources_in(&self, w: usize) -> Ones {
        Ones::of(w, self.active_sources[w])
    }

    /// The active-source set, ascending.
    pub(super) fn sources(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.source_words()).flat_map(|w| self.sources_in(w))
    }

    /// The feeding walk found node `v` idle, or its injection buffer
    /// unable to take its next flit.
    #[inline]
    pub(super) fn source_parked(&mut self, v: usize) {
        let (w, m) = bit(v);
        self.active_sources[w] &= !m;
    }

    /// The nodes among `w * WORD_BITS..` whose queue grew since the last
    /// sample, ascending; they leave the set.
    #[inline]
    pub(super) fn take_grown(&mut self, w: usize) -> Ones {
        Ones::of(w, std::mem::take(&mut self.grown[w]))
    }

    /// The waiting heads, ascending: the awake ones, or every one if
    /// `sleepers`.
    pub(super) fn waiting_heads(&self, sleepers: bool) -> impl Iterator<Item = usize> + '_ {
        let set = if sleepers { &self.waiting } else { &self.awake };
        set.iter()
            .enumerate()
            .flat_map(|(w, &word)| Ones::of(w, word))
    }
}

/// The channels the flit advance need not plan from: those whose front
/// flit cannot move until arbitration grants their worm's head an output.
/// A slot is frozen when the planner finds its front flit unassigned, or
/// bound to a full slot that is itself frozen, so the frozen slots of a
/// worm are a suffix of it ending at its waiting head, which a grant there
/// thaws by following `feeder` upstream. Shared-link withdrawals
/// (re-arbitrated every cycle) and dependency cycles (broken by a purge,
/// not a grant) never freeze.
#[derive(Default)]
pub(super) struct Frozen {
    /// One bit per channel; empty until the first freeze.
    bits: Vec<u32>,
    /// Per channel `o`, the slot that froze bound to it. Written only
    /// then, so an entry may be stale: a thaw follows it only while the
    /// engine's binding table agrees.
    feeder: Vec<u32>,
}

impl Frozen {
    /// The members among channels `w * WORD_BITS..`, as a mask.
    #[inline]
    pub(super) fn word(&self, w: usize) -> u32 {
        self.bits.get(w).copied().unwrap_or(0)
    }

    #[inline]
    pub(super) fn contains(&self, c: usize) -> bool {
        self.word(c / WORD_BITS) & (1 << (c % WORD_BITS)) != 0
    }

    /// Freeze `c`, one of `channels`, whose front flit is unassigned or
    /// (`bound_to`) waits on that full, frozen slot.
    pub(super) fn freeze(&mut self, c: usize, bound_to: Option<usize>, channels: usize) {
        if self.bits.is_empty() {
            self.bits.resize(channels.div_ceil(WORD_BITS), 0);
            self.feeder.resize(channels, NONE_U32);
        }
        self.bits[c / WORD_BITS] |= 1 << (c % WORD_BITS);
        if let Some(o) = bound_to {
            self.feeder[o] = c as u32;
        }
    }

    #[inline]
    fn remove(&mut self, c: usize) {
        if let Some(word) = self.bits.get_mut(c / WORD_BITS) {
            *word &= !(1 << (c % WORD_BITS));
        }
    }
}

impl<'a, L: Lanes<'a>, O: SimObserver> Engine<'a, L, O> {
    /// Unless they are built, build the waiting-head sets from a scan of
    /// the occupied routed slots, every head awake: the first head
    /// collection after construction or a rewind. The first build also
    /// tabulates each router's inputs (slots that are not there sort past
    /// every router).
    pub(super) fn scan_waiting_heads(&mut self) {
        let (d, s) = (&mut self.derived, &self.state);
        if !d.waiting.is_empty() {
            return;
        }
        if d.inputs.is_empty() {
            let router = &self.input_router;
            d.inputs = (0..self.ej_base as u32).collect();
            d.inputs.sort_by_key(|&c| router[c as usize]);
            let start = |v| d.inputs.partition_point(|&c| router[c as usize] < v) as u32;
            d.input_start = (0..=d.nodes as u32).map(start).collect();
        }
        d.waiting.resize(self.ej_base.div_ceil(WORD_BITS), 0);
        for w in 0..d.waiting.len() {
            for c in s.buf.occupied_in(w).take_while(|&c| c < self.ej_base) {
                if s.assigned_out[c] == NONE_U32 && s.buf.front(c).is_some_and(|f| f.is_head) {
                    d.waiting[w] |= bit(c).1;
                }
            }
        }
        d.awake.clone_from(&d.waiting);
    }

    /// Whether the head at input channel `c` is asleep: waiting, and not
    /// awake. A refusal has no side effect, so leaving a sleeper out is
    /// invisible. Debug builds re-evaluate every sleeper: one that would be
    /// granted missed a wake.
    pub(super) fn asleep(&self, c: usize) -> bool {
        let d = &self.derived;
        let (w, m) = bit(c);
        let asleep = d.waiting.get(w).is_some_and(|&x| x & !d.awake[w] & m != 0);
        #[cfg(debug_assertions)]
        if asleep {
            use super::arbitrate::RouteDecision;
            let mut offer = Vec::new();
            let refused_again = match self.route_decision(c, &mut offer) {
                RouteDecision::Eject(ej) => !self.grantable(ej),
                RouteDecision::Hold => true,
                RouteDecision::Offer {
                    productive_only, ..
                } => !offer.iter().any(|k| self.open(k, productive_only)),
            };
            assert!(refused_again, "the head asleep at slot {c} missed a wake");
        }
        asleep
    }

    /// Append to `offer` what the adapter offers `pkt`'s head at input
    /// channel `c`: from the route memo if it holds the offer, computed if
    /// not. Returns whether it was memoised. Debug builds recompute every
    /// memo hit: one that differs missed a wipe.
    pub(super) fn offer(&self, c: usize, pkt: &Packet, offer: &mut Vec<Candidate>) -> bool {
        let d = &self.derived;
        if d.memo_key.get(c) != Some(&(pkt.id.0 + 1)) {
            self.compute_offer(c, pkt.dst, offer);
            return false;
        }
        let entries = d.memo[c * d.memo_stride..][..d.memo_stride].iter();
        offer.extend(entries.take_while(|&&e| e != NONE_U32).map(|&e| {
            let slot = (e & !MEMO_PRODUCTIVE) as usize;
            let dir = Direction::from_index(slot % d.link_slots / d.lanes);
            let productive = e & MEMO_PRODUCTIVE != 0;
            Candidate {
                dir,
                slot,
                productive,
            }
        }));
        #[cfg(debug_assertions)]
        {
            let mut fresh = Vec::new();
            self.compute_offer(c, pkt.dst, &mut fresh);
            assert_eq!(*offer, fresh, "stale route memo at slot {c}");
        }
        true
    }

    /// Debug builds plan every cycle again from every occupied slot with
    /// nothing frozen: the plan must be `order`, the advance's.
    #[cfg(debug_assertions)]
    pub(super) fn check_plan(&self, order: &[u32]) {
        let mut full = Plan::default();
        self.plan_moves(&mut full, &mut Frozen::default());
        assert_eq!(order, full.order, "a frozen slot could have moved");
    }

    /// The full scans the indices replaced, as their check at the end of
    /// every debug-build cycle: the occupied-slot set is exactly the
    /// channels holding a flit, only those are frozen, the waiting-head
    /// set is exactly the unbound heads and every sleeper would be refused
    /// again, every source that could feed is active, and no arrival is
    /// left due.
    #[cfg(debug_assertions)]
    pub(super) fn check_derived_state(&self) {
        let (d, s) = (&self.derived, &self.state);
        s.buf.assert_occupied_set_is_exact();
        for c in (0..self.num_channels).filter(|&c| d.frozen.contains(c)) {
            assert!(!s.buf.is_empty(c), "empty slot {c} is frozen");
        }
        for c in (0..self.ej_base).filter(|_| !d.waiting.is_empty()) {
            let (w, m) = bit(c);
            let head = s.buf.front(c).is_some_and(|f| f.is_head);
            let unbound = head && s.assigned_out[c] == NONE_U32;
            assert_eq!(d.waiting[w] & m != 0, unbound, "waiting at {c}");
            assert!(d.awake[w] & !d.waiting[w] == 0, "awake, not waiting");
            self.asleep(c);
        }
        let mut active = d.sources().peekable();
        for v in 0..self.num_nodes {
            if active.next_if_eq(&v).is_none() {
                assert!(!self.can_feed(v), "node {v} can feed, not active");
            }
        }
        assert!(
            active.next().is_none(),
            "active-source bit past the last node"
        );
        assert!(
            self.cfg.injection_rate <= 0.0 || s.next_arrival.iter().all(|&t| t > s.now as f64),
            "an arrival the calendar did not have due"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::quiet_cfg;
    use super::*;
    use crate::profile::{PhaseProfiler, Work};
    use crate::{ChoiceScript, Sim, SimConfig};
    use std::collections::VecDeque;
    use turnroute_routing::{mesh2d, RoutingMode};
    use turnroute_topology::{Mesh, NodeId, Topology};
    use turnroute_traffic::Uniform;

    fn saturated_cfg(seed: u64) -> SimConfig {
        SimConfig::builder()
            .injection_rate(0.5)
            .deadlock_threshold(5_000)
            .seed(seed)
            .build()
    }

    #[test]
    fn is_idle_agrees_with_a_buffer_scan() {
        // `is_idle` reads the occupied-slot set and the active-source
        // set; every push, pop and purge (timeouts clear whole worms and
        // re-queue at sources the set had dropped) must keep them in step
        // with a scan of the buffers, queues and emitters. A source left
        // out cannot feed, so its buffer holds a flit.
        let mesh = Mesh::new_2d(4, 4);
        let routing = mesh2d::west_first(RoutingMode::Minimal);
        let pattern = Uniform::new();
        let cfg = SimConfig::builder()
            .injection_rate(0.4)
            .packet_timeout(60)
            .max_retries(1)
            .deadlock_threshold(5_000)
            .seed(9)
            .build();
        let mut sim = Sim::new(&mesh, &routing, &pattern, cfg);
        let scanned_idle = |sim: &Sim| {
            (0..sim.num_channels).all(|c| sim.state.buf.is_empty(c))
                && sim.state.queues.iter().all(VecDeque::is_empty)
                && sim.state.emitting.iter().all(Option::is_none)
        };
        for _ in 0..600 {
            sim.step();
            sim.state.buf.assert_occupied_set_is_exact();
            let active: Vec<usize> = sim.derived.sources().collect();
            for v in 0..sim.num_nodes {
                assert!(
                    !sim.can_feed(v) || active.contains(&v),
                    "cycle {}: node {v}",
                    sim.now()
                );
            }
            assert_eq!(sim.is_idle(), scanned_idle(&sim), "cycle {}", sim.now());
        }
        assert!(sim.report().retries > 0, "no purge exercised");
        // Stop the sources and let the network drain.
        sim.cfg.injection_rate = 0.0;
        assert!(sim.run_until_idle(5_000));
        assert!(scanned_idle(&sim));
        // Drained, the lazily cleared set empties within a cycle.
        sim.step();
        assert_eq!(sim.derived.sources().count(), 0);
    }

    /// Step `sim` once, profiled. Returns the slots occupied during the
    /// cycle, the heads awake at its start, and the most slots the
    /// planning loop may visit: every occupied slot that does not stay
    /// frozen through the cycle (in a `Sim` without timeouts a slot thawed
    /// by a grant moves, so the ones frozen before and after are the ones
    /// frozen when planning starts; a few more are frozen by the search
    /// before the loop reaches them). Head collection visits exactly the
    /// awake heads, under the default `Fcfs`.
    fn step_counting_slots(sim: &mut Sim, prof: &mut PhaseProfiler) -> [u64; 3] {
        // Nothing moves between the start of a cycle and `advance`.
        let occupied = sim.state.buf.occupied() as u64;
        let awake = (0..sim.ej_base)
            .filter(|&c| {
                let head = matches!(sim.state.buf.front(c), Some(f) if f.is_head);
                head && sim.state.assigned_out[c] == NONE_U32 && !sim.asleep(c)
            })
            .count() as u64;
        let before = sim.derived.frozen.bits.clone();
        sim.step_profiled(prof);
        let frozen_throughout = before.iter().zip(&sim.derived.frozen.bits);
        let skipped: u32 = frozen_throughout.map(|(a, b)| (a & b).count_ones()).sum();
        [occupied, awake, occupied - u64::from(skipped)]
    }

    #[test]
    fn occupied_set_work_counters_follow_the_flits_not_the_network() {
        // The complexity claim: the per-cycle scans cost what is in
        // flight. Head collection visits an awake head once per cycle,
        // and the advance's planning loop an occupied slot that is not
        // frozen once; the full scans they replaced read every slot below
        // `ej_base` and every slot.
        let mesh = Mesh::new_2d(8, 8);
        let routing = mesh2d::west_first(RoutingMode::Minimal);
        let pattern = Uniform::new();
        let cfg = SimConfig::builder().injection_rate(0.02).seed(4).build();
        let mut sim = Sim::new(&mesh, &routing, &pattern, cfg);
        let mut prof = PhaseProfiler::new();
        let cycles = 4_000u64;
        let mut totals = [0u64; 3];
        for _ in 0..cycles {
            let counts = step_counting_slots(&mut sim, &mut prof);
            totals.iter_mut().zip(counts).for_each(|(t, n)| *t += n);
        }
        let [occupied_slot_cycles, awake, plannable] = totals;
        let visited = prof.work(Work::SlotsVisited);
        assert!(occupied_slot_cycles > cycles, "load too low to be a test");
        assert!(
            visited <= awake + plannable,
            "{visited} of {awake} + {plannable}"
        );
        assert!(visited > plannable, "both scans count");
        // A head is awake for the cycle after it arrives, and after a
        // wake: collection visits heads, not the worms behind them.
        assert!(50 * awake < occupied_slot_cycles, "{awake} heads");
        let full_scans = (sim.ej_base + sim.num_channels) as u64 * cycles;
        assert!(20 * visited < full_scans, "{visited} of {full_scans}");
        // Sources: a calendar visit per arrival, a feed per flit (and at
        // most one more per packet, when its tail leaves a source with
        // nothing queued) and — the window is open throughout — a
        // queue-length sample per packet queued; the scans they replaced
        // polled every node twice a cycle.
        let polled = prof.work(Work::SourcesPolled);
        let (flits, packets) = (sim.state.generated_flits, sim.state.generated_packets);
        assert!(polled > sim.state.delivered_flits_in_window, "{polled}");
        assert!(polled <= flits + 3 * packets, "{polled}");
        assert!(10 * polled < 2 * sim.num_nodes as u64 * cycles, "{polled}");
    }

    #[test]
    fn active_set_parks_a_source_with_a_full_buffer_until_a_flit_leaves() {
        // A long worm holds router (1,0)'s east output, and a second one
        // from (0,0) waits behind it, backed up into its source's full
        // injection buffer. Each source is polled once per flit it feeds,
        // and once more when its tail leaves with nothing queued behind
        // it; not at all while the worm waits.
        let mesh = Mesh::new_2d(4, 4);
        let routing = mesh2d::xy();
        let pattern = Uniform::new();
        let at = |x, y| mesh.node_at_coords(&[x, y]);
        let mut sim = Sim::new(&mesh, &routing, &pattern, quiet_cfg());
        sim.inject_packet(at(1, 0), at(3, 0), 30);
        sim.inject_packet(at(0, 0), at(3, 0), 10);
        let source = at(0, 0).index();
        let mut prof = PhaseProfiler::new();
        let mut parked_while_full = 0;
        while !sim.is_idle() {
            let full = sim.state.buf.len(sim.inj_base + source) == 1;
            if full && sim.state.emitting[source].is_some() {
                assert!(!sim.derived.sources().any(|v| v == source));
                parked_while_full += 1;
            }
            sim.step_profiled(&mut prof);
            assert!(sim.now() < 100, "never drained");
        }
        assert!(parked_while_full > 20, "{parked_while_full} cycles");
        assert_eq!(prof.work(Work::SourcesPolled), 30 + 10 + 2);
    }

    #[test]
    fn occupied_set_and_calendar_cost_construction_and_snapshots_nothing() {
        let mesh = Mesh::new_2d(8, 8);
        let routing = mesh2d::west_first(RoutingMode::Minimal);
        let pattern = Uniform::new();
        let cfg = SimConfig::builder().injection_rate(0.05).seed(6).build();
        let mut sim = Sim::new(&mesh, &routing, &pattern, cfg);
        // The calendar is built by the first `generate` and the source
        // set by the first packet, not by `new`.
        assert_eq!(sim.derived.arrivals.capacity(), 0);
        assert_eq!(sim.derived.active_sources.capacity(), 0);
        // Nor are the waiting-head sets and the frozen set: the first
        // head collection and the first freeze allocate them.
        let sleep_state = |sim: &Sim| {
            let d = &sim.derived;
            [
                d.waiting.capacity() + d.awake.capacity() + d.inputs.capacity(),
                d.frozen.bits.capacity() + d.frozen.feeder.capacity(),
            ]
        };
        assert_eq!(sleep_state(&sim), [0, 0]);
        sim.step();
        assert_eq!(sim.derived.arrivals.len(), 64);
        for _ in 0..200 {
            sim.step();
        }
        // `restore` drops it, widens the source set to every node (the
        // next cycle's feed narrows it again) and carries the slot set
        // inside the buffers' one `len` allocation.
        let snap = sim.snapshot();
        let sources = sim.derived.sources().count();
        assert!(sim.state.buf.occupied() > 0 && sources < 64);
        assert!(sleep_state(&sim).iter().all(|&allocated| allocated > 0));
        sim.restore(&snap);
        // No head set and no frozen bit outlives the history it was made
        // in, and the next sample reads every queue.
        assert!(sim.derived.waiting.is_empty() && sim.derived.awake.is_empty());
        assert!(sim.derived.frozen.bits.is_empty());
        assert_eq!(sim.derived.grown, sim.derived.active_sources);
        assert!(sim.derived.arrivals.is_empty());
        assert_eq!(sim.derived.sources().count(), 64);
        sim.state.buf.assert_occupied_set_is_exact();
        assert_eq!(sim.snapshot(), snap, "none of it is snapshot state");
        sim.step();
        assert_eq!(sim.derived.arrivals.len(), 64);
        assert!(sim.derived.sources().count() <= sources + 2);
        // A rate of zero — every model-checker run — never builds one.
        let mut quiet = Sim::new(&mesh, &routing, &pattern, quiet_cfg());
        quiet.inject_packet(NodeId(0), NodeId(63), 5);
        assert!(quiet.run_until_idle(200));
        assert_eq!(quiet.derived.arrivals.capacity(), 0);
    }

    #[test]
    fn memo_counters_pin_one_route_computation_per_hop() {
        // The complexity claim: a head's offer is computed once per hop
        // however long it stays blocked. Without faults or timeouts every
        // computation is either a granted hop or a head still waiting at
        // the end, and every other attempt is a memo hit.
        let mesh = Mesh::new_2d(8, 8);
        let routing = mesh2d::west_first(RoutingMode::Minimal);
        let pattern = Uniform::new();
        let mut sim = Sim::new(&mesh, &routing, &pattern, saturated_cfg(1));
        let mut prof = PhaseProfiler::new();
        for _ in 0..3_000 {
            sim.step_profiled(&mut prof);
        }
        let hops: u64 = sim.packets().iter().map(|p| u64::from(p.hops)).sum();
        // Heads the last cycle's arbitration tried and could not serve.
        let last = sim.now() - 1;
        let waiting = (0..sim.ej_base)
            .filter(|&c| {
                let Some(front) = sim.state.buf.front(c) else {
                    return false;
                };
                front.is_head
                    && sim.state.assigned_out[c] == NONE_U32
                    && last > sim.state.head_since[c]
                    && NodeId(sim.input_router[c]) != sim.state.packets[front.packet as usize].dst
            })
            .count() as u64;
        assert!(waiting > 0, "not saturated");
        assert_eq!(prof.work(Work::RouteComputations), hops + waiting);
        assert_eq!(
            prof.work(Work::HeadAttempts),
            prof.work(Work::RouteComputations) + prof.work(Work::MemoHits)
        );
        // A head that stays blocked reads its offer back whenever a
        // release at its router wakes it.
        assert!(prof.work(Work::MemoHits) > 0, "{}", prof.render());
    }

    #[test]
    fn memo_is_wiped_where_an_offer_can_change_and_only_there() {
        let mesh = Mesh::new_2d(8, 8);
        let routing = mesh2d::west_first(RoutingMode::Minimal);
        let pattern = Uniform::new();
        let mut sim = Sim::new(&mesh, &routing, &pattern, saturated_cfg(2));
        assert!(sim.derived.memo_key.is_empty(), "construction pays nothing");
        let warm = |sim: &Sim| sim.derived.memo_key.iter().any(|&k| k != 0);
        let rewarm = |sim: &mut Sim| {
            for _ in 0..300 {
                sim.step();
            }
            assert!(warm(sim), "no blocked head at saturation");
        };
        rewarm(&mut sim);
        let node = mesh.node_at_coords(&[3, 3]);

        // A hold changes no offer.
        sim.set_hold(node, true);
        sim.set_hold(node, false);
        assert!(warm(&sim));
        // The snapshot has no memo in it and taking one leaves it alone.
        let snap = sim.snapshot();
        let _ = sim.deadlock_snapshot();
        assert!(warm(&sim));

        sim.set_quarantine(node, Direction::EAST, true);
        assert!(!warm(&sim), "quarantine on");
        rewarm(&mut sim);
        sim.set_quarantine(node, Direction::EAST, false);
        assert!(!warm(&sim), "quarantine off");
        rewarm(&mut sim);
        // First fault: `faults_possible` flips and a channel fails.
        sim.set_fault(node, Direction::NORTH);
        assert!(!warm(&sim), "fault");
        rewarm(&mut sim);
        // A second fault on the same link deepens the refcount: no edge,
        // no change to any offer.
        sim.set_fault(node, Direction::NORTH);
        assert!(warm(&sim));
        // Restore starts packet ids over.
        sim.restore(&snap);
        assert!(!warm(&sim), "restore");
        assert_eq!(sim.snapshot(), snap);
    }

    #[test]
    fn sleep_counters_pin_attempts_to_hops_not_to_blocked_cycles() {
        // The complexity claim: a blocked head is asked again only when
        // an output of its router was released, so attempts follow the
        // hops made, not the cycles spent waiting (188 attempts per route
        // computation on this configuration when every head was polled
        // every cycle). Route computations are what they were: one per
        // hop, plus the heads still waiting.
        let mesh = Mesh::new_2d(16, 16);
        let routing = mesh2d::west_first(RoutingMode::Minimal);
        let pattern = Uniform::new();
        let cfg = SimConfig::builder().injection_rate(0.3).seed(1).build();
        let mut sim = Sim::new(&mesh, &routing, &pattern, cfg);
        let mut prof = PhaseProfiler::new();
        let mut totals = [0u64; 3];
        for _ in 0..3_000 {
            let counts = step_counting_slots(&mut sim, &mut prof);
            totals.iter_mut().zip(counts).for_each(|(t, n)| *t += n);
        }
        let [occupied_slot_cycles, awake, plannable] = totals;
        let hops: u64 = sim.packets().iter().map(|p| u64::from(p.hops)).sum();
        let computed = prof.work(Work::RouteComputations);
        let attempts = prof.work(Work::HeadAttempts);
        let asleep = (0..sim.ej_base).filter(|&c| sim.asleep(c)).count() as u64;
        assert!(asleep > 100, "not saturated: {asleep} heads asleep");
        assert!(hops < computed && computed <= hops + asleep + 16);
        assert_eq!(attempts, computed + prof.work(Work::MemoHits));
        assert!(attempts <= 3 * computed, "{}", prof.render());
        // Head collection likewise visits only the awake heads, about
        // three a cycle here where some 250 wait; and most occupied slots
        // are frozen behind a waiting head, which the planning loop does
        // not start from.
        let visited = prof.work(Work::SlotsVisited);
        assert!(
            visited <= awake + plannable,
            "{visited} of {awake} + {plannable}"
        );
        assert!(awake < 3 * 3_000, "{awake} heads collected");
        assert!(
            4 * visited < occupied_slot_cycles,
            "{visited} of {occupied_slot_cycles}"
        );
    }

    #[test]
    fn sleep_ends_the_cycle_after_the_wanted_output_is_released() {
        let mesh = Mesh::new_2d(4, 4);
        let routing = mesh2d::xy();
        let pattern = Uniform::new();
        let at = |x, y| mesh.node_at_coords(&[x, y]);
        let input = mesh.channel_slot(at(0, 0), Direction::EAST);
        let wanted = mesh.channel_slot(at(1, 0), Direction::EAST);
        // A long worm holds router (1,0)'s east output, and `delay` cycles
        // later a head sets out to reach that router from the west and
        // want it. Returns the engine the cycle the worm let go, and for
        // how many cycles the head slept.
        let until_released = |delay: u64| {
            let mut sim = Sim::new(&mesh, &routing, &pattern, quiet_cfg());
            sim.inject_packet(at(1, 0), at(3, 0), 12);
            let mut slept = 0;
            while sim.state.owner[wanted] != NONE_U32 || sim.now() < 3 {
                if sim.now() == delay {
                    sim.inject_packet(at(0, 0), at(3, 0), 2);
                }
                slept += u64::from(sim.asleep(input));
                sim.step();
                assert!(sim.now() < 40, "the worm never let go");
            }
            (sim, slept)
        };
        // Granted the cycle after the release, the latency it had when it
        // asked every cycle.
        let granted_next = |mut sim: Sim, released: u64| {
            assert_eq!(sim.state.assigned_out[input], NONE_U32);
            assert!(!sim.asleep(input));
            sim.step();
            assert_eq!(sim.state.assigned_out[input], wanted as u32);
            assert!(sim.run_until_idle(100));
            assert_eq!(sim.packets()[1].delivered, Some(released + 5));
        };

        // Refused on arrival (cycle 2), asleep from the next cycle for as
        // long as the worm passes, and woken by the traversal that takes
        // its tail out of the channel.
        let (sim, slept) = until_released(0);
        let released = sim.now() - 1;
        assert_eq!(slept, released - 2);
        assert!(slept >= 8, "asleep for {slept} cycles only");
        granted_next(sim, released);

        // Arriving just in time to be refused by the arbitration of the
        // very cycle whose traversal frees the channel: the release comes
        // after the refusal, and wakes it.
        let (sim, slept) = until_released(released - 2);
        assert_eq!(sim.now() - 1, released);
        assert_eq!(slept, 0);
        granted_next(sim, released);
    }

    #[test]
    fn sleep_thaws_a_granted_worm_and_no_other() {
        let channels = 70;
        let mut derived = Derived::default();
        assert!(
            !derived.frozen.contains(69),
            "nothing allocated, nothing frozen"
        );
        derived.granted(69, &[]);
        let mut assigned_out = vec![NONE_U32; channels];
        // A worm waits at 3 with two full slots behind it, 40 -> 7 -> 3,
        // frozen in the order the planner finds them.
        (assigned_out[7], assigned_out[40]) = (3, 7);
        let frozen = &mut derived.frozen;
        frozen.freeze(3, None, channels);
        frozen.freeze(7, Some(3), channels);
        frozen.freeze(40, Some(7), channels);
        // Slot 9 once froze bound to 64 and has moved on since (a purge);
        // now another worm's head waits in each.
        frozen.freeze(9, Some(64), channels);
        derived.purged(9);
        derived.frozen.freeze(9, None, channels);
        derived.frozen.freeze(64, None, channels);
        let members = |derived: &Derived| -> Vec<usize> {
            (0..channels)
                .filter(|&c| derived.frozen.contains(c))
                .collect()
        };
        assert_eq!(members(&derived), [3, 7, 9, 40, 64]);
        // The grant at 64 follows no stale back-pointer into 9.
        derived.granted(64, &assigned_out);
        assert_eq!(members(&derived), [3, 7, 9, 40]);
        // The grant at 3 thaws its worm to the last frozen slot.
        derived.granted(3, &assigned_out);
        assert_eq!(members(&derived), [9]);
        // Rewound, the set allocates again on the next freeze.
        derived.rewound();
        assert!(members(&derived).is_empty());
        derived.frozen.freeze(69, None, channels);
        assert_eq!(members(&derived), [69]);
    }

    #[test]
    fn sleep_takes_a_head_refused_by_a_hold_until_the_hold_lifts() {
        // A hold refuses before any attempt is counted, so only the awake
        // set keeps a held head from being collected every cycle.
        let mesh = Mesh::new_2d(4, 4);
        let routing = mesh2d::xy();
        let pattern = Uniform::new();
        let mut sim = Sim::new(&mesh, &routing, &pattern, quiet_cfg());
        let at = |x, y| mesh.node_at_coords(&[x, y]);
        sim.set_hold(at(1, 0), true);
        sim.inject_packet(at(0, 0), at(3, 0), 3);
        for _ in 0..6 {
            sim.step();
        }
        let input = mesh.channel_slot(at(0, 0), Direction::EAST);
        assert!(sim.asleep(input));
        sim.set_hold(at(1, 0), false);
        assert!(!sim.asleep(input));
        assert!(sim.run_until_idle(100));
    }

    #[test]
    fn sleep_leaves_a_scripted_step_every_head_to_choose_from() {
        // `decide(n)` counts the waiting heads of a router, so a scripted
        // step is handed the sleepers too.
        let mesh = Mesh::new_2d(4, 4);
        let routing = mesh2d::xy();
        let pattern = Uniform::new();
        let mut sim = Sim::new(&mesh, &routing, &pattern, quiet_cfg());
        let at = |x, y| mesh.node_at_coords(&[x, y]);
        // A long worm holds router (1,0)'s north output; two heads come
        // in from the west and the east wanting it.
        sim.inject_packet(at(1, 0), at(1, 3), 30);
        sim.inject_packet(at(0, 0), at(1, 2), 3);
        sim.inject_packet(at(2, 0), at(1, 2), 3);
        for _ in 0..6 {
            sim.step();
        }
        let from_west = mesh.channel_slot(at(0, 0), Direction::EAST);
        let from_east = mesh.channel_slot(at(2, 0), Direction::WEST);
        assert!(sim.asleep(from_west) && sim.asleep(from_east));
        // Policy-driven, neither is collected...
        let mut prof = PhaseProfiler::new();
        sim.step_profiled(&mut prof);
        assert_eq!(prof.work(Work::HeadAttempts), 0);
        // ...scripted, both are, and both are refused again.
        let mut script = ChoiceScript::default();
        sim.step_with_choices(&mut script);
        assert_eq!(script.arities(), &[2]);
        assert!(sim.asleep(from_west) && sim.asleep(from_east));
        assert!(sim.run_until_idle(200));
    }
}
