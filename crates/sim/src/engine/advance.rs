//! The lockstep flit advance: plan the cycle's moves targets first, let
//! shared links carry one flit each, account stalls, and apply the moves.

use super::derived::Frozen;
use super::{Engine, SpanSink, NONE_U32};
use crate::lanes::Lanes;
use crate::obs::{Event, PacketBlame, SimObserver, StallReason};
use crate::profile::Work;
use crate::PacketId;

/// `advance`'s verdict on whether a channel's front flit moves this
/// cycle: not asked yet, being asked (on the search stack), yes, no.
const UNKNOWN: u8 = 0;
const IN_PROGRESS: u8 = 1;
const YES: u8 = 2;
const NO: u8 = 3;

/// The planner's scratch, kept across cycles: each channel's verdict, the
/// moves in the order they apply (targets first), and the search stack.
#[derive(Default)]
pub(super) struct Plan {
    state: Vec<u8>,
    pub(super) order: Vec<u32>,
    stack: Vec<u32>,
}

impl<'a, L: Lanes<'a>, O: SimObserver> Engine<'a, L, O> {
    /// Decide whether the flit at the front of occupied channel `start`
    /// moves this cycle, and with it every undecided channel its move
    /// waits on: a depth-first walk along output bindings that appends
    /// the movers to `order` targets first.
    ///
    /// A channel found `NO` for a reason that outlasts the cycle — its
    /// front flit is unassigned, or bound to a full slot that is itself
    /// frozen — is frozen, and a frozen slot reached through a binding
    /// reads as `NO` without being decided (its `state` stays `UNKNOWN`,
    /// which every later reader treats as "does not move").
    fn plan_from(&self, start: usize, plan: &mut Plan, frozen: &mut Frozen) {
        let Plan {
            state,
            order,
            stack,
        } = plan;
        let depth = self.cfg.buffer_depth as usize;
        let (buf, assigned_out) = (&self.state.buf, &self.state.assigned_out);
        stack.clear();
        stack.push(start as u32);
        while let Some(&c) = stack.last() {
            let c = c as usize;
            match state[c] {
                UNKNOWN => {
                    if buf.is_empty(c) {
                        state[c] = NO;
                        stack.pop();
                        continue;
                    }
                    if c >= self.ej_base {
                        state[c] = YES;
                        order.push(c as u32);
                        stack.pop();
                        continue;
                    }
                    let o = assigned_out[c];
                    if o == NONE_U32 {
                        // A head waiting for a grant, which thaws it.
                        state[c] = NO;
                        frozen.freeze(c, None, self.num_channels);
                        stack.pop();
                        continue;
                    }
                    let o = o as usize;
                    if buf.len(o) < depth {
                        state[c] = YES;
                        order.push(c as u32);
                        stack.pop();
                        continue;
                    }
                    match state[o] {
                        UNKNOWN if !frozen.contains(o) => {
                            state[c] = IN_PROGRESS;
                            stack.push(o as u32);
                        }
                        YES => {
                            state[c] = YES;
                            order.push(c as u32);
                            stack.pop();
                        }
                        // Full, and frozen — not moving until its worm's
                        // head is granted, and nor is `c` — or on a
                        // dependency cycle (`IN_PROGRESS`: a wormhole
                        // deadlock in the making) or blocked behind one.
                        _ => {
                            state[c] = NO;
                            if frozen.contains(o) {
                                frozen.freeze(c, Some(o), self.num_channels);
                            }
                            stack.pop();
                        }
                    }
                }
                IN_PROGRESS => {
                    let o = assigned_out[c] as usize;
                    if state[o] == YES {
                        state[c] = YES;
                        order.push(c as u32);
                    } else {
                        state[c] = NO;
                        if frozen.contains(o) {
                            frozen.freeze(c, Some(o), self.num_channels);
                        }
                    }
                    stack.pop();
                }
                _ => {
                    stack.pop();
                }
            }
        }
    }

    /// Plan the cycle's moves into `order`, targets first: from every
    /// occupied channel that is not frozen, in slot order — an empty one
    /// moves nothing, a frozen one cannot, and the search reaches either
    /// anyway when a worm is bound to it. Returns the slots visited.
    pub(super) fn plan_moves(&self, plan: &mut Plan, frozen: &mut Frozen) -> u64 {
        plan.state.clear();
        plan.state.resize(self.num_channels, UNKNOWN);
        plan.order.clear();
        let mut visited = 0;
        let buf = &self.state.buf;
        for w in 0..buf.occupied_words() {
            for start in buf.occupied_in(w).without(frozen.word(w)) {
                visited += 1;
                if plan.state[start] == UNKNOWN {
                    self.plan_from(start, plan, frozen);
                }
            }
        }
        visited
    }

    /// Phase B: advance flits in lockstep. A flit moves when its bound
    /// output buffer has room or is itself vacating this cycle; dependency
    /// cycles (deadlock) advance nothing. Where lanes share links, each
    /// physical link additionally carries at most one flit per cycle.
    pub(super) fn advance<S: SpanSink>(&mut self, spans: &mut S) {
        let mut plan = std::mem::take(&mut self.scratch_plan);
        let mut frozen = std::mem::take(&mut self.derived.frozen);
        let visited = self.plan_moves(&mut plan, &mut frozen);
        self.derived.frozen = frozen;
        spans.count(Work::SlotsVisited, visited);
        #[cfg(debug_assertions)]
        self.check_plan(&plan.order);
        let Plan { state, order, .. } = &mut plan;

        let depth = self.cfg.buffer_depth as usize;
        // Shared links: one flit per physical link per cycle, granted in
        // plan order (targets first). A move is withdrawn if its link's
        // budget is spent or its full target did not actually vacate
        // (because that move was itself withdrawn); withdrawal cascades
        // upstream through the `state` check.
        if L::SHARED_LINKS {
            self.scratch_link_used.fill(false);
            order.retain(|&c| {
                let c = c as usize;
                if c >= self.ej_base {
                    // Consuming from the ejection buffer is the processor
                    // side; the ejection link was paid when entering it.
                    return true;
                }
                let o = self.state.assigned_out[c] as usize;
                let link = self.phys_link[o] as usize;
                let room = self.state.buf.len(o) < depth || state[o] == YES;
                if !room || self.scratch_link_used[link] {
                    state[c] = NO;
                    return false;
                }
                self.scratch_link_used[link] = true;
                true
            });
        }

        // Stall accounting: every occupied channel either moves a flit
        // this cycle (it is in `order`) or stalls in place.
        let in_window = self.state.in_window(self.state.now);
        if in_window {
            self.state.total_stall_cycles += (self.state.buf.occupied() - order.len()) as u64;
        }
        if O::ENABLED {
            for w in 0..self.state.buf.occupied_words() {
                for c in self.state.buf.occupied_in(w) {
                    if state[c] == YES {
                        continue;
                    }
                    let front = self.state.buf.front(c).expect("occupied");
                    let reason = if self.state.assigned_out[c] == NONE_U32 {
                        StallReason::NotRouted
                    } else {
                        StallReason::Backpressure
                    };
                    let (slot, packet) = (c, PacketId(front.packet));
                    self.fire(Event::Stall {
                        slot,
                        packet,
                        reason,
                    });
                }
            }
        }

        // Apply moves targets-first: out of a routed channel into its
        // bound output, or out of an ejection channel to the processor.
        for &c in order.iter() {
            let c = c as usize;
            let s = &mut self.state;
            let now = s.now;
            let flit = s.buf.pop_front(c).expect("flit scheduled to move");
            if (self.inj_base..self.ej_base).contains(&c) {
                self.derived.injection_left(c - self.inj_base);
            }
            s.last_move = now;
            // Blame: this cycle made forward progress for the flit's
            // packet (stamp deduplicates several flits of one worm
            // moving in the same cycle).
            let pidx = flit.packet as usize;
            if s.last_progress[pidx] != now {
                s.last_progress[pidx] = now;
                s.progress_cycles[pidx] += 1;
            }
            let to = (c < self.ej_base).then(|| s.assigned_out[c] as usize);
            if let Some(o) = to {
                debug_assert!(s.buf.len(o) < depth);
                if in_window {
                    s.channel_flits[o] += 1;
                }
                if flit.is_head {
                    s.head_since[o] = now;
                    self.derived.head_arrived(o);
                    // The header crossing a non-productively granted
                    // channel marks this progress cycle as misroute
                    // penalty (the head moves at most once per cycle, so
                    // misroute progress never exceeds total progress).
                    if s.misroute_assigned[c] {
                        s.misroute_progress[pidx] += 1;
                    }
                }
                s.buf.push_back(o, flit);
            } else if in_window {
                s.delivered_flits_in_window += 1;
            }
            if O::ENABLED {
                let (packet, is_tail) = (PacketId(flit.packet), flit.is_tail);
                self.fire(Event::FlitAdvance {
                    from: c,
                    to,
                    packet,
                    is_tail,
                });
            }
            if !flit.is_tail {
                continue;
            }
            let s = &mut self.state;
            s.owner[c] = NONE_U32;
            s.assigned_out[c] = NONE_U32;
            self.derived.output_released(c);
            if to.is_some() {
                continue;
            }
            let p = &mut s.packets[pidx];
            p.delivered = Some(now);
            let (id, created, hops) = (p.id, p.created, p.hops);
            let injected = p.injected.expect("delivered packet was injected");
            let latency = now - created;
            let in_network = now - injected;
            let progress = s.progress_cycles[pidx];
            let misroute = s.misroute_progress[pidx];
            let blame = PacketBlame {
                queue_cycles: injected - created,
                blocked_cycles: in_network - progress,
                service_cycles: progress - misroute,
                misroute_cycles: misroute,
            };
            debug_assert_eq!(blame.total(), latency);
            if s.in_window(created) {
                s.blame.queue_cycles += blame.queue_cycles;
                s.blame.blocked_cycles += blame.blocked_cycles;
                s.blame.service_cycles += blame.service_cycles;
                s.blame.misroute_cycles += blame.misroute_cycles;
            }
            if O::ENABLED {
                let packet = id;
                self.fire(Event::Deliver {
                    packet,
                    latency,
                    hops,
                });
                self.fire(Event::Blame { packet, blame });
            }
        }

        self.scratch_plan = plan;
    }
}
