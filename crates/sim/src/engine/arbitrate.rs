//! Routing and arbitration: collect the waiting heads in service order,
//! work out what each may take ([`Engine::route_decision`], the one
//! statement of the routing semantics), and grant outputs.

use super::{Arbiter, Engine, SpanSink, NONE_U32};
use crate::lanes::{Candidate, Lanes};
use crate::obs::{Event, SimObserver};
use crate::profile::Work;
use crate::{InputPolicy, PacketId};
use turnroute_model::Turn;
use turnroute_rng::Rng;
use turnroute_topology::NodeId;

/// What arbitration can do for the head flit waiting at one input
/// channel, before contention is considered: bind the ejection channel,
/// wait out a healing hold, or choose among the candidate outputs.
/// Shared by [`try_assign`](Engine::try_assign) under either arbiter, the
/// debug re-check of a sleeping head and the deadlock snapshot's
/// wanted-output reconstruction, so all see byte-identical routing
/// semantics.
pub(super) enum RouteDecision {
    /// Destination reached: bind this ejection slot (if free).
    Eject(usize),
    /// The input router is held by the healing driver; grant nothing.
    Hold,
    /// The caller's candidate list now holds the adapter's raw offer for
    /// this head — every existing, healthy output, in offer order —
    /// before the misroute-budget and free-channel filters.
    Offer {
        /// Whether the offer was read back from the route memo instead
        /// of computed.
        memoised: bool,
        /// Out of misroute budget: a nonminimal function's unproductive
        /// offers are withdrawn while any productive one remains.
        productive_only: bool,
    },
}

impl<'a, L: Lanes<'a>, O: SimObserver> Engine<'a, L, O> {
    /// Phase A, first half: collect input channels whose buffered flit
    /// is an unassigned head into `scratch_heads`, in service order — the
    /// input policy's, or grouped by router for a scripted arbiter.
    ///
    /// A head that is [`asleep`](Engine::asleep) would be refused again,
    /// and a refusal has no side effect, so it is left out — where that
    /// is invisible. Ordering a subset gives the subset of the order, so
    /// `Fcfs` and `PortOrder` walk only the awake heads; `Random` draws
    /// once per collected head, so it shuffles every waiting head and
    /// drops sleepers after; a scripted arbiter is asked to pick among
    /// all the heads of a router, so it keeps them.
    pub(super) fn collect_route_heads<A: Arbiter, S: SpanSink>(&mut self, spans: &mut S) {
        self.scan_waiting_heads();
        let mut heads = std::mem::take(&mut self.scratch_heads);
        heads.clear();
        let keep_sleepers = A::SCRIPTED || self.cfg.input_policy == InputPolicy::Random;
        let (s, mut visited) = (&self.state, 0);
        for slot in self.derived.waiting_heads(keep_sleepers) {
            visited += 1;
            // A header arriving at cycle t is normally routable at t+1;
            // routing_delay postpones that by `delay` further cycles.
            if s.now > s.head_since[slot] + self.cfg.routing_delay {
                heads.push(slot as u32);
            }
        }
        spans.count(Work::SlotsVisited, visited);
        if A::SCRIPTED {
            heads.sort_unstable_by_key(|&c| (self.input_router[c as usize], c));
        } else {
            match self.cfg.input_policy {
                InputPolicy::Fcfs => {
                    heads.sort_unstable_by_key(|&c| (self.state.head_since[c as usize], c));
                }
                InputPolicy::PortOrder => heads.sort_unstable(),
                InputPolicy::Random => {
                    // Fisher–Yates with the run RNG for determinism.
                    for i in (1..heads.len()).rev() {
                        let j = self.state.rng.gen_range(0..=i);
                        heads.swap(i, j);
                    }
                    heads.retain(|&c| !self.asleep(c as usize));
                }
            }
        }
        self.scratch_heads = heads;
    }

    /// Phase A, second half: look up or compute routes and grant output
    /// channels to the collected heads — in order, or per router in an
    /// order the scripted arbiter chooses.
    pub(super) fn arbitrate_heads<A: Arbiter, S: SpanSink>(&mut self, arb: &mut A, spans: &mut S) {
        let heads = std::mem::take(&mut self.scratch_heads);
        if A::SCRIPTED {
            let mut i = 0;
            while i < heads.len() {
                let router = self.input_router[heads[i] as usize];
                let group = heads[i..]
                    .iter()
                    .take_while(|&&c| self.input_router[c as usize] == router);
                let mut remaining: Vec<u32> = group.copied().collect();
                i += remaining.len();
                while !remaining.is_empty() {
                    let c = remaining.remove(arb.decide(remaining.len()));
                    self.try_assign(c as usize, arb, spans);
                }
            }
        } else {
            for &c in &heads {
                self.try_assign(c as usize, arb, spans);
            }
        }
        self.scratch_heads = heads;
    }

    /// Whether `slot` may be granted to a new worm: faulty and
    /// quarantined channels are excluded, each behind its own
    /// possible-flag so undisturbed runs never load the tables.
    #[inline]
    fn unusable(&self, slot: usize) -> bool {
        let s = &self.state;
        (s.faults_possible && s.fault_depth[slot] > 0)
            || (s.healing_possible && s.quarantined[slot])
    }

    /// Everything arbitration knows about the head at input channel `c`
    /// before contention: ejection binding, healing hold, or the
    /// adapter's offer (written to `candidates`) with the misroute-budget
    /// verdict on it. Only the offer may come from the route memo:
    /// everything that can change while a head waits — the ejection test,
    /// the hold, the budget verdict, and all the caller does with free
    /// channels, selection and the RNG — runs every time.
    pub(super) fn route_decision(
        &self,
        c: usize,
        candidates: &mut Vec<Candidate>,
    ) -> RouteDecision {
        let flit = self.state.buf.front(c).expect("head present");
        let pkt = self.state.packets[flit.packet as usize];
        let v = NodeId(self.input_router[c]);
        // Destination reached: bind to the ejection channel.
        if v == pkt.dst {
            return RouteDecision::Eject(self.ej_base + v.index());
        }
        // A held router grants nothing while its region re-proves;
        // ejection (above) still drains delivered traffic.
        if self.state.healing_possible && self.state.held[v.index()] {
            return RouteDecision::Hold;
        }
        candidates.clear();
        let memoised = self.offer(c, &pkt, candidates);
        let productive_only = !self.lanes.is_minimal()
            && pkt.misroutes >= self.cfg.misroute_budget
            && candidates.iter().any(|k| k.productive);
        RouteDecision::Offer {
            memoised,
            productive_only,
        }
    }

    /// Ask the adapter what the head at input channel `c`, bound for
    /// `dst`, may take: the computation the route memo saves.
    pub(super) fn compute_offer(&self, c: usize, dst: NodeId, out: &mut Vec<Candidate>) {
        let v = NodeId(self.input_router[c]);
        let arrived = (c < self.inj_base).then_some(c);
        let faults = self.state.faults_possible;
        let usable = |slot| !self.unusable(slot);
        self.lanes.candidates(v, dst, arrived, faults, usable, out);
    }

    /// Bind the head at input channel `c` to output `out`, granted
    /// non-productively if `misrouted`; returns its packet.
    fn bind(&mut self, c: usize, out: usize, misrouted: bool) -> u32 {
        let s = &mut self.state;
        let packet = s.buf.front(c).expect("head present").packet;
        s.assigned_out[c] = out as u32;
        s.owner[out] = packet;
        s.misroute_assigned[c] = misrouted;
        self.derived.granted(c, &s.assigned_out);
        packet
    }

    /// Commit one granted network output: the binding, packet
    /// accounting, path recording, and observer hooks.
    fn commit_grant(&mut self, c: usize, pick: Candidate) {
        let packet = self.bind(c, pick.slot, !pick.productive);
        let v = NodeId(self.input_router[c]);
        if O::ENABLED {
            let (packet, at, dir) = (PacketId(packet), v, pick.dir);
            if c < self.inj_base {
                if let Some(arr) = self.lanes.turn_dir(c) {
                    let turn = Turn::new(arr, dir);
                    self.fire(Event::Turn { packet, at, turn });
                }
            }
            if !pick.productive {
                self.fire(Event::Misroute { packet, at, dir });
            }
        }
        let p = &mut self.state.packets[packet as usize];
        p.hops += 1;
        if !pick.productive {
            p.misroutes += 1;
        }
        if self.cfg.record_paths {
            let next = NodeId(self.input_router[pick.slot]);
            self.state.paths[packet as usize].push(next);
        }
    }

    /// Whether ejection slot `ej` can be bound to a new worm.
    #[inline]
    pub(super) fn grantable(&self, ej: usize) -> bool {
        self.state.owner[ej] == NONE_U32 && !self.unusable(ej)
    }

    /// Whether offered output `k` can be granted: free, and within the
    /// misroute budget.
    #[inline]
    pub(super) fn open(&self, k: &Candidate, productive_only: bool) -> bool {
        self.state.owner[k.slot] == NONE_U32 && (k.productive || !productive_only)
    }

    /// Route the head at input channel `c` and grant it an output if one
    /// is free: the scripted arbiter's pick, or the adapter's selection
    /// under `cfg.output_policy`. A head that stays blocked leaves its
    /// offer in the route memo, so each later attempt costs one `owner`
    /// load per candidate instead of a routing call, and goes to sleep, so
    /// the next attempt waits for something to have changed.
    fn try_assign<A: Arbiter, S: SpanSink>(&mut self, c: usize, arb: &mut A, spans: &mut S) {
        let mut candidates = std::mem::take(&mut self.scratch_candidates);
        match self.route_decision(c, &mut candidates) {
            // Ejection is never a choice point.
            RouteDecision::Eject(ej) if self.grantable(ej) => {
                self.bind(c, ej, false);
            }
            RouteDecision::Eject(_) | RouteDecision::Hold => self.derived.refused(c),
            RouteDecision::Offer {
                memoised,
                productive_only,
            } => {
                spans.count(Work::HeadAttempts, 1);
                let source = if memoised {
                    Work::MemoHits
                } else {
                    Work::RouteComputations
                };
                spans.count(source, 1);
                let open = |k: &Candidate| self.open(k, productive_only);
                if candidates.iter().any(open) {
                    candidates.retain(open);
                    // Misroute only when necessary: if any productive
                    // channel is free, unproductive ones are not taken.
                    if candidates.iter().any(|k| k.productive) {
                        candidates.retain(|k| k.productive);
                    }
                    let pick = if A::SCRIPTED {
                        candidates[arb.decide(candidates.len())]
                    } else {
                        match self.lanes.select(&candidates, self.cfg.output_policy) {
                            Some(pick) => pick,
                            None => candidates[self.state.rng.gen_range(0..candidates.len())],
                        }
                    };
                    self.commit_grant(c, pick);
                } else {
                    if !memoised {
                        // Blocked on its first attempt: heads granted at
                        // once (nearly all, at light load) never touch
                        // the memo.
                        let packet = self.state.buf.front(c).expect("head present").packet;
                        self.derived.store_memo(c, packet, &candidates);
                    }
                    self.derived.refused(c);
                }
            }
        }
        self.scratch_candidates = candidates;
    }
}
