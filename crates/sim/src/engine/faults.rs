//! What happens to the network rather than in it: fault transitions,
//! the healing driver's hold and quarantine, packet expiry, and deadlock
//! detection.

use super::{Engine, NONE_U32};
use crate::lanes::Lanes;
use crate::obs::{Event, SimObserver};
use crate::{FaultTarget, PacketId};
use turnroute_topology::{Direction, NodeId};

impl<'a, L: Lanes<'a>, O: SimObserver> Engine<'a, L, O> {
    /// Mark the link leaving `node` in `dir` (every lane of it) as
    /// faulty; the routing arbitration will never assign it. For
    /// scheduled or transient failures use [`crate::SimConfig::fault_plan`]
    /// instead.
    ///
    /// # Panics
    ///
    /// Panics if the channel does not exist.
    pub fn set_fault(&mut self, node: NodeId, dir: Direction) {
        // The adapter's degraded-mode discipline starts applying. If it
        // was off, no channel was faulty, so one fails below, and that
        // edge is what wipes the offers made without it.
        self.state.faults_possible = true;
        let any = self.shift_link(node, dir, true);
        assert!(any, "no channel at {node} {dir}");
    }

    /// Pause (`on`) or resume output arbitration at `node`. A held router
    /// grants no new output channels: heads wait in place while the
    /// healing driver re-proves the region. Ejection still binds, and
    /// worms already granted outputs keep draining, so a hold never
    /// strands in-flight traffic.
    pub fn set_hold(&mut self, node: NodeId, on: bool) {
        self.state.healing_possible = true;
        self.state.held[node.index()] = on;
        self.derived.hold_changed(node.index());
    }

    /// Quarantine (`on`) or release the link leaving `node` in `dir`
    /// (every lane of it): a quarantined channel is never assigned to a
    /// new worm, exactly like a faulty one, but its failure refcount is
    /// untouched — this is the healing driver's escape-path-only mode for
    /// channels implicated in a `Cyclic` verdict.
    ///
    /// # Panics
    ///
    /// Panics if the channel does not exist.
    pub fn set_quarantine(&mut self, node: NodeId, dir: Direction, on: bool) {
        let slots = self.link_slots(node, dir);
        assert!(
            self.exists[slots.clone()].contains(&true),
            "no channel at {node} {dir}"
        );
        self.state.healing_possible = true;
        self.state.quarantined[slots].fill(on);
        self.derived.offer_inputs_changed();
    }

    /// Whether the link leaving `node` in `dir` is quarantined.
    pub fn is_quarantined(&self, node: NodeId, dir: Direction) -> bool {
        self.state.quarantined[self.link_slots(node, dir)].contains(&true)
    }

    /// How many entries of the compiled fault-event stream have been
    /// applied so far. A healing driver polls this after each step to
    /// detect that a fault transition (and hence a new masked channel
    /// graph) just took effect.
    pub fn applied_fault_events(&self) -> usize {
        self.state.fault_cursor
    }

    /// Apply every fault transition scheduled at or before `now`. With an
    /// empty plan this is a single always-false branch.
    pub(super) fn apply_faults(&mut self) {
        while self.state.fault_cursor < self.fault_events.len()
            && self.fault_events[self.state.fault_cursor].at <= self.state.now
        {
            let ev = self.fault_events[self.state.fault_cursor];
            self.state.fault_cursor += 1;
            match ev.target {
                FaultTarget::Link { node, dir } => {
                    let any = self.shift_link(node, dir, ev.down);
                    assert!(any, "fault plan names a missing channel: {node} {dir}");
                }
                FaultTarget::Node(v) => {
                    let vi = v.index();
                    if ev.down {
                        self.state.node_down[vi] += 1;
                    } else {
                        self.state.node_down[vi] -= 1;
                    }
                    for dir in Direction::all(self.topo.num_dims()) {
                        self.shift_link(v, dir, ev.down);
                        if let Some(prev) = self.topo.neighbor(v, dir.opposite()) {
                            self.shift_link(prev, dir, ev.down);
                        }
                    }
                    self.shift_fault(self.inj_base + vi, ev.down);
                    self.shift_fault(self.ej_base + vi, ev.down);
                }
            }
        }
    }

    /// Shift the failure refcount of every existing lane of the link
    /// leaving `node` in `dir` (a link fault takes down all its lanes);
    /// returns whether the link has any.
    fn shift_link(&mut self, node: NodeId, dir: Direction, down: bool) -> bool {
        let mut any = false;
        for slot in self.link_slots(node, dir) {
            if self.exists[slot] {
                self.shift_fault(slot, down);
                any = true;
            }
        }
        any
    }

    /// Adjust one channel's failure refcount and report edge transitions
    /// to the observer.
    fn shift_fault(&mut self, slot: usize, down: bool) {
        let s = &mut self.state;
        let was = s.fault_depth[slot] > 0;
        if down {
            s.fault_depth[slot] += 1;
        } else {
            s.fault_depth[slot] -= 1;
        }
        let is = s.fault_depth[slot] > 0;
        if was != is {
            self.derived.offer_inputs_changed();
            if O::ENABLED {
                self.fire(Event::Fault { slot, active: is });
            }
        }
    }

    /// Purge packets whose lifetime expired: retry (re-queue at the
    /// source) while retries remain and delivery is still possible,
    /// otherwise drop and account. With `packet_timeout == 0` this is a
    /// single always-false branch.
    pub(super) fn expire_packets(&mut self) {
        if self.cfg.packet_timeout == 0 {
            return;
        }
        while let Some(&(deadline, pid)) = self.state.deadlines.front() {
            let now = self.state.now;
            if deadline > now {
                break;
            }
            self.state.deadlines.pop_front();
            let p = self.state.packets[pid as usize];
            if p.delivered.is_some() || p.dropped.is_some() {
                continue; // resolved before its deadline; stale entry
            }
            self.purge_packet(pid);
            if O::ENABLED {
                let packet = PacketId(pid);
                self.fire(Event::Purge { packet });
            }
            let down = &self.state.node_down;
            let unroutable = down[p.src.index()] > 0 || down[p.dst.index()] > 0;
            let counted = self.state.in_window(p.created);
            let s = &mut self.state;
            if !unroutable && s.retry_counts[pid as usize] < self.cfg.max_retries {
                s.retry_counts[pid as usize] += 1;
                if counted {
                    s.total_retries += 1;
                }
                let retried = &mut s.packets[pid as usize];
                retried.injected = None;
                retried.hops = 0;
                retried.misroutes = 0;
                // Blame restarts with the attempt: queue wait absorbs the
                // failed attempt's time (queue = injected − created uses
                // the *final* injection cycle).
                s.progress_cycles[pid as usize] = 0;
                s.last_progress[pid as usize] = u64::MAX;
                s.misroute_progress[pid as usize] = 0;
                self.enqueue(p.src.index(), pid);
                let deadline = now + self.cfg.packet_timeout;
                self.state.deadlines.push_back((deadline, pid));
            } else {
                s.packets[pid as usize].dropped = Some(now);
                if counted {
                    if unroutable {
                        s.unroutable_packets += 1;
                    } else {
                        s.dropped_packets += 1;
                    }
                }
                if O::ENABLED {
                    let packet = PacketId(pid);
                    self.fire(Event::Drop { packet, unroutable });
                }
            }
            // A purge is progress: freed channels change the network's
            // state, so deadlock detection must not trip while timeouts
            // are draining a blocked network. This is the documented
            // precedence — `packet_timeout < deadlock_threshold` degrades
            // gracefully, the reverse declares deadlock first.
            self.state.last_move = now;
        }
    }

    /// Remove every trace of `pid` from the network: its source-queue
    /// entry, its emission stream, and every channel the worm holds
    /// (a channel's buffer only ever holds flits of its owning packet).
    fn purge_packet(&mut self, pid: u32) {
        let s = &mut self.state;
        let src = s.packets[pid as usize].src.index();
        s.queues[src].retain(|&q| q != pid);
        if matches!(s.emitting[src], Some(e) if e.packet == pid) {
            s.emitting[src] = None;
        }
        for slot in 0..self.num_channels {
            if s.owner[slot] != pid {
                continue;
            }
            debug_assert!(s.buf.queued(slot).iter().all(|f| f.packet == pid));
            s.buf.clear(slot);
            s.owner[slot] = NONE_U32;
            s.assigned_out[slot] = NONE_U32;
            self.derived.purged(slot);
        }
    }

    pub(super) fn detect_deadlock(&mut self) {
        let s = &self.state;
        if s.now.saturating_sub(s.last_move) >= self.cfg.deadlock_threshold && s.buf.occupied() > 0
        {
            self.state.deadlocked = true;
            if O::ENABLED {
                let snapshot = self.deadlock_snapshot();
                self.fire(Event::Deadlock(&snapshot));
            }
        }
    }
}
