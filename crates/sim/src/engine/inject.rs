//! The sources: packet creation, message generation at the nodes the
//! arrival calendar has due, and feeding flits into the injection
//! buffers of the active sources.

use super::{Emitting, Engine, SpanSink};
use crate::flits::BufFlit;
use crate::lanes::Lanes;
use crate::obs::{Event, SimObserver};
use crate::profile::Work;
use crate::{LengthDist, Packet, PacketId};
use turnroute_rng::Rng;
use turnroute_topology::NodeId;

impl<'a, L: Lanes<'a>, O: SimObserver> Engine<'a, L, O> {
    /// Manually queue a packet (useful with `injection_rate == 0`).
    ///
    /// # Panics
    ///
    /// Panics if `src == dst` or `len == 0`.
    pub fn inject_packet(&mut self, src: NodeId, dst: NodeId, len: u32) -> PacketId {
        assert_ne!(src, dst, "packet must leave its source");
        assert!(len >= 1, "packet needs at least one flit");
        let id = self.create_packet(src, dst, len);
        PacketId(id)
    }

    fn create_packet(&mut self, src: NodeId, dst: NodeId, len: u32) -> u32 {
        let s = &mut self.state;
        let id = s.packets.len() as u32;
        s.packets.push(Packet {
            id: PacketId(id),
            src,
            dst,
            len,
            created: s.now,
            injected: None,
            delivered: None,
            dropped: None,
            hops: 0,
            misroutes: 0,
        });
        if self.cfg.packet_timeout > 0 {
            s.deadlines.push_back((s.now + self.cfg.packet_timeout, id));
            s.retry_counts.push(0);
        }
        s.progress_cycles.push(0);
        s.last_progress.push(u64::MAX);
        s.misroute_progress.push(0);
        self.enqueue(src.index(), id);
        if self.cfg.record_paths {
            self.state.paths.push(vec![src]);
        }
        if self.state.in_window(self.state.now) {
            self.state.generated_packets += 1;
            self.state.generated_flits += u64::from(len);
        }
        id
    }

    /// Queue packet `pid` at its source `v`: the one place a source queue
    /// grows.
    pub(super) fn enqueue(&mut self, v: usize, pid: u32) {
        self.state.queues[v].push_back(pid);
        self.derived.enqueued(v);
    }

    pub(super) fn mean_interarrival(&self) -> f64 {
        self.cfg.lengths.mean() / self.cfg.injection_rate
    }

    pub(super) fn sample_exp(&mut self, mean: f64) -> f64 {
        let u: f64 = self.state.rng.gen_range(f64::EPSILON..1.0);
        -mean * u.ln()
    }

    fn sample_len(&mut self) -> u32 {
        match self.cfg.lengths {
            LengthDist::Fixed(n) => n,
            LengthDist::Bimodal { short, long } => {
                if self.state.rng.gen_bool(0.5) {
                    short
                } else {
                    long
                }
            }
        }
    }

    /// Create the packets arriving this cycle. Only the nodes the
    /// arrival calendar has due are visited, in node order, so the RNG
    /// draws fall in node order.
    pub(super) fn generate<S: SpanSink>(&mut self, spans: &mut S) {
        if self.cfg.injection_rate <= 0.0 {
            return;
        }
        let (mean, now) = (self.mean_interarrival(), self.state.now);
        let mut polled = 0;
        while let Some(v) = self.derived.next_due(now, &self.state.next_arrival) {
            polled += 1;
            while self.state.next_arrival[v] <= now as f64 {
                let step = self.sample_exp(mean);
                self.state.next_arrival[v] += step;
                let src = NodeId(v as u32);
                let dst = self.pattern.dest(self.topo, src, &mut self.state.rng);
                if let Some(dst) = dst {
                    let len = self.sample_len();
                    self.create_packet(src, dst, len);
                }
                // Self-directed messages are consumed locally: no network
                // traffic, no queueing.
            }
            self.derived.rescheduled(self.state.next_arrival[v]);
        }
        if self.state.in_window(now) {
            // A queue grows only at `enqueue`, which marks it: the others
            // are no longer than when last sampled.
            for w in 0..self.derived.source_words() {
                for v in self.derived.take_grown(w) {
                    polled += 1;
                    let s = &mut self.state;
                    s.max_queue_len = s.max_queue_len.max(s.queues[v].len());
                }
            }
        }
        spans.count(Work::SourcesPolled, polled);
    }

    /// Feed the next flit of the current packet into each injection
    /// buffer that can take it (the processor side of the injection
    /// channel). Only the active sources are visited, in node order.
    pub(super) fn feed_injection<S: SpanSink>(&mut self, spans: &mut S) {
        let mut polled = 0;
        for w in 0..self.derived.source_words() {
            // A copy of the word: `feed_source` may drop the node it is on.
            for v in self.derived.sources_in(w) {
                polled += 1;
                self.feed_source(v);
            }
        }
        spans.count(Work::SourcesPolled, polled);
    }

    /// Whether node `v`'s injection buffer can take its next flit: a body
    /// flit needs room; a head needs a packet queued and an empty buffer,
    /// the rule of every network channel, which is the last packet's
    /// until its tail has left.
    pub(super) fn can_feed(&self, v: usize) -> bool {
        let (s, inj) = (&self.state, self.inj_base + v);
        match s.emitting[v] {
            Some(_) => s.buf.len(inj) < self.cfg.buffer_depth as usize,
            None => !s.queues[v].is_empty() && s.buf.is_empty(inj),
        }
    }

    /// Node `v`'s turn in [`feed_injection`](Engine::feed_injection). A
    /// node that cannot feed leaves the set until a packet is queued or a
    /// flit leaves its buffer; a held one, or one whose injection slot is
    /// faulty, stays in.
    fn feed_source(&mut self, v: usize) {
        let inj = self.inj_base + v;
        let s = &self.state;
        if (s.faults_possible && s.fault_depth[inj] > 0) || (s.healing_possible && s.held[v]) {
            return;
        }
        if !self.can_feed(v) {
            self.derived.source_parked(v);
            return;
        }
        let s = &mut self.state;
        if s.emitting[v].is_none() {
            let pid = s.queues[v].pop_front().expect("queued");
            s.packets[pid as usize].injected = Some(s.now);
            s.emitting[v] = Some(Emitting {
                packet: pid,
                sent: 0,
            });
        }
        let Emitting { packet, sent } = s.emitting[v].expect("set above");
        let len = s.packets[packet as usize].len;
        let (is_head, is_tail) = (sent == 0, sent + 1 == len);
        if is_head {
            s.head_since[inj] = s.now;
            s.owner[inj] = packet;
            self.derived.head_arrived(inj);
        }
        let flit = BufFlit {
            packet,
            is_head,
            is_tail,
        };
        s.buf.push_back(inj, flit);
        let sent = sent + 1;
        s.emitting[v] = (!is_tail).then_some(Emitting { packet, sent });
        if !self.can_feed(v) {
            // Until this flit leaves or a packet is queued.
            self.derived.source_parked(v);
        }
        if O::ENABLED {
            let p = self.state.packets[packet as usize];
            if is_head {
                let (packet, src, dst, len) = (p.id, p.src, p.dst, p.len);
                self.fire(Event::Inject {
                    packet,
                    src,
                    dst,
                    len,
                });
            }
            let (slot, packet) = (inj, p.id);
            self.fire(Event::FlitSource {
                slot,
                packet,
                is_tail,
            });
        }
    }
}
