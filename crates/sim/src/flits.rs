//! Per-channel flit FIFOs in one flat allocation.

/// One flit sitting in a channel's input buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct BufFlit {
    pub packet: u32,
    pub is_head: bool,
    pub is_tail: bool,
}

/// What a vacated buffer position holds, so that two buffer sets with
/// the same queued flits compare equal whatever passed through them.
const VACANT: BufFlit = BufFlit {
    packet: u32::MAX,
    is_head: false,
    is_tail: false,
};

/// Every channel's input buffer: channel `c` queues `len[c]` flits, front
/// first, at `flits[c * depth..]`. Popping shifts the rest down — depths
/// are a handful of flits (the paper's routers use 1), so the shift is
/// cheaper than ring indices — and construction is two allocations however
/// many channels there are, which keeps building an engine cheap.
#[derive(Debug, PartialEq)]
pub(crate) struct FlitBuffers {
    depth: usize,
    flits: Vec<BufFlit>,
    len: Vec<u32>,
}

impl FlitBuffers {
    /// `channels` empty buffers of capacity `depth`.
    pub fn new(channels: usize, depth: usize) -> FlitBuffers {
        FlitBuffers {
            depth,
            flits: vec![VACANT; channels * depth],
            len: vec![0; channels],
        }
    }

    #[inline]
    pub fn len(&self, c: usize) -> usize {
        self.len[c] as usize
    }

    #[inline]
    pub fn is_empty(&self, c: usize) -> bool {
        self.len[c] == 0
    }

    #[inline]
    pub fn front(&self, c: usize) -> Option<BufFlit> {
        (self.len[c] > 0).then(|| self.flits[c * self.depth])
    }

    /// The flits queued at `c`, front first.
    pub fn queued(&self, c: usize) -> &[BufFlit] {
        &self.flits[c * self.depth..][..self.len(c)]
    }

    /// Append `flit` to `c`'s buffer, which must have room.
    #[inline]
    pub fn push_back(&mut self, c: usize, flit: BufFlit) {
        let n = self.len(c);
        assert!(n < self.depth, "push into a full channel buffer");
        self.flits[c * self.depth + n] = flit;
        self.len[c] += 1;
    }

    #[inline]
    pub fn pop_front(&mut self, c: usize) -> Option<BufFlit> {
        let n = self.len(c);
        if n == 0 {
            return None;
        }
        let queue = &mut self.flits[c * self.depth..][..n];
        let front = queue[0];
        queue.copy_within(1.., 0);
        queue[n - 1] = VACANT;
        self.len[c] -= 1;
        Some(front)
    }

    /// Drop every flit queued at `c`.
    pub fn clear(&mut self, c: usize) {
        let n = self.len(c);
        self.flits[c * self.depth..][..n].fill(VACANT);
        self.len[c] = 0;
    }
}

// Written out for `clone_from`: restoring a snapshot reuses the
// allocations, which the derive's `*self = source.clone()` would not.
impl Clone for FlitBuffers {
    fn clone(&self) -> FlitBuffers {
        FlitBuffers {
            depth: self.depth,
            flits: self.flits.clone(),
            len: self.len.clone(),
        }
    }

    fn clone_from(&mut self, source: &FlitBuffers) {
        self.depth = source.depth;
        self.flits.clone_from(&source.flits);
        self.len.clone_from(&source.len);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flit(packet: u32) -> BufFlit {
        BufFlit {
            packet,
            is_head: packet == 0,
            is_tail: false,
        }
    }

    #[test]
    fn fifo_order_per_channel_and_logical_equality() {
        let mut a = FlitBuffers::new(3, 2);
        assert!(a.is_empty(1) && a.front(1).is_none());
        a.push_back(1, flit(0));
        a.push_back(1, flit(1));
        a.push_back(2, flit(7));
        assert_eq!(a.len(1), 2);
        assert_eq!(a.queued(1), &[flit(0), flit(1)]);
        assert_eq!(a.pop_front(1), Some(flit(0)));
        assert_eq!(a.front(1), Some(flit(1)));
        assert!(a.is_empty(0) && !a.is_empty(2));
        // Same queued flits, different history: equal.
        let mut b = FlitBuffers::new(3, 2);
        b.push_back(1, flit(1));
        b.push_back(2, flit(9));
        b.clear(2);
        b.push_back(2, flit(7));
        assert_eq!(a, b);
        assert_eq!(a.pop_front(0), None);
    }

    #[test]
    #[should_panic(expected = "full channel buffer")]
    fn overfull_push_is_a_bug() {
        let mut a = FlitBuffers::new(1, 1);
        a.push_back(0, flit(0));
        a.push_back(0, flit(1));
    }
}
