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

/// Bits per word of the engine's derived index sets.
pub(crate) const WORD_BITS: usize = u32::BITS as usize;

/// The members of one word of a bit set, ascending. It owns a copy of
/// the word, so the set may change under the loop that walks it.
pub(crate) struct Ones {
    base: usize,
    bits: u32,
}

impl Ones {
    /// The members of `word`, the `w`-th word of its set.
    #[inline]
    pub fn of(w: usize, word: u32) -> Ones {
        Ones {
            base: w * WORD_BITS,
            bits: word,
        }
    }

    /// The same members less those in `mask`, a word of another set.
    #[inline]
    pub fn without(self, mask: u32) -> Ones {
        Ones {
            bits: self.bits & !mask,
            ..self
        }
    }
}

impl Iterator for Ones {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        if self.bits == 0 {
            return None;
        }
        let bit = self.bits.trailing_zeros() as usize;
        self.bits &= self.bits - 1;
        Some(self.base + bit)
    }
}

/// Every channel's input buffer: channel `c` queues `len[c]` flits, front
/// first, at `flits[c * depth..]`. Popping shifts the rest down — depths
/// are a handful of flits (the paper's routers use 1), so the shift is
/// cheaper than ring indices — and construction is two allocations however
/// many channels there are, which keeps building an engine cheap.
///
/// The buffers index themselves: the **occupied-slot set** has bit `c`
/// set exactly while `len[c] > 0`, flipped by [`push_back`],
/// [`pop_front`] and [`clear`] and by nothing else, so the engine's
/// per-cycle scans walk the channels holding flits instead of all of
/// them.
///
/// [`push_back`]: FlitBuffers::push_back
/// [`pop_front`]: FlitBuffers::pop_front
/// [`clear`]: FlitBuffers::clear
#[derive(Debug, PartialEq)]
pub(crate) struct FlitBuffers {
    depth: usize,
    channels: usize,
    flits: Vec<BufFlit>,
    /// The `channels` queue lengths, then the words of the occupied-slot
    /// set: bit `c % WORD_BITS` of `len[channels + c / WORD_BITS]`. One
    /// allocation, so that a snapshot's clone copies the set with the
    /// lengths instead of allocating for it.
    len: Vec<u32>,
    /// Members of the occupied-slot set.
    occupied: usize,
}

impl FlitBuffers {
    /// `channels` empty buffers of capacity `depth`.
    pub fn new(channels: usize, depth: usize) -> FlitBuffers {
        FlitBuffers {
            depth,
            channels,
            flits: vec![VACANT; channels * depth],
            len: vec![0; channels + channels.div_ceil(WORD_BITS)],
            occupied: 0,
        }
    }

    #[inline]
    pub fn len(&self, c: usize) -> usize {
        debug_assert!(c < self.channels, "no channel {c}");
        self.len[c] as usize
    }

    #[inline]
    pub fn is_empty(&self, c: usize) -> bool {
        self.len(c) == 0
    }

    #[inline]
    pub fn front(&self, c: usize) -> Option<BufFlit> {
        (self.len(c) > 0).then(|| self.flits[c * self.depth])
    }

    /// The flits queued at `c`, front first.
    pub fn queued(&self, c: usize) -> &[BufFlit] {
        &self.flits[c * self.depth..][..self.len(c)]
    }

    /// How many channels hold at least one flit.
    #[inline]
    pub fn occupied(&self) -> usize {
        self.occupied
    }

    /// Words in the occupied-slot set.
    #[inline]
    pub fn occupied_words(&self) -> usize {
        self.len.len() - self.channels
    }

    /// The occupied channels among `w * WORD_BITS..(w + 1) * WORD_BITS`,
    /// ascending, as they stand now: walk words `0..occupied_words()` for
    /// every occupied channel in slot order.
    #[inline]
    pub fn occupied_in(&self, w: usize) -> Ones {
        Ones::of(w, self.len[self.channels + w])
    }

    #[inline]
    fn flip_occupied(&mut self, c: usize) {
        self.len[self.channels + c / WORD_BITS] ^= 1 << (c % WORD_BITS);
    }

    /// Append `flit` to `c`'s buffer, which must have room.
    #[inline]
    pub fn push_back(&mut self, c: usize, flit: BufFlit) {
        let n = self.len(c);
        assert!(n < self.depth, "push into a full channel buffer");
        self.flits[c * self.depth + n] = flit;
        self.len[c] += 1;
        if n == 0 {
            self.flip_occupied(c);
            self.occupied += 1;
        }
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
        if n == 1 {
            self.flip_occupied(c);
            self.occupied -= 1;
        }
        Some(front)
    }

    /// Drop every flit queued at `c`.
    pub fn clear(&mut self, c: usize) {
        let n = self.len(c);
        if n == 0 {
            return;
        }
        self.flits[c * self.depth..][..n].fill(VACANT);
        self.len[c] = 0;
        self.flip_occupied(c);
        self.occupied -= 1;
    }

    /// Panic unless the occupied-slot set and its count are exactly the
    /// channels with a flit queued: the full scan the set replaced, kept
    /// as the debug builds' cross-check.
    #[cfg(any(test, debug_assertions))]
    pub fn assert_occupied_set_is_exact(&self) {
        let scanned = || (0..self.channels).filter(|&c| !self.is_empty(c));
        let indexed = (0..self.occupied_words()).flat_map(|w| self.occupied_in(w));
        assert!(indexed.eq(scanned()), "occupied-slot set out of step");
        assert_eq!(self.occupied, scanned().count(), "occupied-slot count");
    }
}

// Written out for `clone_from`: restoring a snapshot reuses the
// allocations, which the derive's `*self = source.clone()` would not.
impl Clone for FlitBuffers {
    fn clone(&self) -> FlitBuffers {
        FlitBuffers {
            depth: self.depth,
            channels: self.channels,
            flits: self.flits.clone(),
            len: self.len.clone(),
            occupied: self.occupied,
        }
    }

    fn clone_from(&mut self, source: &FlitBuffers) {
        self.depth = source.depth;
        self.channels = source.channels;
        self.flits.clone_from(&source.flits);
        self.len.clone_from(&source.len);
        self.occupied = source.occupied;
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
    fn occupied_set_follows_every_push_pop_and_clear() {
        // 70 channels: three words, the last one partly used.
        let mut a = FlitBuffers::new(70, 2);
        let occupied = |a: &FlitBuffers| -> Vec<usize> {
            a.assert_occupied_set_is_exact();
            (0..a.occupied_words())
                .flat_map(|w| a.occupied_in(w))
                .collect()
        };
        assert_eq!(a.occupied_words(), 3);
        assert!(occupied(&a).is_empty());
        for c in [69, 0, 31, 32, 64] {
            a.push_back(c, flit(0));
        }
        a.push_back(31, flit(1));
        assert_eq!(occupied(&a), [0, 31, 32, 64, 69], "ascending");
        // A second flit, and popping one of two, leave the bit alone.
        assert_eq!(a.pop_front(31), Some(flit(0)));
        assert_eq!(a.occupied(), 5);
        a.pop_front(31);
        a.clear(64);
        a.clear(64);
        assert_eq!(a.pop_front(5), None);
        assert_eq!(occupied(&a), [0, 32, 69]);
        // The set travels with a clone and with `clone_from`.
        let mut b = FlitBuffers::new(70, 2);
        b.push_back(7, flit(3));
        b.clone_from(&a);
        assert_eq!(occupied(&b), [0, 32, 69]);
        assert_eq!(occupied(&a.clone()), [0, 32, 69]);
        // A word is copied out when its walk starts, so the walk may
        // empty the channels it visits.
        for w in 0..a.occupied_words() {
            for c in a.occupied_in(w) {
                a.pop_front(c);
            }
        }
        assert_eq!(a.occupied(), 0);
        assert!(occupied(&a).is_empty());
    }

    #[test]
    #[should_panic(expected = "full channel buffer")]
    fn overfull_push_is_a_bug() {
        let mut a = FlitBuffers::new(1, 1);
        a.push_back(0, flit(0));
        a.push_back(0, flit(1));
    }
}
