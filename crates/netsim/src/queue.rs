//! The simulator's event queue: earliest `(at, seq)` first, where `seq` is
//! the push order, so simultaneous events dispatch first-in first-out.
//!
//! Nearly every push is a packet scheduled one hop latency after the event
//! being dispatched, which is never earlier than anything already queued.
//! Such in-order pushes append to a FIFO at O(1); only the rest — packets
//! a shaper holds back, or a delayed injection — go to a binary heap. A
//! pop takes the smaller of the two heads. Both tiers are ordered by the
//! same key, so the dispatch order is exactly that of a single heap.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

use liberate_substrate::time::SimTime;

struct Queued<T> {
    at: SimTime,
    seq: u64,
    item: T,
}

impl<T> Queued<T> {
    fn key(&self) -> (SimTime, u64) {
        (self.at, self.seq)
    }
}

impl<T> PartialEq for Queued<T> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl<T> Eq for Queued<T> {}
impl<T> PartialOrd for Queued<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Queued<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse: BinaryHeap is a max-heap, we want earliest-first.
        other.key().cmp(&self.key())
    }
}

/// A two-tier min-queue of items keyed by `(at, push order)`.
pub struct EventQueue<T> {
    /// In-order pushes: sorted by key, since each entry's `at` is at least
    /// its predecessor's and `seq` only grows.
    fifo: VecDeque<Queued<T>>,
    /// Pushes earlier than the FIFO's back.
    heap: BinaryHeap<Queued<T>>,
    next_seq: u64,
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        EventQueue {
            fifo: VecDeque::new(),
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }
}

impl<T> EventQueue<T> {
    pub fn new() -> Self {
        Self::default()
    }

    /// Queue `item` at `at`, after every item already queued at `at`.
    pub fn push(&mut self, at: SimTime, item: T) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let queued = Queued { at, seq, item };
        match self.fifo.back() {
            Some(back) if at < back.at => self.heap.push(queued),
            _ => self.fifo.push_back(queued),
        }
    }

    /// Remove and return the earliest item if it is due at or before
    /// `until`.
    pub fn pop_until(&mut self, until: SimTime) -> Option<(SimTime, T)> {
        let from_heap = match (self.fifo.front(), self.heap.peek()) {
            (Some(f), Some(h)) => h.key() < f.key(),
            (None, Some(_)) => true,
            (_, None) => false,
        };
        let next = if from_heap {
            self.heap.peek()
        } else {
            self.fifo.front()
        };
        if next?.at > until {
            return None;
        }
        let Queued { at, item, .. } = if from_heap {
            self.heap.pop()
        } else {
            self.fifo.pop_front()
        }?;
        Some((at, item))
    }

    pub fn is_empty(&self) -> bool {
        self.fifo.is_empty() && self.heap.is_empty()
    }

    /// Items held by the FIFO and by the heap tier.
    pub fn tier_lens(&self) -> (usize, usize) {
        (self.fifo.len(), self.heap.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    #[test]
    fn in_order_pushes_stay_in_the_fifo() {
        let mut q = EventQueue::new();
        for (i, at) in [1, 1, 2, 5, 5].into_iter().enumerate() {
            q.push(t(at), i);
        }
        assert_eq!(q.tier_lens(), (5, 0));
        let order: Vec<_> = std::iter::from_fn(|| q.pop_until(t(u64::MAX))).collect();
        assert_eq!(
            order,
            [(t(1), 0), (t(1), 1), (t(2), 2), (t(5), 3), (t(5), 4)]
        );
    }

    #[test]
    fn an_earlier_push_goes_to_the_heap_and_pops_first() {
        let mut q = EventQueue::new();
        q.push(t(10), 'a');
        q.push(t(4), 'b');
        q.push(t(10), 'c');
        q.push(t(4), 'd');
        assert_eq!(q.tier_lens(), (2, 2));
        assert_eq!(q.pop_until(t(3)), None);
        assert_eq!(q.pop_until(t(4)), Some((t(4), 'b')));
        assert_eq!(q.pop_until(t(4)), Some((t(4), 'd')));
        assert_eq!(q.pop_until(t(9)), None);
        assert_eq!(q.pop_until(t(10)), Some((t(10), 'a')));
        assert_eq!(q.pop_until(t(10)), Some((t(10), 'c')));
        assert!(q.is_empty());
        assert_eq!(q.pop_until(t(u64::MAX)), None);
    }
}
