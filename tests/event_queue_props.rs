//! Property battery for the simulator's two-tier event queue
//! (`liberate_netsim::queue::EventQueue`): a FIFO for in-order pushes in
//! front of a binary heap for the rest.
//!
//! The contract pinned here: whatever mix of pushes and pops, the queue
//! pops exactly what a single `BinaryHeap` keyed by `(at, push order)`
//! pops — earliest first, push order among equal times — and
//! `pop_until(t)` never releases an item due after `t`. The network's
//! dispatch order, and so every journal, rests on this.
//!
//! Each case interleaves in-order pushes (the common case on a path:
//! one hop latency after the event being dispatched), pushes earlier than
//! the FIFO's back (a shaper holding a packet back), equal-time pushes
//! and pops with random horizons, against that heap as the oracle.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use proptest::prelude::*;

use liberate_netsim::queue::EventQueue;
use liberate_substrate::time::SimTime;

/// One scripted queue operation.
#[derive(Debug, Clone)]
enum Op {
    /// Push `delta` µs after the latest time pushed so far: never earlier
    /// than anything queued, often equal to it.
    InOrder(u64),
    /// Push at an absolute time in a narrow window: often earlier than
    /// the FIFO's back, often tied with queued items.
    Anywhere(u64),
    /// Pop once with a horizon `delta` µs past the latest popped time.
    Pop(u64),
    /// Pop everything due up to `delta` µs past the latest popped time.
    Drain(u64),
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u64..3).prop_map(Op::InOrder),
        (0u64..3).prop_map(Op::InOrder),
        (0u64..40).prop_map(Op::Anywhere),
        (0u64..6).prop_map(Op::Pop),
        (0u64..6).prop_map(Op::Drain),
    ]
}

/// The queue under test and its oracle, fed the same operations.
#[derive(Default)]
struct Pair {
    queue: EventQueue<u64>,
    oracle: BinaryHeap<Reverse<(u64, u64)>>,
    next_seq: u64,
    latest_push: u64,
    last_pop: u64,
}

impl Pair {
    fn push(&mut self, at: u64) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.queue.push(SimTime::from_micros(at), seq);
        self.oracle.push(Reverse((at, seq)));
        self.latest_push = self.latest_push.max(at);
    }

    /// Pop once from both; returns whether an item came out.
    fn pop_until(&mut self, until: u64) -> bool {
        let got = self
            .queue
            .pop_until(SimTime::from_micros(until))
            .map(|(at, seq)| (at.as_micros(), seq));
        let want = match self.oracle.peek() {
            Some(Reverse((at, _))) if *at <= until => self.oracle.pop().map(|Reverse(e)| e),
            _ => None,
        };
        assert_eq!(got, want, "pop_until({until}) diverged from the oracle");
        if let Some((at, _)) = got {
            assert!(at <= until, "released early: {at} > {until}");
            self.last_pop = at;
        }
        got.is_some()
    }
}

proptest! {
    /// Any interleaving of in-order, out-of-order and equal-time pushes
    /// with bounded pops gives the oracle's pops, and a final drain
    /// empties both.
    #[test]
    fn pops_match_a_single_heap(ops in proptest::collection::vec(op(), 1..96)) {
        let mut pair = Pair::default();
        for op in ops {
            match op {
                Op::InOrder(delta) => pair.push(pair.latest_push + delta),
                Op::Anywhere(at) => pair.push(at),
                Op::Pop(delta) => {
                    pair.pop_until(pair.last_pop + delta);
                }
                Op::Drain(delta) => {
                    let until = pair.last_pop + delta;
                    while pair.pop_until(until) {}
                }
            }
            prop_assert_eq!(pair.queue.is_empty(), pair.oracle.is_empty());
        }
        while pair.pop_until(u64::MAX) {}
        prop_assert!(pair.queue.is_empty(), "items stranded after the final drain");
    }

    /// Pushes tied at one time pop in push order even when the tie is
    /// split across both tiers.
    #[test]
    fn ties_across_tiers_pop_in_push_order(late in 1u64..100, n in 2usize..16) {
        let mut pair = Pair::default();
        pair.push(late - 1);
        for i in 0..n {
            // Alternate: a push at `late` stays in the FIFO; one at
            // `late - 1`, earlier than the FIFO's back, goes to the heap
            // and ties with the FIFO's front.
            pair.push(if i % 2 == 0 { late } else { late - 1 });
        }
        let (fifo, heap) = pair.queue.tier_lens();
        prop_assert!(fifo > 0 && heap > 0, "both tiers hold items: {} / {}", fifo, heap);
        while pair.pop_until(u64::MAX) {}
    }
}
