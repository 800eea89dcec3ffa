//! Property battery for the reactor's timer queue
//! (`liberate::reactor::TimerQueue`) — the structure the event-driven
//! replay engine's determinism leans on.
//!
//! The contract pinned here (and referenced from the queue's docs):
//!
//! - `advance_to(t)` fires exactly the parked entries with
//!   `deadline_us <= t` — **never early**;
//! - every batch comes back sorted by `(deadline_us, seq)`: deadline
//!   order first, insertion (FIFO) order among ties;
//! - no entry is ever stranded: after advancing past every deadline the
//!   queue is empty.
//!
//! Each property runs a randomized insert/advance interleaving against a
//! naive reference model (a flat vector, filtered and sorted), with
//! deadline and advance magnitudes from sub-millisecond to years.

use std::time::Duration;

use proptest::prelude::*;

use liberate::reactor::TimerQueue;

/// One scripted queue operation.
#[derive(Debug, Clone)]
enum Op {
    /// Park a timer `offset_us` past the highest advance target so far.
    Insert(u64),
    /// Advance the queue `delta_us` past the previous target.
    Advance(u64),
}

/// Offsets from zero up to ~4.5 simulated years (2^47 µs).
fn offset() -> impl Strategy<Value = u64> {
    prop_oneof![
        0u64..4096,
        4096u64..(1u64 << 18),
        (1u64 << 18)..(1u64 << 26),
        (1u64 << 26)..(1u64 << 34),
        (1u64 << 42)..(1u64 << 47),
    ]
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        offset().prop_map(Op::Insert),
        offset().prop_map(Op::Advance),
    ]
}

/// The reference model: parked `(deadline_us, seq)` entries and the
/// latest advance target.
#[derive(Default)]
struct Model {
    live: Vec<(u64, u64)>,
    target: u64,
}

impl Model {
    fn fire_until(&mut self, t: u64) -> Vec<(u64, u64)> {
        let (mut fired, keep): (Vec<_>, Vec<_>) = self
            .live
            .drain(..)
            .partition(|&(deadline, _)| deadline <= t);
        self.live = keep;
        fired.sort_unstable();
        fired
    }
}

proptest! {
    /// Any interleaving of inserts and advances fires exactly the
    /// model's entries, in `(deadline, seq)` order, never early — and a
    /// final advance past every deadline drains the queue dry.
    #[test]
    fn queue_matches_reference_model(ops in proptest::collection::vec(op(), 1..48)) {
        let mut queue = TimerQueue::new();
        let mut model = Model::default();
        for op in ops {
            match op {
                Op::Insert(offset) => {
                    let deadline = model.target + offset;
                    let seq = queue.insert(deadline, model.live.len(), Duration::ZERO);
                    model.live.push((deadline, seq));
                }
                Op::Advance(delta) => {
                    model.target += delta;
                    let fired: Vec<(u64, u64)> = queue
                        .advance_to(model.target)
                        .iter()
                        .map(|f| (f.deadline_us, f.seq))
                        .collect();
                    for &(deadline, _) in &fired {
                        prop_assert!(
                            deadline <= model.target,
                            "fired early: deadline {} > target {}", deadline, model.target
                        );
                    }
                    prop_assert_eq!(fired, model.fire_until(model.target));
                }
            }
            prop_assert_eq!(queue.len(), model.live.len(), "parked-count drift");
        }
        // Nothing strands: one jump past every deadline drains the queue.
        let fired = queue.advance_to(u64::MAX / 2);
        let rest = model.fire_until(u64::MAX / 2);
        let got: Vec<(u64, u64)> = fired.iter().map(|f| (f.deadline_us, f.seq)).collect();
        prop_assert_eq!(got, rest);
        prop_assert!(queue.is_empty(), "entries stranded after the final drain");
    }

    /// FIFO tie-breaking is stable: N entries parked on one shared
    /// deadline fire in exactly their insertion order, however the
    /// advance reaches it.
    #[test]
    fn equal_deadlines_fire_in_insertion_order(
        deadline in offset(),
        n in 2usize..24,
        stop_short in any::<bool>(),
    ) {
        let mut queue = TimerQueue::new();
        let seqs: Vec<u64> = (0..n)
            .map(|task| queue.insert(deadline, task, Duration::ZERO))
            .collect();
        if stop_short && deadline > 0 {
            // Walk up to just before the deadline first: that must not
            // reorder or release anything.
            prop_assert!(queue.advance_to(deadline - 1).is_empty());
        }
        let fired = queue.advance_to(deadline);
        prop_assert_eq!(fired.len(), n);
        for (f, &seq) in fired.iter().zip(&seqs) {
            prop_assert_eq!(f.seq, seq, "FIFO order broken at a shared deadline");
        }
        prop_assert!(queue.is_empty());
    }
}

/// Fixed deadlines straddling power-of-two boundaries
/// (`64^k · 1024 µs + {0, 1, 17, 1023, 1024}`) must not fire when the
/// advance stops one microsecond short, and must fire exactly on time.
#[test]
fn edge_deadlines_never_fire_early_or_strand() {
    for k in 1..6u32 {
        let edge = 64u64.pow(k) * 1024;
        for delta in [0u64, 1, 17, 1023, 1024] {
            let deadline = edge + delta;
            let mut queue = TimerQueue::new();
            queue.insert(deadline, 0, Duration::ZERO);
            assert!(
                queue.advance_to(deadline - 1).is_empty(),
                "64^{k} edge +{delta}: fired a microsecond early"
            );
            let fired = queue.advance_to(deadline);
            assert_eq!(fired.len(), 1, "64^{k} edge +{delta}: stranded");
            assert_eq!(fired[0].deadline_us, deadline);
            assert!(queue.is_empty());
        }
    }
}
