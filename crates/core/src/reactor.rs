//! The event-driven replay reactor: drives thousands of in-flight
//! [`FlowTask`]s on **one** worker [`Session`] by virtualizing per-flow
//! timelines ([`liberate_substrate::LaneState`]) instead of spending an
//! OS thread per flow.
//!
//! ## Execution model
//!
//! Tasks are admitted in job order to a FIFO ready queue. Each tick pops
//! one task, swaps its lane (private clock, step-epoch baseline, capture
//! buffer, and journal handle) into the backend, applies any pending timer
//! advance, and polls the task through one *quiesced segment* (see
//! [`crate::task`]). A [`Wake::Ready`] yield re-queues the task;
//! a [`Wake::Timer`] yield parks it on a [`TimerQueue`] keyed by
//! lane-relative elapsed time, so flows progress in lockstep fairness
//! regardless of how long each one's schedule is. When the ready queue
//! drains, the reactor fires the queue's earliest deadline and re-admits
//! the fired batch in `(deadline, insertion seq)` order.
//!
//! ## Determinism contract
//!
//! A reactor wave is journal-equivalent to running the same tasks
//! sequentially on the worker. Every lane follows one rule: counters and
//! histogram samples land in the worker's registry at once (sums do not
//! depend on order), and only events are staged. An enabled worker
//! journal gives each lane a [`liberate_obs::Journal::staging`] journal
//! whose events sit on a virtual timeline starting at the wave's opening
//! instant; the caller splices them back in admission order via
//! [`liberate_obs::Journal::splice_staged`] (timestamps rebased by the
//! sum of earlier lanes' durations, replay ordinals rebased onto the
//! session's canonical numbering). A disabled worker journal records no
//! events, so its lanes share it outright and their splice is a no-op.
//! The reactor's own scheduling telemetry (ticks, queue depth, timer
//! fires) goes to a separate journal that is never merged, so it cannot
//! perturb the contract.
//!
//! ## Fault containment
//!
//! A panicking task poll is caught: the backend is drained into the
//! (still swapped-in) dead lane, the worker timeline is swapped back,
//! and the task is reported failed (`None` result) — the wave completes
//! and no shard lock is poisoned (`parking_lot` locks do not poison).
//! A dead lane's staged events are dropped unspliced; the counters and
//! samples it moved before the panic stay in the worker registry,
//! journal on or off.
//! Dropping a mid-wave reactor releases every parked task, lane, and
//! timer; nothing owns backend state, so shutdown leaks no flows.

use std::cmp::Reverse;
use std::collections::binary_heap::PeekMut;
use std::collections::{BinaryHeap, VecDeque};
use std::marker::PhantomData;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Duration;

use liberate_obs::{Counter, Hist, Journal};
use liberate_substrate::time::SimTime;
use liberate_substrate::{LaneState, Substrate};

use crate::replay::{Session, SESSION_TAPS};
use crate::task::{FlowTask, TaskPoll, Wake};

/// The client address a reactor lane replays from: a private block
/// (`10.64.0.0`) indexed by the flow's global job number. Unique
/// addresses keep DPI flow keys, IP-fragment reassembly idents, and
/// server-side connection state disjoint across interleaved lanes —
/// including across workers, whose DPI devices front one shared flow
/// table.
pub fn lane_addr(job_index: usize) -> std::net::Ipv4Addr {
    std::net::Ipv4Addr::from(u32::from(std::net::Ipv4Addr::new(10, 64, 0, 1)) + job_index as u32)
}

/// One parked timer; fired timers come back in `(deadline_us, seq)`
/// order. The derived ordering compares fields in declaration order, and
/// `seq` is unique per queue, so `task` and `advance` never decide it.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct TimerFire {
    pub deadline_us: u64,
    pub seq: u64,
    pub task: usize,
    /// The exact advance the task asked for at its yield; the reactor
    /// applies it (`env.advance`) right before the resuming poll.
    pub advance: Duration,
}

/// A min-heap of parked timers over an absolute microsecond axis.
///
/// Contract (pinned by `tests/timer_queue_props.rs`):
/// - [`TimerQueue::advance_to`]`(t)` fires exactly the entries with
///   `deadline_us <= t` — never early;
/// - a batch is returned sorted by `(deadline_us, seq)`: FIFO among
///   equal deadlines.
#[derive(Debug, Default)]
pub struct TimerQueue {
    heap: BinaryHeap<Reverse<TimerFire>>,
    next_seq: u64,
}

impl TimerQueue {
    pub fn new() -> TimerQueue {
        TimerQueue::default()
    }

    /// Parked (unfired) entries.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Park a timer; returns its seq. Seqs are a strictly increasing
    /// sequence — the FIFO tie-breaker for equal deadlines.
    pub fn insert(&mut self, deadline_us: u64, task: usize, advance: Duration) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Reverse(TimerFire {
            deadline_us,
            seq,
            task,
            advance,
        }));
        seq
    }

    /// Earliest parked deadline, if any.
    pub fn next_deadline(&self) -> Option<u64> {
        self.heap.peek().map(|Reverse(f)| f.deadline_us)
    }

    /// Fire every entry with `deadline_us <= target_us`, sorted by
    /// `(deadline_us, seq)`.
    pub fn advance_to(&mut self, target_us: u64) -> Vec<TimerFire> {
        let mut fired = Vec::new();
        while let Some(top) = self.heap.peek_mut() {
            if top.0.deadline_us > target_us {
                break;
            }
            fired.push(PeekMut::pop(top).0);
        }
        fired
    }
}

/// Everything a finished (or abandoned) reactor wave hands back for
/// canonical splicing.
pub struct ReactorOutcome<R> {
    /// Per task, in admission (job) order; `None` marks a panicked task.
    pub results: Vec<Option<R>>,
    /// Each task's lane: final virtual clock and journal handle (a
    /// staging journal, or the worker's own when that one is disabled).
    pub lanes: Vec<LaneState>,
    /// Replays each task started (its lane-local ordinal count), for
    /// chaining `replay_base` across splices.
    pub replays: Vec<u64>,
}

/// Per-task scheduler state.
struct TaskSlot<T> {
    task: T,
    lane: LaneState,
    /// Set when this task's timer fired; applied (swapped-in
    /// `env.advance`) immediately before the next poll.
    pending_advance: Option<Duration>,
}

/// The reactor over one worker session's bucket of tasks. Create with
/// [`Reactor::new`], drive with [`Reactor::run`] (or [`Reactor::step`]
/// for test harnesses), then take the wave via
/// [`Reactor::into_outcome`]. Dropping it mid-wave abandons all parked
/// state cleanly.
pub struct Reactor<S: Substrate, T: FlowTask<S>> {
    t0: SimTime,
    slots: Vec<TaskSlot<T>>,
    results: Vec<Option<T::Output>>,
    ready: VecDeque<usize>,
    timers: TimerQueue,
    live: usize,
    _substrate: PhantomData<fn(S)>,
}

impl<S: Substrate, T: FlowTask<S>> Reactor<S, T> {
    /// Admit `tasks` (in order) against the session's current instant.
    /// With the worker journal enabled, each lane stages its events in a
    /// [`Journal::staging`] journal over the worker's metrics. With it
    /// disabled there are no events to order, so every lane shares the
    /// worker journal itself.
    pub fn new(session: &Session<S>, tasks: Vec<T>, telemetry: &Journal) -> Reactor<S, T> {
        let t0 = session.env.clock();
        let worker_journal = session.journal();
        let enabled = worker_journal.is_enabled();
        let n = tasks.len();
        let slots: Vec<TaskSlot<T>> = tasks
            .into_iter()
            .map(|task| {
                telemetry.metrics.incr(Counter::ReactorTasksAdmitted);
                let journal = if enabled {
                    Arc::new(worker_journal.staging())
                } else {
                    Arc::clone(worker_journal)
                };
                TaskSlot {
                    task,
                    lane: LaneState::new(t0, SESSION_TAPS, journal),
                    pending_advance: None,
                }
            })
            .collect();
        Reactor {
            t0,
            slots,
            results: (0..n).map(|_| None).collect(),
            ready: (0..n).collect(),
            timers: TimerQueue::new(),
            live: n,
            _substrate: PhantomData,
        }
    }

    /// Override the ready-queue admission order (determinism tests
    /// shuffle it; the spliced journal must not change). `order` must be
    /// a permutation of `0..tasks`.
    pub fn set_admission_order(&mut self, order: &[usize]) {
        debug_assert_eq!(order.len(), self.slots.len());
        self.ready = order.iter().copied().collect();
    }

    /// Unfinished tasks still owned by the scheduler.
    pub fn live(&self) -> usize {
        self.live
    }

    /// Tasks currently parked on the timer queue.
    pub fn parked(&self) -> usize {
        self.timers.len()
    }

    /// Drive every task to completion (or containment).
    pub fn run(&mut self, session: &mut Session<S>, telemetry: &Journal) {
        while self.step(session, telemetry) {}
    }

    /// One scheduling step: either fire the next timer batch or poll the
    /// head of the ready queue. Returns false when no work remains.
    pub fn step(&mut self, session: &mut Session<S>, telemetry: &Journal) -> bool {
        if self.live == 0 {
            return false;
        }
        if self.ready.is_empty() {
            let Some(next) = self.timers.next_deadline() else {
                // Live tasks but nothing runnable — a task bug; abandon
                // rather than spin (results stay None).
                return false;
            };
            let fired = self.timers.advance_to(next);
            telemetry
                .metrics
                .add(Counter::ReactorTimerFires, fired.len() as u64);
            for f in fired {
                self.slots[f.task].pending_advance = Some(f.advance);
                self.ready.push_back(f.task);
            }
            return true;
        }
        // The host clock is read only for a journal that keeps samples.
        let tick_start = telemetry.is_enabled().then(std::time::Instant::now);
        telemetry.metrics.incr(Counter::ReactorTicks);
        telemetry.observe(Hist::ReadyQueueDepth, self.ready.len() as u64);
        // lint: allow(no-panic) invariant: non-empty checked above
        let id = self.ready.pop_front().expect("ready queue is non-empty");
        self.poll_task(session, telemetry, id);
        if let Some(start) = tick_start {
            telemetry.observe(Hist::ReactorTickMicros, start.elapsed().as_micros() as u64);
        }
        true
    }

    /// Swap the task's lane in, poll one quiesced segment, swap back
    /// out, and route the yield.
    fn poll_task(&mut self, session: &mut Session<S>, telemetry: &Journal, id: usize) {
        let slot = &mut self.slots[id];
        session.env.swap_lane(&mut slot.lane);
        if let Some(d) = slot.pending_advance.take() {
            session.env.advance(d);
        }
        let polled = catch_unwind(AssertUnwindSafe(|| slot.task.poll(session)));
        if polled.is_err() {
            // Containment: flush whatever the dead task left in flight
            // into its own (still swapped-in) lane before restoring the
            // worker timeline. Its staged events are never spliced; the
            // wave carries on.
            session.env.run_until_idle();
            drop(session.env.take_client_inbox());
        }
        session.env.swap_lane(&mut slot.lane);
        match polled {
            Ok(TaskPoll::Pending(Wake::Ready)) => {
                self.ready.push_back(id);
                return;
            }
            Ok(TaskPoll::Pending(Wake::Timer(d))) => {
                let elapsed = slot.lane.clock - self.t0;
                let deadline_us = (elapsed + d).as_micros() as u64;
                self.timers.insert(deadline_us, id, d);
                return;
            }
            Ok(TaskPoll::Done(out)) => self.results[id] = Some(out),
            Err(_panic) => telemetry.metrics.incr(Counter::ReactorTaskPanics),
        }
        // Nothing reads a finished lane's capture (splicing takes only
        // clock + staged events); release its packet buffers now so a
        // 100k-task wave's footprint tracks the *live* flows, not every
        // flow ever admitted.
        slot.lane.capture.clear();
        self.live -= 1;
    }

    /// Dismantle into the per-task results, lanes, and replay counts the
    /// splicing pass needs.
    pub fn into_outcome(self) -> ReactorOutcome<T::Output> {
        let mut lanes = Vec::with_capacity(self.slots.len());
        let mut replays = Vec::with_capacity(self.slots.len());
        for slot in self.slots {
            replays.push(slot.task.replays_done());
            lanes.push(slot.lane);
        }
        ReactorOutcome {
            results: self.results,
            lanes,
            replays,
        }
    }
}
