//! The replay reactor: drives thousands of [`FlowTask`]s on **one**
//! worker [`Session`] by virtualizing per-flow timelines
//! ([`liberate_substrate::LaneState`]) instead of spending an OS thread
//! per flow.
//!
//! ## Execution model
//!
//! Tasks run to completion one at a time, in admission (job) order. A
//! job becomes its task only when it reaches the head, and the task is
//! dropped when it finishes. Each tick polls the head task through one
//! *quiesced segment* (see [`crate::task`]) with its lane (private
//! clock, step-epoch baseline, capture buffer, and journal handle)
//! swapped into the backend. A [`Wake::Timer`] yield is applied as
//! `env.advance(d)` on the task's own lane right before its next poll,
//! exactly as the inline driver (`task::drive_inline`) applies it on the
//! session clock; a [`Wake::Ready`] yield is simply polled again. Lanes make the wave's
//! flows concurrent in *simulated* time (every lane opens at the wave's
//! first instant), so interleaving them on the host would change no
//! result; running each to completion keeps only one flow's replay state
//! in memory at a time.
//!
//! ## Determinism contract
//!
//! A reactor wave is journal-equivalent to running the same tasks
//! sequentially on the worker. Every lane follows one rule: counters and
//! histogram samples land in the worker's registry at once (sums do not
//! depend on order), and only events are staged. An enabled worker
//! journal gives each lane a [`liberate_obs::Journal::staging`] journal
//! whose events sit on a virtual timeline starting at the wave's opening
//! instant; the caller splices them back in task order via
//! [`liberate_obs::Journal::splice_staged`] (timestamps rebased by the
//! sum of earlier lanes' durations, replay ordinals rebased onto the
//! session's canonical numbering). A disabled worker journal records no
//! events, so its lanes share it outright and their splice is a no-op.
//! The reactor's own scheduling telemetry (ticks, timer fires, panics)
//! goes to a separate journal that is never merged, so it cannot perturb
//! the contract.
//!
//! ## Fault containment
//!
//! A panicking task poll is caught: the backend is drained into the
//! (still swapped-in) dead lane, the worker timeline is swapped back,
//! and the task is reported failed (`None` result) — the wave moves on to
//! the next task and no shard lock is poisoned (`parking_lot` locks do
//! not poison). A dead lane's staged events are dropped unspliced; the
//! counters and samples it moved before the panic stay in the worker
//! registry, journal on or off.
//! Every lane is swapped back out after each poll, so dropping a
//! mid-wave reactor (a pending timer advance included) releases every
//! task and lane and leaves the worker timeline untouched.

use std::marker::PhantomData;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Duration;

use liberate_obs::{Counter, Hist, Journal};
use liberate_substrate::{LaneState, Substrate};

use crate::replay::{Session, SESSION_TAPS};
use crate::task::{FlowTask, TaskPoll, Wake};

/// The client address a reactor lane replays from: a private block
/// (`10.64.0.0`) indexed by the flow's global job number. Unique
/// addresses keep DPI flow keys, IP-fragment reassembly idents, and
/// server-side connection state disjoint across lanes, which overlap in
/// simulated time — including across workers, whose DPI devices front
/// one shared flow table.
pub fn lane_addr(job_index: usize) -> std::net::Ipv4Addr {
    std::net::Ipv4Addr::from(u32::from(std::net::Ipv4Addr::new(10, 64, 0, 1)) + job_index as u32)
}

/// Everything a finished reactor wave hands back for canonical
/// splicing.
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

/// The reactor over one worker session's bucket of jobs. Create with
/// [`Reactor::new`], drive with [`Reactor::run`] (or [`Reactor::step`]
/// for test harnesses), then take the wave via
/// [`Reactor::into_outcome`]. A job becomes its task (`build(index,
/// job)`) only when it reaches the head of the admission order, and the
/// task is dropped when it finishes, so one task is live at a time.
/// Dropping the reactor mid-wave abandons every unfinished job cleanly.
pub struct Reactor<S: Substrate, J, T: FlowTask<S>, B: FnMut(usize, J) -> T> {
    /// Jobs not yet built, by job index.
    jobs: Vec<Option<J>>,
    build: B,
    /// The head job's task, once built.
    head: Option<T>,
    lanes: Vec<LaneState>,
    results: Vec<Option<T::Output>>,
    replays: Vec<u64>,
    /// Unfinished jobs, the head (the one being run) last.
    unfinished: Vec<usize>,
    /// The advance the head task asked for at its last [`Wake::Timer`]
    /// yield; applied on its lane immediately before its next poll.
    pending_advance: Option<Duration>,
    _substrate: PhantomData<fn(S)>,
}

impl<S: Substrate, J, T: FlowTask<S>, B: FnMut(usize, J) -> T> Reactor<S, J, T, B> {
    /// Admit `jobs` (in order) against the session's current instant;
    /// `build` turns job `i` into its task when it reaches the head.
    /// With the worker journal enabled, each lane stages its events in a
    /// [`Journal::staging`] journal over the worker's metrics. With it
    /// disabled there are no events to order, so every lane shares the
    /// worker journal itself.
    pub fn new(
        session: &Session<S>,
        jobs: Vec<J>,
        build: B,
        telemetry: &Journal,
    ) -> Reactor<S, J, T, B> {
        let t0 = session.env.clock();
        let worker_journal = session.journal();
        let enabled = worker_journal.is_enabled();
        let n = jobs.len();
        let lanes = (0..n)
            .map(|_| {
                telemetry.metrics.incr(Counter::ReactorTasksAdmitted);
                let journal = if enabled {
                    Arc::new(worker_journal.staging())
                } else {
                    Arc::clone(worker_journal)
                };
                LaneState::new(t0, SESSION_TAPS, journal)
            })
            .collect();
        Reactor {
            jobs: jobs.into_iter().map(Some).collect(),
            build,
            head: None,
            lanes,
            results: (0..n).map(|_| None).collect(),
            replays: vec![0; n],
            unfinished: (0..n).rev().collect(),
            pending_advance: None,
            _substrate: PhantomData,
        }
    }

    /// Override the order in which jobs run (determinism tests shuffle
    /// it; the spliced journal must not change). Call it before the
    /// first step; `order` must be a permutation of `0..jobs`.
    pub fn set_admission_order(&mut self, order: &[usize]) {
        debug_assert_eq!(order.len(), self.jobs.len());
        self.unfinished = order.iter().rev().copied().collect();
    }

    /// Unfinished jobs still owned by the scheduler.
    pub fn live(&self) -> usize {
        self.unfinished.len()
    }

    /// The timer advance the running task is waiting on, if its last
    /// poll yielded [`Wake::Timer`].
    pub fn pending_advance(&self) -> Option<Duration> {
        self.pending_advance
    }

    /// Drive every task to completion (or containment).
    pub fn run(&mut self, session: &mut Session<S>, telemetry: &Journal) {
        while self.step(session, telemetry) {}
    }

    /// One scheduling step: build the head job's task if it has none
    /// yet, swap its lane in, apply its pending timer advance, poll one
    /// quiesced segment, and swap the lane back out. The task stays at
    /// the head until it is done (or contained). Returns false when no
    /// work remains.
    pub fn step(&mut self, session: &mut Session<S>, telemetry: &Journal) -> bool {
        let Some(&id) = self.unfinished.last() else {
            return false;
        };
        // The host clock is read only for a journal that keeps samples.
        let tick_start = telemetry.is_enabled().then(std::time::Instant::now);
        telemetry.metrics.incr(Counter::ReactorTicks);
        let (jobs, build) = (&mut self.jobs, &mut self.build);
        let task = self.head.get_or_insert_with(|| {
            // lint: allow(no-panic) invariant: a job is taken once, when
            // it first reaches the head
            build(id, jobs[id].take().expect("unbuilt head job"))
        });
        let lane = &mut self.lanes[id];
        session.env.swap_lane(lane);
        if let Some(d) = self.pending_advance.take() {
            telemetry.metrics.incr(Counter::ReactorTimerFires);
            session.env.advance(d);
        }
        let polled = catch_unwind(AssertUnwindSafe(|| task.poll(session)));
        if polled.is_err() {
            // Containment: flush whatever the dead task left in flight
            // into its own (still swapped-in) lane before restoring the
            // worker timeline. Its staged events are never spliced; the
            // wave carries on.
            session.env.run_until_idle();
            drop(session.env.take_client_inbox());
        }
        session.env.swap_lane(lane);
        match polled {
            Ok(TaskPoll::Pending(Wake::Ready)) => {}
            Ok(TaskPoll::Pending(Wake::Timer(d))) => self.pending_advance = Some(d),
            Ok(TaskPoll::Done(out)) => self.finish(id, Some(out)),
            Err(_panic) => {
                telemetry.metrics.incr(Counter::ReactorTaskPanics);
                self.finish(id, None);
            }
        }
        if let Some(start) = tick_start {
            telemetry.observe(Hist::ReactorTickMicros, start.elapsed().as_micros() as u64);
        }
        true
    }

    /// Retire the head task and move on to the next job.
    fn finish(&mut self, id: usize, out: Option<T::Output>) {
        self.results[id] = out;
        if let Some(task) = self.head.take() {
            self.replays[id] = task.replays_done();
        }
        // Nothing reads a finished lane's capture (splicing takes only
        // clock + staged events); free its packet buffers now.
        self.lanes[id].capture.release();
        self.unfinished.pop();
    }

    /// Dismantle into the per-task results, lanes, and replay counts the
    /// splicing pass needs. Call after [`Reactor::run`]: a job that has
    /// not finished reports no result and no replays.
    pub fn into_outcome(self) -> ReactorOutcome<T::Output> {
        ReactorOutcome {
            results: self.results,
            lanes: self.lanes,
            replays: self.replays,
        }
    }
}
