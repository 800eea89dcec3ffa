//! Resumable per-flow work units for the event-driven replay reactor.
//!
//! A [`FlowTask`] is a poll-style state machine over a worker
//! [`Session`], and every wave job is one: a blinding probe or a ladder
//! rung (`detect::ProbeTask`), a position ladder, a deployed
//! flow. Each `poll` runs one *quiesced segment* — it may inject
//! packets, drain the substrate to idle, and read observations, but it
//! must leave the backend with an empty event heap and an empty client
//! inbox before yielding. That discipline is what lets the reactor
//! interleave thousands of tasks on one worker by swapping per-flow
//! [`liberate_substrate::LaneState`]s around each poll: a quiescent
//! backend carries no cross-task state outside the lane.
//!
//! Yields are declarative: [`Wake::Timer`] asks the driver to advance the
//! task's (virtual) clock before the next poll — the inline driver
//! (`drive_inline`) calls `env.advance(d)` on the session clock, the
//! reactor parks the task on its timer queue — and [`Wake::Ready`] asks
//! to be re-polled as soon as the scheduler gets back around, which is
//! how long replays stay fair.

use std::time::Duration;

use liberate_substrate::Substrate;

use crate::replay::Session;

/// Why a task yielded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Wake {
    /// Advance this task's clock by the given delta, then poll again.
    /// The backend is idle at the yield, so the advance is pure clock
    /// movement wherever it executes.
    Timer(Duration),
    /// Poll again at the scheduler's next opportunity.
    Ready,
}

/// The result of one [`FlowTask::poll`].
#[derive(Debug)]
pub enum TaskPoll<R> {
    /// The task yielded; resume per the [`Wake`].
    Pending(Wake),
    /// The task finished with its output.
    Done(R),
}

/// A resumable flow driven by the reactor (or inline by a sequential
/// driver, `drive_inline`). `Send` so whole waves of tasks can move to
/// pool worker threads.
pub trait FlowTask<S: Substrate>: Send {
    type Output: Send;

    /// Run one quiesced segment. Must not block the OS thread (no
    /// `std::thread::sleep`, no lock waits on shared state): simulated
    /// waiting is expressed as [`Wake::Timer`] yields.
    fn poll(&mut self, session: &mut Session<S>) -> TaskPoll<Self::Output>;

    /// Replays this task has started so far (lane-local numbering). The
    /// reactor chains these into the canonical replay numbering when it
    /// splices lane journals back into the worker journal.
    fn replays_done(&self) -> u64;
}

/// The inline driver: poll one machine to completion on `session`,
/// performing each [`Wake::Timer`] advance on the session clock itself.
/// Every sequential replay and probe and every job of an inline wave
/// runs this loop; it is the reactor's loop minus the lane swaps.
pub(crate) fn drive_inline<S: Substrate, R>(
    session: &mut Session<S>,
    mut poll: impl FnMut(&mut Session<S>) -> TaskPoll<R>,
) -> R {
    loop {
        match poll(session) {
            TaskPoll::Done(out) => return out,
            TaskPoll::Pending(Wake::Ready) => {}
            TaskPoll::Pending(Wake::Timer(d)) => session.env.advance(d),
        }
    }
}
