// lint-fixture: path=crates/core/src/deploy/tasks.rs

impl FlowTask<SimSubstrate> for BackoffFlowTask {
    type Output = PoolFlowReport;

    /// The same retry backoff expressed in virtual time: the driver
    /// advances this flow's own clock by the backoff before polling it
    /// again, and the host thread never waits.
    fn poll(&mut self, session: &mut Session) -> TaskPoll<PoolFlowReport> {
        if self.needs_backoff {
            self.needs_backoff = false;
            return TaskPoll::Pending(Wake::Timer(Duration::from_millis(50)));
        }
        TaskPoll::Done(self.report.clone())
    }

    fn replays_done(&self) -> u64 {
        self.replays
    }
}
