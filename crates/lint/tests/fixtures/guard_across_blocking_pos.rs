// lint-fixture: path=crates/core/src/deploy/wave.rs

impl WaveDriver {
    /// Holds the session-table guard across run_wave: every flow that
    /// tries to register while the wave replays serializes behind this
    /// lock for the wave's full duration.
    pub fn run_all(&self) -> Result<(), LiberateError> {
        let guard = self.sessions.lock();
        self.run_wave(&guard.plan)?;
        Ok(())
    }

    /// Holds the published-state guard across a whole deployment wave:
    /// every flow's snapshot waits on this lock until the wave is done.
    pub fn deploy_all(&mut self, trace: &RecordedTrace) -> Result<(), LiberateError> {
        let state = self.published.lock();
        self.pool.run_flows(trace, state.users)?;
        Ok(())
    }
}
