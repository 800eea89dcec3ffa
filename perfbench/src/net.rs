//! The substrate the benchmark's pools run on, and the layer clock.
//!
//! lib·erate's core is generic over [`Substrate`]; everything below that
//! seam (the simulated path: hops, the DPI middlebox, the scripted
//! server) is one layer, and everything above it (schedule lowering, the
//! replay state machine, the reactor, characterization and evaluation
//! logic) is the other. [`Timed`] wraps the simulator substrate and times
//! every call that does work, so a traced run splits host time across the
//! seam from outside the program. Untraced runs use the bare simulator.

use std::net::Ipv4Addr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use liberate::prelude::{OsKind, SimSubstrate};
use liberate_dpi::device::DpiDevice;
use liberate_dpi::profiles::EnvironmentBlueprint;
use liberate_obs::Journal;
use liberate_packet::flow::FlowKey;
use liberate_substrate::buf::PacketBuf;
use liberate_substrate::capture::{Capture, TapPoint};
use liberate_substrate::script::{ServerObs, ServerScript};
use liberate_substrate::time::SimTime;
use liberate_substrate::{ClassVerdict, LaneState, Substrate};
use parking_lot::Mutex;

/// A substrate the benchmark can build pools over.
pub trait Net: Substrate + Sized + 'static {
    /// One worker's substrate over the pool's shared blueprint.
    fn build(blueprint: &EnvironmentBlueprint) -> Self;
    /// The middlebox, for scripted rule swaps.
    fn dpi(&mut self) -> Option<&mut DpiDevice>;
    /// Host time spent below the seam so far, per bucket.
    fn layer_time(&self) -> LayerTime;
}

impl Net for SimSubstrate {
    fn build(blueprint: &EnvironmentBlueprint) -> Self {
        SimSubstrate::from_blueprint(blueprint, OsKind::Linux)
    }

    fn dpi(&mut self) -> Option<&mut DpiDevice> {
        self.dpi_mut()
    }

    fn layer_time(&self) -> LayerTime {
        LayerTime::default()
    }
}

/// Host time spent inside substrate calls, split by what the call does.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTime {
    /// `advance` / `run_until_idle`: stepping packets through the
    /// simulated path (hops, DPI inspection, server TCP).
    pub run: Duration,
    /// `swap_lane`: the reactor's per-poll timeline exchange.
    pub lane: Duration,
    /// Everything else that does work: injection, inbox drains, server
    /// script installs, verdict and counter reads, flow reclaim.
    pub io: Duration,
    /// Calls timed, all buckets.
    pub calls: u64,
}

impl LayerTime {
    pub fn total(&self) -> Duration {
        self.run + self.lane + self.io
    }

    pub fn since(&self, earlier: &LayerTime) -> LayerTime {
        LayerTime {
            run: self.run - earlier.run,
            lane: self.lane - earlier.lane,
            io: self.io - earlier.io,
            calls: self.calls - earlier.calls,
        }
    }

    pub fn add(&mut self, other: &LayerTime) {
        self.run += other.run;
        self.lane += other.lane;
        self.io += other.io;
        self.calls += other.calls;
    }
}

/// The simulator substrate with a stopwatch on every working call.
pub struct Timed {
    inner: SimSubstrate,
    time: LayerTime,
}

#[derive(Clone, Copy)]
enum Bucket {
    Run,
    Lane,
    Io,
}

impl Timed {
    fn timed<R>(&mut self, bucket: Bucket, f: impl FnOnce(&mut SimSubstrate) -> R) -> R {
        let t0 = Instant::now();
        let out = f(&mut self.inner);
        let dt = t0.elapsed();
        match bucket {
            Bucket::Run => self.time.run += dt,
            Bucket::Lane => self.time.lane += dt,
            Bucket::Io => self.time.io += dt,
        }
        self.time.calls += 1;
        out
    }
}

impl Net for Timed {
    fn build(blueprint: &EnvironmentBlueprint) -> Self {
        Timed {
            inner: SimSubstrate::build(blueprint),
            time: LayerTime::default(),
        }
    }

    fn dpi(&mut self) -> Option<&mut DpiDevice> {
        self.inner.dpi_mut()
    }

    fn layer_time(&self) -> LayerTime {
        self.time
    }
}

impl Substrate for Timed {
    fn backend_name(&self) -> &'static str {
        self.inner.backend_name()
    }
    fn env_name(&self) -> String {
        self.inner.env_name()
    }
    fn hops_before_middlebox(&self) -> u8 {
        Substrate::hops_before_middlebox(&self.inner)
    }
    fn clock(&self) -> SimTime {
        self.inner.clock()
    }
    fn advance(&mut self, d: Duration) {
        self.timed(Bucket::Run, |s| s.advance(d))
    }
    fn run_until_idle(&mut self) {
        self.timed(Bucket::Run, |s| s.run_until_idle())
    }
    fn inject_client(&mut self, delay: Duration, wire: Vec<u8>) {
        self.timed(Bucket::Io, |s| s.inject_client(delay, wire))
    }
    fn take_client_inbox(&mut self) -> Vec<(SimTime, PacketBuf)> {
        self.timed(Bucket::Io, |s| s.take_client_inbox())
    }
    fn install_server_script(&mut self, script: ServerScript) -> Arc<Mutex<ServerObs>> {
        self.timed(Bucket::Io, |s| s.install_server_script(script))
    }
    fn capture(&self) -> &Capture {
        self.inner.capture()
    }
    fn clear_capture(&mut self) {
        self.timed(Bucket::Io, |s| s.clear_capture())
    }
    fn set_capture_points(&mut self, points: &[TapPoint]) {
        self.inner.set_capture_points(points)
    }
    fn journal(&self) -> &Arc<Journal> {
        self.inner.journal()
    }
    fn set_journal(&mut self, journal: Arc<Journal>) {
        self.inner.set_journal(journal)
    }
    fn reclaim_flows(&mut self) {
        self.timed(Bucket::Io, |s| s.reclaim_flows())
    }
    fn billed_bytes(&mut self) -> Option<u64> {
        self.timed(Bucket::Io, |s| s.billed_bytes())
    }
    fn verdict_for(&mut self, flow: FlowKey) -> Option<ClassVerdict> {
        self.timed(Bucket::Io, |s| s.verdict_for(flow))
    }
    fn supports_lanes(&self) -> bool {
        self.inner.supports_lanes()
    }
    fn swap_lane(&mut self, lane: &mut LaneState) {
        self.timed(Bucket::Lane, |s| s.swap_lane(lane))
    }
    fn mark_step_epoch(&mut self) {
        self.inner.mark_step_epoch()
    }
    fn install_server_script_for(
        &mut self,
        client: Ipv4Addr,
        script: ServerScript,
    ) -> Arc<Mutex<ServerObs>> {
        self.timed(Bucket::Io, |s| s.install_server_script_for(client, script))
    }
    fn remove_server_script_for(&mut self, client: Ipv4Addr) {
        self.timed(Bucket::Io, |s| s.remove_server_script_for(client))
    }
}
