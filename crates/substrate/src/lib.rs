//! # liberate-substrate
//!
//! The seam between lib·erate's probe/evade logic and the world it runs
//! against. `crates/core` is generic over the [`Substrate`] trait — the
//! injection/observation/clock surface the replay engine, the blinding
//! bisection, and the deployment pool actually use — so the same logic
//! drives two backends:
//!
//! - **`SimSubstrate`** (in `liberate`'s `sim` module): the deterministic
//!   discrete-event simulator from `liberate-netsim`, the reference
//!   implementation and default backend;
//! - **[`nft::NftSubstrate`]**: an nftables-shaped real-wire backend that
//!   lowers the six §6 profile rule sets into table/chain/counter
//!   programs, shells out behind a [`nft::RuleProgramSink`], and maps
//!   counter deltas back into the same verdict vocabulary.
//!
//! This crate also hosts the backend-neutral vocabulary both worlds
//! speak: [`time::SimTime`], [`verdict::Verdict`]/[`verdict::Effects`],
//! [`capture::Capture`], [`icmp::IcmpError`], [`stats::ThroughputMeter`],
//! and the scripted replay server ([`script`]).

pub mod buf;
pub mod capture;
pub mod icmp;
pub mod nft;
pub mod script;
pub mod stats;
pub mod time;
pub mod verdict;

use std::net::Ipv4Addr;
use std::sync::Arc;
use std::time::Duration;

use liberate_obs::Journal;
use liberate_packet::flow::FlowKey;
use parking_lot::Mutex;

use crate::capture::{Capture, TapPoint};
use crate::script::{ServerObs, ServerScript};
use crate::time::SimTime;

/// The per-lane slice of a backend's mutable timeline state, for
/// event-driven (reactor) execution: each in-flight flow task owns one
/// `LaneState` holding its private virtual clock, step-epoch baseline,
/// capture buffer, and journal handle. [`Substrate::swap_lane`]
/// exchanges it with the backend's live state around each task poll, so
/// thousands of flows can interleave on one backend while each observes
/// a coherent private timeline.
#[derive(Debug)]
pub struct LaneState {
    pub clock: SimTime,
    /// Baseline for the backend's inter-event-gap accounting
    /// (`step-sim-micros`), saved and restored with the clock.
    pub step_epoch_us: u64,
    pub capture: Capture,
    /// The journal the backend writes while this lane is swapped in.
    /// The reactor hands each lane a staging journal over the worker's
    /// metrics, whose events it splices into the worker journal in
    /// canonical order when the wave completes; when the worker journal
    /// is disabled, the lane shares it and has no events to splice.
    pub journal: Arc<Journal>,
}

impl LaneState {
    /// A fresh lane starting at `clock`, with its capture narrowed to
    /// `points` (mirror the session's own narrowing) and recording into
    /// `journal`.
    pub fn new(clock: SimTime, points: &[TapPoint], journal: Arc<Journal>) -> LaneState {
        let mut capture = Capture::default();
        capture.set_recorded_points(points);
        LaneState {
            clock,
            step_epoch_us: clock.as_micros(),
            capture,
            journal,
        }
    }
}

/// A classifier's answer for one flow, backend-neutral: the class it
/// assigned and whether a non-no-op policy (throttle, block, zero-rate)
/// is attached — i.e. whether classification has observable effects.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClassVerdict {
    pub class: String,
    pub effective: bool,
}

/// The world lib·erate runs against: packet injection, response and
/// ICMP observation, classifier verdict readout, and a virtual clock.
///
/// Object-safe and `Send` so whole sessions (and their substrates) can
/// fan out across pool worker threads, boxed or not.
pub trait Substrate: Send {
    /// Short backend identifier for journal tagging ("sim", "nft").
    fn backend_name(&self) -> &'static str;

    /// Human-readable environment name (e.g. "Testbed", "China").
    fn env_name(&self) -> String;

    /// TTL-decrementing hops before the middlebox: a probe TTL of
    /// `hops_before_middlebox() + 1` reaches it without reaching the
    /// server (§5.2 localization).
    fn hops_before_middlebox(&self) -> u8;

    /// The current instant on the backend clock.
    fn clock(&self) -> SimTime;

    /// Advance the clock with no traffic (pause-based flush probes),
    /// processing anything scheduled inside the window.
    fn advance(&mut self, d: Duration);

    /// Process all in-flight traffic until the backend quiesces.
    fn run_until_idle(&mut self);

    /// Inject one raw wire packet from the client after `delay`.
    fn inject_client(&mut self, delay: Duration, wire: Vec<u8>);

    /// Drain the packets delivered to the client so far. Buffers are
    /// shared views ([`buf::PacketBuf`]); callers parse or copy as needed.
    fn take_client_inbox(&mut self) -> Vec<(SimTime, buf::PacketBuf)>;

    /// Install the scripted replay server for the next flow, returning
    /// the observation handle the replay engine reads afterwards.
    fn install_server_script(&mut self, script: ServerScript) -> Arc<Mutex<ServerObs>>;

    /// The capture buffer (RS? vantage and friends).
    fn capture(&self) -> &Capture;

    /// Clear the capture buffer between replays.
    fn clear_capture(&mut self);

    /// Narrow the capture to the given tap points (a BPF-style filter).
    /// A skipped tap holds no reference to in-flight buffers, keeping
    /// downstream in-path mutation copy-free. Default: no-op (record
    /// everything).
    fn set_capture_points(&mut self, _points: &[crate::capture::TapPoint]) {}

    /// The observability journal this backend writes into.
    fn journal(&self) -> &Arc<Journal>;

    /// Replace the journal (e.g. to share one across sessions).
    fn set_journal(&mut self, journal: Arc<Journal>);

    /// Between-wave housekeeping: batch-reclaim whatever flow state the
    /// backend's classifier has let go idle. The deployment pool calls
    /// this once per wave, when its workers are quiescent, so a wave's
    /// abandoned flows are swept in one pass instead of bleeding out one
    /// lazy eviction per future lookup. Backends with no reclaimable
    /// state do nothing.
    fn reclaim_flows(&mut self) {}

    /// The middlebox's billed-byte counter, when the backend exposes one
    /// (the §5.3 zero-rating side channel). `None` means no counter is
    /// readable and callers fall back to their own accounting.
    fn billed_bytes(&mut self) -> Option<u64>;

    /// The classifier's verdict for `flow`, when one is readable
    /// (testbed-style direct readout, or counter deltas on the real
    /// wire). `None` means unclassified or unreadable.
    fn verdict_for(&mut self, flow: FlowKey) -> Option<ClassVerdict>;

    /// Whether this backend can virtualize per-flow timelines for the
    /// event-driven reactor ([`Self::swap_lane`] and friends). Backends
    /// that cannot (real-wire ones: time is not swappable there) return
    /// false and their waves run on the inline driver, each flow task
    /// polled to completion, which needs none of the lane surface.
    fn supports_lanes(&self) -> bool {
        false
    }

    /// Exchange the backend's live timeline state (clock, step-epoch
    /// baseline, capture, journal handle) with `lane`'s stash. The
    /// backend holds one journal handle, so the journal swap is one
    /// pointer exchange. Only called while
    /// the backend is quiescent (`run_until_idle` done, inbox drained),
    /// and only when [`Self::supports_lanes`] is true; the default is a
    /// no-op for backends without lanes.
    fn swap_lane(&mut self, _lane: &mut LaneState) {}

    /// Restart the backend's inter-event-gap baseline (`step-sim-micros`)
    /// at the current clock. The replay engine calls this at the top of
    /// every replay so the gap distribution is a per-replay property,
    /// identical across sequential and lane-interleaved execution.
    /// Backends without step accounting do nothing.
    fn mark_step_epoch(&mut self) {}

    /// Install a scripted replay server for one client's flows, keyed by
    /// client address, leaving other clients' scripted servers in place —
    /// the reactor's multiplexed variant of
    /// [`Self::install_server_script`]. The default (for backends serving
    /// one flow at a time) falls back to the unkeyed install.
    fn install_server_script_for(
        &mut self,
        _client: Ipv4Addr,
        script: ServerScript,
    ) -> Arc<Mutex<ServerObs>> {
        self.install_server_script(script)
    }

    /// Tear down the scripted server (and any per-connection endpoint
    /// state) for one client installed via
    /// [`Self::install_server_script_for`], bounding endpoint memory when
    /// a reactor drives very many flows. Default: no-op.
    fn remove_server_script_for(&mut self, _client: Ipv4Addr) {}
}

impl Substrate for Box<dyn Substrate> {
    fn backend_name(&self) -> &'static str {
        (**self).backend_name()
    }
    fn env_name(&self) -> String {
        (**self).env_name()
    }
    fn hops_before_middlebox(&self) -> u8 {
        (**self).hops_before_middlebox()
    }
    fn clock(&self) -> SimTime {
        (**self).clock()
    }
    fn advance(&mut self, d: Duration) {
        (**self).advance(d)
    }
    fn run_until_idle(&mut self) {
        (**self).run_until_idle()
    }
    fn inject_client(&mut self, delay: Duration, wire: Vec<u8>) {
        (**self).inject_client(delay, wire)
    }
    fn take_client_inbox(&mut self) -> Vec<(SimTime, buf::PacketBuf)> {
        (**self).take_client_inbox()
    }
    fn install_server_script(&mut self, script: ServerScript) -> Arc<Mutex<ServerObs>> {
        (**self).install_server_script(script)
    }
    fn capture(&self) -> &Capture {
        (**self).capture()
    }
    fn clear_capture(&mut self) {
        (**self).clear_capture()
    }
    fn set_capture_points(&mut self, points: &[crate::capture::TapPoint]) {
        (**self).set_capture_points(points)
    }
    fn journal(&self) -> &Arc<Journal> {
        (**self).journal()
    }
    fn set_journal(&mut self, journal: Arc<Journal>) {
        (**self).set_journal(journal)
    }
    fn reclaim_flows(&mut self) {
        (**self).reclaim_flows()
    }
    fn billed_bytes(&mut self) -> Option<u64> {
        (**self).billed_bytes()
    }
    fn verdict_for(&mut self, flow: FlowKey) -> Option<ClassVerdict> {
        (**self).verdict_for(flow)
    }
    fn supports_lanes(&self) -> bool {
        (**self).supports_lanes()
    }
    fn swap_lane(&mut self, lane: &mut LaneState) {
        (**self).swap_lane(lane)
    }
    fn mark_step_epoch(&mut self) {
        (**self).mark_step_epoch()
    }
    fn install_server_script_for(
        &mut self,
        client: Ipv4Addr,
        script: ServerScript,
    ) -> Arc<Mutex<ServerObs>> {
        (**self).install_server_script_for(client, script)
    }
    fn remove_server_script_for(&mut self, client: Ipv4Addr) {
        (**self).remove_server_script_for(client)
    }
}

pub mod prelude {
    pub use crate::buf::{CopyTally, PacketBuf};
    pub use crate::capture::{Capture, CaptureRecord, TapPoint};
    pub use crate::icmp::{parse_icmp_error, IcmpError};
    pub use crate::nft::{NftSubstrate, RecordingSink, RuleProgramSink, WireRuleset};
    pub use crate::script::{ResponseTable, ScriptEngine, ServerObs, ServerScript};
    pub use crate::stats::ThroughputMeter;
    pub use crate::time::SimTime;
    pub use crate::verdict::{Effects, TimedPacket, Verdict};
    pub use crate::{ClassVerdict, LaneState, Substrate};
}
