//! The reference [`Substrate`]: `liberate-netsim`'s deterministic
//! discrete-event simulator, wrapped so the rest of this crate never
//! names the simulator directly.
//!
//! This is the **only** module in `crates/core` allowed to mention
//! `liberate_netsim` (enforced by the `substrate-seam` lint, LIB013).
//! Everything else — the replay engine, detection, characterization, the
//! pools — goes through the [`Substrate`] trait, and concrete
//! sim-specific access (e.g. `session.env.dpi_mut()` in tests) rides the
//! `Deref` to [`Environment`] this module provides.

use std::collections::HashMap;
use std::net::Ipv4Addr;
use std::ops::{Deref, DerefMut};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;

use liberate_dpi::profiles::{build_environment, EnvKind, Environment, EnvironmentBlueprint};
use liberate_obs::Journal;
use liberate_packet::flow::FlowKey;
use liberate_substrate::buf::PacketBuf;
use liberate_substrate::capture::Capture;
use liberate_substrate::script::{Burst, ScriptEngine, ServerObs, ServerScript};
use liberate_substrate::time::SimTime;
use liberate_substrate::{ClassVerdict, LaneState, Substrate};

pub use liberate_netsim::os::OsKind;
pub use liberate_netsim::server::{EchoApp, ServerApp, SinkApp};

/// Adapter: a backend-neutral [`ScriptEngine`] plugged into the
/// simulator's [`ServerApp`] slot. The engine ignores flow identity (one
/// scripted flow per replay), so the flow argument is dropped.
struct ScriptServerApp {
    engine: ScriptEngine,
}

impl ServerApp for ScriptServerApp {
    fn on_tcp_data(&mut self, _flow: FlowKey, data: &[u8]) -> Burst {
        self.engine.on_tcp_data(data)
    }

    fn on_udp_datagram(&mut self, _flow: FlowKey, data: &[u8]) -> Vec<PacketBuf> {
        self.engine.on_udp_datagram(data)
    }
}

/// Reactor-mode adapter: many scripted flows multiplexed through one
/// server host, each client address owning its own [`ScriptEngine`].
/// Routing keys on `flow.src` alone — the reactor assigns every
/// in-flight task a unique client address, so the key is unambiguous
/// even across that task's port-rotating replays.
#[derive(Default)]
struct MuxScriptApp {
    engines: HashMap<Ipv4Addr, ScriptEngine>,
}

impl ServerApp for MuxScriptApp {
    fn on_tcp_data(&mut self, flow: FlowKey, data: &[u8]) -> Burst {
        match self.engines.get_mut(&flow.src) {
            Some(engine) => engine.on_tcp_data(data),
            None => Burst::none(),
        }
    }

    fn on_udp_datagram(&mut self, flow: FlowKey, data: &[u8]) -> Vec<PacketBuf> {
        match self.engines.get_mut(&flow.src) {
            Some(engine) => engine.on_udp_datagram(data),
            None => Vec::new(),
        }
    }

    fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
        Some(self)
    }
}

/// The simulator-backed substrate: owns a full [`Environment`] (network,
/// path elements, DPI device, journal) and exposes it through the
/// backend-neutral trait. `Deref`s to the environment so sim-aware
/// callers (tests, experiment binaries) keep their direct access.
pub struct SimSubstrate {
    env: Environment,
}

impl SimSubstrate {
    /// A fresh environment of `kind`, with control over the simulated
    /// time of day at start (Figure 4 sweeps it for the GFC).
    pub fn new(kind: EnvKind, os: OsKind, start_time_of_day_secs: u64) -> SimSubstrate {
        // The app is replaced per replay; a sink placeholder to start.
        let env = build_environment(
            kind,
            os,
            Box::new(SinkApp::default()),
            start_time_of_day_secs,
        );
        SimSubstrate { env }
    }

    /// A worker environment over a shared [`EnvironmentBlueprint`] (own
    /// network and journal, the blueprint's shared sharded flow table).
    pub fn from_blueprint(blueprint: &EnvironmentBlueprint, os: OsKind) -> SimSubstrate {
        SimSubstrate {
            env: blueprint.build(os, Box::new(SinkApp::default())),
        }
    }

    /// Wrap an environment built elsewhere.
    pub fn over(env: Environment) -> SimSubstrate {
        SimSubstrate { env }
    }
}

impl Deref for SimSubstrate {
    type Target = Environment;

    fn deref(&self) -> &Environment {
        &self.env
    }
}

impl DerefMut for SimSubstrate {
    fn deref_mut(&mut self) -> &mut Environment {
        &mut self.env
    }
}

impl Substrate for SimSubstrate {
    fn backend_name(&self) -> &'static str {
        "sim"
    }

    fn env_name(&self) -> String {
        self.env.kind.name().to_string()
    }

    fn hops_before_middlebox(&self) -> u8 {
        self.env.hops_before_middlebox
    }

    fn clock(&self) -> SimTime {
        self.env.network.clock
    }

    fn advance(&mut self, d: Duration) {
        self.env.network.advance(d);
    }

    fn run_until_idle(&mut self) {
        self.env.network.run_until_idle();
    }

    fn inject_client(&mut self, delay: Duration, wire: Vec<u8>) {
        self.env.network.send_from_client(delay, wire);
    }

    fn take_client_inbox(&mut self) -> Vec<(SimTime, liberate_substrate::buf::PacketBuf)> {
        self.env.network.take_client_inbox()
    }

    fn install_server_script(&mut self, script: ServerScript) -> Arc<Mutex<ServerObs>> {
        let (engine, obs) = ScriptEngine::new(script);
        self.env
            .network
            .server
            .set_app(Box::new(ScriptServerApp { engine }));
        obs
    }

    fn capture(&self) -> &Capture {
        &self.env.network.capture
    }

    fn clear_capture(&mut self) {
        self.env.network.capture.clear();
    }

    fn set_capture_points(&mut self, points: &[liberate_substrate::capture::TapPoint]) {
        self.env.network.capture.set_recorded_points(points);
    }

    fn journal(&self) -> &Arc<Journal> {
        self.env.network.journal()
    }

    fn set_journal(&mut self, journal: Arc<Journal>) {
        *self.env.network.journal_mut() = journal;
    }

    fn reclaim_flows(&mut self) {
        let journal = Arc::clone(self.env.network.journal());
        if let Some(dpi) = self.env.dpi_mut() {
            dpi.drain_expired_flows(&journal);
        }
    }

    fn billed_bytes(&mut self) -> Option<u64> {
        self.env.dpi_mut().map(|d| d.billed_bytes)
    }

    fn verdict_for(&mut self, flow: FlowKey) -> Option<ClassVerdict> {
        let dpi = self.env.dpi_mut()?;
        let class = dpi.classification_of(flow)?;
        let effective = dpi
            .config
            .policies
            .get(&class)
            .map(|p| !p.is_noop())
            .unwrap_or(false);
        Some(ClassVerdict { class, effective })
    }

    fn supports_lanes(&self) -> bool {
        true
    }

    fn swap_lane(&mut self, lane: &mut LaneState) {
        let network = &mut self.env.network;
        network.swap_lane(&mut lane.clock, &mut lane.step_epoch_us, &mut lane.capture);
        std::mem::swap(network.journal_mut(), &mut lane.journal);
    }

    fn mark_step_epoch(&mut self) {
        self.env.network.mark_step_epoch();
    }

    fn install_server_script_for(
        &mut self,
        client: Ipv4Addr,
        script: ServerScript,
    ) -> Arc<Mutex<ServerObs>> {
        let (engine, obs) = ScriptEngine::new(script);
        let server = &mut self.env.network.server;
        let is_mux = server
            .app_mut()
            .as_any_mut()
            .is_some_and(|a| a.is::<MuxScriptApp>());
        if !is_mux {
            server.set_app(Box::<MuxScriptApp>::default());
        }
        let mux = server
            .app_mut()
            .as_any_mut()
            .and_then(|a| a.downcast_mut::<MuxScriptApp>())
            // lint: allow(no-panic) invariant: the branch above just
            // installed a MuxScriptApp when one wasn't present.
            .expect("server app is the mux installed above");
        mux.engines.insert(client, engine);
        obs
    }

    fn remove_server_script_for(&mut self, client: Ipv4Addr) {
        let server = &mut self.env.network.server;
        if let Some(mux) = server
            .app_mut()
            .as_any_mut()
            .and_then(|a| a.downcast_mut::<MuxScriptApp>())
        {
            mux.engines.remove(&client);
        }
        server.evict_client(client);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sim_substrate_exposes_the_environment_surface() {
        let mut sub = SimSubstrate::new(EnvKind::Testbed, OsKind::Linux, 0);
        assert_eq!(sub.backend_name(), "sim");
        assert_eq!(sub.env_name(), "Testbed");
        assert_eq!(
            Substrate::hops_before_middlebox(&sub),
            sub.env.hops_before_middlebox
        );
        assert_eq!(sub.clock(), SimTime::ZERO);
        sub.advance(Duration::from_millis(5));
        assert!(sub.clock() > SimTime::ZERO);
        // The testbed exposes a billed counter; nothing classified yet.
        assert_eq!(sub.billed_bytes(), Some(0));
        let key = FlowKey::new(
            liberate_dpi::profiles::CLIENT_ADDR,
            liberate_dpi::profiles::SERVER_ADDR,
            42_000,
            80,
            6,
        );
        assert!(sub.verdict_for(key).is_none());
    }

    #[test]
    fn sprint_has_no_readable_counter_or_verdict() {
        let mut sub = SimSubstrate::new(EnvKind::Sprint, OsKind::Linux, 0);
        assert_eq!(sub.billed_bytes(), None);
        let key = FlowKey::new(
            liberate_dpi::profiles::CLIENT_ADDR,
            liberate_dpi::profiles::SERVER_ADDR,
            42_000,
            80,
            6,
        );
        assert!(sub.verdict_for(key).is_none());
    }
}
