//! Response-table sharing: a phase lowers its trace's server half once,
//! and every replay it runs installs a scripted server over that one
//! table.
//!
//! A spy substrate wraps the simulator and keeps every table a replay
//! installs (holding the `Arc` keeps each address unique for the test's
//! lifetime), so the tests can count distinct tables:
//!
//! - in one wave search over a 600 kB trace, every probe that blinds
//!   only client bytes, and every position-ladder rung, shares the
//!   unblinded table; each probe that blinds server bytes has its own;
//! - a 2,000-flow deployment wave installs one table for all its flows.

use std::net::Ipv4Addr;
use std::sync::Arc;
use std::time::Duration;

use liberate::prelude::*;
use liberate_dpi::profiles::EnvironmentBlueprint;
use liberate_obs::Journal;
use liberate_packet::flow::FlowKey;
use liberate_substrate::buf::PacketBuf;
use liberate_substrate::capture::{Capture, TapPoint};
use liberate_substrate::script::{ResponseTable, ServerObs, ServerScript};
use liberate_substrate::time::SimTime;
use liberate_substrate::LaneState;
use liberate_traces::apps;
use liberate_traces::recorded::RecordedTrace;
use parking_lot::Mutex;

type Installed = Arc<Mutex<Vec<Arc<ResponseTable>>>>;

/// The simulator, recording the table of every scripted server installed.
struct Spy {
    inner: SimSubstrate,
    installed: Installed,
}

impl Spy {
    fn record(&self, script: &ServerScript) {
        self.installed.lock().push(Arc::clone(&script.table));
    }
}

impl Substrate for Spy {
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
        self.inner.advance(d)
    }
    fn run_until_idle(&mut self) {
        self.inner.run_until_idle()
    }
    fn inject_client(&mut self, delay: Duration, wire: Vec<u8>) {
        self.inner.inject_client(delay, wire)
    }
    fn take_client_inbox(&mut self) -> Vec<(SimTime, PacketBuf)> {
        self.inner.take_client_inbox()
    }
    fn install_server_script(&mut self, script: ServerScript) -> Arc<Mutex<ServerObs>> {
        self.record(&script);
        self.inner.install_server_script(script)
    }
    fn capture(&self) -> &Capture {
        self.inner.capture()
    }
    fn clear_capture(&mut self) {
        self.inner.clear_capture()
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
        self.inner.reclaim_flows()
    }
    fn billed_bytes(&mut self) -> Option<u64> {
        self.inner.billed_bytes()
    }
    fn verdict_for(&mut self, flow: FlowKey) -> Option<ClassVerdict> {
        self.inner.verdict_for(flow)
    }
    fn supports_lanes(&self) -> bool {
        self.inner.supports_lanes()
    }
    fn swap_lane(&mut self, lane: &mut LaneState) {
        self.inner.swap_lane(lane)
    }
    fn mark_step_epoch(&mut self) {
        self.inner.mark_step_epoch()
    }
    fn install_server_script_for(
        &mut self,
        client: Ipv4Addr,
        script: ServerScript,
    ) -> Arc<Mutex<ServerObs>> {
        self.record(&script);
        self.inner.install_server_script_for(client, script)
    }
    fn remove_server_script_for(&mut self, client: Ipv4Addr) {
        self.inner.remove_server_script_for(client)
    }
}

fn spy_session(kind: EnvKind) -> (Session<Spy>, Installed) {
    let installed = Installed::default();
    let spy = Spy {
        inner: SimSubstrate::new(kind, OsKind::Linux, 0),
        installed: Arc::clone(&installed),
    };
    (Session::over(spy, LiberateConfig::default()), installed)
}

/// Number of distinct tables (by address) among `tables`.
fn distinct(tables: &[Arc<ResponseTable>]) -> usize {
    let mut ptrs: Vec<*const ResponseTable> = tables.iter().map(Arc::as_ptr).collect();
    ptrs.sort();
    ptrs.dedup();
    ptrs.len()
}

/// Characterize `trace` on a spied session and check the sharing
/// contract over every replay the search and the ladder ran.
fn assert_search_shares_one_table(
    mut session: Session<Spy>,
    installed: Installed,
    trace: &RecordedTrace,
    signal: &Signal,
) {
    let unblinded = server_script(trace, 0).table;
    installed.lock().clear();
    let c = characterize(&mut session, trace, signal, &CharacterizeOpts::default());
    assert!(!c.fields.is_empty(), "the search found the rule");

    let tables = installed.lock();
    assert_eq!(tables.len() as u64, c.rounds, "one install per replay");
    // Content tells the probes apart: only a server-direction blind
    // changes the responses.
    let (plain, server_blinded): (Vec<_>, Vec<_>) =
        tables.iter().cloned().partition(|t| **t == *unblinded);
    assert!(plain.len() > 10, "{} unblinded-table replays", plain.len());
    assert_eq!(distinct(&plain), 1, "client-only probes share one table");
    assert!(
        !server_blinded.is_empty(),
        "the search blinded server bytes"
    );
    assert_eq!(
        distinct(&server_blinded),
        server_blinded.len(),
        "each server-direction blind has a table of its own"
    );
    assert!(server_blinded.iter().all(|t| !Arc::ptr_eq(t, &plain[0])));
}

#[test]
fn blinding_search_shares_one_table_across_task_waves() {
    // Readout judges each probe from its own flow: the reactor runs the
    // probes on private lanes.
    let trace = apps::amazon_prime_http(600_000);
    let (session, installed) = spy_session(EnvKind::Testbed);
    assert_search_shares_one_table(session, installed, &trace, &Signal::Readout);
}

#[test]
fn blinding_search_shares_one_table_across_closure_waves() {
    // Throttling compares against a control measurement: probes run on
    // the inline driver, one replay after another.
    let trace = apps::amazon_prime_http(600_000);
    let (mut session, installed) = spy_session(EnvKind::Testbed);
    let detection = detect(&mut session, &trace);
    assert!(detection.throttling, "the testbed throttles video");
    let signal = signal_from_detection(&detection, session.config.throttle_ratio);
    assert!(matches!(signal, Signal::Throttling { .. }));
    assert_search_shares_one_table(session, installed, &trace, &signal);
}

#[test]
fn deployment_wave_holds_one_table_for_all_its_flows() {
    let installed = Installed::default();
    let blueprint = EnvironmentBlueprint::new(EnvKind::Gfc, 0);
    let spy = Spy {
        inner: SimSubstrate::from_blueprint(&blueprint, OsKind::Linux),
        installed: Arc::clone(&installed),
    };
    let session = Session::worker_over(spy, LiberateConfig::default(), 0, 1);
    let copts = CharacterizeOpts {
        rotate_server_ports: true,
        ..Default::default()
    };
    let mut pool = DeploymentPool::over(SessionPool::from_sessions(vec![session]), copts);
    let trace = apps::economist_http();
    pool.run_flows(&trace, 1).expect("the pool learns the GFC");

    installed.lock().clear();
    let users = 2_000;
    let wave = pool.run_flows(&trace, users).expect("steady wave");
    assert!(wave.all_evaded() && !wave.recharacterized);
    let tables = installed.lock();
    assert_eq!(tables.len(), users, "one replay per flow");
    assert_eq!(distinct(&tables), 1, "one table for the whole wave");
    assert_eq!(*tables[0], *server_script(&trace, 0).table);
}
