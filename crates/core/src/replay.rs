//! The replay engine: lowers a [`Schedule`] onto a live connection over a
//! [`Substrate`] and reports everything lib·erate's phases need to
//! observe (Fig. 3, step 2).
//!
//! The client side is driven packet-by-packet with raw-socket-level
//! control (the real tool does the same via a transparent proxy); the
//! server side runs a scripted replay server
//! ([`liberate_substrate::script::ScriptEngine`]) installed through the
//! substrate, answering scripted responses once the expected client bytes
//! arrive. The engine itself is generic: the same code drives the
//! simulator backend ([`crate::sim::SimSubstrate`], the default) and the
//! nftables-shaped real-wire backend
//! ([`liberate_substrate::nft::NftSubstrate`]).

use std::borrow::Borrow;
use std::net::Ipv4Addr;
use std::ops::Range;
use std::time::Duration;

use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::SeedableRng;

use liberate_dpi::profiles::{EnvKind, EnvironmentBlueprint, CLIENT_ADDR, SERVER_ADDR};
use liberate_obs::{Counter, EventKind, Hist, Journal, Phase};
use liberate_packet::fragment::fragment_packet;
use liberate_packet::packet::{Packet, ParsedPacket, ParsedTransport};
use liberate_packet::tcp::TcpFlags;
use liberate_substrate::buf::PacketBuf;
use liberate_substrate::capture::TapPoint;
use liberate_substrate::icmp::{parse_icmp_error, IcmpError};
use liberate_substrate::script::{ResponseTable, ServerObs, ServerScript};
use liberate_substrate::stats::ThroughputMeter;
use liberate_substrate::time::SimTime;
use liberate_substrate::Substrate;
use liberate_traces::recorded::{RecordedTrace, Sender, TraceProtocol};
use std::sync::Arc;

use crate::config::LiberateConfig;
use crate::evasion::{EvasionContext, Technique};
use crate::schedule::{Schedule, ScheduledPacket, Step};
use crate::sim::{OsKind, SimSubstrate};
use crate::task::{TaskPoll, Wake};

/// The capture narrowing every session applies: the detectors (RS? in
/// evaluate/probe) only read the server-ingress vantage. Reactor lanes
/// mirror this when they build their per-flow capture buffers.
pub(crate) const SESSION_TAPS: &[TapPoint] = &[TapPoint::ServerIngress];

/// Build the scripted replay server for `trace`: its server responses
/// lowered into a fresh [`ResponseTable`], each released once the client
/// bytes (TCP) or datagrams (UDP) before it in the trace have arrived,
/// plus the stream prefix to discard (server-side support for the
/// dummy-prefix technique). Replays inside lib·erate's phases do not call
/// this per replay: each phase call lowers its trace once and every replay
/// it runs installs a script sharing that table.
pub fn server_script(trace: &RecordedTrace, skip_prefix: u64) -> ServerScript {
    LoweredTrace::new(trace).script(skip_prefix)
}

/// A trace lowered for replay. The server half is a [`ResponseTable`]
/// shared through an `Arc` by every replay of one phase call; the client
/// half — the stream the server application must receive and what
/// releases each response — is small and owned, so a probe that rewrites
/// client bytes copies only those.
#[derive(Debug, Clone)]
pub(crate) struct LoweredTrace {
    pub server_port: u16,
    pub protocol: TraceProtocol,
    /// The server's responses, in order.
    pub table: Arc<ResponseTable>,
    /// The client stream the server application must receive (the
    /// integrity check's expectation).
    pub client_stream: Vec<u8>,
    /// End of each client message within `client_stream`.
    pub client_ends: Vec<usize>,
    /// Per server response: the client bytes and client messages sent
    /// before it in the trace.
    pub releases: Vec<(u64, usize)>,
}

impl LoweredTrace {
    /// Lower `trace`, copying its server payloads into a new table.
    pub fn new(trace: &RecordedTrace) -> LoweredTrace {
        let server = trace.messages.iter().filter(|m| m.sender == Sender::Server);
        let table = ResponseTable::lower(server.map(|m| m.payload.as_slice()));
        let mut client_stream = Vec::with_capacity(trace.client_bytes());
        let mut client_ends = Vec::new();
        let mut releases = Vec::with_capacity(table.responses().len());
        for msg in &trace.messages {
            match msg.sender {
                Sender::Client => {
                    client_stream.extend_from_slice(&msg.payload);
                    client_ends.push(client_stream.len());
                }
                Sender::Server => releases.push((client_stream.len() as u64, client_ends.len())),
            }
        }
        LoweredTrace {
            server_port: trace.server_port,
            protocol: trace.protocol,
            table: Arc::new(table),
            client_stream,
            client_ends,
            releases,
        }
    }

    /// The scripted server for one replay: a refcount bump on the table
    /// plus this replay's releases.
    pub fn script(&self, skip_prefix: u64) -> ServerScript {
        ServerScript {
            table: Arc::clone(&self.table),
            releases: self.releases.clone(),
            skip_prefix,
        }
    }

    /// Where client message `i` sits in the client stream.
    pub fn client_range(&self, i: usize) -> Range<usize> {
        let start = if i == 0 { 0 } else { self.client_ends[i - 1] };
        start..self.client_ends[i]
    }

    /// The client messages, in order.
    fn client_messages(&self) -> impl Iterator<Item = &[u8]> {
        (0..self.client_ends.len()).map(|i| &self.client_stream[self.client_range(i)])
    }

    /// This trace with `prefix` sent first as extra client messages,
    /// sharing the table: every response's release moves past them.
    pub fn with_client_prefix(&self, prefix: &[&[u8]]) -> LoweredTrace {
        let shift: usize = prefix.iter().map(|p| p.len()).sum();
        let mut client_stream = Vec::with_capacity(shift + self.client_stream.len());
        let mut client_ends = Vec::with_capacity(prefix.len() + self.client_ends.len());
        for p in prefix {
            client_stream.extend_from_slice(p);
            client_ends.push(client_stream.len());
        }
        client_stream.extend_from_slice(&self.client_stream);
        client_ends.extend(self.client_ends.iter().map(|end| end + shift));
        let releases = self
            .releases
            .iter()
            .map(|&(bytes, msgs)| (bytes + shift as u64, msgs + prefix.len()))
            .collect();
        LoweredTrace {
            table: Arc::clone(&self.table),
            client_stream,
            client_ends,
            releases,
            ..*self
        }
    }
}

/// Options for one replay.
#[derive(Debug, Clone, Default)]
pub struct ReplayOpts {
    /// Override the trace's server port (GFC characterization rotates
    /// ports, §6.5; AT&T's port-change evasion needs it, §6.3).
    pub server_port: Option<u16>,
    /// Force this TTL on all client *data* packets (middlebox
    /// localization, §5.2). The handshake keeps a normal TTL.
    pub data_ttl: Option<u8>,
}

/// Everything observed during one replay.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayOutcome {
    /// Source address the client side used. [`CLIENT_ADDR`] for ordinary
    /// sessions; reactor lanes assign each in-flight flow its own.
    pub client_addr: Ipv4Addr,
    pub client_port: u16,
    pub server_port: u16,
    /// TCP only: did the handshake complete?
    pub handshake_ok: bool,
    /// RST packets received by the client for this flow.
    pub rsts: usize,
    /// An unsolicited "403 Forbidden" page arrived (Iran's censor, §6.6).
    pub block_page: bool,
    /// Server payload bytes that reached the client application.
    pub server_payload_bytes: u64,
    /// Server payload bytes the trace expected.
    pub expected_server_bytes: u64,
    /// `server_payload_bytes >= expected_server_bytes`.
    pub complete: bool,
    /// The server application received exactly the client stream the
    /// (possibly transformed) trace intended — i.e. the technique had no
    /// server-side side effects.
    pub integrity_ok: bool,
    /// Total client wire bytes sent (data-consumption accounting, §5.3).
    pub bytes_sent: u64,
    /// Wall-clock (simulated) duration of the replay.
    pub duration: Duration,
    /// Downlink throughput statistics.
    pub avg_bps: f64,
    pub peak_bps: f64,
    /// Latency from the first data packet sent to the first server
    /// payload received (the §4.1 "latency differences" signal).
    pub request_to_response: Option<Duration>,
    /// The received server payload matches the trace byte-for-byte (the
    /// §4.1 content-modification signal).
    pub response_matches: bool,
    /// ICMP errors received (TTL probing).
    pub icmp: Vec<IcmpError>,
}

impl ReplayOutcome {
    /// The blocking signal: RSTs or a block page.
    pub fn blocked(&self) -> bool {
        self.rsts > 0 || self.block_page || !self.handshake_ok
    }
}

/// A measurement session against one environment: owns the substrate,
/// hands out client ports, accumulates cost accounting. Generic over the
/// backend; `Session` with no parameter is the simulator-backed default.
pub struct Session<S: Substrate = SimSubstrate> {
    pub env: S,
    pub config: LiberateConfig,
    pub rng: StdRng,
    next_client_port: u16,
    /// Client-port advance per replay. A solo session strides by 1; pool
    /// workers stride by the worker count (each starting at a distinct
    /// offset) so concurrent probes land on disjoint
    /// [`liberate_packet::flow::FlowKey`]s of the shared sharded flow
    /// table.
    port_stride: u16,
    isn_counter: u32,
    /// Total replays run (the paper's "rounds" metric).
    pub replays: u64,
    /// Total client bytes sent across all replays.
    pub bytes_sent_total: u64,
    /// Total server payload bytes received across all replays.
    pub bytes_received_total: u64,
    /// Simulated time consumed by testing.
    pub started: SimTime,
}

impl Session<SimSubstrate> {
    /// Build a session against a freshly constructed simulator
    /// environment.
    pub fn new(kind: EnvKind, os: OsKind, config: LiberateConfig) -> Session {
        Session::with_start_time(kind, os, config, 0)
    }

    /// Like [`Session::new`] with control over the wall-clock time of day
    /// at simulation start (Figure 4 sweeps it for the GFC).
    pub fn with_start_time(
        kind: EnvKind,
        os: OsKind,
        config: LiberateConfig,
        start_time_of_day_secs: u64,
    ) -> Session {
        Session::over(SimSubstrate::new(kind, os, start_time_of_day_secs), config)
    }

    /// Build one pool worker's session from a shared
    /// [`EnvironmentBlueprint`]: its own network and journal, the pool's
    /// sharded flow table, a deterministic per-worker RNG seed, and a
    /// client-port lane disjoint from every other worker's
    /// (`42_000 + worker`, striding by `workers`).
    pub fn worker_from_blueprint(
        blueprint: &EnvironmentBlueprint,
        os: OsKind,
        config: LiberateConfig,
        worker: usize,
        workers: usize,
    ) -> Session {
        Session::worker_over(
            SimSubstrate::from_blueprint(blueprint, os),
            config,
            worker,
            workers,
        )
    }
}

impl<S: Substrate> Session<S> {
    /// Wrap any substrate as a solo session (the generic counterpart of
    /// [`Session::new`]).
    pub fn over(mut env: S, config: LiberateConfig) -> Session<S> {
        let seed = config.seed;
        // The session's detectors (RS? in evaluate/probe) only ever read
        // the server-ingress vantage; narrowing the capture there keeps
        // the other taps from aliasing in-flight buffers, so in-path
        // mutation (TTL decrements) stays copy-free.
        env.set_capture_points(SESSION_TAPS);
        let session = Session {
            env,
            config,
            rng: StdRng::seed_from_u64(seed),
            next_client_port: 42_000,
            port_stride: 1,
            isn_counter: 11_000,
            replays: 0,
            bytes_sent_total: 0,
            bytes_received_total: 0,
            started: SimTime::ZERO,
        };
        session.record_session_started();
        session
    }

    /// Wrap any substrate as pool worker `worker` of `workers` (the
    /// generic counterpart of [`Session::worker_from_blueprint`]).
    pub fn worker_over(
        mut env: S,
        config: LiberateConfig,
        worker: usize,
        workers: usize,
    ) -> Session<S> {
        let seed = config.seed.wrapping_add(worker as u64);
        // Same BPF-style capture narrowing as [`Session::over`].
        env.set_capture_points(SESSION_TAPS);
        let session = Session {
            env,
            config,
            rng: StdRng::seed_from_u64(seed),
            next_client_port: 42_000u16.wrapping_add(worker as u16),
            port_stride: (workers.max(1)) as u16,
            isn_counter: 11_000,
            replays: 0,
            bytes_sent_total: 0,
            bytes_received_total: 0,
            started: SimTime::ZERO,
        };
        session.record_session_started();
        session
    }

    /// The observability journal shared with the substrate.
    pub fn journal(&self) -> &Arc<Journal> {
        self.env.journal()
    }

    /// Share a journal with this session (e.g. one journal across all the
    /// sessions an experiment binary creates). Re-records the session
    /// header so the journal stays self-describing.
    pub fn attach_journal(&mut self, journal: Arc<Journal>) {
        self.env.set_journal(journal);
        self.record_session_started();
    }

    fn record_session_started(&self) {
        self.env.journal().record(
            self.env.clock().as_micros(),
            EventKind::SessionStarted {
                env: self.env.env_name(),
                seed: self.config.seed,
                substrate: self.env.backend_name().to_string(),
            },
        );
    }

    /// Replay a trace unmodified.
    pub fn replay_trace(&mut self, trace: &RecordedTrace, opts: &ReplayOpts) -> ReplayOutcome {
        let schedule = Schedule::from_trace(trace);
        self.replay_schedule(trace, &schedule, opts)
    }

    /// Replay a trace with an evasion technique applied. Returns `None`
    /// when the technique does not apply to this trace's transport.
    pub fn replay_with(
        &mut self,
        trace: &RecordedTrace,
        technique: &Technique,
        ctx: &EvasionContext,
        opts: &ReplayOpts,
    ) -> Option<ReplayOutcome> {
        let schedule = technique.apply(&Schedule::from_trace(trace), ctx)?;
        Some(self.replay_schedule(trace, &schedule, opts))
    }

    /// Idle the environment between rounds.
    pub fn rest(&mut self, d: Duration) {
        self.env.advance(d);
    }

    /// Replay an explicit schedule derived from `trace`, lowering the
    /// trace for this one replay.
    pub fn replay_schedule(
        &mut self,
        trace: &RecordedTrace,
        schedule: &Schedule,
        opts: &ReplayOpts,
    ) -> ReplayOutcome {
        self.replay_lowered(&LoweredTrace::new(trace), schedule, opts)
    }

    /// Replay `schedule` against an already lowered trace — how phases
    /// run many replays of one trace without re-lowering it. A thin
    /// inline driver over [`ReplaySm`]: constructs the state machine and
    /// polls it to completion, performing `Timer` advances itself — the
    /// exact loop the reactor runs, minus the lane swaps.
    pub(crate) fn replay_lowered(
        &mut self,
        trace: &LoweredTrace,
        schedule: &Schedule,
        opts: &ReplayOpts,
    ) -> ReplayOutcome {
        let mut sm = ReplaySm::new(trace, schedule, opts.clone(), None);
        loop {
            match sm.poll(self) {
                TaskPoll::Done(out) => return out,
                TaskPoll::Pending(Wake::Ready) => {}
                TaskPoll::Pending(Wake::Timer(d)) => self.env.advance(d),
            }
        }
    }
}

/// Reactor-lane addressing for one replay: the flow's own client
/// address (every in-flight task gets a unique one, keeping DPI flow
/// keys, IP-fragment reassembly idents, and server-side connections
/// disjoint across interleaved lanes) and its lane-local replay number
/// (the canonical session-wide number is restored when the lane journal
/// is spliced back via [`liberate_obs::Journal::splice_staged`]).
#[derive(Debug, Clone, Copy)]
pub(crate) struct LaneAddr {
    pub client_addr: Ipv4Addr,
    pub replay_no: u64,
}

/// Where one [`ReplaySm`] is in its replay.
enum SmState {
    /// Nothing has run yet: the first poll opens the span, installs the
    /// scripted server, and performs the TCP handshake atomically.
    Init,
    /// Walking the schedule; the index is the next step to lower.
    Steps(usize),
    /// Finished (terminal; polling again is a bug).
    Done,
}

/// One replay as a resumable state machine — the poll-style core of both
/// the sequential [`Session::replay_schedule`] driver and the reactor's
/// interleaved flow tasks. Generic over trace/schedule ownership so the
/// sequential path borrows (`&LoweredTrace`) while reactor tasks own
/// their probe's rewrite or share wave-compiled schedules
/// (`Arc<Schedule>`) without cloning.
///
/// Invariant: every yield happens with the substrate quiesced — event
/// heap drained (`run_until_idle`) and client inbox emptied into the
/// machine's own log — so a reactor can swap whole lanes around each
/// poll without leaking in-flight state across flows.
pub(crate) struct ReplaySm<Tr, Sc> {
    trace: Tr,
    schedule: Sc,
    opts: ReplayOpts,
    lane: Option<LaneAddr>,
    state: SmState,
    // ---- live replay context, populated by the Init poll.
    host_start: Option<std::time::Instant>,
    replay_no: u64,
    client_addr: Ipv4Addr,
    client_port: u16,
    server_port: u16,
    client_isn: u32,
    server_isn: u32,
    protocol: TraceProtocol,
    handshake_ok: bool,
    bytes_sent: u64,
    first_data_sent: Option<SimTime>,
    inbox_log: Vec<(SimTime, PacketBuf)>,
    obs: Option<Arc<Mutex<ServerObs>>>,
    t_start: SimTime,
}

impl<Tr, Sc> ReplaySm<Tr, Sc>
where
    Tr: Borrow<LoweredTrace>,
    Sc: Borrow<Schedule>,
{
    /// A machine ready for its first poll. `lane` is `None` for ordinary
    /// (sequential / threads-engine) replays, which use [`CLIENT_ADDR`]
    /// and the session-global replay numbering.
    pub(crate) fn new(trace: Tr, schedule: Sc, opts: ReplayOpts, lane: Option<LaneAddr>) -> Self {
        ReplaySm {
            trace,
            schedule,
            opts,
            lane,
            state: SmState::Init,
            host_start: None,
            replay_no: 0,
            client_addr: CLIENT_ADDR,
            client_port: 0,
            server_port: 0,
            client_isn: 0,
            server_isn: 0,
            protocol: TraceProtocol::Tcp,
            handshake_ok: true,
            bytes_sent: 0,
            first_data_sent: None,
            inbox_log: Vec::new(),
            obs: None,
            t_start: SimTime::ZERO,
        }
    }

    /// Run one quiesced segment.
    pub(crate) fn poll<S: Substrate>(
        &mut self,
        session: &mut Session<S>,
    ) -> TaskPoll<ReplayOutcome> {
        match self.state {
            SmState::Init => self.poll_init(session),
            SmState::Steps(idx) => self.poll_step(session, idx),
            // lint: allow(no-panic) contract: drivers stop at Done; a
            // re-poll is a reactor bug, not a recoverable condition.
            SmState::Done => unreachable!("ReplaySm polled after completion"),
        }
    }

    fn poll_init<S: Substrate>(&mut self, session: &mut Session<S>) -> TaskPoll<ReplayOutcome> {
        session.replays += 1;
        self.replay_no = match self.lane {
            Some(l) => l.replay_no,
            None => session.replays,
        };
        session.env.journal().metrics.incr(Counter::ReplaysExecuted);
        // Each replay is a micro span under whichever Fig. 3 phase is
        // running it, and the one place host time is measured: core is
        // outside the simulator's determinism boundary, and the wall
        // clock feeds only the non-deterministic replay-host-micros
        // histogram (never the JSONL export).
        self.host_start = Some(std::time::Instant::now());
        session
            .env
            .journal()
            .span_start(session.env.clock().as_micros(), Phase::Replay);
        session.env.clear_capture();
        // Restart inter-event-gap accounting at the replay boundary so
        // the step-sim-micros distribution is a per-replay property,
        // identical across back-to-back and lane-interleaved execution.
        session.env.mark_step_epoch();

        if let Some(l) = self.lane {
            self.client_addr = l.client_addr;
        }
        self.client_port = session.next_client_port;
        session.next_client_port = session
            .next_client_port
            .wrapping_add(session.port_stride.max(1))
            .max(20_000);
        self.server_port = self
            .opts
            .server_port
            .unwrap_or(self.trace.borrow().server_port);

        // Install the scripted server for this (possibly transformed)
        // trace — keyed by client address in lane mode, so concurrent
        // flows each talk to their own script over the shared table.
        let script = self
            .trace
            .borrow()
            .script(self.schedule.borrow().server_skip_prefix);
        self.obs = Some(match self.lane {
            Some(l) => session.env.install_server_script_for(l.client_addr, script),
            None => session.env.install_server_script(script),
        });

        self.t_start = session.env.clock();
        self.protocol = self
            .schedule
            .borrow()
            .protocol
            .unwrap_or(self.trace.borrow().protocol);

        if self.protocol == TraceProtocol::Tcp {
            session.isn_counter = session.isn_counter.wrapping_add(97_000);
            self.client_isn = session.isn_counter;
            let syn = Packet::tcp(
                self.client_addr,
                SERVER_ADDR,
                self.client_port,
                self.server_port,
                self.client_isn,
                0,
                Vec::new(),
            )
            .with_flags(TcpFlags::SYN);
            self.bytes_sent += syn.serialize().len() as u64;
            session.env.inject_client(Duration::ZERO, syn.serialize());
            session.env.run_until_idle();
            let inbox = session.env.take_client_inbox();
            let client_port = self.client_port;
            let syn_ack = inbox.iter().find_map(|(_, w)| {
                let p = ParsedPacket::parse(w)?;
                let t = p.tcp()?;
                (t.flags.syn && t.flags.ack && t.dst_port == client_port).then(|| t.seq)
            });
            self.inbox_log.extend(inbox);
            match syn_ack {
                Some(s) => {
                    self.server_isn = s;
                    let ack = Packet::tcp(
                        self.client_addr,
                        SERVER_ADDR,
                        self.client_port,
                        self.server_port,
                        self.client_isn.wrapping_add(1),
                        self.server_isn.wrapping_add(1),
                        Vec::new(),
                    )
                    .with_flags(TcpFlags::ACK);
                    self.bytes_sent += ack.serialize().len() as u64;
                    session.env.inject_client(Duration::ZERO, ack.serialize());
                    session.env.run_until_idle();
                }
                None => self.handshake_ok = false,
            }
        }
        // Quiesce for the yield: anything already delivered belongs to
        // this machine's log (collection time is invisible — the log is
        // only read at observation, in delivery order either way).
        self.inbox_log.extend(session.env.take_client_inbox());

        if !self.handshake_ok {
            return self.finish(session);
        }
        self.state = SmState::Steps(0);
        TaskPoll::Pending(Wake::Ready)
    }

    fn poll_step<S: Substrate>(
        &mut self,
        session: &mut Session<S>,
        idx: usize,
    ) -> TaskPoll<ReplayOutcome> {
        if idx >= self.schedule.borrow().steps.len() {
            // Trailing drain, exactly as the inline loop had after the
            // last step (a no-op on an already-quiesced backend).
            session.env.run_until_idle();
            self.inbox_log.extend(session.env.take_client_inbox());
            return self.finish(session);
        }
        session.env.journal().metrics.incr(Counter::StepsLowered);
        self.state = SmState::Steps(idx + 1);
        let wake = {
            let schedule = self.schedule.borrow();
            match &schedule.steps[idx] {
                Step::Pause(d) => Wake::Timer(*d),
                Step::AwaitServer { .. } => {
                    // run_until_idle drains even shaper-delayed
                    // deliveries, so one pass suffices.
                    Wake::Ready
                }
                Step::Packet(sp) => {
                    if sp.counts && !sp.payload.is_empty() && self.first_data_sent.is_none() {
                        self.first_data_sent = Some(session.env.clock());
                    }
                    for wire in build_wire_packets(
                        self.protocol,
                        sp,
                        self.client_addr,
                        self.client_port,
                        self.server_port,
                        self.client_isn,
                        self.server_isn,
                        self.replay_no,
                        &self.opts,
                    ) {
                        self.bytes_sent += wire.len() as u64;
                        session.env.inject_client(Duration::ZERO, wire);
                    }
                    Wake::Ready
                }
            }
        };
        session.env.run_until_idle();
        self.inbox_log.extend(session.env.take_client_inbox());
        TaskPoll::Pending(wake)
    }

    /// Observation and bookkeeping — the back half of the old inline
    /// replay, byte-for-byte.
    fn finish<S: Substrate>(&mut self, session: &mut Session<S>) -> TaskPoll<ReplayOutcome> {
        session.bytes_sent_total += self.bytes_sent;
        let trace = self.trace.borrow();
        let client_port = self.client_port;
        let protocol = self.protocol;

        // ----- Observe.
        let InboxObservation {
            rsts,
            block_page,
            meter,
            server_payload,
            icmp,
            first_payload_at,
            response_matches,
        } = observe_inbox(&self.inbox_log, client_port, protocol, &trace.table);

        let expected_server_bytes = trace.table.bytes();

        // Server-side integrity: the delivered stream must match the
        // trace's client stream (after prefix skipping).
        let expected_client = trace.client_stream.as_slice();
        let integrity_ok = {
            // lint: allow(no-panic) contract: obs installed in the Init poll
            let obs = self.obs.as_ref().expect("script installed at init").lock();
            match protocol {
                TraceProtocol::Tcp => {
                    let got = obs.received_stream.as_slice();
                    expected_client.starts_with(got) || got.starts_with(expected_client)
                }
                TraceProtocol::Udp => obs
                    .datagrams
                    .iter()
                    .all(|d| trace.client_messages().any(|m| m.starts_with(d))),
            }
        };

        session.bytes_received_total += server_payload;

        let request_to_response = match (self.first_data_sent, first_payload_at) {
            (Some(a), Some(b)) if b >= a => Some(b - a),
            _ => None,
        };

        let duration = session.env.clock() - self.t_start;
        let outcome = ReplayOutcome {
            client_addr: self.client_addr,
            client_port,
            server_port: self.server_port,
            handshake_ok: self.handshake_ok,
            rsts,
            block_page,
            server_payload_bytes: server_payload,
            expected_server_bytes,
            complete: server_payload >= expected_server_bytes && expected_server_bytes > 0,
            integrity_ok,
            bytes_sent: self.bytes_sent,
            duration,
            avg_bps: meter.average_bps(),
            peak_bps: meter.peak_bps(Duration::from_secs(1)),
            request_to_response,
            response_matches,
            icmp,
        };
        // lint: allow(obs-coverage: ReplayFinished) the paired
        // ReplaysExecuted increment happens in poll_init — one state
        // machine, split across polls.
        session.env.journal().record(
            session.env.clock().as_micros(),
            EventKind::ReplayFinished {
                replay: self.replay_no,
                bytes_sent: self.bytes_sent,
                server_bytes: server_payload,
                blocked: outcome.blocked(),
            },
        );
        session
            .env
            .journal()
            .span_end(session.env.clock().as_micros(), Phase::Replay);
        if let Some(host_start) = self.host_start {
            // lint: allow(obs-coverage: ReplayHostMicros) paired with the
            // ReplaysExecuted increment in poll_init.
            session.env.journal().observe(
                Hist::ReplayHostMicros,
                host_start.elapsed().as_micros() as u64,
            );
        }
        // Lane flows tear their scripted server (and its connection
        // state) down on completion, bounding endpoint memory when a
        // reactor drives very many flows through one host.
        if let Some(l) = self.lane {
            session.env.remove_server_script_for(l.client_addr);
        }
        self.state = SmState::Done;
        TaskPoll::Done(outcome)
    }
}

/// The content-modification check reads at most this many leading bytes
/// of the server stream (large video traces).
const RESPONSE_CHECK_BYTES: usize = 1 << 20;

/// What the client side saw of one replay, read from its inbox.
#[derive(Default)]
struct InboxObservation {
    rsts: usize,
    block_page: bool,
    meter: ThroughputMeter,
    server_payload: u64,
    icmp: Vec<IcmpError>,
    first_payload_at: Option<SimTime>,
    response_matches: bool,
}

/// Classify the packets delivered to the client: ICMP errors, RSTs and
/// block pages on our flow, and server payload. Reads headers and
/// payloads in place; nothing is copied.
fn observe_inbox(
    inbox: &[(SimTime, PacketBuf)],
    client_port: u16,
    protocol: TraceProtocol,
    expected: &ResponseTable,
) -> InboxObservation {
    let mut obs = InboxObservation {
        meter: ThroughputMeter::with_capacity(inbox.len()),
        ..InboxObservation::default()
    };
    let mut received: Vec<&[u8]> = Vec::with_capacity(inbox.len());
    for (at, wire) in inbox {
        let Some((ip, transport, payload_offset)) = ParsedPacket::parse_headers(wire) else {
            continue;
        };
        // Only an ICMP packet can be an ICMP error.
        if ip.protocol == liberate_packet::ipv4::protocol::ICMP {
            if let Some(e) = parse_icmp_error(wire) {
                obs.icmp.push(e);
                continue;
            }
        }
        let (dst_port, rst) = match &transport {
            ParsedTransport::Tcp(t) => (Some(t.dst_port), t.flags.rst),
            ParsedTransport::Udp(u) => (Some(u.dst_port), false),
            ParsedTransport::Other(_) => (None, false),
        };
        if dst_port != Some(client_port) && protocol != TraceProtocol::Udp {
            continue;
        }
        if rst {
            obs.rsts += 1;
            continue;
        }
        let payload = &wire[payload_offset..];
        if payload.starts_with(b"HTTP/1.1 403 Forbidden") {
            obs.block_page = true;
            continue;
        }
        if !payload.is_empty() {
            obs.server_payload += payload.len() as u64;
            obs.meter.record(*at, payload.len());
            obs.first_payload_at.get_or_insert(*at);
            received.push(payload);
        }
    }
    // Content-modification check: the bytes the client received must be
    // a prefix of the trace's server stream.
    let expected = expected.responses().iter().map(|r| r.as_slice());
    obs.response_matches = response_matches(received, expected);
    obs
}

/// Whether the `received` stream agrees with the `expected` stream over
/// the bytes both cover, within the first [`RESPONSE_CHECK_BYTES`]. Both
/// streams arrive as pieces and are compared piece against piece in
/// place; neither is ever joined.
fn response_matches<'a>(
    received: impl IntoIterator<Item = &'a [u8]>,
    expected: impl IntoIterator<Item = &'a [u8]>,
) -> bool {
    let mut expected = expected.into_iter();
    let mut want: &[u8] = &[];
    let mut budget = RESPONSE_CHECK_BYTES;
    for piece in received {
        let mut got = &piece[..piece.len().min(budget)];
        budget -= got.len();
        while !got.is_empty() {
            if want.is_empty() {
                match expected.next() {
                    Some(m) => want = m,
                    // Received more than the trace holds: nothing left
                    // to compare against.
                    None => return true,
                }
                continue;
            }
            let n = got.len().min(want.len());
            if got[..n] != want[..n] {
                return false;
            }
            got = &got[n..];
            want = &want[n..];
        }
        if budget == 0 {
            break;
        }
    }
    true
}

/// Lower one scheduled packet to wire bytes. `ident` seeds the IP
/// identification pattern (the session-global replay number inline;
/// the lane-local one on reactor lanes, where the per-lane client
/// address keeps reassembly keys disjoint anyway).
#[allow(clippy::too_many_arguments)]
fn build_wire_packets(
    protocol: TraceProtocol,
    sp: &ScheduledPacket,
    client_addr: Ipv4Addr,
    client_port: u16,
    server_port: u16,
    client_isn: u32,
    server_isn: u32,
    ident: u64,
    opts: &ReplayOpts,
) -> Vec<Vec<u8>> {
    let mut pkt = match protocol {
        TraceProtocol::Tcp => {
            let seq = client_isn.wrapping_add(1).wrapping_add(sp.offset as u32);
            Packet::tcp(
                client_addr,
                SERVER_ADDR,
                client_port,
                server_port,
                seq,
                server_isn.wrapping_add(1),
                sp.payload.clone(),
            )
        }
        TraceProtocol::Udp => Packet::udp(
            client_addr,
            SERVER_ADDR,
            client_port,
            server_port,
            sp.payload.clone(),
        ),
    };
    if let Some(ttl) = opts.data_ttl {
        pkt.ip.ttl = ttl;
    }
    pkt.ip.identification = (ident as u16)
        .wrapping_mul(251)
        .wrapping_add((sp.offset as u16).wrapping_mul(31));
    sp.craft.apply(&mut pkt);
    let wire = pkt.serialize();

    match &sp.fragment {
        None => vec![wire],
        Some(plan) => {
            // Convert the payload-relative boundary into an IP-payload
            // boundary (transport header included), rounded down to
            // the fragmentation granularity.
            let transport_header = wire.len() - 20 - sp.payload.len();
            let boundary = plan
                .boundary
                .map(|b| transport_header + b)
                .unwrap_or((wire.len() - 20) / plan.pieces.max(1));
            let chunk = (boundary / 8).max(1) * 8;
            let mut frags = fragment_packet(&wire, chunk);
            if plan.reverse {
                frags.reverse();
            }
            frags
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use liberate_traces::apps;
    use liberate_traces::recorded::TraceMessage;

    fn session(kind: EnvKind) -> Session {
        Session::new(kind, OsKind::Linux, LiberateConfig::default())
    }

    #[test]
    fn clean_replay_in_sprint_completes() {
        let mut s = session(EnvKind::Sprint);
        let trace = apps::control_http();
        let out = s.replay_trace(&trace, &ReplayOpts::default());
        assert!(out.handshake_ok);
        assert!(out.complete, "{out:?}");
        assert!(out.integrity_ok);
        assert!(!out.blocked());
        assert_eq!(out.server_payload_bytes, out.expected_server_bytes);
        assert!(out.bytes_sent > 0);
    }

    #[test]
    fn blocked_replay_in_gfc_reports_rsts() {
        let mut s = session(EnvKind::Gfc);
        let trace = apps::economist_http();
        let out = s.replay_trace(&trace, &ReplayOpts::default());
        assert!(out.blocked());
        assert!(out.rsts >= 3, "GFC sends 3-5 RSTs, got {}", out.rsts);
    }

    #[test]
    fn iran_reports_block_page() {
        let mut s = session(EnvKind::Iran);
        let trace = apps::facebook_http();
        let out = s.replay_trace(&trace, &ReplayOpts::default());
        assert!(out.block_page);
        assert!(out.rsts >= 1);
    }

    #[test]
    fn udp_replay_round_trips() {
        let mut s = session(EnvKind::Sprint);
        let trace = apps::skype_stun(6);
        let out = s.replay_trace(&trace, &ReplayOpts::default());
        assert!(out.complete, "{out:?}");
        assert!(out.integrity_ok);
    }

    #[test]
    fn throttling_shows_in_throughput() {
        let mut tm = session(EnvKind::TMobile);
        let video = apps::amazon_prime_http(2_000_000);
        let throttled = tm.replay_trace(&video, &ReplayOpts::default());
        assert!(throttled.complete);
        let mut sp = session(EnvKind::Sprint);
        let free = sp.replay_trace(&video, &ReplayOpts::default());
        assert!(free.complete);
        assert!(
            throttled.avg_bps < free.avg_bps * 0.7,
            "throttled {} vs free {}",
            throttled.avg_bps,
            free.avg_bps
        );
    }

    #[test]
    fn technique_replay_evades_gfc_with_rst_before_match() {
        let mut s = session(EnvKind::Gfc);
        let trace = apps::economist_http();
        let ctx = EvasionContext::blind(
            b"GET / HTTP/1.1\r\nHost: www.example.org\r\n\r\n".to_vec(),
            s.env.hops_before_middlebox + 1,
        );
        let out = s
            .replay_with(
                &trace,
                &Technique::TtlRstBeforeMatch,
                &ctx,
                &ReplayOpts::default(),
            )
            .unwrap();
        assert!(!out.blocked(), "{out:?}");
        assert!(out.complete);
        assert!(out.integrity_ok);
    }

    #[test]
    fn data_ttl_probe_gets_icmp() {
        let mut s = session(EnvKind::Gfc);
        let trace = apps::control_http();
        let out = s.replay_trace(
            &trace,
            &ReplayOpts {
                data_ttl: Some(2),
                ..Default::default()
            },
        );
        assert!(!out.icmp.is_empty(), "TTL=2 data should trigger ICMP");
        assert!(!out.complete);
    }

    #[test]
    fn dummy_prefix_with_server_support() {
        let mut s = session(EnvKind::Gfc);
        let trace = apps::economist_http();
        let ctx = EvasionContext::blind(Vec::new(), 10);
        let out = s
            .replay_with(
                &trace,
                &Technique::DummyPrefixData { bytes: 1 },
                &ctx,
                &ReplayOpts::default(),
            )
            .unwrap();
        assert!(!out.blocked(), "dummy prefix evades the GFC: {out:?}");
        assert!(out.complete);
        assert!(out.integrity_ok, "server skipped the prefix");
    }

    /// `len` bytes of a deterministic pattern starting at stream offset
    /// `from`.
    fn stream(from: usize, len: usize) -> Vec<u8> {
        (from..from + len).map(|i| (i % 251) as u8).collect()
    }

    #[test]
    fn response_matches_across_different_piece_boundaries() {
        let expected = [stream(0, 1460), stream(1460, 1460), stream(2920, 80)];
        let received = [stream(0, 1000), stream(1000, 2000)];
        assert!(response_matches(
            received.iter().map(|p| p.as_slice()),
            expected.iter().map(|m| m.as_slice()),
        ));
    }

    #[test]
    fn response_mismatch_inside_the_first_mib() {
        let expected = [stream(0, 1460), stream(1460, 1460)];
        let mut tampered = stream(1000, 1000);
        tampered[700] ^= 0xff; // stream offset 1700, in the second message
        let received = [stream(0, 1000), tampered];
        assert!(!response_matches(
            received.iter().map(|p| p.as_slice()),
            expected.iter().map(|m| m.as_slice()),
        ));
    }

    #[test]
    fn response_mismatch_past_the_first_mib_still_matches() {
        let mib = RESPONSE_CHECK_BYTES;
        let expected: Vec<Vec<u8>> = (0..2 * mib)
            .step_by(1460)
            .map(|at| stream(at, 1460.min(2 * mib - at)))
            .collect();
        // The received pieces straddle the 1 MiB mark; flip one byte at
        // stream offset `bad`.
        let matches_with_bad_byte_at = |bad: usize| {
            let mut tail = stream(mib - 100, 1000);
            tail[bad + 100 - mib] ^= 0xff;
            let received = [stream(0, mib - 100), tail];
            response_matches(
                received.iter().map(|p| p.as_slice()),
                expected.iter().map(|m| m.as_slice()),
            )
        };
        assert!(matches_with_bad_byte_at(mib));
        assert!(!matches_with_bad_byte_at(mib - 1));
    }

    #[test]
    fn short_reception_matches_its_prefix() {
        let expected = [stream(0, 1460), stream(1460, 1460)];
        let received = [stream(0, 1460), stream(1460, 10)];
        assert!(response_matches(
            received.iter().map(|p| p.as_slice()),
            expected.iter().map(|m| m.as_slice()),
        ));
        assert!(response_matches([], expected.iter().map(|m| m.as_slice())));
    }

    #[test]
    fn trace_without_server_bytes_matches_anything() {
        let received = [b"unexpected".to_vec()];
        assert!(response_matches(
            received.iter().map(|p| p.as_slice()),
            std::iter::empty(),
        ));
        let mut trace = RecordedTrace::new("upload", TraceProtocol::Tcp, 80);
        trace.push_message(TraceMessage::client(&b"PUT / HTTP/1.1\r\n\r\n"[..]));
        let inbox = [(
            SimTime::ZERO,
            to_client(1, b"unexpected", TcpFlags::PSH_ACK),
        )];
        let table = LoweredTrace::new(&trace).table;
        assert!(observe_inbox(&inbox, 40_000, TraceProtocol::Tcp, &table).response_matches);
    }

    fn to_client(seq: u32, payload: &[u8], flags: TcpFlags) -> PacketBuf {
        let pkt = Packet::tcp(
            SERVER_ADDR,
            CLIENT_ADDR,
            80,
            40_000,
            seq,
            1,
            payload.to_vec(),
        );
        PacketBuf::from(pkt.with_flags(flags).serialize())
    }

    #[test]
    fn rsts_and_block_pages_are_left_out_of_the_response() {
        let mut trace = RecordedTrace::new("web", TraceProtocol::Tcp, 80);
        trace.push_message(TraceMessage::client(&b"GET / HTTP/1.1\r\n\r\n"[..]));
        trace.push_stream(Sender::Server, &stream(0, 3000));
        let inbox: Vec<(SimTime, PacketBuf)> = [
            to_client(1, b"HTTP/1.1 403 Forbidden\r\n\r\n", TcpFlags::PSH_ACK),
            to_client(1, b"garbage riding an RST", TcpFlags::RST),
            to_client(1, &stream(0, 1460), TcpFlags::PSH_ACK),
            to_client(1461, &stream(1460, 1540), TcpFlags::PSH_ACK),
        ]
        .into_iter()
        .map(|w| (SimTime::ZERO, w))
        .collect();
        let table = LoweredTrace::new(&trace).table;
        let seen = observe_inbox(&inbox, 40_000, TraceProtocol::Tcp, &table);
        assert!(seen.response_matches);
        assert!(seen.block_page);
        assert_eq!(seen.rsts, 1);
        assert_eq!(seen.server_payload, 3000);
        // The same bytes with one flipped do not match.
        let mut tampered = inbox;
        tampered[3].1 = to_client(1461, &stream(1461, 1540), TcpFlags::PSH_ACK);
        assert!(!observe_inbox(&tampered, 40_000, TraceProtocol::Tcp, &table).response_matches);
    }

    #[test]
    fn client_prefix_equals_lowering_the_prepended_trace() {
        let trace = apps::skype_stun(4);
        let base = LoweredTrace::new(&trace);
        let prefix: [&[u8]; 2] = [b"abc", b"de"];
        let mut prepended = trace.clone();
        for piece in prefix.iter().rev() {
            prepended.messages.insert(0, TraceMessage::client(*piece));
        }
        let want = LoweredTrace::new(&prepended);
        let got = base.with_client_prefix(&prefix);
        assert!(Arc::ptr_eq(&got.table, &base.table), "the table is shared");
        assert_eq!(*got.table, *want.table);
        assert_eq!(got.client_stream, want.client_stream);
        assert_eq!(got.client_ends, want.client_ends);
        assert_eq!(got.releases, want.releases);
        assert_eq!(
            got.script(3).releases,
            server_script(&prepended, 3).releases
        );
    }

    #[test]
    fn port_rotation_changes_server_port() {
        let mut s = session(EnvKind::Sprint);
        let trace = apps::control_http();
        let out = s.replay_trace(
            &trace,
            &ReplayOpts {
                server_port: Some(8080),
                ..Default::default()
            },
        );
        assert_eq!(out.server_port, 8080);
        assert!(out.complete);
    }
}
