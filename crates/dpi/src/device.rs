//! The DPI middlebox: a [`PathElement`] combining the rule engine,
//! inspection policy, validation model, flow table, and policy actions.
//!
//! The device is deliberately *configurable in its imperfections*: every
//! behavioural axis the paper exploits (lax validation, packet windows,
//! gated or absent reassembly, state timeouts, RST handling) is a knob, and
//! [`crate::profiles`] sets the knobs to reproduce the six environments
//! of §6.

use std::collections::HashMap;
use std::sync::Arc;

use liberate_netsim::element::{CopyTally, Effects, PacketBuf, PathElement, TimedPacket, Verdict};
use liberate_netsim::shaper::TokenBucket;
use liberate_obs::{Counter, EventKind, Hist, Journal};
use liberate_packet::flow::{Direction, FlowKey};
use liberate_packet::packet::{Packet, ParsedPacket};
use liberate_packet::tcp::TcpFlags;
use liberate_substrate::time::SimTime;

use crate::actions::Policy;
use crate::automaton::{CompiledRuleSet, MatcherKind};
use crate::flowtable::{Classification, FlowEntry, FlowTable, GateStatus, StreamDelta};
use crate::inspect::{FlowConfig, InspectionPolicy, ReassemblyMode};
use crate::matcher::starts_with_any;
use crate::resource::TimeOfDayLoad;
use crate::rules::RuleSet;
use crate::sharded::ShardedFlowTable;
use crate::validation::ValidationModel;

/// Default stream-assembly window when the reassembly mode does not
/// specify one.
const DEFAULT_WINDOW_BYTES: usize = 16 * 1024;

/// Bytes-per-packet assumption when sizing a packet-count window.
const SERVER_MSS_BYTES: usize = 1500;

/// The policy of a classified flow whose class has none configured:
/// billed and forwarded untouched (`Policy::default()`).
static NO_POLICY: Policy = Policy {
    throttle: None,
    zero_rate: false,
    block: None,
    delay: None,
    rewrite: None,
};

/// Full configuration of a DPI device.
#[derive(Debug, Clone)]
pub struct DpiConfig {
    pub name: String,
    pub rules: RuleSet,
    pub inspect: InspectionPolicy,
    pub validation: ValidationModel,
    pub flow: FlowConfig,
    /// Traffic class → policy.
    pub policies: HashMap<String, Policy>,
    /// Time-of-day resource model overriding the tracking timeout.
    pub resource: Option<TimeOfDayLoad>,
    /// Parse the transport header even when the IP protocol field is
    /// bogus (the testbed device classifies "wrong protocol" packets as if
    /// they were TCP — Table 3 footnote 1). Strict devices leave this off.
    pub loose_transport_parsing: bool,
    /// Which matcher implementation inspects payloads. Verdicts are
    /// byte-identical either way (pinned by the matcher parity tests);
    /// the automaton feeds each stream byte once instead of rescanning.
    pub matcher: MatcherKind,
}

/// One classification event, for diagnostics and the testbed's immediate
/// readout.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClassificationEvent {
    pub at: SimTime,
    pub flow: FlowKey,
    pub class: String,
    pub rule_id: String,
}

/// The middlebox.
pub struct DpiDevice {
    pub config: DpiConfig,
    /// Flow state, possibly shared with sibling devices in a session
    /// pool. A solo device (via [`DpiDevice::new`]) owns its own table.
    table: Arc<ShardedFlowTable>,
    /// Bytes attributed to the subscriber's quota.
    pub billed_bytes: u64,
    /// Bytes zero-rated under a matched policy.
    pub zero_rated_bytes: u64,
    /// Log of every classification made.
    pub events: Vec<ClassificationEvent>,
    /// Latest packet time seen, used by the readout API for expiry.
    last_seen: SimTime,
    /// Observability journal, attached by the owning `Network`.
    journal: Option<Arc<Journal>>,
    /// Flow churn this device caused but has not yet reported to the
    /// journal. Per-device deltas (captured from the shard guard), not
    /// table totals: with a shared table, totals mix in sibling devices'
    /// churn and would double-report.
    flows_created_pending: u64,
    flows_evicted_pending: u64,
    /// Per-flow scanned-byte figures drained from the shard but not yet
    /// observed into the bytes-scanned histogram.
    evicted_scanned_pending: Vec<u64>,
    /// Lazily compiled automaton over `config.rules` + gate prefixes
    /// (`None` until first use, or always under `MatcherKind::NaiveRescan`).
    compiled: Option<Arc<CompiledRuleSet>>,
}

impl DpiDevice {
    pub fn new(config: DpiConfig) -> DpiDevice {
        DpiDevice::with_shared_table(config, Arc::new(ShardedFlowTable::default()))
    }

    /// A device fronting a table shared with other devices — the pooled
    /// engine builds one device per worker network, all handing packets
    /// to the same sharded state.
    pub fn with_shared_table(config: DpiConfig, table: Arc<ShardedFlowTable>) -> DpiDevice {
        DpiDevice {
            config,
            table,
            billed_bytes: 0,
            zero_rated_bytes: 0,
            events: Vec::new(),
            last_seen: SimTime::ZERO,
            journal: None,
            flows_created_pending: 0,
            flows_evicted_pending: 0,
            evicted_scanned_pending: Vec::new(),
            compiled: None,
        }
    }

    /// The compiled automaton for this device's rules, building it on
    /// first use. `None` under [`MatcherKind::NaiveRescan`]. Callers hold
    /// the returned `Arc` across flow-table borrows.
    fn compiled_rules(&mut self) -> Option<Arc<CompiledRuleSet>> {
        if self.config.matcher == MatcherKind::NaiveRescan {
            return None;
        }
        if self.compiled.is_none() {
            let compiled = Arc::new(CompiledRuleSet::compile(
                &self.config.rules,
                self.config.inspect.reassembly.gate_prefixes(),
            ));
            if let Some(j) = &self.journal {
                j.metrics
                    .add(Counter::AutomatonStates, compiled.state_count() as u64);
            }
            self.compiled = Some(compiled);
        }
        self.compiled.clone()
    }

    /// Drop the compiled automaton so the next packet recompiles — for
    /// tests and tools that mutate `config.rules` or `config.matcher`
    /// after the device has already inspected traffic.
    pub fn invalidate_compiled_rules(&mut self) {
        self.compiled = None;
    }

    /// Tell the device time has passed without traffic. `last_seen` (the
    /// clock expiry and journaled management events read) normally moves
    /// only when a packet is inspected; drivers that quiesce the device
    /// and then act on it (rule swaps, batch reclamation) call this first
    /// so the action is stamped at the driver's clock rather than the
    /// last packet's. Monotonic: never moves the clock backwards — lane-
    /// virtualized engines whose per-flow timestamps lag the session
    /// clock rely on that.
    pub fn observe_now(&mut self, now: SimTime) {
        self.last_seen = self.last_seen.max(now);
    }

    /// Replace this device's rule set in place — the scripted
    /// "classifier changed under us" event benches and deployment tests
    /// use to exercise re-characterization. Existing flow state is kept
    /// (live flows keep their verdicts until expiry, like a real
    /// middlebox taking a rule push); the compiled automaton is dropped
    /// so the next inspected packet compiles the new rules. Journaled as
    /// a `rule_swap` event plus the `rule-swaps` counter.
    pub fn hot_swap_rules(&mut self, rules: RuleSet) {
        self.config.rules = rules;
        self.invalidate_compiled_rules();
        self.journal_incr(Counter::RuleSwaps);
        self.journal_record(
            self.last_seen,
            EventKind::RuleSwap {
                device: self.config.name.clone(),
                rules: self.config.rules.rules.len() as u64,
            },
        );
    }

    /// The flow state this device fronts (for sharing with a sibling or
    /// inspecting from tests).
    pub fn shared_table(&self) -> Arc<ShardedFlowTable> {
        Arc::clone(&self.table)
    }

    /// Report this device's pending flow-churn deltas to the journal.
    /// Runs after every processed packet so the counters are exact at
    /// packet boundaries (the table also evicts lazily inside `lookup`).
    /// Deltas accumulated while no journal is attached stay local, like
    /// pre-attachment totals did before sharding.
    fn sync_flow_metrics(&mut self) {
        let created = std::mem::take(&mut self.flows_created_pending);
        let evicted = std::mem::take(&mut self.flows_evicted_pending);
        let scanned = std::mem::take(&mut self.evicted_scanned_pending);
        let Some(j) = &self.journal else {
            return;
        };
        if created > 0 {
            j.metrics.add(Counter::FlowsCreated, created);
        }
        if evicted > 0 {
            j.metrics.add(Counter::FlowsEvicted, evicted);
        }
        for bytes in scanned {
            j.observe(Hist::FlowBytesScanned, bytes);
        }
    }

    /// Between-wave batch reclamation: evict every flow idle past its
    /// deadline in one sweep — one lock acquisition per shard instead of
    /// one per future lookup — and journal the churn (`flows-evicted`
    /// plus the bytes-scanned histogram) immediately. The deployment
    /// pool calls this once per wave, while its workers are quiescent.
    /// Returns the number of flows evicted.
    pub fn drain_expired_flows(&mut self) -> u64 {
        let batch = self.table.drain_expired(
            self.last_seen,
            &self.config.flow,
            self.config.resource.as_ref(),
        );
        self.flows_evicted_pending += batch.evicted;
        self.evicted_scanned_pending.extend(batch.scanned);
        self.sync_flow_metrics();
        batch.evicted
    }

    /// Fold a finished shard guard's churn into this device's pending
    /// deltas.
    fn absorb_shard_deltas(&mut self, mut shard: crate::sharded::ShardGuard<'_>) {
        let (created, evicted) = shard.deltas();
        let scanned = shard.drain_evicted_scanned();
        drop(shard);
        self.flows_created_pending += created;
        self.flows_evicted_pending += evicted;
        self.evicted_scanned_pending.extend(scanned);
    }

    fn journal_record(&self, now: SimTime, kind: EventKind) {
        if let Some(j) = &self.journal {
            j.record(now.as_micros(), kind);
        }
    }

    fn journal_incr(&self, c: Counter) {
        if let Some(j) = &self.journal {
            j.metrics.incr(c);
        }
    }

    /// The testbed readout: current classification of a flow, if any.
    pub fn classification_of(&mut self, key: FlowKey) -> Option<String> {
        // Peek without refreshing activity; expiry is applied so a flushed
        // result reads as unclassified.
        let now = self.last_seen;
        let table = Arc::clone(&self.table);
        let mut shard = table.shard(key);
        let class = shard
            .lookup(key, now, &self.config.flow, self.config.resource.as_ref())
            .and_then(|e| e.classification.as_ref())
            .map(|c| c.class.clone());
        self.absorb_shard_deltas(shard);
        class
    }

    /// Most recent classification event, if any.
    pub fn last_event(&self) -> Option<&ClassificationEvent> {
        self.events.last()
    }

    /// Forget all flow state and counters (between experiment runs).
    /// With a shared table this resets flows *and* penalties for every
    /// device on it, so pooled workers must be quiescent.
    pub fn reset(&mut self) {
        self.table.reset_all();
        self.billed_bytes = 0;
        self.zero_rated_bytes = 0;
        self.events.clear();
    }

    fn window_bytes(&self) -> usize {
        match &self.config.inspect.reassembly {
            ReassemblyMode::FullStream { window_bytes, .. } => *window_bytes,
            _ => DEFAULT_WINDOW_BYTES,
        }
    }

    fn account(&mut self, zero_rated: bool, len: usize) {
        if zero_rated {
            self.zero_rated_bytes += len as u64;
        } else {
            self.billed_bytes += len as u64;
        }
    }

    /// Inspect one payload-bearing packet for a tracked flow. Returns the
    /// matched (class, rule id) if classification fires now, plus the
    /// payload bytes the matcher examined (for `matcher-bytes-scanned`).
    ///
    /// `compiled` selects the implementation: `None` runs the naive
    /// reference rescanner, `Some` streams bytes through the automaton.
    /// Both produce identical verdicts; the parity tests pin this.
    #[allow(clippy::too_many_arguments)]
    fn inspect(
        entry: &mut FlowEntry,
        config: &DpiConfig,
        compiled: Option<&CompiledRuleSet>,
        pkt: &ParsedPacket,
        payload: &PacketBuf,
        dir: Direction,
        server_port: u16,
    ) -> (Option<(String, String)>, u64) {
        let Some(tracking) = entry.tracking.as_mut() else {
            return (None, 0);
        };
        let (idx, offset) = match dir {
            Direction::ClientToServer => (
                tracking.client_payload_packets,
                tracking.client_payload_bytes,
            ),
            Direction::ServerToClient => (
                tracking.server_payload_packets,
                tracking.server_payload_bytes,
            ),
        };
        // Count this payload packet (whether or not it ends up matched).
        match dir {
            Direction::ClientToServer => {
                tracking.client_payload_packets += 1;
                tracking.client_payload_bytes += pkt.payload.len() as u64;
            }
            Direction::ServerToClient => {
                tracking.server_payload_packets += 1;
                tracking.server_payload_bytes += pkt.payload.len() as u64;
            }
        }

        // Gate evaluation on the first client-direction payload packet.
        if dir == Direction::ClientToServer && tracking.gate == GateStatus::Pending {
            tracking.gate = match config.inspect.reassembly.gate_prefixes() {
                None => GateStatus::Passed,
                Some(prefixes) => {
                    if starts_with_any(&pkt.payload, prefixes) {
                        GateStatus::Passed
                    } else {
                        GateStatus::Failed
                    }
                }
            };
        }

        let rule_at = |i: usize| {
            let r = &config.rules.rules[i];
            (r.class.clone(), r.id.clone())
        };
        match &config.inspect.reassembly {
            ReassemblyMode::PerPacket => {
                if !config.inspect.within_scope_at(idx, offset) {
                    return (None, 0);
                }
                match compiled {
                    Some(c) => {
                        let (m, scanned) = c.first_match_packet(
                            &config.rules,
                            &pkt.payload,
                            dir,
                            server_port,
                            Some(idx),
                        );
                        (m.map(rule_at), scanned)
                    }
                    None => {
                        let (m, scanned) = config.rules.first_match_counted(
                            &pkt.payload,
                            dir,
                            server_port,
                            Some(idx),
                        );
                        (m.map(|r| (r.class.clone(), r.id.clone())), scanned)
                    }
                }
            }
            ReassemblyMode::GatedPerPacket { .. } => {
                if tracking.gate != GateStatus::Passed
                    || !config.inspect.within_scope_at(idx, offset)
                {
                    return (None, 0);
                }
                match compiled {
                    Some(c) => {
                        let (m, scanned) = c.first_match_packet(
                            &config.rules,
                            &pkt.payload,
                            dir,
                            server_port,
                            Some(idx),
                        );
                        (m.map(rule_at), scanned)
                    }
                    None => {
                        let (m, scanned) = config.rules.first_match_counted(
                            &pkt.payload,
                            dir,
                            server_port,
                            Some(idx),
                        );
                        (m.map(|r| (r.class.clone(), r.id.clone())), scanned)
                    }
                }
            }
            ReassemblyMode::GatedStream { window_packets, .. } => {
                if tracking.gate != GateStatus::Passed || dir != Direction::ClientToServer {
                    return (None, 0);
                }
                let seq = pkt.tcp().map(|t| t.seq).unwrap_or(0);
                match compiled {
                    None => {
                        if tracking.window_packets.len() < *window_packets {
                            // The window buffers a view of the in-flight
                            // wire buffer, not a copy.
                            // lint: allow(payload-copy) PacketBuf refcount bump
                            tracking.window_packets.push((seq, payload.clone()));
                        }
                        // Sequence-anchored reassembly of the window, anchored at
                        // the first *arriving* payload packet, first-wins on
                        // overlap (so a same-sequence inert decoy shadows the real
                        // data). Data before the anchor or beyond the window is
                        // invisible.
                        let mut asm = crate::flowtable::StreamAssembler::new(
                            window_packets * SERVER_MSS_BYTES,
                        );
                        asm.base_seq = Some(tracking.window_packets[0].0);
                        for (seq, payload) in &tracking.window_packets {
                            asm.insert(*seq, payload);
                        }
                        let stream = asm.assembled_prefix();
                        let (m, scanned) =
                            config
                                .rules
                                .first_match_counted(&stream, dir, server_port, None);
                        (m.map(|r| (r.class.clone(), r.id.clone())), scanned)
                    }
                    Some(c) => {
                        // Same window semantics, but the assembler persists
                        // across packets and only newly contiguous bytes are
                        // fed to the automaton. The packet cap counts pushed
                        // packets (in-window or not), like the naive buffer.
                        if tracking.window_asm.is_none() {
                            let mut asm = crate::flowtable::StreamAssembler::new(
                                window_packets * SERVER_MSS_BYTES,
                            );
                            asm.base_seq = Some(seq);
                            tracking.window_asm = Some(asm);
                        }
                        let asm = tracking.window_asm.as_mut().expect("just ensured");
                        if tracking.window_seen < *window_packets {
                            tracking.window_seen += 1;
                            asm.insert(seq, payload);
                        }
                        let scanned = match asm.drain_new_contiguous() {
                            StreamDelta::Restart(all) => {
                                tracking.window_scan.reset();
                                c.feed(&mut tracking.window_scan, &all);
                                all.len() as u64
                            }
                            StreamDelta::Append(new) => {
                                c.feed(&mut tracking.window_scan, &new);
                                new.len() as u64
                            }
                        };
                        let m = c.first_match_stream(
                            &config.rules,
                            &tracking.window_scan,
                            dir,
                            server_port,
                        );
                        (m.map(rule_at), scanned)
                    }
                }
            }
            ReassemblyMode::FullStream { gate_prefixes, .. } => {
                if dir != Direction::ClientToServer {
                    return (None, 0);
                }
                let seq = pkt.tcp().map(|t| t.seq).unwrap_or(0);
                if !tracking.stream.insert(seq, payload) {
                    return (None, 0); // out-of-window or no ISN anchor
                }
                match compiled {
                    None => {
                        let assembled = tracking.stream.assembled_prefix();
                        if assembled.is_empty() || !starts_with_any(&assembled, gate_prefixes) {
                            return (None, 0);
                        }
                        let (m, scanned) =
                            config
                                .rules
                                .first_match_counted(&assembled, dir, server_port, None);
                        (m.map(|r| (r.class.clone(), r.id.clone())), scanned)
                    }
                    Some(c) => {
                        // Feed only the newly contiguous bytes. The gate is
                        // compiled into the automaton: it passes iff a gate
                        // prefix occurred at stream offset 0, and once enough
                        // bytes are in to rule that out, appends are skipped
                        // entirely (a first-wins overlap rewrite triggers a
                        // Restart, which refeeds the real prefix).
                        let scanned = match tracking.stream.drain_new_contiguous() {
                            StreamDelta::Restart(all) => {
                                tracking.stream_scan.reset();
                                c.feed(&mut tracking.stream_scan, &all);
                                all.len() as u64
                            }
                            StreamDelta::Append(new) => {
                                if c.gate_failed(&tracking.stream_scan) {
                                    0
                                } else {
                                    c.feed(&mut tracking.stream_scan, &new);
                                    new.len() as u64
                                }
                            }
                        };
                        if tracking.stream_scan.fed_bytes() == 0
                            || !c.gate_passed(&tracking.stream_scan)
                        {
                            return (None, scanned);
                        }
                        let m = c.first_match_stream(
                            &config.rules,
                            &tracking.stream_scan,
                            dir,
                            server_port,
                        );
                        (m.map(rule_at), scanned)
                    }
                }
            }
        }
    }

    /// Fire a block action: inject RSTs (and optionally a block page)
    /// adjacent to this element.
    #[allow(clippy::too_many_arguments)]
    fn fire_block(
        &mut self,
        now: SimTime,
        dir: Direction,
        pkt: &ParsedPacket,
        key: FlowKey,
        effects: &mut Effects,
        class: &str,
    ) {
        let Some(policy) = self.config.policies.get(class) else {
            return;
        };
        let Some(block) = policy.block.clone() else {
            return;
        };
        // Orient addresses: who is the client for this packet?
        let (client, server, client_port, server_port) = match dir {
            Direction::ClientToServer => (pkt.ip.src, pkt.ip.dst, key.src_port, key.dst_port),
            Direction::ServerToClient => (pkt.ip.dst, pkt.ip.src, key.dst_port, key.src_port),
        };
        let (seq, ack, plen) = pkt
            .tcp()
            .map(|t| (t.seq, t.ack, pkt.payload.len() as u32))
            .unwrap_or((0, 0, 0));
        let (c_seq, c_ack) = match dir {
            Direction::ClientToServer => (ack, seq.wrapping_add(plen)),
            Direction::ServerToClient => (seq.wrapping_add(plen), ack),
        };

        if let Some(page) = &block.block_page {
            let pg = Packet::tcp(
                server,
                client,
                server_port,
                client_port,
                c_seq,
                c_ack,
                page.clone(),
            );
            effects.inject(
                Direction::ServerToClient,
                TimedPacket::now(now, pg.serialize()),
            );
        }
        for i in 0..block.rsts_to_client {
            let rst = Packet::tcp(
                server,
                client,
                server_port,
                client_port,
                c_seq.wrapping_add(i as u32),
                c_ack,
                Vec::new(),
            )
            .with_flags(TcpFlags::RST);
            effects.inject(
                Direction::ServerToClient,
                TimedPacket::now(now, rst.serialize()),
            );
        }
        for i in 0..block.rsts_to_server {
            let rst = Packet::tcp(
                client,
                server,
                client_port,
                server_port,
                c_ack.wrapping_add(i as u32),
                c_seq,
                Vec::new(),
            )
            .with_flags(TcpFlags::RST);
            effects.inject(
                Direction::ClientToServer,
                TimedPacket::now(now, rst.serialize()),
            );
        }
        if let Some(threshold) = block.server_port_penalty_after {
            self.table.record_blocked_flow(
                server,
                server_port,
                now,
                threshold,
                block.penalty_duration,
            );
        }
    }

    /// Apply the classified policy `c` of the packet's flow to a
    /// forwarded packet.
    fn forward_classified(
        &mut self,
        c: &mut Classification,
        now: SimTime,
        dir: Direction,
        wire: PacketBuf,
    ) -> Verdict {
        let policy = self.config.policies.get(&c.class).unwrap_or(&NO_POLICY);
        let (zero_rate, delay, throttle) = (policy.zero_rate, policy.delay, policy.throttle);
        let len = wire.len();

        // Content modification (server direction). The rewrite builds a
        // fresh buffer, so it is one of the few sanctioned deep copies on
        // the forwarding path.
        let mut wire = wire;
        if dir == Direction::ServerToClient {
            if let Some((find, replace)) = &policy.rewrite {
                if let Some(rewritten) =
                    liberate_packet::mutate::rewrite_tcp_payload(&wire, find, replace)
                {
                    if let Some(j) = &self.journal {
                        j.metrics.add(Counter::PayloadCopies, 1);
                        j.metrics
                            .add(Counter::PayloadBytesCopied, rewritten.len() as u64);
                    }
                    wire = rewritten.into();
                }
            }
        }

        self.account(zero_rate, len);

        // Deprioritization latency.
        let base = match delay {
            Some(d) => now + d,
            None => now,
        };

        let at = match (throttle, dir) {
            (Some((rate, burst)), Direction::ServerToClient) => c
                .shaper
                .get_or_insert_with(|| TokenBucket::new(rate, burst))
                .schedule(base, wire.len()),
            _ => base,
        };
        Verdict::Forward(TimedPacket { at, wire })
    }
}

impl PathElement for DpiDevice {
    fn name(&self) -> &str {
        &self.config.name
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }

    fn attach_journal(&mut self, journal: &Arc<Journal>) {
        // Churn accumulated before attachment stays local; the journal
        // sees deltas from this point on.
        self.flows_created_pending = 0;
        self.flows_evicted_pending = 0;
        self.journal = Some(journal.clone());
    }

    fn process(
        &mut self,
        now: SimTime,
        dir: Direction,
        wire: PacketBuf,
        effects: &mut Effects,
    ) -> Verdict {
        let verdict = self.process_packet(now, dir, wire, effects);
        self.sync_flow_metrics();
        verdict
    }
}

impl DpiDevice {
    fn process_packet(
        &mut self,
        now: SimTime,
        dir: Direction,
        wire: PacketBuf,
        effects: &mut Effects,
    ) -> Verdict {
        self.last_seen = now;
        let len = wire.len();
        let Some(mut pkt) = ParsedPacket::parse(&wire) else {
            self.account(false, len);
            return Verdict::pass(now, wire);
        };
        // A lax device parses the transport header regardless of a bogus
        // protocol number: re-view the bytes as TCP for classification
        // only (the forwarded packet is untouched).
        if self.config.loose_transport_parsing
            && pkt.ip.fragment_offset == 0
            && matches!(
                pkt.transport,
                liberate_packet::packet::ParsedTransport::Other(p)
                    if p != liberate_packet::ipv4::protocol::ICMP
            )
        {
            if wire.len() > 9 {
                // lint: allow(payload-copy) PacketBuf refcount bump; the
                // actual copy happens in make_mut below, which tallies it.
                let mut patched = wire.clone();
                let mut tally = CopyTally::default();
                patched.make_mut(&mut tally)[9] = liberate_packet::ipv4::protocol::TCP;
                if let Some(j) = &self.journal {
                    if !tally.is_empty() {
                        j.metrics.add(Counter::PayloadCopies, tally.copies);
                        j.metrics.add(Counter::PayloadBytesCopied, tally.bytes);
                    }
                }
                if let Some(as_tcp) = ParsedPacket::parse(&patched) {
                    if as_tcp.tcp().is_some() {
                        pkt = as_tcp;
                    }
                }
            }
        }

        // Packets failing the device's validation are invisible to the
        // classifier but still forwarded.
        if !self.config.validation.processes(&wire) {
            self.account(false, len);
            return Verdict::pass(now, wire);
        }

        // Fragments and unknown transports cannot be attributed to a flow.
        let Some(key) = FlowKey::from_packet(&pkt) else {
            self.account(false, len);
            return Verdict::pass(now, wire);
        };
        let (server_addr, server_port) = match dir {
            Direction::ClientToServer => (pkt.ip.dst, key.dst_port),
            Direction::ServerToClient => (pkt.ip.src, key.src_port),
        };

        // GFC-style residual penalty: all traffic toward a penalized
        // server:port is disrupted regardless of content.
        if dir == Direction::ClientToServer
            && self.table.is_penalized(server_addr, server_port, now)
        {
            // Find the blocking class to reuse its RST behaviour.
            if let Some(class) = self
                .config
                .policies
                .iter()
                .find(|(_, p)| p.block.is_some())
                .map(|(c, _)| c.clone())
            {
                self.fire_block(now, dir, &pkt, key, effects, &class);
            }
            self.account(false, len);
            return Verdict::pass(now, wire);
        }

        // Everything from here on reads or writes this flow's entry: take
        // the owning shard's lock once for the rest of the packet. The
        // guard borrows a local clone of the `Arc` so `self` stays free,
        // and its lifetime-counter deltas are folded into this device's
        // pending journal figures on the way out.
        let table = Arc::clone(&self.table);
        let mut shard = table.shard(key);
        let verdict =
            self.process_flow(&mut shard, now, dir, &pkt, key, wire, effects, server_port);
        self.absorb_shard_deltas(shard);
        verdict
    }

    /// Per-flow stages of packet processing, run under the flow's shard
    /// lock (`ft`). May take the cross-shard penalty lock (via
    /// `fire_block`) — that nesting is the declared lock order.
    #[allow(clippy::too_many_arguments)]
    fn process_flow(
        &mut self,
        ft: &mut FlowTable,
        now: SimTime,
        dir: Direction,
        pkt: &ParsedPacket,
        key: FlowKey,
        wire: PacketBuf,
        effects: &mut Effects,
        server_port: u16,
    ) -> Verdict {
        let len = wire.len();
        let is_tcp = pkt.tcp().is_some();
        let is_udp = pkt.udp().is_some();

        // RST observation affects flow state.
        if let Some(t) = pkt.tcp() {
            if t.flags.rst {
                if ft.apply_rst(key, &self.config.flow) {
                    self.journal_incr(Counter::FlowResets);
                    self.journal_record(now, EventKind::FlowReset);
                }
                self.account(false, len);
                return Verdict::pass(now, wire);
            }
        }

        // Flow entry management: the one lookup of this packet, which
        // applies expiry. Every later stage works on the entry it returns
        // (a refreshed entry cannot expire again at the same `now`).
        let entry = match ft.lookup(key, now, &self.config.flow, self.config.resource.as_ref()) {
            Some(entry) => entry,
            None => {
                let flow_start_seq = match pkt.tcp() {
                    Some(t) => (t.flags.syn && !t.flags.ack).then(|| t.seq.wrapping_add(1)),
                    None => (is_udp && dir == Direction::ClientToServer).then_some(0),
                };
                let Some(base_seq) = flow_start_seq else {
                    // Mid-flow packet for an unknown (or evicted) flow: not
                    // inspected. This is what pause- and RST-based flushing
                    // exploit.
                    self.account(false, len);
                    return Verdict::pass(now, wire);
                };
                let entry = ft.create(key, now, self.window_bytes());
                if let Some(tr) = entry.tracking.as_mut() {
                    tr.stream.base_seq = Some(base_seq);
                }
                entry
            }
        };
        entry.last_activity = now;
        let already_classified = entry.classification.is_some();

        // Decide whether to inspect this packet.
        let eligible = !pkt.payload.is_empty()
            && self.config.inspect.inspects_port(server_port)
            && (is_tcp || (is_udp && self.config.inspect.inspects_udp))
            && (!already_classified || !self.config.inspect.match_and_forget);

        if eligible {
            let compiled = self.compiled_rules();
            // The transport payload is always the tail of the wire buffer
            // (`ParsedPacket::parse` slices to the end), so this view
            // aliases the in-flight bytes — inspection and reassembly
            // buffering never copy them.
            let payload = wire.slice(wire.len() - pkt.payload.len()..);
            let (matched, scanned) = Self::inspect(
                entry,
                &self.config,
                compiled.as_deref(),
                pkt,
                &payload,
                dir,
                server_port,
            );
            if scanned > 0 {
                if let Some(j) = &self.journal {
                    j.metrics.add(Counter::MatcherBytesScanned, scanned);
                }
            }
            if let Some((class, rule_id)) = matched {
                if !already_classified {
                    entry.classification = Some(Classification {
                        class: class.clone(),
                        rule_id: rule_id.clone(),
                        at: now,
                        shaper: None,
                        result_timeout: self.config.flow.result_timeout,
                    });
                    self.journal_incr(Counter::Verdicts);
                    self.journal_record(
                        now,
                        EventKind::ClassifierVerdict {
                            class: class.clone(),
                            rule_id: rule_id.clone(),
                        },
                    );
                    self.events.push(ClassificationEvent {
                        at: now,
                        flow: key,
                        class: class.clone(),
                        rule_id,
                    });
                    self.fire_block(now, dir, pkt, key, effects, &class);
                }
            }
        }

        // Forward under whatever classification now stands.
        match &mut entry.classification {
            Some(c) => self.forward_classified(c, now, dir, wire),
            None => {
                self.account(false, len);
                Verdict::pass(now, wire)
            }
        }
    }
}
