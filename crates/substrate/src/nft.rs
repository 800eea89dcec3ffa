//! The nftables-shaped real-wire backend (§4.4's transparent-proxy
//! deployment made real).
//!
//! The six §6 profile rule sets are lowered ([`WireRuleset::lower`]) into
//! an nftables program — one `inet` table per profile with a `classify`
//! chain hooked on forward, a `stats` chain it jumps to, one named
//! counter per rule, and one policy rule per traffic class — in the style
//! of trafficmon's per-service table/chain/set programming. The program
//! is handed to a [`RuleProgramSink`]: [`NftCli`] shells out to a real
//! `nft` binary when one is present; [`RecordingSink`] is the loopback
//! fixture CI diffs golden programs against. Counter deltas read back
//! through the sink map into the same [`ClassVerdict`] vocabulary core
//! consumes from the simulator ([`NftSubstrate::counter_verdicts`]).
//!
//! [`NftSubstrate`] itself implements [`Substrate`] with a minimal
//! loopback delivery path (handshake synthesis, in-order delivery to the
//! scripted server, RST injection for blocking policies) so the replay
//! engine can drive real rule programs end to end without a simulator.

use std::collections::HashMap;
use std::process::{Command, Stdio};
use std::sync::Arc;
use std::time::Duration;

use liberate_obs::{Counter, EventKind, Hist, Journal};
use liberate_packet::flow::FlowKey;
use liberate_packet::packet::{Packet, ParsedPacket};
use liberate_packet::tcp::TcpFlags;
use parking_lot::Mutex;

use crate::buf::PacketBuf;
use crate::capture::{Capture, TapPoint};
use crate::script::{ScriptEngine, ServerObs, ServerScript};
use crate::time::SimTime;
use crate::{ClassVerdict, Substrate};

/// Maximum segment size when the loopback server segments responses
/// (mirrors the simulator's `SERVER_MSS`).
const WIRE_MSS: usize = 1460;

/// Per-element delivery latency on the loopback path.
const WIRE_LATENCY: Duration = Duration::from_millis(1);

/// One classification rule, lowered from a profile's `MatchRule`.
#[derive(Debug, Clone)]
pub struct WireRule {
    /// Stable rule id (becomes the counter name `cnt_<id>`).
    pub id: String,
    /// Traffic class the rule assigns.
    pub class: String,
    /// Payload keyword the rule matches.
    pub keyword: Vec<u8>,
    /// Restrict to these destination ports (`None` = any).
    pub ports: Option<Vec<u16>>,
    /// Only client→server packets are inspected.
    pub client_only: bool,
    /// Match only in the Nth client payload packet (0-based), when set.
    pub in_packet: Option<usize>,
}

impl WireRule {
    pub fn keyword(id: &str, class: &str, keyword: impl Into<Vec<u8>>) -> WireRule {
        WireRule {
            id: id.to_string(),
            class: class.to_string(),
            keyword: keyword.into(),
            ports: None,
            client_only: true,
            in_packet: None,
        }
    }

    pub fn on_ports(mut self, ports: impl Into<Vec<u16>>) -> WireRule {
        self.ports = Some(ports.into());
        self
    }

    pub fn in_packet(mut self, n: usize) -> WireRule {
        self.in_packet = Some(n);
        self
    }
}

/// What happens to a classified flow.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WirePolicy {
    /// Inject `rsts` TCP resets and drop the flow's further payload.
    Block { rsts: u8 },
    /// Rate-limit the class to `bps` bits per second.
    Throttle { bps: u64 },
    /// Exempt the class from billing (the §6.2 zero-rating side channel).
    ZeroRate,
    /// Classified but unaffected (the decoy "web" class).
    NoOp,
}

impl WirePolicy {
    pub fn is_noop(&self) -> bool {
        matches!(self, WirePolicy::NoOp)
    }
}

/// A profile's complete rule program: rules, per-class policies, and the
/// path position of the box enforcing them.
#[derive(Debug, Clone)]
pub struct WireRuleset {
    /// Profile name ("Testbed", "China", ...), also the journal env tag.
    pub profile: String,
    pub rules: Vec<WireRule>,
    /// (class, policy), in declaration order (lowering is deterministic).
    pub policies: Vec<(String, WirePolicy)>,
    /// TTL-decrementing hops before the middlebox.
    pub hops_before_middlebox: u8,
}

/// Lowercase alphanumeric-or-underscore identifier for nft object names.
fn nft_ident(s: &str) -> String {
    s.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() {
                c.to_ascii_lowercase()
            } else {
                '_'
            }
        })
        .collect()
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

impl WireRuleset {
    /// The nft table name this profile programs.
    pub fn table(&self) -> String {
        format!("liberate_{}", nft_ident(&self.profile))
    }

    /// The policy attached to `class`, when one is declared.
    pub fn policy_for(&self, class: &str) -> Option<&WirePolicy> {
        self.policies
            .iter()
            .find(|(c, _)| c == class)
            .map(|(_, p)| p)
    }

    /// The mark value identifying `class` (1-based order of first
    /// appearance across the rules).
    fn class_mark(&self, class: &str) -> u32 {
        let mut seen: Vec<&str> = Vec::new();
        for r in &self.rules {
            if !seen.contains(&r.class.as_str()) {
                seen.push(&r.class);
            }
        }
        seen.iter()
            .position(|c| *c == class)
            .map(|i| i as u32 + 1)
            .unwrap_or(0)
    }

    /// Lower the ruleset into an nftables program: a table, a `classify`
    /// chain hooked on forward that jumps through a `stats` chain, one
    /// named counter + stats rule per match rule (marking the packet with
    /// its class), and one policy rule per class consuming the mark.
    pub fn lower(&self) -> String {
        let t = self.table();
        let mut out = String::new();
        let mut line = |s: String| {
            out.push_str(&s);
            out.push('\n');
        };
        line(format!("add table inet {t}"));
        line(format!(
            "add chain inet {t} classify {{ type filter hook forward priority 0; policy accept; }}"
        ));
        line(format!("add chain inet {t} stats"));
        line(format!("add rule inet {t} classify jump stats"));

        for r in &self.rules {
            let cnt = format!("cnt_{}", nft_ident(&r.id));
            line(format!("add counter inet {t} {cnt}"));
            let mut expr = String::from("meta l4proto tcp");
            if let Some(ports) = &r.ports {
                let list = ports
                    .iter()
                    .map(|p| p.to_string())
                    .collect::<Vec<_>>()
                    .join(", ");
                expr.push_str(&format!(" th dport {{ {list} }}"));
            }
            expr.push_str(&format!(
                " @ih,0,{} 0x{}",
                r.keyword.len() * 8,
                hex(&r.keyword)
            ));
            let pkt = r
                .in_packet
                .map(|n| n.to_string())
                .unwrap_or_else(|| "any".to_string());
            let dir = if r.client_only { "client" } else { "both" };
            line(format!(
                "add rule inet {t} stats {expr} counter name {cnt} meta mark set {mark} \
comment \"class:{class} dir:{dir} pkt:{pkt}\"",
                mark = self.class_mark(&r.class),
                class = r.class,
            ));
        }

        for (class, policy) in &self.policies {
            let mark = self.class_mark(class);
            let c = nft_ident(class);
            match policy {
                WirePolicy::Block { rsts } => {
                    line(format!("add counter inet {t} policy_{c}"));
                    line(format!(
                        "add rule inet {t} classify meta mark {mark} counter name policy_{c} \
reject with tcp reset comment \"rsts:{rsts}\""
                    ));
                }
                WirePolicy::Throttle { bps } => {
                    line(format!("add counter inet {t} policy_{c}"));
                    line(format!(
                        "add rule inet {t} classify meta mark {mark} limit rate over \
{bps} bytes/second counter name policy_{c} drop"
                    ));
                }
                WirePolicy::ZeroRate => {
                    line(format!("add counter inet {t} zerorate_{c}"));
                    line(format!(
                        "add rule inet {t} classify meta mark {mark} counter name zerorate_{c} \
accept"
                    ));
                }
                WirePolicy::NoOp => {
                    line(format!("add counter inet {t} policy_{c}"));
                    line(format!(
                        "add rule inet {t} classify meta mark {mark} counter name policy_{c} \
accept"
                    ));
                }
            }
        }
        out
    }
}

/// Where lowered rule programs go and where counters come back from: a
/// real `nft` process, or the recording loopback fixture CI runs.
pub trait RuleProgramSink: Send {
    /// Install a program (the body handed to `nft -f -`).
    fn apply(&mut self, program: &str) -> Result<(), String>;

    /// Read all named counters as (name, packets-or-bytes) pairs.
    fn read_counters(&mut self) -> Result<Vec<(String, u64)>, String>;

    /// The loopback delivery path observed a packet matching `counter`.
    /// Real kernels count by themselves; the recording fixture needs to
    /// be told. `NftCli` ignores this.
    fn record_match(&mut self, counter: &str, bytes: u64);
}

/// Shells out to the system `nft` binary.
pub struct NftCli;

impl NftCli {
    /// Whether an `nft` binary is on PATH and answers `--version`.
    pub fn available() -> bool {
        Command::new("nft")
            .arg("--version")
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .status()
            .map(|s| s.success())
            .unwrap_or(false)
    }
}

impl RuleProgramSink for NftCli {
    fn apply(&mut self, program: &str) -> Result<(), String> {
        use std::io::Write as _;
        let mut child = Command::new("nft")
            .args(["-f", "-"])
            .stdin(Stdio::piped())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawning nft: {e}"))?;
        if let Some(stdin) = child.stdin.as_mut() {
            stdin
                .write_all(program.as_bytes())
                .map_err(|e| format!("writing nft program: {e}"))?;
        }
        let out = child
            .wait_with_output()
            .map_err(|e| format!("waiting for nft: {e}"))?;
        if out.status.success() {
            Ok(())
        } else {
            Err(format!(
                "nft rejected program: {}",
                String::from_utf8_lossy(&out.stderr).trim()
            ))
        }
    }

    fn read_counters(&mut self) -> Result<Vec<(String, u64)>, String> {
        let out = Command::new("nft")
            .args(["list", "counters"])
            .output()
            .map_err(|e| format!("running nft list counters: {e}"))?;
        if !out.status.success() {
            return Err(format!(
                "nft list counters failed: {}",
                String::from_utf8_lossy(&out.stderr).trim()
            ));
        }
        // `counter cnt_x { packets 5 bytes 700 }` — take the bytes figure.
        let text = String::from_utf8_lossy(&out.stdout);
        let mut counters = Vec::new();
        let mut current: Option<String> = None;
        for tok_line in text.lines() {
            let l = tok_line.trim();
            if let Some(rest) = l.strip_prefix("counter ") {
                current = rest.split_whitespace().next().map(str::to_string);
            } else if let Some(pos) = l.find("bytes ") {
                if let Some(name) = current.take() {
                    let n = l[pos + 6..]
                        .split_whitespace()
                        .next()
                        .and_then(|v| v.parse::<u64>().ok())
                        .unwrap_or(0);
                    counters.push((name, n));
                }
            }
        }
        Ok(counters)
    }

    fn record_match(&mut self, _counter: &str, _bytes: u64) {}
}

/// The recording state behind a [`RecordingSink`], shared with tests.
#[derive(Debug, Default)]
pub struct RecordingState {
    /// Every program applied, in order.
    pub programs: Vec<String>,
    /// Named counters in declaration order, with recorded byte totals.
    pub counters: Vec<(String, u64)>,
}

/// The loopback fixture: records applied programs verbatim (for golden
/// diffing) and keeps counters in memory, fed by `record_match`.
#[derive(Debug, Clone, Default)]
pub struct RecordingSink {
    state: Arc<Mutex<RecordingState>>,
}

impl RecordingSink {
    pub fn new() -> RecordingSink {
        RecordingSink::default()
    }

    /// The shared state handle (keep a clone before boxing the sink).
    pub fn state(&self) -> Arc<Mutex<RecordingState>> {
        Arc::clone(&self.state)
    }
}

impl RuleProgramSink for RecordingSink {
    fn apply(&mut self, program: &str) -> Result<(), String> {
        let mut st = self.state.lock();
        for l in program.lines() {
            // Register declared counters at zero, in program order.
            if let Some(rest) = l.strip_prefix("add counter ") {
                if let Some(name) = rest.split_whitespace().nth(2) {
                    st.counters.push((name.to_string(), 0));
                }
            }
        }
        st.programs.push(program.to_string());
        Ok(())
    }

    fn read_counters(&mut self) -> Result<Vec<(String, u64)>, String> {
        Ok(self.state.lock().counters.clone())
    }

    fn record_match(&mut self, counter: &str, bytes: u64) {
        let mut st = self.state.lock();
        match st.counters.iter_mut().find(|(n, _)| n == counter) {
            Some((_, v)) => *v += bytes,
            None => st.counters.push((counter.to_string(), bytes)),
        }
    }
}

struct WireConn {
    snd_next: u32,
    payload_pkts: usize,
    blocked: bool,
}

/// A [`Substrate`] that programs (real or recorded) nftables rules and
/// delivers traffic over a minimal loopback path.
pub struct NftSubstrate {
    ruleset: WireRuleset,
    program: String,
    sink: Box<dyn RuleProgramSink>,
    clock: SimTime,
    capture: Capture,
    journal: Arc<Journal>,
    inbox: Vec<(SimTime, PacketBuf)>,
    engine: Option<ScriptEngine>,
    conns: HashMap<FlowKey, WireConn>,
    flow_class: HashMap<FlowKey, String>,
    isn_counter: u32,
    billed: u64,
}

impl NftSubstrate {
    /// Program the ruleset through a real `nft` when one is available,
    /// falling back to the recording loopback fixture.
    pub fn new(ruleset: WireRuleset) -> Result<NftSubstrate, String> {
        let sink: Box<dyn RuleProgramSink> = if NftCli::available() {
            Box::new(NftCli)
        } else {
            Box::new(RecordingSink::new())
        };
        NftSubstrate::with_sink(ruleset, sink)
    }

    /// Program the ruleset through an explicit sink (tests and CI use the
    /// recording fixture).
    pub fn with_sink(
        ruleset: WireRuleset,
        mut sink: Box<dyn RuleProgramSink>,
    ) -> Result<NftSubstrate, String> {
        let program = ruleset.lower();
        sink.apply(&program)?;
        Ok(NftSubstrate {
            ruleset,
            program,
            sink,
            clock: SimTime::ZERO,
            capture: Capture::default(),
            journal: Arc::new(Journal::new()),
            inbox: Vec::new(),
            engine: None,
            conns: HashMap::new(),
            flow_class: HashMap::new(),
            isn_counter: 0x2000,
            billed: 0,
        })
    }

    /// The lowered program text (what CI diffs against goldens).
    pub fn program(&self) -> &str {
        &self.program
    }

    pub fn ruleset(&self) -> &WireRuleset {
        &self.ruleset
    }

    /// Map the sink's counter deltas back into the verdict vocabulary:
    /// every `cnt_<rule>` counter that moved yields its rule's class and
    /// whether a non-no-op policy backs it.
    pub fn counter_verdicts(&mut self) -> Result<Vec<(String, ClassVerdict)>, String> {
        let counters = self.sink.read_counters()?;
        let mut out = Vec::new();
        for (name, bytes) in counters {
            if bytes == 0 {
                continue;
            }
            let Some(rule) = self
                .ruleset
                .rules
                .iter()
                .find(|r| format!("cnt_{}", nft_ident(&r.id)) == name)
            else {
                continue;
            };
            let effective = self
                .ruleset
                .policy_for(&rule.class)
                .map(|p| !p.is_noop())
                .unwrap_or(false);
            out.push((
                name,
                ClassVerdict {
                    class: rule.class.clone(),
                    effective,
                },
            ));
        }
        Ok(out)
    }

    /// First matching rule for a client payload packet, mirroring the
    /// lowered program's stats chain.
    fn matching_rule(&self, flow: &FlowKey, payload: &[u8], pkt_index: usize) -> Option<usize> {
        self.ruleset.rules.iter().position(|r| {
            if let Some(ports) = &r.ports {
                if !ports.contains(&flow.dst_port) {
                    return false;
                }
            }
            if let Some(n) = r.in_packet {
                if n != pkt_index {
                    return false;
                }
            }
            !r.keyword.is_empty()
                && payload
                    .windows(r.keyword.len())
                    .any(|w| w == r.keyword.as_slice())
        })
    }

    fn push_inbox(&mut self, at: SimTime, wire: PacketBuf) {
        self.capture.record(at, TapPoint::ClientIngress, &wire);
        self.inbox.push((at, wire));
    }

    fn handle_tcp(&mut self, at: SimTime, flow: FlowKey, wire: &PacketBuf) {
        let Some(pkt) = ParsedPacket::parse(wire) else {
            return;
        };
        let Some(t) = pkt.tcp() else { return };
        let reply_at = at + WIRE_LATENCY + WIRE_LATENCY;

        if t.flags.syn && !t.flags.ack {
            self.isn_counter = self.isn_counter.wrapping_add(64_000);
            let isn = self.isn_counter;
            self.conns.insert(
                flow,
                WireConn {
                    snd_next: isn.wrapping_add(1),
                    payload_pkts: 0,
                    blocked: false,
                },
            );
            self.capture
                .record(at + WIRE_LATENCY, TapPoint::ServerIngress, wire);
            let syn_ack = Packet::tcp(
                flow.dst,
                flow.src,
                flow.dst_port,
                flow.src_port,
                isn,
                t.seq.wrapping_add(1),
                Vec::new(),
            )
            .with_flags(TcpFlags::SYN_ACK)
            .serialize_gather(&[]);
            self.capture
                .record(at + WIRE_LATENCY, TapPoint::ServerEgress, &syn_ack);
            self.push_inbox(reply_at, syn_ack);
            return;
        }

        if t.flags.rst {
            self.conns.remove(&flow);
            return;
        }

        if pkt.payload.is_empty() {
            // Bare ACKs cross the box untouched.
            self.capture
                .record(at + WIRE_LATENCY, TapPoint::ServerIngress, wire);
            return;
        }

        let pkt_index = match self.conns.get_mut(&flow) {
            Some(c) => {
                let i = c.payload_pkts;
                c.payload_pkts += 1;
                i
            }
            None => 0,
        };

        // The classifier (between client and server) sees the packet
        // first: match-and-mark, then the class policy.
        if !self.flow_class.contains_key(&flow) {
            if let Some(i) = self.matching_rule(&flow, &pkt.payload, pkt_index) {
                let rule = &self.ruleset.rules[i];
                let counter = format!("cnt_{}", nft_ident(&rule.id));
                let class = rule.class.clone();
                self.sink.record_match(&counter, pkt.payload.len() as u64);
                self.flow_class.insert(flow, class);
            }
        }

        let policy = self
            .flow_class
            .get(&flow)
            .and_then(|c| self.ruleset.policy_for(c))
            .cloned();

        if let Some(WirePolicy::Block { rsts }) = &policy {
            let already_blocked = self.conns.get(&flow).map(|c| c.blocked).unwrap_or(false);
            if let Some(c) = self.conns.get_mut(&flow) {
                c.blocked = true;
            }
            if !already_blocked {
                for k in 0..*rsts {
                    let rst = Packet::tcp(
                        flow.dst,
                        flow.src,
                        flow.dst_port,
                        flow.src_port,
                        t.ack.wrapping_add(k as u32),
                        t.seq.wrapping_add(pkt.payload.len() as u32),
                        Vec::new(),
                    )
                    .with_flags(TcpFlags::RST)
                    .serialize_gather(&[]);
                    self.push_inbox(reply_at, rst);
                }
            }
            return;
        }
        if self.conns.get(&flow).map(|c| c.blocked).unwrap_or(false) {
            return;
        }

        // Billing: zero-rated classes ride free (§6.2 side channel).
        let zero_rated = matches!(policy, Some(WirePolicy::ZeroRate));
        if !zero_rated {
            self.billed += pkt.payload.len() as u64;
        }

        // Deliver to the scripted server and transmit its responses.
        self.capture
            .record(at + WIRE_LATENCY, TapPoint::ServerIngress, wire);
        let Some(engine) = self.engine.as_mut() else {
            return;
        };
        let burst = engine.on_tcp_data(&pkt.payload);
        let seq = self.conns.get(&flow).map(|c| c.snd_next).unwrap_or(1);
        let ack = t.seq.wrapping_add(pkt.payload.len() as u32);
        let out_wires = Packet::tcp(
            flow.dst,
            flow.src,
            flow.dst_port,
            flow.src_port,
            seq,
            ack,
            Vec::new(),
        )
        .with_flags(TcpFlags::PSH_ACK)
        .serialize_segments(
            burst.messages(),
            WIRE_MSS,
            burst.payload_sums(WIRE_MSS).as_deref(),
        );
        if out_wires.is_empty() {
            return;
        }
        let sent = burst.bytes();
        if let Some(c) = self.conns.get_mut(&flow) {
            c.snd_next = seq.wrapping_add(sent as u32);
        }
        for seg in out_wires {
            self.capture
                .record(at + WIRE_LATENCY, TapPoint::ServerEgress, &seg);
            self.push_inbox(reply_at, seg);
        }
    }

    fn handle_udp(&mut self, at: SimTime, flow: FlowKey, wire: &PacketBuf) {
        let Some(pkt) = ParsedPacket::parse(wire) else {
            return;
        };
        let reply_at = at + WIRE_LATENCY + WIRE_LATENCY;
        if !self.flow_class.contains_key(&flow) {
            if let Some(i) = self.matching_rule(&flow, &pkt.payload, 0) {
                let rule = &self.ruleset.rules[i];
                let counter = format!("cnt_{}", nft_ident(&rule.id));
                let class = rule.class.clone();
                self.sink.record_match(&counter, pkt.payload.len() as u64);
                self.flow_class.insert(flow, class);
            }
        }
        self.billed += pkt.payload.len() as u64;
        self.capture
            .record(at + WIRE_LATENCY, TapPoint::ServerIngress, wire);
        let Some(engine) = self.engine.as_mut() else {
            return;
        };
        let responses = engine.on_udp_datagram(&pkt.payload);
        for resp in responses {
            let out = Packet::udp(flow.dst, flow.src, flow.dst_port, flow.src_port, Vec::new())
                .serialize_gather(&[&resp]);
            self.capture
                .record(at + WIRE_LATENCY, TapPoint::ServerEgress, &out);
            self.push_inbox(reply_at, out);
        }
    }
}

impl Substrate for NftSubstrate {
    fn backend_name(&self) -> &'static str {
        "nft"
    }

    fn env_name(&self) -> String {
        self.ruleset.profile.clone()
    }

    fn hops_before_middlebox(&self) -> u8 {
        self.ruleset.hops_before_middlebox
    }

    fn clock(&self) -> SimTime {
        self.clock
    }

    fn advance(&mut self, d: Duration) {
        self.clock += d;
    }

    fn run_until_idle(&mut self) {
        // Delivery is synchronous in the loopback path; nothing pends.
    }

    fn inject_client(&mut self, delay: Duration, wire: Vec<u8>) {
        let wire = PacketBuf::from(wire);
        let at = self.clock + delay;
        self.clock = at;
        self.capture.record(at, TapPoint::ClientEgress, &wire);
        self.journal.metrics.incr(Counter::PacketsInjected);
        self.journal.observe(Hist::InjectBytes, wire.len() as u64);
        self.journal.record(
            at.as_micros(),
            EventKind::PacketInjected {
                bytes: wire.len() as u64,
            },
        );
        let Some(pkt) = ParsedPacket::parse(&wire) else {
            return;
        };
        let Some(flow) = FlowKey::from_packet(&pkt) else {
            return;
        };
        match flow.protocol {
            6 => self.handle_tcp(at, flow, &wire),
            17 => self.handle_udp(at, flow, &wire),
            _ => {}
        }
    }

    fn take_client_inbox(&mut self) -> Vec<(SimTime, PacketBuf)> {
        std::mem::take(&mut self.inbox)
    }

    fn install_server_script(&mut self, script: ServerScript) -> Arc<Mutex<ServerObs>> {
        let (engine, shared) = ScriptEngine::new(script);
        self.engine = Some(engine);
        shared
    }

    fn capture(&self) -> &Capture {
        &self.capture
    }

    fn clear_capture(&mut self) {
        self.capture.clear();
    }

    fn set_capture_points(&mut self, points: &[TapPoint]) {
        self.capture.set_recorded_points(points);
    }

    fn journal(&self) -> &Arc<Journal> {
        &self.journal
    }

    fn set_journal(&mut self, journal: Arc<Journal>) {
        self.journal = journal;
    }

    fn billed_bytes(&mut self) -> Option<u64> {
        Some(self.billed)
    }

    fn verdict_for(&mut self, flow: FlowKey) -> Option<ClassVerdict> {
        let class = self.flow_class.get(&flow)?.clone();
        let effective = self
            .ruleset
            .policy_for(&class)
            .map(|p| !p.is_noop())
            .unwrap_or(false);
        Some(ClassVerdict { class, effective })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::script::ResponseTable;
    use std::net::Ipv4Addr;

    const CLIENT: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);
    const SERVER: Ipv4Addr = Ipv4Addr::new(203, 0, 113, 10);

    fn gfc_like() -> WireRuleset {
        WireRuleset {
            profile: "China".to_string(),
            rules: vec![WireRule::keyword(
                "economist",
                "blocked",
                &b"economist.com"[..],
            )],
            policies: vec![("blocked".to_string(), WirePolicy::Block { rsts: 3 })],
            hops_before_middlebox: 9,
        }
    }

    #[test]
    fn lowering_is_deterministic_and_shaped() {
        let rs = gfc_like();
        let p = rs.lower();
        assert_eq!(p, rs.lower());
        assert!(p.starts_with("add table inet liberate_china\n"), "{p}");
        assert!(p.contains("add chain inet liberate_china classify"));
        assert!(p.contains("add rule inet liberate_china classify jump stats"));
        assert!(p.contains("add counter inet liberate_china cnt_economist"));
        assert!(p.contains("counter name cnt_economist meta mark set 1"));
        assert!(p.contains("reject with tcp reset comment \"rsts:3\""));
    }

    #[test]
    fn recording_sink_registers_declared_counters() {
        let rs = gfc_like();
        let sink = RecordingSink::new();
        let state = sink.state();
        let sub = NftSubstrate::with_sink(rs, Box::new(sink)).unwrap();
        let st = state.lock();
        assert_eq!(st.programs.len(), 1);
        assert_eq!(st.programs[0], sub.program());
        assert!(st
            .counters
            .iter()
            .any(|(n, v)| n == "cnt_economist" && *v == 0));
    }

    #[test]
    fn loopback_blocks_matching_flow_with_rsts() {
        let sink = RecordingSink::new();
        let state = sink.state();
        let mut sub = NftSubstrate::with_sink(gfc_like(), Box::new(sink)).unwrap();
        sub.install_server_script(ServerScript {
            table: Arc::new(ResponseTable::lower([&b"HTTP/1.1 200 OK"[..]])),
            releases: vec![(1, 1)],
            skip_prefix: 0,
        });

        let syn = Packet::tcp(CLIENT, SERVER, 42_000, 80, 100, 0, Vec::new())
            .with_flags(TcpFlags::SYN)
            .serialize();
        sub.inject_client(Duration::ZERO, syn);
        let inbox = sub.take_client_inbox();
        assert_eq!(inbox.len(), 1, "SYN-ACK expected");

        let data = Packet::tcp(
            CLIENT,
            SERVER,
            42_000,
            80,
            101,
            1,
            &b"GET / HTTP/1.1\r\nHost: economist.com\r\n\r\n"[..],
        )
        .serialize();
        sub.inject_client(Duration::ZERO, data);
        let inbox = sub.take_client_inbox();
        let rsts = inbox
            .iter()
            .filter(|(_, w)| {
                ParsedPacket::parse(w)
                    .and_then(|p| p.tcp().map(|t| t.flags.rst))
                    .unwrap_or(false)
            })
            .count();
        assert_eq!(rsts, 3);

        // Counter moved, and maps back to an effective blocked verdict.
        let verdicts = sub.counter_verdicts().unwrap();
        assert_eq!(verdicts.len(), 1);
        assert_eq!(verdicts[0].0, "cnt_economist");
        assert_eq!(verdicts[0].1.class, "blocked");
        assert!(verdicts[0].1.effective);
        assert!(state.lock().counters.iter().any(|(_, v)| *v > 0));

        let flow = FlowKey::new(CLIENT, SERVER, 42_000, 80, 6);
        let v = sub.verdict_for(flow).expect("flow classified");
        assert!(v.effective);
    }

    #[test]
    fn unmatched_flow_completes_and_bills() {
        let mut sub = NftSubstrate::with_sink(gfc_like(), Box::new(RecordingSink::new())).unwrap();
        sub.install_server_script(ServerScript {
            table: Arc::new(ResponseTable::lower([&b"pong"[..]])),
            releases: vec![(4, 1)],
            skip_prefix: 0,
        });
        let syn = Packet::tcp(CLIENT, SERVER, 42_001, 80, 100, 0, Vec::new())
            .with_flags(TcpFlags::SYN)
            .serialize();
        sub.inject_client(Duration::ZERO, syn);
        sub.take_client_inbox();
        let data = Packet::tcp(CLIENT, SERVER, 42_001, 80, 101, 1, &b"ping"[..]).serialize();
        sub.inject_client(Duration::ZERO, data);
        let inbox = sub.take_client_inbox();
        assert!(inbox.iter().any(|(_, w)| {
            ParsedPacket::parse(w)
                .map(|p| p.payload == b"pong")
                .unwrap_or(false)
        }));
        assert_eq!(sub.billed_bytes(), Some(4));
        assert!(sub
            .verdict_for(FlowKey::new(CLIENT, SERVER, 42_001, 80, 6))
            .is_none());
    }

    #[test]
    fn in_packet_rules_only_match_their_packet() {
        let rs = WireRuleset {
            profile: "Testbed".to_string(),
            rules: vec![WireRule::keyword("skype-sq", "voip", vec![0x80, 0x55]).in_packet(0)],
            policies: vec![("voip".to_string(), WirePolicy::Throttle { bps: 256_000 })],
            hops_before_middlebox: 0,
        };
        let mut sub = NftSubstrate::with_sink(rs, Box::new(RecordingSink::new())).unwrap();
        let syn = Packet::tcp(CLIENT, SERVER, 42_002, 3478, 100, 0, Vec::new())
            .with_flags(TcpFlags::SYN)
            .serialize();
        sub.inject_client(Duration::ZERO, syn);
        sub.take_client_inbox();
        // First payload packet misses the keyword; the second carries it
        // but in_packet(0) no longer applies.
        let p0 = Packet::tcp(CLIENT, SERVER, 42_002, 3478, 101, 1, &b"xxxx"[..]).serialize();
        sub.inject_client(Duration::ZERO, p0);
        let p1 = Packet::tcp(
            CLIENT,
            SERVER,
            42_002,
            3478,
            105,
            1,
            &[0x80u8, 0x55, 0, 0][..],
        )
        .serialize();
        sub.inject_client(Duration::ZERO, p1);
        assert!(sub
            .verdict_for(FlowKey::new(CLIENT, SERVER, 42_002, 3478, 6))
            .is_none());
    }
}
