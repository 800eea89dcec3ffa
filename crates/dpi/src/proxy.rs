//! A transparent HTTP proxy middlebox — the AT&T Stream Saver model
//! (§6.3).
//!
//! The proxy *terminates* TCP connections on its configured ports: it
//! answers the client's handshake itself, reassembles the full byte stream,
//! opens its own connection toward the server, and re-originates traffic in
//! both directions. Because both endpoints only ever talk to the proxy's
//! own stacks, every packet-level evasion technique dies here ("None of the
//! evasion techniques is effective for Stream Saver, because they deploy a
//! transparent HTTP proxy that terminates TCP connections"). Traffic on any
//! other port passes through untouched — which is why simply moving the
//! server port evades it.

use std::collections::{BTreeMap, HashMap};

use liberate_netsim::element::{Effects, PacketBuf, PathElement, TimedPacket, Verdict};
use liberate_netsim::shaper::TokenBucket;
use liberate_packet::flow::{Direction, FlowKey};
use liberate_packet::packet::{Packet, ParsedPacket};
use liberate_packet::tcp::TcpFlags;
use liberate_packet::validate::validate_wire;
use liberate_substrate::time::SimTime;

use crate::matcher::contains;

/// Segment size the proxy uses when re-originating data.
const PROXY_MSS: usize = 1460;

/// Configuration for the transparent proxy.
#[derive(Debug, Clone)]
pub struct ProxyConfig {
    pub name: String,
    /// Server ports the proxy intercepts (AT&T: port 80 only).
    pub intercept_ports: Vec<u16>,
    /// Client-direction tokens that mark the stream as HTTP worth
    /// classifying (e.g. "GET", "HTTP/1.1").
    pub request_tokens: Vec<Vec<u8>>,
    /// Server-direction keyword that triggers the policy
    /// (e.g. "Content-Type: video").
    pub response_keyword: Vec<u8>,
    /// Throttle rate applied to classified flows (bits/second, burst
    /// bytes). AT&T: 1.5 Mbps.
    pub throttle: (u64, u64),
}

impl ProxyConfig {
    /// The AT&T Stream Saver configuration.
    pub fn stream_saver() -> ProxyConfig {
        ProxyConfig {
            name: "att-stream-saver".to_string(),
            intercept_ports: vec![80],
            request_tokens: vec![b"GET ".to_vec(), b"HTTP/1.1".to_vec()],
            response_keyword: b"Content-Type: video".to_vec(),
            throttle: (1_500_000, 32_000),
        }
    }
}

/// One side of a proxied connection: in-order receive state plus our send
/// sequence state.
#[derive(Debug)]
struct HalfConn {
    /// Next sequence number expected from the peer.
    rcv_next: u32,
    /// Next sequence number we will send to the peer.
    snd_next: u32,
    /// Out-of-order buffer.
    ooo: BTreeMap<u32, Vec<u8>>,
    /// Total reassembled bytes (bounded scan window retained below).
    stream: Vec<u8>,
}

impl HalfConn {
    fn new(peer_isn_plus_one: u32, our_isn_plus_one: u32) -> HalfConn {
        HalfConn {
            rcv_next: peer_isn_plus_one,
            snd_next: our_isn_plus_one,
            ooo: BTreeMap::new(),
            stream: Vec::new(),
        }
    }

    /// Absorb a data segment; returns newly contiguous bytes.
    fn receive(&mut self, seq: u32, payload: &[u8]) -> Vec<u8> {
        fn seq_lt(a: u32, b: u32) -> bool {
            (a.wrapping_sub(b) as i32) < 0
        }
        let seg_end = seq.wrapping_add(payload.len() as u32);
        if seq_lt(seg_end, self.rcv_next) || seg_end == self.rcv_next {
            return Vec::new(); // entirely old
        }
        // lint: allow(payload-copy) endpoint ingestion: the proxy's
        // receive window drains the retransmitted prefix from an owned copy.
        let mut data = payload.to_vec();
        let mut start = seq;
        if seq_lt(seq, self.rcv_next) {
            let skip = self.rcv_next.wrapping_sub(seq) as usize;
            data.drain(..skip.min(data.len()));
            start = self.rcv_next;
        }
        self.ooo.entry(start).or_insert(data);
        let mut delivered = Vec::new();
        while let Some(seg) = self.ooo.remove(&self.rcv_next) {
            self.rcv_next = self.rcv_next.wrapping_add(seg.len() as u32);
            delivered.extend_from_slice(&seg);
        }
        self.stream.extend_from_slice(&delivered);
        // Keep only a bounded scan window.
        if self.stream.len() > 64 * 1024 {
            let cut = self.stream.len() - 64 * 1024;
            self.stream.drain(..cut);
        }
        delivered
    }
}

#[derive(Debug, PartialEq, Eq, Clone, Copy)]
enum ServerSide {
    SynSent,
    Established,
}

struct ProxiedFlow {
    /// Client-facing half (we act as the server).
    client: HalfConn,
    /// Server-facing half (we act as the client).
    server: HalfConn,
    server_state: ServerSide,
    /// Data from the client waiting for the server handshake.
    pending_to_server: Vec<u8>,
    /// Classified as throttle-worthy?
    classified: bool,
    shaper: Option<TokenBucket>,
    client_addr: std::net::Ipv4Addr,
    server_addr: std::net::Ipv4Addr,
    client_port: u16,
    server_port: u16,
}

/// The transparent proxy element.
pub struct TransparentProxy {
    pub config: ProxyConfig,
    flows: HashMap<FlowKey, ProxiedFlow>,
    isn_counter: u32,
    /// Flows the proxy classified (for diagnostics).
    pub classified_flows: u64,
}

impl TransparentProxy {
    pub fn new(config: ProxyConfig) -> TransparentProxy {
        TransparentProxy {
            config,
            flows: HashMap::new(),
            isn_counter: 0x6000_0000,
            classified_flows: 0,
        }
    }

    fn intercepts(&self, server_port: u16) -> bool {
        self.config.intercept_ports.contains(&server_port)
    }

    fn send_segments(
        flow: &mut ProxiedFlow,
        now: SimTime,
        dir: Direction,
        data: &[u8],
        effects: &mut Effects,
    ) {
        // Choose addressing and sequence space by direction.
        for chunk in data.chunks(PROXY_MSS) {
            let (pkt, at) = match dir {
                Direction::ClientToServer => {
                    let p = Packet::tcp(
                        flow.client_addr,
                        flow.server_addr,
                        flow.client_port,
                        flow.server_port,
                        flow.server.snd_next,
                        flow.server.rcv_next,
                        chunk.to_vec(),
                    );
                    flow.server.snd_next = flow.server.snd_next.wrapping_add(chunk.len() as u32);
                    (p, now)
                }
                Direction::ServerToClient => {
                    let p = Packet::tcp(
                        flow.server_addr,
                        flow.client_addr,
                        flow.server_port,
                        flow.client_port,
                        flow.client.snd_next,
                        flow.client.rcv_next,
                        chunk.to_vec(),
                    );
                    flow.client.snd_next = flow.client.snd_next.wrapping_add(chunk.len() as u32);
                    let at = if flow.classified {
                        let shaper = flow.shaper.get_or_insert_with(|| TokenBucket::new(0, 0));
                        shaper.schedule(now, chunk.len() + 40)
                    } else {
                        now
                    };
                    (p, at)
                }
            };
            effects.inject(dir, TimedPacket::now(at, pkt.serialize()));
        }
    }
}

impl PathElement for TransparentProxy {
    fn name(&self) -> &str {
        &self.config.name
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }

    fn process(
        &mut self,
        now: SimTime,
        dir: Direction,
        wire: PacketBuf,
        effects: &mut Effects,
    ) -> Verdict {
        let Some(pkt) = ParsedPacket::parse(&wire) else {
            return Verdict::pass(now, wire);
        };
        let Some(key) = FlowKey::from_packet(&pkt) else {
            return Verdict::pass(now, wire);
        };
        let server_port = match dir {
            Direction::ClientToServer => key.dst_port,
            Direction::ServerToClient => key.src_port,
        };
        let Some(tcp) = pkt.tcp().cloned() else {
            return Verdict::pass(now, wire); // UDP and others pass through
        };
        if !self.intercepts(server_port) {
            return Verdict::pass(now, wire);
        }

        // The proxy's own stack validates strictly: malformed packets die.
        if !validate_wire(&wire).is_empty() {
            return Verdict::Drop;
        }

        let canonical = key.canonical();

        // Client SYN: terminate it ourselves and dial the server.
        if dir == Direction::ClientToServer && tcp.flags.syn && !tcp.flags.ack {
            self.isn_counter = self.isn_counter.wrapping_add(0x10_000);
            let client_side_isn = self.isn_counter;
            self.isn_counter = self.isn_counter.wrapping_add(0x10_000);
            let server_side_isn = self.isn_counter;

            let flow = ProxiedFlow {
                client: HalfConn::new(tcp.seq.wrapping_add(1), client_side_isn.wrapping_add(1)),
                server: HalfConn::new(0, server_side_isn.wrapping_add(1)),
                server_state: ServerSide::SynSent,
                pending_to_server: Vec::new(),
                classified: false,
                shaper: None,
                client_addr: pkt.ip.src,
                server_addr: pkt.ip.dst,
                client_port: key.src_port,
                server_port: key.dst_port,
            };
            // SYN-ACK to the client, from "the server" (us).
            let syn_ack = Packet::tcp(
                flow.server_addr,
                flow.client_addr,
                flow.server_port,
                flow.client_port,
                client_side_isn,
                tcp.seq.wrapping_add(1),
                Vec::new(),
            )
            .with_flags(TcpFlags::SYN_ACK);
            effects.inject(
                Direction::ServerToClient,
                TimedPacket::now(now, syn_ack.serialize()),
            );
            // Our own SYN toward the real server.
            let syn = Packet::tcp(
                flow.client_addr,
                flow.server_addr,
                flow.client_port,
                flow.server_port,
                server_side_isn,
                0,
                Vec::new(),
            )
            .with_flags(TcpFlags::SYN);
            effects.inject(
                Direction::ClientToServer,
                TimedPacket::now(now, syn.serialize()),
            );
            self.flows.insert(canonical, flow);
            return Verdict::Drop; // the original SYN is absorbed
        }

        let Some(flow) = self.flows.get_mut(&canonical) else {
            // Not a proxied flow (e.g. mid-flow packet with no SYN seen):
            // AT&T's proxy swallows unsolicited port-80 traffic.
            return Verdict::Drop;
        };

        match dir {
            Direction::ClientToServer => {
                if tcp.flags.rst || tcp.flags.fin {
                    // Propagate teardown toward the server as our own.
                    let out = Packet::tcp(
                        flow.client_addr,
                        flow.server_addr,
                        flow.client_port,
                        flow.server_port,
                        flow.server.snd_next,
                        flow.server.rcv_next,
                        Vec::new(),
                    )
                    .with_flags(if tcp.flags.rst {
                        TcpFlags::RST
                    } else {
                        TcpFlags::FIN_ACK
                    });
                    effects.inject(
                        Direction::ClientToServer,
                        TimedPacket::now(now, out.serialize()),
                    );
                    if tcp.flags.rst {
                        self.flows.remove(&canonical);
                    }
                    return Verdict::Drop;
                }
                if !pkt.payload.is_empty() {
                    let delivered = flow.client.receive(tcp.seq, &pkt.payload);
                    // ACK the client from "the server".
                    let ack = Packet::tcp(
                        flow.server_addr,
                        flow.client_addr,
                        flow.server_port,
                        flow.client_port,
                        flow.client.snd_next,
                        flow.client.rcv_next,
                        Vec::new(),
                    )
                    .with_flags(TcpFlags::ACK);
                    effects.inject(
                        Direction::ServerToClient,
                        TimedPacket::now(now, ack.serialize()),
                    );
                    if !delivered.is_empty() {
                        if flow.server_state == ServerSide::Established {
                            Self::send_segments(
                                flow,
                                now,
                                Direction::ClientToServer,
                                &delivered,
                                effects,
                            );
                        } else {
                            flow.pending_to_server.extend_from_slice(&delivered);
                        }
                    }
                }
                Verdict::Drop
            }
            Direction::ServerToClient => {
                if tcp.flags.syn && tcp.flags.ack {
                    // Server answered our dial.
                    flow.server.rcv_next = tcp.seq.wrapping_add(1);
                    flow.server_state = ServerSide::Established;
                    let ack = Packet::tcp(
                        flow.client_addr,
                        flow.server_addr,
                        flow.client_port,
                        flow.server_port,
                        flow.server.snd_next,
                        flow.server.rcv_next,
                        Vec::new(),
                    )
                    .with_flags(TcpFlags::ACK);
                    effects.inject(
                        Direction::ClientToServer,
                        TimedPacket::now(now, ack.serialize()),
                    );
                    if !flow.pending_to_server.is_empty() {
                        let data = std::mem::take(&mut flow.pending_to_server);
                        Self::send_segments(flow, now, Direction::ClientToServer, &data, effects);
                    }
                    return Verdict::Drop;
                }
                if tcp.flags.rst || tcp.flags.fin {
                    let out = Packet::tcp(
                        flow.server_addr,
                        flow.client_addr,
                        flow.server_port,
                        flow.client_port,
                        flow.client.snd_next,
                        flow.client.rcv_next,
                        Vec::new(),
                    )
                    .with_flags(if tcp.flags.rst {
                        TcpFlags::RST
                    } else {
                        TcpFlags::FIN_ACK
                    });
                    effects.inject(
                        Direction::ServerToClient,
                        TimedPacket::now(now, out.serialize()),
                    );
                    if tcp.flags.rst {
                        self.flows.remove(&canonical);
                    }
                    return Verdict::Drop;
                }
                if !pkt.payload.is_empty() {
                    let delivered = flow.server.receive(tcp.seq, &pkt.payload);
                    let ack = Packet::tcp(
                        flow.client_addr,
                        flow.server_addr,
                        flow.client_port,
                        flow.server_port,
                        flow.server.snd_next,
                        flow.server.rcv_next,
                        Vec::new(),
                    )
                    .with_flags(TcpFlags::ACK);
                    effects.inject(
                        Direction::ClientToServer,
                        TimedPacket::now(now, ack.serialize()),
                    );
                    if !delivered.is_empty() {
                        // Classify: HTTP request tokens + video content type.
                        if !flow.classified {
                            let req_ok = self
                                .config
                                .request_tokens
                                .iter()
                                .all(|t| contains(&flow.client.stream, t));
                            let resp_ok =
                                contains(&flow.server.stream, &self.config.response_keyword);
                            if req_ok && resp_ok {
                                flow.classified = true;
                                let (rate, burst) = self.config.throttle;
                                flow.shaper = Some(TokenBucket::new(rate, burst));
                                self.classified_flows += 1;
                            }
                        }
                        Self::send_segments(
                            flow,
                            now,
                            Direction::ServerToClient,
                            &delivered,
                            effects,
                        );
                    }
                }
                Verdict::Drop
            }
        }
    }
}
