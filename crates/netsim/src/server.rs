//! The server endpoint: an IP layer applying an [`OsProfile`], plus small
//! but honest TCP and UDP stacks, plus a pluggable [`ServerApp`].
//!
//! This plays the role of the paper's *replay server* (and of unmodified
//! application servers in deployment mode). It is deliberately a faithful
//! endpoint: out-of-order segments are reassembled, out-of-window data is
//! discarded, fragments are reassembled — because lib·erate's techniques
//! work precisely when the middlebox's view diverges from this endpoint
//! view.

use std::collections::{BTreeMap, HashMap};
use std::net::Ipv4Addr;

use liberate_packet::buf::{PacketBuf, WireBytes};
use liberate_packet::flow::FlowKey;
use liberate_packet::fragment::{OverlapPolicy, Reassembler};
use liberate_packet::ipv4::ParsedIpv4;
use liberate_packet::packet::{Packet, ParsedPacket, ParsedTransport};
use liberate_packet::tcp::TcpFlags;
use liberate_packet::validate::validate_wire;

use crate::os::{OsAction, OsProfile};
use liberate_substrate::time::SimTime;

/// Maximum segment size used when the server segments responses.
pub const SERVER_MSS: usize = 1460;

/// Application logic running on the server.
///
/// `Send` for the same reason as [`crate::element::PathElement`]: worker
/// networks (server included) run on pool threads.
pub trait ServerApp: Send {
    /// In-order TCP bytes delivered on `flow` (the client→server key).
    /// Returns the response messages to send back, in order; the host
    /// transmits them as one byte stream (may be empty).
    fn on_tcp_data(&mut self, flow: FlowKey, data: &[u8]) -> Vec<PacketBuf>;

    /// A UDP datagram arrived. Returns zero or more response datagrams.
    fn on_udp_datagram(&mut self, flow: FlowKey, data: &[u8]) -> Vec<Vec<u8>>;

    /// A new TCP connection completed its handshake.
    fn on_tcp_connect(&mut self, _flow: FlowKey) {}

    /// A TCP connection closed (FIN or RST).
    fn on_tcp_close(&mut self, _flow: FlowKey) {}

    /// Downcasting hook for test harnesses that need to inspect a
    /// concrete app after a run. Defaults to `None`.
    fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
        None
    }
}

/// An app that acknowledges everything and answers nothing.
#[derive(Debug, Default)]
pub struct SinkApp {
    pub tcp_bytes: Vec<u8>,
    pub datagrams: Vec<Vec<u8>>,
}

impl ServerApp for SinkApp {
    fn on_tcp_data(&mut self, _flow: FlowKey, data: &[u8]) -> Vec<PacketBuf> {
        self.tcp_bytes.extend_from_slice(data);
        Vec::new()
    }

    fn on_udp_datagram(&mut self, _flow: FlowKey, data: &[u8]) -> Vec<Vec<u8>> {
        self.datagrams.push(data.to_vec());
        Vec::new()
    }

    fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
        Some(self)
    }
}

/// An app that echoes whatever it receives.
#[derive(Debug, Default)]
pub struct EchoApp;

impl ServerApp for EchoApp {
    fn on_tcp_data(&mut self, _flow: FlowKey, data: &[u8]) -> Vec<PacketBuf> {
        vec![PacketBuf::from(data)]
    }

    fn on_udp_datagram(&mut self, _flow: FlowKey, data: &[u8]) -> Vec<Vec<u8>> {
        vec![data.to_vec()]
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TcpState {
    SynReceived,
    Established,
    Closed,
}

struct TcpConn {
    state: TcpState,
    /// Next sequence number expected from the client.
    rcv_next: u32,
    /// Next sequence number the server will send.
    snd_next: u32,
    /// Out-of-order segments keyed by sequence number; shared views of
    /// the wire buffers they arrived in.
    ooo: BTreeMap<u32, PacketBuf>,
    /// Total in-order bytes delivered to the app.
    delivered: u64,
}

/// Receive window the stack advertises/enforces; data beyond
/// `rcv_next + window` is discarded as out-of-window (this is what makes
/// "wrong sequence number" packets inert at the endpoint).
const RECV_WINDOW: u32 = 65_535;

fn seq_lt(a: u32, b: u32) -> bool {
    (a.wrapping_sub(b) as i32) < 0
}

fn seq_le(a: u32, b: u32) -> bool {
    a == b || seq_lt(a, b)
}

/// The server host.
pub struct ServerHost {
    pub addr: Ipv4Addr,
    pub os: OsProfile,
    app: Box<dyn ServerApp>,
    conns: HashMap<FlowKey, TcpConn>,
    reassembler: Reassembler,
    isn_counter: u32,
    /// Packets the server wants transmitted (toward the client).
    outbox: Vec<Vec<u8>>,
    /// Count of packets the OS layer dropped, by cause, for diagnostics.
    pub os_dropped: u64,
}

impl ServerHost {
    pub fn new(addr: Ipv4Addr, os: OsProfile, app: Box<dyn ServerApp>) -> ServerHost {
        ServerHost {
            addr,
            os,
            app,
            conns: HashMap::new(),
            reassembler: Reassembler::new(OverlapPolicy::FirstWins),
            isn_counter: 0x1000,
            outbox: Vec::new(),
            os_dropped: 0,
        }
    }

    /// Replace the application.
    pub fn set_app(&mut self, app: Box<dyn ServerApp>) {
        self.app = app;
    }

    /// Access the app for inspection in tests (downcast by the caller).
    pub fn app_mut(&mut self) -> &mut dyn ServerApp {
        self.app.as_mut()
    }

    /// Number of live TCP connections.
    pub fn connection_count(&self) -> usize {
        self.conns
            .values()
            .filter(|c| c.state != TcpState::Closed)
            .count()
    }

    /// Total in-order bytes delivered to the app on `flow`.
    pub fn delivered_bytes(&self, flow: &FlowKey) -> u64 {
        self.conns.get(flow).map(|c| c.delivered).unwrap_or(0)
    }

    /// Drain packets queued for transmission toward the client.
    pub fn take_outbox(&mut self) -> Vec<Vec<u8>> {
        std::mem::take(&mut self.outbox)
    }

    /// Drop all connection state for flows originating at `client`.
    /// Reactor-mode sessions mux many client addresses through one host;
    /// evicting a finished client's conns bounds endpoint memory.
    pub fn evict_client(&mut self, client: Ipv4Addr) {
        self.conns.retain(|flow, _| flow.src != client);
    }

    /// Receive one wire packet at the server NIC. `_now` is kept for
    /// symmetry with path elements (the stack itself is time-free).
    /// Accepts any [`WireBytes`] input; [`PacketBuf`] callers (the wire
    /// path) are ingested as shared views without copying.
    pub fn receive<W: WireBytes + ?Sized>(&mut self, _now: SimTime, wire: &W) {
        // IP-level reassembly first: all tested OSes reassemble fragments.
        // A header-only probe decides; the full parse happens once below.
        let Some(ip_probe) = ParsedIpv4::parse(wire.wire()) else {
            self.os_dropped += 1;
            return;
        };
        let whole: PacketBuf = if ip_probe.is_fragment() {
            match self.reassembler.push(wire.wire()) {
                Some(w) => PacketBuf::from(w),
                None => return, // awaiting more fragments
            }
        } else {
            wire.tail_view(0)
        };

        let defects = validate_wire(&whole);
        let Some(pkt) = ParsedPacket::parse(&whole) else {
            self.os_dropped += 1;
            return;
        };
        if pkt.ip.dst != self.addr {
            self.os_dropped += 1;
            return;
        }

        match self.os.action(&defects) {
            OsAction::Drop => {
                self.os_dropped += 1;
            }
            OsAction::RstResponse => {
                self.os_dropped += 1;
                if let Some(t) = pkt.tcp() {
                    let rst = Packet::tcp(
                        self.addr,
                        pkt.ip.src,
                        t.dst_port,
                        t.src_port,
                        t.ack,
                        t.seq.wrapping_add(pkt.payload.len() as u32),
                        Vec::new(),
                    )
                    .with_flags(TcpFlags::RST);
                    self.outbox.push(rst.serialize());
                }
            }
            OsAction::Deliver => self.deliver(&pkt, None),
            OsAction::DeliverTruncated => {
                let claim = pkt
                    .udp()
                    .map(|u| u.claimed_payload_len())
                    .unwrap_or(pkt.payload.len());
                self.deliver(&pkt, Some(claim));
            }
        }
    }

    fn deliver(&mut self, pkt: &ParsedPacket, truncate_to: Option<usize>) {
        match &pkt.transport {
            ParsedTransport::Tcp(_) => self.deliver_tcp(pkt),
            ParsedTransport::Udp(_) => self.deliver_udp(pkt, truncate_to),
            ParsedTransport::Other(_) => {
                // ICMP and unknown protocols are accepted silently.
            }
        }
    }

    fn deliver_udp(&mut self, pkt: &ParsedPacket, truncate_to: Option<usize>) {
        let Some(flow) = FlowKey::from_packet(pkt) else {
            return;
        };
        // A (possibly truncated) view of the datagram bytes — no copy.
        let data = match truncate_to {
            Some(n) => pkt.payload.slice(..n.min(pkt.payload.len())),
            // lint: allow(payload-copy) refcount bump on the shared view
            None => pkt.payload.clone(),
        };
        for resp in self.app.on_udp_datagram(flow, &data) {
            let out = Packet::udp(self.addr, flow.src, flow.dst_port, flow.src_port, resp);
            self.outbox.push(out.serialize());
        }
    }

    fn deliver_tcp(&mut self, pkt: &ParsedPacket) {
        let Some(flow) = FlowKey::from_packet(pkt) else {
            return;
        };
        let t = pkt.tcp().expect("checked by caller");
        let flags = t.flags;

        if flags.rst {
            if let Some(conn) = self.conns.get_mut(&flow) {
                conn.state = TcpState::Closed;
                self.app.on_tcp_close(flow);
            }
            return;
        }

        if flags.syn && !flags.ack {
            // New connection (or SYN retransmit): reply SYN-ACK.
            self.isn_counter = self.isn_counter.wrapping_add(64_000);
            let isn = self.isn_counter;
            let conn = TcpConn {
                state: TcpState::SynReceived,
                rcv_next: t.seq.wrapping_add(1),
                snd_next: isn.wrapping_add(1),
                ooo: BTreeMap::new(),
                delivered: 0,
            };
            self.conns.insert(flow, conn);
            let syn_ack = Packet::tcp(
                self.addr,
                flow.src,
                flow.dst_port,
                flow.src_port,
                isn,
                t.seq.wrapping_add(1),
                Vec::new(),
            )
            .with_flags(TcpFlags::SYN_ACK);
            self.outbox.push(syn_ack.serialize());
            return;
        }

        let Some(conn) = self.conns.get_mut(&flow) else {
            // Data for an unknown connection: answer with RST (standard).
            let rst = Packet::tcp(
                self.addr,
                flow.src,
                flow.dst_port,
                flow.src_port,
                t.ack,
                t.seq.wrapping_add(pkt.payload.len() as u32),
                Vec::new(),
            )
            .with_flags(TcpFlags::RST);
            self.outbox.push(rst.serialize());
            return;
        };
        if conn.state == TcpState::Closed {
            return;
        }
        if conn.state == TcpState::SynReceived && flags.ack {
            conn.state = TcpState::Established;
            self.app.on_tcp_connect(flow);
        }

        // Data handling with sequence reassembly.
        if !pkt.payload.is_empty() {
            let seg_seq = t.seq;
            let seg_end = seg_seq.wrapping_add(pkt.payload.len() as u32);
            let conn = self.conns.get_mut(&flow).expect("present");
            let window_end = conn.rcv_next.wrapping_add(RECV_WINDOW);

            if seq_le(seg_end, conn.rcv_next) || !seq_lt(seg_seq, window_end) {
                // Entirely old, or beyond the window: discard, re-ACK.
                let rcv_next = conn.rcv_next;
                let snd_next = conn.snd_next;
                self.send_ack(flow, snd_next, rcv_next);
                return;
            }

            // Trim any portion before rcv_next (retransmitted overlap) by
            // re-slicing the shared view — no copy.
            // lint: allow(payload-copy) refcount bump on the shared view
            let mut data = pkt.payload.clone();
            let mut start = seg_seq;
            if seq_lt(seg_seq, conn.rcv_next) {
                let skip = conn.rcv_next.wrapping_sub(seg_seq) as usize;
                data = data.slice(skip.min(data.len())..);
                start = conn.rcv_next;
            }
            // First-wins against already-buffered out-of-order data.
            conn.ooo.entry(start).or_insert(data);

            // Drain contiguous data.
            let mut delivered = Vec::new();
            loop {
                let Some((&s, _)) = conn
                    .ooo
                    .iter()
                    .find(|(&s, d)| {
                        seq_le(s, conn.rcv_next)
                            && seq_lt(conn.rcv_next, s.wrapping_add(d.len() as u32))
                            || s == conn.rcv_next
                    })
                    .map(|(s, d)| (s, d))
                else {
                    break;
                };
                let seg = conn.ooo.remove(&s).expect("present");
                let skip = conn.rcv_next.wrapping_sub(s) as usize;
                if skip < seg.len() {
                    delivered.extend_from_slice(&seg[skip..]);
                    conn.rcv_next = s.wrapping_add(seg.len() as u32);
                }
            }
            // Evict stale buffered segments that fell behind rcv_next.
            let rcv_next = conn.rcv_next;
            conn.ooo
                .retain(|&s, d| !seq_le(s.wrapping_add(d.len() as u32), rcv_next));

            if !delivered.is_empty() {
                conn.delivered += delivered.len() as u64;
                let snd_before = conn.snd_next;
                let rcv_now = conn.rcv_next;
                let response = self.app.on_tcp_data(flow, &delivered);
                // Segment the response stream at MSS, each segment built
                // straight into its wire buffer across message boundaries.
                let segments = Packet::tcp(
                    self.addr,
                    flow.src,
                    flow.dst_port,
                    flow.src_port,
                    snd_before,
                    rcv_now,
                    Vec::new(),
                )
                .with_flags(TcpFlags::PSH_ACK)
                .serialize_segments(&response, SERVER_MSS);
                if segments.is_empty() {
                    self.send_ack(flow, snd_before, rcv_now);
                } else {
                    let sent: usize = response.iter().map(|m| m.len()).sum();
                    let conn = self.conns.get_mut(&flow).expect("present");
                    conn.snd_next = snd_before.wrapping_add(sent as u32);
                    self.outbox.extend(segments);
                }
            } else {
                // Out-of-order: duplicate ACK.
                let conn = self.conns.get_mut(&flow).expect("present");
                let (s, r) = (conn.snd_next, conn.rcv_next);
                self.send_ack(flow, s, r);
            }
        }

        if flags.fin {
            let conn = self.conns.get_mut(&flow).expect("present");
            conn.rcv_next = conn.rcv_next.wrapping_add(1);
            conn.state = TcpState::Closed;
            let (s, r) = (conn.snd_next, conn.rcv_next);
            self.app.on_tcp_close(flow);
            // ACK the FIN and send our own FIN.
            let fin = Packet::tcp(
                self.addr,
                flow.src,
                flow.dst_port,
                flow.src_port,
                s,
                r,
                vec![],
            )
            .with_flags(TcpFlags::FIN_ACK);
            self.outbox.push(fin.serialize());
        }
    }

    fn send_ack(&mut self, flow: FlowKey, seq: u32, ack: u32) {
        let pkt = Packet::tcp(
            self.addr,
            flow.src,
            flow.dst_port,
            flow.src_port,
            seq,
            ack,
            Vec::new(),
        )
        .with_flags(TcpFlags::ACK);
        self.outbox.push(pkt.serialize());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CLIENT: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
    const SERVER: Ipv4Addr = Ipv4Addr::new(10, 9, 9, 9);

    fn host() -> ServerHost {
        ServerHost::new(SERVER, OsProfile::linux(), Box::<EchoApp>::default())
    }

    fn syn(seq: u32) -> Vec<u8> {
        Packet::tcp(CLIENT, SERVER, 40000, 80, seq, 0, vec![])
            .with_flags(TcpFlags::SYN)
            .serialize()
    }

    fn data(seq: u32, ack: u32, payload: &[u8]) -> Vec<u8> {
        Packet::tcp(CLIENT, SERVER, 40000, 80, seq, ack, payload.to_vec()).serialize()
    }

    fn handshake(h: &mut ServerHost) -> (u32, u32) {
        h.receive(SimTime::ZERO, &syn(999));
        let out = h.take_outbox();
        assert_eq!(out.len(), 1);
        let sa = ParsedPacket::parse(&out[0]).unwrap();
        let t = sa.tcp().unwrap();
        assert!(t.flags.syn && t.flags.ack);
        assert_eq!(t.ack, 1000);
        (1000, t.seq.wrapping_add(1)) // (client seq, server seq next)
    }

    #[test]
    fn handshake_and_echo() {
        let mut h = host();
        let (cseq, _sseq) = handshake(&mut h);
        h.receive(SimTime::ZERO, &data(cseq, 1, b"hello"));
        let out = h.take_outbox();
        assert_eq!(out.len(), 1);
        let resp = ParsedPacket::parse(&out[0]).unwrap();
        assert_eq!(resp.payload, b"hello");
        assert_eq!(h.connection_count(), 1);
    }

    #[test]
    fn out_of_order_segments_reassemble() {
        let mut h = host();
        let (cseq, _) = handshake(&mut h);
        // Send "world" (seq+5) before "hello" (seq).
        h.receive(SimTime::ZERO, &data(cseq + 5, 1, b"world"));
        let dup_ack = h.take_outbox();
        assert_eq!(dup_ack.len(), 1);
        let p = ParsedPacket::parse(&dup_ack[0]).unwrap();
        assert!(p.payload.is_empty());
        assert_eq!(p.tcp().unwrap().ack, cseq); // still waiting

        h.receive(SimTime::ZERO, &data(cseq, 1, b"hello"));
        let out = h.take_outbox();
        let resp = ParsedPacket::parse(&out[0]).unwrap();
        assert_eq!(resp.payload, b"helloworld");
    }

    #[test]
    fn wrong_sequence_number_is_inert() {
        let mut h = host();
        let (cseq, _) = handshake(&mut h);
        // Far-future sequence number: outside the receive window.
        h.receive(
            SimTime::ZERO,
            &data(cseq.wrapping_add(1_000_000), 1, b"EVIL"),
        );
        let out = h.take_outbox();
        // Re-ACK only; nothing delivered.
        assert_eq!(out.len(), 1);
        assert!(ParsedPacket::parse(&out[0]).unwrap().payload.is_empty());
        // Real data still flows at the expected sequence number.
        h.receive(SimTime::ZERO, &data(cseq, 1, b"real"));
        let out = h.take_outbox();
        assert_eq!(ParsedPacket::parse(&out[0]).unwrap().payload, b"real");
    }

    #[test]
    fn retransmission_overlap_is_trimmed() {
        let mut h = host();
        let (cseq, _) = handshake(&mut h);
        h.receive(SimTime::ZERO, &data(cseq, 1, b"abcd"));
        h.take_outbox();
        // Retransmit "abcd" plus new "ef": only "ef" is new.
        h.receive(SimTime::ZERO, &data(cseq, 1, b"abcdef"));
        let out = h.take_outbox();
        assert_eq!(ParsedPacket::parse(&out[0]).unwrap().payload, b"ef");
    }

    #[test]
    fn rst_closes_connection() {
        let mut h = host();
        let (cseq, _) = handshake(&mut h);
        let rst = Packet::tcp(CLIENT, SERVER, 40000, 80, cseq, 1, vec![])
            .with_flags(TcpFlags::RST)
            .serialize();
        h.receive(SimTime::ZERO, &rst);
        assert_eq!(h.connection_count(), 0);
    }

    #[test]
    fn fin_acked_and_closed() {
        let mut h = host();
        let (cseq, _) = handshake(&mut h);
        let fin = Packet::tcp(CLIENT, SERVER, 40000, 80, cseq, 1, vec![])
            .with_flags(TcpFlags::FIN_ACK)
            .serialize();
        h.receive(SimTime::ZERO, &fin);
        let out = h.take_outbox();
        assert_eq!(out.len(), 1);
        let p = ParsedPacket::parse(&out[0]).unwrap();
        assert!(p.tcp().unwrap().flags.fin);
        assert_eq!(h.connection_count(), 0);
    }

    #[test]
    fn malformed_packets_dropped_by_os() {
        let mut h = host();
        let (cseq, _) = handshake(&mut h);
        let mut evil = Packet::tcp(CLIENT, SERVER, 40000, 80, cseq, 1, &b"EVIL"[..]);
        evil.tcp_mut().checksum = liberate_packet::checksum::ChecksumSpec::Fixed(7);
        h.receive(SimTime::ZERO, &evil.serialize());
        assert!(h.take_outbox().is_empty());
        assert_eq!(h.os_dropped, 1);
        // The stream is uncorrupted.
        h.receive(SimTime::ZERO, &data(cseq, 1, b"ok"));
        let out = h.take_outbox();
        assert_eq!(ParsedPacket::parse(&out[0]).unwrap().payload, b"ok");
    }

    #[test]
    fn windows_rsts_on_xmas_flags() {
        let mut h = ServerHost::new(SERVER, OsProfile::windows(), Box::<EchoApp>::default());
        h.receive(SimTime::ZERO, &syn(0));
        h.take_outbox();
        let mut p = Packet::tcp(CLIENT, SERVER, 40000, 80, 1, 1, &b"X"[..]);
        p.tcp_mut().flags = TcpFlags::XMAS;
        h.receive(SimTime::ZERO, &p.serialize());
        let out = h.take_outbox();
        assert_eq!(out.len(), 1);
        assert!(
            ParsedPacket::parse(&out[0])
                .unwrap()
                .tcp()
                .unwrap()
                .flags
                .rst
        );
    }

    #[test]
    fn fragments_reassembled_before_delivery() {
        let mut h = host();
        let (cseq, _) = handshake(&mut h);
        let whole = data(cseq, 1, &[b'z'; 100]);
        let frags = liberate_packet::fragment::fragment_packet(&whole, 48);
        assert!(frags.len() > 1);
        for f in &frags {
            h.receive(SimTime::ZERO, f);
        }
        let out = h.take_outbox();
        assert_eq!(out.len(), 1);
        assert_eq!(
            ParsedPacket::parse(&out[0]).unwrap().payload,
            vec![b'z'; 100]
        );
    }

    #[test]
    fn data_to_unknown_connection_gets_rst() {
        let mut h = host();
        h.receive(SimTime::ZERO, &data(5, 1, b"orphan"));
        let out = h.take_outbox();
        assert!(
            ParsedPacket::parse(&out[0])
                .unwrap()
                .tcp()
                .unwrap()
                .flags
                .rst
        );
    }

    #[test]
    fn udp_echo_and_sink() {
        let mut h = host();
        let dgram = Packet::udp(CLIENT, SERVER, 5000, 53, &b"ping"[..]).serialize();
        h.receive(SimTime::ZERO, &dgram);
        let out = h.take_outbox();
        assert_eq!(out.len(), 1);
        assert_eq!(ParsedPacket::parse(&out[0]).unwrap().payload, b"ping");
    }

    #[test]
    fn linux_truncates_short_udp() {
        let mut h = host();
        let mut p = Packet::udp(CLIENT, SERVER, 5000, 53, &b"secret-data"[..]);
        p.udp_mut().length = Some(8 + 6);
        h.receive(SimTime::ZERO, &p.serialize());
        let out = h.take_outbox();
        assert_eq!(ParsedPacket::parse(&out[0]).unwrap().payload, b"secret");
    }

    #[test]
    fn large_response_is_segmented() {
        let mut h = host();
        let (cseq, _) = handshake(&mut h);
        // Echo app: send 4000 bytes, receive 3 segments.
        h.receive(SimTime::ZERO, &data(cseq, 1, &vec![b'q'; 4000]));
        let out = h.take_outbox();
        assert_eq!(out.len(), 3);
        let total: usize = out
            .iter()
            .map(|w| ParsedPacket::parse(w).unwrap().payload.len())
            .sum();
        assert_eq!(total, 4000);
        // Sequence numbers are contiguous.
        let p0 = ParsedPacket::parse(&out[0]).unwrap();
        let p1 = ParsedPacket::parse(&out[1]).unwrap();
        assert_eq!(
            p0.tcp().unwrap().seq.wrapping_add(p0.payload.len() as u32),
            p1.tcp().unwrap().seq
        );
    }

    /// Answers each delivery with a batch of messages of odd sizes.
    struct MessagesApp {
        sizes: Vec<usize>,
    }

    fn message(i: usize, len: usize) -> Vec<u8> {
        (0..len).map(|b| (b * 7 + i) as u8).collect()
    }

    impl ServerApp for MessagesApp {
        fn on_tcp_data(&mut self, _flow: FlowKey, _data: &[u8]) -> Vec<PacketBuf> {
            let sizes = self.sizes.iter().enumerate();
            sizes
                .map(|(i, &n)| PacketBuf::from(message(i, n)))
                .collect()
        }

        fn on_udp_datagram(&mut self, _flow: FlowKey, _data: &[u8]) -> Vec<Vec<u8>> {
            Vec::new()
        }
    }

    #[test]
    fn multi_message_responses_segment_as_one_stream() {
        let sizes = vec![1000, 0, 2500, 7, 1460, 3001, 1];
        let app = MessagesApp {
            sizes: sizes.clone(),
        };
        let mut h = ServerHost::new(SERVER, OsProfile::linux(), Box::new(app));
        let (cseq, mut sseq) = handshake(&mut h);
        for (round, request) in [&b"first"[..], b"second"].into_iter().enumerate() {
            let cseq = cseq.wrapping_add(5 * round as u32);
            h.receive(SimTime::ZERO, &data(cseq, sseq, request));
            let out = h.take_outbox();
            // The old path: join the messages, chunk at MSS, one packet
            // per chunk.
            let stream: Vec<u8> = (sizes.iter().enumerate())
                .flat_map(|(i, &n)| message(i, n))
                .collect();
            let rcv_next = cseq.wrapping_add(request.len() as u32);
            let mut expected = Vec::new();
            for chunk in stream.chunks(SERVER_MSS) {
                expected.push(
                    Packet::tcp(SERVER, CLIENT, 80, 40000, sseq, rcv_next, chunk.to_vec())
                        .with_flags(TcpFlags::PSH_ACK)
                        .serialize(),
                );
                sseq = sseq.wrapping_add(chunk.len() as u32);
            }
            assert_eq!(out.len(), stream.len().div_ceil(SERVER_MSS));
            assert_eq!(out, expected, "round {round}");
        }
    }
}
