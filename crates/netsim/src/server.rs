//! The server endpoint: an IP layer applying an [`OsProfile`], plus small
//! but honest TCP and UDP stacks, plus a pluggable [`ServerApp`].
//!
//! This plays the role of the paper's *replay server* (and of unmodified
//! application servers in deployment mode). It is deliberately a faithful
//! endpoint: out-of-order segments are reassembled, out-of-window data is
//! discarded, fragments are reassembled — because lib·erate's techniques
//! work precisely when the middlebox's view diverges from this endpoint
//! view.

use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap};
use std::net::Ipv4Addr;

use liberate_packet::buf::{PacketBuf, WireBytes};
use liberate_packet::flow::FlowKey;
use liberate_packet::fragment::{OverlapPolicy, Reassembler};
use liberate_packet::ipv4::ParsedIpv4;
use liberate_packet::packet::{Packet, ParsedPacket, ParsedTransport};
use liberate_packet::tcp::TcpFlags;
use liberate_packet::validate::DefectMask;

use crate::os::{OsAction, OsProfile};
use liberate_substrate::script::Burst;
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
    /// transmits them as one byte stream (may be empty). A burst of
    /// table responses lets the host reuse the table's payload sums.
    fn on_tcp_data(&mut self, flow: FlowKey, data: &[u8]) -> Burst;

    /// A UDP datagram arrived. Returns zero or more response datagrams,
    /// each sent as one packet.
    fn on_udp_datagram(&mut self, flow: FlowKey, data: &[u8]) -> Vec<PacketBuf>;

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
    fn on_tcp_data(&mut self, _flow: FlowKey, data: &[u8]) -> Burst {
        self.tcp_bytes.extend_from_slice(data);
        Burst::none()
    }

    fn on_udp_datagram(&mut self, _flow: FlowKey, data: &[u8]) -> Vec<PacketBuf> {
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
    fn on_tcp_data(&mut self, _flow: FlowKey, data: &[u8]) -> Burst {
        Burst::from(vec![PacketBuf::from(data)])
    }

    fn on_udp_datagram(&mut self, _flow: FlowKey, data: &[u8]) -> Vec<PacketBuf> {
        vec![PacketBuf::from(data)]
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

impl TcpConn {
    /// Move the buffered segments that have become contiguous at
    /// `rcv_next` onto `delivered` (advancing `rcv_next`), then evict
    /// those that fell behind it.
    fn drain_contiguous(&mut self, delivered: &mut Vec<u8>) {
        while let Some(s) = self.ooo.iter().find_map(|(&s, d)| {
            let covers =
                seq_le(s, self.rcv_next) && seq_lt(self.rcv_next, s.wrapping_add(d.len() as u32));
            (covers || s == self.rcv_next).then_some(s)
        }) {
            let seg = self.ooo.remove(&s).expect("present");
            let skip = self.rcv_next.wrapping_sub(s) as usize;
            if skip < seg.len() {
                delivered.extend_from_slice(&seg[skip..]);
                self.rcv_next = s.wrapping_add(seg.len() as u32);
            }
        }
        let rcv_next = self.rcv_next;
        self.ooo
            .retain(|&s, d| !seq_le(s.wrapping_add(d.len() as u32), rcv_next));
    }
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

/// The connections one client address holds, so evicting a finished
/// client visits only its own flows. The first flow sits inline: a
/// client with one connection (every deployed flow) costs the index no
/// allocation.
struct ClientConns {
    first: FlowKey,
    more: Vec<FlowKey>,
}

/// The server host.
pub struct ServerHost {
    pub addr: Ipv4Addr,
    pub os: OsProfile,
    app: Box<dyn ServerApp>,
    conns: HashMap<FlowKey, TcpConn>,
    /// Every key in `conns`, grouped by client address.
    by_client: HashMap<Ipv4Addr, ClientConns>,
    reassembler: Reassembler,
    isn_counter: u32,
    /// Packets the server wants transmitted (toward the client).
    outbox: Vec<PacketBuf>,
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
            by_client: HashMap::new(),
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

    /// Move the packets queued for transmission toward the client onto
    /// the end of `into`. The outbox keeps its buffer for the next
    /// packets, and a caller that drains `into` can hand it back every
    /// time, so steady-state delivery allocates no queue.
    pub fn take_outbox(&mut self, into: &mut Vec<PacketBuf>) {
        into.append(&mut self.outbox);
    }

    /// Drop all connection state for flows originating at `client`.
    /// Reactor-mode sessions mux many client addresses through one host;
    /// evicting a finished client's conns bounds endpoint memory. Costs
    /// the client's own connections, not every live one.
    pub fn evict_client(&mut self, client: Ipv4Addr) {
        let Some(ClientConns { first, more }) = self.by_client.remove(&client) else {
            return;
        };
        self.conns.remove(&first);
        for flow in more {
            self.conns.remove(&flow);
        }
    }

    /// Receive one wire packet at the server NIC. `_now` is kept for
    /// symmetry with path elements (the stack itself is time-free).
    /// Accepts any [`WireBytes`] input; [`PacketBuf`] callers (the wire
    /// path) are ingested as shared views without copying.
    pub fn receive<W: WireBytes + ?Sized>(&mut self, _now: SimTime, wire: &W) {
        // IP-level reassembly first: all tested OSes reassemble fragments.
        // Headers are parsed once, from the whole datagram.
        let Some(ip) = ParsedIpv4::parse(wire.wire()) else {
            self.os_dropped += 1;
            return;
        };
        let (whole, ip) = if ip.is_fragment() {
            let Some(w) = self.reassembler.push(wire.wire()) else {
                return; // awaiting more fragments
            };
            let Some(ip) = ParsedIpv4::parse(&w) else {
                self.os_dropped += 1;
                return;
            };
            (PacketBuf::from(w), ip)
        } else {
            (wire.tail_view(0), ip)
        };
        let (transport, payload_offset) = ParsedPacket::parse_transport(&ip, &whole);

        let defects = DefectMask::ALL
            .found_in(&whole, &ip, Some((&transport, payload_offset)))
            .to_set();
        let pkt = ParsedPacket::from_headers(&whole, ip, transport, payload_offset);
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
                if let (Some(t), Some(flow)) = (pkt.tcp(), FlowKey::from_packet(&pkt)) {
                    let ack = t.seq.wrapping_add(pkt.payload.len() as u32);
                    self.send_control(flow, t.ack, ack, TcpFlags::RST);
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
            let out = Packet::udp(
                self.addr,
                flow.src,
                flow.dst_port,
                flow.src_port,
                Vec::new(),
            );
            self.outbox.push(out.serialize_gather(&[&resp]));
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
            // A retransmitted SYN replaces the connection under the same
            // key, which the index already holds.
            if self.conns.insert(flow, conn).is_none() {
                match self.by_client.entry(flow.src) {
                    Entry::Occupied(mut e) => e.get_mut().more.push(flow),
                    Entry::Vacant(e) => {
                        e.insert(ClientConns {
                            first: flow,
                            more: Vec::new(),
                        });
                    }
                }
            }
            self.send_control(flow, isn, t.seq.wrapping_add(1), TcpFlags::SYN_ACK);
            return;
        }

        let Some(conn) = self.conns.get_mut(&flow) else {
            // Data for an unknown connection: answer with RST (standard).
            let ack = t.seq.wrapping_add(pkt.payload.len() as u32);
            self.send_control(flow, t.ack, ack, TcpFlags::RST);
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
                self.send_control(flow, snd_next, rcv_next, TcpFlags::ACK);
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
            // In order with nothing buffered (every segment of a clean
            // flow): the payload view is the delivery, so neither the
            // out-of-order map nor a gathered copy is touched.
            let mut gathered = Vec::new();
            let delivered: &[u8] = if conn.ooo.is_empty() && start == conn.rcv_next {
                conn.rcv_next = start.wrapping_add(data.len() as u32);
                &data
            } else {
                // First-wins against already-buffered out-of-order data.
                conn.ooo.entry(start).or_insert(data);
                conn.drain_contiguous(&mut gathered);
                &gathered
            };

            if !delivered.is_empty() {
                conn.delivered += delivered.len() as u64;
                let snd_before = conn.snd_next;
                let rcv_now = conn.rcv_next;
                let burst = self.app.on_tcp_data(flow, delivered);
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
                .serialize_segments(
                    burst.messages(),
                    SERVER_MSS,
                    burst.payload_sums(SERVER_MSS).as_deref(),
                );
                if segments.is_empty() {
                    self.send_control(flow, snd_before, rcv_now, TcpFlags::ACK);
                } else {
                    let sent = burst.bytes();
                    let conn = self.conns.get_mut(&flow).expect("present");
                    conn.snd_next = snd_before.wrapping_add(sent as u32);
                    self.outbox.extend(segments);
                }
            } else {
                // Out-of-order: duplicate ACK.
                let conn = self.conns.get_mut(&flow).expect("present");
                let (s, r) = (conn.snd_next, conn.rcv_next);
                self.send_control(flow, s, r, TcpFlags::ACK);
            }
        }

        if flags.fin {
            let conn = self.conns.get_mut(&flow).expect("present");
            conn.rcv_next = conn.rcv_next.wrapping_add(1);
            conn.state = TcpState::Closed;
            let (s, r) = (conn.snd_next, conn.rcv_next);
            self.app.on_tcp_close(flow);
            // ACK the FIN and send our own FIN.
            self.send_control(flow, s, r, TcpFlags::FIN_ACK);
        }
    }

    /// Queue a payload-free segment back to `flow`'s client, built in
    /// its wire buffer.
    fn send_control(&mut self, flow: FlowKey, seq: u32, ack: u32, flags: TcpFlags) {
        let pkt = Packet::tcp(
            self.addr,
            flow.src,
            flow.dst_port,
            flow.src_port,
            seq,
            ack,
            Vec::new(),
        )
        .with_flags(flags);
        self.outbox.push(pkt.serialize_gather(&[]));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use liberate_packet::checksum::verify_pseudo_checksum;
    use liberate_substrate::script::ResponseTable;
    use std::sync::Arc;

    const CLIENT: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
    const SERVER: Ipv4Addr = Ipv4Addr::new(10, 9, 9, 9);

    fn take(h: &mut ServerHost) -> Vec<PacketBuf> {
        let mut out = Vec::new();
        h.take_outbox(&mut out);
        out
    }

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
        let out = take(h);
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
        let out = take(&mut h);
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
        let dup_ack = take(&mut h);
        assert_eq!(dup_ack.len(), 1);
        let p = ParsedPacket::parse(&dup_ack[0]).unwrap();
        assert!(p.payload.is_empty());
        assert_eq!(p.tcp().unwrap().ack, cseq); // still waiting

        h.receive(SimTime::ZERO, &data(cseq, 1, b"hello"));
        let out = take(&mut h);
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
        let out = take(&mut h);
        // Re-ACK only; nothing delivered.
        assert_eq!(out.len(), 1);
        assert!(ParsedPacket::parse(&out[0]).unwrap().payload.is_empty());
        // Real data still flows at the expected sequence number.
        h.receive(SimTime::ZERO, &data(cseq, 1, b"real"));
        let out = take(&mut h);
        assert_eq!(ParsedPacket::parse(&out[0]).unwrap().payload, b"real");
    }

    #[test]
    fn retransmission_overlap_is_trimmed() {
        let mut h = host();
        let (cseq, _) = handshake(&mut h);
        h.receive(SimTime::ZERO, &data(cseq, 1, b"abcd"));
        take(&mut h);
        // Retransmit "abcd" plus new "ef": only "ef" is new.
        h.receive(SimTime::ZERO, &data(cseq, 1, b"abcdef"));
        let out = take(&mut h);
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
        let out = take(&mut h);
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
        assert!(take(&mut h).is_empty());
        assert_eq!(h.os_dropped, 1);
        // The stream is uncorrupted.
        h.receive(SimTime::ZERO, &data(cseq, 1, b"ok"));
        let out = take(&mut h);
        assert_eq!(ParsedPacket::parse(&out[0]).unwrap().payload, b"ok");
    }

    #[test]
    fn windows_rsts_on_xmas_flags() {
        let mut h = ServerHost::new(SERVER, OsProfile::windows(), Box::<EchoApp>::default());
        h.receive(SimTime::ZERO, &syn(0));
        take(&mut h);
        let mut p = Packet::tcp(CLIENT, SERVER, 40000, 80, 1, 1, &b"X"[..]);
        p.tcp_mut().flags = TcpFlags::XMAS;
        h.receive(SimTime::ZERO, &p.serialize());
        let out = take(&mut h);
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
        let out = take(&mut h);
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
        let out = take(&mut h);
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
        let out = take(&mut h);
        assert_eq!(out.len(), 1);
        assert_eq!(ParsedPacket::parse(&out[0]).unwrap().payload, b"ping");
    }

    #[test]
    fn linux_truncates_short_udp() {
        let mut h = host();
        let mut p = Packet::udp(CLIENT, SERVER, 5000, 53, &b"secret-data"[..]);
        p.udp_mut().length = Some(8 + 6);
        h.receive(SimTime::ZERO, &p.serialize());
        let out = take(&mut h);
        assert_eq!(ParsedPacket::parse(&out[0]).unwrap().payload, b"secret");
    }

    #[test]
    fn large_response_is_segmented() {
        let mut h = host();
        let (cseq, _) = handshake(&mut h);
        // Echo app: send 4000 bytes, receive 3 segments.
        h.receive(SimTime::ZERO, &data(cseq, 1, &vec![b'q'; 4000]));
        let out = take(&mut h);
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

    fn client(i: u32) -> Ipv4Addr {
        Ipv4Addr::from(u32::from(Ipv4Addr::new(10, 64, 0, 1)) + i)
    }

    /// Client `i` holds one to three connections, on ports 40000...
    fn ports_of(i: u32) -> std::ops::Range<u16> {
        40000..40001 + (i % 3) as u16
    }

    fn segment(src: Ipv4Addr, port: u16, seq: u32, flags: TcpFlags, payload: &[u8]) -> Vec<u8> {
        Packet::tcp(src, SERVER, port, 80, seq, 1, payload.to_vec())
            .with_flags(flags)
            .serialize()
    }

    /// Echo `payload` on an open flow; returns the server's (seq, ack).
    fn echo(h: &mut ServerHost, src: Ipv4Addr, port: u16, seq: u32, payload: &[u8]) -> (u32, u32) {
        h.receive(
            SimTime::ZERO,
            &segment(src, port, seq, TcpFlags::ACK, payload),
        );
        let out = take(h);
        assert_eq!(out.len(), 1, "{src}:{port}");
        let p = ParsedPacket::parse(&out[0]).unwrap();
        assert_eq!(p.payload, payload, "{src}:{port}");
        let t = p.tcp().unwrap();
        (t.seq, t.ack)
    }

    #[test]
    fn evicting_one_client_leaves_every_other_connection_intact() {
        const CLIENTS: u32 = 1_000;
        let mut h = host();
        // (client, port) -> the server's next send sequence number.
        let mut snd_next = HashMap::new();
        for i in 0..CLIENTS {
            for port in ports_of(i) {
                h.receive(
                    SimTime::ZERO,
                    &segment(client(i), port, 99, TcpFlags::SYN, b""),
                );
                take(&mut h);
                let (seq, ack) = echo(&mut h, client(i), port, 100, b"first");
                assert_eq!(ack, 105);
                snd_next.insert((i, port), seq.wrapping_add(5));
            }
        }
        let total: usize = (0..CLIENTS).map(|i| ports_of(i).len()).sum();
        assert_eq!(h.connection_count(), total);

        let gone = 500;
        assert_eq!(ports_of(gone).len(), 3);
        h.evict_client(client(gone));
        assert_eq!(h.connection_count(), total - 3);
        assert_eq!(h.by_client.len(), CLIENTS as usize - 1);
        for port in ports_of(gone) {
            h.receive(
                SimTime::ZERO,
                &segment(client(gone), port, 105, TcpFlags::ACK, b"x"),
            );
            let out = take(&mut h);
            let rst = ParsedPacket::parse(&out[0]).unwrap();
            assert!(rst.tcp().unwrap().flags.rst, "evicted flow must be unknown");
        }
        // Everyone else carries on exactly where they left off.
        for i in (0..CLIENTS).filter(|&i| i != gone) {
            for port in ports_of(i) {
                let flow = FlowKey::new(client(i), SERVER, port, 80, 6);
                assert_eq!(h.delivered_bytes(&flow), 5);
                let (seq, ack) = echo(&mut h, client(i), port, 105, b"second");
                assert_eq!((seq, ack), (snd_next[&(i, port)], 111), "{i}:{port}");
                assert_eq!(h.delivered_bytes(&flow), 11);
            }
        }
    }

    #[test]
    fn retransmitted_syn_then_eviction_leaves_nothing() {
        let mut h = host();
        for _ in 0..3 {
            h.receive(SimTime::ZERO, &syn(999));
        }
        h.receive(
            SimTime::ZERO,
            &segment(CLIENT, 40001, 5, TcpFlags::SYN, b""),
        );
        take(&mut h);
        assert_eq!(h.connection_count(), 2);
        assert_eq!(h.by_client[&CLIENT].more.len(), 1);
        h.evict_client(CLIENT);
        assert!(h.conns.is_empty());
        assert!(h.by_client.is_empty());
    }

    #[test]
    fn evicting_an_unknown_client_is_a_no_op() {
        let mut h = host();
        let (cseq, _) = handshake(&mut h);
        h.evict_client(client(7));
        assert_eq!((h.conns.len(), h.by_client.len()), (1, 1));
        h.receive(SimTime::ZERO, &data(cseq, 1, b"still here"));
        let out = take(&mut h);
        assert_eq!(ParsedPacket::parse(&out[0]).unwrap().payload, b"still here");
    }

    /// Answers each delivery with a batch of messages of odd sizes.
    struct MessagesApp {
        sizes: Vec<usize>,
    }

    fn message(i: usize, len: usize) -> Vec<u8> {
        (0..len).map(|b| (b * 7 + i) as u8).collect()
    }

    impl ServerApp for MessagesApp {
        fn on_tcp_data(&mut self, _flow: FlowKey, _data: &[u8]) -> Burst {
            let sizes = self.sizes.iter().enumerate();
            Burst::from(
                sizes
                    .map(|(i, &n)| PacketBuf::from(message(i, n)))
                    .collect::<Vec<_>>(),
            )
        }

        fn on_udp_datagram(&mut self, _flow: FlowKey, _data: &[u8]) -> Vec<PacketBuf> {
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
            let out = take(&mut h);
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

    /// Serves every delivery with the whole table as one burst, either
    /// as table responses (payload sums memoized on the table) or as
    /// plain messages (summed as they are copied).
    struct TableApp {
        table: Arc<ResponseTable>,
        as_table: bool,
    }

    impl ServerApp for TableApp {
        fn on_tcp_data(&mut self, _flow: FlowKey, _data: &[u8]) -> Burst {
            let all = 0..self.table.responses().len();
            if self.as_table {
                Burst::Table(Arc::clone(&self.table), all)
            } else {
                Burst::from(self.table.responses().to_vec())
            }
        }

        fn on_udp_datagram(&mut self, _flow: FlowKey, _data: &[u8]) -> Vec<PacketBuf> {
            Vec::new()
        }
    }

    /// One request to a fresh host serving `table`; returns its segments.
    fn serve(table: &Arc<ResponseTable>, as_table: bool) -> Vec<PacketBuf> {
        let app = TableApp {
            table: Arc::clone(table),
            as_table,
        };
        let mut h = ServerHost::new(SERVER, OsProfile::linux(), Box::new(app));
        let (cseq, sseq) = handshake(&mut h);
        h.receive(SimTime::ZERO, &data(cseq, sseq, b"GET"));
        take(&mut h)
    }

    #[test]
    fn a_burst_served_again_from_the_memo_is_byte_identical() {
        let messages: Vec<Vec<u8>> = [1000, 0, 2501, 7, 1460, 3001, 1]
            .iter()
            .enumerate()
            .map(|(i, &n)| message(i, n))
            .collect();
        let table = Arc::new(ResponseTable::lower(messages.iter().map(Vec::as_slice)));
        let summed = serve(&table, false);
        let first = serve(&table, true);
        let sums = table.segment_sums(0..messages.len(), SERVER_MSS);
        let again = serve(&table, true);
        assert!(
            Arc::ptr_eq(&sums, &table.segment_sums(0..messages.len(), SERVER_MSS)),
            "the second burst is served from the memo"
        );
        assert_eq!(sums.len(), summed.len());
        assert_eq!(first, summed);
        assert_eq!(again, summed);
        for seg in &again {
            let ip = ParsedIpv4::parse(seg).unwrap();
            let tcp = &seg[ip.payload_offset..];
            assert!(verify_pseudo_checksum(SERVER, CLIENT, 6, tcp));
        }
    }
}
