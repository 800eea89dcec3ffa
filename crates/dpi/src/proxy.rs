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

use std::borrow::Cow;
use std::collections::{BTreeMap, HashMap};

use liberate_netsim::element::{Effects, PacketBuf, PathElement, TimedPacket, Verdict};
use liberate_netsim::shaper::TokenBucket;
use liberate_obs::Journal;
use liberate_packet::flow::{Direction, FlowKey};
use liberate_packet::packet::{Packet, ParsedPacket};
use liberate_packet::tcp::TcpFlags;
use liberate_packet::validate::validate_wire;
use liberate_substrate::time::SimTime;

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

/// Stream bytes, per direction, the classifier looks back over: a token
/// counts only while a match of it lies wholly within the last this many
/// delivered bytes.
const SCAN_WINDOW: u64 = 64 * 1024;

/// One side of a proxied connection: in-order receive state plus our send
/// sequence state, and where this direction's tokens last matched.
#[derive(Debug)]
struct HalfConn {
    /// Next sequence number expected from the peer.
    rcv_next: u32,
    /// Next sequence number we will send to the peer.
    snd_next: u32,
    /// Out-of-order buffer.
    ooo: BTreeMap<u32, Vec<u8>>,
    /// Stream bytes scanned so far; the scan window is the last
    /// [`SCAN_WINDOW`] of them.
    scanned: u64,
    /// The last scanned bytes, one fewer than the longest token, so a
    /// token split across deliveries is found.
    tail: Vec<u8>,
    /// Per token: the stream offset where its latest match starts.
    last_match: Vec<Option<u64>>,
}

impl HalfConn {
    fn new(peer_isn_plus_one: u32, our_isn_plus_one: u32) -> HalfConn {
        HalfConn {
            rcv_next: peer_isn_plus_one,
            snd_next: our_isn_plus_one,
            ooo: BTreeMap::new(),
            scanned: 0,
            tail: Vec::new(),
            last_match: Vec::new(),
        }
    }

    /// Absorb a data segment; returns newly contiguous bytes, borrowed
    /// from `payload` when the segment arrives in order. A segment that
    /// arrives out of order is buffered; at a start already buffered the
    /// first bytes win and a longer segment adds only its tail. Every
    /// buffered segment that starts at or before `rcv_next` is then
    /// drained: its overlap with delivered bytes is trimmed, and it is
    /// dropped if it is wholly old.
    fn receive<'a>(&mut self, seq: u32, payload: &'a [u8]) -> Cow<'a, [u8]> {
        fn seq_lt(a: u32, b: u32) -> bool {
            (a.wrapping_sub(b) as i32) < 0
        }
        let seg_end = seq.wrapping_add(payload.len() as u32);
        if seq_lt(seg_end, self.rcv_next) || seg_end == self.rcv_next {
            return Cow::Borrowed(&[]); // entirely old
        }
        let (start, data) = if seq_lt(seq, self.rcv_next) {
            let skip = self.rcv_next.wrapping_sub(seq) as usize;
            (self.rcv_next, &payload[skip.min(payload.len())..])
        } else {
            (seq, payload)
        };
        if start == self.rcv_next && self.ooo.is_empty() {
            self.rcv_next = self.rcv_next.wrapping_add(data.len() as u32);
            return Cow::Borrowed(data);
        }
        let buffered = self.ooo.entry(start).or_default();
        if data.len() > buffered.len() {
            buffered.extend_from_slice(&data[buffered.len()..]);
        }
        let mut delivered = Vec::new();
        while let Some(&at) = self.ooo.keys().find(|&&at| !seq_lt(self.rcv_next, at)) {
            let seg = self.ooo.remove(&at).unwrap_or_default();
            if let Some(new) = seg.get(self.rcv_next.wrapping_sub(at) as usize..) {
                self.rcv_next = self.rcv_next.wrapping_add(new.len() as u32);
                delivered.extend_from_slice(new);
            }
        }
        Cow::Owned(delivered)
    }

    /// Scan newly delivered bytes for `tokens` (the same list on every
    /// call), recording each token's latest match.
    fn scan(&mut self, data: &[u8], tokens: &[Vec<u8>]) {
        let keep = tokens
            .iter()
            .map(Vec::len)
            .max()
            .unwrap_or(0)
            .saturating_sub(1);
        let base = self.scanned - self.tail.len() as u64;
        self.tail.extend_from_slice(data);
        self.last_match.resize(tokens.len(), None);
        for (token, last) in tokens.iter().zip(&mut self.last_match) {
            let Some(&first) = token.first() else {
                continue; // an empty token never matches, as in `contains`
            };
            let found = self
                .tail
                .windows(token.len())
                .rposition(|w| w[0] == first && w == token);
            if let Some(at) = found {
                *last = Some(base + at as u64);
            }
        }
        self.scanned += data.len() as u64;
        let cut = self.tail.len().saturating_sub(keep);
        self.tail.drain(..cut);
    }

    /// Whether token `i` matches wholly within the scan window.
    fn in_window(&self, i: usize) -> bool {
        let window_start = self.scanned.saturating_sub(SCAN_WINDOW);
        matches!(self.last_match.get(i), Some(Some(at)) if *at >= window_start)
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
    /// Fixed at construction: each flow's token matches index into it.
    config: ProxyConfig,
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
        _journal: &Journal,
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
                    if !flow.classified {
                        flow.client.scan(&delivered, &self.config.request_tokens);
                    }
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
                            let keyword = std::slice::from_ref(&self.config.response_keyword);
                            flow.server.scan(&delivered, keyword);
                            let req_ok = (0..self.config.request_tokens.len())
                                .all(|i| flow.client.in_window(i));
                            if req_ok && flow.server.in_window(0) {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matcher::contains;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, RngCore, SeedableRng};

    /// Self-overlapping and shared-prefix tokens, so the latest match and
    /// matches split across deliveries both matter.
    fn tokens() -> Vec<Vec<u8>> {
        vec![
            b"GET ".to_vec(),
            b"HTTP/1.1".to_vec(),
            b"TT".to_vec(),
            b"GEGE".to_vec(),
            Vec::new(),
        ]
    }

    /// A stream of filler with tokens planted in it, sometimes past the
    /// scan window, and the span of each planted token. The
    /// filler alphabet forms "GEGE" often and the other tokens never, so
    /// both present and absent tokens are common.
    fn stream(rng: &mut StdRng) -> (Vec<u8>, Vec<(usize, usize)>) {
        const ALPHABET: &[u8] = b"GEP/1.x";
        let tokens = tokens();
        let mut out = Vec::new();
        let mut planted = Vec::new();
        for _ in 0..rng.gen_range(1..12usize) {
            let filler = match rng.gen_range(0..4u8) {
                0 => rng.gen_range(0..40_000usize),
                _ => rng.gen_range(0..200usize),
            };
            out.extend((0..filler).map(|_| ALPHABET[rng.gen_range(0..ALPHABET.len())]));
            let start = out.len();
            out.extend_from_slice(&tokens[rng.gen_range(0..tokens.len())]);
            planted.push((start, out.len()));
        }
        (out, planted)
    }

    /// Segments covering a stream of `len` bytes, cut at random and inside
    /// every planted token, in a shuffled or a locally reordered order
    /// with some retransmitted copies and some that overlap a neighbour.
    /// Each piece arrives at least once, so the whole stream must be
    /// delivered. A shuffle merges many segments into one delivery;
    /// local reordering delivers most apart.
    fn segments(rng: &mut StdRng, len: usize, planted: &[(usize, usize)]) -> Vec<(usize, usize)> {
        let mut cuts = vec![0, len];
        for _ in 0..rng.gen_range(0..16usize) {
            cuts.push(rng.gen_range(0..=len));
        }
        for &(start, end) in planted {
            if end - start > 1 {
                cuts.push(rng.gen_range(start + 1..end));
            }
        }
        cuts.sort_unstable();
        cuts.dedup();
        let mut order: Vec<(usize, usize)> = cuts.windows(2).map(|w| (w[0], w[1])).collect();
        for _ in 0..rng.gen_range(0..4usize) {
            let a = rng.gen_range(0..=len);
            let b = rng.gen_range(a..=len);
            order.insert(rng.gen_range(0..=order.len()), (a, b));
        }
        // Pieces that run on into the next piece, or start inside the
        // previous one.
        for w in cuts.windows(3) {
            let overlap = match rng.gen_range(0..3u8) {
                0 => (w[0], rng.gen_range(w[1]..=w[2])),
                1 => (rng.gen_range(w[0]..=w[1]), w[2]),
                _ => continue,
            };
            order.insert(rng.gen_range(0..=order.len()), overlap);
        }
        if rng.gen_range(0..2u8) == 0 {
            for i in (1..order.len()).rev() {
                order.swap(i, rng.gen_range(0..=i));
            }
        } else {
            for _ in 0..rng.gen_range(0..order.len()) {
                let i = rng.gen_range(1..order.len());
                order.swap(i - 1, i);
            }
        }
        order
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// After every delivery, a token is in the window exactly when
        /// `contains` finds it in the last `SCAN_WINDOW` bytes of the
        /// reassembled stream.
        #[test]
        fn incremental_matches_agree_with_window_rescan(seed in any::<u64>()) {
            let mut rng = StdRng::seed_from_u64(seed);
            let (data, planted) = stream(&mut rng);
            let isn = rng.next_u32();
            let tokens = tokens();
            let mut half = HalfConn::new(isn, 0);
            let mut assembled = Vec::new();
            for (a, b) in segments(&mut rng, data.len(), &planted) {
                let delivered = half.receive(isn.wrapping_add(a as u32), &data[a..b]);
                half.scan(&delivered, &tokens);
                assembled.extend_from_slice(&delivered);
                prop_assert!(data.starts_with(&assembled));
                let from = assembled.len().saturating_sub(SCAN_WINDOW as usize);
                let window = &assembled[from..];
                for (i, token) in tokens.iter().enumerate() {
                    prop_assert_eq!(half.in_window(i), contains(window, token), "token {}", i);
                }
            }
            prop_assert_eq!(assembled.len(), data.len());
            prop_assert!(half.ooo.is_empty(), "{} segments left buffered", half.ooo.len());
        }
    }

    fn deliver(half: &mut HalfConn, data: &[u8], pieces: &[(usize, usize)]) -> Vec<u8> {
        let mut got = Vec::new();
        for &(a, b) in pieces {
            got.extend_from_slice(&half.receive(a as u32, &data[a..b]));
        }
        got
    }

    /// A buffered segment that an overlapping in-order segment has passed
    /// is trimmed and drained instead of stalling the stream.
    #[test]
    fn passed_buffered_segment_is_trimmed_and_drained() {
        let data: Vec<u8> = (0..20).collect();
        let mut half = HalfConn::new(0, 0);
        assert_eq!(
            deliver(&mut half, &data, &[(10, 20), (0, 12), (12, 20)]),
            data
        );
        assert!(half.ooo.is_empty());
    }

    /// A longer segment at a start already buffered keeps its tail.
    #[test]
    fn longer_segment_at_a_buffered_start_adds_its_tail() {
        let data: Vec<u8> = (0..20).collect();
        let mut half = HalfConn::new(0, 0);
        assert_eq!(
            deliver(&mut half, &data, &[(10, 12), (10, 20), (0, 10)]),
            data
        );
        assert!(half.ooo.is_empty());
    }

    /// The window rule in time: a response keyword delivered before the
    /// request tokens complete still counts while it stays in the window.
    #[test]
    fn keyword_delivered_early_counts_until_it_leaves_the_window() {
        let keyword = vec![b"video".to_vec()];
        let mut half = HalfConn::new(0, 0);
        half.scan(b"xx video xx", &keyword);
        assert!(half.in_window(0));
        half.scan(&vec![b'.'; SCAN_WINDOW as usize - 8], &keyword);
        assert!(
            half.in_window(0),
            "the match starts on the window's first byte"
        );
        half.scan(b".", &keyword);
        assert!(!half.in_window(0), "its first byte has left the window");
    }
}
