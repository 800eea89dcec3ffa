//! Flow schedules: the intermediate representation between a recorded
//! trace and wire packets.
//!
//! A [`Schedule`] is the ordered plan of everything the client side will
//! do for one replay — data segments at stream offsets, crafted inert
//! packets, pauses, waits for server data. Evasion techniques are
//! *schedule rewrites* ([`crate::evasion`]), and [`ClientFlow::lower`]
//! turns each scheduled packet into wire bytes on a live connection —
//! for the replay engine ([`crate::replay`]), the socket library
//! ([`crate::socket`]) and every other client-side sender alike.

use std::net::Ipv4Addr;
use std::time::Duration;

use liberate_dpi::profiles::SERVER_ADDR;
use liberate_packet::checksum::ChecksumSpec;
use liberate_packet::fragment::fragment_packet;
use liberate_packet::ipv4::IpOption;
use liberate_packet::packet::{Packet, Transport};
use liberate_packet::tcp::TcpFlags;
use liberate_traces::recorded::{RecordedTrace, Sender, TraceProtocol};

/// Header mutations applied to one scheduled packet — the raw material of
/// inert-packet crafting (Table 3's rows).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Craft {
    pub ttl: Option<u8>,
    pub ip_version: Option<u8>,
    pub ip_ihl: Option<u8>,
    /// Added to the correct total length.
    pub ip_total_length_delta: Option<i32>,
    pub ip_bad_checksum: bool,
    pub ip_protocol: Option<u8>,
    pub ip_options: Vec<IpOption>,
    /// Added to the in-stream sequence number (TCP only).
    pub seq_delta: i64,
    pub tcp_bad_checksum: bool,
    pub tcp_flags: Option<TcpFlags>,
    pub tcp_data_offset: Option<u8>,
    /// Override the TCP window (used to watermark lib·erate's own inert
    /// RSTs so captures can tell them apart from censor-injected ones).
    pub tcp_window: Option<u16>,
    pub udp_bad_checksum: bool,
    /// Added to the correct UDP length field.
    pub udp_length_delta: Option<i32>,
}

impl Craft {
    pub fn is_default(&self) -> bool {
        *self == Craft::default()
    }

    /// Apply these mutations to a packet that will be serialized around
    /// a `payload_len`-byte payload (see [`Packet::serialize_around`]):
    /// length deltas are judged against that payload.
    pub fn apply_around(&self, pkt: &mut Packet, payload_len: usize) {
        if let Some(ttl) = self.ttl {
            pkt.ip.ttl = ttl;
        }
        if let Some(v) = self.ip_version {
            pkt.ip.version = v;
        }
        if let Some(ihl) = self.ip_ihl {
            pkt.ip.ihl = Some(ihl);
        }
        if !self.ip_options.is_empty() {
            pkt.ip.options = self.ip_options.clone();
        }
        if let Some(delta) = self.ip_total_length_delta {
            let transport_len = match &pkt.transport {
                Transport::Tcp(t) => t.actual_header_len(),
                Transport::Udp(_) => liberate_packet::udp::UDP_HEADER_LEN,
                Transport::Raw(_) => 0,
            };
            let actual = pkt.ip.actual_header_len() + transport_len + payload_len;
            let target = (actual as i64 + delta as i64).clamp(0, u16::MAX as i64) as u16;
            pkt.ip.total_length = Some(target);
        }
        if self.ip_bad_checksum {
            pkt.ip.checksum = ChecksumSpec::Fixed(0x0bad);
        }
        if let Some(p) = self.ip_protocol {
            pkt.ip.protocol = Some(p);
        }
        match &mut pkt.transport {
            Transport::Tcp(t) => {
                if self.seq_delta != 0 {
                    t.seq = (t.seq as i64).wrapping_add(self.seq_delta) as u32;
                }
                if self.tcp_bad_checksum {
                    t.checksum = ChecksumSpec::Fixed(0xbadc);
                }
                if let Some(flags) = self.tcp_flags {
                    t.flags = flags;
                }
                if let Some(off) = self.tcp_data_offset {
                    t.data_offset = Some(off);
                }
                if let Some(w) = self.tcp_window {
                    t.window = w;
                }
            }
            Transport::Udp(u) => {
                if self.udp_bad_checksum {
                    u.checksum = ChecksumSpec::Fixed(0xbadc);
                }
                if let Some(delta) = self.udp_length_delta {
                    let actual = (liberate_packet::udp::UDP_HEADER_LEN + payload_len) as i64;
                    u.length = Some((actual + delta as i64).clamp(0, u16::MAX as i64) as u16);
                }
            }
            Transport::Raw(_) => {}
        }
    }
}

/// Fragmentation plan for one scheduled packet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FragPlan {
    /// Number of fragments to produce (the paper uses m = 2, §5.2).
    pub pieces: usize,
    /// Send the fragments in reverse order.
    pub reverse: bool,
    /// Payload byte that must fall on a fragment boundary (so a matching
    /// field is split across fragments). The engine rounds it to the
    /// 8-byte fragmentation granularity.
    pub boundary: Option<usize>,
}

/// One client packet to emit.
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduledPacket {
    /// Byte offset within the client stream this payload claims
    /// (determines the TCP sequence number). For UDP it is only used for
    /// bookkeeping.
    pub offset: u64,
    pub payload: Vec<u8>,
    /// Whether this packet is real data (true) or an inert insertion
    /// (false). Inert packets never advance the expected stream.
    pub counts: bool,
    pub craft: Craft,
    pub fragment: Option<FragPlan>,
}

impl ScheduledPacket {
    pub fn data(offset: u64, payload: Vec<u8>) -> ScheduledPacket {
        ScheduledPacket {
            offset,
            payload,
            counts: true,
            craft: Craft::default(),
            fragment: None,
        }
    }

    pub fn inert(offset: u64, payload: Vec<u8>, craft: Craft) -> ScheduledPacket {
        ScheduledPacket {
            offset,
            payload,
            counts: false,
            craft,
            fragment: None,
        }
    }
}

/// One client flow's addressing toward [`SERVER_ADDR`]: everything
/// needed to put a [`ScheduledPacket`] on the wire. The replay engine,
/// [`crate::socket::LiberateSocket`] and Table 3's OS matrix all lower
/// through it, so a technique deploys as exactly the packets that
/// evaluation proved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClientFlow {
    pub protocol: TraceProtocol,
    pub client_addr: Ipv4Addr,
    pub client_port: u16,
    pub server_port: u16,
    /// TCP only: the sequence number of the SYN.
    pub client_isn: u32,
    /// TCP only: the sequence number of the server's SYN-ACK.
    pub server_isn: u32,
}

impl ClientFlow {
    /// A header-only TCP packet of this flow.
    fn tcp(&self, seq: u32, ack: u32) -> Packet {
        Packet::tcp(
            self.client_addr,
            SERVER_ADDR,
            self.client_port,
            self.server_port,
            seq,
            ack,
            Vec::new(),
        )
    }

    /// The client sequence number of stream offset `offset`.
    fn seq_at(&self, offset: u64) -> u32 {
        self.client_isn.wrapping_add(1).wrapping_add(offset as u32)
    }

    /// The handshake's SYN.
    pub fn syn(&self) -> Vec<u8> {
        self.tcp(self.client_isn, 0)
            .with_flags(TcpFlags::SYN)
            .serialize()
    }

    /// The handshake's final ACK (needs `server_isn`).
    pub fn ack(&self) -> Vec<u8> {
        self.tcp(self.seq_at(0), self.server_isn.wrapping_add(1))
            .with_flags(TcpFlags::ACK)
            .serialize()
    }

    /// A FIN closing the client stream after `offset` bytes.
    pub(crate) fn fin(&self, offset: u64) -> Vec<u8> {
        self.tcp(self.seq_at(offset), self.server_isn.wrapping_add(1))
            .with_flags(TcpFlags::FIN_ACK)
            .serialize()
    }

    /// Lower one scheduled packet to wire bytes, handing each packet
    /// (one, or its fragments) to `emit`. The payload is serialized
    /// straight from the schedule into the wire buffer. `ident` seeds
    /// the IP identification pattern; `data_ttl` forces a TTL before the
    /// craft applies (middlebox localization, §5.2).
    pub fn lower(
        &self,
        sp: &ScheduledPacket,
        ident: u64,
        data_ttl: Option<u8>,
        mut emit: impl FnMut(Vec<u8>),
    ) {
        let mut pkt = match self.protocol {
            TraceProtocol::Tcp => self.tcp(self.seq_at(sp.offset), self.server_isn.wrapping_add(1)),
            TraceProtocol::Udp => Packet::udp(
                self.client_addr,
                SERVER_ADDR,
                self.client_port,
                self.server_port,
                Vec::new(),
            ),
        };
        if let Some(ttl) = data_ttl {
            pkt.ip.ttl = ttl;
        }
        pkt.ip.identification = (ident as u16)
            .wrapping_mul(251)
            .wrapping_add((sp.offset as u16).wrapping_mul(31));
        sp.craft.apply_around(&mut pkt, sp.payload.len());
        let wire = pkt.serialize_around(&sp.payload);

        match &sp.fragment {
            None => emit(wire),
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
                frags.into_iter().for_each(emit);
            }
        }
    }
}

/// One step of a client-side replay plan.
#[derive(Debug, Clone, PartialEq)]
pub enum Step {
    Packet(ScheduledPacket),
    /// Advance simulated time with no traffic.
    Pause(Duration),
    /// Wait until the client has received at least this many cumulative
    /// payload bytes from the server.
    AwaitServer {
        cumulative_bytes: u64,
    },
}

/// The full client-side plan for one replay.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Schedule {
    pub steps: Vec<Step>,
    pub protocol: Option<TraceProtocol>,
    /// Bytes at the start of the client stream the server application
    /// should discard (used by the server-supported dummy-prefix
    /// technique).
    pub server_skip_prefix: u64,
}

impl Schedule {
    /// Build the base schedule from a recorded trace: one data packet per
    /// client message, an await after each run of server messages.
    pub fn from_trace(trace: &RecordedTrace) -> Schedule {
        let mut steps = Vec::new();
        let mut offset = 0u64;
        let mut server_cumulative = 0u64;
        let mut pending_await = false;
        for msg in &trace.messages {
            match msg.sender {
                Sender::Client => {
                    if pending_await {
                        steps.push(Step::AwaitServer {
                            cumulative_bytes: server_cumulative,
                        });
                        pending_await = false;
                    }
                    if msg.gap_micros > 0 {
                        steps.push(Step::Pause(Duration::from_micros(msg.gap_micros)));
                    }
                    steps.push(Step::Packet(ScheduledPacket::data(
                        offset,
                        msg.payload.clone(),
                    )));
                    offset += msg.payload.len() as u64;
                }
                Sender::Server => {
                    server_cumulative += msg.payload.len() as u64;
                    pending_await = true;
                }
            }
        }
        if pending_await {
            steps.push(Step::AwaitServer {
                cumulative_bytes: server_cumulative,
            });
        }
        Schedule {
            steps,
            protocol: Some(trace.protocol),
            server_skip_prefix: 0,
        }
    }

    /// This schedule with `prefix` sent first, one data packet per
    /// piece, and every later packet's offset moved past it — the
    /// schedule [`Schedule::from_trace`] builds for the trace with
    /// `prefix` prepended as client messages.
    pub fn with_data_prefix(&self, prefix: &[&[u8]]) -> Schedule {
        let mut steps = Vec::with_capacity(prefix.len() + self.steps.len());
        let mut offset = 0u64;
        for piece in prefix {
            steps.push(Step::Packet(ScheduledPacket::data(offset, piece.to_vec())));
            offset += piece.len() as u64;
        }
        steps.extend(self.steps.iter().map(|step| match step {
            Step::Packet(sp) => Step::Packet(ScheduledPacket {
                offset: sp.offset + offset,
                ..sp.clone()
            }),
            other => other.clone(),
        }));
        Schedule {
            steps,
            protocol: self.protocol,
            server_skip_prefix: self.server_skip_prefix,
        }
    }

    /// Indices (into `steps`) of data packets, in order.
    pub fn data_packet_indices(&self) -> Vec<usize> {
        self.steps
            .iter()
            .enumerate()
            .filter_map(|(i, s)| match s {
                Step::Packet(p) if p.counts => Some(i),
                _ => None,
            })
            .collect()
    }

    /// Total client payload bytes of real data.
    pub fn client_bytes(&self) -> u64 {
        self.steps
            .iter()
            .map(|s| match s {
                Step::Packet(p) if p.counts => p.payload.len() as u64,
                _ => 0,
            })
            .sum()
    }

    /// Extra packets this schedule emits beyond the base data packets
    /// (inert insertions) — the technique-overhead metric of Table 2.
    pub fn inert_packet_count(&self) -> usize {
        self.steps
            .iter()
            .filter(|s| matches!(s, Step::Packet(p) if !p.counts))
            .count()
    }

    /// Total pause time inserted.
    pub fn pause_total(&self) -> Duration {
        self.steps
            .iter()
            .map(|s| match s {
                Step::Pause(d) => *d,
                _ => Duration::ZERO,
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use liberate_traces::recorded::TraceMessage;
    use std::net::Ipv4Addr;

    fn trace() -> RecordedTrace {
        let mut t = RecordedTrace::new("t", TraceProtocol::Tcp, 80);
        t.push_message(TraceMessage::client(&b"GET /"[..]));
        t.push_message(TraceMessage::server(&b"HTTP/1.1 200 OK"[..]));
        t.push_message(TraceMessage::server(&b"body"[..]));
        t.push_message(TraceMessage::client(&b"GET /2"[..]));
        t.push_message(TraceMessage::server(&b"resp2"[..]));
        t
    }

    #[test]
    fn base_schedule_structure() {
        let s = Schedule::from_trace(&trace());
        // pkt, await(19), pkt, await(24)
        assert_eq!(s.steps.len(), 4);
        assert!(matches!(&s.steps[0], Step::Packet(p) if p.payload == b"GET /" && p.offset == 0));
        assert!(matches!(
            &s.steps[1],
            Step::AwaitServer {
                cumulative_bytes: 19
            }
        ));
        assert!(matches!(&s.steps[2], Step::Packet(p) if p.offset == 5));
        assert!(matches!(
            &s.steps[3],
            Step::AwaitServer {
                cumulative_bytes: 24
            }
        ));
        assert_eq!(s.client_bytes(), 11);
        assert_eq!(s.inert_packet_count(), 0);
    }

    #[test]
    fn craft_applies_all_fields() {
        let mut pkt = Packet::tcp(
            Ipv4Addr::new(1, 1, 1, 1),
            Ipv4Addr::new(2, 2, 2, 2),
            10,
            80,
            1000,
            2000,
            &b"payload"[..],
        );
        let craft = Craft {
            ttl: Some(3),
            ip_bad_checksum: true,
            seq_delta: 1_000_000,
            tcp_flags: Some(TcpFlags::PSH_ONLY),
            ..Craft::default()
        };
        craft.apply_around(&mut pkt, 7);
        assert_eq!(pkt.ip.ttl, 3);
        let wire = pkt.serialize();
        let defects = liberate_packet::validate::validate_wire(&wire);
        assert!(defects.contains(&liberate_packet::validate::Malformation::IpChecksumWrong));
        assert!(defects.contains(&liberate_packet::validate::Malformation::TcpAckFlagMissing));
        let parsed = liberate_packet::packet::ParsedPacket::parse(&wire).unwrap();
        assert_eq!(parsed.tcp().unwrap().seq, 1_001_000);
    }

    #[test]
    fn craft_total_length_delta() {
        let mut pkt = Packet::tcp(
            Ipv4Addr::new(1, 1, 1, 1),
            Ipv4Addr::new(2, 2, 2, 2),
            10,
            80,
            0,
            0,
            &b"1234567890"[..],
        );
        Craft {
            ip_total_length_delta: Some(20),
            ..Craft::default()
        }
        .apply_around(&mut pkt, 10);
        let wire = pkt.serialize();
        let parsed = liberate_packet::packet::ParsedPacket::parse(&wire).unwrap();
        assert_eq!(parsed.ip.total_length as usize, wire.len() + 20);
    }

    #[test]
    fn craft_udp_length() {
        let mut pkt = Packet::udp(
            Ipv4Addr::new(1, 1, 1, 1),
            Ipv4Addr::new(2, 2, 2, 2),
            10,
            99,
            &b"12345678"[..],
        );
        Craft {
            udp_length_delta: Some(-4),
            ..Craft::default()
        }
        .apply_around(&mut pkt, 8);
        let wire = pkt.serialize();
        let parsed = liberate_packet::packet::ParsedPacket::parse(&wire).unwrap();
        assert_eq!(parsed.udp().unwrap().length, 12);
    }

    /// Crafting a header-only packet around a borrowed payload gives the
    /// bytes of crafting and serializing a packet that owns it, length
    /// deltas included.
    #[test]
    fn craft_around_a_borrowed_payload_matches_an_owned_one() {
        let payload = b"GET / HTTP/1.1\r\n\r\n";
        let crafts = [
            Craft {
                ip_total_length_delta: Some(-7),
                ttl: Some(4),
                ..Craft::default()
            },
            Craft {
                udp_length_delta: Some(9),
                ip_bad_checksum: true,
                ..Craft::default()
            },
        ];
        let (src, dst) = (Ipv4Addr::new(1, 1, 1, 1), Ipv4Addr::new(2, 2, 2, 2));
        for craft in &crafts {
            for udp in [false, true] {
                let packet = |payload: &[u8]| {
                    if udp {
                        Packet::udp(src, dst, 10, 53, payload)
                    } else {
                        Packet::tcp(src, dst, 10, 80, 1, 2, payload)
                    }
                };
                let mut owned = packet(payload);
                craft.apply_around(&mut owned, payload.len());
                let mut bare = packet(b"");
                craft.apply_around(&mut bare, payload.len());
                assert_eq!(bare.serialize_around(payload), owned.serialize());
            }
        }
    }

    #[test]
    fn data_prefix_equals_prepended_trace() {
        let mut t = trace();
        t.messages[0].gap_micros = 5_000;
        let prefix: [&[u8]; 2] = [b"xyz", b"w"];
        let mut prepended = t.clone();
        for piece in prefix.iter().rev() {
            prepended.messages.insert(0, TraceMessage::client(*piece));
        }
        assert_eq!(
            Schedule::from_trace(&t).with_data_prefix(&prefix),
            Schedule::from_trace(&prepended)
        );
    }

    #[test]
    fn gaps_become_pauses() {
        let mut t = RecordedTrace::new("t", TraceProtocol::Udp, 9);
        t.push_message(TraceMessage::client(&b"a"[..]));
        t.push_message(TraceMessage::client(&b"b"[..]).after(Duration::from_millis(20)));
        let s = Schedule::from_trace(&t);
        assert!(matches!(s.steps[1], Step::Pause(d) if d == Duration::from_millis(20)));
    }
}
