//! The composite packet type: an IPv4 header plus a transport header plus a
//! payload, serializable to wire bytes, and a tolerant parsed view.
//!
//! Wire bytes (`Vec<u8>`) are the canonical unit exchanged inside the
//! simulator — exactly what would cross a real link — so that middleboxes,
//! router hops, and endpoint stacks each apply *their own* interpretation of
//! possibly-malformed data, which is the entire premise of the paper.

use std::net::Ipv4Addr;

use crate::buf::{PacketBuf, WireBytes};
use crate::ipv4::{protocol, Ipv4Header, ParsedIpv4};
use crate::tcp::{ParsedTcp, TcpFlags, TcpHeader};
use crate::udp::{ParsedUdp, UdpHeader};

/// The transport layer carried by a [`Packet`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Transport {
    Tcp(TcpHeader),
    Udp(UdpHeader),
    /// No transport header: the payload sits directly after the IP header.
    /// The associated value is the protocol number to advertise.
    Raw(u8),
}

/// A packet under construction. Serializing never fails: invalid field
/// combinations are the point.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Packet {
    pub ip: Ipv4Header,
    pub transport: Transport,
    pub payload: Vec<u8>,
}

impl Packet {
    /// A TCP data segment with PSH+ACK.
    pub fn tcp(
        src: Ipv4Addr,
        dst: Ipv4Addr,
        src_port: u16,
        dst_port: u16,
        seq: u32,
        ack: u32,
        payload: impl Into<Vec<u8>>,
    ) -> Packet {
        Packet {
            ip: Ipv4Header::new(src, dst),
            transport: Transport::Tcp(TcpHeader::new(src_port, dst_port, seq, ack)),
            payload: payload.into(),
        }
    }

    /// A UDP datagram.
    pub fn udp(
        src: Ipv4Addr,
        dst: Ipv4Addr,
        src_port: u16,
        dst_port: u16,
        payload: impl Into<Vec<u8>>,
    ) -> Packet {
        Packet {
            ip: Ipv4Header::new(src, dst),
            transport: Transport::Udp(UdpHeader::new(src_port, dst_port)),
            payload: payload.into(),
        }
    }

    /// Mutable access to the TCP header; panics if not TCP. Convenience for
    /// the evasion transforms, which know what they built — a mismatch is
    /// a construction bug, not a runtime condition.
    pub fn tcp_mut(&mut self) -> &mut TcpHeader {
        match &mut self.transport {
            Transport::Tcp(h) => h,
            // lint: allow(no-panic) documented contract: caller constructed the packet as TCP
            other => panic!("expected TCP transport, found {other:?}"),
        }
    }

    /// Mutable access to the UDP header; panics if not UDP.
    pub fn udp_mut(&mut self) -> &mut UdpHeader {
        match &mut self.transport {
            Transport::Udp(h) => h,
            // lint: allow(no-panic) documented contract: caller constructed the packet as UDP
            other => panic!("expected UDP transport, found {other:?}"),
        }
    }

    /// Set TCP flags (convenience; panics if not TCP).
    pub fn with_flags(mut self, flags: TcpFlags) -> Packet {
        self.tcp_mut().flags = flags;
        self
    }

    /// Serialize to wire bytes.
    pub fn serialize(&self) -> Vec<u8> {
        self.serialize_gather(&[&self.payload])
    }

    /// Serialize this packet's headers around `payload`, the concatenation
    /// of the given pieces, in place of `self.payload`. The wire bytes are
    /// built in one buffer — headers, payload gathered piece by piece, then
    /// checksums in place — and are identical to serializing a packet that
    /// owns the joined payload.
    pub fn serialize_gather(&self, payload: &[&[u8]]) -> Vec<u8> {
        let payload_len: usize = payload.iter().map(|p| p.len()).sum();
        let (derived_proto, transport_len) = match &self.transport {
            Transport::Tcp(h) => (protocol::TCP, h.actual_header_len()),
            Transport::Udp(_) => (protocol::UDP, crate::udp::UDP_HEADER_LEN),
            Transport::Raw(p) => (*p, 0),
        };
        let segment_len = transport_len + payload_len;
        let mut out = Vec::with_capacity(self.ip.actual_header_len() + segment_len);
        self.ip.write(&mut out, derived_proto, segment_len);
        let segment_start = out.len();
        match &self.transport {
            Transport::Tcp(h) => h.write_header(&mut out),
            Transport::Udp(h) => h.write_header(&mut out, payload_len),
            Transport::Raw(_) => {}
        }
        for piece in payload {
            out.extend_from_slice(piece);
        }
        let (src, dst, segment) = (self.ip.src, self.ip.dst, &mut out[segment_start..]);
        match &self.transport {
            Transport::Tcp(h) => h.fill_checksum(src, dst, segment),
            Transport::Udp(h) => h.fill_checksum(src, dst, segment),
            Transport::Raw(_) => {}
        }
        out
    }

    /// Serialize the byte stream formed by concatenating `messages` as
    /// consecutive TCP segments of at most `mss` payload bytes. `self`
    /// supplies the first segment's headers (its payload is ignored); each
    /// later segment's sequence number advances by the bytes sent before
    /// it. The result equals chunking the joined stream at `mss` and
    /// serializing one packet per chunk, without ever building the joined
    /// stream: every payload byte is copied once, into its wire buffer.
    /// An empty stream yields no segments. Panics if `self` is not TCP.
    pub fn serialize_segments<M: AsRef<[u8]>>(&self, messages: &[M], mss: usize) -> Vec<Vec<u8>> {
        let mut template = self.clone();
        let mut remaining = messages
            .iter()
            .map(|m| m.as_ref())
            .filter(|m| !m.is_empty());
        let mut current: &[u8] = &[];
        let mut segments = Vec::new();
        let mut pieces: Vec<&[u8]> = Vec::new();
        loop {
            pieces.clear();
            let mut room = mss.max(1);
            while room > 0 {
                if current.is_empty() {
                    match remaining.next() {
                        Some(m) => current = m,
                        None => break,
                    }
                }
                let (head, tail) = current.split_at(room.min(current.len()));
                pieces.push(head);
                room -= head.len();
                current = tail;
            }
            let len: usize = pieces.iter().map(|p| p.len()).sum();
            if len == 0 {
                return segments;
            }
            segments.push(template.serialize_gather(&pieces));
            let tcp = template.tcp_mut();
            tcp.seq = tcp.seq.wrapping_add(len as u32);
        }
    }
}

/// Parsed transport layer of a [`ParsedPacket`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParsedTransport {
    Tcp(ParsedTcp),
    Udp(ParsedUdp),
    /// Unknown or unparsable transport; the protocol number is recorded.
    Other(u8),
}

/// A tolerant parsed view over wire bytes. Everything that can be extracted
/// is extracted; judgments about validity live in [`crate::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsedPacket {
    pub ip: ParsedIpv4,
    pub transport: ParsedTransport,
    /// Transport payload bytes actually present in the buffer — a shared
    /// view of the wire buffer when parsed from a [`PacketBuf`], never a
    /// copy.
    pub payload: PacketBuf,
    /// The full wire bytes this view was parsed from.
    pub wire_len: usize,
}

impl ParsedPacket {
    /// Parse wire bytes. Returns `None` only when there is no usable IPv4
    /// fixed header at all.
    ///
    /// Accepts any [`WireBytes`] input: parsing a [`PacketBuf`] yields a
    /// zero-copy payload view sharing the wire buffer; raw slices and
    /// `Vec<u8>` inputs (tests, legacy callers) materialize the payload.
    /// Callers that only need headers use [`ParsedPacket::parse_headers`].
    pub fn parse<W: WireBytes + ?Sized>(input: &W) -> Option<ParsedPacket> {
        let buf = input.wire();
        let (ip, transport, payload_offset) = ParsedPacket::parse_headers(buf)?;
        Some(ParsedPacket {
            ip,
            transport,
            payload: input.tail_view(payload_offset),
            wire_len: buf.len(),
        })
    }

    /// The header half of [`ParsedPacket::parse`]: the IP header, the
    /// transport header, and the offset where the transport payload starts
    /// (`buf[offset..]` is exactly what `parse` returns as the payload).
    /// Never touches the payload bytes, so validation, forwarding and
    /// observation read headers without copying anything.
    pub fn parse_headers(buf: &[u8]) -> Option<(ParsedIpv4, ParsedTransport, usize)> {
        let ip = ParsedIpv4::parse(buf)?;
        let body_start = ip.payload_offset.min(buf.len());
        let body = &buf[body_start..];
        // Fragments with non-zero offset carry raw payload, not a transport
        // header.
        let transport = if ip.fragment_offset > 0 {
            ParsedTransport::Other(ip.protocol)
        } else {
            match ip.protocol {
                protocol::TCP => match ParsedTcp::parse(body) {
                    Some(t) => ParsedTransport::Tcp(t),
                    None => ParsedTransport::Other(protocol::TCP),
                },
                protocol::UDP => match ParsedUdp::parse(body) {
                    Some(u) => ParsedTransport::Udp(u),
                    None => ParsedTransport::Other(protocol::UDP),
                },
                other => ParsedTransport::Other(other),
            }
        };
        let payload_offset = body_start
            + match &transport {
                ParsedTransport::Tcp(t) => t.payload_offset.min(body.len()),
                ParsedTransport::Udp(_) => crate::udp::UDP_HEADER_LEN.min(body.len()),
                ParsedTransport::Other(_) => 0,
            };
        Some((ip, transport, payload_offset))
    }

    /// Source port if a transport header was parsed.
    pub fn src_port(&self) -> Option<u16> {
        match &self.transport {
            ParsedTransport::Tcp(t) => Some(t.src_port),
            ParsedTransport::Udp(u) => Some(u.src_port),
            ParsedTransport::Other(_) => None,
        }
    }

    /// Destination port if a transport header was parsed.
    pub fn dst_port(&self) -> Option<u16> {
        match &self.transport {
            ParsedTransport::Tcp(t) => Some(t.dst_port),
            ParsedTransport::Udp(u) => Some(u.dst_port),
            ParsedTransport::Other(_) => None,
        }
    }

    /// TCP view, if this is a parsed TCP packet.
    pub fn tcp(&self) -> Option<&ParsedTcp> {
        match &self.transport {
            ParsedTransport::Tcp(t) => Some(t),
            _ => None,
        }
    }

    /// UDP view, if this is a parsed UDP packet.
    pub fn udp(&self) -> Option<&ParsedUdp> {
        match &self.transport {
            ParsedTransport::Udp(u) => Some(u),
            _ => None,
        }
    }

    /// True when this packet carries transport payload bytes.
    pub fn has_payload(&self) -> bool {
        !self.payload.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addr(a: u8) -> Ipv4Addr {
        Ipv4Addr::new(10, 0, 0, a)
    }

    #[test]
    fn tcp_packet_roundtrip() {
        let pkt = Packet::tcp(addr(1), addr(2), 40000, 80, 100, 200, &b"hello"[..]);
        let wire = pkt.serialize();
        let parsed = ParsedPacket::parse(&wire).unwrap();
        assert_eq!(parsed.ip.protocol, protocol::TCP);
        assert_eq!(parsed.src_port(), Some(40000));
        assert_eq!(parsed.dst_port(), Some(80));
        assert_eq!(parsed.payload, b"hello");
        assert_eq!(parsed.wire_len, wire.len());
    }

    #[test]
    fn udp_packet_roundtrip() {
        let pkt = Packet::udp(addr(1), addr(2), 3478, 3478, &b"stun!"[..]);
        let wire = pkt.serialize();
        let parsed = ParsedPacket::parse(&wire).unwrap();
        assert_eq!(parsed.ip.protocol, protocol::UDP);
        assert_eq!(parsed.payload, b"stun!");
        assert!(parsed.udp().is_some());
    }

    #[test]
    fn wrong_protocol_override_carries_tcp_bytes() {
        // The "wrong IP protocol" technique: a valid TCP segment whose IP
        // header advertises an unassigned protocol number.
        let mut pkt = Packet::tcp(addr(1), addr(2), 1, 2, 0, 0, &b"GET /"[..]);
        pkt.ip.protocol = Some(protocol::UNASSIGNED);
        let wire = pkt.serialize();
        let parsed = ParsedPacket::parse(&wire).unwrap();
        assert_eq!(parsed.ip.protocol, protocol::UNASSIGNED);
        // Parsed per the advertised protocol: opaque bytes.
        assert!(matches!(parsed.transport, ParsedTransport::Other(_)));
        // But the raw body still contains the TCP header + payload, which a
        // sloppy DPI engine might parse anyway.
        assert!(parsed.payload.windows(5).any(|w| w == b"GET /"));
    }

    #[test]
    fn raw_transport() {
        let pkt = Packet {
            ip: Ipv4Header::new(addr(1), addr(2)),
            transport: Transport::Raw(protocol::ICMP),
            payload: vec![8, 0, 0, 0],
        };
        let wire = pkt.serialize();
        let parsed = ParsedPacket::parse(&wire).unwrap();
        assert_eq!(parsed.ip.protocol, protocol::ICMP);
        assert_eq!(parsed.payload, vec![8, 0, 0, 0]);
    }

    #[test]
    fn fragment_body_is_not_parsed_as_transport() {
        let mut pkt = Packet::tcp(addr(1), addr(2), 1, 2, 0, 0, &b"abcdefgh"[..]);
        pkt.ip.fragment_offset = 3;
        let wire = pkt.serialize();
        let parsed = ParsedPacket::parse(&wire).unwrap();
        assert!(matches!(parsed.transport, ParsedTransport::Other(_)));
    }

    #[test]
    fn with_flags_builder() {
        let pkt = Packet::tcp(addr(1), addr(2), 1, 2, 9, 9, vec![]).with_flags(TcpFlags::RST);
        let parsed = ParsedPacket::parse(&pkt.serialize()).unwrap();
        assert!(parsed.tcp().unwrap().flags.rst);
    }
}
