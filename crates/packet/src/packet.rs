//! The composite packet type: an IPv4 header plus a transport header plus a
//! payload, serializable to wire bytes, and a tolerant parsed view.
//!
//! Wire bytes (`Vec<u8>`) are the canonical unit exchanged inside the
//! simulator — exactly what would cross a real link — so that middleboxes,
//! router hops, and endpoint stacks each apply *their own* interpretation of
//! possibly-malformed data, which is the entire premise of the paper.

use std::net::Ipv4Addr;
use std::ops::Range;

use crate::buf::{PacketBuf, WireBytes};
use crate::checksum::{
    checksum_of, ones_complement_sum, ones_complement_sum_gather, pseudo_header_sum, ChecksumSpec,
};
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
        self.serialize_around(&self.payload)
    }

    /// Serialize this packet's headers around `payload`, in place of
    /// `self.payload`, into one new buffer: a caller that borrows the
    /// payload need not copy it into the packet first. The bytes are
    /// identical to serializing a packet that owns `payload`.
    pub fn serialize_around(&self, payload: &[u8]) -> Vec<u8> {
        let mut out = vec![0; self.wire_len(payload.len())];
        self.write_gather(&[payload], &mut out);
        out
    }

    /// Serialize this packet's headers around `payload`, the concatenation
    /// of the given pieces, in place of `self.payload`, straight into one
    /// shared buffer — headers, payload gathered piece by piece, then
    /// checksums in place. The bytes are identical to serializing a
    /// packet that owns the joined payload.
    pub fn serialize_gather(&self, payload: &[&[u8]]) -> PacketBuf {
        let payload_len = payload.iter().map(|p| p.len()).sum();
        PacketBuf::build(self.wire_len(payload_len), |out| {
            self.write_gather(payload, out)
        })
    }

    /// The transport's protocol number and header length.
    fn transport_header(&self) -> (u8, usize) {
        match &self.transport {
            Transport::Tcp(h) => (protocol::TCP, h.actual_header_len()),
            Transport::Udp(_) => (protocol::UDP, crate::udp::UDP_HEADER_LEN),
            Transport::Raw(p) => (*p, 0),
        }
    }

    /// Wire length of this packet around a `payload_len`-byte payload.
    fn wire_len(&self, payload_len: usize) -> usize {
        self.ip.actual_header_len() + self.transport_header().1 + payload_len
    }

    /// Write the wire bytes around the gathered `payload` into `out`, which
    /// is exactly [`Packet::wire_len`] bytes long.
    fn write_gather(&self, payload: &[&[u8]], out: &mut [u8]) {
        let (derived_proto, transport_len) = self.transport_header();
        let ip_len = self.ip.actual_header_len();
        let (ip, segment) = out.split_at_mut(ip_len);
        self.ip.write(ip, derived_proto, segment.len());
        let (header, body) = segment.split_at_mut(transport_len);
        match &self.transport {
            Transport::Tcp(h) => h.write_header(header),
            Transport::Udp(h) => h.write_header(header, body.len()),
            Transport::Raw(_) => {}
        }
        gather(payload, body);
        let (src, dst) = (self.ip.src, self.ip.dst);
        match &self.transport {
            Transport::Tcp(h) => h.fill_checksum(src, dst, segment),
            Transport::Udp(h) => h.fill_checksum(src, dst, segment),
            Transport::Raw(_) => {}
        }
    }

    /// Serialize the byte stream formed by concatenating `messages` as
    /// consecutive TCP segments of at most `mss` payload bytes. `self`
    /// supplies the first segment's headers (its payload is ignored); each
    /// later segment's sequence number advances by the bytes sent before
    /// it. The result equals chunking the joined stream at `mss` and
    /// serializing one packet per chunk.
    ///
    /// The headers are written once and copied into each segment, which
    /// then gets its own total length, sequence number and checksums.
    /// Every payload byte is copied once, into its wire buffer, and each
    /// segment is one allocation. `payload_sums`, when given, holds
    /// [`segment_payload_sums`] of the same messages and MSS: the
    /// segments' payloads are then never summed. An empty stream yields
    /// no segments. Panics if `self` is not TCP.
    pub fn serialize_segments<M: AsRef<[u8]>>(
        &self,
        messages: &[M],
        mss: usize,
        payload_sums: Option<&[u16]>,
    ) -> Vec<PacketBuf> {
        let Transport::Tcp(tcp) = &self.transport else {
            // lint: allow(no-panic) documented contract: the server segments TCP streams only
            panic!("serialize_segments on {:?}", self.transport);
        };
        let ip_len = self.ip.actual_header_len();
        let tcp_len = tcp.actual_header_len();
        let header_len = ip_len + tcp_len;
        let mut header = vec![0; header_len];
        let (ip, tcp_header) = header.split_at_mut(ip_len);
        self.ip.write(ip, protocol::TCP, tcp_len);
        tcp.write_header(tcp_header);
        // The header sums, less the fields each segment sets: the IP total
        // length and checksum, the TCP sequence number, and the TCP length
        // of the pseudo header.
        ip[2..4].fill(0);
        ip[10..12].fill(0);
        tcp_header[4..8].fill(0);
        let ip_sum = u64::from(ones_complement_sum(ip, 0));
        let tcp_sum = u64::from(ones_complement_sum(
            tcp_header,
            pseudo_header_sum(self.ip.src, self.ip.dst, protocol::TCP, tcp_len),
        ));

        let mut chunks = StreamChunks::new(messages, mss);
        let stream: usize = messages.iter().map(|m| m.as_ref().len()).sum();
        let mut segments = Vec::with_capacity(stream.div_ceil(chunks.mss));
        let mut pieces = Vec::new();
        let mut seq = tcp.seq;
        loop {
            let len = chunks.next_into(&mut pieces);
            if len == 0 {
                return segments;
            }
            let known_sum = payload_sums.and_then(|sums| sums.get(segments.len()).copied());
            segments.push(PacketBuf::build(header_len + len, |out| {
                let (head, payload) = out.split_at_mut(header_len);
                head.copy_from_slice(&header);
                gather(&pieces, payload);
                let (ip, tcp_header) = head.split_at_mut(ip_len);
                let total_length = (self.ip.total_length).unwrap_or((header_len + len) as u16);
                ip[2..4].copy_from_slice(&total_length.to_be_bytes());
                let ip_ck = checksum_of(ip_sum + u64::from(total_length));
                ip[10..12].copy_from_slice(&self.ip.checksum.resolve(ip_ck).to_be_bytes());
                tcp_header[4..8].copy_from_slice(&seq.to_be_bytes());
                let tcp_ck = match tcp.checksum {
                    ChecksumSpec::Fixed(ck) => ck,
                    ChecksumSpec::Auto => {
                        let payload_sum =
                            known_sum.unwrap_or_else(|| ones_complement_sum(payload, 0) as u16);
                        checksum_of(
                            tcp_sum
                                + len as u64
                                + u64::from(seq >> 16)
                                + u64::from(seq & 0xffff)
                                + u64::from(payload_sum),
                        )
                    }
                };
                tcp_header[16..18].copy_from_slice(&tcp_ck.to_be_bytes());
            }));
            seq = seq.wrapping_add(len as u32);
        }
    }
}

/// Per-segment payload sums (`ones_complement_sum(payload, 0)`) of the
/// segments [`Packet::serialize_segments`] cuts from `messages` at `mss`,
/// computed from the messages without building any segment.
pub fn segment_payload_sums<M: AsRef<[u8]>>(messages: &[M], mss: usize) -> Vec<u16> {
    let mut chunks = StreamChunks::new(messages, mss);
    let mut pieces = Vec::new();
    let mut sums = Vec::new();
    while chunks.next_into(&mut pieces) > 0 {
        sums.push(ones_complement_sum_gather(&pieces));
    }
    sums
}

/// Update `sums`, the [`segment_payload_sums`] of `messages` at `mss`
/// from before the stream bytes in `changed` (ranges sorted by start,
/// disjoint) were rewritten in place, by summing again only the segments
/// that overlap a changed range. Segment boundaries depend only on
/// message lengths, so every other sum holds.
pub fn resum_segments<M: AsRef<[u8]>>(
    messages: &[M],
    mss: usize,
    changed: &[Range<usize>],
    sums: &mut [u16],
) {
    let mss = mss.max(1);
    let mut chunks = StreamChunks::new(messages, mss);
    let mut pieces = Vec::new();
    let mut changed = changed.iter().peekable();
    for (k, sum) in sums.iter_mut().enumerate() {
        if chunks.next_into(&mut pieces) == 0 {
            break;
        }
        let (start, end) = (k * mss, (k + 1) * mss);
        while changed.next_if(|r| r.end <= start).is_some() {}
        if changed.peek().is_some_and(|r| r.start < end) {
            *sum = ones_complement_sum_gather(&pieces);
        }
    }
}

/// Copy `pieces`, in order, into `out`, which is exactly as long as they
/// are together.
fn gather(pieces: &[&[u8]], out: &mut [u8]) {
    let mut at = 0;
    for piece in pieces {
        out[at..at + piece.len()].copy_from_slice(piece);
        at += piece.len();
    }
}

/// The byte stream formed by concatenating messages, cut into
/// consecutive chunks of at most `mss` bytes without joining it: each
/// chunk is a list of slices of the messages.
struct StreamChunks<'a, M> {
    messages: std::slice::Iter<'a, M>,
    current: &'a [u8],
    mss: usize,
}

impl<'a, M: AsRef<[u8]>> StreamChunks<'a, M> {
    fn new(messages: &'a [M], mss: usize) -> Self {
        StreamChunks {
            messages: messages.iter(),
            current: &[],
            mss: mss.max(1),
        }
    }

    /// Replace `pieces` with the next chunk; returns its length, 0 once
    /// the stream is exhausted.
    fn next_into(&mut self, pieces: &mut Vec<&'a [u8]>) -> usize {
        pieces.clear();
        let mut room = self.mss;
        while room > 0 {
            if self.current.is_empty() {
                match self.messages.next() {
                    Some(m) => self.current = m.as_ref(),
                    None => break,
                }
                continue;
            }
            let (head, tail) = self.current.split_at(room.min(self.current.len()));
            pieces.push(head);
            room -= head.len();
            self.current = tail;
        }
        self.mss - room
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
        let (ip, transport, payload_offset) = ParsedPacket::parse_headers(input.wire())?;
        Some(ParsedPacket::from_headers(
            input,
            ip,
            transport,
            payload_offset,
        ))
    }

    /// Assemble the view [`ParsedPacket::parse`] returns from headers
    /// [`ParsedPacket::parse_headers`] already read out of `input`.
    pub fn from_headers<W: WireBytes + ?Sized>(
        input: &W,
        ip: ParsedIpv4,
        transport: ParsedTransport,
        payload_offset: usize,
    ) -> ParsedPacket {
        ParsedPacket {
            ip,
            transport,
            payload: input.tail_view(payload_offset),
            wire_len: input.wire().len(),
        }
    }

    /// The header half of [`ParsedPacket::parse`]: the IP header, the
    /// transport header, and the offset where the transport payload starts
    /// (`buf[offset..]` is exactly what `parse` returns as the payload).
    /// Never touches the payload bytes, so validation, forwarding and
    /// observation read headers without copying anything.
    pub fn parse_headers(buf: &[u8]) -> Option<(ParsedIpv4, ParsedTransport, usize)> {
        let ip = ParsedIpv4::parse(buf)?;
        let (transport, payload_offset) = ParsedPacket::parse_transport(&ip, buf);
        Some((ip, transport, payload_offset))
    }

    /// The transport half of [`ParsedPacket::parse_headers`]: the
    /// transport header following `ip`, the header parsed from `buf`, and
    /// the offset where the transport payload starts.
    pub fn parse_transport(ip: &ParsedIpv4, buf: &[u8]) -> (ParsedTransport, usize) {
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
        (transport, payload_offset)
    }

    /// Offset in the wire bytes where the transport payload starts.
    pub fn payload_offset(&self) -> usize {
        self.wire_len - self.payload.len()
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
