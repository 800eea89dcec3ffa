//! Minimal ICMP support: just enough to generate and recognize the
//! Time Exceeded messages that routers emit when a TTL-limited lib·erate
//! probe expires, which the localization phase (§5.2) listens for.
//!
//! Lives in the substrate crate because ICMP observation is part of the
//! backend-neutral vocabulary: the localization logic parses these errors
//! whether the probe crossed simulated router hops or real ones.

use std::net::Ipv4Addr;

use liberate_packet::checksum::internet_checksum;
use liberate_packet::ipv4::{protocol, Ipv4Header, ParsedIpv4};
use liberate_packet::packet::{Packet, ParsedPacket, Transport};

/// ICMP type 11: Time Exceeded.
pub const TYPE_TIME_EXCEEDED: u8 = 11;
/// ICMP type 3: Destination Unreachable.
pub const TYPE_DEST_UNREACHABLE: u8 = 3;
/// Code 2 of type 3: Protocol Unreachable.
pub const CODE_PROTO_UNREACHABLE: u8 = 2;

/// Build an ICMP message from `router` to the offending packet's source,
/// embedding the original IP header + first 8 payload bytes per RFC 792.
pub fn icmp_error(router: Ipv4Addr, original_wire: &[u8], icmp_type: u8, code: u8) -> Vec<u8> {
    let dest = ParsedIpv4::parse(original_wire)
        .map(|ip| ip.src)
        .unwrap_or(Ipv4Addr::UNSPECIFIED);
    let embed_len = original_wire.len().min(28); // 20-byte header + 8 bytes
    let mut body = vec![icmp_type, code, 0, 0, 0, 0, 0, 0];
    body.extend_from_slice(&original_wire[..embed_len]);
    let ck = internet_checksum(&body);
    body[2..4].copy_from_slice(&ck.to_be_bytes());

    let mut ip = Ipv4Header::new(router, dest);
    ip.ttl = 64;
    Packet {
        ip,
        transport: Transport::Raw(protocol::ICMP),
        payload: body,
    }
    .serialize()
}

/// Build a Time Exceeded message (what a router sends when TTL hits zero).
pub fn time_exceeded(router: Ipv4Addr, original_wire: &[u8]) -> Vec<u8> {
    icmp_error(router, original_wire, TYPE_TIME_EXCEEDED, 0)
}

/// A parsed ICMP error, if the packet is one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IcmpError {
    pub from: Ipv4Addr,
    pub icmp_type: u8,
    pub code: u8,
    /// The embedded original IP header, when parsable.
    pub original: Option<ParsedIpv4>,
}

/// Try to interpret wire bytes as an ICMP error message. Reads headers
/// only: the ICMP body is examined in place, never copied.
pub fn parse_icmp_error(wire: &[u8]) -> Option<IcmpError> {
    let (ip, _, payload_offset) = ParsedPacket::parse_headers(wire)?;
    let body = &wire[payload_offset..];
    if ip.protocol != protocol::ICMP || body.len() < 8 {
        return None;
    }
    let icmp_type = body[0];
    if icmp_type != TYPE_TIME_EXCEEDED && icmp_type != TYPE_DEST_UNREACHABLE {
        return None;
    }
    Some(IcmpError {
        from: ip.src,
        icmp_type,
        code: body[1],
        original: ParsedIpv4::parse(&body[8..]),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_exceeded_roundtrip() {
        let orig = Packet::tcp(
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 9, 9, 9),
            1234,
            80,
            7,
            0,
            &b"GET /"[..],
        )
        .serialize();
        let router = Ipv4Addr::new(172, 16, 0, 3);
        let icmp = time_exceeded(router, &orig);
        let parsed = parse_icmp_error(&icmp).expect("parses as ICMP error");
        assert_eq!(parsed.from, router);
        assert_eq!(parsed.icmp_type, TYPE_TIME_EXCEEDED);
        let embedded = parsed.original.expect("embedded header");
        assert_eq!(embedded.src, Ipv4Addr::new(10, 0, 0, 1));
        assert_eq!(embedded.dst, Ipv4Addr::new(10, 9, 9, 9));
    }

    #[test]
    fn icmp_error_goes_back_to_source() {
        let orig = Packet::udp(
            Ipv4Addr::new(192, 168, 1, 5),
            Ipv4Addr::new(8, 8, 8, 8),
            5000,
            53,
            &b"q"[..],
        )
        .serialize();
        let icmp = icmp_error(
            Ipv4Addr::new(172, 16, 0, 1),
            &orig,
            TYPE_DEST_UNREACHABLE,
            CODE_PROTO_UNREACHABLE,
        );
        let pkt = ParsedPacket::parse(&icmp).unwrap();
        assert_eq!(pkt.ip.dst, Ipv4Addr::new(192, 168, 1, 5));
    }

    #[test]
    fn non_icmp_is_not_an_error() {
        let tcp = Packet::tcp(
            Ipv4Addr::new(1, 1, 1, 1),
            Ipv4Addr::new(2, 2, 2, 2),
            1,
            2,
            0,
            0,
            vec![],
        )
        .serialize();
        assert!(parse_icmp_error(&tcp).is_none());
    }
}
