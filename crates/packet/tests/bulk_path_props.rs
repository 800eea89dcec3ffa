//! Property tests for the copy-free bulk path: header-only parsing agrees
//! with the full parse, demand-driven validation gives the same decision
//! as the full defect set, and single-buffer serialization is
//! byte-identical to serializing a packet that owns its payload.

use proptest::prelude::*;

use liberate_packet::checksum::ChecksumSpec;
use liberate_packet::ipv4::{protocol, IpOption};
use liberate_packet::packet::{Packet, ParsedPacket};
use liberate_packet::tcp::TcpFlags;
use liberate_packet::validate::{has_defect_in, validate_wire, Malformation, MalformationSet};
use std::net::Ipv4Addr;

const SRC: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
const DST: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);

/// Every defect `validate_wire` can report.
const ALL: [Malformation; 17] = [
    Malformation::IpVersionInvalid,
    Malformation::IpHeaderLengthInvalid,
    Malformation::IpTotalLengthLong,
    Malformation::IpTotalLengthShort,
    Malformation::IpChecksumWrong,
    Malformation::IpOptionsInvalid,
    Malformation::IpOptionsDeprecated,
    Malformation::IpProtocolUnknown,
    Malformation::TtlExpired,
    Malformation::TcpChecksumWrong,
    Malformation::TcpDataOffsetInvalid,
    Malformation::TcpFlagsInvalid,
    Malformation::TcpAckFlagMissing,
    Malformation::TransportTruncated,
    Malformation::UdpChecksumWrong,
    Malformation::UdpLengthLong,
    Malformation::UdpLengthShort,
];

fn set_from_mask(mask: u32) -> MalformationSet {
    ALL.iter()
        .enumerate()
        .filter(|(i, _)| mask & (1 << i) != 0)
        .map(|(_, m)| *m)
        .collect()
}

fn ip_options(kind: usize) -> Vec<IpOption> {
    match kind {
        0 => vec![],
        1 => vec![IpOption::Nop, IpOption::Nop],
        2 => vec![IpOption::StreamId(7)],
        _ => vec![IpOption::InvalidOverrun {
            kind: 0x99,
            claimed_len: 40,
        }],
    }
}

/// `0..16` is an override of a 4-bit header field; 16 means "derive".
fn nibble(v: u8) -> Option<u8> {
    (v < 16).then_some(v)
}

fn split<'a>(payload: &'a [u8], cuts: &[usize]) -> Vec<&'a [u8]> {
    let mut cuts: Vec<usize> = cuts.iter().map(|c| c % (payload.len() + 1)).collect();
    cuts.sort_unstable();
    let mut pieces = Vec::new();
    let mut at = 0;
    for c in cuts.into_iter().chain([payload.len()]) {
        pieces.push(&payload[at..c]);
        at = c;
    }
    pieces
}

proptest! {
    /// Demand-driven validation gives the decision of the full defect set
    /// for every policy set, on crafted packets with any mix of defects
    /// (bad checksums, fragments, IHL/total-length/data-offset/UDP-length
    /// overrides, options, truncated headers) and on arbitrary bytes. The
    /// header-only parse agrees with the full parse on the way.
    #[test]
    fn demand_driven_validation_matches_the_full_defect_set(
        shape in (0usize..3, proptest::collection::vec(any::<u8>(), 0..64), any::<u8>()),
        ip in (0u8..17, any::<u16>(), any::<bool>(), 0u16..4, any::<u8>(), 0usize..4),
        l4 in (any::<bool>(), any::<bool>(), any::<u8>(), 0u8..17, any::<u16>(), any::<bool>()),
        odd in (any::<bool>(), any::<bool>(), any::<u8>(), 0usize..96),
        raw in proptest::collection::vec(any::<u8>(), 0..96),
        masks in proptest::collection::vec(any::<u32>(), 8),
    ) {
        let (kind, payload, version) = shape;
        let (ihl, total, total_override, frag, ttl, opts) = ip;
        let (ip_bad, l4_bad, flags, data_offset, udp_len, udp_len_override) = l4;
        let (proto_override, truncate, proto, cut) = odd;
        let wire = if kind == 2 {
            raw
        } else {
            let mut p = if kind == 0 {
                let mut p = Packet::tcp(SRC, DST, 40000, 80, 7, 9, payload);
                p.tcp_mut().flags = TcpFlags::from_byte(flags);
                p.tcp_mut().data_offset = nibble(data_offset);
                if l4_bad {
                    p.tcp_mut().checksum = ChecksumSpec::Fixed(0x0bad);
                }
                p
            } else {
                let mut p = Packet::udp(SRC, DST, 3478, 3478, payload);
                if udp_len_override {
                    p.udp_mut().length = Some(udp_len % 128);
                }
                if l4_bad {
                    p.udp_mut().checksum = ChecksumSpec::Fixed(0x0bad);
                }
                p
            };
            if version % 8 == 0 {
                p.ip.version = version >> 4;
            }
            p.ip.ihl = nibble(ihl);
            if total_override {
                p.ip.total_length = Some(total % 256);
            }
            p.ip.more_fragments = frag & 1 != 0;
            p.ip.fragment_offset = frag >> 1;
            p.ip.ttl = ttl % 4;
            p.ip.options = ip_options(opts);
            if ip_bad {
                p.ip.checksum = ChecksumSpec::Fixed(0x1bad);
            }
            if proto_override {
                p.ip.protocol = Some(proto);
            }
            let mut wire = p.serialize();
            if truncate {
                wire.truncate(cut);
            }
            wire
        };

        let full = validate_wire(&wire);
        let mut sets: Vec<MalformationSet> = masks.iter().map(|m| set_from_mask(*m)).collect();
        sets.extend(ALL.iter().map(|m| [*m].into_iter().collect()));
        sets.push(MalformationSet::new());
        sets.push(ALL.iter().copied().collect());
        for set in &sets {
            prop_assert_eq!(has_defect_in(&wire, set), !full.is_disjoint(set), "{:?} vs {:?}", set, full);
        }

        match (ParsedPacket::parse_headers(&wire), ParsedPacket::parse(&wire)) {
            (Some((ip, transport, offset)), Some(p)) => {
                prop_assert_eq!(ip, p.ip);
                prop_assert_eq!(transport, p.transport);
                prop_assert_eq!(&wire[offset..], p.payload.as_slice());
            }
            (None, None) => {}
            (headers, full) => panic!("parse_headers {headers:?} vs parse {full:?}"),
        }
    }

    /// Building a TCP packet in one buffer around a payload given in
    /// pieces is byte-identical to serializing the packet with the joined
    /// payload, and to the header-level serializers composed by hand —
    /// for arbitrary headers, options, overrides and fixed checksums.
    #[test]
    fn gathered_tcp_serialization_is_byte_identical(
        hdr in (any::<u16>(), any::<u16>(), any::<u32>(), any::<u32>(), any::<u8>(), any::<u16>()),
        tcp in (proptest::collection::vec(any::<u8>(), 0..13), 0u8..17, any::<bool>(), any::<u16>(), any::<u16>()),
        ip in (0u8..17, any::<u16>(), any::<bool>(), any::<u8>(), any::<bool>(), any::<bool>()),
        ip_more in (0usize..4, any::<u16>(), any::<bool>(), any::<bool>()),
        payload in proptest::collection::vec(any::<u8>(), 0..=1460),
        cuts in proptest::collection::vec(0usize..=1460, 0..6),
    ) {
        let (src_port, dst_port, seq, ack, flags, window) = hdr;
        let (tcp_options, data_offset, fixed_tcp_ck, tcp_ck, urgent) = tcp;
        let (ihl, total, total_override, ttl, proto_override, fixed_ip_ck) = ip;
        let (opts, id, dont_fragment, more_fragments) = ip_more;

        let mut pkt = Packet::tcp(SRC, DST, src_port, dst_port, seq, ack, payload.clone())
            .with_flags(TcpFlags::from_byte(flags));
        let t = pkt.tcp_mut();
        t.window = window;
        t.urgent = urgent;
        t.options = tcp_options;
        t.data_offset = nibble(data_offset);
        if fixed_tcp_ck {
            t.checksum = ChecksumSpec::Fixed(tcp_ck);
        }
        pkt.ip.ihl = nibble(ihl);
        if total_override {
            pkt.ip.total_length = Some(total);
        }
        pkt.ip.ttl = ttl;
        if proto_override {
            pkt.ip.protocol = Some(protocol::UNASSIGNED);
        }
        if fixed_ip_ck {
            pkt.ip.checksum = ChecksumSpec::Fixed(total ^ 0x5a5a);
        }
        pkt.ip.options = ip_options(opts);
        pkt.ip.identification = id;
        pkt.ip.dont_fragment = dont_fragment;
        pkt.ip.more_fragments = more_fragments;

        let whole = pkt.serialize();
        let mut template = pkt.clone();
        template.payload.clear();
        prop_assert_eq!(&template.serialize_gather(&split(&payload, &cuts)), &whole);

        let segment = pkt.tcp_mut().serialize(SRC, DST, &payload);
        let mut composed = pkt.ip.serialize(protocol::TCP, segment.len());
        composed.extend_from_slice(&segment);
        prop_assert_eq!(composed, whole);
    }

    /// Segmenting a multi-message response stream straight into wire
    /// buffers equals joining the messages, chunking at the MSS and
    /// serializing one packet per chunk.
    #[test]
    fn segments_match_the_chunked_joined_stream(
        sizes in proptest::collection::vec(0usize..3000, 0..6),
        mss in prop_oneof![Just(1460usize), 1usize..2000],
        seq in any::<u32>(),
        ack in any::<u32>(),
    ) {
        let messages: Vec<Vec<u8>> = sizes
            .iter()
            .enumerate()
            .map(|(m, &n)| (0..n).map(|b| (b * 13 + m) as u8).collect())
            .collect();
        let template = Packet::tcp(DST, SRC, 80, 40000, seq, ack, Vec::new())
            .with_flags(TcpFlags::PSH_ACK);

        let joined: Vec<u8> = messages.concat();
        let mut expected = Vec::new();
        let mut next = seq;
        for chunk in joined.chunks(mss) {
            expected.push(
                Packet::tcp(DST, SRC, 80, 40000, next, ack, chunk.to_vec())
                    .with_flags(TcpFlags::PSH_ACK)
                    .serialize(),
            );
            next = next.wrapping_add(chunk.len() as u32);
        }
        prop_assert_eq!(template.serialize_segments(&messages, mss), expected);
    }
}
