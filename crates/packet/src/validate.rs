//! Packet-level validation: every structural check a host, router, or
//! middlebox *could* perform, reported individually.
//!
//! The paper's central observation is that different devices perform
//! different subsets of these checks (§4.3, Table 3): the testbed DPI box
//! skips most of them, the GFC performs nearly all, endpoints' OSes each
//! have their own set. Consumers therefore receive the full list of
//! [`Malformation`]s and apply their own policy about which ones matter.

use std::collections::BTreeSet;

use serde::{Deserialize, Serialize};

use crate::checksum::{verify_checksum, verify_pseudo_checksum};
use crate::ipv4::{protocol, scan_options, OptionScan, ParsedIpv4, IPV4_MIN_HEADER_LEN};
use crate::packet::{ParsedPacket, ParsedTransport};
use crate::tcp::TCP_MIN_HEADER_LEN;
use crate::udp::UDP_HEADER_LEN;

/// A structural defect in a single packet. The variants map one-to-one onto
/// the inert-packet rows of Table 3 (flow-context defects such as a wrong
/// sequence number are judged by stateful components, not here).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Malformation {
    /// IP version field is not 4.
    IpVersionInvalid,
    /// IHL below 5, or the claimed header length overruns the packet.
    IpHeaderLengthInvalid,
    /// Total-length field claims more bytes than were received.
    IpTotalLengthLong,
    /// Total-length field claims fewer bytes than were received.
    IpTotalLengthShort,
    /// IP header checksum does not verify.
    IpChecksumWrong,
    /// Structurally invalid IP options.
    IpOptionsInvalid,
    /// Deprecated (RFC 6814) IP options such as Stream ID or Security.
    IpOptionsDeprecated,
    /// Protocol number is not TCP, UDP, or ICMP.
    IpProtocolUnknown,
    /// TTL is zero on arrival.
    TtlExpired,
    /// TCP checksum does not verify against the pseudo header.
    TcpChecksumWrong,
    /// TCP data offset below 5 or overrunning the segment.
    TcpDataOffsetInvalid,
    /// A flag combination no compliant stack emits (SYN+FIN, none, ...).
    TcpFlagsInvalid,
    /// A data-bearing, non-SYN, non-RST segment without the ACK flag
    /// (RFC 793 requires ACK on established-state segments).
    TcpAckFlagMissing,
    /// Truncated transport header.
    TransportTruncated,
    /// UDP checksum present but wrong.
    UdpChecksumWrong,
    /// UDP length field claims more bytes than were received.
    UdpLengthLong,
    /// UDP length field claims fewer bytes than were received.
    UdpLengthShort,
}

/// An ordered set of malformations found in one packet.
pub type MalformationSet = BTreeSet<Malformation>;

/// A set of malformations as bits: `m` is bit `m as u32`.
type Mask = u32;

// Every discriminant must name a bit of `Mask`. Discriminants are implicit,
// so they count up from 0 in declaration order and the last variant, which
// this assertion must keep naming, holds the largest one.
const _: () = assert!((Malformation::UdpLengthShort as u32) < Mask::BITS);

impl Malformation {
    fn bit(self) -> Mask {
        1 << self as u32
    }
}

/// Run every structural check against raw wire bytes.
///
/// Checks on the transport layer are skipped for *all* fragments: a
/// non-first fragment carries no transport header, and a first fragment
/// (MF set) carries only part of the segment, so its transport checksum
/// cannot be verified by any on-path device.
pub fn validate_wire(buf: &[u8]) -> MalformationSet {
    check(buf, |_| true)
}

/// Whether `buf` exhibits any defect in `set`: the same answer as
/// `!validate_wire(buf).is_disjoint(set)`, but only the checks for defects
/// in `set` run. A device that drops or ignores on a few defects pays for
/// those alone; in particular the transport checksum, the only check that
/// reads the payload, runs only when `TcpChecksumWrong` or
/// `UdpChecksumWrong` is in `set`.
pub fn has_defect_in(buf: &[u8], set: &MalformationSet) -> bool {
    let mask = set.iter().fold(0, |mask, m| mask | m.bit());
    mask != 0 && !check(buf, |m| mask & m.bit() != 0).is_empty()
}

/// The defects of `buf` for which `wanted` holds; checks for unwanted
/// defects are never evaluated.
fn check(buf: &[u8], wanted: impl Fn(Malformation) -> bool) -> MalformationSet {
    let mut found = Found {
        wanted,
        set: MalformationSet::new(),
    };
    let Some((ip, transport, payload_offset)) = ParsedPacket::parse_headers(buf) else {
        found.check(Malformation::IpHeaderLengthInvalid, || true);
        return found.set;
    };
    validate_ip(&ip, buf, &mut found);
    if !ip.is_fragment() {
        validate_transport(&ip, &transport, payload_offset, buf, &mut found);
    }
    found.set
}

/// Accumulates the wanted defects that a packet exhibits.
struct Found<W> {
    wanted: W,
    set: MalformationSet,
}

impl<W: Fn(Malformation) -> bool> Found<W> {
    /// Record `m` if it is wanted and `present()` — which runs only when
    /// `m` is wanted.
    fn check(&mut self, m: Malformation, present: impl FnOnce() -> bool) {
        if (self.wanted)(m) && present() {
            self.set.insert(m);
        }
    }
}

fn validate_ip<W: Fn(Malformation) -> bool>(ip: &ParsedIpv4, buf: &[u8], found: &mut Found<W>) {
    let total = ip.total_length as usize;
    found.check(Malformation::IpVersionInvalid, || ip.version != 4);
    found.check(Malformation::IpHeaderLengthInvalid, || {
        ip.ihl < 5 || ip.claimed_header_len() > buf.len()
    });
    found.check(Malformation::IpTotalLengthLong, || total > buf.len());
    found.check(Malformation::IpTotalLengthShort, || {
        total < buf.len() || total < IPV4_MIN_HEADER_LEN
    });
    found.check(Malformation::IpChecksumWrong, || {
        let header_end = ip
            .claimed_header_len()
            .min(buf.len())
            .max(IPV4_MIN_HEADER_LEN);
        !verify_checksum(&buf[..header_end])
    });
    found.check(Malformation::IpOptionsInvalid, || {
        scan_options(&ip.options) == OptionScan::Invalid
    });
    found.check(Malformation::IpOptionsDeprecated, || {
        scan_options(&ip.options) == OptionScan::Deprecated
    });
    found.check(Malformation::IpProtocolUnknown, || {
        !matches!(ip.protocol, protocol::TCP | protocol::UDP | protocol::ICMP)
    });
    found.check(Malformation::TtlExpired, || ip.ttl == 0);
}

fn validate_transport<W: Fn(Malformation) -> bool>(
    ip: &ParsedIpv4,
    transport: &ParsedTransport,
    payload_offset: usize,
    buf: &[u8],
    found: &mut Found<W>,
) {
    let body = &buf[ip.payload_offset.min(buf.len())..];
    match transport {
        ParsedTransport::Tcp(t) => {
            found.check(Malformation::TcpChecksumWrong, || {
                !verify_pseudo_checksum(ip.src, ip.dst, protocol::TCP, body)
            });
            found.check(Malformation::TcpDataOffsetInvalid, || {
                t.data_offset < 5 || t.claimed_header_len() > body.len()
            });
            found.check(Malformation::TcpFlagsInvalid, || {
                t.flags.is_invalid_combination()
            });
            found.check(Malformation::TcpAckFlagMissing, || {
                payload_offset < buf.len() && !t.flags.ack && !t.flags.syn && !t.flags.rst
            });
        }
        ParsedTransport::Udp(u) => {
            let claimed = u.length as usize;
            found.check(Malformation::UdpChecksumWrong, || {
                !verify_pseudo_checksum(ip.src, ip.dst, protocol::UDP, body)
            });
            found.check(Malformation::UdpLengthLong, || claimed > body.len());
            found.check(Malformation::UdpLengthShort, || {
                claimed < body.len() || claimed < UDP_HEADER_LEN
            });
        }
        ParsedTransport::Other(proto) => {
            // A truncated TCP/UDP header parses as Other.
            found.check(Malformation::TransportTruncated, || {
                (*proto == protocol::TCP && body.len() < TCP_MIN_HEADER_LEN)
                    || (*proto == protocol::UDP && body.len() < UDP_HEADER_LEN)
            });
        }
    }
}

/// True when a packet is fully well-formed.
pub fn is_well_formed(buf: &[u8]) -> bool {
    validate_wire(buf).is_empty()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checksum::ChecksumSpec;
    use crate::ipv4::IpOption;
    use crate::packet::Packet;
    use crate::tcp::TcpFlags;
    use std::net::Ipv4Addr;

    fn base_tcp() -> Packet {
        Packet::tcp(
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 0, 2),
            40000,
            80,
            1,
            1,
            &b"GET / HTTP/1.1\r\nHost: x\r\n\r\n"[..],
        )
    }

    fn base_udp() -> Packet {
        Packet::udp(
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 0, 2),
            3478,
            3478,
            &b"payload"[..],
        )
    }

    #[test]
    fn well_formed_packets_pass() {
        assert!(is_well_formed(&base_tcp().serialize()));
        assert!(is_well_formed(&base_udp().serialize()));
    }

    #[test]
    fn each_ip_defect_is_detected() {
        let mut p = base_tcp();
        p.ip.version = 7;
        assert!(validate_wire(&p.serialize()).contains(&Malformation::IpVersionInvalid));

        let mut p = base_tcp();
        p.ip.ihl = Some(3);
        assert!(validate_wire(&p.serialize()).contains(&Malformation::IpHeaderLengthInvalid));

        let mut p = base_tcp();
        p.ip.total_length = Some(4000);
        assert!(validate_wire(&p.serialize()).contains(&Malformation::IpTotalLengthLong));

        let mut p = base_tcp();
        p.ip.total_length = Some(24);
        assert!(validate_wire(&p.serialize()).contains(&Malformation::IpTotalLengthShort));

        let mut p = base_tcp();
        p.ip.checksum = ChecksumSpec::Fixed(0x1111);
        assert!(validate_wire(&p.serialize()).contains(&Malformation::IpChecksumWrong));

        let mut p = base_tcp();
        p.ip.options = vec![IpOption::InvalidOverrun {
            kind: 0x99,
            claimed_len: 60,
        }];
        assert!(validate_wire(&p.serialize()).contains(&Malformation::IpOptionsInvalid));

        let mut p = base_tcp();
        p.ip.options = vec![IpOption::StreamId(1)];
        assert!(validate_wire(&p.serialize()).contains(&Malformation::IpOptionsDeprecated));

        let mut p = base_tcp();
        p.ip.protocol = Some(253);
        assert!(validate_wire(&p.serialize()).contains(&Malformation::IpProtocolUnknown));

        let mut p = base_tcp();
        p.ip.ttl = 0;
        assert!(validate_wire(&p.serialize()).contains(&Malformation::TtlExpired));
    }

    #[test]
    fn each_tcp_defect_is_detected() {
        let mut p = base_tcp();
        p.tcp_mut().checksum = ChecksumSpec::Fixed(0x2222);
        assert!(validate_wire(&p.serialize()).contains(&Malformation::TcpChecksumWrong));

        let mut p = base_tcp();
        p.tcp_mut().data_offset = Some(12);
        assert!(validate_wire(&p.serialize()).contains(&Malformation::TcpDataOffsetInvalid));

        let mut p = base_tcp();
        p.tcp_mut().flags = TcpFlags::XMAS;
        assert!(validate_wire(&p.serialize()).contains(&Malformation::TcpFlagsInvalid));

        let mut p = base_tcp();
        p.tcp_mut().flags = TcpFlags::PSH_ONLY;
        assert!(validate_wire(&p.serialize()).contains(&Malformation::TcpAckFlagMissing));
    }

    #[test]
    fn each_udp_defect_is_detected() {
        let mut p = base_udp();
        p.udp_mut().checksum = ChecksumSpec::Fixed(0x3333);
        assert!(validate_wire(&p.serialize()).contains(&Malformation::UdpChecksumWrong));

        let mut p = base_udp();
        p.udp_mut().length = Some(500);
        assert!(validate_wire(&p.serialize()).contains(&Malformation::UdpLengthLong));

        let mut p = base_udp();
        p.udp_mut().length = Some(9);
        assert!(validate_wire(&p.serialize()).contains(&Malformation::UdpLengthShort));
    }

    #[test]
    fn syn_without_ack_is_fine() {
        let mut p = base_tcp();
        p.payload.clear();
        p.tcp_mut().flags = TcpFlags::SYN;
        assert!(is_well_formed(&p.serialize()));
    }

    #[test]
    fn fragments_skip_transport_checks() {
        let mut p = base_tcp();
        p.ip.fragment_offset = 10;
        // The "TCP header" bytes are now mid-stream payload; no TCP checks.
        let set = validate_wire(&p.serialize());
        assert!(!set.contains(&Malformation::TcpChecksumWrong));
    }

    #[test]
    fn multiple_defects_all_reported() {
        let mut p = base_tcp();
        p.ip.ttl = 0;
        p.ip.checksum = ChecksumSpec::Fixed(1);
        p.tcp_mut().flags = TcpFlags::XMAS;
        let set = validate_wire(&p.serialize());
        assert!(set.contains(&Malformation::TtlExpired));
        assert!(set.contains(&Malformation::IpChecksumWrong));
        assert!(set.contains(&Malformation::TcpFlagsInvalid));
        assert!(set.len() >= 3);
    }
}
