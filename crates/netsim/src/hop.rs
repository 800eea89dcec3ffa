//! Router hops: TTL decrement, ICMP Time Exceeded, malformed-packet
//! filtering, and optional in-path fragment normalization.

use std::net::Ipv4Addr;

use liberate_obs::{Counter, Journal};
use liberate_packet::flow::Direction;
use liberate_packet::fragment::{OverlapPolicy, Reassembler};
use liberate_packet::ipv4::ParsedIpv4;

use crate::element::{CopyTally, Effects, PacketBuf, PathElement, TimedPacket, Verdict};
use crate::filter::{FilterPolicy, FragmentHandling};
use liberate_substrate::icmp::time_exceeded;
use liberate_substrate::time::SimTime;

/// A router hop.
pub struct RouterHop {
    name: String,
    address: Ipv4Addr,
    filter: FilterPolicy,
    /// Whether TTL expiry generates an ICMP Time Exceeded back to the
    /// source (real routers do; some operational boxes stay silent).
    sends_icmp: bool,
    /// Recompute the TCP checksum of forwarded segments instead of
    /// dropping bad ones — observed in the path to China (Table 3
    /// footnote 4: "The TCP checksum is corrected before arriving at the
    /// server").
    fix_tcp_checksum: bool,
    reassembler: Reassembler,
    /// Packets dropped by the filter, for diagnostics.
    pub filtered_count: u64,
    /// Packets dropped due to TTL expiry.
    pub expired_count: u64,
}

impl RouterHop {
    pub fn new(name: impl Into<String>, address: Ipv4Addr, filter: FilterPolicy) -> RouterHop {
        RouterHop {
            name: name.into(),
            address,
            filter,
            sends_icmp: true,
            fix_tcp_checksum: false,
            reassembler: Reassembler::new(OverlapPolicy::FirstWins),
            filtered_count: 0,
            expired_count: 0,
        }
    }

    /// A plain hop that forwards everything (still decrements TTL).
    pub fn transparent(name: impl Into<String>, address: Ipv4Addr) -> RouterHop {
        RouterHop::new(name, address, FilterPolicy::permissive())
    }

    /// Disable ICMP Time Exceeded generation.
    pub fn silent(mut self) -> RouterHop {
        self.sends_icmp = false;
        self
    }

    /// Recompute TCP checksums on forwarded segments.
    pub fn fixing_tcp_checksums(mut self) -> RouterHop {
        self.fix_tcp_checksum = true;
        self
    }

    /// Rewrite the TCP checksum of a serialized packet, whose IP header
    /// is `ip`, to the correct value if it is an unfragmented TCP packet.
    fn repair_tcp_checksum(wire: &mut [u8], ip: &ParsedIpv4) {
        use liberate_packet::checksum::pseudo_header_checksum;
        use liberate_packet::ipv4::protocol;
        if ip.protocol != protocol::TCP || ip.is_fragment() {
            return;
        }
        let off = ip.payload_offset;
        if wire.len() < off + 18 {
            return;
        }
        wire[off + 16] = 0;
        wire[off + 17] = 0;
        let (src, dst) = (ip.src, ip.dst);
        let ck = {
            let seg = &wire[off..];
            pseudo_header_checksum(src, dst, protocol::TCP, seg)
        };
        wire[off + 16..off + 18].copy_from_slice(&ck.to_be_bytes());
    }

    /// Rewrite the TTL field (decrement) and *incrementally* update the
    /// header checksum (RFC 1141). Real routers adjust the checksum for
    /// the delta only — a corrupted checksum stays exactly as corrupted
    /// after forwarding, which the wrong-IP-checksum inert technique
    /// relies on.
    fn decrement_ttl(wire: &mut [u8]) -> u8 {
        let ttl = wire[8].saturating_sub(1);
        if wire[8] == 0 {
            return 0; // nothing to adjust
        }
        wire[8] = ttl;
        // The 16-bit word at offset 8 (TTL|protocol) decreased by 0x0100,
        // so the one's-complement checksum increases by 0x0100.
        let old = u16::from_be_bytes([wire[10], wire[11]]);
        let sum = old as u32 + 0x0100;
        let new = ((sum & 0xffff) + (sum >> 16)) as u16;
        wire[10..12].copy_from_slice(&new.to_be_bytes());
        ttl
    }
}

impl PathElement for RouterHop {
    fn name(&self) -> &str {
        &self.name
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }

    fn decrements_ttl(&self) -> bool {
        true
    }

    fn process(
        &mut self,
        journal: &Journal,
        now: SimTime,
        dir: Direction,
        mut wire: PacketBuf,
        effects: &mut Effects,
    ) -> Verdict {
        let Some(mut ip) = ParsedIpv4::parse(&wire) else {
            self.filtered_count += 1;
            return Verdict::Drop; // not even a header: unroutable
        };

        // TTL handling first: a packet arriving with TTL 0 or 1 dies here.
        if ip.ttl <= 1 {
            self.expired_count += 1;
            if self.sends_icmp {
                effects.inject(
                    dir.flip(),
                    TimedPacket::now(now, time_exceeded(self.address, &wire)),
                );
            }
            return Verdict::Drop;
        }

        if self.filter.should_drop(&wire, &ip) {
            self.filtered_count += 1;
            return Verdict::Drop;
        }

        match self.filter.fragments {
            FragmentHandling::Pass => {}
            FragmentHandling::Drop => {
                if ip.is_fragment() {
                    self.filtered_count += 1;
                    return Verdict::Drop;
                }
            }
            FragmentHandling::Reassemble => {
                if ip.is_fragment() {
                    match self.reassembler.push(&wire) {
                        Some(whole) => {
                            // The datagram carries the first fragment's
                            // header, which always parses.
                            ip = ParsedIpv4::parse(&whole).unwrap_or(ip);
                            wire = whole.into();
                        }
                        None => return Verdict::Drop, // held for reassembly
                    }
                }
            }
        }

        // One copy-on-write fault covers both header rewrites; a
        // uniquely-owned buffer (every hop after the first) is free. A
        // fault is a counted payload copy.
        let mut tally = CopyTally::default();
        let buf = wire.make_mut(&mut tally);
        if self.fix_tcp_checksum {
            Self::repair_tcp_checksum(buf, &ip);
        }
        Self::decrement_ttl(buf);
        if !tally.is_empty() {
            journal.metrics.add(Counter::PayloadCopies, tally.copies);
            journal
                .metrics
                .add(Counter::PayloadBytesCopied, tally.bytes);
        }
        Verdict::pass(now, wire)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use liberate_packet::packet::{Packet, ParsedPacket};
    use liberate_substrate::icmp::parse_icmp_error;

    fn hop() -> RouterHop {
        RouterHop::transparent("r1", Ipv4Addr::new(172, 16, 0, 1))
    }

    fn pkt(ttl: u8) -> Vec<u8> {
        let mut p = Packet::tcp(
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 0, 2),
            1000,
            80,
            0,
            0,
            &b"x"[..],
        );
        p.ip.ttl = ttl;
        p.serialize()
    }

    #[test]
    fn decrements_ttl_and_fixes_checksum() {
        let mut h = hop();
        let mut fx = Effects::default();
        match h.process(
            &Journal::new(),
            SimTime::ZERO,
            Direction::ClientToServer,
            pkt(10).into(),
            &mut fx,
        ) {
            Verdict::Forward(out) => {
                let p = ParsedPacket::parse(&out.wire).unwrap();
                assert_eq!(p.ip.ttl, 9);
                assert!(liberate_packet::validate::is_well_formed(&out.wire));
            }
            Verdict::Drop => panic!("should forward"),
        }
        assert!(fx.is_empty());
    }

    #[test]
    fn ttl_expiry_generates_icmp_back() {
        let mut h = hop();
        let mut fx = Effects::default();
        let verdict = h.process(
            &Journal::new(),
            SimTime::ZERO,
            Direction::ClientToServer,
            pkt(1).into(),
            &mut fx,
        );
        assert_eq!(verdict, Verdict::Drop);
        assert_eq!(h.expired_count, 1);
        assert_eq!(fx.toward_client.len(), 1);
        let icmp = parse_icmp_error(&fx.toward_client[0].wire).unwrap();
        assert_eq!(icmp.from, Ipv4Addr::new(172, 16, 0, 1));
    }

    #[test]
    fn silent_hop_drops_without_icmp() {
        let mut h = hop().silent();
        let mut fx = Effects::default();
        assert_eq!(
            h.process(
                &Journal::new(),
                SimTime::ZERO,
                Direction::ClientToServer,
                pkt(1).into(),
                &mut fx
            ),
            Verdict::Drop
        );
        assert!(fx.is_empty());
    }

    #[test]
    fn filter_applies() {
        let mut h = RouterHop::new(
            "fw",
            Ipv4Addr::new(172, 16, 0, 2),
            FilterPolicy::ip_hygiene(),
        );
        let mut bad = Packet::tcp(
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 0, 2),
            1,
            2,
            0,
            0,
            vec![],
        );
        bad.ip.checksum = liberate_packet::checksum::ChecksumSpec::Fixed(0xffff);
        let mut fx = Effects::default();
        assert_eq!(
            h.process(
                &Journal::new(),
                SimTime::ZERO,
                Direction::ClientToServer,
                bad.serialize().into(),
                &mut fx
            ),
            Verdict::Drop
        );
        assert_eq!(h.filtered_count, 1);
    }

    #[test]
    fn fragment_dropping_hop() {
        let mut h = RouterHop::new(
            "iran-edge",
            Ipv4Addr::new(172, 16, 0, 3),
            FilterPolicy::permissive().with_fragments(FragmentHandling::Drop),
        );
        let wire = {
            let mut p = Packet::tcp(
                Ipv4Addr::new(10, 0, 0, 1),
                Ipv4Addr::new(10, 0, 0, 2),
                1,
                2,
                0,
                0,
                vec![0u8; 64],
            );
            p.ip.ttl = 9;
            p.serialize()
        };
        let frags = liberate_packet::fragment::fragment_packet(&wire, 32);
        assert!(frags.len() > 1);
        let mut fx = Effects::default();
        for f in &frags {
            assert_eq!(
                h.process(
                    &Journal::new(),
                    SimTime::ZERO,
                    Direction::ClientToServer,
                    f.clone().into(),
                    &mut fx
                ),
                Verdict::Drop
            );
        }
    }

    #[test]
    fn fragment_reassembling_hop_emits_whole_packet() {
        let mut h = RouterHop::new(
            "normalizer",
            Ipv4Addr::new(172, 16, 0, 4),
            FilterPolicy::permissive().with_fragments(FragmentHandling::Reassemble),
        );
        let wire = {
            let mut p = Packet::tcp(
                Ipv4Addr::new(10, 0, 0, 1),
                Ipv4Addr::new(10, 0, 0, 2),
                1,
                2,
                0,
                0,
                vec![7u8; 64],
            );
            p.ip.ttl = 9;
            p.serialize()
        };
        let frags = liberate_packet::fragment::fragment_packet(&wire, 32);
        let mut fx = Effects::default();
        let mut forwarded = Vec::new();
        for f in &frags {
            if let Verdict::Forward(out) = h.process(
                &Journal::new(),
                SimTime::ZERO,
                Direction::ClientToServer,
                f.clone().into(),
                &mut fx,
            ) {
                forwarded.push(out);
            }
        }
        assert_eq!(forwarded.len(), 1);
        let whole = ParsedPacket::parse(&forwarded[0].wire).unwrap();
        assert_eq!(whole.ip.fragment_offset, 0);
        assert!(!whole.ip.more_fragments);
        assert_eq!(whole.payload, vec![7u8; 64]);
    }
}

#[cfg(test)]
mod checksum_fix_tests {
    use super::*;
    use crate::element::Effects;
    use liberate_packet::checksum::ChecksumSpec;
    use liberate_packet::flow::Direction;
    use liberate_packet::packet::Packet;
    use liberate_packet::validate::{validate_wire, Malformation};
    use liberate_substrate::time::SimTime;
    use std::net::Ipv4Addr;

    #[test]
    fn hop_repairs_tcp_checksums_when_asked() {
        let mut h =
            RouterHop::transparent("fixer", Ipv4Addr::new(172, 16, 0, 9)).fixing_tcp_checksums();
        let mut p = Packet::tcp(
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 0, 2),
            1,
            2,
            100,
            200,
            &b"GET / HTTP/1.1"[..],
        );
        p.ip.ttl = 12;
        p.tcp_mut().checksum = ChecksumSpec::Fixed(0x0bad);
        let wire = p.serialize();
        assert!(validate_wire(&wire).contains(&Malformation::TcpChecksumWrong));
        let mut fx = Effects::default();
        match h.process(
            &Journal::new(),
            SimTime::ZERO,
            Direction::ClientToServer,
            wire.into(),
            &mut fx,
        ) {
            Verdict::Forward(out) => {
                assert!(!validate_wire(&out.wire).contains(&Malformation::TcpChecksumWrong));
            }
            Verdict::Drop => panic!("should forward"),
        }
    }

    #[test]
    fn reassembling_hop_repairs_the_whole_datagram() {
        let mut h = RouterHop::new(
            "gfc-edge",
            Ipv4Addr::new(172, 16, 0, 9),
            FilterPolicy::permissive().with_fragments(FragmentHandling::Reassemble),
        )
        .fixing_tcp_checksums();
        let mut p = Packet::tcp(
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 0, 2),
            1,
            2,
            100,
            200,
            vec![7u8; 64],
        );
        p.ip.ttl = 12;
        p.tcp_mut().checksum = ChecksumSpec::Fixed(0x0bad);
        let frags = liberate_packet::fragment::fragment_packet(&p.serialize(), 32);
        assert!(frags.len() > 1);
        let mut fx = Effects::default();
        let forwarded: Vec<_> = frags
            .into_iter()
            .filter_map(|f| {
                match h.process(
                    &Journal::new(),
                    SimTime::ZERO,
                    Direction::ClientToServer,
                    f.into(),
                    &mut fx,
                ) {
                    Verdict::Forward(out) => Some(out.wire),
                    Verdict::Drop => None,
                }
            })
            .collect();
        assert_eq!(forwarded.len(), 1, "held until whole, then forwarded once");
        // The repair judged the reassembled header, not the last fragment's.
        assert!(validate_wire(&forwarded[0]).is_empty());
    }
}
