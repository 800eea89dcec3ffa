//! Per-hop filtering of malformed packets.
//!
//! §7 of the paper ("Impact of filtering"): *"many of the inert packets that
//! worked in our testbed were dropped in every operational network we
//! tested... likely due to routers and/or firewalls that drop malformed
//! packets."* Whether a crafted packet survives to the middlebox — and
//! whether it then survives to the server — is decided by these policies,
//! which is exactly what the RS? column of Table 3 measures.

use liberate_packet::ipv4::ParsedIpv4;
use liberate_packet::validate::{DefectMask, Malformation};

/// What a path element does with IP fragments.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FragmentHandling {
    /// Forward fragments untouched.
    #[default]
    Pass,
    /// Reassemble and forward the whole datagram (observed in the testbed,
    /// T-Mobile, and China: Table 3 footnote 2).
    Reassemble,
    /// Drop all fragments (observed in Iran, §6.6).
    Drop,
}

/// Which malformations cause a router/firewall hop to drop a packet.
#[derive(Debug, Clone, Default)]
pub struct FilterPolicy {
    drops: DefectMask,
    pub fragments: FragmentHandling,
}

impl FilterPolicy {
    /// Forward everything (lab testbed switch).
    pub fn permissive() -> FilterPolicy {
        FilterPolicy::default()
    }

    /// Drop on the listed malformations.
    pub fn dropping(malformations: impl IntoIterator<Item = Malformation>) -> FilterPolicy {
        FilterPolicy {
            drops: malformations.into_iter().collect(),
            fragments: FragmentHandling::Pass,
        }
    }

    /// Typical operational-core hygiene: drops packets that are not even
    /// structurally valid IP (bad version/IHL/length/checksum, unknown
    /// protocol), but forwards transport-level oddities.
    pub fn ip_hygiene() -> FilterPolicy {
        FilterPolicy::dropping([
            Malformation::IpVersionInvalid,
            Malformation::IpHeaderLengthInvalid,
            Malformation::IpTotalLengthLong,
            Malformation::IpTotalLengthShort,
            Malformation::IpChecksumWrong,
        ])
    }

    /// Aggressive cellular-gateway normalization: everything in
    /// [`FilterPolicy::ip_hygiene`] plus transport-checksum and header validation. This is
    /// the behaviour implied by T-Mobile's RS? column, where nearly every
    /// inert packet died in-network.
    pub fn strict_normalizer() -> FilterPolicy {
        FilterPolicy::dropping([
            Malformation::IpVersionInvalid,
            Malformation::IpHeaderLengthInvalid,
            Malformation::IpTotalLengthLong,
            Malformation::IpTotalLengthShort,
            Malformation::IpChecksumWrong,
            Malformation::TcpChecksumWrong,
            Malformation::TcpDataOffsetInvalid,
            Malformation::TcpFlagsInvalid,
            Malformation::TcpAckFlagMissing,
            Malformation::UdpChecksumWrong,
            Malformation::UdpLengthLong,
            Malformation::UdpLengthShort,
        ])
    }

    /// Add IP-option filtering (drops both invalid and deprecated options).
    pub fn also_dropping(
        mut self,
        malformations: impl IntoIterator<Item = Malformation>,
    ) -> FilterPolicy {
        self.drops.extend(malformations);
        self
    }

    /// Set the fragment handling mode.
    pub fn with_fragments(mut self, fragments: FragmentHandling) -> FilterPolicy {
        self.fragments = fragments;
        self
    }

    /// Whether this policy forwards every packet untouched: it drops on
    /// no defect and passes fragments.
    pub fn forwards_everything(&self) -> bool {
        self.drops.is_empty() && self.fragments == FragmentHandling::Pass
    }

    /// Whether `wire`, whose IP header the hop parsed as `ip`, should be
    /// dropped under this policy. Only the checks for defects in the drop
    /// set run, and the transport header is parsed only for a policy that
    /// drops on a transport defect (see [`DefectMask::found_in`]).
    pub fn should_drop(&self, wire: &[u8], ip: &ParsedIpv4) -> bool {
        self.drops.any_in(wire, ip, None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use liberate_packet::checksum::ChecksumSpec;
    use liberate_packet::packet::Packet;
    use std::net::Ipv4Addr;

    fn drops(policy: &FilterPolicy, p: &Packet) -> bool {
        let wire = p.serialize();
        policy.should_drop(&wire, &ParsedIpv4::parse(&wire).unwrap())
    }

    fn tcp_packet() -> Packet {
        Packet::tcp(
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 0, 2),
            4000,
            80,
            1,
            1,
            &b"GET /"[..],
        )
    }

    #[test]
    fn permissive_forwards_garbage() {
        let mut p = tcp_packet();
        p.ip.checksum = ChecksumSpec::Fixed(0);
        p.ip.version = 9;
        assert!(!drops(&FilterPolicy::permissive(), &p));
    }

    #[test]
    fn hygiene_drops_bad_ip_but_not_bad_tcp() {
        let policy = FilterPolicy::ip_hygiene();
        let mut bad_ip = tcp_packet();
        bad_ip.ip.checksum = ChecksumSpec::Fixed(0x1234);
        assert!(drops(&policy, &bad_ip));

        let mut bad_tcp = tcp_packet();
        bad_tcp.tcp_mut().checksum = ChecksumSpec::Fixed(0x1234);
        assert!(!drops(&policy, &bad_tcp));
    }

    #[test]
    fn strict_normalizer_drops_bad_tcp() {
        let mut bad_tcp = tcp_packet();
        bad_tcp.tcp_mut().checksum = ChecksumSpec::Fixed(0x1234);
        assert!(drops(&FilterPolicy::strict_normalizer(), &bad_tcp));
        // A clean packet still passes.
        assert!(!drops(&FilterPolicy::strict_normalizer(), &tcp_packet()));
    }

    #[test]
    fn also_dropping_extends() {
        use liberate_packet::validate::Malformation::*;
        let policy = FilterPolicy::ip_hygiene().also_dropping([IpOptionsDeprecated]);
        let mut p = tcp_packet();
        p.ip.options = vec![liberate_packet::ipv4::IpOption::StreamId(1)];
        assert!(drops(&policy, &p));
    }
}
