//! The middlebox packet-validation model: which malformed packets a
//! classifier still *processes* (feeding their payload to the matcher) and
//! which it ignores.
//!
//! This is the crux of inert-packet insertion (§4.3): a technique works
//! when the middlebox processes a packet that the server will never act
//! on. Table 3's CC? column is, for the inert rows, a direct readout of
//! this model per device:
//!
//! - the **testbed** box "does not check for a wide range of invalid
//!   packet header values" (§1);
//! - the **GFC** "does extensive packet validation" — but not TCP
//!   checksums or the ACK flag, and it cannot know remaining hop counts;
//! - **Iran and T-Mobile** "only partially check for invalid packet
//!   headers".

use liberate_packet::validate::{has_defect_in, Malformation, MalformationSet};

/// Which defects make the middlebox ignore a packet (treat it as noise and
/// forward it without matching on its contents).
#[derive(Debug, Clone, Default)]
pub struct ValidationModel {
    ignores: MalformationSet,
    /// Whether the classifier tracks TCP sequence numbers: if so, a
    /// segment whose sequence number is far outside the expected window is
    /// ignored rather than matched (the GFC does this; the testbed does
    /// not, §6.1/§6.5).
    pub tracks_seq: bool,
}

impl ValidationModel {
    /// Process everything, however broken (the testbed's posture for most
    /// fields).
    pub fn lax() -> ValidationModel {
        ValidationModel::default()
    }

    /// Ignore packets exhibiting any of `malformations`.
    pub fn ignoring(malformations: impl IntoIterator<Item = Malformation>) -> ValidationModel {
        ValidationModel {
            ignores: malformations.into_iter().collect(),
            tracks_seq: false,
        }
    }

    pub fn with_seq_tracking(mut self) -> ValidationModel {
        self.tracks_seq = true;
        self
    }

    pub fn also_ignoring(
        mut self,
        malformations: impl IntoIterator<Item = Malformation>,
    ) -> ValidationModel {
        self.ignores.extend(malformations);
        self
    }

    /// Should the packet `wire` be fed to the matcher? Only the checks for
    /// ignored defects run, so a lax device validates nothing and the
    /// transport checksum is verified only by devices that ignore on it.
    pub fn processes(&self, wire: &[u8]) -> bool {
        !has_defect_in(wire, &self.ignores)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use liberate_packet::checksum::ChecksumSpec;
    use liberate_packet::packet::Packet;
    use liberate_packet::tcp::TcpFlags;
    use std::net::Ipv4Addr;
    use Malformation::*;

    fn tcp() -> Packet {
        let (c, s) = (Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 0, 0, 2));
        Packet::tcp(c, s, 40000, 80, 1, 1, &b"GET / HTTP/1.1\r\n"[..])
    }

    #[test]
    fn lax_processes_everything() {
        let m = ValidationModel::lax();
        let mut p = tcp();
        p.ip.checksum = ChecksumSpec::Fixed(1);
        p.tcp_mut().checksum = ChecksumSpec::Fixed(1);
        p.tcp_mut().flags = TcpFlags::XMAS;
        assert!(m.processes(&p.serialize()));
        assert!(!m.tracks_seq);
    }

    #[test]
    fn strict_ignores_listed() {
        let m = ValidationModel::ignoring([IpChecksumWrong, IpVersionInvalid]).with_seq_tracking();
        let mut bad_ip = tcp();
        bad_ip.ip.checksum = ChecksumSpec::Fixed(1);
        assert!(!m.processes(&bad_ip.serialize()));
        let mut bad_tcp = tcp();
        bad_tcp.tcp_mut().checksum = ChecksumSpec::Fixed(1);
        assert!(m.processes(&bad_tcp.serialize()));
        assert!(m.processes(&tcp().serialize()));
        assert!(m.tracks_seq);
    }

    #[test]
    fn also_ignoring_extends() {
        let m = ValidationModel::ignoring([IpVersionInvalid]).also_ignoring([UdpLengthLong]);
        let (c, s) = (Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 0, 0, 2));
        let mut long = Packet::udp(c, s, 3478, 3478, &b"stun"[..]);
        long.udp_mut().length = Some(500);
        assert!(!m.processes(&long.serialize()));
    }
}
