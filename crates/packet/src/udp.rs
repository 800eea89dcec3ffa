//! UDP header construction and parsing, with length and checksum overrides
//! for the UDP inert-packet techniques.

use std::net::Ipv4Addr;

use crate::checksum::{pseudo_header_checksum, ChecksumSpec};

/// UDP header length in bytes.
pub const UDP_HEADER_LEN: usize = 8;

/// A UDP header. `length` can be overridden to claim more or fewer bytes
/// than the datagram actually carries ("UDP Length longer/shorter than
/// payload" in Table 3).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UdpHeader {
    pub src_port: u16,
    pub dst_port: u16,
    /// Length override (header + payload). `None` derives the real size.
    pub length: Option<u16>,
    pub checksum: ChecksumSpec,
}

impl UdpHeader {
    pub fn new(src_port: u16, dst_port: u16) -> Self {
        UdpHeader {
            src_port,
            dst_port,
            length: None,
            checksum: ChecksumSpec::Auto,
        }
    }

    /// Serialize the datagram (header + payload) with the pseudo-header
    /// checksum computed against `src`/`dst` unless overridden.
    pub fn serialize(&self, src: Ipv4Addr, dst: Ipv4Addr, payload: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(UDP_HEADER_LEN + payload.len());
        self.write_header(&mut out, payload.len());
        out.extend_from_slice(payload);
        self.fill_checksum(src, dst, &mut out);
        out
    }

    /// Append the header for a `payload_len`-byte payload with a zero
    /// checksum placeholder; [`UdpHeader::fill_checksum`] completes it.
    pub(crate) fn write_header(&self, out: &mut Vec<u8>, payload_len: usize) {
        let length = self.length.unwrap_or((UDP_HEADER_LEN + payload_len) as u16);
        out.extend_from_slice(&self.src_port.to_be_bytes());
        out.extend_from_slice(&self.dst_port.to_be_bytes());
        out.extend_from_slice(&length.to_be_bytes());
        out.extend_from_slice(&[0, 0]); // checksum placeholder
    }

    /// Fill the checksum field of `datagram` (header + payload, checksum
    /// field zero) in place.
    pub(crate) fn fill_checksum(&self, src: Ipv4Addr, dst: Ipv4Addr, datagram: &mut [u8]) {
        let ck = self.checksum.resolve(pseudo_header_checksum(
            src,
            dst,
            crate::ipv4::protocol::UDP,
            datagram,
        ));
        // RFC 768: a computed checksum of zero is transmitted as 0xffff
        // (zero means "no checksum").
        let ck = if ck == 0 && self.checksum == ChecksumSpec::Auto {
            0xffff
        } else {
            ck
        };
        datagram[6..8].copy_from_slice(&ck.to_be_bytes());
    }
}

/// A parsed UDP datagram view.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsedUdp {
    pub src_port: u16,
    pub dst_port: u16,
    pub length: u16,
    pub checksum: u16,
    /// Number of payload bytes actually present in the buffer.
    pub actual_payload_len: usize,
}

impl ParsedUdp {
    pub fn parse(buf: &[u8]) -> Option<ParsedUdp> {
        if buf.len() < UDP_HEADER_LEN {
            return None;
        }
        Some(ParsedUdp {
            src_port: u16::from_be_bytes([buf[0], buf[1]]),
            dst_port: u16::from_be_bytes([buf[2], buf[3]]),
            length: u16::from_be_bytes([buf[4], buf[5]]),
            checksum: u16::from_be_bytes([buf[6], buf[7]]),
            actual_payload_len: buf.len() - UDP_HEADER_LEN,
        })
    }

    /// Payload length claimed by the header, saturating at zero for
    /// lengths smaller than the header itself.
    pub fn claimed_payload_len(&self) -> usize {
        (self.length as usize).saturating_sub(UDP_HEADER_LEN)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addrs() -> (Ipv4Addr, Ipv4Addr) {
        (Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 0, 0, 2))
    }

    #[test]
    fn roundtrip() {
        let (src, dst) = addrs();
        let dgram = UdpHeader::new(3478, 3478).serialize(src, dst, b"stun");
        let parsed = ParsedUdp::parse(&dgram).unwrap();
        assert_eq!(parsed.src_port, 3478);
        assert_eq!(parsed.length, 12);
        assert_eq!(parsed.actual_payload_len, 4);
        assert_eq!(parsed.claimed_payload_len(), 4);
        assert!(crate::checksum::verify_pseudo_checksum(
            src, dst, 17, &dgram
        ));
    }

    #[test]
    fn length_overrides() {
        let (src, dst) = addrs();
        let mut hdr = UdpHeader::new(1, 2);
        hdr.length = Some(100);
        let long = hdr.serialize(src, dst, b"abc");
        let parsed = ParsedUdp::parse(&long).unwrap();
        assert_eq!(parsed.length, 100);
        assert_eq!(parsed.actual_payload_len, 3);
        assert!(parsed.claimed_payload_len() > parsed.actual_payload_len);

        hdr.length = Some(9); // claims 1 byte of payload while carrying 3
        let short = hdr.serialize(src, dst, b"abc");
        let parsed = ParsedUdp::parse(&short).unwrap();
        assert_eq!(parsed.claimed_payload_len(), 1);
    }

    #[test]
    fn forced_bad_checksum() {
        let (src, dst) = addrs();
        let mut hdr = UdpHeader::new(1, 2);
        hdr.checksum = ChecksumSpec::Fixed(0x0bad);
        let dgram = hdr.serialize(src, dst, b"xyz");
        assert!(!crate::checksum::verify_pseudo_checksum(
            src, dst, 17, &dgram
        ));
    }

    #[test]
    fn zero_checksum_means_unchecked() {
        let (src, dst) = addrs();
        let mut hdr = UdpHeader::new(1, 2);
        hdr.checksum = ChecksumSpec::Fixed(0);
        let dgram = hdr.serialize(src, dst, b"xyz");
        assert!(crate::checksum::verify_pseudo_checksum(
            src, dst, 17, &dgram
        ));
    }

    #[test]
    fn parse_short_fails() {
        assert!(ParsedUdp::parse(&[0u8; 7]).is_none());
    }
}
