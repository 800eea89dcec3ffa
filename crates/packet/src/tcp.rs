//! TCP header construction and parsing, with support for invalid flag
//! combinations, bogus data offsets, and forced checksums.

use std::net::Ipv4Addr;

use crate::checksum::{pseudo_header_checksum, ChecksumSpec};

/// Minimum TCP header length in bytes (data offset = 5).
pub const TCP_MIN_HEADER_LEN: usize = 20;

/// TCP flag bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct TcpFlags {
    pub fin: bool,
    pub syn: bool,
    pub rst: bool,
    pub psh: bool,
    pub ack: bool,
    pub urg: bool,
    pub ece: bool,
    pub cwr: bool,
}

impl TcpFlags {
    pub const SYN: TcpFlags = TcpFlags {
        syn: true,
        ..TcpFlags::empty()
    };
    pub const SYN_ACK: TcpFlags = TcpFlags {
        syn: true,
        ack: true,
        ..TcpFlags::empty()
    };
    pub const ACK: TcpFlags = TcpFlags {
        ack: true,
        ..TcpFlags::empty()
    };
    pub const PSH_ACK: TcpFlags = TcpFlags {
        psh: true,
        ack: true,
        ..TcpFlags::empty()
    };
    pub const RST: TcpFlags = TcpFlags {
        rst: true,
        ..TcpFlags::empty()
    };
    pub const FIN_ACK: TcpFlags = TcpFlags {
        fin: true,
        ack: true,
        ..TcpFlags::empty()
    };
    /// The classic invalid "Christmas tree" combination: SYN+FIN+RST set at
    /// once. Used by the "invalid flag combination" inert technique.
    pub const XMAS: TcpFlags = TcpFlags {
        syn: true,
        fin: true,
        rst: true,
        ..TcpFlags::empty()
    };
    /// PSH without ACK on an established flow — data packets must carry ACK
    /// (RFC 793); omitting it is the "ACK flag not set" technique.
    pub const PSH_ONLY: TcpFlags = TcpFlags {
        psh: true,
        ..TcpFlags::empty()
    };

    const fn empty() -> TcpFlags {
        TcpFlags {
            fin: false,
            syn: false,
            rst: false,
            psh: false,
            ack: false,
            urg: false,
            ece: false,
            cwr: false,
        }
    }

    /// Encode into the low 8 bits of the flags field.
    pub fn to_byte(self) -> u8 {
        (self.fin as u8)
            | (self.syn as u8) << 1
            | (self.rst as u8) << 2
            | (self.psh as u8) << 3
            | (self.ack as u8) << 4
            | (self.urg as u8) << 5
            | (self.ece as u8) << 6
            | (self.cwr as u8) << 7
    }

    /// Decode from the low 8 bits of the flags field.
    pub fn from_byte(b: u8) -> TcpFlags {
        TcpFlags {
            fin: b & 0x01 != 0,
            syn: b & 0x02 != 0,
            rst: b & 0x04 != 0,
            psh: b & 0x08 != 0,
            ack: b & 0x10 != 0,
            urg: b & 0x20 != 0,
            ece: b & 0x40 != 0,
            cwr: b & 0x80 != 0,
        }
    }

    /// Whether this is a combination no compliant stack ever emits
    /// (e.g. SYN+FIN, SYN+RST, or no flags at all).
    pub fn is_invalid_combination(self) -> bool {
        let none_set = !(self.fin || self.syn || self.rst || self.psh || self.ack || self.urg);
        (self.syn && self.fin) || (self.syn && self.rst) || (self.rst && self.fin) || none_set
    }
}

/// A TCP header. `data_offset` and `checksum` can be overridden to craft
/// malformed segments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TcpHeader {
    pub src_port: u16,
    pub dst_port: u16,
    pub seq: u32,
    pub ack: u32,
    /// Data offset override in 32-bit words; `None` derives from options.
    pub data_offset: Option<u8>,
    pub flags: TcpFlags,
    pub window: u16,
    pub checksum: ChecksumSpec,
    pub urgent: u16,
    /// Raw option bytes; padded to a 4-byte boundary when serialized.
    pub options: Vec<u8>,
}

impl TcpHeader {
    /// A data segment with PSH+ACK set, window 65535.
    pub fn new(src_port: u16, dst_port: u16, seq: u32, ack: u32) -> Self {
        TcpHeader {
            src_port,
            dst_port,
            seq,
            ack,
            data_offset: None,
            flags: TcpFlags::PSH_ACK,
            window: 65535,
            checksum: ChecksumSpec::Auto,
            urgent: 0,
            options: Vec::new(),
        }
    }

    /// Actual serialized header length in bytes.
    pub fn actual_header_len(&self) -> usize {
        TCP_MIN_HEADER_LEN + (self.options.len() + 3) / 4 * 4
    }

    /// Serialize the segment (header + payload), computing the pseudo-header
    /// checksum against `src`/`dst` unless overridden.
    pub fn serialize(&self, src: Ipv4Addr, dst: Ipv4Addr, payload: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.actual_header_len() + payload.len());
        self.write_header(&mut out);
        out.extend_from_slice(payload);
        self.fill_checksum(src, dst, &mut out);
        out
    }

    /// Append the header (options padded with EOL to a 4-byte boundary)
    /// with a zero checksum placeholder; [`TcpHeader::fill_checksum`]
    /// completes it once the payload follows.
    pub(crate) fn write_header(&self, out: &mut Vec<u8>) {
        let header_len = self.actual_header_len();
        let offset = self.data_offset.unwrap_or((header_len / 4) as u8) & 0x0f;
        out.extend_from_slice(&self.src_port.to_be_bytes());
        out.extend_from_slice(&self.dst_port.to_be_bytes());
        out.extend_from_slice(&self.seq.to_be_bytes());
        out.extend_from_slice(&self.ack.to_be_bytes());
        out.push(offset << 4);
        out.push(self.flags.to_byte());
        out.extend_from_slice(&self.window.to_be_bytes());
        out.extend_from_slice(&[0, 0]); // checksum placeholder
        out.extend_from_slice(&self.urgent.to_be_bytes());
        out.extend_from_slice(&self.options);
        out.resize(
            out.len() + (header_len - TCP_MIN_HEADER_LEN - self.options.len()),
            0,
        );
    }

    /// Fill the checksum field of `segment` (header + payload, checksum
    /// field zero) in place.
    pub(crate) fn fill_checksum(&self, src: Ipv4Addr, dst: Ipv4Addr, segment: &mut [u8]) {
        let ck = self.checksum.resolve(pseudo_header_checksum(
            src,
            dst,
            crate::ipv4::protocol::TCP,
            segment,
        ));
        segment[16..18].copy_from_slice(&ck.to_be_bytes());
    }
}

/// A parsed (possibly malformed) TCP segment view.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsedTcp {
    pub src_port: u16,
    pub dst_port: u16,
    pub seq: u32,
    pub ack: u32,
    pub data_offset: u8,
    pub flags: TcpFlags,
    pub window: u16,
    pub checksum: u16,
    pub urgent: u16,
    pub options: Vec<u8>,
    /// Offset of the payload within the segment buffer, per the data offset
    /// field (clamped to the buffer).
    pub payload_offset: usize,
}

impl ParsedTcp {
    /// Parse a TCP segment. Returns `None` if fewer than 20 bytes.
    pub fn parse(buf: &[u8]) -> Option<ParsedTcp> {
        if buf.len() < TCP_MIN_HEADER_LEN {
            return None;
        }
        let data_offset = buf[12] >> 4;
        let claimed = (data_offset as usize) * 4;
        let header_end = claimed.max(TCP_MIN_HEADER_LEN).min(buf.len());
        Some(ParsedTcp {
            src_port: u16::from_be_bytes([buf[0], buf[1]]),
            dst_port: u16::from_be_bytes([buf[2], buf[3]]),
            seq: u32::from_be_bytes([buf[4], buf[5], buf[6], buf[7]]),
            ack: u32::from_be_bytes([buf[8], buf[9], buf[10], buf[11]]),
            data_offset,
            flags: TcpFlags::from_byte(buf[13]),
            window: u16::from_be_bytes([buf[14], buf[15]]),
            checksum: u16::from_be_bytes([buf[16], buf[17]]),
            urgent: u16::from_be_bytes([buf[18], buf[19]]),
            options: buf[TCP_MIN_HEADER_LEN..header_end].to_vec(),
            payload_offset: header_end,
        })
    }

    /// Claimed header length per the data offset field, in bytes.
    pub fn claimed_header_len(&self) -> usize {
        (self.data_offset as usize) * 4
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
        let hdr = TcpHeader::new(40000, 80, 1000, 2000);
        let seg = hdr.serialize(src, dst, b"GET / HTTP/1.1\r\n");
        let parsed = ParsedTcp::parse(&seg).unwrap();
        assert_eq!(parsed.src_port, 40000);
        assert_eq!(parsed.dst_port, 80);
        assert_eq!(parsed.seq, 1000);
        assert_eq!(parsed.ack, 2000);
        assert_eq!(parsed.data_offset, 5);
        assert_eq!(parsed.flags, TcpFlags::PSH_ACK);
        assert_eq!(&seg[parsed.payload_offset..], b"GET / HTTP/1.1\r\n");
        assert!(crate::checksum::verify_pseudo_checksum(src, dst, 6, &seg));
    }

    #[test]
    fn flag_byte_roundtrip_all_256() {
        for b in 0..=255u8 {
            assert_eq!(TcpFlags::from_byte(b).to_byte(), b);
        }
    }

    #[test]
    fn invalid_combinations_detected() {
        assert!(TcpFlags::XMAS.is_invalid_combination());
        assert!(TcpFlags::from_byte(0).is_invalid_combination());
        assert!(TcpFlags::from_byte(0x03).is_invalid_combination()); // SYN+FIN
        assert!(!TcpFlags::SYN.is_invalid_combination());
        assert!(!TcpFlags::PSH_ACK.is_invalid_combination());
        assert!(!TcpFlags::RST.is_invalid_combination());
    }

    #[test]
    fn forced_checksum_and_offset() {
        let (src, dst) = addrs();
        let mut hdr = TcpHeader::new(1, 2, 0, 0);
        hdr.checksum = ChecksumSpec::Fixed(0xbad0);
        hdr.data_offset = Some(15);
        let seg = hdr.serialize(src, dst, b"x");
        let parsed = ParsedTcp::parse(&seg).unwrap();
        assert_eq!(parsed.checksum, 0xbad0);
        assert_eq!(parsed.data_offset, 15);
        assert_eq!(parsed.claimed_header_len(), 60);
        // Claimed header overruns the actual segment; payload clamps away.
        assert_eq!(parsed.payload_offset, seg.len());
        assert!(!crate::checksum::verify_pseudo_checksum(src, dst, 6, &seg));
    }

    #[test]
    fn options_padded() {
        let (src, dst) = addrs();
        let mut hdr = TcpHeader::new(1, 2, 0, 0);
        hdr.options = vec![2, 4, 0x05, 0xb4]; // MSS 1460
        let seg = hdr.serialize(src, dst, &[]);
        let parsed = ParsedTcp::parse(&seg).unwrap();
        assert_eq!(parsed.data_offset, 6);
        assert_eq!(parsed.options, vec![2, 4, 0x05, 0xb4]);
    }

    #[test]
    fn parse_short_fails() {
        assert!(ParsedTcp::parse(&[0u8; 19]).is_none());
    }
}
