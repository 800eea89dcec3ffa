//! IPv4 header construction and parsing, including IP options and the
//! ability to emit deliberately malformed headers.
//!
//! lib·erate's inert-packet techniques need headers whose `version`, `ihl`,
//! `total_length`, `protocol`, and `checksum` disagree with the bytes that
//! follow, so every derived field here can be overridden. By default the
//! builder produces a correct header.

use std::net::Ipv4Addr;

use crate::checksum::{internet_checksum, ChecksumSpec};

/// Minimum IPv4 header length in bytes (IHL = 5).
pub const IPV4_MIN_HEADER_LEN: usize = 20;

/// IP protocol numbers used throughout the workspace.
pub mod protocol {
    pub const ICMP: u8 = 1;
    pub const TCP: u8 = 6;
    pub const UDP: u8 = 17;
    /// An unassigned protocol number, used for the "wrong protocol" inert
    /// technique (Fig. 2(b) in the paper).
    pub const UNASSIGNED: u8 = 253;
}

/// IPv4 option kinds relevant to the evasion taxonomy.
///
/// "Invalid options" and "deprecated options" are two distinct rows of
/// Table 3: middleboxes may process packets carrying them while servers
/// (except Windows, for some) drop them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IpOption {
    /// End of option list (kind 0).
    EndOfList,
    /// No-operation (kind 1).
    Nop,
    /// Record route (kind 7) with the given pointer and route data.
    RecordRoute { pointer: u8, data: Vec<u8> },
    /// Deprecated Stream Identifier option (kind 136, RFC 791 / deprecated
    /// by RFC 6814).
    StreamId(u16),
    /// Deprecated (historic) Security option (kind 130, RFC 1108).
    Security([u8; 9]),
    /// A structurally invalid option: unknown kind with a length that
    /// overruns the option area.
    InvalidOverrun { kind: u8, claimed_len: u8 },
    /// Raw bytes appended verbatim.
    Raw(Vec<u8>),
}

impl IpOption {
    /// Encode this option, appending to `out`.
    pub fn encode(&self, out: &mut Vec<u8>) {
        match self {
            IpOption::EndOfList => out.push(0),
            IpOption::Nop => out.push(1),
            IpOption::RecordRoute { pointer, data } => {
                out.push(7);
                out.push(3 + data.len() as u8);
                out.push(*pointer);
                out.extend_from_slice(data);
            }
            IpOption::StreamId(id) => {
                out.push(136);
                out.push(4);
                out.extend_from_slice(&id.to_be_bytes());
            }
            IpOption::Security(data) => {
                out.push(130);
                out.push(11);
                out.extend_from_slice(data);
            }
            IpOption::InvalidOverrun { kind, claimed_len } => {
                out.push(*kind);
                out.push(*claimed_len);
            }
            IpOption::Raw(bytes) => out.extend_from_slice(bytes),
        }
    }

    /// Whether this option is deprecated (obsoleted by RFC 6814).
    pub fn is_deprecated(&self) -> bool {
        matches!(self, IpOption::StreamId(_) | IpOption::Security(_))
    }
}

/// Encode a list of options, padding with zeros to a 4-byte boundary.
pub fn encode_options(options: &[IpOption]) -> Vec<u8> {
    let mut out = Vec::new();
    for opt in options {
        opt.encode(&mut out);
    }
    while out.len() % 4 != 0 {
        out.push(0);
    }
    out
}

/// Structural issues found while scanning an encoded option area.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OptionScan {
    /// No options present.
    None,
    /// Only well-formed, currently-valid options.
    Valid,
    /// Contains a deprecated (RFC 6814) option such as Stream ID or
    /// Security.
    Deprecated,
    /// Structurally invalid (zero/overrunning lengths, truncated option).
    Invalid,
}

/// Scan an encoded option area and classify it.
pub fn scan_options(bytes: &[u8]) -> OptionScan {
    if bytes.is_empty() {
        return OptionScan::None;
    }
    let mut saw_deprecated = false;
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            0 => break, // End of list; remainder is padding.
            1 => i += 1,
            kind => {
                if i + 1 >= bytes.len() {
                    return OptionScan::Invalid;
                }
                let len = bytes[i + 1] as usize;
                if len < 2 || i + len > bytes.len() {
                    return OptionScan::Invalid;
                }
                match kind {
                    136 | 130 | 133 | 134 => saw_deprecated = true,
                    7 | 68 | 131 | 137 | 148 => {}
                    _ => return OptionScan::Invalid,
                }
                i += len;
            }
        }
    }
    if saw_deprecated {
        OptionScan::Deprecated
    } else {
        OptionScan::Valid
    }
}

/// An IPv4 header. Fields that are normally derived (`version`, `ihl`,
/// `total_length`, `checksum`, `protocol`) accept overrides so malformed
/// headers can be built; `None`/`Auto` means "derive the correct value".
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ipv4Header {
    /// IP version; 4 unless crafting an invalid packet.
    pub version: u8,
    /// Header length override in 32-bit words. `None` derives from options.
    pub ihl: Option<u8>,
    /// DSCP/ECN byte.
    pub tos: u8,
    /// Total length override in bytes. `None` derives from the actual size.
    pub total_length: Option<u16>,
    /// Identification field (used to match fragments).
    pub identification: u16,
    /// Don't-fragment flag.
    pub dont_fragment: bool,
    /// More-fragments flag.
    pub more_fragments: bool,
    /// Fragment offset in 8-byte units.
    pub fragment_offset: u16,
    /// Time to live.
    pub ttl: u8,
    /// Protocol override. `None` derives from the transport carried.
    pub protocol: Option<u8>,
    /// Header checksum handling.
    pub checksum: ChecksumSpec,
    /// Source address.
    pub src: Ipv4Addr,
    /// Destination address.
    pub dst: Ipv4Addr,
    /// IP options.
    pub options: Vec<IpOption>,
}

impl Ipv4Header {
    /// A correct header between `src` and `dst` with a default TTL of 64.
    pub fn new(src: Ipv4Addr, dst: Ipv4Addr) -> Self {
        Ipv4Header {
            version: 4,
            ihl: None,
            tos: 0,
            total_length: None,
            identification: 0,
            dont_fragment: false,
            more_fragments: false,
            fragment_offset: 0,
            ttl: 64,
            protocol: None,
            checksum: ChecksumSpec::Auto,
            src,
            dst,
            options: Vec::new(),
        }
    }

    /// Header length in bytes as it will actually be serialized
    /// (independent of any `ihl` override).
    pub fn actual_header_len(&self) -> usize {
        IPV4_MIN_HEADER_LEN + encode_options(&self.options).len()
    }

    /// Serialize, given the transport protocol number to use when no
    /// override is set and the byte length of everything after the header.
    pub fn serialize(&self, derived_protocol: u8, payload_len: usize) -> Vec<u8> {
        let mut out = Vec::new();
        self.write(&mut out, derived_protocol, payload_len);
        out
    }

    /// Append the serialized header to `out` (see [`Ipv4Header::serialize`]).
    pub(crate) fn write(&self, out: &mut Vec<u8>, derived_protocol: u8, payload_len: usize) {
        let options = encode_options(&self.options);
        let header_len = IPV4_MIN_HEADER_LEN + options.len();
        let ihl = self.ihl.unwrap_or((header_len / 4) as u8) & 0x0f;
        let total_length = self
            .total_length
            .unwrap_or((header_len + payload_len) as u16);
        let protocol = self.protocol.unwrap_or(derived_protocol);

        let start = out.len();
        out.reserve(header_len);
        out.push(((self.version & 0x0f) << 4) | ihl);
        out.push(self.tos);
        out.extend_from_slice(&total_length.to_be_bytes());
        out.extend_from_slice(&self.identification.to_be_bytes());
        let mut flags_frag = self.fragment_offset & 0x1fff;
        if self.dont_fragment {
            flags_frag |= 0x4000;
        }
        if self.more_fragments {
            flags_frag |= 0x2000;
        }
        out.extend_from_slice(&flags_frag.to_be_bytes());
        out.push(self.ttl);
        out.push(protocol);
        out.extend_from_slice(&[0, 0]); // checksum placeholder
        out.extend_from_slice(&self.src.octets());
        out.extend_from_slice(&self.dst.octets());
        out.extend_from_slice(&options);

        let ck = self.checksum.resolve(internet_checksum(&out[start..]));
        out[start + 10..start + 12].copy_from_slice(&ck.to_be_bytes());
    }
}

/// A parsed (possibly malformed) IPv4 header view.
///
/// Parsing is deliberately *tolerant*: a middlebox or capture tap must be
/// able to look inside packets an OS would reject, so we extract every field
/// we can and leave judgments about validity to [`crate::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsedIpv4 {
    pub version: u8,
    pub ihl: u8,
    pub tos: u8,
    pub total_length: u16,
    pub identification: u16,
    pub dont_fragment: bool,
    pub more_fragments: bool,
    pub fragment_offset: u16,
    pub ttl: u8,
    pub protocol: u8,
    pub checksum: u16,
    pub src: Ipv4Addr,
    pub dst: Ipv4Addr,
    /// Raw option bytes (whatever sits between byte 20 and the claimed
    /// header end, clamped to the buffer).
    pub options: Vec<u8>,
    /// Offset where the transport header starts, per the IHL field
    /// (clamped to the buffer length).
    pub payload_offset: usize,
}

impl ParsedIpv4 {
    /// Parse the fixed part of an IPv4 header. Returns `None` only if there
    /// are not even 20 bytes to read.
    pub fn parse(buf: &[u8]) -> Option<ParsedIpv4> {
        if buf.len() < IPV4_MIN_HEADER_LEN {
            return None;
        }
        let version = buf[0] >> 4;
        let ihl = buf[0] & 0x0f;
        let claimed_header_len = (ihl as usize) * 4;
        let header_end = claimed_header_len.max(IPV4_MIN_HEADER_LEN).min(buf.len());
        let flags_frag = u16::from_be_bytes([buf[6], buf[7]]);
        Some(ParsedIpv4 {
            version,
            ihl,
            tos: buf[1],
            total_length: u16::from_be_bytes([buf[2], buf[3]]),
            identification: u16::from_be_bytes([buf[4], buf[5]]),
            dont_fragment: flags_frag & 0x4000 != 0,
            more_fragments: flags_frag & 0x2000 != 0,
            fragment_offset: flags_frag & 0x1fff,
            ttl: buf[8],
            protocol: buf[9],
            checksum: u16::from_be_bytes([buf[10], buf[11]]),
            src: Ipv4Addr::new(buf[12], buf[13], buf[14], buf[15]),
            dst: Ipv4Addr::new(buf[16], buf[17], buf[18], buf[19]),
            options: buf[IPV4_MIN_HEADER_LEN..header_end].to_vec(),
            payload_offset: header_end,
        })
    }

    /// Whether this header describes a fragment (offset > 0 or MF set).
    pub fn is_fragment(&self) -> bool {
        self.fragment_offset > 0 || self.more_fragments
    }

    /// Header length in bytes as claimed by the IHL field.
    pub fn claimed_header_len(&self) -> usize {
        (self.ihl as usize) * 4
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addr(a: u8) -> Ipv4Addr {
        Ipv4Addr::new(10, 0, 0, a)
    }

    #[test]
    fn serialize_parse_roundtrip() {
        let mut hdr = Ipv4Header::new(addr(1), addr(2));
        hdr.identification = 0xbeef;
        hdr.ttl = 17;
        let bytes = hdr.serialize(protocol::TCP, 100);
        let parsed = ParsedIpv4::parse(&bytes).unwrap();
        assert_eq!(parsed.version, 4);
        assert_eq!(parsed.ihl, 5);
        assert_eq!(parsed.total_length, 120);
        assert_eq!(parsed.identification, 0xbeef);
        assert_eq!(parsed.ttl, 17);
        assert_eq!(parsed.protocol, protocol::TCP);
        assert_eq!(parsed.src, addr(1));
        assert_eq!(parsed.dst, addr(2));
        assert!(crate::checksum::verify_checksum(&bytes));
    }

    #[test]
    fn override_version_and_checksum() {
        let mut hdr = Ipv4Header::new(addr(1), addr(2));
        hdr.version = 6;
        hdr.checksum = ChecksumSpec::Fixed(0xdead);
        let bytes = hdr.serialize(protocol::UDP, 0);
        let parsed = ParsedIpv4::parse(&bytes).unwrap();
        assert_eq!(parsed.version, 6);
        assert_eq!(parsed.checksum, 0xdead);
        assert!(!crate::checksum::verify_checksum(&bytes));
    }

    #[test]
    fn total_length_override_disagrees_with_bytes() {
        let mut hdr = Ipv4Header::new(addr(1), addr(2));
        hdr.total_length = Some(9999);
        let bytes = hdr.serialize(protocol::TCP, 4);
        let parsed = ParsedIpv4::parse(&bytes).unwrap();
        assert_eq!(parsed.total_length, 9999);
        assert_eq!(bytes.len(), 20);
    }

    #[test]
    fn options_are_padded_and_extend_ihl() {
        let mut hdr = Ipv4Header::new(addr(1), addr(2));
        hdr.options = vec![IpOption::StreamId(7)];
        let bytes = hdr.serialize(protocol::TCP, 0);
        assert_eq!(bytes.len(), 24);
        let parsed = ParsedIpv4::parse(&bytes).unwrap();
        assert_eq!(parsed.ihl, 6);
        assert_eq!(parsed.options.len(), 4);
        assert_eq!(scan_options(&parsed.options), OptionScan::Deprecated);
    }

    #[test]
    fn scan_classifies_option_areas() {
        assert_eq!(scan_options(&[]), OptionScan::None);
        assert_eq!(
            scan_options(&encode_options(&[IpOption::Nop])),
            OptionScan::Valid
        );
        assert_eq!(
            scan_options(&encode_options(&[IpOption::RecordRoute {
                pointer: 4,
                data: vec![0; 8]
            }])),
            OptionScan::Valid
        );
        assert_eq!(
            scan_options(&encode_options(&[IpOption::Security([0; 9])])),
            OptionScan::Deprecated
        );
        assert_eq!(
            scan_options(&encode_options(&[IpOption::InvalidOverrun {
                kind: 0x99,
                claimed_len: 40
            }])),
            OptionScan::Invalid
        );
        // Truncated: kind byte with no length byte.
        assert_eq!(scan_options(&[7]), OptionScan::Invalid);
        // Zero length is invalid.
        assert_eq!(scan_options(&[7, 0, 0, 0]), OptionScan::Invalid);
    }

    #[test]
    fn parse_short_buffer_fails() {
        assert!(ParsedIpv4::parse(&[0u8; 19]).is_none());
    }

    #[test]
    fn ihl_claiming_more_than_buffer_is_clamped() {
        let mut hdr = Ipv4Header::new(addr(1), addr(2));
        hdr.ihl = Some(15); // claims a 60-byte header that does not exist
        let bytes = hdr.serialize(protocol::TCP, 0);
        let parsed = ParsedIpv4::parse(&bytes).unwrap();
        assert_eq!(parsed.claimed_header_len(), 60);
        assert_eq!(parsed.payload_offset, bytes.len());
    }

    #[test]
    fn fragment_flags_roundtrip() {
        let mut hdr = Ipv4Header::new(addr(1), addr(2));
        hdr.more_fragments = true;
        hdr.fragment_offset = 185; // 1480 bytes / 8
        let bytes = hdr.serialize(protocol::UDP, 8);
        let parsed = ParsedIpv4::parse(&bytes).unwrap();
        assert!(parsed.more_fragments);
        assert!(!parsed.dont_fragment);
        assert_eq!(parsed.fragment_offset, 185);
        assert!(parsed.is_fragment());
    }
}
