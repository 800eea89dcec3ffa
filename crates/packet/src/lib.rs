//! # liberate-packet
//!
//! Wire formats for the lib·erate reproduction: IPv4, TCP, and UDP headers
//! with full control over every field — including the ability to emit
//! *deliberately malformed* packets, which is the raw material of the
//! paper's inert-packet evasion techniques (Table 3).
//!
//! Design points, following the smoltcp school: simple owned types, no
//! macro tricks, tolerant parsing (extract everything extractable, judge
//! validity separately in [`validate`]), and wire bytes as the canonical
//! exchange format so every component applies its own interpretation.
//!
//! ## Quick example
//!
//! ```
//! use liberate_packet::prelude::*;
//! use std::net::Ipv4Addr;
//!
//! // A correct HTTP request segment...
//! let mut pkt = Packet::tcp(
//!     Ipv4Addr::new(10, 0, 0, 1),
//!     Ipv4Addr::new(93, 184, 216, 34),
//!     40000, 80, 1, 1,
//!     &b"GET / HTTP/1.1\r\nHost: example.com\r\n\r\n"[..],
//! );
//! assert!(is_well_formed(&pkt.serialize()));
//!
//! // ...turned into an inert packet with a wrong TCP checksum.
//! pkt.tcp_mut().checksum = ChecksumSpec::Fixed(0xbeef);
//! let defects = validate_wire(&pkt.serialize());
//! assert!(defects.contains(&Malformation::TcpChecksumWrong));
//! ```

pub mod buf;
pub mod checksum;
pub mod flow;
pub mod fragment;
pub mod ipv4;
pub mod mutate;
pub mod packet;
pub mod pcap;
pub mod tcp;
pub mod udp;
pub mod validate;

/// Convenient glob import of the types used everywhere.
pub mod prelude {
    pub use crate::buf::{CopyTally, PacketBuf, WireBytes};
    pub use crate::checksum::ChecksumSpec;
    pub use crate::flow::{Direction, FlowKey};
    pub use crate::fragment::{fragment_packet, OverlapPolicy, Reassembler};
    pub use crate::ipv4::{protocol, IpOption, Ipv4Header, ParsedIpv4};
    pub use crate::mutate::ByteRegion;
    pub use crate::packet::{Packet, ParsedPacket, ParsedTransport, Transport};
    pub use crate::pcap::CapturedPacket;
    pub use crate::tcp::{TcpFlags, TcpHeader};
    pub use crate::udp::UdpHeader;
    pub use crate::validate::{
        has_defect_in, is_well_formed, validate_wire, DefectMask, Malformation, MalformationSet,
    };
}
