//! Flow identification: five-tuples and direction handling.

use std::fmt;
use std::net::Ipv4Addr;

use serde::{Deserialize, Serialize};

use crate::packet::ParsedPacket;

/// Direction of a packet relative to the flow initiator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Direction {
    /// From the flow initiator (client) toward the responder (server).
    ClientToServer,
    /// From the responder back to the initiator.
    ServerToClient,
}

impl Direction {
    pub fn flip(self) -> Direction {
        match self {
            Direction::ClientToServer => Direction::ServerToClient,
            Direction::ServerToClient => Direction::ClientToServer,
        }
    }
}

/// A transport five-tuple identifying one direction of a flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct FlowKey {
    pub src: Ipv4Addr,
    pub dst: Ipv4Addr,
    pub src_port: u16,
    pub dst_port: u16,
    pub protocol: u8,
}

impl FlowKey {
    pub fn new(src: Ipv4Addr, dst: Ipv4Addr, src_port: u16, dst_port: u16, protocol: u8) -> Self {
        FlowKey {
            src,
            dst,
            src_port,
            dst_port,
            protocol,
        }
    }

    /// Extract from a parsed packet; `None` when no transport ports exist
    /// (e.g. non-first fragments or unknown protocols).
    pub fn from_packet(pkt: &ParsedPacket) -> Option<FlowKey> {
        Some(FlowKey {
            src: pkt.ip.src,
            dst: pkt.ip.dst,
            src_port: pkt.src_port()?,
            dst_port: pkt.dst_port()?,
            protocol: pkt.ip.protocol,
        })
    }

    /// The same flow seen from the other direction.
    #[inline]
    pub fn reverse(self) -> FlowKey {
        FlowKey {
            src: self.dst,
            dst: self.src,
            src_port: self.dst_port,
            dst_port: self.src_port,
            protocol: self.protocol,
        }
    }

    /// A direction-independent key: both directions of a flow map to the
    /// same canonical value. Used by middlebox flow tables.
    #[inline]
    pub fn canonical(self) -> FlowKey {
        let fwd = (self.src, self.src_port);
        let rev = (self.dst, self.dst_port);
        if fwd <= rev {
            self
        } else {
            self.reverse()
        }
    }
}

impl fmt::Display for FlowKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{} -> {}:{} proto {}",
            self.src, self.src_port, self.dst, self.dst_port, self.protocol
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::Packet;

    fn key() -> FlowKey {
        FlowKey::new(
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 0, 2),
            40000,
            80,
            6,
        )
    }

    #[test]
    fn reverse_is_involution() {
        let k = key();
        assert_eq!(k.reverse().reverse(), k);
        assert_ne!(k.reverse(), k);
    }

    #[test]
    fn canonical_is_direction_independent() {
        let k = key();
        assert_eq!(k.canonical(), k.reverse().canonical());
    }

    #[test]
    fn from_packet_extracts_tuple() {
        let pkt = Packet::tcp(
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 0, 2),
            40000,
            80,
            0,
            0,
            vec![],
        );
        let parsed = crate::packet::ParsedPacket::parse(&pkt.serialize()).unwrap();
        assert_eq!(FlowKey::from_packet(&parsed), Some(key()));
    }

    #[test]
    fn direction_flip() {
        assert_eq!(Direction::ClientToServer.flip(), Direction::ServerToClient);
        assert_eq!(
            Direction::ServerToClient.flip().flip(),
            Direction::ServerToClient
        );
    }
}
