//! The verdict/effects vocabulary shared by every backend: what a
//! middlebox (simulated path element or real rule engine) decided to do
//! with a packet, and what it injected while deciding.
//!
//! These types used to live in `liberate-netsim::element` next to the
//! `PathElement` trait; they moved here because the nftables-shaped
//! backend maps counter deltas back into the same vocabulary, and core
//! must be able to consume it without naming the simulator.

use liberate_packet::flow::Direction;

use crate::buf::PacketBuf;
use crate::time::SimTime;

/// A packet scheduled for (re)transmission at a given instant. The wire
/// bytes are a shared [`PacketBuf`] view: forwarding and duplicating a
/// packet moves or refcounts the buffer, never copies it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimedPacket {
    pub at: SimTime,
    pub wire: PacketBuf,
}

impl TimedPacket {
    pub fn now(at: SimTime, wire: impl Into<PacketBuf>) -> TimedPacket {
        TimedPacket {
            at,
            wire: wire.into(),
        }
    }
}

/// What a path element decided to do with a packet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// Forward the packet onward in its original direction, at `now` or,
    /// when a shaper or a deprioritizing policy holds it back, later. An
    /// element forwards at most the one packet it was given (possibly
    /// rewritten); anything else it emits is an injection in [`Effects`].
    Forward(TimedPacket),
    /// Silently drop.
    Drop,
}

impl Verdict {
    /// Forward a single packet immediately.
    pub fn pass(now: SimTime, wire: impl Into<PacketBuf>) -> Verdict {
        Verdict::Forward(TimedPacket::now(now, wire))
    }
}

/// Side effects a path element may produce while processing a packet:
/// injected packets traveling toward either endpoint (RST injection, block
/// pages, ICMP errors). Injected packets enter the path *at this element's
/// position* and traverse the remaining elements in their direction.
#[derive(Debug, Default)]
pub struct Effects {
    pub toward_client: Vec<TimedPacket>,
    pub toward_server: Vec<TimedPacket>,
}

impl Effects {
    pub fn inject(&mut self, dir: Direction, pkt: TimedPacket) {
        match dir {
            Direction::ServerToClient => self.toward_client.push(pkt),
            Direction::ClientToServer => self.toward_server.push(pkt),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.toward_client.is_empty() && self.toward_server.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn effects_routing() {
        let mut fx = Effects::default();
        assert!(fx.is_empty());
        fx.inject(
            Direction::ServerToClient,
            TimedPacket::now(SimTime::ZERO, vec![1]),
        );
        fx.inject(
            Direction::ClientToServer,
            TimedPacket::now(SimTime::ZERO, vec![2]),
        );
        assert_eq!(fx.toward_client.len(), 1);
        assert_eq!(fx.toward_server.len(), 1);
        assert!(!fx.is_empty());
    }

    #[test]
    fn verdict_pass_is_single_immediate() {
        match Verdict::pass(SimTime::from_secs(3), vec![9]) {
            Verdict::Forward(p) => assert_eq!(p.at, SimTime::from_secs(3)),
            Verdict::Drop => panic!("expected forward"),
        }
    }
}
