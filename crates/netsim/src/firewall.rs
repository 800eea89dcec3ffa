//! A stateful TCP firewall hop: tracks connections and drops segments
//! whose sequence numbers fall far outside the expected window.
//!
//! Cellular gateways commonly do this; it is why T-Mobile's RS? column
//! shows wrong-sequence-number inert packets never reaching the server
//! (Table 3), while the GFC's column shows them sailing through.

use std::collections::HashMap;

use liberate_packet::flow::{Direction, FlowKey};
use liberate_packet::packet::ParsedPacket;

use crate::element::{Effects, PacketBuf, PathElement, Verdict};
use liberate_substrate::time::SimTime;

/// Tracked per-connection expectations.
#[derive(Debug, Clone, Copy)]
struct ConnTrack {
    /// Highest in-window sequence seen from the client plus payload.
    client_next: u32,
    /// Same for the server direction (0 until the SYN-ACK).
    server_next: u32,
}

/// The firewall element.
pub struct StatefulFirewall {
    name: String,
    window: u32,
    conns: HashMap<FlowKey, ConnTrack>,
    pub dropped: u64,
}

fn seq_in_window(seq: u32, expected: u32, window: u32) -> bool {
    // Accept seq within [expected - window, expected + window].
    let delta = seq.wrapping_sub(expected) as i32;
    delta.unsigned_abs() <= window
}

impl StatefulFirewall {
    pub fn new(name: impl Into<String>, window: u32) -> StatefulFirewall {
        StatefulFirewall {
            name: name.into(),
            window,
            conns: HashMap::new(),
            dropped: 0,
        }
    }
}

impl PathElement for StatefulFirewall {
    fn name(&self) -> &str {
        &self.name
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }

    fn process(
        &mut self,
        now: SimTime,
        dir: Direction,
        wire: PacketBuf,
        _effects: &mut Effects,
    ) -> Verdict {
        let Some(pkt) = ParsedPacket::parse(&wire) else {
            return Verdict::pass(now, wire);
        };
        let Some(tcp) = pkt.tcp() else {
            return Verdict::pass(now, wire); // non-TCP is not tracked
        };
        let Some(key) = FlowKey::from_packet(&pkt) else {
            return Verdict::pass(now, wire);
        };
        let canonical = key.canonical();

        if tcp.flags.syn && !tcp.flags.ack && dir == Direction::ClientToServer {
            self.conns.insert(
                canonical,
                ConnTrack {
                    client_next: tcp.seq.wrapping_add(1),
                    server_next: 0,
                },
            );
            return Verdict::pass(now, wire);
        }

        let Some(track) = self.conns.get_mut(&canonical) else {
            // Untracked flows pass (the firewall only polices what it saw
            // open).
            return Verdict::pass(now, wire);
        };

        if tcp.flags.syn && tcp.flags.ack && dir == Direction::ServerToClient {
            track.server_next = tcp.seq.wrapping_add(1);
            return Verdict::pass(now, wire);
        }

        let (expected, advance): (u32, bool) = match dir {
            Direction::ClientToServer => (track.client_next, true),
            Direction::ServerToClient => (track.server_next, true),
        };
        // A zero expectation means we have not seen that side yet: pass.
        if expected != 0 && !seq_in_window(tcp.seq, expected, self.window) {
            self.dropped += 1;
            return Verdict::Drop;
        }
        if advance && !pkt.payload.is_empty() {
            let end = tcp.seq.wrapping_add(pkt.payload.len() as u32);
            match dir {
                Direction::ClientToServer => {
                    if seq_in_window(end, track.client_next, self.window) {
                        track.client_next = end;
                    }
                }
                Direction::ServerToClient => {
                    if seq_in_window(end, track.server_next, self.window) {
                        track.server_next = end;
                    }
                }
            }
        }
        if tcp.flags.rst {
            self.conns.remove(&canonical);
        }
        Verdict::pass(now, wire)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use liberate_packet::packet::Packet;
    use liberate_packet::tcp::TcpFlags;
    use std::net::Ipv4Addr;

    const C: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
    const S: Ipv4Addr = Ipv4Addr::new(10, 9, 9, 9);

    fn fw() -> StatefulFirewall {
        StatefulFirewall::new("fw", 65_535)
    }

    fn process(fw: &mut StatefulFirewall, dir: Direction, p: Packet) -> Verdict {
        let mut fx = Effects::default();
        fw.process(SimTime::ZERO, dir, p.serialize().into(), &mut fx)
    }

    fn open(fw: &mut StatefulFirewall) {
        let syn = Packet::tcp(C, S, 40000, 80, 1000, 0, vec![]).with_flags(TcpFlags::SYN);
        assert!(matches!(
            process(fw, Direction::ClientToServer, syn),
            Verdict::Forward(_)
        ));
        let syn_ack =
            Packet::tcp(S, C, 80, 40000, 5000, 1001, vec![]).with_flags(TcpFlags::SYN_ACK);
        assert!(matches!(
            process(fw, Direction::ServerToClient, syn_ack),
            Verdict::Forward(_)
        ));
    }

    #[test]
    fn in_window_data_passes() {
        let mut f = fw();
        open(&mut f);
        let data = Packet::tcp(C, S, 40000, 80, 1001, 5001, &b"GET /"[..]);
        assert!(matches!(
            process(&mut f, Direction::ClientToServer, data),
            Verdict::Forward(_)
        ));
        assert_eq!(f.dropped, 0);
    }

    #[test]
    fn far_out_of_window_dropped() {
        let mut f = fw();
        open(&mut f);
        let evil = Packet::tcp(C, S, 40000, 80, 1001 + 10_000_000, 5001, &b"EVIL"[..]);
        assert_eq!(
            process(&mut f, Direction::ClientToServer, evil),
            Verdict::Drop
        );
        assert_eq!(f.dropped, 1);
        // The connection still works for honest data.
        let data = Packet::tcp(C, S, 40000, 80, 1001, 5001, &b"ok"[..]);
        assert!(matches!(
            process(&mut f, Direction::ClientToServer, data),
            Verdict::Forward(_)
        ));
    }

    #[test]
    fn untracked_flows_pass() {
        let mut f = fw();
        let data = Packet::tcp(C, S, 50000, 80, 77, 0, &b"mid-flow"[..]);
        assert!(matches!(
            process(&mut f, Direction::ClientToServer, data),
            Verdict::Forward(_)
        ));
    }

    #[test]
    fn non_tcp_passes() {
        let mut f = fw();
        let dgram = Packet::udp(C, S, 1, 2, &b"x"[..]);
        assert!(matches!(
            process(&mut f, Direction::ClientToServer, dgram),
            Verdict::Forward(_)
        ));
    }
}
