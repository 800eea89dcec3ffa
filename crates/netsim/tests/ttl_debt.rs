//! Oracle for the network's TTL debt: a chain of plain router hops must
//! behave exactly like the same chain walked hop by hop.
//!
//! The reference chain wraps every plain hop in [`Opaque`], which
//! delegates to the same [`RouterHop`] but does not report itself plain,
//! so the network calls `RouterHop::process` at every hop and rewrites
//! the buffer there. Both chains are GFC-shaped (four plain hops, a
//! non-plain border normalizer, four plain hops, a classifier, four plain
//! hops, the server) and carry the same traffic: a TCP exchange whose
//! segments the classifier holds views of, an injection, a TTL-limited
//! probe that expires at every hop, and malformed packets. Under every
//! capture configuration they must give identical client inboxes,
//! captures (server ingress included), ICMP quotes, hop counters,
//! `payload-copies` and journal exports.

use std::net::Ipv4Addr;
use std::time::Duration;

use liberate_netsim::element::{Effects, PacketBuf, PathElement, TimedPacket, Verdict};
use liberate_netsim::filter::{FilterPolicy, FragmentHandling};
use liberate_netsim::hop::RouterHop;
use liberate_netsim::network::Network;
use liberate_netsim::os::OsProfile;
use liberate_netsim::server::{EchoApp, ServerHost};
use liberate_obs::{to_jsonl, Counter, Journal};
use liberate_packet::checksum::ChecksumSpec;
use liberate_packet::flow::Direction;
use liberate_packet::fragment::fragment_packet;
use liberate_packet::packet::{Packet, ParsedPacket};
use liberate_packet::tcp::TcpFlags;
use liberate_substrate::capture::TapPoint;
use liberate_substrate::icmp::parse_icmp_error;
use liberate_substrate::time::SimTime;

const CLIENT: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
const SERVER: Ipv4Addr = Ipv4Addr::new(10, 9, 9, 9);
const KEYWORD: &[u8] = b"forbidden";

fn hop_addr(i: u8) -> Ipv4Addr {
    Ipv4Addr::new(172, 16, 0, i)
}

/// A router hop the network must walk hop by hop: `process` is the
/// hop's own, `plain_hop` keeps its default `false`.
struct Opaque(RouterHop);

impl PathElement for Opaque {
    fn name(&self) -> &str {
        self.0.name()
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self.0.as_any_mut()
    }

    fn process(
        &mut self,
        journal: &Journal,
        now: SimTime,
        dir: Direction,
        wire: PacketBuf,
        effects: &mut Effects,
    ) -> Verdict {
        self.0.process(journal, now, dir, wire, effects)
    }

    fn decrements_ttl(&self) -> bool {
        self.0.decrements_ttl()
    }
}

/// A classifier-shaped element: like a reassembly queue, it holds a
/// view of each client packet's bytes until the next client packet
/// arrives, so a buffer can be shared when it enters a run of plain hops
/// and unique again before it leaves it. A client packet carrying
/// [`KEYWORD`] is answered with an injected packet each way.
#[derive(Default)]
struct Classifier {
    held: Option<PacketBuf>,
}

impl PathElement for Classifier {
    fn name(&self) -> &str {
        "classifier"
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }

    fn process(
        &mut self,
        _journal: &Journal,
        now: SimTime,
        dir: Direction,
        wire: PacketBuf,
        effects: &mut Effects,
    ) -> Verdict {
        if dir == Direction::ClientToServer {
            self.held = Some(wire.slice(20..));
            if wire.windows(KEYWORD.len()).any(|w| w == KEYWORD) {
                let rst = Packet::tcp(SERVER, CLIENT, 80, 40_000, 0, 0, vec![])
                    .with_flags(TcpFlags::RST)
                    .serialize();
                effects.inject(Direction::ServerToClient, TimedPacket::now(now, rst));
                let probe = Packet::udp(CLIENT, SERVER, 5_000, 53, &b"copy"[..]).serialize();
                effects.inject(Direction::ClientToServer, TimedPacket::now(now, probe));
            }
        }
        Verdict::pass(now, wire)
    }
}

/// client — r1..r4 — normalizer — r6..r9 — classifier — r10..r13 —
/// server, with r7 silent. `plain` picks bare hops or [`Opaque`] ones.
fn gfc_shaped(plain: bool) -> Network {
    let hop = |i: u8| -> Box<dyn PathElement> {
        let mut h = RouterHop::transparent(format!("r{i}"), hop_addr(i));
        if i == 7 {
            h = h.silent();
        }
        assert!(h.plain_hop());
        if plain {
            Box::new(h)
        } else {
            Box::new(Opaque(h))
        }
    };
    let mut elements: Vec<Box<dyn PathElement>> = Vec::new();
    for i in 1..=9 {
        if i == 5 {
            let normalizer = RouterHop::new(
                "normalizer",
                hop_addr(5),
                FilterPolicy::ip_hygiene().with_fragments(FragmentHandling::Reassemble),
            )
            .silent()
            .fixing_tcp_checksums();
            assert!(!normalizer.plain_hop());
            elements.push(Box::new(normalizer));
        } else {
            elements.push(hop(i));
        }
    }
    elements.push(Box::<Classifier>::default());
    for i in 10..=13 {
        elements.push(hop(i));
    }
    let server = ServerHost::new(SERVER, OsProfile::linux(), Box::<EchoApp>::default());
    Network::new(CLIENT, elements, server)
}

fn data(seq: u32, ack: u32, payload: &[u8]) -> Packet {
    Packet::tcp(CLIENT, SERVER, 40_000, 80, seq, ack, payload)
}

/// The traffic both chains carry.
fn drive(net: &mut Network) {
    let syn = data(999, 0, b"").with_flags(TcpFlags::SYN).serialize();
    net.send_from_client(Duration::ZERO, syn);
    net.run_until_idle();
    let server_isn = net
        .client_inbox()
        .iter()
        .find_map(|(_, w)| ParsedPacket::parse(w)?.tcp().map(|t| t.seq))
        .expect("SYN-ACK");
    let ack = server_isn.wrapping_add(1);
    net.send_from_client(
        Duration::ZERO,
        data(1000, ack, b"").with_flags(TcpFlags::ACK).serialize(),
    );
    net.run_until_idle();

    // Segments close enough that the classifier lets go of one while it
    // crosses r10..r13, and the keyword that triggers injections.
    let mut seq = 1000;
    for (i, gap_us) in [0u64, 500, 2_000, 3_500, 10_000].into_iter().enumerate() {
        let payload = format!("segment {i} ").repeat(8);
        net.send_from_client(
            Duration::from_micros(gap_us),
            data(seq, ack, payload.as_bytes()).serialize(),
        );
        seq += payload.len() as u32;
    }
    net.send_from_client(
        Duration::from_micros(10_500),
        data(seq, ack, KEYWORD).serialize(),
    );
    net.run_until_idle();

    // A TTL-limited probe at every TTL: TTL 0 and 1 die at r1, TTL k at
    // hop k, and from 14 on it reaches the server.
    for ttl in 0..=16u8 {
        let mut p = data(seq, ack, b"probe");
        p.ip.ttl = ttl;
        net.send_from_client(Duration::ZERO, p.serialize());
        net.run_until_idle();
    }

    // Malformed traffic: too short to parse (r1 filters it), a corrupted
    // IP checksum (kept exactly by the plain hops, dropped by the
    // normalizer) that also expires at r3 with its quote, and fragments
    // the normalizer reassembles.
    net.send_from_client(Duration::ZERO, vec![0x45; 12]);
    for ttl in [3u8, 64] {
        let mut bad = Packet::udp(CLIENT, SERVER, 5_000, 53, &b"bad checksum"[..]);
        bad.ip.ttl = ttl;
        bad.ip.checksum = ChecksumSpec::Fixed(0x0bad);
        net.send_from_client(Duration::ZERO, bad.serialize());
    }
    let whole = data(seq, ack, &[7u8; 96]).serialize();
    for frag in fragment_packet(&whole, 32).into_iter().rev() {
        net.send_from_client(Duration::ZERO, frag);
    }
    net.run_until_idle();
}

#[derive(Debug, PartialEq)]
struct Observed {
    inbox: Vec<(u64, Vec<u8>)>,
    capture: Vec<(u64, TapPoint, Vec<u8>)>,
    /// Per router hop: name, packets filtered, packets expired.
    hops: Vec<(String, u64, u64)>,
    server_os_dropped: u64,
    copies: u64,
    journal: String,
}

fn observe(plain: bool, taps: &[TapPoint]) -> Observed {
    let mut net = gfc_shaped(plain);
    net.capture.set_recorded_points(taps);
    drive(&mut net);
    let hops = (0..net.element_count())
        .filter_map(|i| {
            let any = net.element_mut(i).as_any_mut();
            let hop = any.downcast_mut::<RouterHop>()?;
            Some((
                hop.name().to_string(),
                hop.filtered_count,
                hop.expired_count,
            ))
        })
        .collect();
    Observed {
        inbox: net
            .take_client_inbox()
            .into_iter()
            .map(|(at, w)| (at.as_micros(), w.to_vec()))
            .collect(),
        capture: net
            .capture
            .all()
            .iter()
            .map(|r| (r.at.as_micros(), r.point, r.wire.to_vec()))
            .collect(),
        hops,
        server_os_dropped: net.server.os_dropped,
        copies: net.journal().metrics.get(Counter::PayloadCopies),
        journal: to_jsonl(net.journal()),
    }
}

#[test]
fn plain_hops_match_the_hop_by_hop_walk_under_every_capture() {
    let configs: [&[TapPoint]; 3] = [&TapPoint::ALL, &[TapPoint::ServerIngress], &[]];
    for taps in configs {
        let debt = observe(true, taps);
        let walked = observe(false, taps);
        // The short fields first, so a failure names what moved.
        assert_eq!(debt.copies, walked.copies, "taps {taps:?}: payload copies");
        assert_eq!(debt.hops, walked.hops, "taps {taps:?}: hop counters");
        assert_eq!(debt.journal, walked.journal, "taps {taps:?}: journal");
        assert_eq!(debt, walked, "taps {taps:?}");
        assert!(
            debt.copies > 0,
            "taps {taps:?}: the classifier's views make buffers shared"
        );
    }
}

#[test]
fn the_probe_expires_at_every_hop_with_its_quote() {
    let got = observe(true, &TapPoint::ALL);
    // Every hop but the silent ones (the normalizer, r7) answered a
    // probe; the corrupted datagram's quote came from r3 as well.
    let icmp_from: Vec<Ipv4Addr> = got
        .inbox
        .iter()
        .filter_map(|(_, w)| parse_icmp_error(w).map(|e| e.from))
        .collect();
    for i in (1..=13).filter(|&i| i != 5 && i != 7) {
        assert!(icmp_from.contains(&hop_addr(i)), "no quote from r{i}");
    }
    let expired: u64 = got.hops.iter().map(|(_, _, e)| e).sum();
    assert_eq!(expired, 14 + 1, "TTL 0..=13 and the corrupted datagram");
    let r1 = &got.hops[0];
    assert_eq!((r1.0.as_str(), r1.1), ("r1", 1), "r1 filters the runt");
    // The corrupted checksum arrives at the normalizer as corrupted as
    // it left: the normalizer drops it.
    let normalizer = got.hops.iter().find(|h| h.0 == "normalizer").unwrap();
    assert_eq!(normalizer.1, 1);
}
