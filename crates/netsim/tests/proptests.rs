//! Property tests for the simulator substrate.

use proptest::prelude::*;
use std::net::Ipv4Addr;
use std::time::Duration;

use liberate_netsim::element::{Effects, PathElement, Verdict};
use liberate_netsim::hop::RouterHop;
use liberate_netsim::shaper::TokenBucket;
use liberate_obs::Journal;
use liberate_packet::checksum::ChecksumSpec;
use liberate_packet::flow::Direction;
use liberate_packet::packet::{Packet, ParsedPacket};
use liberate_packet::validate::{validate_wire, Malformation};
use liberate_substrate::time::SimTime;

proptest! {
    /// Token buckets are FIFO (departures never reorder) and never
    /// schedule before the arrival instant.
    #[test]
    fn token_bucket_fifo_and_causal(
        rate in 1_000u64..100_000_000,
        burst in 100u64..1_000_000,
        arrivals in proptest::collection::vec((0u64..10_000_000, 40usize..1500), 1..64),
    ) {
        let mut tb = TokenBucket::new(rate, burst);
        let mut arrivals = arrivals;
        arrivals.sort_by_key(|(t, _)| *t);
        let mut last_depart = SimTime::ZERO;
        for (t, len) in arrivals {
            let now = SimTime::from_micros(t);
            let depart = tb.schedule(now, len);
            prop_assert!(depart >= now, "causality");
            prop_assert!(depart >= last_depart, "FIFO");
            last_depart = depart;
        }
    }

    /// A sequence of router hops preserves packet well-formedness for any
    /// TTL large enough, and a corrupted IP checksum stays corrupted
    /// across hops (incremental update must not repair it).
    #[test]
    fn hops_preserve_validity_and_corruption(
        hops in 1usize..8,
        ttl in 16u8..=255,
        payload in proptest::collection::vec(any::<u8>(), 0..512),
        corrupt in any::<bool>(),
    ) {
        let mut p = Packet::tcp(
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 0, 2),
            1000, 80, 1, 1, payload,
        );
        p.ip.ttl = ttl;
        if corrupt {
            p.ip.checksum = ChecksumSpec::Fixed(0x0bad);
        }
        let mut wire: liberate_netsim::element::PacketBuf = p.serialize().into();
        let mut fx = Effects::default();
        for i in 0..hops {
            let mut hop = RouterHop::transparent(
                format!("r{i}"),
                Ipv4Addr::new(172, 16, 0, i as u8 + 1),
            );
            let verdict = hop.process(&Journal::new(), SimTime::ZERO, Direction::ClientToServer, wire.clone(), &mut fx);
            match verdict {
                Verdict::Forward(out) => wire = out.wire,
                Verdict::Drop => prop_assert!(false, "TTL was large enough"),
            }
        }
        let parsed = ParsedPacket::parse(&wire).unwrap();
        prop_assert_eq!(parsed.ip.ttl, ttl - hops as u8);
        let has_bad_ck = validate_wire(&wire).contains(&Malformation::IpChecksumWrong);
        prop_assert_eq!(has_bad_ck, corrupt, "corruption must be preserved exactly");
    }

    /// The discrete-event network delivers every clean client packet to
    /// the server exactly once, in order, whatever the hop count.
    #[test]
    fn network_delivers_in_order(
        hops in 0usize..6,
        n_packets in 1usize..12,
    ) {
        use liberate_netsim::network::Network;
        use liberate_netsim::os::OsProfile;
        use liberate_netsim::server::{ServerHost, SinkApp};
        use liberate_substrate::capture::TapPoint;
        use liberate_packet::tcp::TcpFlags;

        let client = Ipv4Addr::new(10, 0, 0, 1);
        let server_addr = Ipv4Addr::new(10, 9, 9, 9);
        let elements: Vec<Box<dyn PathElement>> = (0..hops)
            .map(|i| {
                Box::new(RouterHop::transparent(
                    format!("r{i}"),
                    Ipv4Addr::new(172, 16, 0, i as u8 + 1),
                )) as Box<dyn PathElement>
            })
            .collect();
        let server = ServerHost::new(server_addr, OsProfile::linux(), Box::<SinkApp>::default());
        let mut net = Network::new(client, elements, server);

        let syn = Packet::tcp(client, server_addr, 40_000, 80, 999, 0, vec![])
            .with_flags(TcpFlags::SYN);
        net.send_from_client(Duration::ZERO, syn.serialize());
        net.run_until_idle();
        net.take_client_inbox();

        let mut seq = 1_000u32;
        for i in 0..n_packets {
            let body = vec![i as u8; 100];
            let pkt = Packet::tcp(client, server_addr, 40_000, 80, seq, 1, body);
            seq += 100;
            net.send_from_client(Duration::ZERO, pkt.serialize());
            net.run_until_idle();
        }

        // Server-side ingress saw SYN + n data packets, in order.
        let seen: Vec<u32> = net
            .capture
            .at(TapPoint::ServerIngress)
            .filter_map(|r| {
                let p = ParsedPacket::parse(&r.wire)?;
                let t = p.tcp()?;
                (!p.payload.is_empty()).then_some(t.seq)
            })
            .collect();
        prop_assert_eq!(seen.len(), n_packets);
        prop_assert!(seen.windows(2).all(|w| w[0] < w[1]), "in order: {:?}", seen);
    }

    /// ICMP time-exceeded always returns to the packet's source and
    /// embeds the original header, for any source/destination.
    #[test]
    fn icmp_errors_return_to_source(
        src in any::<u32>().prop_map(Ipv4Addr::from),
        dst in any::<u32>().prop_map(Ipv4Addr::from),
        router in any::<u32>().prop_map(Ipv4Addr::from),
    ) {
        use liberate_substrate::icmp::{parse_icmp_error, time_exceeded};
        let orig = Packet::tcp(src, dst, 1, 2, 3, 4, vec![1, 2, 3]).serialize();
        let icmp = time_exceeded(router, &orig);
        let parsed = parse_icmp_error(&icmp).unwrap();
        prop_assert_eq!(parsed.from, router);
        let embedded = parsed.original.unwrap();
        prop_assert_eq!(embedded.src, src);
        prop_assert_eq!(embedded.dst, dst);
        let outer = ParsedPacket::parse(&icmp).unwrap();
        prop_assert_eq!(outer.ip.dst, src, "errors go back to the source");
    }

    /// The server delivers the same TCP byte stream whether a segment
    /// takes the in-order fast path (nothing buffered, starts at
    /// `rcv_next`) or the out-of-order reassembly: over random splits of
    /// a stream, reordered, with overlapping segments whose bytes may
    /// conflict, and a random ISN (so sequence numbers may wrap), the
    /// app sees exactly what a first-wins reference receiver delivers.
    #[test]
    fn server_in_order_fast_path_matches_reassembly(
        isn in any::<u32>(),
        len in 1usize..600,
        cuts in proptest::collection::vec(1usize..600, 0..8),
        swaps in proptest::collection::vec((0usize..64, 0usize..64), 0..6),
        extras in proptest::collection::vec((0usize..600, 1usize..200, any::<bool>(), 0usize..64), 0..4),
    ) {
        use liberate_netsim::os::OsProfile;
        use liberate_netsim::server::{ServerHost, SinkApp};
        use liberate_packet::tcp::TcpFlags;

        let stream: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
        let mut bounds: Vec<usize> = cuts.iter().map(|c| c % len).filter(|&c| c > 0).collect();
        bounds.extend([0, len]);
        bounds.sort_unstable();
        bounds.dedup();
        let mut segments: Vec<(usize, Vec<u8>)> = bounds
            .windows(2)
            .map(|w| (w[0], stream[w[0]..w[1]].to_vec()))
            .collect();
        for (a, b) in swaps {
            let n = segments.len();
            segments.swap(a % n, b % n);
        }
        for (start, extra_len, conflicting, at) in extras {
            let start = start % len;
            let end = (start + extra_len).min(len + 50);
            let bytes = (start..end)
                .map(|i| {
                    let b = stream.get(i).copied().unwrap_or(0xee);
                    if conflicting { b ^ 0x80 } else { b }
                })
                .collect();
            let at = at % (segments.len() + 1);
            segments.insert(at, (start, bytes));
        }

        let client = Ipv4Addr::new(10, 0, 0, 1);
        let server = Ipv4Addr::new(10, 9, 9, 9);
        let mut host = ServerHost::new(server, OsProfile::linux(), Box::<SinkApp>::default());
        let syn = Packet::tcp(client, server, 40_000, 80, isn, 0, vec![]).with_flags(TcpFlags::SYN);
        host.receive(SimTime::ZERO, &syn.serialize());
        let base = isn.wrapping_add(1);
        for (offset, bytes) in &segments {
            let seq = base.wrapping_add(*offset as u32);
            let pkt = Packet::tcp(client, server, 40_000, 80, seq, 1, bytes.clone());
            host.receive(SimTime::ZERO, &pkt.serialize());
        }
        let app = host.app_mut().as_any_mut().unwrap().downcast_mut::<SinkApp>().unwrap();
        prop_assert_eq!(&app.tcp_bytes, &first_wins_reference(&segments));
        if segments.iter().all(|(offset, bytes)| {
            stream.get(*offset..*offset + bytes.len()) == Some(bytes.as_slice())
        }) {
            prop_assert_eq!(&app.tcp_bytes, &stream, "consistent segments rebuild the stream");
        }
    }
}

/// A receiver that buffers every segment by stream offset (the first one
/// at an offset wins), delivers whatever became contiguous at its next
/// expected byte, and drops buffered segments that fell behind it: the
/// server's reassembly rules without sequence wrap, receive window or
/// fast path.
fn first_wins_reference(segments: &[(usize, Vec<u8>)]) -> Vec<u8> {
    let mut next = 0usize;
    let mut buffered: std::collections::BTreeMap<usize, &[u8]> = Default::default();
    let mut out = Vec::new();
    for (offset, bytes) in segments {
        if offset + bytes.len() <= next {
            continue;
        }
        let start = (*offset).max(next);
        buffered.entry(start).or_insert(&bytes[start - offset..]);
        while let Some((&s, d)) = buffered
            .iter()
            .find(|&(&s, d)| s <= next && next < s + d.len())
        {
            out.extend_from_slice(&d[next - s..]);
            next = s + d.len();
            buffered.remove(&s);
        }
        buffered.retain(|&s, d| s + d.len() > next);
    }
    out
}
