//! Property-based tests over the core data structures and invariants,
//! spanning crates.

use proptest::prelude::*;

use liberate::prelude::*;
use liberate::reactor::lane_addr;
use liberate_dpi::sharded::ShardedFlowTable;
use liberate_packet::flow::FlowKey;
use liberate_packet::fragment::{fragment_packet, OverlapPolicy, Reassembler};
use liberate_packet::packet::{Packet, ParsedPacket};
use liberate_packet::validate::is_well_formed;
use liberate_traces::recorded::{RecordedTrace, TraceMessage, TraceProtocol};
use std::net::Ipv4Addr;

fn addr() -> impl Strategy<Value = Ipv4Addr> {
    (1u8..=254, 0u8..=255, 0u8..=255, 1u8..=254).prop_map(|(a, b, c, d)| Ipv4Addr::new(a, b, c, d))
}

proptest! {
    /// Any default-crafted TCP packet serializes to well-formed wire bytes
    /// and parses back to the same endpoints, ports, seq, and payload.
    #[test]
    fn tcp_serialize_parse_roundtrip(
        src in addr(),
        dst in addr(),
        sport in 1u16..65535,
        dport in 1u16..65535,
        seq in any::<u32>(),
        ack in any::<u32>(),
        payload in proptest::collection::vec(any::<u8>(), 0..2048),
    ) {
        let pkt = Packet::tcp(src, dst, sport, dport, seq, ack, payload.clone());
        let wire = pkt.serialize();
        prop_assert!(is_well_formed(&wire), "defects: {:?}",
            liberate_packet::validate::validate_wire(&wire));
        let parsed = ParsedPacket::parse(&wire).unwrap();
        prop_assert_eq!(parsed.ip.src, src);
        prop_assert_eq!(parsed.ip.dst, dst);
        prop_assert_eq!(parsed.src_port(), Some(sport));
        prop_assert_eq!(parsed.dst_port(), Some(dport));
        prop_assert_eq!(parsed.tcp().unwrap().seq, seq);
        prop_assert_eq!(parsed.payload, payload);
    }

    /// UDP round-trip with well-formedness.
    #[test]
    fn udp_serialize_parse_roundtrip(
        src in addr(),
        dst in addr(),
        sport in 1u16..65535,
        dport in 1u16..65535,
        payload in proptest::collection::vec(any::<u8>(), 0..2048),
    ) {
        let pkt = Packet::udp(src, dst, sport, dport, payload.clone());
        let wire = pkt.serialize();
        prop_assert!(is_well_formed(&wire));
        let parsed = ParsedPacket::parse(&wire).unwrap();
        prop_assert_eq!(parsed.payload, payload);
    }

    /// Fragmentation then reassembly recovers the original payload, for
    /// any fragment size and any delivery order.
    #[test]
    fn fragment_reassembly_roundtrip(
        payload in proptest::collection::vec(any::<u8>(), 1..4096),
        chunk in 8usize..1024,
        reverse in any::<bool>(),
    ) {
        let mut pkt = Packet::tcp(
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 0, 2),
            1, 2, 0, 0, payload,
        );
        pkt.ip.identification = 7;
        let wire = pkt.serialize();
        let mut frags = fragment_packet(&wire, chunk);
        if reverse {
            frags.reverse();
        }
        let mut reasm = Reassembler::new(OverlapPolicy::FirstWins);
        let mut done = None;
        for f in &frags {
            if let Some(whole) = reasm.push(f) {
                done = Some(whole);
            }
        }
        let done = done.expect("reassembly completes");
        let orig = ParsedPacket::parse(&wire).unwrap();
        let got = ParsedPacket::parse(&done).unwrap();
        prop_assert_eq!(orig.payload, got.payload);
        prop_assert!(is_well_formed(&done));
    }

    /// Splitting a payload across a field always (a) reassembles exactly,
    /// (b) produces monotonically increasing offsets, and (c) puts the
    /// final boundary strictly inside the field when geometrically
    /// possible.
    #[test]
    fn split_across_field_invariants(
        payload in proptest::collection::vec(any::<u8>(), 2..4096),
        field_start in 0usize..4096,
        field_len in 1usize..64,
        n in 2usize..10,
    ) {
        let field = field_start.min(payload.len().saturating_sub(1))
            ..(field_start + field_len).min(payload.len());
        let parts = liberate::evasion::split_across_field_for_tests(&payload, &field, n);
        // Exact reassembly at stated offsets.
        let mut whole = Vec::new();
        for (off, chunk) in &parts {
            prop_assert_eq!(*off, whole.len());
            whole.extend_from_slice(chunk);
        }
        prop_assert_eq!(whole, payload.clone());
        // If the field is at least 2 bytes and interior, the last boundary
        // splits it.
        if parts.len() >= 2 && field.len() >= 2 && field.start > 0 && field.end < payload.len() {
            let last = parts.last().unwrap().0;
            prop_assert!(field.start < last && last < field.end,
                "boundary {} not inside {:?}", last, field);
        }
    }

    /// Every technique's schedule rewrite preserves the client byte stream
    /// (counts-true bytes) — evasion must never corrupt application data.
    #[test]
    fn transforms_preserve_client_stream(
        body in proptest::collection::vec(any::<u8>(), 1..2000),
        seed in any::<u8>(),
    ) {
        let mut trace = RecordedTrace::new("p", TraceProtocol::Tcp, 80);
        let mut head = b"GET / HTTP/1.1\r\nHost: target.example\r\n\r\n".to_vec();
        head.extend_from_slice(&body);
        trace.push_message(TraceMessage::client(head));
        trace.push_message(TraceMessage::server(&b"HTTP/1.1 200 OK\r\n\r\nok"[..]));

        let ctx = EvasionContext {
            matching_fields: vec![liberate_packet::mutate::ByteRegion::new(
                0,
                22..36, // "target.example"
            )],
            decoy: decoy_request(),
            middlebox_ttl: 1 + (seed % 10),
        };
        let base = Schedule::from_trace(&trace);
        for technique in Technique::table3_rows() {
            let Some(out) = technique.apply(&base, &ctx) else { continue };
            // Reconstruct the client stream from counts-true packets by
            // offset order.
            let mut pkts: Vec<(u64, Vec<u8>)> = out
                .steps
                .iter()
                .filter_map(|s| match s {
                    Step::Packet(p) if p.counts => Some((p.offset, p.payload.clone())),
                    _ => None,
                })
                .collect();
            pkts.sort_by_key(|(off, _)| *off);
            let mut stream = Vec::new();
            for (off, chunk) in pkts {
                prop_assert_eq!(off as usize, stream.len(), "{:?}", technique);
                stream.extend_from_slice(&chunk);
            }
            let skip = out.server_skip_prefix as usize;
            prop_assert_eq!(&stream[skip..], &trace.client_stream()[..],
                "{:?} corrupted the stream", technique);
        }
    }

    /// The full applicability matrix: for every technique in Table 3 plus
    /// the dummy-prefix extension, on both transports, `apply()` succeeds
    /// exactly when `applicable()` says so, and every produced schedule
    /// reassembles (counts-true packets sorted by offset, minus the
    /// server-skipped prefix) to the original client byte stream.
    #[test]
    fn applicable_transforms_reassemble(
        body in proptest::collection::vec(any::<u8>(), 16..1200),
        second in proptest::collection::vec(any::<u8>(), 1..64),
        prefix in 1usize..512,
        mb_ttl in 1u8..12,
    ) {
        for proto in [TraceProtocol::Tcp, TraceProtocol::Udp] {
            let mut trace = RecordedTrace::new("m", proto, 443);
            trace.push_message(TraceMessage::client(body.clone()));
            trace.push_message(TraceMessage::server(&b"ack"[..]));
            trace.push_message(TraceMessage::client(second.clone()));
            let ctx = EvasionContext {
                matching_fields: vec![liberate_packet::mutate::ByteRegion::new(
                    0,
                    4..12,
                )],
                decoy: decoy_request(),
                middlebox_ttl: mb_ttl,
            };
            let base = Schedule::from_trace(&trace);
            let expected = trace.client_stream();

            let mut all = Technique::table3_rows();
            all.push(Technique::DummyPrefixData { bytes: prefix });
            for technique in all {
                let out = technique.apply(&base, &ctx);
                if !technique.applicable(proto) {
                    prop_assert!(out.is_none(),
                        "{:?} applied on {:?} despite applicable()=false", technique, proto);
                    continue;
                }
                let Some(out) = out else {
                    panic!("{technique:?} is applicable on {proto:?} but apply() returned None");
                };
                let mut pkts: Vec<(u64, Vec<u8>)> = out
                    .steps
                    .iter()
                    .filter_map(|s| match s {
                        Step::Packet(p) if p.counts => Some((p.offset, p.payload.clone())),
                        _ => None,
                    })
                    .collect();
                pkts.sort_by_key(|(off, _)| *off);
                let mut stream = Vec::new();
                for (off, chunk) in pkts {
                    prop_assert_eq!(off as usize, stream.len(),
                        "{:?} left a gap/overlap on {:?}", technique, proto);
                    stream.extend_from_slice(&chunk);
                }
                let skip = out.server_skip_prefix as usize;
                prop_assert!(stream.len() >= skip + expected.len());
                prop_assert_eq!(&stream[skip..], &expected[..],
                    "{:?} corrupted the {:?} stream", technique, proto);
            }
        }
    }

    /// Bit inversion is an involution on whole traces and removes every
    /// ASCII keyword.
    #[test]
    fn inversion_involution(payloads in proptest::collection::vec(
        proptest::collection::vec(any::<u8>(), 1..256), 1..8)) {
        let mut trace = RecordedTrace::new("t", TraceProtocol::Tcp, 80);
        for p in &payloads {
            trace.push_message(TraceMessage::client(p.clone()));
        }
        let inv = inverted_trace(&trace);
        for (a, b) in trace.messages.iter().zip(&inv.messages) {
            prop_assert!(a.payload.iter().zip(&b.payload).all(|(x, y)| *x == !*y));
        }
        let back = inverted_trace(&inv);
        for (a, b) in trace.messages.iter().zip(&back.messages) {
            prop_assert_eq!(&a.payload, &b.payload);
        }
    }

    /// The flow-table shard hash spreads a wave's flows evenly. 2,048
    /// flows to any server, from sequential client ports (striding by a
    /// pool's worker count) on one reactor lane address, from sequential
    /// lane addresses on one port, or from both in step, as a deployment
    /// wave's flows are, put within a quarter of the fair share on every
    /// shard.
    #[test]
    fn shard_hash_spreads_sequential_flows(
        server in addr(),
        server_port in 1u16..65535,
        first_port in 20_000u16..50_000,
        stride in 1u16..=4,
        first_job in 0usize..100_000,
        mode in 0u8..3,
    ) {
        const FLOWS: usize = 2048;
        let table = ShardedFlowTable::default();
        let mut per_shard = vec![0usize; table.shard_count()];
        for i in 0..FLOWS {
            let port = first_port + stride * i as u16;
            let (client, port) = match mode {
                0 => (lane_addr(first_job), port),
                1 => (lane_addr(first_job + i), first_port),
                _ => (lane_addr(first_job + i), port),
            };
            let key = FlowKey::new(client, server, port, server_port, 6);
            per_shard[table.shard_index(key)] += 1;
        }
        let fair = FLOWS / per_shard.len();
        prop_assert!(
            per_shard.iter().all(|&n| n >= fair * 3 / 4 && n <= fair * 5 / 4),
            "flows per shard {:?} (mode {})",
            per_shard,
            mode
        );
    }
}
