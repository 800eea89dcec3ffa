//! Schedule rewrites implementing each evasion technique.

use liberate_packet::ipv4::IpOption;
use liberate_packet::mutate::ByteRegion;
use liberate_packet::tcp::TcpFlags;

use crate::schedule::{Craft, FragPlan, Schedule, ScheduledPacket, Step};

use super::Technique;

/// Everything a technique needs to know about the flow being evaded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EvasionContext {
    /// Matching fields found by characterization: (client data packet
    /// ordinal, byte range within that packet's payload).
    pub matching_fields: Vec<ByteRegion>,
    /// Decoy payload for inert insertions: a valid request for an
    /// innocuous traffic class A (Fig. 2), carrying none of the flow's
    /// matching fields.
    pub decoy: Vec<u8>,
    /// TTL that reaches the middlebox but expires before the server
    /// (from localization, §5.2).
    pub middlebox_ttl: u8,
}

impl EvasionContext {
    /// A context with no characterization: assume the first packet
    /// matches somewhere in its middle.
    pub fn blind(decoy: Vec<u8>, middlebox_ttl: u8) -> EvasionContext {
        EvasionContext {
            matching_fields: Vec::new(),
            decoy,
            middlebox_ttl,
        }
    }

    /// The primary matching field, defaulting to the middle of packet 0.
    fn primary_field(&self, packet_len: usize) -> (usize, std::ops::Range<usize>) {
        match self.matching_fields.first() {
            Some(r) => (r.packet, r.range.clone()),
            None => {
                let mid = (packet_len / 2).max(1);
                (0, mid.saturating_sub(1)..(mid + 1).min(packet_len))
            }
        }
    }
}

/// Split `payload` into `n` chunks such that `field` crosses the boundary
/// between the last two chunks. Returns (relative offset, chunk) pairs.
pub fn split_across_field(
    payload: &[u8],
    field: &std::ops::Range<usize>,
    n: usize,
) -> Vec<(usize, Vec<u8>)> {
    let len = payload.len();
    if len < 2 || n < 2 {
        return vec![(0, payload.to_vec())];
    }
    // The final boundary lands inside the field (or mid-payload when the
    // field is degenerate/out of range).
    let mut mid = (field.start + field.end) / 2;
    if mid == 0 || mid >= len {
        mid = len / 2;
    }
    mid = mid.clamp(1, len - 1);

    // Divide [0, mid) into n-1 boundaries as evenly as possible.
    let head_chunks = (n - 1).min(mid);
    let mut cuts = Vec::with_capacity(head_chunks + 1);
    for i in 1..head_chunks {
        cuts.push(i * mid / head_chunks);
    }
    cuts.push(mid);
    cuts.dedup();

    let mut out = Vec::new();
    let mut prev = 0usize;
    for cut in cuts {
        if cut > prev {
            out.push((prev, payload[prev..cut].to_vec()));
            prev = cut;
        }
    }
    if prev < len {
        out.push((prev, payload[prev..].to_vec()));
    }
    out
}

/// TCP window value stamped on lib·erate's own inert RSTs so that
/// captures can distinguish them from middlebox-injected RSTs.
pub const LIBERATE_RST_WINDOW: u16 = 0x1bee;

/// Locate the step index and payload of the `ordinal`-th data packet.
fn data_step(schedule: &Schedule, ordinal: usize) -> Option<usize> {
    schedule.data_packet_indices().get(ordinal).copied()
}

/// Split a payload into everything-but-the-last-byte and the last byte
/// (for the flush-after-match techniques).
fn holdback_split(payload: &[u8]) -> (Vec<u8>, Vec<u8>) {
    if payload.len() < 2 {
        return (payload.to_vec(), Vec::new());
    }
    let cut = payload.len() - 1;
    (payload[..cut].to_vec(), payload[cut..].to_vec())
}

fn inert_craft(technique: &Technique, mb_ttl: u8) -> Option<Craft> {
    use Technique::*;
    let craft = match technique {
        InertLowTtl => Craft {
            ttl: Some(mb_ttl),
            ..Craft::default()
        },
        InertIpInvalidVersion => Craft {
            ip_version: Some(6),
            ..Craft::default()
        },
        InertIpInvalidHeaderLength => Craft {
            ip_ihl: Some(3),
            ..Craft::default()
        },
        InertIpTotalLengthLong => Craft {
            ip_total_length_delta: Some(400),
            ..Craft::default()
        },
        InertIpTotalLengthShort => Craft {
            ip_total_length_delta: Some(-6),
            ..Craft::default()
        },
        InertIpWrongProtocol => Craft {
            ip_protocol: Some(liberate_packet::ipv4::protocol::UNASSIGNED),
            ..Craft::default()
        },
        InertIpWrongChecksum => Craft {
            ip_bad_checksum: true,
            ..Craft::default()
        },
        InertIpInvalidOptions => Craft {
            ip_options: vec![IpOption::InvalidOverrun {
                kind: 0x99,
                claimed_len: 40,
            }],
            ..Craft::default()
        },
        InertIpDeprecatedOptions => Craft {
            ip_options: vec![IpOption::StreamId(6)],
            ..Craft::default()
        },
        InertTcpWrongSeq => Craft {
            seq_delta: 1_000_000,
            ..Craft::default()
        },
        InertTcpWrongChecksum => Craft {
            tcp_bad_checksum: true,
            ..Craft::default()
        },
        InertTcpNoAckFlag => Craft {
            tcp_flags: Some(TcpFlags::PSH_ONLY),
            ..Craft::default()
        },
        // Below the 20-byte minimum: no compliant stack can parse it.
        // (An *overrunning* offset caps at 60 bytes, which a full-MTU
        // decoy payload would render structurally valid again.)
        InertTcpInvalidDataOffset => Craft {
            tcp_data_offset: Some(3),
            ..Craft::default()
        },
        InertTcpInvalidFlags => Craft {
            tcp_flags: Some(TcpFlags::XMAS),
            ..Craft::default()
        },
        InertUdpBadChecksum => Craft {
            udp_bad_checksum: true,
            ..Craft::default()
        },
        InertUdpLengthLong => Craft {
            udp_length_delta: Some(40),
            ..Craft::default()
        },
        InertUdpLengthShort => Craft {
            udp_length_delta: Some(-4),
            ..Craft::default()
        },
        _ => return None,
    };
    Some(craft)
}

/// Apply `technique` to `schedule`, producing the rewritten schedule.
pub fn apply(technique: &Technique, schedule: &Schedule, ctx: &EvasionContext) -> Option<Schedule> {
    use Technique::*;
    let proto = schedule.protocol?;
    if !technique.applicable(proto) {
        return None;
    }
    let mut out = schedule.clone();
    let data_indices = schedule.data_packet_indices();
    if data_indices.is_empty() {
        return None;
    }

    // Resolve the matching packet once. `data_packet_indices` only ever
    // points at `Step::Packet` entries; bail out rather than panic if that
    // invariant is ever broken.
    let Step::Packet(first_data) = &schedule.steps[data_indices[0]] else {
        return None;
    };
    let first_payload_len = first_data.payload.len();
    let (field_ordinal, field_range) = ctx.primary_field(first_payload_len);
    let match_step = data_step(schedule, field_ordinal).unwrap_or(data_indices[0]);
    let Step::Packet(match_packet) = &schedule.steps[match_step] else {
        return None;
    };
    let (match_offset, match_payload) = (match_packet.offset, match_packet.payload.clone());

    match technique {
        // ----- Inert insertion: decoy just before the matching packet.
        InertLowTtl
        | InertIpInvalidVersion
        | InertIpInvalidHeaderLength
        | InertIpTotalLengthLong
        | InertIpTotalLengthShort
        | InertIpWrongProtocol
        | InertIpWrongChecksum
        | InertIpInvalidOptions
        | InertIpDeprecatedOptions
        | InertTcpWrongSeq
        | InertTcpWrongChecksum
        | InertTcpNoAckFlag
        | InertTcpInvalidDataOffset
        | InertTcpInvalidFlags
        | InertUdpBadChecksum
        | InertUdpLengthLong
        | InertUdpLengthShort => {
            let craft = inert_craft(technique, ctx.middlebox_ttl)?;
            let decoy = ScheduledPacket::inert(match_offset, ctx.decoy.clone(), craft);
            out.steps.insert(match_step, Step::Packet(decoy));
        }

        // ----- Splitting.
        TcpSegmentSplit { segments } => {
            let parts = split_across_field(&match_payload, &field_range, *segments);
            let new_steps: Vec<Step> = parts
                .into_iter()
                .map(|(rel, chunk)| {
                    Step::Packet(ScheduledPacket::data(match_offset + rel as u64, chunk))
                })
                .collect();
            out.steps.splice(match_step..=match_step, new_steps);
        }
        IpFragmentSplit { pieces } => {
            if let Step::Packet(p) = &mut out.steps[match_step] {
                p.fragment = Some(FragPlan {
                    pieces: *pieces,
                    reverse: false,
                    boundary: Some((field_range.start + field_range.end) / 2),
                });
            }
        }

        // ----- Reordering.
        TcpSegmentReorder { segments } => {
            let parts = split_across_field(&match_payload, &field_range, *segments);
            let new_steps: Vec<Step> = parts
                .into_iter()
                .rev()
                .map(|(rel, chunk)| {
                    Step::Packet(ScheduledPacket::data(match_offset + rel as u64, chunk))
                })
                .collect();
            out.steps.splice(match_step..=match_step, new_steps);
        }
        IpFragmentReorder { pieces } => {
            if let Step::Packet(p) = &mut out.steps[match_step] {
                p.fragment = Some(FragPlan {
                    pieces: *pieces,
                    reverse: true,
                    boundary: Some((field_range.start + field_range.end) / 2),
                });
            }
        }
        UdpReorder => {
            if data_indices.len() < 2 {
                return None;
            }
            out.steps.swap(data_indices[0], data_indices[1]);
        }

        // ----- Flushing. The "after match" variants hold back the last
        // byte of the matching packet: the classifier sees (and matches)
        // everything up front, while the request only completes — and the
        // response only flows — after the middlebox's state has been
        // flushed (Fig. 2(f)).
        PauseAfterMatch(d) => {
            let (head, tail) = holdback_split(&match_payload);
            let new_steps = vec![
                Step::Packet(ScheduledPacket::data(match_offset, head)),
                Step::Pause(*d),
                Step::Packet(ScheduledPacket::data(
                    match_offset + match_payload.len() as u64 - 1,
                    tail,
                )),
            ];
            out.steps.splice(match_step..=match_step, new_steps);
        }
        PauseBeforeMatch(d) => {
            out.steps.insert(match_step, Step::Pause(*d));
        }
        TtlRstAfterMatch => {
            let (head, tail) = holdback_split(&match_payload);
            let rst = ScheduledPacket::inert(
                match_offset + head.len() as u64,
                Vec::new(),
                Craft {
                    ttl: Some(ctx.middlebox_ttl),
                    tcp_flags: Some(TcpFlags::RST),
                    tcp_window: Some(LIBERATE_RST_WINDOW),
                    ..Craft::default()
                },
            );
            let new_steps = vec![
                Step::Packet(ScheduledPacket::data(match_offset, head)),
                Step::Packet(rst),
                // Wait out any (shortened) result timeout.
                Step::Pause(crate::config::LiberateConfig::default().rst_flush_pause),
                Step::Packet(ScheduledPacket::data(
                    match_offset + match_payload.len() as u64 - 1,
                    tail,
                )),
            ];
            out.steps.splice(match_step..=match_step, new_steps);
        }
        TtlRstBeforeMatch => {
            let rst = ScheduledPacket::inert(
                match_offset,
                Vec::new(),
                Craft {
                    ttl: Some(ctx.middlebox_ttl),
                    tcp_flags: Some(TcpFlags::RST),
                    tcp_window: Some(LIBERATE_RST_WINDOW),
                    ..Craft::default()
                },
            );
            out.steps.insert(match_step, Step::Packet(rst));
        }

        // ----- Server-supported dummy prefix.
        DummyPrefixData { bytes } => {
            let dummy = vec![b'#'; *bytes];
            for step in &mut out.steps {
                if let Step::Packet(p) = step {
                    p.offset += *bytes as u64;
                }
            }
            out.steps
                .insert(0, Step::Packet(ScheduledPacket::data(0, dummy)));
            out.server_skip_prefix = *bytes as u64;
        }
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use liberate_traces::recorded::{RecordedTrace, TraceMessage, TraceProtocol};

    fn trace() -> RecordedTrace {
        let mut t = RecordedTrace::new("t", TraceProtocol::Tcp, 80);
        t.push_message(TraceMessage::client(
            &b"GET / HTTP/1.1\r\nHost: www.target.example\r\n\r\n"[..],
        ));
        t.push_message(TraceMessage::server(&b"HTTP/1.1 200 OK\r\n\r\nbody"[..]));
        t
    }

    fn ctx() -> EvasionContext {
        let req = trace().messages[0].payload.clone();
        let host = liberate_traces::http::find(&req, b"www.target.example").unwrap();
        EvasionContext {
            matching_fields: vec![ByteRegion::new(0, host..host + 18)],
            decoy: b"GET / HTTP/1.1\r\nHost: www.example.org\r\n\r\n".to_vec(),
            middlebox_ttl: 3,
        }
    }

    #[test]
    fn split_crosses_the_field() {
        let payload = trace().messages[0].payload.clone();
        let field = ctx().matching_fields[0].range.clone();
        for n in 2..=6 {
            let parts = split_across_field(&payload, &field, n);
            assert!(parts.len() >= 2, "n={n}");
            // Reassembles to the original.
            let mut whole = Vec::new();
            for (off, chunk) in &parts {
                assert_eq!(*off, whole.len());
                whole.extend_from_slice(chunk);
            }
            assert_eq!(whole, payload);
            // The final boundary lies strictly inside the field.
            let last_boundary = parts.last().unwrap().0;
            assert!(
                field.start < last_boundary && last_boundary < field.end,
                "n={n}: boundary {last_boundary} not inside {field:?}"
            );
        }
    }

    #[test]
    fn split_degenerate_inputs() {
        assert_eq!(split_across_field(b"a", &(0..1), 2).len(), 1);
        let parts = split_across_field(b"abcdef", &(100..200), 2);
        let whole: Vec<u8> = parts.iter().flat_map(|(_, c)| c.clone()).collect();
        assert_eq!(whole, b"abcdef");
    }

    #[test]
    fn inert_inserts_before_match_without_advancing_stream() {
        let sched = Schedule::from_trace(&trace());
        let out = Technique::InertTcpWrongChecksum
            .apply(&sched, &ctx())
            .unwrap();
        assert_eq!(out.inert_packet_count(), 1);
        assert_eq!(out.client_bytes(), sched.client_bytes());
        // The inert decoy is the first packet and claims the same offset.
        match (&out.steps[0], &out.steps[1]) {
            (Step::Packet(inert), Step::Packet(real)) => {
                assert!(!inert.counts);
                assert!(real.counts);
                assert_eq!(inert.offset, real.offset);
                assert!(inert.craft.tcp_bad_checksum);
            }
            other => panic!("unexpected steps: {other:?}"),
        }
    }

    #[test]
    fn every_inert_tcp_variant_produces_distinct_craft() {
        let sched = Schedule::from_trace(&trace());
        let mut crafts = std::collections::HashSet::new();
        for t in Technique::table3_rows() {
            if t.category() == super::super::Category::InertInsertion
                && t.applicable(TraceProtocol::Tcp)
            {
                let out = t.apply(&sched, &ctx()).unwrap();
                let craft = out
                    .steps
                    .iter()
                    .find_map(|s| match s {
                        Step::Packet(p) if !p.counts => Some(format!("{:?}", p.craft)),
                        _ => None,
                    })
                    .unwrap();
                assert!(crafts.insert(craft), "{t:?} duplicates another craft");
            }
        }
        assert_eq!(crafts.len(), 14); // 9 IP + 5 TCP variants
    }

    #[test]
    fn segment_split_and_reorder() {
        let sched = Schedule::from_trace(&trace());
        let split = Technique::TcpSegmentSplit { segments: 3 }
            .apply(&sched, &ctx())
            .unwrap();
        let offsets: Vec<u64> = split
            .steps
            .iter()
            .filter_map(|s| match s {
                Step::Packet(p) => Some(p.offset),
                _ => None,
            })
            .collect();
        assert_eq!(offsets.len(), 3);
        assert!(offsets.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(split.client_bytes(), sched.client_bytes());

        let reorder = Technique::TcpSegmentReorder { segments: 2 }
            .apply(&sched, &ctx())
            .unwrap();
        let offsets: Vec<u64> = reorder
            .steps
            .iter()
            .filter_map(|s| match s {
                Step::Packet(p) => Some(p.offset),
                _ => None,
            })
            .collect();
        assert_eq!(offsets.len(), 2);
        assert!(offsets[0] > offsets[1], "reversed order");
    }

    #[test]
    fn pause_and_rst_placement() {
        let sched = Schedule::from_trace(&trace());
        let after = Technique::PauseAfterMatch(std::time::Duration::from_secs(130))
            .apply(&sched, &ctx())
            .unwrap();
        assert!(matches!(after.steps[1], Step::Pause(_)));

        let before = Technique::PauseBeforeMatch(std::time::Duration::from_secs(130))
            .apply(&sched, &ctx())
            .unwrap();
        assert!(matches!(before.steps[0], Step::Pause(_)));

        let rst_b = Technique::TtlRstBeforeMatch.apply(&sched, &ctx()).unwrap();
        match &rst_b.steps[0] {
            Step::Packet(p) => {
                assert!(!p.counts);
                assert_eq!(p.craft.tcp_flags, Some(TcpFlags::RST));
                assert_eq!(p.craft.ttl, Some(3));
            }
            other => panic!("{other:?}"),
        }

        let rst_a = Technique::TtlRstAfterMatch.apply(&sched, &ctx()).unwrap();
        assert!(matches!(&rst_a.steps[1], Step::Packet(p) if !p.counts));
        assert!(matches!(rst_a.steps[2], Step::Pause(_)));
    }

    #[test]
    fn udp_techniques_rejected_on_tcp() {
        let sched = Schedule::from_trace(&trace());
        assert!(Technique::InertUdpBadChecksum
            .apply(&sched, &ctx())
            .is_none());
        assert!(Technique::UdpReorder.apply(&sched, &ctx()).is_none());
    }

    #[test]
    fn udp_reorder_swaps_first_two() {
        let mut t = RecordedTrace::new("u", TraceProtocol::Udp, 3478);
        t.push_message(TraceMessage::client(&b"first"[..]));
        t.push_message(TraceMessage::client(&b"second"[..]));
        let sched = Schedule::from_trace(&t);
        let out = Technique::UdpReorder.apply(&sched, &ctx()).unwrap();
        match &out.steps[0] {
            Step::Packet(p) => assert_eq!(p.payload, b"second"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn dummy_prefix_shifts_offsets_and_sets_skip() {
        let sched = Schedule::from_trace(&trace());
        let out = Technique::DummyPrefixData { bytes: 1 }
            .apply(&sched, &ctx())
            .unwrap();
        assert_eq!(out.server_skip_prefix, 1);
        match (&out.steps[0], &out.steps[1]) {
            (Step::Packet(dummy), Step::Packet(real)) => {
                assert_eq!(dummy.offset, 0);
                assert_eq!(dummy.payload.len(), 1);
                assert!(dummy.counts);
                assert_eq!(real.offset, 1);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn fragment_plans_attached() {
        let sched = Schedule::from_trace(&trace());
        let out = Technique::IpFragmentReorder { pieces: 2 }
            .apply(&sched, &ctx())
            .unwrap();
        match &out.steps[0] {
            Step::Packet(p) => {
                let f = p.fragment.as_ref().unwrap();
                assert!(f.reverse);
                assert_eq!(f.pieces, 2);
                assert!(f.boundary.is_some());
            }
            other => panic!("{other:?}"),
        }
    }
}
