//! Property tests for the DPI engine: matcher correctness, assembler
//! order-independence, streaming matcher vs rescan reference, flow table
//! invariants.

use proptest::prelude::*;
use std::net::Ipv4Addr;
use std::time::Duration;

use liberate_dpi::automaton::{CompiledRuleSet, StreamScan};
use liberate_dpi::flowtable::{FlowTable, StreamAssembler, StreamDelta};
use liberate_dpi::inspect::{FlowConfig, RstEffect};
use liberate_dpi::matcher::{contains, find, starts_with_any};
use liberate_dpi::rules::{MatchRule, RuleSet};
use liberate_packet::flow::{Direction, FlowKey};
use liberate_substrate::time::SimTime;

proptest! {
    /// The matcher agrees with a naive scan for arbitrary inputs.
    #[test]
    fn matcher_agrees_with_naive(
        haystack in proptest::collection::vec(any::<u8>(), 0..512),
        needle in proptest::collection::vec(any::<u8>(), 0..8),
    ) {
        let naive = if needle.is_empty() || haystack.len() < needle.len() {
            None
        } else {
            (0..=haystack.len() - needle.len())
                .find(|&i| &haystack[i..i + needle.len()] == needle.as_slice())
        };
        prop_assert_eq!(find(&haystack, &needle), naive);
        prop_assert_eq!(contains(&haystack, &needle), naive.is_some());
    }

    /// A keyword rule fires iff the keyword is present (subject to its
    /// port and direction constraints) — never otherwise.
    #[test]
    fn rules_fire_exactly_on_keyword(
        payload in proptest::collection::vec(any::<u8>(), 0..256),
        insert_at in any::<prop::sample::Index>(),
        inject in any::<bool>(),
        port in 1u16..65535,
    ) {
        let keyword = b"sentinel-kw";
        let mut data = payload.clone();
        // Ensure the keyword is absent unless we inject it.
        while let Some(i) = find(&data, keyword) {
            data[i] ^= 0xff;
        }
        if inject {
            let at = insert_at.index(data.len() + 1);
            data.splice(at..at, keyword.iter().copied());
        }
        let rule = MatchRule::keyword("k", "class", &keyword[..]).on_ports([80]);
        let fires = rule.matches(&data, Direction::ClientToServer, port, Some(0));
        prop_assert_eq!(fires, inject && port == 80);
    }

    /// First-match-wins is order-stable: permuting payload content never
    /// makes a later rule shadow an earlier one.
    #[test]
    fn first_match_priority(
        payload in proptest::collection::vec(any::<u8>(), 0..128),
    ) {
        let rules = RuleSet::new(vec![
            MatchRule::keyword("a", "A", &b"\x01\x02"[..]),
            MatchRule::keyword("b", "B", &b"\x01\x02"[..]),
        ]);
        if let Some(m) = rules.first_match(&payload, Direction::ClientToServer, 80, Some(0)) {
            prop_assert_eq!(m.class.as_str(), "A");
        }
    }

    /// The stream assembler's output is independent of segment arrival
    /// order (for non-overlapping segments).
    #[test]
    fn assembler_order_independent(
        chunks in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 1..64), 1..10),
        seed in any::<u64>(),
    ) {
        let base = 10_000u32;
        // Contiguous segments at sequential offsets.
        let mut segments = Vec::new();
        let mut off = 0u32;
        for c in &chunks {
            segments.push((base.wrapping_add(off), c.clone()));
            off += c.len() as u32;
        }
        let expected: Vec<u8> = chunks.concat();

        // In-order insert.
        let mut a1 = StreamAssembler::new(64 * 1024);
        a1.base_seq = Some(base);
        for (s, d) in &segments {
            a1.insert(*s, d);
        }
        prop_assert_eq!(a1.assembled_prefix(), expected.clone());

        // Shuffled insert (deterministic shuffle from the seed).
        let mut shuffled = segments.clone();
        let mut state = seed | 1;
        for i in (1..shuffled.len()).rev() {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            shuffled.swap(i, (state as usize) % (i + 1));
        }
        let mut a2 = StreamAssembler::new(64 * 1024);
        a2.base_seq = Some(base);
        for (s, d) in &shuffled {
            a2.insert(*s, d);
        }
        prop_assert_eq!(a2.assembled_prefix(), expected);
    }

    /// Flow-table expiry is monotone: if an entry survives `t`, it
    /// survives any earlier lookup too; once expired it stays gone.
    #[test]
    fn flowtable_expiry_monotone(
        timeout_s in 1u64..300,
        probe1 in 0u64..600,
        probe2 in 0u64..600,
    ) {
        let (lo, hi) = if probe1 <= probe2 { (probe1, probe2) } else { (probe2, probe1) };
        let config = FlowConfig {
            result_timeout: None,
            tracking_timeout: Some(Duration::from_secs(timeout_s)),
            rst_after_match: RstEffect::Ignored,
            rst_before_match: RstEffect::Ignored,
        };
        let key = FlowKey::new(
            Ipv4Addr::new(1, 1, 1, 1),
            Ipv4Addr::new(2, 2, 2, 2),
            10, 80, 6,
        );
        let mut table = FlowTable::default();
        table.create(key, SimTime::ZERO, 4096);
        // Lookups at lo then hi WITHOUT refreshing activity.
        let alive_lo = table.lookup(key, SimTime::from_secs(lo), &config, None).is_some();
        let alive_hi = table.lookup(key, SimTime::from_secs(hi), &config, None).is_some();
        prop_assert_eq!(alive_lo, lo <= timeout_s);
        // hi sees the entry only if it had not expired by hi.
        prop_assert_eq!(alive_hi, alive_lo && hi <= timeout_s);
    }
}

/// Tokens the streaming cases build payloads from: gate prefixes,
/// keywords, and keyword halves that only match once reassembled.
const TOKENS: [&[u8]; 11] = [
    b"GET ", b"POST ", b"evil", b"bad", b"ev", b"il", b"ba", b"d", b"T ", b"x", b" ",
];

/// Stream bytes an assembler keeps; offsets are drawn past it so some
/// segments fall out of the window.
const STREAM_WINDOW: usize = 64;

/// Segments as (offset, token indices, wild): offsets cluster near the
/// stream start so prefixes form, duplicates and overlaps under the
/// drained prefix are common, and some land beyond the window.
fn segments(max: usize) -> impl Strategy<Value = Vec<(u32, Vec<usize>, u8)>> {
    let offset = prop_oneof![
        Just(0u32),
        0u32..16,
        0u32..48,
        0u32..(STREAM_WINDOW as u32 * 3 / 2)
    ];
    proptest::collection::vec(
        (
            offset,
            proptest::collection::vec(0..TOKENS.len(), 1..10),
            0u8..8,
        ),
        1..max,
    )
}

fn stream_rules() -> (RuleSet, Vec<Vec<u8>>) {
    let rules = RuleSet::new(vec![
        MatchRule::keyword("empty", "w", &b""[..]),
        MatchRule::keyword("pos", "p", &b"evil"[..]).in_packet(0),
        MatchRule::keyword("srv", "s", &b"bad"[..]).server_only(),
        MatchRule::keyword("straddle", "t", &b"T ev"[..]),
        MatchRule::keyword("evil", "e", &b"evil"[..]).client_only(),
        MatchRule::keyword("bad", "b", &b"bad"[..]),
    ]);
    (rules, vec![b"GET ".to_vec(), b"POST ".to_vec()])
}

/// One drawn segment: its sequence number relative to the stream base
/// and its payload. `wild == 0` throws the sequence number half the
/// space away (a wrong-sequence inert packet).
fn segment((offset, tokens, wild): (u32, Vec<usize>, u8)) -> (u32, Vec<u8>) {
    let offset = if wild == 0 {
        offset.wrapping_add(0x8000_0000)
    } else {
        offset
    };
    (
        offset,
        tokens
            .into_iter()
            .flat_map(|i| TOKENS[i])
            .copied()
            .collect(),
    )
}

/// The reference answer for a stream prefix: the rule a rescan of the
/// whole prefix picks.
fn rescan(rules: &RuleSet, prefix: &[u8], dir: Direction) -> Option<String> {
    rules
        .first_match_counted(prefix, dir, 80, None)
        .0
        .map(|r| r.id.clone())
}

fn streamed(
    c: &CompiledRuleSet,
    rules: &RuleSet,
    scan: &StreamScan,
    dir: Direction,
) -> Option<String> {
    c.first_match_stream(rules, scan, dir, 80)
        .map(|i| rules.rules[i].id.clone())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Full-stream matching: after every insert, the streaming path
    /// (`drain_new_contiguous` -> `feed_delta`, then `gate_passed` /
    /// `first_match_stream`) answers exactly what a rescan of
    /// `assembled_prefix()` answers, across holes, duplicates, first-wins
    /// overlaps under the drained prefix and out-of-window sequence
    /// numbers. The gated scan skips appends once its gate has failed, as
    /// the device's `FullStream` mode does.
    #[test]
    fn streaming_matcher_equals_rescan_of_assembled_prefix(
        base in any::<u32>(),
        drawn in segments(16),
    ) {
        let (rules, gates) = stream_rules();
        let c = CompiledRuleSet::compile(&rules, Some(&gates));
        let mut asm = StreamAssembler::new(STREAM_WINDOW);
        asm.base_seq = Some(base);
        let (mut scan, mut gated) = (StreamScan::default(), StreamScan::default());
        for (offset, payload) in drawn.into_iter().map(segment) {
            asm.insert(base.wrapping_add(offset), &payload[..]);
            let prefix = asm.assembled_prefix();
            let delta = asm.drain_new_contiguous();
            if !(matches!(delta, StreamDelta::Append(_)) && c.gate_failed(&gated)) {
                c.feed_delta(&mut gated, delta.clone());
            }
            c.feed_delta(&mut scan, delta);
            prop_assert_eq!(scan.fed_bytes(), prefix.len() as u64);

            let gate = starts_with_any(&prefix, &gates);
            prop_assert_eq!(c.gate_passed(&scan), gate);
            prop_assert_eq!(c.gate_passed(&gated), gate);
            for dir in [Direction::ClientToServer, Direction::ServerToClient] {
                prop_assert_eq!(streamed(&c, &rules, &scan, dir), rescan(&rules, &prefix, dir));
            }
            let want = (!prefix.is_empty() && gate)
                .then(|| rescan(&rules, &prefix, Direction::ClientToServer))
                .flatten();
            let got = (gated.fed_bytes() > 0 && c.gate_passed(&gated))
                .then(|| streamed(&c, &rules, &gated, Direction::ClientToServer))
                .flatten();
            prop_assert_eq!(got, want);
        }
    }

    /// Windowed matching (`GatedStream`): an assembler that persists
    /// across packets, anchored at the first pushed segment and capped at
    /// `cap` pushed segments (kept or not), equals a fresh assembler built
    /// from the first `cap` pushed segments — the rebuild-per-packet
    /// window this mode is defined by — and its streamed match equals a
    /// rescan of that fresh assembler's prefix.
    #[test]
    fn windowed_assembler_equals_rebuilt_window(
        base in any::<u32>(),
        cap in 1usize..6,
        drawn in segments(12),
    ) {
        let (rules, _) = stream_rules();
        let c = CompiledRuleSet::compile(&rules, None);
        let mut persistent: Option<StreamAssembler> = None;
        let mut seen = 0usize;
        let mut scan = StreamScan::default();
        let mut pushed: Vec<(u32, Vec<u8>)> = Vec::new();
        for (offset, payload) in drawn.into_iter().map(segment) {
            let seq = base.wrapping_add(offset);
            let asm = persistent.get_or_insert_with(|| {
                let mut asm = StreamAssembler::new(STREAM_WINDOW);
                asm.base_seq = Some(seq);
                asm
            });
            if seen < cap {
                seen += 1;
                asm.insert(seq, &payload[..]);
            }
            c.feed_delta(&mut scan, asm.drain_new_contiguous());

            if pushed.len() < cap {
                pushed.push((seq, payload));
            }
            let mut fresh = StreamAssembler::new(STREAM_WINDOW);
            fresh.base_seq = Some(pushed[0].0);
            for (seq, payload) in &pushed {
                fresh.insert(*seq, &payload[..]);
            }
            let prefix = fresh.assembled_prefix();
            prop_assert_eq!(asm.assembled_prefix(), prefix.clone());
            prop_assert_eq!(scan.fed_bytes(), prefix.len() as u64);
            prop_assert_eq!(
                streamed(&c, &rules, &scan, Direction::ClientToServer),
                rescan(&rules, &prefix, Direction::ClientToServer)
            );
        }
    }
}
