//! Property tests for the DPI engine: matcher correctness, assembler
//! order-independence, flow table invariants.

use proptest::prelude::*;
use std::net::Ipv4Addr;
use std::time::Duration;

use liberate_dpi::flowtable::{FlowTable, StreamAssembler};
use liberate_dpi::inspect::{FlowConfig, RstEffect};
use liberate_dpi::matcher::{contains, find};
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
