//! Compiled multi-pattern matching: a dependency-free Aho–Corasick
//! automaton plus the per-flow scan state that lets the device feed each
//! stream byte through it exactly once.
//!
//! Real DPI boxes compile the whole rule set into one automaton and
//! stream bytes through it; the device does the same. The reference it
//! must agree with is the rescan: [`RuleSet::first_match_counted`] over a
//! packet's payload, or over `StreamAssembler::assembled_prefix()` from
//! offset 0 on every packet, once per rule ([`crate::matcher::find`]).
//! This module stays byte-exact with that reference:
//!
//! - [`Automaton`]: trie + BFS failure links flattened into a dense
//!   byte-indexed transition table, with merged output lists per state.
//! - [`CompiledRuleSet`]: a [`crate::rules::RuleSet`]'s keywords and the
//!   reassembly mode's gate prefixes deduplicated into one automaton,
//!   plus the rule → pattern mapping needed to answer first-match
//!   queries in rule order.
//! - [`StreamScan`]: the per-flow cursor (automaton state, bytes fed,
//!   earliest occurrence per pattern, gate-at-offset-0 flag). Matching a
//!   growing stream is then O(new bytes), not O(stream × rules).
//!
//! Parity with the rescan is exact because keyword rules only ask
//! *containment* ("has pattern p occurred in the prefix fed so far?") and
//! the gate only asks "did a gate prefix occur starting at offset 0?" —
//! both are monotone facts the scan state carries across packets, and the
//! flow table restarts the scan whenever first-wins overlap rewrites an
//! already-fed byte (see `StreamAssembler::drain_new_contiguous`).

use std::collections::{BTreeMap, VecDeque};

use liberate_packet::flow::Direction;

use crate::flowtable::StreamDelta;
use crate::rules::{MatchRule, PositionConstraint, RuleSet};

/// A dense Aho–Corasick automaton over arbitrary byte patterns.
///
/// Empty patterns are accepted but never produce output (the naive
/// [`crate::matcher::find`] returns `None` for an empty needle).
#[derive(Debug, Clone)]
pub struct Automaton {
    /// `delta[state][byte]` → next state. State 0 is the root.
    delta: Vec<[u32; 256]>,
    /// Pattern ids ending at each state, failure-closure merged.
    out: Vec<Box<[u32]>>,
    /// Pattern lengths by pattern id.
    lens: Vec<u32>,
    /// `root_live[b]` ⇔ byte `b` leaves the root (`delta[0][b] != 0`).
    /// Dead bytes self-loop at the root with no outputs (the root is the
    /// empty prefix; only non-empty patterns create states), so while the
    /// scan sits at the root it can skim them in a tight memchr-style
    /// loop without touching the transition table. With few patterns
    /// (single-keyword profiles) almost every byte is dead and the skip
    /// loop carries the whole scan.
    root_live: [bool; 256],
}

impl Automaton {
    /// Compile `patterns` (ids are their indices in the slice).
    pub fn build(patterns: &[Vec<u8>]) -> Automaton {
        // Goto trie. u32::MAX marks "no edge" until failure resolution.
        let mut next: Vec<[u32; 256]> = vec![[u32::MAX; 256]];
        let mut ends: Vec<Vec<u32>> = vec![Vec::new()];
        for (pid, pat) in patterns.iter().enumerate() {
            if pat.is_empty() {
                continue;
            }
            let mut s = 0usize;
            for &b in pat {
                let t = next[s][b as usize];
                s = if t == u32::MAX {
                    next.push([u32::MAX; 256]);
                    ends.push(Vec::new());
                    let fresh = (next.len() - 1) as u32;
                    next[s][b as usize] = fresh;
                    fresh as usize
                } else {
                    t as usize
                };
            }
            ends[s].push(pid as u32);
        }

        // BFS failure links, flattened directly into a dense delta so the
        // hot loop is a single table lookup per byte with no fallback
        // chasing.
        let n = next.len();
        let mut fail = vec![0u32; n];
        let mut delta = vec![[0u32; 256]; n];
        let mut queue = VecDeque::new();
        for (b, cell) in delta[0].iter_mut().enumerate() {
            let t = next[0][b];
            if t != u32::MAX {
                *cell = t;
                queue.push_back(t);
            }
        }
        while let Some(s) = queue.pop_front() {
            let su = s as usize;
            // The failure state is strictly shallower, so its output list
            // is already failure-closed when we merge it here (BFS order).
            let inherited = ends[fail[su] as usize].clone();
            ends[su].extend(inherited);
            for b in 0..256 {
                let t = next[su][b];
                if t == u32::MAX {
                    delta[su][b] = delta[fail[su] as usize][b];
                } else {
                    fail[t as usize] = delta[fail[su] as usize][b];
                    delta[su][b] = t;
                    queue.push_back(t);
                }
            }
        }

        let mut root_live = [false; 256];
        for (b, live) in root_live.iter_mut().enumerate() {
            *live = delta[0][b] != 0;
        }

        Automaton {
            delta,
            out: ends.into_iter().map(|v| v.into_boxed_slice()).collect(),
            lens: patterns.iter().map(|p| p.len() as u32).collect(),
            root_live,
        }
    }

    /// Length of the longest prefix of `bytes` made entirely of bytes
    /// that keep the automaton at the root. Only valid to skip while the
    /// current state *is* the root; the skipped bytes produce no
    /// transitions and no outputs, so callers advance their byte counters
    /// by the returned amount and the scan stays byte-exact.
    #[inline]
    pub fn skip_at_root(&self, bytes: &[u8]) -> usize {
        bytes
            .iter()
            .take_while(|&&b| !self.root_live[b as usize])
            .count()
    }

    /// Number of automaton states (trie nodes incl. the root).
    pub fn state_count(&self) -> usize {
        self.delta.len()
    }

    /// One transition.
    #[inline]
    pub fn step(&self, state: u32, byte: u8) -> u32 {
        self.delta[state as usize][byte as usize]
    }

    /// Pattern ids whose occurrences end when `state` is entered.
    #[inline]
    pub fn outputs(&self, state: u32) -> &[u32] {
        &self.out[state as usize]
    }

    /// Length of pattern `pid`.
    #[inline]
    pub fn pattern_len(&self, pid: u32) -> u32 {
        self.lens[pid as usize]
    }

    /// First occurrence offset of pattern `pid` in `haystack` — the
    /// automaton's answer to [`crate::matcher::find`], used by parity
    /// tests.
    pub fn find_first(&self, haystack: &[u8], pid: u32) -> Option<usize> {
        let mut state = 0u32;
        let mut i = 0usize;
        while i < haystack.len() {
            if state == 0 {
                i += self.skip_at_root(&haystack[i..]);
                if i >= haystack.len() {
                    break;
                }
            }
            state = self.step(state, haystack[i]);
            if self.outputs(state).contains(&pid) {
                return Some(i + 1 - self.pattern_len(pid) as usize);
            }
            i += 1;
        }
        None
    }
}

/// A [`RuleSet`] (plus the reassembly mode's gate prefixes) compiled into
/// one automaton, with the bookkeeping to answer rule-ordered first-match
/// queries and streaming gate decisions.
#[derive(Debug, Clone)]
pub struct CompiledRuleSet {
    automaton: Automaton,
    /// Rule index → pattern id; `None` for empty keywords (which the
    /// naive matcher never matches).
    rule_pattern: Vec<Option<u32>>,
    /// Pattern id → is it a gate prefix?
    is_gate: Vec<bool>,
    /// Longest gate prefix: once this many bytes are fed without a hit at
    /// offset 0 the gate can never pass.
    gate_max_len: usize,
    /// An *empty* gate prefix was supplied: any non-empty stream passes
    /// (`data.starts_with(b"")` is true).
    gate_trivial: bool,
}

impl CompiledRuleSet {
    /// Compile `rules`' keywords and the optional gate prefixes. Patterns
    /// are deduplicated: rules sharing a keyword share a pattern id.
    pub fn compile(rules: &RuleSet, gate_prefixes: Option<&[Vec<u8>]>) -> CompiledRuleSet {
        let mut ids: BTreeMap<Vec<u8>, u32> = BTreeMap::new();
        let mut patterns: Vec<Vec<u8>> = Vec::new();
        let mut intern = |pat: &[u8], patterns: &mut Vec<Vec<u8>>| -> u32 {
            *ids.entry(pat.to_vec()).or_insert_with(|| {
                patterns.push(pat.to_vec());
                (patterns.len() - 1) as u32
            })
        };

        let rule_pattern: Vec<Option<u32>> = rules
            .rules
            .iter()
            .map(|r| {
                if r.keyword.is_empty() {
                    None
                } else {
                    Some(intern(&r.keyword, &mut patterns))
                }
            })
            .collect();

        let mut gate_trivial = false;
        let mut gate_max_len = 0usize;
        let mut gate_ids = Vec::new();
        for g in gate_prefixes.unwrap_or(&[]) {
            if g.is_empty() {
                gate_trivial = true;
            } else {
                gate_max_len = gate_max_len.max(g.len());
                gate_ids.push(intern(g, &mut patterns));
            }
        }

        let mut is_gate = vec![false; patterns.len()];
        for id in gate_ids {
            is_gate[id as usize] = true;
        }

        CompiledRuleSet {
            automaton: Automaton::build(&patterns),
            rule_pattern,
            is_gate,
            gate_max_len,
            gate_trivial,
        }
    }

    pub fn automaton(&self) -> &Automaton {
        &self.automaton
    }

    pub fn state_count(&self) -> usize {
        self.automaton.state_count()
    }

    /// Number of distinct compiled patterns (keywords + gate prefixes).
    pub fn pattern_count(&self) -> usize {
        self.is_gate.len()
    }

    /// Pattern id for rule `i`, if its keyword is non-empty.
    pub fn pattern_of_rule(&self, i: usize) -> Option<u32> {
        self.rule_pattern.get(i).copied().flatten()
    }

    /// Feed bytes into a per-flow scan. Each byte costs one transition;
    /// occurrences update the earliest-offset table and the gate flag.
    pub fn feed(&self, scan: &mut StreamScan, bytes: &[u8]) {
        scan.earliest.resize(self.pattern_count(), u64::MAX);
        let mut state = scan.state;
        let mut i = 0usize;
        while i < bytes.len() {
            // Root fast path: skim bytes that cannot start any pattern.
            // They count as fed (offset accounting stays byte-exact) but
            // cost no table lookups.
            if state == 0 {
                let skipped = self.automaton.skip_at_root(&bytes[i..]);
                i += skipped;
                scan.fed += skipped as u64;
                if i >= bytes.len() {
                    break;
                }
            }
            state = self.automaton.step(state, bytes[i]);
            let outs = self.automaton.outputs(state);
            if !outs.is_empty() {
                for &pid in outs {
                    let start = scan.fed + 1 - self.automaton.pattern_len(pid) as u64;
                    let p = pid as usize;
                    if scan.earliest[p] == u64::MAX {
                        scan.earliest[p] = start;
                    }
                    if start == 0 && self.is_gate[p] {
                        scan.gate_hit = true;
                    }
                }
            }
            scan.fed += 1;
            i += 1;
        }
        scan.state = state;
    }

    /// Apply one `StreamAssembler::drain_new_contiguous` result to a
    /// flow's scan: a `Restart` (first-wins overlap rewrote bytes already
    /// fed) resets the scan and refeeds the whole prefix, an `Append`
    /// feeds only the new bytes. Either way the scan then describes
    /// exactly the assembler's `assembled_prefix()`. Returns the bytes
    /// fed.
    pub fn feed_delta(&self, scan: &mut StreamScan, delta: StreamDelta) -> u64 {
        let bytes = match delta {
            StreamDelta::Restart(all) => {
                scan.reset();
                all
            }
            StreamDelta::Append(new) => new,
        };
        self.feed(scan, &bytes);
        bytes.len() as u64
    }

    /// Streaming equivalent of `starts_with_any(prefix, gate_prefixes)`
    /// for the bytes fed so far. Only meaningful when gate prefixes were
    /// compiled in.
    pub fn gate_passed(&self, scan: &StreamScan) -> bool {
        self.gate_trivial || scan.gate_hit
    }

    /// The gate can no longer pass: every gate prefix would already have
    /// completed within the first `gate_max_len` bytes.
    pub fn gate_failed(&self, scan: &StreamScan) -> bool {
        !self.gate_passed(scan) && scan.fed >= self.gate_max_len as u64
    }

    /// First rule (in rule order) matching the stream fed so far —
    /// equivalent to `RuleSet::first_match(prefix, .., None)` on the same
    /// bytes. Position-constrained rules never match stream data, exactly
    /// like the rescan reference with `packet_index = None`.
    pub fn first_match_stream(
        &self,
        rules: &RuleSet,
        scan: &StreamScan,
        dir: Direction,
        server_port: u16,
    ) -> Option<usize> {
        rules.rules.iter().enumerate().position(|(i, r)| {
            r.applies_to_port(server_port)
                && r.applies_to_direction(dir)
                && r.position == PositionConstraint::Anywhere
                && match self.rule_pattern[i] {
                    Some(pid) => scan.has(pid),
                    None => false,
                }
        })
    }

    /// First rule matching a single packet's payload, plus the bytes this
    /// scan cost: one pass over the payload if any applicable rule exists,
    /// zero otherwise (mirroring the naive accounting, which scans nothing
    /// when every rule is filtered out by port/direction/position).
    pub fn first_match_packet(
        &self,
        rules: &RuleSet,
        data: &[u8],
        dir: Direction,
        server_port: u16,
        packet_index: Option<usize>,
    ) -> (Option<usize>, u64) {
        let applies = |i: usize, r: &MatchRule| {
            self.rule_pattern[i].is_some()
                && r.applies_to_port(server_port)
                && r.applies_to_direction(dir)
                && match r.position {
                    PositionConstraint::Anywhere => true,
                    PositionConstraint::PacketIndex(want) => packet_index == Some(want),
                }
        };
        if !rules.rules.iter().enumerate().any(|(i, r)| applies(i, r)) {
            return (None, 0);
        }
        let mut hit = vec![false; self.pattern_count()];
        let mut state = 0u32;
        let mut i = 0usize;
        while i < data.len() {
            if state == 0 {
                i += self.automaton.skip_at_root(&data[i..]);
                if i >= data.len() {
                    break;
                }
            }
            state = self.automaton.step(state, data[i]);
            for &pid in self.automaton.outputs(state) {
                hit[pid as usize] = true;
            }
            i += 1;
        }
        let first = rules.rules.iter().enumerate().position(|(i, r)| {
            applies(i, r)
                && match self.rule_pattern[i] {
                    Some(pid) => hit[pid as usize],
                    None => false,
                }
        });
        (first, data.len() as u64)
    }
}

/// Per-flow scan cursor: everything the automaton needs to continue a
/// stream where the last packet left off. Cheap to clone, `Default` is
/// the pristine pre-stream state.
#[derive(Debug, Clone, Default)]
pub struct StreamScan {
    /// Current automaton state.
    state: u32,
    /// Stream bytes fed so far.
    fed: u64,
    /// Earliest occurrence offset per pattern id; `u64::MAX` = not seen.
    earliest: Vec<u64>,
    /// A gate prefix occurred starting at stream offset 0.
    gate_hit: bool,
}

impl StreamScan {
    /// Forget everything (used when first-wins overlap rewrites already
    /// fed bytes and the prefix must be refed from scratch).
    pub fn reset(&mut self) {
        *self = StreamScan::default();
    }

    /// Bytes fed so far.
    pub fn fed_bytes(&self) -> u64 {
        self.fed
    }

    /// Has pattern `pid` occurred in the bytes fed so far?
    pub fn has(&self, pid: u32) -> bool {
        self.earliest
            .get(pid as usize)
            .map(|&e| e != u64::MAX)
            .unwrap_or(false)
    }

    /// Earliest occurrence offset of pattern `pid`, if seen.
    pub fn earliest_offset(&self, pid: u32) -> Option<u64> {
        self.earliest
            .get(pid as usize)
            .copied()
            .filter(|&e| e != u64::MAX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matcher;
    use crate::rules::MatchRule;

    fn pats(ps: &[&[u8]]) -> Vec<Vec<u8>> {
        ps.iter().map(|p| p.to_vec()).collect()
    }

    #[test]
    fn find_first_agrees_with_naive_find() {
        let patterns = pats(&[
            b"cloudfront.net",
            b"spotify.com",
            b"he",
            b"she",
            b"hers",
            b"GET ",
            &[0x16, 0x03],
        ]);
        let a = Automaton::build(&patterns);
        let haystacks: Vec<&[u8]> = vec![
            b"GET / HTTP/1.1\r\nHost: x.cloudfront.net\r\n\r\n",
            b"ushers",
            b"she sells sea shells",
            b"hershey",
            b"\x16\x03\x01\x00GET spotify.comcloudfront.net",
            b"",
            b"clou",
            b"cloudfront.ne",
        ];
        for hay in haystacks {
            for (pid, p) in patterns.iter().enumerate() {
                assert_eq!(
                    a.find_first(hay, pid as u32),
                    matcher::find(hay, p),
                    "pattern {p:?} in {hay:?}"
                );
            }
        }
    }

    #[test]
    fn overlapping_patterns_all_reported() {
        let patterns = pats(&[b"he", b"she", b"his", b"hers"]);
        let a = Automaton::build(&patterns);
        assert_eq!(a.find_first(b"ushers", 0), Some(2)); // he
        assert_eq!(a.find_first(b"ushers", 1), Some(1)); // she
        assert_eq!(a.find_first(b"ushers", 2), None); // his
        assert_eq!(a.find_first(b"ushers", 3), Some(2)); // hers
    }

    #[test]
    fn empty_pattern_never_matches() {
        let patterns = pats(&[b"", b"x"]);
        let a = Automaton::build(&patterns);
        assert_eq!(a.find_first(b"anything", 0), None);
        assert_eq!(a.find_first(b"xyz", 1), Some(0));
    }

    #[test]
    fn streaming_feed_is_split_invariant() {
        let rules = RuleSet::new(vec![
            MatchRule::keyword("cf", "video", &b"cloudfront.net"[..]).client_only(),
            MatchRule::keyword("sp", "music", &b"spotify.com"[..]).client_only(),
        ]);
        let c = CompiledRuleSet::compile(&rules, None);
        let data = b"GET / HTTP/1.1\r\nHost: media.cloudfront.net\r\n\r\n";

        let mut whole = StreamScan::default();
        c.feed(&mut whole, data);

        // Feed the same bytes one at a time: identical observable state.
        let mut bytewise = StreamScan::default();
        for b in data {
            c.feed(&mut bytewise, std::slice::from_ref(b));
        }
        let pid = c.pattern_of_rule(0).unwrap();
        assert!(whole.has(pid) && bytewise.has(pid));
        assert_eq!(
            whole.earliest_offset(pid),
            matcher::find(data, b"cloudfront.net").map(|o| o as u64)
        );
        assert_eq!(whole.earliest_offset(pid), bytewise.earliest_offset(pid));
        assert!(!whole.has(c.pattern_of_rule(1).unwrap()));
        assert_eq!(whole.fed_bytes(), data.len() as u64);
    }

    #[test]
    fn gate_requires_offset_zero() {
        let rules = RuleSet::new(vec![MatchRule::keyword(
            "e",
            "blocked",
            &b"economist.com"[..],
        )]);
        let gates = pats(&[b"GET ", b"POST "]);
        let c = CompiledRuleSet::compile(&rules, Some(&gates));

        let mut at_zero = StreamScan::default();
        c.feed(&mut at_zero, b"GET /x");
        assert!(c.gate_passed(&at_zero));

        // The same prefix one byte in never gates, and after the longest
        // gate prefix's worth of bytes the failure is permanent.
        let mut shifted = StreamScan::default();
        c.feed(&mut shifted, b"XGET /x");
        assert!(!c.gate_passed(&shifted));
        assert!(c.gate_failed(&shifted));

        let mut undecided = StreamScan::default();
        c.feed(&mut undecided, b"GET");
        assert!(!c.gate_passed(&undecided));
        assert!(!c.gate_failed(&undecided), "could still complete 'GET '");
    }

    #[test]
    fn first_match_stream_respects_rule_order_and_filters() {
        let rules = RuleSet::new(vec![
            MatchRule::keyword("srv", "a", &b"shared"[..]).server_only(),
            MatchRule::keyword("pos", "b", &b"shared"[..]).in_packet(0),
            MatchRule::keyword("any", "c", &b"shared"[..]),
            MatchRule::keyword("dup", "d", &b"shared"[..]),
        ]);
        let c = CompiledRuleSet::compile(&rules, None);
        let mut scan = StreamScan::default();
        c.feed(&mut scan, b"xx shared yy");
        // Server-only and position-constrained rules are filtered out on
        // client stream data; the first surviving rule in order wins.
        assert_eq!(
            c.first_match_stream(&rules, &scan, Direction::ClientToServer, 80),
            Some(2)
        );
        assert_eq!(
            c.first_match_stream(&rules, &scan, Direction::ServerToClient, 80),
            Some(0)
        );
    }

    #[test]
    fn first_match_packet_agrees_with_naive_first_match() {
        let rules = RuleSet::new(vec![
            MatchRule::keyword("sq", "voip", vec![0x80, 0x55])
                .client_only()
                .in_packet(0),
            MatchRule::keyword("fb", "blocked", &b"facebook.com"[..]).on_ports([80]),
            MatchRule::keyword("cf", "video", &b"cloudfront.net"[..]).client_only(),
        ]);
        let c = CompiledRuleSet::compile(&rules, None);
        let cases: Vec<(&[u8], Direction, u16, Option<usize>)> = vec![
            (
                b"\x00\x01\x80\x55",
                Direction::ClientToServer,
                3478,
                Some(0),
            ),
            (
                b"\x00\x01\x80\x55",
                Direction::ClientToServer,
                3478,
                Some(1),
            ),
            (b"GET facebook.com", Direction::ClientToServer, 80, Some(0)),
            (
                b"GET facebook.com",
                Direction::ClientToServer,
                8080,
                Some(0),
            ),
            (b"cloudfront.net", Direction::ServerToClient, 80, Some(3)),
            (b"cloudfront.net", Direction::ClientToServer, 443, None),
            (b"", Direction::ClientToServer, 80, Some(0)),
        ];
        for (data, dir, port, idx) in cases {
            let naive = rules
                .first_match(data, dir, port, idx)
                .map(|r| r.id.clone());
            let (auto, _) = c.first_match_packet(&rules, data, dir, port, idx);
            let auto = auto.map(|i| rules.rules[i].id.clone());
            assert_eq!(naive, auto, "{data:?} {dir:?} {port} {idx:?}");
        }
    }

    #[test]
    fn packet_scan_cost_is_zero_when_no_rule_applies() {
        let rules = RuleSet::new(vec![MatchRule::keyword(
            "fb",
            "blocked",
            &b"facebook.com"[..],
        )
        .on_ports([80])]);
        let c = CompiledRuleSet::compile(&rules, None);
        let (_, scanned) = c.first_match_packet(
            &rules,
            b"facebook.com",
            Direction::ClientToServer,
            443,
            None,
        );
        assert_eq!(scanned, 0);
        let (_, scanned) =
            c.first_match_packet(&rules, b"facebook.com", Direction::ClientToServer, 80, None);
        assert_eq!(scanned, 12);
    }

    #[test]
    fn skip_loop_finds_patterns_at_every_placement() {
        // A single-pattern automaton is all skip loop: the pattern at the
        // start, middle, end, back-to-back, and absent must all resolve
        // to the same offsets as the naive scanner.
        let patterns = pats(&[b"needle"]);
        let a = Automaton::build(&patterns);
        let dead = vec![b'x'; 500];
        let mut cases: Vec<Vec<u8>> = vec![
            b"needle".to_vec(),
            dead.clone(),
            Vec::new(),
            b"needleneedle".to_vec(),
            // Partial occurrences that fall back to the root mid-pattern.
            b"neeneedle".to_vec(),
            b"needl".to_vec(),
        ];
        for at in [0usize, 1, 250, 494] {
            let mut hay = dead.clone();
            hay[at..at + 6].copy_from_slice(b"needle");
            cases.push(hay);
        }
        for hay in cases {
            assert_eq!(
                a.find_first(&hay, 0),
                matcher::find(&hay, b"needle"),
                "haystack {hay:?}"
            );
        }
    }

    #[test]
    fn skip_loop_feed_is_split_invariant_over_dead_bytes() {
        // Chunk boundaries landing inside skipped runs and inside the
        // pattern itself must not change the scan's observable state.
        let rules = RuleSet::new(vec![MatchRule::keyword("n", "c", &b"needle"[..])]);
        let c = CompiledRuleSet::compile(&rules, None);
        let mut data = vec![b'.'; 300];
        data[150..156].copy_from_slice(b"needle");

        let mut whole = StreamScan::default();
        c.feed(&mut whole, &data);

        for chunk in [1usize, 3, 7, 64, 151, 153] {
            let mut scan = StreamScan::default();
            for piece in data.chunks(chunk) {
                c.feed(&mut scan, piece);
            }
            let pid = c.pattern_of_rule(0).unwrap();
            assert_eq!(scan.fed_bytes(), whole.fed_bytes(), "chunk {chunk}");
            assert_eq!(
                scan.earliest_offset(pid),
                whole.earliest_offset(pid),
                "chunk {chunk}"
            );
            assert_eq!(scan.earliest_offset(pid), Some(150));
        }
    }

    #[test]
    fn duplicate_keywords_share_a_pattern() {
        let rules = RuleSet::new(vec![
            MatchRule::keyword("a", "x", &b"same"[..]),
            MatchRule::keyword("b", "y", &b"same"[..]),
        ]);
        let c = CompiledRuleSet::compile(&rules, None);
        assert_eq!(c.pattern_count(), 1);
        assert_eq!(c.pattern_of_rule(0), c.pattern_of_rule(1));
    }

    #[test]
    fn reset_forgets_matches_and_gate() {
        let rules = RuleSet::new(vec![MatchRule::keyword("e", "b", &b"evil"[..])]);
        let gates = pats(&[b"GET "]);
        let c = CompiledRuleSet::compile(&rules, Some(&gates));
        let mut scan = StreamScan::default();
        c.feed(&mut scan, b"GET evil");
        assert!(c.gate_passed(&scan) && scan.has(c.pattern_of_rule(0).unwrap()));
        scan.reset();
        assert!(!c.gate_passed(&scan));
        assert_eq!(scan.fed_bytes(), 0);
        assert!(!scan.has(c.pattern_of_rule(0).unwrap()));
    }
}
