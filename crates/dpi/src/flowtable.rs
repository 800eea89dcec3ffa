//! Per-flow middlebox state: gate status, payload counters, stream
//! reassembly buffers, classification results, and their lifecycles
//! (timeouts, RST effects, resource-pressure eviction).

use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap};
use std::net::Ipv4Addr;
use std::time::Duration;

use liberate_netsim::element::PacketBuf;
use liberate_netsim::shaper::TokenBucket;
use liberate_packet::flow::FlowKey;
use liberate_substrate::time::SimTime;

use crate::automaton::StreamScan;
use crate::inspect::{FlowConfig, RstEffect};
use crate::resource::TimeOfDayLoad;

/// Result of protocol anchoring on the first payload packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GateStatus {
    /// No payload packet seen yet.
    Pending,
    /// First payload packet matched a gate prefix: inspect the flow.
    Passed,
    /// First payload packet did not match: the flow is never inspected.
    Failed,
}

/// Client-stream reassembly buffer for `FullStream` mode: segments placed
/// at their sequence offsets relative to the ISN.
#[derive(Debug, Default, Clone)]
pub struct StreamAssembler {
    /// Client ISN + 1 (sequence number of stream byte 0), from the SYN.
    pub base_seq: Option<u32>,
    /// Segment payloads keyed by stream byte offset. Stored as shared
    /// [`PacketBuf`] views into the original wire buffers: buffering a
    /// segment for reassembly is a refcount bump, not a copy.
    segments: BTreeMap<u64, PacketBuf>,
    /// Cap on buffered stream bytes.
    window_bytes: usize,
    /// Contiguous bytes already handed out by `drain_new_contiguous`.
    drained: usize,
    /// A segment landed below `drained`: first-wins overlap may have
    /// rewritten bytes already handed out, so the next drain restarts.
    dirty: bool,
}

/// What `drain_new_contiguous` yields to a streaming consumer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StreamDelta {
    /// The newly contiguous bytes extending the prefix (possibly empty).
    Append(Vec<u8>),
    /// Already-drained bytes may have changed (a new segment claimed
    /// cells under the drained prefix): here is the full prefix again,
    /// the consumer must restart from scratch.
    Restart(Vec<u8>),
}

impl StreamAssembler {
    pub fn new(window_bytes: usize) -> StreamAssembler {
        StreamAssembler {
            base_seq: None,
            segments: BTreeMap::new(),
            window_bytes,
            drained: 0,
            dirty: false,
        }
    }

    /// Insert a segment by TCP sequence number. Returns `false` when the
    /// segment lies outside the assembly window (e.g. a wrong-sequence
    /// inert packet) and was ignored.
    pub fn insert(&mut self, seq: u32, payload: impl Into<PacketBuf>) -> bool {
        let Some(base) = self.base_seq else {
            return false;
        };
        let offset = seq.wrapping_sub(base);
        // Offsets beyond the window (including enormous "wrong sequence
        // number" values, which wrap to huge u32s) are ignored.
        if offset as u64 > self.window_bytes as u64 {
            return false;
        }
        // First arrival at an offset wins: this is what lets an inert
        // decoy segment shadow the real request that later reuses the same
        // sequence range (wrong-checksum / missing-ACK evasion, §4.3).
        if let std::collections::btree_map::Entry::Vacant(slot) = self.segments.entry(offset as u64)
        {
            slot.insert(payload.into());
            // A fresh segment under the drained prefix can steal cells
            // from a later-offset segment that currently owns them.
            if (offset as usize) < self.drained {
                self.dirty = true;
            }
        }
        true
    }

    /// The contiguous in-order prefix of the stream assembled so far,
    /// truncated to the window. First-arrived data wins on overlap.
    pub fn assembled_prefix(&self) -> Vec<u8> {
        let mut out: Vec<Option<u8>> = Vec::new();
        for (&off, data) in &self.segments {
            let off = off as usize;
            let end = (off + data.len()).min(self.window_bytes);
            if end > out.len() {
                out.resize(end, None);
            }
            for (i, b) in data.iter().enumerate() {
                let idx = off + i;
                if idx < end && out[idx].is_none() {
                    out[idx] = Some(*b);
                }
            }
        }
        out.into_iter()
            .take_while(|b| b.is_some())
            .map(|b| b.unwrap())
            .collect()
    }

    /// Incremental counterpart of [`StreamAssembler::assembled_prefix`]:
    /// yield only the bytes that became contiguous since the last drain,
    /// or the whole prefix again (as [`StreamDelta::Restart`]) when a
    /// first-wins overlap may have rewritten already-drained bytes. The
    /// concatenation of drained bytes (restarting on `Restart`) is always
    /// exactly `assembled_prefix()` — the device's streaming matcher
    /// depends on that invariant for byte parity with the naive rescanner.
    pub fn drain_new_contiguous(&mut self) -> StreamDelta {
        if self.dirty {
            self.dirty = false;
            let all = self.assembled_prefix();
            self.drained = all.len();
            return StreamDelta::Restart(all);
        }
        let mut out = Vec::new();
        let mut cursor = self.drained;
        'fill: while cursor < self.window_bytes {
            // The cell at `cursor` belongs to the first segment in offset
            // order covering it; that segment owns the whole run up to
            // its end (any lower-offset segment reaching into the run
            // would have covered `cursor` too).
            for (&off, data) in self.segments.range(..=cursor as u64) {
                let off = off as usize;
                let end = (off + data.len()).min(self.window_bytes);
                if end > cursor {
                    out.extend_from_slice(&data[cursor - off..end - off]);
                    cursor = end;
                    continue 'fill;
                }
            }
            break; // hole at `cursor`
        }
        self.drained = cursor;
        StreamDelta::Append(out)
    }

    /// Bytes already handed out by `drain_new_contiguous`.
    pub fn drained_len(&self) -> usize {
        self.drained
    }
}

/// Pre-classification tracking state for one flow.
#[derive(Debug, Clone)]
pub struct Tracking {
    pub gate: GateStatus,
    /// Payload-bearing packets seen client→server.
    pub client_payload_packets: usize,
    /// Payload-bearing packets seen server→client.
    pub server_payload_packets: usize,
    /// Payload bytes seen client→server (for byte-limited scopes).
    pub client_payload_bytes: u64,
    /// Payload bytes seen server→client.
    pub server_payload_bytes: u64,
    /// Arrival-order payload packets collected for `GatedStream` windows:
    /// (sequence number, payload view into the original wire buffer).
    pub window_packets: Vec<(u32, PacketBuf)>,
    /// Sequence-anchored assembler for `FullStream`.
    pub stream: StreamAssembler,
    /// Automaton cursor over `stream`'s drained prefix (`FullStream`
    /// with `MatcherKind::Automaton`).
    pub stream_scan: StreamScan,
    /// Persistent windowed assembler for `GatedStream` under the
    /// automaton matcher (the naive path rebuilds one per packet from
    /// `window_packets` instead). Anchored at the first pushed packet.
    pub window_asm: Option<StreamAssembler>,
    /// Automaton cursor over `window_asm`'s drained prefix.
    pub window_scan: StreamScan,
    /// Payload packets counted toward the `GatedStream` window cap —
    /// mirrors `window_packets.len()` growth without buffering payloads.
    pub window_seen: usize,
}

impl Tracking {
    pub fn new(window_bytes: usize) -> Tracking {
        Tracking {
            gate: GateStatus::Pending,
            client_payload_packets: 0,
            server_payload_packets: 0,
            client_payload_bytes: 0,
            server_payload_bytes: 0,
            window_packets: Vec::new(),
            stream: StreamAssembler::new(window_bytes),
            stream_scan: StreamScan::default(),
            window_asm: None,
            window_scan: StreamScan::default(),
            window_seen: 0,
        }
    }
}

/// A classification verdict attached to a flow.
#[derive(Debug, Clone)]
pub struct Classification {
    pub class: String,
    pub rule_id: String,
    pub at: SimTime,
    /// Per-flow shaper when the class's policy throttles.
    pub shaper: Option<TokenBucket>,
    /// Idle timeout currently in force for this result (can be shortened
    /// by a RST on the testbed device).
    pub result_timeout: Option<Duration>,
}

/// One flow table entry.
#[derive(Debug, Clone)]
pub struct FlowEntry {
    pub created: SimTime,
    pub last_activity: SimTime,
    pub tracking: Option<Tracking>,
    pub classification: Option<Classification>,
}

impl FlowEntry {
    /// The idle-expiry rule, shared by lazy lookup and the batch sweep:
    /// drop a classification idle past its result timeout, then tracking
    /// idle past `tracking_timeout`. Returns the payload-byte total of
    /// tracking dropped now (the flow's bytes-scanned sample) and whether
    /// the entry is still alive, i.e. keeps either half.
    fn expire(&mut self, now: SimTime, tracking_timeout: Option<Duration>) -> (Option<u64>, bool) {
        let idle = now.since(self.last_activity);
        if let Some(c) = &self.classification {
            if c.result_timeout.is_some_and(|t| idle > t) {
                self.classification = None;
            }
        }
        let mut scanned = None;
        if tracking_timeout.is_some_and(|t| idle > t) {
            scanned = self
                .tracking
                .take()
                .map(|tr| tr.client_payload_bytes + tr.server_payload_bytes);
        }
        (
            scanned,
            self.classification.is_some() || self.tracking.is_some(),
        )
    }
}

/// The tracking timeout in force at `now`: the resource model, when
/// present, wins over the static configuration.
fn tracking_timeout(
    now: SimTime,
    config: &FlowConfig,
    load: Option<&TimeOfDayLoad>,
) -> Option<Duration> {
    match load {
        Some(model) => model.eviction_threshold(now),
        None => config.tracking_timeout,
    }
}

/// Residual server:port blocking state (the GFC's collateral damage,
/// §6.5): a blocked-flow count per (server, port) pair and, once the
/// device's threshold is crossed, an expiry until which *all* traffic
/// toward the pair is disrupted regardless of content.
///
/// Factored out of [`FlowTable`] so the sharded table
/// ([`crate::sharded::ShardedFlowTable`]) can promote it to a single
/// cross-shard structure: a penalty earned by a flow hashed to one shard
/// must hit flows hashed to every other shard.
#[derive(Debug, Default, Clone)]
pub struct PenaltyBox {
    /// (server addr, server port) → (blocked-flow count, penalty expiry).
    penalties: HashMap<(Ipv4Addr, u16), (u32, Option<SimTime>)>,
}

impl PenaltyBox {
    /// Record a blocked flow toward a server:port and return whether the
    /// pair has crossed into penalty blocking.
    pub fn record_blocked_flow(
        &mut self,
        server: Ipv4Addr,
        port: u16,
        now: SimTime,
        threshold: u32,
        penalty: Duration,
    ) -> bool {
        let entry = self.penalties.entry((server, port)).or_insert((0, None));
        entry.0 += 1;
        if entry.0 >= threshold {
            entry.1 = Some(now + penalty);
            true
        } else {
            false
        }
    }

    /// Whether (server, port) is currently under penalty blocking.
    pub fn is_penalized(&self, server: Ipv4Addr, port: u16, now: SimTime) -> bool {
        match self.penalties.get(&(server, port)) {
            Some((_, Some(until))) => now < *until,
            _ => false,
        }
    }

    /// Number of (server, port) pairs with recorded blocked flows.
    pub fn tracked_pairs(&self) -> usize {
        self.penalties.len()
    }

    pub fn is_empty(&self) -> bool {
        self.penalties.is_empty()
    }

    pub fn clear(&mut self) {
        self.penalties.clear();
    }
}

/// The middlebox flow table.
#[derive(Debug, Default)]
pub struct FlowTable {
    entries: HashMap<FlowKey, FlowEntry>,
    /// Residual server:port penalties. In the sharded engine this box is
    /// unused — penalties live in the cross-shard [`PenaltyBox`] owned by
    /// [`crate::sharded::ShardedFlowTable`] instead.
    penalties: PenaltyBox,
    /// Monotonic creation count (never reset, even by `clear`), so the
    /// observability layer can report exact lifetime totals.
    pub created_total: u64,
    /// Monotonic eviction count: expiry removals plus RST flushes.
    pub evicted_total: u64,
    /// Payload-byte totals (client + server) of flows whose tracking
    /// state was dropped (timeout expiry or RST flush) and not yet
    /// drained into the per-flow bytes-scanned histogram. The holder of
    /// the shard lock drains these after processing, so with a shared
    /// table each device reports only its own churn.
    evicted_scanned_pending: Vec<u64>,
}

impl FlowTable {
    /// Look up a flow, applying expiry rules first. `config` supplies the
    /// static timeouts; `load` (when present) overrides the tracking
    /// timeout with the time-of-day resource model. One hash probe finds,
    /// expires and, when it dies, removes the entry.
    pub fn lookup(
        &mut self,
        key: FlowKey,
        now: SimTime,
        config: &FlowConfig,
        load: Option<&TimeOfDayLoad>,
    ) -> Option<&mut FlowEntry> {
        let Entry::Occupied(mut slot) = self.entries.entry(key.canonical()) else {
            return None;
        };
        let (scanned, alive) = slot
            .get_mut()
            .expire(now, tracking_timeout(now, config, load));
        self.evicted_scanned_pending.extend(scanned);
        if alive {
            return Some(slot.into_mut());
        }
        slot.remove();
        self.evicted_total += 1;
        None
    }

    /// Create or replace the entry for a flow (called on SYN for TCP, on
    /// the first datagram for UDP).
    pub fn create(&mut self, key: FlowKey, now: SimTime, window_bytes: usize) -> &mut FlowEntry {
        let canonical = key.canonical();
        self.created_total += 1;
        self.entries.insert(
            canonical,
            FlowEntry {
                created: now,
                last_activity: now,
                tracking: Some(Tracking::new(window_bytes)),
                classification: None,
            },
        );
        self.entries.get_mut(&canonical).expect("just inserted")
    }

    /// Apply a RST's effect to a flow per the device's configuration.
    /// Returns whether the RST changed flow state (flushed the entry, or
    /// shortened a classification's timeout) — false for `Ignored` or an
    /// absent entry.
    pub fn apply_rst(&mut self, key: FlowKey, config: &FlowConfig) -> bool {
        let canonical = key.canonical();
        let Some(entry) = self.entries.get_mut(&canonical) else {
            return false;
        };
        let effect = if entry.classification.is_some() {
            config.rst_after_match
        } else {
            config.rst_before_match
        };
        match effect {
            RstEffect::Ignored => false,
            RstEffect::FlushImmediately => {
                if let Some(e) = self.entries.remove(&canonical) {
                    if let Some(tr) = e.tracking {
                        self.evicted_scanned_pending
                            .push(tr.client_payload_bytes + tr.server_payload_bytes);
                    }
                }
                self.evicted_total += 1;
                true
            }
            RstEffect::ShortenTimeout(t) => {
                if let Some(c) = entry.classification.as_mut() {
                    c.result_timeout = Some(t);
                    true
                } else {
                    false
                }
            }
        }
    }

    /// Drain the per-flow scanned-byte figures of flows whose tracking
    /// died since the last drain (see `evicted_scanned_pending`).
    pub fn drain_evicted_scanned(&mut self) -> Vec<u64> {
        std::mem::take(&mut self.evicted_scanned_pending)
    }

    /// Batch expiry: apply [`FlowTable::lookup`]'s eviction rules to every
    /// entry in one pass instead of waiting for each flow's next lookup
    /// (which, for a replay wave's abandoned probe flows, never comes).
    /// Returns the number of entries evicted; their scanned-byte figures
    /// land in the same pending buffer lazy eviction feeds.
    ///
    /// The samples enter that buffer in canonical-key order: `HashMap`
    /// iteration order varies run to run, and they flow into journal
    /// output that must stay byte-identical for a fixed seed. Only the
    /// flows whose tracking died are sorted.
    pub fn sweep_expired(
        &mut self,
        now: SimTime,
        config: &FlowConfig,
        load: Option<&TimeOfDayLoad>,
    ) -> u64 {
        let tracking_timeout = tracking_timeout(now, config, load);
        let live = self.entries.len();
        let mut samples = Vec::new();
        self.entries.retain(|key, entry| {
            let (scanned, alive) = entry.expire(now, tracking_timeout);
            samples.extend(scanned.map(|bytes| (*key, bytes)));
            alive
        });
        samples.sort_unstable_by_key(|&(key, _)| key);
        self.evicted_scanned_pending
            .extend(samples.into_iter().map(|(_, bytes)| bytes));
        let evicted = (live - self.entries.len()) as u64;
        self.evicted_total += evicted;
        evicted
    }

    /// Record a blocked flow toward a server:port and return whether the
    /// pair has crossed into penalty blocking.
    pub fn record_blocked_flow(
        &mut self,
        server: Ipv4Addr,
        port: u16,
        now: SimTime,
        threshold: u32,
        penalty: Duration,
    ) -> bool {
        self.penalties
            .record_blocked_flow(server, port, now, threshold, penalty)
    }

    /// Whether (server, port) is currently under penalty blocking.
    pub fn is_penalized(&self, server: Ipv4Addr, port: u16, now: SimTime) -> bool {
        self.penalties.is_penalized(server, port, now)
    }

    pub fn live_flow_count(&self) -> usize {
        self.entries.len()
    }

    /// Full harness reset: forget live flows **and** the penalty box.
    /// Alias of [`FlowTable::reset_all`], kept for callers that predate
    /// the explicit naming. Lifetime counters survive — they are
    /// observability totals, not middlebox state.
    pub fn clear(&mut self) {
        self.reset_all();
    }

    /// Forget live flow entries but keep penalty-box state. This is what
    /// a middlebox losing (or shedding) flow state actually does: residual
    /// server:port penalties outlive the flows that earned them (§6.5).
    pub fn clear_flows(&mut self) {
        self.entries.clear();
    }

    /// Forget live flows *and* penalties: the explicit between-experiment
    /// reset. Pooled sessions sharing a table must use this (not
    /// [`FlowTable::clear_flows`]) so blocked-flow state cannot leak from
    /// one probe run into the next. Lifetime counters are preserved.
    pub fn reset_all(&mut self) {
        self.entries.clear();
        self.penalties.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key() -> FlowKey {
        FlowKey::new(
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 9, 9, 9),
            40000,
            80,
            6,
        )
    }

    fn config() -> FlowConfig {
        FlowConfig {
            result_timeout: Some(Duration::from_secs(120)),
            tracking_timeout: Some(Duration::from_secs(120)),
            rst_after_match: RstEffect::ShortenTimeout(Duration::from_secs(10)),
            rst_before_match: RstEffect::FlushImmediately,
        }
    }

    #[test]
    fn assembler_places_segments_by_offset() {
        let mut a = StreamAssembler::new(4096);
        a.base_seq = Some(1000);
        assert!(a.insert(1005, b"world"));
        assert_eq!(a.assembled_prefix(), b""); // hole at offset 0
        assert!(a.insert(1000, b"hello"));
        assert_eq!(a.assembled_prefix(), b"helloworld");
    }

    #[test]
    fn assembler_ignores_out_of_window_seq() {
        let mut a = StreamAssembler::new(4096);
        a.base_seq = Some(1000);
        // A far-future "wrong sequence number" inert packet.
        assert!(!a.insert(1000u32.wrapping_add(1_000_000), b"GET /evil"));
        // A wrapped (negative) offset is also enormous as u32.
        assert!(!a.insert(500, b"before-isn"));
        assert!(a.assembled_prefix().is_empty());
    }

    #[test]
    fn assembler_without_base_ignores_everything() {
        let mut a = StreamAssembler::new(4096);
        assert!(!a.insert(1000, b"mid-flow"));
    }

    #[test]
    fn overlap_first_wins() {
        let mut a = StreamAssembler::new(4096);
        a.base_seq = Some(0);
        a.insert(0, b"AAAA");
        a.insert(2, b"BBBB");
        assert_eq!(a.assembled_prefix(), b"AAAABB");
    }

    /// Drive an assembler with `drain_new_contiguous` after every insert
    /// and check the streaming view reconstructs `assembled_prefix`
    /// exactly at every step.
    fn drain_tracks_prefix(window: usize, inserts: &[(u32, &[u8])]) {
        let mut a = StreamAssembler::new(window);
        a.base_seq = Some(0);
        let mut streamed: Vec<u8> = Vec::new();
        for &(seq, payload) in inserts {
            a.insert(seq, payload);
            match a.drain_new_contiguous() {
                StreamDelta::Restart(all) => streamed = all,
                StreamDelta::Append(new) => streamed.extend_from_slice(&new),
            }
            assert_eq!(streamed, a.assembled_prefix(), "after insert at seq {seq}");
            assert_eq!(streamed.len(), a.drained_len());
        }
    }

    #[test]
    fn drain_in_order_appends() {
        drain_tracks_prefix(4096, &[(0, b"GET /"), (5, b"index"), (10, b".html")]);
    }

    #[test]
    fn drain_out_of_order_hole_fills_later() {
        // Holes at 0 and 10 fill after later segments arrived.
        drain_tracks_prefix(
            4096,
            &[(5, b"index"), (10, b".html"), (0, b"GET /"), (15, b" HTTP")],
        );
    }

    #[test]
    fn drain_duplicate_retransmissions_are_inert() {
        drain_tracks_prefix(
            4096,
            &[(0, b"hello"), (0, b"hello"), (5, b"world"), (0, b"XXXXX")],
        );
    }

    #[test]
    fn drain_overlap_extending_past_drained_prefix() {
        // Segment at 2 overlaps the drained [0,4) prefix and reaches
        // beyond it; first-wins means only cells 4..8 are new.
        drain_tracks_prefix(4096, &[(0, b"AAAA"), (2, b"BBBBBB")]);
    }

    #[test]
    fn drain_restart_when_overlap_rewrites_drained_bytes() {
        // A@0 and B@4 drain as AAAABBBB; then C@2 arrives. Cells 4..7 now
        // belong to C (the first segment in offset order covering them),
        // so the already-drained bytes changed retroactively.
        let mut a = StreamAssembler::new(4096);
        a.base_seq = Some(0);
        a.insert(0, b"AAAA");
        a.insert(4, b"BBBB");
        assert_eq!(
            a.drain_new_contiguous(),
            StreamDelta::Append(b"AAAABBBB".to_vec())
        );
        a.insert(2, b"CCCCCC");
        let delta = a.drain_new_contiguous();
        assert_eq!(delta, StreamDelta::Restart(b"AAAACCCC".to_vec()));
        assert_eq!(a.assembled_prefix(), b"AAAACCCC");
        // The restart clears the flag: the next drain appends normally.
        a.insert(8, b"DD");
        assert_eq!(
            a.drain_new_contiguous(),
            StreamDelta::Append(b"DD".to_vec())
        );
    }

    #[test]
    fn drain_caps_at_window() {
        drain_tracks_prefix(6, &[(0, b"AAAA"), (4, b"BBBB"), (8, b"CCCC")]);
        // And mid-segment truncation specifically:
        let mut a = StreamAssembler::new(6);
        a.base_seq = Some(0);
        a.insert(0, b"AAAABBBB");
        assert_eq!(
            a.drain_new_contiguous(),
            StreamDelta::Append(b"AAAABB".to_vec())
        );
        assert_eq!(a.drain_new_contiguous(), StreamDelta::Append(Vec::new()));
    }

    #[test]
    fn drain_with_hole_yields_nothing_until_filled() {
        let mut a = StreamAssembler::new(4096);
        a.base_seq = Some(1000);
        a.insert(1005, b"world");
        assert_eq!(a.drain_new_contiguous(), StreamDelta::Append(Vec::new()));
        a.insert(1000, b"hello");
        assert_eq!(
            a.drain_new_contiguous(),
            StreamDelta::Append(b"helloworld".to_vec())
        );
    }

    #[test]
    fn lookup_expires_idle_tracking_and_results() {
        let mut table = FlowTable::default();
        let cfg = config();
        let e = table.create(key(), SimTime::ZERO, 4096);
        e.classification = Some(Classification {
            class: "video".into(),
            rule_id: "r".into(),
            at: SimTime::ZERO,
            shaper: None,
            result_timeout: cfg.result_timeout,
        });
        // At t=60 s everything survives.
        assert!(table
            .lookup(key(), SimTime::from_secs(60), &cfg, None)
            .is_some());
        // Do NOT touch last_activity: at t=200 s both expired (> 120 s idle
        // since t=0... note lookup at 60 s did not refresh activity).
        let gone = table.lookup(key(), SimTime::from_secs(200), &cfg, None);
        assert!(gone.is_none());
        assert_eq!(table.live_flow_count(), 0);
    }

    #[test]
    fn rst_before_match_flushes() {
        let mut table = FlowTable::default();
        let cfg = config();
        table.create(key(), SimTime::ZERO, 4096);
        table.apply_rst(key(), &cfg);
        assert_eq!(table.live_flow_count(), 0);
    }

    #[test]
    fn rst_after_match_shortens_timeout() {
        let mut table = FlowTable::default();
        let cfg = config();
        let e = table.create(key(), SimTime::ZERO, 4096);
        e.classification = Some(Classification {
            class: "video".into(),
            rule_id: "r".into(),
            at: SimTime::ZERO,
            shaper: None,
            result_timeout: cfg.result_timeout,
        });
        table.apply_rst(key(), &cfg);
        // 11 s later (> 10 s shortened timeout) the result is gone.
        let e = table.lookup(key(), SimTime::from_secs(11), &cfg, None);
        // Tracking (120 s) still there, classification flushed.
        let e = e.expect("tracking survives");
        assert!(e.classification.is_none());
    }

    #[test]
    fn lifetime_counters_are_monotonic() {
        let mut table = FlowTable::default();
        let cfg = config();
        table.create(key(), SimTime::ZERO, 4096);
        assert_eq!(table.created_total, 1);
        // Before a match the testbed config flushes on RST: one eviction.
        assert!(table.apply_rst(key(), &cfg));
        assert_eq!(table.evicted_total, 1);
        // A RST against a missing entry changes nothing.
        assert!(!table.apply_rst(key(), &cfg));
        assert_eq!(table.evicted_total, 1);
        table.create(key(), SimTime::ZERO, 4096);
        table.clear();
        assert_eq!(table.created_total, 2);
        // clear() resets live state, not the lifetime counters; it is a
        // harness reset, not an eviction the middlebox performed.
        assert_eq!(table.evicted_total, 1);
    }

    #[test]
    fn penalty_threshold_and_expiry() {
        let mut table = FlowTable::default();
        let server = Ipv4Addr::new(10, 9, 9, 9);
        let now = SimTime::from_secs(100);
        let penalty = Duration::from_secs(90);
        assert!(!table.record_blocked_flow(server, 80, now, 2, penalty));
        assert!(!table.is_penalized(server, 80, now));
        assert!(table.record_blocked_flow(server, 80, now, 2, penalty));
        assert!(table.is_penalized(server, 80, now));
        assert!(table.is_penalized(server, 80, now + Duration::from_secs(89)));
        assert!(!table.is_penalized(server, 80, now + Duration::from_secs(91)));
        // A different port is unaffected.
        assert!(!table.is_penalized(server, 8080, now));
    }

    #[test]
    fn clear_flows_keeps_penalties_but_reset_all_drops_them() {
        let mut table = FlowTable::default();
        let server = Ipv4Addr::new(10, 9, 9, 9);
        let now = SimTime::from_secs(100);
        table.create(key(), SimTime::ZERO, 4096);
        table.record_blocked_flow(server, 80, now, 1, Duration::from_secs(90));
        assert!(table.is_penalized(server, 80, now));

        // clear_flows: the flow entries go, the penalty persists — losing
        // flow state must not amnesty a penalized server:port.
        table.clear_flows();
        assert_eq!(table.live_flow_count(), 0);
        assert!(table.is_penalized(server, 80, now));

        // reset_all (and its clear() alias): everything goes.
        table.create(key(), SimTime::ZERO, 4096);
        table.reset_all();
        assert_eq!(table.live_flow_count(), 0);
        assert!(!table.is_penalized(server, 80, now));

        table.record_blocked_flow(server, 80, now, 1, Duration::from_secs(90));
        table.clear();
        assert!(
            !table.is_penalized(server, 80, now),
            "clear() is a full reset including the penalty box"
        );
    }

    #[test]
    fn canonical_keying_matches_both_directions() {
        let mut table = FlowTable::default();
        let cfg = config();
        table.create(key(), SimTime::ZERO, 4096);
        assert!(table
            .lookup(key().reverse(), SimTime::from_secs(1), &cfg, None)
            .is_some());
    }
}
