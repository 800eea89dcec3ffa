//! A sharded flow table: the shared DPI state behind the multi-session
//! replay engine.
//!
//! One middlebox serves every probe the pool's worker sessions replay, so
//! its flow state must be shared across workers without serializing them
//! on a single table lock. [`ShardedFlowTable`] hashes each canonical
//! [`FlowKey`] to a shard and wraps every shard in its own mutex; workers
//! probing disjoint flows (the pool strides client ports precisely so
//! flows *are* disjoint) contend only when their keys collide on a shard.
//!
//! The residual server:port penalty box ([`PenaltyBox`]) is promoted out
//! of the per-shard tables into one cross-shard structure: the GFC blocks
//! a (server, port) pair after enough classified flows *regardless of
//! which flows earned the strikes* (§6.5), so a penalty recorded while
//! processing a flow on shard A must disrupt a flow hashed to shard B.
//!
//! # Lock ordering
//!
//! Two locks exist: the shard mutexes and the penalty mutex. The declared
//! acquisition order, enforced by the `flowtable-lock-ordering` lint rule,
//! is:
//!
//! 1. at most **one shard lock** at a time (cross-shard walks like
//!    [`ShardedFlowTable::reset_all`] take shard locks transiently, one
//!    after the other, never nested);
//! 2. the **penalty lock after the shard lock**, never before it, and
//!    only transiently (the device fires a block action while holding the
//!    packet's shard and then records the penalty).

use std::net::Ipv4Addr;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use parking_lot::{Mutex, MutexGuard};

use liberate_packet::flow::FlowKey;
use liberate_substrate::time::SimTime;

use crate::flowtable::{FlowTable, PenaltyBox};
use crate::inspect::FlowConfig;
use crate::resource::TimeOfDayLoad;

/// Default shard count. Small enough that per-table overhead is noise,
/// large enough that a handful of pool workers rarely collide.
pub const DEFAULT_SHARDS: usize = 8;

/// A flow table split into independently locked shards plus one
/// cross-shard penalty box. Cheap to share: the device clones an `Arc` of
/// it, and the environment blueprint hands the same `Arc` to every worker
/// network it builds.
#[derive(Debug)]
pub struct ShardedFlowTable {
    shards: Box<[Mutex<FlowTable>]>,
    /// Cross-shard penalty state; see the module docs for lock order.
    penalties: Mutex<PenaltyBox>,
    /// Lifetime flow creations across all shards, folded in when a shard
    /// guard drops so reads never need to visit every shard.
    created_total: AtomicU64,
    /// Lifetime evictions across all shards (expiry + RST flushes).
    evicted_total: AtomicU64,
}

impl Default for ShardedFlowTable {
    fn default() -> Self {
        ShardedFlowTable::new(DEFAULT_SHARDS)
    }
}

impl ShardedFlowTable {
    pub fn new(shard_count: usize) -> ShardedFlowTable {
        let shard_count = shard_count.max(1);
        ShardedFlowTable {
            shards: (0..shard_count)
                .map(|_| Mutex::new(FlowTable::default()))
                .collect(),
            penalties: Mutex::new(PenaltyBox::default()),
            created_total: AtomicU64::new(0),
            evicted_total: AtomicU64::new(0),
        }
    }

    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Which shard a flow hashes to. FNV-1a over the canonical key, so
    /// both directions of a flow land on the same shard and the mapping is
    /// stable across runs and platforms (no `RandomState`).
    pub fn shard_index(&self, key: FlowKey) -> usize {
        let k = key.canonical();
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |b: u8| {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        };
        for b in k.src.octets() {
            eat(b);
        }
        for b in k.src_port.to_be_bytes() {
            eat(b);
        }
        for b in k.dst.octets() {
            eat(b);
        }
        for b in k.dst_port.to_be_bytes() {
            eat(b);
        }
        eat(k.protocol);
        (h % self.shards.len() as u64) as usize
    }

    /// Lock the shard owning `key`. The guard derefs to the plain
    /// [`FlowTable`]; on drop it folds the shard's lifetime-counter deltas
    /// into the cross-shard totals.
    pub fn shard(&self, key: FlowKey) -> ShardGuard<'_> {
        self.shard_at(self.shard_index(key))
    }

    /// Lock shard `idx` directly (tests and cross-shard walks).
    pub fn shard_at(&self, idx: usize) -> ShardGuard<'_> {
        let table = self.shards[idx].lock();
        ShardGuard {
            created_at_acquire: table.created_total,
            evicted_at_acquire: table.evicted_total,
            table,
            created_total: &self.created_total,
            evicted_total: &self.evicted_total,
        }
    }

    /// Record a blocked flow in the cross-shard penalty box. Safe to call
    /// while holding a shard guard (penalty-after-shard is the declared
    /// order); the lock is released before returning.
    pub fn record_blocked_flow(
        &self,
        server: Ipv4Addr,
        port: u16,
        now: SimTime,
        threshold: u32,
        penalty: Duration,
    ) -> bool {
        self.penalties
            .lock()
            .record_blocked_flow(server, port, now, threshold, penalty)
    }

    /// Whether (server, port) is currently under penalty blocking,
    /// regardless of which shard the asking flow hashes to.
    pub fn is_penalized(&self, server: Ipv4Addr, port: u16, now: SimTime) -> bool {
        self.penalties.lock().is_penalized(server, port, now)
    }

    /// Lifetime flow creations across all shards, as of the last guard
    /// drop. Monotonic; never reset.
    pub fn created_total(&self) -> u64 {
        self.created_total.load(Ordering::Relaxed)
    }

    /// Lifetime evictions across all shards, as of the last guard drop.
    pub fn evicted_total(&self) -> u64 {
        self.evicted_total.load(Ordering::Relaxed)
    }

    /// Live entries across all shards. Takes each shard lock transiently,
    /// one at a time.
    pub fn live_flow_count(&self) -> usize {
        self.shards.iter().map(|s| s.lock().live_flow_count()).sum()
    }

    /// Forget live flows on every shard but keep the penalty box — the
    /// sharded analogue of [`FlowTable::clear_flows`].
    pub fn clear_flows(&self) {
        for s in self.shards.iter() {
            s.lock().clear_flows();
        }
    }

    /// Batch-reclaim expired flows on every shard: **one lock acquisition
    /// per shard** regardless of how many flows die, where the lazy path
    /// pays one acquisition per future lookup — and a wave's abandoned
    /// probe flows are never looked up again, so without this they linger
    /// until the next experiment reset. The deployment pool runs this
    /// between waves, when its workers are quiescent; each shard's
    /// scanned-byte samples are drained in the same critical section so
    /// the caller can feed the bytes-scanned histogram in one batch.
    pub fn drain_expired(
        &self,
        now: SimTime,
        config: &FlowConfig,
        load: Option<&TimeOfDayLoad>,
    ) -> DrainBatch {
        let mut batch = DrainBatch::default();
        for idx in 0..self.shards.len() {
            let mut shard = self.shard_at(idx);
            batch.evicted += shard.sweep_expired(now, config, load);
            batch.scanned.extend(shard.drain_evicted_scanned());
        }
        batch
    }

    /// Full between-experiment reset: every shard's flows *and* the
    /// cross-shard penalty box. With a pooled table this wipes state for
    /// every session sharing the `Arc`, so workers must be quiescent.
    /// Lifetime counters are preserved.
    pub fn reset_all(&self) {
        for s in self.shards.iter() {
            s.lock().reset_all();
        }
        self.penalties.lock().clear();
    }
}

/// Everything one [`ShardedFlowTable::drain_expired`] sweep reclaimed,
/// batched across shards so the holder journals it in one pass.
#[derive(Debug, Default)]
pub struct DrainBatch {
    /// Flows evicted across all shards.
    pub evicted: u64,
    /// Scanned-byte figures of the evicted flows (plus any samples a
    /// prior holder left pending), for the bytes-scanned histogram. In
    /// shard order, canonical-key order within a shard — deterministic
    /// for a fixed seed.
    pub scanned: Vec<u64>,
}

/// A locked shard. Dereferences to the inner [`FlowTable`]; callers that
/// attribute flow churn to a specific device (the observability layer
/// journals per-device deltas) read [`ShardGuard::deltas`] before drop.
pub struct ShardGuard<'a> {
    table: MutexGuard<'a, FlowTable>,
    created_at_acquire: u64,
    evicted_at_acquire: u64,
    created_total: &'a AtomicU64,
    evicted_total: &'a AtomicU64,
}

impl ShardGuard<'_> {
    /// (flows created, flows evicted) on this shard since the guard was
    /// acquired — i.e. by the holder itself.
    pub fn deltas(&self) -> (u64, u64) {
        (
            self.table.created_total - self.created_at_acquire,
            self.table.evicted_total - self.evicted_at_acquire,
        )
    }
}

impl Deref for ShardGuard<'_> {
    type Target = FlowTable;
    fn deref(&self) -> &FlowTable {
        &self.table
    }
}

impl DerefMut for ShardGuard<'_> {
    fn deref_mut(&mut self) -> &mut FlowTable {
        &mut self.table
    }
}

impl Drop for ShardGuard<'_> {
    fn drop(&mut self) {
        let (created, evicted) = self.deltas();
        if created > 0 {
            self.created_total.fetch_add(created, Ordering::Relaxed);
        }
        if evicted > 0 {
            self.evicted_total.fetch_add(evicted, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inspect::{FlowConfig, RstEffect};

    fn key_with_client_port(port: u16) -> FlowKey {
        FlowKey::new(
            Ipv4Addr::new(10, 0, 0, 2),
            Ipv4Addr::new(203, 0, 113, 10),
            port,
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

    /// Two same-(server, port) flows whose keys hash to *different* shards.
    fn cross_shard_keys(table: &ShardedFlowTable) -> (FlowKey, FlowKey) {
        let a = key_with_client_port(42_000);
        let shard_a = table.shard_index(a);
        for port in 42_001..52_000 {
            let b = key_with_client_port(port);
            if table.shard_index(b) != shard_a {
                return (a, b);
            }
        }
        unreachable!("FNV cannot map 10k keys to one shard")
    }

    #[test]
    fn shard_index_is_direction_independent() {
        let table = ShardedFlowTable::new(8);
        let k = key_with_client_port(42_000);
        assert_eq!(table.shard_index(k), table.shard_index(k.reverse()));
    }

    #[test]
    fn cross_shard_penalty_box() {
        // Satellite: a blocked flow on shard A must penalize the
        // (server, port) pair as seen by a flow hashed to shard B.
        let table = ShardedFlowTable::new(8);
        let (a, b) = cross_shard_keys(&table);
        assert_ne!(table.shard_index(a), table.shard_index(b));
        let server = a.dst;
        let now = SimTime::from_secs(50);

        // Create both flows on their own shards.
        table.shard(a).create(a, SimTime::ZERO, 4096);
        table.shard(b).create(b, SimTime::ZERO, 4096);

        // Strikes earned while processing flow A (threshold 2, GFC-style).
        let penalty = Duration::from_secs(90);
        assert!(!table.record_blocked_flow(server, 80, now, 2, penalty));
        assert!(table.record_blocked_flow(server, 80, now, 2, penalty));

        // Flow B's shard never saw a strike, yet the pair is penalized
        // from its vantage point too.
        assert!(table.is_penalized(server, 80, now));
        assert!(!table.is_penalized(server, 8080, now));
        assert!(!table.is_penalized(server, 80, now + Duration::from_secs(91)));
    }

    #[test]
    fn eviction_count_parity_with_unsharded_table() {
        // Satellite: the same operation sequence drives a plain FlowTable
        // and an 8-shard table to identical lifetime totals.
        let mut flat = FlowTable::default();
        let sharded = ShardedFlowTable::new(8);
        let cfg = config();

        for i in 0..32u16 {
            let k = key_with_client_port(42_000 + i);
            flat.create(k, SimTime::ZERO, 4096);
            sharded.shard(k).create(k, SimTime::ZERO, 4096);
            if i % 3 == 0 {
                // RST before match flushes: one eviction.
                assert!(flat.apply_rst(k, &cfg));
                assert!(sharded.shard(k).apply_rst(k, &cfg));
            } else if i % 3 == 1 {
                // Idle past the tracking timeout: lazy eviction on lookup.
                assert!(flat
                    .lookup(k, SimTime::from_secs(500), &cfg, None)
                    .is_none());
                assert!(sharded
                    .shard(k)
                    .lookup(k, SimTime::from_secs(500), &cfg, None)
                    .is_none());
            }
        }

        assert_eq!(sharded.created_total(), flat.created_total);
        assert_eq!(sharded.evicted_total(), flat.evicted_total);
        assert_eq!(sharded.live_flow_count(), flat.live_flow_count());
    }

    #[test]
    fn guard_deltas_attribute_churn_to_the_holder() {
        let table = ShardedFlowTable::new(4);
        let k = key_with_client_port(42_000);
        let mut guard = table.shard(k);
        guard.create(k, SimTime::ZERO, 4096);
        assert_eq!(guard.deltas(), (1, 0));
        drop(guard);
        assert_eq!(table.created_total(), 1);
        // A fresh guard starts from a zero baseline.
        let guard = table.shard(k);
        assert_eq!(guard.deltas(), (0, 0));
    }

    #[test]
    fn drain_expired_matches_lazy_eviction() {
        // The batched sweep must evict exactly the flows per-lookup lazy
        // expiry would have, with identical lifetime totals.
        let cfg = config();
        let lazy = ShardedFlowTable::new(8);
        let batched = ShardedFlowTable::new(8);
        for i in 0..24u16 {
            let k = key_with_client_port(42_000 + i);
            // Flows 0..8 idle from t=0 (expired at t=500); the rest stay
            // fresh at t=450 and must survive.
            let born = if i < 8 {
                SimTime::ZERO
            } else {
                SimTime::from_secs(450)
            };
            lazy.shard(k).create(k, born, 4096);
            batched.shard(k).create(k, born, 4096);
        }

        let now = SimTime::from_secs(500);
        let report = batched.drain_expired(now, &cfg, None);
        assert_eq!(report.evicted, 8);
        assert_eq!(report.scanned.len(), 8, "each eviction yields a sample");

        for i in 0..24u16 {
            let k = key_with_client_port(42_000 + i);
            lazy.shard(k).lookup(k, now, &cfg, None);
        }
        assert_eq!(batched.evicted_total(), lazy.evicted_total());
        assert_eq!(batched.live_flow_count(), lazy.live_flow_count());
        assert_eq!(batched.live_flow_count(), 16);

        // Nothing newly idle: a second sweep is a no-op.
        assert_eq!(batched.drain_expired(now, &cfg, None).evicted, 0);
    }

    #[test]
    fn reset_all_clears_flows_and_penalties_but_not_totals() {
        let table = ShardedFlowTable::new(4);
        let k = key_with_client_port(42_000);
        table.shard(k).create(k, SimTime::ZERO, 4096);
        let now = SimTime::from_secs(10);
        table.record_blocked_flow(k.dst, 80, now, 1, Duration::from_secs(60));
        assert!(table.is_penalized(k.dst, 80, now));

        table.clear_flows();
        assert_eq!(table.live_flow_count(), 0);
        assert!(
            table.is_penalized(k.dst, 80, now),
            "clear_flows keeps penalties"
        );

        table.reset_all();
        assert!(!table.is_penalized(k.dst, 80, now));
        assert_eq!(table.created_total(), 1, "lifetime totals survive reset");
    }
}
