//! Log-linear latency histograms: distribution-aware measurement for the
//! profiling layer.
//!
//! The Wehe line of work shows differentiation claims stand or fall on
//! distributions, not means, and the ROADMAP's hot-path questions ("why
//! does host_cpu_ms grow with worker count?") need quantiles to answer.
//! This is an HDR-style histogram with no dependencies: values bucket
//! into powers of two subdivided into 16 linear sub-buckets, giving a
//! worst-case relative error of 1/16 ≈ 6% across the full `u64` range
//! with a fixed 976-slot table. Buckets are relaxed atomics so hot paths
//! can record without locking; merges add bucket-wise and are therefore
//! deterministic regardless of interleaving.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::journal::Phase;

/// Linear sub-buckets per power of two (the "significant figures" knob).
const SUB: u64 = 16;
const SUB_BITS: u32 = 4;

/// Total bucket count: 16 unit buckets for 0..16, then 16 sub-buckets
/// for each of the 60 octaves [2^4, 2^64).
pub const NUM_BUCKETS: usize = (SUB + 60 * SUB) as usize;

/// Bucket index for a value. Values below `SUB` get exact unit buckets;
/// above, the top `SUB_BITS+1` significant bits pick the slot.
pub fn bucket_of(v: u64) -> usize {
    if v < SUB {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros();
    let shift = msb - SUB_BITS;
    let sub = (v >> shift) - SUB;
    (shift as u64 * SUB + SUB + sub) as usize
}

/// Inclusive lower bound of a bucket — the deterministic representative
/// value reported for quantiles that land in it.
pub fn bucket_low(index: usize) -> u64 {
    let i = index as u64;
    if i < SUB {
        return i;
    }
    let shift = (i - SUB) / SUB;
    let sub = (i - SUB) % SUB;
    (SUB + sub) << shift
}

/// A point-in-time copy of one histogram, in export form: sparse
/// `(bucket index, count)` pairs in ascending index order plus the exact
/// count/sum/max. Two histograms fed the same values snapshot
/// identically, so snapshots are safe to pin byte-for-byte.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HistSnapshot {
    pub count: u64,
    pub sum: u64,
    pub max: u64,
    pub buckets: Vec<(u32, u64)>,
}

impl HistSnapshot {
    /// Value at quantile `q` in `[0, 1]`: the lower bound of the bucket
    /// holding the `ceil(q * count)`-th recorded value, clamped to the
    /// exact max. Returns 0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for &(idx, n) in &self.buckets {
            seen += n;
            if seen >= rank {
                return bucket_low(idx as usize).min(self.max);
            }
        }
        self.max
    }

    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// The live histogram: a fixed table of relaxed atomic buckets plus
/// sum/max; the count is the buckets' total. Recording is a `fetch_add`
/// on the bucket, one on the sum, and a load of the max — cheap enough
/// for per-packet paths.
pub struct Histogram {
    buckets: [AtomicU64; NUM_BUCKETS],
    sum: AtomicU64,
    max: AtomicU64,
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count())
            .field("sum", &self.sum.load(Ordering::Relaxed))
            .field("max", &self.max.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new()
    }
}

impl Histogram {
    pub fn new() -> Histogram {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    pub fn record(&self, v: u64) {
        self.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        // Few samples raise the maximum; a plain load spares the rest the
        // compare-and-swap loop `fetch_max` compiles to.
        if v > self.max.load(Ordering::Relaxed) {
            self.max.fetch_max(v, Ordering::Relaxed);
        }
    }

    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    pub fn is_empty(&self) -> bool {
        self.count() == 0
    }

    /// Fold `other` into `self` bucket-wise. Addition commutes, so the
    /// result is independent of merge order — pool workers absorbed in
    /// any order produce the same merged snapshot.
    pub fn merge(&self, other: &Histogram) {
        for (i, b) in other.buckets.iter().enumerate() {
            let n = b.load(Ordering::Relaxed);
            if n > 0 {
                self.buckets[i].fetch_add(n, Ordering::Relaxed);
            }
        }
        self.sum.fetch_add(other.sum(), Ordering::Relaxed);
        self.max.fetch_max(other.max(), Ordering::Relaxed);
    }

    pub fn snapshot(&self) -> HistSnapshot {
        let mut buckets = Vec::new();
        for (i, b) in self.buckets.iter().enumerate() {
            let n = b.load(Ordering::Relaxed);
            if n > 0 {
                buckets.push((i as u32, n));
            }
        }
        HistSnapshot {
            count: buckets.iter().map(|&(_, n)| n).sum(),
            sum: self.sum(),
            max: self.max(),
            buckets,
        }
    }

    /// Convenience: quantile over a fresh snapshot.
    pub fn quantile(&self, q: f64) -> u64 {
        self.snapshot().quantile(q)
    }
}

/// Every histogram the pipeline maintains, mirroring [`crate::Counter`]:
/// the numeric discriminant indexes the table in `Metrics`, and `ALL`
/// fixes the export order so JSONL journals stay byte-stable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Hist {
    /// Simulated span latency per Fig. 3 phase (observed automatically
    /// when a span closes; see `Journal::span_end`).
    DetectSimMicros,
    BlindSearchSimMicros,
    PositionProbeSimMicros,
    EvaluateSimMicros,
    DeploySimMicros,
    /// Simulated latency of one pool wave bucket (`SessionPool::run_wave`).
    WaveSimMicros,
    /// Simulated latency of one replay (`Session::replay_schedule`).
    ReplaySimMicros,
    /// Host wall-clock micros per replay. The only non-deterministic
    /// histogram: excluded from JSONL export, consumed by `exp-obs`.
    ReplayHostMicros,
    /// Jobs handled by one worker bucket in one wave.
    WaveOccupancy,
    /// Payload bytes a DPI device had tracked on a flow when the flow was
    /// evicted or flushed (per-flow scan volume).
    FlowBytesScanned,
    /// Blinding rounds spent by one field characterization.
    BlindRounds,
    /// Payload bytes per client packet entering the simulated network.
    InjectBytes,
    /// Simulated micros between consecutive dispatched simulator events.
    StepSimMicros,
    /// Ready-queue depth sampled at each reactor scheduler tick.
    ReadyQueueDepth,
    /// Host wall-clock micros per reactor scheduler tick. Like
    /// [`Hist::ReplayHostMicros`], non-deterministic and excluded from
    /// JSONL export; consumed by `exp-scale`.
    ReactorTickMicros,
}

impl Hist {
    pub const ALL: [Hist; 15] = [
        Hist::DetectSimMicros,
        Hist::BlindSearchSimMicros,
        Hist::PositionProbeSimMicros,
        Hist::EvaluateSimMicros,
        Hist::DeploySimMicros,
        Hist::WaveSimMicros,
        Hist::ReplaySimMicros,
        Hist::ReplayHostMicros,
        Hist::WaveOccupancy,
        Hist::FlowBytesScanned,
        Hist::BlindRounds,
        Hist::InjectBytes,
        Hist::StepSimMicros,
        Hist::ReadyQueueDepth,
        Hist::ReactorTickMicros,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Hist::DetectSimMicros => "detect-sim-micros",
            Hist::BlindSearchSimMicros => "blind-search-sim-micros",
            Hist::PositionProbeSimMicros => "position-probe-sim-micros",
            Hist::EvaluateSimMicros => "evaluate-sim-micros",
            Hist::DeploySimMicros => "deploy-sim-micros",
            Hist::WaveSimMicros => "wave-sim-micros",
            Hist::ReplaySimMicros => "replay-sim-micros",
            Hist::ReplayHostMicros => "replay-host-micros",
            Hist::WaveOccupancy => "wave-occupancy",
            Hist::FlowBytesScanned => "flow-bytes-scanned",
            Hist::BlindRounds => "blind-rounds",
            Hist::InjectBytes => "inject-bytes",
            Hist::StepSimMicros => "step-sim-micros",
            Hist::ReadyQueueDepth => "ready-queue-depth",
            Hist::ReactorTickMicros => "reactor-tick-micros",
        }
    }

    /// The sim-latency histogram a closing span of `phase` feeds.
    pub fn for_phase(phase: Phase) -> Hist {
        match phase {
            Phase::Detect => Hist::DetectSimMicros,
            Phase::BlindSearch => Hist::BlindSearchSimMicros,
            Phase::PositionProbe => Hist::PositionProbeSimMicros,
            Phase::Evaluate => Hist::EvaluateSimMicros,
            Phase::Deploy => Hist::DeploySimMicros,
            Phase::Wave => Hist::WaveSimMicros,
            Phase::Replay => Hist::ReplaySimMicros,
        }
    }

    /// Whether the histogram's values derive only from the seed, the
    /// trace, and the simulation clock. Non-deterministic histograms
    /// (host wall-clock timings) are excluded from JSONL export so
    /// same-seed journals stay byte-identical.
    pub fn is_deterministic(self) -> bool {
        !matches!(self, Hist::ReplayHostMicros | Hist::ReactorTickMicros)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_monotone_and_invertible() {
        let mut last = None;
        for v in [0u64, 1, 15, 16, 17, 31, 32, 100, 1000, 1 << 20, u64::MAX] {
            let idx = bucket_of(v);
            assert!(idx < NUM_BUCKETS, "v={v} idx={idx}");
            assert!(bucket_low(idx) <= v, "low bound exceeds value for {v}");
            if let Some(prev) = last {
                assert!(idx >= prev, "bucket index not monotone at {v}");
            }
            last = Some(idx);
        }
        // Unit buckets below SUB are exact.
        for v in 0..16u64 {
            assert_eq!(bucket_of(v), v as usize);
            assert_eq!(bucket_low(v as usize), v);
        }
    }

    #[test]
    fn relative_error_is_bounded() {
        for v in [20u64, 100, 999, 4096, 70_000, 1 << 33] {
            let low = bucket_low(bucket_of(v));
            let err = (v - low) as f64 / v as f64;
            assert!(err < 1.0 / SUB as f64 + 1e-9, "v={v} low={low} err={err}");
        }
    }

    #[test]
    fn quantiles_walk_the_distribution() {
        let h = Histogram::new();
        for v in 1..=100u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 100);
        assert_eq!(h.sum(), 5050);
        assert_eq!(h.max(), 100);
        let p50 = h.quantile(0.50);
        let p99 = h.quantile(0.99);
        assert!((40..=50).contains(&p50), "p50={p50}");
        assert!((90..=100).contains(&p99), "p99={p99}");
        assert_eq!(h.quantile(1.0), 100);
        assert_eq!(Histogram::new().quantile(0.5), 0);
    }

    #[test]
    fn merge_is_order_independent() {
        let a = Histogram::new();
        let b = Histogram::new();
        for v in [3u64, 77, 12_000] {
            a.record(v);
        }
        for v in [9u64, 77, 5] {
            b.record(v);
        }
        let ab = Histogram::new();
        ab.merge(&a);
        ab.merge(&b);
        let ba = Histogram::new();
        ba.merge(&b);
        ba.merge(&a);
        assert_eq!(ab.snapshot(), ba.snapshot());
        assert_eq!(ab.count(), 6);
        assert_eq!(ab.max(), 12_000);
    }

    #[test]
    fn snapshot_is_sparse_and_sorted() {
        let h = Histogram::new();
        h.record(1_000_000);
        h.record(2);
        h.record(2);
        let snap = h.snapshot();
        assert_eq!(snap.buckets.len(), 2);
        assert!(snap.buckets[0].0 < snap.buckets[1].0);
        assert_eq!(snap.buckets[0], (bucket_of(2) as u32, 2));
    }

    #[test]
    fn registry_names_are_unique_and_kebab() {
        let mut names: Vec<_> = Hist::ALL.iter().map(|h| h.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Hist::ALL.len());
        for n in names {
            assert!(n.chars().all(|c| c.is_ascii_lowercase() || c == '-'), "{n}");
        }
    }

    #[test]
    fn discriminants_match_all_order() {
        for (i, h) in Hist::ALL.iter().enumerate() {
            assert_eq!(*h as usize, i);
        }
    }

    #[test]
    fn only_host_time_is_nondeterministic() {
        let nondet: Vec<_> = Hist::ALL.iter().filter(|h| !h.is_deterministic()).collect();
        assert_eq!(
            nondet,
            vec![&Hist::ReplayHostMicros, &Hist::ReactorTickMicros]
        );
    }
}
