//! Hot-path counters: a fixed registry of atomics cheap enough to bump
//! from `Network::run_until`'s event loop without perturbing experiments.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::hist::{Hist, HistSnapshot, Histogram};

/// Every counter the pipeline maintains. The numeric discriminant indexes
/// the atomic array in [`Metrics`]; `ALL` fixes the export order so JSONL
/// journals are byte-stable across runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Counter {
    /// Simulator events dispatched by `netsim::Network::run_until`.
    PacketsStepped,
    /// Client packets entering the network via `send_from_client`.
    PacketsInjected,
    /// Flow-table entries created by the DPI device.
    FlowsCreated,
    /// Flow-table entries evicted (timeout expiry or RST flush).
    FlowsEvicted,
    /// Replays executed by `Session::replay_schedule`.
    ReplaysExecuted,
    /// Payload bytes blinded during characterization probes.
    BytesBlinded,
    /// Schedule steps lowered to wire activity during replay.
    StepsLowered,
    /// Rule-cache lookups that found an entry.
    CacheHits,
    /// Rule-cache lookups that missed.
    CacheMisses,
    /// Classification verdicts emitted by the DPI device.
    Verdicts,
    /// Client RSTs that changed DPI flow state.
    FlowResets,
    /// Evasion techniques attempted during evaluation.
    TechniquesTried,
    /// Payload bytes the DPI matcher actually examined. The naive rescan
    /// model pays per applicable rule per (re)scan; the compiled automaton
    /// pays once per stream byte (plus refeeds after an overlap rewrite).
    MatcherBytesScanned,
    /// States in compiled rule automata (added once per lazy compile).
    AutomatonStates,
    /// Live application flows driven by `DeploymentPool::run_flows`.
    DeployFlows,
    /// Re-characterization waves the deployment pool has run (one per
    /// acknowledged classifier change, regardless of worker count).
    RecharacterizeWaves,
    /// Flows parked on a fallback-ladder technique after the published
    /// technique burned mid-wave.
    FallbackParks,
    /// Rule-set hot swaps applied to a DPI device mid-deployment.
    RuleSwaps,
    /// Deep copies of wire/payload buffers on the packet hot path
    /// (copy-on-write faults and the few remaining sanctioned copies).
    /// Paired with [`Counter::PayloadBytesCopied`] for volume.
    PayloadCopies,
    /// Bytes materialized by those payload copies.
    PayloadBytesCopied,
    /// Scheduler iterations of the event-driven replay reactor (one per
    /// task poll or timer-queue advance).
    ReactorTicks,
    /// Flow tasks admitted into a reactor's ready queue.
    ReactorTasksAdmitted,
    /// Timer-queue entries fired by the reactor.
    ReactorTimerFires,
    /// Flow tasks whose poll panicked and was contained by the reactor.
    ReactorTaskPanics,
}

impl Counter {
    pub const ALL: [Counter; 24] = [
        Counter::PacketsStepped,
        Counter::PacketsInjected,
        Counter::FlowsCreated,
        Counter::FlowsEvicted,
        Counter::ReplaysExecuted,
        Counter::BytesBlinded,
        Counter::StepsLowered,
        Counter::CacheHits,
        Counter::CacheMisses,
        Counter::Verdicts,
        Counter::FlowResets,
        Counter::TechniquesTried,
        Counter::MatcherBytesScanned,
        Counter::AutomatonStates,
        Counter::DeployFlows,
        Counter::RecharacterizeWaves,
        Counter::FallbackParks,
        Counter::RuleSwaps,
        Counter::PayloadCopies,
        Counter::PayloadBytesCopied,
        Counter::ReactorTicks,
        Counter::ReactorTasksAdmitted,
        Counter::ReactorTimerFires,
        Counter::ReactorTaskPanics,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Counter::PacketsStepped => "packets-stepped",
            Counter::PacketsInjected => "packets-injected",
            Counter::FlowsCreated => "flows-created",
            Counter::FlowsEvicted => "flows-evicted",
            Counter::ReplaysExecuted => "replays-executed",
            Counter::BytesBlinded => "bytes-blinded",
            Counter::StepsLowered => "steps-lowered",
            Counter::CacheHits => "cache-hits",
            Counter::CacheMisses => "cache-misses",
            Counter::Verdicts => "verdicts",
            Counter::FlowResets => "flow-resets",
            Counter::TechniquesTried => "techniques-tried",
            Counter::MatcherBytesScanned => "matcher-bytes-scanned",
            Counter::AutomatonStates => "automaton-states",
            Counter::DeployFlows => "deploy-flows",
            Counter::RecharacterizeWaves => "recharacterize-waves",
            Counter::FallbackParks => "fallback-parks",
            Counter::RuleSwaps => "rule-swaps",
            Counter::PayloadCopies => "payload-copies",
            Counter::PayloadBytesCopied => "payload-bytes-copied",
            Counter::ReactorTicks => "reactor-ticks",
            Counter::ReactorTasksAdmitted => "reactor-tasks-admitted",
            Counter::ReactorTimerFires => "reactor-timer-fires",
            Counter::ReactorTaskPanics => "reactor-task-panics",
        }
    }
}

/// The counter registry. Shared behind the `Arc<Journal>` that rides on
/// `Environment`/`Session`; increments are relaxed atomics because all
/// counters are independent and only read after the run quiesces.
///
/// The histogram table is allocated on first sample: at ~1000 buckets
/// per histogram it is ~100 KiB of real memory, and a reactor wave
/// carries one `Metrics` per in-flight lane — a 100k-flow wave must not
/// pay 100 KiB per lane for tables the disabled lane journals never
/// touch (`Journal::observe` gates samples on the enabled flag).
#[derive(Debug, Default)]
pub struct Metrics {
    counters: [AtomicU64; Counter::ALL.len()],
    hists: std::sync::OnceLock<std::sync::Arc<[Histogram]>>,
}

impl Metrics {
    pub fn new() -> Metrics {
        Metrics::default()
    }

    fn hist_table(&self) -> &std::sync::Arc<[Histogram]> {
        self.hists
            .get_or_init(|| (0..Hist::ALL.len()).map(|_| Histogram::default()).collect())
    }

    /// A registry with its own counters whose histograms are `parent`'s
    /// table: samples land there directly, and merging the two is a
    /// no-op. Bucket-wise sums are order-independent, so recording in
    /// place equals merging later, without a table per registry.
    pub fn sharing_hists(parent: &Metrics) -> Metrics {
        let m = Metrics::default();
        let _ = m.hists.set(std::sync::Arc::clone(parent.hist_table()));
        m
    }

    pub fn incr(&self, c: Counter) {
        self.add(c, 1);
    }

    pub fn add(&self, c: Counter, n: u64) {
        self.counters[c as usize].fetch_add(n, Ordering::Relaxed);
    }

    pub fn get(&self, c: Counter) -> u64 {
        self.counters[c as usize].load(Ordering::Relaxed)
    }

    /// All counters in `Counter::ALL` order.
    pub fn snapshot(&self) -> Vec<(Counter, u64)> {
        Counter::ALL.iter().map(|&c| (c, self.get(c))).collect()
    }

    /// Record one sample into a histogram.
    pub fn observe(&self, h: Hist, v: u64) {
        self.hist_table()[h as usize].record(v);
    }

    pub fn hist(&self, h: Hist) -> &Histogram {
        &self.hist_table()[h as usize]
    }

    /// All histograms in `Hist::ALL` order, mirroring [`Self::snapshot`]
    /// so exports stay byte-identical across platforms. A registry that
    /// never recorded a sample snapshots as all-empty without allocating
    /// its table.
    pub fn hist_snapshot(&self) -> Vec<(Hist, HistSnapshot)> {
        match self.hists.get() {
            Some(table) => Hist::ALL
                .iter()
                .map(|&h| (h, table[h as usize].snapshot()))
                .collect(),
            None => Hist::ALL
                .iter()
                .map(|&h| (h, HistSnapshot::default()))
                .collect(),
        }
    }

    /// Fold another registry's histograms into this one (bucket-wise
    /// addition; see `Histogram::merge`). Counters are merged separately
    /// by `Journal::absorb_worker`.
    pub fn merge_hists(&self, other: &Metrics) {
        let Some(theirs) = other.hists.get() else {
            return;
        };
        let mine = self.hist_table();
        if std::sync::Arc::ptr_eq(mine, theirs) {
            return;
        }
        for h in Hist::ALL {
            let hist = &theirs[h as usize];
            if !hist.is_empty() {
                mine[h as usize].merge(hist);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn incr_add_get_roundtrip() {
        let m = Metrics::new();
        m.incr(Counter::PacketsStepped);
        m.incr(Counter::PacketsStepped);
        m.add(Counter::BytesBlinded, 40);
        assert_eq!(m.get(Counter::PacketsStepped), 2);
        assert_eq!(m.get(Counter::BytesBlinded), 40);
        assert_eq!(m.get(Counter::CacheHits), 0);
    }

    #[test]
    fn snapshot_follows_declared_order() {
        let m = Metrics::new();
        m.incr(Counter::Verdicts);
        let snap = m.snapshot();
        assert_eq!(snap.len(), Counter::ALL.len());
        for (i, (c, _)) in snap.iter().enumerate() {
            assert_eq!(*c, Counter::ALL[i]);
        }
        assert_eq!(snap[Counter::Verdicts as usize].1, 1);
    }

    #[test]
    fn hist_snapshot_follows_declared_order() {
        let m = Metrics::new();
        m.observe(Hist::BlindRounds, 7);
        let snap = m.hist_snapshot();
        assert_eq!(snap.len(), Hist::ALL.len());
        for (i, (h, _)) in snap.iter().enumerate() {
            assert_eq!(*h, Hist::ALL[i]);
        }
        assert_eq!(snap[Hist::BlindRounds as usize].1.count, 1);
        assert_eq!(snap[Hist::BlindRounds as usize].1.sum, 7);
    }

    #[test]
    fn merge_hists_sums_bucketwise() {
        let a = Metrics::new();
        let b = Metrics::new();
        a.observe(Hist::WaveOccupancy, 2);
        b.observe(Hist::WaveOccupancy, 2);
        b.observe(Hist::WaveOccupancy, 9);
        a.merge_hists(&b);
        let snap = a.hist(Hist::WaveOccupancy).snapshot();
        assert_eq!(snap.count, 3);
        assert_eq!(snap.max, 9);
    }

    #[test]
    fn names_are_unique_and_kebab() {
        let mut names: Vec<_> = Counter::ALL.iter().map(|c| c.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Counter::ALL.len());
        for n in names {
            assert!(n.chars().all(|c| c.is_ascii_lowercase() || c == '-'), "{n}");
        }
    }
}
