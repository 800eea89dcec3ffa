//! Shared characterization results (§4.2): "An alternative approach to
//! reduce runtimes is to distribute disjoint subsets of the tests among
//! multiple users in the same network, and aggregate the results. These
//! test results can be stored in a well known public location (e.g., a
//! server or a DHT) so that all users can identify the matching rules
//! without running additional tests."
//!
//! We model the public store as a serde-serializable [`RuleCache`] keyed
//! by (network, application). The paper also notes the drawback — an
//! adversary who reads the cache learns the detected rules — which is why
//! entries record *when* they were learned so stale entries can be
//! re-verified cheaply (one replay) instead of re-characterized (~70).

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

use liberate_substrate::Substrate;
use liberate_traces::recorded::{RecordedTrace, Sender};

use crate::characterize::{Characterization, MatchingField, PositionProfile};
use crate::detect::{inverted_trace, probe, Signal};
use crate::replay::{ReplayOpts, Session};

/// A serializable description of the signal the contributor used, so a
/// reusing client can reconstruct an equivalent [`Signal`] (the throttling
/// variant re-measures its control locally).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CachedSignal {
    Blocking,
    ZeroRating,
    Readout,
    Throttling,
}

impl CachedSignal {
    pub fn from_signal(signal: &Signal) -> CachedSignal {
        match signal {
            Signal::Blocking => CachedSignal::Blocking,
            Signal::ZeroRating => CachedSignal::ZeroRating,
            Signal::Readout => CachedSignal::Readout,
            Signal::Throttling { .. } => CachedSignal::Throttling,
        }
    }

    /// Reconstruct a usable signal, measuring a local throttling control
    /// when needed.
    pub fn to_signal<S: Substrate>(
        self,
        session: &mut Session<S>,
        trace: &liberate_traces::recorded::RecordedTrace,
    ) -> Signal {
        match self {
            CachedSignal::Blocking => Signal::Blocking,
            CachedSignal::ZeroRating => Signal::ZeroRating,
            CachedSignal::Readout => Signal::Readout,
            CachedSignal::Throttling => {
                let control = session.replay_trace(&inverted_trace(trace), &ReplayOpts::default());
                Signal::Throttling {
                    control_bps: control.avg_bps,
                    ratio: session.config.throttle_ratio,
                }
            }
        }
    }
}

/// A cacheable, serializable summary of one characterization.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CachedRules {
    /// Matching fields as (message index, start, end) plus the bytes.
    pub fields: Vec<CachedField>,
    pub prepend_break: Option<usize>,
    pub packet_based: bool,
    pub matches_all_packets: bool,
    /// Simulated time (seconds since epoch of the contributing session)
    /// at which these rules were learned.
    pub learned_at_secs: u64,
    /// How many replay rounds the contributor spent — what the next user
    /// saves.
    pub rounds_spent: u64,
    /// The signal the contributor observed classification with.
    pub signal: CachedSignal,
}

#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CachedField {
    pub message: usize,
    pub start: usize,
    pub end: usize,
    pub bytes: Vec<u8>,
}

impl CachedRules {
    pub fn from_characterization(c: &Characterization, learned_at_secs: u64) -> CachedRules {
        CachedRules::from_characterization_with_signal(c, learned_at_secs, CachedSignal::Blocking)
    }

    pub fn from_characterization_with_signal(
        c: &Characterization,
        learned_at_secs: u64,
        signal: CachedSignal,
    ) -> CachedRules {
        CachedRules {
            fields: c
                .fields
                .iter()
                .map(|f| CachedField {
                    message: f.message,
                    start: f.range.start,
                    end: f.range.end,
                    bytes: f.bytes.clone(),
                })
                .collect(),
            prepend_break: c.position.prepend_break,
            packet_based: c.position.packet_based,
            matches_all_packets: c.position.matches_all_packets,
            learned_at_secs,
            rounds_spent: c.rounds,
            signal,
        }
    }

    /// Reconstitute a [`Characterization`] usable by the evaluation and
    /// deployment phases (cost fields are zero: the cache paid them).
    pub fn to_characterization(&self, trace: &RecordedTrace) -> Characterization {
        Characterization {
            fields: self
                .fields
                .iter()
                .map(|f| MatchingField {
                    message: f.message,
                    sender: trace
                        .messages
                        .get(f.message)
                        .map(|m| m.sender)
                        .unwrap_or(Sender::Client),
                    range: f.start..f.end,
                    bytes: f.bytes.clone(),
                })
                .collect(),
            position: PositionProfile {
                prepend_break: self.prepend_break,
                packet_based: self.packet_based,
                matches_all_packets: self.matches_all_packets,
            },
            rounds: 0,
            bytes_sent: 0,
            bytes_received: 0,
            elapsed: std::time::Duration::ZERO,
        }
    }
}

/// The "well known public location": a map from (network name, app name)
/// to shared rules, serializable for distribution.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct RuleCache {
    entries: HashMap<String, CachedRules>,
}

fn key(network: &str, app: &str) -> String {
    format!("{network}/{app}")
}

impl RuleCache {
    pub fn new() -> RuleCache {
        RuleCache::default()
    }

    pub fn publish(&mut self, network: &str, app: &str, rules: CachedRules) {
        self.entries.insert(key(network, app), rules);
    }

    pub fn lookup(&self, network: &str, app: &str) -> Option<&CachedRules> {
        self.entries.get(&key(network, app))
    }

    /// [`RuleCache::lookup`] variant that records the hit or miss in an
    /// observability journal, so cache effectiveness shows up in traces.
    pub fn lookup_observed(
        &self,
        network: &str,
        app: &str,
        journal: &liberate_obs::Journal,
        t_us: u64,
    ) -> Option<&CachedRules> {
        let k = key(network, app);
        let found = self.entries.get(&k);
        if found.is_some() {
            journal.metrics.incr(liberate_obs::Counter::CacheHits);
            journal.record(t_us, liberate_obs::EventKind::CacheHit { key: k });
        } else {
            journal.metrics.incr(liberate_obs::Counter::CacheMisses);
            journal.record(t_us, liberate_obs::EventKind::CacheMiss { key: k });
        }
        found
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Cheap freshness check: blind each cached field *individually* and
    /// replay. Fresh iff every such blinding stops classification — if
    /// some field no longer matters (a new rule matches elsewhere), the
    /// entry is stale and full characterization must rerun. Costs one
    /// round per cached field (a handful) instead of the contributor's
    /// `rounds_spent` (~70).
    ///
    /// Per-field blinding matters: blinding all fields at once would also
    /// blind protocol-anchoring bytes like `GET `, which stops *any*
    /// gated rule and would mask a rule change.
    pub fn verify<S: Substrate>(
        &self,
        network: &str,
        app: &str,
        session: &mut Session<S>,
        trace: &RecordedTrace,
        signal: &Signal,
    ) -> Option<bool> {
        let cached = self.lookup(network, app)?;
        for f in &cached.fields {
            let mut blinded = trace.clone();
            if let Some(msg) = blinded.messages.get_mut(f.message) {
                liberate_packet::mutate::invert_range(&mut msg.payload, f.start..f.end);
            }
            let (_, still_classified) = probe(session, &blinded, &ReplayOpts::default(), signal);
            if still_classified {
                return Some(false); // this field no longer gates the rule
            }
        }
        Some(true)
    }
}

/// A [`RuleCache`] handle shared between concurrent users — the paper's
/// "well known public location" when several sessions on one network hit
/// it at once. Reads clone the current `Arc<RuleCache>` out under the
/// lock and release it before doing any work, so nothing is held across
/// a replay. Publishes are copy-on-write (`Arc::make_mut` under the
/// lock): the store is copied only while a reader still holds the old
/// snapshot, and that reader keeps seeing the store it took. Cloning the
/// handle shares the same underlying store.
#[derive(Debug, Clone, Default)]
pub struct SharedRuleCache {
    inner: Arc<Mutex<Arc<RuleCache>>>,
}

impl SharedRuleCache {
    pub fn new() -> SharedRuleCache {
        SharedRuleCache::default()
    }

    /// Wrap an existing cache (e.g. one deserialized from the public
    /// store) for concurrent use.
    pub fn from_cache(cache: RuleCache) -> SharedRuleCache {
        SharedRuleCache {
            inner: Arc::new(Mutex::new(Arc::new(cache))),
        }
    }

    /// The current store; the lock is released before the caller reads it.
    fn current(&self) -> Arc<RuleCache> {
        Arc::clone(&self.inner.lock())
    }

    pub fn publish(&self, network: &str, app: &str, rules: CachedRules) {
        let mut store = self.inner.lock();
        Arc::make_mut(&mut store).publish(network, app, rules);
    }

    pub fn lookup(&self, network: &str, app: &str) -> Option<CachedRules> {
        self.current().lookup(network, app).cloned()
    }

    /// [`SharedRuleCache::lookup`] that journals the hit or miss.
    pub fn lookup_observed(
        &self,
        network: &str,
        app: &str,
        journal: &liberate_obs::Journal,
        t_us: u64,
    ) -> Option<CachedRules> {
        self.current()
            .lookup_observed(network, app, journal, t_us)
            .cloned()
    }

    pub fn len(&self) -> usize {
        self.current().len()
    }

    pub fn is_empty(&self) -> bool {
        self.current().is_empty()
    }

    /// An owned copy of the current store, for redistribution.
    pub fn snapshot(&self) -> RuleCache {
        RuleCache::clone(&self.current())
    }

    /// [`RuleCache::verify`] against the store current at the call: the
    /// verification replays run without holding the lock (another user
    /// may publish meanwhile — the caller sees the entry it verified, not
    /// the concurrent update).
    pub fn verify<S: Substrate>(
        &self,
        network: &str,
        app: &str,
        session: &mut Session<S>,
        trace: &RecordedTrace,
        signal: &Signal,
    ) -> Option<bool> {
        self.current().verify(network, app, session, trace, signal)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::characterize::{characterize, CharacterizeOpts};
    use crate::config::LiberateConfig;
    use crate::sim::OsKind;
    use liberate_dpi::profiles::EnvKind;
    use liberate_traces::apps;

    #[test]
    fn second_user_skips_characterization() {
        let trace = apps::amazon_prime_http(30_000);
        let mut cache = RuleCache::new();

        // User A pays the characterization cost and publishes.
        let mut a = Session::new(EnvKind::Testbed, OsKind::Linux, LiberateConfig::default());
        let c = characterize(
            &mut a,
            &trace,
            &Signal::Readout,
            &CharacterizeOpts::default(),
        );
        assert!(c.rounds > 10);
        cache.publish(
            "testbed",
            &trace.app,
            CachedRules::from_characterization(&c, 0),
        );

        // User B verifies with ONE replay and reuses the fields.
        let mut b = Session::new(EnvKind::Testbed, OsKind::Linux, LiberateConfig::default());
        let fresh = cache
            .verify("testbed", &trace.app, &mut b, &trace, &Signal::Readout)
            .expect("entry exists");
        assert!(fresh, "rules have not changed");
        let fields = cache.lookup("testbed", &trace.app).unwrap().fields.len() as u64;
        assert_eq!(b.replays, fields, "verification costs one round per field");
        assert!(fields < c.rounds / 5, "far cheaper than re-characterizing");

        let reused = cache
            .lookup("testbed", &trace.app)
            .unwrap()
            .to_characterization(&trace);
        assert_eq!(reused.fields.len(), c.fields.len());
        assert_eq!(reused.position, c.position);
        assert_eq!(reused.rounds, 0, "no rounds spent by the reuser");
    }

    #[test]
    fn stale_entries_detected_in_one_round() {
        let trace = apps::amazon_prime_http(30_000);
        let mut cache = RuleCache::new();

        let mut a = Session::new(EnvKind::Testbed, OsKind::Linux, LiberateConfig::default());
        let c = characterize(
            &mut a,
            &trace,
            &Signal::Readout,
            &CharacterizeOpts::default(),
        );
        cache.publish(
            "testbed",
            &trace.app,
            CachedRules::from_characterization(&c, 0),
        );

        // The operator swaps the rule to match the User-Agent instead of
        // the Host header.
        let mut b = Session::new(EnvKind::Testbed, OsKind::Linux, LiberateConfig::default());
        {
            let dpi = b.env.dpi_mut().unwrap();
            dpi.config.rules =
                liberate_dpi::rules::RuleSet::new(vec![liberate_dpi::rules::MatchRule::keyword(
                    "ua",
                    "video",
                    &b"AmazonPrimeVideo"[..],
                )
                .client_only()]);
        }
        let fresh = cache
            .verify("testbed", &trace.app, &mut b, &trace, &Signal::Readout)
            .unwrap();
        assert!(
            !fresh,
            "blinding the old fields no longer stops classification"
        );
        assert!(b.replays <= 4, "staleness detected within a few rounds");
    }

    #[test]
    fn missing_entries_are_none() {
        let cache = RuleCache::new();
        assert!(cache.lookup("nowhere", "nothing").is_none());
        assert!(cache.is_empty());
    }
}
