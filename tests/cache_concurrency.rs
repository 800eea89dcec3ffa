//! Concurrency battery for the shared rule cache (§4.2's "well known
//! public location", now hit by many sessions at once): exact hit/miss
//! accounting under concurrent lookups, publish/lookup races that never
//! tear an entry, verify-against-a-snapshot semantics while publishers
//! churn, and the headline economics — two users, one characterization —
//! through one `SharedRuleCache` handle.

use std::sync::Arc;

use liberate::prelude::*;
use liberate_obs::{Counter, Journal};
use liberate_traces::apps;

fn entry(marker: u64) -> CachedRules {
    CachedRules {
        fields: vec![],
        prepend_break: None,
        packet_based: true,
        matches_all_packets: false,
        // The two marker fields must always agree; a torn read would
        // surface as a mismatched pair.
        learned_at_secs: marker,
        rounds_spent: marker,
        signal: liberate::cache::CachedSignal::Readout,
    }
}

/// Hit and miss counters stay exact when many threads share one journal:
/// N threads x M lookups each against a present and an absent key must
/// land exactly N*M hits and N*M misses, no lost updates.
#[test]
fn concurrent_lookup_counters_are_exact() {
    const THREADS: usize = 8;
    const LOOKUPS: usize = 200;

    let cache = SharedRuleCache::new();
    cache.publish("testbed", "prime", entry(1));
    let journal = Arc::new(Journal::new());

    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let cache = cache.clone();
            let journal = journal.clone();
            scope.spawn(move || {
                for i in 0..LOOKUPS {
                    let t_us = (t * LOOKUPS + i) as u64;
                    let hit = cache.lookup_observed("testbed", "prime", &journal, t_us);
                    assert!(hit.is_some());
                    let miss = cache.lookup_observed("testbed", "absent", &journal, t_us);
                    assert!(miss.is_none());
                }
            });
        }
    });

    assert_eq!(
        journal.metrics.get(Counter::CacheHits),
        (THREADS * LOOKUPS) as u64
    );
    assert_eq!(
        journal.metrics.get(Counter::CacheMisses),
        (THREADS * LOOKUPS) as u64
    );
}

/// Publish/lookup staleness race: while one thread re-publishes an entry
/// with ever-newer markers, 8 readers must only ever observe complete
/// entries (marker fields agree) with markers that never go backwards —
/// an entry is replaced atomically or not at all. Readers go through the
/// `Arc` snapshot path, so this doubles as its torn-read gate.
#[test]
fn republish_race_never_tears_an_entry() {
    const PUBLISHES: u64 = 2_000;

    let cache = SharedRuleCache::new();
    cache.publish("net", "app", entry(0));

    std::thread::scope(|scope| {
        for _ in 0..8 {
            let cache = cache.clone();
            scope.spawn(move || {
                let mut last = 0u64;
                loop {
                    let e = cache.lookup("net", "app").expect("entry never vanishes");
                    assert_eq!(
                        e.learned_at_secs, e.rounds_spent,
                        "torn entry: markers disagree"
                    );
                    assert!(
                        e.learned_at_secs >= last,
                        "entry went backwards: {} -> {}",
                        last,
                        e.learned_at_secs
                    );
                    last = e.learned_at_secs;
                    if last >= PUBLISHES {
                        break;
                    }
                }
            });
        }
        for i in 1..=PUBLISHES {
            cache.publish("net", "app", entry(i));
        }
    });
    assert_eq!(cache.len(), 1);
    assert_eq!(
        cache.snapshot().lookup("net", "app").unwrap().rounds_spent,
        PUBLISHES
    );
}

/// `SharedRuleCache::verify` runs against a point-in-time snapshot: a
/// publisher churning the store mid-verification must not panic, deadlock
/// (the lock is not held across replays), or change the verdict for the
/// entry the verifier cloned out.
#[test]
fn verify_races_concurrent_publishes_safely() {
    let trace = apps::amazon_prime_http(30_000);
    let cache = SharedRuleCache::new();

    // A real characterization so verify has genuine fields to blind.
    let mut contributor = Session::new(EnvKind::Testbed, OsKind::Linux, LiberateConfig::default());
    let c = liberate::characterize::characterize(
        &mut contributor,
        &trace,
        &Signal::Readout,
        &CharacterizeOpts::default(),
    );
    cache.publish(
        "testbed",
        &trace.app,
        CachedRules::from_characterization(&c, 0),
    );

    std::thread::scope(|scope| {
        let done = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let publisher = {
            let cache = cache.clone();
            let done = done.clone();
            scope.spawn(move || {
                let mut i = 0u64;
                while !done.load(std::sync::atomic::Ordering::Relaxed) {
                    cache.publish("othernet", "otherapp", entry(i));
                    i += 1;
                }
            })
        };

        let mut verifier = Session::new(EnvKind::Testbed, OsKind::Linux, LiberateConfig::default());
        for _ in 0..3 {
            let fresh = cache
                .verify(
                    "testbed",
                    &trace.app,
                    &mut verifier,
                    &trace,
                    &Signal::Readout,
                )
                .expect("entry exists");
            assert!(fresh, "untouched rules stay fresh under publisher churn");
        }
        done.store(true, std::sync::atomic::Ordering::Relaxed);
        publisher.join().unwrap();
    });
}

/// The §4.2 economics through one shared handle (the asserted version of
/// `examples/beyond_the_paper.rs` part 3): user A characterizes and
/// publishes; user B — a separate one-worker pool holding a clone of the
/// same handle — verifies in one round per field and reuses the entry.
#[test]
fn two_users_one_characterization_via_shared_handle() {
    let flow = apps::facebook_http();
    let shared = SharedRuleCache::new();
    let user = |shared: &SharedRuleCache| {
        DeploymentPool::new(
            EnvKind::Iran,
            OsKind::Linux,
            LiberateConfig::default(),
            1,
            CharacterizeOpts::default(),
        )
        .with_shared_cache(shared.clone(), "iran")
    };

    let mut user_a = user(&shared);
    let report_a = user_a.run_flows(&flow, 1).expect("user A evades");
    assert_eq!(
        user_a.characterizations, 1,
        "cold cache: A pays the full search"
    );
    assert_eq!(user_a.cache_hits, 0);
    let rounds_a = user_a.pool_mut().sessions()[0].replays;
    assert_eq!(shared.len(), 1, "A's characterization is published");

    let mut user_b = user(&shared);
    let report_b = user_b.run_flows(&flow, 1).expect("user B evades");
    let rounds_b = user_b.pool_mut().sessions()[0].replays;

    assert_eq!(user_b.cache_hits, 1, "B reuses A's entry");
    assert!(
        rounds_b * 2 < rounds_a,
        "shared entry must save most of the search: A={rounds_a} B={rounds_b}"
    );
    assert!(report_a.all_evaded() && report_b.all_evaded());
    assert_eq!(
        user_b.active_technique(),
        user_a.active_technique(),
        "both users deploy the same technique"
    );

    // Both handles still address the same store.
    assert_eq!(shared.len(), 1);
    assert!(shared.lookup("iran", &flow.app).is_some());
}
