//! Worker-count parity for the wave search: characterizing through a
//! `SessionPool` at 2 or 4 workers must report the same
//! `Characterization` and bill the same traffic counter totals as
//! `characterize` on a bare session (a one-worker run), and a fixed seed
//! and worker count must give byte-identical merged journals. The pool
//! reorders probes across workers but never changes *which* probes run —
//! see the determinism contract in `liberate::engine`. A batch of
//! testbed apps through `characterize_many` keeps that parity at 1, 2
//! and 4 workers, and 4 workers overlap enough round gaps to finish the
//! simulated experiment at least twice as soon as 1.

use std::sync::Arc;

use liberate::characterize::{characterize, Characterization, CharacterizeOpts};
use liberate::config::LiberateConfig;
use liberate::detect::Signal;
use liberate::engine::{characterize_many, characterize_parallel, SessionPool};
use liberate::replay::Session;
use liberate_bench::harness::max_clock_us;
use liberate_dpi::profiles::EnvKind;
use liberate_netsim::os::OsKind;
use liberate_obs::{to_jsonl, Counter, Journal};
use liberate_traces::apps;
use liberate_traces::recorded::RecordedTrace;

struct Scenario {
    name: &'static str,
    kind: EnvKind,
    trace: RecordedTrace,
    signal: Signal,
    opts: CharacterizeOpts,
}

/// An HTTP video trace on the testbed (readout signal).
fn prime() -> Scenario {
    Scenario {
        name: "amazon-prime-http",
        kind: EnvKind::Testbed,
        trace: apps::amazon_prime_http(20_000),
        signal: Signal::Readout,
        opts: CharacterizeOpts::default(),
    }
}

/// A UDP STUN trace on the testbed (readout signal).
fn stun() -> Scenario {
    Scenario {
        name: "skype-stun",
        kind: EnvKind::Testbed,
        trace: apps::skype_stun(4),
        signal: Signal::Readout,
        opts: CharacterizeOpts::default(),
    }
}

/// A blocked HTTP fetch through the GFC model (blocking signal, rotated
/// server ports so the residual server:port penalty never couples
/// probes).
fn gfc() -> Scenario {
    Scenario {
        name: "economist-gfc",
        kind: EnvKind::Gfc,
        trace: apps::economist_http(),
        signal: Signal::Blocking,
        opts: CharacterizeOpts {
            rotate_server_ports: true,
            ..Default::default()
        },
    }
}

/// Counter totals that describe traffic. `automaton-states` is recorded
/// once per compiled device, so merged totals scale with the worker
/// count by construction — it describes the rule set, not the traffic.
fn traffic(journal: &Journal) -> Vec<(Counter, u64)> {
    journal
        .metrics
        .snapshot()
        .into_iter()
        .filter(|(c, _)| *c != Counter::AutomatonStates)
        .collect()
}

/// The reference: `characterize` on a bare session.
fn bare(s: &Scenario) -> (Characterization, Vec<(Counter, u64)>) {
    let mut session = Session::new(s.kind, OsKind::Linux, LiberateConfig::default());
    let c = characterize(&mut session, &s.trace, &s.signal, &s.opts);
    (c, traffic(session.journal()))
}

/// One pooled characterization: the report, the merged journal's
/// traffic counters and its canonical JSONL export.
fn pooled(s: &Scenario, workers: usize) -> (Characterization, Vec<(Counter, u64)>, String) {
    let mut pool = SessionPool::new(s.kind, OsKind::Linux, LiberateConfig::default(), workers);
    let c = characterize_parallel(&mut pool, &s.trace, &s.signal, &s.opts);
    let merged = Arc::new(Journal::new());
    pool.merge_journals_into(&merged);
    (c, traffic(&merged), to_jsonl(&merged))
}

fn assert_matches_bare_session(s: Scenario) {
    let (reference, reference_counters) = bare(&s);
    assert!(
        !reference.fields.is_empty(),
        "{}: the bare session must find matching fields",
        s.name
    );
    for workers in [2usize, 4] {
        let (c, counters, _) = pooled(&s, workers);
        assert_eq!(
            c, reference,
            "{}: characterization diverges at {workers} workers",
            s.name
        );
        assert_eq!(
            counters, reference_counters,
            "{}: merged counter totals diverge at {workers} workers",
            s.name
        );
    }
}

#[test]
fn prime_matches_bare_session_at_2_and_4_workers() {
    assert_matches_bare_session(prime());
}

#[test]
fn stun_matches_bare_session_at_2_and_4_workers() {
    assert_matches_bare_session(stun());
}

#[test]
fn gfc_matches_bare_session_at_2_and_4_workers() {
    assert_matches_bare_session(gfc());
}

#[test]
fn same_seed_pool_journals_are_byte_identical() {
    for s in [prime(), stun(), gfc()] {
        for workers in [2usize, 4] {
            let (_, _, first) = pooled(&s, workers);
            let (_, _, second) = pooled(&s, workers);
            if first != second {
                // Point at the first diverging line rather than dumping
                // two full journals.
                for (i, (a, b)) in first.lines().zip(second.lines()).enumerate() {
                    assert_eq!(
                        a, b,
                        "{}: journal line {i} diverges at {workers} workers",
                        s.name
                    );
                }
                assert_eq!(
                    first.lines().count(),
                    second.lines().count(),
                    "{}: journal lengths diverge at {workers} workers",
                    s.name
                );
            }
        }
    }
}

/// The four §6.1 testbed apps, 20 kB of video or audio each.
fn testbed_apps() -> Vec<RecordedTrace> {
    vec![
        apps::amazon_prime_http(20_000),
        apps::spotify_http(20_000),
        apps::espn_http(20_000),
        apps::skype_stun(8),
    ]
}

/// One pooled batch: each app's characterization and the pool's
/// simulated experiment clock (the latest worker clock; workers advance
/// concurrently from zero).
fn pooled_batch(traces: &[RecordedTrace], workers: usize) -> (Vec<Characterization>, u64) {
    let mut pool = SessionPool::new(
        EnvKind::Testbed,
        OsKind::Linux,
        LiberateConfig::default(),
        workers,
    );
    let cs = characterize_many(
        &mut pool,
        traces,
        &Signal::Readout,
        &CharacterizeOpts::default(),
    );
    (cs, max_clock_us(&pool))
}

/// The batch finds each app's bare-session fields at every worker count
/// and spends the bare sessions' replay total (198 replays), and 4
/// workers cut the simulated experiment clock at least 2x against 1
/// worker (3.89x when measured): concurrent probing over disjoint flows
/// divides the waiting between replay rounds, which dominates a live run.
#[test]
fn testbed_batch_matches_bare_sessions_and_4_workers_halve_the_clock() {
    let traces = testbed_apps();
    let bare: Vec<Characterization> = traces
        .iter()
        .map(|trace| {
            let mut session =
                Session::new(EnvKind::Testbed, OsKind::Linux, LiberateConfig::default());
            characterize(
                &mut session,
                trace,
                &Signal::Readout,
                &CharacterizeOpts::default(),
            )
        })
        .collect();
    let bare_replays: u64 = bare.iter().map(|c| c.rounds).sum();

    let mut clocks = Vec::new();
    for workers in [1usize, 2, 4] {
        let (cs, clock_us) = pooled_batch(&traces, workers);
        for ((trace, c), reference) in traces.iter().zip(&cs).zip(&bare) {
            assert_eq!(
                c.fields, reference.fields,
                "{}: matching fields diverge at {workers} workers",
                trace.app
            );
        }
        let replays: u64 = cs.iter().map(|c| c.rounds).sum();
        assert_eq!(
            replays, bare_replays,
            "probe multiset diverges at {workers} workers"
        );
        clocks.push(clock_us);
    }
    let speedup = clocks[0] as f64 / clocks[2].max(1) as f64;
    assert!(
        speedup >= 2.0,
        "expected >= 2x simulated wall-clock speedup at 4 workers, got {speedup:.2}x"
    );
}
