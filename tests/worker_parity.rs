//! Worker-count parity for the wave search: characterizing through a
//! `SessionPool` at 2 or 4 workers must report the same
//! `Characterization` and bill the same traffic counter totals as
//! `characterize` on a bare session (a one-worker run), and a fixed seed
//! and worker count must give byte-identical merged journals. The pool
//! reorders probes across workers but never changes *which* probes run —
//! see the determinism contract in `liberate::engine`.

use std::sync::Arc;

use liberate::characterize::{characterize, Characterization, CharacterizeOpts};
use liberate::config::LiberateConfig;
use liberate::detect::Signal;
use liberate::engine::{characterize_parallel, SessionPool};
use liberate::replay::Session;
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
