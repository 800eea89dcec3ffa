//! The payload copy census, gated: a detection replay workload runs with
//! `PacketBuf` clones and slices sharing one buffer, and makes no deep
//! copy at all. The process-wide census (`copy_census`) counts every
//! deep copy and the journal's `payload-copies` counter every
//! copy-on-write fault; both must stay at 0.
//!
//! The census counts copies from every thread of the process, so this
//! file holds a single test: it runs in a process of its own.

use liberate::prelude::*;
use liberate_obs::Counter;
use liberate_substrate::buf::copy_census;
use liberate_traces::apps;

/// Replays of each trace in the census.
const CENSUS_REPLAYS: usize = 8;

#[test]
fn detection_replays_make_no_payload_deep_copies() {
    // A downstream video fetch plus a bidirectional VoIP call: the two
    // differentiation targets a detection session sweeps.
    let mut session = Session::new(EnvKind::Testbed, OsKind::Linux, LiberateConfig::default());
    let traces = [apps::amazon_prime_http(64_000), apps::skype_stun(120)];
    let journal = session.journal().clone();
    let journal_copies0 = journal.metrics.get(Counter::PayloadCopies);
    let (copies0, bytes0) = copy_census();
    for _ in 0..CENSUS_REPLAYS {
        for trace in &traces {
            let outcome = session.replay_trace(trace, &ReplayOpts::default());
            assert!(outcome.complete, "{}", trace.app);
        }
    }
    let (copies1, bytes1) = copy_census();
    let journal_copies = journal.metrics.get(Counter::PayloadCopies) - journal_copies0;
    let (copies, bytes) = (copies1 - copies0, bytes1 - bytes0);
    assert!(
        copies == 0 && journal_copies == 0,
        "replays must make no payload deep-copies: census {copies} ({bytes} B), \
journal payload-copies {journal_copies}"
    );
}
