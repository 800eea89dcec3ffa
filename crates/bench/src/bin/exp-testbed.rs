//! **§6.1 — Testbed experiments**: classifier-analysis efficiency and
//! matching fields against the carrier-grade DPI model.
//!
//! Paper's numbers to reproduce (shape, not exact values):
//! - HTTP: at most **70 replay rounds** to identify all matching fields,
//!   under **10 minutes** at ~5 s per round;
//! - Skype/UDP: all matching fields found in the **first six packets**,
//!   with ~**115 replays**; the classifier keys on the STUN
//!   `MS-SERVICE-QUALITY` attribute (0x8055) in the **first client
//!   packet**;
//! - under **2 KB of data per replay round** (testbed readout needs no
//!   long transfers);
//! - matching fields are human-readable hostnames / content types / user
//!   agents.
//!
//! Run with: `cargo run --release -p liberate-bench --bin exp-testbed`

use std::sync::Arc;

use liberate::prelude::*;
use liberate::report::{fmt_bytes, TextTable};
use liberate_bench::harness;
use liberate_obs::{phase_summaries, Journal, Phase};
use liberate_traces::apps;

fn characterize_app(
    name: &str,
    trace: &liberate_traces::recorded::RecordedTrace,
    table: &mut TextTable,
    journal: &Arc<Journal>,
    workers: usize,
) -> Characterization {
    let c = if workers <= 1 {
        let mut session = Session::new(EnvKind::Testbed, OsKind::Linux, LiberateConfig::default());
        session.attach_journal(journal.clone());
        characterize(
            &mut session,
            trace,
            &Signal::Readout,
            &CharacterizeOpts::default(),
        )
    } else {
        // Pool path: a worker pool over one shared sharded flow table,
        // checked against a bare-session reference (which keeps its own
        // private journal so the shared one only accounts for the pool's
        // replays).
        let mut pool = SessionPool::new(
            EnvKind::Testbed,
            OsKind::Linux,
            LiberateConfig::default(),
            workers,
        );
        let c = characterize_parallel(
            &mut pool,
            trace,
            &Signal::Readout,
            &CharacterizeOpts::default(),
        );
        pool.merge_journals_into(journal);

        let mut reference =
            Session::new(EnvKind::Testbed, OsKind::Linux, LiberateConfig::default());
        let r = characterize(
            &mut reference,
            trace,
            &Signal::Readout,
            &CharacterizeOpts::default(),
        );
        assert_eq!(
            c.fields, r.fields,
            "{name}: pooled matching fields must equal the bare session's"
        );
        assert_eq!(
            c.rounds, r.rounds,
            "{name}: pooled replay count must equal the bare session's"
        );
        assert_eq!(
            c.position, r.position,
            "{name}: pooled position profile must equal the bare session's"
        );
        c
    };
    let fields: Vec<String> = c.fields.iter().map(|f| f.as_text()).collect();
    table.row(vec![
        name.to_string(),
        format!("{}", c.rounds),
        format!("{:.1} min", c.elapsed.as_secs_f64() / 60.0),
        fmt_bytes(c.bytes_sent / c.rounds.max(1)),
        fields.join(" | "),
    ]);
    c
}

fn main() {
    let workers = harness::workers();
    println!("Experiment §6.1: testbed classifier analysis\n");
    if workers > 1 {
        println!(
            "engine: SessionPool with {workers} worker sessions (bare-session parity checked)\n"
        );
    }
    let journal = Arc::new(Journal::new());
    let mut table = TextTable::new(&[
        "Application",
        "Rounds",
        "Time",
        "Data/round",
        "Matching fields found",
    ]);

    // HTTP applications the testbed classifies (Prime Video, Spotify,
    // ESPN).
    let prime = characterize_app(
        "Amazon Prime Video",
        &apps::amazon_prime_http(20_000),
        &mut table,
        &journal,
        workers,
    );
    let spotify = characterize_app(
        "Spotify",
        &apps::spotify_http(20_000),
        &mut table,
        &journal,
        workers,
    );
    let espn = characterize_app(
        "ESPN",
        &apps::espn_http(20_000),
        &mut table,
        &journal,
        workers,
    );

    // UDP: Skype via STUN.
    let skype = characterize_app(
        "Skype (UDP)",
        &apps::skype_stun(8),
        &mut table,
        &journal,
        workers,
    );

    println!("{}", table.render());

    // --- Shape assertions against the paper. ---
    for (name, c, budget) in [
        ("Prime", &prime, 70u64),
        ("Spotify", &spotify, 70),
        ("ESPN", &espn, 70),
    ] {
        assert!(
            c.rounds <= budget + 20,
            "{name}: {} rounds exceeds the paper's ~{budget}",
            c.rounds
        );
        assert!(!c.fields.is_empty());
        // Fields are human-readable text.
        let text: String = c.fields.iter().map(|f| f.as_text()).collect();
        assert!(
            text.contains("cloudfront") || text.contains("spotify") || text.contains("espn"),
            "{name}: fields should be readable hostnames: {text:?}"
        );
        // Classifier anchors on flow start: one prepended packet breaks
        // classification, and the limit is packet-based.
        assert_eq!(c.position.prepend_break, Some(1));
        assert!(c.position.packet_based);
    }

    // Skype: the 0x8055 attribute, inside the first client packet.
    assert!(skype.fields.iter().all(|f| f.message == 0));
    assert!(
        skype.rounds <= 130,
        "Skype rounds {} vs paper's 115",
        skype.rounds
    );

    println!("paper:    HTTP <= 70 rounds, < 10 min, < 2 KB/round; Skype ~115 replays");
    println!(
        "measured: HTTP {} / {} / {} rounds; Skype {} rounds; fields in packet 0 only",
        prime.rounds, spotify.rounds, espn.rounds, skype.rounds
    );

    // --- Journal accounting: the per-phase summary must account for
    // every replay the characterizer reported, exactly.
    let events = journal.events();
    let probe_replays: u64 = phase_summaries(&events)
        .iter()
        .filter(|s| matches!(s.phase, Phase::BlindSearch | Phase::PositionProbe))
        .map(|s| s.replays)
        .sum();
    let reported_rounds = prime.rounds + spotify.rounds + espn.rounds + skype.rounds;
    assert_eq!(
        probe_replays, reported_rounds,
        "journal must account for every characterizer replay"
    );
    println!(
        "journal: {probe_replays} replays in blind-search/position-probe spans \
         == {reported_rounds} characterizer rounds"
    );

    harness::finish(&journal);
    println!("\n[ok] §6.1 efficiency and matching-field findings reproduce");
}
