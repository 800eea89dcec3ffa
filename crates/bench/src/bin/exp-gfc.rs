//! **§6.5 — The Great Firewall of China**: blocking signal, rounds/data
//! cost with port rotation, residual server:port blocking, localization
//! at TTL 10, prepend evasion, UDP opacity, and RST-flush asymmetry.
//!
//! Paper's numbers:
//! - 86 replays, < 15 minutes, < 400 KB (each replay ~4 KB);
//! - keywords: `GET` and `economist.com` in the Host header;
//! - blocking = 3–5 injected RSTs; after 2 classified replays the whole
//!   server:port pair is blocked (hence port rotation during tests);
//! - a TTL of 10 reaches the classifier without reaching the server;
//! - prepending one dummy byte evades; UDP is not classified;
//! - a RST *before* the matching packet evades; after, it does not.
//!
//! Run with: `cargo run --release -p liberate-bench --bin exp-gfc`

use std::sync::Arc;

use liberate::prelude::*;
use liberate::report::fmt_bytes;
use liberate_bench::harness;
use liberate_obs::Journal;
use liberate_traces::apps;

fn main() {
    println!("Experiment §6.5: the Great Firewall of China\n");
    let journal = Arc::new(Journal::new());
    let mut session = Session::new(EnvKind::Gfc, OsKind::Linux, LiberateConfig::default());
    session.attach_journal(journal.clone());
    let trace = apps::economist_http();

    // --- Blocking signal: 3-5 RSTs.
    let base = session.replay_trace(&trace, &ReplayOpts::default());
    assert!(base.blocked());
    println!("blocking signal: {} RSTs injected (paper: 3-5)", base.rsts);
    assert!((3..=5).contains(&base.rsts));

    // --- Residual server:port blocking after two classified flows.
    let again = session.replay_trace(&trace, &ReplayOpts::default());
    assert!(again.blocked());
    let clean = liberate_traces::generator::generate(&liberate_traces::generator::WorkloadSpec {
        server_bytes: 4_000,
        ..Default::default()
    });
    let collateral = session.replay_trace(&clean, &ReplayOpts::default());
    assert!(
        collateral.blocked(),
        "uncensored content to the same server:port must now be blocked"
    );
    let other_port = session.replay_trace(
        &clean,
        &ReplayOpts {
            server_port: Some(8081),
            ..Default::default()
        },
    );
    assert!(!other_port.blocked(), "a different port is unaffected");
    println!("residual blocking: server:80 blocked after 2 classified flows; port 8081 fine");

    // --- Characterization with port rotation.
    let mut fresh = Session::new(EnvKind::Gfc, OsKind::Linux, LiberateConfig::default());
    fresh.attach_journal(journal.clone());
    let copts = CharacterizeOpts {
        rotate_server_ports: true,
        ..Default::default()
    };
    let c = characterize(&mut fresh, &trace, &Signal::Blocking, &copts);
    let fields: String = c
        .fields
        .iter()
        .map(|f| f.as_text())
        .collect::<Vec<_>>()
        .join(" | ");
    println!(
        "characterization: {} rounds, {:.1} min, {} sent; fields: {fields}",
        c.rounds,
        c.elapsed.as_secs_f64() / 60.0,
        fmt_bytes(c.bytes_sent)
    );
    assert!(fields.contains("economist"));
    assert!(
        (40..=120).contains(&c.rounds),
        "paper: 86 replays; measured {}",
        c.rounds
    );
    assert_eq!(c.position.prepend_break, Some(1), "one dummy packet evades");

    // --- Localization: TTL 10.
    let loc = locate_middlebox(
        &mut fresh,
        &apps::control_http(),
        &liberate_traces::http::get_request("www.economist.com", "/liberate-decoy", "p"),
        &Signal::Blocking,
    );
    println!(
        "localization: classifier answers at TTL {:?} (paper: 10)",
        loc.middlebox_ttl
    );
    assert_eq!(loc.middlebox_ttl, Some(10));

    // --- UDP is not classified.
    let quic = apps::youtube_quic(100_000);
    let (out, classified) = probe(&mut fresh, &quic, &ReplayOpts::default(), &Signal::Blocking);
    assert!(out.complete && !classified, "QUIC passes the GFC untouched");
    println!("UDP/QUIC: not classified");

    // --- RST flush asymmetry.
    let ctx = EvasionContext::blind(decoy_request(), 10);
    let before = fresh
        .replay_with(
            &trace,
            &Technique::TtlRstBeforeMatch,
            &ctx,
            &ReplayOpts {
                server_port: Some(8200),
                ..Default::default()
            },
        )
        .unwrap();
    assert!(!before.blocked() && before.complete, "RST-before evades");
    let after = fresh
        .replay_with(
            &trace,
            &Technique::TtlRstAfterMatch,
            &ctx,
            &ReplayOpts {
                server_port: Some(8201),
                ..Default::default()
            },
        )
        .unwrap();
    assert!(after.blocked(), "RST-after does not evade");
    println!("RST flush: before-match evades, after-match does not (matches §6.5)");

    harness::finish(&journal);
    println!("\n[ok] §6.5 findings reproduce");
}
