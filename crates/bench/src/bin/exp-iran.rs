//! **§6.6 — Iran**: 403-page blocking, per-packet all-packets
//! classification, port-80-only rules, splitting as the evasion, and the
//! misclassification footnote (an inert packet carrying blocked content
//! gets a clean flow blocked).
//!
//! Paper's numbers:
//! - 75 replays, ~10 minutes, ~300 KB;
//! - keyword `facebook.com` in the Host header, port 80 only;
//! - prepending up to 1,000 packets never changes classification: the
//!   classifier checks **every** packet;
//! - inert packet insertion cannot evade, but an inert packet with
//!   blocked content *causes* blocking (footnote 3);
//! - splitting the matching field across two packets evades;
//! - the classifier answers at 8 hops.
//!
//! Run with: `cargo run --release -p liberate-bench --bin exp-iran`

use std::sync::Arc;

use liberate::prelude::*;
use liberate::report::fmt_bytes;
use liberate_bench::harness;
use liberate_obs::Journal;
use liberate_traces::apps;

fn main() {
    println!("Experiment §6.6: Iran\n");
    let journal = Arc::new(Journal::new());
    let mut session = Session::new(EnvKind::Iran, OsKind::Linux, LiberateConfig::default());
    session.attach_journal(journal.clone());
    let trace = apps::facebook_http();

    // --- Blocking signal: 403 page + 2 RSTs.
    let base = session.replay_trace(&trace, &ReplayOpts::default());
    assert!(base.block_page, "Iran responds with an HTTP 403 page");
    assert!(base.rsts >= 2);
    println!("blocking signal: 403 Forbidden page + {} RSTs", base.rsts);

    // --- Port specificity: same content on 8080 is untouched.
    let out = session.replay_trace(
        &trace,
        &ReplayOpts {
            server_port: Some(8080),
            ..Default::default()
        },
    );
    assert!(!out.blocked() && out.complete);
    println!("port rules: port 8080 not classified (characterization must use port 80)");

    // --- Characterization (no port rotation possible!).
    let c = characterize(
        &mut session,
        &trace,
        &Signal::Blocking,
        &CharacterizeOpts::default(),
    );
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
    assert!(fields.contains("facebook"));
    assert!(
        (40..=110).contains(&c.rounds),
        "paper: 75 replays; measured {}",
        c.rounds
    );
    assert!(
        c.position.matches_all_packets,
        "prepending packets never changes classification"
    );

    // --- Footnote 3: an inert packet with *blocked* content blocks a
    // clean flow.
    let clean = liberate_traces::generator::generate(&liberate_traces::generator::WorkloadSpec {
        server_bytes: 8_000,
        ..Default::default()
    });
    let ctx_blocked_decoy = EvasionContext {
        matching_fields: vec![],
        decoy: liberate_traces::http::get_request("www.facebook.com", "/x", "p"),
        middlebox_ttl: 8,
    };
    let out = session
        .replay_with(
            &clean,
            &Technique::InertLowTtl,
            &ctx_blocked_decoy,
            &ReplayOpts::default(),
        )
        .unwrap();
    assert!(
        out.blocked(),
        "an inert packet with blocked content causes the connection to be blocked"
    );
    println!("footnote 3: inert packet with blocked payload got a clean flow blocked");

    // --- Localization: 8 hops.
    let loc = locate_middlebox(
        &mut session,
        &apps::control_http(),
        &liberate_traces::http::get_request("www.facebook.com", "/liberate-decoy", "p"),
        &Signal::Blocking,
    );
    println!(
        "localization: classifier at {:?} hops (paper: 8)",
        loc.middlebox_ttl
    );
    assert_eq!(loc.middlebox_ttl, Some(8));

    // --- Splitting across two packets evades (with or without reorder).
    let ctx = EvasionContext {
        matching_fields: c.client_field_regions(&trace),
        decoy: decoy_request(),
        middlebox_ttl: 8,
    };
    for technique in [
        Technique::TcpSegmentSplit { segments: 2 },
        Technique::TcpSegmentReorder { segments: 2 },
    ] {
        let out = session
            .replay_with(&trace, &technique, &ctx, &ReplayOpts::default())
            .unwrap();
        assert!(
            !out.blocked() && out.complete && out.integrity_ok,
            "{technique:?} should evade Iran: {out:?}"
        );
    }
    println!("evasion: splitting the matching field across 2 segments evades (±reorder)");

    harness::finish(&journal);
    println!("\n[ok] §6.6 findings reproduce");
}
