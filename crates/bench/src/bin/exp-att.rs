//! **§6.3 — AT&T Stream Saver**: transparent-proxy throttling of port-80
//! HTTP video, server-direction matching fields, the futility of
//! packet-level evasion, and the port-change escape hatch.
//!
//! Paper's numbers:
//! - HTTP video throttled to **1.5 Mbps**; HTTPS untouched (the proxy did
//!   not inspect TLS);
//! - 71 replays to identify matching fields; the fields include standard
//!   HTTP tokens (`GET`, `HTTP/1.1`) client-side and
//!   **`Content-Type: video`** in the *server* direction;
//! - no lib·erate technique works (the proxy terminates TCP);
//! - moving the server off port 80 evades entirely.
//!
//! Run with: `cargo run --release -p liberate-bench --bin exp-att`

use std::sync::Arc;

use liberate::prelude::*;
use liberate::report::{fmt_bps, fmt_bytes};
use liberate_bench::harness;
use liberate_obs::Journal;
use liberate_traces::apps;
use liberate_traces::recorded::Sender;

fn main() {
    println!("Experiment §6.3: AT&T Stream Saver\n");
    let journal = Arc::new(Journal::new());
    let mut session = Session::new(EnvKind::Att, OsKind::Linux, LiberateConfig::default());
    session.attach_journal(journal.clone());
    let video = apps::nbcsports_http(2_000_000);

    // --- Detection: throttled vs the bit-inverted control.
    let d = detect(&mut session, &video);
    assert!(d.throttling && d.differentiated, "{d:?}");
    println!(
        "detection: HTTP video throttled to {} (control ran at {})",
        fmt_bps(d.original.avg_bps),
        fmt_bps(d.control.avg_bps)
    );
    assert!((1_200_000.0..2_100_000.0).contains(&d.original.avg_bps));

    // --- HTTPS is not touched (the proxy only intercepts port 80).
    let tls = apps::youtube_https(2_000_000);
    let out = session.replay_trace(&tls, &ReplayOpts::default());
    assert!(out.complete);
    assert!(
        out.avg_bps > 3.0 * d.original.avg_bps,
        "HTTPS not throttled: {}",
        fmt_bps(out.avg_bps)
    );
    println!("HTTPS: untouched ({})", fmt_bps(out.avg_bps));

    // --- Characterization finds server-direction fields too.
    let signal = Signal::Throttling {
        control_bps: d.control.avg_bps,
        ratio: session.config.throttle_ratio,
    };
    let c = characterize(&mut session, &video, &signal, &CharacterizeOpts::default());
    println!(
        "characterization: {} rounds, {} sent",
        c.rounds,
        fmt_bytes(c.data_consumed())
    );
    // The paper reports 71 replays; our request carries three conjunctive
    // fields (GET, HTTP/1.1, Content-Type: video), each costing a byte
    // search, so allow some headroom.
    assert!(
        (40..=160).contains(&c.rounds),
        "paper: 71 replays; measured {}",
        c.rounds
    );
    let server_fields: Vec<String> = c
        .fields
        .iter()
        .filter(|f| f.sender == Sender::Server)
        .map(|f| f.as_text())
        .collect();
    println!("  server-direction fields: {server_fields:?}");
    assert!(
        server_fields.iter().any(|f| f.contains("video")),
        "Content-Type: video must be among the server-direction fields"
    );

    // --- No technique works.
    let ctx = EvasionContext {
        matching_fields: c.client_field_regions(&video),
        decoy: decoy_request(),
        middlebox_ttl: 2,
    };
    let inputs = EvaluationInputs {
        signal: signal.clone(),
        ctx,
        rotate_server_ports: false,
    };
    let winner = find_working_technique(&mut session, &video, &c.position, &inputs);
    assert!(
        winner.is_none(),
        "no packet-level technique beats the proxy"
    );
    println!("evasion: all packet-level techniques fail (TCP-terminating proxy)");

    // --- ...but changing the server port evades completely.
    let out = session.replay_trace(
        &video,
        &ReplayOpts {
            server_port: Some(8080),
            ..Default::default()
        },
    );
    assert!(out.complete);
    assert!(out.avg_bps > 3.0 * d.original.avg_bps);
    println!(
        "port change: the same flow on port 8080 runs at {} (unthrottled)",
        fmt_bps(out.avg_bps)
    );

    harness::finish(&journal);
    println!("\n[ok] §6.3 findings reproduce");
}
