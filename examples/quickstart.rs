//! Quickstart: point lib·erate at a censored flow and let it do all four
//! phases — detect differentiation, reverse-engineer the classifier,
//! locate the middlebox, and deploy a working evasion.
//!
//! Run with: `cargo run --release --example quickstart`

use liberate::prelude::*;
use liberate_traces::apps;

fn main() {
    println!("lib\u{b7}erate quickstart: fetching a blocked site through the GFC model\n");

    // A client whose path to the server crosses the Great Firewall model.
    let mut session = Session::new(EnvKind::Gfc, OsKind::Linux, LiberateConfig::default());

    // The application flow we want to liberate: an HTTP fetch of a
    // censored site.
    let flow = apps::economist_http();

    // Without lib·erate: blocked.
    let plain = session.replay_trace(&flow, &ReplayOpts::default());
    println!(
        "without lib\u{b7}erate: blocked = {} ({} RSTs injected by the censor)",
        plain.blocked(),
        plain.rsts
    );
    assert!(plain.blocked());

    // With lib·erate: run the full pipeline. Port rotation is needed
    // against the GFC because it penalizes a server:port after two
    // classified flows (§6.5).
    let copts = CharacterizeOpts {
        rotate_server_ports: true,
        ..Default::default()
    };
    let report = run_pipeline(&mut session, &flow, &copts).expect("pipeline succeeds");

    println!("\nphase 1 - detection:");
    println!(
        "  differentiation: blocking = {}",
        report.detection.blocking
    );

    let c = &report.characterization;
    println!("\nphase 2 - characterization ({} rounds):", c.rounds);
    for f in &c.fields {
        println!(
            "  matching field in message {}: {:?}",
            f.message,
            f.as_text()
        );
    }
    println!(
        "  inspection: prepend-break at {:?} packet(s), matches all packets: {}",
        c.position.prepend_break, c.position.matches_all_packets
    );

    println!(
        "\nphase 3 - localization: middlebox at TTL {:?}",
        report.localization.middlebox_ttl
    );

    let chosen = report.evasion.expect("a working technique exists");
    println!(
        "\nphase 4 - evasion: {:?} (tried {} candidates)",
        chosen.technique.effective.description(),
        report.evaluation_tries
    );

    // Use it, in the context the pipeline evaluated it in: the same flow
    // now completes cleanly.
    let freed = session
        .replay_with(
            &flow,
            &chosen.technique.effective,
            &chosen.ctx,
            &ReplayOpts::default(),
        )
        .unwrap();
    println!(
        "\nwith lib\u{b7}erate: blocked = {}, transfer complete = {}, server stream intact = {}",
        freed.blocked(),
        freed.complete,
        freed.integrity_ok
    );
    assert!(!freed.blocked() && freed.complete && freed.integrity_ok);

    println!(
        "\ntotal measurement cost: {} replay rounds, {:.1} simulated minutes, {:.1} KB sent",
        report.total_rounds,
        report.elapsed.as_secs_f64() / 60.0,
        report.total_bytes as f64 / 1000.0
    );
}
