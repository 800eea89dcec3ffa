//! Observability: every experiment records tcpdump-equivalent captures at
//! the client and server taps, exportable as standard pcap files for
//! Wireshark.
//!
//! This example replays a censored fetch with and without evasion against
//! the GFC model and writes four pcaps showing exactly what each endpoint
//! saw — including the censor's injected RSTs in the blocked run and the
//! TTL-limited inert RST in the evading run.
//!
//! Run with: `cargo run --release --example capture_to_pcap`

use std::fs;

use liberate::prelude::*;
use liberate_substrate::capture::TapPoint;
use liberate_traces::apps;

fn dump(session: &Session, label: &str) -> std::io::Result<()> {
    let dir = std::env::temp_dir().join("liberate-pcaps");
    fs::create_dir_all(&dir)?;
    for (point, suffix) in [
        (TapPoint::ClientEgress, "client-egress"),
        (TapPoint::ClientIngress, "client-ingress"),
        (TapPoint::ServerIngress, "server-ingress"),
        (TapPoint::ServerEgress, "server-egress"),
    ] {
        let path = dir.join(format!("{label}-{suffix}.pcap"));
        let bytes = session.env.network.capture.to_pcap(point);
        fs::write(&path, &bytes)?;
        println!(
            "  {:<48} {:>5} packets",
            path.display(),
            session.env.network.capture.at(point).count()
        );
    }
    Ok(())
}

fn main() -> std::io::Result<()> {
    println!("writing packet captures of a blocked vs an evading flow\n");
    let mut session = Session::new(EnvKind::Gfc, OsKind::Linux, LiberateConfig::default());
    // Sessions record only the server-ingress tap (all that detection
    // reads); this example wants every vantage point.
    session.env.set_capture_points(&TapPoint::ALL);
    let trace = apps::economist_http();

    // 1. Blocked: the capture shows the censor's RST burst.
    let out = session.replay_trace(&trace, &ReplayOpts::default());
    assert!(out.blocked());
    println!("blocked run ({} censor RSTs):", out.rsts);
    dump(&session, "blocked")?;

    // 2. Evading with a TTL-limited RST before the matching packet.
    let ctx = EvasionContext::blind(decoy_request(), 10);
    let out = session
        .replay_with(
            &trace,
            &Technique::TtlRstBeforeMatch,
            &ctx,
            &ReplayOpts {
                server_port: Some(8200), // dodge the penalty from run 1
                ..Default::default()
            },
        )
        .unwrap();
    assert!(!out.blocked() && out.complete);
    println!("\nevading run (transfer completed):");
    dump(&session, "evading")?;

    // The captures are honest: the evading run's client egress contains
    // the watermarked inert RST; its server ingress does not (TTL-limited).
    let cap = &session.env.network.capture;
    let rst_at = |point| {
        cap.any_at(point, |w| {
            liberate_packet::packet::ParsedPacket::parse(w)
                .and_then(|p| {
                    p.tcp()
                        .map(|t| t.flags.rst && t.window == liberate::evasion::LIBERATE_RST_WINDOW)
                })
                .unwrap_or(false)
        })
    };
    assert!(rst_at(TapPoint::ClientEgress), "we sent the inert RST");
    assert!(
        !rst_at(TapPoint::ServerIngress),
        "it died before the server"
    );
    println!("\ninert RST visible at client egress, absent at server ingress — as designed");
    Ok(())
}
