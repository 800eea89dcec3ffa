//! **§6.2 — T-Mobile US (Binge On / Music Freedom)**: zero-rating
//! detection via the data-usage counter, characterization cost, and the
//! throughput gain from evading the video throttle.
//!
//! Paper's numbers:
//! - 80–95 replay rounds, ~23 minutes, ~18 MB of data, with >= 200 KB per
//!   replay for a reliable counter read;
//! - matching fields: `cloudfront.net` in the Host header,
//!   `.googlevideo.com` in the TLS SNI;
//! - prepending one 1-byte packet changes classification;
//! - UDP (QUIC) is not classified at all;
//! - Amazon Prime replay: **1.48 Mbps** average (**4.8** peak) throttled
//!   vs **4.1 Mbps** average (**11.2** peak) with lib·erate.
//!
//! Run with: `cargo run --release -p liberate-bench --bin exp-tmus`

use std::sync::Arc;

use liberate::prelude::*;
use liberate::report::{fmt_bps, fmt_bytes};
use liberate_bench::harness;
use liberate_obs::Journal;
use liberate_traces::apps;

fn main() {
    println!("Experiment §6.2: T-Mobile Binge On\n");
    let journal = Arc::new(Journal::new());
    let mut session = Session::new(EnvKind::TMobile, OsKind::Linux, LiberateConfig::default());
    session.attach_journal(journal.clone());

    // --- Detection: zero-rating shows up on the billed counter.
    let video = apps::amazon_prime_http(400_000);
    let d = detect(&mut session, &video);
    assert!(d.zero_rating && d.differentiated, "{d:?}");
    println!("detection: zero-rating detected via the data-usage counter");

    // --- Characterization cost (HTTP + HTTPS apps).
    let c_http = characterize(
        &mut session,
        &video,
        &Signal::ZeroRating,
        &CharacterizeOpts::default(),
    );
    let c_https = characterize(
        &mut session,
        &apps::youtube_https(400_000),
        &Signal::ZeroRating,
        &CharacterizeOpts::default(),
    );
    let rounds = c_http.rounds + c_https.rounds;
    let data = c_http.data_consumed() + c_https.data_consumed();
    let minutes = (c_http.elapsed + c_https.elapsed).as_secs_f64() / 60.0;
    println!(
        "characterization: {} rounds total, {:.0} min, {} sent",
        rounds,
        minutes,
        fmt_bytes(data)
    );
    let http_fields: String = c_http.fields.iter().map(|f| f.as_text()).collect();
    let https_fields: String = c_https.fields.iter().map(|f| f.as_text()).collect();
    println!("  HTTP fields:  {http_fields}");
    println!("  HTTPS fields: {https_fields}");
    assert!(http_fields.contains("cloudfront.net"));
    assert!(https_fields.contains("googlevideo"));
    assert_eq!(c_http.position.prepend_break, Some(1));
    assert!(c_http.position.packet_based, "1-byte prepend suffices");
    // Paper: 80-95 rounds per application suite; allow headroom since our
    // HTTPS trace also exposes the TLS record prefix as a field.
    assert!(
        (40..=260).contains(&rounds),
        "paper: 80-95 rounds; measured {rounds}"
    );

    // --- UDP is not classified: QUIC sails through.
    let quic = apps::youtube_quic(400_000);
    let (out, classified) = probe(
        &mut session,
        &quic,
        &ReplayOpts::default(),
        &Signal::ZeroRating,
    );
    assert!(out.complete && !classified);
    println!("UDP/QUIC: not classified (YouTube-over-QUIC is neither throttled nor zero-rated)");

    // --- Throughput with and without lib·erate (10 MB Prime Video).
    let big = apps::amazon_prime_http(10_000_000);
    let throttled = session.replay_trace(&big, &ReplayOpts::default());
    assert!(throttled.complete);

    let ctx = EvasionContext {
        matching_fields: c_http.client_field_regions(&video),
        decoy: decoy_request(),
        middlebox_ttl: 3,
    };
    let evaded = session
        .replay_with(
            &big,
            &Technique::TcpSegmentReorder { segments: 2 },
            &ctx,
            &ReplayOpts::default(),
        )
        .expect("applies");
    assert!(evaded.complete);

    println!("\nthroughput (10 MB Amazon Prime Video replay):");
    println!("  paper:    throttled 1.48 Mbps avg / 4.8 peak; evading 4.1 avg / 11.2 peak");
    println!(
        "  measured: throttled {} avg / {} peak; evading {} avg / {} peak",
        fmt_bps(throttled.avg_bps),
        fmt_bps(throttled.peak_bps),
        fmt_bps(evaded.avg_bps),
        fmt_bps(evaded.peak_bps)
    );
    // Shape: evading at least doubles average throughput; peaks exceed
    // the throttle ceiling substantially.
    assert!((1_000_000.0..2_200_000.0).contains(&throttled.avg_bps));
    assert!(evaded.avg_bps > 2.0 * throttled.avg_bps);
    assert!(evaded.peak_bps > 2.0 * throttled.peak_bps);

    harness::finish(&journal);
    println!("\n[ok] §6.2 findings reproduce (zero-rating, fields, QUIC, throughput gain)");
}
