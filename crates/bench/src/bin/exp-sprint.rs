//! **§6.4 — Sprint**: despite marketing "mobile optimized video, music
//! streaming, and gaming", no evidence of DPI or header-space
//! differentiation was found.
//!
//! The paper tested different IP addresses, ports, popular-service
//! traffic, replays to their own servers — original and bit-inverted —
//! and found no pattern in bandwidth allocation.
//!
//! Run with: `cargo run --release -p liberate-bench --bin exp-sprint`

use std::sync::Arc;

use liberate::prelude::*;
use liberate::report::fmt_bps;
use liberate_bench::harness;
use liberate_obs::Journal;
use liberate_traces::apps;

fn main() {
    println!("Experiment §6.4: Sprint\n");
    let journal = Arc::new(Journal::new());
    let mut session = Session::new(EnvKind::Sprint, OsKind::Linux, LiberateConfig::default());
    session.attach_journal(journal.clone());

    let cases: Vec<(&str, liberate_traces::recorded::RecordedTrace, Option<u16>)> = vec![
        (
            "Amazon Prime (HTTP, port 80)",
            apps::amazon_prime_http(6_000_000),
            None,
        ),
        (
            "Amazon Prime (port 8080)",
            apps::amazon_prime_http(6_000_000),
            Some(8080),
        ),
        ("YouTube (HTTPS)", apps::youtube_https(6_000_000), None),
        ("Spotify", apps::spotify_http(6_000_000), None),
        ("NBC Sports", apps::nbcsports_http(6_000_000), None),
        (
            "bit-inverted Prime",
            inverted_trace(&apps::amazon_prime_http(6_000_000)),
            None,
        ),
        (
            "random workload",
            liberate_traces::generator::generate(&liberate_traces::generator::WorkloadSpec {
                server_bytes: 6_000_000,
                ..Default::default()
            }),
            None,
        ),
    ];

    let mut rates = Vec::new();
    println!("{:<28} {:>12}", "flow", "avg rate");
    for (name, trace, port) in &cases {
        let out = session.replay_trace(
            trace,
            &ReplayOpts {
                server_port: *port,
                ..Default::default()
            },
        );
        assert!(out.complete, "{name} should transfer fully");
        assert!(!out.blocked());
        println!("{:<28} {:>12}", name, fmt_bps(out.avg_bps));
        rates.push(out.avg_bps);
        session.rest(std::time::Duration::from_secs(5));
    }

    // Detection finds nothing.
    let d = detect(&mut session, &apps::amazon_prime_http(6_000_000));
    assert!(!d.differentiated && !d.content_independent, "{d:?}");

    // No pattern: every flow lands within a tight band of the median.
    let mut sorted = rates.clone();
    sorted.sort_by(f64::total_cmp);
    let median = sorted[sorted.len() / 2];
    for (i, r) in rates.iter().enumerate() {
        assert!(
            (r / median - 1.0).abs() < 0.35,
            "flow {i} deviates: {} vs median {}",
            fmt_bps(*r),
            fmt_bps(median)
        );
    }

    println!(
        "\nno differentiation detected: all flows within ±35% of the median rate,\n\
         independent of content, port, or bit inversion (paper: \"we found no\n\
         pattern to which flows received relatively more or less bandwidth\")"
    );
    harness::finish(&journal);
    println!("\n[ok] §6.4 findings reproduce");
}
