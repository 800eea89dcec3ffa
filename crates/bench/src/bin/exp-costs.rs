//! **§5.3 — Performance of lib·erate**: the one-time characterization
//! cost (paper: 10–35 minutes and 300 KB–140 MB depending on the
//! application) versus the negligible steady-state evasion overhead
//! (k < 5 extra packets).
//!
//! Run with: `cargo run --release -p liberate-bench --bin exp-costs`

use std::sync::Arc;

use liberate::prelude::*;
use liberate::report::{fmt_bytes, TextTable};
use liberate_bench::harness;
use liberate_obs::Journal;
use liberate_traces::apps;

fn main() {
    println!("Experiment §5.3: lib\u{b7}erate's costs\n");
    let journal = Arc::new(Journal::new());

    // --- One-time characterization cost per application class.
    let mut table = TextTable::new(&["Application (env)", "Rounds", "Sim. time", "Data consumed"]);
    let cases: Vec<(
        &str,
        EnvKind,
        liberate_traces::recorded::RecordedTrace,
        Signal,
        bool,
    )> = vec![
        (
            "Web page (GFC)",
            EnvKind::Gfc,
            apps::economist_http(),
            Signal::Blocking,
            true,
        ),
        (
            "Web page (Iran)",
            EnvKind::Iran,
            apps::facebook_http(),
            Signal::Blocking,
            false,
        ),
        (
            "Video stream (T-Mobile)",
            EnvKind::TMobile,
            apps::amazon_prime_http(2_000_000),
            Signal::ZeroRating,
            false,
        ),
        (
            "Video stream (testbed)",
            EnvKind::Testbed,
            apps::amazon_prime_http(50_000),
            Signal::Readout,
            false,
        ),
    ];
    let mut results = Vec::new();
    for (name, kind, trace, signal, rotate) in cases {
        let mut session = Session::new(kind, OsKind::Linux, LiberateConfig::default());
        session.attach_journal(journal.clone());
        let copts = CharacterizeOpts {
            rotate_server_ports: rotate,
            ..Default::default()
        };
        let c = characterize(&mut session, &trace, &signal, &copts);
        table.row(vec![
            name.to_string(),
            format!("{}", c.rounds),
            format!("{:.1} min", c.elapsed.as_secs_f64() / 60.0),
            fmt_bytes(c.data_consumed()),
        ]);
        results.push((name, c));
    }
    println!("{}", table.render());
    println!(
        "paper: characterization takes 10-35 minutes and 300 KB-140 MB depending\n\
         on the trace; it runs once per classifier rule and its results are cached.\n"
    );
    // Shape: video characterization moves orders of magnitude more data
    // than web-page characterization.
    let web = results
        .iter()
        .find(|(n, _)| n.contains("GFC"))
        .map(|(_, c)| c.data_consumed())
        .unwrap();
    let video = results
        .iter()
        .find(|(n, _)| n.contains("T-Mobile"))
        .map(|(_, c)| c.data_consumed())
        .unwrap();
    assert!(video > 20 * web, "video {video} vs web {web}");

    // --- Steady-state evasion overhead: k extra packets, k < 5 headers.
    let trace = apps::amazon_prime_http(400_000);
    let payload = &trace.messages[0].payload;
    let pos = liberate_traces::http::find(payload, b"cloudfront.net").unwrap();
    let ctx = EvasionContext {
        matching_fields: vec![liberate_packet::mutate::ByteRegion::new(0, pos..pos + 14)],
        decoy: decoy_request(),
        middlebox_ttl: 3,
    };
    let base = Schedule::from_trace(&trace);
    let base_count = base
        .steps
        .iter()
        .filter(|s| matches!(s, Step::Packet(_)))
        .count();

    let mut t2 = TextTable::new(&["Deployed technique", "Extra packets", "Extra bytes"]);
    let mut max_extra = 0i64;
    for technique in [
        Technique::InertLowTtl,
        Technique::TcpSegmentSplit { segments: 5 },
        Technique::TcpSegmentReorder { segments: 2 },
        Technique::TtlRstBeforeMatch,
    ] {
        let transformed = technique.apply(&base, &ctx).unwrap();
        let count = transformed
            .steps
            .iter()
            .filter(|s| matches!(s, Step::Packet(_)))
            .count();
        let extra = count as i64 - base_count as i64;
        max_extra = max_extra.max(extra);
        t2.row(vec![
            technique.description(),
            format!("{extra}"),
            format!("{}", extra.max(0) * 40),
        ]);
    }
    println!("{}", t2.render());
    assert!(max_extra < 5, "\"in practice k is always less than 5\"");
    let overhead = (max_extra.max(0) as f64 * 40.0) / trace.total_bytes() as f64;
    println!(
        "worst-case deployed overhead on this video flow: {:.4}% of bytes",
        overhead * 100.0
    );
    assert!(overhead < 0.005);

    harness::finish(&journal);
    println!("\n[ok] §5.3 cost findings reproduce");
}
