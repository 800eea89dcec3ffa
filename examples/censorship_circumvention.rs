//! Scenario: circumvent two very different national censors with the same
//! library and zero application changes.
//!
//! The GFC blocks with injected RSTs and does proper stream reassembly —
//! but anchors at flow start and forgets flows a RST tears down. Iran
//! serves a 403 page and checks *every* packet — but matches each packet
//! independently. lib·erate discovers each classifier's actual weakness
//! and picks a different technique for each.
//!
//! Run with: `cargo run --release --example censorship_circumvention`

use liberate::prelude::*;
use liberate_traces::apps;

fn circumvent(
    name: &str,
    kind: EnvKind,
    flow: &liberate_traces::recorded::RecordedTrace,
    rotate: bool,
) {
    println!("--- {name} ---");
    // One user: a one-worker deployment pool is the transparent proxy.
    let mut proxy = DeploymentPool::new(
        kind,
        OsKind::Linux,
        LiberateConfig::default(),
        1,
        CharacterizeOpts {
            rotate_server_ports: rotate,
            ..Default::default()
        },
    );

    // First flow: lib·erate learns everything it needs.
    let wave = proxy.run_flows(flow, 1).expect("a technique exists");
    let first = &wave.reports[0];
    let technique = proxy.active_technique().unwrap();
    println!(
        "  learned technique: {} ({:?} category)",
        technique.description(),
        technique.category()
    );
    println!(
        "  first flow: blocked = {}, complete = {}",
        first.outcome.blocked(),
        first.outcome.complete
    );
    assert!(!first.outcome.blocked() && first.outcome.complete);

    // Subsequent flows reuse the published technique with no testing
    // cost.
    for i in 0..3 {
        let again = proxy.run_flows(flow, 1).expect("published technique works");
        assert!(!again.reports[0].outcome.blocked(), "flow {i} blocked");
        assert!(!again.recharacterized, "no re-learning needed");
    }
    println!("  3 subsequent flows: evaded with zero additional measurement\n");
}

fn main() {
    println!("lib\u{b7}erate vs two national censors\n");
    circumvent(
        "Great Firewall of China (RST injection, full reassembly)",
        EnvKind::Gfc,
        &apps::economist_http(),
        true, // the GFC penalizes server:port pairs; rotate during tests
    );
    circumvent(
        "Iran (403 + RSTs, per-packet matching on port 80)",
        EnvKind::Iran,
        &apps::facebook_http(),
        false, // Iran's rules are port-specific; testing must stay on :80
    );
    println!("both censors evaded by the same application-agnostic library");
}
