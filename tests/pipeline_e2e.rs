//! End-to-end pipeline tests: lib·erate's four phases run unmodified
//! against each environment and land on the outcomes §6 reports.

use liberate::prelude::*;
use liberate_traces::apps;

fn session(kind: EnvKind) -> Session {
    Session::new(kind, OsKind::Linux, LiberateConfig::default())
}

#[test]
fn gfc_pipeline_finds_an_evasion() {
    let mut s = session(EnvKind::Gfc);
    let copts = CharacterizeOpts {
        rotate_server_ports: true,
        ..Default::default()
    };
    let report = run_pipeline(&mut s, &apps::economist_http(), &copts).unwrap();
    assert!(report.detection.blocking);
    assert_eq!(report.localization.unwrap().middlebox_ttl, Some(10));
    let chosen = report.chosen.expect("GFC is evadable");
    assert_eq!(chosen.cc, Some(true));
    assert!(chosen.app_intact);
    // The fields include the censored hostname.
    let fields: String = report
        .characterization
        .unwrap()
        .fields
        .iter()
        .map(|f| f.as_text())
        .collect();
    assert!(fields.contains("economist"));
}

#[test]
fn iran_pipeline_lands_on_splitting() {
    let mut s = session(EnvKind::Iran);
    let report =
        run_pipeline(&mut s, &apps::facebook_http(), &CharacterizeOpts::default()).unwrap();
    assert!(report.detection.blocking);
    assert!(
        report
            .characterization
            .as_ref()
            .unwrap()
            .position
            .matches_all_packets
    );
    let chosen = report.chosen.expect("Iran is evadable");
    // An all-packets classifier leaves only splitting/reordering (§5.2).
    assert!(matches!(
        chosen.effective,
        Technique::TcpSegmentSplit { .. } | Technique::TcpSegmentReorder { .. }
    ));
}

#[test]
fn tmobile_pipeline_beats_zero_rating() {
    let mut s = session(EnvKind::TMobile);
    let report = run_pipeline(
        &mut s,
        &apps::amazon_prime_http(400_000),
        &CharacterizeOpts::default(),
    )
    .unwrap();
    assert!(report.detection.zero_rating);
    assert_eq!(report.localization.unwrap().middlebox_ttl, Some(3));
    let chosen = report.chosen.expect("T-Mobile is evadable");
    assert_eq!(chosen.cc, Some(true));
}

#[test]
fn att_pipeline_finds_no_packet_level_technique() {
    let mut s = session(EnvKind::Att);
    let report = run_pipeline(
        &mut s,
        &apps::nbcsports_http(600_000),
        &CharacterizeOpts::default(),
    )
    .unwrap();
    assert!(report.detection.throttling);
    assert!(
        report.chosen.is_none(),
        "a terminating proxy defeats all packet-level techniques"
    );
}

#[test]
fn sprint_pipeline_reports_no_differentiation() {
    let mut s = session(EnvKind::Sprint);
    let err = run_pipeline(
        &mut s,
        &apps::amazon_prime_http(400_000),
        &CharacterizeOpts::default(),
    )
    .unwrap_err();
    assert_eq!(err, LiberateError::NoDifferentiation);
}

#[test]
fn server_supported_dummy_prefix_beats_gfc_testbed_tmobile() {
    // §1: "inserting even one packet carrying dummy traffic (that is
    // ignored by the server) at the beginning of a flow evades
    // classification in our testbed, T-Mobile, AT&T, and the GFC."
    for (kind, trace) in [
        (EnvKind::Testbed, apps::amazon_prime_http(300_000)),
        (EnvKind::TMobile, apps::amazon_prime_http(300_000)),
        (EnvKind::Gfc, apps::economist_http()),
    ] {
        let mut s = session(kind);
        let ctx = EvasionContext::blind(Vec::new(), s.env.hops_before_middlebox + 1);
        let out = s
            .replay_with(
                &trace,
                &Technique::DummyPrefixData { bytes: 1 },
                &ctx,
                &ReplayOpts::default(),
            )
            .unwrap();
        assert!(
            !out.blocked() && out.complete && out.integrity_ok,
            "{kind:?}: {out:?}"
        );
        // And it genuinely changed classification where we can read it.
        if kind == EnvKind::Testbed {
            let key = liberate_packet::flow::FlowKey::new(
                liberate_dpi::profiles::CLIENT_ADDR,
                liberate_dpi::profiles::SERVER_ADDR,
                out.client_port,
                out.server_port,
                6,
            );
            assert_eq!(s.env.dpi_mut().unwrap().classification_of(key), None);
        }
    }
}

#[test]
fn adaptation_loop_survives_rule_change() {
    // Condensed version of the §4.2 adaptation story at the integration
    // level: learn, get countered, re-learn — one user, so a one-worker
    // deployment pool.
    let mut proxy = DeploymentPool::new(
        EnvKind::Testbed,
        OsKind::Linux,
        LiberateConfig::default(),
        1,
        CharacterizeOpts::default(),
    );
    let trace = apps::amazon_prime_http(1_200_000);
    proxy.run_flows(&trace, 1).unwrap();
    let first = proxy.active_technique().unwrap();

    // Countermeasure: the decoy class is blacklisted.
    {
        let dpi = proxy.pool_mut().session_mut(0).env.dpi_mut().unwrap();
        dpi.config.policies.insert(
            "web".into(),
            liberate_dpi::actions::Policy::throttle(1_500_000, 420_000),
        );
        dpi.reset();
    }
    let adapted = proxy.run_flows(&trace, 1).unwrap();
    assert!(adapted.recharacterized);
    assert_ne!(proxy.active_technique().unwrap(), first);
}
