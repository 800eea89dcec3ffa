//! Observability guarantees: journal determinism (identical seeds yield
//! byte-identical JSONL; different seeds differ) and metric correctness
//! (a scripted replay produces exactly the counter values the packets
//! warrant).

use liberate::cache::{CachedRules, RuleCache};
use liberate::characterize::{characterize, Characterization, CharacterizeOpts};
use liberate::config::LiberateConfig;
use liberate::detect::Signal;
use liberate::probe::locate_middlebox;
use liberate::replay::{ReplayOpts, Session};
use liberate_dpi::profiles::EnvKind;
use liberate_netsim::os::OsKind;
use liberate_obs::{
    build_span_forest, critical_path, folded_stacks, parse_journal, to_jsonl, validate_jsonl,
    Counter, EventKind, Hist, Journal, Phase,
};
use liberate_substrate::capture::TapPoint;
use liberate_substrate::Substrate;
use liberate_traces::recorded::{RecordedTrace, Sender, TraceMessage, TraceProtocol};

mod common;

/// A minimal Skype-like UDP trace: three client datagrams, the first a
/// STUN-shaped packet (0x0001 binding-request prefix passes the testbed
/// gate) carrying the 0x8055 MS-SERVICE-QUALITY attribute the skype-sq
/// rule keys on.
fn scripted_trace() -> RecordedTrace {
    let mut t = RecordedTrace::new("scripted", TraceProtocol::Udp, 3478);
    let mut stun = vec![0x00, 0x01, 0x00, 0x08, 0x21, 0x12, 0xa4, 0x42];
    stun.extend_from_slice(&[0u8; 12]); // transaction id
    stun.extend_from_slice(&[0x80, 0x55, 0x00, 0x04, 0x00, 0x01, 0x00, 0x00]);
    t.push_message(TraceMessage {
        sender: Sender::Client,
        payload: stun,
        gap_micros: 0,
    });
    for i in 0..2u8 {
        t.push_message(TraceMessage {
            sender: Sender::Client,
            payload: vec![0xa0 + i; 120],
            gap_micros: 20_000,
        });
    }
    t
}

fn run_scripted(seed: u64) -> (String, Characterization) {
    let config = LiberateConfig {
        seed,
        ..LiberateConfig::default()
    };
    let mut session = Session::new(EnvKind::Testbed, OsKind::Linux, config);
    let trace = scripted_trace();
    let c = characterize(
        &mut session,
        &trace,
        &Signal::Readout,
        &CharacterizeOpts::default(),
    );
    (to_jsonl(session.journal()), c)
}

#[test]
fn same_seed_journals_are_byte_identical() {
    let (a, ca) = run_scripted(7);
    let (b, cb) = run_scripted(7);
    assert_eq!(ca.rounds, cb.rounds);
    assert_eq!(a, b, "identical seeds must produce byte-identical JSONL");
    let lines = validate_jsonl(&a).expect("journal JSONL is well-formed");
    assert!(
        lines > 10,
        "expected a non-trivial journal, got {lines} lines"
    );
}

/// The seed-7 scripted characterization exports exactly the checked-in
/// journal: a refactor of how journals are plumbed must not move a byte.
#[test]
fn scripted_journal_matches_its_golden() {
    let (journal, _) = run_scripted(7);
    common::assert_golden("journals/scripted_seed7.jsonl", &journal);
}

/// A GFC localization TTL sweep with every capture tap on exports
/// exactly the checked-in journal. Probes at TTL 1 to 9 expire at a
/// plain router hop and their ICMP time-exceeded crosses the plain hops
/// back to the client; the client-egress tap holds every sent buffer, so
/// the first TTL rewrite of each faults a counted copy-on-write.
#[test]
fn gfc_localization_sweep_journal_matches_its_golden() {
    let mut session = Session::new(EnvKind::Gfc, OsKind::Linux, LiberateConfig::default());
    session.env.set_capture_points(&TapPoint::ALL);
    let loc = locate_middlebox(
        &mut session,
        &liberate_traces::apps::control_http(),
        &liberate_traces::http::get_request("www.economist.com", "/liberate-decoy", "p"),
        &Signal::Blocking,
    );
    assert_eq!(loc.middlebox_ttl, Some(10), "paper §6.5: TTL 10");
    assert!(session.journal().metrics.get(Counter::PayloadCopies) > 0);
    common::assert_golden(
        "journals/gfc_localization_taps.jsonl",
        &to_jsonl(session.journal()),
    );
}

/// Solo sessions that share one journal and run every judged-probe
/// entry point outside the wave search export exactly the checked-in
/// journal. On the testbed they run an inert-reach check, a bilateral
/// run and a rule-cache verification. On T-Mobile they run a zero-rated
/// masquerade, whose billed reads draw from the session RNG. On the GFC
/// they run an evaluation, and on Iran a position ladder.
#[test]
fn solo_probe_journal_matches_its_golden() {
    use liberate::bilateral::{run_bilateral, BilateralCodec};
    use liberate::characterize::{probe_position, MatchingField, PositionProfile};
    use liberate::evaluate::{find_working_technique, EvaluationInputs};
    use liberate::evasion::{EvasionContext, Technique};
    use liberate::masquerade::{run_masqueraded, Masquerade};
    use liberate::probe::{decoy_request, inert_reach, InertReach};
    use liberate_packet::mutate::ByteRegion;
    use liberate_traces::{apps, generator, http};
    use std::sync::Arc;

    let journal = Arc::new(Journal::new());
    let session = |kind| {
        let config = LiberateConfig {
            seed: 7,
            ..LiberateConfig::default()
        };
        let mut s = Session::new(kind, OsKind::Linux, config);
        s.attach_journal(Arc::clone(&journal));
        s
    };
    let video_bait = http::get_request("video.cloudfront.net", "/liberate-decoy", "p");

    let mut testbed = session(EnvKind::Testbed);
    let ctx = EvasionContext {
        matching_fields: Vec::new(),
        decoy: video_bait.clone(),
        middlebox_ttl: 1,
    };
    let reach = inert_reach(
        &mut testbed,
        &apps::control_http(),
        &Technique::InertIpWrongChecksum,
        &ctx,
        &Signal::Readout,
    );
    assert_eq!(reach, Some(InertReach::ReachedMiddleboxOnly));

    let prime = apps::amazon_prime_http(20_000);
    let at = http::find(&prime.messages[0].payload, b"cloudfront").unwrap();
    let host = MatchingField {
        message: 0,
        sender: Sender::Client,
        range: at..at + 10,
        bytes: b"cloudfront".to_vec(),
    };
    let codec = BilateralCodec::new(0x5a, vec![host.clone()]);
    let report = run_bilateral(
        &mut testbed,
        &prime,
        &codec,
        &Signal::Readout,
        &ReplayOpts::default(),
    );
    assert!(!report.classified && report.outcome.complete);

    let mut cache = RuleCache::new();
    let learned = Characterization {
        fields: vec![host],
        position: PositionProfile {
            prepend_break: Some(1),
            packet_based: true,
            matches_all_packets: false,
        },
        rounds: 0,
        bytes_sent: 0,
        bytes_received: 0,
        elapsed: std::time::Duration::ZERO,
    };
    cache.publish(
        "testbed",
        &prime.app,
        CachedRules::from_characterization(&learned, 0),
    );
    let fresh = cache.verify(
        "testbed",
        &prime.app,
        &mut testbed,
        &prime,
        &Signal::Readout,
    );
    assert_eq!(fresh, Some(true));

    let mut tmobile = session(EnvKind::TMobile);
    let workload = generator::generate(&generator::WorkloadSpec {
        server_bytes: 500_000,
        ..Default::default()
    });
    let m = Masquerade::ttl_limited(video_bait, 3);
    let report = run_masqueraded(&mut tmobile, &workload, &m, &Signal::ZeroRating).unwrap();
    assert!(report.disguised && report.outcome.complete);

    let mut gfc = session(EnvKind::Gfc);
    let economist = apps::economist_http();
    let at = http::find(&economist.messages[0].payload, b"economist").unwrap();
    let inputs = EvaluationInputs {
        signal: Signal::Blocking,
        ctx: EvasionContext {
            matching_fields: vec![ByteRegion::new(0, at..at + 9)],
            decoy: decoy_request(),
            middlebox_ttl: 10,
        },
        rotate_server_ports: true,
    };
    let match_and_forget = PositionProfile {
        prepend_break: Some(1),
        packet_based: true,
        matches_all_packets: false,
    };
    let (winner, _) = find_working_technique(&mut gfc, &economist, &match_and_forget, &inputs)
        .expect("the GFC is evadable");
    assert_eq!(winner.cc, Some(true));

    let mut iran = session(EnvKind::Iran);
    let (position, rounds) = probe_position(
        &mut iran,
        &apps::facebook_http(),
        &Signal::Blocking,
        &CharacterizeOpts::default(),
    );
    assert!(position.matches_all_packets);
    assert_eq!(rounds, 10);

    common::assert_golden("journals/solo_probes_seed7.jsonl", &to_jsonl(&journal));
}

#[test]
fn different_seeds_produce_different_journals() {
    let (a, _) = run_scripted(7);
    let (b, _) = run_scripted(8);
    assert_ne!(a, b, "the seed is part of the session_started event");
}

#[test]
fn scripted_replay_counts_exactly() {
    let mut session = Session::new(EnvKind::Testbed, OsKind::Linux, LiberateConfig::default());
    let trace = scripted_trace();
    let out = session.replay_trace(&trace, &ReplayOpts::default());
    // No server bytes are scripted, so `complete` cannot hold; the flow
    // must simply not be blocked (voip is throttled, not dropped).
    assert!(!out.blocked());

    let m = &session.journal().metrics;
    // Three client datagrams entered the network...
    assert_eq!(m.get(Counter::PacketsInjected), 3);
    // ...each dispatched through DPI, the silent lab router, and final
    // delivery: three event-loop steps per packet.
    assert_eq!(m.get(Counter::PacketsStepped), 9);
    // One replay, lowered to one step per datagram plus one wait step
    // per inter-message gap (two 20 ms gaps).
    assert_eq!(m.get(Counter::ReplaysExecuted), 1);
    assert_eq!(m.get(Counter::StepsLowered), 5);
    // The STUN packet matched skype-sq exactly once; one flow entry, no
    // eviction within the replay window.
    assert_eq!(m.get(Counter::Verdicts), 1);
    assert_eq!(m.get(Counter::FlowsCreated), 1);
    assert_eq!(m.get(Counter::FlowsEvicted), 0);
    // Nothing was blinded and no technique ran in a bare replay.
    assert_eq!(m.get(Counter::BytesBlinded), 0);
    assert_eq!(m.get(Counter::TechniquesTried), 0);

    let events = session.journal().events();
    let verdicts = events
        .iter()
        .filter_map(|e| match &e.kind {
            EventKind::ClassifierVerdict { class, rule_id } => {
                Some((class.clone(), rule_id.clone()))
            }
            _ => None,
        })
        .collect::<Vec<_>>();
    assert_eq!(verdicts, vec![("voip".to_string(), "skype-sq".to_string())]);
}

#[test]
fn blinding_is_metered_during_characterization() {
    let (_, c) = run_scripted(3);
    assert!(!c.fields.is_empty(), "the 0x8055 attribute must be found");
    let config = LiberateConfig {
        seed: 3,
        ..LiberateConfig::default()
    };
    let mut session = Session::new(EnvKind::Testbed, OsKind::Linux, config);
    characterize(
        &mut session,
        &scripted_trace(),
        &Signal::Readout,
        &CharacterizeOpts::default(),
    );
    let m = &session.journal().metrics;
    assert!(m.get(Counter::BytesBlinded) > 0);
    assert_eq!(m.get(Counter::ReplaysExecuted), c.rounds);
}

#[test]
fn same_seed_span_ids_and_hist_snapshots_are_pinned() {
    let (a, _) = run_scripted(7);
    let (b, _) = run_scripted(7);

    // Span boundaries — ids, parents, order — must be byte-identical
    // lines, not merely equivalent trees.
    let span_lines = |text: &str| -> Vec<String> {
        text.lines()
            .filter(|l| {
                l.contains("\"event\":\"span_start\"") || l.contains("\"event\":\"span_end\"")
            })
            .map(String::from)
            .collect()
    };
    assert_eq!(span_lines(&a), span_lines(&b));
    assert!(!span_lines(&a).is_empty());

    // Histogram snapshot lines too: same buckets, counts, sums.
    let hist_lines = |text: &str| -> Vec<String> {
        text.lines()
            .filter(|l| l.contains("\"event\":\"hist\""))
            .map(String::from)
            .collect()
    };
    assert_eq!(hist_lines(&a), hist_lines(&b));
    assert!(
        !hist_lines(&a).is_empty(),
        "characterization must export histograms"
    );

    // The non-deterministic host-clock histogram must never reach the
    // export, or same-seed byte identity would be a coin flip.
    assert!(!a.contains(Hist::ReplayHostMicros.name()));
}

#[test]
fn span_tree_reconstructs_with_replays_under_probe_phases() {
    let (text, c) = run_scripted(7);
    let parsed = parse_journal(&text).expect("exported journal parses");
    let forest = build_span_forest(&parsed.events);

    // Every replay span nests under a Fig. 3 probe phase, never at the
    // top level: the parent chain is what obs-query `top` reports. Wave
    // spans (engine plumbing) may sit in between.
    let mut replay_spans = 0;
    for node in &forest.nodes {
        if node.phase == Phase::Replay {
            replay_spans += 1;
            let mut parent = node.parent.expect("replay spans have parents");
            while forest.nodes[parent].phase == Phase::Wave {
                parent = forest.nodes[parent]
                    .parent
                    .expect("wave spans nest under a Fig. 3 phase");
            }
            assert!(
                !forest.nodes[parent].phase.is_micro(),
                "replay nests under a Fig. 3 phase"
            );
        }
    }
    assert_eq!(replay_spans as u64, c.rounds, "one replay span per round");

    // The critical path of each root starts at the root and only
    // descends: durations never increase along the chain.
    for &root in &forest.roots {
        let path = critical_path(&forest, root);
        assert_eq!(path[0], root);
        for w in path.windows(2) {
            assert!(forest.nodes[w[0]].duration_us() >= forest.nodes[w[1]].duration_us());
        }
    }

    // Folded stacks conserve time: total self time equals the total
    // root duration.
    let folded_total: u64 = folded_stacks(&forest).iter().map(|(_, us)| us).sum();
    let root_total: u64 = forest
        .roots
        .iter()
        .map(|&r| forest.nodes[r].duration_us())
        .sum();
    assert_eq!(folded_total, root_total);
}

#[test]
fn exported_hist_quantiles_match_live_histograms() {
    let config = LiberateConfig {
        seed: 7,
        ..LiberateConfig::default()
    };
    let mut session = Session::new(EnvKind::Testbed, OsKind::Linux, config);
    characterize(
        &mut session,
        &scripted_trace(),
        &Signal::Readout,
        &CharacterizeOpts::default(),
    );
    let live = session
        .journal()
        .metrics
        .hist(Hist::StepSimMicros)
        .snapshot();
    assert!(live.count > 0);

    let parsed = parse_journal(&to_jsonl(session.journal())).expect("journal parses");
    let exported = parsed
        .hist(Hist::StepSimMicros.name())
        .expect("step-sim-micros exported");
    assert_eq!(exported, &live, "export round-trips the full snapshot");
    for q in [0.5, 0.9, 0.99] {
        assert_eq!(exported.quantile(q), live.quantile(q));
    }
}

#[test]
fn disabled_journal_suppresses_events_but_not_counters() {
    let config = LiberateConfig::default();
    let mut session = Session::new(EnvKind::Testbed, OsKind::Linux, config);
    session.attach_journal(std::sync::Arc::new(Journal::disabled()));
    let out = session.replay_trace(&scripted_trace(), &ReplayOpts::default());
    assert!(!out.blocked());

    let j = session.journal();
    assert_eq!(j.len(), 0, "no events while disabled");
    let empty_hists = Hist::ALL
        .iter()
        .all(|&h| j.metrics.hist(h).snapshot().count == 0);
    assert!(empty_hists, "no histogram samples while disabled");
    // Counters are the cheap always-on surface; they keep moving.
    assert_eq!(j.metrics.get(Counter::PacketsInjected), 3);
}

#[test]
fn observed_cache_lookups_emit_hit_and_miss() {
    let journal = Journal::new();
    let mut cache = RuleCache::new();

    let mut session = Session::new(EnvKind::Testbed, OsKind::Linux, LiberateConfig::default());
    let trace = scripted_trace();
    let c = characterize(
        &mut session,
        &trace,
        &Signal::Readout,
        &CharacterizeOpts::default(),
    );
    cache.publish(
        "testbed",
        &trace.app,
        CachedRules::from_characterization(&c, 0),
    );

    assert!(cache
        .lookup_observed("testbed", &trace.app, &journal, 10)
        .is_some());
    assert!(cache
        .lookup_observed("elsewhere", &trace.app, &journal, 20)
        .is_none());

    assert_eq!(journal.metrics.get(Counter::CacheHits), 1);
    assert_eq!(journal.metrics.get(Counter::CacheMisses), 1);
    let kinds: Vec<&'static str> = journal.events().iter().map(|e| e.kind.name()).collect();
    assert_eq!(kinds, vec!["cache_hit", "cache_miss"]);
}
