//! Matcher parity: the compiled Aho–Corasick automaton must be
//! byte-identical to the naive rescanning matcher — same verdicts, same
//! events, same injected effects, same accounting — across every DPI
//! profile (all three `ReassemblyMode` families) and through the pooled
//! engine at 1 and 4 workers. The automaton is the default; the naive
//! scanner survives as the reference model this test compares against.

use std::net::Ipv4Addr;

use liberate::characterize::{characterize, CharacterizeOpts};
use liberate::config::LiberateConfig;
use liberate::detect::Signal;
use liberate::engine::{characterize_parallel, SessionPool};
use liberate::replay::Session;
use liberate_dpi::automaton::MatcherKind;
use liberate_dpi::device::{DpiConfig, DpiDevice};
use liberate_dpi::profiles::{gfc_device, iran_device, testbed_device, tmus_device, EnvKind};
use liberate_netsim::element::{Effects, PathElement};
use liberate_netsim::os::OsKind;
use liberate_packet::flow::Direction;
use liberate_packet::packet::Packet;
use liberate_packet::tcp::TcpFlags;
use liberate_substrate::time::SimTime;
use liberate_traces::apps;

const C: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);
const S: Ipv4Addr = Ipv4Addr::new(203, 0, 113, 10);

/// One scripted wire packet: (seconds, direction, bytes).
type Step = (u64, Direction, Vec<u8>);

fn syn(port: u16, seq: u32) -> Step {
    (
        0,
        Direction::ClientToServer,
        Packet::tcp(C, S, port, 80, seq, 0, vec![])
            .with_flags(TcpFlags::SYN)
            .serialize(),
    )
}

fn data_at(t: u64, port: u16, seq: u32, payload: &[u8]) -> Step {
    (
        t,
        Direction::ClientToServer,
        Packet::tcp(C, S, port, 80, seq, 1, payload.to_vec()).serialize(),
    )
}

fn server_data(t: u64, port: u16, seq: u32, payload: &[u8]) -> Step {
    (
        t,
        Direction::ServerToClient,
        Packet::tcp(S, C, 80, port, seq, 1, payload.to_vec()).serialize(),
    )
}

fn rst(t: u64, port: u16, seq: u32) -> Step {
    (
        t,
        Direction::ClientToServer,
        Packet::tcp(C, S, port, 80, seq, 0, vec![])
            .with_flags(TcpFlags::RST)
            .serialize(),
    )
}

/// The adversarial traffic menu: every reassembly edge the streaming
/// matcher must survive, over several flows (one client port each).
/// The matching keyword is `cloudfront.net` (testbed/T-Mobile),
/// `economist.com` (GFC), `facebook.com` (Iran) — each scenario embeds
/// all three so the same script exercises every profile.
fn scenarios() -> Vec<(&'static str, Vec<Step>)> {
    let host = b"GET /v HTTP/1.1\r\nHost: x.cloudfront.net economist.com facebook.com\r\n\r\n";
    let mut out = Vec::new();

    // In-order, single segment.
    out.push((
        "in-order",
        vec![syn(40_000, 100), data_at(1, 40_000, 101, host)],
    ));

    // Keyword split across a segment boundary (mid-"cloudfront.net",
    // mid-"economist.com", mid-"facebook.com" all covered by the cut).
    let cut = 30usize;
    out.push((
        "split-keyword",
        vec![
            syn(40_001, 200),
            data_at(1, 40_001, 201, &host[..cut]),
            data_at(2, 40_001, 201 + cut as u32, &host[cut..]),
        ],
    ));

    // Out-of-order: the tail arrives first, the head fills the hole.
    out.push((
        "out-of-order-hole",
        vec![
            syn(40_002, 300),
            data_at(1, 40_002, 301 + cut as u32, &host[cut..]),
            data_at(2, 40_002, 301, &host[..cut]),
        ],
    ));

    // Duplicate retransmissions, including a same-offset rewrite attempt.
    out.push((
        "duplicate-retransmit",
        vec![
            syn(40_003, 400),
            data_at(1, 40_003, 401, &host[..cut]),
            data_at(2, 40_003, 401, &host[..cut]),
            data_at(3, 40_003, 401, &vec![b'Z'; cut]),
            data_at(4, 40_003, 401 + cut as u32, &host[cut..]),
        ],
    ));

    // First-wins overlap decoy: an inert segment claims the keyword's
    // sequence range before the real bytes arrive (§4.3), plus a
    // retroactive overlap that rewrites already-contiguous bytes.
    out.push((
        "overlap-decoy",
        vec![
            syn(40_004, 500),
            data_at(1, 40_004, 501, b"GET /v HTTP/1.1\r\nHost: x."),
            data_at(
                2,
                40_004,
                526 + 10,
                b"ont.net economist.com facebook.com\r\n\r\n",
            ),
            data_at(3, 40_004, 526, b"XXXXXXXXXXXXXX"), // overlaps both neighbors
            data_at(4, 40_004, 526, b"cloudfr"),        // loses to the decoy
        ],
    ));

    // Gate breaker: one junk byte first, protocol bytes afterwards.
    out.push((
        "gate-fail",
        vec![
            syn(40_005, 600),
            data_at(1, 40_005, 601, b"X"),
            data_at(2, 40_005, 602, host),
        ],
    ));

    // Long non-matching flow with server chatter: nothing ever fires.
    let mut steps = vec![syn(40_006, 700)];
    let mut seq = 701u32;
    for i in 0..8u64 {
        let filler = format!("GET /chunk{i} HTTP/1.1\r\nHost: benign.example.net\r\n\r\n");
        steps.push(data_at(1 + i, 40_006, seq, filler.as_bytes()));
        seq += filler.len() as u32;
        steps.push(server_data(
            1 + i,
            40_006,
            9_000 + 100 * i as u32,
            b"HTTP/1.1 200 OK\r\n\r\n",
        ));
    }
    out.push(("non-matching-stream", steps));

    // RST mid-flow before the keyword arrives (flushes or shortens state
    // depending on the profile).
    out.push((
        "rst-mid-flow",
        vec![
            syn(40_007, 800),
            data_at(1, 40_007, 801, &host[..cut]),
            rst(2, 40_007, 801 + cut as u32),
            data_at(3, 40_007, 801 + cut as u32, &host[cut..]),
        ],
    ));

    // Position-constrained rule: the STUN attribute in the first client
    // payload packet (fires on the testbed only), then again too late.
    out.push((
        "position-rule",
        vec![
            syn(40_008, 900),
            data_at(1, 40_008, 901, &[0x00, 0x01, 0x00, 0x00, 0x80, 0x55]),
        ],
    ));
    out.push((
        "position-rule-too-late",
        vec![
            syn(40_009, 1000),
            data_at(1, 40_009, 1001, &[0x00, 0x01, 0x00, 0x00]),
            data_at(2, 40_009, 1005, &[0x80, 0x55]),
        ],
    ));

    // Out-of-window sequence jump (wrong-seq inert packet) then in-window.
    out.push((
        "out-of-window-seq",
        vec![
            syn(40_010, 1100),
            data_at(1, 40_010, 1101u32.wrapping_add(1_000_000), b"GET /evil"),
            data_at(2, 40_010, 1101, host),
        ],
    ));

    out
}

/// Feed every scenario through a naive and an automaton device built
/// from the same profile; verdicts, injected effects, events, accounting
/// and the final classification must be identical packet for packet.
fn assert_device_parity(profile: &str, config: DpiConfig) {
    let mut naive_cfg = config.clone();
    naive_cfg.matcher = MatcherKind::NaiveRescan;
    let mut auto_cfg = config;
    auto_cfg.matcher = MatcherKind::Automaton;
    let mut naive = DpiDevice::new(naive_cfg);
    let mut auto = DpiDevice::new(auto_cfg);

    for (name, steps) in scenarios() {
        for (i, (secs, dir, wire)) in steps.into_iter().enumerate() {
            let at = SimTime::from_secs(secs);
            let mut fx_n = Effects::default();
            let mut fx_a = Effects::default();
            let v_n = naive.process(at, dir, wire.clone().into(), &mut fx_n);
            let v_a = auto.process(at, dir, wire.into(), &mut fx_a);
            assert_eq!(v_n, v_a, "{profile}/{name}: verdict diverges at packet {i}");
            assert_eq!(
                format!("{fx_n:?}"),
                format!("{fx_a:?}"),
                "{profile}/{name}: injected effects diverge at packet {i}"
            );
        }
        assert_eq!(
            naive.events, auto.events,
            "{profile}/{name}: classification events diverge"
        );
        assert_eq!(
            (naive.billed_bytes, naive.zero_rated_bytes),
            (auto.billed_bytes, auto.zero_rated_bytes),
            "{profile}/{name}: accounting diverges"
        );
    }
    assert!(
        !auto.events.is_empty(),
        "{profile}: the scenario menu should classify something somewhere"
    );
}

#[test]
fn testbed_gated_per_packet_parity() {
    assert_device_parity("testbed", testbed_device());
}

#[test]
fn tmobile_gated_stream_parity() {
    assert_device_parity("tmobile", tmus_device());
}

#[test]
fn gfc_full_stream_parity() {
    assert_device_parity("gfc", gfc_device(3 * 3600));
}

#[test]
fn iran_per_packet_parity() {
    assert_device_parity("iran", iran_device());
}

/// Engine-level parity: within each execution mode (solo session, pool
/// at 1 worker, pool at 4 workers), characterization discovers the same
/// matching fields in the same number of rounds whichever matcher runs,
/// for every profiled environment. Modes are compared matcher-vs-matcher
/// rather than against each other: the pooled characterizer is allowed
/// to segment fields differently from the solo one, but the matcher
/// swap must never change the outcome of any mode.
///
/// The GFC environment is pinned solo and at 1 worker only: its pooled
/// multi-worker characterization is scheduling-dependent run to run
/// (reproducible on the pre-automaton tree with the naive matcher, so
/// it is an engine property, not a matcher one) and therefore cannot be
/// compared head-to-head across matchers. Re-measured post-automaton
/// (2026-08): six back-to-back 4-worker runs still drift by a few
/// hundred rounds, so the caveat stands; see DESIGN.md "Deployment at
/// scale" for the penalty-box interleaving mechanism, and
/// `gfc_pooled_fields_are_valid_at_4_workers` below for the invariant
/// that IS stable.
#[test]
fn characterization_is_matcher_invariant_at_1_and_4_workers() {
    let envs = [
        (
            EnvKind::Testbed,
            apps::amazon_prime_http(8_000),
            &[1usize, 4][..],
        ),
        (EnvKind::TMobile, apps::spotify_http(8_000), &[1, 4][..]),
        (EnvKind::Gfc, apps::economist_http(), &[1][..]),
        (EnvKind::Iran, apps::facebook_http(), &[1, 4][..]),
    ];
    let opts = CharacterizeOpts::default();
    let solo =
        |kind: EnvKind, trace: &liberate_traces::recorded::RecordedTrace, matcher: MatcherKind| {
            let mut session = Session::new(kind, OsKind::Linux, LiberateConfig::default());
            session
                .env
                .dpi_mut()
                .expect("profiled env has a DPI device")
                .config
                .matcher = matcher;
            let c = characterize(&mut session, trace, &Signal::Readout, &opts);
            let fields: Vec<String> = c.fields.iter().map(|f| f.as_text()).collect();
            (fields, c.rounds)
        };
    let pooled = |kind: EnvKind,
                  trace: &liberate_traces::recorded::RecordedTrace,
                  matcher: MatcherKind,
                  workers: usize| {
        let mut pool = SessionPool::new(kind, OsKind::Linux, LiberateConfig::default(), workers);
        for w in 0..workers {
            pool.session_mut(w)
                .env
                .dpi_mut()
                .expect("profiled env has a DPI device")
                .config
                .matcher = matcher;
        }
        let c = characterize_parallel(&mut pool, trace, &Signal::Readout, &opts);
        let fields: Vec<String> = c.fields.iter().map(|f| f.as_text()).collect();
        (fields, c.rounds)
    };
    for (kind, trace, worker_counts) in envs {
        let naive = solo(kind, &trace, MatcherKind::NaiveRescan);
        assert!(
            !naive.0.is_empty(),
            "{}: characterization should find matching fields",
            kind.name()
        );
        assert_eq!(
            solo(kind, &trace, MatcherKind::Automaton),
            naive,
            "{}: solo characterization diverges between matchers",
            kind.name()
        );
        for &workers in worker_counts {
            assert_eq!(
                pooled(kind, &trace, MatcherKind::Automaton, workers),
                pooled(kind, &trace, MatcherKind::NaiveRescan, workers),
                "{}: pooled characterization at {workers} workers diverges between matchers",
                kind.name()
            );
        }
    }
}

/// GFC at 4 workers, the regression test that survives the scheduling
/// caveat above: whichever exact field segmentation a pooled run lands
/// on, the *published entry as a whole* must be valid — a fresh session
/// replaying the trace with every cached field blinded together must
/// escape classification, while the unmodified trace still classifies —
/// for both matchers. (Per-field gating is NOT the invariant here: GFC's
/// keyword coverage is redundant, so blinding any one field leaves the
/// rule firing even for a solo characterization. `RuleCache::verify`'s
/// per-field check therefore reports GFC entries stale by design; the
/// collective blind below is the contract community rule sharing
/// actually needs from a published entry.)
#[test]
fn gfc_pooled_fields_are_valid_at_4_workers() {
    use liberate::cache::{CachedRules, RuleCache};
    use liberate::detect::probe;
    use liberate::replay::ReplayOpts;

    let trace = apps::economist_http();
    let opts = CharacterizeOpts::default();
    for matcher in [MatcherKind::NaiveRescan, MatcherKind::Automaton] {
        let mut pool = SessionPool::new(EnvKind::Gfc, OsKind::Linux, LiberateConfig::default(), 4);
        for w in 0..4 {
            pool.session_mut(w).env.dpi_mut().unwrap().config.matcher = matcher;
        }
        let c = characterize_parallel(&mut pool, &trace, &Signal::Readout, &opts);
        assert!(
            !c.fields.is_empty(),
            "{matcher:?}: pooled GFC characterization should find fields"
        );

        // Round-trip through the cache so the check covers what a second
        // user would actually fetch, not the in-memory characterization.
        let mut cache = RuleCache::new();
        cache.publish("gfc", &trace.app, CachedRules::from_characterization(&c, 0));
        let cached = cache.lookup("gfc", &trace.app).expect("just published");
        let mut blinded = trace.clone();
        for f in &cached.fields {
            assert!(
                f.end <= blinded.messages[f.message].payload.len(),
                "{matcher:?}: cached field {}..{} overruns message {}",
                f.start,
                f.end,
                f.message
            );
            liberate_packet::mutate::invert_range(
                &mut blinded.messages[f.message].payload,
                f.start..f.end,
            );
        }

        let mut fresh = Session::new(EnvKind::Gfc, OsKind::Linux, LiberateConfig::default());
        fresh.env.dpi_mut().unwrap().config.matcher = matcher;
        let (_, clean_classified) = probe(
            &mut fresh,
            &blinded,
            &ReplayOpts::default(),
            &Signal::Readout,
        );
        assert!(
            !clean_classified,
            "{matcher:?}: blinding every cached field together must defeat the rule"
        );
        let (_, still_classified) =
            probe(&mut fresh, &trace, &ReplayOpts::default(), &Signal::Readout);
        assert!(
            still_classified,
            "{matcher:?}: the unmodified trace must still classify (the rule is real)"
        );
    }
}
