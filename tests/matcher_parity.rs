//! Matcher parity at the device: across every DPI profile (all three
//! `ReassemblyMode` families) and an adversarial menu of reassembly
//! edges, the device's verdicts, injected effects, journaled
//! classifications and accounting must equal the goldens under
//! `tests/fixtures/matcher/<profile>.txt`, one line per packet plus the
//! classifications (each rendered from its journal event and the
//! scenario's flow key) and accounting after each scenario. The goldens
//! were written while the device still carried the
//! naive rescanning matcher beside the automaton, by a test asserting the
//! two agreed packet for packet; the rescan now lives on as the
//! matcher-level reference (`RuleSet::first_match_counted`) that the
//! `automaton` unit tests and the dpi property tests compare against.
//! Regenerate only for a change meant to alter device behaviour:
//! `UPDATE_FIXTURES=1 cargo test --test matcher_parity`.

mod common;

use std::net::Ipv4Addr;

use liberate::characterize::CharacterizeOpts;
use liberate::config::LiberateConfig;
use liberate::detect::Signal;
use liberate::engine::{characterize_parallel, SessionPool};
use liberate::replay::Session;
use liberate_dpi::device::{DpiConfig, DpiDevice};
use liberate_dpi::profiles::{gfc_device, iran_device, testbed_device, tmus_device, EnvKind};
use liberate_netsim::element::{Effects, PathElement, TimedPacket, Verdict};
use liberate_netsim::os::OsKind;
use liberate_obs::{EventKind, Journal};
use liberate_packet::flow::{Direction, FlowKey};
use liberate_packet::packet::{Packet, ParsedPacket};
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

    // An in-order split into five packets: the keyword arrives in the
    // fifth, one past a four-packet stream window (T-Mobile, §6.2).
    let mut steps = vec![syn(40_011, 1200)];
    let mut seq = 1201u32;
    let pieces: [&[u8]; 5] = [
        b"GET /v HTTP/1.1\r\n",
        b"X-Pad: a\r\n",
        b"X-Pad: b\r\n",
        b"X-Pad: c\r\n",
        b"Host: x.cloudfront.net economist.com facebook.com\r\n\r\n",
    ];
    for (i, piece) in pieces.iter().enumerate() {
        steps.push(data_at(1 + i as u64, 40_011, seq, piece));
        seq += piece.len() as u32;
    }
    out.push(("window-cap", steps));

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

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn render_injected(pkts: &[TimedPacket]) -> String {
    let each: Vec<String> = pkts
        .iter()
        .map(|p| format!("{}us:{}", p.at.as_micros(), hex(&p.wire)))
        .collect();
    format!("[{}]", each.join(","))
}

/// One golden line for one packet: the verdict (the forwarded wire as
/// `same` when untouched, else its bytes) and every injected packet.
fn render_packet(name: &str, i: usize, input: &[u8], verdict: &Verdict, fx: &Effects) -> String {
    let verdict = match verdict {
        Verdict::Forward(p) if p.wire == *input => format!("forward {}us same", p.at.as_micros()),
        Verdict::Forward(p) => format!("forward {}us {}", p.at.as_micros(), hex(&p.wire)),
        Verdict::Drop => "drop".to_string(),
    };
    format!(
        "{name} #{i} {verdict} to_client={} to_server={}\n",
        render_injected(&fx.toward_client),
        render_injected(&fx.toward_server)
    )
}

/// One golden line for one classification: the journaled verdict with
/// the scenario's flow key (every scenario is one flow), in the format
/// the goldens were written in.
fn render_verdict(name: &str, t_us: u64, flow: FlowKey, class: &str, rule_id: &str) -> String {
    format!(
        "{name} event ClassificationEvent {{ at: {:?}, flow: {flow:?}, class: {class:?}, rule_id: {rule_id:?} }}\n",
        SimTime::from_micros(t_us)
    )
}

/// Feed every scenario through a device built from the profile; its
/// verdicts, injected effects, journaled classifications and accounting
/// must equal the profile's golden packet for packet.
fn assert_device_parity(profile: &str, config: DpiConfig) {
    let mut dev = DpiDevice::new(config);
    let mut golden = String::new();
    let mut classified = 0;
    for (name, steps) in scenarios() {
        let journal = Journal::new();
        let syn = ParsedPacket::parse(&steps[0].2).expect("a scenario opens with its SYN");
        let flow = FlowKey::from_packet(&syn).expect("a TCP flow");
        for (i, (secs, dir, wire)) in steps.into_iter().enumerate() {
            let mut fx = Effects::default();
            let at = SimTime::from_secs(secs);
            let verdict = dev.process(&journal, at, dir, wire.clone().into(), &mut fx);
            golden.push_str(&render_packet(name, i, &wire, &verdict, &fx));
        }
        for e in journal.events() {
            if let EventKind::ClassifierVerdict { class, rule_id } = &e.kind {
                golden.push_str(&render_verdict(name, e.t_us, flow, class, rule_id));
                classified += 1;
            }
        }
        golden.push_str(&format!(
            "{name} billed={} zero_rated={}\n",
            dev.billed_bytes, dev.zero_rated_bytes
        ));
    }
    assert!(
        classified > 0,
        "{profile}: the scenario menu should classify something somewhere"
    );
    common::assert_golden(&format!("matcher/{profile}.txt"), &golden);
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

/// GFC at 4 workers: whichever exact field segmentation a pooled run
/// lands on, the *published entry as a whole* must be valid — a fresh
/// session replaying the trace with every cached field blinded together
/// must escape classification, while the unmodified trace still
/// classifies. (Per-field gating is NOT the invariant here: GFC's
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
    let mut pool = SessionPool::new(EnvKind::Gfc, OsKind::Linux, LiberateConfig::default(), 4);
    let c = characterize_parallel(&mut pool, &trace, &Signal::Readout, &opts);
    assert!(
        !c.fields.is_empty(),
        "pooled GFC characterization should find fields"
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
            "cached field {}..{} overruns message {}",
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
    let (_, clean_classified) = probe(
        &mut fresh,
        &blinded,
        &ReplayOpts::default(),
        &Signal::Readout,
    );
    assert!(
        !clean_classified,
        "blinding every cached field together must defeat the rule"
    );
    let (_, still_classified) = probe(&mut fresh, &trace, &ReplayOpts::default(), &Signal::Readout);
    assert!(
        still_classified,
        "the unmodified trace must still classify (the rule is real)"
    );
}
