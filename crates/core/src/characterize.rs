//! Classifier characterization (§4.2, §5.1): reverse-engineering *which
//! bytes* trigger classification and *how much of the flow* the classifier
//! inspects.
//!
//! Two instruments:
//!
//! 1. **Binary blinding search** — invert ("blind") byte ranges of the
//!    trace, halving them level by level, and replay; ranges whose
//!    blinding stops classification contain matching fields. Runs over
//!    both directions (AT&T also matches on server-to-client
//!    `Content-Type`, §6.3). The search itself is the engine's
//!    level-synchronous wave search ([`crate::engine`]); a bare session
//!    runs it as a one-worker pool.
//! 2. **Position probing** — prepend increasing numbers of random
//!    packets/bytes to find packet- or byte-count inspection limits and
//!    detect match-everything classifiers (Iran).

use std::ops::Range;
use std::time::Duration;

use rand::Rng;

use liberate_obs::{Counter, Journal, Phase};
use liberate_packet::mutate::{invert_range, merge_regions, ByteRegion};
use liberate_substrate::Substrate;
use liberate_traces::recorded::{RecordedTrace, Sender, TraceMessage};

use crate::detect::{probe, Signal};
use crate::replay::{ReplayOpts, Session};

/// A matching field located in the trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MatchingField {
    /// Index of the trace message containing the field.
    pub message: usize,
    /// Direction of that message.
    pub sender: Sender,
    /// Byte range within the message payload.
    pub range: Range<usize>,
    /// The matched bytes themselves.
    pub bytes: Vec<u8>,
}

impl MatchingField {
    /// Render printable fields as text (the paper: "matching fields in
    /// HTTP/S traffic typically contain human-readable text").
    pub fn as_text(&self) -> String {
        self.bytes
            .iter()
            .map(|&b| {
                if b.is_ascii_graphic() || b == b' ' {
                    b as char
                } else {
                    '·'
                }
            })
            .collect()
    }
}

/// What position probing learned.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PositionProfile {
    /// Smallest number of prepended MTU-sized packets that stopped
    /// classification (`None`: never, up to the configured maximum).
    pub prepend_break: Option<usize>,
    /// Prepending the same number of 1-byte packets also stopped it: the
    /// limit is packet-count-based, not byte-based.
    pub packet_based: bool,
    /// Classification survived every prepend: the classifier inspects all
    /// packets (Iran, §6.6).
    pub matches_all_packets: bool,
}

/// Options steering characterization.
#[derive(Debug, Clone)]
pub struct CharacterizeOpts {
    /// Rotate the server port every replay — required against the GFC,
    /// which blocks a server:port pair after two classified flows (§6.5).
    /// Must stay off against port-specific classifiers like Iran's.
    pub rotate_server_ports: bool,
    /// First port used when rotating.
    pub rotate_base: u16,
    /// Also search server-direction messages for matching fields.
    pub search_server_direction: bool,
}

impl Default for CharacterizeOpts {
    fn default() -> Self {
        CharacterizeOpts {
            rotate_server_ports: false,
            rotate_base: 10_000,
            search_server_direction: true,
        }
    }
}

/// Characterization output plus its cost accounting (§6 reports rounds,
/// time, and bytes for every network).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Characterization {
    pub fields: Vec<MatchingField>,
    pub position: PositionProfile,
    /// Replay rounds consumed.
    pub rounds: u64,
    /// Client bytes sent while characterizing.
    pub bytes_sent: u64,
    /// Server payload bytes downloaded while characterizing (video traces
    /// dominate here — the paper's 140 MB upper bound, §5.3).
    pub bytes_received: u64,
    /// Simulated wall-clock consumed.
    pub elapsed: Duration,
}

impl Characterization {
    /// Total data consumed by characterization, both directions — the
    /// paper's cost metric (§5.3, §6).
    pub fn data_consumed(&self) -> u64 {
        self.bytes_sent + self.bytes_received
    }

    /// Convert fields to client-packet-ordinal regions for
    /// [`crate::evasion::EvasionContext`].
    pub fn client_field_regions(&self, trace: &RecordedTrace) -> Vec<ByteRegion> {
        let mut client_ordinal_of_message = Vec::with_capacity(trace.messages.len());
        let mut ordinal = 0usize;
        for m in &trace.messages {
            client_ordinal_of_message.push(ordinal);
            if m.sender == Sender::Client {
                ordinal += 1;
            }
        }
        let mut regions: Vec<ByteRegion> = self
            .fields
            .iter()
            .filter(|f| f.sender == Sender::Client)
            .map(|f| ByteRegion::new(client_ordinal_of_message[f.message], f.range.clone()))
            .collect();
        regions.sort_by_key(|r| (r.packet, r.range.start));
        merge_regions(regions)
    }
}

/// One blinding probe at an explicit round number — the closure-wave
/// primitive of the engine's wave search. The round only feeds
/// [`port_for_round`], so any execution order that assigns the same
/// round numbers produces the same replays.
pub(crate) fn probe_blinded<S: Substrate>(
    session: &mut Session<S>,
    trace: &RecordedTrace,
    signal: &Signal,
    opts: &CharacterizeOpts,
    blind: &[(usize, Range<usize>)],
    round: u64,
) -> bool {
    let mut t = trace.clone();
    let mut blinded_bytes = 0u64;
    for (msg, range) in blind {
        blinded_bytes += range.len() as u64;
        invert_range(&mut t.messages[*msg].payload, range.clone());
    }
    if blinded_bytes > 0 {
        session
            .env
            .journal()
            .metrics
            .add(Counter::BytesBlinded, blinded_bytes);
    }
    let replay_opts = ReplayOpts {
        server_port: port_for_round(opts, round),
        ..Default::default()
    };
    let (_, classified) = probe(session, &t, &replay_opts, signal);
    classified
}

pub(crate) fn port_for_round(opts: &CharacterizeOpts, round: u64) -> Option<u16> {
    if opts.rotate_server_ports {
        Some(opts.rotate_base.wrapping_add((round % 50_000) as u16))
    } else {
        None
    }
}

/// Phase 2b: position probing (prepend ladders).
pub fn probe_position<S: Substrate>(
    session: &mut Session<S>,
    trace: &RecordedTrace,
    signal: &Signal,
    opts: &CharacterizeOpts,
) -> (PositionProfile, u64) {
    let journal = session.env.journal().clone();
    journal.span_start(session.env.clock().as_micros(), Phase::PositionProbe);
    let max = session.config.max_prepend_packets;
    let mut rounds = 0u64;
    let mut prepend_break = None;

    let run = |session: &mut Session<S>, k: usize, size: usize, round: u64| -> bool {
        let mut t = trace.clone();
        let mut rng_bytes = vec![0u8; size * k];
        session.rng.fill(&mut rng_bytes[..]);
        for j in 0..k {
            t.messages.insert(
                0,
                TraceMessage::client(rng_bytes[j * size..(j + 1) * size].to_vec()),
            );
        }
        let replay_opts = ReplayOpts {
            server_port: opts
                .rotate_server_ports
                .then_some(opts.rotate_base.wrapping_add(20_000 + round as u16)),
            ..Default::default()
        };
        let (_, classified) = probe(session, &t, &replay_opts, signal);
        classified
    };

    for k in 1..=max {
        rounds += 1;
        if !run(session, k, 1400, rounds) {
            prepend_break = Some(k);
            break;
        }
    }

    let packet_based = match prepend_break {
        Some(k) => {
            rounds += 1;
            // The same count of 1-byte packets: if it also breaks
            // classification, the limit counts packets, not bytes.
            !run(session, k, 1, rounds)
        }
        None => false,
    };

    journal.span_end(session.env.clock().as_micros(), Phase::PositionProbe);
    (
        PositionProfile {
            prepend_break,
            packet_based,
            matches_all_packets: prepend_break.is_none(),
        },
        rounds,
    )
}

/// Full characterization: fields + position profile + cost accounting.
/// Runs the engine's wave search on this one session; the reactor's
/// scheduling telemetry goes to a disabled journal.
pub fn characterize<S: Substrate>(
    session: &mut Session<S>,
    trace: &RecordedTrace,
    signal: &Signal,
    opts: &CharacterizeOpts,
) -> Characterization {
    crate::engine::characterize_one(
        std::slice::from_mut(session),
        &Journal::disabled(),
        trace,
        signal,
        opts,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::LiberateConfig;
    use crate::sim::OsKind;
    use liberate_dpi::profiles::EnvKind;
    use liberate_traces::apps;

    fn session(kind: EnvKind) -> Session {
        Session::new(kind, OsKind::Linux, LiberateConfig::default())
    }

    #[test]
    fn finds_cloudfront_host_in_testbed() {
        let mut s = session(EnvKind::Testbed);
        let trace = apps::amazon_prime_http(20_000);
        let c = characterize(
            &mut s,
            &trace,
            &Signal::Readout,
            &CharacterizeOpts::default(),
        );
        assert!(!c.fields.is_empty(), "should find matching fields");
        let all_text: String = c.fields.iter().map(|f| f.as_text()).collect();
        assert!(
            all_text.contains("cloudfront"),
            "found fields: {all_text:?}"
        );
        // Efficiency: the paper needed at most 70 rounds for HTTP (§6.1).
        assert!(c.rounds <= 90, "rounds = {}", c.rounds);
        // Classifier gates on flow start: one prepended packet breaks it.
        assert_eq!(c.position.prepend_break, Some(1));
        assert!(c.position.packet_based);
        assert!(!c.position.matches_all_packets);
    }

    #[test]
    fn finds_stun_attribute_in_testbed_udp() {
        let mut s = session(EnvKind::Testbed);
        let trace = apps::skype_stun(4);
        let c = characterize(
            &mut s,
            &trace,
            &Signal::Readout,
            &CharacterizeOpts::default(),
        );
        assert!(!c.fields.is_empty());
        // The 0x8055 attribute type must be inside one of the fields.
        let covered = c.fields.iter().any(|f| {
            f.message == 0 && f.bytes.windows(2).any(|w| w == [0x80, 0x55])
                || (f.message == 0 && {
                    // Or the field sits exactly on those bytes.
                    let payload = &trace.messages[0].payload;
                    payload[f.range.clone()]
                        .windows(2)
                        .any(|w| w == [0x80, 0x55])
                })
        });
        assert!(covered, "fields: {:?}", c.fields);
    }

    #[test]
    fn gfc_characterization_with_port_rotation() {
        let mut s = session(EnvKind::Gfc);
        let trace = apps::economist_http();
        let opts = CharacterizeOpts {
            rotate_server_ports: true,
            ..Default::default()
        };
        let c = characterize(&mut s, &trace, &Signal::Blocking, &opts);
        let all_text: String = c.fields.iter().map(|f| f.as_text()).collect();
        assert!(
            all_text.contains("economist"),
            "found: {all_text:?} ({} rounds)",
            c.rounds
        );
        assert_eq!(c.position.prepend_break, Some(1));
    }

    #[test]
    fn iran_inspects_all_packets() {
        let mut s = session(EnvKind::Iran);
        let trace = apps::facebook_http();
        let c = characterize(
            &mut s,
            &trace,
            &Signal::Blocking,
            &CharacterizeOpts::default(),
        );
        let all_text: String = c.fields.iter().map(|f| f.as_text()).collect();
        assert!(all_text.contains("facebook"), "found: {all_text:?}");
        assert!(c.position.matches_all_packets, "{:?}", c.position);
    }

    #[test]
    fn client_field_regions_map_to_packet_ordinals() {
        let mut s = session(EnvKind::Testbed);
        let trace = apps::amazon_prime_http(20_000);
        let c = characterize(
            &mut s,
            &trace,
            &Signal::Readout,
            &CharacterizeOpts::default(),
        );
        let regions = c.client_field_regions(&trace);
        assert!(!regions.is_empty());
        assert_eq!(regions[0].packet, 0, "host header is in the first packet");
    }

    #[test]
    fn byte_limited_classifiers_are_distinguished() {
        // §5.1: "we first append random bytes in increments of one MTU
        // until we observe a change in classification ... then k 1-byte
        // packets ... If so, we conclude there is a fixed packet-based
        // limit; else, we conclude that the limit is no more than k*MTU
        // bytes." Build a classifier with a 3,000-*byte* window and check
        // the probe tells it apart from the packet-limited testbed.
        let mut s = session(EnvKind::Testbed);
        {
            let dpi = s.env.dpi_mut().unwrap();
            dpi.config.inspect.scope = liberate_dpi::inspect::InspectScope::Bytes(3_000);
            dpi.config.inspect.reassembly = liberate_dpi::inspect::ReassemblyMode::PerPacket;
        }
        let trace = apps::amazon_prime_http(20_000);
        let (position, _) = probe_position(
            &mut s,
            &trace,
            &Signal::Readout,
            &CharacterizeOpts::default(),
        );
        // Three 1,400 B prepends push the request past 3,000 bytes...
        assert_eq!(position.prepend_break, Some(3), "{position:?}");
        // ...but three 1-byte prepends do not: the limit is byte-based.
        assert!(!position.packet_based);
        assert!(!position.matches_all_packets);
    }

    #[test]
    fn unclassified_trace_yields_no_fields() {
        let mut s = session(EnvKind::Testbed);
        let trace = apps::control_http();
        // control_http matches the "web" no-op class only: no effective
        // differentiation, so characterization refuses to run.
        let c = characterize(
            &mut s,
            &trace,
            &Signal::Readout,
            &CharacterizeOpts::default(),
        );
        assert!(c.fields.is_empty());
        assert_eq!(c.rounds, 3);
    }
}
