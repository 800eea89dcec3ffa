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
use std::sync::Arc;
use std::time::Duration;

use rand::Rng;

use liberate_obs::{Journal, Phase};
use liberate_packet::mutate::{invert_range, merge_regions, ByteRegion};
use liberate_substrate::buf::PacketBuf;
use liberate_substrate::Substrate;
use liberate_traces::recorded::{RecordedTrace, Sender};

use crate::detect::{ProbeTask, Signal};
use crate::replay::{LoweredTrace, ReplayOpts, Session};
use crate::schedule::{Schedule, Step};
use crate::task::{drive_inline, FlowTask, TaskPoll};

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
#[derive(Debug, Clone, Default, PartialEq, Eq)]
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
#[derive(Debug, Clone, Default, PartialEq, Eq)]
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

/// A trace lowered once for a blinding search: every probe's replay is a
/// rewrite of this base. A probe that blinds only client bytes inverts
/// them in copies of the base schedule and of the client stream the
/// integrity check expects, and shares the base's response table; a
/// probe that blinds server bytes gets a table of its own, which copies
/// only the responses it blinds and re-sums only the segments they touch.
pub(crate) struct Blinding<'a> {
    trace: &'a RecordedTrace,
    base: LoweredTrace,
    schedule: Schedule,
    /// Per trace message: its ordinal among its sender's messages.
    ordinal: Vec<usize>,
    /// Per client message: the index of its data packet in `schedule`.
    data_steps: Vec<usize>,
}

impl<'a> Blinding<'a> {
    pub(crate) fn new(trace: &'a RecordedTrace) -> Blinding<'a> {
        let (mut clients, mut servers) = (0, 0);
        let ordinal = trace
            .messages
            .iter()
            .map(|m| {
                let seen = match m.sender {
                    Sender::Client => &mut clients,
                    Sender::Server => &mut servers,
                };
                *seen += 1;
                *seen - 1
            })
            .collect();
        let schedule = Schedule::from_trace(trace);
        Blinding {
            trace,
            base: LoweredTrace::new(trace),
            data_steps: schedule.data_packet_indices(),
            schedule,
            ordinal,
        }
    }

    /// The unblinded trace and its schedule.
    pub(crate) fn base(&self) -> (&LoweredTrace, &Schedule) {
        (&self.base, &self.schedule)
    }

    /// The replay with every `(message, byte range)` of `blind` inverted.
    /// Messages past the end of the trace are skipped.
    pub(crate) fn blinded(&self, blind: &[(usize, Range<usize>)]) -> (LoweredTrace, Schedule) {
        let mut lowered = self.base.clone();
        let mut schedule = self.schedule.clone();
        let mut replaced: Vec<(usize, PacketBuf)> = Vec::new();
        for (msg, range) in blind {
            let Some(m) = self.trace.messages.get(*msg) else {
                continue;
            };
            let i = self.ordinal[*msg];
            match m.sender {
                Sender::Client => {
                    let span = lowered.client_range(i);
                    invert_range(&mut lowered.client_stream[span], range.clone());
                    if let Step::Packet(sp) = &mut schedule.steps[self.data_steps[i]] {
                        invert_range(&mut sp.payload, range.clone());
                    }
                }
                Sender::Server => {
                    let earlier = replaced.iter().position(|(j, _)| *j == i);
                    let current =
                        earlier.map_or(&self.base.table.responses()[i], |k| &replaced[k].1);
                    let blinded = PacketBuf::build(current.len(), |bytes| {
                        bytes.copy_from_slice(current);
                        invert_range(bytes, range.clone());
                    });
                    match earlier {
                        Some(k) => replaced[k].1 = blinded,
                        None => replaced.push((i, blinded)),
                    }
                }
            }
        }
        if !replaced.is_empty() {
            lowered.table = Arc::new(self.base.table.replacing(replaced));
        }
        (lowered, schedule)
    }
}

/// Bytes a blinding probe inverts (the `bytes-blinded` counter).
pub(crate) fn blinded_bytes(blind: &[(usize, Range<usize>)]) -> u64 {
    blind.iter().map(|(_, range)| range.len() as u64).sum()
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
    let schedule = Schedule::from_trace(trace);
    let lowered = LoweredTrace::new(trace);
    let mut ladder = LadderTask::new(&lowered, &schedule, signal, opts);
    let out = drive_inline(session, |session| ladder.poll(session));
    (out.position, out.rounds)
}

/// Size of a prepended packet on the ladder's MTU rungs.
const MTU_RUNG: usize = 1400;

/// The position ladder as a task, one [`ProbeTask`] per rung. Rung `k`
/// prepends `k` random MTU-sized packets, until classification breaks
/// (§5.1); the breaking count is then re-run with 1-byte packets to tell
/// a packet limit from a byte limit. Each rung draws its prefix from the
/// session RNG just before its probe's billed read, so ladders run on
/// the inline driver. Rungs prepend to copies of the client side of the
/// lowered trace and its base schedule, and share its response table.
/// The output is a characterization without fields: the position
/// profile, with the ladder's rounds and cost.
pub(crate) struct LadderTask<'a> {
    trace: &'a LoweredTrace,
    schedule: &'a Schedule,
    signal: &'a Signal,
    opts: &'a CharacterizeOpts,
    /// The running rung's probe; `None` before the first poll.
    rung: Option<ProbeTask<'a, LoweredTrace, Schedule>>,
    /// The running rung: prepended packets and their size.
    at: (usize, usize),
    out: Characterization,
}

impl<'a> LadderTask<'a> {
    pub(crate) fn new(
        trace: &'a LoweredTrace,
        schedule: &'a Schedule,
        signal: &'a Signal,
        opts: &'a CharacterizeOpts,
    ) -> LadderTask<'a> {
        LadderTask {
            trace,
            schedule,
            signal,
            opts,
            rung: None,
            at: (0, MTU_RUNG),
            out: Characterization::default(),
        }
    }

    /// Record the running rung's judgment and pick the next rung, if any.
    fn next_rung(&mut self, classified: bool, max: usize) -> Option<(usize, usize)> {
        let (k, size) = self.at;
        let position = &mut self.out.position;
        if size == 1 {
            // The same count of 1-byte packets: if it also breaks
            // classification, the limit counts packets, not bytes.
            position.packet_based = !classified;
            None
        } else if !classified {
            position.prepend_break = Some(k);
            Some((k, 1))
        } else {
            (k < max).then_some((k + 1, MTU_RUNG))
        }
    }

    /// Draw rung `(k, size)`'s prefix and build its probe.
    fn start_rung<S: Substrate>(&mut self, session: &mut Session<S>, (k, size): (usize, usize)) {
        self.out.rounds += 1;
        self.at = (k, size);
        let mut rng_bytes = vec![0u8; size * k];
        session.rng.fill(&mut rng_bytes[..]);
        // The last-drawn packet goes first, as when each packet is put
        // at the front of the trace in draw order; same-seed replays
        // depend on this order.
        let prefix: Vec<&[u8]> = rng_bytes.chunks(size).rev().collect();
        let round = self.out.rounds as u16;
        let opts = ReplayOpts {
            server_port: self
                .opts
                .rotate_server_ports
                .then_some(self.opts.rotate_base.wrapping_add(20_000 + round)),
            ..Default::default()
        };
        self.rung = Some(ProbeTask::new(
            self.trace.with_client_prefix(&prefix),
            self.schedule.with_data_prefix(&prefix),
            opts,
            None,
            self.signal,
            0,
        ));
    }
}

impl<'a, S: Substrate> FlowTask<S> for LadderTask<'a> {
    type Output = Characterization;

    fn poll(&mut self, session: &mut Session<S>) -> TaskPoll<Characterization> {
        let max = session.config.max_prepend_packets;
        loop {
            let classified = match &mut self.rung {
                None => {
                    session
                        .journal()
                        .span_start(session.env.clock().as_micros(), Phase::PositionProbe);
                    // Rung 0 prepends nothing and counts as classified.
                    true
                }
                Some(rung) => match rung.poll(session) {
                    TaskPoll::Pending(wake) => return TaskPoll::Pending(wake),
                    TaskPoll::Done(r) => {
                        self.out.bytes_sent += r.outcome.bytes_sent;
                        self.out.bytes_received += r.outcome.server_payload_bytes;
                        self.out.elapsed += r.elapsed;
                        r.classified
                    }
                },
            };
            match self.next_rung(classified, max) {
                Some(at) => self.start_rung(session, at),
                None => break,
            }
        }
        session
            .journal()
            .span_end(session.env.clock().as_micros(), Phase::PositionProbe);
        let position = &mut self.out.position;
        position.matches_all_packets = position.prepend_break.is_none();
        TaskPoll::Done(std::mem::take(&mut self.out))
    }

    fn replays_done(&self) -> u64 {
        self.out.rounds
    }
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
    use liberate_traces::recorded::TraceProtocol;

    fn session(kind: EnvKind) -> Session {
        Session::new(kind, OsKind::Linux, LiberateConfig::default())
    }

    /// The blinding probe's replay as it used to be built: clone the
    /// whole trace, server messages included, invert the ranges in the
    /// copy, and replay it.
    fn clone_and_replay(
        session: &mut Session,
        trace: &RecordedTrace,
        blind: &[(usize, Range<usize>)],
    ) -> crate::replay::ReplayOutcome {
        let mut t = trace.clone();
        for (msg, range) in blind {
            invert_range(&mut t.messages[*msg].payload, range.clone());
        }
        session.replay_trace(&t, &ReplayOpts::default())
    }

    #[test]
    fn blinded_replay_matches_clone_and_replay_oracle() {
        let cases = [
            (
                apps::amazon_prime_http(20_000),
                vec![
                    vec![],
                    vec![(0, 0..16)],
                    vec![(0, 5..40), (0, 100..120)],
                    vec![(0, 30..10_000)],
                    vec![(1, 0..64)],
                    vec![(0, 0..3), (1, 10..20), (2, 0..1_460), (2, 7..9)],
                ],
            ),
            (
                apps::skype_stun(4),
                vec![vec![(0, 20..28)], vec![(2, 0..160)], vec![(3, 0..50)]],
            ),
        ];
        for (trace, blinds) in &cases {
            let blinding = Blinding::new(trace);
            for blind in blinds {
                let mut old = session(EnvKind::Testbed);
                let mut new = session(EnvKind::Testbed);
                let want = clone_and_replay(&mut old, trace, blind);
                let (t, schedule) = blinding.blinded(blind);
                let got = new.replay_lowered(&t, &schedule, &ReplayOpts::default());
                assert_eq!(got, want, "{} blinding {blind:?}", trace.app);
                let verdict = |s: &mut Session| {
                    let key = liberate_packet::flow::FlowKey::new(
                        want.client_addr,
                        liberate_dpi::profiles::SERVER_ADDR,
                        want.client_port,
                        want.server_port,
                        if trace.protocol == TraceProtocol::Tcp {
                            6
                        } else {
                            17
                        },
                    );
                    s.env.verdict_for(key)
                };
                assert_eq!(verdict(&mut new), verdict(&mut old));
                let client_only = blind
                    .iter()
                    .all(|(m, _)| trace.messages[*m].sender == Sender::Client);
                assert_eq!(
                    Arc::ptr_eq(&t.table, &blinding.base().0.table),
                    client_only,
                    "{blind:?}"
                );
            }
        }
    }

    #[test]
    fn server_blinded_tables_sum_their_own_segments() {
        use liberate_packet::checksum::verify_pseudo_checksum;
        use liberate_packet::packet::{Packet, ParsedPacket};
        use liberate_substrate::script::{Burst, ResponseTable};
        use std::net::Ipv4Addr;

        let (server, client) = (Ipv4Addr::new(10, 9, 9, 9), Ipv4Addr::new(10, 0, 0, 1));
        let segments = |table: &Arc<ResponseTable>| {
            let burst = Burst::Table(Arc::clone(table), 0..table.responses().len());
            Packet::tcp(server, client, 80, 40_000, 7, 9, Vec::new()).serialize_segments(
                burst.messages(),
                1460,
                burst.payload_sums(1460).as_deref(),
            )
        };
        let trace = apps::amazon_prime_http(20_000);
        let blinding = Blinding::new(&trace);
        let base = &blinding.base().0.table;
        // The base table's sums are memoized before the probe is built.
        let unblinded = segments(base);
        let (probe, _) = blinding.blinded(&[(1, 0..64), (1, 5_001..5_002)]);
        assert!(!Arc::ptr_eq(&probe.table, base), "a new table");
        let blinded = segments(&probe.table);
        assert_eq!(blinded.len(), unblinded.len());
        assert_ne!(blinded, unblinded);
        for seg in &blinded {
            let (ip, _, _) = ParsedPacket::parse_headers(seg).unwrap();
            let tcp = &seg[ip.payload_offset..];
            assert!(verify_pseudo_checksum(server, client, 6, tcp));
        }
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

    /// A ladder driven inline learns and costs what the position ladder
    /// did when it ran as one sequential closure: the figures below were
    /// measured from that closure (session byte totals and clock).
    #[test]
    fn inline_ladder_matches_the_sequential_ladder() {
        let cases = [
            (
                EnvKind::Iran,
                apps::facebook_http(),
                Signal::Blocking,
                PositionProfile {
                    prepend_break: None,
                    packet_based: false,
                    matches_all_packets: true,
                },
                (10, 81_440, 0, 51_615_000),
            ),
            (
                EnvKind::Testbed,
                apps::amazon_prime_http(20_000),
                Signal::Readout,
                PositionProfile {
                    prepend_break: Some(1),
                    packet_based: true,
                    matches_all_packets: false,
                },
                (2, 2_055, 40_182, 10_034_000),
            ),
        ];
        for (kind, trace, signal, position, (rounds, sent, received, micros)) in cases {
            let mut s = session(kind);
            let (t0, sent0, received0) =
                (s.env.clock(), s.bytes_sent_total, s.bytes_received_total);
            let (lowered, schedule) = (LoweredTrace::new(&trace), Schedule::from_trace(&trace));
            let opts = CharacterizeOpts::default();
            let mut ladder = LadderTask::new(&lowered, &schedule, &signal, &opts);
            let out = drive_inline(&mut s, |s| ladder.poll(s));
            assert_eq!(out.position, position, "{kind:?}");
            assert_eq!(out.rounds, rounds, "{kind:?}");
            assert!(out.fields.is_empty(), "{kind:?}");
            assert_eq!(out.bytes_sent, sent, "{kind:?}");
            assert_eq!(out.bytes_received, received, "{kind:?}");
            assert_eq!(out.elapsed, Duration::from_micros(micros), "{kind:?}");
            assert_eq!(s.bytes_sent_total - sent0, sent, "{kind:?}");
            assert_eq!(s.bytes_received_total - received0, received, "{kind:?}");
            assert_eq!(s.env.clock() - t0, out.elapsed, "{kind:?}");
        }
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
