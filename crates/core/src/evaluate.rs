//! Evasion evaluation (§4.3 "Evasion Evaluation", §5.2 "Efficient evasion
//! testing"): run candidate techniques against a live classifier, judge
//! CC? (changed classification) and RS? (reached server), prune and order
//! candidates using what characterization learned, and pick the cheapest
//! working technique for deployment.

use liberate_obs::{Counter, EventKind, Phase};
use liberate_packet::packet::ParsedPacket;
use liberate_packet::validate::{validate_wire, Malformation};
use liberate_substrate::buf::PacketBuf;
use liberate_substrate::capture::TapPoint;
use liberate_substrate::Substrate;
use liberate_traces::recorded::RecordedTrace;

use crate::characterize::PositionProfile;
use crate::detect::{probe_lowered, Signal};
use crate::evasion::{Category, EvasionContext, Technique};
use crate::probe::DECOY_MARKER;
use crate::replay::{LoweredTrace, ReplayOpts, ReplayOutcome, Session};
use crate::schedule::Schedule;

/// Table 3's RS? verdicts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reach {
    /// The inserted/modified packets never reached the server.
    No,
    /// They arrived as sent.
    Yes,
    /// Something arrived, but not what was sent (reassembled fragments,
    /// repaired checksums — the overlined check marks of Table 3).
    Transformed,
}

/// The verdict for one technique in one environment.
#[derive(Debug, Clone, PartialEq)]
pub struct TechniqueResult {
    pub technique: Technique,
    /// Did the technique change classification? `None` renders as "—":
    /// the environment does not classify this flow at all (e.g. UDP on
    /// T-Mobile), so there is nothing to evade.
    pub cc: Option<bool>,
    pub rs: Reach,
    /// The transfer completed and the server saw an intact stream (no
    /// side effects).
    pub app_intact: bool,
    /// Replay rounds this judgment consumed (split rows escalate).
    pub rounds: u64,
    /// The parameterization that succeeded, when escalation was used.
    pub effective: Technique,
}

/// Inputs shared by every technique evaluation in one environment.
#[derive(Debug, Clone)]
pub struct EvaluationInputs {
    pub signal: Signal,
    pub ctx: EvasionContext,
    /// Rotate server ports between replays (GFC penalties, §6.5).
    pub rotate_server_ports: bool,
}

/// The packet-level malformation each inert technique is supposed to
/// exhibit at the server, for the Yes/Transformed distinction.
fn expected_defect(technique: &Technique) -> Option<Malformation> {
    use Technique::*;
    Some(match technique {
        InertIpInvalidVersion => Malformation::IpVersionInvalid,
        InertIpInvalidHeaderLength => Malformation::IpHeaderLengthInvalid,
        InertIpTotalLengthLong => Malformation::IpTotalLengthLong,
        InertIpTotalLengthShort => Malformation::IpTotalLengthShort,
        InertIpWrongProtocol => Malformation::IpProtocolUnknown,
        InertIpWrongChecksum => Malformation::IpChecksumWrong,
        InertIpInvalidOptions => Malformation::IpOptionsInvalid,
        InertIpDeprecatedOptions => Malformation::IpOptionsDeprecated,
        InertTcpWrongChecksum => Malformation::TcpChecksumWrong,
        InertTcpNoAckFlag => Malformation::TcpAckFlagMissing,
        InertTcpInvalidDataOffset => Malformation::TcpDataOffsetInvalid,
        InertTcpInvalidFlags => Malformation::TcpFlagsInvalid,
        InertUdpBadChecksum => Malformation::UdpChecksumWrong,
        InertUdpLengthLong => Malformation::UdpLengthLong,
        InertUdpLengthShort => Malformation::UdpLengthShort,
        _ => return None,
    })
}

/// Judge RS? from the server-ingress capture of the replay just run.
fn judge_reach<S: Substrate>(
    session: &Session<S>,
    technique: &Technique,
    trace: &RecordedTrace,
    ctx: &EvasionContext,
) -> Reach {
    let capture = session.env.capture();
    // Shared views of the captured buffers: parsing them never copies.
    let ingress: Vec<&PacketBuf> = capture
        .at(TapPoint::ServerIngress)
        .map(|r| &r.wire)
        .collect();

    match technique.category() {
        Category::InertInsertion => {
            let marked: Vec<&&PacketBuf> = ingress
                .iter()
                .filter(|w| w.windows(DECOY_MARKER.len()).any(|x| x == DECOY_MARKER))
                .collect();
            if marked.is_empty() {
                return Reach::No;
            }
            match expected_defect(technique) {
                None => Reach::Yes, // valid-by-construction decoys
                Some(defect) => {
                    if marked.iter().any(|w| validate_wire(w).contains(&defect)) {
                        Reach::Yes
                    } else {
                        Reach::Transformed
                    }
                }
            }
        }
        Category::Flushing => match technique {
            Technique::TtlRstAfterMatch | Technique::TtlRstBeforeMatch => {
                // Only lib·erate's watermarked RSTs count — a blocking
                // middlebox injects its own RSTs with the client's
                // address as source.
                let rst_seen = ingress.iter().any(|w| {
                    ParsedPacket::parse(w)
                        .and_then(|p| {
                            p.tcp().map(|t| {
                                t.flags.rst && t.window == crate::evasion::LIBERATE_RST_WINDOW
                            })
                        })
                        .unwrap_or(false)
                });
                if rst_seen {
                    Reach::Yes
                } else {
                    Reach::No
                }
            }
            _ => {
                // Pauses: did the matching payload arrive at all?
                if matching_payload_reach(&ingress, trace, ctx) != Reach::No {
                    Reach::Yes
                } else {
                    Reach::No
                }
            }
        },
        Category::Splitting | Category::Reordering => match technique {
            Technique::IpFragmentSplit { .. } | Technique::IpFragmentReorder { .. } => {
                let any_fragment = ingress.iter().any(|w| {
                    ParsedPacket::parse(w)
                        .map(|p| p.ip.is_fragment())
                        .unwrap_or(false)
                });
                if any_fragment {
                    return Reach::Yes;
                }
                match matching_payload_reach(&ingress, trace, ctx) {
                    Reach::No => Reach::No,
                    // Arrived, but as a whole packet: reassembled in-path
                    // (Table 3 footnote 2).
                    _ => Reach::Transformed,
                }
            }
            _ => matching_payload_reach(&ingress, trace, ctx),
        },
    }
}

/// Did the matching packet's payload reach the server — whole
/// (`Transformed` for split techniques means "merged back together"),
/// in pieces (`Yes`), or not at all (`No`)?
fn matching_payload_reach(
    ingress: &[&PacketBuf],
    trace: &RecordedTrace,
    ctx: &EvasionContext,
) -> Reach {
    let ordinal = ctx.matching_fields.first().map(|f| f.packet).unwrap_or(0);
    let Some(payload) = trace
        .client_messages()
        .nth(ordinal)
        .map(|m| m.payload.clone())
    else {
        return Reach::No;
    };
    let mut pieces = 0usize;
    for w in ingress {
        let Some(p) = ParsedPacket::parse(w) else {
            continue;
        };
        if p.payload.is_empty() {
            continue;
        }
        if p.payload.len() >= payload.len()
            && p.payload
                .windows(payload.len())
                .any(|win| win == payload.as_slice())
        {
            // The whole original payload inside one packet.
            return Reach::Yes;
        }
        if payload
            .windows(p.payload.len().min(payload.len()))
            .any(|win| win == p.payload.as_slice())
        {
            pieces += 1;
        }
    }
    if pieces >= 2 {
        Reach::Yes
    } else if pieces == 1 {
        Reach::Transformed
    } else {
        Reach::No
    }
}

/// Evaluate one Table 3 row. Split/reorder rows escalate their parameter
/// until evasion succeeds or the configured maximum is reached (§5.2).
pub fn evaluate_technique<S: Substrate>(
    session: &mut Session<S>,
    trace: &RecordedTrace,
    technique: &Technique,
    inputs: &EvaluationInputs,
    baseline_classified: bool,
) -> Option<TechniqueResult> {
    let base = Schedule::from_trace(trace);
    let lowered = LoweredTrace::new(trace);
    evaluate_lowered(
        session,
        trace,
        (&lowered, &base),
        technique,
        inputs,
        baseline_classified,
    )
}

/// [`evaluate_technique`] over `trace` already lowered, with its base
/// schedule: every candidate replays against the same response table.
fn evaluate_lowered<S: Substrate>(
    session: &mut Session<S>,
    trace: &RecordedTrace,
    (lowered, base): (&LoweredTrace, &Schedule),
    technique: &Technique,
    inputs: &EvaluationInputs,
    baseline_classified: bool,
) -> Option<TechniqueResult> {
    use Technique::*;
    let max_split = session.config.max_split_segments;
    let candidates: Vec<Technique> = match technique {
        TcpSegmentSplit { .. } => (2..=max_split)
            .map(|n| TcpSegmentSplit { segments: n })
            .collect(),
        TcpSegmentReorder { .. } => (2..=max_split)
            .map(|n| TcpSegmentReorder { segments: n })
            .collect(),
        IpFragmentSplit { .. } => vec![IpFragmentSplit {
            pieces: session.config.fragment_pieces,
        }],
        IpFragmentReorder { .. } => vec![IpFragmentReorder {
            pieces: session.config.fragment_pieces,
        }],
        other => vec![other.clone()],
    };

    let mut rounds = 0u64;
    let mut last: Option<(Technique, ReplayOutcome, bool, Reach)> = None;
    for cand in candidates {
        let schedule = cand.apply(base, &inputs.ctx)?;
        let opts = ReplayOpts {
            server_port: inputs
                .rotate_server_ports
                .then_some(10_000 + (session.replays % 50_000) as u16),
            ..Default::default()
        };
        let (outcome, classified) =
            probe_lowered(session, lowered, &schedule, &opts, &inputs.signal);
        let reach = judge_reach(session, &cand, trace, &inputs.ctx);
        rounds += 1;
        // Evasion means the classifier lost *and* the content still got
        // through: a technique that merely kills the transfer (e.g.
        // fragments dropped in-network in Iran, §6.6) did not evade.
        let evaded = baseline_classified && !classified && outcome.complete;
        session.env.journal().metrics.incr(Counter::TechniquesTried);
        session.env.journal().record(
            session.env.clock().as_micros(),
            EventKind::TechniqueTried {
                technique: cand.description(),
                evaded,
            },
        );
        last = Some((cand, outcome, classified, reach));
        if evaded {
            break;
        }
    }
    let (effective, outcome, classified, reach) = last?;
    let evaded = !classified && outcome.complete;
    Some(TechniqueResult {
        technique: technique.clone(),
        cc: baseline_classified.then_some(evaded),
        rs: reach,
        app_intact: outcome.complete && outcome.integrity_ok,
        rounds,
        effective,
    })
}

/// Prune and order the taxonomy for one classifier, per §5.2:
///
/// - A classifier that inspects **all packets** cannot be fooled by inert
///   packets or flushing; only splitting/reordering remain.
/// - A **match-and-forget** classifier is tested with the efficient inert
///   insertions first.
pub fn plan(
    position: &PositionProfile,
    proto: liberate_traces::recorded::TraceProtocol,
) -> Vec<Technique> {
    let rows: Vec<Technique> = Technique::table3_rows()
        .into_iter()
        .filter(|t| t.applicable(proto))
        .collect();
    if position.matches_all_packets {
        // Iran-style: only content-splitting can help.
        return rows
            .into_iter()
            .filter(|t| matches!(t.category(), Category::Splitting | Category::Reordering))
            .collect();
    }
    let mut ordered = rows;
    ordered.sort_by_key(|t| match t.category() {
        Category::InertInsertion => (0, t.overhead().cost()),
        Category::Splitting => (1, t.overhead().cost()),
        Category::Reordering => (2, t.overhead().cost()),
        Category::Flushing => (3, t.overhead().cost()),
    });
    ordered
}

/// Run the planned candidates until one evades; return it with the try
/// count (§4: "iteratively try them until one succeeds").
pub fn find_working_technique<S: Substrate>(
    session: &mut Session<S>,
    trace: &RecordedTrace,
    position: &PositionProfile,
    inputs: &EvaluationInputs,
) -> Option<(TechniqueResult, u64)> {
    let journal = session.env.journal().clone();
    journal.span_start(session.env.clock().as_micros(), Phase::Evaluate);
    let out = find_working_technique_inner(session, trace, position, inputs);
    journal.span_end(session.env.clock().as_micros(), Phase::Evaluate);
    out
}

fn find_working_technique_inner<S: Substrate>(
    session: &mut Session<S>,
    trace: &RecordedTrace,
    position: &PositionProfile,
    inputs: &EvaluationInputs,
) -> Option<(TechniqueResult, u64)> {
    let mut tries = 0u64;
    let base = Schedule::from_trace(trace);
    let lowered = LoweredTrace::new(trace);
    for technique in plan(position, trace.protocol) {
        let Some(result) =
            evaluate_lowered(session, trace, (&lowered, &base), &technique, inputs, true)
        else {
            continue;
        };
        tries += result.rounds;
        if result.cc == Some(true) && result.app_intact {
            return Some((result, tries));
        }
    }
    None
}

/// Among several working techniques, pick the cheapest (§4.4).
pub fn cheapest(results: &[TechniqueResult]) -> Option<&TechniqueResult> {
    results
        .iter()
        .filter(|r| r.cc == Some(true) && r.app_intact)
        .min_by_key(|r| r.effective.overhead().cost())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::characterize::{characterize, CharacterizeOpts};
    use crate::config::LiberateConfig;
    use crate::detect::was_classified;
    use crate::probe::decoy_request;
    use crate::sim::OsKind;
    use liberate_dpi::profiles::EnvKind;
    use liberate_traces::apps;

    fn session(kind: EnvKind) -> Session {
        Session::new(kind, OsKind::Linux, LiberateConfig::default())
    }

    fn inputs_for(
        session: &mut Session,
        trace: &RecordedTrace,
        signal: Signal,
        rotate: bool,
    ) -> (EvaluationInputs, PositionProfile) {
        let opts = CharacterizeOpts {
            rotate_server_ports: rotate,
            ..Default::default()
        };
        let c = characterize(session, trace, &signal, &opts);
        let ctx = EvasionContext {
            matching_fields: c.client_field_regions(trace),
            decoy: decoy_request(),
            middlebox_ttl: session.env.hops_before_middlebox + 1,
        };
        (
            EvaluationInputs {
                signal,
                ctx,
                rotate_server_ports: rotate,
            },
            c.position,
        )
    }

    #[test]
    fn plan_orders_and_prunes() {
        use liberate_traces::recorded::TraceProtocol;
        // Match-and-forget profile: inert first, flushing last, everything
        // applicable included exactly once.
        let maf = PositionProfile {
            prepend_break: Some(1),
            packet_based: true,
            matches_all_packets: false,
        };
        let planned = plan(&maf, TraceProtocol::Tcp);
        let tcp_rows = Technique::table3_rows()
            .iter()
            .filter(|t| t.applicable(TraceProtocol::Tcp))
            .count();
        assert_eq!(planned.len(), tcp_rows);
        assert_eq!(planned[0].category(), Category::InertInsertion);
        assert_eq!(planned.last().unwrap().category(), Category::Flushing);
        // Category order is monotone.
        let order = |c: Category| match c {
            Category::InertInsertion => 0,
            Category::Splitting => 1,
            Category::Reordering => 2,
            Category::Flushing => 3,
        };
        assert!(planned
            .windows(2)
            .all(|w| order(w[0].category()) <= order(w[1].category())));

        // All-packets profile (Iran): only splitting/reordering remain.
        let all = PositionProfile {
            prepend_break: None,
            packet_based: false,
            matches_all_packets: true,
        };
        let planned = plan(&all, TraceProtocol::Tcp);
        assert!(!planned.is_empty());
        assert!(planned
            .iter()
            .all(|t| matches!(t.category(), Category::Splitting | Category::Reordering)));

        // UDP flows only get UDP-applicable techniques.
        let planned = plan(&maf, TraceProtocol::Udp);
        assert!(planned.iter().all(|t| t.applicable(TraceProtocol::Udp)));
        assert!(!planned.is_empty());
    }

    #[test]
    fn cheapest_picks_lowest_cost_working_result() {
        let mk = |technique: Technique, cc: Option<bool>, intact: bool| TechniqueResult {
            technique: technique.clone(),
            cc,
            rs: Reach::Yes,
            app_intact: intact,
            rounds: 1,
            effective: technique,
        };
        let results = vec![
            mk(
                Technique::PauseBeforeMatch(std::time::Duration::from_secs(130)),
                Some(true),
                true,
            ),
            mk(Technique::InertLowTtl, Some(true), true),
            mk(
                Technique::TcpSegmentSplit { segments: 2 },
                Some(true),
                false,
            ), // side effects
            mk(
                Technique::TcpSegmentReorder { segments: 2 },
                Some(false),
                true,
            ), // failed
        ];
        let best = cheapest(&results).unwrap();
        assert_eq!(best.technique, Technique::InertLowTtl, "cheapest *working*");
        assert!(cheapest(&[]).is_none());
    }

    #[test]
    fn gfc_verdicts_match_table3() {
        let mut s = session(EnvKind::Gfc);
        let trace = apps::economist_http();
        let (inputs, _) = inputs_for(&mut s, &trace, Signal::Blocking, true);

        // TCP wrong checksum: evades, reaches (checksum repaired).
        let r = evaluate_technique(
            &mut s,
            &trace,
            &Technique::InertTcpWrongChecksum,
            &inputs,
            true,
        )
        .unwrap();
        assert_eq!(r.cc, Some(true), "{r:?}");
        assert_eq!(r.rs, Reach::Transformed, "footnote 4: checksum repaired");

        // Splitting fails against full reassembly.
        let r = evaluate_technique(
            &mut s,
            &trace,
            &Technique::TcpSegmentSplit { segments: 2 },
            &inputs,
            true,
        )
        .unwrap();
        assert_eq!(r.cc, Some(false));
        assert_eq!(r.rs, Reach::Yes);

        // Low TTL: evades, never reaches.
        let r = evaluate_technique(&mut s, &trace, &Technique::InertLowTtl, &inputs, true).unwrap();
        assert_eq!(r.cc, Some(true));
        assert_eq!(r.rs, Reach::No);
    }

    #[test]
    fn iran_planner_prunes_to_splitting() {
        let mut s = session(EnvKind::Iran);
        let trace = apps::facebook_http();
        let (inputs, position) = inputs_for(&mut s, &trace, Signal::Blocking, false);
        assert!(position.matches_all_packets);
        let planned = plan(&position, trace.protocol);
        assert!(!planned.is_empty());
        assert!(planned
            .iter()
            .all(|t| matches!(t.category(), Category::Splitting | Category::Reordering)));

        let (winner, tries) =
            find_working_technique(&mut s, &trace, &position, &inputs).expect("Iran is evadable");
        assert!(
            matches!(
                winner.effective,
                Technique::TcpSegmentSplit { .. } | Technique::TcpSegmentReorder { .. }
            ),
            "winner {winner:?}"
        );
        assert!(tries >= 1);
    }

    #[test]
    fn testbed_finds_cheap_winner() {
        let mut s = session(EnvKind::Testbed);
        let trace = apps::amazon_prime_http(60_000);
        let (inputs, position) = inputs_for(&mut s, &trace, Signal::Readout, false);
        assert_eq!(position.prepend_break, Some(1));
        let (winner, _) = find_working_technique(&mut s, &trace, &position, &inputs)
            .expect("the testbed is evadable");
        assert_eq!(winner.cc, Some(true));
        assert!(winner.app_intact);
    }

    #[test]
    fn att_has_no_winner_but_port_change_works() {
        let mut s = session(EnvKind::Att);
        let trace = apps::nbcsports_http(400_000);
        // Control throughput for the throttling signal.
        let control = crate::detect::inverted_trace(&trace);
        let free = s.replay_trace(&control, &ReplayOpts::default());
        let signal = Signal::Throttling {
            control_bps: free.avg_bps,
            ratio: 0.6,
        };
        let ctx = EvasionContext::blind(decoy_request(), s.env.hops_before_middlebox + 1);
        let inputs = EvaluationInputs {
            signal: signal.clone(),
            ctx,
            rotate_server_ports: false,
        };
        let position = PositionProfile {
            prepend_break: Some(1),
            packet_based: true,
            matches_all_packets: false,
        };
        assert!(
            find_working_technique(&mut s, &trace, &position, &inputs).is_none(),
            "no packet-level technique beats a terminating proxy"
        );

        // But the same flow on port 8080 runs at full speed (§6.3).
        let out = s.replay_trace(
            &trace,
            &ReplayOpts {
                server_port: Some(8080),
                ..Default::default()
            },
        );
        let billed = 0;
        assert!(!was_classified(&mut s, &signal, &out, billed));
        assert!(out.complete);
    }
}
