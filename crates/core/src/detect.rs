//! Differentiation detection (§4.1, §5.1).
//!
//! lib·erate replays the recorded trace twice — once verbatim and once
//! with every payload bit *inverted* — and compares what the network did
//! to each. Inversion (rather than randomization) is deterministic and
//! guarantees no classification keyword survives in the control, avoiding
//! the accidental matches the paper saw with random payloads.
//!
//! Every phase builds on one primitive, the probe: one replay plus one
//! classification judgment ([`was_classified`]). `ProbeTask` is its
//! only implementation — billed-counter read, replay, judgment,
//! round-gap rest — whether the reactor runs it on a lane in a blinding
//! wave or [`probe`] runs it inline on a session.

use std::borrow::Borrow;
use std::net::Ipv4Addr;
use std::time::Duration;

use liberate_obs::{Counter, Phase};
use liberate_packet::flow::FlowKey;
use liberate_packet::mutate::invert_bits;
use liberate_substrate::time::SimTime;
use liberate_substrate::Substrate;
use liberate_traces::recorded::RecordedTrace;

use crate::replay::{LaneAddr, LoweredTrace, ReplayOpts, ReplayOutcome, ReplaySm, Session};
use crate::schedule::Schedule;
use crate::task::{drive_inline, FlowTask, TaskPoll, Wake};

/// The observable used to decide "was this replay classified?". Picked per
/// environment, exactly as the paper's case studies do.
#[derive(Debug, Clone, PartialEq)]
pub enum Signal {
    /// Direct middlebox readout — testbed only (§6.1: "the middlebox
    /// shows the result of classification immediately"). Classes whose
    /// policy is a no-op do not count as differentiation.
    Readout,
    /// Blocking: RSTs, a block page, or a dead handshake (GFC §6.5,
    /// Iran §6.6).
    Blocking,
    /// Downlink throughput under `ratio` × the unclassified control's
    /// (AT&T §6.3).
    Throttling { control_bps: f64, ratio: f64 },
    /// The account's billed-data counter advanced far less than the bytes
    /// transferred (T-Mobile zero-rating, §6.2). Reads are noisy; replays
    /// should move at least [`crate::config::LiberateConfig::min_zero_rating_bytes`].
    ZeroRating,
}

/// A deterministic jitter model for the carrier's data-usage counter: the
/// paper found reads may be "slightly out of date, or include data from
/// background traffic", making sub-200 KB replays unreliable.
pub fn counter_jitter<S: Substrate>(session: &mut Session<S>) -> i64 {
    use rand::Rng;
    session.rng.gen_range(-50_000..50_000)
}

/// Read the subscriber's billed-byte counter (with jitter).
pub fn read_billed_counter<S: Substrate>(session: &mut Session<S>) -> i64 {
    let exact = session
        .env
        .billed_bytes()
        .unwrap_or(session.bytes_sent_total);
    exact as i64 + counter_jitter(session)
}

/// Decide whether a finished replay was classified, per `signal`.
pub fn was_classified<S: Substrate>(
    session: &mut Session<S>,
    signal: &Signal,
    outcome: &ReplayOutcome,
    billed_before: i64,
) -> bool {
    match signal {
        Signal::Blocking => outcome.blocked(),
        Signal::Throttling { control_bps, ratio } => {
            outcome.avg_bps > 0.0 && outcome.avg_bps < control_bps * ratio
        }
        Signal::ZeroRating => {
            let billed_after = read_billed_counter(session);
            let delta = (billed_after - billed_before).max(0) as u64;
            let moved = outcome.bytes_sent + outcome.server_payload_bytes;
            // Zero-rated when well under half the moved bytes were billed
            // (the jitter band makes smaller margins unreliable).
            delta + 100_000 < moved
        }
        // Try the TCP key, then the UDP one; only classes with effective
        // policies count.
        Signal::Readout => [6u8, 17].into_iter().any(|protocol| {
            let key = FlowKey::new(
                outcome.client_addr,
                liberate_dpi::profiles::SERVER_ADDR,
                outcome.client_port,
                outcome.server_port,
                protocol,
            );
            session.env.verdict_for(key).is_some_and(|v| v.effective)
        }),
    }
}

/// What one probe observed and decided, measured by the task that ran it.
pub(crate) struct ProbeResult {
    pub(crate) outcome: ReplayOutcome,
    pub(crate) classified: bool,
    /// Simulated time from the billed read to the end of the rest.
    pub(crate) elapsed: Duration,
}

/// Where a [`ProbeTask`] is between polls.
enum ProbeState {
    /// Nothing has run: the first poll does the probe's bookkeeping
    /// (blinded-bytes counter, billed-counter read) *and* the replay's
    /// Init segment in one go, so every order-sensitive session-global
    /// mutation — the RNG draw, the client-port stride, the ISN bump —
    /// happens in admission order under either driver.
    Start,
    /// Forwarding polls to the inner [`ReplaySm`].
    Replaying,
    /// Replay judged; sitting out the mandatory round gap.
    Resting,
}

/// A probe = one replay + one classification judgment, the work-horse
/// of detection, characterization, localization and evasion
/// evaluation. Its sequence is billed-counter read, replay, judgment,
/// rest. Driven on a private lane by the reactor, or inline on a
/// session ([`probe`]). Generic over borrowed or owned trace and
/// schedule, as [`ReplaySm`] is.
pub(crate) struct ProbeTask<'a, Tr, Sc> {
    signal: &'a Signal,
    sm: ReplaySm<Tr, Sc>,
    blinded_bytes: u64,
    state: ProbeState,
    t0: SimTime,
    billed_before: i64,
    /// The judged replay, held through the rest.
    judged: Option<(ReplayOutcome, bool)>,
}

impl<'a, Tr, Sc> ProbeTask<'a, Tr, Sc>
where
    Tr: Borrow<LoweredTrace>,
    Sc: Borrow<Schedule>,
{
    /// A probe ready for its first poll. `lane` is the reactor lane's
    /// unique client address, `None` on the inline driver;
    /// `blinded_bytes` feeds the `bytes-blinded` counter.
    pub(crate) fn new(
        trace: Tr,
        schedule: Sc,
        opts: ReplayOpts,
        lane: Option<Ipv4Addr>,
        signal: &'a Signal,
        blinded_bytes: u64,
    ) -> Self {
        let lane = lane.map(|client_addr| LaneAddr {
            client_addr,
            replay_no: 1,
        });
        ProbeTask {
            signal,
            sm: ReplaySm::new(trace, schedule, opts, lane),
            blinded_bytes,
            state: ProbeState::Start,
            t0: SimTime::ZERO,
            billed_before: 0,
            judged: None,
        }
    }

    fn step_sm<S: Substrate>(&mut self, session: &mut Session<S>) -> TaskPoll<ProbeResult> {
        match self.sm.poll(session) {
            TaskPoll::Done(outcome) => {
                let classified = was_classified(session, self.signal, &outcome, self.billed_before);
                self.judged = Some((outcome, classified));
                self.state = ProbeState::Resting;
                TaskPoll::Pending(Wake::Timer(session.config.round_gap))
            }
            TaskPoll::Pending(wake) => TaskPoll::Pending(wake),
        }
    }
}

impl<'a, Tr, Sc, S> FlowTask<S> for ProbeTask<'a, Tr, Sc>
where
    Tr: Borrow<LoweredTrace> + Send,
    Sc: Borrow<Schedule> + Send,
    S: Substrate,
{
    type Output = ProbeResult;

    fn poll(&mut self, session: &mut Session<S>) -> TaskPoll<ProbeResult> {
        match self.state {
            ProbeState::Start => {
                self.t0 = session.env.clock();
                if self.blinded_bytes > 0 {
                    session
                        .env
                        .journal()
                        .metrics
                        .add(Counter::BytesBlinded, self.blinded_bytes);
                }
                self.billed_before = read_billed_counter(session);
                self.state = ProbeState::Replaying;
                self.step_sm(session)
            }
            ProbeState::Replaying => self.step_sm(session),
            ProbeState::Resting => {
                // lint: allow(no-panic) invariant: set before Resting
                let (outcome, classified) = self.judged.take().expect("judged before rest");
                TaskPoll::Done(ProbeResult {
                    outcome,
                    classified,
                    elapsed: session.env.clock() - self.t0,
                })
            }
        }
    }

    fn replays_done(&self) -> u64 {
        match self.state {
            ProbeState::Start => 0,
            _ => 1,
        }
    }
}

/// One probe of `trace` replayed unmodified.
pub fn probe<S: Substrate>(
    session: &mut Session<S>,
    trace: &RecordedTrace,
    opts: &ReplayOpts,
    signal: &Signal,
) -> (ReplayOutcome, bool) {
    let schedule = Schedule::from_trace(trace);
    probe_lowered(session, &LoweredTrace::new(trace), &schedule, opts, signal)
}

/// [`probe`] of a schedule against an already lowered trace: a
/// [`ProbeTask`] on the inline driver.
pub(crate) fn probe_lowered<S: Substrate>(
    session: &mut Session<S>,
    trace: &LoweredTrace,
    schedule: &Schedule,
    opts: &ReplayOpts,
    signal: &Signal,
) -> (ReplayOutcome, bool) {
    let mut task = ProbeTask::new(trace, schedule, opts.clone(), None, signal, 0);
    let r = drive_inline(session, |session| task.poll(session));
    (r.outcome, r.classified)
}

/// A trace with every payload bit inverted — the detection control.
pub fn inverted_trace(trace: &RecordedTrace) -> RecordedTrace {
    let mut t = trace.clone();
    t.app = format!("{}-inverted", t.app);
    for msg in &mut t.messages {
        invert_bits(&mut msg.payload);
    }
    t
}

/// The detection verdict.
#[derive(Debug, Clone)]
pub struct DetectionOutcome {
    /// Differentiation exists and is content-based (the inverted control
    /// escaped it).
    pub differentiated: bool,
    /// The control was differentiated too: whatever policy exists is not
    /// content-based (out of scope per §3.1).
    pub content_independent: bool,
    pub blocking: bool,
    pub throttling: bool,
    pub zero_rating: bool,
    /// Classified packets carry substantially more latency (§4.1).
    pub latency_difference: bool,
    /// The server's bytes arrived altered while the control's did not
    /// (§4.1 content modification).
    pub content_modification: bool,
    pub original: ReplayOutcome,
    pub control: ReplayOutcome,
}

/// Phase 1: detect DPI-based differentiation by comparing the original
/// replay against its bit-inverted control (Fig. 1, left).
pub fn detect<S: Substrate>(session: &mut Session<S>, trace: &RecordedTrace) -> DetectionOutcome {
    detect_rotating(session, trace, None)
}

/// [`detect`] with per-replay server-port rotation — needed against
/// classifiers with residual server:port penalties like the GFC (§6.5),
/// where the original replay's own blocking would otherwise poison the
/// control.
pub fn detect_rotating<S: Substrate>(
    session: &mut Session<S>,
    trace: &RecordedTrace,
    rotate_base: Option<u16>,
) -> DetectionOutcome {
    let journal = session.env.journal().clone();
    journal.span_start(session.env.clock().as_micros(), Phase::Detect);

    let port_for = |session: &Session<S>, i: u16| {
        rotate_base.map(|b| {
            b.wrapping_add(i)
                .wrapping_add((session.replays % 100) as u16)
        })
    };

    let opts = ReplayOpts {
        server_port: port_for(session, 0),
        ..Default::default()
    };
    let billed_before = read_billed_counter(session);
    let original = session.replay_trace(trace, &opts);
    let billed_mid = read_billed_counter(session);
    session.rest(session.config.round_gap);

    let control_trace = inverted_trace(trace);
    let control_opts = ReplayOpts {
        server_port: port_for(session, 1),
        ..Default::default()
    };
    let control = session.replay_trace(&control_trace, &control_opts);
    let billed_after = read_billed_counter(session);
    session.rest(session.config.round_gap);

    let orig_billed = (billed_mid - billed_before).max(0) as u64;
    let ctrl_billed = (billed_after - billed_mid).max(0) as u64;
    let ratio = session.config.throttle_ratio;
    let min_bytes = session.config.min_zero_rating_bytes;

    journal.span_end(session.env.clock().as_micros(), Phase::Detect);
    verdict(
        original,
        control,
        orig_billed,
        ctrl_billed,
        ratio,
        min_bytes,
    )
}

/// Judge the original-vs-control pair — the back half of
/// [`detect_rotating`]. `orig_billed`/`ctrl_billed` are the
/// billed-counter deltas attributed to each replay.
fn verdict(
    original: ReplayOutcome,
    control: ReplayOutcome,
    orig_billed: u64,
    ctrl_billed: u64,
    throttle_ratio: f64,
    min_zero_rating_bytes: u64,
) -> DetectionOutcome {
    // Blocking comparison.
    let blocking = original.blocked() && !control.blocked();
    let content_independent_block = original.blocked() && control.blocked();

    // Throughput comparison (only meaningful when both transferred data).
    let throttling = original.avg_bps > 0.0
        && control.avg_bps > 0.0
        && original.avg_bps < control.avg_bps * throttle_ratio;

    // Zero-rating comparison: billed delta per replay.
    let orig_moved = original.bytes_sent + original.server_payload_bytes;
    let ctrl_moved = control.bytes_sent + control.server_payload_bytes;
    let big_enough = orig_moved >= min_zero_rating_bytes;
    let zero_rating = big_enough
        && orig_billed + 100_000 < orig_moved
        && ctrl_billed + 100_000 >= ctrl_moved.saturating_sub(100_000);

    // Latency comparison: classified flows carrying 3x the control's
    // request-to-response latency plus a 50 ms floor.
    let latency_difference = match (original.request_to_response, control.request_to_response) {
        (Some(o), Some(c)) => o > c * 3 + std::time::Duration::from_millis(50),
        _ => false,
    };

    // Content modification: the original's payload arrived altered while
    // the control's did not.
    let content_modification =
        !original.response_matches && control.response_matches && original.complete;

    DetectionOutcome {
        differentiated: blocking
            || throttling
            || zero_rating
            || latency_difference
            || content_modification,
        content_independent: content_independent_block,
        blocking,
        throttling,
        zero_rating,
        latency_difference,
        content_modification,
        original,
        control,
    }
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
    fn gfc_blocking_detected_as_content_based() {
        let mut s = session(EnvKind::Gfc);
        let d = detect(&mut s, &apps::economist_http());
        assert!(d.differentiated);
        assert!(d.blocking);
        assert!(!d.content_independent);
        assert!(!d.control.blocked(), "inverted control must pass");
    }

    #[test]
    fn iran_blocking_detected() {
        let mut s = session(EnvKind::Iran);
        let d = detect(&mut s, &apps::facebook_http());
        assert!(d.differentiated && d.blocking);
    }

    #[test]
    fn tmus_zero_rating_detected() {
        let mut s = session(EnvKind::TMobile);
        let d = detect(&mut s, &apps::amazon_prime_http(400_000));
        assert!(d.zero_rating, "{d:?}");
        assert!(d.differentiated);
    }

    #[test]
    fn att_throttling_detected() {
        let mut s = session(EnvKind::Att);
        let d = detect(&mut s, &apps::nbcsports_http(600_000));
        assert!(
            d.throttling,
            "orig {} ctrl {}",
            d.original.avg_bps, d.control.avg_bps
        );
        assert!(d.differentiated);
    }

    #[test]
    fn sprint_shows_no_differentiation() {
        let mut s = session(EnvKind::Sprint);
        let d = detect(&mut s, &apps::amazon_prime_http(400_000));
        assert!(!d.differentiated, "{d:?}");
        assert!(!d.content_independent);
    }

    #[test]
    fn control_traces_carry_no_keywords() {
        let t = apps::economist_http();
        let inv = inverted_trace(&t);
        let stream = inv.client_stream();
        assert!(liberate_traces::http::find(&stream, b"economist").is_none());
        // Inversion is an involution.
        let back = inverted_trace(&inv);
        assert_eq!(back.messages[0].payload, t.messages[0].payload);
    }

    #[test]
    fn latency_differentiation_detected() {
        // An operator that deprioritizes video by 400 ms per packet.
        let mut s = session(EnvKind::Testbed);
        {
            let dpi = s.env.dpi_mut().unwrap();
            dpi.config.policies.insert(
                "video".into(),
                liberate_dpi::actions::Policy::delaying(std::time::Duration::from_millis(400)),
            );
        }
        let d = detect(&mut s, &apps::amazon_prime_http(40_000));
        assert!(
            d.latency_difference,
            "{:?} vs {:?}",
            d.original.request_to_response, d.control.request_to_response
        );
        assert!(d.differentiated);
        assert!(!d.blocking && !d.zero_rating);
    }

    #[test]
    fn content_modification_detected() {
        // An operator that rewrites quality markers inside responses.
        let mut s = session(EnvKind::Testbed);
        {
            let dpi = s.env.dpi_mut().unwrap();
            dpi.config.policies.insert(
                "video".into(),
                liberate_dpi::actions::Policy::rewriting(&b"video/mp4"[..], &b"video/lo4"[..]),
            );
        }
        let d = detect(&mut s, &apps::amazon_prime_http(40_000));
        assert!(d.content_modification, "{d:?}");
        assert!(d.differentiated);
        assert!(d.control.response_matches);
    }

    #[test]
    fn probe_readout_in_testbed() {
        let mut s = session(EnvKind::Testbed);
        let (out, classified) = probe(
            &mut s,
            &apps::amazon_prime_http(50_000),
            &ReplayOpts::default(),
            &Signal::Readout,
        );
        assert!(out.handshake_ok);
        assert!(classified, "video should classify in the testbed");

        let (_, ctrl) = probe(
            &mut s,
            &inverted_trace(&apps::amazon_prime_http(50_000)),
            &ReplayOpts::default(),
            &Signal::Readout,
        );
        assert!(!ctrl);
    }
}
