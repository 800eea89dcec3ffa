//! The full lib·erate pipeline and runtime deployment (§4.4, Fig. 3).
//!
//! `learn` holds the four phases — differentiation detection,
//! characterization, middlebox localization, evasion evaluation — once,
//! over a slice of sessions, and returns the cheapest working technique
//! ready to deploy. [`run_pipeline`] runs it on one bare session;
//! [`pool::DeploymentPool`] runs it on its workers. The pool is the
//! deployment vehicle (Fig. 3, step 3, the transparent proxy): it
//! applies the chosen technique to application flows at runtime and
//! re-learns when the classifier changes (the adaptation loop of §4.2:
//! "If differentiation occurs even when using a previously successful
//! evasion technique, then lib·erate assumes that matching rules have
//! changed, and repeats the characterization and evasion steps"). Its
//! flows — one user's or many users' — fan across a
//! [`crate::engine::SessionPool`] and share one adaptation loop through a
//! generation-stamped published technique; a single user is a one-worker
//! pool.

pub mod pool;

pub use pool::{DeployWave, DeploymentPool, PoolFlowReport, PublishedState, PublishedTechnique};

use std::time::Duration;

use liberate_obs::Journal;
use liberate_substrate::Substrate;
use liberate_traces::generator;
use liberate_traces::recorded::RecordedTrace;

use crate::cache::{CachedRules, SharedRuleCache};
use crate::characterize::{Characterization, CharacterizeOpts};
use crate::detect::{detect_rotating, read_billed_counter, DetectionOutcome, Signal};
use crate::engine::characterize_one;
use crate::error::{LiberateError, Result};
use crate::evaluate::{find_working_technique, EvaluationInputs, TechniqueResult};
use crate::evasion::EvasionContext;
use crate::probe::{decoy_request, sweep_ttl, Localization};
use crate::replay::{LoweredTrace, Session};
use crate::schedule::Schedule;

/// The billed-counter baseline for judging one deployed flow.
/// [`Signal::ZeroRating`] is the only signal whose judgment compares
/// against it; every other signal skips the read entirely. Skipping
/// matters beyond cost: the read draws jitter from the session RNG, and
/// deployed flows must stay RNG-free so the reactor can run them on
/// lanes in any order without perturbing the stream the
/// characterizer's probes consume.
pub(crate) fn billed_baseline<S: Substrate>(session: &mut Session<S>, signal: &Signal) -> i64 {
    if matches!(signal, Signal::ZeroRating) {
        read_billed_counter(session)
    } else {
        0
    }
}

/// Everything the pipeline produced, with cost accounting.
#[derive(Debug)]
pub struct PipelineReport {
    pub detection: DetectionOutcome,
    pub characterization: Characterization,
    pub localization: Localization,
    /// The cheapest working technique found, with the context and signal
    /// that deploy it; `None` when no technique evades.
    pub evasion: Option<ActiveEvasion>,
    /// Evaluation replays spent before success.
    pub evaluation_tries: u64,
    /// Total replay rounds across all phases and sessions.
    pub total_rounds: u64,
    /// Total client bytes consumed by testing, across sessions.
    pub total_bytes: u64,
    /// Simulated time consumed by testing, summed over sessions.
    pub elapsed: Duration,
}

/// Pick the default detection signal for an environment's differentiation
/// style, from what detection observed.
pub fn signal_from_detection(d: &DetectionOutcome, config_ratio: f64) -> Signal {
    if d.blocking {
        Signal::Blocking
    } else if d.zero_rating {
        Signal::ZeroRating
    } else {
        Signal::Throttling {
            control_bps: d.control.avg_bps,
            ratio: config_ratio,
        }
    }
}

/// Run the whole pipeline against one application trace, on one session.
pub fn run_pipeline<S: Substrate>(
    session: &mut Session<S>,
    trace: &RecordedTrace,
    copts: &CharacterizeOpts,
) -> Result<PipelineReport> {
    learn(
        std::slice::from_mut(session),
        &Journal::disabled(),
        trace,
        copts,
        None,
    )
}

/// The four phases, in order, over the worker `sessions` (one session is
/// a bare pipeline). Detection, localization and evaluation run on
/// worker 0; characterization takes a verified entry from `cache` (a
/// shared rule cache and the network name it is keyed under) or else
/// runs the wave search across every session, with reactor scheduling
/// recorded into `telemetry`, and publishes what it learned to `cache`.
pub(crate) fn learn<S: Substrate>(
    sessions: &mut [Session<S>],
    telemetry: &Journal,
    trace: &RecordedTrace,
    copts: &CharacterizeOpts,
    cache: Option<&(SharedRuleCache, String)>,
) -> Result<PipelineReport> {
    let start: Vec<_> = sessions
        .iter()
        .map(|s| (s.replays, spent_bytes(s), s.env.clock()))
        .collect();
    let rotate_base = copts.rotate_server_ports.then_some(copts.rotate_base);
    let port = |offset: u16| rotate_base.map(|b| b.wrapping_add(offset));

    // Phase 1: detection.
    let detection = detect_rotating(&mut sessions[0], trace, port(30_000));
    if !detection.differentiated {
        return Err(LiberateError::NoDifferentiation);
    }
    let signal = signal_from_detection(&detection, sessions[0].config.throttle_ratio);

    // Phase 2: characterization.
    let characterization =
        match cache.and_then(|c| verified_rules(c, &mut sessions[0], trace, &signal)) {
            Some(c) => c,
            None => characterize_one(sessions, telemetry, trace, &signal, copts),
        };
    if characterization.fields.is_empty() {
        return Err(LiberateError::NoMatchingFields);
    }
    let lead = &mut sessions[0];

    // Phase 3: localization (via a TTL-limited inert probe carrying the
    // first matching field's packet).
    let matching_fields = characterization.client_field_regions(trace);
    let matching_packet = trace
        .client_messages()
        .nth(matching_fields.first().map_or(0, |r| r.packet))
        .map(|m| m.payload.clone())
        .ok_or_else(|| LiberateError::BadTrace("no client payload".into()))?;
    let localization = localize(lead, trace, &matching_packet, &signal, port(31_000));

    // Phase 4: evaluation.
    let ctx = EvasionContext {
        matching_fields,
        decoy: decoy_request(),
        middlebox_ttl: localization
            .middlebox_ttl
            .unwrap_or(lead.env.hops_before_middlebox() + 1),
    };
    let inputs = EvaluationInputs {
        signal,
        ctx,
        rotate_server_ports: copts.rotate_server_ports,
    };
    let found = find_working_technique(lead, trace, &characterization.position, &inputs);

    // Publish freshly learned rules for the next user on this network (a
    // cached characterization spent no rounds).
    if let Some((cache, network)) = cache {
        if characterization.rounds > 0 {
            let learned_at = lead.env.clock().as_micros() / 1_000_000;
            cache.publish(
                network,
                &trace.app,
                CachedRules::from_characterization(&characterization, learned_at),
            );
        }
    }

    let (evasion, evaluation_tries) = match found {
        Some((technique, tries)) => (
            Some(ActiveEvasion {
                technique,
                ctx: inputs.ctx,
                signal: inputs.signal,
            }),
            tries,
        ),
        None => (None, 0),
    };
    let mut report = PipelineReport {
        detection,
        characterization,
        localization,
        evasion,
        evaluation_tries,
        total_rounds: 0,
        total_bytes: 0,
        elapsed: Duration::ZERO,
    };
    for (s, (replays, bytes, clock)) in sessions.iter().zip(start) {
        report.total_rounds += s.replays - replays;
        report.total_bytes += spent_bytes(s) - bytes;
        report.elapsed += s.env.clock() - clock;
    }
    Ok(report)
}

/// Client and server bytes a session has moved so far.
fn spent_bytes<S: Substrate>(session: &Session<S>) -> u64 {
    session.bytes_sent_total + session.bytes_received_total
}

/// The cached rules for this trace, if the cache has them and they
/// verify against the live classifier under `signal` (the session pays
/// one verification replay per field).
fn verified_rules<S: Substrate>(
    (cache, network): &(SharedRuleCache, String),
    session: &mut Session<S>,
    trace: &RecordedTrace,
    signal: &Signal,
) -> Option<Characterization> {
    let journal = session.journal().clone();
    let t_us = session.env.clock().as_micros();
    let entry = cache.lookup_observed(network, &trace.app, &journal, t_us)?;
    let fresh = cache.verify(network, &trace.app, session, trace, signal)?;
    fresh.then(|| entry.to_characterization(trace))
}

/// Phase 3: sweep a carrier's TTL-limited matching packet toward the
/// middlebox (§5.2). The carrier moves as many server bytes as the flow
/// detection judged, so a differentiation that shows only after volume
/// (a token-bucket burst) shows on the carrier too; a zero-rating
/// carrier moves at least the bytes a reliable counter read needs
/// (§6.2). The carrier's recorded trace is dropped once it is lowered,
/// before the sweep, and the lowered carrier before evaluation.
fn localize<S: Substrate>(
    session: &mut Session<S>,
    trace: &RecordedTrace,
    matching_packet: &[u8],
    signal: &Signal,
    rotate_base: Option<u16>,
) -> Localization {
    let mut server_bytes = trace.server_bytes();
    if matches!(signal, Signal::ZeroRating) {
        let min = usize::try_from(session.config.min_zero_rating_bytes).unwrap_or(usize::MAX);
        server_bytes = server_bytes.max(min);
    }
    let (lowered, base) = {
        let carrier = generator::generate(&generator::WorkloadSpec {
            server_bytes,
            ..Default::default()
        });
        (LoweredTrace::new(&carrier), Schedule::from_trace(&carrier))
    };
    sweep_ttl(
        session,
        &lowered,
        &base,
        matching_packet,
        signal,
        rotate_base,
    )
}

/// The evasion state a deployment holds for one application: the
/// technique to apply, the context it needs, and the signal that detects
/// when it stops working. `learn` builds it; [`pool::DeploymentPool`]
/// holds one, generation-stamped, behind [`pool::PublishedState`].
#[derive(Debug, Clone, PartialEq)]
pub struct ActiveEvasion {
    pub technique: TechniqueResult,
    pub ctx: EvasionContext,
    pub signal: Signal,
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
    fn pipeline_end_to_end_against_gfc() {
        let mut s = session(EnvKind::Gfc);
        let trace = apps::economist_http();
        let copts = CharacterizeOpts {
            rotate_server_ports: true,
            ..Default::default()
        };
        let report = run_pipeline(&mut s, &trace, &copts).expect("pipeline succeeds");
        assert!(report.detection.blocking);
        assert!(!report.characterization.fields.is_empty());
        assert_eq!(report.localization.middlebox_ttl, Some(10));
        let chosen = report.evasion.expect("GFC is evadable");
        assert_eq!(chosen.technique.cc, Some(true));
        assert!(report.total_rounds > 0);
        assert!(report.total_bytes > 0);
    }

    #[test]
    fn pipeline_refuses_undifferentiated_traffic() {
        let mut s = session(EnvKind::Sprint);
        let err = run_pipeline(
            &mut s,
            &apps::amazon_prime_http(300_000),
            &CharacterizeOpts::default(),
        )
        .unwrap_err();
        assert_eq!(err, LiberateError::NoDifferentiation);
    }

    fn one_user_pool(kind: EnvKind) -> DeploymentPool {
        DeploymentPool::new(
            kind,
            OsKind::Linux,
            LiberateConfig::default(),
            1,
            CharacterizeOpts::default(),
        )
    }

    #[test]
    fn deployment_reuses_published_technique() {
        let mut pool = one_user_pool(EnvKind::Iran);
        let trace = apps::facebook_http();

        let first = pool.run_flows(&trace, 1).expect("first flow learns");
        assert!(first.all_evaded());
        assert!(!first.reports[0].outcome.blocked());
        assert_eq!(pool.characterizations, 1);

        let second = pool.run_flows(&trace, 1).expect("second flow reuses");
        assert!(!second.recharacterized);
        assert!(!second.reports[0].outcome.blocked());
        assert_eq!(pool.characterizations, 1, "no re-learning needed");
    }

    #[test]
    fn deployment_adapts_when_rules_change() {
        let mut pool = one_user_pool(EnvKind::Testbed);
        // Large enough that the testbed's 1.5 Mbps video throttle is
        // visible past its token-bucket burst.
        let trace = apps::amazon_prime_http(1_200_000);

        let first = pool.run_flows(&trace, 1).expect("learns initial technique");
        assert!(first.all_evaded());
        assert_eq!(pool.characterizations, 1);
        let initial = pool.active_technique().unwrap();
        assert_eq!(
            initial.category(),
            crate::evasion::Category::InertInsertion,
            "match-and-forget classifiers get inert insertion first (§5.2)"
        );

        // Countermeasure (§4.3 "Evasion countermeasures"): the operator
        // blacklists lib·erate's decoy class — the innocuous "web" class
        // now receives the video throttle, so decoy-based inert insertion
        // stops helping.
        {
            let dpi = pool.pool_mut().session_mut(0).env.dpi_mut().unwrap();
            dpi.config.policies.insert(
                "web".to_string(),
                liberate_dpi::actions::Policy::throttle(1_500_000, 420_000),
            );
            dpi.reset();
        }

        // The burned flow signals the change; the pool re-learns after
        // the wave.
        let burned = pool.run_flows(&trace, 1).expect("re-learns");
        assert_eq!(burned.change_signals(), 1);
        assert!(burned.recharacterized, "should notice the rule change");
        assert_eq!(pool.characterizations, 2);
        let new = pool.active_technique().unwrap();
        assert_ne!(
            new, initial,
            "the burned technique must be replaced by a different one"
        );

        // And the replacement keeps working on subsequent flows without
        // further re-learning.
        let third = pool.run_flows(&trace, 1).expect("replacement works");
        assert!(third.all_evaded());
        assert!(!third.recharacterized);
        assert_eq!(pool.characterizations, 2);
    }
}
