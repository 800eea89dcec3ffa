//! The full lib·erate pipeline and runtime deployment (§4.4, Fig. 3).
//!
//! [`run_pipeline`] chains the four phases — differentiation detection,
//! characterization, middlebox localization, evasion evaluation — and
//! returns the cheapest working technique. [`pool::DeploymentPool`] is
//! the deployment vehicle (Fig. 3, step 3, the transparent proxy): it
//! applies the chosen technique to application flows at runtime and
//! re-runs the pipeline when the classifier changes (the adaptation loop
//! of §4.2: "If differentiation occurs even when using a previously
//! successful evasion technique, then lib·erate assumes that matching
//! rules have changed, and repeats the characterization and evasion
//! steps"). Its flows — one user's or many users' — fan across a
//! [`crate::engine::SessionPool`] and share one adaptation loop through a
//! generation-stamped published technique; a single user is a one-worker
//! pool.

pub mod pool;

pub use pool::{DeployWave, DeploymentPool, PoolFlowReport, PublishedState, PublishedTechnique};

use std::time::Duration;

use liberate_substrate::Substrate;
use liberate_traces::recorded::RecordedTrace;

use crate::characterize::{characterize, Characterization, CharacterizeOpts};
use crate::detect::{detect_rotating, read_billed_counter, DetectionOutcome, Signal};
use crate::error::{LiberateError, Result};
use crate::evaluate::{find_working_technique, EvaluationInputs, TechniqueResult};
use crate::evasion::EvasionContext;
use crate::probe::{decoy_request, Localization};
use crate::replay::Session;

/// The billed-counter baseline for judging one deployed flow.
/// [`Signal::ZeroRating`] is the only signal whose judgment compares
/// against it; every other signal skips the read entirely. Skipping
/// matters beyond cost: the read draws jitter from the session RNG, and
/// deployed flows must stay RNG-free so the reactor engine can interleave
/// them in any completion order without perturbing the stream the
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
    pub characterization: Option<Characterization>,
    pub localization: Option<Localization>,
    /// The cheapest working technique found, if any.
    pub chosen: Option<TechniqueResult>,
    /// Evaluation replays spent before success.
    pub evaluation_tries: u64,
    /// Total replay rounds across all phases.
    pub total_rounds: u64,
    /// Total client bytes consumed by testing.
    pub total_bytes: u64,
    /// Simulated time consumed by testing.
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

/// Run the whole pipeline against one application trace.
pub fn run_pipeline<S: Substrate>(
    session: &mut Session<S>,
    trace: &RecordedTrace,
    copts: &CharacterizeOpts,
) -> Result<PipelineReport> {
    let rounds0 = session.replays;
    let bytes0 = session.bytes_sent_total + session.bytes_received_total;
    let t0 = session.env.clock();

    // Phase 1: detection.
    let rotate_base = copts.rotate_server_ports.then_some(copts.rotate_base);
    let detection = detect_rotating(session, trace, rotate_base.map(|b| b.wrapping_add(30_000)));
    if !detection.differentiated {
        return Err(LiberateError::NoDifferentiation);
    }
    let signal = signal_from_detection(&detection, session.config.throttle_ratio);

    // Phase 2: characterization.
    let characterization = characterize(session, trace, &signal, copts);

    let mut report =
        complete_pipeline(session, trace, copts, detection, &signal, characterization)?;
    report.total_rounds = session.replays - rounds0;
    report.total_bytes = session.bytes_sent_total + session.bytes_received_total - bytes0;
    report.elapsed = session.env.clock() - t0;
    Ok(report)
}

/// Phases 3–4 of the pipeline — localization and evaluation — given an
/// already-run detection and characterization. The single-session
/// [`run_pipeline`] and the pool's re-characterization wave (which runs
/// phase 2 via [`crate::engine::characterize_parallel`]) both funnel
/// through here, so the adaptation logic cannot drift between them. Cost
/// fields of the returned report are zero; callers account their own
/// phase-1/2 spend.
pub(crate) fn complete_pipeline<S: Substrate>(
    session: &mut Session<S>,
    trace: &RecordedTrace,
    copts: &CharacterizeOpts,
    detection: DetectionOutcome,
    signal: &Signal,
    characterization: Characterization,
) -> Result<PipelineReport> {
    if characterization.fields.is_empty() {
        return Err(LiberateError::NoMatchingFields);
    }
    let rotate_base = copts.rotate_server_ports.then_some(copts.rotate_base);

    // Phase 3: localization (via a TTL-limited inert probe carrying the
    // first matching field's packet).
    let matching_packet = trace
        .client_messages()
        .nth(
            characterization
                .client_field_regions(trace)
                .first()
                .map(|r| r.packet)
                .unwrap_or(0),
        )
        .map(|m| m.payload.clone())
        .ok_or_else(|| LiberateError::BadTrace("no client payload".into()))?;
    let carrier = liberate_traces::generator::generate(&liberate_traces::generator::WorkloadSpec {
        server_bytes: 400_000,
        ..Default::default()
    });
    let localization = crate::probe::locate_middlebox_rotating(
        session,
        &carrier,
        &matching_packet,
        signal,
        rotate_base.map(|b| b.wrapping_add(31_000)),
    );

    // Phase 4: evaluation.
    let ctx = EvasionContext {
        matching_fields: characterization.client_field_regions(trace),
        decoy: decoy_request(),
        middlebox_ttl: localization
            .middlebox_ttl
            .unwrap_or(session.env.hops_before_middlebox() + 1),
    };
    let inputs = EvaluationInputs {
        signal: signal.clone(),
        ctx,
        rotate_server_ports: copts.rotate_server_ports,
    };
    let found = find_working_technique(session, trace, &characterization.position, &inputs);
    let (chosen, tries) = match found {
        Some((r, tries)) => (Some(r), tries),
        None => (None, 0),
    };

    Ok(PipelineReport {
        detection,
        characterization: Some(characterization),
        localization: Some(localization),
        chosen,
        evaluation_tries: tries,
        total_rounds: 0,
        total_bytes: 0,
        elapsed: Duration::ZERO,
    })
}

/// The evasion state a deployment holds for one application: the
/// technique to apply, the context it needs, and the signal that detects
/// when it stops working. [`pool::DeploymentPool`] holds one,
/// generation-stamped, behind [`pool::PublishedState`].
#[derive(Debug, Clone)]
pub struct ActiveEvasion {
    pub technique: TechniqueResult,
    pub ctx: EvasionContext,
    pub signal: Signal,
}

impl ActiveEvasion {
    /// Assemble deployable state from a finished pipeline report. Errors
    /// when the pipeline found no working technique.
    pub fn from_report<S: Substrate>(
        report: &PipelineReport,
        trace: &RecordedTrace,
        session: &Session<S>,
    ) -> Result<ActiveEvasion> {
        let chosen = report
            .chosen
            .clone()
            .ok_or(LiberateError::NoWorkingTechnique)?;
        let ctx = EvasionContext {
            matching_fields: report
                .characterization
                .as_ref()
                .map(|c| c.client_field_regions(trace))
                .unwrap_or_default(),
            decoy: decoy_request(),
            middlebox_ttl: report
                .localization
                .as_ref()
                .and_then(|l| l.middlebox_ttl)
                .unwrap_or(session.env.hops_before_middlebox() + 1),
        };
        let signal = signal_from_detection(&report.detection, session.config.throttle_ratio);
        Ok(ActiveEvasion {
            technique: chosen,
            ctx,
            signal,
        })
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
    fn pipeline_end_to_end_against_gfc() {
        let mut s = session(EnvKind::Gfc);
        let trace = apps::economist_http();
        let copts = CharacterizeOpts {
            rotate_server_ports: true,
            ..Default::default()
        };
        let report = run_pipeline(&mut s, &trace, &copts).expect("pipeline succeeds");
        assert!(report.detection.blocking);
        let c = report.characterization.as_ref().unwrap();
        assert!(!c.fields.is_empty());
        assert_eq!(
            report.localization.as_ref().unwrap().middlebox_ttl,
            Some(10)
        );
        let chosen = report.chosen.expect("GFC is evadable");
        assert_eq!(chosen.cc, Some(true));
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
