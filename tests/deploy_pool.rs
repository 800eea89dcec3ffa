//! Deployment test battery for the pool-backed proxy (§4.4 at scale).
//!
//! Pins the tentpole contracts of `DeploymentPool`:
//!
//! - a classifier change seen by N workers in one wave triggers exactly
//!   ONE re-characterization, not N;
//! - the published generation is monotonic and snapshots are never torn
//!   (a reader can never pair generation g with generation g-1's
//!   technique);
//! - a burned published technique degrades onto the fallback ladder in
//!   ladder order;
//! - the adapted technique at 1, 2, and 4 workers is identical to what
//!   the sequential proxy (a one-worker pool, one user per wave)
//!   re-learns from the same rule flip;
//! - same seed, same worker count ⇒ byte-identical merged journals.
//!
//! The scripted classifier change used throughout: the testbed's "web"
//! rule (keyword `example.org`, a decoy class with a no-op policy) is
//! re-classed to "video", so the decoy request the low-TTL inert
//! technique leans on suddenly draws the video throttle. That burns the
//! initial technique (`InertLowTtl`) while leaving the video keyword
//! fields themselves intact — a genuine rule-set swap, not a policy
//! tweak.

use std::sync::Arc;

use liberate::prelude::*;
use liberate_obs::{to_jsonl, validate_jsonl, Counter, Journal};
use liberate_traces::apps;

mod common;

fn trace() -> liberate_traces::recorded::RecordedTrace {
    apps::amazon_prime_http(1_200_000)
}

/// The scripted rule flip: re-class the testbed's decoy "web" rule as
/// "video" so decoy traffic draws the throttle.
fn flipped_rules(rules: &liberate_dpi::rules::RuleSet) -> liberate_dpi::rules::RuleSet {
    let mut rules = rules.clone();
    for r in &mut rules.rules {
        if r.id == "web" {
            r.class = "video".to_string();
        }
    }
    rules
}

fn testbed_pool(workers: usize) -> DeploymentPool {
    DeploymentPool::new(
        EnvKind::Testbed,
        OsKind::Linux,
        LiberateConfig::default(),
        workers,
        CharacterizeOpts::default(),
    )
}

/// (a) N workers observing the same classifier flip in one wave cause
/// exactly one re-characterization, and stale change reports from the
/// flip wave never trigger a second one.
#[test]
fn one_recharacterization_per_flip_despite_many_witnesses() {
    let trace = trace();
    let workers = 4;
    let users = workers * 2;
    let mut pool = testbed_pool(workers);

    let wave1 = pool.run_flows(&trace, users).expect("initial wave");
    assert_eq!(pool.characterizations, 1, "initial learn only");
    assert_eq!(wave1.generation, 1);
    assert!(wave1.all_evaded());
    assert_eq!(wave1.change_signals(), 0);

    let rules = {
        let dpi = pool.pool_mut().session_mut(0).env.dpi_mut().unwrap();
        flipped_rules(&dpi.config.rules)
    };
    pool.hot_swap_rules(&rules);

    let wave2 = pool.run_flows(&trace, users).expect("flip wave");
    assert_eq!(
        wave2.change_signals(),
        users,
        "every user's flow should witness the burned technique"
    );
    assert!(wave2.recharacterized);
    assert_eq!(
        pool.characterizations, 2,
        "eight change signals, ONE re-characterization"
    );
    assert_eq!(wave2.generation, 2, "one publish per acknowledged change");
    // Every report in the wave read the pre-flip generation.
    assert!(wave2.reports.iter().all(|r| r.generation == 1));

    // The next wave runs on the refreshed technique: no residual change
    // signals, no further re-learning.
    let wave3 = pool.run_flows(&trace, users).expect("recovery wave");
    assert!(wave3.all_evaded());
    assert_eq!(wave3.change_signals(), 0);
    assert!(!wave3.recharacterized);
    assert_eq!(pool.characterizations, 2);
    assert_eq!(wave3.generation, 2);

    // The journal agrees with the driver's own accounting.
    let merged = Arc::new(Journal::new());
    pool.merge_journals_into(&merged);
    assert_eq!(merged.metrics.get(Counter::RecharacterizeWaves), 2);
    assert_eq!(
        merged.metrics.get(Counter::DeployFlows),
        (users * 3) as u64,
        "every flow of every wave runs inside a Deploy span"
    );
    assert_eq!(
        merged.metrics.get(Counter::RuleSwaps),
        workers as u64,
        "the scripted flip touches each worker's device once"
    );
}

/// (b) Generation monotonicity and torn-read freedom: concurrent readers
/// hammering `PublishedState::snapshot` while a publisher installs new
/// techniques must always see a generation that never goes backwards and
/// a technique that matches the generation it is paired with.
#[test]
fn published_state_is_monotonic_and_never_torn() {
    // Borrow a real ActiveEvasion from a tiny pool run, then re-publish
    // mutated clones whose technique encodes the expected generation.
    let trace = trace();
    let mut pool = testbed_pool(1);
    pool.run_flows(&trace, 1).expect("initial wave");
    let base = pool
        .published()
        .snapshot()
        .evasion
        .expect("initial technique published");

    let state = PublishedState::new();
    assert_eq!(state.generation(), 0);
    assert!(state.snapshot().evasion.is_none());

    const PUBLISHES: usize = 500;
    std::thread::scope(|scope| {
        for _ in 0..4 {
            let state = state.clone();
            scope.spawn(move || {
                let mut last = 0u64;
                loop {
                    let snap = state.snapshot();
                    assert!(
                        snap.generation >= last,
                        "generation went backwards: {} -> {}",
                        last,
                        snap.generation
                    );
                    last = snap.generation;
                    match snap.evasion {
                        None => assert_eq!(snap.generation, 0, "technique without a generation"),
                        Some(e) => assert_eq!(
                            e.technique.effective,
                            Technique::DummyPrefixData {
                                bytes: snap.generation as usize
                            },
                            "torn read: generation {} paired with {:?}",
                            snap.generation,
                            e.technique.effective
                        ),
                    }
                    if last >= PUBLISHES as u64 {
                        break;
                    }
                }
            });
        }

        for i in 1..=PUBLISHES {
            let mut e = (*base).clone();
            e.technique.effective = Technique::DummyPrefixData { bytes: i };
            let generation = state.publish(Arc::new(e));
            assert_eq!(generation, i as u64, "publish stamps are sequential");
        }
    });
    assert_eq!(state.generation(), PUBLISHES as u64);
}

/// (c) Mid-wave degradation walks the fallback ladder in order: a burned
/// first rung is skipped, the first surviving rung catches the flow, and
/// reordering the ladder changes which rung parks the traffic.
#[test]
fn fallback_ladder_is_walked_in_order() {
    let trace = trace();
    // `InertLowTtl` is the initial published technique, which the flip
    // burns; `InertTcpInvalidFlags` survives the flip (it is what the
    // re-learn converges to — see adapted-parity test below).
    let burned = Technique::InertLowTtl;
    let survivor = Technique::InertTcpInvalidFlags;

    for (ladder, expect_parked) in [
        (vec![burned.clone(), survivor.clone()], survivor.clone()),
        (vec![survivor.clone(), burned.clone()], survivor.clone()),
    ] {
        let first_rung = ladder[0].clone();
        let mut pool = testbed_pool(2).with_fallback_ladder(ladder);
        pool.run_flows(&trace, 4).expect("initial wave");
        assert_eq!(pool.active_technique().unwrap(), burned);

        let rules = {
            let dpi = pool.pool_mut().session_mut(0).env.dpi_mut().unwrap();
            flipped_rules(&dpi.config.rules)
        };
        pool.hot_swap_rules(&rules);
        let wave = pool.run_flows(&trace, 4).expect("flip wave");

        for r in &wave.reports {
            assert!(r.change_signal, "published technique should burn");
            assert_eq!(
                r.parked_on_fallback.as_ref(),
                Some(&expect_parked),
                "ladder {first_rung:?}-first should park on {expect_parked:?}"
            );
            assert!(r.evaded, "parked traffic keeps moving");
            assert_eq!(r.technique.as_ref(), Some(&expect_parked));
        }

        let merged = Arc::new(Journal::new());
        pool.merge_journals_into(&merged);
        assert_eq!(
            merged.metrics.get(Counter::FallbackParks),
            wave.reports.len() as u64,
            "each degraded flow records one park"
        );
    }
}

/// (c') A ladder whose every rung is burned parks nothing: the flow
/// reports the change but does not evade until the re-learn lands.
#[test]
fn exhausted_ladder_parks_nothing() {
    let trace = trace();
    let mut pool = testbed_pool(1).with_fallback_ladder(vec![Technique::InertLowTtl]);
    pool.run_flows(&trace, 2).expect("initial wave");

    let rules = {
        let dpi = pool.pool_mut().session_mut(0).env.dpi_mut().unwrap();
        flipped_rules(&dpi.config.rules)
    };
    pool.hot_swap_rules(&rules);
    let wave = pool.run_flows(&trace, 2).expect("flip wave");
    for r in &wave.reports {
        assert!(r.change_signal);
        assert!(r.parked_on_fallback.is_none(), "sole rung is burned too");
        assert!(!r.evaded);
    }
    // The re-learn still lands, so the next wave evades without parking.
    let recovery = pool.run_flows(&trace, 2).expect("recovery wave");
    assert!(recovery.all_evaded());
    assert_eq!(recovery.change_signals(), 0);
}

/// (d) Worker-count parity: after the same scripted flip, pools at 1, 2,
/// and 4 workers carrying two users per worker publish exactly the
/// technique the sequential proxy — a one-worker pool carrying one user
/// per wave — adapts to. Fanning deployment out never changes what is
/// deployed.
#[test]
fn adapted_technique_matches_sequential_proxy_at_1_2_4_workers() {
    let trace = trace();
    // (initial, adapted) techniques of a pool of `workers` carrying
    // `users` flows per wave.
    let adapt = |workers: usize, users: usize| {
        let mut pool = testbed_pool(workers);
        let wave1 = pool.run_flows(&trace, users).expect("initial wave");
        assert!(wave1.all_evaded());
        let initial = pool.active_technique().unwrap();

        let rules = {
            let dpi = pool.pool_mut().session_mut(0).env.dpi_mut().unwrap();
            flipped_rules(&dpi.config.rules)
        };
        pool.hot_swap_rules(&rules);
        let wave2 = pool.run_flows(&trace, users).expect("flip wave");
        assert!(wave2.recharacterized, "flip should force a re-learn");
        let adapted = pool.active_technique().unwrap();

        let wave3 = pool.run_flows(&trace, users).expect("recovery wave");
        assert!(wave3.all_evaded(), "refreshed technique carries all users");
        (initial, adapted)
    };

    let (seq_initial, seq_adapted) = adapt(1, 1);
    assert_ne!(
        seq_initial, seq_adapted,
        "the flip burns the initial technique"
    );
    for workers in [1usize, 2, 4] {
        let (initial, adapted) = adapt(workers, workers * 2);
        assert_eq!(initial, seq_initial, "initial parity at {workers} workers");
        assert_eq!(adapted, seq_adapted, "adapted parity at {workers} workers");
    }
}

/// (d') One user on one vantage point is a one-worker pool: the evasion
/// a one-worker pool publishes on its first wave is the one
/// `run_pipeline` returns on a same-seed bare session. Worker 0 of one
/// has the bare session's seed, client port and port stride, so both
/// entry points run the same learn replay for replay.
#[test]
fn one_worker_pool_publishes_what_run_pipeline_returns() {
    for (kind, trace, rotate_server_ports) in [
        (EnvKind::Gfc, apps::economist_http(), true),
        (EnvKind::TMobile, apps::amazon_prime_http(400_000), false),
    ] {
        let copts = CharacterizeOpts {
            rotate_server_ports,
            ..Default::default()
        };
        let mut session = Session::new(kind, OsKind::Linux, LiberateConfig::default());
        let solo = run_pipeline(&mut session, &trace, &copts)
            .expect("the pipeline runs")
            .evasion
            .expect("evadable");

        let mut pool =
            DeploymentPool::new(kind, OsKind::Linux, LiberateConfig::default(), 1, copts);
        pool.run_flows(&trace, 1).expect("the pool learns");
        let published = pool.published().snapshot().evasion.expect("published");
        assert_eq!(published.technique, solo.technique, "{kind:?} technique");
        assert_eq!(published.ctx, solo.ctx, "{kind:?} context");
        assert_eq!(published.signal, solo.signal, "{kind:?} signal");
    }
}

/// (e) Same seed, same worker count ⇒ byte-identical merged journals,
/// even through a scripted flip, a fallback ladder, and a re-learn.
#[test]
fn same_seed_deployment_journals_are_byte_identical() {
    let trace = trace();
    let run = || {
        let mut pool = testbed_pool(2).with_fallback_ladder(vec![Technique::InertTcpInvalidFlags]);
        pool.run_flows(&trace, 4).expect("initial wave");
        let rules = {
            let dpi = pool.pool_mut().session_mut(0).env.dpi_mut().unwrap();
            flipped_rules(&dpi.config.rules)
        };
        pool.hot_swap_rules(&rules);
        pool.run_flows(&trace, 4).expect("flip wave");
        pool.run_flows(&trace, 4).expect("recovery wave");
        let merged = Arc::new(Journal::new());
        pool.merge_journals_into(&merged);
        to_jsonl(&merged)
    };
    let a = run();
    let b = run();
    assert!(!a.is_empty());
    validate_jsonl(&a).expect("merged deployment journal is valid JSONL");
    assert_eq!(a, b, "same seed must replay to byte-identical journals");
}

/// (e') A small journal-on pool — one wave, a scripted flip, one wave
/// after it — exports exactly the checked-in merged journal, staged
/// lanes, the re-learn and the `rule_swap` events included.
#[test]
fn deployment_journal_matches_its_golden() {
    let trace = trace();
    let mut pool = testbed_pool(2);
    pool.run_flows(&trace, 2).expect("initial wave");
    let rules = {
        let dpi = pool.pool_mut().session_mut(0).env.dpi_mut().unwrap();
        flipped_rules(&dpi.config.rules)
    };
    pool.hot_swap_rules(&rules);
    pool.run_flows(&trace, 2).expect("recovery wave");
    let merged = Arc::new(Journal::new());
    pool.merge_journals_into(&merged);
    common::assert_golden("journals/testbed_pool_2w.jsonl", &to_jsonl(&merged));
}

/// (e'') A zero-rating pool at 2 workers — a learn wave, then a steady
/// wave — exports exactly the checked-in merged journal. Zero-rating
/// judges flows against the RNG-jittered billed counter, so both the
/// blinding probes and the deployed flows run inline on the worker.
#[test]
fn zero_rating_pool_journal_matches_its_golden() {
    let trace = apps::amazon_prime_http(300_000);
    let mut pool = DeploymentPool::new(
        EnvKind::TMobile,
        OsKind::Linux,
        LiberateConfig::default(),
        2,
        CharacterizeOpts::default(),
    );
    pool.run_flows(&trace, 2).expect("learn wave");
    pool.run_flows(&trace, 3).expect("steady wave");
    let merged = Arc::new(Journal::new());
    pool.merge_journals_into(&merged);
    common::assert_golden("journals/tmobile_pool_2w.jsonl", &to_jsonl(&merged));
}

/// The simulator with its lane surface hidden: `supports_lanes()` keeps
/// the trait's default (false), so every wave over it runs inline.
struct NoLanes(SimSubstrate);

impl Substrate for NoLanes {
    fn backend_name(&self) -> &'static str {
        self.0.backend_name()
    }
    fn env_name(&self) -> String {
        self.0.env_name()
    }
    fn hops_before_middlebox(&self) -> u8 {
        Substrate::hops_before_middlebox(&self.0)
    }
    fn clock(&self) -> liberate_substrate::time::SimTime {
        self.0.clock()
    }
    fn advance(&mut self, d: std::time::Duration) {
        self.0.advance(d)
    }
    fn run_until_idle(&mut self) {
        self.0.run_until_idle()
    }
    fn inject_client(&mut self, delay: std::time::Duration, wire: Vec<u8>) {
        self.0.inject_client(delay, wire)
    }
    fn take_client_inbox(
        &mut self,
    ) -> Vec<(
        liberate_substrate::time::SimTime,
        liberate_substrate::buf::PacketBuf,
    )> {
        self.0.take_client_inbox()
    }
    fn install_server_script(
        &mut self,
        script: liberate_substrate::script::ServerScript,
    ) -> Arc<parking_lot::Mutex<liberate_substrate::script::ServerObs>> {
        self.0.install_server_script(script)
    }
    fn capture(&self) -> &liberate_substrate::capture::Capture {
        self.0.capture()
    }
    fn clear_capture(&mut self) {
        self.0.clear_capture()
    }
    fn set_capture_points(&mut self, points: &[liberate_substrate::capture::TapPoint]) {
        self.0.set_capture_points(points)
    }
    fn journal(&self) -> &Arc<Journal> {
        self.0.journal()
    }
    fn set_journal(&mut self, journal: Arc<Journal>) {
        self.0.set_journal(journal)
    }
    fn reclaim_flows(&mut self) {
        self.0.reclaim_flows()
    }
    fn billed_bytes(&mut self) -> Option<u64> {
        self.0.billed_bytes()
    }
    fn verdict_for(&mut self, flow: liberate_packet::flow::FlowKey) -> Option<ClassVerdict> {
        self.0.verdict_for(flow)
    }
    fn mark_step_epoch(&mut self) {
        self.0.mark_step_epoch()
    }
}

/// (e''') A GFC pool at 2 workers over a substrate without lanes — a
/// learn wave, then a steady wave — exports exactly the checked-in
/// merged journal: every blinding probe and every deployed flow runs
/// inline on its worker session.
#[test]
fn laneless_gfc_pool_journal_matches_its_golden() {
    let blueprint = liberate_dpi::profiles::EnvironmentBlueprint::new(EnvKind::Gfc, 0);
    let sessions = (0..2)
        .map(|w| {
            let env = NoLanes(SimSubstrate::from_blueprint(&blueprint, OsKind::Linux));
            Session::worker_over(env, LiberateConfig::default(), w, 2)
        })
        .collect();
    // Port rotation is mandatory against the GFC model.
    let copts = CharacterizeOpts {
        rotate_server_ports: true,
        ..Default::default()
    };
    let mut pool = DeploymentPool::over(SessionPool::from_sessions(sessions), copts);
    let trace = apps::economist_http();
    pool.run_flows(&trace, 2).expect("learn wave");
    let wave = pool.run_flows(&trace, 3).expect("steady wave");
    assert!(wave.all_evaded() && !wave.recharacterized);
    let merged = Arc::new(Journal::new());
    pool.merge_journals_into(&merged);
    common::assert_golden("journals/gfc_pool_inline_2w.jsonl", &to_jsonl(&merged));
}

/// (f) Journal-off lanes share the worker journal rather than staging
/// and splicing: a 2,000-flow GFC wave moves every worker counter
/// exactly as the journal-on path does, at 1 and 4 workers.
#[test]
fn journal_off_lanes_count_what_staged_lanes_count() {
    let trace = apps::economist_http();
    let counters = |workers: usize, enabled: bool| {
        // Port rotation is mandatory against the GFC model.
        let copts = CharacterizeOpts {
            rotate_server_ports: true,
            ..Default::default()
        };
        let config = LiberateConfig::default();
        let mut pool = DeploymentPool::new(EnvKind::Gfc, OsKind::Linux, config, workers, copts);
        for w in 0..workers {
            let journal = Arc::new(Journal::new());
            journal.set_enabled(enabled);
            pool.pool_mut().session_mut(w).attach_journal(journal);
        }
        pool.run_flows(&trace, 1).expect("the pool learns the GFC");
        let wave = pool.run_flows(&trace, 2_000).expect("steady wave");
        assert!(wave.all_evaded() && !wave.recharacterized);
        (0..workers)
            .map(|w| pool.pool_mut().session_mut(w).journal().metrics.snapshot())
            .collect::<Vec<_>>()
    };
    for workers in [1, 4] {
        let off = counters(workers, false);
        let idle = |s: &Vec<(Counter, u64)>| s.contains(&(Counter::ReplaysExecuted, 0));
        assert!(!off.iter().any(idle), "every worker carries flows");
        assert_eq!(off, counters(workers, true), "{workers} workers");
    }
}

/// (g) The snapshot contention property at the API level: 8 reader
/// threads hammering `PublishedState` while a writer publishes 500
/// generations observe only fully-published states — the generation
/// stamp always agrees with the marker baked into the technique it is
/// paired with, and no reader's view ever goes backwards.
#[test]
fn published_state_readers_never_see_torn_generations() {
    const PUBLISHES: u64 = 500;

    // An evasion whose `rounds` field carries the generation it was
    // published under; a torn snapshot would pair generation g with a
    // marker != g.
    let marked = |generation: u64| {
        let technique = Technique::InertLowTtl;
        Arc::new(liberate::deploy::ActiveEvasion {
            technique: liberate::evaluate::TechniqueResult {
                technique: technique.clone(),
                cc: Some(false),
                rs: Reach::No,
                app_intact: true,
                rounds: generation,
                effective: technique,
            },
            ctx: liberate::evasion::EvasionContext::blind(Vec::new(), 2),
            signal: Signal::Readout,
        })
    };

    let published = PublishedState::new();
    std::thread::scope(|scope| {
        for _ in 0..8 {
            let published = published.clone();
            scope.spawn(move || {
                let mut last = 0u64;
                loop {
                    let snap = published.snapshot();
                    match &snap.evasion {
                        None => {
                            assert_eq!(snap.generation, 0, "an empty cell can only be generation 0")
                        }
                        Some(e) => assert_eq!(
                            e.technique.rounds, snap.generation,
                            "torn snapshot: generation paired with a foreign technique"
                        ),
                    }
                    assert!(snap.generation >= last, "generation went backwards");
                    last = snap.generation;
                    if last >= PUBLISHES {
                        break;
                    }
                }
            });
        }
        for g in 1..=PUBLISHES {
            assert_eq!(published.publish(marked(g)), g, "publish stamps are exact");
        }
    });
    assert_eq!(published.generation(), PUBLISHES);
}
