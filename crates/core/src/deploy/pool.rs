//! Pool-backed deployment (§4.4 at scale): many simulated users' live
//! application flows fanned across a [`SessionPool`]'s workers over one
//! shared sharded DPI flow table, with one adaptation loop for all of
//! them.
//!
//! A burned flow does not re-learn inline: N workers may observe the same
//! classifier change in the same wave, and N re-characterizations would
//! multiply the most expensive phase of the pipeline by the worker count.
//! Instead the pool publishes its evasion state once, generation-stamped,
//! behind [`PublishedState`]:
//!
//! - **Workers only read.** Each flow snapshots the published state
//!   (an `Arc` clone — never a torn read), applies the technique, and
//!   reports back the generation it used. A flow whose technique burned
//!   mid-wave degrades onto the configured fallback ladder, in order, so
//!   the user's traffic keeps moving while the pool re-learns.
//! - **The driver only writes, between waves.** After a wave, change
//!   signals reported against the *current* generation trigger exactly one
//!   re-characterization (phase 2 runs level-synchronous across the whole
//!   pool via [`characterize_parallel`]); reports against an older
//!   generation are stale — some earlier wave already paid for the
//!   re-learn — and are ignored, which is how lagging workers self-correct
//!   without coordination.
//!
//! Determinism: workers never write shared deployment state and the
//! driver's writes are serialized between waves, so for a fixed seed and
//! worker count the merged journal is byte-identical run to run (the
//! same contract the engine pins for characterization).

use std::net::Ipv4Addr;
use std::sync::Arc;

use liberate_dpi::profiles::EnvKind;
use liberate_dpi::rules::RuleSet;
use liberate_obs::{Counter, EventKind, Journal, Phase};
use liberate_substrate::Substrate;
use liberate_traces::recorded::RecordedTrace;
use parking_lot::Mutex;

use crate::cache::SharedRuleCache;
use crate::characterize::{Characterization, CharacterizeOpts};
use crate::config::LiberateConfig;
use crate::deploy::{billed_baseline, complete_pipeline, signal_from_detection, ActiveEvasion};
use crate::detect::{detect_rotating, was_classified, Signal};
use crate::engine::{characterize_parallel, SessionPool};
use crate::error::{LiberateError, Result};
use crate::evasion::Technique;
use crate::replay::{LaneAddr, LoweredTrace, ReplayOpts, ReplayOutcome, ReplaySm, Session};
use crate::schedule::Schedule;
use crate::sim::{OsKind, SimSubstrate};
use crate::task::{FlowTask, TaskPoll};

/// The generation-stamped evasion state the pool publishes to its
/// workers. The technique rides in an `Arc`, so a snapshot hands workers
/// a complete, immutable view — there is no moment at which a reader can
/// see generation `g+1` paired with generation `g`'s technique.
#[derive(Debug, Clone, Default)]
pub struct PublishedTechnique {
    /// Monotonic publish count; 0 means nothing published yet.
    pub generation: u64,
    pub evasion: Option<Arc<ActiveEvasion>>,
}

/// The shared cell holding the current [`PublishedTechnique`]. Cloning
/// the handle shares the cell; [`PublishedState::snapshot`] is the only
/// read path and [`PublishedState::publish`] the only write path.
///
/// A snapshot locks, clones (an `Arc` bump and a `u64`) and unlocks; the
/// driver publishes only between waves, so the lock is never held across
/// any flow's work.
#[derive(Debug, Clone, Default)]
pub struct PublishedState {
    inner: Arc<Mutex<PublishedTechnique>>,
}

impl PublishedState {
    pub fn new() -> PublishedState {
        PublishedState::default()
    }

    /// The current generation and technique, as one consistent view.
    pub fn snapshot(&self) -> PublishedTechnique {
        self.inner.lock().clone()
    }

    pub fn generation(&self) -> u64 {
        self.inner.lock().generation
    }

    /// Atomically install `evasion` under the next generation; returns
    /// the new generation stamp.
    // lint: allow(generation-discipline: publish) the single sanctioned
    // writer: the bump and the install happen under the state lock, and
    // every other reader goes through snapshot()/generation().
    pub fn publish(&self, evasion: Arc<ActiveEvasion>) -> u64 {
        let mut state = self.inner.lock();
        state.generation += 1;
        state.evasion = Some(evasion);
        state.generation
    }
}

/// What one user's flow did in one deployment wave.
#[derive(Debug, Clone)]
pub struct PoolFlowReport {
    /// The user (job) index within the wave.
    pub user: usize,
    /// The pool worker whose session carried the flow.
    pub worker: usize,
    /// The published generation this flow read at its start.
    pub generation: u64,
    /// The technique that ultimately carried the flow (the published one,
    /// or the fallback that caught it), if any applied.
    pub technique: Option<Technique>,
    /// The flow escaped classification.
    pub evaded: bool,
    /// The fallback-ladder entry that caught the flow after the published
    /// technique burned.
    pub parked_on_fallback: Option<Technique>,
    /// The published technique failed against the live classifier — the
    /// pool's cue to re-characterize (once) after the wave.
    pub change_signal: bool,
    pub outcome: ReplayOutcome,
}

/// One completed call to [`DeploymentPool::run_flows`].
#[derive(Debug)]
pub struct DeployWave {
    /// Per-user reports, in user order.
    pub reports: Vec<PoolFlowReport>,
    /// Whether this wave's change signals triggered a re-characterization
    /// (at most one, regardless of how many workers reported the change).
    pub recharacterized: bool,
    /// The published generation after the wave (and any re-learn).
    pub generation: u64,
}

impl DeployWave {
    /// Every user's flow escaped classification (possibly via fallback).
    pub fn all_evaded(&self) -> bool {
        self.reports.iter().all(|r| r.evaded)
    }

    /// How many flows reported the published technique burned.
    pub fn change_signals(&self) -> usize {
        self.reports.iter().filter(|r| r.change_signal).count()
    }
}

/// The pool-backed deployment subsystem: live flows from many simulated
/// users fanned across [`SessionPool`] workers, one shared
/// [`SharedRuleCache`], one generation-stamped published technique.
pub struct DeploymentPool<S: Substrate = SimSubstrate> {
    pool: SessionPool<S>,
    copts: CharacterizeOpts,
    fallback: Vec<Technique>,
    published: PublishedState,
    cache: Option<(SharedRuleCache, String)>,
    /// Times the pipeline ran (1 = initial; more = classifier changed).
    pub characterizations: u64,
    /// Characterizations skipped thanks to the shared cache.
    pub cache_hits: u64,
}

impl DeploymentPool<SimSubstrate> {
    /// A pool of `workers` deployment sessions against a fresh
    /// environment of `kind`.
    pub fn new(
        kind: EnvKind,
        os: OsKind,
        config: LiberateConfig,
        workers: usize,
        copts: CharacterizeOpts,
    ) -> DeploymentPool {
        DeploymentPool::over(SessionPool::new(kind, os, config, workers), copts)
    }

    /// Script a classifier change: swap the rule set on every worker's
    /// DPI device (they model one middlebox, so all must agree), and
    /// journal each swap as a `rule_swap` event plus the `rule-swaps`
    /// counter. Flow state is kept, mirroring a real rule push.
    pub fn hot_swap_rules(&mut self, rules: &RuleSet) {
        for w in 0..self.pool.workers() {
            let session = self.pool.session_mut(w);
            // Stamp the swap at the worker's quiesced wave-boundary clock,
            // not at its device's last inspected packet: lane timestamps
            // lag the session clock, and the swap event must land at the
            // same instant whichever driver ran the last wave.
            let now = session.env.clock();
            let Some(dpi) = session.env.dpi_mut() else {
                continue;
            };
            let at = dpi.observe_now(now);
            dpi.hot_swap_rules(rules.clone());
            let device = dpi.config.name.clone();
            let journal = session.journal();
            journal.metrics.incr(Counter::RuleSwaps);
            journal.record(
                at.as_micros(),
                EventKind::RuleSwap {
                    device,
                    rules: rules.rules.len() as u64,
                },
            );
        }
    }
}

impl<S: Substrate> DeploymentPool<S> {
    /// Wrap an existing session pool (e.g. one built from a shared
    /// blueprint).
    pub fn over(pool: SessionPool<S>, copts: CharacterizeOpts) -> DeploymentPool<S> {
        DeploymentPool {
            pool,
            copts,
            fallback: Vec::new(),
            published: PublishedState::new(),
            cache: None,
            characterizations: 0,
            cache_hits: 0,
        }
    }

    /// Techniques to degrade onto, in order, when the published technique
    /// burns mid-wave.
    pub fn with_fallback_ladder(mut self, ladder: Vec<Technique>) -> DeploymentPool<S> {
        self.fallback = ladder;
        self
    }

    /// Attach a live shared rule cache under the given network name.
    pub fn with_shared_cache(mut self, cache: SharedRuleCache, network: &str) -> DeploymentPool<S> {
        self.cache = Some((cache, network.to_string()));
        self
    }

    pub fn workers(&self) -> usize {
        self.pool.workers()
    }

    /// The published-state cell (e.g. for concurrent-read tests or for
    /// wiring external monitors).
    pub fn published(&self) -> &PublishedState {
        &self.published
    }

    pub fn generation(&self) -> u64 {
        self.published.generation()
    }

    /// The currently published technique, if any.
    pub fn active_technique(&self) -> Option<Technique> {
        self.published
            .snapshot()
            .evasion
            .map(|e| e.technique.effective.clone())
    }

    /// Direct access to the underlying pool (tests script classifier
    /// changes through a worker's environment).
    pub fn pool_mut(&mut self) -> &mut SessionPool<S> {
        &mut self.pool
    }

    /// Fold every worker's journal into `journal` (ascending worker
    /// order, deterministic). Call once, after the pool's work is done.
    pub fn merge_journals_into(&self, journal: &Arc<Journal>) {
        self.pool.merge_journals_into(journal);
    }

    /// Drive one wave of live flows: `users` copies of `trace`, user `u`
    /// on worker `u % workers`. Publishes an initial technique first if
    /// none is live yet. After the wave, change signals against the
    /// current generation trigger exactly one re-characterization; the
    /// refreshed technique is published for the next wave.
    pub fn run_flows(&mut self, trace: &RecordedTrace, users: usize) -> Result<DeployWave> {
        if self.published.snapshot().evasion.is_none() {
            self.recharacterize(trace)?;
        }

        // The driver is the only writer and it only writes between waves,
        // so every flow in this wave would snapshot the same state:
        // snapshot once, lower the technique (and fallback ladder) to
        // packet schedules once, and share the compiled wave by
        // reference. Schedule lowering is a pure transformation — the
        // hoist is journal- and RNG-silent.
        let compiled = CompiledWave::lower(trace, self.published.snapshot(), &self.fallback);
        // The reactor interleaves flows on private lanes when the
        // substrate supports lanes. That is only sound when flows cannot
        // observe each other through session-global mutable state: the
        // zero-rating signal reads the billed counter (an RNG-jittered
        // session global), so the inline driver runs it; blocking,
        // throttling, and readout judgments are functions of the lane's
        // own outcome.
        let interleave = compiled
            .evasion
            .as_deref()
            .is_none_or(|e| !matches!(e.signal, Signal::ZeroRating))
            && self.pool.sessions()[0].env.supports_lanes();
        let build = |user: usize, worker: usize, lane: Option<Ipv4Addr>| {
            DeployFlowTask::new(&compiled, user, worker, lane)
        };
        let reports: Vec<PoolFlowReport> = self
            .pool
            .run_flow_wave((0..users).collect(), interleave, &build)
            .into_iter()
            .map(|r| {
                // lint: allow(no-panic) contract: deploy tasks judge
                // and report; a panicking replay is a deployment bug.
                r.expect("deploy flow task completed")
            })
            .collect();

        // Between-wave housekeeping: the wave left one abandoned probe
        // flow per user in the shared table, and nothing ever looks them
        // up again — sweep whatever has gone idle in one batched pass
        // (one lock acquisition per shard) through worker 0, the only
        // actor while the pool is quiescent.
        self.pool.session_mut(0).env.reclaim_flows();

        // Exactly one re-characterization per acknowledged change: every
        // report in this wave read the same generation (the driver is the
        // only writer, and it only writes between waves), so one re-learn
        // covers all of them. A report stamped with an older generation
        // would mean some earlier wave already paid — ignore it and let
        // the worker pick up the newer technique next wave. Monotonic
        // `>=` rather than `==`: if the counter ever advances more than
        // once between a flow's snapshot and this check, an equality test
        // would silently drop the change signal.
        let current = self.published.generation();
        let needs_relearn = reports
            .iter()
            .any(|r| r.change_signal && r.generation >= current);
        let recharacterized = if needs_relearn {
            self.recharacterize(trace)?;
            true
        } else {
            false
        };

        Ok(DeployWave {
            reports,
            recharacterized,
            generation: self.published.generation(),
        })
    }

    /// Fresh shared rules for this trace, if the cache has them and they
    /// verify against the live classifier (worker 0 pays the per-field
    /// verification replays).
    fn shared_rules_for(&mut self, trace: &RecordedTrace) -> Option<Characterization> {
        let (cache, network) = self.cache.clone()?;
        let session = self.pool.session_mut(0);
        let journal = session.journal().clone();
        let t_us = session.env.clock().as_micros();
        let entry = cache.lookup_observed(&network, &trace.app, &journal, t_us)?;
        let signal = entry.signal.to_signal(session, trace);
        let fresh = cache.verify(&network, &trace.app, session, trace, &signal)?;
        if fresh {
            self.cache_hits += 1;
            Some(entry.to_characterization(trace))
        } else {
            None
        }
    }

    /// The single re-characterization wave: detection and the sequential
    /// phases (localization, evaluation) run on worker 0; the blinding
    /// search fans across the whole pool via [`characterize_parallel`].
    /// Ends by atomically publishing the refreshed technique under the
    /// next generation.
    fn recharacterize(&mut self, trace: &RecordedTrace) -> Result<()> {
        let copts = self.copts.clone();
        let rotate_base = copts.rotate_server_ports.then_some(copts.rotate_base);

        // Phase 1: detection, on worker 0.
        let detection = {
            let session = self.pool.session_mut(0);
            detect_rotating(session, trace, rotate_base.map(|b| b.wrapping_add(30_000)))
        };
        if !detection.differentiated {
            return Err(LiberateError::NoDifferentiation);
        }
        let throttle_ratio = self.pool.sessions()[0].config.throttle_ratio;
        let signal = signal_from_detection(&detection, throttle_ratio);

        // Phase 2: consult the shared cache, else the level-synchronous
        // blinding search across every worker.
        let characterization = match self.shared_rules_for(trace) {
            Some(c) => c,
            None => characterize_parallel(&mut self.pool, trace, &signal, &copts),
        };

        // Phases 3–4, on worker 0 — the same code path `run_pipeline`
        // runs, so the adapted technique cannot diverge from it.
        let report = complete_pipeline(
            self.pool.session_mut(0),
            trace,
            &copts,
            detection,
            &signal,
            characterization,
        )?;

        // Publish what we learned for the next user on this network.
        if let Some((cache, network)) = self.cache.as_ref() {
            if let Some(c) = report.characterization.as_ref() {
                if c.rounds > 0 {
                    let learned_at = self.pool.sessions()[0].env.clock().as_micros() / 1_000_000;
                    cache.publish(
                        network,
                        &trace.app,
                        crate::cache::CachedRules::from_characterization_with_signal(
                            c,
                            learned_at,
                            crate::cache::CachedSignal::from_signal(&signal),
                        ),
                    );
                }
            }
        }

        let evasion = ActiveEvasion::from_report(&report, trace, &self.pool.sessions()[0])?;
        let description = evasion.technique.effective.description();
        let generation = self.published.publish(Arc::new(evasion));
        self.characterizations += 1;

        let session = self.pool.session_mut(0);
        let journal = session.journal().clone();
        journal.metrics.incr(Counter::RecharacterizeWaves);
        journal.record(
            session.env.clock().as_micros(),
            EventKind::TechniquePublished {
                generation,
                technique: description,
            },
        );
        Ok(())
    }
}

/// One wave's evasion state lowered to ready-to-replay packet schedules,
/// and the wave's trace lowered once for replay.
///
/// A wave of N flows deploys the *same* published technique against the
/// *same* trace; compiling the schedule (and every fallback rung's) and
/// the trace's response table once per wave instead of once per flow
/// turns lowering from O(N) into O(1) and lets every flow task share the
/// immutable result by reference — every in-flight flow's scripted
/// server reads the one table. `None` entries record rungs whose
/// technique declined the trace shape (`Technique::apply` returned
/// `None`), so flows skip them without re-attempting the lowering.
pub(crate) struct CompiledWave {
    /// The published generation this wave deploys.
    generation: u64,
    evasion: Option<Arc<ActiveEvasion>>,
    /// The published technique's schedule; `None` when the technique no
    /// longer applies to the trace shape (flows degrade to plain).
    main: Option<Arc<Schedule>>,
    /// The fallback ladder, in park order.
    ladder: Vec<(Technique, Option<Arc<Schedule>>)>,
    /// The unmodified trace schedule (the empty-cell and
    /// technique-declined path).
    plain: Arc<Schedule>,
    /// The trace every flow of the wave replays.
    trace: LoweredTrace,
}

impl CompiledWave {
    fn lower(
        trace: &RecordedTrace,
        snapshot: PublishedTechnique,
        fallback: &[Technique],
    ) -> CompiledWave {
        let plain = Arc::new(Schedule::from_trace(trace));
        let (main, ladder) = match snapshot.evasion.as_deref() {
            Some(evasion) => (
                evasion
                    .technique
                    .effective
                    .apply(&plain, &evasion.ctx)
                    .map(Arc::new),
                fallback
                    .iter()
                    .map(|rung| (rung.clone(), rung.apply(&plain, &evasion.ctx).map(Arc::new)))
                    .collect(),
            ),
            None => (None, Vec::new()),
        };
        CompiledWave {
            generation: snapshot.generation,
            evasion: snapshot.evasion,
            main,
            ladder,
            plain,
            trace: LoweredTrace::new(trace),
        }
    }
}

/// One deployed user flow, the only implementation of its sequence:
/// deploy span, published technique, judgment, fallback ladder. A burned
/// technique flags the change and parks the user's traffic on the first
/// ladder rung that still works. Between replays it moves straight to the
/// next rung's schedule, with no rest. Driven on a private lane by the
/// reactor, or inline on the worker session (see
/// [`crate::engine::run_flow_wave`]).
struct DeployFlowTask<'a> {
    compiled: &'a CompiledWave,
    user: usize,
    worker: usize,
    /// The reactor lane's client address; `None` on the inline driver.
    lane: Option<Ipv4Addr>,
    /// The ladder rung being replayed; `None` during the first replay.
    rung: Option<usize>,
    sm: Option<ReplaySm<&'a LoweredTrace, Arc<Schedule>>>,
    billed_before: i64,
    replays: u64,
}

impl<'a> DeployFlowTask<'a> {
    fn new(
        compiled: &'a CompiledWave,
        user: usize,
        worker: usize,
        lane: Option<Ipv4Addr>,
    ) -> DeployFlowTask<'a> {
        DeployFlowTask {
            compiled,
            user,
            worker,
            lane,
            rung: None,
            sm: None,
            billed_before: 0,
            replays: 0,
        }
    }

    /// Stand up the next replay of `schedule`, reading the billed
    /// baseline first when the replay will be judged against `judge`. On
    /// a lane the replay numbering is lane-local (1, 2, …); the reactor's
    /// journal splice rebases it onto the worker's canonical counter.
    fn start_replay<S: Substrate>(
        &mut self,
        session: &mut Session<S>,
        schedule: &Arc<Schedule>,
        judge: Option<&Signal>,
    ) {
        if let Some(signal) = judge {
            self.billed_before = billed_baseline(session, signal);
        }
        self.replays += 1;
        let lane = self.lane.map(|client_addr| LaneAddr {
            client_addr,
            replay_no: self.replays,
        });
        self.sm = Some(ReplaySm::new(
            &self.compiled.trace,
            Arc::clone(schedule),
            ReplayOpts::default(),
            lane,
        ));
    }

    /// Open the deploy span and start the first replay: the published
    /// technique, judged. An empty published cell (`run_flows` publishes
    /// before the first wave, so only a caller driving flows against an
    /// empty cell sees one) and a technique that declined the trace shape
    /// replay the trace plain, unjudged.
    fn start<S: Substrate>(&mut self, session: &mut Session<S>) {
        let journal = session.journal();
        journal.span_start(session.env.clock().as_micros(), Phase::Deploy);
        journal.metrics.incr(Counter::DeployFlows);
        let compiled = self.compiled;
        match (compiled.evasion.as_deref(), &compiled.main) {
            (Some(evasion), Some(schedule)) => {
                self.start_replay(session, schedule, Some(&evasion.signal))
            }
            _ => self.start_replay(session, &compiled.plain, None),
        }
    }

    fn report(
        &self,
        outcome: ReplayOutcome,
        technique: Option<Technique>,
        evaded: bool,
        parked_on_fallback: Option<Technique>,
    ) -> PoolFlowReport {
        PoolFlowReport {
            user: self.user,
            worker: self.worker,
            generation: self.compiled.generation,
            technique,
            evaded,
            parked_on_fallback,
            // Only the published technique escaping is no change.
            change_signal: !(evaded && self.rung.is_none()),
            outcome,
        }
    }

    /// Judge the finished replay and either report or stand up the next
    /// one. `None` means another replay was started (poll it now).
    fn advance<S: Substrate>(
        &mut self,
        session: &mut Session<S>,
        outcome: ReplayOutcome,
    ) -> Option<PoolFlowReport> {
        let compiled = self.compiled;
        let Some(evasion) = compiled.evasion.as_deref() else {
            // Plain traffic and a change signal, so the driver learns a
            // technique for the next wave.
            return Some(self.report(outcome, None, false, None));
        };
        let main = &evasion.technique.effective;
        // A published technique always applied once (evaluation proved
        // it); a flow whose trace shape changed under it replayed plain
        // and counts as classified.
        let classified = (compiled.main.is_none() && self.rung.is_none())
            || was_classified(session, &evasion.signal, &outcome, self.billed_before);
        if !classified {
            let Some(i) = self.rung else {
                return Some(self.report(outcome, Some(main.clone()), true, None));
            };
            let rung = &compiled.ladder[i].0;
            let journal = session.journal();
            journal.metrics.incr(Counter::FallbackParks);
            journal.record(
                session.env.clock().as_micros(),
                EventKind::FallbackEngaged {
                    technique: rung.description(),
                },
            );
            return Some(self.report(outcome, Some(rung.clone()), true, Some(rung.clone())));
        }
        // The classifier caught this replay: try the next ladder rung
        // that lowered.
        let from = self.rung.map_or(0, |i| i + 1);
        for (i, (_, schedule)) in compiled.ladder.iter().enumerate().skip(from) {
            if let Some(schedule) = schedule {
                self.rung = Some(i);
                self.start_replay(session, schedule, Some(&evasion.signal));
                return None;
            }
        }
        Some(self.report(outcome, Some(main.clone()), false, None))
    }
}

impl<'a, S: Substrate> FlowTask<S> for DeployFlowTask<'a> {
    type Output = PoolFlowReport;

    fn poll(&mut self, session: &mut Session<S>) -> TaskPoll<PoolFlowReport> {
        if self.replays == 0 {
            self.start(session);
        }
        loop {
            // lint: allow(no-panic) invariant: poll only runs with a
            // replay standing (started above, or re-armed by advance).
            let sm = self.sm.as_mut().expect("replay standing");
            match sm.poll(session) {
                TaskPoll::Pending(wake) => return TaskPoll::Pending(wake),
                TaskPoll::Done(outcome) => {
                    self.sm = None;
                    if let Some(report) = self.advance(session, outcome) {
                        session
                            .journal()
                            .span_end(session.env.clock().as_micros(), Phase::Deploy);
                        return TaskPoll::Done(report);
                    }
                }
            }
        }
    }

    fn replays_done(&self) -> u64 {
        self.replays
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluate::{Reach, TechniqueResult};
    use crate::evasion::EvasionContext;
    use crate::reactor::lane_addr;
    use crate::task::drive_inline;
    use liberate_traces::apps;
    use rand::Rng;

    /// A published zero-rating technique that no longer lowers: a
    /// TCP-only technique against a UDP trace.
    fn declined_wave(trace: &RecordedTrace) -> CompiledWave {
        let technique = Technique::InertTcpInvalidFlags;
        let evasion = ActiveEvasion {
            technique: TechniqueResult {
                technique: technique.clone(),
                cc: Some(true),
                rs: Reach::No,
                app_intact: true,
                rounds: 1,
                effective: technique,
            },
            ctx: EvasionContext::blind(b"GET / HTTP/1.1\r\n\r\n".to_vec(), 8),
            signal: Signal::ZeroRating,
        };
        let snapshot = PublishedTechnique {
            generation: 1,
            evasion: Some(Arc::new(evasion)),
        };
        let compiled = CompiledWave::lower(trace, snapshot, &[]);
        assert!(compiled.main.is_none(), "the technique declines UDP");
        compiled
    }

    fn assert_plain_report(report: &PoolFlowReport) {
        assert!(report.change_signal && !report.evaded);
        assert_eq!(report.technique, Some(Technique::InertTcpInvalidFlags));
        assert_eq!(report.parked_on_fallback, None);
    }

    /// The flow replays the trace plain and counts as classified without
    /// judging it, so it reads no billed baseline: on either driver the
    /// session RNG (the billed counter's jitter) is left untouched.
    #[test]
    fn declined_technique_replays_plain_without_a_billed_read() {
        let trace = apps::skype_stun(4);
        let compiled = declined_wave(&trace);
        let next_draw = |session: &mut Session| session.rng.gen_range(0..u64::MAX);
        let fresh = || {
            SessionPool::new(
                EnvKind::TMobile,
                OsKind::Linux,
                LiberateConfig::default(),
                1,
            )
        };

        let mut inline = fresh();
        let session = inline.session_mut(0);
        let mut task = DeployFlowTask::new(&compiled, 0, 0, None);
        assert_plain_report(&drive_inline(session, |s| task.poll(s)));
        assert_eq!(session.replays, 1);

        let mut reactor = fresh();
        let task = DeployFlowTask::new(&compiled, 0, 0, Some(lane_addr(0)));
        let report = reactor.run_wave_tasks(vec![task]).pop().flatten();
        assert_plain_report(&report.expect("the task completes"));

        let want = next_draw(fresh().session_mut(0));
        assert_eq!(next_draw(inline.session_mut(0)), want, "inline");
        assert_eq!(next_draw(reactor.session_mut(0)), want, "reactor");
    }
}
