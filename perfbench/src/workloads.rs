//! The three workloads and the measurement loop they share.
//!
//! - **learn**: a user arrives on a new network. One operation builds a
//!   fresh deployment pool and runs its first flow, which pays for
//!   detection, the blinding search, localization and evaluation, for
//!   every network of the rotation in turn.
//! - **deploy**: a pool that has learned its network carries waves of
//!   users' flows with the published technique. One operation is two
//!   waves of 2,000 flows on a freshly learned pool.
//! - **adapt**: the classifier changes under a learned pool. One
//!   operation is the rule swap, the wave in which every flow burns and
//!   the pool re-learns once, and the recovery wave after it.
//!
//! Deploy and adapt start every operation from a fresh pool, built and
//! taught outside the timed section (that preparation is their set-up
//! time): a long-lived pool gets slower wave after wave, so timing waves
//! on one pool would make an operation's cost depend on how many ran
//! before it.

use std::sync::Arc;
use std::time::{Duration, Instant};

use liberate::prelude::{
    DeploymentPool, Engine, LiberateConfig, Session, SessionPool, SimSubstrate, Technique,
};
use liberate_dpi::profiles::EnvironmentBlueprint;
use liberate_dpi::rules::RuleSet;
use liberate_obs::{Counter, Journal};

use crate::alloc::{self, AllocCount};
use crate::clock::{self, Speed};
use crate::inputs::{self, Input, Rng};
use crate::net::{LayerTime, Net, Timed};
use crate::{Metric, Report};

/// Worker sessions per pool. One worker keeps every operation on one
/// thread, so host time splits cleanly across the substrate seam and
/// does not depend on how many cores other processes leave free.
const WORKERS: usize = 1;
/// Set-up passes per learn run; its `setup_s` is their median.
const LEARN_SETUPS: usize = 5;
/// Timed operations per run at least, whatever the time budget.
const MIN_OPS: usize = 5;
/// Users per deployment wave, and waves per deploy operation.
const DEPLOY_USERS: usize = 2_000;
const DEPLOY_WAVES: usize = 2;
/// Users per wave in an adaptation.
const ADAPT_USERS: usize = 8;

pub fn run(workload: &str, seed: u64, budget: Duration, trace: bool) -> Result<Report, String> {
    let run = match (workload, trace) {
        ("learn", false) => learn::<SimSubstrate>(seed, budget),
        ("learn", true) => learn::<Timed>(seed, budget),
        ("deploy", false) => deploy::<SimSubstrate>(seed, budget),
        ("deploy", true) => deploy::<Timed>(seed, budget),
        ("adapt", false) => adapt::<SimSubstrate>(seed, budget),
        ("adapt", true) => adapt::<Timed>(seed, budget),
        _ => {
            return Err(format!(
                "unknown workload {workload:?} (learn, deploy, adapt)"
            ))
        }
    }?;
    Ok(if trace {
        run.per_layer()
    } else {
        run.end_to_end()
    })
}

/// A deployment pool of [`WORKERS`] sessions over `N` for `input`'s
/// network, on the event-driven engine, with event recording off
/// (counters stay live).
fn pool<N: Net>(input: &Input, config: &LiberateConfig) -> DeploymentPool<N> {
    let blueprint = EnvironmentBlueprint::new(input.env, 0);
    let sessions = (0..WORKERS)
        .map(|w| {
            let mut s = Session::worker_over(N::build(&blueprint), config.clone(), w, WORKERS);
            s.attach_journal(Arc::new(Journal::disabled()));
            s
        })
        .collect();
    let sessions = SessionPool::from_sessions(sessions).with_engine(Engine::Reactor);
    DeploymentPool::over(sessions, input.copts.clone())
}

/// Swap the rule set on every worker's middlebox, stamped at the
/// worker's quiesced clock (what `DeploymentPool::hot_swap_rules` does
/// for the bare simulator).
fn hot_swap<N: Net>(pool: &mut DeploymentPool<N>, rules: &RuleSet) {
    for w in 0..pool.workers() {
        let session = pool.pool_mut().session_mut(w);
        let now = liberate_substrate::Substrate::clock(&session.env);
        if let Some(dpi) = session.env.dpi() {
            dpi.observe_now(now);
            dpi.hot_swap_rules(rules.clone());
        }
    }
}

/// Worker-journal counters reported per layer: metric name, unit, counter.
const COUNTERS: [(&str, &str, Counter); 8] = [
    ("packets_injected", "count", Counter::PacketsInjected),
    ("packets_stepped", "count", Counter::PacketsStepped),
    ("dpi_verdicts", "count", Counter::Verdicts),
    ("dpi_flows_created", "count", Counter::FlowsCreated),
    ("dpi_bytes_scanned", "B", Counter::MatcherBytesScanned),
    ("payload_copies", "count", Counter::PayloadCopies),
    ("steps_lowered", "count", Counter::StepsLowered),
    ("techniques_tried", "count", Counter::TechniquesTried),
];

/// Work a pool has done, read from outside: session replay counts, the
/// journals' counters, the reactor's telemetry, and substrate host time.
#[derive(Debug, Clone, Copy, Default)]
struct Tally {
    /// Replays by the sessions' own count.
    replays: u64,
    /// Replays by the journals' `replays-executed` counter.
    replays_counted: u64,
    counters: [u64; COUNTERS.len()],
    reactor_ticks: u64,
    reactor_tasks: u64,
    layer: LayerTime,
}

impl Tally {
    fn of<N: Net>(pool: &mut DeploymentPool<N>) -> Tally {
        let sessions = pool.pool_mut();
        let reactor = &sessions.reactor_telemetry().metrics;
        let mut t = Tally {
            reactor_ticks: reactor.get(Counter::ReactorTicks),
            reactor_tasks: reactor.get(Counter::ReactorTasksAdmitted),
            ..Tally::default()
        };
        for s in sessions.sessions() {
            let metrics = &s.journal().metrics;
            t.replays += s.replays;
            t.replays_counted += metrics.get(Counter::ReplaysExecuted);
            for (slot, (_, _, counter)) in t.counters.iter_mut().zip(COUNTERS) {
                *slot += metrics.get(counter);
            }
            t.layer.add(&s.env.layer_time());
        }
        t
    }

    fn since(&self, earlier: &Tally) -> Tally {
        let mut counters = self.counters;
        for (c, e) in counters.iter_mut().zip(earlier.counters) {
            *c -= e;
        }
        Tally {
            replays: self.replays - earlier.replays,
            replays_counted: self.replays_counted - earlier.replays_counted,
            counters,
            reactor_ticks: self.reactor_ticks - earlier.reactor_ticks,
            reactor_tasks: self.reactor_tasks - earlier.reactor_tasks,
            layer: self.layer.since(&earlier.layer),
        }
    }

    fn add(&mut self, other: &Tally) {
        self.replays += other.replays;
        self.replays_counted += other.replays_counted;
        for (c, o) in self.counters.iter_mut().zip(other.counters) {
            *c += o;
        }
        self.reactor_ticks += other.reactor_ticks;
        self.reactor_tasks += other.reactor_tasks;
        self.layer.add(&other.layer);
    }
}

/// One timed operation.
#[derive(Debug, Default)]
struct Sample {
    /// Host time of the timed section.
    wall: Duration,
    /// Host time of the untimed preparation before it (building and
    /// teaching the pool the operation starts from), if any.
    prep: Option<Duration>,
    /// The calibration run that ended the preparation, if any: it, not
    /// the one before the whole operation, opens the timed section.
    prep_calibration: Option<Duration>,
    work: Tally,
    allocs: AllocCount,
    /// User-level units checked (learned networks, deployed flows,
    /// adaptations) and how many of them failed their check.
    units: u64,
    failed: u64,
}

impl Sample {
    fn record(&mut self, wall: Duration, work: Tally, allocs: AllocCount) {
        self.wall += wall;
        self.work.add(&work);
        self.allocs.allocs += allocs.allocs;
        self.allocs.bytes += allocs.bytes;
    }

    /// Time `f` on `pool`, adding its wall time, work and allocations.
    fn step<N: Net, R>(
        &mut self,
        pool: &mut DeploymentPool<N>,
        f: impl FnOnce(&mut DeploymentPool<N>) -> R,
    ) -> R {
        let before = Tally::of(pool);
        let a0 = AllocCount::now();
        let t0 = Instant::now();
        let out = f(pool);
        let wall = t0.elapsed();
        let allocs = AllocCount::now().since(&a0);
        let work = Tally::of(pool).since(&before);
        self.record(wall, work, allocs);
        out
    }

    /// Count one unit, failed if `check` says so (and say why).
    fn check(&mut self, check: Result<(), String>) {
        self.units += 1;
        if let Err(e) = check {
            eprintln!("check failed: {e}");
            self.failed += 1;
        }
    }

    /// Count `n` units that could not run at all.
    fn lost(&mut self, n: u64, why: &str) {
        eprintln!("check failed: {why}");
        self.units += n;
        self.failed += n;
    }
}

/// A workload run: set-up times and the timed operations, each with the
/// host speed around it.
struct Run {
    /// Set-up passes, in reference-host seconds.
    setups: Vec<f64>,
    /// Per-operation preparations, in reference-host seconds.
    preps: Vec<f64>,
    ops: Vec<(Speed, Sample)>,
    peak_heap: usize,
}

/// Set up `setups` times (keeping the last state), then run operations
/// until `budget` has passed and at least [`MIN_OPS`] have run, with a
/// calibration kernel run between any two of them.
fn drive<S>(
    budget: Duration,
    setups: usize,
    mut setup: impl FnMut() -> Result<S, String>,
    mut op: impl FnMut(&mut S) -> Sample,
) -> Result<Run, String> {
    let mut setup_secs = Vec::new();
    let mut state = None;
    for _ in 0..setups {
        drop(state.take());
        let before = clock::calibrate();
        let t0 = Instant::now();
        state = Some(setup()?);
        let wall = t0.elapsed();
        setup_secs.push(Speed::between(before, clock::calibrate()).secs(wall));
    }
    let mut state = state.ok_or("no set-up ran")?;
    alloc::reset_peak();
    let start = Instant::now();
    let mut ops = Vec::new();
    let mut preps = Vec::new();
    let mut before = clock::calibrate();
    while ops.len() < MIN_OPS || start.elapsed() < budget {
        let sample = op(&mut state);
        let after = clock::calibrate();
        let opened = match (sample.prep, sample.prep_calibration) {
            (Some(prep), Some(ended)) => {
                preps.push(Speed::between(before, ended).secs(prep));
                ended
            }
            _ => before,
        };
        ops.push((Speed::between(opened, after), sample));
        before = after;
    }
    eprintln!(
        "{} operations in {:.2} s",
        ops.len(),
        start.elapsed().as_secs_f64()
    );
    Ok(Run {
        setups: setup_secs,
        preps,
        ops,
        peak_heap: alloc::peak_bytes(),
    })
}

fn median(mut values: Vec<f64>) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

impl Run {
    fn counts(&self) -> (u64, u64) {
        let attempted = self.ops.iter().map(|(_, s)| s.units).sum();
        let failed = self.ops.iter().map(|(_, s)| s.failed).sum();
        (attempted, failed)
    }

    /// Median over operations of `f`.
    fn per_op(&self, f: impl Fn(&Speed, &Sample) -> f64) -> f64 {
        median(self.ops.iter().map(|(v, s)| f(v, s)).collect())
    }

    /// Median over operations of a host time, in reference-host ms.
    fn per_op_ms(&self, f: impl Fn(&Sample) -> Duration) -> f64 {
        self.per_op(|v, s| v.secs(f(s)) * 1e3)
    }

    fn end_to_end(self) -> Report {
        let (attempted, failed) = self.counts();
        // Set-up is the per-operation preparation where there is one, and
        // the set-up passes otherwise.
        let setup = median(if self.preps.is_empty() {
            self.setups.clone()
        } else {
            self.preps.clone()
        });
        let metrics = vec![
            Metric {
                name: "op_ms",
                unit: "ms",
                value: self.per_op_ms(|s| s.wall),
            },
            Metric {
                name: "setup_s",
                unit: "s",
                value: setup,
            },
            Metric {
                name: "peak_heap_mb",
                unit: "MiB",
                value: self.peak_heap as f64 / (1 << 20) as f64,
            },
        ];
        Report {
            attempted,
            failed,
            metrics,
        }
    }

    fn per_layer(self) -> Report {
        let (attempted, mut failed) = self.counts();
        // The two replay counts are independent tallies of one quantity.
        for (_, s) in &self.ops {
            if s.work.replays != s.work.replays_counted {
                eprintln!(
                    "check failed: sessions ran {} replays, journals counted {}",
                    s.work.replays, s.work.replays_counted
                );
                failed += 1;
            }
        }
        let count = |name, f: &dyn Fn(&Sample) -> u64| Metric {
            name,
            unit: "count",
            value: self.per_op(|_, s| f(s) as f64),
        };
        let time = |name, f: &dyn Fn(&Sample) -> Duration| Metric {
            name,
            unit: "ms",
            value: self.per_op_ms(f),
        };
        let mut metrics = vec![
            time("traced_op_ms", &|s| s.wall),
            time("core_ms", &|s| s.wall.saturating_sub(s.work.layer.total())),
            time("sim_run_ms", &|s| s.work.layer.run),
            time("sim_io_ms", &|s| s.work.layer.io),
            time("lane_swap_ms", &|s| s.work.layer.lane),
            count("sim_calls", &|s| s.work.layer.calls),
            count("replays", &|s| s.work.replays),
            count("reactor_ticks", &|s| s.work.reactor_ticks),
            count("reactor_tasks", &|s| s.work.reactor_tasks),
        ];
        for (i, (name, unit, _)) in COUNTERS.iter().enumerate() {
            metrics.push(Metric {
                name,
                unit,
                value: self.per_op(|_, s| s.work.counters[i] as f64),
            });
        }
        metrics.push(count("allocs", &|s| s.allocs.allocs));
        metrics.push(Metric {
            name: "alloc_mb",
            unit: "MiB",
            value: self.per_op(|_, s| s.allocs.bytes as f64 / (1 << 20) as f64),
        });
        Report {
            attempted,
            failed,
            metrics,
        }
    }
}

/// `got` must have succeeded and equal the set-up pass's `want`.
fn same_as<T: PartialEq + std::fmt::Debug>(got: Result<T, String>, want: &T) -> Result<(), String> {
    let got = got?;
    if got == *want {
        Ok(())
    } else {
        Err(format!("got {got:?}, reference {want:?}"))
    }
}

/// What learning one network produced.
#[derive(Debug, Clone, PartialEq)]
struct Learned {
    technique: Technique,
    replays: u64,
}

/// Build a pool for `input` and run its first flow, timing both.
fn learn_one<N: Net>(
    input: &Input,
    config: &LiberateConfig,
    sample: &mut Sample,
) -> Result<Learned, String> {
    let a0 = AllocCount::now();
    let t0 = Instant::now();
    let mut pool = pool::<N>(input, config);
    let wave = pool.run_flows(&input.trace, 1);
    let wall = t0.elapsed();
    let allocs = AllocCount::now().since(&a0);
    let work = Tally::of(&mut pool);
    sample.record(wall, work, allocs);

    let app = &input.trace.app;
    let wave = wave.map_err(|e| format!("{app}: learning failed: {e}"))?;
    if !wave.all_evaded() {
        return Err(format!("{app}: the first flow was classified"));
    }
    if pool.characterizations != 1 {
        return Err(format!(
            "{app}: {} characterizations, expected 1",
            pool.characterizations
        ));
    }
    let technique = pool
        .active_technique()
        .ok_or_else(|| format!("{app}: nothing published"))?;
    Ok(Learned {
        technique,
        replays: work.replays,
    })
}

fn learn<N: Net>(seed: u64, budget: Duration) -> Result<Run, String> {
    struct State {
        inputs: Vec<Input>,
        config: LiberateConfig,
        reference: Vec<Learned>,
    }
    let setup = || {
        let mut rng = Rng::new(seed);
        let config = inputs::config(&mut rng);
        let inputs = inputs::learn_inputs(&mut rng);
        let mut scratch = Sample::default();
        let reference = inputs
            .iter()
            .map(|i| learn_one::<N>(i, &config, &mut scratch))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(State {
            inputs,
            config,
            reference,
        })
    };
    let op = |state: &mut State| {
        let mut sample = Sample::default();
        for (input, want) in state.inputs.iter().zip(&state.reference) {
            let got = learn_one::<N>(input, &state.config, &mut sample);
            sample.check(same_as(got, want));
        }
        sample
    };
    drive(budget, LEARN_SETUPS, setup, op)
}

/// Untimed preparation shared by deploy and adapt: a fresh pool for
/// `input` that has learned its network and published a technique.
fn learned_pool<N: Net>(
    input: &Input,
    config: &LiberateConfig,
    sample: &mut Sample,
) -> Result<DeploymentPool<N>, String> {
    let t0 = Instant::now();
    let mut pool = pool::<N>(input, config);
    let first = pool
        .run_flows(&input.trace, 1)
        .map_err(|e| format!("initial learn failed: {e}"))?;
    if !first.all_evaded() {
        return Err("the first flow was classified".into());
    }
    sample.prep = Some(t0.elapsed());
    sample.prep_calibration = Some(clock::calibrate());
    Ok(pool)
}

/// Learn `input`'s network (untimed), then time [`DEPLOY_WAVES`] steady
/// waves of [`DEPLOY_USERS`] flows, checking every flow.
fn deploy_once<N: Net>(input: &Input, config: &LiberateConfig) -> Sample {
    let mut sample = Sample::default();
    let waves = DEPLOY_WAVES as u64;
    let users = DEPLOY_USERS as u64;
    let mut pool = match learned_pool::<N>(input, config, &mut sample) {
        Ok(pool) => pool,
        Err(e) => {
            sample.lost(waves * users, &e);
            return sample;
        }
    };
    for _ in 0..waves {
        let replays = sample.work.replays;
        let wave = sample.step(&mut pool, |pool| pool.run_flows(&input.trace, DEPLOY_USERS));
        let wave = match wave {
            Ok(wave) => wave,
            Err(e) => {
                sample.lost(users, &format!("wave failed: {e}"));
                continue;
            }
        };
        for r in &wave.reports {
            sample.check(if r.evaded && !r.change_signal {
                Ok(())
            } else {
                Err(format!("user {} was classified", r.user))
            });
        }
        let short = users.saturating_sub(wave.reports.len() as u64);
        if short > 0 {
            sample.lost(short, "flows missing from the wave");
        }
        // A steady wave is exactly one replay per flow and no re-learn.
        let ran = sample.work.replays - replays;
        sample.check(if wave.recharacterized || ran != users {
            Err(format!("{ran} replays for {users} flows"))
        } else {
            Ok(())
        });
    }
    sample
}

fn deploy<N: Net>(seed: u64, budget: Duration) -> Result<Run, String> {
    struct State {
        input: Input,
        config: LiberateConfig,
    }
    let setup = || {
        let mut rng = Rng::new(seed);
        let config = inputs::config(&mut rng);
        let input = inputs::deploy_input(&mut rng);
        // One unrecorded operation, so caches are warm and failures
        // surface before timing starts.
        if deploy_once::<N>(&input, &config).failed > 0 {
            return Err("the reference deployment failed its checks".into());
        }
        Ok(State { input, config })
    };
    drive(budget, 1, setup, |state: &mut State| {
        deploy_once::<N>(&state.input, &state.config)
    })
}

/// What one adaptation produced.
#[derive(Debug, Clone, PartialEq)]
struct Adapted {
    before: Technique,
    after: Technique,
    replays: u64,
}

/// Learn `input`'s network (untimed), then time the classifier change:
/// the rule swap, the wave that burns and re-learns, and the recovery.
fn adapt_once<N: Net>(
    input: &Input,
    config: &LiberateConfig,
    sample: &mut Sample,
) -> Result<Adapted, String> {
    let trace = &input.trace;
    let mut pool = learned_pool::<N>(input, config, sample)?;
    let before = pool.active_technique().ok_or("nothing published")?;
    let rules = {
        let session = pool.pool_mut().session_mut(0);
        let dpi = session.env.dpi().ok_or("no middlebox")?;
        inputs::flipped(&dpi.config.rules)
    };

    let replays_before = sample.work.replays;
    let (flip, recovery) = sample.step(&mut pool, |pool| {
        hot_swap(pool, &rules);
        let flip = pool.run_flows(trace, ADAPT_USERS);
        let recovery = pool.run_flows(trace, ADAPT_USERS);
        (flip, recovery)
    });
    let flip = flip.map_err(|e| format!("flip wave failed: {e}"))?;
    let recovery = recovery.map_err(|e| format!("recovery wave failed: {e}"))?;
    if flip.change_signals() != ADAPT_USERS || !flip.recharacterized {
        return Err(format!(
            "{} of {ADAPT_USERS} flows saw the change, re-learned: {}",
            flip.change_signals(),
            flip.recharacterized
        ));
    }
    if pool.characterizations != 2 {
        return Err(format!(
            "{} characterizations, expected 2",
            pool.characterizations
        ));
    }
    if !recovery.all_evaded() || recovery.recharacterized {
        return Err("the recovery wave did not stream clean".into());
    }
    let after = pool.active_technique().ok_or("nothing published")?;
    if after == before {
        return Err("the re-learned technique is the burned one".into());
    }
    Ok(Adapted {
        before,
        after,
        replays: sample.work.replays - replays_before,
    })
}

fn adapt<N: Net>(seed: u64, budget: Duration) -> Result<Run, String> {
    struct State {
        input: Input,
        config: LiberateConfig,
        reference: Adapted,
    }
    let setup = || {
        let mut rng = Rng::new(seed);
        let config = inputs::config(&mut rng);
        let input = inputs::adapt_input(&mut rng);
        let reference = adapt_once::<N>(&input, &config, &mut Sample::default())?;
        Ok(State {
            input,
            config,
            reference,
        })
    };
    let op = |state: &mut State| {
        let mut sample = Sample::default();
        let got = adapt_once::<N>(&state.input, &state.config, &mut sample);
        sample.check(same_as(got, &state.reference));
        sample
    };
    drive(budget, 1, setup, op)
}
