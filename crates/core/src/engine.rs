//! The multi-session replay engine: a pool of worker [`Session`]s, each
//! with its own deterministically-seeded network, fronting one shared
//! sharded DPI flow table
//! ([`liberate_dpi::sharded::ShardedFlowTable`]).
//!
//! The paper's measurements are embarrassingly parallel at the probe
//! level: on a live path, characterization wall-clock is dominated by the
//! mandatory gap between rounds ([`crate::config::LiberateConfig::round_gap`]),
//! and probes over disjoint flows neither share client state nor — thanks
//! to port striding — contend on classifier flow entries. The blinding
//! search is therefore a **level-synchronous wave search**: every
//! bisection level enqueues its left/right(/middle) probes as independent
//! jobs, workers execute them on pool sessions, and results are merged in
//! canonical order. It is the only characterizer: a bare
//! [`crate::characterize::characterize`] runs it on a one-session slice.
//!
//! Each wave runs its jobs one of two ways, chosen from the job shape,
//! not by the caller. Jobs judged from per-flow state alone (blinding
//! probes under [`Signal::Readout`] / [`Signal::Blocking`], deployed
//! flows under any signal but zero-rating) become [`FlowTask`]s that a
//! [`Reactor`] interleaves on per-flow lanes, provided the substrate
//! [`Substrate::supports_lanes`]. Everything else runs as closures, each
//! worker's bucket job after job.
//!
//! ## Determinism contract
//!
//! For a fixed seed and worker count, every run is bit-identical. Across
//! *worker counts*, the engine executes the **same probe multiset** as
//! the one-worker run — only the execution order and the round-number
//! permutation differ. Probe outcomes under the
//! [`Signal::Readout`] and [`Signal::Blocking`] signals are
//! history-independent (each probe is a fresh flow on a fresh client
//! port; rotated server ports are used at most once, so residual
//! penalties never fire), so:
//!
//! - discovered [`MatchingField`]s are identical for any worker count
//!   (leaves are merged through the canonically-sorting
//!   [`merge_regions`]);
//! - per-probe counter totals ([`liberate_obs::Counter`]) sum to the
//!   one-worker totals.
//!
//! Worker `w` seeds its RNG with `seed + w` and owns the client-port
//! lane `42_000 + w, step workers`, so concurrent probes always hit
//! disjoint [`liberate_packet::flow::FlowKey`]s of the shared table.

use std::ops::Range;
use std::sync::Arc;
use std::time::Duration;

use liberate_dpi::profiles::{EnvKind, EnvironmentBlueprint};
use liberate_obs::{Counter, Hist, Journal, Phase};
use liberate_packet::mutate::{merge_regions, ByteRegion};
use liberate_substrate::time::SimTime;
use liberate_substrate::Substrate;
use liberate_traces::recorded::{RecordedTrace, Sender};

use crate::characterize::{
    blinded_bytes, port_for_round, probe_blinded, probe_position_lowered, Blinding,
    Characterization, CharacterizeOpts, MatchingField,
};
use crate::config::LiberateConfig;
use crate::detect::{read_billed_counter, was_classified, Signal};
use crate::reactor::{lane_addr, Reactor};
use crate::replay::{LaneAddr, LoweredTrace, ReplayOpts, ReplayOutcome, ReplaySm, Session};
use crate::schedule::Schedule;
use crate::sim::{OsKind, SimSubstrate};
use crate::task::{FlowTask, TaskPoll, Wake};

/// The wave-execution engine. There is only one: waves pick tasks or
/// closures from the job shape (see the module docs). The type and
/// [`SessionPool::with_engine`] remain only so existing callers that
/// name them keep compiling.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Engine {
    /// Event-driven: per-flow jobs become [`FlowTask`]s interleaved on
    /// each worker by a [`Reactor`] over per-flow lanes.
    #[default]
    Reactor,
}

/// A pool of worker sessions over one [`EnvironmentBlueprint`]. Every
/// worker owns a full network (and journal); all DPI devices front the
/// blueprint's shared [`liberate_dpi::sharded::ShardedFlowTable`].
/// Generic over the [`Substrate`]; the default is the simulator.
pub struct SessionPool<S: Substrate = SimSubstrate> {
    sessions: Vec<Session<S>>,
    /// The reactor's scheduling telemetry (ticks, queue depth, timer
    /// fires). A separate journal that is never merged into worker
    /// journals, so scheduling cannot perturb the determinism contract.
    /// Event recording stays off; counters are always live.
    reactor_telemetry: Arc<Journal>,
}

impl SessionPool<SimSubstrate> {
    /// Build a pool of `workers` sessions (at least one) against a fresh
    /// blueprint for `kind`.
    pub fn new(kind: EnvKind, os: OsKind, config: LiberateConfig, workers: usize) -> SessionPool {
        let blueprint = EnvironmentBlueprint::new(kind, 0);
        SessionPool::from_blueprint(&blueprint, os, config, workers)
    }

    /// Build a pool over an existing blueprint (e.g. to share its flow
    /// table with sessions created elsewhere).
    pub fn from_blueprint(
        blueprint: &EnvironmentBlueprint,
        os: OsKind,
        config: LiberateConfig,
        workers: usize,
    ) -> SessionPool {
        let n = workers.max(1);
        let sessions = (0..n)
            .map(|w| Session::worker_from_blueprint(blueprint, os, config.clone(), w, n))
            .collect();
        SessionPool::from_sessions(sessions)
    }
}

impl<S: Substrate> SessionPool<S> {
    /// Build a pool from pre-built worker sessions (the generic
    /// counterpart of [`SessionPool::from_blueprint`]; callers construct
    /// each worker via [`Session::worker_over`]). Panics on an empty
    /// vector.
    pub fn from_sessions(sessions: Vec<Session<S>>) -> SessionPool<S> {
        assert!(!sessions.is_empty(), "a pool needs at least one worker");
        SessionPool {
            sessions,
            reactor_telemetry: Arc::new(Journal::disabled()),
        }
    }

    /// Does nothing: there is one engine. Kept for callers that name it.
    pub fn with_engine(self, _engine: Engine) -> SessionPool<S> {
        self
    }

    /// The reactor's scheduling telemetry journal (counter/histogram
    /// totals accumulate across task waves; closure waves add nothing).
    pub fn reactor_telemetry(&self) -> &Arc<Journal> {
        &self.reactor_telemetry
    }

    pub fn workers(&self) -> usize {
        self.sessions.len()
    }

    pub fn sessions(&self) -> &[Session<S>] {
        &self.sessions
    }

    pub fn session_mut(&mut self, worker: usize) -> &mut Session<S> {
        &mut self.sessions[worker]
    }

    /// Fold every worker's journal (events tagged with the worker index,
    /// counters summed) into `journal`, in ascending worker order. Call
    /// once, after the pool's work is done.
    pub fn merge_journals_into(&self, journal: &Arc<Journal>) {
        for (w, s) in self.sessions.iter().enumerate() {
            journal.absorb_worker(w as u32, s.journal());
        }
    }

    /// Execute one wave of jobs on the pool's workers: job `i` on worker
    /// `i % workers`, results in job order.
    pub fn run_wave<T, R, F>(&mut self, jobs: Vec<T>, f: &F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(&mut Session<S>, T) -> R + Sync,
    {
        run_wave(&mut self.sessions, jobs, f)
    }

    /// Execute one wave of [`FlowTask`]s on the pool's workers, each
    /// worker's bucket interleaved on a [`Reactor`]; results in job
    /// order, `None` for a contained task panic.
    pub fn run_wave_tasks<T>(&mut self, tasks: Vec<T>) -> Vec<Option<T::Output>>
    where
        T: FlowTask<S>,
        T::Output: Send,
    {
        run_wave_tasks(&mut self.sessions, tasks, &self.reactor_telemetry)
    }
}

/// Execute one wave of jobs over `sessions`. Job `i` runs on worker
/// `i % workers` (deterministic round-robin); each worker processes its
/// bucket in order on its own OS thread; results come back in job order.
/// A single worker (or a single job) runs inline — no threads, no
/// behavioral difference.
pub(crate) fn run_wave<S, T, R, F>(sessions: &mut [Session<S>], jobs: Vec<T>, f: &F) -> Vec<R>
where
    S: Substrate,
    T: Send,
    R: Send,
    F: Fn(&mut Session<S>, T) -> R + Sync,
{
    let n = sessions.len();
    if n == 1 || jobs.len() <= 1 {
        if jobs.is_empty() {
            return Vec::new();
        }
        let session = &mut sessions[0];
        wave_open(session, jobs.len());
        let out = jobs.into_iter().map(|job| f(session, job)).collect();
        wave_close(session);
        return out;
    }

    let mut buckets: Vec<Vec<(usize, T)>> = (0..n).map(|_| Vec::new()).collect();
    for (i, job) in jobs.into_iter().enumerate() {
        buckets[i % n].push((i, job));
    }

    let mut tagged: Vec<(usize, R)> = Vec::new();
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for (session, bucket) in sessions.iter_mut().zip(buckets) {
            if bucket.is_empty() {
                continue;
            }
            handles.push(scope.spawn(move || {
                wave_open(session, bucket.len());
                let part = bucket
                    .into_iter()
                    .map(|(i, job)| (i, f(session, job)))
                    .collect::<Vec<_>>();
                wave_close(session);
                part
            }));
        }
        for handle in handles {
            match handle.join() {
                Ok(mut part) => tagged.append(&mut part),
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
    });
    tagged.sort_by_key(|(i, _)| *i);
    tagged.into_iter().map(|(_, r)| r).collect()
}

/// Execute one wave of [`FlowTask`]s over `sessions` — the task
/// counterpart of [`run_wave`]. Bucketing (job `i` on worker `i % n`),
/// empty-bucket skipping, and the single-worker shortcut are identical;
/// within each worker the bucket's tasks run interleaved on a
/// [`Reactor`] that records its scheduling into `telemetry`, and every
/// finished lane's staged journal is spliced back in admission order, so
/// per-worker journals are byte-identical to running the same jobs as
/// closures. `None` results mark contained task panics.
pub(crate) fn run_wave_tasks<S, T>(
    sessions: &mut [Session<S>],
    tasks: Vec<T>,
    telemetry: &Journal,
) -> Vec<Option<T::Output>>
where
    S: Substrate,
    T: FlowTask<S>,
    T::Output: Send,
{
    let n = sessions.len();
    if n == 1 || tasks.len() <= 1 {
        if tasks.is_empty() {
            return Vec::new();
        }
        return run_task_bucket(&mut sessions[0], tasks, telemetry);
    }

    let mut buckets: Vec<Vec<(usize, T)>> = (0..n).map(|_| Vec::new()).collect();
    for (i, task) in tasks.into_iter().enumerate() {
        buckets[i % n].push((i, task));
    }

    let mut tagged: Vec<(usize, Option<T::Output>)> = Vec::new();
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for (session, bucket) in sessions.iter_mut().zip(buckets) {
            if bucket.is_empty() {
                continue;
            }
            handles.push(scope.spawn(move || {
                let (ids, tasks): (Vec<usize>, Vec<T>) = bucket.into_iter().unzip();
                let part = run_task_bucket(session, tasks, telemetry);
                ids.into_iter().zip(part).collect::<Vec<_>>()
            }));
        }
        for handle in handles {
            match handle.join() {
                Ok(mut part) => tagged.append(&mut part),
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
    });
    tagged.sort_by_key(|(i, _)| *i);
    tagged.into_iter().map(|(_, r)| r).collect()
}

/// Run one worker's bucket of tasks on a [`Reactor`] and splice the
/// finished lanes back into the worker's journal and timeline.
///
/// Splice accounting: lanes are visited in admission (bucket) order.
/// A successful lane's staged events (a journal-off lane has none to
/// splice) are rebased by `dt_us` — the sum of
/// earlier successful lanes' virtual durations — making the worker
/// journal read as if the bucket had run sequentially; `replay_base`
/// advances by every task's started replays (panicked ones included) so
/// rebased [`liberate_obs::EventKind::ReplayFinished`] ordinals stay
/// consistent with the session's replay counter. The worker clock then
/// advances by the total spliced duration, closing the wave at the same
/// instant the closure path would.
fn run_task_bucket<S: Substrate, T: FlowTask<S>>(
    session: &mut Session<S>,
    tasks: Vec<T>,
    telemetry: &Journal,
) -> Vec<Option<T::Output>> {
    let t0 = session.env.clock();
    let prewave = session.replays;
    wave_open(session, tasks.len());
    let mut reactor = Reactor::new(session, tasks, telemetry);
    reactor.run(session, telemetry);
    let outcome = reactor.into_outcome();
    let journal = session.journal().clone();
    let mut dt_us: u64 = 0;
    let mut replay_base = prewave;
    for (i, lane) in outcome.lanes.iter().enumerate() {
        if outcome.results[i].is_some() {
            journal.splice_staged(&lane.journal, dt_us, replay_base);
            dt_us += (lane.clock - t0).as_micros() as u64;
        }
        replay_base += outcome.replays[i];
    }
    session.env.advance(Duration::from_micros(dt_us));
    wave_close(session);
    outcome.results
}

/// Open a wave span on the worker's own journal and record how many
/// jobs landed in its bucket (the per-wave occupancy distribution the
/// ROADMAP's worker-scaling question needs).
fn wave_open<S: Substrate>(session: &Session<S>, occupancy: usize) {
    let journal = session.journal();
    journal.span_start(session.env.clock().as_micros(), Phase::Wave);
    journal.observe(Hist::WaveOccupancy, occupancy as u64);
}

fn wave_close<S: Substrate>(session: &Session<S>) {
    session
        .journal()
        .span_end(session.env.clock().as_micros(), Phase::Wave);
}

/// A bisection node awaiting its probes in the next wave.
enum Pending {
    /// Bisect over message indices: find the messages whose blinding
    /// stops classification. This keeps round counts logarithmic in trace
    /// length (a multi-megabyte video trace has thousands of messages;
    /// probing each would take thousands of replays).
    SplitAtoms(Vec<usize>),
    /// Bisect a byte range of one message. Precondition: blinding the
    /// whole range stops classification.
    SplitBytes { msg: usize, range: Range<usize> },
    /// The conditional centered-half probe of a `SplitBytes` whose halves
    /// both failed to kill classification.
    Middle {
        msg: usize,
        range: Range<usize>,
        middle: Range<usize>,
    },
}

/// One blinding probe, bound to its trace and pre-assigned round number.
struct ProbeJob {
    trace: usize,
    round: u64,
    blind: Vec<(usize, Range<usize>)>,
}

/// What one probe cost and decided, measured on the worker that ran it.
struct ProbeResult {
    classified: bool,
    bytes_sent: u64,
    bytes_received: u64,
    elapsed: Duration,
}

/// Where a [`ProbeTask`] is between polls.
enum ProbeTaskState {
    /// Nothing has run: the first poll does the probe's bookkeeping
    /// (blinded-bytes counter, billed-counter read) *and* the replay's
    /// Init segment in one go, so every order-sensitive session-global
    /// mutation — the RNG draw, the client-port stride, the ISN bump —
    /// happens in admission order, exactly as the closure path
    /// sequences them.
    Start,
    /// Forwarding polls to the inner [`ReplaySm`].
    Replaying,
    /// Replay judged; sitting out the mandatory round gap.
    Resting,
}

/// One blinding probe as a reactor [`FlowTask`]: replicates
/// [`probe_blinded`]'s exact sequence — blind, counter read, replay,
/// judgment, rest — as a resumable machine over a private lane.
struct ProbeTask<'a> {
    signal: &'a Signal,
    sm: ReplaySm<LoweredTrace, Schedule>,
    blinded_bytes: u64,
    state: ProbeTaskState,
    t0: SimTime,
    billed_before: i64,
    classified: bool,
    outcome: Option<ReplayOutcome>,
    replays: u64,
}

impl<'a> ProbeTask<'a> {
    /// Build the task for `job`, blinding the trace's base replay up
    /// front (a journal-silent, pure rewrite). `job_index` is the
    /// wave-global job number — the lane's unique client address.
    fn new(
        blinding: &Blinding<'_>,
        job: ProbeJob,
        job_index: usize,
        signal: &'a Signal,
        opts: &CharacterizeOpts,
    ) -> ProbeTask<'a> {
        let (trace, schedule) = blinding.blinded(&job.blind);
        let replay_opts = ReplayOpts {
            server_port: port_for_round(opts, job.round),
            ..Default::default()
        };
        let lane = LaneAddr {
            client_addr: lane_addr(job_index),
            replay_no: 1,
        };
        ProbeTask {
            signal,
            sm: ReplaySm::new(trace, schedule, replay_opts, Some(lane)),
            blinded_bytes: blinded_bytes(&job.blind),
            state: ProbeTaskState::Start,
            t0: SimTime::ZERO,
            billed_before: 0,
            classified: false,
            outcome: None,
            replays: 0,
        }
    }

    fn step_sm<S: Substrate>(&mut self, session: &mut Session<S>) -> TaskPoll<ProbeResult> {
        match self.sm.poll(session) {
            TaskPoll::Done(outcome) => {
                self.classified =
                    was_classified(session, self.signal, &outcome, self.billed_before);
                self.outcome = Some(outcome);
                self.state = ProbeTaskState::Resting;
                TaskPoll::Pending(Wake::Timer(session.config.round_gap))
            }
            TaskPoll::Pending(wake) => TaskPoll::Pending(wake),
        }
    }
}

impl<'a, S: Substrate> FlowTask<S> for ProbeTask<'a> {
    type Output = ProbeResult;

    fn poll(&mut self, session: &mut Session<S>) -> TaskPoll<ProbeResult> {
        match self.state {
            ProbeTaskState::Start => {
                self.t0 = session.env.clock();
                if self.blinded_bytes > 0 {
                    session
                        .env
                        .journal()
                        .metrics
                        .add(Counter::BytesBlinded, self.blinded_bytes);
                }
                self.billed_before = read_billed_counter(session);
                self.replays = 1;
                self.state = ProbeTaskState::Replaying;
                self.step_sm(session)
            }
            ProbeTaskState::Replaying => self.step_sm(session),
            ProbeTaskState::Resting => {
                // lint: allow(no-panic) invariant: set before Resting
                let outcome = self.outcome.take().expect("outcome recorded before rest");
                TaskPoll::Done(ProbeResult {
                    classified: self.classified,
                    bytes_sent: outcome.bytes_sent,
                    bytes_received: outcome.server_payload_bytes,
                    elapsed: session.env.clock() - self.t0,
                })
            }
        }
    }

    fn replays_done(&self) -> u64 {
        self.replays
    }
}

/// Per-trace search state, accumulated across waves.
#[derive(Default)]
struct TraceState {
    /// Blinding rounds consumed (also the next round id to assign).
    rounds: u64,
    pending: Vec<Pending>,
    /// Located single-range leaves, `(message, byte range)`.
    leaves: Vec<(usize, Range<usize>)>,
    fields: Vec<MatchingField>,
    bytes_sent: u64,
    bytes_received: u64,
    elapsed: Duration,
}

impl TraceState {
    fn absorb_cost(&mut self, r: &ProbeResult) {
        self.bytes_sent += r.bytes_sent;
        self.bytes_received += r.bytes_received;
        self.elapsed += r.elapsed;
    }

    fn take_round(&mut self) -> u64 {
        let round = self.rounds;
        self.rounds += 1;
        round
    }

    /// Normalize-and-enqueue for message-index nodes: empty ranges vanish,
    /// single messages fall through to the byte search.
    fn push_atoms(&mut self, trace: &RecordedTrace, atoms: Vec<usize>) {
        match atoms.len() {
            0 => {}
            1 => {
                let i = atoms[0];
                self.push_bytes(i, 0..trace.messages[i].payload.len());
            }
            _ => self.pending.push(Pending::SplitAtoms(atoms)),
        }
    }

    /// Normalize-and-enqueue for byte-range nodes: ranges at bisection
    /// granularity become leaves without probing.
    fn push_bytes(&mut self, msg: usize, range: Range<usize>) {
        if range.len() <= 1 {
            self.leaves.push((msg, range));
        } else {
            self.pending.push(Pending::SplitBytes { msg, range });
        }
    }
}

fn blind_all(atoms: &[usize], trace: &RecordedTrace) -> Vec<(usize, Range<usize>)> {
    atoms
        .iter()
        .map(|&i| (i, 0..trace.messages[i].payload.len()))
        .collect()
}

/// [`crate::characterize::characterize`] for a batch of traces, fanned
/// out over the pool. Several traces share each wave, which is what
/// actually fills the pool (individual bisection levels are narrow).
pub fn characterize_many<S: Substrate>(
    pool: &mut SessionPool<S>,
    traces: &[RecordedTrace],
    signal: &Signal,
    opts: &CharacterizeOpts,
) -> Vec<Characterization> {
    wave_search(
        &mut pool.sessions,
        &pool.reactor_telemetry,
        traces,
        signal,
        opts,
    )
}

/// [`characterize_many`] for a single trace.
pub fn characterize_parallel<S: Substrate>(
    pool: &mut SessionPool<S>,
    trace: &RecordedTrace,
    signal: &Signal,
    opts: &CharacterizeOpts,
) -> Characterization {
    characterize_one(
        &mut pool.sessions,
        &pool.reactor_telemetry,
        trace,
        signal,
        opts,
    )
}

/// The wave search for one trace over `sessions`, with reactor
/// scheduling recorded into `telemetry`.
pub(crate) fn characterize_one<S: Substrate>(
    sessions: &mut [Session<S>],
    telemetry: &Journal,
    trace: &RecordedTrace,
    signal: &Signal,
    opts: &CharacterizeOpts,
) -> Characterization {
    let mut out = wave_search(
        sessions,
        telemetry,
        std::slice::from_ref(trace),
        signal,
        opts,
    );
    // lint: allow(no-panic) contract: one characterization per trace in
    out.pop().expect("one trace in, one characterization out")
}

/// The level-synchronous blinding search plus one position ladder per
/// trace, over the worker `sessions` (one session is a bare
/// characterization).
fn wave_search<S: Substrate>(
    sessions: &mut [Session<S>],
    telemetry: &Journal,
    traces: &[RecordedTrace],
    signal: &Signal,
    opts: &CharacterizeOpts,
) -> Vec<Characterization> {
    // Each trace is lowered once; every probe and position rung below
    // replays a rewrite of its base.
    let blindings: Vec<Blinding<'_>> = traces.iter().map(Blinding::new).collect();
    let exec = |session: &mut Session<S>, job: ProbeJob| -> ProbeResult {
        let bytes0 = session.bytes_sent_total;
        let recv0 = session.bytes_received_total;
        let t0 = session.env.clock();
        let classified = probe_blinded(
            session,
            &blindings[job.trace],
            signal,
            opts,
            &job.blind,
            job.round,
        );
        ProbeResult {
            classified,
            bytes_sent: session.bytes_sent_total - bytes0,
            bytes_received: session.bytes_received_total - recv0,
            elapsed: session.env.clock() - t0,
        }
    };

    // Blinding probes run as tasks on per-flow lanes when the substrate
    // supports lane swaps and the signal is judged from per-flow state
    // alone (Readout, Blocking). Throttling and ZeroRating compare
    // against shared counters whose readings are order-sensitive, so
    // they run as closure waves.
    let use_tasks =
        matches!(signal, Signal::Readout | Signal::Blocking) && sessions[0].env.supports_lanes();
    let run_probe_wave = |sessions: &mut [Session<S>], jobs: Vec<ProbeJob>| -> Vec<ProbeResult> {
        if use_tasks {
            let tasks: Vec<ProbeTask<'_>> = jobs
                .into_iter()
                .enumerate()
                .map(|(i, job)| ProbeTask::new(&blindings[job.trace], job, i, signal, opts))
                .collect();
            run_wave_tasks(sessions, tasks, telemetry)
                .into_iter()
                // lint: allow(no-panic) contract: a panicking replay is a
                // characterization bug; surfacing it beats a silent skip.
                .map(|r| r.expect("probe replays do not panic"))
                .collect()
        } else {
            run_wave(sessions, jobs, &exec)
        }
    };

    let mut states: Vec<TraceState> = traces.iter().map(|_| TraceState::default()).collect();

    for s in sessions.iter() {
        s.journal()
            .span_start(s.env.clock().as_micros(), Phase::BlindSearch);
    }

    // Wave A — sanity: each unmodified trace must classify.
    let boot_jobs: Vec<ProbeJob> = (0..traces.len())
        .map(|t| ProbeJob {
            trace: t,
            round: states[t].take_round(),
            blind: Vec::new(),
        })
        .collect();
    let boot = run_probe_wave(sessions, boot_jobs);
    let survivors: Vec<usize> = boot
        .iter()
        .enumerate()
        .map(|(t, r)| {
            states[t].absorb_cost(r);
            (t, r.classified)
        })
        .filter(|&(_, classified)| classified)
        .map(|(t, _)| t)
        .collect();

    // Wave B — bisection invariant: blinding the whole searchable space
    // must stop classification.
    let atoms_of: Vec<Vec<usize>> = traces
        .iter()
        .map(|trace| {
            trace
                .messages
                .iter()
                .enumerate()
                .filter(|(_, m)| {
                    !m.payload.is_empty()
                        && (m.sender == Sender::Client || opts.search_server_direction)
                })
                .map(|(i, _)| i)
                .collect()
        })
        .collect();
    let everything_jobs: Vec<ProbeJob> = survivors
        .iter()
        .map(|&t| ProbeJob {
            trace: t,
            round: states[t].take_round(),
            blind: blind_all(&atoms_of[t], &traces[t]),
        })
        .collect();
    let everything = run_probe_wave(sessions, everything_jobs);
    for (&t, r) in survivors.iter().zip(&everything) {
        states[t].absorb_cost(r);
        if !r.classified {
            let atoms = atoms_of[t].clone();
            states[t].push_atoms(&traces[t], atoms);
        }
    }

    // Wave loop: one bisection level per wave. Jobs are enumerated in
    // canonical order — trace ascending, node order, left before right —
    // and round ids are assigned per trace at enumeration time, so the
    // schedule is independent of how jobs later map onto workers.
    loop {
        struct WaveItem {
            trace: usize,
            pending: Pending,
            jobs: Range<usize>,
        }
        let mut items: Vec<WaveItem> = Vec::new();
        let mut jobs: Vec<ProbeJob> = Vec::new();
        for t in 0..traces.len() {
            for pending in std::mem::take(&mut states[t].pending) {
                let start = jobs.len();
                match &pending {
                    Pending::SplitAtoms(atoms) => {
                        let mid = atoms.len() / 2;
                        let (left, right) = atoms.split_at(mid);
                        for half in [left, right] {
                            jobs.push(ProbeJob {
                                trace: t,
                                round: states[t].take_round(),
                                blind: blind_all(half, &traces[t]),
                            });
                        }
                    }
                    Pending::SplitBytes { msg, range } => {
                        let mid = range.start + range.len() / 2;
                        for half in [range.start..mid, mid..range.end] {
                            jobs.push(ProbeJob {
                                trace: t,
                                round: states[t].take_round(),
                                blind: vec![(*msg, half)],
                            });
                        }
                    }
                    Pending::Middle { msg, middle, .. } => {
                        jobs.push(ProbeJob {
                            trace: t,
                            round: states[t].take_round(),
                            blind: vec![(*msg, middle.clone())],
                        });
                    }
                }
                items.push(WaveItem {
                    trace: t,
                    pending,
                    jobs: start..jobs.len(),
                });
            }
        }
        if jobs.is_empty() {
            break;
        }
        let job_trace: Vec<usize> = jobs.iter().map(|j| j.trace).collect();
        let results = run_probe_wave(sessions, jobs);
        for (idx, r) in results.iter().enumerate() {
            states[job_trace[idx]].absorb_cost(r);
        }

        // Expand each node.
        for item in items {
            let t = item.trace;
            let kills: Vec<bool> = item.jobs.clone().map(|i| !results[i].classified).collect();
            match item.pending {
                Pending::SplitAtoms(atoms) => {
                    let mid = atoms.len() / 2;
                    let (left, right) = atoms.split_at(mid);
                    let (lk, rk) = (kills[0], kills[1]);
                    if lk {
                        states[t].push_atoms(&traces[t], left.to_vec());
                    }
                    if rk {
                        states[t].push_atoms(&traces[t], right.to_vec());
                    }
                    if !lk && !rk {
                        // Conjunctive fields split across the halves:
                        // recurse into both without further probes.
                        states[t].push_atoms(&traces[t], left.to_vec());
                        states[t].push_atoms(&traces[t], right.to_vec());
                    }
                }
                Pending::SplitBytes { msg, range } => {
                    let mid = range.start + range.len() / 2;
                    let (lk, rk) = (kills[0], kills[1]);
                    if lk {
                        states[t].push_bytes(msg, range.start..mid);
                    }
                    if rk {
                        states[t].push_bytes(msg, mid..range.end);
                    }
                    if !lk && !rk {
                        // The field straddles the midpoint: try the
                        // centered half, if it is strictly smaller.
                        let quarter = range.len() / 4;
                        let middle = (range.start + quarter)
                            ..(range.end - quarter).max(range.start + quarter + 1);
                        if middle.len() < range.len() {
                            states[t]
                                .pending
                                .push(Pending::Middle { msg, range, middle });
                        } else {
                            states[t].leaves.push((msg, range));
                        }
                    }
                }
                Pending::Middle { msg, range, middle } => {
                    if kills[0] {
                        states[t].push_bytes(msg, middle);
                    } else {
                        // Give up at this granularity: the whole range is
                        // the field.
                        states[t].leaves.push((msg, range));
                    }
                }
            }
        }
    }

    for s in sessions.iter() {
        s.journal()
            .span_end(s.env.clock().as_micros(), Phase::BlindSearch);
    }

    // Leaves → canonical fields: per message ascending, ranges merged by
    // the sorting `merge_regions`, so the output is independent of the
    // order waves discovered them in.
    for (t, state) in states.iter_mut().enumerate() {
        let mut msgs: Vec<usize> = state.leaves.iter().map(|&(m, _)| m).collect();
        msgs.sort_unstable();
        msgs.dedup();
        for m in msgs {
            let regions: Vec<ByteRegion> = state
                .leaves
                .iter()
                .filter(|&&(mm, _)| mm == m)
                .map(|(_, r)| ByteRegion::new(m, r.clone()))
                .collect();
            let msg = &traces[t].messages[m];
            for region in merge_regions(regions) {
                state.fields.push(MatchingField {
                    message: m,
                    sender: msg.sender,
                    range: region.range.clone(),
                    bytes: msg.payload[region.range.clone()].to_vec(),
                });
            }
        }
    }

    // Position phase: one prepend ladder per trace, each a single
    // sequential job (the ladder is inherently serial), traces fanned
    // across workers.
    let pos_exec = |session: &mut Session<S>, t: usize| {
        let bytes0 = session.bytes_sent_total;
        let recv0 = session.bytes_received_total;
        let t0 = session.env.clock();
        let (trace, schedule) = blindings[t].base();
        let (profile, rounds) = probe_position_lowered(session, trace, schedule, signal, opts);
        (
            profile,
            rounds,
            session.bytes_sent_total - bytes0,
            session.bytes_received_total - recv0,
            session.env.clock() - t0,
        )
    };
    let ladders = run_wave(sessions, (0..traces.len()).collect(), &pos_exec);

    // One blind-rounds sample per trace (§6.1 reports the worst case; the
    // histogram shows where typical searches land). Worker 0's journal
    // keeps the merged histogram invariant across worker counts.
    for state in &states {
        sessions[0]
            .journal()
            .observe(Hist::BlindRounds, state.rounds);
    }

    states
        .into_iter()
        .zip(ladders)
        .map(
            |(state, (position, ladder_rounds, bytes_sent, bytes_received, elapsed))| {
                Characterization {
                    fields: state.fields,
                    position,
                    rounds: state.rounds + ladder_rounds,
                    bytes_sent: state.bytes_sent + bytes_sent,
                    bytes_received: state.bytes_received + bytes_received,
                    elapsed: state.elapsed + elapsed,
                }
            },
        )
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::characterize::characterize;
    use liberate_obs::Counter;
    use liberate_traces::apps;

    fn pool(workers: usize) -> SessionPool {
        SessionPool::new(
            EnvKind::Testbed,
            OsKind::Linux,
            LiberateConfig::default(),
            workers,
        )
    }

    #[test]
    fn run_wave_returns_results_in_job_order() {
        let mut p = pool(3);
        let jobs: Vec<usize> = (0..10).collect();
        let out = p.run_wave(jobs, &|_s, i| i * 2);
        assert_eq!(out, (0..10).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn pooled_stun_characterization_matches_bare_session() {
        let trace = apps::skype_stun(4);
        let opts = CharacterizeOpts::default();

        let mut solo = Session::new(EnvKind::Testbed, OsKind::Linux, LiberateConfig::default());
        let seq = characterize(&mut solo, &trace, &Signal::Readout, &opts);

        for workers in [1usize, 2] {
            let mut p = pool(workers);
            let par = characterize_parallel(&mut p, &trace, &Signal::Readout, &opts);
            assert_eq!(par.fields, seq.fields, "workers={workers}");
            assert_eq!(par.rounds, seq.rounds, "workers={workers}");
            assert_eq!(par.position, seq.position, "workers={workers}");
            assert_eq!(par.bytes_sent, seq.bytes_sent, "workers={workers}");
        }
    }

    #[test]
    fn merged_journal_accounts_every_replay() {
        let trace = apps::skype_stun(4);
        let mut p = pool(2);
        let c = characterize_parallel(
            &mut p,
            &trace,
            &Signal::Readout,
            &CharacterizeOpts::default(),
        );

        let merged = Arc::new(Journal::new());
        p.merge_journals_into(&merged);
        assert_eq!(merged.metrics.get(Counter::ReplaysExecuted), c.rounds);
        // Every absorbed event carries its worker tag.
        assert!(merged.events().iter().all(|e| e.worker.is_some()));
    }

    #[test]
    fn pool_workers_share_one_flow_table() {
        let blueprint = EnvironmentBlueprint::new(EnvKind::Testbed, 0);
        let mut p =
            SessionPool::from_blueprint(&blueprint, OsKind::Linux, LiberateConfig::default(), 3);
        assert_eq!(p.workers(), 3);
        let shared = blueprint.shared_table();
        for w in 0..p.workers() {
            let table = p
                .session_mut(w)
                .env
                .dpi_mut()
                .expect("testbed has a DPI device")
                .shared_table();
            assert!(Arc::ptr_eq(&shared, &table), "worker {w}");
        }
    }
}
