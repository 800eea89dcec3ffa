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
//! Every wave runs [`FlowTask`]s; there are no closure waves. A job is
//! written once, as a task: a blinding probe (`ProbeTask`) or a
//! position ladder (`LadderTask`) here, a deployed user flow in
//! [`crate::deploy`]. One fan-out puts job `i` on worker `i % workers`
//! (every job on worker 0 when the pool or the wave has one member), and
//! each wave picks one of two drivers for its tasks from observable
//! facts, not from the caller:
//!
//! - the **reactor** ([`Reactor`]) interleaves each worker's bucket on
//!   per-flow lanes. It drives jobs judged from their own flow alone
//!   (blinding probes under [`Signal::Readout`] / [`Signal::Blocking`],
//!   deployed flows under any signal but zero-rating), provided the
//!   substrate [`Substrate::supports_lanes`];
//! - the **inline driver** (`task::drive_inline`) builds each
//!   task just before it runs and polls it to completion on the worker
//!   session, job after job. Throttling and zero-rating judgments read
//!   shared state whose readings depend on order, and each ladder rung
//!   draws its prefix from the session RNG, so they run here, as does
//!   every wave over a substrate without lanes.
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

use std::net::Ipv4Addr;
use std::ops::Range;
use std::sync::Arc;
use std::time::Duration;

use liberate_dpi::profiles::{EnvKind, EnvironmentBlueprint};
use liberate_obs::{Hist, Journal, Phase};
use liberate_packet::mutate::{merge_regions, ByteRegion};
use liberate_substrate::Substrate;
use liberate_traces::recorded::{RecordedTrace, Sender};

use crate::characterize::{
    blinded_bytes, port_for_round, Blinding, Characterization, CharacterizeOpts, LadderTask,
    MatchingField,
};
use crate::config::LiberateConfig;
use crate::detect::{ProbeResult, ProbeTask, Signal};
use crate::reactor::{lane_addr, Reactor};
use crate::replay::{ReplayOpts, Session};
use crate::sim::{OsKind, SimSubstrate};
use crate::task::{drive_inline, FlowTask};

/// The wave-execution engine. There is only one: each wave picks the
/// reactor or the inline driver for its tasks (see the module docs). The
/// type and [`SessionPool::with_engine`] remain only so existing callers
/// that name them keep compiling.
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
    /// totals accumulate across reactor waves; inline waves add nothing).
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

    /// The worker sessions and the reactor telemetry journal, borrowed
    /// together for a job that runs over the whole pool.
    pub(crate) fn sessions_and_telemetry(&mut self) -> (&mut [Session<S>], &Journal) {
        (&mut self.sessions, &self.reactor_telemetry)
    }

    /// Fold every worker's journal (events tagged with the worker index,
    /// counters summed) into `journal`, in ascending worker order. Call
    /// once, after the pool's work is done.
    pub fn merge_journals_into(&self, journal: &Arc<Journal>) {
        for (w, s) in self.sessions.iter().enumerate() {
            journal.absorb_worker(w as u32, s.journal());
        }
    }

    /// Execute one wave of [`FlowTask`]s on the pool's workers, each
    /// worker's bucket interleaved on a [`Reactor`]; results in job
    /// order, `None` for a contained task panic.
    pub fn run_wave_tasks<T>(&mut self, tasks: Vec<T>) -> Vec<Option<T::Output>>
    where
        T: FlowTask<S>,
    {
        self.run_flow_wave(tasks, true, &|task, _, _| task)
    }

    /// Execute one wave of flow jobs on the pool's workers (see
    /// [`run_flow_wave`]).
    pub(crate) fn run_flow_wave<J, T, B>(
        &mut self,
        jobs: Vec<J>,
        interleave: bool,
        build: &B,
    ) -> Vec<Option<T::Output>>
    where
        J: Send,
        T: FlowTask<S>,
        B: Fn(J, usize, Option<Ipv4Addr>) -> T + Sync,
    {
        run_flow_wave(
            &mut self.sessions,
            &self.reactor_telemetry,
            jobs,
            interleave,
            build,
        )
    }
}

/// Execute one wave of flow jobs over `sessions`. Job `i` goes to
/// worker `i % workers` (deterministic round-robin), or every job to
/// worker 0 when the pool or the wave has one member, which then runs on
/// the calling thread. Otherwise each non-empty bucket runs on its own
/// OS thread, inside a wave span. Each job is written once, as the
/// [`FlowTask`] that `build(job, worker, lane)` makes, and `interleave`
/// picks its driver:
///
/// - `true`: each worker's bucket is built up front and interleaved on a
///   [`Reactor`] that records its scheduling into `telemetry`; job `i`
///   replays from lane address [`lane_addr`]`(i)`. A contained task
///   panic yields `None`.
/// - `false`: the inline driver builds each task just before it runs and
///   polls it to completion on the worker session
///   ([`crate::task::drive_inline`]), so no more tasks are live than one
///   per worker. `lane` is `None`: the replays use the session's client
///   address and replay numbering. A panic propagates.
///
/// Results come back in job order.
pub(crate) fn run_flow_wave<S, J, T, B>(
    sessions: &mut [Session<S>],
    telemetry: &Journal,
    jobs: Vec<J>,
    interleave: bool,
    build: &B,
) -> Vec<Option<T::Output>>
where
    S: Substrate,
    J: Send,
    T: FlowTask<S>,
    B: Fn(J, usize, Option<Ipv4Addr>) -> T + Sync,
{
    let total = jobs.len();
    let n = if total <= 1 { 1 } else { sessions.len() };
    let run_bucket = |session: &mut Session<S>, worker: usize, bucket: Vec<J>| {
        wave_open(session, bucket.len());
        let part = if interleave {
            let tasks = bucket
                .into_iter()
                .zip((worker..total).step_by(n))
                .map(|(job, i)| build(job, worker, Some(lane_addr(i))))
                .collect();
            run_task_bucket(session, tasks, telemetry)
        } else {
            bucket
                .into_iter()
                .map(|job| {
                    let mut task = build(job, worker, None);
                    Some(drive_inline(session, |session| task.poll(session)))
                })
                .collect()
        };
        wave_close(session);
        part
    };
    if n == 1 {
        if total == 0 {
            return Vec::new();
        }
        return run_bucket(&mut sessions[0], 0, jobs);
    }

    let mut buckets: Vec<Vec<J>> = (0..n)
        .map(|_| Vec::with_capacity(total.div_ceil(n)))
        .collect();
    for (i, job) in jobs.into_iter().enumerate() {
        buckets[i % n].push(job);
    }
    let mut parts: Vec<std::vec::IntoIter<Option<T::Output>>> = Vec::with_capacity(n);
    std::thread::scope(|scope| {
        let handles: Vec<_> = sessions
            .iter_mut()
            .zip(buckets)
            .enumerate()
            .filter(|(_, (_, bucket))| !bucket.is_empty())
            .map(|(w, (session, bucket))| scope.spawn(move || run_bucket(session, w, bucket)))
            .collect();
        for handle in handles {
            match handle.join() {
                Ok(part) => parts.push(part.into_iter()),
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
    });
    // Bucket `w` holds jobs `w, w + n, …`, and only trailing buckets can
    // be empty, so job `i` is the next result of part `i % n`.
    (0..total)
        .map(|i| {
            // lint: allow(no-panic) invariant: one result per bucketed job
            parts[i % n].next().expect("one result per job")
        })
        .collect()
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
/// instant the inline driver would.
fn run_task_bucket<S: Substrate, T: FlowTask<S>>(
    session: &mut Session<S>,
    tasks: Vec<T>,
    telemetry: &Journal,
) -> Vec<Option<T::Output>> {
    let t0 = session.env.clock();
    let prewave = session.replays;
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
        self.bytes_sent += r.outcome.bytes_sent;
        self.bytes_received += r.outcome.server_payload_bytes;
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
    // A probe's round number only feeds `port_for_round`, so any
    // execution order that assigns the same round numbers produces the
    // same replays.
    let build = |job: ProbeJob, _worker: usize, lane: Option<Ipv4Addr>| {
        let (trace, schedule) = blindings[job.trace].blinded(&job.blind);
        let replay_opts = ReplayOpts {
            server_port: port_for_round(opts, job.round),
            ..Default::default()
        };
        ProbeTask::new(
            trace,
            schedule,
            replay_opts,
            lane,
            signal,
            blinded_bytes(&job.blind),
        )
    };

    // The reactor interleaves probes on per-flow lanes when the substrate
    // supports lane swaps and the signal is judged from per-flow state
    // alone (Readout, Blocking). Throttling and ZeroRating compare
    // against shared state whose readings are order-sensitive, so the
    // inline driver runs them.
    let interleave =
        matches!(signal, Signal::Readout | Signal::Blocking) && sessions[0].env.supports_lanes();
    let run_probe_wave = |sessions: &mut [Session<S>], jobs: Vec<ProbeJob>| -> Vec<ProbeResult> {
        run_flow_wave(sessions, telemetry, jobs, interleave, &build)
            .into_iter()
            // lint: allow(no-panic) contract: a panicking replay is a
            // characterization bug; surfacing it beats a silent skip.
            .map(|r| r.expect("probe replays do not panic"))
            .collect()
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

    // Position phase: one prepend ladder per trace, traces fanned across
    // workers. A ladder is serial and draws its prefixes from the session
    // RNG, so ladders run on the inline driver.
    let ladder = |t: usize, _worker: usize, _lane: Option<Ipv4Addr>| {
        let (trace, schedule) = blindings[t].base();
        LadderTask::new(trace, schedule, signal, opts)
    };
    let ladders = run_flow_wave(
        sessions,
        telemetry,
        (0..traces.len()).collect(),
        false,
        &ladder,
    );

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
        .map(|(state, ladder)| {
            // lint: allow(no-panic) invariant: inline tasks always finish
            let ladder = ladder.expect("inline ladders yield a result");
            Characterization {
                fields: state.fields,
                rounds: state.rounds + ladder.rounds,
                bytes_sent: state.bytes_sent + ladder.bytes_sent,
                bytes_received: state.bytes_received + ladder.bytes_received,
                elapsed: state.elapsed + ladder.elapsed,
                ..ladder
            }
        })
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

    /// A task that finishes on its first poll with twice its job id.
    struct Double(usize);

    impl FlowTask<SimSubstrate> for Double {
        type Output = usize;

        fn poll(&mut self, _session: &mut Session) -> crate::task::TaskPoll<usize> {
            crate::task::TaskPoll::Done(self.0 * 2)
        }

        fn replays_done(&self) -> u64 {
            0
        }
    }

    #[test]
    fn run_wave_tasks_returns_results_in_job_order() {
        let mut p = pool(3);
        let out = p.run_wave_tasks((0..10).map(Double).collect());
        assert_eq!(out, (0..10).map(|i| Some(i * 2)).collect::<Vec<_>>());
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
