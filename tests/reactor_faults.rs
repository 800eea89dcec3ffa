//! Fault-path and scheduling battery for the replay reactor: each task
//! runs to completion before the next starts and is built only when it
//! reaches the head, panicking tasks are
//! contained, mid-wave teardown leaks nothing, admission-order shuffles
//! cannot perturb the spliced journal, and waves smaller than the pool
//! leave surplus workers untouched.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use liberate::config::LiberateConfig;
use liberate::engine::SessionPool;
use liberate::reactor::Reactor;
use liberate::replay::{ReplayOpts, Session};
use liberate::task::{FlowTask, TaskPoll, Wake};
use liberate_dpi::profiles::EnvKind;
use liberate_netsim::os::OsKind;
use liberate_obs::{to_jsonl, Counter, EventKind, Journal};
use liberate_substrate::Substrate;
use liberate_traces::apps;

fn session() -> Session {
    Session::new(EnvKind::Testbed, OsKind::Linux, LiberateConfig::default())
}

/// A task that records one tagged event per poll on its lane journal,
/// sleeping a per-task gap between polls — tasks finish in an order
/// different from their admission order, which is exactly what the
/// splice must absorb.
struct ChattyTask {
    id: usize,
    gap: Duration,
    steps: u32,
    step: u32,
}

impl ChattyTask {
    fn wave(n: usize) -> Vec<ChattyTask> {
        (0..n)
            .map(|id| ChattyTask {
                id,
                // Later admissions sleep less: completion order is the
                // reverse of admission order.
                gap: Duration::from_micros(1_000 * (n - id) as u64),
                steps: 3,
                step: 0,
            })
            .collect()
    }
}

impl FlowTask<liberate::sim::SimSubstrate> for ChattyTask {
    type Output = usize;

    fn poll(&mut self, session: &mut Session) -> TaskPoll<usize> {
        if self.step >= self.steps {
            return TaskPoll::Done(self.id);
        }
        session.journal().record(
            session.env.clock().as_micros(),
            EventKind::FallbackEngaged {
                technique: format!("task-{}-step-{}", self.id, self.step),
            },
        );
        self.step += 1;
        TaskPoll::Pending(Wake::Timer(self.gap))
    }

    fn replays_done(&self) -> u64 {
        0
    }
}

/// Run a `ChattyTask` wave under a given admission order and splice the
/// lanes exactly the way `run_wave_tasks` does: task order, rebased by
/// the running sum of earlier lanes' virtual durations.
fn spliced_run(order: Option<&[usize]>) -> (Vec<Option<usize>>, String) {
    let mut session = session();
    let telemetry = Journal::disabled();
    let t0 = session.env.clock();
    let mut reactor = Reactor::new(&session, ChattyTask::wave(6), |_, task| task, &telemetry);
    if let Some(order) = order {
        reactor.set_admission_order(order);
    }
    reactor.run(&mut session, &telemetry);
    let outcome = reactor.into_outcome();
    let merged = Arc::new(Journal::new());
    let mut dt_us = 0u64;
    for (i, lane) in outcome.lanes.iter().enumerate() {
        if outcome.results[i].is_some() {
            merged.splice_staged(&lane.journal, dt_us, 0);
            dt_us += (lane.clock - t0).as_micros() as u64;
        }
    }
    (outcome.results, to_jsonl(&merged))
}

/// Shuffling the ready-queue admission order cannot change the spliced
/// journal: lanes are private, and the splice runs in task order no
/// matter who ran first.
#[test]
fn admission_order_shuffles_do_not_change_the_spliced_journal() {
    let (base_results, base_journal) = spliced_run(None);
    assert!(base_results.iter().all(|r| r.is_some()));
    assert!(base_journal.contains("task-5-step-2"));

    for order in [
        vec![5usize, 4, 3, 2, 1, 0],
        vec![1, 3, 5, 0, 2, 4],
        vec![3, 4, 5, 0, 1, 2],
    ] {
        let (results, journal) = spliced_run(Some(&order));
        assert_eq!(results, base_results, "results diverge under {order:?}");
        assert_eq!(
            journal, base_journal,
            "spliced journal diverges under admission order {order:?}"
        );
    }
}

/// A task that yields a few timers between its first and last poll and
/// counts, on counters shared by the whole wave, how many tasks have
/// started and not finished.
struct OverlapTask {
    polls: u32,
    running: Arc<AtomicUsize>,
    max_running: Arc<AtomicUsize>,
}

impl FlowTask<liberate::sim::SimSubstrate> for OverlapTask {
    type Output = ();

    fn poll(&mut self, _session: &mut Session) -> TaskPoll<()> {
        if self.polls == 0 {
            let now = self.running.fetch_add(1, Ordering::Relaxed) + 1;
            self.max_running.fetch_max(now, Ordering::Relaxed);
        }
        self.polls += 1;
        if self.polls < 4 {
            return TaskPoll::Pending(Wake::Timer(Duration::from_millis(10)));
        }
        self.running.fetch_sub(1, Ordering::Relaxed);
        TaskPoll::Done(())
    }

    fn replays_done(&self) -> u64 {
        0
    }
}

/// Run-to-completion: a task that yields a timer keeps the worker until
/// it is done, so at most one task of a wave is ever in flight, and each
/// timer it asked for is applied as one fire.
#[test]
fn each_task_runs_to_completion_before_the_next_starts() {
    let mut session = session();
    let telemetry = Journal::disabled();
    let running = Arc::new(AtomicUsize::new(0));
    let max_running = Arc::new(AtomicUsize::new(0));
    let wave: Vec<OverlapTask> = (0..16)
        .map(|_| OverlapTask {
            polls: 0,
            running: Arc::clone(&running),
            max_running: Arc::clone(&max_running),
        })
        .collect();
    let mut reactor = Reactor::new(&session, wave, |_, task| task, &telemetry);
    reactor.run(&mut session, &telemetry);
    let outcome = reactor.into_outcome();

    assert!(outcome.results.iter().all(|r| r.is_some()));
    assert_eq!(running.load(Ordering::Relaxed), 0);
    assert_eq!(max_running.load(Ordering::Relaxed), 1, "tasks overlapped");
    assert_eq!(telemetry.metrics.get(Counter::ReactorTicks), 16 * 4);
    assert_eq!(telemetry.metrics.get(Counter::ReactorTimerFires), 16 * 3);
    for lane in &outcome.lanes {
        assert_eq!(lane.clock - session.env.clock(), Duration::from_millis(30));
    }
}

/// A task that reads, at its first and its last poll, how many tasks
/// of its wave have been built so far.
struct BuildProbe {
    built: Arc<AtomicUsize>,
    polls: u32,
    at_first_poll: usize,
}

impl FlowTask<liberate::sim::SimSubstrate> for BuildProbe {
    type Output = (usize, usize);

    fn poll(&mut self, _session: &mut Session) -> TaskPoll<(usize, usize)> {
        let built = self.built.load(Ordering::Relaxed);
        if self.polls == 0 {
            self.at_first_poll = built;
        }
        self.polls += 1;
        if self.polls < 3 {
            return TaskPoll::Pending(Wake::Timer(Duration::from_millis(5)));
        }
        TaskPoll::Done((self.at_first_poll, built))
    }

    fn replays_done(&self) -> u64 {
        0
    }
}

/// A job becomes its task only when it reaches the head of the
/// admission order: admitting a wave builds nothing, and the job that
/// runs `k`-th sees exactly `k` tasks built, from its first poll to its
/// last.
#[test]
fn each_task_is_built_when_it_reaches_the_head() {
    const JOBS: usize = 8;
    let order = [3usize, 0, 7, 1, 6, 2, 5, 4];
    let mut session = session();
    let telemetry = Journal::disabled();
    let built = Arc::new(AtomicUsize::new(0));
    let mut build_order = Vec::new();
    let counter = Arc::clone(&built);
    let mut reactor = Reactor::new(
        &session,
        (0..JOBS).collect(),
        |k, job: usize| {
            assert_eq!(k, job, "the build sees the job's own index");
            build_order.push(job);
            counter.fetch_add(1, Ordering::Relaxed);
            BuildProbe {
                built: Arc::clone(&counter),
                polls: 0,
                at_first_poll: 0,
            }
        },
        &telemetry,
    );
    reactor.set_admission_order(&order);
    assert_eq!(built.load(Ordering::Relaxed), 0, "admission built a task");
    assert!(reactor.step(&mut session, &telemetry));
    assert_eq!(built.load(Ordering::Relaxed), 1, "only the head is built");
    reactor.run(&mut session, &telemetry);
    let outcome = reactor.into_outcome();
    assert_eq!(build_order, order, "tasks built out of admission order");

    for (rank, &job) in order.iter().enumerate() {
        assert_eq!(
            outcome.results[job],
            Some((rank + 1, rank + 1)),
            "job {job} ran {rank}-th"
        );
    }
}

/// A task that panics on its second poll, mid-wave, with a timer parked
/// by its first poll already consumed.
struct BoomTask {
    id: usize,
    boom: bool,
    polled: bool,
}

impl FlowTask<liberate::sim::SimSubstrate> for BoomTask {
    type Output = usize;

    fn poll(&mut self, session: &mut Session) -> TaskPoll<usize> {
        if !self.polled {
            self.polled = true;
            return TaskPoll::Pending(Wake::Timer(Duration::from_micros(500)));
        }
        if self.boom {
            panic!("scripted task panic");
        }
        // Touch the shared flow table through a real replay before
        // finishing, so a poisoned shard lock could not hide.
        let trace = apps::economist_http();
        session.replay_trace(&trace, &ReplayOpts::default());
        TaskPoll::Done(self.id)
    }

    fn replays_done(&self) -> u64 {
        u64::from(self.polled && !self.boom)
    }
}

/// Containment: one panicking task out of six must not take the wave
/// down — the other five finish and report, the panicked flow comes back
/// `None`, the panic is counted, and the pool (shared flow table
/// included) stays fully usable for the next wave.
#[test]
fn panicking_task_is_contained_and_the_wave_completes() {
    // Silence the scripted panic's default stderr backtrace.
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));

    let mut pool = SessionPool::new(
        EnvKind::Testbed,
        OsKind::Linux,
        LiberateConfig::default(),
        2,
    );
    let tasks: Vec<BoomTask> = (0..6)
        .map(|id| BoomTask {
            id,
            boom: id == 2,
            polled: false,
        })
        .collect();
    let results = pool.run_wave_tasks(tasks);
    std::panic::set_hook(prev);

    assert_eq!(results.len(), 6);
    for (id, r) in results.iter().enumerate() {
        if id == 2 {
            assert!(r.is_none(), "panicked flow must report as failed");
        } else {
            assert_eq!(*r, Some(id), "surviving flow lost its result");
        }
    }
    assert_eq!(
        pool.reactor_telemetry()
            .metrics
            .get(Counter::ReactorTaskPanics),
        1
    );

    // No poisoned shard locks, no wedged worker state: the shared table
    // still takes batch sweeps and the pool still runs full waves.
    pool.session_mut(0).env.reclaim_flows();
    let again = pool.run_wave_tasks(
        (0..4)
            .map(|id| BoomTask {
                id,
                boom: false,
                polled: false,
            })
            .collect::<Vec<_>>(),
    );
    assert!(
        again.iter().all(|r| r.is_some()),
        "pool wedged after a contained panic"
    );
}

/// A task that parks itself on the far future and never finishes.
struct ParkedForever;

impl FlowTask<liberate::sim::SimSubstrate> for ParkedForever {
    type Output = ();

    fn poll(&mut self, _session: &mut Session) -> TaskPoll<()> {
        TaskPoll::Pending(Wake::Timer(Duration::from_secs(3_600)))
    }

    fn replays_done(&self) -> u64 {
        0
    }
}

/// Tearing a reactor down with a timer advance pending leaks nothing
/// into the worker: the journal and clock are exactly as before the wave, and the
/// session replays normally afterwards.
#[test]
fn dropping_a_reactor_with_parked_timers_leaks_no_task_state() {
    let mut session = session();
    let clock_before = session.env.clock();
    let journal_before = to_jsonl(session.journal());

    let telemetry = Journal::disabled();
    let mut reactor = Reactor::new(
        &session,
        vec![ParkedForever, ParkedForever],
        |_, task| task,
        &telemetry,
    );
    // Two steps poll the head task twice (the second applies the first
    // advance on its lane); it is waiting on a third when the reactor
    // drops.
    assert!(reactor.step(&mut session, &telemetry));
    assert!(reactor.step(&mut session, &telemetry));
    assert_eq!(reactor.pending_advance(), Some(Duration::from_secs(3_600)));
    assert_eq!(reactor.live(), 2);
    drop(reactor);

    assert_eq!(session.env.clock(), clock_before, "worker clock moved");
    assert_eq!(
        to_jsonl(session.journal()),
        journal_before,
        "abandoned lanes leaked events into the worker journal"
    );
    let outcome = session.replay_trace(&apps::economist_http(), &ReplayOpts::default());
    assert!(outcome.bytes_sent > 0, "session unusable after teardown");
}

/// A wave smaller than the pool leaves the surplus workers completely
/// untouched — no wave span, no events.
#[test]
fn surplus_workers_see_no_wave_when_jobs_are_scarce() {
    let mut pool = SessionPool::new(
        EnvKind::Testbed,
        OsKind::Linux,
        LiberateConfig::default(),
        4,
    );
    let baselines: Vec<String> = (0..4)
        .map(|w| to_jsonl(pool.sessions()[w].journal()))
        .collect();

    let task_results = pool.run_wave_tasks(ChattyTask::wave(2));
    assert_eq!(task_results, vec![Some(0), Some(1)]);

    for w in [2usize, 3] {
        assert_eq!(
            to_jsonl(pool.sessions()[w].journal()),
            baselines[w],
            "worker {w} had no jobs but its journal moved"
        );
    }
    for w in [0usize, 1] {
        assert!(
            to_jsonl(pool.sessions()[w].journal()).contains("\"phase\":\"wave\""),
            "worker {w} should have run a wave"
        );
    }
}
