//! **Hot-path overhaul benchmark**: the per-wave read paths under worker
//! scaling. Writes `results/BENCH_hotpath.json`. (The automaton-vs-naive
//! matcher cells and their per-profile floor live in `exp-matcher`; the
//! payload copy census, a deterministic gate, is the test
//! `tests/payload_copy_census.rs`.)
//!
//! **Deploy worker scaling** — host wall-clock of an identical steady
//! deployment wave at 1 and 4 workers. Published-state snapshots and the
//! per-shard batch drain must keep host cost flat:
//! `host_cpu_ms(4w) ≤ 1.05 × host_cpu_ms(1w)`. The two arms are timed in
//! alternating paired rounds and the gate takes the best paired ratio,
//! so ambient load lands on both arms instead of masquerading as
//! contention. On a single-core host the four worker threads time-slice
//! one CPU — the wave pays real scheduler overhead with no parallel
//! payback — so the bound relaxes to a structural one (`≤ 1.35×`) that
//! still catches a per-worker rescan or a serialized read path (those
//! show up as ~4×).
//!
//! Run with: `cargo run --release -p liberate-bench --bin exp-hotpath`

use std::time::Instant;

use liberate::prelude::*;
use liberate_bench::harness;
use liberate_obs::JsonValue;
use liberate_traces::apps;
use liberate_traces::recorded::RecordedTrace;

/// Users per deployment wave in the scaling measurement.
const USERS: usize = 8;

/// Paired timing rounds for the scaling gate: the waves are only tens
/// of milliseconds, so each round times one 1-worker and one 4-worker
/// wave back to back and the gate keeps the round with the best ratio.
const DEPLOY_ROUNDS: usize = 5;

/// Build a deployment pool and pay the initial characterize wave
/// untimed, leaving it in the steady state. This isolates the per-wave
/// read path (published-state snapshots, batch drain) from one-time setup,
/// which trivially scales with worker count (one network blueprint
/// instantiation per worker).
fn warm_pool(trace: &RecordedTrace, workers: usize) -> DeploymentPool {
    let mut pool = DeploymentPool::new(
        EnvKind::Testbed,
        OsKind::Linux,
        LiberateConfig::default(),
        workers,
        CharacterizeOpts::default(),
    );
    let warm = pool.run_flows(trace, USERS).expect("learn wave");
    assert!(warm.all_evaded(), "learn wave must stream clean");
    pool
}

/// Host wall-clock of one steady wave.
fn steady_wave_us(pool: &mut DeploymentPool, trace: &RecordedTrace) -> u64 {
    let t0 = Instant::now();
    let wave = pool.run_flows(trace, USERS).expect("steady wave");
    let us = t0.elapsed().as_micros() as u64;
    assert!(wave.all_evaded() && !wave.recharacterized);
    us
}

/// Steady-wave host cost at 1 and 4 workers, measured in alternating
/// paired rounds. Returns the `(host_1w_us, host_4w_us)` pair from the
/// round with the lowest 4w/1w ratio: ambient load (this can run on a
/// single-core CI box where four worker threads time-slice one CPU)
/// hits both arms of a round, while a structural scaling regression
/// inflates the 4-worker arm in every round and survives the min.
fn deploy_scaling_us() -> (u64, u64) {
    let trace = apps::amazon_prime_http(1_200_000);
    let mut pools = [warm_pool(&trace, 1), warm_pool(&trace, 4)];
    let [one, four] = harness::alternate(DEPLOY_ROUNDS, |arm| {
        steady_wave_us(&mut pools[arm], &trace).max(1)
    });
    one.into_iter()
        .zip(four)
        .min_by(|&(a1, a4), &(b1, b4)| {
            ((a4 as u128) * (b1 as u128)).cmp(&((b4 as u128) * (a1 as u128)))
        })
        .expect("at least one timing round")
}

fn main() {
    println!("Benchmark: hot-path overhaul (per-wave reads)\n");

    // Deploy scaling: host cost must be flat 1 -> 4 workers.
    let (host_1w, host_4w) = deploy_scaling_us();
    let host_1w_ms = host_1w as f64 / 1000.0;
    let host_4w_ms = host_4w as f64 / 1000.0;
    let scaling_ratio = host_4w as f64 / host_1w.max(1) as f64;
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    // With one CPU the 4-worker arm serializes anyway and its only
    // honest bound is structural (no per-worker rescan); with real
    // cores the tight flatness bound applies.
    let flat_gate = if cores >= 2 { 1.05 } else { 1.35 };
    println!(
        "deploy host wall-clock per steady wave: 1 worker {host_1w_ms:.1} ms, \
4 workers {host_4w_ms:.1} ms (ratio {scaling_ratio:.2}, gate {flat_gate:.2} \
on {cores} core(s))"
    );
    assert!(
        scaling_ratio <= flat_gate,
        "host cost must stay flat from 1 to 4 workers \
(got {host_1w_ms:.1} ms -> {host_4w_ms:.1} ms, {scaling_ratio:.2}x > \
{flat_gate:.2}x on {cores} core(s)); the published-state reads or the \
batch drain regressed"
    );

    harness::publish(
        "hotpath",
        &JsonValue::object([
            ("experiment", "hotpath-overhaul".into()),
            (
                "deploy_scaling",
                JsonValue::object([
                    ("users_per_wave", USERS.into()),
                    ("host_cpu_ms_1w", harness::round_to(host_1w_ms, 1).into()),
                    ("host_cpu_ms_4w", harness::round_to(host_4w_ms, 1).into()),
                    (
                        "host_cpu_ratio_4v1",
                        harness::round_to(scaling_ratio, 2).into(),
                    ),
                    ("host_cores", cores.into()),
                    ("flat_gate", flat_gate.into()),
                ]),
            ),
        ]),
    );

    println!("\n[ok] host cost flat 1 -> 4 workers ({scaling_ratio:.2}x)");
}
