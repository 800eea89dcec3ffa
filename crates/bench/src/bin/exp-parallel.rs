//! **Parallel characterization benchmark**: sequential baseline vs
//! `SessionPool` fan-out at 1/2/4 workers over the four §6.1 testbed
//! applications. Writes `results/BENCH_parallel.json`.
//!
//! The primary speedup metric is the **simulated experiment wall-clock**:
//! on a live path, characterization time is dominated by the ~5 s gap
//! between replay rounds (`LiberateConfig::round_gap`), and concurrent
//! probing over disjoint flows genuinely divides that waiting. For a pool
//! run the experiment clock is the maximum final simulation clock across
//! worker sessions (workers advance concurrently from `SimTime::ZERO`);
//! for the sequential baseline it is the sum of the per-app session
//! clocks (one app after another on one vantage point). Host CPU time is
//! reported for reference — the probe work itself is unchanged, the
//! wall-clock win comes from overlapping the gaps.
//!
//! Run with: `cargo run --release -p liberate-bench --bin exp-parallel`

use std::time::Instant;

use liberate::prelude::*;
use liberate_bench::harness;
use liberate_obs::JsonValue;
use liberate_traces::apps;
use liberate_traces::recorded::RecordedTrace;

fn testbed_apps() -> Vec<(&'static str, RecordedTrace)> {
    vec![
        ("amazon-prime-http", apps::amazon_prime_http(20_000)),
        ("spotify-http", apps::spotify_http(20_000)),
        ("espn-http", apps::espn_http(20_000)),
        ("skype-stun", apps::skype_stun(8)),
    ]
}

struct RunStats {
    workers: usize,
    sim_us: u64,
    host_ms: u64,
    replays: u64,
}

impl RunStats {
    fn to_json(&self) -> JsonValue {
        JsonValue::object([
            ("workers", self.workers.into()),
            ("experiment_wall_clock_us", self.sim_us.into()),
            ("host_cpu_ms", self.host_ms.into()),
            ("replays", self.replays.into()),
        ])
    }
}

fn main() {
    println!("Benchmark: parallel characterization over a sharded DPI flow table\n");
    let named = testbed_apps();
    let traces: Vec<RecordedTrace> = named.iter().map(|(_, t)| t.clone()).collect();
    let opts = CharacterizeOpts::default();

    // --- Sequential baseline: one solo session per app, back to back on
    // a single vantage point (the pre-engine workflow).
    let t0 = Instant::now();
    let mut seq = RunStats {
        workers: 0,
        sim_us: 0,
        host_ms: 0,
        replays: 0,
    };
    let mut seq_fields = Vec::new();
    for trace in &traces {
        let mut session = Session::new(EnvKind::Testbed, OsKind::Linux, LiberateConfig::default());
        let c = characterize(&mut session, trace, &Signal::Readout, &opts);
        seq.sim_us += session.env.network.clock.as_micros();
        seq.replays += c.rounds;
        seq_fields.push(c.fields);
    }
    seq.host_ms = t0.elapsed().as_millis() as u64;
    println!(
        "sequential baseline: {} replays, {:.1} min simulated, {} ms host CPU",
        seq.replays,
        seq.sim_us as f64 / 60e6,
        seq.host_ms
    );

    // --- Pool runs: the same four traces batched through the engine at
    // 1, 2, and 4 workers over one shared sharded flow table.
    let mut runs = Vec::new();
    for workers in [1usize, 2, 4] {
        let t0 = Instant::now();
        let mut pool = SessionPool::new(
            EnvKind::Testbed,
            OsKind::Linux,
            LiberateConfig::default(),
            workers,
        );
        let cs = characterize_many(&mut pool, &traces, &Signal::Readout, &opts);
        let host_ms = t0.elapsed().as_millis() as u64;
        let sim_us = harness::max_clock_us(&pool);
        let replays: u64 = cs.iter().map(|c| c.rounds).sum();

        // Parity: worker count must never change what gets discovered or
        // how many probes it takes.
        for (((name, _), c), fields) in named.iter().zip(&cs).zip(&seq_fields) {
            assert_eq!(
                &c.fields, fields,
                "{name}: matching fields diverge at {workers} workers"
            );
        }
        assert_eq!(
            replays, seq.replays,
            "probe multiset diverges at {workers} workers"
        );

        println!(
            "{workers} worker(s): {replays} replays, {:.1} min simulated, {host_ms} ms host CPU",
            sim_us as f64 / 60e6
        );
        runs.push(RunStats {
            workers,
            sim_us,
            host_ms,
            replays,
        });
    }

    let one = &runs[0];
    let four = &runs[runs.len() - 1];
    let speedup = one.sim_us as f64 / four.sim_us.max(1) as f64;
    println!("\nspeedup (simulated wall-clock, 4 workers vs 1): {speedup:.2}x");
    assert!(
        speedup >= 2.0,
        "expected >= 2x simulated wall-clock speedup at 4 workers, got {speedup:.2}x"
    );

    harness::publish(
        "parallel",
        &JsonValue::object([
            ("experiment", "parallel-characterization-testbed".into()),
            (
                "traces",
                named.iter().map(|&(n, _)| n).collect::<Vec<_>>().into(),
            ),
            (
                "clock",
                "simulated experiment wall-clock (round gaps dominate live runs)".into(),
            ),
            ("sequential", seq.to_json()),
            (
                "runs",
                JsonValue::Array(runs.iter().map(RunStats::to_json).collect()),
            ),
            ("speedup_4v1", harness::round_to(speedup, 2).into()),
        ]),
    );

    println!("\n[ok] parallel engine reproduces sequential results at >= 2x less experiment time");
}
