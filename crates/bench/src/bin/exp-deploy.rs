//! **Pool-backed deployment benchmark**: live-flow throughput at 1/2/4
//! workers and adaptation latency under a scripted mid-deployment rule
//! flip. Writes `results/BENCH_deploy.json`.
//!
//! The script: eight simulated users stream Amazon Prime video through a
//! `DeploymentPool` on the testbed model. After a steady wave, the
//! operator re-classes the decoy "web" rule as "video" (a genuine
//! rule-set swap — the decoy request the low-TTL inert technique leans on
//! suddenly draws the video throttle), burning the published technique.
//! Every user's flow reports the change; the pool re-characterizes ONCE,
//! publishes the refreshed technique generation-stamped, and the recovery
//! wave streams clean again.
//!
//! Metrics (simulated clocks only, so runs are reproducible):
//! - **throughput**: application bytes delivered in the recovery wave
//!   over the wave's wall-clock (max per-worker clock advance — workers
//!   stream concurrently);
//! - **adaptation latency**: wall-clock from the rule flip to the
//!   refreshed technique being published and live (burned flows, change
//!   detection, the shared re-characterization wave, evaluation);
//! - **parity**: the initial and adapted techniques at 2 and 4 workers
//!   must equal what the one-worker pool learns from the same flip.
//!
//! Run with: `cargo run --release -p liberate-bench --bin exp-deploy`
//! (`--workers <1|2|4>` picks which pool's merged journal `--trace`
//! dumps, default 4; any other count exits with status 2.)

use std::sync::Arc;
use std::time::Instant;

use liberate::prelude::*;
use liberate_bench::harness;
use liberate_dpi::rules::RuleSet;
use liberate_obs::{Journal, JsonValue};
use liberate_traces::apps;
use liberate_traces::recorded::RecordedTrace;

const USERS: usize = 8;

/// The worker counts of the scaling sweep.
const SWEEP: [usize; 3] = [1, 2, 4];

/// The scripted classifier change: the decoy "web" rule re-classed as
/// throttled video.
fn flipped_rules(rules: &RuleSet) -> RuleSet {
    let mut rules = rules.clone();
    for r in &mut rules.rules {
        if r.id == "web" {
            r.class = "video".to_string();
        }
    }
    rules
}

fn app_bytes(trace: &RecordedTrace) -> u64 {
    trace.messages.iter().map(|m| m.payload.len() as u64).sum()
}

struct RunStats {
    workers: usize,
    throughput_bps: f64,
    adaptation_latency_us: u64,
    recharacterizations: u64,
    host_ms: u64,
}

impl RunStats {
    fn to_json(&self) -> JsonValue {
        JsonValue::object([
            ("workers", self.workers.into()),
            (
                "recovery_throughput_bps",
                harness::round_to(self.throughput_bps, 1).into(),
            ),
            ("adaptation_latency_us", self.adaptation_latency_us.into()),
            ("recharacterizations", self.recharacterizations.into()),
            ("host_cpu_ms", self.host_ms.into()),
        ])
    }
}

fn main() {
    println!("Benchmark: pool-backed deployment under a scripted rule flip\n");
    let trace = apps::amazon_prime_http(1_200_000);
    let copts = CharacterizeOpts::default();
    let wave_bytes = app_bytes(&trace) * USERS as u64;

    // --- Scaling sweep: USERS users per wave at 1, 2, and 4 workers,
    // through steady -> flip -> recovery.
    let trace_workers = harness::swept_workers(&SWEEP, 4);
    let trace_journal = Arc::new(Journal::new());
    let mut runs = Vec::new();
    // The one-worker pool's (initial, adapted) techniques: the reference
    // every wider pool must reproduce.
    let mut reference: Option<(Technique, Technique)> = None;
    for workers in SWEEP {
        let t0 = Instant::now();
        let mut pool = DeploymentPool::new(
            EnvKind::Testbed,
            OsKind::Linux,
            LiberateConfig::default(),
            workers,
            copts.clone(),
        );
        let wave1 = pool.run_flows(&trace, USERS).expect("steady wave");
        assert!(wave1.all_evaded(), "steady wave must stream clean");
        let initial = pool.active_technique().unwrap();

        // The flip. Adaptation latency: flip -> refreshed technique live.
        let rules = {
            let dpi = pool.pool_mut().session_mut(0).env.dpi_mut().unwrap();
            flipped_rules(&dpi.config.rules)
        };
        let before = harness::max_clock_us(pool.pool_mut());
        pool.hot_swap_rules(&rules);
        let wave2 = pool.run_flows(&trace, USERS).expect("flip wave");
        let adaptation_latency_us = harness::max_clock_us(pool.pool_mut()) - before;
        assert_eq!(wave2.change_signals(), USERS, "every user sees the flip");
        assert!(wave2.recharacterized);
        assert_eq!(
            pool.characterizations, 2,
            "{USERS} change signals, exactly one re-characterization"
        );
        let adapted = pool.active_technique().unwrap();
        assert_ne!(adapted, initial, "the flip burns the initial technique");
        let (ref_initial, ref_adapted) =
            reference.get_or_insert((initial.clone(), adapted.clone()));
        assert_eq!(
            &initial, ref_initial,
            "initial parity with one worker at {workers} workers"
        );
        assert_eq!(
            &adapted, ref_adapted,
            "adapted parity with one worker at {workers} workers"
        );

        // Recovery: throughput of the post-adaptation steady state.
        let before = harness::max_clock_us(pool.pool_mut());
        let wave3 = pool.run_flows(&trace, USERS).expect("recovery wave");
        let recovery_us = harness::max_clock_us(pool.pool_mut()) - before;
        assert!(wave3.all_evaded(), "recovery wave must stream clean");
        assert!(!wave3.recharacterized);
        let throughput_bps = wave_bytes as f64 * 8.0 / (recovery_us as f64 / 1e6);

        let host_ms = t0.elapsed().as_millis() as u64;
        println!(
            "{workers} worker(s): recovery {:.2} Mbps aggregate, adaptation {:.1} s simulated, \
{host_ms} ms host CPU",
            throughput_bps / 1e6,
            adaptation_latency_us as f64 / 1e6
        );
        if workers == trace_workers {
            pool.merge_journals_into(&trace_journal);
        }
        runs.push(RunStats {
            workers,
            throughput_bps,
            adaptation_latency_us,
            recharacterizations: pool.characterizations,
            host_ms,
        });
    }

    let one = &runs[0];
    let four = &runs[runs.len() - 1];
    let scaling = four.throughput_bps / one.throughput_bps.max(1.0);
    println!("\nrecovery throughput scaling (4 workers vs 1): {scaling:.2}x");
    assert!(
        scaling >= 1.5,
        "fanning {USERS} users over 4 workers must scale recovery throughput: {scaling:.2}x"
    );

    harness::publish(
        "deploy",
        &JsonValue::object([
            ("experiment", "pool-deployment-rule-flip".into()),
            ("trace", "amazon-prime-http".into()),
            ("users_per_wave", USERS.into()),
            (
                "clock",
                "simulated wall-clock (max per-worker clock advance per wave)".into(),
            ),
            (
                "rule_flip",
                "testbed 'web' decoy rule re-classed as throttled video".into(),
            ),
            (
                "runs",
                JsonValue::Array(runs.iter().map(RunStats::to_json).collect()),
            ),
            (
                "throughput_scaling_4v1",
                harness::round_to(scaling, 2).into(),
            ),
        ]),
    );

    harness::finish(&trace_journal);
    println!(
        "\n[ok] one re-characterization per flip, adapted technique matches the \
one-worker pool, recovery throughput scales with workers"
    );
}
