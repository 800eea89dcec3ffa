//! **Observability overhead**: the tracing layer must be close to free.
//!
//! Runs the same characterization workload twice per repetition — once
//! with the journal enabled (spans, events, histograms) and once with a
//! disabled journal (`Journal::disabled()`, every record/span/observe
//! call short-circuits on the atomic gate) — and compares host
//! wall-clock. The gate: enabled must cost less than 10% over disabled,
//! min-of-reps on both sides so scheduler noise cannot fail the run.
//!
//! Also asserts the enabled runs are deterministic: every repetition
//! must export a byte-identical journal.
//!
//! Writes `results/BENCH_obs.json`.
//!
//! Run with: `cargo run --release -p liberate-bench --bin exp-obs`

use std::sync::Arc;
use std::time::Instant;

use liberate::prelude::*;
use liberate_bench::harness;
use liberate_obs::{to_jsonl, Journal, JsonValue};
use liberate_traces::apps;

const REPS: usize = 5;

/// Tracing-overhead budget, percent of journal-off host time.
const BUDGET_PCT: f64 = 10.0;

/// One full workload pass: characterize an HTTP and a UDP application
/// against the testbed classifier with the given journal attached.
/// Returns (host micros, replay rounds) — rounds pin the workload as
/// identical across arms.
fn run_workload(journal: &Arc<Journal>) -> (u64, u64) {
    let start = Instant::now();
    let mut rounds = 0;
    for trace in [
        apps::amazon_prime_http(20_000),
        apps::spotify_http(20_000),
        apps::espn_http(20_000),
        apps::skype_stun(8),
    ] {
        let mut session = Session::new(EnvKind::Testbed, OsKind::Linux, LiberateConfig::default());
        session.attach_journal(journal.clone());
        let c = characterize(
            &mut session,
            &trace,
            &Signal::Readout,
            &CharacterizeOpts::default(),
        );
        rounds += c.rounds;
    }
    (start.elapsed().as_micros() as u64, rounds)
}

fn main() {
    println!("Experiment: observability overhead (journal on vs off)\n");

    let mut first_jsonl: Option<String> = None;
    let mut journal_events = 0;
    // Arm 0 records into an enabled journal, arm 1 into a disabled one.
    let [on, off] = harness::alternate(REPS, |arm| {
        let enabled = arm == 0;
        let journal = Arc::new(if enabled {
            Journal::new()
        } else {
            Journal::disabled()
        });
        let sample = run_workload(&journal);
        if enabled {
            journal_events = journal.len();
            let jsonl = to_jsonl(&journal);
            match &first_jsonl {
                None => first_jsonl = Some(jsonl),
                Some(prev) => assert_eq!(
                    prev, &jsonl,
                    "enabled-journal export must be byte-identical across reps"
                ),
            }
        } else {
            assert_eq!(journal.len(), 0, "disabled journal must record no events");
        }
        sample
    });

    let on_rounds = on[0].1;
    assert!(
        on.iter()
            .chain(&off)
            .all(|&(_, rounds)| rounds == on_rounds),
        "journal gating must not change the workload"
    );
    let on_us: Vec<u64> = on.iter().map(|&(us, _)| us).collect();
    let off_us: Vec<u64> = off.iter().map(|&(us, _)| us).collect();
    let on_min = *on_us.iter().min().unwrap();
    let off_min = *off_us.iter().min().unwrap();
    let overhead_pct = if off_min == 0 {
        0.0
    } else {
        (on_min as f64 - off_min as f64) / off_min as f64 * 100.0
    };

    println!("workload: 3x http + skype-stun characterization, {on_rounds} rounds");
    println!(
        "journal on  (min of {REPS}): {:>10} us, {journal_events} events",
        on_min
    );
    println!("journal off (min of {REPS}): {:>10} us", off_min);
    println!("overhead: {overhead_pct:.2}% (budget {BUDGET_PCT:.1}%)");

    harness::publish(
        "obs",
        &JsonValue::object([
            ("experiment", "observability overhead".into()),
            (
                "workload",
                "prime+spotify+espn http(20000) + skype-stun(8) testbed characterization".into(),
            ),
            ("reps", REPS.into()),
            ("rounds", on_rounds.into()),
            ("journal_events", journal_events.into()),
            ("on_min_us", on_min.into()),
            ("off_min_us", off_min.into()),
            ("overhead_pct", harness::round_to(overhead_pct, 2).into()),
            ("budget_pct", BUDGET_PCT.into()),
            ("on_us", on_us.into()),
            ("off_us", off_us.into()),
        ]),
    );

    assert!(
        overhead_pct < BUDGET_PCT,
        "tracing overhead {overhead_pct:.2}% exceeds the {BUDGET_PCT:.1}% budget"
    );
    println!("\n[ok] tracing overhead within budget, exports byte-identical across reps");
}
