//! The lib·erate performance benchmark.
//!
//! `liberate-perfbench --workload <learn|deploy|adapt> --seed <n>
//! --seconds <s> --trace <0|1>` runs one workload for `s` seconds of
//! timed operations and prints, as its last stdout line, one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones (operation latency, set-up time, peak
//! heap); with `--trace 1` the pools run over a timed substrate and the
//! metrics are per layer (host time either side of the substrate seam,
//! per-layer work counts, allocations). Progress goes to stderr.
//!
//! Every operation is checked: flows must evade, re-learns must happen
//! exactly when scripted, a steady wave must be one replay per flow, and
//! each learn or adaptation must reproduce the replay count and technique
//! of the reference pass made during set-up.

mod alloc;
mod clock;
mod inputs;
mod net;
mod workloads;

use std::time::Duration;

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if seconds <= 0.0 || !seconds.is_finite() {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// One named metric value with its unit.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

/// What a workload run reports.
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

fn render(report: &Report) -> String {
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.failed == 0,
        report.attempted,
        report.failed,
        metrics.join(", ")
    )
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("liberate-perfbench: {e}");
            std::process::exit(2);
        }
    };
    alloc::retain_freed_memory();
    let budget = Duration::from_secs_f64(args.seconds);
    let report = match workloads::run(&args.workload, args.seed, budget, args.trace) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("liberate-perfbench: {e}");
            std::process::exit(1);
        }
    };
    println!("{}", render(&report));
}
