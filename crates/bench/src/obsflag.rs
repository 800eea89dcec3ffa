//! Shared `--trace <path>` handling for the `exp-*` binaries: every
//! experiment can dump its observability journal as JSONL and print a
//! per-phase span summary.
//!
//! The path comes from the `--trace <path>` (or `--trace=<path>`)
//! command-line flag, falling back to the `LIBERATE_TRACE` environment
//! variable. When neither is set the journal still records in memory but
//! nothing is written or printed.

use std::sync::Arc;

use liberate::report::{fmt_bytes, TextTable};
use liberate_obs::{phase_summaries, to_jsonl, Journal};

/// The journal dump path requested for this run, if any. The `--trace`
/// argument wins over the `LIBERATE_TRACE` environment variable.
pub fn trace_path() -> Option<String> {
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == "--trace" {
            return args.next();
        }
        if let Some(p) = a.strip_prefix("--trace=") {
            return Some(p.to_string());
        }
    }
    std::env::var("LIBERATE_TRACE")
        .ok()
        .filter(|s| !s.is_empty())
}

/// Worker-session count requested via `--workers <n>` (or
/// `--workers=<n>`), defaulting to 1 — a bare session, no pool.
/// Values below 1 and unparsable values fall back to 1.
pub fn workers() -> usize {
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == "--workers" {
            if let Some(v) = args.next() {
                return v.parse().unwrap_or(1).max(1);
            }
        }
        if let Some(v) = a.strip_prefix("--workers=") {
            return v.parse().unwrap_or(1).max(1);
        }
    }
    1
}

/// Render the per-phase span summary (count, simulated duration, replays,
/// packets, bytes) with the same table builder the experiments use.
pub fn render_phase_summary(journal: &Journal) -> String {
    let events = journal.events();
    let mut table = TextTable::new(&["Phase", "Spans", "Sim time", "Replays", "Packets", "Bytes"]);
    for s in phase_summaries(&events) {
        table.row(vec![
            s.phase.name().to_string(),
            format!("{}", s.spans),
            format!("{:.2} s", s.sim_us as f64 / 1e6),
            format!("{}", s.replays),
            format!("{}", s.packets),
            fmt_bytes(s.bytes),
        ]);
    }
    table.render()
}

/// If tracing was requested, write the journal as JSONL to the requested
/// path and print the per-phase summary. Call once at the end of `main`.
pub fn finish(journal: &Arc<Journal>) {
    let Some(path) = trace_path() else {
        return;
    };
    let jsonl = to_jsonl(journal);
    if let Err(e) = std::fs::write(&path, jsonl) {
        eprintln!("trace: cannot write {path}: {e}");
        std::process::exit(2);
    }
    println!(
        "\ntrace: {} journal events written to {path}",
        journal.len()
    );
    println!("{}", render_phase_summary(journal));
}
