//! The measurement harness every experiment binary shares: command-line
//! flags, the `--trace` journal dump, the two-arm repetition loop, the
//! simulated clock of a worker pool, and dataset publishing.
//!
//! The journal dump path comes from the `--trace <path>` (or
//! `--trace=<path>`) command-line flag, falling back to the
//! `LIBERATE_TRACE` environment variable. When neither is set the
//! journal still records in memory but nothing is written or printed.
//!
//! Datasets land in `results/`: [`publish`] writes
//! `results/BENCH_<name>.json` and appends the same compact line to
//! `results/BENCH_history.jsonl`, the cross-run trend log.

use std::fs::OpenOptions;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use liberate::engine::SessionPool;
use liberate::report::{fmt_bytes, TextTable};
use liberate_obs::{phase_summaries, to_jsonl, Journal, JsonValue};

/// Where datasets are written, relative to the working directory.
const RESULTS_DIR: &str = "results";

/// The command-line arguments after the program name.
fn args() -> Vec<String> {
    std::env::args().skip(1).collect()
}

/// The value of `flag` given as `flag <v>` or `flag=<v>`, if present.
fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == flag {
            return it.next().map(String::as_str);
        }
        if let Some(v) = a.strip_prefix(flag).and_then(|r| r.strip_prefix('=')) {
            return Some(v);
        }
    }
    None
}

/// The journal dump path requested for this run, if any. The `--trace`
/// argument wins over the `LIBERATE_TRACE` environment variable.
pub fn trace_path() -> Option<String> {
    flag_value(&args(), "--trace")
        .map(str::to_string)
        .or_else(|| std::env::var("LIBERATE_TRACE").ok())
        .filter(|s| !s.is_empty())
}

/// Worker-session count requested via `--workers <n>` (or
/// `--workers=<n>`), defaulting to 1 — a bare session, no pool.
/// Values below 1 and unparsable values fall back to 1.
pub fn workers() -> usize {
    flag_value(&args(), "--workers").map_or(1, |v| v.parse().unwrap_or(1).max(1))
}

/// The `--workers` choice of a binary that sweeps fixed pool sizes: one
/// of `swept`, or `default` without the flag. Any other value exits with
/// status 2 — a count outside the sweep selects no pool, so `--trace`
/// would dump an empty journal.
pub fn swept_workers(swept: &[usize], default: usize) -> usize {
    parse_swept_workers(&args(), swept, default).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2)
    })
}

fn parse_swept_workers(args: &[String], swept: &[usize], default: usize) -> Result<usize, String> {
    let Some(v) = flag_value(args, "--workers") else {
        return Ok(default);
    };
    match v.parse() {
        Ok(n) if swept.contains(&n) => Ok(n),
        _ => Err(format!("--workers {v}: expected one of {swept:?}")),
    }
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

/// A pool's experiment wall-clock: the latest simulated clock across its
/// worker sessions (workers advance concurrently from zero).
pub fn max_clock_us(pool: &SessionPool) -> u64 {
    pool.sessions()
        .iter()
        .map(|s| s.env.network.clock.as_micros())
        .max()
        .unwrap_or(0)
}

/// Run two measurement arms `rounds` times each, alternating which goes
/// first (arm 0 in even rounds, arm 1 in odd ones) so warm-up and
/// ambient load land on both. Returns each arm's samples in round order:
/// `samples[0][r]` and `samples[1][r]` are round `r`'s pair.
pub fn alternate<T>(rounds: usize, mut arm: impl FnMut(usize) -> T) -> [Vec<T>; 2] {
    let mut samples = [Vec::with_capacity(rounds), Vec::with_capacity(rounds)];
    for r in 0..rounds {
        for i in [r % 2, 1 - r % 2] {
            samples[i].push(arm(i));
        }
    }
    samples
}

/// `x` rounded to `places` decimal places, for dataset fields.
pub fn round_to(x: f64, places: i32) -> f64 {
    let scale = 10f64.powi(places);
    (x * scale).round() / scale
}

/// Write `text` to `results/<file>`, creating the directory; returns the
/// path written.
pub fn write_result(file: &str, text: &str) -> io::Result<PathBuf> {
    write_in(Path::new(RESULTS_DIR), file, text)
}

fn write_in(dir: &Path, file: &str, text: &str) -> io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(file);
    std::fs::write(&path, text)?;
    Ok(path)
}

/// Publish a benchmark dataset: `results/BENCH_<name>.json`, plus its
/// compact line appended to `results/BENCH_history.jsonl`. A write
/// failure is reported, not fatal, so the binary's gates still run.
pub fn publish(name: &str, dataset: &JsonValue) {
    match publish_in(Path::new(RESULTS_DIR), name, dataset) {
        Ok(path) => println!("dataset: wrote {}", path.display()),
        Err(e) => eprintln!("dataset: cannot publish BENCH_{name}.json: {e}"),
    }
}

fn publish_in(dir: &Path, name: &str, dataset: &JsonValue) -> io::Result<PathBuf> {
    let line = dataset.render();
    let path = write_in(dir, &format!("BENCH_{name}.json"), &format!("{line}\n"))?;
    // Reruns regenerate identical datasets; an exact repeat would only
    // pad the history with noise, so it is skipped rather than appended.
    let history = dir.join("BENCH_history.jsonl");
    let existing = match std::fs::read_to_string(&history) {
        Ok(text) => text,
        Err(e) if e.kind() == io::ErrorKind::NotFound => String::new(),
        Err(e) => return Err(e),
    };
    if !existing.lines().any(|l| l == line) {
        let mut out = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&history)?;
        writeln!(out, "{line}")?;
    }
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn swept_workers_accepts_only_the_sweep() {
        let sweep = [1, 2, 4];
        let parse = |args: &[&str]| parse_swept_workers(&strings(args), &sweep, 4);
        assert_eq!(parse(&[]), Ok(4), "default without the flag");
        assert_eq!(parse(&["--trace", "t.jsonl"]), Ok(4));
        assert_eq!(parse(&["--workers", "2"]), Ok(2));
        assert_eq!(parse(&["--workers=1"]), Ok(1));
        for bad in [
            &["--workers", "3"][..],
            &["--workers=0"],
            &["--workers", "x"],
        ] {
            let err = parse(bad).expect_err("outside the sweep");
            assert!(err.contains("expected one of [1, 2, 4]"), "{err}");
        }
    }

    #[test]
    fn alternate_swaps_arm_order_each_round() {
        let mut calls = Vec::new();
        let [a, b] = alternate(3, |arm| {
            calls.push(arm);
            calls.len()
        });
        assert_eq!(calls, [0, 1, 1, 0, 0, 1]);
        assert_eq!(a, [1, 4, 5], "arm 0's samples in round order");
        assert_eq!(b, [2, 3, 6]);
    }

    /// Re-publishing an identical dataset must not grow the history,
    /// while a changed dataset for the same experiment still appends.
    #[test]
    fn bench_history_skips_exact_repeats() {
        let dir = std::env::temp_dir().join(format!("liberate-publish-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let dataset = |rounds: u64| {
            JsonValue::object([("experiment", "e1".into()), ("rounds", rounds.into())])
        };
        let history = dir.join("BENCH_history.jsonl");

        let path = publish_in(&dir, "e1", &dataset(7)).unwrap();
        publish_in(&dir, "e1", &dataset(7)).unwrap();
        assert_eq!(path, dir.join("BENCH_e1.json"));
        assert_eq!(
            std::fs::read_to_string(&path).unwrap(),
            "{\"experiment\":\"e1\",\"rounds\":7}\n"
        );
        let text = std::fs::read_to_string(&history).unwrap();
        assert_eq!(
            text, "{\"experiment\":\"e1\",\"rounds\":7}\n",
            "exact repeat must dedup"
        );

        publish_in(&dir, "e1", &dataset(8)).unwrap();
        let text = std::fs::read_to_string(&history).unwrap();
        assert_eq!(text.lines().count(), 2, "{text}");
        assert!(text.lines().all(|l| l.contains("\"experiment\":\"e1\"")));

        std::fs::remove_dir_all(&dir).ok();
    }
}
