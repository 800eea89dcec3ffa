//! Query engine over exported JSONL journals.
//!
//! Subcommands:
//!
//! - `summary <j>`            — per-phase span/replay/traffic table
//! - `hist <j> [name]`        — histogram quantile tables
//! - `top <j> [n]`            — the n slowest replays by simulated time
//! - `tree <j>`               — the reconstructed span tree, indented
//! - `critical <j>`           — per root span, the dominant child chain
//! - `folded <j>`             — flamegraph folded stacks (self time)
//! - `filter <j> [--phase p] [--worker w] [--event e]` — raw event lines
//! - `diff <a> <b>`           — counter deltas + histogram-quantile
//!   shifts; exits 1 when the journals drift (the regression primitive
//!   CI gates on)
//!
//! Exit codes: 0 ok (diff: no drift), 1 drift or invalid journal,
//! 2 usage or I/O error.

use std::fmt::Write as _;
use std::process::ExitCode;

use liberate_obs::jsonl::{parse_object_line, JsonValue};
use liberate_obs::spantree::{build_span_forest, critical_path, folded_stacks, SpanForest};
use liberate_obs::{parse_journal, phase_summaries, Event, EventKind, ParsedJournal, Phase};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("obs-query: {e}");
            ExitCode::from(2)
        }
    }
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    let Some(cmd) = args.first() else {
        return Err(usage());
    };
    let rest = &args[1..];
    match cmd.as_str() {
        "summary" => one_journal(rest, |j| Ok(print!("{}", render_summary(j)))),
        "hist" => {
            let (path, name) = match rest {
                [p] => (p, None),
                [p, n] => (p, Some(n.as_str())),
                _ => return Err(usage()),
            };
            let j = load(path)?;
            print!("{}", render_hists(&j, name)?);
            Ok(ExitCode::SUCCESS)
        }
        "top" => {
            let (path, n) = match rest {
                [p] => (p, 10usize),
                [p, n] => (p, n.parse().map_err(|_| format!("bad count {n:?}"))?),
                _ => return Err(usage()),
            };
            let j = load(path)?;
            print!("{}", render_top(&j, n));
            Ok(ExitCode::SUCCESS)
        }
        "tree" => one_journal(rest, |j| {
            Ok(print!("{}", render_tree(&build_span_forest(&j.events))))
        }),
        "critical" => one_journal(rest, |j| {
            Ok(print!("{}", render_critical(&build_span_forest(&j.events))))
        }),
        "folded" => one_journal(rest, |j| {
            for (stack, us) in folded_stacks(&build_span_forest(&j.events)) {
                println!("{stack} {us}");
            }
            Ok(())
        }),
        "filter" => {
            let (path, rest) = rest.split_first().ok_or_else(usage)?;
            let mut phase = None;
            let mut worker = None;
            let mut event = None;
            let mut it = rest.iter();
            while let Some(flag) = it.next() {
                let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
                match flag.as_str() {
                    "--phase" => phase = Some(val.clone()),
                    "--worker" => {
                        worker = Some(
                            val.parse::<u64>()
                                .map_err(|_| format!("bad worker {val:?}"))?,
                        )
                    }
                    "--event" => event = Some(val.clone()),
                    _ => return Err(usage()),
                }
            }
            let text = read(path)?;
            print!(
                "{}",
                filter_lines(&text, phase.as_deref(), worker, event.as_deref())?
            );
            Ok(ExitCode::SUCCESS)
        }
        "diff" => {
            let [a, b] = rest else { return Err(usage()) };
            let (ja, jb) = (load(a)?, load(b)?);
            let report = render_diff(&ja, &jb);
            if report.is_empty() {
                println!("obs-query diff: no drift");
                Ok(ExitCode::SUCCESS)
            } else {
                print!("{report}");
                Ok(ExitCode::from(1))
            }
        }
        _ => Err(usage()),
    }
}

fn usage() -> String {
    "usage: obs-query <summary|hist|top|tree|critical|folded|filter|diff> ...".to_string()
}

fn read(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| {
        if e.kind() == std::io::ErrorKind::NotFound {
            format!("no journal at {path} (check the --trace path that produced it)")
        } else {
            format!("{path}: {e}")
        }
    })
}

fn load(path: &str) -> Result<ParsedJournal, String> {
    parse_journal(&read(path)?).map_err(|e| format!("{path}: {e}"))
}

fn one_journal(
    rest: &[String],
    f: impl FnOnce(&ParsedJournal) -> Result<(), String>,
) -> Result<ExitCode, String> {
    let [path] = rest else { return Err(usage()) };
    f(&load(path)?)?;
    Ok(ExitCode::SUCCESS)
}

fn render_summary(j: &ParsedJournal) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<16} {:>6} {:>12} {:>8} {:>8} {:>12}",
        "phase", "spans", "sim_us", "replays", "packets", "bytes"
    );
    for row in phase_summaries(&j.events) {
        let _ = writeln!(
            out,
            "{:<16} {:>6} {:>12} {:>8} {:>8} {:>12}",
            row.phase.name(),
            row.spans,
            row.sim_us,
            row.replays,
            row.packets,
            row.bytes
        );
    }
    out
}

fn render_hists(j: &ParsedJournal, only: Option<&str>) -> Result<String, String> {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<28} {:>8} {:>10} {:>10} {:>10} {:>10} {:>12}",
        "hist", "count", "p50", "p90", "p99", "max", "mean"
    );
    let mut matched = false;
    for (name, snap) in &j.hists {
        if only.is_some_and(|o| o != name) {
            continue;
        }
        matched = true;
        let _ = writeln!(
            out,
            "{:<28} {:>8} {:>10} {:>10} {:>10} {:>10} {:>12.1}",
            name,
            snap.count,
            snap.quantile(0.50),
            snap.quantile(0.90),
            snap.quantile(0.99),
            snap.max,
            snap.mean()
        );
    }
    if let Some(o) = only {
        if !matched {
            return Err(format!("no histogram named {o:?} in this journal"));
        }
    }
    Ok(out)
}

/// The n slowest replays by simulated duration: replay spans from the
/// forest, tied back to the enclosing Fig. 3 phase via parents. Ties
/// break toward earlier start then lower worker, so output is stable.
fn render_top(j: &ParsedJournal, n: usize) -> String {
    let forest = build_span_forest(&j.events);
    let mut replays: Vec<usize> = (0..forest.nodes.len())
        .filter(|&i| forest.nodes[i].phase == Phase::Replay)
        .collect();
    replays.sort_by_key(|&i| {
        let node = &forest.nodes[i];
        (
            std::cmp::Reverse(node.duration_us()),
            node.start_us,
            node.worker,
        )
    });
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<8} {:>8} {:>12} {:>12} {:<16}",
        "worker", "span", "start_us", "sim_us", "under"
    );
    for &i in replays.iter().take(n) {
        let node = &forest.nodes[i];
        let under = node
            .parent
            .map(|p| enclosing_major(&forest, p))
            .unwrap_or("-");
        let _ = writeln!(
            out,
            "{:<8} {:>8} {:>12} {:>12} {:<16}",
            node.worker.map_or("main".to_string(), |w| format!("w{w}")),
            node.id,
            node.start_us,
            node.duration_us(),
            under
        );
    }
    out
}

/// Walk ancestors until a non-micro phase names the Fig. 3 step.
fn enclosing_major(forest: &SpanForest, mut idx: usize) -> &'static str {
    loop {
        let node = &forest.nodes[idx];
        if !node.phase.is_micro() {
            return node.phase.name();
        }
        match node.parent {
            Some(p) => idx = p,
            None => return node.phase.name(),
        }
    }
}

fn render_tree(forest: &SpanForest) -> String {
    fn walk(forest: &SpanForest, idx: usize, depth: usize, out: &mut String) {
        let node = &forest.nodes[idx];
        let _ = writeln!(
            out,
            "{:indent$}{} #{}{} [{} .. {}] {} us",
            "",
            node.phase.name(),
            node.id,
            node.worker.map_or(String::new(), |w| format!(" w{w}")),
            node.start_us,
            node.end_us.map_or("?".to_string(), |e| e.to_string()),
            node.duration_us(),
            indent = depth * 2
        );
        for &c in &node.children {
            walk(forest, c, depth + 1, out);
        }
    }
    let mut out = String::new();
    for &r in &forest.roots {
        walk(forest, r, 0, &mut out);
    }
    out
}

fn render_critical(forest: &SpanForest) -> String {
    let mut out = String::new();
    for &root in &forest.roots {
        let path = critical_path(forest, root);
        let total = forest.nodes[root].duration_us();
        let mut chain = String::new();
        for (i, &idx) in path.iter().enumerate() {
            let node = &forest.nodes[idx];
            if i > 0 {
                chain.push_str(" -> ");
            }
            let _ = write!(
                chain,
                "{}#{}{} ({} us)",
                node.phase.name(),
                node.id,
                node.worker.map_or(String::new(), |w| format!("@w{w}")),
                node.duration_us()
            );
        }
        let _ = writeln!(out, "{total:>10} us  {chain}");
    }
    out
}

fn filter_lines(
    text: &str,
    phase: Option<&str>,
    worker: Option<u64>,
    event: Option<&str>,
) -> Result<String, String> {
    let mut out = String::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let fields = parse_object_line(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        let get = |k: &str| fields.iter().find(|(f, _)| f == k).map(|(_, v)| v);
        if let Some(p) = phase {
            if get("phase").and_then(JsonValue::as_str) != Some(p) {
                continue;
            }
        }
        if let Some(w) = worker {
            if get("worker").and_then(JsonValue::as_u64) != Some(w) {
                continue;
            }
        }
        if let Some(e) = event {
            if get("event").and_then(JsonValue::as_str) != Some(e) {
                continue;
            }
        }
        out.push_str(line);
        out.push('\n');
    }
    Ok(out)
}

/// Counter deltas and histogram-quantile shifts between two journals.
/// Empty string means the observable surfaces are identical. Event
/// streams are compared by length and first divergence so a same-seed
/// pair that differs anywhere is still caught.
fn render_diff(a: &ParsedJournal, b: &ParsedJournal) -> String {
    let mut out = String::new();
    let names: Vec<&String> = {
        let mut n: Vec<&String> = a.counters.iter().map(|(k, _)| k).collect();
        for (k, _) in &b.counters {
            if !n.contains(&k) {
                n.push(k);
            }
        }
        n
    };
    for name in names {
        let (va, vb) = (a.counter(name), b.counter(name));
        if va != vb {
            let _ = writeln!(
                out,
                "counter {name}: {va} -> {vb} ({:+})",
                vb as i128 - va as i128
            );
        }
    }

    let hist_names: Vec<&String> = {
        let mut n: Vec<&String> = a.hists.iter().map(|(k, _)| k).collect();
        for (k, _) in &b.hists {
            if !n.contains(&k) {
                n.push(k);
            }
        }
        n
    };
    let empty = liberate_obs::HistSnapshot::default();
    for name in hist_names {
        let ha = a.hist(name).unwrap_or(&empty);
        let hb = b.hist(name).unwrap_or(&empty);
        if ha == hb {
            continue;
        }
        let _ = writeln!(out, "hist {name}:");
        let _ = writeln!(out, "  count: {} -> {}", ha.count, hb.count);
        for (label, q) in [("p50", 0.50), ("p90", 0.90), ("p99", 0.99)] {
            let (qa, qb) = (ha.quantile(q), hb.quantile(q));
            if qa != qb {
                let _ = writeln!(out, "  {label}: {qa} -> {qb}");
            }
        }
        if ha.max != hb.max {
            let _ = writeln!(out, "  max: {} -> {}", ha.max, hb.max);
        }
    }

    if a.events.len() != b.events.len() {
        let _ = writeln!(
            out,
            "events: {} -> {} lines",
            a.events.len(),
            b.events.len()
        );
    } else if let Some(i) = (0..a.events.len()).find(|&i| a.events[i] != b.events[i]) {
        let _ = writeln!(out, "events: first divergence at index {i}");
        let _ = writeln!(out, "  a: {}", describe(&a.events[i]));
        let _ = writeln!(out, "  b: {}", describe(&b.events[i]));
    }
    out
}

fn describe(ev: &Event) -> String {
    format!(
        "t_us={} phase={} event={}{}",
        ev.t_us,
        ev.phase.map_or("null", Phase::name),
        ev.kind.name(),
        match &ev.kind {
            EventKind::SpanStart { id, .. } | EventKind::SpanEnd { id, .. } => format!(" id={id}"),
            _ => String::new(),
        }
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use liberate_obs::{to_jsonl, Journal};

    fn sample_text() -> String {
        let j = Journal::new();
        j.span_start(0, Phase::Detect);
        j.span_start(10, Phase::Replay);
        j.record(
            20,
            EventKind::ReplayFinished {
                replay: 1,
                bytes_sent: 100,
                server_bytes: 50,
                blocked: false,
            },
        );
        j.span_end(30, Phase::Replay);
        j.span_end(40, Phase::Detect);
        to_jsonl(&j)
    }

    #[test]
    fn top_ranks_replays_and_names_the_enclosing_phase() {
        let j = parse_journal(&sample_text()).unwrap();
        let out = render_top(&j, 5);
        assert!(out.contains("detect"), "{out}");
        assert!(out.lines().count() == 2, "{out}");
    }

    #[test]
    fn diff_reports_counter_and_hist_drift() {
        let a = parse_journal(&sample_text()).unwrap();
        let mut b = parse_journal(&sample_text()).unwrap();
        assert!(render_diff(&a, &b).is_empty());
        for c in b.counters.iter_mut() {
            if c.0 == "replays-executed" {
                c.1 += 2;
            }
        }
        let report = render_diff(&a, &b);
        assert!(
            report.contains("counter replays-executed: 0 -> 2 (+2)"),
            "{report}"
        );
    }

    #[test]
    fn filter_selects_matching_raw_lines() {
        let text = sample_text();
        let only = filter_lines(&text, Some("replay"), None, Some("span_end")).unwrap();
        assert_eq!(only.lines().count(), 1, "{only}");
        assert!(only.contains("\"event\":\"span_end\""));
    }

    /// A missing journal path must surface as a one-line error (which
    /// `main` maps to exit 2), never a panic, for every subcommand that
    /// loads a journal.
    #[test]
    fn missing_journal_is_a_friendly_one_line_error() {
        for cmd in ["summary", "hist", "top", "tree", "critical", "folded"] {
            let err = run(&[cmd.to_string(), "/nonexistent/j.jsonl".to_string()])
                .expect_err("missing file must error");
            assert!(err.contains("no journal at /nonexistent/j.jsonl"), "{err}");
            assert_eq!(err.lines().count(), 1, "one line, not a backtrace: {err}");
        }
        let err = run(&[
            "diff".to_string(),
            "/nonexistent/a.jsonl".to_string(),
            "/nonexistent/b.jsonl".to_string(),
        ])
        .expect_err("missing diff inputs must error");
        assert!(err.contains("no journal at"), "{err}");
    }

    /// A journal truncated mid-line (a crashed writer, a partial copy)
    /// must report the offending line number in a single-line error
    /// instead of panicking.
    #[test]
    fn truncated_journal_reports_the_line_and_errors_cleanly() {
        let text = sample_text();
        let cut = &text[..text.len() - 10];
        assert!(!cut.ends_with('\n'), "the cut must land mid-line");
        let path =
            std::env::temp_dir().join(format!("obs-query-trunc-{}.jsonl", std::process::id()));
        std::fs::write(&path, cut).unwrap();
        for cmd in ["summary", "tree", "top"] {
            let err = run(&[cmd.to_string(), path.display().to_string()])
                .expect_err("truncated journal must error");
            let last_line = cut.lines().count();
            assert!(err.contains(&format!("line {last_line}")), "{err}");
            assert_eq!(err.lines().count(), 1, "{err}");
        }
        std::fs::remove_file(&path).ok();
    }
}
