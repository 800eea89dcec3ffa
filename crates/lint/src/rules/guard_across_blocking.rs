//! guard-across-blocking: no lock guard may be live across blocking work.
//!
//! The workspace's concurrency layers (SessionPool waves, DeploymentPool
//! flows, journal JSONL export) all follow one discipline: take a lock,
//! copy what you need, release, *then* do the slow thing. A Mutex/RwLock
//! or shard guard held across a wave (`run_wave`, `run_wave_tasks`,
//! `run_flow_wave`, `run_flows`), a replay, a JSONL export, or a
//! channel send/recv turns a microsecond critical section into one that
//! spans milliseconds of simulated work — and, for the flow-table locks,
//! into a real deadlock when the blocked work re-enters the table. This
//! rule walks the guard-lifetime dataflow and flags every blocking call
//! that happens while any guard is live, except calls *on the guarded
//! object itself* (flushing a mutex-protected writer necessarily holds
//! its lock).

use crate::dataflow::receiver_idents;
use crate::rules::{Finding, Rule, RuleCtx};

pub struct GuardAcrossBlocking;

/// Calls that block or expand to unbounded simulated work. Matched as
/// `name(` call heads (method or free fn).
const BLOCKING: &[&str] = &[
    "run_wave",
    "run_wave_tasks",
    "run_flow_wave",
    "run_flows",
    "replay_schedule",
    "replay_trace",
    "to_jsonl",
    "validate_jsonl",
    "flush",
    "send",
    "recv",
];

impl Rule for GuardAcrossBlocking {
    fn name(&self) -> &'static str {
        "guard-across-blocking"
    }

    fn code(&self) -> &'static str {
        "LIB009"
    }

    fn explain(&self) -> &'static str {
        "A Mutex/RwLock/shard guard must not be live across blocking work: \
a wave (SessionPool::run_wave/run_wave_tasks/run_flow_wave, \
DeploymentPool::run_flows), replay_schedule/replay_trace, JSONL export \
(to_jsonl/validate_jsonl/flush), or channel send/recv. Holding a guard \
across such a call serializes every other worker on a critical section \
that now spans milliseconds of simulated traffic, and deadlocks outright \
if the blocked work re-acquires the same lock (DeploymentPool workers \
re-enter the flow table during replay). Copy what you need out of the \
guard, drop it (explicitly or by scope), then do the slow work. Calls on \
the guarded binding itself are exempt — flushing a lock-protected writer \
necessarily holds its lock. Suppress a proven exception with \
`// lint: allow(guard-across-blocking)`."
    }

    fn applies(&self, rel_path: &str) -> bool {
        (rel_path.starts_with("crates/core/")
            || rel_path.starts_with("crates/dpi/")
            || rel_path.starts_with("crates/obs/")
            || rel_path.starts_with("crates/netsim/"))
            && !crate::rules::in_test_tree(rel_path)
    }

    fn check(&self, ctx: &RuleCtx<'_>) -> Vec<Finding> {
        let mut findings = Vec::new();
        let toks = ctx.tokens;
        for fg in ctx.guards {
            for r in &fg.ranges {
                let hi = r.end.min(toks.len());
                let mut i = r.start + 1;
                while i < hi {
                    if fg.in_nested_fn(i) || ctx.test_mask.get(i).copied().unwrap_or(false) {
                        i += 1;
                        continue;
                    }
                    let t = &toks[i];
                    let is_call = BLOCKING.contains(&t.text.as_str())
                        && toks.get(i + 1).is_some_and(|n| n.is("("))
                        && !(i > 0 && toks[i - 1].is("fn"));
                    if !is_call {
                        i += 1;
                        continue;
                    }
                    // A blocking call on the guard itself is the reason
                    // the guard exists (e.g. flushing a locked writer).
                    if let Some(name) = &r.binding {
                        let on_guard = i >= 2
                            && toks[i - 1].is(".")
                            && receiver_idents(toks, i - 2).first() == Some(name);
                        if on_guard {
                            i += 1;
                            continue;
                        }
                    } else if r.start <= i && i < r.end {
                        // A temporary's own expression chain
                        // (`x.lock().flush()`) is the same exemption.
                        let mut chained = false;
                        let mut j = r.acq.at;
                        while j < i {
                            if toks[j].is(";") {
                                break;
                            }
                            j += 1;
                        }
                        if j == i {
                            chained = true;
                        }
                        if chained {
                            i += 1;
                            continue;
                        }
                    }
                    let held = r.binding.as_deref().unwrap_or("<temporary>");
                    findings.push(Finding {
                        line: t.line,
                        message: format!(
                            "blocking call `{}()` while guard `{}` (acquired via \
`{}()` at line {}) is still live; copy out of the guard and drop it first",
                            t.text, held, r.acq.method, r.acq.line
                        ),
                        subject: Some(fg.fn_name.clone()),
                    });
                    i += 1;
                }
            }
        }
        findings
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::run_rule;

    fn run(src: &str) -> Vec<Finding> {
        run_rule(&GuardAcrossBlocking, "crates/core/src/deploy/pool.rs", src)
    }

    #[test]
    fn guard_live_across_run_wave_is_flagged() {
        let src = "fn f(&self) { let state = self.state.lock(); \
let reports = self.pool.run_wave(jobs, &exec); drop(state); }";
        let findings = run(src);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].message.contains("run_wave"));
        assert!(findings[0].message.contains("`state`"));
    }

    #[test]
    fn guard_live_across_task_and_flow_waves_is_flagged() {
        for call in [
            "pool.run_wave_tasks(tasks)",
            "self.pool.run_flows(&trace, 8)",
        ] {
            let src = format!("fn f(&self) {{ let state = self.state.lock(); {call}; }}");
            let findings = run(&src);
            assert_eq!(findings.len(), 1, "{call}: {findings:?}");
        }
    }

    #[test]
    fn dropping_the_guard_before_the_wave_passes() {
        let src = "fn f(&self) { let state = self.state.lock(); \
let plan = state.plan.clone(); drop(state); \
let reports = self.pool.run_wave(plan, &exec); }";
        assert!(run(src).is_empty());
    }

    #[test]
    fn guard_scoped_out_before_replay_passes() {
        let src = "fn f(&self) { let plan = { let s = self.state.lock(); \
s.plan.clone() }; session.replay_schedule(trace, &plan, &opts); }";
        assert!(run(src).is_empty());
    }

    #[test]
    fn shard_guard_across_replay_is_flagged() {
        let src = "fn f(&self) { let shard = table.shard(key); \
session.replay_schedule(trace, &schedule, &opts); }";
        let findings = run(src);
        assert_eq!(findings.len(), 1);
        assert!(findings[0].message.contains("replay_schedule"));
    }

    #[test]
    fn flush_on_the_guard_itself_is_exempt() {
        let src = "fn f(&self) { let mut w = self.inner.lock(); w.flush(); }";
        assert!(run(src).is_empty());
    }

    #[test]
    fn flush_chained_on_a_temporary_is_exempt() {
        let src = "fn f(&self) { self.inner.lock().flush(); }";
        assert!(run(src).is_empty());
    }

    #[test]
    fn flush_on_something_else_under_a_guard_is_flagged() {
        let src = "fn f(&self) { let g = self.state.lock(); self.out.flush(); }";
        assert_eq!(run(src).len(), 1);
    }

    #[test]
    fn send_inside_nested_fn_does_not_leak_to_parent_guard() {
        let src = "fn outer(&self) { let g = self.state.lock(); \
fn helper(tx: &Sender) { tx.send(1); } finish(g); }";
        assert!(run(src).is_empty());
    }

    #[test]
    fn blocking_definitions_are_not_calls() {
        let src = "fn run_wave(&self) { let g = self.state.lock(); g.step(); }";
        assert!(run(src).is_empty());
    }

    #[test]
    fn test_masked_blocking_calls_are_skipped() {
        let src = "#[cfg(test)] mod t { fn f() { let g = state.lock(); \
pool.run_wave(jobs, &exec); } }";
        assert!(run(src).is_empty());
    }
}
