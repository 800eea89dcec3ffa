//! reactor-blocking: nothing on the reactor dispatch path may block the
//! host thread.
//!
//! The replay reactor runs thousands of flow tasks on one worker
//! thread: `Reactor::step` polls one task, and the next task runs once
//! it is done. A `std::thread::sleep`, a condvar `wait`, a channel
//! `recv`, or a thread `park` inside a `FlowTask::poll` body therefore
//! stalls *every* lane behind the current one — the simulated clock
//! does not move, it is the host that hangs. Waiting is expressed in
//! virtual time instead: return `TaskPoll::Pending(Wake::Timer(..))`
//! and let the driver advance the task's clock before its next poll.
//! This rule scans every method of an impl whose header names
//! `FlowTask` (task implementations and the scheduler generic over
//! them) and flags host-blocking call heads.

use crate::rules::{Finding, Rule, RuleCtx};

pub struct ReactorBlocking;

/// Host-blocking call heads. Matched as `name(` (method or free fn).
/// `lock()` is deliberately absent: journals and the shared flow table
/// take short mutex sections inside polls by design — the discipline for
/// those is LIB009's guard-lifetime rule, not a ban.
const BLOCKING: &[&str] = &[
    "sleep",
    "sleep_ms",
    "park",
    "park_timeout",
    "recv",
    "recv_timeout",
    "wait",
    "wait_timeout",
    "wait_while",
    "yield_now",
];

/// Spans (token-index ranges) of impl-block bodies whose header mentions
/// `FlowTask` — task impls (`impl FlowTask<S> for T`) and anything
/// generic over one (`impl<S, T: FlowTask<S>> Reactor<S, T>`).
fn flowtask_impl_bodies(toks: &[crate::lexer::Token]) -> Vec<(usize, usize)> {
    let mut spans = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if !toks[i].is("impl") {
            i += 1;
            continue;
        }
        let mut j = i + 1;
        let mut mentions = false;
        while j < toks.len() && !toks[j].is("{") {
            if toks[j].is("FlowTask") {
                mentions = true;
            }
            j += 1;
        }
        if j < toks.len() && mentions {
            let start = j;
            let mut depth = 0usize;
            while j < toks.len() {
                if toks[j].is("{") {
                    depth += 1;
                } else if toks[j].is("}") {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                j += 1;
            }
            spans.push((start, j.min(toks.len())));
        }
        i = j + 1;
    }
    spans
}

impl Rule for ReactorBlocking {
    fn name(&self) -> &'static str {
        "reactor-blocking"
    }

    fn code(&self) -> &'static str {
        "LIB015"
    }

    fn explain(&self) -> &'static str {
        "No host-blocking call (thread::sleep, condvar wait, channel recv, \
thread park/yield) may run on the reactor dispatch path: every method of \
an impl whose header names FlowTask executes with thousands of flow \
lanes queued on one worker thread, and blocking the host stalls all of \
them without moving the simulated clock. Express waiting in virtual \
time — return TaskPoll::Pending(Wake::Timer(..)) and let the driver \
advance the task's clock before its next poll. Suppress a proven \
exception with `// lint: allow(reactor-blocking)`."
    }

    fn applies(&self, rel_path: &str) -> bool {
        (rel_path.starts_with("crates/core/") || rel_path.starts_with("crates/bench/"))
            && !crate::rules::in_test_tree(rel_path)
    }

    fn check(&self, ctx: &RuleCtx<'_>) -> Vec<Finding> {
        let mut findings = Vec::new();
        let toks = ctx.tokens;
        for &(start, end) in &flowtask_impl_bodies(toks) {
            for fir in ctx.ir {
                if fir.body.is_none() || fir.start < start || fir.end > end + 1 {
                    continue;
                }
                for i in fir.start + 1..fir.end.min(toks.len()) {
                    if ctx.test_mask.get(i).copied().unwrap_or(false) {
                        continue;
                    }
                    let t = &toks[i];
                    let is_call = BLOCKING.contains(&t.text.as_str())
                        && toks.get(i + 1).is_some_and(|n| n.is("("))
                        && !(i > 0 && toks[i - 1].is("fn"));
                    if is_call {
                        findings.push(Finding {
                            line: t.line,
                            message: format!(
                                "host-blocking call `{}()` on the reactor dispatch path \
(`{}` is reachable from FlowTask polling); park in virtual time with \
TaskPoll::Pending(Wake::Timer(..)) instead of stalling every lane on this worker",
                                t.text, fir.name
                            ),
                            subject: Some(fir.name.clone()),
                        });
                    }
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
        run_rule(&ReactorBlocking, "crates/core/src/deploy/pool.rs", src)
    }

    #[test]
    fn thread_sleep_inside_poll_is_flagged() {
        let src = "impl FlowTask<SimSubstrate> for T { \
fn poll(&mut self, s: &mut Session) -> TaskPoll<u64> { \
std::thread::sleep(Duration::from_millis(5)); TaskPoll::Done(0) } }";
        let findings = run(src);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].message.contains("sleep"));
        assert!(findings[0].message.contains("Wake::Timer"));
    }

    #[test]
    fn timer_yield_instead_of_sleep_passes() {
        let src = "impl FlowTask<SimSubstrate> for T { \
fn poll(&mut self, s: &mut Session) -> TaskPoll<u64> { \
TaskPoll::Pending(Wake::Timer(Duration::from_millis(5))) } }";
        assert!(run(src).is_empty());
    }

    #[test]
    fn condvar_wait_in_task_helper_is_flagged() {
        let src = "impl FlowTask<SimSubstrate> for T { \
fn poll(&mut self, s: &mut Session) -> TaskPoll<u64> { self.sync() } \
fn sync(&self) -> TaskPoll<u64> { \
let g = self.cv.wait(self.state.lock()); TaskPoll::Done(g.id) } }";
        let findings = run(src);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].message.contains("wait"));
    }

    #[test]
    fn channel_recv_in_scheduler_generic_over_flowtask_is_flagged() {
        let src = "impl<S: Substrate, T: FlowTask<S>> Reactor<S, T> { \
fn drain(&mut self) { let msg = self.rx.recv(); } }";
        let findings = run(src);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].message.contains("recv"));
    }

    #[test]
    fn sleep_outside_any_flowtask_impl_is_ignored() {
        let src = "impl Harness { fn settle(&self) { \
std::thread::sleep(Duration::from_millis(5)); } }";
        assert!(run(src).is_empty());
    }

    #[test]
    fn blocking_names_as_fn_definitions_pass() {
        let src = "impl FlowTask<SimSubstrate> for T { \
fn poll(&mut self, s: &mut Session) -> TaskPoll<u64> { TaskPoll::Done(0) } \
fn recv(&self) -> u64 { 7 } }";
        assert!(run(src).is_empty());
    }

    #[test]
    fn lock_inside_poll_is_not_this_rules_business() {
        let src = "impl FlowTask<SimSubstrate> for T { \
fn poll(&mut self, s: &mut Session) -> TaskPoll<u64> { \
let n = self.shared.lock().len(); TaskPoll::Done(n as u64) } }";
        assert!(run(src).is_empty());
    }

    #[test]
    fn test_masked_sleep_is_skipped() {
        let src = "impl FlowTask<SimSubstrate> for T { \
fn poll(&mut self, s: &mut Session) -> TaskPoll<u64> { TaskPoll::Done(0) } } \
#[cfg(test)] mod t { fn f() { std::thread::sleep(d); } }";
        assert!(run(src).is_empty());
    }
}
