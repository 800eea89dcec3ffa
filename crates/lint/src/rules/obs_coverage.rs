//! obs-coverage: every journal event emitted must move a metrics counter.
//!
//! PR 2's observability contract pairs the two surfaces deliberately:
//! the journal answers "what happened, in order" and the counters answer
//! "how much, cheaply". An `EventKind` emission with no counter increment
//! in the same function gives dashboards a blind spot — the event stream
//! shows activity the summary table cannot corroborate. This rule finds
//! every `record`-family call carrying an `EventKind::Variant` and checks
//! that the enclosing function also touches the variant's paired
//! `Counter`. Lifecycle/span variants with no meaningful rate are exempt
//! by the pairing table itself.

use crate::rules::{Finding, Rule, RuleCtx};

pub struct ObsCoverage;

/// EventKind variant → the Counter its emitter must increment. `None`
/// means the variant is lifecycle/span plumbing with no paired rate.
const PAIRING: &[(&str, Option<&str>)] = &[
    ("SpanStart", None),
    ("SpanEnd", None),
    ("SessionStarted", None),
    ("PacketInjected", Some("PacketsInjected")),
    ("ClassifierVerdict", Some("Verdicts")),
    ("FlowReset", Some("FlowResets")),
    ("CacheHit", Some("CacheHits")),
    ("CacheMiss", Some("CacheMisses")),
    ("TechniqueTried", Some("TechniquesTried")),
    ("ReplayFinished", Some("ReplaysExecuted")),
    ("RuleSwap", Some("RuleSwaps")),
    ("TechniquePublished", Some("RecharacterizeWaves")),
    ("FallbackEngaged", Some("FallbackParks")),
];

/// Hist variant → the Counter counting the same activity. A histogram
/// observed without its rate counter has the same blind-spot problem as
/// an unpaired event: quantiles with no corroborating count. `None`
/// marks distribution-only histograms (occupancy, rounds, per-phase
/// span durations) whose "rate" is the span structure itself.
const HIST_PAIRING: &[(&str, Option<&str>)] = &[
    ("DetectSimMicros", None),
    ("BlindSearchSimMicros", None),
    ("PositionProbeSimMicros", None),
    ("EvaluateSimMicros", None),
    ("DeploySimMicros", None),
    ("WaveSimMicros", None),
    ("ReplaySimMicros", None),
    ("ReplayHostMicros", Some("ReplaysExecuted")),
    ("WaveOccupancy", None),
    ("FlowBytesScanned", Some("FlowsEvicted")),
    ("BlindRounds", None),
    ("InjectBytes", Some("PacketsInjected")),
    ("StepSimMicros", Some("PacketsStepped")),
    ("ReactorTickMicros", Some("ReactorTicks")),
];

/// How far back to look for the call head enclosing an emission.
const CALLEE_SCAN_TOKENS: usize = 60;

impl Rule for ObsCoverage {
    fn name(&self) -> &'static str {
        "obs-coverage"
    }

    fn code(&self) -> &'static str {
        "LIB011"
    }

    fn explain(&self) -> &'static str {
        "Every EventKind variant passed to a record-family call must be \
paired, in the same function, with an increment of its designated Metrics \
counter (PacketInjected↔PacketsInjected, ClassifierVerdict↔Verdicts, \
CacheHit↔CacheHits, and so on — see the pairing table in the rule source). \
The journal and the counters are two views of one activity stream; an \
event emitted without its counter leaves summary dashboards unable to \
corroborate what the journal shows, and the drift is invisible until \
someone diffs the two by hand. The same contract covers histograms: a \
`Hist::Variant` passed to an observe-family call must sit next to the \
Counter tracking the same activity (InjectBytes↔PacketsInjected, \
FlowBytesScanned↔FlowsEvicted, ReplayHostMicros↔ReplaysExecuted) unless \
the pairing table marks it distribution-only. Either increment the \
paired counter next to the emission, or — for a variant that genuinely \
has no rate — suppress with `// lint: allow(obs-coverage: <Variant>)` \
and say why. New EventKind and Hist variants must be added to the \
pairing tables when introduced."
    }

    fn applies(&self, rel_path: &str) -> bool {
        rel_path.starts_with("crates/") && !crate::rules::in_test_tree(rel_path)
    }

    fn check(&self, ctx: &RuleCtx<'_>) -> Vec<Finding> {
        let mut findings = Vec::new();
        check_namespace(
            ctx,
            &mut findings,
            "EventKind",
            PAIRING,
            "record",
            "lifecycle",
        );
        check_namespace(
            ctx,
            &mut findings,
            "Hist",
            HIST_PAIRING,
            "observe",
            "distribution-only",
        );
        findings
    }
}

/// Scan one enum namespace (`EventKind` via record-family calls, `Hist`
/// via observe-family calls) against its pairing table.
fn check_namespace(
    ctx: &RuleCtx<'_>,
    findings: &mut Vec<Finding>,
    namespace: &str,
    pairing: &[(&str, Option<&str>)],
    callee_needle: &str,
    exempt_word: &str,
) {
    let toks = ctx.tokens;
    for i in 0..toks.len() {
        if !toks[i].is(namespace)
            || !toks.get(i + 1).is_some_and(|t| t.is(":"))
            || !toks.get(i + 2).is_some_and(|t| t.is(":"))
        {
            continue;
        }
        let Some(variant_tok) = toks.get(i + 3) else {
            continue;
        };
        if ctx.test_mask.get(i).copied().unwrap_or(false) {
            continue;
        }
        if !is_emission(toks, i, callee_needle) {
            continue;
        }
        let variant = variant_tok.text.as_str();
        // `Hist::for_phase(..)` and friends are associated functions,
        // not variants — variants are CamelCase.
        if !variant.starts_with(|c: char| c.is_ascii_uppercase()) {
            continue;
        }
        let Some((_, paired)) = pairing.iter().find(|(v, _)| *v == variant) else {
            findings.push(Finding {
                line: variant_tok.line,
                message: format!(
                    "{namespace}::{variant} is not in the obs-coverage pairing \
table; add it with its Counter (or None for {exempt_word} entries)"
                ),
                subject: Some(variant.to_string()),
            });
            continue;
        };
        let Some(counter) = paired else {
            continue;
        };
        let Some(f) = ctx
            .ir
            .iter()
            .filter(|f| f.contains(i))
            .max_by_key(|f| f.start)
        else {
            continue;
        };
        let increments = (f.start..f.end.min(toks.len())).any(|j| {
            toks[j].is("Counter")
                && toks.get(j + 1).is_some_and(|t| t.is(":"))
                && toks.get(j + 2).is_some_and(|t| t.is(":"))
                && toks.get(j + 3).is_some_and(|t| t.is(counter))
        });
        if !increments {
            findings.push(Finding {
                line: variant_tok.line,
                message: format!(
                    "{namespace}::{variant} emitted in `{}` without incrementing \
Counter::{counter} in the same function",
                    f.name
                ),
                subject: Some(variant.to_string()),
            });
        }
    }
}

/// Is the enum token at `i` an argument of an emitting call (callee name
/// containing `callee_needle` — "record" for events, "observe" for
/// histograms)? Walks back to the unmatched `(` opening the current
/// argument list and checks the callee name. Match arms and struct
/// definitions sit inside braces, not an argument list, so they never
/// qualify.
fn is_emission(toks: &[crate::lexer::Token], i: usize, callee_needle: &str) -> bool {
    let mut depth = 0i32;
    let lo = i.saturating_sub(CALLEE_SCAN_TOKENS);
    let mut j = i;
    while j > lo {
        j -= 1;
        let t = &toks[j];
        if t.is(")") {
            depth += 1;
        } else if t.is("(") {
            if depth == 0 {
                return j > 0 && toks[j - 1].text.contains(callee_needle);
            }
            depth -= 1;
        } else if t.is(";") {
            return false;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::run_rule;

    fn run(src: &str) -> Vec<Finding> {
        run_rule(&ObsCoverage, "crates/netsim/src/network.rs", src)
    }

    #[test]
    fn emission_without_counter_is_flagged() {
        let src = "fn inject(&mut self) { \
self.journal.record(at, EventKind::PacketInjected { bytes: 1 }); }";
        let findings = run(src);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].message.contains("PacketsInjected"));
        assert_eq!(findings[0].subject.as_deref(), Some("PacketInjected"));
    }

    #[test]
    fn emission_with_counter_in_same_fn_passes() {
        let src = "fn inject(&mut self) { \
self.journal.metrics.incr(Counter::PacketsInjected); \
self.journal.record(at, EventKind::PacketInjected { bytes: 1 }); }";
        assert!(run(src).is_empty());
    }

    #[test]
    fn counter_in_a_different_fn_does_not_count() {
        let src = "fn other(&mut self) { m.incr(Counter::PacketsInjected); } \
fn inject(&mut self) { \
self.journal.record(at, EventKind::PacketInjected { bytes: 1 }); }";
        assert_eq!(run(src).len(), 1);
    }

    #[test]
    fn lifecycle_variants_are_exempt() {
        let src = "fn start(&self) { \
self.journal.record(t, EventKind::SessionStarted { env: e, seed: s }); }";
        assert!(run(src).is_empty(), "{:?}", run(src));
    }

    #[test]
    fn match_arms_are_consumption_not_emission() {
        let src = "fn summarize(ev: &Event) { match ev.kind { \
EventKind::PacketInjected { bytes } => total += bytes, \
EventKind::FlowReset => resets += 1, _ => {} } }";
        assert!(run(src).is_empty(), "{:?}", run(src));
    }

    #[test]
    fn record_helper_names_count_as_emitters() {
        let src = "fn reset(&mut self) { self.journal_incr(Counter::FlowResets); \
self.journal_record(now, EventKind::FlowReset); }";
        assert!(run(src).is_empty(), "{:?}", run(src));
    }

    #[test]
    fn unknown_variant_demands_a_pairing_entry() {
        let src = "fn f(&self) { j.record(t, EventKind::BrandNewThing { x: 1 }); }";
        let findings = run(src);
        assert_eq!(findings.len(), 1);
        assert!(findings[0].message.contains("pairing table"));
    }

    #[test]
    fn test_masked_emissions_are_skipped() {
        let src = "#[cfg(test)] mod t { fn f() { \
j.record(1, EventKind::PacketInjected { bytes: 2 }); } }";
        assert!(run(src).is_empty());
    }

    #[test]
    fn hist_observe_without_counter_is_flagged() {
        let src = "fn inject(&mut self) { \
self.journal.observe(Hist::InjectBytes, wire.len() as u64); }";
        let findings = run(src);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].message.contains("PacketsInjected"));
        assert_eq!(findings[0].subject.as_deref(), Some("InjectBytes"));
    }

    #[test]
    fn hist_observe_with_counter_in_same_fn_passes() {
        let src = "fn inject(&mut self) { \
self.journal.metrics.incr(Counter::PacketsInjected); \
self.journal.observe(Hist::InjectBytes, wire.len() as u64); }";
        assert!(run(src).is_empty(), "{:?}", run(src));
    }

    #[test]
    fn distribution_only_hists_are_exempt() {
        let src = "fn wave_open(&self, n: usize) { \
self.journal.observe(Hist::WaveOccupancy, n as u64); }";
        assert!(run(src).is_empty(), "{:?}", run(src));
    }

    #[test]
    fn hist_match_arms_are_consumption_not_emission() {
        let src = "fn label(h: Hist) -> &'static str { match h { \
Hist::InjectBytes => \"inject\", _ => \"other\" } }";
        assert!(run(src).is_empty(), "{:?}", run(src));
    }

    #[test]
    fn unknown_hist_variant_demands_a_pairing_entry() {
        let src = "fn f(&self) { j.observe(Hist::BrandNewTiming, 7); }";
        let findings = run(src);
        assert_eq!(findings.len(), 1);
        assert!(
            findings[0].message.contains("pairing table"),
            "{findings:?}"
        );
    }
}
