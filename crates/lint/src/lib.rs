//! liberate-lint: dependency-free domain-invariant static analysis for
//! the lib·erate workspace.
//!
//! The Rust compiler enforces memory safety; these rules enforce the
//! *paper's* invariants — the properties that make a differentiation
//! verdict or an evasion schedule trustworthy but that no type system
//! sees:
//!
//! - **checksum-repair** — byte-mutating fns repair TCP/IP checksums (or
//!   declare the corruption intentional).
//! - **taxonomy-exhaustiveness** — every `Technique` variant is handled
//!   in every Table 3 query fn, with no `_ =>` wildcards.
//! - **determinism** — no wall clock or ambient RNG in the simulator and
//!   DPI models.
//! - **no-panic** — library crates report errors via `LiberateError`,
//!   never by unwinding.
//! - **pcap-byte-order** — wire headers and pcap records are serialized
//!   via `to_be_bytes`/`to_le_bytes`, never hand-assembled with shifts.
//!
//! The concurrency pack (PR 6) runs on a statement-level IR with
//! guard-lifetime dataflow ([`ir`], [`dataflow`]) instead of flat token
//! windows:
//!
//! - **flowtable-lock-ordering** — shard/penalty-box locks nest in the
//!   declared order, now seeing destructured and helper-returned guards.
//! - **guard-across-blocking** — no lock guard live across a wave,
//!   replay, JSONL export, or channel send/recv.
//! - **generation-discipline** — `PublishedState` generations written
//!   only by `publish` and compared only monotonically.
//! - **obs-coverage** — every journal event emission increments its
//!   paired metrics counter in the same function.
//!
//! Each rule also carries a stable `LIBnnn` code for CI diffing.
//!
//! Suppression: `// lint: allow(<rule>)` within two lines above (or on)
//! the flagged line, or `// lint: allow(<rule>: <subject>)` anywhere in
//! the file to suppress findings about one named fn or variant. An allow
//! that no longer suppresses anything is itself flagged (**unused-allow**,
//! the engine-level meta-check) so stale suppressions cannot rot in
//! place.

pub mod dataflow;
pub mod diag;
pub mod ir;
pub mod items;
pub mod lexer;
pub mod rules;

use std::fs;
use std::path::{Path, PathBuf};

pub use diag::{to_json, Diagnostic};
use lexer::Allow;
use rules::{Rule, RuleCtx};

/// How many lines above a finding a detail-less allow annotation reaches.
const ALLOW_REACH_LINES: u32 = 2;

/// Name and code of the engine-level meta-check for stale allows.
pub const UNUSED_ALLOW_RULE: &str = "unused-allow";
pub const UNUSED_ALLOW_CODE: &str = "LIB012";

/// Lint a single source text as if it lived at `rel_path` in the
/// workspace. This is the unit the fixture tests drive.
pub fn lint_source(rel_path: &str, source: &str) -> Vec<Diagnostic> {
    lint_source_with(&rules::all(), rel_path, source)
}

fn lint_source_with(active: &[Box<dyn Rule>], rel_path: &str, source: &str) -> Vec<Diagnostic> {
    let lexed = lexer::lex(source);
    let mask = items::test_mask(&lexed.tokens);
    let fn_ir = ir::lower(&lexed.tokens);
    let guards = dataflow::analyze(&lexed.tokens, &fn_ir);
    let ctx = RuleCtx {
        rel_path,
        tokens: &lexed.tokens,
        test_mask: &mask,
        ir: &fn_ir,
        guards: &guards,
    };
    let mut out = Vec::new();
    let mut used = vec![false; lexed.allows.len()];
    for rule in active {
        if !rule.applies(rel_path) {
            continue;
        }
        for finding in rule.check(&ctx) {
            if let Some(k) = suppressing_allow(rule.name(), &finding, &lexed.allows) {
                used[k] = true;
                continue;
            }
            out.push(Diagnostic {
                rule: rule.name(),
                code: rule.code(),
                file: rel_path.to_string(),
                line: finding.line,
                message: finding.message,
            });
        }
    }
    // Meta-check: an allow naming a registered rule that applies to this
    // file, yet suppressing nothing, is stale and must be deleted (or the
    // violation it once covered has returned elsewhere). Allows naming
    // unregistered rules are ignored — prose in doc comments may quote
    // the annotation syntax without being one.
    for (k, a) in lexed.allows.iter().enumerate() {
        if used[k] {
            continue;
        }
        let Some(rule) = active.iter().find(|r| r.name() == a.rule) else {
            continue;
        };
        if !rule.applies(rel_path) {
            continue;
        }
        let meta = rules::Finding {
            line: a.line,
            message: String::new(),
            subject: Some(a.rule.clone()),
        };
        if suppressing_allow(UNUSED_ALLOW_RULE, &meta, &lexed.allows).is_some() {
            continue;
        }
        out.push(Diagnostic {
            rule: UNUSED_ALLOW_RULE,
            code: UNUSED_ALLOW_CODE,
            file: rel_path.to_string(),
            line: a.line,
            message: format!(
                "allow({}{}) suppresses nothing; delete it or re-justify it",
                a.rule,
                a.detail
                    .as_deref()
                    .map(|d| format!(": {d}"))
                    .unwrap_or_default()
            ),
        });
    }
    out
}

/// The index of the allow annotation covering this finding, if any.
fn suppressing_allow(rule: &str, finding: &rules::Finding, allows: &[Allow]) -> Option<usize> {
    allows.iter().position(|a| {
        if a.rule != rule {
            return false;
        }
        match (&a.detail, &finding.subject) {
            // Detail allows are file-wide but bind to one subject.
            (Some(detail), Some(subject)) => detail == subject,
            (Some(_), None) => false,
            // Point allows cover the annotated line and the next few,
            // so the comment sits directly above the flagged code.
            (None, _) => finding.line >= a.line && finding.line - a.line <= ALLOW_REACH_LINES,
        }
    })
}

/// Lint every `.rs` file of the workspace rooted at `root`.
///
/// Skips `target/`, `.git/`, and `vendor/` (registry stand-ins, not
/// workspace code). Diagnostics come back sorted by file, line, rule.
pub fn lint_workspace(root: &Path) -> Result<Vec<Diagnostic>, String> {
    let active = rules::all();
    let mut files = Vec::new();
    collect_rs_files(root, root, &mut files)?;
    files.sort();
    let mut out = Vec::new();
    for rel in files {
        // Cheap pre-filter: skip files no rule looks at.
        if !active.iter().any(|r| r.applies(&rel)) {
            continue;
        }
        let abs = root.join(&rel);
        let source = fs::read_to_string(&abs)
            .map_err(|e| format!("failed to read {}: {e}", abs.display()))?;
        out.extend(lint_source_with(&active, &rel, &source));
    }
    out.sort_by(|a, b| (a.file.as_str(), a.line, a.rule).cmp(&(b.file.as_str(), b.line, b.rule)));
    Ok(out)
}

const SKIP_DIRS: &[&str] = &["target", ".git", "vendor"];

fn collect_rs_files(root: &Path, dir: &Path, out: &mut Vec<String>) -> Result<(), String> {
    let entries =
        fs::read_dir(dir).map_err(|e| format!("failed to list {}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("walk error under {}: {e}", dir.display()))?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_ref()) || name.starts_with('.') {
                continue;
            }
            collect_rs_files(root, &path, out)?;
        } else if name.ends_with(".rs") {
            out.push(rel_unix_path(root, &path));
        }
    }
    Ok(())
}

/// `root`-relative path with forward slashes, for stable diagnostics
/// across platforms.
fn rel_unix_path(root: &Path, path: &Path) -> String {
    let rel: PathBuf = path.strip_prefix(root).unwrap_or(path).to_path_buf();
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy().into_owned())
        .collect::<Vec<_>>()
        .join("/")
}

/// Rationale text for `liberate-lint explain <rule>`, or `None` for an
/// unknown rule name.
pub fn explain(rule: &str) -> Option<String> {
    if rule == UNUSED_ALLOW_RULE {
        return Some(
            "Engine-level meta-check: a `// lint: allow(<rule>)` annotation naming a registered rule that applies to its file must suppress at least one finding. An allow that suppresses nothing is stale — the violation it covered was fixed or moved — and stale allows are how real violations sneak back in unreviewed. Delete the annotation, or suppress the meta-check itself for a deliberately-kept annotation with `// lint: allow(unused-allow: <rule>)`."
                .to_string(),
        );
    }
    rules::all()
        .iter()
        .find(|r| r.name() == rule)
        .map(|r| r.explain().to_string())
}

/// The stable code for a rule name (`LIBnnn`), including the meta-check.
pub fn rule_code(rule: &str) -> Option<&'static str> {
    if rule == UNUSED_ALLOW_RULE {
        return Some(UNUSED_ALLOW_CODE);
    }
    rules::all()
        .iter()
        .find(|r| r.name() == rule)
        .map(|r| r.code())
}

/// The registered rule names, for `explain` error messages and docs.
pub fn rule_names() -> Vec<&'static str> {
    rules::all().iter().map(|r| r.name()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_has_the_fourteen_rules() {
        assert_eq!(
            rule_names(),
            vec![
                "checksum-repair",
                "taxonomy-exhaustiveness",
                "determinism",
                "flowtable-lock-ordering",
                "guard-across-blocking",
                "generation-discipline",
                "no-panic",
                "obs-coverage",
                "overhead-consistency",
                "payload-copy",
                "pcap-byte-order",
                "reactor-blocking",
                "simtime-monotonicity",
                "substrate-seam"
            ]
        );
        for name in rule_names() {
            let text = explain(name).expect("every rule explains itself");
            assert!(text.len() > 80, "{name} explanation too thin");
        }
        assert!(explain("not-a-rule").is_none());
        assert!(explain(UNUSED_ALLOW_RULE).is_some());
    }

    #[test]
    fn rule_codes_are_stable_and_unique() {
        let mut codes: Vec<&str> = rule_names()
            .iter()
            .map(|n| rule_code(n).expect("every rule has a code"))
            .collect();
        codes.push(rule_code(UNUSED_ALLOW_RULE).unwrap());
        assert_eq!(codes.len(), 15);
        let mut deduped = codes.clone();
        deduped.sort();
        deduped.dedup();
        assert_eq!(deduped.len(), codes.len(), "duplicate codes: {codes:?}");
        assert!(codes.iter().all(|c| c.starts_with("LIB") && c.len() == 6));
        assert_eq!(rule_code("flowtable-lock-ordering"), Some("LIB006"));
        assert_eq!(rule_code("not-a-rule"), None);
    }

    #[test]
    fn unused_allow_is_flagged() {
        // The allow names a registered, applicable rule but nothing in
        // the file violates it.
        let src = "// lint: allow(no-panic)\nfn fine() -> u8 { 1 }\n";
        let diags = lint_source("crates/core/src/x.rs", src);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].rule, "unused-allow");
        assert_eq!(diags[0].code, "LIB012");
        assert_eq!(diags[0].line, 1);
    }

    #[test]
    fn used_allow_is_not_flagged() {
        let src = "// lint: allow(no-panic) contract: caller checked\n\
fn f() { panic!() }\n";
        let diags = lint_source("crates/core/src/x.rs", src);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn allow_for_inapplicable_rule_is_not_meta_flagged() {
        // pcap-byte-order does not scan crates/core, so an allow naming
        // it there is inert prose, not a stale suppression.
        let src = "// lint: allow(pcap-byte-order)\nfn fine() -> u8 { 1 }\n";
        let diags = lint_source("crates/core/src/x.rs", src);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn allow_for_unregistered_rule_is_ignored() {
        // Doc prose quoting the annotation syntax must not trip the
        // meta-check (tests/lint_gate.rs quotes `lint: allow(<rule>)`).
        let src = "// lint: allow(<rule>)\nfn fine() -> u8 { 1 }\n";
        let diags = lint_source("crates/core/src/x.rs", src);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn unused_allow_can_itself_be_allowed() {
        let src = "// lint: allow(unused-allow: no-panic) kept for the template\n\
// lint: allow(no-panic)\nfn fine() -> u8 { 1 }\n";
        let diags = lint_source("crates/core/src/x.rs", src);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn point_allow_suppresses_nearby_finding() {
        let src = "\
// lint: allow(no-panic) contract: caller constructed the packet as TCP
fn tcp_mut(&mut self) { panic!(\"not tcp\") }

fn naked() {
    panic!(\"boom\")
}
";
        let diags = lint_source("crates/packet/src/packet.rs", src);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].line, 5);
    }

    #[test]
    fn point_allow_does_not_reach_far() {
        let src = "// lint: allow(no-panic)\n\n\n\nfn f() { panic!() }\n";
        let diags = lint_source("crates/core/src/x.rs", src);
        // The panic is reported AND the out-of-reach allow is now stale.
        assert_eq!(diags.len(), 2, "{diags:?}");
        assert!(diags.iter().any(|d| d.rule == "no-panic" && d.line == 5));
        assert!(diags
            .iter()
            .any(|d| d.rule == "unused-allow" && d.line == 1));
    }

    #[test]
    fn detail_allow_is_file_wide_but_subject_bound() {
        let src = "\
// lint: allow(checksum-repair: blind) deliberate corruption
fn other(w: &mut [u8]) { w[0] = 1; }
fn blind(w: &mut [u8]) { w.iter_mut().for_each(|b| *b = !*b); }
";
        let diags = lint_source("crates/packet/src/mutate.rs", src);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(diags[0].message.contains("`other`"));
    }

    #[test]
    fn allow_for_wrong_rule_does_not_suppress() {
        let src = "// lint: allow(determinism)\nfn f() { panic!() }\n";
        let diags = lint_source("crates/core/src/x.rs", src);
        assert_eq!(diags.len(), 1);
    }

    #[test]
    fn out_of_scope_file_yields_nothing() {
        let diags = lint_source("crates/traces/src/lib.rs", "fn f() { panic!() }");
        assert!(diags.is_empty());
    }

    #[test]
    fn diagnostics_sort_stably_in_workspace_order() {
        // Two files via lint_source — ordering inside one file is by rule
        // registration; lint_workspace re-sorts globally. Here just check
        // the json round-trip shape on a real finding.
        let diags = lint_source(
            "crates/core/src/x.rs",
            "fn f(x: Option<u8>) { x.unwrap(); }",
        );
        let json = to_json(&diags);
        assert!(json.contains("\"count\":1"));
        assert!(json.contains("\"rule\":\"no-panic\""));
        assert!(json.contains("\"file\":\"crates/core/src/x.rs\""));
        assert!(json.contains("\"line\":1"));
    }
}
