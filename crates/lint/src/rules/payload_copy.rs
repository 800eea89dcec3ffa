//! payload-copy: wire payload bytes move as `PacketBuf` views, never as
//! ad-hoc deep copies.
//!
//! The hot-path overhaul threaded ref-counted [`PacketBuf`] buffers
//! through the simulator's wire plumbing and the DPI feed so forwarding,
//! duplicating, and reassembling a segment bump a refcount instead of
//! copying payload bytes. That invariant regresses silently: a stray
//! `.to_vec()` or `.clone()` on a `wire`/`payload` binding compiles fine,
//! benches a little slower, and nobody notices until the copies-per-replay
//! curve has crept back up. This rule flags `.clone()`/`.to_vec()` calls
//! whose receiver's last path segment is `wire` or `payload` — the two
//! names the wire plumbing reserves for payload-carrying buffers — in the
//! crates that own the hot path. Mutation goes through
//! `PacketBuf::make_mut` (copy-on-write, tallied into the copy census);
//! sanctioned copies (endpoint consumption, refcount-bump clones of a
//! `PacketBuf` the type system can't distinguish here) carry a
//! `// lint: allow(payload-copy)` annotation saying why.

use crate::rules::{Finding, Rule, RuleCtx};

pub struct PayloadCopy;

impl Rule for PayloadCopy {
    fn name(&self) -> &'static str {
        "payload-copy"
    }

    fn code(&self) -> &'static str {
        "LIB014"
    }

    fn explain(&self) -> &'static str {
        "Wire payload bytes travel as ref-counted PacketBuf views: forwarding, \
duplicating, and feeding a segment must not deep-copy payload. A `.to_vec()` \
or `.clone()` on a binding named `wire` or `payload` re-introduces a per-packet \
copy the zero-copy overhaul removed — use `PacketBuf::slice` for views, \
`make_mut` for copy-on-write mutation (which feeds the payload-copies census), \
or `copy_to_vec` at a true egress point. Where a copy is sanctioned (an \
endpoint consuming bytes, or a cheap refcount-bump clone of a PacketBuf the \
token scan cannot type), annotate it with `// lint: allow(payload-copy)` and \
the reason."
    }

    fn applies(&self, rel_path: &str) -> bool {
        let in_scope = rel_path.starts_with("crates/netsim/src/")
            || rel_path.starts_with("crates/dpi/src/")
            || rel_path.starts_with("crates/substrate/src/");
        // buf.rs is the PacketBuf implementation: it owns the sanctioned
        // copy machinery (make_mut, copy_to_vec) itself.
        in_scope
            && rel_path != "crates/substrate/src/buf.rs"
            && !crate::rules::in_test_tree(rel_path)
    }

    fn check(&self, ctx: &RuleCtx<'_>) -> Vec<Finding> {
        let mut findings = Vec::new();
        let toks = ctx.tokens;
        for (i, t) in toks.iter().enumerate() {
            if ctx.test_mask.get(i).copied().unwrap_or(false) {
                continue;
            }
            if !(t.is("clone") || t.is("to_vec")) {
                continue;
            }
            // Only argument-less method calls: `recv.clone()` / `recv.to_vec()`.
            if i < 2 || !toks[i - 1].is(".") {
                continue;
            }
            let open = toks.get(i + 1).is_some_and(|n| n.is("("));
            let close = toks.get(i + 2).is_some_and(|n| n.is(")"));
            if !(open && close) {
                continue;
            }
            // The receiver's last path segment is what the plumbing named
            // the buffer: `wire.clone()`, `pkt.payload.to_vec()`.
            let recv = &toks[i - 2];
            if !(recv.is("wire") || recv.is("payload")) {
                continue;
            }
            let fn_name = enclosing_fn(ctx, i);
            findings.push(Finding {
                line: t.line,
                message: format!(
                    "`{}.{}()`{} deep-copies wire payload bytes; use a PacketBuf \
view (slice), make_mut for copy-on-write mutation, or annotate a sanctioned copy",
                    recv.text,
                    t.text,
                    fn_name
                        .as_deref()
                        .map(|f| format!(" in `{f}`"))
                        .unwrap_or_default()
                ),
                subject: fn_name,
            });
        }
        findings
    }
}

/// The innermost fn whose span contains token `i`.
fn enclosing_fn(ctx: &RuleCtx<'_>, i: usize) -> Option<String> {
    ctx.ir
        .iter()
        .filter(|f| f.contains(i))
        .max_by_key(|f| f.start)
        .map(|f| f.name.clone())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::run_rule;

    fn run(src: &str) -> Vec<Finding> {
        run_rule(&PayloadCopy, "crates/netsim/src/hop.rs", src)
    }

    #[test]
    fn to_vec_on_wire_is_flagged() {
        let src = "fn f(wire: &PacketBuf) { let copy = wire.to_vec(); }";
        let findings = run(src);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].message.contains("wire.to_vec"));
        assert_eq!(findings[0].subject.as_deref(), Some("f"));
    }

    #[test]
    fn clone_on_payload_field_chain_is_flagged() {
        let src = "fn f(pkt: &ParsedPacket) { stash(pkt.payload.clone()); }";
        assert_eq!(run(src).len(), 1);
    }

    #[test]
    fn clone_on_other_names_passes() {
        // Helpers name PacketBuf parameters `buf` precisely so refcount
        // bumps don't trip the scan.
        let src = "fn f(buf: &PacketBuf) { let b = buf.clone(); let r = rules.clone(); }";
        assert!(run(src).is_empty(), "{:?}", run(src));
    }

    #[test]
    fn views_and_non_copy_methods_pass() {
        let src = "fn f(wire: &PacketBuf) { let v = wire.slice(4..); \
let n = wire.len(); let p = payload.as_ref(); }";
        assert!(run(src).is_empty(), "{:?}", run(src));
    }

    #[test]
    fn clone_with_arguments_passes() {
        // `Arc::clone(&wire)` and friends never match the `.clone()` form.
        let src = "fn f(wire: &Arc<PacketBuf>) { let w = Arc::clone(wire); }";
        assert!(run(src).is_empty(), "{:?}", run(src));
    }

    #[test]
    fn test_code_is_masked() {
        let src = "#[cfg(test)] mod t { fn f() { let c = wire.to_vec(); } }";
        assert!(run(src).is_empty());
    }

    #[test]
    fn scope_covers_hot_path_crates_only() {
        assert!(PayloadCopy.applies("crates/netsim/src/network.rs"));
        assert!(PayloadCopy.applies("crates/dpi/src/device.rs"));
        assert!(PayloadCopy.applies("crates/substrate/src/capture.rs"));
        assert!(!PayloadCopy.applies("crates/substrate/src/buf.rs"));
        assert!(!PayloadCopy.applies("crates/core/src/replay.rs"));
        assert!(!PayloadCopy.applies("crates/dpi/tests/device_unit.rs"));
    }
}
