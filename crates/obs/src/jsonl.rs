//! JSONL export and validation.
//!
//! The vendored `serde` shim is marker-traits-only, so serialization is
//! hand-rolled — which is what makes the byte-level determinism guarantee
//! easy to state: keys are emitted in a fixed order (`t_us`, `phase`,
//! `event`, `worker`/`span` when present, then kind-specific fields),
//! events in record order, the counter snapshot in `Counter::ALL` order,
//! and the non-empty deterministic histograms in `Hist::ALL` order, so
//! identical runs produce identical bytes. Host-time histograms never
//! reach the export (see `Hist::is_deterministic`).

use std::fmt::Write as _;

use crate::journal::{Event, EventKind, Journal};
use crate::metrics::Counter;

/// Serialize the journal (events, then one `counter` line per counter,
/// then one `hist` line per non-empty deterministic histogram) as JSON
/// Lines.
pub fn to_jsonl(journal: &Journal) -> String {
    let events = journal.events();
    let mut out = String::new();
    let mut last_t = 0u64;
    for ev in &events {
        last_t = last_t.max(ev.t_us);
        write_event(&mut out, ev);
    }
    for c in Counter::ALL {
        let _ = writeln!(
            out,
            "{{\"t_us\":{},\"phase\":null,\"event\":\"counter\",\"name\":\"{}\",\"value\":{}}}",
            last_t,
            c.name(),
            journal.metrics.get(c)
        );
    }
    for (h, snap) in journal.metrics.hist_snapshot() {
        if !h.is_deterministic() || snap.count == 0 {
            continue;
        }
        let _ = write!(
            out,
            "{{\"t_us\":{},\"phase\":null,\"event\":\"hist\",\"name\":\"{}\",\
             \"count\":{},\"sum\":{},\"max\":{},\"buckets\":[",
            last_t,
            h.name(),
            snap.count,
            snap.sum,
            snap.max
        );
        for (i, (idx, n)) in snap.buckets.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "[{idx},{n}]");
        }
        out.push_str("]}\n");
    }
    out
}

fn write_event(out: &mut String, ev: &Event) {
    let _ = write!(out, "{{\"t_us\":{},\"phase\":", ev.t_us);
    match ev.phase {
        Some(p) => {
            let _ = write!(out, "\"{}\"", p.name());
        }
        None => out.push_str("null"),
    }
    let _ = write!(out, ",\"event\":\"{}\"", ev.kind.name());
    // Present only on events merged from a pool worker, so sequential
    // journals keep their pre-engine byte layout.
    if let Some(w) = ev.worker {
        let _ = write!(out, ",\"worker\":{w}");
    }
    // Span starts/ends carry their id in kind-specific fields; for every
    // other event `span` names the innermost enclosing span.
    if !matches!(
        ev.kind,
        EventKind::SpanStart { .. } | EventKind::SpanEnd { .. }
    ) {
        if let Some(s) = ev.span {
            let _ = write!(out, ",\"span\":{s}");
        }
    }
    match &ev.kind {
        EventKind::SpanStart { id, parent, .. } => {
            let _ = write!(out, ",\"id\":{id},\"parent\":");
            match parent {
                Some(p) => {
                    let _ = write!(out, "{p}");
                }
                None => out.push_str("null"),
            }
        }
        EventKind::SpanEnd { id, .. } => {
            let _ = write!(out, ",\"id\":{id}");
        }
        EventKind::FlowReset => {}
        EventKind::SessionStarted {
            env,
            seed,
            substrate,
        } => {
            let _ = write!(out, ",\"env\":{},\"seed\":{}", json_str(env), seed);
            // The simulator is the default backend; omitting its tag keeps
            // sim journals byte-stable (same trick as the worker field).
            if substrate != "sim" {
                let _ = write!(out, ",\"substrate\":{}", json_str(substrate));
            }
        }
        EventKind::PacketInjected { bytes } => {
            let _ = write!(out, ",\"bytes\":{bytes}");
        }
        EventKind::ClassifierVerdict { class, rule_id } => {
            let _ = write!(
                out,
                ",\"class\":{},\"rule_id\":{}",
                json_str(class),
                json_str(rule_id)
            );
        }
        EventKind::CacheHit { key } => {
            let _ = write!(out, ",\"key\":{}", json_str(key));
        }
        EventKind::CacheMiss { key } => {
            let _ = write!(out, ",\"key\":{}", json_str(key));
        }
        EventKind::TechniqueTried { technique, evaded } => {
            let _ = write!(
                out,
                ",\"technique\":{},\"evaded\":{}",
                json_str(technique),
                evaded
            );
        }
        EventKind::ReplayFinished {
            replay,
            bytes_sent,
            server_bytes,
            blocked,
        } => {
            let _ = write!(
                out,
                ",\"replay\":{replay},\"bytes_sent\":{bytes_sent},\
                 \"server_bytes\":{server_bytes},\"blocked\":{blocked}"
            );
        }
        EventKind::RuleSwap { device, rules } => {
            let _ = write!(out, ",\"device\":{},\"rules\":{}", json_str(device), rules);
        }
        EventKind::TechniquePublished {
            generation,
            technique,
        } => {
            let _ = write!(
                out,
                ",\"generation\":{generation},\"technique\":{}",
                json_str(technique)
            );
        }
        EventKind::FallbackEngaged { technique } => {
            let _ = write!(out, ",\"technique\":{}", json_str(technique));
        }
    }
    out.push_str("}\n");
}

/// A JSON string literal for `s` (quotes included).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    write_json_str(&mut out, s);
    out
}

/// Append `s` as a JSON string literal: quotes, backslashes and control
/// characters escaped, everything else (non-ASCII included) raw UTF-8.
fn write_json_str(out: &mut String, s: &str) {
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Validate a JSONL journal: every non-empty line must parse as a JSON
/// object with a numeric `t_us` and a string `event`. Returns the number
/// of valid lines.
pub fn validate_jsonl(text: &str) -> Result<usize, String> {
    let mut count = 0usize;
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let fields = parse_object_line(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        let t_us = fields.iter().find(|(k, _)| k == "t_us");
        match t_us {
            Some((_, JsonValue::Number(_))) => {}
            Some(_) => return Err(format!("line {}: \"t_us\" is not a number", i + 1)),
            None => return Err(format!("line {}: missing \"t_us\"", i + 1)),
        }
        let event = fields.iter().find(|(k, _)| k == "event");
        match event {
            Some((_, JsonValue::String(_))) => {}
            Some(_) => return Err(format!("line {}: \"event\" is not a string", i + 1)),
            None => return Err(format!("line {}: missing \"event\"", i + 1)),
        }
        count += 1;
    }
    Ok(count)
}

/// A JSON value: what the `obs-query` reader parses out of an exported
/// journal (counters, histogram buckets, span ids) and what the
/// experiment binaries build and [`render`](JsonValue::render) to publish
/// their datasets. Numbers are `f64` — exact for every integer either
/// side emits (all well under 2^53). Objects keep their keys in order.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    Null,
    Bool(bool),
    Number(f64),
    String(String),
    Array(Vec<JsonValue>),
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Number(n) if *n >= 0.0 => Some(*n as u64),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// An object with `fields` in the given order.
    pub fn object<'a>(fields: impl IntoIterator<Item = (&'a str, JsonValue)>) -> JsonValue {
        JsonValue::Object(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// Compact serialization, keys in stored order. Integral numbers
    /// below 1e15 print without a fraction (`86`, not `86.0`).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::Number(n) => {
                if n.fract() == 0.0 && n.abs() < 1e15 {
                    let _ = write!(out, "{}", *n as i64);
                } else {
                    let _ = write!(out, "{n}");
                }
            }
            JsonValue::String(s) => write_json_str(out, s),
            JsonValue::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            JsonValue::Object(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_json_str(out, k);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

impl From<bool> for JsonValue {
    fn from(b: bool) -> JsonValue {
        JsonValue::Bool(b)
    }
}

impl From<f64> for JsonValue {
    fn from(n: f64) -> JsonValue {
        JsonValue::Number(n)
    }
}

impl From<u64> for JsonValue {
    fn from(n: u64) -> JsonValue {
        JsonValue::Number(n as f64)
    }
}

impl From<usize> for JsonValue {
    fn from(n: usize) -> JsonValue {
        JsonValue::Number(n as f64)
    }
}

impl From<&str> for JsonValue {
    fn from(s: &str) -> JsonValue {
        JsonValue::String(s.to_string())
    }
}

impl From<String> for JsonValue {
    fn from(s: String) -> JsonValue {
        JsonValue::String(s)
    }
}

impl<T: Into<JsonValue>> From<Vec<T>> for JsonValue {
    fn from(items: Vec<T>) -> JsonValue {
        JsonValue::Array(items.into_iter().map(Into::into).collect())
    }
}

/// Parse one line as a JSON object, returning its top-level fields.
pub fn parse_object_line(line: &str) -> Result<Vec<(String, JsonValue)>, String> {
    let mut p = Parser {
        bytes: line.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let fields = p.parse_object()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing garbage at byte {}", p.pos));
    }
    Ok(fields)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\r' | b'\n'))
        {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn parse_object(&mut self) -> Result<Vec<(String, JsonValue)>, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(fields);
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.parse_value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(fields);
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn parse_value(&mut self) -> Result<JsonValue, String> {
        match self.peek() {
            Some(b'{') => Ok(JsonValue::Object(self.parse_object()?)),
            Some(b'[') => {
                self.pos += 1;
                self.skip_ws();
                let mut items = Vec::new();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                loop {
                    self.skip_ws();
                    items.push(self.parse_value()?);
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(JsonValue::Array(items));
                        }
                        _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
                    }
                }
            }
            Some(b'"') => Ok(JsonValue::String(self.parse_string()?)),
            Some(b't') => self.parse_lit("true", JsonValue::Bool(true)),
            Some(b'f') => self.parse_lit("false", JsonValue::Bool(false)),
            Some(b'n') => self.parse_lit("null", JsonValue::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.parse_number(),
            _ => Err(format!("unexpected value at byte {}", self.pos)),
        }
    }

    fn parse_lit(&mut self, lit: &str, value: JsonValue) -> Result<JsonValue, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(format!("expected `{lit}` at byte {}", self.pos))
        }
    }

    fn parse_number(&mut self) -> Result<JsonValue, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let digits_start = self.pos;
        while self.peek().is_some_and(|b| b.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.pos == digits_start {
            return Err(format!("malformed number at byte {start}"));
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while self.peek().is_some_and(|b| b.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e') | Some(b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                self.pos += 1;
            }
            while self.peek().is_some_and(|b| b.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| format!("malformed number at byte {start}"))?;
        let n: f64 = text
            .parse()
            .map_err(|_| format!("malformed number at byte {start}"))?;
        Ok(JsonValue::Number(n))
    }

    fn parse_string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{0008}'),
                        Some(b'f') => out.push('\u{000c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| "truncated \\u escape".to_string())?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| "bad \\u escape".to_string())?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| "bad \\u escape".to_string())?;
                            // Surrogates validate as the replacement char;
                            // the journal never emits them.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one full UTF-8 scalar from the source str.
                    let rest = &self.bytes[self.pos..];
                    let s = std::str::from_utf8(rest)
                        .map_err(|_| "invalid utf-8 in string".to_string())?;
                    let ch = s.chars().next().ok_or("unterminated string")?;
                    out.push(ch);
                    self.pos += ch.len_utf8();
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::{EventKind, Phase};
    use crate::metrics::Counter;

    #[test]
    fn export_validates_and_counts() {
        let j = Journal::new();
        j.record(
            0,
            EventKind::SessionStarted {
                env: "Testbed".to_string(),
                seed: 7,
                substrate: "sim".to_string(),
            },
        );
        j.span_start(5, Phase::BlindSearch);
        j.record(10, EventKind::PacketInjected { bytes: 1460 });
        j.record(
            12,
            EventKind::ClassifierVerdict {
                class: "video".to_string(),
                rule_id: "host:\"quoted\"".to_string(),
            },
        );
        j.span_end(20, Phase::BlindSearch);
        j.metrics.add(Counter::PacketsStepped, 3);

        let text = to_jsonl(&j);
        let lines = validate_jsonl(&text).expect("journal validates");
        // 5 events + all counters + one hist line (the closing
        // blind-search span fed its sim-latency histogram).
        assert_eq!(lines, 5 + Counter::ALL.len() + 1);
        // Counter lines carry the final sim timestamp and fixed order.
        let last = text.lines().last().unwrap();
        assert_eq!(
            last,
            "{\"t_us\":20,\"phase\":null,\"event\":\"hist\",\
             \"name\":\"blind-search-sim-micros\",\"count\":1,\"sum\":15,\
             \"max\":15,\"buckets\":[[15,1]]}"
        );
        let first_counter = text
            .lines()
            .find(|l| l.contains("\"event\":\"counter\""))
            .unwrap();
        assert!(
            first_counter.contains("\"name\":\"packets-stepped\",\"value\":3"),
            "{first_counter}"
        );
    }

    #[test]
    fn fixed_key_order() {
        let j = Journal::new();
        j.span_start(1, Phase::Detect);
        j.span_start(2, Phase::Replay);
        j.record(3, EventKind::PacketInjected { bytes: 7 });
        j.span_end(4, Phase::Replay);
        let text = to_jsonl(&j);
        let mut lines = text.lines();
        assert_eq!(
            lines.next().unwrap(),
            "{\"t_us\":1,\"phase\":\"detect\",\"event\":\"span_start\",\"id\":1,\"parent\":null}"
        );
        assert_eq!(
            lines.next().unwrap(),
            "{\"t_us\":2,\"phase\":\"replay\",\"event\":\"span_start\",\"id\":2,\"parent\":1}"
        );
        // Attribution skips the micro replay phase; the span id does not.
        assert_eq!(
            lines.next().unwrap(),
            "{\"t_us\":3,\"phase\":\"detect\",\"event\":\"packet_injected\",\"span\":2,\"bytes\":7}"
        );
        assert_eq!(
            lines.next().unwrap(),
            "{\"t_us\":4,\"phase\":\"replay\",\"event\":\"span_end\",\"id\":2}"
        );
    }

    #[test]
    fn worker_field_appears_only_on_absorbed_events() {
        let main = Journal::new();
        main.span_start(1, Phase::Detect);
        let w = Journal::new();
        w.record(2, EventKind::FlowReset);
        main.absorb_worker(3, &w);

        let text = to_jsonl(&main);
        let mut lines = text.lines();
        let first = lines.next().unwrap();
        assert!(!first.contains("\"worker\""), "{first}");
        let second = lines.next().unwrap();
        assert_eq!(
            second,
            "{\"t_us\":2,\"phase\":null,\"event\":\"flow_reset\",\"worker\":3}"
        );
        assert!(validate_jsonl(&text).is_ok());
    }

    #[test]
    fn escaping_survives_validation() {
        let j = Journal::new();
        j.record(
            0,
            EventKind::CacheMiss {
                key: "net/\"app\"\\with\nnewline\tand\u{1}ctl".to_string(),
            },
        );
        let text = to_jsonl(&j);
        assert!(validate_jsonl(&text).is_ok(), "{text}");
    }

    #[test]
    fn rejects_bad_lines() {
        assert!(validate_jsonl("{\"t_us\":1,\"event\":\"x\"}\nnot json\n").is_err());
        assert!(
            validate_jsonl("{\"event\":\"x\"}\n").is_err(),
            "missing t_us"
        );
        assert!(
            validate_jsonl("{\"t_us\":\"one\",\"event\":\"x\"}\n").is_err(),
            "string t_us"
        );
        assert!(validate_jsonl("{\"t_us\":1}\n").is_err(), "missing event");
        assert!(
            validate_jsonl("{\"t_us\":1,\"event\":\"x\"} extra\n").is_err(),
            "trailing garbage"
        );
    }

    /// `json_str` output with the quotes stripped, re-parsed as a JSON
    /// string body — the round trip every escape must survive.
    fn roundtrip(s: &str) -> String {
        let lit = json_str(s);
        let line = format!("{{\"t_us\":0,\"event\":\"x\",\"k\":{lit}}}");
        let fields = parse_object_line(&line).expect("escaped string parses");
        match fields.iter().find(|(k, _)| k == "k") {
            Some((_, JsonValue::String(v))) => v.clone(),
            other => panic!("expected string field, got {other:?}"),
        }
    }

    #[test]
    fn every_control_character_roundtrips() {
        for c in 0u32..0x20 {
            let ch = char::from_u32(c).unwrap();
            let s = format!("a{ch}b");
            assert_eq!(roundtrip(&s), s, "control char U+{c:04X}");
            // The escaped form must contain no raw control bytes.
            assert!(
                json_str(&s).bytes().all(|b| b >= 0x20),
                "raw control byte leaked for U+{c:04X}"
            );
        }
    }

    #[test]
    fn quotes_and_backslashes_roundtrip() {
        for s in [
            "\"",
            "\\",
            "\\\"",
            "\\\\",
            "a\"b\\c",
            "\\u0041",
            "ends with \\",
            "\"quoted\"",
        ] {
            assert_eq!(roundtrip(s), s, "{s:?}");
        }
        // `\u0041` typed literally must not collapse into `A`.
        assert_eq!(json_str("\\u0041"), "\"\\\\u0041\"");
    }

    #[test]
    fn non_ascii_is_emitted_as_raw_utf8() {
        // Raw payload bytes become rule ids and cache keys; multi-byte
        // scalars (including astral-plane ones) must pass through as
        // UTF-8, never as lone surrogate escapes.
        for s in ["café", "日本語", "🦀 crab", "mixed π≈3.14159"] {
            let lit = json_str(s);
            assert!(!lit.contains("\\u"), "unneeded escape in {lit}");
            assert_eq!(roundtrip(s), s);
        }
    }

    #[test]
    fn parser_maps_surrogate_escapes_to_replacement() {
        // The journal never emits surrogates, but a hand-edited file
        // must not produce an invalid Rust string.
        let line = "{\"t_us\":0,\"event\":\"x\",\"k\":\"\\ud800\"}";
        let fields = parse_object_line(line).unwrap();
        assert_eq!(
            fields.iter().find(|(k, _)| k == "k").unwrap().1,
            JsonValue::String("\u{fffd}".to_string())
        );
    }

    #[test]
    fn del_and_separators_stay_raw_but_valid() {
        // U+007F and the U+2028/U+2029 separators are legal raw inside
        // JSON strings; the escaper leaves them alone.
        for s in ["\u{7f}", "\u{2028}", "\u{2029}"] {
            assert_eq!(roundtrip(s), s);
        }
    }

    #[test]
    fn typed_parser_recovers_values() {
        let line = "{\"t_us\":12,\"ok\":true,\"no\":false,\"nul\":null,\
                    \"arr\":[[1,2],[3,4]],\"neg\":-5}";
        let fields = parse_object_line(line).unwrap();
        let get = |k: &str| &fields.iter().find(|(f, _)| f == k).unwrap().1;
        assert_eq!(get("t_us").as_u64(), Some(12));
        assert_eq!(get("ok").as_bool(), Some(true));
        assert_eq!(get("nul"), &JsonValue::Null);
        assert_eq!(get("neg").as_u64(), None);
        match get("arr") {
            JsonValue::Array(items) => {
                assert_eq!(items.len(), 2);
                assert_eq!(
                    items[0],
                    JsonValue::Array(vec![JsonValue::Number(1.0), JsonValue::Number(2.0)])
                );
            }
            other => panic!("expected array, got {other:?}"),
        }
    }

    /// `render` is the inverse of the parser: every value kind, escapes,
    /// integral vs fractional numbers and nesting survive the round trip,
    /// and the compact text is pinned.
    #[test]
    fn render_roundtrips_through_the_parser() {
        let value = JsonValue::object([
            ("name", "lib\u{b7}erate".into()),
            ("rounds", 86u64.into()),
            ("rate", 1.48.into()),
            ("neg", (-2.5).into()),
            ("ok", true.into()),
            ("none", JsonValue::Null),
            ("cells", vec!["Y", ".", "-"].into()),
            ("esc", "a\"b\\c\nd\r\t\u{1}\u{1f}".into()),
            (
                "nested",
                JsonValue::object([("deep", vec![vec![1u64, 2], vec![]].into())]),
            ),
            ("empty", JsonValue::object([])),
        ]);
        let text = value.render();
        assert_eq!(
            text,
            "{\"name\":\"lib\u{b7}erate\",\"rounds\":86,\"rate\":1.48,\"neg\":-2.5,\
             \"ok\":true,\"none\":null,\"cells\":[\"Y\",\".\",\"-\"],\
             \"esc\":\"a\\\"b\\\\c\\nd\\r\\t\\u0001\\u001f\",\
             \"nested\":{\"deep\":[[1,2],[]]},\"empty\":{}}"
        );
        assert_eq!(JsonValue::Object(parse_object_line(&text).unwrap()), value);
        assert_eq!(JsonValue::from(86.0).render(), "86");
        assert_eq!(JsonValue::from(0.5).render(), "0.5");
    }

    #[test]
    fn empty_and_blank_lines_are_fine() {
        assert_eq!(validate_jsonl("").unwrap(), 0);
        assert_eq!(
            validate_jsonl("{\"t_us\":0,\"event\":\"a\"}\n\n{\"t_us\":1,\"event\":\"b\"}\n")
                .unwrap(),
            2
        );
    }
}
