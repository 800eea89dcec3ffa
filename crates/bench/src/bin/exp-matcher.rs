//! **Streaming matcher benchmark**: the compiled Aho–Corasick automaton,
//! streamed the way `DpiDevice` runs it, vs the rescan reference, across
//! every DPI environment profile's rules and reassembly mode and three
//! synthetic trace sizes. Writes `results/BENCH_matcher.json`.
//!
//! Both arms are driven at the matcher layer over the same flows, with
//! no device in between:
//!
//! - **automaton**: per-packet modes scan each payload once
//!   (`CompiledRuleSet::first_match_packet`); stream modes keep one
//!   assembler and scan state per flow and feed only newly contiguous
//!   bytes (`drain_new_contiguous` → `feed_delta`, then
//!   `first_match_stream`). Compiling the rule set is part of its time.
//! - **rescan**: `RuleSet::first_match_counted` over each payload, or
//!   over the assembled stream prefix rebuilt on every packet — once per
//!   applicable rule.
//!
//! The workload is deliberately worst-case for a rescanner: long-lived
//! flows of non-matching HTTP-shaped payload, segmented near MSS size,
//! that keep every rule unsatisfied so inspection never short-circuits.
//! Two costs are reported per (profile, size, arm) cell: the bytes each
//! arm's matcher examined, and the host wall-clock of the whole trace
//! (best of `REPS` runs, the two arms timed in alternating rounds).
//!
//! Verdict parity is asserted inline for every cell — both arms must
//! pick the same rule (or none) for every packet — so the speedup is
//! measured on provably equivalent outputs. The timed flows match
//! nothing, so an untimed parity check first runs both arms over two
//! flows per profile that do carry a rule keyword: whole in the last
//! segment, and split across two segments.
//!
//! Run with: `cargo run --release -p liberate-bench --bin exp-matcher`

use std::time::Instant;

use liberate_bench::harness;
use liberate_dpi::automaton::{CompiledRuleSet, StreamScan};
use liberate_dpi::device::{DpiConfig, SERVER_MSS_BYTES};
use liberate_dpi::flowtable::{StreamAssembler, StreamDelta};
use liberate_dpi::inspect::ReassemblyMode;
use liberate_dpi::matcher::starts_with_any;
use liberate_dpi::profiles::{gfc_device, iran_device, testbed_device, tmus_device};
use liberate_dpi::rules::PositionConstraint;
use liberate_netsim::element::PacketBuf;
use liberate_obs::JsonValue;
use liberate_packet::flow::Direction;

/// Bytes of payload per flow: 4 near-MSS segments, sized to stay inside
/// the tightest streaming window (GFC caps reassembly at 4096 bytes) so
/// every generated byte is actually inspected.
const SEGMENT_BYTES: usize = 1000;
const SEGMENTS_PER_FLOW: usize = 4;
const FLOW_BYTES: usize = SEGMENT_BYTES * SEGMENTS_PER_FLOW;

/// Every flow is a client request to port 80.
const DIR: Direction = Direction::ClientToServer;
const PORT: u16 = 80;

/// Timing repetitions per cell; the best run is reported to shed
/// scheduler noise.
const REPS: usize = 3;

/// One client flow: the stream's first sequence number (ISN + 1, as the
/// SYN anchors it) and its payload segments `(seq, payload)`.
struct Flow {
    base: u32,
    segments: Vec<(u32, PacketBuf)>,
}

/// Flow `f`'s non-matching payload: `SEGMENTS_PER_FLOW` segments of
/// `SEGMENT_BYTES`. Every segment opens with `GET ` so the gated
/// profiles keep inspecting; the padding never contains a rule keyword.
fn plain_segments(f: usize) -> Vec<Vec<u8>> {
    (0..SEGMENTS_PER_FLOW)
        .map(|s| {
            let head = format!("GET /flow{f:04}/seg{s} HTTP/1.1\r\nHost: pad.invalid\r\n");
            let mut payload = head.into_bytes();
            payload.resize(SEGMENT_BYTES, b'a');
            payload
        })
        .collect()
}

/// Flow `f` carrying `segments` back to back.
fn flow(f: usize, segments: Vec<Vec<u8>>) -> Flow {
    let base = 1_000 * (f as u32 + 1) + 1;
    let segments = segments
        .into_iter()
        .enumerate()
        .map(|(s, payload)| (base + (s * SEGMENT_BYTES) as u32, PacketBuf::from(payload)))
        .collect();
    Flow { base, segments }
}

/// `flows` non-matching HTTP-ish flows, `FLOW_BYTES` each.
fn synthetic_flows(flows: usize) -> Vec<Flow> {
    (0..flows).map(|f| flow(f, plain_segments(f))).collect()
}

/// Two flows that carry `keyword`: whole at the end of the last segment,
/// and split across the boundary of the first two segments (only a
/// streaming matcher sees it whole).
fn matching_flows(keyword: &[u8]) -> Vec<Flow> {
    let mut last = plain_segments(0);
    let end = SEGMENT_BYTES - keyword.len();
    last[SEGMENTS_PER_FLOW - 1][end..].copy_from_slice(keyword);
    let mut split = plain_segments(1);
    let half = keyword.len() / 2;
    split[0][SEGMENT_BYTES - half..].copy_from_slice(&keyword[..half]);
    split[1][..keyword.len() - half].copy_from_slice(&keyword[half..]);
    vec![flow(0, last), flow(1, split)]
}

/// A matcher arm's answer for one packet: the matched rule's id, if
/// any, and the bytes its matcher examined.
type Inspection<'a> = (Option<&'a str>, u64);

/// Walk one flow the way `DpiDevice::inspect` walks a client stream,
/// handing each inspected packet `(index, seq, payload)` to `inspect`.
/// What both arms share stays here: the first-payload-packet gate of the
/// gated modes, the inspection scope of the per-packet modes, and
/// match-and-forget. Pushes every packet's matched rule id (or `None`)
/// to `out`; returns the bytes scanned.
fn walk_flow<'a>(
    config: &DpiConfig,
    flow: &Flow,
    out: &mut Vec<Option<&'a str>>,
    mut inspect: impl FnMut(usize, u32, &PacketBuf) -> Inspection<'a>,
) -> u64 {
    let first_payload = &flow.segments[0].1;
    let (gate_open, per_packet) = match &config.inspect.reassembly {
        ReassemblyMode::PerPacket => (true, true),
        ReassemblyMode::GatedPerPacket { gate_prefixes } => {
            (starts_with_any(first_payload, gate_prefixes), true)
        }
        ReassemblyMode::GatedStream { gate_prefixes, .. } => {
            (starts_with_any(first_payload, gate_prefixes), false)
        }
        ReassemblyMode::FullStream { .. } => (true, false),
    };
    let (mut scanned, mut offset) = (0u64, 0u64);
    for (idx, (seq, payload)) in flow.segments.iter().enumerate() {
        let in_scope = config.inspect.within_scope_at(idx, offset);
        offset += payload.len() as u64;
        let (m, cost) = if !gate_open || (per_packet && !in_scope) {
            (None, 0)
        } else {
            inspect(idx, *seq, payload)
        };
        scanned += cost;
        out.push(m);
        if m.is_some() && config.inspect.match_and_forget {
            break;
        }
    }
    scanned
}

/// One flow through the automaton, streamed as `DpiDevice::inspect`
/// streams it.
fn automaton_flow<'a>(
    config: &'a DpiConfig,
    compiled: &CompiledRuleSet,
    flow: &Flow,
    out: &mut Vec<Option<&'a str>>,
) -> u64 {
    let rules = &config.rules;
    let id = |m: Option<usize>| m.map(|i| rules.rules[i].id.as_str());
    let mut stream: Option<StreamAssembler> = None;
    let mut window_seen = 0usize;
    let mut scan = StreamScan::default();
    walk_flow(config, flow, out, |idx, seq, payload| {
        match &config.inspect.reassembly {
            ReassemblyMode::PerPacket | ReassemblyMode::GatedPerPacket { .. } => {
                let (m, cost) = compiled.first_match_packet(rules, payload, DIR, PORT, Some(idx));
                (id(m), cost)
            }
            ReassemblyMode::GatedStream { window_packets, .. } => {
                let asm = stream.get_or_insert_with(|| {
                    let mut asm = StreamAssembler::new(window_packets * SERVER_MSS_BYTES);
                    asm.base_seq = Some(seq);
                    asm
                });
                if window_seen < *window_packets {
                    window_seen += 1;
                    asm.insert(seq, payload);
                }
                let cost = compiled.feed_delta(&mut scan, asm.drain_new_contiguous());
                (
                    id(compiled.first_match_stream(rules, &scan, DIR, PORT)),
                    cost,
                )
            }
            ReassemblyMode::FullStream { window_bytes, .. } => {
                let asm = stream.get_or_insert_with(|| {
                    let mut asm = StreamAssembler::new(*window_bytes);
                    asm.base_seq = Some(flow.base);
                    asm
                });
                if !asm.insert(seq, payload) {
                    return (None, 0);
                }
                let cost = match asm.drain_new_contiguous() {
                    StreamDelta::Append(_) if compiled.gate_failed(&scan) => 0,
                    delta => compiled.feed_delta(&mut scan, delta),
                };
                if scan.fed_bytes() == 0 || !compiled.gate_passed(&scan) {
                    return (None, cost);
                }
                (
                    id(compiled.first_match_stream(rules, &scan, DIR, PORT)),
                    cost,
                )
            }
        }
    })
}

/// The same flow through the rescan reference: every applicable rule
/// searched over the payload, or over the whole assembled prefix rebuilt
/// on every packet.
fn rescan_flow<'a>(config: &'a DpiConfig, flow: &Flow, out: &mut Vec<Option<&'a str>>) -> u64 {
    let rules = &config.rules;
    let first = |data: &[u8], idx: Option<usize>| {
        let (m, cost) = rules.first_match_counted(data, DIR, PORT, idx);
        (m.map(|r| r.id.as_str()), cost)
    };
    let mut pushed: Vec<(u32, PacketBuf)> = Vec::new();
    let mut stream = StreamAssembler::default();
    if let ReassemblyMode::FullStream { window_bytes, .. } = &config.inspect.reassembly {
        stream = StreamAssembler::new(*window_bytes);
        stream.base_seq = Some(flow.base);
    }
    walk_flow(config, flow, out, |idx, seq, payload| {
        match &config.inspect.reassembly {
            ReassemblyMode::PerPacket | ReassemblyMode::GatedPerPacket { .. } => {
                first(payload, Some(idx))
            }
            ReassemblyMode::GatedStream { window_packets, .. } => {
                if pushed.len() < *window_packets {
                    pushed.push((seq, payload.clone()));
                }
                let mut asm = StreamAssembler::new(window_packets * SERVER_MSS_BYTES);
                asm.base_seq = Some(pushed[0].0);
                for (seq, payload) in &pushed {
                    asm.insert(*seq, payload);
                }
                first(&asm.assembled_prefix(), None)
            }
            ReassemblyMode::FullStream { gate_prefixes, .. } => {
                if !stream.insert(seq, payload) {
                    return (None, 0);
                }
                let prefix = stream.assembled_prefix();
                if prefix.is_empty() || !starts_with_any(&prefix, gate_prefixes) {
                    return (None, 0);
                }
                first(&prefix, None)
            }
        }
    })
}

/// One timed pass of an arm over every flow.
struct Pass<'a> {
    host_us: u64,
    scanned: u64,
    /// The matched rule id (or `None`) of every packet, in order.
    verdicts: Vec<Option<&'a str>>,
}

fn run_arm<'a>(automaton: bool, config: &'a DpiConfig, flows: &[Flow]) -> Pass<'a> {
    let mut verdicts = Vec::with_capacity(flows.len() * SEGMENTS_PER_FLOW);
    let t0 = Instant::now();
    let scanned = if automaton {
        let compiled =
            CompiledRuleSet::compile(&config.rules, config.inspect.reassembly.gate_prefixes());
        flows
            .iter()
            .map(|f| automaton_flow(config, &compiled, f, &mut verdicts))
            .sum()
    } else {
        flows
            .iter()
            .map(|f| rescan_flow(config, f, &mut verdicts))
            .sum()
    };
    Pass {
        host_us: t0.elapsed().as_micros() as u64,
        scanned,
        verdicts,
    }
}

/// The fastest of `REPS` passes per arm, rescan then automaton.
fn best_passes<'a>(config: &'a DpiConfig, flows: &[Flow]) -> [Pass<'a>; 2] {
    harness::alternate(REPS, |arm| run_arm(arm == 1, config, flows)).map(|passes| {
        passes
            .into_iter()
            .min_by_key(|p| p.host_us)
            .expect("at least one repetition")
    })
}

struct Cell {
    profile: &'static str,
    trace_bytes: usize,
    rescan_us: u64,
    rescan_scanned: u64,
    auto_us: u64,
    auto_scanned: u64,
}

impl Cell {
    fn reduction(&self) -> f64 {
        self.rescan_scanned as f64 / self.auto_scanned.max(1) as f64
    }

    fn to_json(&self) -> JsonValue {
        JsonValue::object([
            ("profile", self.profile.into()),
            ("trace_bytes", self.trace_bytes.into()),
            ("rescan_host_us", self.rescan_us.into()),
            ("rescan_bytes_scanned", self.rescan_scanned.into()),
            ("automaton_host_us", self.auto_us.into()),
            ("automaton_bytes_scanned", self.auto_scanned.into()),
            (
                "bytes_scanned_reduction",
                harness::round_to(self.reduction(), 2).into(),
            ),
        ])
    }
}

fn main() {
    println!("Benchmark: streaming Aho-Corasick matcher vs per-rule rescans\n");

    let profiles: Vec<(&'static str, DpiConfig)> = vec![
        ("testbed", testbed_device()),
        ("tmobile", tmus_device()),
        ("gfc", gfc_device(3 * 3600)),
        ("iran", iran_device()),
    ];
    // 8 / 32 / 128 flows of 4 KB: ~32 KB, ~128 KB, ~512 KB of payload.
    let flow_counts = [8usize, 32, 128];

    // --- Parity on matches: the timed flows below match no rule, so
    // their verdicts are all `None`. These flows carry a client rule's
    // keyword, whole in the last segment and split across two segments,
    // so a divergence on a match fails here. Untimed.
    for (name, config) in &profiles {
        let rule = config
            .rules
            .rules
            .iter()
            .find(|r| {
                r.applies_to_direction(DIR)
                    && r.applies_to_port(PORT)
                    && r.position == PositionConstraint::Anywhere
            })
            .expect("every profile has a client rule on port 80");
        let flows = matching_flows(&rule.keyword);
        let rescan = run_arm(false, config, &flows);
        let auto = run_arm(true, config, &flows);
        assert_eq!(
            rescan.verdicts, auto.verdicts,
            "{name}: per-packet verdicts on flows carrying `{}` diverge between the arms",
            rule.id
        );
        let matched = auto.verdicts.iter().filter(|v| v.is_some()).count();
        println!(
            "{name:8} parity on `{}`: {matched} of {} packets matched in both arms",
            rule.id,
            auto.verdicts.len()
        );
        assert!(
            matched > 0,
            "{name}: no packet of the matching flows matched"
        );
    }
    println!();

    let mut cells: Vec<Cell> = Vec::new();
    for &count in &flow_counts {
        let flows = synthetic_flows(count);
        let trace_bytes = count * FLOW_BYTES;
        for (name, config) in &profiles {
            let [rescan, auto] = best_passes(config, &flows);
            assert_eq!(
                rescan.verdicts, auto.verdicts,
                "{name}/{trace_bytes}B: per-packet verdicts diverge between the arms"
            );
            println!(
                "{name:8} {:>4} KB  rescan {:>10} B scanned / {:>7} us   \
automaton {:>9} B / {:>6} us   ({:.1}x fewer bytes)",
                trace_bytes / 1024,
                rescan.scanned,
                rescan.host_us,
                auto.scanned,
                auto.host_us,
                rescan.scanned as f64 / auto.scanned.max(1) as f64,
            );
            cells.push(Cell {
                profile: name,
                trace_bytes,
                rescan_us: rescan.host_us,
                rescan_scanned: rescan.scanned,
                auto_us: auto.host_us,
                auto_scanned: auto.scanned,
            });
        }
    }

    // --- Per-profile floor: with the root skip loop the automaton must
    // hold its own against the rescan in *every* cell — single- and
    // few-pattern profiles (Iran, GFC) included, at every trace size.
    // 5% headroom absorbs host timing noise.
    for c in &cells {
        assert!(
            c.auto_us as f64 <= c.rescan_us as f64 * 1.05,
            "{}/{} B: automaton host time {} us exceeds the rescan's {} us by more than 5%",
            c.profile,
            c.trace_bytes,
            c.auto_us,
            c.rescan_us
        );
    }

    // --- Aggregate over the largest trace: the headline numbers the CI
    // gate holds the automaton to.
    let largest = flow_counts[flow_counts.len() - 1] * FLOW_BYTES;
    let big: Vec<&Cell> = cells.iter().filter(|c| c.trace_bytes == largest).collect();
    let rescan_scanned: u64 = big.iter().map(|c| c.rescan_scanned).sum();
    let auto_scanned: u64 = big.iter().map(|c| c.auto_scanned).sum();
    let rescan_us: u64 = big.iter().map(|c| c.rescan_us).sum();
    let auto_us: u64 = big.iter().map(|c| c.auto_us).sum();
    let reduction = rescan_scanned as f64 / auto_scanned.max(1) as f64;
    let speedup = rescan_us as f64 / auto_us.max(1) as f64;
    println!(
        "\nlargest trace ({} KB x {} profiles): {reduction:.1}x fewer bytes scanned, \
{speedup:.2}x host wall-clock",
        largest / 1024,
        big.len()
    );
    assert!(
        reduction >= 5.0,
        "expected >= 5x bytes-scanned reduction on the largest trace, got {reduction:.2}x"
    );
    assert!(
        auto_us <= rescan_us,
        "the automaton must not be slower than the rescan on the largest trace \
({auto_us} us vs {rescan_us} us)"
    );

    harness::publish(
        "matcher",
        &JsonValue::object([
            ("experiment", "streaming-matcher".into()),
            (
                "workload",
                "non-matching GET flows, 4x1000B segments per flow, every DPI profile's \
rules and reassembly mode, matcher layer (no device)"
                    .into(),
            ),
            (
                "cells",
                JsonValue::Array(cells.iter().map(Cell::to_json).collect()),
            ),
            (
                "largest_trace",
                JsonValue::object([
                    ("trace_bytes", largest.into()),
                    ("rescan_bytes_scanned", rescan_scanned.into()),
                    ("automaton_bytes_scanned", auto_scanned.into()),
                    (
                        "bytes_scanned_reduction",
                        harness::round_to(reduction, 2).into(),
                    ),
                    ("rescan_host_us", rescan_us.into()),
                    ("automaton_host_us", auto_us.into()),
                    ("host_speedup", harness::round_to(speedup, 2).into()),
                ]),
            ),
        ]),
    );

    println!(
        "\n[ok] automaton matches the rescan's verdicts with {reduction:.1}x fewer bytes \
scanned and {speedup:.2}x host wall-clock on the largest trace"
    );
}
