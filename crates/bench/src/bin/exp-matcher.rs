//! **Streaming matcher benchmark**: the compiled Aho–Corasick automaton
//! vs the naive per-rule rescanning matcher, across every DPI
//! environment profile and three synthetic trace sizes, plus a pooled
//! characterization run at 1 and 4 workers. Writes
//! `results/BENCH_matcher.json`.
//!
//! The workload is deliberately worst-case for a rescanner: long-lived
//! flows of non-matching HTTP-shaped payload, segmented near MSS size,
//! that keep every rule unsatisfied so inspection never short-circuits.
//! Two costs are reported per (profile, size, matcher) cell:
//!
//! - **bytes scanned** (`matcher-bytes-scanned` from the attached
//!   journal): the naive matcher re-walks the reassembled prefix per
//!   packet per applicable rule; the automaton feeds each stream byte
//!   through the DFA exactly once.
//! - **host wall-clock** (best of `REPS` runs, the two matchers timed in
//!   alternating rounds): end-to-end `process()` time for the whole
//!   trace through a bare device.
//!
//! Verdict parity is asserted inline for every cell — events, billed
//! and zero-rated byte accounting must be identical between matchers —
//! so the speedup is measured on provably equivalent outputs.
//!
//! Run with: `cargo run --release -p liberate-bench --bin exp-matcher`

use std::sync::Arc;
use std::time::Instant;

use liberate::prelude::*;
use liberate_bench::harness;
use liberate_dpi::automaton::MatcherKind;
use liberate_dpi::device::{DpiConfig, DpiDevice};
use liberate_dpi::profiles::{gfc_device, iran_device, testbed_device, tmus_device};
use liberate_netsim::element::{Effects, PacketBuf, PathElement};
use liberate_obs::{Counter, Journal, JsonValue};
use liberate_packet::flow::Direction;
use liberate_packet::packet::Packet;
use liberate_packet::tcp::TcpFlags;
use liberate_substrate::time::SimTime;
use liberate_traces::apps;

use std::net::Ipv4Addr;

const C: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);
const S: Ipv4Addr = Ipv4Addr::new(203, 0, 113, 10);

/// Bytes of payload per flow: 4 near-MSS segments, sized to stay inside
/// the tightest streaming window (GFC caps reassembly at 4096 bytes) so
/// every generated byte is actually inspected.
const SEGMENT_BYTES: usize = 1000;
const SEGMENTS_PER_FLOW: usize = 4;
const FLOW_BYTES: usize = SEGMENT_BYTES * SEGMENTS_PER_FLOW;

/// Timing repetitions per cell; the best run is reported to shed
/// scheduler noise.
const REPS: usize = 3;

/// The two arms of every cell.
const MATCHERS: [MatcherKind; 2] = [MatcherKind::NaiveRescan, MatcherKind::Automaton];

/// One synthetic wire packet: (micros, c2s, bytes).
type Step = (u64, Direction, Vec<u8>);

/// A trace of `flows` non-matching HTTP-ish flows, `FLOW_BYTES` each.
/// Every segment opens with `GET ` so the gated profiles keep
/// inspecting; the padding never contains a rule keyword.
fn synthetic_trace(flows: usize) -> Vec<Step> {
    let mut steps = Vec::new();
    let mut t = 0u64;
    for f in 0..flows {
        let port = 40_000 + f as u16;
        let isn = 1_000 * (f as u32 + 1);
        steps.push((
            t,
            Direction::ClientToServer,
            Packet::tcp(C, S, port, 80, isn, 0, vec![])
                .with_flags(TcpFlags::SYN)
                .serialize(),
        ));
        let mut seq = isn + 1;
        for s in 0..SEGMENTS_PER_FLOW {
            t += 500;
            let head = format!("GET /flow{f:04}/seg{s} HTTP/1.1\r\nHost: pad.invalid\r\n");
            let mut payload = head.into_bytes();
            payload.resize(SEGMENT_BYTES, b'a');
            steps.push((
                t,
                Direction::ClientToServer,
                Packet::tcp(C, S, port, 80, seq, 1, payload).serialize(),
            ));
            seq += SEGMENT_BYTES as u32;
        }
        t += 500;
    }
    steps
}

/// One pass of a trace through a fresh device.
struct Pass {
    host_us: u64,
    scanned: u64,
    events: Vec<(String, String)>,
    /// (billed, zero-rated) bytes.
    accounting: (u64, u64),
}

/// Feed `steps` once through a fresh device of `config` with `matcher`.
fn run_device(
    config: &DpiConfig,
    matcher: MatcherKind,
    steps: &[(u64, Direction, PacketBuf)],
) -> Pass {
    let mut cfg = config.clone();
    cfg.matcher = matcher;
    let mut dev = DpiDevice::new(cfg);
    let journal = Arc::new(Journal::new());
    dev.attach_journal(&journal);
    let t0 = Instant::now();
    for (us, dir, wire) in steps {
        let mut fx = Effects::default();
        dev.process(SimTime::from_micros(*us), *dir, wire.clone(), &mut fx);
    }
    Pass {
        host_us: t0.elapsed().as_micros() as u64,
        scanned: journal.metrics.get(Counter::MatcherBytesScanned),
        events: dev
            .events
            .iter()
            .map(|e| (e.class.clone(), e.rule_id.clone()))
            .collect(),
        accounting: (dev.billed_bytes, dev.zero_rated_bytes),
    }
}

/// The fastest of `REPS` passes per matcher, naive then automaton.
fn best_passes(config: &DpiConfig, trace: &[Step]) -> [Pass; 2] {
    // Materialize the wire buffers once: the timed loop hands the device
    // refcounted views, so per-packet cost is the matcher, not memcpy.
    let steps: Vec<(u64, Direction, PacketBuf)> = trace
        .iter()
        .map(|(us, dir, wire)| (*us, *dir, PacketBuf::from(wire.clone())))
        .collect();
    harness::alternate(REPS, |arm| run_device(config, MATCHERS[arm], &steps)).map(|passes| {
        passes
            .into_iter()
            .min_by_key(|p| p.host_us)
            .expect("at least one repetition")
    })
}

struct Cell {
    profile: &'static str,
    trace_bytes: usize,
    naive_us: u64,
    naive_scanned: u64,
    auto_us: u64,
    auto_scanned: u64,
}

impl Cell {
    fn reduction(&self) -> f64 {
        self.naive_scanned as f64 / self.auto_scanned.max(1) as f64
    }

    fn to_json(&self) -> JsonValue {
        JsonValue::object([
            ("profile", self.profile.into()),
            ("trace_bytes", self.trace_bytes.into()),
            ("naive_host_us", self.naive_us.into()),
            ("naive_bytes_scanned", self.naive_scanned.into()),
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
    println!("Benchmark: streaming Aho-Corasick matcher vs naive per-rule rescans\n");

    let profiles: Vec<(&'static str, DpiConfig)> = vec![
        ("testbed", testbed_device()),
        ("tmobile", tmus_device()),
        ("gfc", gfc_device(3 * 3600)),
        ("iran", iran_device()),
    ];
    // 8 / 32 / 128 flows of 4 KB: ~32 KB, ~128 KB, ~512 KB of payload.
    let flow_counts = [8usize, 32, 128];

    let mut cells: Vec<Cell> = Vec::new();
    for &flows in &flow_counts {
        let trace = synthetic_trace(flows);
        let trace_bytes = flows * FLOW_BYTES;
        for (name, config) in &profiles {
            let [naive, auto] = best_passes(config, &trace);
            assert_eq!(
                naive.events, auto.events,
                "{name}/{trace_bytes}B: classification events diverge between matchers"
            );
            assert_eq!(
                naive.accounting, auto.accounting,
                "{name}/{trace_bytes}B: byte accounting diverges between matchers"
            );
            println!(
                "{name:8} {:>4} KB  naive {:>10} B scanned / {:>7} us   \
automaton {:>9} B / {:>6} us   ({:.1}x fewer bytes)",
                trace_bytes / 1024,
                naive.scanned,
                naive.host_us,
                auto.scanned,
                auto.host_us,
                naive.scanned as f64 / auto.scanned.max(1) as f64,
            );
            cells.push(Cell {
                profile: name,
                trace_bytes,
                naive_us: naive.host_us,
                naive_scanned: naive.scanned,
                auto_us: auto.host_us,
                auto_scanned: auto.scanned,
            });
        }
    }

    // --- Per-profile floor: with the root skip loop the automaton must
    // hold its own against the naive rescanner in *every* cell — single-
    // and few-pattern profiles (Iran, GFC) included, at every trace size.
    // 5% headroom absorbs host timing noise.
    for c in &cells {
        assert!(
            c.auto_us as f64 <= c.naive_us as f64 * 1.05,
            "{}/{} B: automaton host time {} us exceeds naive {} us by more than 5%",
            c.profile,
            c.trace_bytes,
            c.auto_us,
            c.naive_us
        );
    }

    // --- Aggregate over the largest trace: the headline numbers the CI
    // gate holds the automaton to.
    let largest = flow_counts[flow_counts.len() - 1] * FLOW_BYTES;
    let big: Vec<&Cell> = cells.iter().filter(|c| c.trace_bytes == largest).collect();
    let naive_scanned: u64 = big.iter().map(|c| c.naive_scanned).sum();
    let auto_scanned: u64 = big.iter().map(|c| c.auto_scanned).sum();
    let naive_us: u64 = big.iter().map(|c| c.naive_us).sum();
    let auto_us: u64 = big.iter().map(|c| c.auto_us).sum();
    let reduction = naive_scanned as f64 / auto_scanned.max(1) as f64;
    let speedup = naive_us as f64 / auto_us.max(1) as f64;
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
        auto_us <= naive_us,
        "automaton must not be slower than the naive matcher on the largest trace \
({auto_us} us vs {naive_us} us)"
    );

    // --- Pooled characterization: the end-to-end path the engine runs,
    // at 1 and 4 workers, must produce matcher-identical results; host
    // time is recorded for the dataset.
    let trace = apps::amazon_prime_http(8_000);
    let opts = CharacterizeOpts::default();
    let mut pool_runs = Vec::new();
    let mut pool_fields: Option<Vec<String>> = None;
    for workers in [1usize, 4] {
        for matcher in MATCHERS {
            let t0 = Instant::now();
            let mut pool = SessionPool::new(
                EnvKind::Testbed,
                OsKind::Linux,
                LiberateConfig::default(),
                workers,
            );
            for w in 0..workers {
                pool.session_mut(w)
                    .env
                    .dpi_mut()
                    .expect("testbed env has a DPI device")
                    .config
                    .matcher = matcher;
            }
            let c = characterize_parallel(&mut pool, &trace, &Signal::Readout, &opts);
            let host_ms = t0.elapsed().as_millis() as u64;
            let fields: Vec<String> = c.fields.iter().map(|f| f.as_text()).collect();
            match &pool_fields {
                None => pool_fields = Some(fields),
                Some(reference) => assert_eq!(
                    &fields, reference,
                    "pooled characterization diverges ({matcher:?}, {workers} workers)"
                ),
            }
            println!(
                "pool {matcher:?} workers={workers}: {} replays, {host_ms} ms host",
                c.rounds
            );
            pool_runs.push(JsonValue::object([
                (
                    "matcher",
                    match matcher {
                        MatcherKind::NaiveRescan => "naive",
                        MatcherKind::Automaton => "automaton",
                    }
                    .into(),
                ),
                ("workers", workers.into()),
                ("replays", c.rounds.into()),
                ("host_ms", host_ms.into()),
            ]));
        }
    }

    harness::publish(
        "matcher",
        &JsonValue::object([
            ("experiment", "streaming-matcher".into()),
            (
                "workload",
                "non-matching GET flows, 4x1000B segments per flow, all DPI profiles".into(),
            ),
            (
                "cells",
                JsonValue::Array(cells.iter().map(Cell::to_json).collect()),
            ),
            (
                "largest_trace",
                JsonValue::object([
                    ("trace_bytes", largest.into()),
                    ("naive_bytes_scanned", naive_scanned.into()),
                    ("automaton_bytes_scanned", auto_scanned.into()),
                    (
                        "bytes_scanned_reduction",
                        harness::round_to(reduction, 2).into(),
                    ),
                    ("naive_host_us", naive_us.into()),
                    ("automaton_host_us", auto_us.into()),
                    ("host_speedup", harness::round_to(speedup, 2).into()),
                ]),
            ),
            ("pool_characterization", JsonValue::Array(pool_runs)),
        ]),
    );

    println!(
        "\n[ok] automaton matches naive verdicts with {reduction:.1}x fewer bytes scanned \
and {speedup:.2}x host wall-clock on the largest trace"
    );
}
