//! **Reactor scale benchmark**: how many concurrent deployed flows one
//! pool can hold in flight. Drives waves of up to 100k+ simultaneous
//! users through a `DeploymentPool`, whose flows run as reactor tasks,
//! at 1/2/4 workers, recording throughput (flows/sec), simulated
//! wall-clock, and peak-heap-per-flow curves to
//! `results/BENCH_scale.json`.
//!
//! Each user in a wave is a resumable `FlowTask` on its own lane — no OS
//! thread, no session clone — and the reactor builds each task when its
//! turn comes and runs it to completion, so the marginal cost of a flow
//! is its job, lane and result plus the flow state the server and the
//! DPI table keep, and memory must grow *sub-linearly in aggregate*
//! (fixed pool overhead amortizes) with a bounded per-flow increment.
//! Both are gated here:
//!
//! - every flow in the big wave must complete and report;
//! - marginal peak heap per flow (the wave's live-heap high-water mark
//!   over the live heap when it opened, counted by this binary's global
//!   allocator) must stay under 1.5 KiB (about 1.2 KiB measured).
//!
//! Run with: `cargo run --release -p liberate-bench --bin exp-scale`
//! CI runs a reduced count: `exp-scale --flows 20000`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Instant;

use liberate::prelude::*;
use liberate_bench::harness;
use liberate_obs::{Counter, Journal, JsonValue};
use liberate_traces::recorded::{RecordedTrace, Sender, TraceProtocol};

/// The marginal peak-heap gate per flow in the largest wave.
const MAX_BYTES_PER_FLOW: u64 = 1536;

/// The wave the per-flow slowdown is measured against: perfbench's
/// `deploy` wave size.
const BASE_WAVE: usize = 2_000;

/// Alternated rounds of the per-flow slowdown measurement.
const SLOWDOWN_ROUNDS: usize = 5;

/// A one-request page fetch the GFC model RST-blocks on its
/// `economist.com` keyword: a crisp Blocking signal over a handful of
/// packets, so a wave's footprint measures the reactor's per-flow cost,
/// not bulk payload transfer (the full `apps::economist_http()` page is
/// 64 KB — two orders of magnitude more wire bytes than the signal
/// needs).
fn blocked_page() -> RecordedTrace {
    let mut t = RecordedTrace::new("economist.com", TraceProtocol::Tcp, 80);
    t.push_stream(
        Sender::Client,
        b"GET /weeklyedition HTTP/1.1\r\nHost: www.economist.com\r\nUser-Agent: Mozilla/5.0\r\nAccept: */*\r\n\r\n",
    );
    let body = vec![b'x'; 1_000];
    let mut response = format!(
        "HTTP/1.1 200 OK\r\nContent-Type: text/html\r\nContent-Length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    response.extend_from_slice(&body);
    t.push_stream(Sender::Server, &response);
    t
}

// Live heap bytes and their high-water mark. Statistics that publish no
// other data, so relaxed ordering suffices.
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// The system allocator, counting live and peak heap bytes.
struct Counting;

fn grew(size: usize) {
    let live = LIVE.fetch_add(size, Relaxed) + size;
    PEAK.fetch_max(live, Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's layout and
// pointer unchanged, so `System`'s guarantees carry over; the counters
// are plain atomics and never touch the memory handed out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by this allocator (hence `System`)
        // with `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            LIVE.fetch_sub(layout.size(), Relaxed);
            grew(new_size);
        }
        p
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Restart the high-water mark at the current live heap; returns it.
fn reset_peak() -> u64 {
    let live = LIVE.load(Relaxed);
    PEAK.store(live, Relaxed);
    live as u64
}

struct WaveStats {
    workers: usize,
    flows: usize,
    host_us: u64,
    flows_per_sec: f64,
    sim_us: u64,
    /// Live heap when the wave opened, and its high-water mark during the
    /// wave, in bytes.
    heap_before: u64,
    heap_peak: u64,
    bytes_per_flow: u64,
    tasks_admitted: u64,
    reactor_ticks: u64,
    timer_fires: u64,
}

impl WaveStats {
    fn to_json(&self) -> JsonValue {
        JsonValue::object([
            ("workers", self.workers.into()),
            ("flows", self.flows.into()),
            ("host_ms", (self.host_us / 1_000).into()),
            (
                "flows_per_sec",
                harness::round_to(self.flows_per_sec, 1).into(),
            ),
            ("sim_us", self.sim_us.into()),
            ("live_heap_before_bytes", self.heap_before.into()),
            ("peak_heap_bytes", self.heap_peak.into()),
            ("bytes_per_flow", self.bytes_per_flow.into()),
            ("tasks_admitted", self.tasks_admitted.into()),
            ("reactor_ticks", self.reactor_ticks.into()),
            ("timer_fires", self.timer_fires.into()),
        ])
    }
}

/// One deployment wave of `flows` users; journals are off (counters
/// stay live), so the measurement is the reactor, not the tracer.
fn run_wave(
    pool: &mut DeploymentPool,
    trace: &liberate_traces::recorded::RecordedTrace,
    flows: usize,
) -> WaveStats {
    let workers = pool.workers();
    let before = pool
        .pool_mut()
        .reactor_telemetry()
        .metrics
        .get(Counter::ReactorTicks);
    let admitted_before = pool
        .pool_mut()
        .reactor_telemetry()
        .metrics
        .get(Counter::ReactorTasksAdmitted);
    let fires_before = pool
        .pool_mut()
        .reactor_telemetry()
        .metrics
        .get(Counter::ReactorTimerFires);
    let heap_before = reset_peak();

    let t0 = Instant::now();
    let wave = pool.run_flows(trace, flows).expect("deployment wave");
    let host_us = t0.elapsed().as_micros() as u64;

    assert_eq!(wave.reports.len(), flows, "every flow must report");
    assert!(
        wave.all_evaded(),
        "a steady-state wave must carry every user's traffic"
    );

    let heap_peak = PEAK.load(Relaxed) as u64;
    let sim_us = harness::max_clock_us(pool.pool_mut());
    let telemetry = pool.pool_mut().reactor_telemetry().clone();
    let tasks_admitted = telemetry.metrics.get(Counter::ReactorTasksAdmitted) - admitted_before;
    assert_eq!(
        tasks_admitted, flows as u64,
        "every flow must run as a reactor task (not as a closure)"
    );

    WaveStats {
        workers,
        flows,
        host_us,
        flows_per_sec: flows as f64 / (host_us.max(1) as f64 / 1e6),
        sim_us,
        heap_before,
        heap_peak,
        bytes_per_flow: (heap_peak - heap_before) / flows.max(1) as u64,
        tasks_admitted,
        reactor_ticks: telemetry.metrics.get(Counter::ReactorTicks) - before,
        timer_fires: telemetry.metrics.get(Counter::ReactorTimerFires) - fires_before,
    }
}

/// The median of `samples` (the mean of the middle two for an even count).
fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    }
}

fn scale_pool(workers: usize) -> DeploymentPool {
    let sessions = SessionPool::new(
        EnvKind::Gfc,
        OsKind::Linux,
        LiberateConfig::default(),
        workers,
    );
    // Port rotation is mandatory against the GFC model: it blocks a
    // server:port pair after two classified flows.
    let copts = CharacterizeOpts {
        rotate_server_ports: true,
        ..Default::default()
    };
    let mut pool = DeploymentPool::over(sessions, copts);
    for w in 0..pool.workers() {
        pool.pool_mut()
            .session_mut(w)
            .attach_journal(Arc::new(Journal::disabled()));
    }
    pool
}

fn main() {
    let mut flows: usize = 100_000;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--flows" => {
                flows = args.next().and_then(|v| v.parse().ok()).expect("--flows N");
            }
            other => panic!("unknown argument: {other}"),
        }
    }

    println!("Benchmark: reactor deployment scale ({flows} concurrent flows)\n");
    let trace = blocked_page();

    // --- Memory / sim-clock curve on one worker: ascending wave sizes,
    // same pool; each wave's peak heap over the heap it opened with is
    // that scale's marginal footprint.
    let mut curve = Vec::new();
    {
        let mut pool = scale_pool(1);
        // Pay the initial learn outside the measured waves.
        pool.run_flows(&trace, 1).expect("initial learn");
        let mut scales = vec![flows / 100, BASE_WAVE.min(flows), flows / 10, flows];
        scales.sort_unstable();
        scales.dedup();
        for scale in scales {
            if scale == 0 {
                continue;
            }
            let stats = run_wave(&mut pool, &trace, scale);
            println!(
                "curve: {:>7} flows  {:>7.1} ms host  {:>6.0} flows/s  peak heap {} kB",
                stats.flows,
                stats.host_us as f64 / 1e3,
                stats.flows_per_sec,
                stats.heap_peak / 1_024,
            );
            curve.push(stats);
        }
    }

    // How much dearer one flow is in the largest wave than in a
    // `BASE_WAVE` one, on one worker. Each sample is one wave on a
    // freshly learned pool (a long-lived pool slows down as it ages), the
    // two sizes alternating which runs first; the slowdown is the ratio
    // of the per-size medians of host time per flow, with the min-max
    // spread of the per-round ratios. Reported, not gated: host timing
    // noise would make a gate flaky.
    let base_flows = BASE_WAVE.min(flows);
    let [base_us, big_us] = harness::alternate(SLOWDOWN_ROUNDS, |arm| {
        let size = [base_flows, flows][arm];
        let mut pool = scale_pool(1);
        pool.run_flows(&trace, 1).expect("initial learn");
        run_wave(&mut pool, &trace, size).host_us as f64 / size as f64
    });
    let per_flow_slowdown = median(&big_us) / median(&base_us);
    let ratios: Vec<f64> = big_us.iter().zip(&base_us).map(|(b, s)| b / s).collect();
    let spread = [
        ratios.iter().copied().fold(f64::INFINITY, f64::min),
        ratios.iter().copied().fold(f64::NEG_INFINITY, f64::max),
    ];
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "\nper-flow slowdown: {per_flow_slowdown:.2}x from {base_flows} to {flows} flows \
         (1 worker, median of {SLOWDOWN_ROUNDS} alternated rounds on fresh pools; \
         per-round {:.2}-{:.2}x; {cores} host cores)",
        spread[0], spread[1]
    );

    // Sub-linear aggregate growth: 10x the flows must cost well under
    // 10x the peak heap (fixed pool overhead dominates; per-flow state is
    // small). Gate the marginal per-flow bytes of the largest wave.
    if let Some(big) = curve.last() {
        println!(
            "\nmarginal memory: {} bytes/flow at {} flows (gate: <= {})",
            big.bytes_per_flow, big.flows, MAX_BYTES_PER_FLOW
        );
        assert!(
            big.bytes_per_flow <= MAX_BYTES_PER_FLOW,
            "peak heap per flow {} B exceeds the {MAX_BYTES_PER_FLOW} B gate",
            big.bytes_per_flow
        );
        if curve.len() >= 2 {
            let small = &curve[0];
            let growth = big.heap_peak as f64 / small.heap_peak.max(1) as f64;
            let scale_up = big.flows as f64 / small.flows.max(1) as f64;
            println!(
                "aggregate growth: {growth:.2}x peak heap across a {scale_up:.0}x flow scale-up"
            );
            assert!(
                growth < scale_up,
                "memory grew {growth:.2}x over a {scale_up:.0}x scale-up — not sub-linear"
            );
        }
    }

    // --- Worker sweep at full scale: flows/sec and peak heap at 1, 2, 4
    // workers.
    let mut runs = Vec::new();
    for workers in [1usize, 2, 4] {
        let mut pool = scale_pool(workers);
        pool.run_flows(&trace, workers).expect("initial learn");
        let stats = run_wave(&mut pool, &trace, flows);
        println!(
            "{} worker(s): {} flows in {:.1} ms host ({:.0} flows/s), {:.1} min simulated",
            workers,
            stats.flows,
            stats.host_us as f64 / 1e3,
            stats.flows_per_sec,
            stats.sim_us as f64 / 60e6,
        );
        runs.push(stats);
    }

    harness::publish(
        "scale",
        &JsonValue::object([
            ("experiment", "reactor-deployment-scale".into()),
            ("trace", "economist-http".into()),
            ("flows", flows.into()),
            ("max_bytes_per_flow_gate", MAX_BYTES_PER_FLOW.into()),
            (
                "per_flow_slowdown",
                harness::round_to(per_flow_slowdown, 3).into(),
            ),
            (
                "per_flow_slowdown_spread",
                JsonValue::Array(spread.map(|r| harness::round_to(r, 3).into()).to_vec()),
            ),
            ("slowdown_rounds", SLOWDOWN_ROUNDS.into()),
            (
                "per_flow_us_median",
                JsonValue::object([
                    ("base", harness::round_to(median(&base_us), 3).into()),
                    ("largest", harness::round_to(median(&big_us), 3).into()),
                ]),
            ),
            (
                "curve",
                JsonValue::Array(curve.iter().map(WaveStats::to_json).collect()),
            ),
            (
                "runs",
                JsonValue::Array(runs.iter().map(WaveStats::to_json).collect()),
            ),
        ]),
    );

    println!("\n[ok] reactor sustained {flows} concurrent flows per wave within the memory gate");
}
