//! The event journal: an append-only log of what the pipeline did, in
//! simulation time.
//!
//! Phases mirror Fig. 3 of the paper: detect (inverted control), the two
//! characterization searches (blind byte search §5.1, position probe
//! §5.2), evaluation of the Table 3 taxonomy, and deployment through the
//! rule cache. Spans nest — a deploy span that triggers a fresh
//! characterization encloses blind-search/position-probe spans — and every
//! typed event is attributed to the innermost open span at record time.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::hist::Hist;
use crate::metrics::Metrics;

/// A pipeline phase that can be spanned in the journal. The first five
/// mirror Fig. 3 of the paper; `Wave` and `Replay` are *micro* phases —
/// engine-level spans that nest inside a Fig. 3 phase to show where its
/// time went (one wave bucket, one replayed trace).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    Detect,
    BlindSearch,
    PositionProbe,
    Evaluate,
    Deploy,
    Wave,
    Replay,
}

impl Phase {
    pub const ALL: [Phase; 7] = [
        Phase::Detect,
        Phase::BlindSearch,
        Phase::PositionProbe,
        Phase::Evaluate,
        Phase::Deploy,
        Phase::Wave,
        Phase::Replay,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Phase::Detect => "detect",
            Phase::BlindSearch => "blind-search",
            Phase::PositionProbe => "position-probe",
            Phase::Evaluate => "evaluate",
            Phase::Deploy => "deploy",
            Phase::Wave => "wave",
            Phase::Replay => "replay",
        }
    }

    pub fn from_name(name: &str) -> Option<Phase> {
        Phase::ALL.iter().copied().find(|p| p.name() == name)
    }

    /// Position in `Phase::ALL`; used as an array index by the summary.
    pub fn index(self) -> usize {
        self as usize
    }

    /// Micro phases are engine plumbing, not Fig. 3 steps. Events keep
    /// being *attributed* (`Event::phase`) to the innermost open Fig. 3
    /// phase so per-phase replay/packet accounting is unchanged by the
    /// finer spans; micro spans still appear in the span tree via ids.
    pub fn is_micro(self) -> bool {
        matches!(self, Phase::Wave | Phase::Replay)
    }
}

/// What happened. Every variant carries only deterministic data — values
/// derived from the trace, the seed, or the simulation clock.
#[derive(Debug, Clone, PartialEq)]
pub enum EventKind {
    /// A span opened. `id` is unique within one journal (pool workers
    /// have their own id sequences; a merged journal keys spans by
    /// `(worker, id)`), `parent` is the id of the enclosing open span.
    SpanStart {
        phase: Phase,
        id: u64,
        parent: Option<u64>,
    },
    /// A span closed. `id` is 0 for an end with no matching start (the
    /// imbalance stays visible in the journal rather than panicking).
    SpanEnd {
        phase: Phase,
        id: u64,
    },
    /// A `Session` came up against an environment with a seed. Recording
    /// the seed makes journals self-describing and guarantees different
    /// seeds produce different journals. `substrate` names the backend
    /// the session ran on ("sim", "nft"); the JSONL encoding omits it for
    /// "sim" so simulator journals are stable across the seam refactor.
    SessionStarted {
        env: String,
        seed: u64,
        substrate: String,
    },
    /// A client packet entered the simulated network.
    PacketInjected {
        bytes: u64,
    },
    /// The DPI device classified a flow.
    ClassifierVerdict {
        class: String,
        rule_id: String,
    },
    /// A client RST changed DPI flow state (flush or timeout shortening).
    FlowReset,
    CacheHit {
        key: String,
    },
    CacheMiss {
        key: String,
    },
    /// One Table 3 candidate was evaluated end to end.
    TechniqueTried {
        technique: String,
        evaded: bool,
    },
    /// One replay finished; `replay` is the session's running count.
    ReplayFinished {
        replay: u64,
        bytes_sent: u64,
        server_bytes: u64,
        blocked: bool,
    },
    /// A DPI device's rule set was hot-swapped mid-deployment.
    RuleSwap {
        device: String,
        rules: u64,
    },
    /// The deployment pool atomically published a (re)characterized
    /// technique under a new generation stamp.
    TechniquePublished {
        generation: u64,
        technique: String,
    },
    /// A flow parked on a fallback-ladder technique after the published
    /// technique burned mid-wave.
    FallbackEngaged {
        technique: String,
    },
}

impl EventKind {
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::SpanStart { .. } => "span_start",
            EventKind::SpanEnd { .. } => "span_end",
            EventKind::SessionStarted { .. } => "session_started",
            EventKind::PacketInjected { .. } => "packet_injected",
            EventKind::ClassifierVerdict { .. } => "classifier_verdict",
            EventKind::FlowReset => "flow_reset",
            EventKind::CacheHit { .. } => "cache_hit",
            EventKind::CacheMiss { .. } => "cache_miss",
            EventKind::TechniqueTried { .. } => "technique_tried",
            EventKind::ReplayFinished { .. } => "replay_finished",
            EventKind::RuleSwap { .. } => "rule_swap",
            EventKind::TechniquePublished { .. } => "technique_published",
            EventKind::FallbackEngaged { .. } => "fallback_engaged",
        }
    }
}

/// One journal entry. `t_us` is microseconds on the simulation clock
/// (`SimTime::as_micros()` at the call site — never the wall clock).
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    pub t_us: u64,
    /// Innermost open *Fig. 3* span when the event was recorded — micro
    /// phases (`Wave`, `Replay`) are skipped for attribution so the
    /// per-phase accounting matches the paper's pipeline. For
    /// `SpanStart`/`SpanEnd` this is the span's own phase.
    pub phase: Option<Phase>,
    /// Pool worker whose session recorded this event; `None` in a
    /// single-session run (and omitted from the JSONL), so sequential
    /// journals are byte-identical to pre-engine ones. Set by
    /// [`Journal::absorb_worker`], never at record time.
    pub worker: Option<u32>,
    /// Id of the innermost open span of *any* phase at record time. For
    /// `SpanStart`/`SpanEnd` this is the span's own id. Together with
    /// `SpanStart::parent`, this nests every event into the span tree.
    pub span: Option<u64>,
    pub kind: EventKind,
}

/// One open span on the stack: phase, id, and when it opened (so the
/// closing end can feed the per-phase sim-latency histogram).
#[derive(Debug, Clone, Copy)]
struct OpenSpan {
    phase: Phase,
    id: u64,
    start_us: u64,
}

#[derive(Debug, Default)]
struct Inner {
    events: Vec<Event>,
    stack: Vec<OpenSpan>,
    /// Next span id; ids start at 1 (0 marks an unmatched span end).
    next_span: u64,
}

/// The journal: event log plus counter registry. A worker's one
/// `Arc<Journal>` is held by its `Network`, which lends it to every path
/// element per packet; the session reaches it through its substrate.
/// All execution is synchronous today, so the mutex is uncontended; it
/// exists so the handle can be cloned freely across layers.
#[derive(Debug)]
pub struct Journal {
    inner: Mutex<Inner>,
    /// When false every record/span/observe call is a no-op. `exp-obs`
    /// uses this to measure tracing overhead (journal on vs off) on an
    /// otherwise identical workload; counters stay live either way.
    enabled: AtomicBool,
    /// Counters and histograms; a [`Journal::staging`] journal shares
    /// its parent's.
    pub metrics: Arc<Metrics>,
}

impl Default for Journal {
    fn default() -> Journal {
        Journal {
            inner: Mutex::default(),
            enabled: AtomicBool::new(true),
            metrics: Arc::default(),
        }
    }
}

impl Journal {
    pub fn new() -> Journal {
        Journal::default()
    }

    /// A journal whose record/span/observe calls are no-ops (counters
    /// still count). The baseline side of the `exp-obs` overhead gate.
    pub fn disabled() -> Journal {
        let j = Journal::new();
        j.set_enabled(false);
        j
    }

    /// An enabled journal that stages events for a later
    /// [`Journal::splice_staged`] into `self` (a reactor lane's). It
    /// shares `self`'s [`Metrics`]: counters and histogram samples land
    /// in the parent at once, whether or not the lane is ever spliced,
    /// and only the events wait for the splice.
    pub fn staging(&self) -> Journal {
        Journal {
            metrics: Arc::clone(&self.metrics),
            ..Journal::default()
        }
    }

    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Record a typed event, attributed to the innermost open Fig. 3
    /// span (micro spans carry ids but never attribution).
    pub fn record(&self, t_us: u64, kind: EventKind) {
        if !self.is_enabled() {
            return;
        }
        let mut inner = self.inner.lock();
        let phase = inner
            .stack
            .iter()
            .rev()
            .find(|s| !s.phase.is_micro())
            .map(|s| s.phase);
        let span = inner.stack.last().map(|s| s.id);
        inner.events.push(Event {
            t_us,
            phase,
            worker: None,
            span,
            kind,
        });
    }

    /// Record one histogram sample, gated like events so the disabled
    /// journal measures a true tracing-off baseline.
    pub fn observe(&self, h: Hist, v: u64) {
        if self.is_enabled() {
            self.metrics.observe(h, v);
        }
    }

    /// Open a phase span at `t_us`; returns its id (0 when disabled).
    pub fn span_start(&self, t_us: u64, phase: Phase) -> u64 {
        if !self.is_enabled() {
            return 0;
        }
        let mut inner = self.inner.lock();
        inner.next_span += 1;
        let id = inner.next_span;
        let parent = inner.stack.last().map(|s| s.id);
        inner.stack.push(OpenSpan {
            phase,
            id,
            start_us: t_us,
        });
        inner.events.push(Event {
            t_us,
            phase: Some(phase),
            worker: None,
            span: Some(id),
            kind: EventKind::SpanStart { phase, id, parent },
        });
        id
    }

    /// Close the innermost span of `phase` at `t_us`, feeding the
    /// phase's sim-latency histogram. Tolerates a span that was never
    /// opened (the end event is still recorded with id 0, so the
    /// imbalance is visible in the journal rather than a panic).
    pub fn span_end(&self, t_us: u64, phase: Phase) {
        if !self.is_enabled() {
            return;
        }
        let mut inner = self.inner.lock();
        let mut id = 0;
        if let Some(pos) = inner.stack.iter().rposition(|s| s.phase == phase) {
            let open = inner.stack.remove(pos);
            id = open.id;
            self.metrics
                .observe(Hist::for_phase(phase), t_us.saturating_sub(open.start_us));
        }
        inner.events.push(Event {
            t_us,
            phase: Some(phase),
            worker: None,
            span: Some(id),
            kind: EventKind::SpanEnd { phase, id },
        });
    }

    /// Fold a pool worker's journal into this one: its events are
    /// appended tagged `worker = Some(w)` (in their original order), its
    /// counter values are added to this journal's registry, and its
    /// histograms merge bucket-wise. Span ids stay worker-local — a
    /// merged journal keys spans by `(worker, id)`. Callers absorb
    /// workers in ascending index order so the merged journal is
    /// deterministic for a fixed seed and worker count.
    pub fn absorb_worker(&self, worker: u32, other: &Journal) {
        let events = other.events();
        {
            let mut inner = self.inner.lock();
            inner.events.extend(events.into_iter().map(|mut e| {
                e.worker = Some(worker);
                e
            }));
        }
        for (counter, value) in other.metrics.snapshot() {
            if value > 0 {
                self.metrics.add(counter, value);
            }
        }
        self.metrics.merge_hists(&other.metrics);
    }

    /// Splice a reactor lane's *staged* journal into this one as if its
    /// events had been recorded inline, `dt_us` later on this journal's
    /// timeline. This is the canonicalization half of the event-driven
    /// engine's determinism contract (`liberate::reactor`): every lane
    /// records into a private staged journal on a virtual timeline
    /// starting at the wave's opening instant, and the reactor splices
    /// the lanes back in **admission order** with `dt_us` set to the sum
    /// of the earlier lanes' durations — reproducing, byte for byte, the
    /// journal a sequential run of the same jobs would have written.
    ///
    /// Concretely:
    /// - staged timestamps are rebased by `dt_us`;
    /// - staged span ids (a private 1.. sequence) are renumbered after
    ///   this journal's, and staged root spans are re-parented onto this
    ///   journal's innermost open span (the enclosing `Wave`);
    /// - events the lane recorded outside any non-micro span inherit this
    ///   journal's innermost open Fig. 3 phase, exactly as they would
    ///   have had they been recorded inline under it;
    /// - `ReplayFinished::replay` ordinals (lane-local 1..) are rebased
    ///   by `replay_base`, the session replays that canonically precede
    ///   this lane.
    ///
    /// The staged events are moved out, leaving `staged` empty. Metrics
    /// are not touched: a [`Journal::staging`] journal already recorded
    /// them into this one. A disabled journal takes no events, so
    /// splicing a journal-off lane (which shares it) is a no-op.
    pub fn splice_staged(&self, staged: &Journal, dt_us: u64, replay_base: u64) {
        if !self.is_enabled() {
            return;
        }
        let (events, id_base) = {
            let mut staged_inner = staged.inner.lock();
            (
                std::mem::take(&mut staged_inner.events),
                staged_inner.next_span,
            )
        };
        let mut inner = self.inner.lock();
        let ctx_phase = inner
            .stack
            .iter()
            .rev()
            .find(|s| !s.phase.is_micro())
            .map(|s| s.phase);
        let ctx_span = inner.stack.last().map(|s| s.id);
        let base = inner.next_span;
        inner.next_span = base + id_base;
        let remap = |id: Option<u64>| match id {
            // 0 marks an unmatched span end; keep the imbalance visible.
            Some(0) => Some(0),
            Some(id) => Some(id + base),
            None => ctx_span,
        };
        inner.events.extend(events.into_iter().map(|mut e| {
            e.t_us += dt_us;
            if e.phase.is_none() {
                e.phase = ctx_phase;
            }
            e.span = remap(e.span);
            match &mut e.kind {
                EventKind::SpanStart { id, parent, .. } => {
                    *id += base;
                    *parent = remap(*parent);
                }
                EventKind::SpanEnd { id, .. } => {
                    if *id != 0 {
                        *id += base;
                    }
                }
                EventKind::ReplayFinished { replay, .. } => {
                    *replay += replay_base;
                }
                _ => {}
            }
            e
        }));
    }

    /// Innermost open span's phase, micro or not, if any.
    pub fn current_phase(&self) -> Option<Phase> {
        self.inner.lock().stack.last().map(|s| s.phase)
    }

    /// A snapshot of all events recorded so far.
    pub fn events(&self) -> Vec<Event> {
        self.inner.lock().events.clone()
    }

    pub fn len(&self) -> usize {
        self.inner.lock().events.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_inherit_innermost_phase() {
        let j = Journal::new();
        j.record(0, EventKind::FlowReset);
        j.span_start(10, Phase::Deploy);
        j.span_start(20, Phase::BlindSearch);
        j.record(25, EventKind::PacketInjected { bytes: 100 });
        j.span_end(30, Phase::BlindSearch);
        j.record(35, EventKind::PacketInjected { bytes: 50 });
        j.span_end(40, Phase::Deploy);

        let evs = j.events();
        assert_eq!(evs[0].phase, None);
        assert_eq!(evs[0].span, None);
        assert_eq!(evs[3].phase, Some(Phase::BlindSearch));
        assert_eq!(evs[3].span, Some(2));
        assert_eq!(evs[5].phase, Some(Phase::Deploy));
        assert_eq!(evs[5].span, Some(1));
        assert_eq!(j.current_phase(), None);
    }

    #[test]
    fn span_ids_nest_with_parents() {
        let j = Journal::new();
        let outer = j.span_start(0, Phase::Detect);
        let inner = j.span_start(5, Phase::Replay);
        assert_eq!(outer, 1);
        assert_eq!(inner, 2);
        j.span_end(9, Phase::Replay);
        j.span_end(10, Phase::Detect);

        let evs = j.events();
        assert_eq!(
            evs[0].kind,
            EventKind::SpanStart {
                phase: Phase::Detect,
                id: 1,
                parent: None
            }
        );
        assert_eq!(
            evs[1].kind,
            EventKind::SpanStart {
                phase: Phase::Replay,
                id: 2,
                parent: Some(1)
            }
        );
        assert_eq!(
            evs[2].kind,
            EventKind::SpanEnd {
                phase: Phase::Replay,
                id: 2
            }
        );
    }

    #[test]
    fn micro_phases_carry_ids_but_not_attribution() {
        use crate::hist::Hist;

        let j = Journal::new();
        j.span_start(0, Phase::BlindSearch);
        j.span_start(10, Phase::Replay);
        j.record(15, EventKind::PacketInjected { bytes: 9 });
        j.span_end(40, Phase::Replay);
        j.span_end(50, Phase::BlindSearch);

        let evs = j.events();
        // Attribution skips the micro Replay span; the span id does not.
        assert_eq!(evs[2].phase, Some(Phase::BlindSearch));
        assert_eq!(evs[2].span, Some(2));
        // Closing spans fed the per-phase sim-latency histograms.
        assert_eq!(j.metrics.hist(Hist::ReplaySimMicros).sum(), 30);
        assert_eq!(j.metrics.hist(Hist::BlindSearchSimMicros).sum(), 50);
    }

    #[test]
    fn unbalanced_end_is_recorded_not_fatal() {
        let j = Journal::new();
        j.span_end(5, Phase::Evaluate);
        assert_eq!(j.len(), 1);
        assert_eq!(
            j.events()[0].kind,
            EventKind::SpanEnd {
                phase: Phase::Evaluate,
                id: 0
            }
        );
        assert_eq!(j.current_phase(), None);
    }

    #[test]
    fn disabled_journal_records_nothing() {
        use crate::hist::Hist;
        use crate::metrics::Counter;

        let j = Journal::disabled();
        assert_eq!(j.span_start(0, Phase::Detect), 0);
        j.record(5, EventKind::FlowReset);
        j.observe(Hist::BlindRounds, 3);
        j.span_end(10, Phase::Detect);
        assert!(j.is_empty());
        assert!(j.metrics.hist(Hist::BlindRounds).is_empty());
        // Counters bypass the gate: they are the cheap always-on surface.
        j.metrics.incr(Counter::FlowResets);
        assert_eq!(j.metrics.get(Counter::FlowResets), 1);
    }

    #[test]
    fn absorb_worker_tags_events_and_sums_counters() {
        use crate::hist::Hist;
        use crate::metrics::Counter;

        let main = Journal::new();
        main.record(0, EventKind::FlowReset);
        main.metrics.add(Counter::Verdicts, 1);
        main.observe(Hist::BlindRounds, 4);

        let w0 = Journal::new();
        w0.record(5, EventKind::PacketInjected { bytes: 10 });
        w0.metrics.add(Counter::Verdicts, 2);
        w0.observe(Hist::BlindRounds, 6);
        let w1 = Journal::new();
        w1.record(3, EventKind::PacketInjected { bytes: 20 });
        w1.metrics.add(Counter::PacketsInjected, 1);

        main.absorb_worker(0, &w0);
        main.absorb_worker(1, &w1);

        let evs = main.events();
        assert_eq!(evs.len(), 3);
        assert_eq!(evs[0].worker, None);
        assert_eq!(evs[1].worker, Some(0));
        assert_eq!(evs[2].worker, Some(1));
        assert_eq!(main.metrics.get(Counter::Verdicts), 3);
        assert_eq!(main.metrics.get(Counter::PacketsInjected), 1);
        let rounds = main.metrics.hist(Hist::BlindRounds).snapshot();
        assert_eq!(rounds.count, 2);
        assert_eq!(rounds.sum, 10);
    }

    #[test]
    fn splice_staged_matches_inline_recording() {
        use crate::metrics::Counter;

        // Reference: everything recorded inline on one journal.
        let inline = Journal::new();
        inline.span_start(0, Phase::BlindSearch);
        inline.span_start(0, Phase::Wave);
        inline.span_start(10, Phase::Replay);
        inline.record(15, EventKind::PacketInjected { bytes: 9 });
        inline.record(
            20,
            EventKind::ReplayFinished {
                replay: 3,
                bytes_sent: 9,
                server_bytes: 0,
                blocked: false,
            },
        );
        inline.span_end(20, Phase::Replay);
        inline.span_end(20, Phase::Wave);
        inline.span_end(30, Phase::BlindSearch);

        // Same work staged on a lane timeline starting at 0, spliced at
        // dt=10 with two canonically-earlier replays.
        let main = Journal::new();
        main.span_start(0, Phase::BlindSearch);
        main.span_start(0, Phase::Wave);
        let staged = main.staging();
        staged.span_start(0, Phase::Replay);
        staged.record(5, EventKind::PacketInjected { bytes: 9 });
        staged.metrics.incr(Counter::PacketsInjected);
        staged.record(
            10,
            EventKind::ReplayFinished {
                replay: 1,
                bytes_sent: 9,
                server_bytes: 0,
                blocked: false,
            },
        );
        staged.span_end(10, Phase::Replay);
        main.splice_staged(&staged, 10, 2);
        main.span_end(20, Phase::Wave);
        main.span_end(30, Phase::BlindSearch);

        assert_eq!(main.events(), inline.events());
        assert!(staged.is_empty(), "the splice moves the staged events");
        assert_eq!(main.metrics.get(Counter::PacketsInjected), 1);
        // The id sequence continues past the spliced spans.
        assert_eq!(main.span_start(40, Phase::Detect), 4);
    }

    #[test]
    fn staging_journal_records_hists_into_its_parent_once() {
        let main = Journal::new();
        let staged = main.staging();
        staged.observe(Hist::InjectBytes, 40);
        assert_eq!(main.metrics.hist(Hist::InjectBytes).count(), 1);
        main.splice_staged(&staged, 0, 0);
        assert_eq!(
            main.metrics.hist(Hist::InjectBytes).count(),
            1,
            "splicing a staging journal must not count its samples twice"
        );
    }

    #[test]
    fn splice_into_disabled_journal_keeps_counters_only() {
        use crate::metrics::Counter;

        let main = Journal::disabled();
        let staged = main.staging();
        staged.record(5, EventKind::FlowReset);
        staged.metrics.incr(Counter::FlowResets);
        main.splice_staged(&staged, 0, 0);
        assert!(main.is_empty());
        assert_eq!(main.metrics.get(Counter::FlowResets), 1);
    }

    #[test]
    fn dead_lane_counters_stay_in_the_worker_registry() {
        use crate::metrics::Counter;

        for enabled in [true, false] {
            let main = Journal::new();
            main.set_enabled(enabled);
            // A lane that dies mid-wave is dropped without a splice.
            let lane = main.staging();
            lane.metrics.incr(Counter::PacketsInjected);
            lane.record(5, EventKind::PacketInjected { bytes: 40 });
            drop(lane);
            assert_eq!(
                main.metrics.get(Counter::PacketsInjected),
                1,
                "journal enabled: {enabled}"
            );
            assert!(main.is_empty(), "its events never reach the worker");
        }
    }

    #[test]
    fn phase_from_name_roundtrips() {
        for p in Phase::ALL {
            assert_eq!(Phase::from_name(p.name()), Some(p));
        }
        assert_eq!(Phase::from_name("nope"), None);
    }

    #[test]
    fn phase_index_matches_all_order() {
        for (i, p) in Phase::ALL.iter().enumerate() {
            assert_eq!(p.index(), i);
        }
    }
}
