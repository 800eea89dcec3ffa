//! Bilateral evasion (§7 "Detection and bidirectional lib·erate"): when
//! *both* endpoints run lib·erate, the matching fields themselves can be
//! re-encoded in flight — "payload-modification strategies that are not
//! publicly known by the differentiating ISP a priori".
//!
//! The model here is the simplest such strategy: XOR the characterized
//! matching fields (in both directions) with a shared key the endpoints
//! agreed on out of band. Unlike every unilateral technique in Table 3,
//! this defeats even a TCP-terminating transparent proxy: the proxy
//! faithfully reassembles and forwards a stream whose matching fields
//! simply are not there.

use liberate_substrate::Substrate;
use liberate_traces::recorded::RecordedTrace;

use crate::characterize::MatchingField;
use crate::detect::{probe, Signal};
use crate::replay::{ReplayOpts, ReplayOutcome, Session};

/// A shared-key field-encoding agreement between the two endpoints.
#[derive(Debug, Clone)]
pub struct BilateralCodec {
    /// XOR key applied to every matching-field byte.
    pub key: u8,
    /// The fields to re-encode (from characterization), in both
    /// directions.
    pub fields: Vec<MatchingField>,
}

impl BilateralCodec {
    pub fn new(key: u8, fields: Vec<MatchingField>) -> BilateralCodec {
        BilateralCodec { key, fields }
    }

    /// Encode a trace: the cooperating endpoints exchange these bytes on
    /// the wire and decode on arrival. (The key must not be zero — that
    /// would leave the fields in the clear.)
    pub fn encode(&self, trace: &RecordedTrace) -> RecordedTrace {
        assert_ne!(self.key, 0, "a zero key leaves matching fields exposed");
        let mut out = trace.clone();
        out.app = format!("{}-bilateral", out.app);
        for f in &self.fields {
            if let Some(msg) = out.messages.get_mut(f.message) {
                let end = f.range.end.min(msg.payload.len());
                for b in &mut msg.payload[f.range.start.min(end)..end] {
                    *b ^= self.key;
                }
            }
        }
        out
    }

    /// Decoding is the same XOR (an involution).
    pub fn decode(&self, trace: &RecordedTrace) -> RecordedTrace {
        let mut t = self.encode(trace);
        t.app = trace.app.clone();
        t
    }
}

/// Outcome of a bilateral run.
#[derive(Debug)]
pub struct BilateralReport {
    pub outcome: ReplayOutcome,
    /// The classifier still caught the encoded flow.
    pub classified: bool,
}

/// Run a flow under a bilateral codec: the replay server cooperates by
/// speaking the encoded protocol (it *is* the other lib·erate endpoint).
pub fn run_bilateral<S: Substrate>(
    session: &mut Session<S>,
    trace: &RecordedTrace,
    codec: &BilateralCodec,
    signal: &Signal,
    opts: &ReplayOpts,
) -> BilateralReport {
    let (outcome, classified) = probe(session, &codec.encode(trace), opts, signal);
    BilateralReport {
        outcome,
        classified,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::characterize::{characterize, CharacterizeOpts};
    use crate::config::LiberateConfig;
    use crate::sim::OsKind;
    use liberate_dpi::profiles::EnvKind;
    use liberate_traces::apps;

    fn learn_fields(
        kind: EnvKind,
        trace: &RecordedTrace,
        signal: &Signal,
        rotate: bool,
    ) -> Vec<MatchingField> {
        let mut s = Session::new(kind, OsKind::Linux, LiberateConfig::default());
        let c = characterize(
            &mut s,
            trace,
            signal,
            &CharacterizeOpts {
                rotate_server_ports: rotate,
                ..Default::default()
            },
        );
        c.fields
    }

    #[test]
    fn codec_is_an_involution_and_hides_keywords() {
        let trace = apps::economist_http();
        let fields = vec![MatchingField {
            message: 0,
            sender: liberate_traces::recorded::Sender::Client,
            range: {
                let p = liberate_traces::http::find(&trace.messages[0].payload, b"economist.com")
                    .unwrap();
                p..p + 13
            },
            bytes: b"economist.com".to_vec(),
        }];
        let codec = BilateralCodec::new(0x5a, fields);
        let enc = codec.encode(&trace);
        assert!(liberate_traces::http::find(&enc.client_stream(), b"economist.com").is_none());
        let dec = codec.decode(&enc);
        assert_eq!(dec.messages, trace.messages);
    }

    #[test]
    fn bilateral_beats_the_att_proxy() {
        // Every unilateral technique fails against AT&T (Table 3); the
        // bilateral codec wins because the proxy forwards a stream whose
        // matching fields are encoded away.
        let trace = apps::nbcsports_http(600_000);

        // Control throughput for the throttling signal.
        let mut s = Session::new(EnvKind::Att, OsKind::Linux, LiberateConfig::default());
        let control = s.replay_trace(
            &crate::detect::inverted_trace(&trace),
            &ReplayOpts::default(),
        );
        let signal = Signal::Throttling {
            control_bps: control.avg_bps,
            ratio: 0.6,
        };

        // Characterization finds client AND server direction fields.
        let fields = learn_fields(EnvKind::Att, &trace, &signal, false);
        assert!(
            fields
                .iter()
                .any(|f| f.sender == liberate_traces::recorded::Sender::Server),
            "server-direction fields found: {fields:?}"
        );

        // Sanity: the plain flow is throttled.
        let (plain, throttled) = probe(&mut s, &trace, &ReplayOpts::default(), &signal);
        assert!(throttled);

        // Bilateral: full speed.
        let codec = BilateralCodec::new(0xa7, fields);
        let report = run_bilateral(&mut s, &trace, &codec, &signal, &ReplayOpts::default());
        assert!(report.outcome.complete);
        assert!(!report.classified, "{:?}", report.outcome.avg_bps);
        assert!(report.outcome.avg_bps > 2.0 * plain.avg_bps);
    }

    #[test]
    fn bilateral_beats_the_gfc() {
        let trace = apps::economist_http();
        let fields = learn_fields(EnvKind::Gfc, &trace, &Signal::Blocking, true);
        let mut s = Session::new(EnvKind::Gfc, OsKind::Linux, LiberateConfig::default());
        let codec = BilateralCodec::new(0x33, fields);
        let report = run_bilateral(
            &mut s,
            &trace,
            &codec,
            &Signal::Blocking,
            &ReplayOpts::default(),
        );
        assert!(!report.classified);
        assert!(!report.outcome.blocked());
        assert!(report.outcome.complete);
    }

    #[test]
    #[should_panic(expected = "zero key")]
    fn zero_key_rejected() {
        BilateralCodec::new(0, Vec::new()).encode(&apps::control_http());
    }
}
