//! Masquerading (§7): the dual of evasion.
//!
//! Instead of making classified traffic look unclassified, make *any*
//! traffic look like a **favored** class — e.g. get arbitrary flows
//! zero-rated by a Binge-On-style middlebox. The mechanism is the same
//! inert-packet machinery run in reverse: supply a packet carrying the
//! favored class's matching fields, crafted so the middlebox processes it
//! but the server never does ("Our framework supports masquerading as
//! long as users supply traffic to place in inert packets").

use liberate_substrate::Substrate;
use liberate_traces::recorded::RecordedTrace;

use crate::detect::{probe_lowered, Signal};
use crate::evasion::{EvasionContext, Technique};
use crate::replay::{LoweredTrace, ReplayOpts, ReplayOutcome, Session};
use crate::schedule::Schedule;

/// A masquerade plan: which inert technique carries the disguise, and the
/// bait payload holding the favored class's matching fields.
#[derive(Debug, Clone)]
pub struct Masquerade {
    /// The inert-insertion vehicle (must be processed by the middlebox
    /// and ignored by the server — exactly an evasion-capable inert row
    /// of Table 3 for this environment).
    pub vehicle: Technique,
    /// A payload matching the favored class (e.g. a `cloudfront.net` GET).
    pub bait: Vec<u8>,
    /// TTL reaching the middlebox but not the server, for TTL-based
    /// vehicles.
    pub middlebox_ttl: u8,
}

impl Masquerade {
    /// Masquerade via a TTL-limited bait packet — the cheapest vehicle
    /// wherever "Lower TTL" has CC ✓ in Table 3.
    pub fn ttl_limited(bait: Vec<u8>, middlebox_ttl: u8) -> Masquerade {
        Masquerade {
            vehicle: Technique::InertLowTtl,
            bait,
            middlebox_ttl,
        }
    }

    /// Apply the disguise to a flow's schedule.
    pub fn apply(&self, schedule: &Schedule) -> Option<Schedule> {
        let ctx = EvasionContext {
            matching_fields: Vec::new(),
            decoy: self.bait.clone(),
            middlebox_ttl: self.middlebox_ttl,
        };
        self.vehicle.apply(schedule, &ctx)
    }
}

/// Outcome of a masqueraded flow.
#[derive(Debug)]
pub struct MasqueradeReport {
    pub outcome: ReplayOutcome,
    /// The middlebox treated the flow as the favored class.
    pub disguised: bool,
}

/// Run `trace` disguised as the favored class and judge the disguise with
/// `favored_signal` (e.g. [`Signal::ZeroRating`]: did the bytes ride
/// free?).
pub fn run_masqueraded<S: Substrate>(
    session: &mut Session<S>,
    trace: &RecordedTrace,
    masquerade: &Masquerade,
    favored_signal: &Signal,
) -> Option<MasqueradeReport> {
    let schedule = masquerade.apply(&Schedule::from_trace(trace))?;
    let (outcome, disguised) = probe_lowered(
        session,
        &LoweredTrace::new(trace),
        &schedule,
        &ReplayOpts::default(),
        favored_signal,
    );
    Some(MasqueradeReport { outcome, disguised })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::LiberateConfig;
    use crate::sim::OsKind;
    use liberate_dpi::profiles::EnvKind;
    use liberate_traces::generator::{generate, WorkloadSpec};

    fn bait_video() -> Vec<u8> {
        liberate_traces::http::get_request("x.cloudfront.net", "/liberate-decoy", "m/1")
    }

    #[test]
    fn arbitrary_flow_rides_zero_rated_on_tmobile() {
        let mut s = Session::new(EnvKind::TMobile, OsKind::Linux, LiberateConfig::default());
        // A big non-video workload that would normally bill.
        let workload = generate(&WorkloadSpec {
            server_bytes: 800_000,
            ..Default::default()
        });

        // Without the disguise: billed.
        let (plain, plain_zero) = crate::detect::probe(
            &mut s,
            &workload,
            &ReplayOpts::default(),
            &Signal::ZeroRating,
        );
        assert!(plain.complete && !plain_zero, "undisguised flow bills");

        // With a TTL-limited video bait: zero-rated.
        let m = Masquerade::ttl_limited(bait_video(), 3);
        let report = run_masqueraded(&mut s, &workload, &m, &Signal::ZeroRating).unwrap();
        assert!(report.outcome.complete, "{:?}", report.outcome);
        assert!(report.outcome.integrity_ok, "the bait must stay inert");
        assert!(report.disguised, "the flow should ride zero-rated");
    }

    #[test]
    fn masquerade_does_not_fool_a_terminating_proxy() {
        // Against AT&T the bait is absorbed into the stream (side effect)
        // rather than staying inert, so masquerading as throttle-exempt
        // traffic cannot work — consistent with Table 3's AT&T column.
        let mut s = Session::new(EnvKind::Att, OsKind::Linux, LiberateConfig::default());
        let workload = generate(&WorkloadSpec {
            server_bytes: 400_000,
            ..Default::default()
        });
        let m = Masquerade::ttl_limited(bait_video(), 2);
        let report = run_masqueraded(
            &mut s,
            &workload,
            &m,
            &Signal::Throttling {
                control_bps: 1.0, // any flow "counts"; we only check side effects
                ratio: 0.0,
            },
        )
        .unwrap();
        assert!(
            !report.outcome.integrity_ok,
            "the proxy folds the bait into the stream — masquerade corrupts the flow"
        );
    }

    #[test]
    fn bait_must_reach_the_middlebox() {
        // TTL 1 dies before T-Mobile's classifier (3 hops out): no disguise.
        let mut s = Session::new(EnvKind::TMobile, OsKind::Linux, LiberateConfig::default());
        let workload = generate(&WorkloadSpec {
            server_bytes: 500_000,
            ..Default::default()
        });
        let m = Masquerade::ttl_limited(bait_video(), 1);
        let report = run_masqueraded(&mut s, &workload, &m, &Signal::ZeroRating).unwrap();
        assert!(report.outcome.complete);
        assert!(!report.disguised, "a dead bait disguises nothing");
    }
}
