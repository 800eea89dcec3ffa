//! Network probing (§5.2): locating the middlebox in TTL-space and
//! checking whether crafted inert packets survive to the middlebox and/or
//! the server.

use liberate_substrate::capture::TapPoint;
use liberate_substrate::Substrate;
use liberate_traces::recorded::RecordedTrace;

use crate::detect::{probe_lowered, Signal};
use crate::evasion::{EvasionContext, Technique};
use crate::replay::{LoweredTrace, ReplayOpts, Session};
use crate::schedule::Schedule;

/// Marker embedded in decoy payloads so captures can recognize them.
pub const DECOY_MARKER: &[u8] = b"/liberate-decoy";

/// A decoy request for the innocuous class A (Fig. 2): valid HTTP, no
/// matching fields of the application under test, recognizable in
/// captures via [`DECOY_MARKER`].
pub fn decoy_request() -> Vec<u8> {
    liberate_traces::http::get_request("www.example.org", "/liberate-decoy", "decoy/1.0")
}

/// Result of middlebox localization.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Localization {
    /// Smallest TTL at which a TTL-limited matching packet triggered
    /// classification — the middlebox's hop distance.
    pub middlebox_ttl: Option<u8>,
    /// TTL probes spent.
    pub rounds: u64,
}

/// Locate the middlebox: replay a *carrier* trace (that never classifies)
/// with one TTL-limited inert packet carrying `matching_payload` inserted
/// at flow start; sweep the TTL upward until classification appears
/// (§5.2: "a series of probes ... incrementing the TTL until we observe a
/// response indicating that the TTL-limited flow was classified").
pub fn locate_middlebox<S: Substrate>(
    session: &mut Session<S>,
    carrier: &RecordedTrace,
    matching_payload: &[u8],
    signal: &Signal,
) -> Localization {
    locate_middlebox_rotating(session, carrier, matching_payload, signal, None)
}

/// [`locate_middlebox`] with per-probe server-port rotation (each probe
/// whose TTL reaches a GFC-style classifier gets that flow blocked, which
/// would otherwise accrue a server:port penalty, §6.5).
pub fn locate_middlebox_rotating<S: Substrate>(
    session: &mut Session<S>,
    carrier: &RecordedTrace,
    matching_payload: &[u8],
    signal: &Signal,
    rotate_base: Option<u16>,
) -> Localization {
    // The sweep replays one carrier: lower it (and its base schedule) once.
    let lowered = LoweredTrace::new(carrier);
    let base = Schedule::from_trace(carrier);
    sweep_ttl(
        session,
        &lowered,
        &base,
        matching_payload,
        signal,
        rotate_base,
    )
}

/// The TTL sweep of [`locate_middlebox_rotating`] over an already lowered
/// carrier and its base schedule, so a caller can drop the carrier's
/// recorded trace before the sweep runs.
pub(crate) fn sweep_ttl<S: Substrate>(
    session: &mut Session<S>,
    lowered: &LoweredTrace,
    base: &Schedule,
    matching_payload: &[u8],
    signal: &Signal,
    rotate_base: Option<u16>,
) -> Localization {
    let mut rounds = 0;
    for ttl in 1..=session.config.max_probe_ttl {
        rounds += 1;
        let ctx = EvasionContext::blind(matching_payload.to_vec(), ttl);
        let Some(schedule) = Technique::InertLowTtl.apply(base, &ctx) else {
            // A carrier with no data packets can't probe at any TTL.
            break;
        };
        let opts = ReplayOpts {
            server_port: rotate_base.map(|b| b.wrapping_add(ttl as u16)),
            ..Default::default()
        };
        let (_, classified) = probe_lowered(session, lowered, &schedule, &opts, signal);
        if classified {
            return Localization {
                middlebox_ttl: Some(ttl),
                rounds,
            };
        }
    }
    Localization {
        middlebox_ttl: None,
        rounds,
    }
}

/// Whether an inert packet carrying [`DECOY_MARKER`] reached the server's
/// NIC during the most recent replay (the RS? measurement: a capture at
/// the replay server).
pub fn decoy_reached_server<S: Substrate>(session: &Session<S>) -> bool {
    session
        .env
        .capture()
        .any_at(TapPoint::ServerIngress, |wire| {
            wire.windows(DECOY_MARKER.len()).any(|w| w == DECOY_MARKER)
        })
}

/// §5.2 "Do invalid inert packets reach the middlebox?": send the inert
/// variant against the replay server; if it arrives there it certainly
/// crossed the middlebox. If it does not arrive, check whether subsequent
/// valid traffic was differentiated — if so, the middlebox still saw it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InertReach {
    /// Observed at the server: crossed the middlebox.
    ReachedServer,
    /// Never reached the server, but the carrier flow got differentiated:
    /// the middlebox processed the inert packet before it was dropped.
    ReachedMiddleboxOnly,
    /// No effect anywhere: "the inert packet is either ignored by the
    /// middlebox or never reaches it" (§5.2).
    NotObserved,
}

/// Test inert-packet reach for one technique. The context's decoy should
/// carry *matching* content for a flow the carrier itself does not
/// trigger, so middlebox processing becomes observable as differentiation
/// of the otherwise-innocuous carrier.
pub fn inert_reach<S: Substrate>(
    session: &mut Session<S>,
    carrier: &RecordedTrace,
    technique: &Technique,
    ctx: &EvasionContext,
    signal: &Signal,
) -> Option<InertReach> {
    let schedule = technique.apply(&Schedule::from_trace(carrier), ctx)?;
    let lowered = LoweredTrace::new(carrier);
    let (_, classified) =
        probe_lowered(session, &lowered, &schedule, &ReplayOpts::default(), signal);
    // The backend is idle once the probe's replay finishes, so its rest
    // leaves the capture as the replay left it.
    Some(if decoy_reached_server(session) {
        InertReach::ReachedServer
    } else if classified {
        InertReach::ReachedMiddleboxOnly
    } else {
        InertReach::NotObserved
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::LiberateConfig;
    use crate::sim::OsKind;
    use liberate_dpi::profiles::EnvKind;
    use liberate_traces::apps;

    fn session(kind: EnvKind) -> Session {
        Session::new(kind, OsKind::Linux, LiberateConfig::default())
    }

    /// A probe payload carrying both the target's matching keyword (via
    /// the Host header) and the capture marker (via the path).
    fn blocked_request(host: &str) -> Vec<u8> {
        liberate_traces::http::get_request(host, "/liberate-decoy", "probe/1.0")
    }

    #[test]
    fn locates_gfc_at_ttl_10() {
        let mut s = session(EnvKind::Gfc);
        let loc = locate_middlebox(
            &mut s,
            &apps::control_http(),
            &blocked_request("www.economist.com"),
            &Signal::Blocking,
        );
        // §6.5: "using a TTL of 10 leads to misclassification without
        // reaching the server".
        assert_eq!(loc.middlebox_ttl, Some(10));
    }

    #[test]
    fn locates_iran_at_ttl_8() {
        let mut s = session(EnvKind::Iran);
        let loc = locate_middlebox(
            &mut s,
            &apps::control_http(),
            &blocked_request("www.facebook.com"),
            &Signal::Blocking,
        );
        // §6.6: "the classifier is eight hops away from our client".
        assert_eq!(loc.middlebox_ttl, Some(8));
    }

    #[test]
    fn locates_tmus_at_ttl_3() {
        let mut s = session(EnvKind::TMobile);
        // The carrier must move >= 200 KB per round for a reliable
        // zero-rating counter read (§6.2).
        let carrier =
            liberate_traces::generator::generate(&liberate_traces::generator::WorkloadSpec {
                server_bytes: 500_000,
                ..Default::default()
            });
        let loc = locate_middlebox(
            &mut s,
            &carrier,
            &blocked_request("video.cloudfront.net"),
            &Signal::ZeroRating,
        );
        // §6.2: "an inert packet with TTL = 3 is sufficient".
        assert_eq!(loc.middlebox_ttl, Some(3));
    }

    #[test]
    fn testbed_throttle_shows_only_past_its_burst() {
        let flow = apps::amazon_prime_http(600_000);
        let mut s = session(EnvKind::Testbed);
        let detection = crate::detect::detect(&mut s, &flow);
        assert!(detection.throttling);
        let signal = crate::deploy::signal_from_detection(&detection, s.config.throttle_ratio);
        let carrier = |server_bytes| {
            liberate_traces::generator::generate(&liberate_traces::generator::WorkloadSpec {
                server_bytes,
                ..Default::default()
            })
        };
        let probe = blocked_request("video.cloudfront.net");
        // §6.1: the video policy's token bucket lets 420 kB through at
        // full rate, so a carrier inside the burst looks unthrottled at
        // every TTL ...
        let loc = locate_middlebox(&mut s, &carrier(400_000), &probe, &signal);
        assert_eq!(loc.middlebox_ttl, None);
        assert_eq!(loc.rounds, 20);
        // ... and one past it is throttled from the first hop.
        let loc = locate_middlebox(&mut s, &carrier(600_000), &probe, &signal);
        assert_eq!(loc.middlebox_ttl, Some(1));
        assert_eq!(loc.rounds, 1);
    }

    #[test]
    fn sprint_has_no_middlebox() {
        let mut s = session(EnvKind::Sprint);
        let loc = locate_middlebox(
            &mut s,
            &apps::control_http(),
            &blocked_request("video.cloudfront.net"),
            &Signal::Blocking,
        );
        assert_eq!(loc.middlebox_ttl, None);
        assert_eq!(loc.rounds as usize, 20);
    }

    #[test]
    fn decoy_carries_marker_and_no_keywords() {
        let d = decoy_request();
        assert!(d.windows(DECOY_MARKER.len()).any(|w| w == DECOY_MARKER));
        for kw in [
            &b"cloudfront"[..],
            b"economist",
            b"facebook",
            b"googlevideo",
        ] {
            assert!(liberate_traces::http::find(&d, kw).is_none());
        }
    }

    #[test]
    fn inert_reach_distinguishes_cases() {
        // The inert decoy carries a *video* request over a control carrier,
        // so middlebox processing shows up as classification.
        let ctx = EvasionContext {
            matching_fields: vec![],
            decoy: blocked_request("video.cloudfront.net"),
            middlebox_ttl: 1,
        };

        // Testbed, wrong IP checksum: the DPI processes it (lax
        // validation); the lab router then drops it => middlebox only.
        let mut s = session(EnvKind::Testbed);
        let reach = inert_reach(
            &mut s,
            &apps::control_http(),
            &Technique::InertIpWrongChecksum,
            &ctx,
            &Signal::Readout,
        )
        .unwrap();
        assert_eq!(reach, InertReach::ReachedMiddleboxOnly);

        // Testbed, invalid version: the DPI itself ignores it and the
        // router drops it => no observation anywhere.
        let mut s = session(EnvKind::Testbed);
        let reach = inert_reach(
            &mut s,
            &apps::control_http(),
            &Technique::InertIpInvalidVersion,
            &ctx,
            &Signal::Readout,
        )
        .unwrap();
        assert_eq!(reach, InertReach::NotObserved);

        // Testbed, wrong TCP checksum: processed by the DPI *and*
        // forwarded to the server by the lab router.
        let mut s = session(EnvKind::Testbed);
        let schedule_reach = inert_reach(
            &mut s,
            &apps::control_http(),
            &Technique::InertTcpWrongChecksum,
            &ctx,
            &Signal::Readout,
        )
        .unwrap();
        assert_eq!(schedule_reach, InertReach::ReachedServer);
    }
}
