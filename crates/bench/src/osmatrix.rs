//! The per-OS "Server Response" columns of Table 3: for each inert
//! technique, does a Linux/macOS/Windows endpoint drop the crafted packet
//! (enabling unilateral evasion), deliver it (a side effect), or answer
//! with a RST (killing the connection)?
//!
//! Measured on a minimal direct client—server topology (no middlebox, no
//! filters): this isolates endpoint behaviour, exactly like the paper's
//! standalone OS tests.

use std::time::Duration;

use liberate::prelude::*;
use liberate_dpi::profiles::{CLIENT_ADDR, SERVER_ADDR};
use liberate_netsim::network::Network;
use liberate_netsim::os::OsProfile;
use liberate_netsim::server::{ServerHost, SinkApp};
use liberate_packet::packet::ParsedPacket;
use liberate_traces::recorded::TraceProtocol;

use crate::expected::OsExpect;

const MARK: &[u8] = b"OSMATRIX-MARKER-PAYLOAD";

/// Measure how `os` handles the packet crafted by `technique`.
pub fn measure(technique: &Technique, os: OsKind) -> OsExpect {
    let server = ServerHost::new(SERVER_ADDR, OsProfile::new(os), Box::<SinkApp>::default());
    let mut net = Network::new(CLIENT_ADDR, Vec::new(), server);

    let proto =
        if technique.applicable(TraceProtocol::Udp) && !technique.applicable(TraceProtocol::Tcp) {
            TraceProtocol::Udp
        } else {
            TraceProtocol::Tcp
        };

    // Build the technique's schedule over a one-packet trace, then send
    // only its *crafted* packet on an established connection.
    let mut trace = liberate_traces::recorded::RecordedTrace::new("os", proto, 80);
    trace.push_message(liberate_traces::recorded::TraceMessage::client(MARK));
    let ctx = EvasionContext {
        matching_fields: vec![liberate_packet::mutate::ByteRegion::new(0, 0..MARK.len())],
        decoy: MARK.to_vec(),
        middlebox_ttl: 64, // no middlebox: "TTL-limited" packets still arrive
    };
    let schedule = technique
        .apply(&Schedule::from_trace(&trace), &ctx)
        .expect("technique applies");

    let mut flow = ClientFlow {
        protocol: proto,
        client_addr: CLIENT_ADDR,
        client_port: 40_000,
        server_port: 80,
        client_isn: 5_000,
        server_isn: 0,
    };
    if proto == TraceProtocol::Tcp {
        net.send_from_client(Duration::ZERO, flow.syn());
        net.run_until_idle();
        flow.server_isn = net
            .take_client_inbox()
            .iter()
            .find_map(|(_, w)| ParsedPacket::parse(w)?.tcp().map(|t| t.seq))
            .expect("SYN-ACK");
        net.send_from_client(Duration::ZERO, flow.ack());
        net.run_until_idle();
    }

    // For inert rows, emit only the crafted decoy (the question is what
    // the OS does with *that* packet); for splits/reorders/pauses every
    // packet is part of the technique.
    let inert_only = technique.category() == Category::InertInsertion
        || matches!(
            technique,
            Technique::TtlRstAfterMatch | Technique::TtlRstBeforeMatch
        );
    for step in &schedule.steps {
        if let Step::Packet(p) = step {
            if inert_only && p.counts {
                continue;
            }
            flow.lower(p, 0, None, |wire| {
                net.send_from_client(Duration::ZERO, wire)
            });
            net.run_until_idle();
        }
    }
    net.run_until_idle();

    // Judge: did the *crafted* payload reach the application?
    let inbox = net.take_client_inbox();
    let rst = inbox.iter().any(|(_, w)| {
        ParsedPacket::parse(w)
            .and_then(|p| p.tcp().map(|t| t.flags.rst))
            .unwrap_or(false)
    });
    if rst {
        return OsExpect::RstResponse;
    }

    let delivered: Vec<u8> = {
        let sink = net
            .server
            .app_mut()
            .as_any_mut()
            .and_then(|a| a.downcast_mut::<SinkApp>())
            .expect("SinkApp was installed above");
        let mut all = sink.tcp_bytes.clone();
        for d in &sink.datagrams {
            all.extend_from_slice(d);
        }
        all
    };

    let full = delivered.windows(MARK.len()).any(|w| w == MARK);
    if full {
        OsExpect::Delivered
    } else if !delivered.is_empty()
        && MARK.starts_with(&delivered[..delivered.len().min(MARK.len())])
    {
        OsExpect::DeliveredTruncated
    } else {
        OsExpect::Dropped
    }
}

/// Measure the whole OS matrix for the inert rows (the rows where the
/// paper's columns are "Dropped by OS?").
pub fn run_inert_matrix() -> Vec<(Technique, [OsExpect; 3])> {
    Technique::table3_rows()
        .into_iter()
        .filter(|t| t.category() == Category::InertInsertion)
        .map(|t| {
            let cells = [
                measure(&t, OsKind::Linux),
                measure(&t, OsKind::MacOs),
                measure(&t, OsKind::Windows),
            ];
            (t, cells)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn os_matrix_matches_paper_columns() {
        let expected = crate::expected::table3();
        for (technique, cells) in run_inert_matrix() {
            if technique == Technique::InertLowTtl {
                continue; // reaches no server by design; columns are "—"
            }
            let row = expected
                .iter()
                .find(|r| r.technique == technique)
                .expect("row exists");
            assert_eq!(
                cells, row.os,
                "OS columns for {:?} diverge from the paper",
                technique
            );
        }
    }

    #[test]
    fn split_packets_always_delivered() {
        for t in [
            Technique::TcpSegmentSplit { segments: 2 },
            Technique::TcpSegmentReorder { segments: 2 },
            Technique::IpFragmentSplit { pieces: 2 },
            Technique::IpFragmentReorder { pieces: 2 },
        ] {
            for os in [OsKind::Linux, OsKind::MacOs, OsKind::Windows] {
                assert_eq!(
                    measure(&t, os),
                    OsExpect::Delivered,
                    "{t:?} on {}",
                    os.name()
                );
            }
        }
    }
}
