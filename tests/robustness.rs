//! Robustness: every packet-consuming component in the system must be a
//! total function over arbitrary wire bytes — middleboxes and endpoints
//! face attacker-controlled input by definition.

use proptest::prelude::*;
use std::net::Ipv4Addr;

use liberate_dpi::device::DpiDevice;
use liberate_dpi::profiles::{gfc_device, iran_device, testbed_device, tmus_device};
use liberate_dpi::proxy::{ProxyConfig, TransparentProxy};
use liberate_netsim::element::{Effects, PathElement};
use liberate_netsim::filter::FilterPolicy;
use liberate_netsim::firewall::StatefulFirewall;
use liberate_netsim::hop::RouterHop;
use liberate_netsim::os::{OsKind, OsProfile};
use liberate_netsim::server::{ServerHost, SinkApp};
use liberate_obs::Journal;
use liberate_packet::flow::Direction;
use liberate_substrate::time::SimTime;

/// Arbitrary bytes, with a bias toward things that *almost* parse: real
/// packet prefixes with tails fuzzed.
fn wire_bytes() -> impl Strategy<Value = Vec<u8>> {
    let raw = proptest::collection::vec(any::<u8>(), 0..200);
    let near_ip = proptest::collection::vec(any::<u8>(), 20..120).prop_map(|mut v| {
        v[0] = 0x45; // looks like IPv4 with IHL 5
        v[9] = if v[9] % 2 == 0 { 6 } else { 17 };
        v
    });
    let real_mutated = (
        proptest::collection::vec(any::<u8>(), 1..64),
        any::<u16>(),
        any::<u8>(),
    )
        .prop_map(|(payload, ports, flip)| {
            let mut wire = liberate_packet::packet::Packet::tcp(
                Ipv4Addr::new(10, 0, 0, 2),
                Ipv4Addr::new(203, 0, 113, 10),
                ports | 1,
                80,
                1,
                1,
                payload,
            )
            .serialize();
            let idx = flip as usize % wire.len();
            wire[idx] ^= 0xa5;
            wire
        });
    prop_oneof![raw, near_ip, real_mutated]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn dpi_devices_total_on_garbage(
        packets in proptest::collection::vec((wire_bytes(), any::<bool>()), 1..24)
    ) {
        for config in [testbed_device(), tmus_device(), gfc_device(0), iran_device()] {
            let mut dev = DpiDevice::new(config);
            let mut fx = Effects::default();
            for (i, (wire, c2s)) in packets.iter().enumerate() {
                let dir = if *c2s {
                    Direction::ClientToServer
                } else {
                    Direction::ServerToClient
                };
                let _ = dev.process(&Journal::new(), SimTime::from_micros(i as u64), dir, wire.clone().into(), &mut fx);
            }
        }
    }

    #[test]
    fn proxy_total_on_garbage(
        packets in proptest::collection::vec((wire_bytes(), any::<bool>()), 1..24)
    ) {
        let mut proxy = TransparentProxy::new(ProxyConfig::stream_saver());
        let mut fx = Effects::default();
        for (i, (wire, c2s)) in packets.iter().enumerate() {
            let dir = if *c2s {
                Direction::ClientToServer
            } else {
                Direction::ServerToClient
            };
            let _ = proxy.process(&Journal::new(), SimTime::from_micros(i as u64), dir, wire.clone().into(), &mut fx);
        }
    }

    #[test]
    fn endpoints_and_hops_total_on_garbage(
        packets in proptest::collection::vec(wire_bytes(), 1..24)
    ) {
        let mut server = ServerHost::new(
            Ipv4Addr::new(203, 0, 113, 10),
            OsProfile::new(OsKind::Windows),
            Box::<SinkApp>::default(),
        );
        let mut hop = RouterHop::new(
            "fw",
            Ipv4Addr::new(172, 16, 0, 1),
            FilterPolicy::strict_normalizer(),
        );
        let mut firewall = StatefulFirewall::new("sf", 65_535);
        let mut fx = Effects::default();
        for (i, wire) in packets.iter().enumerate() {
            let t = SimTime::from_micros(i as u64);
            server.receive(t, wire);
            let _ = hop.process(&Journal::new(), t, Direction::ClientToServer, wire.clone().into(), &mut fx);
            let _ = firewall.process(&Journal::new(), t, Direction::ServerToClient, wire.clone().into(), &mut fx);
        }
    }
}
