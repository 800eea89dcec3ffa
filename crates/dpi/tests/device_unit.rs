//! Device-local tests for the DPI engine, exercising it as a bare path
//! element (no network around it): accounting, events, validation,
//! loose transport parsing, resource-model eviction, and idle expiry.

use std::net::Ipv4Addr;
use std::sync::Arc;
use std::time::Duration;

use liberate_dpi::device::DpiDevice;
use liberate_dpi::profiles::{gfc_device, testbed_device, tmus_device};
use liberate_netsim::element::{Effects, PathElement, Verdict};
use liberate_obs::{Counter, Hist, Journal};
use liberate_packet::flow::{Direction, FlowKey};
use liberate_packet::packet::Packet;
use liberate_packet::tcp::TcpFlags;
use liberate_substrate::time::SimTime;
use liberate_traces::http::get_request;

const C: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);
const S: Ipv4Addr = Ipv4Addr::new(203, 0, 113, 10);

fn feed(dev: &mut DpiDevice, at: SimTime, wire: Vec<u8>) -> Verdict {
    let mut fx = Effects::default();
    dev.process(at, Direction::ClientToServer, wire.into(), &mut fx)
}

fn syn(port: u16, seq: u32) -> Vec<u8> {
    Packet::tcp(C, S, port, 80, seq, 0, vec![])
        .with_flags(TcpFlags::SYN)
        .serialize()
}

fn data(port: u16, seq: u32, payload: &[u8]) -> Vec<u8> {
    Packet::tcp(C, S, port, 80, seq, 1, payload.to_vec()).serialize()
}

#[test]
fn classification_event_records_rule_and_flow() {
    let mut dev = DpiDevice::new(testbed_device());
    feed(&mut dev, SimTime::ZERO, syn(40_000, 100));
    feed(
        &mut dev,
        SimTime::from_secs(1),
        data(40_000, 101, &get_request("x.cloudfront.net", "/v", "p")),
    );
    let ev = dev.last_event().expect("classified");
    assert_eq!(ev.class, "video");
    assert_eq!(ev.rule_id, "cf-host");
    assert_eq!(ev.flow.src_port, 40_000);
    assert_eq!(ev.at, SimTime::from_secs(1));
    assert_eq!(dev.events.len(), 1);
}

#[test]
fn zero_rating_accounting_splits_by_classification() {
    let mut dev = DpiDevice::new(tmus_device());
    // An unclassified flow bills.
    feed(&mut dev, SimTime::ZERO, syn(40_000, 100));
    feed(
        &mut dev,
        SimTime::ZERO,
        data(40_000, 101, &get_request("benign.example.net", "/", "p")),
    );
    let billed_before = dev.billed_bytes;
    assert!(billed_before > 0);
    assert_eq!(dev.zero_rated_bytes, 0);

    // A video flow zero-rates its post-classification bytes.
    feed(&mut dev, SimTime::ZERO, syn(40_001, 200));
    feed(
        &mut dev,
        SimTime::ZERO,
        data(40_001, 201, &get_request("x.cloudfront.net", "/v", "p")),
    );
    feed(&mut dev, SimTime::ZERO, {
        let seq = 201 + get_request("x.cloudfront.net", "/v", "p").len() as u32;
        Packet::tcp(C, S, 40_001, 80, seq, 1, vec![0u8; 1000]).serialize()
    });
    assert!(dev.zero_rated_bytes >= 1000);
}

#[test]
fn reset_clears_everything() {
    let mut dev = DpiDevice::new(testbed_device());
    feed(&mut dev, SimTime::ZERO, syn(40_000, 100));
    feed(
        &mut dev,
        SimTime::ZERO,
        data(40_000, 101, &get_request("x.cloudfront.net", "/v", "p")),
    );
    assert!(!dev.events.is_empty());
    dev.reset();
    assert!(dev.events.is_empty());
    assert_eq!(dev.billed_bytes, 0);
    assert_eq!(dev.zero_rated_bytes, 0);
    let key = FlowKey::new(C, S, 40_000, 80, 6);
    assert_eq!(dev.classification_of(key), None);
}

#[test]
fn loose_transport_parsing_is_testbed_only() {
    // A wrong-protocol packet carrying a matching TCP segment.
    let mk = |port: u16| {
        let mut p = Packet::tcp(
            C,
            S,
            port,
            80,
            101,
            1,
            get_request("x.cloudfront.net", "/v", "p"),
        );
        p.ip.protocol = Some(253);
        p.serialize()
    };

    let mut testbed = DpiDevice::new(testbed_device());
    feed(&mut testbed, SimTime::ZERO, syn(40_000, 100));
    feed(&mut testbed, SimTime::ZERO, mk(40_000));
    assert!(
        testbed.last_event().is_some(),
        "the lax testbed parses TCP despite the bogus protocol number"
    );

    let mut tmus = DpiDevice::new(tmus_device());
    feed(&mut tmus, SimTime::ZERO, syn(40_000, 100));
    feed(&mut tmus, SimTime::ZERO, mk(40_000));
    assert!(
        tmus.last_event().is_none(),
        "stricter devices cannot attribute the packet to a flow"
    );
}

#[test]
fn gfc_resource_model_evicts_by_time_of_day() {
    // Simulation starting at noon (busy: 40 s eviction).
    let mut dev = DpiDevice::new(gfc_device(12 * 3600));
    let req = get_request("www.economist.com", "/", "p");

    // Handshake, then a pause longer than the busy-hour eviction, then
    // the matching request: tracking evicted, flow uninspected.
    feed(&mut dev, SimTime::ZERO, syn(40_000, 100));
    let later = SimTime::from_secs(50);
    feed(&mut dev, later, data(40_000, 101, &req));
    assert!(
        dev.last_event().is_none(),
        "busy-hour state evicted at 40 s"
    );

    // Same play at 3 AM (quiet: no eviction): classified.
    let mut dev = DpiDevice::new(gfc_device(3 * 3600));
    feed(&mut dev, SimTime::ZERO, syn(40_001, 100));
    feed(&mut dev, SimTime::from_secs(230), data(40_001, 101, &req));
    assert!(
        dev.last_event().is_some(),
        "quiet-hour state survives even 230 s"
    );
}

#[test]
fn match_and_forget_stops_inspection() {
    let mut dev = DpiDevice::new(testbed_device());
    feed(&mut dev, SimTime::ZERO, syn(40_000, 100));
    // Classify as the no-op web class first.
    let decoy = get_request("www.example.org", "/", "p");
    feed(&mut dev, SimTime::ZERO, data(40_000, 101, &decoy));
    assert_eq!(dev.last_event().unwrap().class, "web");
    // Matching video content afterwards is never inspected.
    feed(
        &mut dev,
        SimTime::ZERO,
        data(
            40_000,
            101 + decoy.len() as u32,
            &get_request("x.cloudfront.net", "/v", "p"),
        ),
    );
    assert_eq!(dev.events.len(), 1, "no second classification");
    let key = FlowKey::new(C, S, 40_000, 80, 6);
    assert_eq!(dev.classification_of(key).as_deref(), Some("web"));
}

#[test]
fn throttle_delays_server_direction_only() {
    let mut dev = DpiDevice::new(testbed_device());
    feed(&mut dev, SimTime::ZERO, syn(40_000, 100));
    feed(
        &mut dev,
        SimTime::ZERO,
        data(40_000, 101, &get_request("x.cloudfront.net", "/v", "p")),
    );
    // Client-direction packets of a throttled flow pass immediately.
    let v = feed(
        &mut dev,
        SimTime::from_secs(1),
        data(40_000, 50_000, &[1u8; 100]),
    );
    match v {
        Verdict::Forward(out) => assert_eq!(out.at, SimTime::from_secs(1)),
        Verdict::Drop => panic!("forwarded"),
    }
    // Server-direction bulk data gets shaped: a large burst departs later
    // than it arrived.
    let mut fx = Effects::default();
    let mut last = SimTime::from_secs(1);
    for i in 0..800u32 {
        let seg = Packet::tcp(S, C, 80, 40_000, 1 + i * 1400, 0, vec![7u8; 1400]).serialize();
        if let Verdict::Forward(out) = dev.process(
            SimTime::from_secs(1),
            Direction::ServerToClient,
            seg.into(),
            &mut fx,
        ) {
            last = out.at;
        }
    }
    assert!(
        last > SimTime::from_secs(1) + Duration::from_secs(2),
        "1.1 MB at 1.5 Mbps must take seconds, departed {last}"
    );
}

fn from_server(dev: &mut DpiDevice, at: SimTime, port: u16, payload: &[u8]) -> Verdict {
    let seg = Packet::tcp(S, C, 80, port, 1, 101, payload.to_vec()).serialize();
    let mut fx = Effects::default();
    dev.process(at, Direction::ServerToClient, seg.into(), &mut fx)
}

fn forwarded_at(v: Verdict) -> SimTime {
    match v {
        Verdict::Forward(out) => out.at,
        Verdict::Drop => panic!("forwarded"),
    }
}

#[test]
fn result_expired_before_tracking_is_inspected_again() {
    let mut dev = DpiDevice::new(testbed_device());
    let journal = Arc::new(Journal::new());
    dev.attach_journal(&journal);
    let req = get_request("x.cloudfront.net", "/v", "p");
    feed(&mut dev, SimTime::ZERO, syn(40_000, 100));
    feed(&mut dev, SimTime::from_secs(1), data(40_000, 101, &req));
    assert_eq!(dev.events.len(), 1);
    let scanned = journal.metrics.get(Counter::MatcherBytesScanned);
    // The testbed shortens a matched result's timeout to 10 s on a RST;
    // its 120 s tracking timeout is untouched.
    let rst = Packet::tcp(C, S, 40_000, 80, 101 + req.len() as u32, 1, vec![])
        .with_flags(TcpFlags::RST)
        .serialize();
    feed(&mut dev, SimTime::from_secs(2), rst);

    // 20 s later the result has expired but the tracking state has not:
    // the next payload packet is inspected (match-and-forget no longer
    // applies) and classifies the flow afresh.
    let again = data(40_000, 101 + req.len() as u32, &req);
    feed(&mut dev, SimTime::from_secs(21), again);
    assert_eq!(dev.events.len(), 2, "reclassified after the result expired");
    assert_eq!(dev.events[1].at, SimTime::from_secs(21));
    assert!(journal.metrics.get(Counter::MatcherBytesScanned) > scanned);
    assert_eq!(journal.metrics.get(Counter::FlowsEvicted), 0);
    assert_eq!(journal.metrics.hist(Hist::FlowBytesScanned).count(), 0);
}

#[test]
fn flow_idle_past_both_timeouts_is_forwarded_uninspected() {
    let mut config = testbed_device();
    // A shallow bucket, so any packet still under the video policy
    // departs visibly late.
    config
        .policies
        .get_mut("video")
        .expect("video policy")
        .throttle = Some((8_000, 100));
    let mut dev = DpiDevice::new(config);
    let journal = Arc::new(Journal::new());
    dev.attach_journal(&journal);
    let req = get_request("x.cloudfront.net", "/v", "p");
    feed(&mut dev, SimTime::ZERO, syn(40_000, 100));
    feed(&mut dev, SimTime::ZERO, data(40_000, 101, &req));
    assert_eq!(dev.events.len(), 1);
    let at = SimTime::from_secs(1);
    assert!(forwarded_at(from_server(&mut dev, at, 40_000, &[7u8; 1400])) > at);

    // Idle 200 s, past the 120 s result and tracking timeouts: the entry
    // expires on this packet's lookup, and a mid-flow packet cannot
    // re-create it.
    let at = SimTime::from_secs(201);
    let billed = dev.billed_bytes;
    assert_eq!(
        forwarded_at(from_server(&mut dev, at, 40_000, &[7u8; 1400])),
        at,
        "unthrottled"
    );
    assert!(dev.billed_bytes > billed);
    assert_eq!(dev.events.len(), 1, "not inspected");
    assert_eq!(dev.shared_table().live_flow_count(), 0, "entry removed");
    assert_eq!(journal.metrics.get(Counter::FlowsEvicted), 1);
    let samples = journal.metrics.hist(Hist::FlowBytesScanned).snapshot();
    assert_eq!(samples.count, 1);
    assert_eq!(
        samples.sum,
        req.len() as u64,
        "the request was all it scanned"
    );
}
