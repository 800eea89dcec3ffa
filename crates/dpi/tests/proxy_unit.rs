//! Focused tests for the transparent proxy: interception scope, teardown
//! propagation, and stream fidelity under odd client behaviour.

use std::net::Ipv4Addr;
use std::time::Duration;

use liberate_dpi::proxy::{ProxyConfig, TransparentProxy};
use liberate_netsim::element::{Effects, PathElement, Verdict};
use liberate_netsim::network::Network;
use liberate_netsim::os::OsProfile;
use liberate_netsim::server::{EchoApp, ServerHost};
use liberate_packet::flow::Direction;
use liberate_packet::packet::{Packet, ParsedPacket};
use liberate_packet::tcp::TcpFlags;
use liberate_substrate::time::SimTime;

const C: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);
const S: Ipv4Addr = Ipv4Addr::new(203, 0, 113, 10);

fn proxied_net() -> Network {
    let server = ServerHost::new(S, OsProfile::linux(), Box::<EchoApp>::default());
    Network::new(
        C,
        vec![Box::new(TransparentProxy::new(ProxyConfig::stream_saver()))],
        server,
    )
}

fn handshake(net: &mut Network, port: u16) -> (u32, u32) {
    let syn = Packet::tcp(C, S, 40_000, port, 777, 0, vec![]).with_flags(TcpFlags::SYN);
    net.send_from_client(Duration::ZERO, syn.serialize());
    net.run_until_idle();
    let inbox = net.take_client_inbox();
    let t = inbox
        .iter()
        .find_map(|(_, w)| {
            let p = ParsedPacket::parse(w)?;
            let t = p.tcp()?;
            (t.flags.syn && t.flags.ack).then_some(t.seq)
        })
        .expect("SYN-ACK");
    (778, t.wrapping_add(1))
}

#[test]
fn non_intercepted_ports_pass_untouched() {
    let mut net = proxied_net();
    let (cseq, _) = handshake(&mut net, 8080);
    let data = Packet::tcp(C, S, 40_000, 8080, cseq, 1, &b"direct"[..]);
    net.send_from_client(Duration::ZERO, data.serialize());
    net.run_until_idle();
    // The SERVER's own ISN space answers (not the proxy's 0x6xxx_xxxx
    // range), and the echo comes back.
    let inbox = net.take_client_inbox();
    assert!(inbox
        .iter()
        .any(|(_, w)| ParsedPacket::parse(w).unwrap().payload == b"direct"));
    // Server ingress saw the client's own sequence numbers.
    use liberate_substrate::capture::TapPoint;
    let saw_raw_seq = net.capture.at(TapPoint::ServerIngress).any(|r| {
        ParsedPacket::parse(&r.wire)
            .and_then(|p| p.tcp().map(|t| t.seq == cseq))
            .unwrap_or(false)
    });
    assert!(saw_raw_seq, "port 8080 must bypass the proxy");
}

#[test]
fn intercepted_port_reoriginates_sequence_space() {
    let mut net = proxied_net();
    let (cseq, _) = handshake(&mut net, 80);
    let payload = b"GET / HTTP/1.1\r\nHost: h\r\n\r\n";
    let data = Packet::tcp(C, S, 40_000, 80, cseq, 1, payload.to_vec());
    net.send_from_client(Duration::ZERO, data.serialize());
    net.run_until_idle();
    // The server never sees the client's sequence numbers on port 80.
    use liberate_substrate::capture::TapPoint;
    let saw_raw_seq = net.capture.at(TapPoint::ServerIngress).any(|r| {
        ParsedPacket::parse(&r.wire)
            .and_then(|p| p.tcp().map(|t| t.seq == cseq))
            .unwrap_or(false)
    });
    assert!(!saw_raw_seq, "the proxy re-originates with its own ISNs");
    // Yet the payload arrives intact and the echo returns.
    let inbox = net.take_client_inbox();
    assert!(inbox
        .iter()
        .any(|(_, w)| ParsedPacket::parse(w).unwrap().payload == payload));
}

#[test]
fn client_rst_tears_down_both_sides() {
    let mut proxy = TransparentProxy::new(ProxyConfig::stream_saver());
    let mut fx = Effects::default();
    let syn = Packet::tcp(C, S, 40_000, 80, 100, 0, vec![]).with_flags(TcpFlags::SYN);
    let v = proxy.process(
        SimTime::ZERO,
        Direction::ClientToServer,
        syn.serialize().into(),
        &mut fx,
    );
    assert_eq!(v, Verdict::Drop, "the proxy absorbs the SYN");
    // It dialed the server and answered the client.
    assert_eq!(fx.toward_server.len(), 1);
    assert_eq!(fx.toward_client.len(), 1);

    let mut fx = Effects::default();
    let rst = Packet::tcp(C, S, 40_000, 80, 101, 1, vec![]).with_flags(TcpFlags::RST);
    let v = proxy.process(
        SimTime::ZERO,
        Direction::ClientToServer,
        rst.serialize().into(),
        &mut fx,
    );
    assert_eq!(v, Verdict::Drop);
    // The teardown propagates as the proxy's own RST toward the server.
    assert_eq!(fx.toward_server.len(), 1);
    let out = ParsedPacket::parse(&fx.toward_server[0].wire).unwrap();
    assert!(out.tcp().unwrap().flags.rst);

    // The flow is gone: further data is swallowed without effects.
    let mut fx = Effects::default();
    let data = Packet::tcp(C, S, 40_000, 80, 101, 1, &b"late"[..]);
    let v = proxy.process(
        SimTime::ZERO,
        Direction::ClientToServer,
        data.serialize().into(),
        &mut fx,
    );
    assert_eq!(v, Verdict::Drop);
    assert!(fx.is_empty());
}

#[test]
fn out_of_order_client_segments_are_reassembled_by_the_proxy() {
    let mut net = proxied_net();
    let (cseq, _) = handshake(&mut net, 80);
    let payload = b"GET /abcdef HTTP/1.1\r\n\r\n";
    let cut = 10;
    // Tail first, then head.
    let tail = Packet::tcp(
        C,
        S,
        40_000,
        80,
        cseq + cut,
        1,
        payload[cut as usize..].to_vec(),
    );
    net.send_from_client(Duration::ZERO, tail.serialize());
    net.run_until_idle();
    let head = Packet::tcp(C, S, 40_000, 80, cseq, 1, payload[..cut as usize].to_vec());
    net.send_from_client(Duration::ZERO, head.serialize());
    net.run_until_idle();
    let inbox = net.take_client_inbox();
    let echoed: Vec<u8> = inbox
        .iter()
        .flat_map(|(_, w)| ParsedPacket::parse(w).unwrap().payload.copy_to_vec())
        .collect();
    assert!(
        echoed
            .windows(payload.len())
            .any(|w| w == payload.as_slice()),
        "the proxy delivers the in-order stream regardless of arrival order"
    );
}

#[test]
fn malformed_packets_die_at_the_proxy() {
    let mut proxy = TransparentProxy::new(ProxyConfig::stream_saver());
    let mut fx = Effects::default();
    let mut bad = Packet::tcp(C, S, 40_000, 80, 100, 0, &b"x"[..]);
    bad.tcp_mut().checksum = liberate_packet::checksum::ChecksumSpec::Fixed(1);
    let v = proxy.process(
        SimTime::ZERO,
        Direction::ClientToServer,
        bad.serialize().into(),
        &mut fx,
    );
    assert_eq!(v, Verdict::Drop);
    assert!(fx.is_empty(), "no proxy reaction to garbage");
}
