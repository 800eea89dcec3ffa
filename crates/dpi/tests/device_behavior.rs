//! End-to-end middlebox behaviour through a scripted client: the headline
//! phenomena of §6 exercised directly, before lib·erate's own engines are
//! layered on top.

use std::time::Duration;

use liberate_dpi::prelude::*;
use liberate_netsim::os::OsKind;
use liberate_netsim::server::EchoApp;
use liberate_packet::packet::{Packet, ParsedPacket};
use liberate_packet::tcp::TcpFlags;
use liberate_traces::http::get_request;

const CPORT: u16 = 42_000;

/// Minimal scripted client: handshake then send payload packets in order.
struct Client {
    seq: u32,
    ack: u32,
    sport: u16,
    dport: u16,
}

impl Client {
    fn connect(env: &mut Environment, sport: u16, dport: u16) -> Client {
        let syn = Packet::tcp(CLIENT_ADDR, SERVER_ADDR, sport, dport, 5000, 0, vec![])
            .with_flags(TcpFlags::SYN);
        env.network
            .send_from_client(Duration::ZERO, syn.serialize());
        env.network.run_until_idle();
        let inbox = env.network.take_client_inbox();
        let syn_ack = inbox
            .iter()
            .filter_map(|(_, w)| ParsedPacket::parse(w))
            .find(|p| p.tcp().map(|t| t.flags.syn && t.flags.ack).unwrap_or(false))
            .expect("SYN-ACK");
        let t = syn_ack.tcp().unwrap();
        Client {
            seq: 5001,
            ack: t.seq.wrapping_add(1),
            sport,
            dport,
        }
    }

    fn send(&mut self, env: &mut Environment, payload: &[u8]) {
        let pkt = Packet::tcp(
            CLIENT_ADDR,
            SERVER_ADDR,
            self.sport,
            self.dport,
            self.seq,
            self.ack,
            payload.to_vec(),
        );
        self.seq = self.seq.wrapping_add(payload.len() as u32);
        env.network
            .send_from_client(Duration::ZERO, pkt.serialize());
        env.network.run_until_idle();
    }

    fn flow_key(&self) -> liberate_packet::flow::FlowKey {
        liberate_packet::flow::FlowKey::new(CLIENT_ADDR, SERVER_ADDR, self.sport, self.dport, 6)
    }
}

fn received_rst(env: &mut Environment) -> bool {
    env.network.take_client_inbox().iter().any(|(_, w)| {
        ParsedPacket::parse(w)
            .and_then(|p| p.tcp().map(|t| t.flags.rst))
            .unwrap_or(false)
    })
}

#[test]
fn testbed_classifies_prime_video() {
    let mut env = build_environment(
        EnvKind::Testbed,
        OsKind::Linux,
        Box::<EchoApp>::default(),
        0,
    );
    let mut c = Client::connect(&mut env, CPORT, 80);
    c.send(
        &mut env,
        &get_request("x.cloudfront.net", "/v.mp4", "Prime/5"),
    );
    let key = c.flow_key();
    let class = env.dpi_mut().unwrap().classification_of(key);
    assert_eq!(class.as_deref(), Some("video"));
}

#[test]
fn testbed_one_byte_first_packet_evades() {
    let mut env = build_environment(
        EnvKind::Testbed,
        OsKind::Linux,
        Box::<EchoApp>::default(),
        0,
    );
    let mut c = Client::connect(&mut env, CPORT, 80);
    let req = get_request("x.cloudfront.net", "/v.mp4", "Prime/5");
    c.send(&mut env, &req[..1]);
    c.send(&mut env, &req[1..]);
    let key = c.flow_key();
    assert_eq!(env.dpi_mut().unwrap().classification_of(key), None);
}

#[test]
fn testbed_decoy_changes_class_and_result_times_out() {
    let mut env = build_environment(
        EnvKind::Testbed,
        OsKind::Linux,
        Box::<EchoApp>::default(),
        0,
    );
    let mut c = Client::connect(&mut env, CPORT, 80);
    // A decoy for the innocuous class occupies the first inspected packet.
    c.send(&mut env, &get_request("www.example.org", "/", "curl"));
    c.send(
        &mut env,
        &get_request("x.cloudfront.net", "/v.mp4", "Prime/5"),
    );
    let key = c.flow_key();
    assert_eq!(
        env.dpi_mut().unwrap().classification_of(key).as_deref(),
        Some("web")
    );
    // 130 s idle > the 120 s result timeout: classification flushes.
    env.network.advance(Duration::from_secs(130));
    c.send(&mut env, b"more bytes");
    assert_eq!(env.dpi_mut().unwrap().classification_of(key), None);
}

#[test]
fn gfc_blocks_economist_and_penalizes_server_port() {
    let mut env = build_environment(EnvKind::Gfc, OsKind::Linux, Box::<EchoApp>::default(), 0);
    let mut c = Client::connect(&mut env, CPORT, 80);
    c.send(&mut env, &get_request("www.economist.com", "/", "Mozilla"));
    assert!(received_rst(&mut env), "GFC should inject RSTs");

    // Second blocked flow to the same server:port crosses the penalty
    // threshold; a third, *clean* flow is then blocked too.
    let mut c2 = Client::connect(&mut env, CPORT + 1, 80);
    c2.send(&mut env, &get_request("www.economist.com", "/", "Mozilla"));
    env.network.take_client_inbox();

    let syn = Packet::tcp(CLIENT_ADDR, SERVER_ADDR, CPORT + 2, 80, 9000, 0, vec![])
        .with_flags(TcpFlags::SYN);
    env.network
        .send_from_client(Duration::ZERO, syn.serialize());
    env.network.run_until_idle();
    assert!(
        received_rst(&mut env),
        "penalized server:port should be blocked even for clean flows"
    );

    // A different port on the same server is unaffected.
    let mut c3 = Client::connect(&mut env, CPORT + 3, 8080);
    c3.send(&mut env, &get_request("www.okay.example", "/", "Mozilla"));
    assert!(!received_rst(&mut env));
}

#[test]
fn gfc_dummy_prefix_byte_evades() {
    let mut env = build_environment(EnvKind::Gfc, OsKind::Linux, Box::<EchoApp>::default(), 0);
    let mut c = Client::connect(&mut env, CPORT, 80);
    c.send(&mut env, b"x"); // one dummy byte before the request
    c.send(&mut env, &get_request("www.economist.com", "/", "Mozilla"));
    assert!(!received_rst(&mut env), "dummy prefix should evade the GFC");
}

#[test]
fn gfc_reassembles_split_segments() {
    let mut env = build_environment(EnvKind::Gfc, OsKind::Linux, Box::<EchoApp>::default(), 0);
    let mut c = Client::connect(&mut env, CPORT, 80);
    let req = get_request("www.economist.com", "/", "Mozilla");
    // Split the keyword across two segments: full reassembly still sees it.
    let cut = req.len() / 2;
    c.send(&mut env, &req[..cut]);
    c.send(&mut env, &req[cut..]);
    assert!(
        received_rst(&mut env),
        "the GFC reassembles; splitting fails"
    );
}

#[test]
fn iran_blocks_on_port_80_only_and_splitting_works() {
    // Port 80: blocked with a 403 page.
    let mut env = build_environment(EnvKind::Iran, OsKind::Linux, Box::<EchoApp>::default(), 0);
    let mut c = Client::connect(&mut env, CPORT, 80);
    c.send(&mut env, &get_request("www.facebook.com", "/", "Mozilla"));
    let inbox = env.network.take_client_inbox();
    let saw_403 = inbox.iter().any(|(_, w)| {
        ParsedPacket::parse(w)
            .map(|p| p.payload.windows(13).any(|w| w == b"403 Forbidden"))
            .unwrap_or(false)
    });
    let saw_rst = inbox.iter().any(|(_, w)| {
        ParsedPacket::parse(w)
            .and_then(|p| p.tcp().map(|t| t.flags.rst))
            .unwrap_or(false)
    });
    assert!(saw_403 && saw_rst, "Iran sends a 403 page plus RSTs");

    // Port 8080: same content, untouched.
    let mut env = build_environment(EnvKind::Iran, OsKind::Linux, Box::<EchoApp>::default(), 0);
    let mut c = Client::connect(&mut env, CPORT, 8080);
    c.send(&mut env, &get_request("www.facebook.com", "/", "Mozilla"));
    assert!(!received_rst(&mut env));

    // Port 80 with the keyword split across two packets: per-packet
    // matching misses it.
    let mut env = build_environment(EnvKind::Iran, OsKind::Linux, Box::<EchoApp>::default(), 0);
    let mut c = Client::connect(&mut env, CPORT, 80);
    let req = get_request("www.facebook.com", "/", "Mozilla");
    let cut = liberate_traces::http::find(&req, b"facebook.com").unwrap() + 4;
    c.send(&mut env, &req[..cut]);
    c.send(&mut env, &req[cut..]);
    assert!(!received_rst(&mut env), "splitting the keyword evades Iran");
}

#[test]
fn tmus_zero_rates_video_and_reordering_evades() {
    let mut env = build_environment(
        EnvKind::TMobile,
        OsKind::Linux,
        Box::<EchoApp>::default(),
        0,
    );
    let mut c = Client::connect(&mut env, CPORT, 80);
    c.send(
        &mut env,
        &get_request("x.cloudfront.net", "/v.mp4", "Prime/5"),
    );
    let dpi = env.dpi_mut().unwrap();
    assert!(dpi.zero_rated_bytes > 0, "video flow should be zero-rated");
    assert_eq!(
        dpi.classification_of(liberate_packet::flow::FlowKey::new(
            CLIENT_ADDR,
            SERVER_ADDR,
            CPORT,
            80,
            6
        ))
        .as_deref(),
        Some("video")
    );

    // Reversed two-segment order: the first arriving payload packet does
    // not begin with GET, the gate fails, nothing is classified.
    let mut env = build_environment(
        EnvKind::TMobile,
        OsKind::Linux,
        Box::<EchoApp>::default(),
        0,
    );
    let mut c = Client::connect(&mut env, CPORT, 80);
    let req = get_request("x.cloudfront.net", "/v.mp4", "Prime/5");
    let cut = req.len() / 2;
    // Send the tail first (higher sequence number), then the head.
    let tail = Packet::tcp(
        CLIENT_ADDR,
        SERVER_ADDR,
        CPORT,
        80,
        c.seq.wrapping_add(cut as u32),
        c.ack,
        req[cut..].to_vec(),
    );
    env.network
        .send_from_client(Duration::ZERO, tail.serialize());
    env.network.run_until_idle();
    c.send(&mut env, &req[..cut]);
    let dpi = env.dpi_mut().unwrap();
    assert_eq!(
        dpi.classification_of(liberate_packet::flow::FlowKey::new(
            CLIENT_ADDR,
            SERVER_ADDR,
            CPORT,
            80,
            6
        )),
        None,
        "reordering should evade T-Mobile"
    );
}

#[test]
fn att_proxy_transfers_and_throttles_video() {
    use liberate_substrate::capture::TapPoint;
    // An app that answers any request with an HTTP video response.
    struct VideoApp;
    impl liberate_netsim::server::ServerApp for VideoApp {
        fn on_tcp_data(
            &mut self,
            _f: liberate_packet::flow::FlowKey,
            data: &[u8],
        ) -> liberate_substrate::script::Burst {
            if data.windows(4).any(|w| w == b"GET ") {
                vec![liberate_traces::http::response(
                    200,
                    "OK",
                    "video/mp4",
                    &liberate_traces::apps::media_bytes(500_000, 9),
                )
                .into()]
                .into()
            } else {
                liberate_substrate::script::Burst::none()
            }
        }
        fn on_udp_datagram(
            &mut self,
            _f: liberate_packet::flow::FlowKey,
            _d: &[u8],
        ) -> Vec<liberate_packet::buf::PacketBuf> {
            Vec::new()
        }
    }

    let mut env = build_environment(EnvKind::Att, OsKind::Linux, Box::new(VideoApp), 0);
    let mut c = Client::connect(&mut env, CPORT, 80);
    let t0 = env.network.clock;
    c.send(
        &mut env,
        &get_request("stream.nbcsports.com", "/live", "NBC/7"),
    );
    env.network.run_until_idle();
    let inbox = env.network.take_client_inbox();
    let received: usize = inbox
        .iter()
        .filter_map(|(_, w)| ParsedPacket::parse(w))
        .map(|p| p.payload.len())
        .sum();
    assert!(
        received >= 500_000,
        "proxy must deliver the whole response, got {received}"
    );
    let elapsed = (env.network.clock - t0).as_secs_f64();
    let rate = received as f64 * 8.0 / elapsed;
    assert!(
        rate < 2_500_000.0,
        "video should be throttled to ~1.5 Mbps, measured {rate}"
    );
    assert_eq!(env.proxy_mut().unwrap().classified_flows, 1);
    // The server never saw the client's raw packets: the proxy
    // re-originated everything (check its own SYN arrived instead).
    assert!(env
        .network
        .capture
        .at(TapPoint::ServerIngress)
        .next()
        .is_some());
}
