//! The linked-library deployment mode (§3.1: lib·erate "is designed as
//! both a library that can be wrapped around existing socket libraries or
//! as a local proxy service").
//!
//! [`LiberateSocket`] looks like a plain stream socket — `connect`,
//! `send`, `recv`, `close` — while transparently rewriting the beginning
//! of each connection with the evasion technique the pipeline learned.
//! Applications keep their own wire bytes; only packetization and inert
//! insertions change.

use std::time::Duration;

use liberate_dpi::profiles::CLIENT_ADDR;
use liberate_packet::packet::ParsedPacket;
use liberate_substrate::buf::PacketBuf;
use liberate_substrate::time::SimTime;
use liberate_substrate::Substrate;
use liberate_traces::recorded::{RecordedTrace, Sender, TraceProtocol};

use crate::error::{LiberateError, Result};
use crate::evasion::{EvasionContext, Technique};
use crate::replay::Session;
use crate::schedule::{ClientFlow, Schedule, Step};

/// Per-connection state.
struct Conn {
    flow: ClientFlow,
    /// Next stream offset for client data.
    offset: u64,
    /// RSTs observed for this connection.
    rsts: usize,
    /// Server payload received and not yet handed to the application.
    rx: Vec<u8>,
    /// Whether the evasion transform has been applied yet (it rewrites
    /// only the start of the flow).
    start_transformed: bool,
}

impl Conn {
    /// Take in what the client received: RSTs and server payload on
    /// this connection.
    fn absorb(&mut self, inbox: Vec<(SimTime, PacketBuf)>) {
        for (_, wire) in inbox {
            let Some(p) = ParsedPacket::parse(&wire) else {
                continue;
            };
            if p.dst_port() != Some(self.flow.client_port) {
                continue;
            }
            if let Some(t) = p.tcp() {
                if t.flags.rst {
                    self.rsts += 1;
                    continue;
                }
            }
            if !p.payload.is_empty() {
                self.rx.extend_from_slice(&p.payload);
            }
        }
    }
}

/// A socket-like handle whose traffic is liberated transparently.
pub struct LiberateSocket<S: Substrate = crate::sim::SimSubstrate> {
    pub session: Session<S>,
    technique: Option<(Technique, EvasionContext)>,
    conn: Option<Conn>,
}

impl<S: Substrate> LiberateSocket<S> {
    /// Wrap a session. Without a learned technique the socket behaves like
    /// a plain stack.
    pub fn new(session: Session<S>) -> LiberateSocket<S> {
        LiberateSocket {
            session,
            technique: None,
            conn: None,
        }
    }

    /// Install the evasion technique to apply to new connections (from a
    /// pipeline run or a shared cache).
    pub fn use_technique(&mut self, technique: Technique, ctx: EvasionContext) {
        self.technique = Some((technique, ctx));
    }

    /// Open a connection to the environment's server, on the session's
    /// next client port and ISN (as a replay takes them).
    pub fn connect(&mut self, server_port: u16) -> Result<()> {
        let mut flow = self
            .session
            .open_flow(TraceProtocol::Tcp, CLIENT_ADDR, server_port);
        let handshake = self.session.handshake(&mut flow);
        let mut conn = Conn {
            flow,
            offset: 0,
            rsts: 0,
            rx: Vec::new(),
            start_transformed: false,
        };
        // A blocking middlebox may inject RSTs during the handshake while
        // the SYN still reaches the server; count them.
        conn.absorb(handshake.inbox);
        if !handshake.established {
            return Err(LiberateError::HandshakeFailed);
        }
        self.conn = Some(conn);
        Ok(())
    }

    /// Send application bytes, cut at the recording MSS as a recorded
    /// trace's messages are; the first send of a connection is rewritten
    /// by the installed technique (splits, inert insertions, pauses).
    /// Every packet goes out through [`ClientFlow::lower`], as in a
    /// replay.
    pub fn send(&mut self, data: &[u8]) -> Result<()> {
        let conn = self.conn.as_mut().ok_or(LiberateError::HandshakeFailed)?;
        let mut trace = RecordedTrace::new("live", TraceProtocol::Tcp, conn.flow.server_port);
        trace.push_stream(Sender::Client, data);
        let mut schedule = Schedule::from_trace(&trace);
        // The technique rewrites the flow start only.
        if !std::mem::replace(&mut conn.start_transformed, true) {
            if let Some((technique, ctx)) = &self.technique {
                schedule = technique.apply(&schedule, ctx).unwrap_or(schedule);
            }
        }

        let (flow, base) = (conn.flow, conn.offset);
        for step in &mut schedule.steps {
            match step {
                Step::Pause(d) => {
                    self.session.env.run_until_idle();
                    self.session.env.advance(*d);
                }
                Step::AwaitServer { .. } => {}
                Step::Packet(sp) => {
                    sp.offset += base;
                    let env = &mut self.session.env;
                    // The client port seeds the IP identification, as
                    // the replay number does for a replay.
                    flow.lower(sp, flow.client_port.into(), None, |wire| {
                        env.inject_client(Duration::ZERO, wire)
                    });
                    env.run_until_idle();
                }
            }
            self.drain_inbox();
        }
        if let Some(conn) = self.conn.as_mut() {
            conn.offset += data.len() as u64;
        }
        Ok(())
    }

    fn drain_inbox(&mut self) {
        if let Some(conn) = self.conn.as_mut() {
            conn.absorb(self.session.env.take_client_inbox());
        }
    }

    /// Receive whatever server payload has arrived.
    pub fn recv(&mut self) -> Vec<u8> {
        self.session.env.run_until_idle();
        self.drain_inbox();
        self.conn
            .as_mut()
            .map(|c| std::mem::take(&mut c.rx))
            .unwrap_or_default()
    }

    /// RSTs observed on the current connection (the blocking signal).
    pub fn reset_count(&self) -> usize {
        self.conn.as_ref().map(|c| c.rsts).unwrap_or(0)
    }

    /// Close the connection with a FIN.
    pub fn close(&mut self) {
        if let Some(conn) = self.conn.take() {
            self.session
                .env
                .inject_client(Duration::ZERO, conn.flow.fin(conn.offset));
            self.session.env.run_until_idle();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::LiberateConfig;
    use crate::probe::decoy_request;
    use crate::replay::ReplayOpts;
    use crate::sim::{EchoApp, OsKind};
    use liberate_dpi::profiles::EnvKind;
    use liberate_substrate::capture::TapPoint;
    use liberate_traces::http::get_request;
    use liberate_traces::recorded::TraceMessage;

    fn socket(kind: EnvKind) -> LiberateSocket {
        let mut session = Session::new(kind, OsKind::Linux, LiberateConfig::default());
        session
            .env
            .network
            .server
            .set_app(Box::<EchoApp>::default());
        LiberateSocket::new(session)
    }

    #[test]
    fn plain_socket_echoes() {
        let mut s = socket(EnvKind::Sprint);
        s.connect(80).unwrap();
        s.send(b"hello through the socket api").unwrap();
        let got = s.recv();
        assert_eq!(got, b"hello through the socket api");
        assert_eq!(s.reset_count(), 0);
        s.close();
    }

    #[test]
    fn censored_request_blocked_without_technique() {
        let mut s = socket(EnvKind::Gfc);
        s.connect(80).unwrap();
        s.send(&get_request("www.economist.com", "/", "sock/1.0"))
            .unwrap();
        let _ = s.recv();
        assert!(s.reset_count() > 0, "the censor RSTs the plain socket");
    }

    #[test]
    fn technique_liberates_the_same_request() {
        let mut s = socket(EnvKind::Gfc);
        s.use_technique(
            Technique::TtlRstBeforeMatch,
            EvasionContext::blind(decoy_request(), 10),
        );
        s.connect(80).unwrap();
        let req = get_request("www.economist.com", "/", "sock/1.0");
        s.send(&req).unwrap();
        let got = s.recv();
        assert_eq!(s.reset_count(), 0, "no censor RSTs");
        assert_eq!(got, req, "the echo server saw the full request intact");
        s.close();
    }

    #[test]
    fn splitting_technique_preserves_the_stream() {
        let mut s = socket(EnvKind::Iran);
        let req = get_request("www.facebook.com", "/", "sock/1.0");
        let pos = liberate_traces::http::find(&req, b"facebook.com").unwrap();
        s.use_technique(
            Technique::TcpSegmentSplit { segments: 2 },
            EvasionContext {
                matching_fields: vec![liberate_packet::mutate::ByteRegion::new(0, pos..pos + 12)],
                decoy: decoy_request(),
                middlebox_ttl: 8,
            },
        );
        s.connect(80).unwrap();
        s.send(&req).unwrap();
        // A second send passes through untransformed.
        s.send(b" more data").unwrap();
        let got = s.recv();
        let mut expected = req.clone();
        expected.extend_from_slice(b" more data");
        assert_eq!(got, expected);
        assert_eq!(s.reset_count(), 0);
    }

    #[test]
    fn penalized_port_resets_even_the_handshake() {
        // Penalize the server:port with two classified flows.
        let mut s = socket(EnvKind::Gfc);
        for _ in 0..2 {
            s.connect(80).unwrap();
            s.send(&get_request("www.economist.com", "/", "sock/1.0"))
                .unwrap();
            let _ = s.recv();
        }
        // The GFC now RSTs the next connection from its very first packet
        // (the SYN itself still reaches the server off-path).
        s.connect(80).unwrap();
        assert!(
            s.reset_count() > 0,
            "censor RSTs arrive during the handshake on a penalized port"
        );
        // A clean port is unaffected.
        s.connect(8080).unwrap();
        assert_eq!(s.reset_count(), 0);
    }

    /// What the parity test compares of one packet at server ingress:
    /// TTL, fragment flags and offset, IP payload length, and — for a
    /// first or only fragment — the TCP flags and payload (otherwise the
    /// raw IP payload). IP ID, ports, ISNs and checksums are left out.
    /// Header lengths below the minimum (the inert rows that lie about
    /// them) read as the 20 bytes actually sent.
    type WireKey = (u8, u16, usize, Option<u8>, Vec<u8>);

    fn wire_key(wire: &[u8]) -> WireKey {
        let ihl = (usize::from(wire[0] & 0x0f) * 4).clamp(20, wire.len());
        let frag = u16::from_be_bytes([wire[6], wire[7]]) & 0x3fff;
        let ip_payload = &wire[ihl..];
        if frag & 0x1fff == 0 && ip_payload.len() >= 20 {
            let doff = (usize::from(ip_payload[12] >> 4) * 4).clamp(20, ip_payload.len());
            let payload = ip_payload[doff..].to_vec();
            (
                wire[8],
                frag,
                ip_payload.len(),
                Some(ip_payload[13]),
                payload,
            )
        } else {
            (wire[8], frag, ip_payload.len(), None, ip_payload.to_vec())
        }
    }

    fn server_ingress<S: Substrate>(session: &Session<S>) -> Vec<WireKey> {
        session
            .env
            .capture()
            .at(TapPoint::ServerIngress)
            .map(|r| wire_key(&r.wire))
            .collect()
    }

    /// One `send` through the socket puts on the wire exactly what the
    /// replay engine sends for the same request, technique and context,
    /// for every TCP row of Table 3 (Sprint has no middlebox, so every
    /// packet reaches the server).
    #[test]
    fn socket_sends_what_the_replay_engine_sends() {
        let req = get_request("www.facebook.com", "/", "sock/1.0");
        let pos = liberate_traces::http::find(&req, b"facebook.com").unwrap();
        let ctx = EvasionContext {
            matching_fields: vec![liberate_packet::mutate::ByteRegion::new(0, pos..pos + 12)],
            decoy: decoy_request(),
            middlebox_ttl: 8,
        };
        let mut trace = RecordedTrace::new("parity", TraceProtocol::Tcp, 80);
        trace.push_message(TraceMessage::client(req.clone()));
        let mut diverged = Vec::new();
        for technique in Technique::table3_rows()
            .into_iter()
            .filter(|t| t.applicable(TraceProtocol::Tcp))
        {
            let mut replay =
                Session::new(EnvKind::Sprint, OsKind::Linux, LiberateConfig::default());
            replay
                .replay_with(&trace, &technique, &ctx, &ReplayOpts::default())
                .unwrap();
            let mut s = socket(EnvKind::Sprint);
            s.use_technique(technique.clone(), ctx.clone());
            s.session.env.clear_capture();
            s.connect(80).unwrap();
            s.send(&req).unwrap();
            let sent = server_ingress(&replay);
            assert!(sent.len() >= 3, "{technique:?}: handshake and data arrive");
            if server_ingress(&s.session) != sent {
                diverged.push(technique);
            }
        }
        assert!(
            diverged.is_empty(),
            "socket and replay diverge on {diverged:?}"
        );
    }

    /// A technique-rewritten first send is cut at the MSS like any other.
    #[test]
    fn rewritten_first_send_is_cut_at_the_mss() {
        let mut s = socket(EnvKind::Gfc);
        s.use_technique(
            Technique::TtlRstBeforeMatch,
            EvasionContext::blind(decoy_request(), 10),
        );
        s.connect(80).unwrap();
        let mut data = get_request("www.economist.com", "/", "sock/1.0");
        data.resize(4_000, b'x');
        s.send(&data).unwrap();
        let largest = server_ingress(&s.session)
            .iter()
            .map(|(_, _, _, _, payload)| payload.len())
            .max();
        assert_eq!(largest, Some(1_460), "no segment beyond the MSS");
        assert_eq!(s.recv(), data, "the echo server saw the full send intact");
        assert_eq!(s.reset_count(), 0);
    }
}
