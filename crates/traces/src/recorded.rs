//! The recorded-trace format: what lib·erate's record phase produces and
//! its replay phase consumes (Fig. 3, step 1).
//!
//! A trace is an ordered list of application messages, each already broken
//! into packet-sized payloads (≤ MSS), because classification behaviour
//! depends on *packet* boundaries and positions — the characterization
//! phase reasons in packets (§5.1).

use std::time::Duration;

use serde::{Deserialize, Serialize};

/// Transport protocol of a recorded flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TraceProtocol {
    Tcp,
    Udp,
}

/// Which endpoint sent a message.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Sender {
    Client,
    Server,
}

/// One packet-sized application payload.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceMessage {
    pub sender: Sender,
    /// Payload bytes (at most the recording MSS for TCP flows).
    pub payload: Vec<u8>,
    /// Gap after the *previous* message in the trace, in microseconds.
    pub gap_micros: u64,
}

impl TraceMessage {
    pub fn client(payload: impl Into<Vec<u8>>) -> TraceMessage {
        TraceMessage {
            sender: Sender::Client,
            payload: payload.into(),
            gap_micros: 0,
        }
    }

    pub fn server(payload: impl Into<Vec<u8>>) -> TraceMessage {
        TraceMessage {
            sender: Sender::Server,
            payload: payload.into(),
            gap_micros: 0,
        }
    }

    pub fn after(mut self, gap: Duration) -> TraceMessage {
        self.gap_micros = gap.as_micros() as u64;
        self
    }
}

/// A recorded application flow.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RecordedTrace {
    /// Human-readable application name ("YouTube", "Skype", ...).
    pub app: String,
    pub protocol: TraceProtocol,
    /// Server port the application used.
    pub server_port: u16,
    pub messages: Vec<TraceMessage>,
}

/// MSS used when chunking recorded byte streams into messages.
pub const RECORD_MSS: usize = 1460;

impl RecordedTrace {
    pub fn new(app: impl Into<String>, protocol: TraceProtocol, server_port: u16) -> Self {
        RecordedTrace {
            app: app.into(),
            protocol,
            server_port,
            messages: Vec::new(),
        }
    }

    /// Append a byte stream from `sender`, chunked at the recording MSS.
    pub fn push_stream(&mut self, sender: Sender, bytes: &[u8]) {
        for chunk in bytes.chunks(RECORD_MSS) {
            self.messages.push(TraceMessage {
                sender,
                payload: chunk.to_vec(),
                gap_micros: 0,
            });
        }
    }

    /// Append a single message (one packet payload), unchunked.
    pub fn push_message(&mut self, msg: TraceMessage) {
        self.messages.push(msg);
    }

    /// Messages sent by the client, in order.
    pub fn client_messages(&self) -> impl Iterator<Item = &TraceMessage> {
        self.messages.iter().filter(|m| m.sender == Sender::Client)
    }

    /// Messages sent by the server, in order.
    pub fn server_messages(&self) -> impl Iterator<Item = &TraceMessage> {
        self.messages.iter().filter(|m| m.sender == Sender::Server)
    }

    /// Total client-direction payload bytes.
    pub fn client_bytes(&self) -> usize {
        self.client_messages().map(|m| m.payload.len()).sum()
    }

    /// Total server-direction payload bytes.
    pub fn server_bytes(&self) -> usize {
        self.server_messages().map(|m| m.payload.len()).sum()
    }

    /// Total bytes in both directions.
    pub fn total_bytes(&self) -> usize {
        self.messages.iter().map(|m| m.payload.len()).sum()
    }

    /// The concatenated client byte stream.
    pub fn client_stream(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.client_bytes());
        for m in self.client_messages() {
            out.extend_from_slice(&m.payload);
        }
        out
    }

    /// A copy with a different server port (the GFC characterization runs
    /// rotate ports to dodge server:port blocking, §6.5; the AT&T
    /// port-change evasion needs it too).
    pub fn with_server_port(&self, port: u16) -> RecordedTrace {
        let mut t = self.clone();
        t.server_port = port;
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunking_respects_mss() {
        let mut t = RecordedTrace::new("test", TraceProtocol::Tcp, 80);
        t.push_stream(Sender::Client, &vec![7u8; RECORD_MSS * 2 + 100]);
        assert_eq!(t.messages.len(), 3);
        assert_eq!(t.messages[0].payload.len(), RECORD_MSS);
        assert_eq!(t.messages[2].payload.len(), 100);
        assert_eq!(t.client_bytes(), RECORD_MSS * 2 + 100);
    }

    #[test]
    fn direction_filters() {
        let mut t = RecordedTrace::new("test", TraceProtocol::Tcp, 80);
        t.push_message(TraceMessage::client(&b"req"[..]));
        t.push_message(TraceMessage::server(&b"resp"[..]));
        t.push_message(TraceMessage::client(&b"req2"[..]));
        assert_eq!(t.client_messages().count(), 2);
        assert_eq!(t.server_messages().count(), 1);
        assert_eq!(t.client_stream(), b"reqreq2");
        assert_eq!(t.total_bytes(), 11);
    }

    #[test]
    fn gaps_and_port_rewrite() {
        let mut t = RecordedTrace::new("test", TraceProtocol::Udp, 3478);
        t.push_message(TraceMessage::client(&b"a"[..]).after(Duration::from_millis(30)));
        assert_eq!(t.messages[0].gap_micros, 30_000);
        let t2 = t.with_server_port(9000);
        assert_eq!(t2.server_port, 9000);
        assert_eq!(t.server_port, 3478);
        assert_eq!(t2.messages, t.messages);
    }
}
