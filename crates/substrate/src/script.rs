//! The scripted replay server, backend-neutral.
//!
//! Fig. 3's replay server plays back the server side of a recorded trace
//! when the corresponding client bytes arrive. The *transport* differs per
//! backend (the simulator runs it inside `ServerHost`; the nftables
//! backend runs it behind its loopback delivery path) but the scripting
//! logic is identical, so it lives here: a plain-data [`ServerScript`]
//! built by core from the trace, a [`ScriptEngine`] state machine, and a
//! shared [`ServerObs`] the observing replay engine reads afterwards.

use std::sync::Arc;

use parking_lot::Mutex;

use crate::buf::PacketBuf;

/// The server's half of a recorded trace, lowered to plain data. Each
/// response payload is one shared buffer: the TCP and UDP scripts of a
/// trace hold views of the same bytes, and handing a TCP response to the
/// transport never copies it.
#[derive(Debug, Clone, Default)]
pub struct ServerScript {
    /// (cumulative client bytes required, response payload) for TCP.
    pub tcp_script: Vec<(u64, PacketBuf)>,
    /// (client datagram count required, response payload) for UDP.
    pub udp_script: Vec<(usize, PacketBuf)>,
    /// Bytes at the start of the client stream to discard (server-side
    /// support for the dummy-prefix technique).
    pub skip_prefix: u64,
}

/// State shared between the scripted server (running inside a backend's
/// endpoint) and the observing replay engine.
#[derive(Debug, Default)]
pub struct ServerObs {
    /// Client stream bytes delivered to the app (TCP) — after prefix skip.
    pub received_stream: Vec<u8>,
    /// Raw delivered bytes before prefix skipping.
    pub raw_received: u64,
    /// UDP datagrams delivered.
    pub datagrams: Vec<Vec<u8>>,
    /// Server messages already emitted.
    pub responses_sent: usize,
}

/// The script playback state machine. Backends feed it in-order delivered
/// client bytes/datagrams and transmit whatever it returns.
pub struct ScriptEngine {
    script: ServerScript,
    shared: Arc<Mutex<ServerObs>>,
}

impl ScriptEngine {
    pub fn new(script: ServerScript) -> (ScriptEngine, Arc<Mutex<ServerObs>>) {
        let shared = Arc::new(Mutex::new(ServerObs::default()));
        (
            ScriptEngine {
                script,
                shared: shared.clone(),
            },
            shared,
        )
    }

    /// In-order TCP bytes delivered. Returns the responses now due, in
    /// order (may be empty); the transport sends them as one byte stream.
    pub fn on_tcp_data(&mut self, data: &[u8]) -> Vec<PacketBuf> {
        let mut shared = self.shared.lock();
        shared.raw_received += data.len() as u64;
        // Apply the prefix skip.
        let mut data = data;
        let consumed_before = shared.raw_received - data.len() as u64;
        if consumed_before < self.script.skip_prefix {
            let to_skip =
                (self.script.skip_prefix - consumed_before).min(data.len() as u64) as usize;
            data = &data[to_skip..];
        }
        shared.received_stream.extend_from_slice(data);
        let effective = shared.received_stream.len() as u64;
        let mut out = Vec::new();
        while shared.responses_sent < self.script.tcp_script.len() {
            let (needed, payload) = &self.script.tcp_script[shared.responses_sent];
            if effective >= *needed {
                // lint: allow(payload-copy) refcount bump on the shared
                // script buffer
                out.push(payload.clone());
                shared.responses_sent += 1;
            } else {
                break;
            }
        }
        out
    }

    /// A UDP datagram arrived. Returns zero or more response datagrams.
    pub fn on_udp_datagram(&mut self, data: &[u8]) -> Vec<Vec<u8>> {
        let mut shared = self.shared.lock();
        shared.datagrams.push(data.to_vec());
        let count = shared.datagrams.len();
        let mut out = Vec::new();
        while shared.responses_sent < self.script.udp_script.len() {
            let (needed, payload) = &self.script.udp_script[shared.responses_sent];
            if count >= *needed {
                // lint: allow(payload-copy) script-owned response bytes,
                // not wire payload: each send needs its own Vec.
                out.push(payload.to_vec());
                shared.responses_sent += 1;
            } else {
                break;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn script() -> ServerScript {
        ServerScript {
            tcp_script: vec![(5, b"first".into()), (10, b"second".into())],
            udp_script: vec![(1, b"pong".into())],
            skip_prefix: 0,
        }
    }

    #[test]
    fn tcp_responses_fire_at_cumulative_thresholds() {
        let (mut eng, obs) = ScriptEngine::new(script());
        assert!(eng.on_tcp_data(b"abc").is_empty());
        assert_eq!(eng.on_tcp_data(b"de"), [PacketBuf::from(b"first")]);
        assert_eq!(eng.on_tcp_data(b"fghij"), [PacketBuf::from(b"second")]);
        let obs = obs.lock();
        assert_eq!(obs.received_stream, b"abcdefghij");
        assert_eq!(obs.raw_received, 10);
        assert_eq!(obs.responses_sent, 2);
    }

    #[test]
    fn responses_due_together_come_back_as_separate_messages() {
        let (mut eng, _obs) = ScriptEngine::new(script());
        assert_eq!(
            eng.on_tcp_data(b"0123456789"),
            [PacketBuf::from(b"first"), PacketBuf::from(b"second")]
        );
    }

    #[test]
    fn skip_prefix_discards_leading_bytes() {
        let mut s = script();
        s.skip_prefix = 3;
        let (mut eng, obs) = ScriptEngine::new(s);
        // 3 dummy bytes + the real 5: responses key off the post-skip
        // stream, so "first" fires once 5 effective bytes arrived.
        assert!(eng.on_tcp_data(b"XXXab").is_empty());
        assert_eq!(eng.on_tcp_data(b"cde"), [PacketBuf::from(b"first")]);
        let obs = obs.lock();
        assert_eq!(obs.received_stream, b"abcde");
        assert_eq!(obs.raw_received, 8);
    }

    #[test]
    fn udp_responses_key_off_datagram_count() {
        let (mut eng, obs) = ScriptEngine::new(script());
        assert_eq!(eng.on_udp_datagram(b"ping"), vec![b"pong".to_vec()]);
        assert_eq!(obs.lock().datagrams.len(), 1);
    }
}
