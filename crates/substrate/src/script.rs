//! The scripted replay server, backend-neutral.
//!
//! Fig. 3's replay server plays back the server side of a recorded trace
//! when the corresponding client bytes arrive. The *transport* differs per
//! backend (the simulator runs it inside `ServerHost`; the nftables
//! backend runs it behind its loopback delivery path) but the scripting
//! logic is identical, so it lives here: a plain-data [`ServerScript`]
//! built by core from the trace, a [`ScriptEngine`] state machine, and a
//! shared [`ServerObs`] the observing replay engine reads afterwards.

use std::collections::HashMap;
use std::ops::Range;
use std::sync::Arc;

use liberate_packet::packet::{resum_segments, segment_payload_sums};
use parking_lot::Mutex;

use crate::buf::PacketBuf;

/// A trace's server responses, lowered once: every payload is a view
/// into one shared buffer. Replays share a table through an `Arc`, so
/// installing a script for one more replay copies no response bytes, and
/// handing a response to the transport is a refcount bump.
///
/// The table also remembers the payload sums of the segments its bursts
/// were cut into, so a burst replayed again is never summed again.
/// Equality compares the responses only.
#[derive(Debug, Default)]
pub struct ResponseTable {
    responses: Vec<PacketBuf>,
    bytes: u64,
    /// Per-segment payload sums of the bursts served so far.
    sums: Mutex<HashMap<BurstKey, Arc<[u16]>>>,
    /// For a table made by [`ResponseTable::replacing`]: the table it
    /// was made from and the indices of the responses it replaced.
    base: Option<(Arc<ResponseTable>, Vec<usize>)>,
}

/// (first response, response count, MSS): a burst's segment payloads
/// depend on nothing else.
type BurstKey = (usize, usize, usize);

impl ResponseTable {
    /// Copy `payloads`, in order, into one buffer and view each in place.
    pub fn lower<'a, I>(payloads: I) -> ResponseTable
    where
        I: IntoIterator<Item = &'a [u8]>,
        I::IntoIter: Clone,
    {
        let payloads = payloads.into_iter();
        let total: usize = payloads.clone().map(<[u8]>::len).sum();
        let mut ends = Vec::new();
        let joined = PacketBuf::build(total, |joined| {
            let mut at = 0;
            for p in payloads {
                joined[at..at + p.len()].copy_from_slice(p);
                at += p.len();
                ends.push(at);
            }
        });
        let mut start = 0;
        let responses = ends
            .into_iter()
            .map(|end| {
                let view = joined.slice(start..end);
                start = end;
                view
            })
            .collect();
        ResponseTable::from_responses(responses)
    }

    /// A table over existing response buffers (views are shared, not
    /// copied).
    pub fn from_responses(responses: Vec<PacketBuf>) -> ResponseTable {
        let bytes = responses.iter().map(|r| r.len() as u64).sum();
        ResponseTable {
            responses,
            bytes,
            sums: Mutex::default(),
            base: None,
        }
    }

    /// This table with some responses replaced by rewrites of the same
    /// length (a server-blinded probe's responses). Its segment sums
    /// start from this table's, which are computed once and shared: only
    /// the segments that overlap a replaced response are summed again.
    pub fn replacing(self: &Arc<Self>, replaced: Vec<(usize, PacketBuf)>) -> ResponseTable {
        let mut responses = self.responses.clone();
        let mut changed: Vec<usize> = replaced.iter().map(|&(i, _)| i).collect();
        changed.sort_unstable();
        for (i, response) in replaced {
            // The inherited sums assume every segment boundary stays put.
            assert_eq!(
                response.len(),
                responses[i].len(),
                "a rewrite keeps its length"
            );
            responses[i] = response;
        }
        ResponseTable {
            base: Some((Arc::clone(self), changed)),
            ..ResponseTable::from_responses(responses)
        }
    }

    /// The responses, in order.
    pub fn responses(&self) -> &[PacketBuf] {
        &self.responses
    }

    /// Total response bytes: what a complete replay delivers.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// The payload sums of the segments that the responses `range`,
    /// sent as one stream, are cut into at `mss` (see
    /// [`segment_payload_sums`]): computed on the first request, then
    /// remembered.
    pub fn segment_sums(&self, range: Range<usize>, mss: usize) -> Arc<[u16]> {
        let key = (range.start, range.len(), mss);
        if let Some(sums) = self.sums.lock().get(&key) {
            return Arc::clone(sums);
        }
        let sums = match &self.base {
            Some((base, changed)) => {
                let base_sums = base.segment_sums(range.clone(), mss);
                let messages = &self.responses[range.clone()];
                let mut at = 0;
                let mut changed_bytes = Vec::new();
                for (i, m) in range.zip(messages) {
                    if changed.binary_search(&i).is_ok() {
                        changed_bytes.push(at..at + m.len());
                    }
                    at += m.len();
                }
                if changed_bytes.is_empty() {
                    base_sums
                } else {
                    let mut sums = base_sums.to_vec();
                    resum_segments(messages, mss, &changed_bytes, &mut sums);
                    sums.into()
                }
            }
            None => segment_payload_sums(&self.responses[range], mss).into(),
        };
        Arc::clone(self.sums.lock().entry(key).or_insert(sums))
    }
}

impl PartialEq for ResponseTable {
    fn eq(&self, other: &ResponseTable) -> bool {
        self.responses == other.responses
    }
}

/// What a server sends at once: messages the transport transmits as one
/// byte stream.
#[derive(Debug)]
pub enum Burst {
    /// Consecutive responses of a shared table; the transport reuses the
    /// table's payload sums for their segments.
    Table(Arc<ResponseTable>, Range<usize>),
    /// Any other messages; the transport sums their payload as it
    /// copies it.
    Messages(Vec<PacketBuf>),
}

impl Burst {
    /// Nothing to send.
    pub fn none() -> Burst {
        Burst::Messages(Vec::new())
    }

    /// The messages, in order.
    pub fn messages(&self) -> &[PacketBuf] {
        match self {
            Burst::Table(table, range) => &table.responses()[range.clone()],
            Burst::Messages(messages) => messages,
        }
    }

    /// Total message bytes.
    pub fn bytes(&self) -> usize {
        self.messages().iter().map(|m| m.len()).sum()
    }

    /// The payload sums of the segments this burst is cut into at `mss`,
    /// when they are known without reading the payload: table bursts
    /// only.
    pub fn payload_sums(&self, mss: usize) -> Option<Arc<[u16]>> {
        match self {
            Burst::Table(table, range) => Some(table.segment_sums(range.clone(), mss)),
            Burst::Messages(_) => None,
        }
    }
}

impl From<Vec<PacketBuf>> for Burst {
    fn from(messages: Vec<PacketBuf>) -> Burst {
        Burst::Messages(messages)
    }
}

/// The server's half of one replay: a shared [`ResponseTable`] plus what
/// releases each response. Built by core from the trace; cloning it
/// copies only the release list.
#[derive(Debug, Clone, Default)]
pub struct ServerScript {
    /// The responses, shared with every other replay of the trace.
    pub table: Arc<ResponseTable>,
    /// Per response, in order: the cumulative client bytes (TCP) and the
    /// client datagram count (UDP) that must arrive before it is sent.
    pub releases: Vec<(u64, usize)>,
    /// Bytes at the start of the client stream to discard (server-side
    /// support for the dummy-prefix technique).
    pub skip_prefix: u64,
}

impl ServerScript {
    /// The number of responses from index `sent` on whose release has
    /// `arrived`, up to the first one still pending.
    fn due(&self, sent: usize, arrived: impl Fn(&(u64, usize)) -> bool) -> usize {
        let n = self.releases.len().min(self.table.responses().len());
        self.releases[sent.min(n)..n]
            .iter()
            .take_while(|r| arrived(r))
            .count()
    }
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
    /// order (may be none); the transport sends them as one byte stream.
    pub fn on_tcp_data(&mut self, data: &[u8]) -> Burst {
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
        let sent = shared.responses_sent;
        let due = self.script.due(sent, |&(bytes, _)| effective >= bytes);
        shared.responses_sent += due;
        if due == 0 {
            return Burst::none();
        }
        Burst::Table(Arc::clone(&self.script.table), sent..sent + due)
    }

    /// A UDP datagram arrived. Returns zero or more response datagrams,
    /// views of the shared table.
    pub fn on_udp_datagram(&mut self, data: &[u8]) -> Vec<PacketBuf> {
        let mut shared = self.shared.lock();
        shared.datagrams.push(data.to_vec());
        let count = shared.datagrams.len();
        let sent = shared.responses_sent;
        let due = self.script.due(sent, |&(_, dgrams)| count >= dgrams);
        shared.responses_sent += due;
        self.script.table.responses()[sent..sent + due].to_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn script() -> ServerScript {
        ServerScript {
            table: Arc::new(ResponseTable::lower([&b"first"[..], b"second"])),
            releases: vec![(5, 1), (10, 2)],
            skip_prefix: 0,
        }
    }

    #[test]
    fn lowering_views_one_buffer() {
        let table = ResponseTable::lower([&b"ab"[..], b"", b"cde"]);
        assert_eq!(table.responses(), [&b"ab"[..], b"", b"cde"]);
        assert_eq!(table.bytes(), 5);
        assert_eq!(
            ResponseTable::from_responses(table.responses().to_vec()),
            table
        );
    }

    #[test]
    fn equality_ignores_the_memo() {
        let table = ResponseTable::lower([&b"ab"[..], b"", b"cde"]);
        let fresh = ResponseTable::from_responses(table.responses().to_vec());
        let sums = table.segment_sums(0..3, 2);
        assert_eq!(&sums[..], segment_payload_sums(table.responses(), 2));
        assert!(Arc::ptr_eq(&sums, &table.segment_sums(0..3, 2)));
        assert_eq!(table, fresh);
        assert_eq!(fresh, table);
        assert_ne!(table, ResponseTable::lower([&b"ab"[..], b"cde"]));
    }

    #[test]
    fn due_responses_are_a_burst_of_the_shared_table() {
        let s = script();
        let table = Arc::clone(&s.table);
        let (mut eng, _obs) = ScriptEngine::new(s);
        assert!(matches!(eng.on_tcp_data(b"abc"), Burst::Messages(m) if m.is_empty()));
        match eng.on_tcp_data(b"de") {
            Burst::Table(t, range) => {
                assert!(Arc::ptr_eq(&t, &table));
                assert_eq!(range, 0..1);
            }
            other => panic!("expected a table burst, got {other:?}"),
        }
    }

    #[test]
    fn tcp_responses_fire_at_cumulative_thresholds() {
        let (mut eng, obs) = ScriptEngine::new(script());
        assert!(eng.on_tcp_data(b"abc").messages().is_empty());
        assert_eq!(
            eng.on_tcp_data(b"de").messages(),
            [PacketBuf::from(b"first")]
        );
        assert_eq!(
            eng.on_tcp_data(b"fghij").messages(),
            [PacketBuf::from(b"second")]
        );
        let obs = obs.lock();
        assert_eq!(obs.received_stream, b"abcdefghij");
        assert_eq!(obs.raw_received, 10);
        assert_eq!(obs.responses_sent, 2);
    }

    #[test]
    fn responses_due_together_come_back_as_separate_messages() {
        let (mut eng, _obs) = ScriptEngine::new(script());
        assert_eq!(
            eng.on_tcp_data(b"0123456789").messages(),
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
        assert!(eng.on_tcp_data(b"XXXab").messages().is_empty());
        assert_eq!(
            eng.on_tcp_data(b"cde").messages(),
            [PacketBuf::from(b"first")]
        );
        let obs = obs.lock();
        assert_eq!(obs.received_stream, b"abcde");
        assert_eq!(obs.raw_received, 8);
    }

    #[test]
    fn udp_responses_key_off_datagram_count() {
        let (mut eng, obs) = ScriptEngine::new(script());
        assert_eq!(eng.on_udp_datagram(b"ping"), vec![b"first".to_vec()]);
        assert_eq!(eng.on_udp_datagram(b"ping"), vec![b"second".to_vec()]);
        assert!(eng.on_udp_datagram(b"ping").is_empty());
        assert_eq!(obs.lock().datagrams.len(), 3);
    }

    #[test]
    fn releases_past_the_table_are_ignored() {
        let mut s = script();
        s.releases.push((11, 3));
        let (mut eng, _obs) = ScriptEngine::new(s);
        assert_eq!(eng.on_tcp_data(b"0123456789ab").messages().len(), 2);
    }
}
