//! Parameterized workload generation for benchmarks and property tests:
//! flows of configurable size, shape, and content class.

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

use crate::http::{get_request, response_head};
use crate::recorded::{RecordedTrace, Sender, TraceMessage, TraceProtocol, RECORD_MSS};

/// The kind of payload content to generate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ContentClass {
    /// Random bytes (already-encrypted-looking).
    Random,
    /// ASCII text.
    Text,
    /// An HTTP request/response exchange with a configurable Host.
    Http,
}

/// Workload generator configuration.
#[derive(Debug, Clone)]
pub struct WorkloadSpec {
    pub seed: u64,
    pub protocol: TraceProtocol,
    pub server_port: u16,
    pub content: ContentClass,
    /// Host header when `content == Http`.
    pub host: String,
    /// Client-direction payload bytes.
    pub client_bytes: usize,
    /// Server-direction payload bytes.
    pub server_bytes: usize,
}

impl Default for WorkloadSpec {
    fn default() -> Self {
        WorkloadSpec {
            seed: 1,
            protocol: TraceProtocol::Tcp,
            server_port: 80,
            content: ContentClass::Http,
            host: "workload.example.net".to_string(),
            client_bytes: 512,
            server_bytes: 64 * 1024,
        }
    }
}

/// Generate a trace according to `spec`.
pub fn generate(spec: &WorkloadSpec) -> RecordedTrace {
    let mut rng = StdRng::seed_from_u64(spec.seed);
    let mut t = RecordedTrace::new(
        format!("workload-{}", spec.seed),
        spec.protocol,
        spec.server_port,
    );
    match spec.content {
        ContentClass::Http => {
            let req = get_request(&spec.host, "/generated", "workload-gen/1.0");
            t.push_stream(Sender::Client, &req);
            if spec.client_bytes > req.len() {
                t.push_stream(
                    Sender::Client,
                    &bytes(&mut rng, spec.client_bytes - req.len(), ContentClass::Text),
                );
            }
            let head = response_head(200, "OK", "application/octet-stream", spec.server_bytes);
            push_random(&mut t, Sender::Server, &head, spec.server_bytes, &mut rng);
        }
        class => {
            t.push_stream(Sender::Client, &bytes(&mut rng, spec.client_bytes, class));
            t.push_stream(Sender::Server, &bytes(&mut rng, spec.server_bytes, class));
        }
    }
    t
}

/// Generate a UDP trace of `packets` datagrams alternating directions.
pub fn generate_udp_stream(seed: u64, packets: usize, payload_len: usize) -> RecordedTrace {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut t = RecordedTrace::new(format!("udp-{seed}"), TraceProtocol::Udp, 9999);
    for i in 0..packets {
        t.push_message(TraceMessage {
            sender: if i % 2 == 0 {
                Sender::Client
            } else {
                Sender::Server
            },
            payload: bytes(&mut rng, payload_len, ContentClass::Random),
            gap_micros: 1_000,
        });
    }
    t
}

/// Append `head` and then `len` random bytes as `sender` messages, cut
/// where [`RecordedTrace::push_stream`] cuts. Each message is written in
/// place, so a large body is never held whole; the bytes equal `head`
/// followed by `bytes(rng, len, ContentClass::Random)`.
fn push_random(t: &mut RecordedTrace, sender: Sender, head: &[u8], len: usize, rng: &mut StdRng) {
    let total = head.len() + len;
    let mut random = RandomStream::new(rng);
    let mut at = 0;
    while at < total {
        let mut payload = vec![0u8; RECORD_MSS.min(total - at)];
        let rest = head.get(at..).unwrap_or_default();
        let from_head = rest.len().min(payload.len());
        payload[..from_head].copy_from_slice(&rest[..from_head]);
        random.fill(&mut payload[from_head..]);
        at += payload.len();
        t.push_message(TraceMessage {
            sender,
            payload,
            gap_micros: 0,
        });
    }
}

/// The byte stream one `rng.fill` call writes, served across several
/// destination slices: whole little-endian words of `next_u64`, with a
/// word split across two slices carried over.
struct RandomStream<'a> {
    rng: &'a mut StdRng,
    word: [u8; 8],
    /// Bytes of `word` already served.
    used: usize,
}

impl<'a> RandomStream<'a> {
    fn new(rng: &'a mut StdRng) -> Self {
        RandomStream {
            rng,
            word: [0; 8],
            used: 8,
        }
    }

    fn fill(&mut self, dest: &mut [u8]) {
        let carry = (8 - self.used).min(dest.len());
        dest[..carry].copy_from_slice(&self.word[self.used..self.used + carry]);
        self.used += carry;
        let mut words = dest[carry..].chunks_exact_mut(8);
        for w in &mut words {
            w.copy_from_slice(&self.rng.next_u64().to_le_bytes());
        }
        let rem = words.into_remainder();
        if !rem.is_empty() {
            self.word = self.rng.next_u64().to_le_bytes();
            rem.copy_from_slice(&self.word[..rem.len()]);
            self.used = rem.len();
        }
    }
}

fn bytes(rng: &mut StdRng, len: usize, class: ContentClass) -> Vec<u8> {
    match class {
        ContentClass::Random | ContentClass::Http => {
            let mut v = vec![0u8; len];
            rng.fill(&mut v[..]);
            v
        }
        ContentClass::Text => (0..len)
            .map(|_| {
                let c = rng.gen_range(0..64u8);
                match c {
                    0..=25 => b'a' + c,
                    26..=51 => b'A' + (c - 26),
                    52..=61 => b'0' + (c - 52),
                    62 => b' ',
                    _ => b'\n',
                }
            })
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn http_workload_carries_host() {
        let spec = WorkloadSpec {
            host: "video.target.example".into(),
            ..WorkloadSpec::default()
        };
        let t = generate(&spec);
        assert!(crate::http::find(&t.client_stream(), b"video.target.example").is_some());
        assert!(t.total_bytes() >= spec.server_bytes);
    }

    /// The in-place HTTP body writer against the composition it replaces:
    /// the whole body drawn by one `fill`, wrapped by `http::response`,
    /// then cut by `push_stream`.
    #[test]
    fn http_body_written_in_place_matches_composed_response() {
        for (seed, client_bytes, server_bytes) in [
            (1, 512, 64 * 1024),
            (2, 0, 0),
            (3, 100, 1),
            (4, 2000, RECORD_MSS - 91),
            (5, 512, RECORD_MSS * 3 + 7),
            (6, 512, 400_001),
        ] {
            let spec = WorkloadSpec {
                seed,
                client_bytes,
                server_bytes,
                host: format!("h{seed}.example"),
                ..WorkloadSpec::default()
            };
            let mut rng = StdRng::seed_from_u64(seed);
            let mut old = RecordedTrace::new(format!("workload-{seed}"), spec.protocol, 80);
            let req = get_request(&spec.host, "/generated", "workload-gen/1.0");
            old.push_stream(Sender::Client, &req);
            if client_bytes > req.len() {
                let text = bytes(&mut rng, client_bytes - req.len(), ContentClass::Text);
                old.push_stream(Sender::Client, &text);
            }
            let body = bytes(&mut rng, server_bytes, ContentClass::Random);
            let response = crate::http::response(200, "OK", "application/octet-stream", &body);
            old.push_stream(Sender::Server, &response);
            assert_eq!(generate(&spec), old, "spec {spec:?}");
        }
    }

    #[test]
    fn deterministic_by_seed() {
        let spec = WorkloadSpec::default();
        assert_eq!(generate(&spec), generate(&spec));
        let other = WorkloadSpec {
            seed: 2,
            ..WorkloadSpec::default()
        };
        assert_ne!(generate(&spec), generate(&other));
    }

    #[test]
    fn text_is_ascii() {
        let spec = WorkloadSpec {
            content: ContentClass::Text,
            client_bytes: 1000,
            server_bytes: 0,
            ..WorkloadSpec::default()
        };
        let t = generate(&spec);
        assert!(t.client_stream().iter().all(|b| b.is_ascii()));
    }

    #[test]
    fn udp_stream_shape() {
        let t = generate_udp_stream(3, 10, 200);
        assert_eq!(t.messages.len(), 10);
        assert_eq!(t.protocol, TraceProtocol::Udp);
        assert!(t.messages.iter().all(|m| m.payload.len() == 200));
    }
}
