//! Seeded workload inputs. The seed changes payload bytes and ordering,
//! never a trace's shape (message count and sizes), so every seed asks
//! the program for the same amount of work and run-to-run spread is the
//! program's, not the input generator's.

use liberate::prelude::{CharacterizeOpts, EnvKind, LiberateConfig};
use liberate_dpi::rules::RuleSet;
use liberate_traces::apps;
use liberate_traces::recorded::{RecordedTrace, Sender, TraceProtocol};

/// A splitmix64 stream: the benchmark's only source of randomness.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x6c69_6265_7261_7465)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }

    fn fill(&mut self, bytes: &mut [u8]) {
        for chunk in bytes.chunks_mut(8) {
            let word = self.next().to_le_bytes();
            chunk.copy_from_slice(&word[..chunk.len()]);
        }
    }
}

/// One network to learn: where, which application, how to probe.
pub struct Input {
    pub env: EnvKind,
    pub trace: RecordedTrace,
    pub copts: CharacterizeOpts,
}

/// The pipeline configuration for a seed: the paper's defaults with a
/// seeded RNG for blinding payloads.
pub fn config(rng: &mut Rng) -> LiberateConfig {
    LiberateConfig {
        seed: rng.next(),
        ..LiberateConfig::default()
    }
}

/// `trace` with its HTTP response body redrawn from `rng`: every server
/// byte after the end of the response header. Classifiers key on the
/// request, which stays as recorded.
pub fn reseed(mut trace: RecordedTrace, rng: &mut Rng) -> RecordedTrace {
    // Server bytes seen while still inside the response header.
    let mut header = Vec::new();
    let mut in_body = false;
    for m in trace
        .messages
        .iter_mut()
        .filter(|m| m.sender == Sender::Server)
    {
        let start = if in_body {
            0
        } else {
            let before = header.len();
            header.extend_from_slice(&m.payload);
            match header.windows(4).position(|w| w == b"\r\n\r\n") {
                Some(end) => {
                    in_body = true;
                    (end + 4).saturating_sub(before)
                }
                None => continue,
            }
        };
        rng.fill(&mut m.payload[start..]);
    }
    trace
}

/// GFC probes rotate server ports: the GFC model blocks a server:port
/// pair after two classified flows. (Iran's classifier watches port 80
/// only, so its probes keep the recorded port.)
fn rotating() -> CharacterizeOpts {
    CharacterizeOpts {
        rotate_server_ports: true,
        ..Default::default()
    }
}

/// The learn rotation, in seeded order: four networks whose rules a pool
/// learns through the signal detection finds — throttling for testbed
/// video and music (traces past the testbed's 420 kB throttle burst),
/// blocking for the GFC and Iran.
pub fn learn_inputs(rng: &mut Rng) -> Vec<Input> {
    let mut inputs = vec![
        Input {
            env: EnvKind::Testbed,
            trace: apps::amazon_prime_http(600_000),
            copts: CharacterizeOpts::default(),
        },
        Input {
            env: EnvKind::Testbed,
            trace: apps::spotify_http(600_000),
            copts: CharacterizeOpts::default(),
        },
        Input {
            env: EnvKind::Gfc,
            trace: apps::economist_http(),
            copts: rotating(),
        },
        Input {
            env: EnvKind::Iran,
            trace: apps::facebook_http(),
            copts: CharacterizeOpts::default(),
        },
    ];
    rng.shuffle(&mut inputs);
    inputs
        .into_iter()
        .map(|i| Input {
            trace: reseed(i.trace, rng),
            ..i
        })
        .collect()
}

/// A one-request page fetch the GFC model RST-blocks on its keyword: a
/// crisp blocking signal over a handful of packets, so a deployment
/// wave's cost is per-flow machinery, not bulk payload.
pub fn blocked_page(rng: &mut Rng) -> RecordedTrace {
    let mut t = RecordedTrace::new("economist.com", TraceProtocol::Tcp, 80);
    t.push_stream(
        Sender::Client,
        &liberate_traces::http::get_request("www.economist.com", "/weeklyedition", "Mozilla/5.0"),
    );
    t.push_stream(
        Sender::Server,
        &liberate_traces::http::response(200, "OK", "text/html", &[b'x'; 2_000]),
    );
    reseed(t, rng)
}

/// The deploy input: a GFC pool serving the blocked page.
pub fn deploy_input(rng: &mut Rng) -> Input {
    Input {
        env: EnvKind::Gfc,
        trace: blocked_page(rng),
        copts: rotating(),
    }
}

/// The adapt input: a testbed pool streaming Prime Video.
pub fn adapt_input(rng: &mut Rng) -> Input {
    Input {
        env: EnvKind::Testbed,
        trace: reseed(apps::amazon_prime_http(600_000), rng),
        copts: CharacterizeOpts::default(),
    }
}

/// The scripted classifier change for adapt: the testbed's decoy "web"
/// rule re-classed as throttled video, which burns the low-TTL inert
/// decoy technique the testbed pool first learns.
pub fn flipped(rules: &RuleSet) -> RuleSet {
    let mut rules = rules.clone();
    for r in &mut rules.rules {
        if r.id == "web" {
            r.class = "video".to_string();
        }
    }
    rules
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reseed_redraws_the_body_and_keeps_the_shape() {
        let original = apps::amazon_prime_http(5_000);
        let a = reseed(original.clone(), &mut Rng::new(1));
        let b = reseed(original.clone(), &mut Rng::new(2));
        let sizes = |t: &RecordedTrace| {
            t.messages
                .iter()
                .map(|m| m.payload.len())
                .collect::<Vec<_>>()
        };
        assert_eq!(sizes(&a), sizes(&original));
        assert_ne!(a, b);
        let stream = |t: &RecordedTrace| {
            t.server_messages()
                .flat_map(|m| m.payload.clone())
                .collect::<Vec<u8>>()
        };
        let (orig, a) = (stream(&original), stream(&a));
        let body = orig.windows(4).position(|w| w == b"\r\n\r\n").unwrap() + 4;
        assert_eq!(orig[..body], a[..body], "the response header is kept");
        assert_ne!(orig[body..], a[body..], "the body is redrawn");
        assert_eq!(
            original.client_stream(),
            reseed(original.clone(), &mut Rng::new(3)).client_stream()
        );
    }
}
