//! Rate limiting: a token-bucket model used both for access-link capacity
//! and for middlebox throttling actions (AT&T's 1.5 Mbps Stream Saver cap,
//! T-Mobile's Binge On video throttle).

use std::time::Duration;

use liberate_packet::flow::Direction;

use crate::element::{Effects, PacketBuf, PathElement, TimedPacket, Verdict};
use liberate_substrate::time::SimTime;

/// A byte-based token bucket. Tokens accrue at `rate_bps / 8` bytes per
/// second up to `burst_bytes`; a packet of `n` bytes departs as soon as `n`
/// tokens are available, FIFO.
#[derive(Debug, Clone)]
pub struct TokenBucket {
    rate_bytes_per_sec: f64,
    burst_bytes: f64,
    tokens: f64,
    last_update: SimTime,
    /// Earliest time the next packet may depart (FIFO ordering).
    next_free: SimTime,
}

impl TokenBucket {
    pub fn new(rate_bps: u64, burst_bytes: u64) -> TokenBucket {
        TokenBucket {
            rate_bytes_per_sec: rate_bps as f64 / 8.0,
            burst_bytes: burst_bytes as f64,
            tokens: burst_bytes as f64,
            last_update: SimTime::ZERO,
            next_free: SimTime::ZERO,
        }
    }

    fn refill(&mut self, now: SimTime) {
        let dt = now.since(self.last_update).as_secs_f64();
        self.tokens = (self.tokens + dt * self.rate_bytes_per_sec).min(self.burst_bytes);
        self.last_update = now;
    }

    /// Departure time for a packet of `len` bytes arriving at `now`.
    pub fn schedule(&mut self, now: SimTime, len: usize) -> SimTime {
        let now = now.max(self.next_free);
        self.refill(now);
        let need = len as f64;
        let depart = if self.tokens >= need {
            self.tokens -= need;
            now
        } else {
            let wait = (need - self.tokens) / self.rate_bytes_per_sec;
            self.tokens = 0.0;
            self.last_update = now + Duration::from_secs_f64(wait);
            now + Duration::from_secs_f64(wait)
        };
        self.next_free = depart;
        depart
    }
}

/// A path element limiting throughput in one or both directions.
pub struct LinkShaper {
    name: String,
    downstream: TokenBucket,
    upstream: TokenBucket,
}

impl LinkShaper {
    /// Symmetric shaper at `rate_bps` with `burst_bytes` of depth.
    pub fn symmetric(name: impl Into<String>, rate_bps: u64, burst_bytes: u64) -> LinkShaper {
        LinkShaper {
            name: name.into(),
            downstream: TokenBucket::new(rate_bps, burst_bytes),
            upstream: TokenBucket::new(rate_bps, burst_bytes),
        }
    }
}

impl PathElement for LinkShaper {
    fn name(&self) -> &str {
        &self.name
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }

    fn process(
        &mut self,
        now: SimTime,
        dir: Direction,
        wire: PacketBuf,
        _effects: &mut Effects,
    ) -> Verdict {
        let bucket = match dir {
            Direction::ClientToServer => &mut self.upstream,
            Direction::ServerToClient => &mut self.downstream,
        };
        let at = bucket.schedule(now, wire.len());
        Verdict::Forward(TimedPacket { at, wire })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn burst_passes_instantly_then_paces() {
        // 8 kbps = 1000 bytes/s, burst 1000 bytes.
        let mut tb = TokenBucket::new(8_000, 1000);
        let t0 = SimTime::from_secs(1);
        // First 1000 bytes: instantaneous (burst).
        assert_eq!(tb.schedule(t0, 1000), t0);
        // Next 500 bytes must wait 0.5 s for tokens.
        let d = tb.schedule(t0, 500);
        assert_eq!(d.as_micros(), 1_500_000);
        // FIFO: a later tiny packet departs no earlier than the previous.
        let d2 = tb.schedule(t0, 1);
        assert!(d2 >= d);
    }

    #[test]
    fn tokens_refill_over_time() {
        let mut tb = TokenBucket::new(8_000, 1000);
        assert_eq!(tb.schedule(SimTime::ZERO, 1000), SimTime::ZERO);
        // After 2 s the bucket is full again (capped at burst).
        let t = SimTime::from_secs(3);
        assert_eq!(tb.schedule(t, 1000), t);
    }

    #[test]
    fn sustained_rate_is_respected() {
        // 1 Mbps, minimal burst; sending 1 MB should take ~8 s.
        let mut tb = TokenBucket::new(1_000_000, 1500);
        let mut last = SimTime::ZERO;
        for _ in 0..667 {
            last = tb.schedule(SimTime::ZERO, 1500);
        }
        let secs = last.as_secs_f64();
        assert!((secs - 8.0).abs() < 0.1, "took {secs}");
    }

    #[test]
    fn shaper_directions_independent() {
        let mut s = LinkShaper::symmetric("s", 8_000, 100);
        let mut fx = Effects::default();
        // Exhaust upstream.
        let v = s.process(
            SimTime::ZERO,
            Direction::ClientToServer,
            vec![0; 100].into(),
            &mut fx,
        );
        match v {
            Verdict::Forward(p) => assert_eq!(p.at, SimTime::ZERO),
            _ => panic!(),
        }
        // Downstream still has its own burst.
        let v = s.process(
            SimTime::ZERO,
            Direction::ServerToClient,
            vec![0; 100].into(),
            &mut fx,
        );
        match v {
            Verdict::Forward(p) => assert_eq!(p.at, SimTime::ZERO),
            _ => panic!(),
        }
    }
}
