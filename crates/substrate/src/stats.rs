//! Throughput measurement over timestamped byte arrivals — used for the
//! throttling-detection signal and the §6.2 throughput comparison
//! (Amazon Prime over T-Mobile: 1.48 Mbps throttled vs 4.1 Mbps evading).

use std::time::Duration;

use crate::time::SimTime;

/// Accumulates (time, bytes) samples and reports average/peak throughput.
#[derive(Debug, Default, Clone)]
pub struct ThroughputMeter {
    samples: Vec<(SimTime, usize)>,
}

impl ThroughputMeter {
    /// An empty meter with room for `samples` samples.
    pub fn with_capacity(samples: usize) -> ThroughputMeter {
        ThroughputMeter {
            samples: Vec::with_capacity(samples),
        }
    }

    /// Record a sample, keeping `samples` sorted by time. Arrivals are
    /// almost always in order (the simulator's clock is monotonic), so the
    /// common case is a plain push; a late sample pays one binary search
    /// plus an insert instead of forcing `peak_bps` to clone-and-sort the
    /// whole vector on every call.
    pub fn record(&mut self, at: SimTime, bytes: usize) {
        match self.samples.last() {
            Some((last, _)) if *last > at => {
                let pos = self.samples.partition_point(|(t, _)| *t <= at);
                self.samples.insert(pos, (at, bytes));
            }
            _ => self.samples.push((at, bytes)),
        }
    }

    pub fn total_bytes(&self) -> u64 {
        self.samples.iter().map(|(_, b)| *b as u64).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// First and last sample times (samples are kept sorted by `record`).
    pub fn span(&self) -> Option<(SimTime, SimTime)> {
        let (first, _) = self.samples.first()?;
        let (last, _) = self.samples.last()?;
        Some((*first, *last))
    }

    /// Average throughput in bits per second over the sample span.
    pub fn average_bps(&self) -> f64 {
        let Some((first, last)) = self.span() else {
            return 0.0;
        };
        let secs = (last - first).as_secs_f64().max(1e-6);
        self.total_bytes() as f64 * 8.0 / secs
    }

    /// Peak throughput in bits per second over any window of `window`.
    pub fn peak_bps(&self, window: Duration) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        let win = window.as_secs_f64().max(1e-6);
        let mut best = 0.0f64;
        let mut lo = 0;
        let mut in_window = 0u64;
        for hi in 0..self.samples.len() {
            in_window += self.samples[hi].1 as u64;
            while self.samples[hi].0 - self.samples[lo].0 > window {
                in_window -= self.samples[lo].1 as u64;
                lo += 1;
            }
            best = best.max(in_window as f64 * 8.0 / win);
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn average_over_span() {
        let mut m = ThroughputMeter::default();
        // 1000 bytes per second for 10 seconds => 8 kbps.
        for s in 0..=10u64 {
            m.record(SimTime::from_secs(s), 1000);
        }
        let avg = m.average_bps();
        assert!((avg - 8_800.0).abs() < 100.0, "avg {avg}"); // 11 kB / 10 s
        assert_eq!(m.total_bytes(), 11_000);
    }

    #[test]
    fn peak_exceeds_average_for_bursts() {
        let mut m = ThroughputMeter::default();
        // A one-second burst of 10 kB then silence for 9 s.
        m.record(SimTime::from_secs(0), 5_000);
        m.record(SimTime::from_millis_helper(500), 5_000);
        m.record(SimTime::from_secs(10), 1);
        let avg = m.average_bps();
        let peak = m.peak_bps(Duration::from_secs(1));
        assert!(peak > avg * 5.0, "peak {peak} avg {avg}");
    }

    #[test]
    fn out_of_order_records_match_in_order() {
        // Same burst as above, recorded backwards and interleaved: the
        // sorted-on-insert path must give identical answers.
        let mut fwd = ThroughputMeter::default();
        fwd.record(SimTime::from_secs(0), 5_000);
        fwd.record(SimTime::from_millis_helper(500), 5_000);
        fwd.record(SimTime::from_secs(10), 1);

        let mut rev = ThroughputMeter::default();
        rev.record(SimTime::from_secs(10), 1);
        rev.record(SimTime::from_millis_helper(500), 5_000);
        rev.record(SimTime::from_secs(0), 5_000);

        assert_eq!(fwd.span(), rev.span());
        assert_eq!(fwd.total_bytes(), rev.total_bytes());
        assert_eq!(fwd.average_bps(), rev.average_bps());
        assert_eq!(
            fwd.peak_bps(Duration::from_secs(1)),
            rev.peak_bps(Duration::from_secs(1))
        );
        assert!(rev.peak_bps(Duration::from_secs(1)) > 79_000.0);
    }

    #[test]
    fn duplicate_timestamps_keep_all_samples() {
        let mut m = ThroughputMeter::default();
        m.record(SimTime::from_secs(1), 100);
        m.record(SimTime::from_secs(1), 200);
        m.record(SimTime::from_secs(0), 50);
        assert_eq!(m.total_bytes(), 350);
        assert_eq!(
            m.span(),
            Some((SimTime::from_secs(0), SimTime::from_secs(1)))
        );
        // All 350 bytes land inside a 2 s window.
        let peak = m.peak_bps(Duration::from_secs(2));
        assert!((peak - 350.0 * 8.0 / 2.0).abs() < 1e-6, "peak {peak}");
    }

    #[test]
    fn empty_meter_is_zero() {
        let m = ThroughputMeter::default();
        assert_eq!(m.average_bps(), 0.0);
        assert_eq!(m.peak_bps(Duration::from_secs(1)), 0.0);
    }

    impl SimTime {
        fn from_millis_helper(ms: u64) -> SimTime {
            SimTime::from_micros(ms * 1000)
        }
    }
}
