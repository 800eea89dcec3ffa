//! Capture taps: the substrate's tcpdump.
//!
//! The paper's RS? ("reaches server?") measurement is a packet capture at
//! the replay server; CC? diagnostics in the testbed read the middlebox
//! directly. Taps record raw wire bytes at well-defined points so
//! experiments can answer both, and can be exported as pcap files. Every
//! backend — the simulator and the real-wire one — fills the same buffer.

use liberate_packet::pcap::{write_pcap, CapturedPacket};

use crate::buf::PacketBuf;
use crate::time::SimTime;

/// Where on the path a packet was observed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TapPoint {
    /// Leaving the client NIC (what lib·erate sent).
    ClientEgress,
    /// Arriving at the client NIC (responses, RSTs, block pages, ICMP).
    ClientIngress,
    /// Arriving at the server NIC — the paper's RS? vantage.
    ServerIngress,
    /// Leaving the server NIC.
    ServerEgress,
}

impl TapPoint {
    /// All four tap points, in declaration order.
    pub const ALL: [TapPoint; 4] = [
        TapPoint::ClientEgress,
        TapPoint::ClientIngress,
        TapPoint::ServerIngress,
        TapPoint::ServerEgress,
    ];

    fn index(self) -> usize {
        match self {
            TapPoint::ClientEgress => 0,
            TapPoint::ClientIngress => 1,
            TapPoint::ServerIngress => 2,
            TapPoint::ServerEgress => 3,
        }
    }
}

/// One captured packet. The wire bytes are a shared [`PacketBuf`] view:
/// recording a packet at a tap refcounts the in-flight buffer instead of
/// copying it (the buffer is immutable once recorded — in-path mutation
/// goes through copy-on-write, so taps keep the bytes they saw).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CaptureRecord {
    pub at: SimTime,
    pub point: TapPoint,
    pub wire: PacketBuf,
}

/// An in-memory capture buffer.
///
/// Records every tap point by default. Like a real capture with a BPF
/// filter, recording can be narrowed to the points a caller's detectors
/// actually read ([`Capture::set_recorded_points`]) — a skipped tap
/// holds no reference to the in-flight buffer, so downstream in-path
/// mutation (TTL decrements at hops) stays in-place instead of faulting
/// a copy-on-write.
#[derive(Debug)]
pub struct Capture {
    records: Vec<CaptureRecord>,
    enabled: [bool; 4],
}

impl Default for Capture {
    fn default() -> Capture {
        Capture {
            records: Vec::new(),
            enabled: [true; 4],
        }
    }
}

impl Capture {
    /// Record only the given tap points from now on; everything else is
    /// dropped at the tap. Does not discard already-buffered records.
    pub fn set_recorded_points(&mut self, points: &[TapPoint]) {
        self.enabled = [false; 4];
        for p in points {
            self.enabled[p.index()] = true;
        }
    }

    pub fn record(&mut self, at: SimTime, point: TapPoint, buf: impl Into<PacketBuf>) {
        if !self.enabled[point.index()] {
            return;
        }
        self.records.push(CaptureRecord {
            at,
            point,
            wire: buf.into(),
        });
    }

    pub fn all(&self) -> &[CaptureRecord] {
        &self.records
    }

    /// Records observed at one tap point.
    pub fn at(&self, point: TapPoint) -> impl Iterator<Item = &CaptureRecord> {
        self.records.iter().filter(move |r| r.point == point)
    }

    /// Whether any packet at `point` satisfies `pred`.
    pub fn any_at(&self, point: TapPoint, mut pred: impl FnMut(&[u8]) -> bool) -> bool {
        self.at(point).any(|r| pred(&r.wire))
    }

    /// Drop the records and keep the buffer for the next ones.
    pub fn clear(&mut self) {
        self.records.clear();
    }

    /// Drop the records and free their buffer: for a capture that will
    /// record nothing more.
    pub fn release(&mut self) {
        self.records = Vec::new();
    }

    pub fn len(&self) -> usize {
        self.records.len()
    }

    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Export one tap point as a pcap byte buffer. The per-record
    /// materialization is a sanctioned egress copy.
    pub fn to_pcap(&self, point: TapPoint) -> Vec<u8> {
        let packets: Vec<CapturedPacket> = self
            .at(point)
            .map(|r| CapturedPacket {
                timestamp_micros: r.at.as_micros(),
                bytes: r.wire.copy_to_vec(),
            })
            .collect();
        let mut out = Vec::new();
        write_pcap(&mut out, &packets).expect("writing to Vec cannot fail");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn taps_filter_by_point() {
        let mut c = Capture::default();
        c.record(SimTime::ZERO, TapPoint::ClientEgress, &[1]);
        c.record(SimTime::from_secs(1), TapPoint::ServerIngress, &[2, 2]);
        c.record(SimTime::from_secs(2), TapPoint::ServerIngress, &[3]);
        assert_eq!(c.len(), 3);
        assert_eq!(c.at(TapPoint::ServerIngress).count(), 2);
        assert!(c.any_at(TapPoint::ServerIngress, |w| w.len() == 2));
        assert!(!c.any_at(TapPoint::ClientIngress, |_| true));
    }

    #[test]
    fn pcap_export_contains_only_requested_point() {
        let mut c = Capture::default();
        c.record(SimTime::ZERO, TapPoint::ClientEgress, &[0x45, 0, 0, 0]);
        c.record(SimTime::ZERO, TapPoint::ServerIngress, &[0x45]);
        let pcap = c.to_pcap(TapPoint::ServerIngress);
        // Global header (24) + one record header (16) + 1 byte.
        assert_eq!(pcap.len(), 24 + 16 + 1);
    }
}
