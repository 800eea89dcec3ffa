//! The path-element abstraction: anything sitting between the client and
//! the server — router hops, normalizing gateways, shapers, and (from the
//! `liberate-dpi` crate) DPI middleboxes and transparent proxies.
//!
//! The verdict vocabulary ([`Verdict`], [`Effects`], [`TimedPacket`])
//! moved to the backend-neutral `liberate-substrate` crate and is
//! re-exported here; the [`PathElement`] trait itself is simulator-only
//! (real-wire backends have no element chain to walk).

use liberate_obs::Journal;
use liberate_packet::flow::Direction;

use liberate_substrate::time::SimTime;

pub use liberate_substrate::buf::{CopyTally, PacketBuf};
pub use liberate_substrate::verdict::{Effects, TimedPacket, Verdict};

/// An element on the client-to-server path.
///
/// `Send` so a worker session's whole `Network` can move to (or be
/// borrowed by) a pool thread; elements hold plain data or `Arc`s of
/// sync state, never thread-bound handles. No element holds a journal:
/// the `Network` lends its own to every [`PathElement::process`] call,
/// so an element's events and counters land in whichever journal the
/// network holds when the packet is processed.
pub trait PathElement: Send {
    /// Short name for traces and captures.
    fn name(&self) -> &str;

    /// Downcasting hook so orchestration code can reach a concrete element
    /// (e.g. the testbed reads its DPI device's classification directly,
    /// §6.1: "the middlebox shows the result of classification immediately").
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any;

    /// Process one packet traveling in `dir`, journaling into `journal`.
    /// `now` is the element-local arrival time. The wire buffer is a
    /// shared [`PacketBuf`] view: pass-through elements forward it
    /// untouched (a move), mutating elements go through
    /// [`PacketBuf::make_mut`] copy-on-write.
    fn process(
        &mut self,
        journal: &Journal,
        now: SimTime,
        dir: Direction,
        wire: PacketBuf,
        effects: &mut Effects,
    ) -> Verdict;

    /// Whether this element decrements the IP TTL (router hops do; DPI
    /// devices and shapers are transparent).
    fn decrements_ttl(&self) -> bool {
        false
    }
}
