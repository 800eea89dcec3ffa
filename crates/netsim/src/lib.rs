//! # liberate-netsim
//!
//! A deterministic discrete-event network simulator: the substrate on which
//! the lib·erate reproduction runs its experiments.
//!
//! The topology is always `client — [path elements] — server`:
//!
//! - the **client** is script-driven (lib·erate's replay/deploy engines
//!   inject raw wire packets, mirroring the raw-socket control the real
//!   tool has);
//! - **path elements** are router hops ([`hop::RouterHop`]: TTL decrement,
//!   ICMP Time Exceeded, malformed-packet filters, fragment normalization),
//!   shapers ([`shaper::LinkShaper`]), and — from the `liberate-dpi`
//!   crate — DPI middleboxes and transparent proxies;
//! - the **server** ([`server::ServerHost`]) is a faithful endpoint: an IP
//!   layer applying a per-OS validation profile ([`os::OsProfile`], encoding
//!   Table 3's Linux/macOS/Windows differences), fragment reassembly, and
//!   honest TCP/UDP stacks feeding a pluggable [`server::ServerApp`].
//!
//! Everything runs on a virtual clock
//! ([`liberate_substrate::time::SimTime`]) so second- and minute-scale
//! phenomena (classifier flush timeouts, time-of-day load) reproduce
//! instantly and deterministically. Capture taps
//! ([`liberate_substrate::capture::Capture`]) provide the
//! tcpdump-equivalent observations the paper's RS? column relies on,
//! exportable as pcap.

pub mod blueprint;
pub mod element;
pub mod filter;
pub mod firewall;
pub mod hop;
pub mod network;
pub mod os;
pub mod queue;
pub mod server;
pub mod shaper;

pub mod prelude {
    pub use crate::blueprint::{ElementFactory, NetworkBlueprint};
    pub use crate::element::{Effects, PathElement, TimedPacket, Verdict};
    pub use crate::filter::{FilterPolicy, FragmentHandling};
    pub use crate::firewall::StatefulFirewall;
    pub use crate::hop::RouterHop;
    pub use crate::network::Network;
    pub use crate::os::{OsAction, OsKind, OsProfile};
    pub use crate::server::{EchoApp, ServerApp, ServerHost, SinkApp, SERVER_MSS};
    pub use crate::shaper::{LinkShaper, TokenBucket};
    pub use liberate_substrate::capture::{Capture, CaptureRecord, TapPoint};
    pub use liberate_substrate::icmp::{parse_icmp_error, IcmpError};
    pub use liberate_substrate::stats::ThroughputMeter;
    pub use liberate_substrate::time::SimTime;
}
