//! The network fabric: a deterministic discrete-event loop moving wire
//! packets from the client through an ordered chain of path elements to the
//! server and back.
//!
//! The client side is *script-driven* (lib·erate's replay and deployment
//! engines inject raw packets and inspect what comes back — mirroring the
//! raw-socket control the real tool has), while the server side runs the
//! full endpoint stack from [`crate::server`].
//!
//! # Plain hops and the TTL debt
//!
//! Most of a path is plain router hops ([`PathElement::plain_hop`]),
//! whose only effect on a forwarded packet is a TTL decrement. The
//! network still queues one event per hop, so dispatch order, step
//! counts and every timestamp are those of a hop-by-hop walk, but at a
//! plain hop that would forward it only adds 1 to the packet's
//! `ttl_debt` instead of calling the hop. The debt is settled — the owed
//! decrements written into the buffer, see
//! `RouterHop::settle_ttl_debt` — right before anything reads the
//! bytes: a non-plain element, a plain hop where the TTL would expire
//! (which then runs [`PathElement::process`] for expiry and ICMP), the
//! server, or the client inbox and its capture tap. The first plain hop
//! of a run takes the copy-on-write decision the hop would have taken
//! ([`PacketBuf::make_unique`]): a non-plain element may hold a view of
//! the buffer (a DPI reassembly queue does) and release it while the
//! packet crosses the run, and a copy taken later would not be counted.

use std::net::Ipv4Addr;
use std::sync::Arc;
use std::time::Duration;

use liberate_obs::{Counter, EventKind, Hist, Journal};
use liberate_packet::flow::Direction;
use liberate_packet::ipv4::IPV4_MIN_HEADER_LEN;

use crate::element::{CopyTally, Effects, PacketBuf, PathElement, TimedPacket, Verdict};
use crate::hop::{journal_copies, RouterHop};
use crate::queue::EventQueue;
use crate::server::ServerHost;
use liberate_substrate::capture::{Capture, TapPoint};
use liberate_substrate::time::SimTime;

/// Hard cap on events processed by one `run_until` call (and so by one
/// `run_until_idle`), guarding against a misbehaving element ping-ponging
/// packets forever.
const EVENT_BUDGET: u64 = 5_000_000;

/// A packet in flight, queued at its arrival time.
struct Event {
    /// Index of the next element to process this packet. For
    /// client-to-server travel, `elements.len()` means "deliver to server";
    /// for server-to-client, index 0 is processed last and then the packet
    /// is delivered to the client.
    pos: usize,
    dir: Direction,
    /// Plain hops crossed since the bytes were last written: TTL
    /// decrements owed to `wire` (see the module docs).
    ttl_debt: u8,
    wire: PacketBuf,
}

/// The simulated network.
pub struct Network {
    pub clock: SimTime,
    events: EventQueue<Event>,
    elements: Vec<Box<dyn PathElement>>,
    /// [`PathElement::plain_hop`] of each element, read once at build.
    plain: Vec<bool>,
    /// Scratch for the injections of the element being traversed,
    /// drained after every call so its buffers are reused.
    effects: Effects,
    pub server: ServerHost,
    pub client_addr: Ipv4Addr,
    /// Propagation latency added per element traversal.
    pub hop_latency: Duration,
    client_inbox: Vec<(SimTime, PacketBuf)>,
    /// The server's outbox, moved out for delivery; kept between
    /// deliveries so its buffer is reused.
    server_out: Vec<PacketBuf>,
    pub capture: Capture,
    /// The worker's observability journal, and its only holder: every
    /// simulator step and injected packet is counted here, and every
    /// path element borrows it per packet (timestamps are SimTime
    /// micros, never the wall clock).
    journal: Arc<Journal>,
    /// Sim timestamp of the last dispatched event, feeding the
    /// step-sim-micros inter-event-gap histogram.
    last_step_us: u64,
}

impl Network {
    pub fn new(
        client_addr: Ipv4Addr,
        elements: Vec<Box<dyn PathElement>>,
        server: ServerHost,
    ) -> Network {
        let plain = elements.iter().map(|e| e.plain_hop()).collect();
        Network {
            clock: SimTime::ZERO,
            events: EventQueue::new(),
            elements,
            plain,
            effects: Effects::default(),
            server,
            client_addr,
            hop_latency: Duration::from_millis(1),
            client_inbox: Vec::new(),
            server_out: Vec::new(),
            capture: Capture::default(),
            journal: Arc::new(Journal::new()),
            last_step_us: 0,
        }
    }

    /// The observability journal this network and its elements write.
    pub fn journal(&self) -> &Arc<Journal> {
        &self.journal
    }

    /// The journal slot: replace it (`*net.journal_mut() = j`) or swap a
    /// reactor lane's in; the next packet's elements write there.
    pub fn journal_mut(&mut self) -> &mut Arc<Journal> {
        &mut self.journal
    }

    /// Number of path elements.
    pub fn element_count(&self) -> usize {
        self.elements.len()
    }

    /// Mutable access to a path element (for downcasting in experiments).
    pub fn element_mut(&mut self, index: usize) -> &mut dyn PathElement {
        self.elements[index].as_mut()
    }

    /// Find an element by name.
    pub fn element_index(&self, name: &str) -> Option<usize> {
        self.elements.iter().position(|e| e.name() == name)
    }

    /// Number of TTL-decrementing hops from the client up to but not
    /// including element `index` — what a probe's TTL must exceed to
    /// *reach* that element.
    pub fn ttl_hops_before(&self, index: usize) -> u8 {
        self.elements[..index]
            .iter()
            .filter(|e| e.decrements_ttl())
            .count() as u8
    }

    /// Total TTL-decrementing hops on the whole path.
    pub fn ttl_hops_total(&self) -> u8 {
        self.elements.iter().filter(|e| e.decrements_ttl()).count() as u8
    }

    fn push_event(&mut self, at: SimTime, pos: usize, dir: Direction, wire: PacketBuf) {
        self.events.push(
            at,
            Event {
                pos,
                dir,
                ttl_debt: 0,
                wire,
            },
        );
    }

    /// Inject a packet from the client after `delay`.
    pub fn send_from_client(&mut self, delay: Duration, wire: Vec<u8>) {
        let at = self.clock + delay;
        let wire = PacketBuf::from(wire);
        self.capture.record(at, TapPoint::ClientEgress, &wire);
        self.journal.metrics.incr(Counter::PacketsInjected);
        self.journal.observe(Hist::InjectBytes, wire.len() as u64);
        self.journal.record(
            at.as_micros(),
            EventKind::PacketInjected {
                bytes: wire.len() as u64,
            },
        );
        self.push_event(at, 0, Direction::ClientToServer, wire);
    }

    /// Packets delivered to the client so far.
    pub fn client_inbox(&self) -> &[(SimTime, PacketBuf)] {
        &self.client_inbox
    }

    /// Drain the client inbox.
    pub fn take_client_inbox(&mut self) -> Vec<(SimTime, PacketBuf)> {
        std::mem::take(&mut self.client_inbox)
    }

    /// Advance the clock with no traffic (used by the pause-based flushing
    /// techniques). Processes any events scheduled within the window.
    pub fn advance(&mut self, d: Duration) {
        let target = self.clock + d;
        self.run_until(target);
        self.clock = target;
    }

    /// Process all events scheduled at or before `until`.
    pub fn run_until(&mut self, until: SimTime) {
        // Steps are counted here and added to `packets-stepped` once, so
        // a step costs no atomic read-modify-write.
        let mut stepped = 0;
        while let Some((at, ev)) = self.events.pop_until(until) {
            self.clock = self.clock.max(at);
            stepped += 1;
            let now_us = self.clock.as_micros();
            self.journal.observe(
                Hist::StepSimMicros,
                now_us.saturating_sub(self.last_step_us),
            );
            self.last_step_us = now_us;
            self.dispatch(at, ev);
            if stepped == EVENT_BUDGET {
                // Counted first: a caller that contains the panic keeps
                // an exact step count.
                self.journal.metrics.add(Counter::PacketsStepped, stepped);
                panic!("event budget exhausted: a path element is looping");
            }
        }
        if stepped > 0 {
            self.journal.metrics.add(Counter::PacketsStepped, stepped);
        }
    }

    /// Process every pending event (the network quiesces because endpoints
    /// are reactive).
    pub fn run_until_idle(&mut self) {
        self.run_until(SimTime::from_micros(u64::MAX));
    }

    /// Whether any event is still queued. Lane swaps (below) are only
    /// legal on a quiescent network.
    pub fn is_idle(&self) -> bool {
        self.events.is_empty()
    }

    /// Restart the inter-event-gap baseline at the current clock, so the
    /// next dispatched event's `step-sim-micros` sample measures from
    /// *here* rather than from the previous activity burst. The replay
    /// engine calls this at the top of every replay, making the gap
    /// distribution a per-replay property — identical whether replays run
    /// back to back on one timeline or on interleaved reactor lanes.
    pub fn mark_step_epoch(&mut self) {
        self.last_step_us = self.clock.as_micros();
    }

    /// Exchange the per-lane virtual-timeline state — clock, step-epoch
    /// baseline, and capture buffer — with a reactor lane's stash. Only
    /// meaningful while the network is idle (event queue and client inbox
    /// drained): a quiesced network's *entire* mutable timeline state is
    /// exactly these three fields, which is what makes lane-virtualized
    /// replay (`liberate::reactor`) equivalent to sequential execution.
    pub fn swap_lane(
        &mut self,
        clock: &mut SimTime,
        step_epoch_us: &mut u64,
        capture: &mut Capture,
    ) {
        debug_assert!(self.events.is_empty(), "lane swap on a non-idle network");
        debug_assert!(
            self.client_inbox.is_empty(),
            "lane swap with undrained client inbox"
        );
        std::mem::swap(&mut self.clock, clock);
        std::mem::swap(&mut self.last_step_us, step_epoch_us);
        std::mem::swap(&mut self.capture, capture);
    }

    fn dispatch(&mut self, at: SimTime, ev: Event) {
        let Event {
            pos,
            dir,
            ttl_debt,
            mut wire,
        } = ev;
        // Client-to-server, `elements.len()` means "deliver to server";
        // server-to-client, element 0 is processed last and `usize::MAX`
        // (wrapped below zero) means "deliver to client".
        match dir {
            Direction::ClientToServer if pos == self.elements.len() => {
                RouterHop::settle_ttl_debt(&self.journal, &mut wire, ttl_debt);
                self.deliver_to_server(at, wire);
            }
            Direction::ServerToClient if pos == usize::MAX => {
                RouterHop::settle_ttl_debt(&self.journal, &mut wire, ttl_debt);
                self.capture.record(at, TapPoint::ClientIngress, &wire);
                self.client_inbox.push((at, wire));
            }
            _ => self.traverse(at, pos, dir, ttl_debt, wire),
        }
    }

    fn traverse(
        &mut self,
        at: SimTime,
        pos: usize,
        dir: Direction,
        ttl_debt: u8,
        mut wire: PacketBuf,
    ) {
        let next = match dir {
            Direction::ClientToServer => pos + 1,
            Direction::ServerToClient => pos.checked_sub(1).unwrap_or(usize::MAX),
        };
        // A plain hop forwards a packet whose header parses and whose
        // TTL, less the debt, is above 1: it is owed one more decrement.
        if self.plain[pos]
            && wire.len() >= IPV4_MIN_HEADER_LEN
            && u16::from(wire[8]) >= u16::from(ttl_debt) + 2
        {
            if ttl_debt == 0 {
                let mut tally = CopyTally::default();
                wire.make_unique(&mut tally);
                journal_copies(&self.journal, tally);
            }
            self.events.push(
                at + self.hop_latency,
                Event {
                    pos: next,
                    dir,
                    ttl_debt: ttl_debt + 1,
                    wire,
                },
            );
            return;
        }
        RouterHop::settle_ttl_debt(&self.journal, &mut wire, ttl_debt);
        let mut effects = std::mem::take(&mut self.effects);
        let verdict = self.elements[pos].process(&self.journal, at, dir, wire, &mut effects);

        // Injected packets enter the path adjacent to this element.
        if !effects.is_empty() {
            let toward_client = pos.checked_sub(1).unwrap_or(usize::MAX);
            for TimedPacket { at: t, wire } in effects.toward_client.drain(..) {
                let t = t.max(at) + self.hop_latency;
                self.push_event(t, toward_client, Direction::ServerToClient, wire);
            }
            for TimedPacket { at: t, wire } in effects.toward_server.drain(..) {
                let t = t.max(at) + self.hop_latency;
                self.push_event(t, pos + 1, Direction::ClientToServer, wire);
            }
        }
        self.effects = effects;

        if let Verdict::Forward(TimedPacket { at: t, wire }) = verdict {
            self.push_event(t.max(at) + self.hop_latency, next, dir, wire);
        }
    }

    fn deliver_to_server(&mut self, at: SimTime, wire: PacketBuf) {
        self.capture.record(at, TapPoint::ServerIngress, &wire);
        self.server.receive(at, &wire);
        let mut outbox = std::mem::take(&mut self.server_out);
        self.server.take_outbox(&mut outbox);
        for out in outbox.drain(..) {
            self.capture.record(at, TapPoint::ServerEgress, &out);
            let entry = self.elements.len().checked_sub(1).unwrap_or(usize::MAX);
            self.push_event(at + self.hop_latency, entry, Direction::ServerToClient, out);
        }
        self.server_out = outbox;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hop::RouterHop;
    use crate::os::OsProfile;
    use crate::server::EchoApp;
    use liberate_packet::packet::{Packet, ParsedPacket};
    use liberate_packet::tcp::TcpFlags;

    const CLIENT: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
    const SERVER: Ipv4Addr = Ipv4Addr::new(10, 9, 9, 9);

    fn net(hops: usize) -> Network {
        let elements: Vec<Box<dyn PathElement>> = (0..hops)
            .map(|i| {
                Box::new(RouterHop::transparent(
                    format!("r{i}"),
                    Ipv4Addr::new(172, 16, 0, i as u8 + 1),
                )) as Box<dyn PathElement>
            })
            .collect();
        let server = ServerHost::new(SERVER, OsProfile::linux(), Box::<EchoApp>::default());
        Network::new(CLIENT, elements, server)
    }

    fn tcp_handshake(net: &mut Network) -> (u32, u32) {
        let syn = Packet::tcp(CLIENT, SERVER, 40000, 80, 999, 0, vec![])
            .with_flags(TcpFlags::SYN)
            .serialize();
        net.send_from_client(Duration::ZERO, syn);
        net.run_until_idle();
        let inbox = net.take_client_inbox();
        assert_eq!(inbox.len(), 1, "expected SYN-ACK");
        let sa = ParsedPacket::parse(&inbox[0].1).unwrap();
        let t = sa.tcp().unwrap();
        assert!(t.flags.syn && t.flags.ack);
        (1000, t.seq.wrapping_add(1))
    }

    #[test]
    fn end_to_end_echo_through_hops() {
        let mut net = net(3);
        let (cseq, _) = tcp_handshake(&mut net);
        let data = Packet::tcp(CLIENT, SERVER, 40000, 80, cseq, 1, &b"ping"[..]).serialize();
        net.send_from_client(Duration::ZERO, data);
        net.run_until_idle();
        let inbox = net.take_client_inbox();
        let payloads: Vec<_> = inbox
            .iter()
            .map(|(_, w)| ParsedPacket::parse(w).unwrap().payload)
            .collect();
        assert!(payloads.iter().any(|p| p == b"ping"));
        // Latency: 4 traversals each way (3 hops + server hop latency).
        assert!(net.clock > SimTime::ZERO);
    }

    #[test]
    fn ttl_expires_at_hop_and_icmp_returns() {
        let mut net = net(3);
        let mut p = Packet::tcp(CLIENT, SERVER, 40000, 80, 0, 0, vec![]);
        p.ip.ttl = 2; // dies at the second hop
        p = p.with_flags(TcpFlags::SYN);
        net.send_from_client(Duration::ZERO, p.serialize());
        net.run_until_idle();
        // No SYN reached the server.
        assert_eq!(net.capture.at(TapPoint::ServerIngress).count(), 0);
        // An ICMP Time Exceeded came back from hop r1 (the second hop).
        let inbox = net.take_client_inbox();
        assert_eq!(inbox.len(), 1);
        let icmp = liberate_substrate::icmp::parse_icmp_error(&inbox[0].1).unwrap();
        assert_eq!(icmp.from, Ipv4Addr::new(172, 16, 0, 2));
    }

    #[test]
    fn ttl_hops_accounting() {
        let net = net(3);
        assert_eq!(net.ttl_hops_total(), 3);
        assert_eq!(net.ttl_hops_before(0), 0);
        assert_eq!(net.ttl_hops_before(2), 2);
    }

    #[test]
    fn capture_sees_both_ends() {
        let mut net = net(1);
        tcp_handshake(&mut net);
        assert!(net.capture.at(TapPoint::ClientEgress).count() >= 1);
        assert!(net.capture.at(TapPoint::ServerIngress).count() >= 1);
        assert!(net.capture.at(TapPoint::ServerEgress).count() >= 1);
        assert!(net.capture.at(TapPoint::ClientIngress).count() >= 1);
    }

    #[test]
    fn advance_moves_clock_without_traffic() {
        let mut net = net(1);
        let t0 = net.clock;
        net.advance(Duration::from_secs(120));
        assert_eq!(net.clock - t0, Duration::from_secs(120));
    }

    /// Holds every other server-to-client packet back by 5 ms, so later
    /// packets overtake it: what a shaper does to the event order.
    struct Stagger {
        seen: usize,
    }

    impl PathElement for Stagger {
        fn name(&self) -> &str {
            "stagger"
        }

        fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
            self
        }

        fn process(
            &mut self,
            _journal: &Journal,
            now: SimTime,
            dir: Direction,
            wire: PacketBuf,
            _effects: &mut Effects,
        ) -> Verdict {
            if dir == Direction::ClientToServer {
                return Verdict::pass(now, wire);
            }
            self.seen += 1;
            let delay = if self.seen % 2 == 0 { 5 } else { 0 };
            Verdict::Forward(TimedPacket {
                at: now + Duration::from_millis(delay),
                wire,
            })
        }
    }

    #[test]
    fn overtaken_packets_reach_the_client_in_time_order() {
        let elements: Vec<Box<dyn PathElement>> = vec![Box::new(Stagger { seen: 0 })];
        let server = ServerHost::new(SERVER, OsProfile::linux(), Box::<EchoApp>::default());
        let mut net = Network::new(CLIENT, elements, server);
        for i in 0..6u8 {
            let datagram = Packet::udp(CLIENT, SERVER, 5000, 53, vec![i]).serialize();
            net.send_from_client(Duration::ZERO, datagram);
        }
        // Every echo reaches the element at 2 ms. Once it has seen them
        // all, the prompt ones (due at 3 ms) were queued after a held one
        // (due at 8 ms), so both tiers hold events.
        net.run_until(SimTime::from_micros(2_000));
        let (fifo, heap) = net.events.tier_lens();
        assert!(
            fifo > 0 && heap > 0,
            "tiers: {fifo} in the FIFO, {heap} in the heap"
        );

        net.run_until_idle();
        let got: Vec<(u64, u8)> = net
            .take_client_inbox()
            .iter()
            .map(|(at, w)| (at.as_micros(), ParsedPacket::parse(w).unwrap().payload[0]))
            .collect();
        assert_eq!(
            got,
            [
                (3_000, 0),
                (3_000, 2),
                (3_000, 4),
                (8_000, 1),
                (8_000, 3),
                (8_000, 5)
            ]
        );
        assert!(net.is_idle());
    }

    /// An element journals into whichever journal the network holds
    /// when the packet is processed, with nothing to re-attach: after a
    /// replacement, and after a lane swap and back.
    #[test]
    fn element_writes_follow_the_networks_journal() {
        let mut net = net(1);
        // Capture keeps a view of every buffer, so the hop's TTL rewrite
        // faults a counted copy-on-write in each direction.
        let echo = |net: &mut Network| {
            let datagram = Packet::udp(CLIENT, SERVER, 5000, 53, vec![1]).serialize();
            net.send_from_client(Duration::ZERO, datagram);
            net.run_until_idle();
            net.take_client_inbox();
        };
        let copies = |j: &Journal| j.metrics.get(Counter::PayloadCopies);
        let worker = Arc::new(Journal::new());
        *net.journal_mut() = Arc::clone(&worker);
        echo(&mut net);
        let per_echo = copies(&worker);
        assert!(per_echo > 0);

        let lane = Arc::new(Journal::new());
        let mut swapped = Arc::clone(&lane);
        let (mut clock, mut epoch, mut capture) = (net.clock, 0, Capture::default());
        net.swap_lane(&mut clock, &mut epoch, &mut capture);
        std::mem::swap(net.journal_mut(), &mut swapped);
        echo(&mut net);
        assert_eq!(copies(&lane), per_echo, "the swapped-in journal counts");
        assert_eq!(copies(&worker), per_echo, "the swapped-out one does not");

        net.swap_lane(&mut clock, &mut epoch, &mut capture);
        std::mem::swap(net.journal_mut(), &mut swapped);
        echo(&mut net);
        assert_eq!(copies(&worker), 2 * per_echo);
        assert_eq!(copies(&lane), per_echo);
    }

    #[test]
    fn zero_hop_network_works() {
        let mut net = net(0);
        let (cseq, _) = tcp_handshake(&mut net);
        let data = Packet::tcp(CLIENT, SERVER, 40000, 80, cseq, 1, &b"hi"[..]).serialize();
        net.send_from_client(Duration::ZERO, data);
        net.run_until_idle();
        let inbox = net.take_client_inbox();
        assert!(inbox
            .iter()
            .any(|(_, w)| ParsedPacket::parse(w).unwrap().payload == b"hi"));
    }
}
