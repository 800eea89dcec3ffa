//! Device and environment profiles calibrated to the paper's six
//! evaluation settings (§6.1–§6.6). Every knob cites the observation that
//! fixes it; the resulting Table 3 matrix is asserted wholesale by the
//! `table3` experiment and the workspace integration tests.

use std::collections::HashMap;
use std::net::Ipv4Addr;
use std::sync::Arc;
use std::time::Duration;

use liberate_netsim::blueprint::{ElementFactory, NetworkBlueprint};
use liberate_netsim::element::PathElement;
use liberate_netsim::filter::{FilterPolicy, FragmentHandling};
use liberate_netsim::firewall::StatefulFirewall;
use liberate_netsim::hop::RouterHop;
use liberate_netsim::network::Network;
use liberate_netsim::os::{OsKind, OsProfile};
use liberate_netsim::server::{ServerApp, ServerHost};
use liberate_netsim::shaper::LinkShaper;
use liberate_packet::validate::Malformation::*;
use liberate_substrate::nft::{WirePolicy, WireRule, WireRuleset};

use crate::actions::{BlockBehavior, Policy};
use crate::device::{DpiConfig, DpiDevice};
use crate::inspect::{FlowConfig, InspectScope, InspectionPolicy, ReassemblyMode, RstEffect};
use crate::proxy::{ProxyConfig, TransparentProxy};
use crate::resource::TimeOfDayLoad;
use crate::rules::{MatchRule, RuleSet};
use crate::sharded::ShardedFlowTable;
use crate::validation::ValidationModel;

/// Client address used by every environment.
pub const CLIENT_ADDR: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);
/// Server (replay server) address used by every environment.
pub const SERVER_ADDR: Ipv4Addr = Ipv4Addr::new(203, 0, 113, 10);
/// Canonical name of the DPI element on the path.
pub const DPI_NAME: &str = "dpi";

/// The six evaluation environments.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EnvKind {
    /// §6.1: carrier-grade DPI box in a lab, direct classifier readout.
    Testbed,
    /// §6.2: T-Mobile US Binge On / Music Freedom (zero-rating + shaping).
    TMobile,
    /// §6.3: AT&T Stream Saver (transparent HTTP proxy, 1.5 Mbps).
    Att,
    /// §6.4: Sprint (no DPI found).
    Sprint,
    /// §6.5: the Great Firewall of China (RST blocking).
    Gfc,
    /// §6.6: Iran (403 + RST blocking, per-packet, port 80).
    Iran,
}

impl EnvKind {
    pub const ALL: [EnvKind; 6] = [
        EnvKind::Testbed,
        EnvKind::TMobile,
        EnvKind::Att,
        EnvKind::Sprint,
        EnvKind::Gfc,
        EnvKind::Iran,
    ];

    /// The five environments of Table 3 (Sprint has no classifier).
    pub const TABLE3: [EnvKind; 5] = [
        EnvKind::Testbed,
        EnvKind::TMobile,
        EnvKind::Gfc,
        EnvKind::Iran,
        EnvKind::Att,
    ];

    pub fn name(self) -> &'static str {
        match self {
            EnvKind::Testbed => "Testbed",
            EnvKind::TMobile => "T-Mobile",
            EnvKind::Att => "AT&T",
            EnvKind::Sprint => "Sprint",
            EnvKind::Gfc => "China",
            EnvKind::Iran => "Iran",
        }
    }
}

/// Gate prefixes for protocol anchoring: HTTP methods, a TLS handshake
/// record, and a STUN binding request.
fn gate_prefixes() -> Vec<Vec<u8>> {
    vec![
        b"GET ".to_vec(),
        b"POST ".to_vec(),
        b"HEAD ".to_vec(),
        vec![0x16, 0x03],
        vec![0x00, 0x01],
    ]
}

/// Rules recognizing the built-in application traces, shared by the
/// testbed and T-Mobile devices (hostnames, SNI fragments, a user-agent
/// token, and the Skype STUN attribute — §6.1/§6.2's "matching fields").
fn video_music_rules() -> Vec<MatchRule> {
    vec![
        MatchRule::keyword("cf-host", "video", &b"cloudfront.net"[..]).client_only(),
        MatchRule::keyword("yt-sni", "video", &b".googlevideo.com"[..]).client_only(),
        MatchRule::keyword("espn-host", "video", &b"espncdn.com"[..]).client_only(),
        MatchRule::keyword("nbc-host", "video", &b"nbcsports.com"[..]).client_only(),
        MatchRule::keyword("spotify-host", "music", &b"spotify.com"[..]).client_only(),
        // An innocuous "web browsing" class with a no-op policy: the decoy
        // class A used by inert-packet insertion (Fig. 2).
        MatchRule::keyword("web", "web", &b"example.org"[..]).client_only(),
    ]
}

/// §6.1 testbed device: lax validation, gated per-packet matching over the
/// first 5 payload packets, 120 s result/tracking timeouts, RST shortens
/// the result timeout to 10 s.
pub fn testbed_device() -> DpiConfig {
    let mut rules = video_music_rules();
    // The Skype rule: the MS-SERVICE-QUALITY attribute type (0x8055) in
    // the first client packet (§6.1).
    rules.push(
        MatchRule::keyword("skype-sq", "voip", vec![0x80, 0x55])
            .client_only()
            .in_packet(0),
    );
    let mut policies = HashMap::new();
    policies.insert("video".to_string(), Policy::throttle(1_500_000, 420_000));
    policies.insert("music".to_string(), Policy::throttle(1_500_000, 420_000));
    policies.insert("voip".to_string(), Policy::throttle(256_000, 64_000));
    policies.insert("web".to_string(), Policy::default());
    DpiConfig {
        name: DPI_NAME.to_string(),
        rules: RuleSet::new(rules),
        inspect: InspectionPolicy {
            scope: InspectScope::Packets(5),
            reassembly: ReassemblyMode::GatedPerPacket {
                gate_prefixes: gate_prefixes(),
            },
            match_and_forget: true,
            inspects_udp: true,
            port_whitelist: None,
        },
        // "our testbed device does not check for a wide range of invalid
        // packet header values" (§1) — it rejects only what it cannot
        // parse at all.
        validation: ValidationModel::ignoring([
            IpVersionInvalid,
            IpHeaderLengthInvalid,
            IpTotalLengthShort,
            TcpDataOffsetInvalid,
        ]),
        flow: FlowConfig {
            result_timeout: Some(Duration::from_secs(120)),
            tracking_timeout: Some(Duration::from_secs(120)),
            rst_after_match: RstEffect::ShortenTimeout(Duration::from_secs(10)),
            rst_before_match: RstEffect::FlushImmediately,
        },
        policies,
        resource: None,
        loose_transport_parsing: true,
    }
}

/// §6.2 T-Mobile device: GET/TLS-gated stream window of 4 packets (so an
/// in-order split of 5+ pushes the matching field out of the window),
/// strict-ish validation except IP options and TTL, no UDP classification,
/// results persist > 240 s, RSTs flush immediately.
pub fn tmus_device() -> DpiConfig {
    let mut policies = HashMap::new();
    policies.insert(
        "video".to_string(),
        Policy::zero_rated_and_throttled(1_500_000, 420_000),
    );
    policies.insert("music".to_string(), Policy::zero_rated());
    policies.insert("web".to_string(), Policy::default());
    DpiConfig {
        name: DPI_NAME.to_string(),
        rules: RuleSet::new(video_music_rules()),
        inspect: InspectionPolicy {
            scope: InspectScope::Packets(5),
            reassembly: ReassemblyMode::GatedStream {
                gate_prefixes: gate_prefixes(),
                window_packets: 4,
            },
            match_and_forget: true,
            inspects_udp: false, // "TMUS does not classify UDP traffic"
            port_whitelist: None,
        },
        // Partial validation (§1): IP options pass (the two option rows
        // are T-Mobile's only processed inert packets besides low TTL).
        validation: ValidationModel::ignoring([
            IpVersionInvalid,
            IpHeaderLengthInvalid,
            IpTotalLengthLong,
            IpTotalLengthShort,
            IpChecksumWrong,
            IpProtocolUnknown,
            TcpChecksumWrong,
            TcpDataOffsetInvalid,
            TcpFlagsInvalid,
            TcpAckFlagMissing,
            UdpChecksumWrong,
            UdpLengthLong,
            UdpLengthShort,
        ]),
        flow: FlowConfig {
            // "the classification result in TMUS applies to a flow for
            // more than 240 s" — effectively no timeout at probe scale.
            result_timeout: None,
            tracking_timeout: None,
            rst_after_match: RstEffect::FlushImmediately,
            rst_before_match: RstEffect::FlushImmediately,
        },
        policies,
        resource: None,
        loose_transport_parsing: false,
    }
}

/// §6.5 GFC device: full sequence-tracked stream reassembly anchored at
/// the SYN, GET-anchored at stream byte 0, extensive validation except TCP
/// checksums and the ACK flag, RST-before-match tears down tracking,
/// tracking eviction follows the time-of-day load model.
/// `start_time_of_day_secs` sets the wall-clock second at which sim t=0
/// falls (Figure 4 sweeps it).
pub fn gfc_device(start_time_of_day_secs: u64) -> DpiConfig {
    let mut policies = HashMap::new();
    policies.insert(
        "blocked".to_string(),
        Policy::blocking(BlockBehavior::gfc()),
    );
    DpiConfig {
        name: DPI_NAME.to_string(),
        rules: RuleSet::new(vec![MatchRule::keyword(
            "economist",
            "blocked",
            &b"economist.com"[..],
        )
        .client_only()]),
        inspect: InspectionPolicy {
            scope: InspectScope::AllPackets,
            reassembly: ReassemblyMode::FullStream {
                gate_prefixes: vec![b"GET ".to_vec(), b"POST ".to_vec(), b"HEAD ".to_vec()],
                window_bytes: 4096,
            },
            match_and_forget: true,
            inspects_udp: false, // "the GFC does not classify UDP traffic"
            port_whitelist: None,
        },
        // "the GFC does extensive packet validation" — but processes bad
        // TCP checksums and missing-ACK segments (their CC? is ✓).
        validation: ValidationModel::ignoring([
            IpVersionInvalid,
            IpHeaderLengthInvalid,
            IpTotalLengthLong,
            IpTotalLengthShort,
            IpChecksumWrong,
            IpOptionsInvalid,
            IpOptionsDeprecated,
            IpProtocolUnknown,
            TcpDataOffsetInvalid,
            TcpFlagsInvalid,
            UdpChecksumWrong,
            UdpLengthLong,
            UdpLengthShort,
        ])
        .with_seq_tracking(),
        flow: FlowConfig {
            result_timeout: None, // "delays after a matching GET never evade"
            tracking_timeout: Some(Duration::from_secs(120)), // overridden by model
            rst_after_match: RstEffect::Ignored,
            rst_before_match: RstEffect::FlushImmediately,
        },
        policies,
        resource: Some(TimeOfDayLoad::gfc(start_time_of_day_secs)),
        loose_transport_parsing: false,
    }
}

/// §6.6 Iran device: per-packet matching on every packet, port 80 only,
/// processes whatever reaches it (partial validation happens in-network),
/// no useful flow state.
pub fn iran_device() -> DpiConfig {
    let mut policies = HashMap::new();
    policies.insert(
        "blocked".to_string(),
        Policy::blocking(BlockBehavior::iran(
            b"HTTP/1.1 403 Forbidden\r\nContent-Type: text/html\r\n\r\n<html><body>Forbidden</body></html>"
                .to_vec(),
        )),
    );
    DpiConfig {
        name: DPI_NAME.to_string(),
        rules: RuleSet::new(vec![MatchRule::keyword(
            "facebook",
            "blocked",
            &b"facebook.com"[..],
        )
        .client_only()
        .on_ports([80])]),
        inspect: InspectionPolicy {
            scope: InspectScope::AllPackets,
            reassembly: ReassemblyMode::PerPacket,
            match_and_forget: false, // "the classifier checks every packet"
            inspects_udp: false,
            port_whitelist: Some(vec![80]),
        },
        validation: ValidationModel::lax(),
        flow: FlowConfig {
            result_timeout: None,
            tracking_timeout: None,
            rst_after_match: RstEffect::Ignored,
            rst_before_match: RstEffect::Ignored,
        },
        policies,
        resource: None,
        loose_transport_parsing: false,
    }
}

/// A fully built environment: the network plus path metadata the
/// experiments need.
pub struct Environment {
    pub kind: EnvKind,
    pub network: Network,
    /// TTL-decrementing hops before the middlebox (a TTL of
    /// `hops_before_middlebox + 1` reaches it without reaching the
    /// server).
    pub hops_before_middlebox: u8,
    pub total_hops: u8,
}

impl Environment {
    /// Downcast accessor for the DPI device, when the environment has one.
    pub fn dpi_mut(&mut self) -> Option<&mut DpiDevice> {
        let idx = self.network.element_index(DPI_NAME)?;
        self.network
            .element_mut(idx)
            .as_any_mut()
            .downcast_mut::<DpiDevice>()
    }

    /// Downcast accessor for the transparent proxy (AT&T).
    pub fn proxy_mut(&mut self) -> Option<&mut TransparentProxy> {
        let idx = self.network.element_index("att-stream-saver")?;
        self.network
            .element_mut(idx)
            .as_any_mut()
            .downcast_mut::<TransparentProxy>()
    }
}

fn hop_addr(i: u8) -> Ipv4Addr {
    Ipv4Addr::new(172, 16, 1, i)
}

/// Wrap a concrete-element constructor as a boxed [`ElementFactory`].
fn factory<E, F>(f: F) -> ElementFactory
where
    E: PathElement + 'static,
    F: Fn() -> E + Send + Sync + 'static,
{
    Box::new(move || Box::new(f()))
}

/// A reusable recipe for one environment: the element-chain blueprint,
/// path metadata, and the single [`ShardedFlowTable`] that every DPI
/// device built from this recipe fronts. Building the same blueprint N
/// times yields N independent networks (fresh hops, shapers, proxies,
/// firewalls, journals) whose middleboxes share flow state — exactly what
/// a pool of worker sessions probing one middlebox needs.
pub struct EnvironmentBlueprint {
    kind: EnvKind,
    net: NetworkBlueprint,
    hops_before_middlebox: u8,
    total_hops: u8,
    shared_table: Arc<ShardedFlowTable>,
}

impl EnvironmentBlueprint {
    /// Lay out the element chain for `kind`. `start_time_of_day_secs`
    /// only affects the GFC (Figure 4's clock).
    pub fn new(kind: EnvKind, start_time_of_day_secs: u64) -> EnvironmentBlueprint {
        let table = Arc::new(ShardedFlowTable::default());
        let mut net = NetworkBlueprint::new(CLIENT_ADDR);
        let (hops_before, total);

        match kind {
            EnvKind::Testbed => {
                // client — DPI — router — server (§6.1). The lab router
                // drops structurally-broken IP and ACK-less data, and
                // reassembles fragments before the server (Table 3
                // footnote 2).
                let t = Arc::clone(&table);
                net.push(factory(move || {
                    DpiDevice::with_shared_table(testbed_device(), Arc::clone(&t))
                }));
                net.push(factory(|| {
                    RouterHop::new(
                        "lab-router",
                        hop_addr(1),
                        FilterPolicy::ip_hygiene()
                            .also_dropping([TcpAckFlagMissing])
                            .with_fragments(FragmentHandling::Reassemble),
                    )
                    .silent()
                }));
                hops_before = 0;
                total = 1;
            }
            EnvKind::TMobile => {
                // client — access shaper — r1 — r2(normalizer) — DPI — r3 —
                // server. TTL = 3 reaches the classifier (§6.2). The
                // cellular gateway normalizes aggressively (most inert
                // packets die in-network) and tracks TCP sequence windows;
                // invalid-option packets die *after* the classifier.
                net.push(factory(|| {
                    LinkShaper::symmetric("lte-access", 4_000_000, 900_000)
                }));
                net.push(factory(|| RouterHop::transparent("r1", hop_addr(1))));
                net.push(factory(|| StatefulFirewall::new("gw-firewall", 65_535)));
                net.push(factory(|| {
                    RouterHop::new(
                        "gw-normalizer",
                        hop_addr(2),
                        FilterPolicy::strict_normalizer()
                            .with_fragments(FragmentHandling::Reassemble),
                    )
                    .silent()
                }));
                let t = Arc::clone(&table);
                net.push(factory(move || {
                    DpiDevice::with_shared_table(tmus_device(), Arc::clone(&t))
                }));
                net.push(factory(|| {
                    RouterHop::new(
                        "core-r3",
                        hop_addr(3),
                        FilterPolicy::dropping([IpOptionsInvalid, IpOptionsDeprecated]),
                    )
                    .silent()
                }));
                hops_before = 2;
                total = 3;
            }
            EnvKind::Att => {
                // client — r1 — proxy — r2 — server (§6.3).
                net.push(factory(|| {
                    RouterHop::transparent("r1", hop_addr(1)).silent()
                }));
                net.push(factory(|| {
                    TransparentProxy::new(ProxyConfig::stream_saver())
                }));
                net.push(factory(|| {
                    RouterHop::transparent("r2", hop_addr(2)).silent()
                }));
                hops_before = 1;
                total = 2;
            }
            EnvKind::Sprint => {
                // client — access shaper — r1 — r2 — server: no DPI (§6.4).
                net.push(factory(|| {
                    LinkShaper::symmetric("lte-access", 6_000_000, 900_000)
                }));
                net.push(factory(|| {
                    RouterHop::transparent("r1", hop_addr(1)).silent()
                }));
                net.push(factory(|| {
                    RouterHop::transparent("r2", hop_addr(2)).silent()
                }));
                hops_before = 2;
                total = 2;
            }
            EnvKind::Gfc => {
                // client — r1..r9 — GFC — r10..r13 — server: a TTL of 10
                // reaches the classifier without reaching the server
                // (§6.5). The border normalizer (r5) enforces IP hygiene,
                // drops IP options and malformed-length UDP, repairs TCP
                // checksums (footnote 4), and reassembles fragments before
                // the GFC.
                for i in 1..=9u8 {
                    if i == 5 {
                        net.push(factory(move || {
                            RouterHop::new(
                                "border-normalizer",
                                hop_addr(i),
                                FilterPolicy::ip_hygiene()
                                    .also_dropping([
                                        IpOptionsInvalid,
                                        IpOptionsDeprecated,
                                        UdpLengthLong,
                                        UdpLengthShort,
                                    ])
                                    .with_fragments(FragmentHandling::Reassemble),
                            )
                            .silent()
                            .fixing_tcp_checksums()
                        }));
                    } else {
                        net.push(factory(move || {
                            RouterHop::transparent(format!("r{i}"), hop_addr(i))
                        }));
                    }
                }
                let t = Arc::clone(&table);
                net.push(factory(move || {
                    DpiDevice::with_shared_table(gfc_device(start_time_of_day_secs), Arc::clone(&t))
                }));
                for i in 10..=13u8 {
                    net.push(factory(move || {
                        RouterHop::transparent(format!("r{i}"), hop_addr(i))
                    }));
                }
                hops_before = 9;
                total = 13;
            }
            EnvKind::Iran => {
                // client — r1..r7 — DPI — firewall — r8 — server: the
                // classifier answers at a TTL of 8 (§6.6). Hard-broken IP
                // and all fragments die before the classifier; IP options
                // and malformed TCP die after it (hence footnote 3: the
                // classifier *processed* them); malformed UDP sails
                // through everywhere.
                for i in 1..=7u8 {
                    if i == 4 {
                        net.push(factory(move || {
                            RouterHop::new(
                                "edge-filter",
                                hop_addr(i),
                                FilterPolicy::ip_hygiene()
                                    .also_dropping([IpProtocolUnknown, TcpDataOffsetInvalid])
                                    .with_fragments(FragmentHandling::Drop),
                            )
                            .silent()
                        }));
                    } else {
                        net.push(factory(move || {
                            RouterHop::transparent(format!("r{i}"), hop_addr(i))
                        }));
                    }
                }
                let t = Arc::clone(&table);
                net.push(factory(move || {
                    DpiDevice::with_shared_table(iran_device(), Arc::clone(&t))
                }));
                net.push(factory(|| StatefulFirewall::new("post-firewall", 65_535)));
                net.push(factory(|| {
                    RouterHop::new(
                        "post-filter",
                        hop_addr(8),
                        FilterPolicy::dropping([
                            IpOptionsInvalid,
                            IpOptionsDeprecated,
                            TcpChecksumWrong,
                            TcpAckFlagMissing,
                            TcpFlagsInvalid,
                        ]),
                    )
                    .silent()
                }));
                hops_before = 7;
                total = 8;
            }
        }

        EnvironmentBlueprint {
            kind,
            net,
            hops_before_middlebox: hops_before,
            total_hops: total,
            shared_table: table,
        }
    }

    pub fn kind(&self) -> EnvKind {
        self.kind
    }

    /// The flow table every DPI device built from this blueprint fronts.
    pub fn shared_table(&self) -> Arc<ShardedFlowTable> {
        Arc::clone(&self.shared_table)
    }

    /// Materialize one environment: a fresh network (own journal, own
    /// element state except the shared flow table) around the given
    /// server OS and application.
    pub fn build(&self, os: OsKind, app: Box<dyn ServerApp>) -> Environment {
        let server = ServerHost::new(SERVER_ADDR, OsProfile::new(os), app);
        Environment {
            kind: self.kind,
            network: self.net.build(server),
            hops_before_middlebox: self.hops_before_middlebox,
            total_hops: self.total_hops,
        }
    }
}

/// Lower an environment's classifier configuration into the backend-
/// neutral [`WireRuleset`] vocabulary the nftables-shaped substrate
/// programs onto a real wire. This is a *projection*, not the full
/// device model: keyword rules, port/first-packet constraints, and the
/// per-class policy kind survive; reassembly modes, validation models,
/// and flow-state timeouts are simulator-only detail the kernel ruleset
/// cannot express.
pub fn wire_ruleset(kind: EnvKind) -> WireRuleset {
    fn keyword_rules() -> Vec<WireRule> {
        vec![
            WireRule::keyword("cf-host", "video", &b"cloudfront.net"[..]),
            WireRule::keyword("yt-sni", "video", &b".googlevideo.com"[..]),
            WireRule::keyword("espn-host", "video", &b"espncdn.com"[..]),
            WireRule::keyword("nbc-host", "video", &b"nbcsports.com"[..]),
            WireRule::keyword("spotify-host", "music", &b"spotify.com"[..]),
            WireRule::keyword("web", "web", &b"example.org"[..]),
        ]
    }
    let (rules, policies) = match kind {
        EnvKind::Testbed => {
            let mut rules = keyword_rules();
            rules.push(WireRule::keyword("skype-sq", "voip", vec![0x80, 0x55]).in_packet(0));
            (
                rules,
                vec![
                    ("video".to_string(), WirePolicy::Throttle { bps: 1_500_000 }),
                    ("music".to_string(), WirePolicy::Throttle { bps: 1_500_000 }),
                    ("voip".to_string(), WirePolicy::Throttle { bps: 256_000 }),
                    ("web".to_string(), WirePolicy::NoOp),
                ],
            )
        }
        EnvKind::TMobile => (
            keyword_rules(),
            vec![
                ("video".to_string(), WirePolicy::Throttle { bps: 1_500_000 }),
                ("music".to_string(), WirePolicy::ZeroRate),
                ("web".to_string(), WirePolicy::NoOp),
            ],
        ),
        EnvKind::Att => (
            vec![WireRule::keyword("stream-saver", "video", &b"video"[..]).on_ports([80])],
            vec![("video".to_string(), WirePolicy::Throttle { bps: 1_500_000 })],
        ),
        EnvKind::Sprint => (Vec::new(), Vec::new()),
        EnvKind::Gfc => (
            vec![WireRule::keyword(
                "economist",
                "blocked",
                &b"economist.com"[..],
            )],
            vec![("blocked".to_string(), WirePolicy::Block { rsts: 3 })],
        ),
        EnvKind::Iran => (
            vec![WireRule::keyword("facebook", "blocked", &b"facebook.com"[..]).on_ports([80])],
            vec![("blocked".to_string(), WirePolicy::Block { rsts: 1 })],
        ),
    };
    let hops = match kind {
        EnvKind::Testbed => 0,
        EnvKind::TMobile => 2,
        EnvKind::Att => 1,
        EnvKind::Sprint => 2,
        EnvKind::Gfc => 9,
        EnvKind::Iran => 7,
    };
    WireRuleset {
        profile: kind.name().to_string(),
        rules,
        policies,
        hops_before_middlebox: hops,
    }
}

/// Build an environment with the given server OS and server application.
/// `start_time_of_day_secs` only affects the GFC (Figure 4's clock). One
/// blueprint, one build: a solo session gets a private flow table, same
/// as before the blueprint refactor.
pub fn build_environment(
    kind: EnvKind,
    os: OsKind,
    app: Box<dyn ServerApp>,
    start_time_of_day_secs: u64,
) -> Environment {
    EnvironmentBlueprint::new(kind, start_time_of_day_secs).build(os, app)
}

#[cfg(test)]
mod tests {
    use super::*;
    use liberate_netsim::server::EchoApp;

    #[test]
    fn environments_build_and_expose_dpi() {
        for kind in EnvKind::ALL {
            let mut env = build_environment(kind, OsKind::Linux, Box::<EchoApp>::default(), 0);
            let has_dpi = env.dpi_mut().is_some();
            let has_proxy = env.proxy_mut().is_some();
            match kind {
                EnvKind::Testbed | EnvKind::TMobile | EnvKind::Gfc | EnvKind::Iran => {
                    assert!(has_dpi, "{} should have a DPI device", kind.name());
                }
                EnvKind::Att => assert!(has_proxy, "AT&T should have a proxy"),
                EnvKind::Sprint => {
                    assert!(!has_dpi && !has_proxy, "Sprint has no middlebox")
                }
            }
        }
    }

    #[test]
    fn hop_counts_match_paper_probes() {
        let env = |k| build_environment(k, OsKind::Linux, Box::<EchoApp>::default(), 0);
        // T-Mobile: "an inert packet with TTL = 3 is sufficient" (§6.2).
        assert_eq!(env(EnvKind::TMobile).hops_before_middlebox + 1, 3);
        // GFC: "a TTL of 10 leads to misclassification" (§6.5).
        assert_eq!(env(EnvKind::Gfc).hops_before_middlebox + 1, 10);
        // Iran: "the classifier is eight hops away" (§6.6).
        assert_eq!(env(EnvKind::Iran).hops_before_middlebox + 1, 8);
    }

    #[test]
    fn blueprint_builds_share_one_flow_table() {
        let bp = EnvironmentBlueprint::new(EnvKind::Testbed, 0);
        let mut a = bp.build(OsKind::Linux, Box::<EchoApp>::default());
        let mut b = bp.build(OsKind::Linux, Box::<EchoApp>::default());
        let ta = a.dpi_mut().expect("testbed has DPI").shared_table();
        let tb = b.dpi_mut().expect("testbed has DPI").shared_table();
        assert!(Arc::ptr_eq(&ta, &tb), "workers must front one table");
        assert!(Arc::ptr_eq(&ta, &bp.shared_table()));
        // Journals, by contrast, are per-build.
        assert!(!Arc::ptr_eq(a.network.journal(), b.network.journal()));
    }

    #[test]
    fn solo_builds_get_private_flow_tables() {
        let mut a = build_environment(
            EnvKind::Testbed,
            OsKind::Linux,
            Box::<EchoApp>::default(),
            0,
        );
        let mut b = build_environment(
            EnvKind::Testbed,
            OsKind::Linux,
            Box::<EchoApp>::default(),
            0,
        );
        let ta = a.dpi_mut().expect("testbed has DPI").shared_table();
        let tb = b.dpi_mut().expect("testbed has DPI").shared_table();
        assert!(!Arc::ptr_eq(&ta, &tb));
    }

    #[test]
    fn wire_rulesets_mirror_blueprint_path_metadata() {
        for kind in EnvKind::ALL {
            let env = build_environment(kind, OsKind::Linux, Box::<EchoApp>::default(), 0);
            let rs = wire_ruleset(kind);
            assert_eq!(
                rs.hops_before_middlebox,
                env.hops_before_middlebox,
                "{}",
                kind.name()
            );
            assert_eq!(rs.profile, kind.name());
            // Every policy class is reachable through at least one rule.
            for (class, _) in &rs.policies {
                assert!(
                    rs.rules.iter().any(|r| &r.class == class),
                    "{}: unreachable policy class {class}",
                    kind.name()
                );
            }
        }
    }

    #[test]
    fn network_ttl_accounting_matches_metadata() {
        for kind in EnvKind::ALL {
            let env = build_environment(kind, OsKind::Linux, Box::<EchoApp>::default(), 0);
            assert_eq!(
                env.network.ttl_hops_total(),
                env.total_hops,
                "{}",
                kind.name()
            );
        }
    }
}
