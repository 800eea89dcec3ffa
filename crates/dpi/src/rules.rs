//! Classifier rules: the matching fields the paper reverse-engineers.
//!
//! Every classifier studied matched keywords in payload bytes — HTTP Host
//! headers, TLS SNI, STUN attribute types (§6) — optionally constrained by
//! direction, server port, and position in the flow.

use liberate_packet::flow::Direction;

use crate::matcher::contains;

/// Where in the flow a keyword must appear for the rule to fire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PositionConstraint {
    /// Anywhere in the inspected data.
    Anywhere,
    /// Only within the i-th payload-bearing packet of the constrained
    /// direction (0-based). The testbed's Skype rule matches the STUN
    /// attribute only in the first client packet (§6.1).
    PacketIndex(usize),
}

/// One classification rule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MatchRule {
    /// Identifier for reports ("binge-on-cloudfront").
    pub id: String,
    /// Traffic class assigned on match ("video", "skype", "blocked").
    pub class: String,
    /// The byte pattern to search for.
    pub keyword: Vec<u8>,
    /// Restrict matching to payloads traveling this direction
    /// (`None` = either).
    pub direction: Option<Direction>,
    /// Restrict to flows whose *server* port is in this list
    /// (`None` = any port). Iran and AT&T only classify port 80 (§6.3,
    /// §6.6).
    pub server_ports: Option<Vec<u16>>,
    pub position: PositionConstraint,
}

impl MatchRule {
    /// A keyword rule with no constraints beyond the pattern.
    pub fn keyword(id: &str, class: &str, keyword: impl Into<Vec<u8>>) -> MatchRule {
        MatchRule {
            id: id.to_string(),
            class: class.to_string(),
            keyword: keyword.into(),
            direction: None,
            server_ports: None,
            position: PositionConstraint::Anywhere,
        }
    }

    pub fn client_only(mut self) -> MatchRule {
        self.direction = Some(Direction::ClientToServer);
        self
    }

    pub fn server_only(mut self) -> MatchRule {
        self.direction = Some(Direction::ServerToClient);
        self
    }

    pub fn on_ports(mut self, ports: impl Into<Vec<u16>>) -> MatchRule {
        self.server_ports = Some(ports.into());
        self
    }

    pub fn in_packet(mut self, index: usize) -> MatchRule {
        self.position = PositionConstraint::PacketIndex(index);
        self
    }

    /// Does this rule apply to a flow with the given server port?
    pub fn applies_to_port(&self, server_port: u16) -> bool {
        match &self.server_ports {
            None => true,
            Some(ports) => ports.contains(&server_port),
        }
    }

    /// Does this rule apply to data traveling in `dir`?
    pub fn applies_to_direction(&self, dir: Direction) -> bool {
        self.direction.map(|d| d == dir).unwrap_or(true)
    }

    /// Match against a chunk of inspected data. `packet_index` is the
    /// 0-based payload-packet index when the data is a single packet's
    /// payload, or `None` when the data is a reassembled stream (position
    /// constraints then never match — a position-constrained rule needs
    /// per-packet visibility).
    pub fn matches(
        &self,
        data: &[u8],
        dir: Direction,
        server_port: u16,
        packet_index: Option<usize>,
    ) -> bool {
        if !self.applies_to_port(server_port) || !self.applies_to_direction(dir) {
            return false;
        }
        match self.position {
            PositionConstraint::Anywhere => contains(data, &self.keyword),
            PositionConstraint::PacketIndex(want) => {
                packet_index == Some(want) && contains(data, &self.keyword)
            }
        }
    }
}

/// An ordered rule set; first match wins.
#[derive(Debug, Clone, Default)]
pub struct RuleSet {
    pub rules: Vec<MatchRule>,
}

impl RuleSet {
    pub fn new(rules: Vec<MatchRule>) -> RuleSet {
        RuleSet { rules }
    }

    /// First matching rule for this data chunk.
    pub fn first_match(
        &self,
        data: &[u8],
        dir: Direction,
        server_port: u16,
        packet_index: Option<usize>,
    ) -> Option<&MatchRule> {
        self.rules
            .iter()
            .find(|r| r.matches(data, dir, server_port, packet_index))
    }

    /// [`RuleSet::first_match`] plus the scan cost it paid: `data.len()`
    /// for every rule whose keyword was actually searched (rules filtered
    /// out by port/direction/position or with empty keywords cost
    /// nothing; the scan stops at the first match). This is the rescan
    /// reference the device's automaton is checked against, and its cost
    /// is what `exp-matcher` compares with the automaton's.
    pub fn first_match_counted(
        &self,
        data: &[u8],
        dir: Direction,
        server_port: u16,
        packet_index: Option<usize>,
    ) -> (Option<&MatchRule>, u64) {
        let mut scanned = 0u64;
        for r in &self.rules {
            if !r.applies_to_port(server_port) || !r.applies_to_direction(dir) {
                continue;
            }
            let position_ok = match r.position {
                PositionConstraint::Anywhere => true,
                PositionConstraint::PacketIndex(want) => packet_index == Some(want),
            };
            if !position_ok || r.keyword.is_empty() {
                continue;
            }
            scanned += data.len() as u64;
            if contains(data, &r.keyword) {
                return (Some(r), scanned);
            }
        }
        (None, scanned)
    }

    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keyword_rule_matches_anywhere() {
        let r = MatchRule::keyword("cf", "video", &b"cloudfront.net"[..]);
        assert!(r.matches(
            b"GET / HTTP/1.1\r\nHost: x.cloudfront.net\r\n",
            Direction::ClientToServer,
            80,
            Some(0)
        ));
        assert!(r.matches(b"cloudfront.net", Direction::ServerToClient, 443, None));
        assert!(!r.matches(b"cloudfront.com", Direction::ClientToServer, 80, Some(0)));
    }

    #[test]
    fn direction_constraint() {
        let r = MatchRule::keyword("ct", "video", &b"Content-Type: video"[..]).server_only();
        assert!(!r.matches(b"Content-Type: video", Direction::ClientToServer, 80, None));
        assert!(r.matches(b"Content-Type: video", Direction::ServerToClient, 80, None));
    }

    #[test]
    fn port_constraint() {
        let r = MatchRule::keyword("fb", "blocked", &b"facebook.com"[..]).on_ports([80]);
        assert!(r.matches(b"facebook.com", Direction::ClientToServer, 80, None));
        assert!(!r.matches(b"facebook.com", Direction::ClientToServer, 8080, None));
        assert!(r.applies_to_port(80));
        assert!(!r.applies_to_port(443));
    }

    #[test]
    fn position_constraint_requires_packet_index() {
        let r = MatchRule::keyword("sq", "skype", vec![0x80, 0x55])
            .client_only()
            .in_packet(0);
        assert!(r.matches(
            &[0, 1, 0x80, 0x55],
            Direction::ClientToServer,
            3478,
            Some(0)
        ));
        assert!(!r.matches(
            &[0, 1, 0x80, 0x55],
            Direction::ClientToServer,
            3478,
            Some(1)
        ));
        // Reassembled stream data has no packet index: position rules skip.
        assert!(!r.matches(&[0, 1, 0x80, 0x55], Direction::ClientToServer, 3478, None));
    }

    #[test]
    fn first_match_counted_agrees_and_counts() {
        let rs = RuleSet::new(vec![
            MatchRule::keyword("srv", "a", &b"zzz"[..]).server_only(),
            MatchRule::keyword("empty", "b", Vec::new()),
            MatchRule::keyword("miss", "c", &b"nothere"[..]),
            MatchRule::keyword("hit", "d", &b"shared"[..]),
            MatchRule::keyword("after", "e", &b"shared"[..]),
        ]);
        let data = b"xx shared";
        let (m, scanned) = rs.first_match_counted(data, Direction::ClientToServer, 80, None);
        assert_eq!(
            m.map(|r| r.id.as_str()),
            rs.first_match(data, Direction::ClientToServer, 80, None)
                .map(|r| r.id.as_str())
        );
        // srv filtered by direction, empty keyword skipped, miss + hit
        // scanned, the rule after the match never reached.
        assert_eq!(scanned, 2 * data.len() as u64);
        // Server direction: srv, miss, and hit all scan (hit matches).
        let (m, scanned) = rs.first_match_counted(data, Direction::ServerToClient, 80, None);
        assert_eq!(m.map(|r| r.id.as_str()), Some("hit"));
        assert_eq!(scanned, 3 * data.len() as u64);
        // No applicable rule at all (all filtered): zero cost.
        let only = RuleSet::new(vec![
            MatchRule::keyword("cli", "a", &b"shared"[..]).client_only()
        ]);
        let (m, scanned) = only.first_match_counted(data, Direction::ServerToClient, 80, None);
        assert!(m.is_none());
        assert_eq!(scanned, 0);
    }

    #[test]
    fn first_match_wins() {
        let rs = RuleSet::new(vec![
            MatchRule::keyword("a", "classA", &b"shared"[..]),
            MatchRule::keyword("b", "classB", &b"shared"[..]),
        ]);
        let m = rs
            .first_match(b"shared bytes", Direction::ClientToServer, 80, Some(0))
            .unwrap();
        assert_eq!(m.class, "classA");
    }
}
