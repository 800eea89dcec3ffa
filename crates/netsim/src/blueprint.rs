//! A reusable recipe for building identical [`Network`]s.
//!
//! The multi-session engine gives every pool worker its own network —
//! same topology, fresh per-element state — so element-chain construction
//! is factored out of one-shot builder code into a [`NetworkBlueprint`]:
//! an ordered list of element *factories*. Each [`NetworkBlueprint::build`]
//! call runs every factory once, yielding a chain whose elements share
//! nothing with previous builds except whatever the factory closures
//! deliberately capture (the DPI profiles capture an
//! `Arc<ShardedFlowTable>` so all workers front one flow table).

use std::net::Ipv4Addr;

use crate::element::PathElement;
use crate::network::Network;
use crate::server::ServerHost;

/// Builds one fresh path element per invocation. `Send + Sync` so a
/// blueprint can be consulted from pool threads.
pub type ElementFactory = Box<dyn Fn() -> Box<dyn PathElement> + Send + Sync>;

/// An ordered element-chain recipe plus the client address; everything a
/// [`Network`] needs except the server (which carries per-build app
/// state, so the caller supplies it to [`NetworkBlueprint::build`]).
pub struct NetworkBlueprint {
    client_addr: Ipv4Addr,
    factories: Vec<ElementFactory>,
}

impl NetworkBlueprint {
    pub fn new(client_addr: Ipv4Addr) -> NetworkBlueprint {
        NetworkBlueprint {
            client_addr,
            factories: Vec::new(),
        }
    }

    pub fn client_addr(&self) -> Ipv4Addr {
        self.client_addr
    }

    /// Append an element factory to the chain (client side first, same
    /// order as [`Network::new`]'s element vector).
    pub fn push(&mut self, factory: ElementFactory) {
        self.factories.push(factory);
    }

    pub fn element_count(&self) -> usize {
        self.factories.len()
    }

    /// Materialize a network: run every factory, in order, against a
    /// fresh server. The caller attaches its own journal afterwards.
    pub fn build(&self, server: ServerHost) -> Network {
        let elements = self.factories.iter().map(|f| f()).collect();
        Network::new(self.client_addr, elements, server)
    }
}

impl std::fmt::Debug for NetworkBlueprint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NetworkBlueprint")
            .field("client_addr", &self.client_addr)
            .field("elements", &self.factories.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hop::RouterHop;
    use crate::os::{OsKind, OsProfile};
    use crate::server::{ServerHost, SinkApp};

    fn blueprint() -> NetworkBlueprint {
        let mut bp = NetworkBlueprint::new(Ipv4Addr::new(10, 0, 0, 2));
        bp.push(Box::new(|| {
            Box::new(RouterHop::transparent("r1", Ipv4Addr::new(172, 16, 1, 1)))
        }));
        bp.push(Box::new(|| {
            Box::new(RouterHop::transparent("r2", Ipv4Addr::new(172, 16, 1, 2)))
        }));
        bp
    }

    fn server() -> ServerHost {
        ServerHost::new(
            Ipv4Addr::new(203, 0, 113, 10),
            OsProfile::new(OsKind::Linux),
            Box::new(SinkApp::default()),
        )
    }

    #[test]
    fn builds_are_independent_and_identically_shaped() {
        let bp = blueprint();
        assert_eq!(bp.element_count(), 2);
        let a = bp.build(server());
        let b = bp.build(server());
        assert!(a.element_index("r1").is_some());
        assert!(a.element_index("r2").is_some());
        assert_eq!(a.element_index("r1"), b.element_index("r1"));
        // Element state is per-build: mutating one network's element must
        // not be visible through the other (fresh factory output, not a
        // shared box).
        assert_eq!(a.clock, b.clock);
    }

    #[test]
    fn blueprint_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<NetworkBlueprint>();
    }
}
