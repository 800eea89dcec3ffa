//! # liberate-dpi
//!
//! A configurable DPI middlebox for the lib·erate reproduction — the thing
//! the library probes and evades.
//!
//! The paper's core observation is that middleboxes classify traffic with
//! *incomplete* models of end-to-end communication; every dimension of that
//! incompleteness is a knob here:
//!
//! - [`rules`]: keyword rules with direction/port/position constraints;
//! - [`automaton`]: the rule set compiled into one Aho–Corasick DFA with
//!   per-flow streaming scan state (each stream byte fed exactly once);
//! - [`inspect`]: how much of a flow is examined and how payload is
//!   (mis)assembled — per-packet, protocol-gated, windowed, or full
//!   sequence-tracked reassembly;
//! - [`validation`]: which malformed packets the device still processes;
//! - [`flowtable`]: state lifecycles — result/tracking timeouts, RST
//!   effects, and resource-pressure eviction ([`resource`]);
//! - [`sharded`]: the flow table split into independently locked shards
//!   with a cross-shard penalty box, shared by pooled worker sessions;
//! - [`actions`]: throttle, zero-rate, RST/403 blocking with residual
//!   server:port penalties;
//! - [`device`]: the composed middlebox as a simulator path element;
//! - [`proxy`]: a TCP-terminating transparent HTTP proxy (AT&T);
//! - [`profiles`]: the six environments of §6, calibrated knob-by-knob.

pub mod actions;
pub mod automaton;
pub mod device;
pub mod flowtable;
pub mod inspect;
pub mod matcher;
pub mod profiles;
pub mod proxy;
pub mod resource;
pub mod rules;
pub mod sharded;
pub mod validation;

pub mod prelude {
    pub use crate::actions::{BlockBehavior, Policy};
    pub use crate::automaton::{Automaton, CompiledRuleSet, StreamScan};
    pub use crate::device::{DpiConfig, DpiDevice};
    pub use crate::inspect::{
        FlowConfig, InspectScope, InspectionPolicy, ReassemblyMode, RstEffect,
    };
    pub use crate::profiles::{
        build_environment, EnvKind, Environment, EnvironmentBlueprint, CLIENT_ADDR, DPI_NAME,
        SERVER_ADDR,
    };
    pub use crate::proxy::{ProxyConfig, TransparentProxy};
    pub use crate::resource::TimeOfDayLoad;
    pub use crate::rules::{MatchRule, PositionConstraint, RuleSet};
    pub use crate::sharded::{ShardGuard, ShardedFlowTable, DEFAULT_SHARDS};
    pub use crate::validation::ValidationModel;
}
