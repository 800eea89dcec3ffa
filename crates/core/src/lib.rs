//! # lib·erate
//!
//! A Rust reproduction of *"lib·erate, (n): A library for exposing
//! (traffic-classification) rules and avoiding them efficiently"*
//! (Li et al., IMC 2017).
//!
//! lib·erate automatically, adaptively, and *unilaterally* evades
//! middleboxes that differentiate traffic with DPI classifiers. Its key
//! insight: a middlebox necessarily classifies with an **incomplete
//! model** of end-to-end communication — it cannot know whether a packet
//! reached, or was accepted by, the endpoint — and those gaps can be
//! measured and exploited systematically.
//!
//! ## The four phases (Fig. 1 of the paper)
//!
//! 1. **[`detect`]** — replay recorded application traffic and a
//!    bit-inverted control; compare blocking, throughput, and zero-rating
//!    signals.
//! 2. **[`characterize`]** — binary blinding search for the classifier's
//!    *matching fields*, plus prepend probes for packet/byte inspection
//!    limits and match-everything detection.
//! 3. **[`evaluate`]** (with **[`probe`]** for middlebox localization) —
//!    try the 26-technique taxonomy of **[`evasion`]**, pruned and
//!    ordered by what characterization learned, judging CC? and RS? per
//!    Table 3.
//! 4. **[`deploy`]** — apply the cheapest working technique to live
//!    application flows, re-learning when the classifier changes.
//!
//! The **[`engine`]** module parallelizes phases 1–3: a [`engine::SessionPool`]
//! of worker sessions over one shared sharded DPI flow table executes
//! probe waves concurrently while keeping results canonical and
//! deterministic.
//!
//! ## Quick start
//!
//! ```no_run
//! use liberate::prelude::*;
//!
//! // A client behind the Great Firewall model fetching a blocked site,
//! // through a one-worker deployment pool (the transparent proxy).
//! let mut proxy = DeploymentPool::new(
//!     EnvKind::Gfc,
//!     OsKind::Linux,
//!     LiberateConfig::default(),
//!     1,
//!     CharacterizeOpts { rotate_server_ports: true, ..Default::default() },
//! );
//! let flow = liberate_traces::apps::economist_http();
//! let wave = proxy.run_flows(&flow, 1).expect("an evasion technique exists");
//! assert!(!wave.reports[0].outcome.blocked());
//! ```

pub mod bilateral;
pub mod cache;
pub mod characterize;
pub mod config;
pub mod deploy;
pub mod detect;
pub mod engine;
pub mod error;
pub mod evaluate;
pub mod evasion;
pub mod masquerade;
pub mod probe;
pub mod reactor;
pub mod replay;
pub mod report;
pub mod schedule;
pub mod sim;
pub mod socket;
pub mod task;

/// One-stop imports for applications and experiments.
pub mod prelude {
    pub use crate::bilateral::{run_bilateral, BilateralCodec, BilateralReport};
    pub use crate::cache::{CachedRules, RuleCache, SharedRuleCache};
    pub use crate::characterize::{
        characterize, Characterization, CharacterizeOpts, MatchingField, PositionProfile,
    };
    pub use crate::config::LiberateConfig;
    pub use crate::deploy::{
        run_pipeline, signal_from_detection, ActiveEvasion, DeployWave, DeploymentPool,
        PipelineReport, PoolFlowReport, PublishedState, PublishedTechnique,
    };
    pub use crate::detect::{detect, inverted_trace, probe, DetectionOutcome, Signal};
    pub use crate::engine::{characterize_many, characterize_parallel, Engine, SessionPool};
    pub use crate::error::{LiberateError, Result};
    pub use crate::evaluate::{
        cheapest, evaluate_technique, find_working_technique, plan, EvaluationInputs, Reach,
        TechniqueResult,
    };
    pub use crate::evasion::{Category, EvasionContext, Overhead, Technique};
    pub use crate::masquerade::{run_masqueraded, Masquerade, MasqueradeReport};
    pub use crate::probe::{
        decoy_request, inert_reach, locate_middlebox, InertReach, Localization, DECOY_MARKER,
    };
    pub use crate::reactor::{Reactor, ReactorOutcome, TimerFire, TimerQueue};
    pub use crate::replay::{server_script, ReplayOpts, ReplayOutcome, Session};
    pub use crate::schedule::{ClientFlow, Craft, FragPlan, Schedule, ScheduledPacket, Step};
    pub use crate::sim::{OsKind, SimSubstrate};
    pub use crate::socket::LiberateSocket;
    pub use liberate_dpi::profiles::EnvKind;
    pub use liberate_substrate::nft::{NftSubstrate, RecordingSink, RuleProgramSink};
    pub use liberate_substrate::{ClassVerdict, Substrate};
}
