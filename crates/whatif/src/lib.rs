//! # whatif — the counterfactual "what-if" engine
//!
//! The paper's headline question is not only *how centralized is IPFS* but
//! *what happens when the cloud leaves*: it quantifies the share of DHT
//! peers, provider records and traffic that would vanish if AWS, the Hydra
//! fleet or the top cloud operators exited — and the real-world
//! Hydra-booster shutdown later made that counterfactual concrete. This
//! crate turns those thought experiments into executable interventions.
//!
//! An intervention plan is pure data on the scenario
//! ([`netgen::InterventionSpec`] inside `ScenarioConfig::interventions`):
//! *at time T, target set S, do K* — "all nodes of provider X exit"
//! (abrupt kill vs graceful disconnect), "Hydra fleet shutdown",
//! "region partition", "fraction-p random cull". The engine here:
//!
//! 1. **compiles** each spec against the generated population into a
//!    deterministic node set ([`compile`]);
//! 2. **schedules** it through the simulator's ordinary event queue
//!    ([`apply`]) — graceful exits ride the existing `NodeDown` lifecycle
//!    (peers are notified, provider records expire naturally), abrupt
//!    kills use the engine's [`simnet::Fault::Kill`] (no FIN, peers
//!    discover the death through their own timeouts), and
//!    [`simnet::Fault::Retire`] suppresses churn re-joins so the exit is
//!    permanent;
//! 3. **measures** the damage with a DHT health probe ([`probe`]): lookup
//!    success rate, provider-record availability, peers contacted and
//!    lookup latency, before and after each intervention;
//! 4. **observes** the recovery longitudinally ([`timeline`]): a
//!    deterministic sampling cadence across the whole plan, each sample
//!    running the §3 crawler plus the health probe on a *fork* of the
//!    engine — Fig. 4-style crawler-eye population counts, routing-table
//!    fill and recovery metrics (time back to 90% of baseline lookup
//!    success, steady-state population delta) without perturbing the
//!    campaign being observed.
//!
//! Everything inherits the simulator's determinism contract: the same seed
//! and the same plan produce a byte-identical `Sim::trace_digest`, and
//! an empty plan is byte-identical to a campaign that never heard of this
//! crate (both are asserted in `tests/`).

#![forbid(unsafe_code)]

pub mod apply;
pub mod compile;
pub mod probe;
pub mod timeline;

pub use apply::{apply, schedule};
pub use compile::{compile, resolve_target, CompiledIntervention};
pub use probe::{dht_health, DhtHealth};
pub use timeline::{
    population_counts, sample_now, PopulationCounts, RecoveryMetrics, Timeline, TimelineConfig,
    TimelineSample,
};
