//! # netgen — calibrated synthetic IPFS ecosystem generator
//!
//! Produces deterministic [`Scenario`]s — populations, churn schedules, the
//! content catalog, request workloads, gateway fleets, DNS zones and ENS
//! logs — calibrated to the quantitative findings of the paper (constants
//! in [`paper::PAPER`]). Pure data: the simulation and measurement layers
//! live in `tcsb-core`.

#![forbid(unsafe_code)]

pub mod build;
pub mod paper;
pub mod placement;
pub mod plan;
pub mod scenario;
pub mod workload;

pub use build::build;
pub use paper::{PaperTargets, PAPER};
pub use placement::{node_weight, Placement, PlacementItem};
pub use plan::{
    build_databases, provider_plan, IpAllocator, ProviderPlan, CLOUDFLARE, CLOUD_PROVIDERS,
    DATACAMP, RESIDENTIAL_BLOCKS,
};
pub use scenario::{
    canonical_plan_order, region_of, ContentItem, ExitStyle, ExitWave, GatewaySpec,
    InterventionKind, InterventionSpec, InterventionTarget, NodeSpec, Platform, Request, Scenario,
    ScenarioConfig, Segment, Session, StagedExitSpec, HYDRA_HEADS,
};
pub use workload::{
    FlashCrowdSpec, RateCurve, RateStream, TickEmission, WorkloadSpec, ZipfSampler, N_REGIONS,
};
