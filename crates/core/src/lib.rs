//! # tcsb-core — the paper's measurement and analysis toolkit
//!
//! This crate is the reproduction of the paper's *contribution*: the
//! multi-modal measurement apparatus (DHT crawler, Bitswap monitoring node,
//! Hydra-booster logger, exhaustive provider-record searcher, gateway
//! prober) plus the counting methodologies (G-IP vs A-N) and the
//! decentralization analyses (concentration curves, degree distributions,
//! removal resilience, provider/CID classification).
//!
//! The [`campaign`] module deploys these tools inside a `netgen` scenario —
//! the same way the paper's tools ran inside the live IPFS network.

#![forbid(unsafe_code)]

pub mod actors;
pub mod analysis;
pub mod campaign;
pub mod counting;
pub mod crawler;
pub mod hydra;

pub use actors::{EcoActor, EcoCmd, Frontend, ReplayDriver, WebUser};
pub use analysis::{
    cdf, cid_cloud_stats, classify_provider, days_seen_histogram, degree_stats, lorenz_curve,
    percentile, share_of_top, CidCloudStats, DegreeStats, Graph, LorenzPoint, ProviderClass,
    RemovalStrategy, ResilienceCurve, UnionFind,
};
pub use campaign::{Campaign, CampaignOptions, ResolvedProviders};
pub use counting::{
    an_cloud_status, an_count, dataset_stats, gip_count, majority_label, shares, CloudStatus,
    DatasetStats,
};
pub use crawler::{CrawlSnapshot, CrawledPeer, Crawler, CrawlerCmd};
pub use hydra::{Hydra, HydraLogEntry};
