//! Scenario data model: the full description of one synthetic IPFS
//! ecosystem, consumed by `tcsb-core`'s campaign driver.
//!
//! A scenario is *pure data* — node specs, churn schedules, content catalog,
//! request traces, DNS zones, ENS logs — produced deterministically from a
//! [`ScenarioConfig`] and a seed. The simulation layer instantiates actors
//! from it; the measurement layer never reads it (except in tests that
//! validate the tools against planted ground truth).

use clouddb::CountryCode;
use dnslink::{DnsZoneDb, PassiveDnsFeed};
use ens::ResolverContract;
use ipfs_types::Cid;
use simnet::{Dur, SimTime};
use std::net::Ipv4Addr;

/// Population segment a node belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Segment {
    /// Cloud-hosted DHT server, stable, rarely rotates IPs.
    CloudStable,
    /// Non-cloud node with a public IP: churns and rotates.
    PublicFringe,
    /// NAT-ed DHT client (invisible to crawls, publishes via relays).
    NatClient,
    /// Single-interaction user: short sessions, fresh identity each time.
    Ephemeral,
    /// Platform-operated node (storage service, gateway, hydra host).
    Platform,
}

/// Known platforms (Fig. 13's reverse-DNS attribution buckets).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Platform {
    /// web3.storage — bulk persistent storage, dominates advertise traffic.
    Web3Storage,
    /// nft.storage — same operator class.
    NftStorage,
    /// Pinata pinning service.
    Pinata,
    /// ipfs-bank HTTP gateway platform — dominates Bitswap traffic.
    IpfsBank,
    /// Filebase modified clients (top in-degree nodes in Fig. 7).
    Filebase,
    /// Protocol Labs Hydra booster host (20 virtual heads each).
    Hydra,
    /// Gateway operator overlay node (Cloudflare, ipfs.io, …).
    Gateway,
}

impl Platform {
    /// Reverse-DNS suffix used for attribution.
    pub fn rdns_suffix(self) -> &'static str {
        match self {
            Platform::Web3Storage => "web3.storage",
            Platform::NftStorage => "nft.storage",
            Platform::Pinata => "pinata.cloud",
            Platform::IpfsBank => "ipfs-bank.net",
            Platform::Filebase => "filebase.com",
            Platform::Hydra => "hydra.amazonaws.com",
            Platform::Gateway => "gateway.net",
        }
    }
}

/// One online session of a node.
#[derive(Clone, Copy, Debug)]
pub struct Session {
    /// Going online.
    pub up: SimTime,
    /// Going offline.
    pub down: SimTime,
    /// Index into the node's IP pool for this session.
    pub ip_idx: usize,
    /// Fresh identity seed adopted for this session, if any.
    pub new_identity: Option<u64>,
}

/// Full specification of one node.
#[derive(Clone, Debug)]
pub struct NodeSpec {
    /// Initial identity seed.
    pub identity_seed: u64,
    /// Population segment.
    pub segment: Segment,
    /// Cloud provider name, `None` for residential.
    pub provider: Option<&'static str>,
    /// Geolocation of the primary address.
    pub country: CountryCode,
    /// Latency region.
    pub region: u16,
    /// Behind NAT.
    pub nat: bool,
    /// Addresses this node rotates through (index 0 first).
    pub ips: Vec<Ipv4Addr>,
    /// Churn schedule (sorted by time; sessions never overlap).
    pub sessions: Vec<Session>,
    /// Platform membership.
    pub platform: Option<Platform>,
    /// Identify agent string.
    pub agent: String,
    /// PTR record, if any.
    pub rdns: Option<String>,
    /// Gateway overlay node (serves HTTP).
    pub gateway: bool,
    /// Additional announced address (multihoming / hybrid peers).
    pub extra_addr: Option<Ipv4Addr>,
}

/// One content item in the catalog.
#[derive(Clone, Debug)]
pub struct ContentItem {
    /// The content identifier.
    pub cid: Cid,
    /// Payload size in bytes.
    pub size: u32,
    /// Node indices that publish it (at `publish_at`).
    pub publishers: Vec<usize>,
    /// When publishing happens.
    pub publish_at: SimTime,
    /// Popularity window `[start, end]` in virtual days — most CIDs are
    /// requested on 1–3 distinct days only (Fig. 9).
    pub window: (u64, u64),
    /// Zipf popularity weight.
    pub weight: f64,
}

/// One workload request.
#[derive(Clone, Copy, Debug)]
pub enum Request {
    /// HTTP GET through a gateway frontend.
    Http {
        /// When.
        at: SimTime,
        /// Issuing node index (an ephemeral/NAT user).
        client: usize,
        /// Gateway index into [`Scenario::gateways`].
        gateway: usize,
        /// Content item index.
        item: usize,
    },
    /// Direct P2P fetch.
    Fetch {
        /// When.
        at: SimTime,
        /// Node index performing the fetch.
        node: usize,
        /// Content item index.
        item: usize,
    },
}

impl Request {
    /// The request timestamp.
    pub fn at(&self) -> SimTime {
        match self {
            Request::Http { at, .. } | Request::Fetch { at, .. } => *at,
        }
    }
}

/// A public gateway (HTTP endpoint + overlay backends).
#[derive(Clone, Debug)]
pub struct GatewaySpec {
    /// Public hostname (e.g. `cloudflare-ipfs.com`).
    pub host: String,
    /// Listed in the public gateway register.
    pub listed: bool,
    /// Actually works (22 of the 83 listed did).
    pub functional: bool,
    /// HTTP frontend addresses (anycast ⇒ several).
    pub frontend_ips: Vec<Ipv4Addr>,
    /// Overlay node indices serving this gateway.
    pub overlay_nodes: Vec<usize>,
    /// Hosting provider of the frontends (`None` = non-cloud).
    pub provider: Option<&'static str>,
    /// Relative share of HTTP workload routed here.
    pub traffic_weight: f64,
}

/// Which nodes a scripted intervention removes or isolates. Targets are
/// resolved against the generated population by the `whatif` engine, always
/// deterministically (random culls carry their own seed).
#[derive(Clone, Debug, PartialEq)]
pub enum InterventionTarget {
    /// Every node hosted by a named cloud provider (`"choopa"`,
    /// `"amazon_aws"`, … — see `plan::CLOUD_PROVIDERS`).
    Provider(&'static str),
    /// Every node of a platform (e.g. [`Platform::Hydra`] for the
    /// real-world Hydra-booster shutdown counterfactual).
    Platform(Platform),
    /// Every node in a latency region (a coarse AS/geo partition lens).
    Region(u16),
    /// A seeded random sample of `fraction` of *all* nodes.
    RandomFraction {
        /// Share of the population, in `[0, 1]`.
        fraction: f64,
        /// Selection seed (independent of the scenario seed).
        seed: u64,
    },
    /// A seeded random sample of `fraction` of the *cloud-hosted* nodes
    /// (the paper's headline counterfactual: what if the cloud leaves?).
    CloudFraction {
        /// Share of cloud-hosted nodes, in `[0, 1]`.
        fraction: f64,
        /// Selection seed.
        seed: u64,
    },
}

/// How targeted nodes leave the network.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExitStyle {
    /// Process kill: connections drop without FIN, peers discover the
    /// death through their own timeouts.
    Abrupt,
    /// Clean shutdown: sessions close with notifications; provider records
    /// pointing at the node expire naturally afterwards.
    Graceful,
}

/// What an intervention does to its target set.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum InterventionKind {
    /// Permanent exit at `InterventionSpec::at` (churn re-joins are
    /// suppressed afterwards).
    Exit {
        /// Abrupt kill vs graceful disconnect.
        style: ExitStyle,
    },
    /// Cut the target set off from the rest of the network, optionally
    /// healing at a later time.
    Partition {
        /// When connectivity is restored (`None` = never).
        heal_at: Option<SimTime>,
    },
}

/// One scripted mid-campaign event: at `at`, do `kind` to `target`.
#[derive(Clone, Debug, PartialEq)]
pub struct InterventionSpec {
    /// When the intervention fires.
    pub at: SimTime,
    /// Which nodes it hits.
    pub target: InterventionTarget,
    /// What happens to them.
    pub kind: InterventionKind,
}

impl InterventionSpec {
    /// A permanent exit of `target` at `at`.
    pub fn exit(at: SimTime, target: InterventionTarget, style: ExitStyle) -> InterventionSpec {
        InterventionSpec {
            at,
            target,
            kind: InterventionKind::Exit { style },
        }
    }

    /// The Hydra-fleet shutdown counterfactual (abrupt, as in the real
    /// 2023 decommissioning the paper discusses).
    pub fn hydra_shutdown(at: SimTime) -> InterventionSpec {
        InterventionSpec::exit(
            at,
            InterventionTarget::Platform(Platform::Hydra),
            ExitStyle::Abrupt,
        )
    }

    /// Canonical ordering key: a pure function of the spec's *content*, so
    /// sorting a plan by it yields the same schedule for every permutation
    /// of the input (ties between byte-identical specs are irrelevant —
    /// they compile identically). Time is the primary key; the remaining
    /// components are an arbitrary but fixed encoding of kind and target.
    pub fn canonical_key(&self) -> (u64, u8, u64, u8, u64, u64, String) {
        let (kind_code, kind_param) = match self.kind {
            InterventionKind::Exit { style } => (0u8, style as u64),
            InterventionKind::Partition { heal_at } => {
                (1, heal_at.map(|t| t.0.wrapping_add(1)).unwrap_or(0))
            }
        };
        // Target parameters stay separate key components — folding them
        // into one word could let two distinct targets collide, and the
        // stable sort's tie-break would then reintroduce input-order
        // dependence.
        let (tgt_code, tgt_a, tgt_b, tgt_name) = match &self.target {
            InterventionTarget::Provider(name) => (0u8, 0u64, 0u64, name.to_string()),
            InterventionTarget::Platform(p) => (1, *p as u64, 0, String::new()),
            InterventionTarget::Region(r) => (2, *r as u64, 0, String::new()),
            InterventionTarget::RandomFraction { fraction, seed } => {
                (3, fraction.to_bits(), *seed, String::new())
            }
            InterventionTarget::CloudFraction { fraction, seed } => {
                (4, fraction.to_bits(), *seed, String::new())
            }
        };
        (
            self.at.0, kind_code, kind_param, tgt_code, tgt_a, tgt_b, tgt_name,
        )
    }
}

/// Sort a plan into its canonical schedule order (time-major, then a fixed
/// content encoding). Both the `whatif` compiler and [`StagedExitSpec`]
/// use this, so a plan's compiled schedule is invariant under permutation
/// of its specs.
pub fn canonical_plan_order(plan: &mut [InterventionSpec]) {
    plan.sort_by_cached_key(|sp| sp.canonical_key());
}

/// One wave of a staged exit: at `at`, `target` leaves in `style`.
#[derive(Clone, Debug, PartialEq)]
pub struct ExitWave {
    /// When the wave fires.
    pub at: SimTime,
    /// Who leaves.
    pub target: InterventionTarget,
    /// How they leave.
    pub style: ExitStyle,
}

/// A staged multi-wave exit plan: provider A at T1, provider B at T2, …,
/// with an optional partition-then-heal stage riding along. This is the
/// first-class description of the longitudinal counterfactuals the paper's
/// §7 discussion implies (the Hydra shutdown was itself one wave of a
/// larger hypothetical cloud exodus); the `whatif` engine compiles the
/// waves in canonical time order with per-wave-disjoint target sets (a
/// node claimed by an earlier wave is not re-targeted by a later one).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct StagedExitSpec {
    /// Exit waves, in any order (compilation canonicalizes).
    pub waves: Vec<ExitWave>,
    /// Optional partition stage: `(at, target, heal_at)`.
    pub partition: Option<(SimTime, InterventionTarget, Option<SimTime>)>,
}

impl StagedExitSpec {
    /// Empty plan (builder entry point).
    pub fn new() -> StagedExitSpec {
        StagedExitSpec::default()
    }

    /// Append an exit wave (builder-style).
    pub fn wave(mut self, at: SimTime, target: InterventionTarget, style: ExitStyle) -> Self {
        self.waves.push(ExitWave { at, target, style });
        self
    }

    /// Attach a partition stage, optionally healing later (builder-style).
    pub fn partition(
        mut self,
        at: SimTime,
        target: InterventionTarget,
        heal_at: Option<SimTime>,
    ) -> Self {
        self.partition = Some((at, target, heal_at));
        self
    }

    /// The paper-flavoured two-wave exodus: AWS leaves abruptly at `t1`,
    /// the Hydra fleet is decommissioned at `t2` (the real-world 2023
    /// shutdown as the second wave of a larger exit).
    pub fn aws_then_hydra(t1: SimTime, t2: SimTime) -> StagedExitSpec {
        StagedExitSpec::new()
            .wave(
                t1,
                InterventionTarget::Provider("amazon_aws"),
                ExitStyle::Abrupt,
            )
            .wave(
                t2,
                InterventionTarget::Platform(Platform::Hydra),
                ExitStyle::Abrupt,
            )
    }

    /// Lower the staged plan to ordinary intervention specs, in canonical
    /// schedule order.
    pub fn into_plan(self) -> Vec<InterventionSpec> {
        let mut plan: Vec<InterventionSpec> = self
            .waves
            .into_iter()
            .map(|w| InterventionSpec::exit(w.at, w.target, w.style))
            .collect();
        if let Some((at, target, heal_at)) = self.partition {
            plan.push(InterventionSpec {
                at,
                target,
                kind: InterventionKind::Partition { heal_at },
            });
        }
        canonical_plan_order(&mut plan);
        plan
    }
}

/// Virtual peer IDs per Hydra host.
pub const HYDRA_HEADS: usize = 20;

/// Size/shape knobs for scenario generation. See `paper.rs` for presets.
#[derive(Clone, Debug)]
pub struct ScenarioConfig {
    /// Master seed.
    pub seed: u64,
    /// Virtual campaign length.
    pub duration: Dur,
    /// Cloud-hosted DHT servers.
    pub n_cloud: usize,
    /// Public non-cloud servers.
    pub n_fringe: usize,
    /// NAT-ed clients.
    pub n_nat: usize,
    /// Ephemeral single-interaction users.
    pub n_ephemeral: usize,
    /// Catalog size (regular items).
    pub n_content: usize,
    /// Total workload requests across the run.
    pub n_requests: usize,
    /// CIDs per storage platform (web3.storage / nft.storage / pinata).
    pub platform_cids: usize,
    /// Nodes per storage platform cluster.
    pub platform_nodes: usize,
    /// Hydra booster hosts (each runs [`HYDRA_HEADS`] virtual heads).
    pub hydra_hosts: usize,
    /// Listed gateway endpoints (83 in the paper).
    pub n_gateways_listed: usize,
    /// Functional gateways (22 in the paper).
    pub n_gateways_functional: usize,
    /// Root-domain universe for the DNS scan.
    pub n_domains: usize,
    /// Domains with DNSLink records.
    pub n_dnslink: usize,
    /// ENS `ipfs_ns` records (20.6k in the paper).
    pub n_ens_records: usize,
    /// Connection floor for regular nodes (Bitswap fan-out driver).
    pub conn_floor: usize,
    /// Scripted mid-campaign interventions (empty = none; executed by the
    /// `whatif` engine when the campaign is instantiated through it).
    pub interventions: Vec<InterventionSpec>,
    /// Engine shards the campaign runs on (`0` = auto: the `TCSB_SHARDS`
    /// environment variable, defaulting to 1). Nodes are assigned to
    /// shards by the weighted partitioner
    /// [`crate::placement::balanced`] — hot regions may split across two
    /// shards, and the executor's per-pair lookahead matrix keeps every
    /// non-split shard pair at its full inter-region latency floor.
    /// Results are byte-identical for every shard count — only wall-clock
    /// and per-shard load change.
    pub shards: usize,
}

impl ScenarioConfig {
    /// Attach an intervention plan (builder-style).
    pub fn with_interventions(mut self, plan: Vec<InterventionSpec>) -> ScenarioConfig {
        self.interventions = plan;
        self
    }

    /// Set the engine shard count (builder-style).
    pub fn with_shards(mut self, shards: usize) -> ScenarioConfig {
        self.shards = shards;
        self
    }

    /// Resolve the effective shard count: an explicit setting wins,
    /// otherwise the `TCSB_SHARDS` environment variable, otherwise 1.
    pub fn effective_shards(&self) -> usize {
        if self.shards > 0 {
            return self.shards;
        }
        std::env::var("TCSB_SHARDS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or(1)
    }
}

/// A fully generated scenario.
#[derive(Debug)]
pub struct Scenario {
    /// The generating config.
    pub cfg: ScenarioConfig,
    /// Measurement-side IP databases.
    pub dbs: clouddb::IpDatabases,
    /// All nodes. The first [`Scenario::bootstrap_count`] are always-on
    /// bootstrap servers.
    pub nodes: Vec<NodeSpec>,
    /// Content catalog (regular + platform items).
    pub content: Vec<ContentItem>,
    /// Workload, sorted by time.
    pub requests: Vec<Request>,
    /// Gateways.
    pub gateways: Vec<GatewaySpec>,
    /// DNS zones (domain universe + DNSLink + gateway hosts).
    pub dns: DnsZoneDb,
    /// Scan candidate list (pre-reduction).
    pub dns_candidates: Vec<String>,
    /// Passive DNS feed covering gateway hostnames.
    pub pdns: PassiveDnsFeed,
    /// ENS resolver contracts with their event logs.
    pub ens_resolvers: Vec<ResolverContract>,
    /// Number of dedicated bootstrap nodes at the head of `nodes`.
    pub bootstrap_count: usize,
}

impl Scenario {
    /// Nodes belonging to a platform.
    pub fn platform_nodes(&self, p: Platform) -> Vec<usize> {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.platform == Some(p))
            .map(|(i, _)| i)
            .collect()
    }

    /// Ground-truth count of nodes in a segment (tests/calibration only).
    pub fn segment_count(&self, s: Segment) -> usize {
        self.nodes.iter().filter(|n| n.segment == s).count()
    }
}

/// Map a country to a coarse latency region.
pub fn region_of(country: CountryCode) -> u16 {
    match country.as_str() {
        "US" | "CA" => 0,
        "DE" | "FR" | "GB" | "NL" | "PL" | "UA" | "RU" | "FI" | "SE" => 1,
        "KR" | "JP" | "CN" | "SG" | "IN" | "AU" => 2,
        "BR" => 3,
        _ => 1,
    }
}
