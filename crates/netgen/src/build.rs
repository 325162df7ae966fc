//! Scenario builder: from a [`ScenarioConfig`] to a full [`Scenario`].

use crate::plan::{
    build_databases, IpAllocator, CLOUDFLARE, CLOUD_PROVIDERS, DATACAMP, RESIDENTIAL_BLOCKS,
};
use crate::scenario::{
    region_of, ContentItem, GatewaySpec, NodeSpec, Platform, Request, Scenario, ScenarioConfig,
    Segment, Session,
};
use clouddb::CountryCode;
use dnslink::{format_ipfs_dnslink, DnsRecord, DnsZoneDb, PassiveDnsFeed};
use ens::{encode_ipfs, encode_other, namehash, Address, Namespace, ResolverContract};
use ipfs_types::Cid;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use simnet::{ChurnModel, Dur, SimTime};
use std::net::Ipv4Addr;

/// Extra live time past the nominal campaign duration, so post-campaign
/// measurements observe a live network.
pub const MEASUREMENT_TAIL: Dur = Dur(36 * 3_600 * 1_000_000_000);

/// Identity seed namespaces, so node identities never collide.
const SEED_NODE: u64 = 1 << 40;
const SEED_EPHEMERAL: u64 = 1 << 41;
const SEED_CONTENT: u64 = 1 << 42;

/// Share of the static request trace served via HTTP gateways (vs direct
/// fetch).
const HTTP_SHARE: f64 = 0.45;
/// Fraction of publisher nodes announcing a second address of the opposite
/// cloudness (the hybrid/BOTH populations).
const HYBRID_FRACTION: f64 = 0.006;

struct Builder {
    cfg: ScenarioConfig,
    rng: StdRng,
    cloud_allocs: Vec<(usize, IpAllocator)>, // (provider index, allocator)
    cf_alloc: IpAllocator,
    dc_alloc: IpAllocator,
    res_alloc: IpAllocator,
    nodes: Vec<NodeSpec>,
    next_seed: u64,
}

impl Builder {
    fn new(cfg: ScenarioConfig) -> Builder {
        let rng = StdRng::seed_from_u64(cfg.seed);
        let cloud_allocs = CLOUD_PROVIDERS
            .iter()
            .enumerate()
            .map(|(i, p)| (i, IpAllocator::new(p.blocks)))
            .collect();
        Builder {
            rng,
            cloud_allocs,
            cf_alloc: IpAllocator::new(CLOUDFLARE.blocks),
            dc_alloc: IpAllocator::new(DATACAMP.blocks),
            res_alloc: IpAllocator::new(RESIDENTIAL_BLOCKS),
            nodes: Vec::new(),
            next_seed: SEED_NODE,
            cfg,
        }
    }

    fn seed(&mut self) -> u64 {
        self.next_seed += 1;
        self.next_seed
    }

    /// Pick a cloud provider index by node share.
    fn pick_provider(&mut self) -> usize {
        let total: f64 = CLOUD_PROVIDERS.iter().map(|p| p.node_share).sum();
        let mut x = self.rng.random::<f64>() * total;
        for (i, p) in CLOUD_PROVIDERS.iter().enumerate() {
            if x < p.node_share {
                return i;
            }
            x -= p.node_share;
        }
        CLOUD_PROVIDERS.len() - 1
    }

    fn alloc_cloud(&mut self, provider_idx: usize) -> (Ipv4Addr, CountryCode) {
        self.cloud_allocs[provider_idx].1.alloc()
    }

    /// Generate a churn schedule. Returns sessions and the IP-pool size.
    ///
    /// Sessions run past the nominal duration by a measurement tail so the
    /// post-campaign probes (gateway identification, provider resolution)
    /// observe a live network.
    fn gen_sessions(&mut self, churn: &ChurnModel, always_on: bool) -> (Vec<Session>, usize) {
        let duration = self.cfg.duration + MEASUREMENT_TAIL;
        if always_on {
            return (
                vec![Session {
                    up: SimTime::ZERO,
                    down: SimTime::ZERO + duration,
                    ip_idx: 0,
                    new_identity: None,
                }],
                1,
            );
        }
        let mut sessions = Vec::new();
        let mut ip_idx = 0usize;
        // Start somewhere inside an initial gap so the population is
        // phase-mixed rather than synchronized.
        let mut t = SimTime::ZERO
            + churn.sample_offline(&mut self.rng, Dur::ZERO, Dur::from_hours(24)) * 0.5;
        let horizon = SimTime::ZERO + duration;
        while t < horizon && sessions.len() < 512 {
            let len =
                churn.sample_online(&mut self.rng, Dur::from_mins(10), Dur::from_hours(24 * 30));
            let up = t;
            let down = (up + len).min(horizon);
            // Exactly one RNG draw per session regardless of segment kind.
            let new_identity = if self.rng.random::<f64>() < churn.new_identity {
                Some(self.seed() | SEED_EPHEMERAL)
            } else {
                None
            };
            sessions.push(Session {
                up,
                down,
                ip_idx,
                new_identity,
            });
            if down >= horizon {
                break;
            }
            let gap =
                churn.sample_offline(&mut self.rng, Dur::from_mins(10), Dur::from_hours(24 * 7));
            t = down + gap;
            if self.rng.random::<f64>() < churn.ip_rotation {
                ip_idx += 1;
            }
        }
        (sessions, ip_idx + 1)
    }

    fn cloud_churn() -> ChurnModel {
        ChurnModel::stable()
    }

    fn fringe_churn() -> ChurnModel {
        // Calibrated so the typical snapshot shows the paper's ≈4.3:1
        // cloud:fringe visibility ratio (§4): ≈15% fringe uptime with long
        // absences, DHCP-style rotation on most rejoins.
        ChurnModel {
            online: simnet::LogNormal::from_median(2.2 * 3600.0, 1.0),
            offline: simnet::LogNormal::from_median(15.0 * 3600.0, 1.0),
            ip_rotation: 0.22,
            new_identity: 0.08,
        }
    }

    fn ephemeral_churn() -> ChurnModel {
        ChurnModel {
            online: simnet::LogNormal::from_median(30.0 * 60.0, 0.8),
            offline: simnet::LogNormal::from_median(3.0 * 86_400.0, 1.0),
            ip_rotation: 0.95,
            new_identity: 0.9,
        }
    }

    fn push_cloud_node(&mut self, platform: Option<Platform>, always_on: bool) -> usize {
        let p_idx = self.pick_provider();
        self.push_cloud_node_at(p_idx, platform, always_on)
    }

    fn push_cloud_node_at(
        &mut self,
        p_idx: usize,
        platform: Option<Platform>,
        always_on: bool,
    ) -> usize {
        let plan = &CLOUD_PROVIDERS[p_idx];
        let (ip, country) = self.alloc_cloud(p_idx);
        let (sessions, pool) = self.gen_sessions(&Self::cloud_churn(), always_on);
        let mut ips = vec![ip];
        for _ in 1..pool {
            ips.push(self.alloc_cloud(p_idx).0);
        }
        let rdns = platform
            .map(|pl| format!("node{}.{}", self.nodes.len(), pl.rdns_suffix()))
            .or_else(|| Some(format!("host{}.{}", self.nodes.len(), plan.rdns_suffix)));
        let agent = match platform {
            Some(Platform::Filebase) => "filebase/1.0".to_string(),
            Some(Platform::Hydra) => "hydra-booster/0.7".to_string(),
            _ => "go-ipfs/0.11".to_string(),
        };
        let spec = NodeSpec {
            identity_seed: self.seed(),
            segment: if platform.is_some() {
                Segment::Platform
            } else {
                Segment::CloudStable
            },
            provider: Some(plan.name),
            country,
            region: region_of(country),
            nat: false,
            ips,
            sessions,
            platform,
            agent,
            rdns,
            gateway: false,
            extra_addr: None,
        };
        self.nodes.push(spec);
        self.nodes.len() - 1
    }

    fn nat_home_churn() -> ChurnModel {
        // NAT-ed providers are mostly always-on home nodes: they are DHT
        // clients because of NAT, not because they churn (§6).
        ChurnModel {
            online: simnet::LogNormal::from_median(11.0 * 3600.0, 1.0),
            offline: simnet::LogNormal::from_median(10.0 * 3600.0, 0.8),
            ip_rotation: 0.35,
            new_identity: 0.02,
        }
    }

    fn push_residential_node(&mut self, segment: Segment, nat: bool) -> usize {
        let churn = match segment {
            Segment::Ephemeral => Self::ephemeral_churn(),
            Segment::NatClient => Self::nat_home_churn(),
            _ => Self::fringe_churn(),
        };
        let (sessions, pool) = self.gen_sessions(&churn, false);
        let (first, country) = self.res_alloc.alloc();
        let mut ips = vec![first];
        for _ in 1..pool {
            // Rotations stay in the same country's pools most of the time
            // (DHCP within one ISP).
            let ip = if self.rng.random::<f64>() < 0.85 {
                self.res_alloc
                    .alloc_in_country(country)
                    .unwrap_or_else(|| self.res_alloc.alloc().0)
            } else {
                self.res_alloc.alloc().0
            };
            ips.push(ip);
        }
        let spec = NodeSpec {
            identity_seed: self.seed(),
            segment,
            provider: None,
            country,
            region: region_of(country),
            nat,
            ips,
            sessions,
            platform: None,
            agent: "go-ipfs/0.11".to_string(),
            rdns: None,
            gateway: false,
            extra_addr: None,
        };
        self.nodes.push(spec);
        self.nodes.len() - 1
    }
}

/// Where a storage platform is hosted (chosen so Fig. 20's choopa/vultr/
/// contabo dominance of ENS-referenced content reproduces).
fn storage_platform_provider(p: Platform) -> usize {
    let name = match p {
        Platform::NftStorage | Platform::Pinata => "choopa",
        Platform::Web3Storage => "vultr",
        Platform::IpfsBank => "contabo_gmbh",
        Platform::Filebase | Platform::Hydra => "amazon_aws",
        Platform::Gateway => "amazon_aws",
    };
    CLOUD_PROVIDERS
        .iter()
        .position(|pp| pp.name == name)
        .expect("provider in plan")
}

/// Build the full scenario.
pub fn build(cfg: ScenarioConfig) -> Scenario {
    let mut b = Builder::new(cfg.clone());
    let mut db_rng = StdRng::seed_from_u64(cfg.seed ^ 0xD1B5);
    let dbs = build_databases(&mut db_rng);

    // --- population -----------------------------------------------------
    // Bootstrap servers first (always-on cloud).
    let bootstrap_count = 4.min(cfg.n_cloud.max(1));
    for _ in 0..bootstrap_count {
        b.push_cloud_node(None, true);
    }
    for _ in bootstrap_count..cfg.n_cloud {
        b.push_cloud_node(None, false);
    }
    for _ in 0..cfg.n_fringe {
        b.push_residential_node(Segment::PublicFringe, false);
    }
    for _ in 0..cfg.n_nat {
        b.push_residential_node(Segment::NatClient, true);
    }
    for _ in 0..cfg.n_ephemeral {
        b.push_residential_node(Segment::Ephemeral, true);
    }

    // --- platforms --------------------------------------------------------
    let mut storage_nodes: Vec<(Platform, Vec<usize>)> = Vec::new();
    for platform in [
        Platform::Web3Storage,
        Platform::NftStorage,
        Platform::Pinata,
    ] {
        let p_idx = storage_platform_provider(platform);
        let nodes: Vec<usize> = (0..cfg.platform_nodes)
            .map(|_| b.push_cloud_node_at(p_idx, Some(platform), true))
            .collect();
        storage_nodes.push((platform, nodes));
    }
    // Filebase: two modified clients with very high connectivity.
    let filebase_p = storage_platform_provider(Platform::Filebase);
    for _ in 0..2 {
        b.push_cloud_node_at(filebase_p, Some(Platform::Filebase), true);
    }
    // Hydra hosts.
    let hydra_p = storage_platform_provider(Platform::Hydra);
    for _ in 0..cfg.hydra_hosts {
        b.push_cloud_node_at(hydra_p, Some(Platform::Hydra), true);
    }

    // --- gateways ---------------------------------------------------------
    let mut gateways: Vec<GatewaySpec> = Vec::new();
    {
        // (host, provider name or None, frontends, overlay nodes, weight)
        let majors: Vec<(&str, Option<&'static str>, usize, usize, f64)> = vec![
            ("ipfs-bank.net", Some("contabo_gmbh"), 3, 6, 0.42),
            ("cloudflare-ipfs.com", Some("cloudflare_inc"), 6, 4, 0.24),
            ("ipfs.io", Some("amazon_aws"), 3, 3, 0.12),
            ("dweb.link", Some("amazon_aws"), 2, 2, 0.06),
            ("via0.com", Some("datacamp"), 2, 2, 0.04),
            ("ipfs-gateway.cloud", Some("hetzner"), 2, 2, 0.03),
            ("telos.miami", None, 1, 1, 0.01),
        ];
        for (host, provider, n_front, n_overlay, weight) in majors {
            let mut frontend_ips = Vec::new();
            for _ in 0..n_front {
                let ip = match provider {
                    Some("cloudflare_inc") => b.cf_alloc.alloc().0,
                    Some("datacamp") => b.dc_alloc.alloc().0,
                    Some(name) => {
                        let idx = CLOUD_PROVIDERS.iter().position(|p| p.name == name).unwrap();
                        b.alloc_cloud(idx).0
                    }
                    None => b.res_alloc.alloc().0,
                };
                frontend_ips.push(ip);
            }
            let mut overlay_nodes = Vec::new();
            for _ in 0..n_overlay {
                let idx = match provider {
                    Some("cloudflare_inc") => {
                        // Cloudflare overlay nodes sit on Cloudflare IPs.
                        let (ip, country) = b.cf_alloc.alloc();
                        let seed = b.seed();
                        let i = b.nodes.len();
                        b.nodes.push(NodeSpec {
                            identity_seed: seed,
                            segment: Segment::Platform,
                            provider: Some("cloudflare_inc"),
                            country,
                            region: region_of(country),
                            nat: false,
                            ips: vec![ip],
                            sessions: vec![Session {
                                up: SimTime::ZERO,
                                down: SimTime::ZERO + cfg.duration + MEASUREMENT_TAIL,
                                ip_idx: 0,
                                new_identity: None,
                            }],
                            platform: Some(Platform::Gateway),
                            agent: "go-ipfs/0.11".to_string(),
                            rdns: Some(format!("gw{i}.cloudflare.com")),
                            gateway: true,
                            extra_addr: None,
                        });
                        i
                    }
                    Some("datacamp") => {
                        let (ip, country) = b.dc_alloc.alloc();
                        let seed = b.seed();
                        let i = b.nodes.len();
                        b.nodes.push(NodeSpec {
                            identity_seed: seed,
                            segment: Segment::Platform,
                            provider: Some("datacamp"),
                            country,
                            region: region_of(country),
                            nat: false,
                            ips: vec![ip],
                            sessions: vec![Session {
                                up: SimTime::ZERO,
                                down: SimTime::ZERO + cfg.duration + MEASUREMENT_TAIL,
                                ip_idx: 0,
                                new_identity: None,
                            }],
                            platform: Some(Platform::Gateway),
                            agent: "go-ipfs/0.11".to_string(),
                            rdns: Some(format!("gw{i}.{host}")),
                            gateway: true,
                            extra_addr: None,
                        });
                        i
                    }
                    Some(name) => {
                        let p_idx = CLOUD_PROVIDERS
                            .iter()
                            .position(|p| p.name == name)
                            .unwrap_or_else(|| panic!("unknown gateway provider {name}"));
                        let platform = if host == "ipfs-bank.net" {
                            Platform::IpfsBank
                        } else {
                            Platform::Gateway
                        };
                        let i = b.push_cloud_node_at(p_idx, Some(platform), true);
                        b.nodes[i].gateway = true;
                        b.nodes[i].rdns = Some(format!("gw{i}.{host}"));
                        i
                    }
                    None => {
                        let i = b.push_residential_node(Segment::PublicFringe, false);
                        b.nodes[i].segment = Segment::Platform;
                        b.nodes[i].platform = Some(Platform::Gateway);
                        b.nodes[i].gateway = true;
                        // Pin a single long session: community gateways are
                        // mostly up.
                        b.nodes[i].sessions = vec![Session {
                            up: SimTime::ZERO,
                            down: SimTime::ZERO + cfg.duration,
                            ip_idx: 0,
                            new_identity: None,
                        }];
                        i
                    }
                };
                overlay_nodes.push(idx);
            }
            gateways.push(GatewaySpec {
                host: host.to_string(),
                listed: true,
                functional: true,
                frontend_ips,
                overlay_nodes,
                provider,
                traffic_weight: weight,
            });
        }
        // Remaining functional gateways: small community ones, half
        // non-cloud (the paper notes a commendable non-cloud share).
        let majors_count = gateways.len();
        for g in majors_count..cfg.n_gateways_functional {
            let non_cloud = g % 2 == 0;
            let (frontend_ip, idx) = if non_cloud {
                let i = b.push_residential_node(Segment::PublicFringe, false);
                b.nodes[i].segment = Segment::Platform;
                b.nodes[i].platform = Some(Platform::Gateway);
                b.nodes[i].gateway = true;
                b.nodes[i].sessions = vec![Session {
                    up: SimTime::ZERO,
                    down: SimTime::ZERO + cfg.duration + MEASUREMENT_TAIL,
                    ip_idx: 0,
                    new_identity: None,
                }];
                (b.nodes[i].ips[0], i)
            } else {
                let p_idx = b.pick_provider();
                let i = b.push_cloud_node_at(p_idx, Some(Platform::Gateway), true);
                b.nodes[i].gateway = true;
                (b.nodes[i].ips[0], i)
            };
            gateways.push(GatewaySpec {
                host: format!("gw{g}.community.net"),
                listed: true,
                functional: true,
                frontend_ips: vec![frontend_ip],
                overlay_nodes: vec![idx],
                provider: b.nodes[idx].provider,
                traffic_weight: 0.08 / (cfg.n_gateways_functional - majors_count).max(1) as f64,
            });
        }
        // Listed but dead endpoints (83 − 22 in the paper).
        for g in cfg.n_gateways_functional..cfg.n_gateways_listed {
            let ip = b.res_alloc.alloc().0;
            gateways.push(GatewaySpec {
                host: format!("dead{g}.example.org"),
                listed: true,
                functional: false,
                frontend_ips: vec![ip],
                overlay_nodes: vec![],
                provider: None,
                traffic_weight: 0.0,
            });
        }
    }

    // Hybrid peers: a sliver of publishers announce both a cloud and a
    // non-cloud address (the BOTH label / Fig. 14 hybrid class).
    {
        let n_hybrid = ((cfg.n_cloud + cfg.n_fringe) as f64 * HYBRID_FRACTION) as usize;
        for h in 0..n_hybrid {
            let idx = bootstrap_count + h * 7; // spread over cloud nodes
            if idx < cfg.n_cloud {
                let extra = b.res_alloc.alloc().0;
                b.nodes[idx].extra_addr = Some(extra);
            }
        }
    }

    // --- content catalog ---------------------------------------------------
    let mut content: Vec<ContentItem> = Vec::new();
    let duration_days = (cfg.duration.0 / Dur::DAY.0).max(1);
    // Regular items.
    let by_seg = |nodes: &[NodeSpec], seg: Segment| -> Vec<usize> {
        nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.segment == seg)
            .map(|(i, _)| i)
            .collect()
    };
    let nat_pubs = by_seg(&b.nodes, Segment::NatClient);
    let cloud_pubs = by_seg(&b.nodes, Segment::CloudStable);
    let fringe_pubs = by_seg(&b.nodes, Segment::PublicFringe);
    let n_candidates: Vec<usize> = nat_pubs
        .iter()
        .chain(cloud_pubs.iter())
        .chain(fringe_pubs.iter())
        .copied()
        .collect();
    assert!(!n_candidates.is_empty(), "scenario needs publisher nodes");
    for c in 0..cfg.n_content {
        let cid = Cid::from_seed(SEED_CONTENT + c as u64);
        // Publisher mix: NAT-heavy, per the provider classification target.
        let r = b.rng.random::<f64>();
        let pool = if r < 0.45 && !nat_pubs.is_empty() {
            &nat_pubs
        } else if r < 0.80 && !cloud_pubs.is_empty() {
            &cloud_pubs
        } else if !fringe_pubs.is_empty() {
            &fringe_pubs
        } else {
            &n_candidates
        };
        let publisher = pool[b.rng.random_range(0..pool.len())];
        let mut publishers = vec![publisher];
        if b.rng.random::<f64>() < 0.06 {
            publishers.push(n_candidates[b.rng.random_range(0..n_candidates.len())]);
        }
        // Publish somewhere inside a session of the publisher.
        let sess = &b.nodes[publisher].sessions;
        let publish_at = if sess.is_empty() {
            SimTime::ZERO
        } else {
            let s = &sess[b.rng.random_range(0..sess.len())];
            let span = s.down.0.saturating_sub(s.up.0).max(1);
            SimTime(s.up.0 + b.rng.random_range(0..span))
        };
        let start_day = publish_at.day();
        let span_roll = b.rng.random::<f64>();
        let window_days = if span_roll < 0.55 {
            1
        } else if span_roll < 0.78 {
            2
        } else if span_roll < 0.88 {
            3
        } else {
            b.rng.random_range(4..=duration_days.max(4))
        };
        let weight = 1.0 / ((c + 1) as f64).powf(0.6);
        content.push(ContentItem {
            cid,
            size: 1024 + b.rng.random_range(0..64 * 1024),
            publishers,
            publish_at,
            window: (start_day, (start_day + window_days).min(duration_days)),
            weight,
        });
    }
    // Platform items: persistent, whole-duration window, modest demand.
    let mut platform_items: Vec<usize> = Vec::new();
    for (platform, nodes) in &storage_nodes {
        for c in 0..cfg.platform_cids {
            let cid = Cid::from_seed(
                SEED_CONTENT + (1 << 30) + (*platform as u64) * 10_000_000 + c as u64,
            );
            let publisher = nodes[c % nodes.len()];
            platform_items.push(content.len());
            content.push(ContentItem {
                cid,
                size: 4096 + b.rng.random_range(0..256 * 1024),
                publishers: vec![publisher],
                publish_at: SimTime::ZERO + Dur::from_mins(30 + (c % 600) as u64),
                window: (0, duration_days),
                weight: 0.3,
            });
        }
    }

    // --- per-day active item index (for request sampling) ------------------
    let mut day_items: Vec<Vec<usize>> = vec![Vec::new(); duration_days as usize + 1];
    for (i, item) in content.iter().enumerate() {
        for d in item.window.0..=item.window.1.min(duration_days) {
            day_items[d as usize].push(i);
        }
    }
    let day_cumweights: Vec<Vec<f64>> = day_items
        .iter()
        .map(|items| {
            let mut acc = 0.0;
            items
                .iter()
                .map(|&i| {
                    acc += content[i].weight;
                    acc
                })
                .collect()
        })
        .collect();
    let pick_item = |rng: &mut StdRng, day: usize| -> Option<usize> {
        let items = &day_items[day.min(day_items.len() - 1)];
        let weights = &day_cumweights[day.min(day_cumweights.len() - 1)];
        let total = *weights.last()?;
        let x = rng.random::<f64>() * total;
        let pos = weights.partition_point(|w| *w < x);
        items.get(pos.min(items.len() - 1)).copied()
    };

    // --- requests -----------------------------------------------------------
    // Fetcher pool weighted towards one-shot users: ephemeral ×3,
    // fringe ×2, NAT ×1 (NAT nodes mostly *host*; casual downloads come
    // from short-lived users).
    let mut fetchers: Vec<usize> = Vec::new();
    for (i, n) in b.nodes.iter().enumerate() {
        let copies = match n.segment {
            Segment::Ephemeral => 3,
            Segment::PublicFringe => 2,
            Segment::NatClient => 1,
            _ => 0,
        };
        for _ in 0..copies {
            fetchers.push(i);
        }
    }
    let gw_weights: Vec<f64> = {
        let mut acc = 0.0;
        gateways
            .iter()
            .map(|g| {
                acc += g.traffic_weight;
                acc
            })
            .collect()
    };
    let gw_total: f64 = gateways.iter().map(|g| g.traffic_weight).sum();
    let mut requests: Vec<Request> = Vec::new();
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x5EED);
    for _ in 0..cfg.n_requests {
        if rng.random::<f64>() < HTTP_SHARE {
            // HTTP request through a weighted gateway.
            let at = SimTime(rng.random_range(Dur::from_hours(2).0..cfg.duration.0));
            let Some(item) = pick_item(&mut rng, at.day() as usize) else {
                continue;
            };
            let x = rng.random::<f64>() * gw_total;
            let gw = gw_weights
                .partition_point(|w| *w < x)
                .min(gateways.len() - 1);
            requests.push(Request::Http {
                at,
                client: 0,
                gateway: gw,
                item,
            });
        } else {
            // Direct fetch from inside a fetcher's session.
            let node = fetchers[rng.random_range(0..fetchers.len())];
            let sess = &b.nodes[node].sessions;
            if sess.is_empty() {
                continue;
            }
            let s = &sess[rng.random_range(0..sess.len())];
            if s.down.0 <= s.up.0 + Dur::from_mins(5).0 {
                continue;
            }
            let at = SimTime(rng.random_range(s.up.0 + Dur::from_mins(2).0..s.down.0));
            let Some(item) = pick_item(&mut rng, at.day() as usize) else {
                continue;
            };
            requests.push(Request::Fetch { at, node, item });
        }
    }
    requests.sort_by_key(|r| r.at());

    // --- DNS universe + DNSLink ---------------------------------------------
    let mut dns = DnsZoneDb::new();
    let mut dns_candidates = Vec::with_capacity(cfg.n_domains);
    let tlds = [
        "com", "org", "net", "io", "xyz", "de", "se", "ch", "fr", "app",
    ];
    for d in 0..cfg.n_domains {
        let name = format!("site{d}.{}", tlds[d % tlds.len()]);
        dns_candidates.push(name.clone());
        // 85% of candidate roots are registered.
        if rng.random::<f64>() < 0.85 {
            dns.add(&name, DnsRecord::Soa);
        }
    }
    // Gateway hostnames resolve to their frontends.
    for g in &gateways {
        dns.add(&g.host, DnsRecord::Soa);
        for ip in &g.frontend_ips {
            dns.add(&g.host, DnsRecord::A(*ip));
        }
    }
    // DNSLink deployments over registered domains, with the Fig.-17 gateway
    // mix: cloudflare 50%, non-cloud 20%, amazon 9%, datacamp 5%,
    // google_cloud 4%, rest other cloud. 21% of them point at a *public*
    // gateway host (ALIAS), the rest at dedicated reverse-proxy IPs.
    let mut dnslink_count = 0;
    let mut d = 0;
    while dnslink_count < cfg.n_dnslink && d < cfg.n_domains {
        let name = format!("site{d}.{}", tlds[d % tlds.len()]);
        d += 3; // stride over the universe
        if !dns.exists(&name) {
            continue;
        }
        // 4% broken TXT records (scanner must skip them).
        if rng.random::<f64>() < 0.04 {
            dns.add(
                &format!("_dnslink.{name}"),
                DnsRecord::Txt("dnslink=/ipfs/broken".into()),
            );
            continue;
        }
        let item = &content[rng.random_range(0..content.len())];
        dns.add(
            &format!("_dnslink.{name}"),
            DnsRecord::Txt(format_ipfs_dnslink(&item.cid)),
        );
        if rng.random::<f64>() < 0.21 {
            // Point at a public gateway host.
            let f: Vec<&GatewaySpec> = gateways.iter().filter(|g| g.functional).collect();
            let g = f[rng.random_range(0..f.len())];
            dns.add(&name, DnsRecord::Alias(g.host.clone()));
        } else {
            let roll = rng.random::<f64>();
            let ip = if roll < 0.50 {
                b.cf_alloc.alloc().0
            } else if roll < 0.70 {
                b.res_alloc.alloc().0
            } else if roll < 0.79 {
                let aws = CLOUD_PROVIDERS
                    .iter()
                    .position(|p| p.name == "amazon_aws")
                    .unwrap();
                b.alloc_cloud(aws).0
            } else if roll < 0.84 {
                b.dc_alloc.alloc().0
            } else if roll < 0.88 {
                let gc = CLOUD_PROVIDERS
                    .iter()
                    .position(|p| p.name == "google_cloud")
                    .unwrap();
                b.alloc_cloud(gc).0
            } else {
                let idx = b.pick_provider();
                b.alloc_cloud(idx).0
            };
            dns.add(&name, DnsRecord::A(ip));
        }
        dnslink_count += 1;
    }

    // --- passive DNS over gateway hosts --------------------------------------
    let mut pdns = PassiveDnsFeed::new();
    for g in &gateways {
        for ip in &g.frontend_ips {
            pdns.observe(&g.host, *ip);
        }
        // Anycast views from other vantage points reveal extra addresses.
        if g.provider == Some("cloudflare_inc") {
            for _ in 0..2 {
                pdns.observe(&g.host, b.cf_alloc.alloc().0);
            }
        }
    }

    // --- ENS -----------------------------------------------------------------
    let mut ens_resolvers: Vec<ResolverContract> = (0..16)
        .map(|i| ResolverContract::new(Address::from_seed(9_000 + i)))
        .collect();
    let mut block = 1_000u64;
    for e in 0..cfg.n_ens_records {
        let node = namehash(&format!("dapp{e}.eth"));
        let resolver = e % ens_resolvers.len();
        // 82% of ENS content sits on the cloud storage platforms.
        let item = if rng.random::<f64>() < 0.82 && !platform_items.is_empty() {
            &content[platform_items[rng.random_range(0..platform_items.len())]]
        } else {
            &content[rng.random_range(0..content.len())]
        };
        block += rng.random_range(1..50);
        ens_resolvers[resolver].set_contenthash(node, encode_ipfs(&item.cid), block);
        // Noise: addr changes and non-IPFS namespaces.
        if e % 7 == 0 {
            ens_resolvers[resolver].set_addr(node, Address::from_seed(e as u64), block + 1);
        }
        if e % 23 == 0 {
            let swarm_node = namehash(&format!("swarm{e}.eth"));
            ens_resolvers[resolver].set_contenthash(
                swarm_node,
                encode_other(Namespace::Swarm, &e.to_be_bytes()),
                block + 2,
            );
        }
    }

    // Reverse-DNS records for every host that has one (platform fleets,
    // cloud hosts) — the paper's Fig. 13 attribution source.
    let mut dbs = dbs;
    for n in &b.nodes {
        if let Some(host) = &n.rdns {
            for ip in &n.ips {
                dbs.rdns.insert(*ip, host);
            }
        }
    }

    Scenario {
        cfg,
        dbs,
        nodes: b.nodes,
        content,
        requests,
        gateways,
        dns,
        dns_candidates,
        pdns,
        ens_resolvers,
        bootstrap_count,
    }
}
