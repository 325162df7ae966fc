//! Scenario presets and the paper's published numbers.
//!
//! [`PaperTargets`] collects every quantitative claim the experiments
//! compare against; EXPERIMENTS.md is generated from these side-by-side
//! with measured values.

use crate::scenario::ScenarioConfig;
use simnet::Dur;

impl ScenarioConfig {
    /// Test-sized scenario: seconds to build and simulate.
    pub fn tiny(seed: u64) -> ScenarioConfig {
        ScenarioConfig {
            seed,
            duration: Dur::from_hours(4 * 24),
            n_cloud: 130,
            n_fringe: 160,
            n_nat: 90,
            n_ephemeral: 50,
            n_content: 400,
            n_requests: 2_500,
            platform_cids: 60,
            platform_nodes: 2,
            hydra_hosts: 1,
            n_gateways_listed: 14,
            n_gateways_functional: 9,
            n_domains: 3_000,
            n_dnslink: 150,
            n_ens_records: 400,
            conn_floor: 20,
            interventions: vec![],
            shards: 0,
        }
    }

    /// Default `repro` scale: a couple of minutes of wall time in release
    /// mode while preserving every distributional shape.
    pub fn small(seed: u64) -> ScenarioConfig {
        ScenarioConfig {
            seed,
            duration: Dur::from_hours(8 * 24),
            n_cloud: 480,
            n_fringe: 460,
            n_nat: 320,
            n_ephemeral: 170,
            n_content: 4_500,
            n_requests: 16_000,
            platform_cids: 260,
            platform_nodes: 3,
            hydra_hosts: 2,
            n_gateways_listed: 83,
            n_gateways_functional: 22,
            n_domains: 30_000,
            n_dnslink: 900,
            n_ens_records: 4_000,
            conn_floor: 30,
            interventions: vec![],
            shards: 0,
        }
    }

    /// The default experiment scale: minutes of wall time, thousands of
    /// nodes — large enough for every distributional shape in the paper.
    pub fn quick(seed: u64) -> ScenarioConfig {
        ScenarioConfig {
            seed,
            duration: Dur::from_hours(14 * 24),
            n_cloud: 1_450,
            n_fringe: 1_400,
            n_nat: 950,
            n_ephemeral: 550,
            n_content: 18_000,
            n_requests: 80_000,
            platform_cids: 1_200,
            platform_nodes: 4,
            hydra_hosts: 2,
            n_gateways_listed: 83,
            n_gateways_functional: 22,
            n_domains: 120_000,
            n_dnslink: 2_500,
            n_ens_records: 20_600,
            conn_floor: 40,
            interventions: vec![],
            shards: 0,
        }
    }

    /// Scheduler stress preset: the event-rate torture test. Mid-size
    /// population but double-length campaign, dense connection floors and a
    /// heavy request load — the configuration whose queue pressure the old
    /// global binary-heap scheduler could not sustain in reasonable time.
    /// Sized so `repro all --scale stress` finishes in minutes on the
    /// timer-wheel engine.
    pub fn stress(seed: u64) -> ScenarioConfig {
        ScenarioConfig {
            seed,
            duration: Dur::from_hours(21 * 24),
            n_cloud: 2_600,
            n_fringe: 2_500,
            n_nat: 1_700,
            n_ephemeral: 1_000,
            n_content: 40_000,
            n_requests: 220_000,
            platform_cids: 2_400,
            platform_nodes: 5,
            hydra_hosts: 3,
            n_gateways_listed: 83,
            n_gateways_functional: 22,
            n_domains: 200_000,
            n_dnslink: 5_000,
            n_ens_records: 20_600,
            conn_floor: 60,
            interventions: vec![],
            shards: 0,
        }
    }

    /// Paper-scale reproduction (tens of minutes; opt-in via `--paper`).
    pub fn paper(seed: u64) -> ScenarioConfig {
        ScenarioConfig {
            seed,
            duration: Dur::from_hours(38 * 24),
            n_cloud: 15_000,
            n_fringe: 15_500,
            n_nat: 11_000,
            n_ephemeral: 7_000,
            n_content: 200_000,
            n_requests: 900_000,
            platform_cids: 8_000,
            platform_nodes: 6,
            hydra_hosts: 3,
            n_gateways_listed: 83,
            n_gateways_functional: 22,
            n_domains: 2_000_000,
            n_dnslink: 30_000,
            n_ens_records: 20_600,
            conn_floor: 60,
            interventions: vec![],
            shards: 0,
        }
    }

    /// Internet-scale preset: one million nodes over three virtual days —
    /// the population the paper actually measured (~50k DHT servers plus an
    /// order of magnitude more clients behind NAT, Trautwein et al.'s scale
    /// targets). Opt-in like [`ScenarioConfig::paper`] and gated behind the
    /// nightly workflow: it exists to exercise the struct-of-arrays engine
    /// layout (replica columns stay 8 B/node/shard regardless of
    /// population), so the workload is deliberately lean — topology, churn
    /// and crawls dominate, not content traffic.
    pub fn internet(seed: u64) -> ScenarioConfig {
        ScenarioConfig {
            seed,
            duration: Dur::from_hours(3 * 24),
            n_cloud: 28_000,
            n_fringe: 27_000,
            n_nat: 600_000,
            n_ephemeral: 345_000,
            n_content: 20_000,
            n_requests: 50_000,
            platform_cids: 8_000,
            platform_nodes: 6,
            hydra_hosts: 3,
            n_gateways_listed: 83,
            n_gateways_functional: 22,
            n_domains: 200_000,
            n_dnslink: 5_000,
            n_ens_records: 20_600,
            conn_floor: 20,
            interventions: vec![],
            shards: 0,
        }
    }
}

/// Every quantitative target from the paper, keyed by figure/table.
#[derive(Clone, Copy, Debug)]
pub struct PaperTargets {
    // §3/§4 dataset statistics
    /// Average peers discovered per crawl.
    pub peers_per_crawl: f64,
    /// Average crawlable (connectable) peers per crawl.
    pub crawlable_per_crawl: f64,
    /// Unique peer IDs over all crawls.
    pub unique_peer_ids: f64,
    /// Unique non-local IPs over all crawls (G-IP).
    pub unique_ips: f64,
    /// Average advertised non-local IPs per peer.
    pub ips_per_peer: f64,
    /// Number of crawls.
    pub crawls: usize,
    // Fig. 3
    /// Cloud share of DHT servers, A-N methodology.
    pub cloud_share_an: f64,
    /// Non-cloud share, A-N.
    pub noncloud_share_an: f64,
    /// Cloud share, G-IP methodology (the flip).
    pub cloud_share_gip: f64,
    // Fig. 5
    /// Top provider (choopa) share, A-N.
    pub choopa_share_an: f64,
    /// Top-3 provider share, A-N.
    pub top3_provider_share_an: f64,
    /// choopa share under G-IP.
    pub choopa_share_gip: f64,
    // Fig. 6
    /// US share, A-N.
    pub us_share_an: f64,
    /// DE share, A-N.
    pub de_share_an: f64,
    /// KR share, A-N.
    pub kr_share_an: f64,
    /// US share, G-IP.
    pub us_share_gip: f64,
    /// CN share, G-IP (absent from the A-N top ranks).
    pub cn_share_gip: f64,
    // Fig. 7
    /// 90th-percentile in-degree bound.
    pub in_degree_p90_max: f64,
    /// Filebase-agent nodes among the top-10 in-degree nodes (Fig. 7).
    pub top10_in_degree_filebase: f64,
    /// Cloud-hosted nodes among the top-10 in-degree nodes (Fig. 7).
    pub top10_in_degree_cloud: f64,
    // Fig. 8
    /// Largest-component share after removing 90% of nodes randomly.
    pub random_removal_90_lcc: f64,
    /// Targeted removal fraction at which the network fully partitions.
    pub targeted_partition_fraction: f64,
    // §5 traffic
    /// Download share of DHT messages.
    pub traffic_download_share: f64,
    /// Advertise share.
    pub traffic_advertise_share: f64,
    /// Other share.
    pub traffic_other_share: f64,
    /// Hydra capture rate of total DHT traffic (~4%).
    pub hydra_capture_rate: f64,
    /// Average nodes contacted per DHT query.
    pub nodes_per_query: f64,
    // Fig. 10/11
    /// Traffic share of the top-5% peer IDs.
    pub top5pct_peer_traffic: f64,
    /// Traffic share of the top-5% IPs (Fig. 11).
    pub top5pct_ip_traffic: f64,
    /// Cloud share of DHT traffic (messages).
    pub dht_cloud_traffic: f64,
    /// Cloud share of Bitswap traffic.
    pub bitswap_cloud_traffic: f64,
    // Fig. 12
    /// Cloud share of IPs seen in traffic (count-based).
    pub traffic_cloud_ip_share: f64,
    /// Cloud share of messages, traffic-weighted.
    pub traffic_cloud_msg_share: f64,
    /// Cloud share of IPs sending download requests (Fig. 12).
    pub download_ip_cloud_share: f64,
    /// Cloud share of IPs sending advertisements (Fig. 12).
    pub advertise_ip_cloud_share: f64,
    /// Cloud share of download messages (Fig. 12).
    pub download_msg_cloud_share: f64,
    /// AWS share of DHT messages (Fig. 12).
    pub aws_msg_share: f64,
    // Fig. 13
    /// Hydra share of all DHT traffic.
    pub hydra_dht_share: f64,
    /// Hydra share of download traffic.
    pub hydra_download_share: f64,
    // Fig. 14
    /// NAT-ed share of unique providers.
    pub providers_nat_share: f64,
    /// Cloud share of unique providers.
    pub providers_cloud_share: f64,
    /// Non-cloud public share.
    pub providers_noncloud_share: f64,
    /// Hybrid share.
    pub providers_hybrid_share: f64,
    /// Share of NAT-ed providers using a cloud relay.
    pub nat_cloud_relay_share: f64,
    // Fig. 15
    /// Record share covered by the top-1% providers.
    pub top1pct_provider_record_share: f64,
    /// Record share of NAT-ed providers (Fig. 15).
    pub providers_nat_record_share: f64,
    /// Record share of non-cloud providers (Fig. 15).
    pub providers_noncloud_record_share: f64,
    // Fig. 16
    /// CIDs with ≥1 cloud provider.
    pub cids_any_cloud: f64,
    /// CIDs with ≥50% cloud providers.
    pub cids_majority_cloud: f64,
    /// CIDs with only cloud providers.
    pub cids_all_cloud: f64,
    /// CIDs with ≥1 non-cloud provider, the alternate reading (Fig. 16).
    pub cids_any_noncloud: f64,
    // Fig. 17
    /// Cloudflare share of DNSLink gateway IPs.
    pub dnslink_cloudflare_share: f64,
    /// Non-cloud share of DNSLink gateway IPs.
    pub dnslink_noncloud_share: f64,
    /// Share of DNSLink IPs matching public gateway domains.
    pub dnslink_public_gateway_share: f64,
    // Gateways
    /// Listed gateway endpoints.
    pub gateways_listed: usize,
    /// Functional gateways.
    pub gateways_functional: usize,
    /// Unique overlay IDs discovered.
    pub gateway_overlay_ids: usize,
    // Fig. 20
    /// Cloud share of ENS-referenced content providers.
    pub ens_cloud_share: f64,
    /// US+DE share of ENS content.
    pub ens_us_de_share: f64,
    /// ENS ipfs_ns records.
    pub ens_records: usize,
}

/// The published values.
pub const PAPER: PaperTargets = PaperTargets {
    peers_per_crawl: 25_771.6,
    crawlable_per_crawl: 17_991.4,
    unique_peer_ids: 53_898.0,
    unique_ips: 86_064.0,
    ips_per_peer: 1.82,
    crawls: 101,
    cloud_share_an: 0.796,
    noncloud_share_an: 0.186,
    cloud_share_gip: 0.399,
    choopa_share_an: 0.293,
    top3_provider_share_an: 0.519,
    choopa_share_gip: 0.138,
    us_share_an: 0.474,
    de_share_an: 0.137,
    kr_share_an: 0.052,
    us_share_gip: 0.330,
    cn_share_gip: 0.111,
    in_degree_p90_max: 500.0,
    top10_in_degree_filebase: 2.0,
    top10_in_degree_cloud: 10.0,
    random_removal_90_lcc: 0.96,
    targeted_partition_fraction: 0.60,
    traffic_download_share: 0.57,
    traffic_advertise_share: 0.40,
    traffic_other_share: 0.03,
    hydra_capture_rate: 0.04,
    nodes_per_query: 50.0,
    top5pct_peer_traffic: 0.97,
    top5pct_ip_traffic: 0.94,
    dht_cloud_traffic: 0.85,
    bitswap_cloud_traffic: 0.42,
    traffic_cloud_ip_share: 0.35,
    traffic_cloud_msg_share: 0.93,
    download_ip_cloud_share: 0.45,
    advertise_ip_cloud_share: 0.34,
    download_msg_cloud_share: 0.98,
    aws_msg_share: 0.68,
    hydra_dht_share: 0.35,
    hydra_download_share: 0.50,
    providers_nat_share: 0.3557,
    providers_cloud_share: 0.45,
    providers_noncloud_share: 0.18,
    providers_hybrid_share: 0.0058,
    nat_cloud_relay_share: 0.80,
    top1pct_provider_record_share: 0.90,
    providers_nat_record_share: 0.08,
    providers_noncloud_record_share: 0.22,
    cids_any_cloud: 0.95,
    cids_majority_cloud: 0.91,
    cids_all_cloud: 0.23,
    cids_any_noncloud: 0.77,
    dnslink_cloudflare_share: 0.50,
    dnslink_noncloud_share: 0.20,
    dnslink_public_gateway_share: 0.21,
    gateways_listed: 83,
    gateways_functional: 22,
    gateway_overlay_ids: 119,
    ens_cloud_share: 0.82,
    ens_us_de_share: 0.60,
    ens_records: 20_600,
};
