//! Group B–D experiments: traffic (Figs. 9–13), content providers
//! (Figs. 14–16) and sim-backed entry points (Figs. 18–20), all over one
//! workload campaign.

use crate::report::{Report, Unit};
use clouddb::IpDatabases;
use ipfs_node::BitswapLogEntry;
use ipfs_types::{Cid, PeerId};
use kademlia::{ProviderRecord, TrafficClass};
use netgen::{ScenarioConfig, PAPER};
use simnet::Dur;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::net::Ipv4Addr;
use tcsb_core::{
    cid_cloud_stats, classify_provider, days_seen_histogram, lorenz_curve, share_of_top, Campaign,
    CampaignOptions, EcoCmd, HydraLogEntry, ProviderClass,
};

const PROBE_SEED: u64 = 0x6A7E_0000_0000;

/// The workload campaign plus everything the probe discovered.
pub struct WorkloadData {
    /// The campaign (still live: provider resolutions advance it).
    pub campaign: Campaign,
    /// Gateway overlay peers discovered by probing: `(gateway idx, peer, ip)`.
    pub overlays: Vec<(usize, PeerId, Ipv4Addr)>,
    /// The Hydra and monitor logs, folded once at the end of the main
    /// campaign (what figs 9–13 read; provider resolutions that later
    /// advance the live campaign are not in it).
    pub traffic: TrafficTally,
    /// Engine counters snapshotted at the end of the main campaign, so the
    /// engine report stays comparable run-over-run no matter how much
    /// extra simulation later figures drive through the live campaign.
    pub engine: simnet::SimStats,
    /// Per-shard budget snapshotted with the counters.
    pub loads: Vec<simnet::ShardLoad>,
    /// Host wall-clock seconds the main campaign (incl. probe) took.
    pub wall_secs: f64,
}

/// Run the full workload campaign, then identify gateway overlay nodes with
/// the unique-content probe (§3 "Gateways").
pub fn run_workload(cfg: ScenarioConfig) -> WorkloadData {
    let scenario = netgen::build(cfg);
    let started = std::time::Instant::now();
    let mut campaign = Campaign::new(scenario, CampaignOptions::default());
    let duration = campaign.scenario.cfg.duration;
    campaign.run_for(duration);
    let overlays = probe_gateways(&mut campaign, 3);
    let wall_secs = started.elapsed().as_secs_f64();
    let heads: HashSet<PeerId> = campaign.hydra_heads().into_iter().collect();
    let traffic = TrafficTally::new(
        &campaign.scenario.dbs,
        &heads,
        &campaign.hydra_log(),
        campaign.monitor_log(),
    );
    WorkloadData {
        engine: campaign.sim.stats(),
        loads: campaign.sim.shard_loads(),
        campaign,
        overlays,
        traffic,
        wall_secs,
    }
}

/// The unique-content probe: publish `rounds` items per functional gateway
/// on the monitor — provably their only provider — then fetch each through
/// its gateway's HTTP side and watch who asks the monitor for it over
/// Bitswap. Returns the distinct `(gateway idx, overlay peer, ip)` found,
/// sorted.
pub fn probe_gateways(campaign: &mut Campaign, rounds: usize) -> Vec<(usize, PeerId, Ipv4Addr)> {
    let probe_cid = |g: usize, r: usize| Cid::from_seed(PROBE_SEED + (g as u64) * 16 + r as u64);
    let gateways = campaign.scenario.gateways.iter().enumerate();
    let probes: Vec<(usize, Cid)> = gateways
        .filter(|(_, g)| g.functional)
        .flat_map(|(g, _)| (0..rounds).map(move |r| (g, probe_cid(g, r))))
        .collect();
    let t0 = campaign.now();
    for (i, &(_, cid)) in probes.iter().enumerate() {
        campaign.sim.schedule_command(
            t0 + Dur::from_secs(2 * i as u64),
            campaign.monitor,
            EcoCmd::Node(ipfs_node::NodeCmd::Publish { cid, size: 1024 }),
        );
    }
    campaign.run_for(Dur::from_mins(10)); // provides settle
    let log_mark = campaign.monitor_log().len();
    let t1 = campaign.now();
    for (i, &(g, cid)) in probes.iter().enumerate() {
        campaign.sim.schedule_command(
            t1 + Dur::from_secs(5 * i as u64),
            campaign.webuser,
            EcoCmd::WebGet {
                frontend: campaign.frontends[g],
                cid,
            },
        );
    }
    campaign.run_for(Dur::from_secs(5 * probes.len() as u64) + Dur::from_mins(6));
    let gateway_of: HashMap<Cid, usize> = probes.into_iter().map(|(g, cid)| (cid, g)).collect();
    // The monitor's own peer id — exclude self-noise.
    let monitor_peer = campaign.sim.actor(campaign.monitor).node().peer_id();
    let mut overlays: BTreeSet<(usize, PeerId, Ipv4Addr)> = BTreeSet::new();
    for e in &campaign.monitor_log()[log_mark..] {
        if e.peer != monitor_peer {
            let hits = e.cids.iter().filter_map(|cid| gateway_of.get(cid));
            overlays.extend(hits.map(|&g| (g, e.peer, *e.addr.ip())));
        }
    }
    overlays.into_iter().collect()
}

/// Engine-health section for the workload campaign.
pub fn engine(data: &WorkloadData) -> Report {
    crate::report::engine_report(
        "engine-workload",
        "Engine counters — workload campaign",
        &data.engine,
        data.wall_secs,
        data.campaign.shards(),
        &data.loads,
    )
}

fn is_cloud(data: &WorkloadData) -> impl Fn(Ipv4Addr) -> bool + '_ {
    let dbs = &data.campaign.scenario.dbs;
    move |ip| dbs.cloud.lookup(ip).is_some()
}

/// `num / den`, or 0 when there is nothing to divide.
fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Share of `ips` for which `pred` holds (0 for an empty set).
fn ip_share(ips: &BTreeSet<Ipv4Addr>, pred: impl Fn(Ipv4Addr) -> bool) -> f64 {
    let hits = ips.iter().filter(|ip| pred(**ip)).count();
    ratio(hits as u64, ips.len() as u64)
}

/// Fig. 13's sending platforms, in match order: Hydra heads (by peer ID),
/// then the first reverse-DNS suffix the sender IP's PTR record ends with,
/// then everyone else.
pub const PLATFORMS: [&str; 9] = [
    "hydra (peer-ID set)",
    "hydra.amazonaws.com",
    "web3.storage",
    "nft.storage",
    "pinata.cloud",
    "ipfs-bank.net",
    "filebase.com",
    "amazonaws.com",
    "unknown",
];
const HYDRA: usize = 0;
const UNKNOWN: usize = PLATFORMS.len() - 1;

/// One log's messages by sender (figs 10–12).
#[derive(Debug, Default)]
pub struct Senders {
    /// Messages per sender peer ID.
    pub peers: BTreeMap<PeerId, u64>,
    /// Messages per sender IP.
    pub ips: BTreeMap<Ipv4Addr, u64>,
    /// Messages sent from cloud IPs.
    pub cloud_msgs: u64,
    /// Distinct sender IPs in the cloud.
    pub cloud_ips: u64,
}

impl Senders {
    fn add(&mut self, peer: PeerId, ip: Ipv4Addr, cloud: bool) {
        *self.peers.entry(peer).or_insert(0) += 1;
        let n = self.ips.entry(ip).or_insert(0);
        self.cloud_ips += (*n == 0 && cloud) as u64;
        *n += 1;
        self.cloud_msgs += cloud as u64;
    }

    /// Messages in the log.
    pub fn msgs(&self) -> u64 {
        self.ips.values().sum()
    }
}

/// The Hydra log's messages of one [`TrafficClass`] (figs 12, 13).
#[derive(Debug, Default)]
pub struct ClassTally {
    /// Messages.
    pub msgs: u64,
    /// Messages sent from cloud IPs.
    pub cloud_msgs: u64,
    /// Distinct sender IPs.
    pub ips: u64,
    /// Distinct sender IPs in the cloud.
    pub cloud_ips: u64,
    /// Messages per sending platform, indexed like [`PLATFORMS`].
    pub platforms: [u64; PLATFORMS.len()],
}

/// Everything figs 9–13 read off the Hydra (DHT) and monitor (Bitswap)
/// logs, folded in one pass over each.
#[derive(Debug, Default)]
pub struct TrafficTally {
    /// Fig. 9: CIDs seen on exactly `d` distinct days, at `[d - 1]`.
    pub cid_days: Vec<u64>,
    /// Fig. 9: the same for sender IPs.
    pub ip_days: Vec<u64>,
    /// Fig. 9: the same for sender peer IDs.
    pub peer_days: Vec<u64>,
    /// The Hydra log by sender.
    pub dht: Senders,
    /// The monitor's Bitswap log by sender.
    pub bitswap: Senders,
    /// The Hydra log per traffic class, indexed by `TrafficClass as usize`.
    pub classes: [ClassTally; 3],
    /// Hydra-log messages sent from AWS IPs.
    pub aws_msgs: u64,
    /// Bitswap-log messages from IPs whose PTR record is ipfs-bank's.
    pub bank_msgs: u64,
}

impl TrafficTally {
    /// Fold the Hydra log `dht` and the monitor log `bitswap`, attributing
    /// senders with `dbs` and the Hydra `heads`' peer IDs.
    pub fn new(
        dbs: &IpDatabases,
        heads: &HashSet<PeerId>,
        dht: &[HydraLogEntry],
        bitswap: &[BitswapLogEntry],
    ) -> TrafficTally {
        let aws = dbs.cloud.id_of("amazon_aws");
        let mut t = TrafficTally::default();
        let (mut cid_days, mut ip_days, mut peer_days) = (Vec::new(), Vec::new(), Vec::new());
        let mut class_ips: [HashSet<Ipv4Addr>; 3] = Default::default();
        for e in dht {
            let ip = *e.addr.ip();
            let day = e.ts_ns / Dur::DAY.0;
            cid_days.extend(e.cid.map(|c| (c, day)));
            ip_days.push((ip, day));
            peer_days.push((e.peer, day));
            let provider = dbs.cloud.lookup(ip);
            let cloud = provider.is_some();
            t.dht.add(e.peer, ip, cloud);
            t.aws_msgs += (cloud && provider == aws) as u64;
            let platform = if heads.contains(&e.peer) {
                HYDRA
            } else {
                let host = dbs.rdns.lookup(ip).unwrap_or("");
                let suffix = PLATFORMS[1..UNKNOWN].iter().position(|s| host.ends_with(s));
                suffix.map_or(UNKNOWN, |i| i + 1)
            };
            let c = &mut t.classes[e.class as usize];
            c.msgs += 1;
            c.cloud_msgs += cloud as u64;
            if class_ips[e.class as usize].insert(ip) {
                c.ips += 1;
                c.cloud_ips += cloud as u64;
            }
            c.platforms[platform] += 1;
        }
        for e in bitswap {
            let ip = *e.addr.ip();
            t.bitswap.add(e.peer, ip, dbs.cloud.lookup(ip).is_some());
            let host = dbs.rdns.lookup(ip).unwrap_or("");
            t.bank_msgs += host.ends_with("ipfs-bank.net") as u64;
        }
        t.cid_days = days_seen_histogram(cid_days);
        t.ip_days = days_seen_histogram(ip_days);
        t.peer_days = days_seen_histogram(peer_days);
        t
    }

    /// The Hydra log's messages of `class`.
    pub fn class(&self, class: TrafficClass) -> &ClassTally {
        &self.classes[class as usize]
    }
}

/// Fig. 9: request frequency per identifier, in days seen.
pub fn fig09(data: &WorkloadData) -> Report {
    let t = &data.traffic;
    let upto3 = |h: &[u64]| ratio(h.iter().take(3).sum(), h.iter().sum());
    let mut r = Report::new("fig09", "Request frequency per identifier (days seen)");
    r.val("hydra log entries", t.dht.msgs() as f64, Unit::Count);
    r.val("CIDs seen ≤3 days", upto3(&t.cid_days), Unit::Pct);
    r.val("IPs seen ≤3 days", upto3(&t.ip_days), Unit::Pct);
    r.val("peer IDs seen ≤3 days", upto3(&t.peer_days), Unit::Pct);
    r.note("Paper: the vast majority of CIDs are requested on only 1–3 distinct days (file-transfer usage), and most IPs/peer IDs are short-lived too.");
    r.note(format!(
        "CID days-seen histogram head: {:?}",
        &t.cid_days[..t.cid_days.len().min(6)]
    ));
    r
}

/// Fig. 10: peer-ID concentration with gateway attribution.
pub fn fig10(data: &WorkloadData) -> Report {
    let t = &data.traffic;
    let gw_peers: HashSet<PeerId> = data.overlays.iter().map(|(_, p, _)| *p).collect();
    let from_gateways = |s: &Senders| {
        let hit = s.peers.iter().filter(|(p, _)| gw_peers.contains(p));
        ratio(hit.map(|(_, c)| *c).sum(), s.msgs())
    };
    let mut r = Report::new(
        "fig10",
        "DHT/Bitswap peer-ID concentration (simplified Pareto)",
    );
    r.cmp(
        "DHT: top-5% peer IDs traffic share",
        PAPER.top5pct_peer_traffic,
        share_of_top(&lorenz_curve(&t.dht.peers), 0.05),
        Unit::Pct,
    );
    r.val(
        "Bitswap: top-5% peer IDs traffic share",
        share_of_top(&lorenz_curve(&t.bitswap.peers), 0.05),
        Unit::Pct,
    );
    r.val(
        "DHT traffic from gateway peers (paper ≈1%)",
        from_gateways(&t.dht),
        Unit::Pct,
    );
    r.val(
        "Bitswap traffic from gateway peers (paper ≈18%)",
        from_gateways(&t.bitswap),
        Unit::Pct,
    );
    r.note("Gateways satisfy most requests over Bitswap relationships and barely touch the DHT — their share must be far higher in the Bitswap log than in the DHT log.");
    r
}

/// Fig. 11: IP concentration with cloud attribution.
pub fn fig11(data: &WorkloadData) -> Report {
    let t = &data.traffic;
    let mut r = Report::new("fig11", "DHT/Bitswap IP concentration and cloud share");
    r.cmp(
        "DHT: top-5% IPs traffic share",
        PAPER.top5pct_ip_traffic,
        share_of_top(&lorenz_curve(&t.dht.ips), 0.05),
        Unit::Pct,
    );
    r.cmp(
        "DHT traffic from cloud IPs",
        PAPER.dht_cloud_traffic,
        ratio(t.dht.cloud_msgs, t.dht.msgs()),
        Unit::Pct,
    );
    r.cmp(
        "Bitswap traffic from cloud IPs",
        PAPER.bitswap_cloud_traffic,
        ratio(t.bitswap.cloud_msgs, t.bitswap.msgs()),
        Unit::Pct,
    );
    r.note("Cloud nodes dominate DHT traffic far more than Bitswap traffic (hydra amplification + platform reproviding live on the DHT).");
    r
}

/// Fig. 12: cloud share per traffic type, by IP count and by volume.
pub fn fig12(data: &WorkloadData) -> Report {
    let t = &data.traffic;
    let total = t.dht.msgs();
    let dl = t.class(TrafficClass::Download);
    let adv = t.class(TrafficClass::Advertise);
    let mut r = Report::new("fig12", "Cloud per traffic type (IP count vs volume)");
    r.cmp(
        "cloud share of distinct IPs",
        PAPER.traffic_cloud_ip_share,
        ratio(t.dht.cloud_ips, t.dht.ips.len() as u64),
        Unit::Pct,
    );
    r.cmp(
        "cloud share of download-IPs",
        PAPER.download_ip_cloud_share,
        ratio(dl.cloud_ips, dl.ips),
        Unit::Pct,
    );
    r.cmp(
        "cloud share of advertise-IPs",
        PAPER.advertise_ip_cloud_share,
        ratio(adv.cloud_ips, adv.ips),
        Unit::Pct,
    );
    r.cmp(
        "cloud share of messages (volume)",
        PAPER.traffic_cloud_msg_share,
        ratio(t.dht.cloud_msgs, total),
        Unit::Pct,
    );
    r.cmp(
        "cloud share of download messages",
        PAPER.download_msg_cloud_share,
        ratio(dl.cloud_msgs, dl.msgs),
        Unit::Pct,
    );
    r.cmp(
        "AWS share of messages",
        PAPER.aws_msg_share,
        ratio(t.aws_msgs, total),
        Unit::Pct,
    );
    // Traffic class mix (§5 headline).
    r.cmp(
        "download share of DHT messages",
        PAPER.traffic_download_share,
        ratio(dl.msgs, total),
        Unit::Pct,
    );
    r.cmp(
        "advertise share of DHT messages",
        PAPER.traffic_advertise_share,
        ratio(adv.msgs, total),
        Unit::Pct,
    );
    r.cmp(
        "other share of DHT messages",
        PAPER.traffic_other_share,
        ratio(t.class(TrafficClass::Other).msgs, total),
        Unit::Pct,
    );
    r
}

/// Fig. 13: platforms behind the traffic, via reverse DNS + the hydra
/// peer-ID set.
pub fn fig13(data: &WorkloadData) -> Report {
    let t = &data.traffic;
    let dl = t.class(TrafficClass::Download);
    let adv = t.class(TrafficClass::Advertise);
    let share = |c: &ClassTally, platform: &str| {
        let i = PLATFORMS.iter().position(|p| *p == platform);
        ratio(c.platforms[i.expect("one of PLATFORMS")], c.msgs)
    };
    let hydra: u64 = t.classes.iter().map(|c| c.platforms[HYDRA]).sum();
    let mut r = Report::new("fig13", "Platforms generating traffic (reverse DNS)");
    r.cmp(
        "hydra share of DHT traffic",
        PAPER.hydra_dht_share,
        ratio(hydra, t.dht.msgs()),
        Unit::Pct,
    );
    r.cmp(
        "hydra share of download traffic",
        PAPER.hydra_download_share,
        ratio(dl.platforms[HYDRA], dl.msgs),
        Unit::Pct,
    );
    let storage_adv =
        share(adv, "web3.storage") + share(adv, "nft.storage") + share(adv, "pinata.cloud");
    r.val(
        "storage platforms' share of advertise traffic",
        storage_adv,
        Unit::Pct,
    );
    r.val(
        "ipfs-bank share of Bitswap traffic",
        ratio(t.bank_msgs, t.bitswap.msgs()),
        Unit::Pct,
    );
    r.note("Paper: Hydras dominate DHT download traffic (proactive cache-fill), storage platforms dominate advertisement, the ipfs-bank gateway platform dominates Bitswap.");
    r.note("Hydra advertise share must be ≈0 — hydras never advertise content.");
    r.cmp(
        "hydra share of advertise traffic",
        0.0,
        ratio(adv.platforms[HYDRA], adv.msgs),
        Unit::Pct,
    );
    r
}

/// Provider-record dataset: sample CIDs from the monitor's Bitswap log and
/// resolve them exhaustively (the §3 "Provider Records" pipeline).
pub struct ProviderDataset {
    /// `(cid, reachable records, contacted)` per sampled CID.
    pub resolved: Vec<(Cid, Vec<ProviderRecord>, usize)>,
    /// Total records before the reachability filter.
    pub raw_records: usize,
}

/// Build the provider dataset (mutates the campaign clock).
pub fn collect_providers(data: &mut WorkloadData, max_cids: usize) -> ProviderDataset {
    // Daily-sampled CIDs from the monitor traces. The paper resolved each
    // day's CIDs the same day; we sample from the most recent day so the
    // records are still fresh at resolution time.
    let log = data.campaign.monitor_log();
    let last_ts = log.last().map_or(0, |e| e.ts.0);
    let cutoff = last_ts.saturating_sub(Dur::DAY.0);
    // Our own probe CIDs are not part of the sample.
    let probe: HashSet<Cid> = (0..4096u64)
        .map(|i| Cid::from_seed(PROBE_SEED + i))
        .collect();
    let seen: BTreeSet<Cid> = log
        .iter()
        .filter(|e| e.ts.0 >= cutoff)
        .flat_map(|e| e.cids.iter().copied())
        .filter(|c| !probe.contains(c))
        .collect();
    let cids: Vec<Cid> = seen.into_iter().take(max_cids).collect();
    let mut resolved = data
        .campaign
        .resolve_providers(&cids, true, Dur::from_secs(6));
    let raw_records = resolved.iter().map(|(_, r, _)| r.len()).sum();
    for (_, recs, _) in &mut resolved {
        recs.retain(|r| data.campaign.record_reachable(r));
    }
    ProviderDataset {
        resolved,
        raw_records,
    }
}

/// Every provider peer of the dataset with its class and all its records
/// (figs 14, 15).
fn providers<'a>(
    data: &WorkloadData,
    ds: &'a ProviderDataset,
) -> BTreeMap<PeerId, (ProviderClass, Vec<&'a ProviderRecord>)> {
    let mut by_provider: BTreeMap<PeerId, Vec<&ProviderRecord>> = BTreeMap::new();
    for r in ds.resolved.iter().flat_map(|(_, recs, _)| recs) {
        by_provider.entry(r.provider).or_default().push(r);
    }
    let cloud = is_cloud(data);
    by_provider
        .into_iter()
        .map(|(peer, recs)| (peer, (classify_provider(&recs, &cloud), recs)))
        .collect()
}

/// Fig. 14: classification of providers + relay usage of NAT-ed providers.
pub fn fig14(data: &WorkloadData, ds: &ProviderDataset) -> Report {
    let cloud = is_cloud(data);
    let providers = providers(data, ds);
    let mut counts = [0u64; 4];
    let mut nat_relay_cloud = 0u64;
    let mut nat_relay_total = 0u64;
    for (class, recs) in providers.values() {
        counts[*class as usize] += 1;
        if *class == ProviderClass::Nat {
            let addrs = recs.iter().flat_map(|rec| rec.addrs.iter());
            for relay_ip in addrs.filter(|a| a.is_circuit()).filter_map(|a| a.ip4()) {
                nat_relay_total += 1;
                nat_relay_cloud += cloud(relay_ip) as u64;
            }
        }
    }
    let total = providers.len() as u64;
    let share = |c: ProviderClass| ratio(counts[c as usize], total);
    let mut r = Report::new("fig14", "Classification of content providers");
    r.val("sampled CIDs", ds.resolved.len() as f64, Unit::Count);
    r.val("unique providers", total as f64, Unit::Count);
    r.cmp(
        "NAT-ed provider share",
        PAPER.providers_nat_share,
        share(ProviderClass::Nat),
        Unit::Pct,
    );
    r.cmp(
        "cloud provider share",
        PAPER.providers_cloud_share,
        share(ProviderClass::Cloud),
        Unit::Pct,
    );
    r.cmp(
        "non-cloud provider share",
        PAPER.providers_noncloud_share,
        share(ProviderClass::NonCloud),
        Unit::Pct,
    );
    r.cmp(
        "hybrid provider share",
        PAPER.providers_hybrid_share,
        share(ProviderClass::Hybrid),
        Unit::Pct,
    );
    r.cmp(
        "NAT-ed providers using a cloud relay",
        PAPER.nat_cloud_relay_share,
        ratio(nat_relay_cloud, nat_relay_total),
        Unit::Pct,
    );
    r
}

/// Fig. 15: provider popularity (records per provider peer).
pub fn fig15(data: &WorkloadData, ds: &ProviderDataset) -> Report {
    let providers = providers(data, ds);
    // Records per provider, and the class split of the records themselves.
    let mut appearances: BTreeMap<PeerId, u64> = BTreeMap::new();
    let mut class_records = [0u64; 4];
    for (peer, (class, recs)) in &providers {
        appearances.insert(*peer, recs.len() as u64);
        class_records[*class as usize] += recs.len() as u64;
    }
    let curve = lorenz_curve(&appearances);
    let total_records: u64 = appearances.values().sum();
    let rec_share = |c: ProviderClass| ratio(class_records[c as usize], total_records);
    let mut r = Report::new(
        "fig15",
        "Provider popularity (simplified Pareto of records)",
    );
    r.cmp(
        "records covered by top-1% providers",
        PAPER.top1pct_provider_record_share,
        share_of_top(&curve, 0.01),
        Unit::Pct,
    );
    r.val(
        "record share of cloud providers (paper ≈70% of popular)",
        rec_share(ProviderClass::Cloud),
        Unit::Pct,
    );
    r.cmp(
        "record share of NAT-ed providers",
        PAPER.providers_nat_record_share,
        rec_share(ProviderClass::Nat),
        Unit::Pct,
    );
    r.cmp(
        "record share of non-cloud providers",
        PAPER.providers_noncloud_record_share,
        rec_share(ProviderClass::NonCloud),
        Unit::Pct,
    );
    r
}

/// Fig. 16: CIDs classified by the cloudness of their provider sets.
pub fn fig16(data: &WorkloadData, ds: &ProviderDataset) -> Report {
    let cloud = is_cloud(data);
    let per_cid: Vec<(Cid, Vec<&ProviderRecord>)> = ds
        .resolved
        .iter()
        .map(|(cid, recs, _)| (*cid, recs.iter().collect()))
        .collect();
    let s = cid_cloud_stats(&per_cid, &cloud);
    let mut r = Report::new("fig16", "CIDs classified by their providers");
    r.val("CIDs with ≥1 provider record", s.total as f64, Unit::Count);
    r.cmp(
        "≥1 cloud provider",
        PAPER.cids_any_cloud,
        s.any_cloud,
        Unit::Pct,
    );
    r.cmp(
        "≥50% cloud providers",
        PAPER.cids_majority_cloud,
        s.majority_cloud,
        Unit::Pct,
    );
    r.cmp(
        "only cloud providers",
        PAPER.cids_all_cloud,
        s.all_cloud,
        Unit::Pct,
    );
    r.cmp(
        "≥1 non-cloud provider (alternate reading)",
        PAPER.cids_any_noncloud,
        s.any_noncloud,
        Unit::Pct,
    );
    r
}

/// Figs. 18+19: gateway frontend vs overlay addresses, by provider and
/// country.
pub fn fig18_19(data: &WorkloadData) -> (Report, Report) {
    let dbs = &data.campaign.scenario.dbs;
    // Frontend IPs: passive DNS + active resolution over gateway hosts.
    let mut frontend_ips: BTreeSet<Ipv4Addr> = BTreeSet::new();
    for g in &data.campaign.scenario.gateways {
        frontend_ips.extend(data.campaign.scenario.pdns.ips_for(&g.host));
        frontend_ips.extend(data.campaign.scenario.dns.resolve_a(&g.host));
    }
    let overlay_ips: BTreeSet<Ipv4Addr> = data.overlays.iter().map(|(_, _, ip)| *ip).collect();
    let provider = |ip| dbs.cloud.lookup(ip).map(|id| dbs.cloud.name(id));
    let cloudflare = |ip| provider(ip) == Some("cloudflare_inc");
    let noncloud = |ip| provider(ip).is_none();
    let in_country =
        |cc: &'static str| move |ip| dbs.geo.lookup(ip).is_some_and(|c| c.as_str() == cc);
    let mut r18 = Report::new("fig18", "Gateway frontend/overlay IPs by cloud provider");
    r18.val("frontend IPs", frontend_ips.len() as f64, Unit::Count);
    r18.val(
        "overlay IPs (probe-discovered)",
        overlay_ips.len() as f64,
        Unit::Count,
    );
    for (side, ips) in [("frontends", &frontend_ips), ("overlays", &overlay_ips)] {
        r18.val(
            &format!("{side}: cloudflare share"),
            ip_share(ips, cloudflare),
            Unit::Pct,
        );
        r18.val(
            &format!("{side}: non-cloud share"),
            ip_share(ips, noncloud),
            Unit::Pct,
        );
    }
    let discovered_gateways: BTreeSet<usize> = data.overlays.iter().map(|(g, _, _)| *g).collect();
    let unique_overlay_ids: BTreeSet<PeerId> = data.overlays.iter().map(|(_, p, _)| *p).collect();
    r18.cmp(
        "functional gateways discovered",
        PAPER.gateways_functional as f64,
        discovered_gateways.len() as f64,
        Unit::Count,
    );
    r18.val(
        "unique overlay peer IDs (paper: 119)",
        unique_overlay_ids.len() as f64,
        Unit::Count,
    );
    r18.note("Cloudflare dominates both sides; a commendable non-cloud share remains (community gateways).");

    let mut r19 = Report::new("fig19", "Gateway frontend/overlay IPs by geolocation");
    for cc in ["US", "DE", "NL"] {
        r19.val(
            &format!("frontends in {cc}"),
            ip_share(&frontend_ips, in_country(cc)),
            Unit::Pct,
        );
    }
    for cc in ["US", "DE"] {
        r19.val(
            &format!("overlays in {cc}"),
            ip_share(&overlay_ips, in_country(cc)),
            Unit::Pct,
        );
    }
    r19.note("Paper: US and DE dominate; NL shows up on the frontend side (anycast vantage).");
    (r18, r19)
}

/// Fig. 20: ENS-referenced content — providers and geolocation.
pub fn fig20(data: &mut WorkloadData, max_cids: usize) -> Report {
    let (records, stats) = ens::extract_ipfs_records(&data.campaign.scenario.ens_resolvers, 1000);
    let sample: Vec<Cid> = records.iter().map(|r| r.cid).take(max_cids).collect();
    let resolved = data
        .campaign
        .resolve_providers(&sample, false, Dur::from_secs(6));
    let dbs = &data.campaign.scenario.dbs;
    let mut ips: BTreeSet<Ipv4Addr> = BTreeSet::new();
    let mut resolved_with_providers = 0usize;
    for (_, recs, _) in &resolved {
        if !recs.is_empty() {
            resolved_with_providers += 1;
        }
        for r in recs {
            ips.extend(r.addrs.iter().filter_map(|a| a.ip4()));
        }
    }
    let cloud_share = ip_share(&ips, |ip| dbs.cloud.lookup(ip).is_some());
    let us_de = ip_share(&ips, |ip| {
        let cc = dbs.geo.lookup(ip);
        cc.is_some_and(|c| c.as_str() == "US" || c.as_str() == "DE")
    });
    let mut r = Report::new(
        "fig20",
        "ENS-referenced IPFS content: providers and geolocation",
    );
    r.val(
        "ENS ipfs_ns records extracted",
        stats.domains as f64,
        Unit::Count,
    );
    r.val("sampled CIDs resolved", resolved.len() as f64, Unit::Count);
    r.val(
        "  with ≥1 provider record",
        resolved_with_providers as f64,
        Unit::Count,
    );
    r.val("unique provider IPs", ips.len() as f64, Unit::Count);
    r.cmp(
        "cloud share of ENS content providers",
        PAPER.ens_cloud_share,
        cloud_share,
        Unit::Pct,
    );
    r.cmp(
        "US+DE share of ENS content",
        PAPER.ens_us_de_share,
        us_de,
        Unit::Pct,
    );
    r.note("The blockchain-side name registry is decentralized; the referenced bytes sit on a handful of cloud storage platforms (choopa/vultr/contabo in our plan).");
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::SimTime;
    use std::net::SocketAddrV4;

    fn addr(last: u8) -> SocketAddrV4 {
        SocketAddrV4::new(Ipv4Addr::new(10, 0, 0, last), 4001)
    }

    fn hydra(day: u64, peer: u64, ip: u8, class: TrafficClass, cid: Option<u64>) -> HydraLogEntry {
        HydraLogEntry {
            ts_ns: day * Dur::DAY.0 + 1,
            peer: PeerId::from_seed(peer),
            addr: addr(ip),
            class,
            target: None,
            cid: cid.map(Cid::from_seed),
        }
    }

    fn monitor(peer: u64, ip: u8) -> BitswapLogEntry {
        BitswapLogEntry {
            ts: SimTime(1),
            peer: PeerId::from_seed(peer),
            addr: addr(ip),
            cids: vec![Cid::from_seed(9)],
            want_block: false,
        }
    }

    #[test]
    fn tally_folds_both_logs_once() {
        use TrafficClass::{Advertise, Download, Other};
        // Peer 1 is the only Hydra head; no IP is in the (empty) databases.
        let heads: HashSet<PeerId> = [PeerId::from_seed(1)].into_iter().collect();
        let dht = [
            hydra(0, 1, 1, Download, Some(100)),
            hydra(0, 2, 2, Download, Some(100)),
            hydra(1, 2, 2, Advertise, Some(200)),
            hydra(1, 3, 3, Other, None),
            hydra(2, 2, 2, Download, Some(100)),
            hydra(2, 3, 4, Other, None),
        ];
        let bitswap = [monitor(2, 2), monitor(4, 5), monitor(4, 5)];
        let t = TrafficTally::new(&IpDatabases::default(), &heads, &dht, &bitswap);

        // Per class: messages, distinct IPs and platforms.
        let dl = t.class(Download);
        assert_eq!((dl.msgs, dl.ips, dl.cloud_msgs, dl.cloud_ips), (3, 2, 0, 0));
        assert_eq!((dl.platforms[HYDRA], dl.platforms[UNKNOWN]), (1, 2));
        let adv = t.class(Advertise);
        assert_eq!((adv.msgs, adv.ips, adv.platforms[HYDRA]), (1, 1, 0));
        let other = t.class(Other);
        assert_eq!((other.msgs, other.ips, other.platforms[UNKNOWN]), (2, 2, 2));
        assert_eq!((t.aws_msgs, t.bank_msgs), (0, 0));

        // Days seen: CID 100 on days {0, 2}, CID 200 on day 1; IP .2 on
        // three days, the other three IPs on one; peers on 1, 3 and 2.
        assert_eq!(t.cid_days, vec![1, 1]);
        assert_eq!(t.ip_days, vec![3, 0, 1]);
        assert_eq!(t.peer_days, vec![1, 1, 1]);

        // Messages per sender on both logs.
        let p = PeerId::from_seed;
        let ip = |last| Ipv4Addr::new(10, 0, 0, last);
        assert_eq!(
            t.dht.peers,
            BTreeMap::from([(p(1), 1), (p(2), 3), (p(3), 2)])
        );
        let dht_ips = BTreeMap::from([(ip(1), 1), (ip(2), 3), (ip(3), 1), (ip(4), 1)]);
        assert_eq!((&t.dht.ips, t.dht.msgs()), (&dht_ips, 6));
        assert_eq!(t.bitswap.peers, BTreeMap::from([(p(2), 1), (p(4), 2)]));
        assert_eq!(t.bitswap.ips, BTreeMap::from([(ip(2), 1), (ip(5), 2)]));
        assert_eq!((t.bitswap.msgs(), t.bitswap.cloud_msgs), (3, 0));
    }
}
