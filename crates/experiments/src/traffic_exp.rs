//! Group B–D experiments: traffic (Figs. 9–13), content providers
//! (Figs. 14–16) and sim-backed entry points (Figs. 18–20), all over one
//! workload campaign.

use crate::report::{Report, Unit};
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
    /// Every Hydra host's request log, merged and time-sorted once at the
    /// end of the main campaign (what figs 9–13 read; provider resolutions
    /// that later advance the live campaign are not in it).
    pub hydra_log: Vec<HydraLogEntry>,
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

    // --- gateway identification probe --------------------------------------
    // Publish one unique item per (gateway, round) on the monitor — we are
    // provably its only provider — then fetch it through the gateway's HTTP
    // side and watch who asks us for it over Bitswap.
    let rounds = 3usize;
    let functional: Vec<usize> = campaign
        .scenario
        .gateways
        .iter()
        .enumerate()
        .filter(|(_, g)| g.functional)
        .map(|(i, _)| i)
        .collect();
    let mut probe_cids: HashMap<Cid, usize> = HashMap::new();
    let t0 = campaign.now();
    for (n, &g) in functional.iter().enumerate() {
        for r in 0..rounds {
            let cid = Cid::from_seed(PROBE_SEED + (g as u64) * 16 + r as u64);
            probe_cids.insert(cid, g);
            campaign.sim.schedule_command(
                t0 + Dur::from_secs(2 * (n * rounds + r) as u64),
                campaign.monitor,
                EcoCmd::Node(ipfs_node::NodeCmd::Publish { cid, size: 1024 }),
            );
        }
    }
    campaign.run_for(Dur::from_mins(10)); // provides settle
    let log_mark = campaign.monitor_log().len();
    let t1 = campaign.now();
    for (n, &g) in functional.iter().enumerate() {
        for r in 0..rounds {
            let cid = Cid::from_seed(PROBE_SEED + (g as u64) * 16 + r as u64);
            campaign.sim.schedule_command(
                t1 + Dur::from_secs(5 * (n * rounds + r) as u64),
                campaign.webuser,
                EcoCmd::WebGet {
                    frontend: campaign.frontends[g],
                    cid,
                },
            );
        }
    }
    campaign.run_for(Dur::from_secs(5 * (functional.len() * rounds) as u64) + Dur::from_mins(6));
    let mut overlays: BTreeSet<(usize, PeerId, Ipv4Addr)> = BTreeSet::new();
    let monitor_peer = {
        // The monitor's own peer id — exclude self-noise.
        campaign.sim.actor(campaign.monitor).node().peer_id()
    };
    for e in &campaign.monitor_log()[log_mark..] {
        for cid in &e.cids {
            if let Some(&g) = probe_cids.get(cid) {
                if e.peer != monitor_peer {
                    overlays.insert((g, e.peer, *e.addr.ip()));
                }
            }
        }
    }
    let engine = campaign.sim.stats();
    let loads = campaign.sim.shard_loads();
    WorkloadData {
        hydra_log: campaign.hydra_log(),
        campaign,
        overlays: overlays.into_iter().collect(),
        engine,
        loads,
        wall_secs: started.elapsed().as_secs_f64(),
    }
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

/// Fig. 9: request frequency per identifier, in days seen.
pub fn fig09(data: &WorkloadData) -> Report {
    let log = &data.hydra_log;
    let day = |ns: u64| ns / Dur::DAY.0;
    let cid_hist = days_seen_histogram(log.iter().filter_map(|e| e.cid.map(|c| (c, day(e.ts_ns)))));
    let ip_hist = days_seen_histogram(log.iter().map(|e| (*e.addr.ip(), day(e.ts_ns))));
    let peer_hist = days_seen_histogram(log.iter().map(|e| (e.peer, day(e.ts_ns))));
    let upto3 = |h: &[u64]| {
        let total: u64 = h.iter().sum();
        let head: u64 = h.iter().take(3).sum();
        if total == 0 {
            0.0
        } else {
            head as f64 / total as f64
        }
    };
    let mut r = Report::new("fig09", "Request frequency per identifier (days seen)");
    r.val("hydra log entries", log.len() as f64, Unit::Count);
    r.val("CIDs seen ≤3 days", upto3(&cid_hist), Unit::Pct);
    r.val("IPs seen ≤3 days", upto3(&ip_hist), Unit::Pct);
    r.val("peer IDs seen ≤3 days", upto3(&peer_hist), Unit::Pct);
    r.note("Paper: the vast majority of CIDs are requested on only 1–3 distinct days (file-transfer usage), and most IPs/peer IDs are short-lived too.");
    r.note(format!(
        "CID days-seen histogram head: {:?}",
        &cid_hist[..cid_hist.len().min(6)]
    ));
    r
}

/// Fig. 10: peer-ID concentration with gateway attribution.
pub fn fig10(data: &WorkloadData) -> Report {
    let dht_counts: BTreeMap<PeerId, u64> = {
        let mut m = BTreeMap::new();
        for e in &data.hydra_log {
            *m.entry(e.peer).or_insert(0) += 1;
        }
        m
    };
    let bs_counts: BTreeMap<PeerId, u64> = {
        let mut m = BTreeMap::new();
        for e in data.campaign.monitor_log() {
            *m.entry(e.peer).or_insert(0) += 1;
        }
        m
    };
    let gw_peers: HashSet<PeerId> = data.overlays.iter().map(|(_, p, _)| *p).collect();
    let share_from = |m: &BTreeMap<PeerId, u64>, set: &HashSet<PeerId>| {
        let total: u64 = m.values().sum();
        let hit: u64 = m
            .iter()
            .filter(|(p, _)| set.contains(p))
            .map(|(_, c)| *c)
            .sum();
        if total == 0 {
            0.0
        } else {
            hit as f64 / total as f64
        }
    };
    let mut r = Report::new(
        "fig10",
        "DHT/Bitswap peer-ID concentration (simplified Pareto)",
    );
    let dht_curve = lorenz_curve(&dht_counts);
    let bs_curve = lorenz_curve(&bs_counts);
    r.cmp(
        "DHT: top-5% peer IDs traffic share",
        PAPER.top5pct_peer_traffic,
        share_of_top(&dht_curve, 0.05),
        Unit::Pct,
    );
    r.val(
        "Bitswap: top-5% peer IDs traffic share",
        share_of_top(&bs_curve, 0.05),
        Unit::Pct,
    );
    r.val(
        "DHT traffic from gateway peers (paper ≈1%)",
        share_from(&dht_counts, &gw_peers),
        Unit::Pct,
    );
    r.val(
        "Bitswap traffic from gateway peers (paper ≈18%)",
        share_from(&bs_counts, &gw_peers),
        Unit::Pct,
    );
    r.note("Gateways satisfy most requests over Bitswap relationships and barely touch the DHT — their share must be far higher in the Bitswap log than in the DHT log.");
    r
}

/// Fig. 11: IP concentration with cloud attribution.
pub fn fig11(data: &WorkloadData) -> Report {
    let cloud = is_cloud(data);
    let mut dht_ips: BTreeMap<Ipv4Addr, u64> = BTreeMap::new();
    for e in &data.hydra_log {
        *dht_ips.entry(*e.addr.ip()).or_insert(0) += 1;
    }
    let mut bs_ips: BTreeMap<Ipv4Addr, u64> = BTreeMap::new();
    for e in data.campaign.monitor_log() {
        *bs_ips.entry(*e.addr.ip()).or_insert(0) += 1;
    }
    let cloud_share = |m: &BTreeMap<Ipv4Addr, u64>| {
        let total: u64 = m.values().sum();
        let hit: u64 = m
            .iter()
            .filter(|(ip, _)| cloud(**ip))
            .map(|(_, c)| *c)
            .sum();
        if total == 0 {
            0.0
        } else {
            hit as f64 / total as f64
        }
    };
    let mut r = Report::new("fig11", "DHT/Bitswap IP concentration and cloud share");
    let curve = lorenz_curve(&dht_ips);
    r.cmp(
        "DHT: top-5% IPs traffic share",
        0.94,
        share_of_top(&curve, 0.05),
        Unit::Pct,
    );
    r.cmp(
        "DHT traffic from cloud IPs",
        PAPER.dht_cloud_traffic,
        cloud_share(&dht_ips),
        Unit::Pct,
    );
    r.cmp(
        "Bitswap traffic from cloud IPs",
        PAPER.bitswap_cloud_traffic,
        cloud_share(&bs_ips),
        Unit::Pct,
    );
    r.note("Cloud nodes dominate DHT traffic far more than Bitswap traffic (hydra amplification + platform reproviding live on the DHT).");
    r
}

/// Fig. 12: cloud share per traffic type, by IP count and by volume.
pub fn fig12(data: &WorkloadData) -> Report {
    let cloud = is_cloud(data);
    let log = &data.hydra_log;
    let mut per_class_ips: HashMap<TrafficClass, HashSet<Ipv4Addr>> = HashMap::new();
    let mut per_class_msgs: HashMap<TrafficClass, (u64, u64)> = HashMap::new(); // (cloud, all)
    let mut all_ips: HashSet<Ipv4Addr> = HashSet::new();
    let mut aws_msgs = 0u64;
    let dbs = &data.campaign.scenario.dbs;
    let aws = dbs.cloud.id_of("amazon_aws");
    for e in log.iter() {
        let ip = *e.addr.ip();
        all_ips.insert(ip);
        per_class_ips.entry(e.class).or_default().insert(ip);
        let slot = per_class_msgs.entry(e.class).or_insert((0, 0));
        slot.1 += 1;
        if cloud(ip) {
            slot.0 += 1;
        }
        if dbs.cloud.lookup(ip) == aws && aws.is_some() {
            aws_msgs += 1;
        }
    }
    let ip_cloud_share = |set: &HashSet<Ipv4Addr>| {
        if set.is_empty() {
            return 0.0;
        }
        set.iter().filter(|ip| cloud(**ip)).count() as f64 / set.len() as f64
    };
    let total_msgs: u64 = per_class_msgs.values().map(|(_, a)| *a).sum();
    let cloud_msgs: u64 = per_class_msgs.values().map(|(c, _)| *c).sum();
    let msg_share = |class: TrafficClass| {
        per_class_msgs
            .get(&class)
            .map(|(c, a)| if *a == 0 { 0.0 } else { *c as f64 / *a as f64 })
            .unwrap_or(0.0)
    };
    let mut r = Report::new("fig12", "Cloud per traffic type (IP count vs volume)");
    r.cmp(
        "cloud share of distinct IPs",
        PAPER.traffic_cloud_ip_share,
        ip_cloud_share(&all_ips),
        Unit::Pct,
    );
    r.cmp(
        "cloud share of download-IPs",
        0.45,
        ip_cloud_share(
            per_class_ips
                .get(&TrafficClass::Download)
                .unwrap_or(&HashSet::new()),
        ),
        Unit::Pct,
    );
    r.cmp(
        "cloud share of advertise-IPs",
        0.34,
        ip_cloud_share(
            per_class_ips
                .get(&TrafficClass::Advertise)
                .unwrap_or(&HashSet::new()),
        ),
        Unit::Pct,
    );
    r.cmp(
        "cloud share of messages (volume)",
        PAPER.traffic_cloud_msg_share,
        if total_msgs == 0 {
            0.0
        } else {
            cloud_msgs as f64 / total_msgs as f64
        },
        Unit::Pct,
    );
    r.cmp(
        "cloud share of download messages",
        0.98,
        msg_share(TrafficClass::Download),
        Unit::Pct,
    );
    r.cmp(
        "AWS share of messages",
        0.68,
        if total_msgs == 0 {
            0.0
        } else {
            aws_msgs as f64 / total_msgs as f64
        },
        Unit::Pct,
    );
    // Traffic class mix (§5 headline).
    let dl = per_class_msgs
        .get(&TrafficClass::Download)
        .map(|(_, a)| *a)
        .unwrap_or(0);
    let adv = per_class_msgs
        .get(&TrafficClass::Advertise)
        .map(|(_, a)| *a)
        .unwrap_or(0);
    let other = per_class_msgs
        .get(&TrafficClass::Other)
        .map(|(_, a)| *a)
        .unwrap_or(0);
    let t = (dl + adv + other).max(1) as f64;
    r.cmp(
        "download share of DHT messages",
        PAPER.traffic_download_share,
        dl as f64 / t,
        Unit::Pct,
    );
    r.cmp(
        "advertise share of DHT messages",
        PAPER.traffic_advertise_share,
        adv as f64 / t,
        Unit::Pct,
    );
    r.cmp(
        "other share of DHT messages",
        PAPER.traffic_other_share,
        other as f64 / t,
        Unit::Pct,
    );
    r
}

/// Fig. 13: platforms behind the traffic, via reverse DNS + the hydra
/// peer-ID set.
pub fn fig13(data: &WorkloadData) -> Report {
    let heads: HashSet<PeerId> = data.campaign.hydra_heads().into_iter().collect();
    let log = &data.hydra_log;
    let dbs = &data.campaign.scenario.dbs;
    let bucket_of = |ip: Ipv4Addr, peer: &PeerId| -> String {
        if heads.contains(peer) {
            return "hydra (peer-ID set)".into();
        }
        if let Some(host) = dbs.rdns.lookup(ip) {
            for suffix in [
                "hydra.amazonaws.com",
                "web3.storage",
                "nft.storage",
                "pinata.cloud",
                "ipfs-bank.net",
                "filebase.com",
            ] {
                if host.ends_with(suffix) {
                    return suffix.into();
                }
            }
            if host.ends_with("amazonaws.com") {
                return "amazon (other)".into();
            }
        }
        "unknown".into()
    };
    let mut total = 0u64;
    let mut dl_total = 0u64;
    let mut adv_total = 0u64;
    let mut by_bucket: BTreeMap<String, u64> = BTreeMap::new();
    let mut dl_by_bucket: BTreeMap<String, u64> = BTreeMap::new();
    let mut adv_by_bucket: BTreeMap<String, u64> = BTreeMap::new();
    for e in log.iter() {
        let b = bucket_of(*e.addr.ip(), &e.peer);
        total += 1;
        *by_bucket.entry(b.clone()).or_insert(0) += 1;
        match e.class {
            TrafficClass::Download => {
                dl_total += 1;
                *dl_by_bucket.entry(b).or_insert(0) += 1;
            }
            TrafficClass::Advertise => {
                adv_total += 1;
                *adv_by_bucket.entry(b).or_insert(0) += 1;
            }
            TrafficClass::Other => {}
        }
    }
    let share = |m: &BTreeMap<String, u64>, k: &str, t: u64| {
        if t == 0 {
            0.0
        } else {
            *m.get(k).unwrap_or(&0) as f64 / t as f64
        }
    };
    // Bitswap side: ipfs-bank dominance.
    let mut bs_total = 0u64;
    let mut bs_bank = 0u64;
    for e in data.campaign.monitor_log() {
        bs_total += 1;
        if dbs
            .rdns
            .lookup(*e.addr.ip())
            .map(|h| h.ends_with("ipfs-bank.net"))
            .unwrap_or(false)
        {
            bs_bank += 1;
        }
    }
    let mut r = Report::new("fig13", "Platforms generating traffic (reverse DNS)");
    r.cmp(
        "hydra share of DHT traffic",
        PAPER.hydra_dht_share,
        share(&by_bucket, "hydra (peer-ID set)", total),
        Unit::Pct,
    );
    r.cmp(
        "hydra share of download traffic",
        PAPER.hydra_download_share,
        share(&dl_by_bucket, "hydra (peer-ID set)", dl_total),
        Unit::Pct,
    );
    let storage_adv = share(&adv_by_bucket, "web3.storage", adv_total)
        + share(&adv_by_bucket, "nft.storage", adv_total)
        + share(&adv_by_bucket, "pinata.cloud", adv_total);
    r.val(
        "storage platforms' share of advertise traffic",
        storage_adv,
        Unit::Pct,
    );
    r.val(
        "ipfs-bank share of Bitswap traffic",
        if bs_total == 0 {
            0.0
        } else {
            bs_bank as f64 / bs_total as f64
        },
        Unit::Pct,
    );
    r.note("Paper: Hydras dominate DHT download traffic (proactive cache-fill), storage platforms dominate advertisement, the ipfs-bank gateway platform dominates Bitswap.");
    r.note("Hydra advertise share must be ≈0 — hydras never advertise content.");
    r.cmp(
        "hydra share of advertise traffic",
        0.0,
        share(&adv_by_bucket, "hydra (peer-ID set)", adv_total),
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
    let last_ts = data
        .campaign
        .monitor_log()
        .last()
        .map(|e| e.ts.0)
        .unwrap_or(0);
    let cutoff = last_ts.saturating_sub(Dur::DAY.0);
    let mut seen: BTreeSet<Cid> = BTreeSet::new();
    for e in data.campaign.monitor_log() {
        if e.ts.0 < cutoff {
            continue;
        }
        for c in &e.cids {
            seen.insert(*c);
        }
    }
    // Drop our own probe CIDs.
    let probe: HashSet<Cid> = (0..4096u64)
        .map(|i| Cid::from_seed(PROBE_SEED + i))
        .collect();
    let cids: Vec<Cid> = seen
        .into_iter()
        .filter(|c| !probe.contains(c))
        .take(max_cids)
        .collect();
    let resolved_raw = data
        .campaign
        .resolve_providers(&cids, true, Dur::from_secs(6));
    let raw_records: usize = resolved_raw.iter().map(|(_, r, _)| r.len()).sum();
    let resolved = resolved_raw
        .into_iter()
        .map(|(cid, recs, contacted)| {
            let live: Vec<ProviderRecord> = recs
                .into_iter()
                .filter(|r| data.campaign.record_reachable(r))
                .collect();
            (cid, live, contacted)
        })
        .collect();
    ProviderDataset {
        resolved,
        raw_records,
    }
}

/// Fig. 14: classification of providers + relay usage of NAT-ed providers.
pub fn fig14(data: &WorkloadData, ds: &ProviderDataset) -> Report {
    let cloud = is_cloud(data);
    let mut by_provider: BTreeMap<PeerId, Vec<&ProviderRecord>> = BTreeMap::new();
    for (_, recs, _) in &ds.resolved {
        for r in recs {
            by_provider.entry(r.provider).or_default().push(r);
        }
    }
    let mut counts: BTreeMap<ProviderClass, u64> = BTreeMap::new();
    let mut nat_relay_cloud = 0u64;
    let mut nat_relay_total = 0u64;
    for recs in by_provider.values() {
        let class = classify_provider(recs, &cloud);
        *counts.entry(class).or_insert(0) += 1;
        if class == ProviderClass::Nat {
            for rec in recs {
                for addr in rec.addrs.iter() {
                    if addr.is_circuit() {
                        if let Some(relay_ip) = addr.ip4() {
                            nat_relay_total += 1;
                            if cloud(relay_ip) {
                                nat_relay_cloud += 1;
                            }
                        }
                    }
                }
            }
        }
    }
    let total: u64 = counts.values().sum();
    let share = |c: ProviderClass| {
        if total == 0 {
            0.0
        } else {
            *counts.get(&c).unwrap_or(&0) as f64 / total as f64
        }
    };
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
        if nat_relay_total == 0 {
            0.0
        } else {
            nat_relay_cloud as f64 / nat_relay_total as f64
        },
        Unit::Pct,
    );
    r
}

/// Fig. 15: provider popularity (records per provider peer).
pub fn fig15(data: &WorkloadData, ds: &ProviderDataset) -> Report {
    let cloud = is_cloud(data);
    let mut appearances: BTreeMap<PeerId, u64> = BTreeMap::new();
    let mut records_by_provider: BTreeMap<PeerId, Vec<&ProviderRecord>> = BTreeMap::new();
    for (_, recs, _) in &ds.resolved {
        for r in recs {
            *appearances.entry(r.provider).or_insert(0) += 1;
            records_by_provider.entry(r.provider).or_default().push(r);
        }
    }
    let curve = lorenz_curve(&appearances);
    let total_records: u64 = appearances.values().sum();
    // Class split of the records themselves.
    let mut class_records: BTreeMap<ProviderClass, u64> = BTreeMap::new();
    for (peer, recs) in &records_by_provider {
        let class = classify_provider(recs, &cloud);
        *class_records.entry(class).or_insert(0) += appearances[peer];
    }
    let rec_share = |c: ProviderClass| {
        if total_records == 0 {
            0.0
        } else {
            *class_records.get(&c).unwrap_or(&0) as f64 / total_records as f64
        }
    };
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
        0.08,
        rec_share(ProviderClass::Nat),
        Unit::Pct,
    );
    r.cmp(
        "record share of non-cloud providers",
        0.22,
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
        0.77,
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
    let provider_share = |ips: &BTreeSet<Ipv4Addr>, name: &str| {
        if ips.is_empty() {
            return 0.0;
        }
        ips.iter()
            .filter(|ip| {
                dbs.cloud
                    .lookup(**ip)
                    .map(|id| dbs.cloud.name(id) == name)
                    .unwrap_or(false)
            })
            .count() as f64
            / ips.len() as f64
    };
    let noncloud_share = |ips: &BTreeSet<Ipv4Addr>| {
        if ips.is_empty() {
            return 0.0;
        }
        ips.iter()
            .filter(|ip| dbs.cloud.lookup(**ip).is_none())
            .count() as f64
            / ips.len() as f64
    };
    let country_share = |ips: &BTreeSet<Ipv4Addr>, cc: &str| {
        if ips.is_empty() {
            return 0.0;
        }
        ips.iter()
            .filter(|ip| {
                dbs.geo
                    .lookup(**ip)
                    .map(|c| c.as_str() == cc)
                    .unwrap_or(false)
            })
            .count() as f64
            / ips.len() as f64
    };
    let mut r18 = Report::new("fig18", "Gateway frontend/overlay IPs by cloud provider");
    r18.val("frontend IPs", frontend_ips.len() as f64, Unit::Count);
    r18.val(
        "overlay IPs (probe-discovered)",
        overlay_ips.len() as f64,
        Unit::Count,
    );
    r18.val(
        "frontends: cloudflare share",
        provider_share(&frontend_ips, "cloudflare_inc"),
        Unit::Pct,
    );
    r18.val(
        "frontends: non-cloud share",
        noncloud_share(&frontend_ips),
        Unit::Pct,
    );
    r18.val(
        "overlays: cloudflare share",
        provider_share(&overlay_ips, "cloudflare_inc"),
        Unit::Pct,
    );
    r18.val(
        "overlays: non-cloud share",
        noncloud_share(&overlay_ips),
        Unit::Pct,
    );
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
            country_share(&frontend_ips, cc),
            Unit::Pct,
        );
    }
    for cc in ["US", "DE"] {
        r19.val(
            &format!("overlays in {cc}"),
            country_share(&overlay_ips, cc),
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
            for a in r.addrs.iter() {
                if let Some(ip) = a.ip4() {
                    ips.insert(ip);
                }
            }
        }
    }
    let cloud_share = if ips.is_empty() {
        0.0
    } else {
        ips.iter()
            .filter(|ip| dbs.cloud.lookup(**ip).is_some())
            .count() as f64
            / ips.len() as f64
    };
    let us_de = if ips.is_empty() {
        0.0
    } else {
        ips.iter()
            .filter(|ip| {
                dbs.geo
                    .lookup(**ip)
                    .map(|c| c.as_str() == "US" || c.as_str() == "DE")
                    .unwrap_or(false)
            })
            .count() as f64
            / ips.len() as f64
    };
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
