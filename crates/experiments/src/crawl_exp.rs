//! Group A experiments: everything derived from the DHT crawl dataset
//! (Table 1, Figs. 3–8, and the §3/§4 dataset statistics).

use crate::report::{Report, Unit};
use clouddb::IpDatabases;
use netgen::{ScenarioConfig, PAPER};
use simnet::Dur;
use std::collections::BTreeMap;
use std::net::Ipv4Addr;
use tcsb_core::{
    an_cloud_status, an_count, dataset_stats, degree_stats, gip_count, percentile, shares,
    Campaign, CampaignOptions, CloudStatus, CrawlSnapshot, Graph, RemovalStrategy,
};

/// The crawl dataset: snapshots plus the attribution databases.
pub struct CrawlData {
    /// All crawl snapshots, in order.
    pub snaps: Vec<CrawlSnapshot>,
    /// Measurement-side databases.
    pub dbs: IpDatabases,
    /// Filebase agent string (top-in-degree attribution).
    pub n_cloud_planted: usize,
    /// Engine counters at the end of the campaign (scheduler health).
    pub engine: simnet::SimStats,
    /// Per-shard budget (owned nodes, dispatched events, state bytes).
    pub loads: Vec<simnet::ShardLoad>,
    /// Shard-invariant trace digest at the end of the campaign.
    pub digest: u64,
    /// Host wall-clock seconds the campaign took.
    pub wall_secs: f64,
    /// Engine shards the campaign ran on.
    pub shards: usize,
    /// Node→shard placement the campaign used (splits, predicted
    /// per-shard weights — the balance objective).
    pub placement: netgen::Placement,
    /// Effective shard×shard conservative lookahead matrix (metric
    /// closure, row-major; `u64::MAX/4` sentinel on impossible pairs).
    pub lookahead: Vec<Dur>,
    /// Live provider records at campaign end
    /// ([`Campaign::provider_record_counts`]).
    pub providers_live: usize,
    /// Live plus expired-but-unpruned provider records at campaign end.
    pub providers_raw: usize,
}

/// Run the crawl campaign: `n_crawls` crawls spread over the scenario
/// duration, no content workload (topology only).
pub fn collect(cfg: ScenarioConfig, n_crawls: usize) -> CrawlData {
    let n_cloud_planted = cfg.n_cloud;
    let scenario = netgen::build(cfg);
    let started = std::time::Instant::now();
    let mut campaign = Campaign::new(
        scenario,
        CampaignOptions {
            with_workload: false,
            ..Default::default()
        },
    );
    // Warm-up: let the network bootstrap and tables converge.
    campaign.run_for(Dur::from_hours(6));
    let total = campaign.scenario.cfg.duration;
    let gap = Dur(total.0.saturating_sub(Dur::from_hours(8).0) / n_crawls as u64);
    for _ in 0..n_crawls {
        campaign.crawl(Dur::from_mins(40));
        campaign.run_for(gap);
    }
    let snaps = campaign.snapshots().to_vec();
    let dbs = std::mem::take(&mut campaign.scenario.dbs);
    let lookahead = if campaign.shards() > 1 {
        campaign.sim.lookahead_matrix().to_vec()
    } else {
        Vec::new()
    };
    let (providers_live, providers_raw) = campaign.provider_record_counts();
    CrawlData {
        snaps,
        dbs,
        n_cloud_planted,
        engine: campaign.sim.stats(),
        loads: campaign.sim.shard_loads(),
        digest: campaign.sim.trace_digest(),
        wall_secs: started.elapsed().as_secs_f64(),
        shards: campaign.shards(),
        placement: campaign.placement.clone(),
        lookahead,
        providers_live,
        providers_raw,
    }
}

fn is_cloud(dbs: &IpDatabases) -> impl Fn(Ipv4Addr) -> bool + '_ {
    move |ip| dbs.cloud.lookup(ip).is_some()
}

/// Table 1: the worked counting-methodology example (pure computation, no
/// simulation — validates the G-IP / A-N implementations bit-for-bit).
pub fn table1() -> Report {
    use ipfs_types::PeerId;
    use tcsb_core::CrawledPeer;
    let p1 = PeerId::from_seed(1);
    let p2 = PeerId::from_seed(2);
    let de1: Ipv4Addr = "91.0.0.1".parse().unwrap();
    let de2: Ipv4Addr = "91.0.0.2".parse().unwrap();
    let us3: Ipv4Addr = "24.0.0.3".parse().unwrap();
    let us4: Ipv4Addr = "24.0.0.4".parse().unwrap();
    let peer = |p: PeerId, ips: Vec<Ipv4Addr>| CrawledPeer {
        peer: p,
        ips,
        agent: String::new(),
        crawlable: true,
    };
    let snaps = vec![
        CrawlSnapshot {
            crawl_id: 1,
            peers: vec![peer(p1, vec![de1, de2]), peer(p2, vec![us3])],
            ..Default::default()
        },
        CrawlSnapshot {
            crawl_id: 2,
            peers: vec![peer(p2, vec![de2, us3, us4])],
            ..Default::default()
        },
    ];
    let geo = |ip: Ipv4Addr| if ip.octets()[0] == 91 { "DE" } else { "US" };
    let gip = gip_count(&snaps, geo);
    let an = an_count(&snaps, geo);
    let mut r = Report::new("table1", "Counting methodologies on the worked example");
    r.cmp(
        "G-IP: DE",
        2.0,
        *gip.get("DE").unwrap_or(&0) as f64,
        Unit::Count,
    );
    r.cmp(
        "G-IP: US",
        2.0,
        *gip.get("US").unwrap_or(&0) as f64,
        Unit::Count,
    );
    r.cmp("A-N: DE", 0.5, *an.get("DE").unwrap_or(&0.0), Unit::Count);
    r.cmp("A-N: US", 1.0, *an.get("US").unwrap_or(&0.0), Unit::Count);
    r.note("Expected from §3: G-IP ⇒ DE=2,US=2; A-N ⇒ DE=0.5,US=1 (one stable US node, one 50%-uptime DE node).");
    r
}

/// §3/§4 dataset statistics (scale-free ratios compared against the paper).
pub fn stats(data: &CrawlData) -> Report {
    let s = dataset_stats(&data.snaps);
    let mut r = Report::new("stats", "Crawl dataset statistics (§3/§4)");
    r.val("crawls", s.crawls as f64, Unit::Count);
    r.val("avg peers per crawl", s.peers_per_crawl, Unit::Count);
    r.val(
        "avg crawlable per crawl",
        s.crawlable_per_crawl,
        Unit::Count,
    );
    r.cmp(
        "crawlable fraction",
        PAPER.crawlable_per_crawl / PAPER.peers_per_crawl,
        s.crawlable_per_crawl / s.peers_per_crawl.max(1.0),
        Unit::Pct,
    );
    r.cmp(
        "unique peer IDs / avg crawl size",
        PAPER.unique_peer_ids / PAPER.peers_per_crawl,
        s.unique_peer_ids as f64 / s.peers_per_crawl.max(1.0),
        Unit::Ratio,
    );
    r.cmp(
        "advertised IPs per peer",
        PAPER.ips_per_peer,
        s.ips_per_peer,
        Unit::Ratio,
    );
    r.val(
        "unique IPs (G-IP denominator)",
        s.unique_ips as f64,
        Unit::Count,
    );
    r.val("avg crawl duration", s.crawl_duration_secs, Unit::Secs);
    r.note("Absolute counts scale with the scenario preset; the paper-comparable quantities are the ratios.");
    r
}

/// Fig. 3: participants by cloud status, A-N vs G-IP.
pub fn fig03(data: &CrawlData) -> Report {
    let cloud = is_cloud(&data.dbs);
    let an = shares(&an_cloud_status(&data.snaps, &cloud));
    let gip = shares(&gip_count(&data.snaps, &cloud));
    let mut r = Report::new(
        "fig03",
        "DHT participants by cloud status (counting comparison)",
    );
    r.cmp(
        "A-N cloud share",
        PAPER.cloud_share_an,
        an.get(&CloudStatus::Cloud).copied().unwrap_or(0.0),
        Unit::Pct,
    );
    r.cmp(
        "A-N non-cloud share",
        PAPER.noncloud_share_an,
        an.get(&CloudStatus::NonCloud).copied().unwrap_or(0.0),
        Unit::Pct,
    );
    r.val(
        "A-N BOTH share",
        an.get(&CloudStatus::Both).copied().unwrap_or(0.0),
        Unit::Pct,
    );
    r.cmp(
        "G-IP cloud share",
        PAPER.cloud_share_gip,
        gip.get(&true).copied().unwrap_or(0.0),
        Unit::Pct,
    );
    r.cmp(
        "G-IP non-cloud share",
        1.0 - PAPER.cloud_share_gip,
        gip.get(&false).copied().unwrap_or(0.0),
        Unit::Pct,
    );
    r.note("The headline flip: per-node averaging shows a cloud-dominated DHT; unique-IP pooling dilutes it with rotating fringe addresses.");
    r
}

/// Fig. 4: cloud/non-cloud ratio as a function of cumulative crawls.
pub fn fig04(data: &CrawlData) -> Report {
    let cloud = is_cloud(&data.dbs);
    let mut an_series = Vec::new();
    let mut gip_series = Vec::new();
    let ks: Vec<usize> = (1..=data.snaps.len()).collect();
    for &k in &ks {
        let prefix = &data.snaps[..k];
        let an = shares(&an_cloud_status(prefix, &cloud));
        an_series.push(an.get(&CloudStatus::NonCloud).copied().unwrap_or(0.0));
        let gip = shares(&gip_count(prefix, &cloud));
        gip_series.push(gip.get(&false).copied().unwrap_or(0.0));
    }
    let mut r = Report::new("fig04", "Non-cloud share vs number of aggregated crawls");
    let first_g = *gip_series.first().unwrap_or(&0.0);
    let last_g = *gip_series.last().unwrap_or(&0.0);
    let first_a = *an_series.first().unwrap_or(&0.0);
    let last_a = *an_series.last().unwrap_or(&0.0);
    r.val("G-IP non-cloud @ 1 crawl", first_g, Unit::Pct);
    r.val("G-IP non-cloud @ all crawls", last_g, Unit::Pct);
    r.val("G-IP drift (must grow)", last_g - first_g, Unit::Pct);
    r.val("A-N non-cloud @ 1 crawl", first_a, Unit::Pct);
    r.val("A-N non-cloud @ all crawls", last_a, Unit::Pct);
    r.val(
        "A-N drift (must stay flat)",
        (last_a - first_a).abs(),
        Unit::Pct,
    );
    r.note(format!(
        "G-IP series: {}",
        gip_series
            .iter()
            .map(|v| format!("{:.0}%", v * 100.0))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    r.note(format!(
        "A-N series:  {}",
        an_series
            .iter()
            .map(|v| format!("{:.0}%", v * 100.0))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    r
}

fn provider_label<'a>(dbs: &'a IpDatabases) -> impl Fn(Ipv4Addr) -> String + 'a {
    move |ip| {
        dbs.cloud
            .lookup(ip)
            .map(|id| dbs.cloud.name(id).to_string())
            .unwrap_or_else(|| "non-cloud".to_string())
    }
}

/// Fig. 5: nodes by cloud provider (A-N vs G-IP).
pub fn fig05(data: &CrawlData) -> Report {
    let label = provider_label(&data.dbs);
    let an = shares(&an_count(&data.snaps, &label));
    let gip = shares(&gip_count(&data.snaps, &label));
    let top = |m: &BTreeMap<String, f64>, skip_noncloud: bool| -> Vec<(String, f64)> {
        let mut v: Vec<(String, f64)> = m
            .iter()
            .filter(|(k, _)| !skip_noncloud || k.as_str() != "non-cloud")
            .map(|(k, v)| (k.clone(), *v))
            .collect();
        v.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
        v
    };
    let an_top = top(&an, true);
    let mut r = Report::new("fig05", "Nodes of the DHT graph by cloud provider");
    r.cmp(
        "choopa share (A-N)",
        PAPER.choopa_share_an,
        an.get("choopa").copied().unwrap_or(0.0),
        Unit::Pct,
    );
    let top3: f64 = an_top.iter().take(3).map(|(_, v)| v).sum();
    r.cmp(
        "top-3 provider share (A-N)",
        PAPER.top3_provider_share_an,
        top3,
        Unit::Pct,
    );
    r.cmp(
        "choopa share (G-IP, deflated)",
        PAPER.choopa_share_gip,
        gip.get("choopa").copied().unwrap_or(0.0),
        Unit::Pct,
    );
    for (name, share) in an_top.iter().take(6) {
        r.val(&format!("A-N {name}"), *share, Unit::Pct);
    }
    r.note("Provider ranking (A-N) must be choopa-led with a >50% top-3 as in Fig. 5; G-IP deflates stable providers.");
    r
}

/// Fig. 6: nodes by origin country (A-N vs G-IP).
pub fn fig06(data: &CrawlData) -> Report {
    let geo = |ip: Ipv4Addr| {
        data.dbs
            .geo
            .lookup(ip)
            .map(|c| c.as_str().to_string())
            .unwrap_or_else(|| "??".to_string())
    };
    let an = shares(&an_count(&data.snaps, geo));
    let gip = shares(&gip_count(&data.snaps, geo));
    let mut r = Report::new("fig06", "Nodes of the DHT graph by origin country");
    r.cmp(
        "US share (A-N)",
        PAPER.us_share_an,
        an.get("US").copied().unwrap_or(0.0),
        Unit::Pct,
    );
    r.cmp(
        "DE share (A-N)",
        PAPER.de_share_an,
        an.get("DE").copied().unwrap_or(0.0),
        Unit::Pct,
    );
    r.cmp(
        "KR share (A-N)",
        PAPER.kr_share_an,
        an.get("KR").copied().unwrap_or(0.0),
        Unit::Pct,
    );
    r.cmp(
        "US share (G-IP)",
        PAPER.us_share_gip,
        gip.get("US").copied().unwrap_or(0.0),
        Unit::Pct,
    );
    r.cmp(
        "CN share (G-IP)",
        PAPER.cn_share_gip,
        gip.get("CN").copied().unwrap_or(0.0),
        Unit::Pct,
    );
    r.val(
        "CN share (A-N) — should be small",
        an.get("CN").copied().unwrap_or(0.0),
        Unit::Pct,
    );
    r.note("Short-lived rotating IPs in under-represented countries (CN) inflate their G-IP share, as in the paper.");
    r
}

/// Fig. 7: degree distribution of the crawl graph.
pub fn fig07(data: &CrawlData) -> Report {
    let snap = data.snaps.last().expect("at least one crawl");
    let d = degree_stats(snap);
    let mut r = Report::new("fig07", "Degree distribution (last crawl graph)");
    r.val("crawlable nodes", d.out_degrees.len() as f64, Unit::Count);
    r.val(
        "out-degree p10",
        percentile(&d.out_degrees, 10.0),
        Unit::Count,
    );
    r.val(
        "out-degree median",
        percentile(&d.out_degrees, 50.0),
        Unit::Count,
    );
    r.val(
        "out-degree p90",
        percentile(&d.out_degrees, 90.0),
        Unit::Count,
    );
    r.val(
        "in-degree median",
        percentile(&d.in_degrees, 50.0),
        Unit::Count,
    );
    r.val(
        "in-degree p90",
        percentile(&d.in_degrees, 90.0),
        Unit::Count,
    );
    r.val(
        "in-degree max",
        percentile(&d.in_degrees, 100.0),
        Unit::Count,
    );
    // Composition of the top-10 in-degree nodes (paper: 2 Filebase + 8 AWS).
    let top10: Vec<_> = d.top_in_degree.iter().take(10).collect();
    let mut filebase = 0;
    let mut cloud = 0;
    for (peer, _) in &top10 {
        if let Some(p) = snap.peers.iter().find(|p| p.peer == *peer) {
            if p.agent.starts_with("filebase") {
                filebase += 1;
            }
            if p.ips.iter().any(|&ip| data.dbs.cloud.lookup(ip).is_some()) {
                cloud += 1;
            }
        }
    }
    r.cmp(
        "top-10 in-degree: filebase-agent nodes",
        PAPER.top10_in_degree_filebase,
        filebase as f64,
        Unit::Count,
    );
    r.cmp(
        "top-10 in-degree: cloud-hosted nodes",
        PAPER.top10_in_degree_cloud,
        cloud as f64,
        Unit::Count,
    );
    r.note("Paper: out-degree within a narrow band set by k-buckets; in-degree long-tailed with p90 < 500; top-10 dominated by modified Filebase clients and cloud nodes.");
    r
}

/// Fig. 8: resilience to random vs targeted removals.
pub fn fig08(data: &CrawlData) -> Report {
    let snap = data.snaps.last().expect("at least one crawl");
    let g = Graph::from_snapshot(snap);
    let steps = 40;
    // 10 random repetitions, mean and spread at 90% removal.
    let mut at90 = Vec::new();
    for seed in 0..10u64 {
        let c = g.resilience(RemovalStrategy::Random { seed }, steps);
        at90.push(c.lcc_at(0.90));
    }
    let mean90: f64 = at90.iter().sum::<f64>() / at90.len() as f64;
    let var: f64 = at90
        .iter()
        .map(|v| (v - mean90) * (v - mean90))
        .sum::<f64>()
        / at90.len() as f64;
    let ci95 = 1.96 * var.sqrt() / (at90.len() as f64).sqrt();
    let targeted = g.resilience(RemovalStrategy::TargetedByDegree, steps);
    let partition = targeted.partition_point(0.02);
    let mut r = Report::new("fig08", "Resilience to random and targeted node removals");
    r.val("graph nodes", g.len() as f64, Unit::Count);
    r.cmp(
        "LCC after 90% random removal",
        PAPER.random_removal_90_lcc,
        mean90,
        Unit::Pct,
    );
    r.val("  (95% CI half-width over 10 reps)", ci95, Unit::Pct);
    r.cmp(
        "targeted removal fraction at full partition",
        PAPER.targeted_partition_fraction,
        partition,
        Unit::Pct,
    );
    r.note("Shape targets: very robust to random removal (scale-free), fully partitioned only after a large targeted fraction (≈60% in the paper — better than Mastodon's ≈10% and Twitter's ≈30%).");
    r
}
