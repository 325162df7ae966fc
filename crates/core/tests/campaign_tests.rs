//! Integration: the measurement tools deployed inside a tiny live scenario.

use netgen::ScenarioConfig;
use simnet::Dur;
use tcsb_core::{
    an_cloud_status, dataset_stats, gip_count, shares, Campaign, CampaignOptions, CloudStatus,
};

fn tiny_campaign(seed: u64, with_workload: bool) -> Campaign {
    let scenario = netgen::build(ScenarioConfig::tiny(seed));
    Campaign::new(
        scenario,
        CampaignOptions {
            with_workload,
            ..Default::default()
        },
    )
}

#[test]
fn crawl_discovers_most_online_servers() {
    let mut c = tiny_campaign(1, false);
    c.run_for(Dur::from_hours(2)); // let the network form
    let idx = c.crawl(Dur::from_mins(30));
    let snap = &c.snapshots()[idx];
    // Ground truth: online, dialable scenario nodes (DHT servers).
    let truth: usize = (0..c.node_ids.len())
        .filter(|&i| {
            let id = c.node_ids[i];
            c.sim.core().is_online(id) && c.sim.core().is_dialable(id)
        })
        .count();
    let found = snap.peer_count();
    assert!(
        found as f64 > truth as f64 * 0.7,
        "crawl found {found} of ~{truth} online servers"
    );
    assert!(snap.crawlable_count() > 0);
    // NAT-ed clients must be invisible.
    let nat_ids: Vec<_> = c
        .scenario
        .nodes
        .iter()
        .filter(|n| n.nat)
        .map(|n| ipfs_types::Keypair::from_seed(n.identity_seed).peer_id())
        .collect();
    for p in &snap.peers {
        assert!(!nat_ids.contains(&p.peer), "NAT client visible in crawl");
    }
}

#[test]
fn crawl_cut_off_at_its_deadline_returns_its_own_snapshot() {
    let mut c = tiny_campaign(3, false);
    c.run_for(Dur::from_hours(6));
    // Far too short to finish: the crawl is closed at the deadline.
    let cut = c.crawl(Dur::from_secs(5));
    let full = c.crawl(Dur::from_mins(40));
    assert_eq!((cut, full), (0, 1));
    let snaps = c.snapshots();
    assert_eq!(snaps.len(), 2, "the abandoned crawl must not push later");
    assert_eq!((snaps[cut].crawl_id, snaps[full].crawl_id), (1, 2));
    assert_eq!(snaps[cut].duration(), Dur::from_secs(10), "one 10 s poll");
}

#[test]
fn counting_detects_cloud_dominance_and_gip_flip_direction() {
    let mut c = tiny_campaign(2, false);
    c.run_for(Dur::from_hours(3));
    for _ in 0..6 {
        c.crawl(Dur::from_mins(30));
        c.run_for(Dur::from_hours(8));
    }
    let snaps = c.snapshots().to_vec();
    let dbs = &c.scenario.dbs;
    let an = an_cloud_status(&snaps, |ip| dbs.cloud.lookup(ip).is_some());
    let an_shares = shares(&an);
    let cloud_an = an_shares.get(&CloudStatus::Cloud).copied().unwrap_or(0.0);
    assert!(cloud_an > 0.5, "A-N cloud share {cloud_an}");
    let gip = gip_count(&snaps, |ip| dbs.cloud.lookup(ip).is_some());
    let gip_cloud = *gip.get(&true).unwrap_or(&0) as f64;
    let gip_non = *gip.get(&false).unwrap_or(&0) as f64;
    let gip_cloud_share = gip_cloud / (gip_cloud + gip_non);
    assert!(
        gip_cloud_share < cloud_an,
        "G-IP must deflate the cloud share: gip={gip_cloud_share:.3} an={cloud_an:.3}"
    );
    let stats = dataset_stats(&snaps);
    assert!(stats.unique_peer_ids as f64 >= stats.peers_per_crawl);
    assert!(stats.ips_per_peer >= 1.0);
}

#[test]
fn workload_generates_monitor_and_hydra_traffic() {
    let mut c = tiny_campaign(3, true);
    c.run_for(Dur::from_hours(30));
    let mon = c.monitor_log();
    assert!(!mon.is_empty(), "monitor saw no Bitswap traffic");
    let hydra = c.hydra_log();
    assert!(!hydra.is_empty(), "hydra saw no DHT traffic");
    let heads = c.hydra_heads();
    assert_eq!(
        heads.len(),
        netgen::HYDRA_HEADS * c.scenario.cfg.hydra_hosts
    );
    let web = match c.sim.actor(c.webuser) {
        tcsb_core::EcoActor::WebUser(w) => w,
        _ => unreachable!(),
    };
    let ok = web.outcomes.iter().filter(|(_, found)| *found).count();
    assert!(
        ok > 0,
        "no successful gateway fetches out of {}",
        web.outcomes.len()
    );
}

#[test]
fn provider_search_returns_records() {
    let mut c = tiny_campaign(4, true);
    c.run_for(Dur::from_hours(12));
    let cids: Vec<_> = c.scenario.content.iter().take(8).map(|i| i.cid).collect();
    let resolved = c.resolve_providers(&cids, true, Dur::from_secs(20));
    assert!(!resolved.is_empty(), "no resolutions completed");
    let with_records = resolved
        .iter()
        .filter(|(_, recs, _)| !recs.is_empty())
        .count();
    assert!(with_records > 0, "no provider records found");
}
