//! Quickstart: build a small IPFS network, publish and fetch content, and
//! run one DHT crawl with cloud attribution — the whole pipeline in ~50
//! lines of API use.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use netgen::ScenarioConfig;
use simnet::Dur;
use tcsb_core::{an_cloud_status, shares, Campaign, CampaignOptions, CloudStatus};

fn main() {
    // 1. Generate a synthetic IPFS ecosystem calibrated to the paper:
    //    cloud-hosted DHT servers, a churning residential fringe, NAT-ed
    //    clients, storage platforms, gateways, hydra boosters.
    let scenario = netgen::build(ScenarioConfig::tiny(7));
    println!(
        "scenario: {} nodes ({} content items, {} gateways)",
        scenario.nodes.len(),
        scenario.content.len(),
        scenario.gateways.len()
    );

    // 2. Instantiate it as a live simulation with the measurement tools
    //    (crawler, Bitswap monitor, Hydra logger, record searcher) inside.
    let mut campaign = Campaign::new(scenario, CampaignOptions::default());

    // 3. Let the network form and the workload run for two virtual days.
    campaign.run_for(Dur::from_hours(48));
    println!(
        "after 48 virtual hours: {} engine events, {} Bitswap wants logged by the monitor",
        campaign.sim.stats().events,
        campaign.monitor_log().len()
    );

    // 4. Crawl the DHT, exactly like the paper's crawler: FindNode sweeps
    //    per bucket over every reachable server.
    let idx = campaign.crawl(Dur::from_mins(30));
    let snap = &campaign.snapshots()[idx];
    println!(
        "crawl #{}: {} peers discovered, {} crawlable, took {:?} of virtual time",
        snap.crawl_id,
        snap.peer_count(),
        snap.crawlable_count(),
        snap.duration()
    );

    // 5. Attribute with the cloud database and the A-N counting methodology.
    let dbs = &campaign.scenario.dbs;
    let an = shares(&an_cloud_status(std::slice::from_ref(snap), |ip| {
        dbs.cloud.lookup(ip).is_some()
    }));
    println!(
        "cloud share of the typical snapshot (A-N): {:.1}%  (paper: 79.6%)",
        an.get(&CloudStatus::Cloud).copied().unwrap_or(0.0) * 100.0
    );
}
