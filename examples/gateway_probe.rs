//! Identify gateway overlay nodes with the paper's unique-content probe
//! (§3 "Gateways"): publish data only we hold, request it over the
//! gateway's HTTP side, and watch which overlay peer asks us for it.
//!
//! ```sh
//! cargo run --release --example gateway_probe
//! ```

use experiments::traffic_exp::probe_gateways;
use netgen::ScenarioConfig;
use simnet::Dur;
use tcsb_core::{Campaign, CampaignOptions};

fn main() {
    let scenario = netgen::build(ScenarioConfig::tiny(55));
    let mut campaign = Campaign::new(scenario, CampaignOptions::default());
    campaign.run_for(Dur::from_hours(10));

    let functional = campaign.scenario.gateways.iter().filter(|g| g.functional);
    println!(
        "probing {} functional gateway endpoints…",
        functional.count()
    );
    let overlays = probe_gateways(&mut campaign, 1);
    for (g, peer, ip) in &overlays {
        let host = &campaign.scenario.gateways[*g].host;
        println!(
            "{host:<24} overlay peer {}…  at {ip}",
            &peer.to_base58()[..12]
        );
    }
    println!();
    println!("overlay identifications: {}", overlays.len());
    println!("(repeating the probe over time reveals multiple overlay IDs per");
    println!(" endpoint — the paper found 119 overlay IDs behind 22 gateways)");
}
