//! Campaign-level shard invariance: a full ecosystem campaign (IPFS nodes,
//! Hydra hosts, crawler, monitor, gateway frontends, churn schedules)
//! produces byte-identical trace digests and engine counters for every
//! engine shard count. This is the end-to-end version of the oracle that
//! `simnet/tests/shard_equivalence.rs` checks at the actor level.

use netgen::ScenarioConfig;
use proptest::prelude::*;
use simnet::Dur;
use tcsb_core::{Campaign, CampaignOptions};

fn fingerprint(cfg: ScenarioConfig, hours: u64) -> (u64, u64, u64, u64, usize) {
    let scenario = netgen::build(cfg);
    let mut campaign = Campaign::new(
        scenario,
        CampaignOptions {
            with_workload: true,
            with_requests: false,
            ..Default::default()
        },
    );
    campaign.run_for(Dur::from_hours(hours));
    let stats = campaign.sim.stats();
    (
        campaign.sim.trace_digest(),
        stats.events,
        stats.msgs_delivered,
        stats.dials_ok,
        campaign
            .sim
            .actor(campaign.crawler)
            .crawler()
            .snapshots
            .len(),
    )
}

/// Struct-of-arrays budget at the campaign level: `Campaign::new` reserves
/// node columns exactly, so every shard's replica cost is the tight
/// 8 bytes × nodes bound, and the per-shard owned-node counts partition
/// the population.
#[test]
fn tiny_campaign_replica_bytes_stay_o_nodes() {
    for shards in [1usize, 4] {
        let scenario = netgen::build(ScenarioConfig::tiny(42).with_shards(shards));
        let mut campaign = Campaign::new(scenario, CampaignOptions::default());
        campaign.run_for(Dur::from_hours(2));
        let loads = campaign.sim.shard_loads();
        assert_eq!(loads.len(), shards);
        let nodes = loads[0].state.nodes;
        assert!(nodes > 0);
        let owned: u64 = loads.iter().map(|l| l.state.owned_nodes).sum();
        assert_eq!(owned, nodes, "every node owned by exactly one shard");
        for l in &loads {
            assert!(
                l.state.replica_bytes <= 8 * nodes,
                "shard {} replica {}B exceeds 8B × {nodes} nodes",
                l.shard,
                l.state.replica_bytes
            );
        }
    }
}

/// Placement is history-invariant at the full-campaign level: every
/// shard count is a different assignment by the weighted partitioner
/// (which moves the monitor/crawler singletons off shard 0, and at 7
/// shards — more shards than regions — must split regions), and each
/// replays the 1-shard trace — placement affects only which thread owns a
/// node, never what happens.
#[test]
fn tiny_campaign_placement_invariant() {
    let one = fingerprint(ScenarioConfig::tiny(42).with_shards(1), 8);
    assert!(one.1 > 50_000, "campaign actually ran: {one:?}");
    for shards in [2usize, 3, 4, 7] {
        let many = fingerprint(ScenarioConfig::tiny(42).with_shards(shards), 8);
        assert_eq!(one, many, "{shards}-shard tiny campaign diverged");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Randomized seeds: the balanced partition (whose cut points move
    /// with the seed's churn schedules, hence different splits each case)
    /// preserves the 1-shard history on a short tiny slice.
    #[test]
    fn balanced_placement_digest_invariant_randomized(seed in 1u64..100_000) {
        let one = fingerprint(ScenarioConfig::tiny(seed).with_shards(1), 3);
        for shards in [4usize, 7] {
            let many = fingerprint(ScenarioConfig::tiny(seed).with_shards(shards), 3);
            prop_assert_eq!(&one, &many, "{} shards diverged", shards);
        }
    }
}

#[test]
fn quick_campaign_slice_matches_across_shard_counts() {
    // A bounded slice of the Quick preset (bootstrap + first workload
    // hours): big enough to cross every shard boundary continuously,
    // small enough for CI.
    let one = fingerprint(ScenarioConfig::quick(7).with_shards(1), 2);
    let four = fingerprint(ScenarioConfig::quick(7).with_shards(4), 2);
    assert_eq!(one, four, "4-shard quick campaign slice diverged");
}
