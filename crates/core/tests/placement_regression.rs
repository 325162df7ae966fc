//! Deterministic sharding regression oracle on the stress preset: at 4
//! shards the first virtual hour must replay the 1-shard history
//! byte-identically, with per-shard dispatch balance and epoch count
//! under fixed ceilings. Counters, not wall clock: every asserted number
//! is deterministic, so this holds on any host (including a 1-CPU CI
//! runner).

use simnet::Dur;
use tcsb_core::{Campaign, CampaignOptions};

/// Ceilings ~10 % above what this slice measures (dispatched max/min
/// 2.521, 39 104 epochs). A partitioner change that unbalances the shards
/// or a lookahead change that narrows the epoch windows trips them: whole
/// regions per shard measured ~430× on this hour, one global horizon for
/// every shard pair ~1.8× the epochs.
const RATIO_X1000_CEILING: u64 = 2_775;
const EPOCHS_CEILING: u64 = 43_000;

/// One bootstrap hour of the stress preset: dense enough to exercise
/// every shard pair continuously, small enough for a debug run.
fn stress_hour(shards: usize) -> Campaign {
    let scenario = netgen::build(netgen::ScenarioConfig::stress(7).with_shards(shards));
    let mut campaign = Campaign::new(
        scenario,
        CampaignOptions {
            with_workload: true,
            with_requests: false,
            ..Default::default()
        },
    );
    campaign.run_for(Dur::from_hours(1));
    campaign
}

#[test]
fn four_shards_replay_one_shard_history_balanced_and_in_few_epochs() {
    let one = stress_hour(1);
    let four = stress_hour(4);
    assert_eq!(
        four.sim.trace_digest(),
        one.sim.trace_digest(),
        "sharding changed history"
    );

    let loads = four.sim.shard_loads();
    let max = loads.iter().map(|l| l.dispatched).max().unwrap_or(0);
    let min = loads.iter().map(|l| l.dispatched).min().unwrap_or(0).max(1);
    let ratio_x1000 = max * 1000 / min;
    // The epoch schedule is deterministic: all shards agree on it.
    let epochs = loads[0].sync.epochs;
    println!(
        "stress hour at 4 shards: dispatched max/min ×1000 = {ratio_x1000}, epochs = {epochs}"
    );
    assert!(epochs > 0, "multi-shard run must use epochs");
    assert!(
        ratio_x1000 <= RATIO_X1000_CEILING,
        "dispatched max/min {ratio_x1000} (×1000) above ceiling {RATIO_X1000_CEILING}"
    );
    assert!(
        epochs <= EPOCHS_CEILING,
        "{epochs} epochs above ceiling {EPOCHS_CEILING}"
    );
}
