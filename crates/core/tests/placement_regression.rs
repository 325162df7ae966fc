//! Deterministic sharding regression oracles on the stress preset: at 4
//! shards the first virtual hour must replay the 1-shard history
//! byte-identically, with per-shard dispatch balance and epoch count
//! under fixed ceilings. Counters, not wall clock: every asserted number
//! is deterministic, so this holds on any host (including a 1-CPU CI
//! runner).
//!
//! The two `#[ignore]`d oracles (nightly, release, `-- --ignored`) keep
//! what only the retired `crates/bench` ledger measured: the 48 h
//! steady-state balance of the crawl campaign and the replica budget of
//! the ~1 M-node internet preset. That ledger's 6 h / 4-shard counters
//! (294 976 epochs, dispatched max/min 1.82) are the 1 h oracle below at
//! a longer horizon and were not ported.

use simnet::Dur;
use tcsb_core::{Campaign, CampaignOptions};

/// Ceilings ~10 % above what this slice measures (dispatched max/min
/// 2.521, 39 104 epochs). A partitioner change that unbalances the shards
/// or a lookahead change that narrows the epoch windows trips them: whole
/// regions per shard measured ~430× on this hour, one global horizon for
/// every shard pair ~1.8× the epochs.
const RATIO_X1000_CEILING: u64 = 2_775;
const EPOCHS_CEILING: u64 = 43_000;

/// The stress preset run for `horizon`. One bootstrap hour is dense
/// enough to exercise every shard pair continuously and small enough for
/// a debug run.
fn stress_run(shards: usize, with_workload: bool, horizon: Dur) -> Campaign {
    let scenario = netgen::build(netgen::ScenarioConfig::stress(7).with_shards(shards));
    let mut campaign = Campaign::new(
        scenario,
        CampaignOptions {
            with_workload,
            with_requests: false,
            ..Default::default()
        },
    );
    campaign.run_for(horizon);
    campaign
}

/// Per-shard dispatched-event counts.
fn dispatched(loads: &[simnet::ShardLoad]) -> Vec<u64> {
    loads.iter().map(|l| l.dispatched).collect()
}

/// Largest over smallest, ×1000.
fn ratio_x1000(counts: &[u64]) -> u64 {
    let max = counts.iter().copied().max().unwrap_or(0);
    let min = counts.iter().copied().min().unwrap_or(0).max(1);
    max * 1000 / min
}

#[test]
fn four_shards_replay_one_shard_history_balanced_and_in_few_epochs() {
    let one = stress_run(1, true, Dur::from_hours(1));
    let four = stress_run(4, true, Dur::from_hours(1));
    assert_eq!(
        four.sim.trace_digest(),
        one.sim.trace_digest(),
        "sharding changed history"
    );

    let loads = four.sim.shard_loads();
    let ratio_x1000 = ratio_x1000(&dispatched(&loads));
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

/// The load-balance venue: the crawl campaign (the `repro budget`
/// configuration the placement weight model is calibrated against), run
/// long enough that the bootstrap dial storm — which concentrates on the
/// region-0/cloud shard regardless of placement — stops dominating the
/// cumulative counters. Ceilings ~10 % above the measured cumulative
/// max/min 1.54, 24→48 h window 1.47 and 928 196 epochs; the full 504 h
/// budget measured 1.49 (PR 9, CHANGES.md).
#[test]
#[ignore = "48 virtual hours twice: minutes in release (nightly)"]
fn steady_state_balance_48h_at_4_shards() {
    let day = Dur::from_hours(24);
    let mut four = stress_run(4, false, day);
    let mid = dispatched(&four.sim.shard_loads());
    four.run_for(day);
    let loads = four.sim.shard_loads();
    let cum = dispatched(&loads);
    let window: Vec<u64> = cum.iter().zip(&mid).map(|(c, m)| c - m).collect();
    let (cum_x1000, window_x1000) = (ratio_x1000(&cum), ratio_x1000(&window));
    let epochs = loads[0].sync.epochs;
    println!(
        "stress crawl campaign, 48 h at 4 shards: dispatched max/min ×1000 = {cum_x1000} \
         cumulative, {window_x1000} over 24→48 h, epochs = {epochs}"
    );
    assert!(cum_x1000 <= 1_700, "cumulative max/min {cum_x1000} (×1000)");
    assert!(
        window_x1000 <= 1_620,
        "24→48 h max/min {window_x1000} (×1000)"
    );
    assert!(epochs <= 1_020_000, "{epochs} epochs");
    assert_eq!(
        four.sim.trace_digest(),
        stress_run(1, false, day + day).sim.trace_digest(),
        "sharding changed history"
    );
}

/// The struct-of-arrays memory contract at ~1 M nodes: replicated columns
/// cost exactly 8 B per node on every shard, however many shards
/// `TCSB_SHARDS` asks for.
#[test]
#[ignore = "builds and runs the ~1 M-node internet preset (nightly)"]
fn internet_hour_keeps_the_replica_budget() {
    let cfg = netgen::ScenarioConfig::internet(7);
    let shards = cfg.effective_shards() as u64;
    let mut campaign = Campaign::new(netgen::build(cfg), CampaignOptions::default());
    campaign.run_for(Dur::from_hours(1));
    let events = campaign.sim.stats().events;
    let state = campaign.sim.state_bytes();
    println!(
        "internet hour at {shards} shards: {} nodes, {events} events, replica bytes = {}",
        state.nodes, state.replica_bytes
    );
    assert!(events > 0);
    assert_eq!(state.replica_bytes, 8 * state.nodes * shards);
}
