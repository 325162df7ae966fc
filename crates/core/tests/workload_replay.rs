//! Live workload replay: the generative request stream (Zipf sampling,
//! diurnal curves, flash crowds) must replay byte-identically across
//! engine shard counts, and a configured flash crowd must actually change
//! the trace relative to the same spec without one.

use netgen::{FlashCrowdSpec, ScenarioConfig, WorkloadSpec};
use simnet::{Dur, SimTime};
use tcsb_core::{Campaign, CampaignOptions};

const HOUR: u64 = 3_600_000_000_000;

fn replay_spec(seed: u64, with_flash: bool) -> WorkloadSpec {
    let window = (SimTime(6 * HOUR), SimTime(12 * HOUR));
    let mut spec = WorkloadSpec::preset(3_000, window, seed ^ 0xF00D);
    if with_flash {
        spec.flash = Some(FlashCrowdSpec {
            rank: 2,
            boost: 100,
            extra_requests: 400,
            window: (SimTime(8 * HOUR), SimTime(9 * HOUR)),
        });
    }
    spec
}

/// Trace digest + request accounting after the replay window closes.
fn replay_fingerprint(seed: u64, shards: usize, with_flash: bool) -> (u64, u64, u64, u64) {
    let scenario = netgen::build(ScenarioConfig::tiny(seed).with_shards(shards));
    let mut c = Campaign::new(
        scenario,
        CampaignOptions {
            with_workload: true,
            with_requests: false,
            live_workload: Some(replay_spec(seed, with_flash)),
        },
    );
    c.run_for(Dur::from_hours(13));
    let (http, fetch) = c
        .sim
        .actor(c.webuser)
        .webuser()
        .replay
        .as_ref()
        .expect("campaign runs in replay mode")
        .issued;
    (c.sim.trace_digest(), c.sim.stats().events, http, fetch)
}

#[test]
fn flash_replay_matches_across_shard_counts() {
    let one = replay_fingerprint(42, 1, true);
    // The full configured stream was issued: 3 000 organic requests plus
    // the 400-request flash crowd, split between HTTP and direct fetches.
    assert_eq!(one.2 + one.3, 3_400, "request accounting: {one:?}");
    assert!(one.2 > 0 && one.3 > 0, "both routes exercised: {one:?}");
    for shards in [2usize, 4] {
        let many = replay_fingerprint(42, shards, true);
        assert_eq!(one, many, "{shards}-shard flash replay diverged");
    }
}

#[test]
fn flash_crowd_changes_the_trace() {
    let on = replay_fingerprint(42, 1, true);
    let off = replay_fingerprint(42, 1, false);
    assert_eq!(off.2 + off.3, 3_000, "organic-only accounting: {off:?}");
    assert_ne!(
        on.0, off.0,
        "flash crowd must leave a mark on the trace digest"
    );
}
