//! Shard invariance for counterfactual plans: intervention faults (kills,
//! retirements, region partitions) land on nodes spread across every
//! shard, and the engine broadcasts their replicated state under one
//! harness key — so a whatif campaign must replay byte-identically for
//! every shard count, exactly like a plain one.

use ipfs_types::Cid;
use netgen::{
    ExitStyle, InterventionKind, InterventionSpec, InterventionTarget, Platform, ScenarioConfig,
    StagedExitSpec,
};
use proptest::prelude::*;
use simnet::{Dur, SimTime};
use tcsb_core::{Campaign, CampaignOptions};
use whatif::TimelineConfig;

fn run(seed: u64, plan: Vec<InterventionSpec>, shards: usize, hours: u64) -> (u64, u64, u64, u64) {
    let cfg = ScenarioConfig::tiny(seed)
        .with_interventions(plan)
        .with_shards(shards);
    let scenario = netgen::build(cfg);
    let mut campaign = Campaign::new(
        scenario,
        CampaignOptions {
            with_workload: true,
            with_requests: false,
            ..Default::default()
        },
    );
    whatif::apply(&mut campaign);
    campaign.run_for(Dur::from_hours(hours));
    let stats = campaign.sim.stats();
    (
        campaign.sim.trace_digest(),
        stats.events,
        stats.kinds.fault,
        stats.msgs_delivered,
    )
}

fn hour(h: u64) -> SimTime {
    SimTime::ZERO + Dur::from_hours(h)
}

#[test]
fn cloud_exit_plan_matches_across_shard_counts() {
    let plan = vec![InterventionSpec::exit(
        hour(4),
        InterventionTarget::CloudFraction {
            fraction: 0.5,
            seed: 9,
        },
        ExitStyle::Abrupt,
    )];
    let one = run(11, plan.clone(), 1, 8);
    assert!(one.2 > 0, "faults actually fired: {one:?}");
    assert_eq!(one, run(11, plan.clone(), 2, 8), "2-shard whatif diverged");
    assert_eq!(one, run(11, plan, 4, 8), "4-shard whatif diverged");
}

/// Placement is a pure ownership concern even under fault injection:
/// every shard count is a different assignment by the partitioner (which
/// splits hot regions across shards), and each replays an intervention
/// plan byte-identically, including a prime count (7) that forces splits.
#[test]
fn placement_invariant_under_interventions() {
    let plan = vec![InterventionSpec::exit(
        hour(3),
        InterventionTarget::CloudFraction {
            fraction: 0.4,
            seed: 5,
        },
        ExitStyle::Graceful,
    )];
    let one = run(17, plan.clone(), 1, 7);
    assert!(one.2 > 0, "faults actually fired: {one:?}");
    for shards in [2usize, 4, 7] {
        assert_eq!(
            one,
            run(17, plan.clone(), shards, 7),
            "{shards}-shard whatif diverged"
        );
    }
}

#[test]
fn region_partition_with_heal_matches_across_shard_counts() {
    // A partition severing one region — with region-per-shard placement
    // this cuts exactly along (and across) shard boundaries, the hardest
    // case for the broadcast fault path.
    let plan = vec![InterventionSpec {
        at: hour(3),
        target: InterventionTarget::Region(1),
        kind: InterventionKind::Partition {
            heal_at: Some(hour(6)),
        },
    }];
    let one = run(23, plan.clone(), 1, 9);
    assert!(one.2 > 0, "faults actually fired: {one:?}");
    assert_eq!(
        one,
        run(23, plan.clone(), 2, 9),
        "2-shard partition diverged"
    );
    assert_eq!(one, run(23, plan, 4, 9), "4-shard partition diverged");
}

/// Run the recovery-observatory timeline (the machinery behind the
/// `whatif-recovery` artefact) over a staged two-wave plan at tiny scale
/// and return its full rendered series plus the final digest.
fn run_recovery_timeline(seed: u64, shards: usize) -> (Vec<String>, u64) {
    let t1 = hour(4);
    let t2 = hour(6);
    let plan = StagedExitSpec::aws_then_hydra(t1, t2).into_plan();
    let cfg = ScenarioConfig::tiny(seed)
        .with_interventions(plan.clone())
        .with_shards(shards);
    let scenario = netgen::build(cfg);
    let cids: Vec<Cid> = scenario
        .content
        .iter()
        .filter(|item| item.publish_at < hour(2))
        .take(12)
        .map(|item| item.cid)
        .collect();
    let mut campaign = Campaign::new(
        scenario,
        CampaignOptions {
            with_workload: true,
            with_requests: false,
            ..Default::default()
        },
    );
    whatif::apply(&mut campaign);
    let tl_cfg = TimelineConfig {
        samples: TimelineConfig::sample_times_for_plan(
            &plan,
            Dur::from_hours(1),
            Dur::from_hours(2),
            Dur::from_hours(1),
        ),
        probe_cids: cids,
        probe_spacing: Dur::from_secs(20),
        crawl_max_wait: Dur::from_mins(40),
    };
    let timeline = whatif::timeline::run(&mut campaign, &tl_cfg);
    assert!(timeline.samples.len() >= 3, "cadence produced samples");
    (timeline.render_rows(t2), campaign.sim.trace_digest())
}

/// The `whatif-recovery` observatory must be byte-identical for every
/// shard count: the rendered time series (population counts, health,
/// routing fill) *and* the campaign digest — which, because samples run on
/// discarded forks, is also the digest of an unobserved campaign.
#[test]
fn recovery_timeline_matches_across_shard_counts() {
    let one = run_recovery_timeline(7, 1);
    assert_eq!(
        one,
        run_recovery_timeline(7, 2),
        "2-shard timeline diverged"
    );
    assert_eq!(
        one,
        run_recovery_timeline(7, 4),
        "4-shard timeline diverged"
    );
}

fn target_strategy() -> impl Strategy<Value = InterventionTarget> {
    (any::<u8>(), 0.0..1.0f64, any::<u64>()).prop_map(|(sel, fraction, seed)| match sel % 4 {
        0 => InterventionTarget::CloudFraction { fraction, seed },
        1 => InterventionTarget::RandomFraction {
            fraction: fraction / 2.0,
            seed,
        },
        2 => InterventionTarget::Platform(Platform::Hydra),
        _ => InterventionTarget::Region((seed % 4) as u16),
    })
}

fn kind_strategy() -> impl Strategy<Value = InterventionKind> {
    (any::<u8>(), 3u64..7).prop_map(|(sel, h)| match sel % 4 {
        0 => InterventionKind::Exit {
            style: ExitStyle::Abrupt,
        },
        1 => InterventionKind::Exit {
            style: ExitStyle::Graceful,
        },
        2 => InterventionKind::Partition {
            heal_at: Some(hour(h)),
        },
        _ => InterventionKind::Partition { heal_at: None },
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Random tiny-scale intervention plans replay identically on 1, 2 and
    /// 4 shards.
    #[test]
    fn random_plans_match_across_shard_counts(
        seed in 1u64..100_000,
        at_hour in 2u64..5,
        target in target_strategy(),
        kind in kind_strategy(),
    ) {
        let plan = vec![InterventionSpec { at: hour(at_hour), target, kind }];
        let one = run(seed, plan.clone(), 1, 6);
        prop_assert_eq!(&one, &run(seed, plan.clone(), 2, 6), "2-shard diverged");
        prop_assert_eq!(&one, &run(seed, plan, 4, 6), "4-shard diverged");
    }
}
