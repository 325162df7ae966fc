//! End-to-end determinism and semantics tests for the counterfactual
//! engine, at tiny scale so they run in CI.

use netgen::{
    ExitStyle, InterventionKind, InterventionSpec, InterventionTarget, Platform, ScenarioConfig,
};
use simnet::{Dur, SimTime};
use tcsb_core::{Campaign, CampaignOptions};

fn opts() -> CampaignOptions {
    CampaignOptions {
        with_workload: true,
        with_requests: false,
        ..Default::default()
    }
}

/// Build a tiny campaign with the given plan, apply it, run for `hours`,
/// and return `(digest, campaign)`.
fn run_plan(seed: u64, plan: Vec<InterventionSpec>, hours: u64) -> (u64, Campaign) {
    let cfg = ScenarioConfig::tiny(seed).with_interventions(plan);
    let scenario = netgen::build(cfg);
    let mut campaign = Campaign::new(scenario, opts());
    whatif::apply(&mut campaign);
    campaign.run_for(Dur::from_hours(hours));
    (campaign.sim.trace_digest(), campaign)
}

fn cloud_exit_plan(style: ExitStyle) -> Vec<InterventionSpec> {
    vec![InterventionSpec::exit(
        SimTime::ZERO + Dur::from_hours(6),
        InterventionTarget::CloudFraction {
            fraction: 0.5,
            seed: 9,
        },
        style,
    )]
}

#[test]
fn compile_is_deterministic_and_complete() {
    let scenario = netgen::build(ScenarioConfig::tiny(5));
    let all_cloud = whatif::resolve_target(
        &scenario,
        &InterventionTarget::CloudFraction {
            fraction: 1.0,
            seed: 1,
        },
    );
    let expect: Vec<usize> = (0..scenario.nodes.len())
        .filter(|&i| scenario.nodes[i].provider.is_some())
        .collect();
    assert_eq!(all_cloud, expect, "fraction 1.0 selects every cloud node");
    let a = whatif::resolve_target(
        &scenario,
        &InterventionTarget::CloudFraction {
            fraction: 0.3,
            seed: 7,
        },
    );
    let b = whatif::resolve_target(
        &scenario,
        &InterventionTarget::CloudFraction {
            fraction: 0.3,
            seed: 7,
        },
    );
    assert_eq!(a, b, "same selection seed ⇒ same sample");
    let c = whatif::resolve_target(
        &scenario,
        &InterventionTarget::CloudFraction {
            fraction: 0.3,
            seed: 8,
        },
    );
    assert_ne!(a, c, "different selection seed ⇒ different sample");
    let hydras = whatif::resolve_target(&scenario, &InterventionTarget::Platform(Platform::Hydra));
    assert_eq!(hydras.len(), scenario.cfg.hydra_hosts);
}

#[test]
fn same_seed_same_plan_identical_digest() {
    let plan = || {
        vec![
            InterventionSpec::hydra_shutdown(SimTime::ZERO + Dur::from_hours(5)),
            InterventionSpec::exit(
                SimTime::ZERO + Dur::from_hours(7),
                InterventionTarget::CloudFraction {
                    fraction: 0.4,
                    seed: 3,
                },
                ExitStyle::Abrupt,
            ),
        ]
    };
    let (d1, c1) = run_plan(11, plan(), 10);
    let (d2, c2) = run_plan(11, plan(), 10);
    assert_eq!(d1, d2, "same seed + same plan must replay byte-identically");
    assert_eq!(c1.sim.stats().events, c2.sim.stats().events);
    assert!(
        c1.sim.stats().kinds.fault > 0,
        "plan actually injected faults"
    );
}

#[test]
fn empty_plan_is_byte_identical_to_plain_campaign() {
    // The golden no-op guarantee: threading a campaign through the whatif
    // engine with an empty plan must not perturb a single event.
    let (with_whatif, _) = run_plan(23, vec![], 8);
    let scenario = netgen::build(ScenarioConfig::tiny(23));
    let mut plain = Campaign::new(scenario, opts());
    plain.run_for(Dur::from_hours(8));
    assert_eq!(
        with_whatif,
        plain.sim.trace_digest(),
        "empty intervention plan must be a byte-identical no-op"
    );
}

#[test]
fn exits_are_permanent_and_styles_differ() {
    let (abrupt_digest, abrupt) = run_plan(31, cloud_exit_plan(ExitStyle::Abrupt), 12);
    let (graceful_digest, graceful) = run_plan(31, cloud_exit_plan(ExitStyle::Graceful), 12);
    assert_ne!(
        abrupt_digest, graceful_digest,
        "kill-without-FIN and clean shutdown must diverge"
    );
    // Same target set either way; all targets are offline and retired at
    // the end despite churn schedules that would have revived them.
    for c in [&abrupt, &graceful] {
        let plan = whatif::compile(&c.scenario);
        assert_eq!(plan.len(), 1);
        assert!(!plan[0].nodes.is_empty());
        for &i in &plan[0].nodes {
            let id = c.node_ids[i];
            assert!(!c.sim.core().is_online(id), "node {i} must stay down");
            assert!(c.sim.core().is_retired(id));
        }
    }
    // Graceful teardown notifies peers (ConnClosed events); the abrupt
    // variant kills the same population silently.
    assert!(graceful.sim.stats().kinds.node_down > abrupt.sim.stats().kinds.node_down);
}

#[test]
fn partition_splits_and_heals() {
    let plan = vec![InterventionSpec {
        at: SimTime::ZERO + Dur::from_hours(4),
        target: InterventionTarget::Region(2),
        kind: InterventionKind::Partition {
            heal_at: Some(SimTime::ZERO + Dur::from_hours(6)),
        },
    }];
    let (_, c) = run_plan(41, plan, 5);
    assert!(c.sim.core().partition_active(), "split is live at T+5h");
    let mut c2 = c;
    c2.run_for(Dur::from_hours(2));
    assert!(!c2.sim.core().partition_active(), "healed at T+7h");
}
