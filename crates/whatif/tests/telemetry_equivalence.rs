//! Zero-perturbation across the counterfactual stack: the recovery
//! observatory — staged exit waves, fork-sampled probes, rendered rows —
//! must be byte-identical with telemetry on or off. Probes run on
//! discarded forks, so any telemetry leak into scheduling order would show
//! up here first.

use ipfs_types::Cid;
use netgen::{ScenarioConfig, StagedExitSpec};
use simnet::{Dur, SimTime};
use tcsb_core::{Campaign, CampaignOptions};
use whatif::TimelineConfig;

fn hour(h: u64) -> SimTime {
    SimTime::ZERO + Dur::from_hours(h)
}

/// Run the recovery-observatory timeline over a staged two-wave plan and
/// return the full rendered series plus the campaign digest.
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

#[test]
fn recovery_timeline_identical_with_telemetry_on_and_off() {
    telemetry::set_enabled(false);
    telemetry::reset();
    let off = run_recovery_timeline(7, 2);

    telemetry::reset();
    telemetry::set_enabled(true);
    let on = run_recovery_timeline(7, 2);
    let snap = telemetry::snapshot();
    telemetry::set_enabled(false);

    assert_eq!(off, on, "telemetry perturbed the recovery observatory");
    let dials_ok = snap
        .counters
        .iter()
        .find(|(name, _)| *name == "dials_ok")
        .map(|(_, v)| *v)
        .unwrap();
    assert!(
        dials_ok > 0,
        "registry actually recorded during the timeline"
    );
    let (spans, dropped) = telemetry::flight::len();
    assert!(spans > 0, "flight recorder captured wave/sample spans");
    assert_eq!(dropped, 0, "tiny timeline fits the ring");

    telemetry::reset();
    telemetry::set_enabled(true);
    let on4 = run_recovery_timeline(7, 4);
    let snap4 = telemetry::snapshot();
    telemetry::set_enabled(false);
    telemetry::reset();
    assert_eq!(off, on4, "4-shard telemetry-on timeline diverged");
    assert_eq!(snap, snap4, "timeline snapshot varies with shard count");
}
