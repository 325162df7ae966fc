//! The zero-perturbation contract for the flight recorder: running a full
//! campaign with the telemetry registry live must leave the trace digest
//! and every engine counter byte-identical to a telemetry-off run, at
//! every shard count — and the registry snapshot itself must be invariant
//! across shard counts, because it only folds commutative virtual-time
//! observations — and, since each thread records into its own sink, two
//! campaigns running at once must not see each other's recordings.

use netgen::ScenarioConfig;
use simnet::Dur;
use std::sync::Barrier;
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

/// Run with the registry live and return the fingerprint plus the
/// snapshot covering exactly this campaign.
fn instrumented(
    cfg: ScenarioConfig,
    hours: u64,
) -> ((u64, u64, u64, u64, usize), telemetry::Snapshot) {
    telemetry::reset();
    telemetry::set_enabled(true);
    let fp = fingerprint(cfg, hours);
    let snap = telemetry::snapshot();
    telemetry::set_enabled(false);
    telemetry::reset();
    (fp, snap)
}

#[test]
fn telemetry_on_off_and_shard_counts_agree_on_tiny_campaign() {
    telemetry::set_enabled(false);
    telemetry::reset();
    let baseline = fingerprint(ScenarioConfig::tiny(42).with_shards(1), 8);
    assert!(baseline.1 > 50_000, "campaign actually ran: {baseline:?}");

    let mut reference: Option<telemetry::Snapshot> = None;
    for shards in [1usize, 2, 4] {
        let (fp, snap) = instrumented(ScenarioConfig::tiny(42).with_shards(shards), 8);
        assert_eq!(
            fp, baseline,
            "telemetry-on {shards}-shard run perturbed the campaign"
        );
        let dials_ok = snap
            .counters
            .iter()
            .find(|(name, _)| *name == "dials_ok")
            .map(|(_, v)| *v)
            .unwrap();
        assert!(dials_ok > 0, "registry actually recorded");
        assert_eq!(
            dials_ok, baseline.3,
            "registry dials_ok matches engine stats"
        );
        match &reference {
            None => reference = Some(snap),
            Some(r) => {
                assert_eq!(r.digest(), snap.digest(), "{shards}-shard digest diverged");
                assert_eq!(r, &snap, "{shards}-shard registry snapshot diverged");
            }
        }
    }
}

#[test]
fn telemetry_on_off_agree_on_quick_campaign_slice() {
    telemetry::set_enabled(false);
    telemetry::reset();
    let baseline = fingerprint(ScenarioConfig::quick(7).with_shards(4), 2);
    let (fp, snap) = instrumented(ScenarioConfig::quick(7).with_shards(4), 2);
    assert_eq!(
        fp, baseline,
        "telemetry-on quick slice perturbed the campaign"
    );
    let (fp1, snap1) = instrumented(ScenarioConfig::quick(7).with_shards(1), 2);
    assert_eq!(fp1, baseline, "1-shard quick slice diverged");
    assert_eq!(snap, snap1, "quick-slice snapshot varies with shard count");
}

#[test]
fn concurrent_campaigns_keep_their_own_registries() {
    let a = || instrumented(ScenarioConfig::tiny(42).with_shards(1), 4);
    let b = || instrumented(ScenarioConfig::tiny(7).with_shards(2), 4);
    let alone = (a(), b());
    assert_ne!(
        alone.0 .1, alone.1 .1,
        "the two campaigns record differently"
    );
    let start = Barrier::new(2);
    let together = std::thread::scope(|s| {
        let ta = s.spawn(|| {
            start.wait();
            a()
        });
        let tb = s.spawn(|| {
            start.wait();
            b()
        });
        (
            ta.join().expect("campaign a"),
            tb.join().expect("campaign b"),
        )
    });
    assert_eq!(
        together.0, alone.0,
        "seed-42 campaign saw the other's recordings"
    );
    assert_eq!(
        together.1, alone.1,
        "seed-7 campaign saw the other's recordings"
    );
}
