//! Crawler determinism and fork-isolation: the observatory contract.
//!
//! Two properties make mid-campaign crawler-eye sampling trustworthy:
//!
//! 1. the same seed + scenario yields the identical `CrawledPeer` set for
//!    every engine shard count (the crawl is an ordinary actor, so it
//!    inherits the shard-invariance contract);
//! 2. a crawl taken on a fork ([`Campaign::with_fork`]) does not alter the
//!    trace digest of any subsequent non-crawl event — the observed run is
//!    byte-identical to a run that was never observed.

use netgen::ScenarioConfig;
use simnet::Dur;
use tcsb_core::{Campaign, CampaignOptions, CrawlSnapshot};

fn opts() -> CampaignOptions {
    CampaignOptions {
        with_workload: true,
        with_requests: false,
        ..Default::default()
    }
}

fn campaign(seed: u64, shards: usize) -> Campaign {
    let cfg = ScenarioConfig::tiny(seed).with_shards(shards);
    Campaign::new(netgen::build(cfg), opts())
}

/// Warm a campaign and take one forked crawl snapshot at T+6h.
fn forked_crawl(seed: u64, shards: usize) -> CrawlSnapshot {
    let mut c = campaign(seed, shards);
    c.run_for(Dur::from_hours(6));
    c.with_fork(|fork| {
        let idx = fork.crawl(Dur::from_mins(40));
        fork.snapshots()[idx].clone()
    })
}

#[test]
fn crawled_peer_set_identical_across_shard_counts() {
    let one = forked_crawl(17, 1);
    assert!(
        one.peer_count() > 20 && one.crawlable_count() > 0,
        "crawl actually discovered peers: {} ({} crawlable)",
        one.peer_count(),
        one.crawlable_count()
    );
    let two = forked_crawl(17, 2);
    let four = forked_crawl(17, 4);
    assert_eq!(one.peers, two.peers, "2-shard crawl diverged");
    assert_eq!(one.peers, four.peers, "4-shard crawl diverged");
    assert_eq!(one.edges, four.edges, "4-shard crawl graph diverged");
}

#[test]
fn forked_crawl_does_not_perturb_subsequent_trace() {
    // Observed run: crawl + probe traffic happens on a fork at T+6h.
    let mut observed = campaign(29, 1);
    observed.run_for(Dur::from_hours(6));
    let mid_digest = observed.sim.trace_digest();
    let snap = observed.with_fork(|fork| {
        let idx = fork.crawl(Dur::from_mins(40));
        // Drive the fork further so divergence would have time to leak.
        fork.run_for(Dur::from_hours(1));
        fork.snapshots()[idx].clone()
    });
    assert!(snap.peer_count() > 0, "fork crawl found peers");
    assert_eq!(
        observed.sim.trace_digest(),
        mid_digest,
        "restoring the fork must restore the digest exactly"
    );
    observed.run_for(Dur::from_hours(4));

    // Control run: never observed.
    let mut control = campaign(29, 1);
    control.run_for(Dur::from_hours(10));

    assert_eq!(
        observed.sim.trace_digest(),
        control.sim.trace_digest(),
        "a forked crawl must not alter the trace of subsequent events"
    );
    assert_eq!(
        observed.sim.stats().events,
        control.sim.stats().events,
        "event counts must match an unobserved run"
    );
}

#[test]
fn fork_restores_clock_and_crawl_state() {
    let mut c = campaign(31, 1);
    c.run_for(Dur::from_hours(6));
    let now = c.now();
    c.with_fork(|fork| {
        fork.crawl(Dur::from_mins(40));
        assert!(fork.now() > now, "fork time advances during the crawl");
        assert_eq!(fork.snapshots().len(), 1);
    });
    assert_eq!(c.now(), now, "main clock is untouched");
    assert!(
        c.snapshots().is_empty(),
        "main crawler never ran; fork snapshots are discarded"
    );
    // A later fork starts from the same crawl sequence — deterministic ids.
    let id = c.with_fork(|fork| {
        fork.crawl(Dur::from_mins(40));
        fork.snapshots()[0].crawl_id
    });
    assert_eq!(id, 1, "crawl_seq restored with the fork");
}
