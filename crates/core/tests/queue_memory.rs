//! The event queue's footprint follows its peak population. A fetch's
//! Bitswap broadcast lands ~190 deliveries in a couple of 2.1 ms wheel
//! slots; a wheel whose slots each keep the buffer of their largest burst
//! ends this replay holding 97 MB for a queue that never held more than
//! 9 703 events (the slab-backed wheel: 3.6 MB).

use netgen::{FlashCrowdSpec, ScenarioConfig, WorkloadSpec};
use simnet::{Dur, Sim, SimTime};
use tcsb_core::{Campaign, CampaignOptions, EcoActor};

const HOUR: u64 = 3_600_000_000_000;

#[test]
fn a_queued_ecosystem_event_fits_in_120_bytes() {
    // Every queued event is one wheel node holding a `WireMsg` (or a
    // command) in place; the stress hour keeps ≈ 475 k of them at once.
    let node = Sim::<EcoActor>::queued_event_bytes();
    assert!(node <= 120, "{node} B per queued event");
}

#[test]
fn replay_queue_bytes_are_bounded_by_peak_queue_len() {
    let seed = 7;
    let mut spec = WorkloadSpec::preset(3_000, (SimTime(6 * HOUR), SimTime(12 * HOUR)), seed);
    spec.flash = Some(FlashCrowdSpec {
        rank: 2,
        boost: 100,
        extra_requests: 400,
        window: (SimTime(8 * HOUR), SimTime(9 * HOUR)),
    });
    let scenario = netgen::build(ScenarioConfig::tiny(seed).with_shards(1));
    let mut c = Campaign::new(
        scenario,
        CampaignOptions {
            with_workload: true,
            with_requests: false,
            live_workload: Some(spec),
        },
    );
    c.run_for(Dur::from_hours(13));
    let peak = c.sim.stats().peak_queue_len;
    let queue_bytes = c.sim.state_bytes().queue_bytes;
    assert!(peak > 1_000, "the replay queued something: {peak}");
    // One slab node per event (the slab rounded up to whole segments),
    // the two key buffers each at most doubled by `Vec` growth, and
    // 32 KiB of list heads.
    let node = Sim::<EcoActor>::queued_event_bytes() as u64;
    let bound = 4 * peak * node + (32 << 10);
    assert!(
        queue_bytes <= bound,
        "{queue_bytes} B of queue retained for a peak of {peak} events (bound {bound} B)"
    );
}
