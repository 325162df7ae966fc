//! The traced path end to end on a short tiny-scale campaign, in a process
//! of its own (it switches the global telemetry flag): a traced run emits
//! exactly the per-layer catalog, telemetry leaves the history untouched,
//! and the attribution rows add up.

use netgen::ScenarioConfig;
use simnet::Dur;
use tcsb_bench::metrics::PER_LAYER;
use tcsb_bench::workloads::Harness;
use tcsb_bench::{kernels, report, workloads};

#[test]
fn traced_run_emits_the_per_layer_catalog_and_adds_up() {
    let seed = 3;
    let mut cfg = ScenarioConfig::tiny(seed);
    cfg.duration = Dur::from_hours(14);
    let cal = kernels::calibrate(seed);
    let mut h = Harness::new();
    let plain = workloads::crawl(cfg.clone(), 2, &mut h);
    assert!(plain.telem.is_none() && plain.fork_s.is_empty() && h.tr.spans().is_empty());

    telemetry::set_enabled(true);
    h.tr.recording = true;
    let traced = workloads::crawl(cfg, 2, &mut h);
    h.tr.recording = false;
    telemetry::set_enabled(false);
    let tr = &h.tr;
    let reps = [plain, traced];
    assert_eq!(
        workloads::tally(&reps),
        (4, 0),
        "telemetry perturbed the history"
    );
    assert_eq!(tr.durations("core.crawler.crawl").len(), 2);

    let rows = kernels::run_all(seed, &cal);
    let values = report::per_layer(&reps[..1], &reps[1..], tr, rows);
    let ordered = report::in_catalog_order(&values, PER_LAYER).expect("catalog and run agree");
    let get = |name: &str| {
        let (_, v) = ordered.iter().find(|(d, _)| d.name == name).expect(name);
        assert!(v.value.is_finite(), "{name} = {}", v.value);
        v.value
    };
    for (def, _) in &ordered {
        get(def.name);
    }
    // A kernel keeps every round, so its spread travels with its median.
    let (_, near) = ordered
        .iter()
        .find(|(d, _)| d.name == "simnet.wheel.push_pop_near_ns")
        .expect("wheel kernel");
    assert_eq!(near.samples.len(), kernels::ROUNDS);
    let parts = [
        "engine_s",
        "sync_s",
        "fork_s",
        "analysis_s",
        "actors_residual_s",
    ];
    let sum: f64 = parts.iter().map(|p| get(&format!("attrib.{p}"))).sum();
    assert!((sum - get("attrib.wall_s")).abs() < 1e-9);
    assert!(get("simnet.engine.event_bytes") > 0.0 && get("simnet.engine.fork_ms") > 0.0);
    assert!(get("kademlia.lookups_completed") > 0.0 && get("core.crawler.crawl_s_p50") > 0.0);
    assert_eq!(
        get("simnet.shard.epochs"),
        0.0,
        "single-shard campaign has no epochs"
    );
    assert_eq!(
        get("requests_per_s"),
        0.0,
        "the crawl campaign issues no requests"
    );
}
