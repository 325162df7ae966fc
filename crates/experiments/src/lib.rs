//! # experiments — regenerators for every table and figure
//!
//! One function per paper artefact (Table 1, Figs. 3–20, §3/§4 dataset
//! statistics), organised into campaign groups so the expensive simulations
//! run once per group:
//!
//! * **crawl group** (`crawl_exp`): T1, stats, Figs. 3–8;
//! * **workload group** (`traffic_exp`): Figs. 9–16, 18–20;
//! * **static group** (`entry_exp`): Fig. 17;
//! * **counterfactual group** (`resilience_exp`): the `whatif-cloud-exit`
//!   sweep executing the paper's cloud-exit scenario mid-campaign;
//! * **recovery group** (`recovery_exp`): the `whatif-recovery` observatory
//!   — crawler-eye timelines and recovery metrics over staged multi-wave
//!   exits, sampled on engine forks;
//! * **replay group** (`workload_replay_exp`): the `workload-replay`
//!   artefact driving a generative production-shaped request stream (Zipf
//!   popularity, diurnal curves, a flash crowd) through a live campaign.
//!
//! The `repro` binary dispatches these and can emit EXPERIMENTS.md.

#![forbid(unsafe_code)]

pub mod crawl_exp;
pub mod entry_exp;
pub mod recovery_exp;
pub mod report;
pub mod resilience_exp;
pub mod telemetry_exp;
pub mod traffic_exp;
pub mod workload_replay_exp;

pub use report::{Report, Row, Unit};

use netgen::ScenarioConfig;

/// Experiment scale presets.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// CI-sized (seconds).
    Tiny,
    /// Default (minutes in release mode).
    Small,
    /// Larger populations, 14 virtual days.
    Quick,
    /// Scheduler stress test: thousands of nodes over a three-week virtual
    /// campaign with a dense connection fabric (see
    /// `ScenarioConfig::stress`).
    Stress,
    /// Paper-scale opt-in.
    Paper,
    /// Internet-scale opt-in: ~1M nodes, three virtual days, lean workload
    /// (see `ScenarioConfig::internet`). Nightly-only; exercises the
    /// struct-of-arrays engine layout at the population the paper measured.
    Internet,
}

/// Every scale, in increasing-cost order (drives `repro list`).
pub const SCALES: [Scale; 6] = [
    Scale::Tiny,
    Scale::Small,
    Scale::Quick,
    Scale::Stress,
    Scale::Paper,
    Scale::Internet,
];

impl Scale {
    /// The scenario preset for this scale.
    pub fn config(self, seed: u64) -> ScenarioConfig {
        match self {
            Scale::Tiny => ScenarioConfig::tiny(seed),
            Scale::Small => ScenarioConfig::small(seed),
            Scale::Quick => ScenarioConfig::quick(seed),
            Scale::Stress => ScenarioConfig::stress(seed),
            Scale::Paper => ScenarioConfig::paper(seed),
            Scale::Internet => ScenarioConfig::internet(seed),
        }
    }

    /// Crawls to run in the crawl group.
    pub fn crawls(self) -> usize {
        match self {
            Scale::Tiny => 6,
            Scale::Small => 14,
            Scale::Quick => 28,
            Scale::Stress => 42,
            Scale::Paper => 101,
            Scale::Internet => 9,
        }
    }

    /// CIDs sampled for the provider dataset.
    pub fn provider_sample(self) -> usize {
        match self {
            Scale::Tiny => 60,
            Scale::Small => 250,
            Scale::Quick => 800,
            Scale::Stress => 1500,
            Scale::Paper => 4000,
            Scale::Internet => 1500,
        }
    }

    /// CIDs sampled for the ENS resolution.
    pub fn ens_sample(self) -> usize {
        match self {
            Scale::Tiny => 40,
            Scale::Small => 150,
            Scale::Quick => 400,
            Scale::Stress => 800,
            Scale::Paper => 2000,
            Scale::Internet => 800,
        }
    }

    /// CLI flag spelling.
    pub fn name(self) -> &'static str {
        match self {
            Scale::Tiny => "tiny",
            Scale::Small => "small",
            Scale::Quick => "quick",
            Scale::Stress => "stress",
            Scale::Paper => "paper",
            Scale::Internet => "internet",
        }
    }

    /// Parse from CLI flag.
    pub fn parse(s: &str) -> Option<Scale> {
        SCALES.into_iter().find(|sc| sc.name() == s)
    }
}

/// Run every experiment at the given scale; returns all reports in paper
/// order. `shards` is the engine shard count (0 = auto via `TCSB_SHARDS`);
/// every table is byte-identical for every shard count.
pub fn run_all(scale: Scale, seed: u64, shards: usize) -> Vec<Report> {
    let mut reports = Vec::new();
    reports.push(crawl_exp::table1());

    // Crawl group — runs with the metrics registry live, so the telemetry
    // artefact below is the registry snapshot of exactly this campaign
    // (the trace digest is unchanged by telemetry; tests assert it).
    eprintln!("[repro] running crawl campaign ({scale:?}) …");
    let (crawl, telem) =
        telemetry_exp::collect_instrumented(scale.config(seed).with_shards(shards), scale.crawls());
    reports.push(crawl_exp::stats(&crawl));
    reports.push(crawl_exp::fig03(&crawl));
    reports.push(crawl_exp::fig04(&crawl));
    reports.push(crawl_exp::fig05(&crawl));
    reports.push(crawl_exp::fig06(&crawl));
    reports.push(crawl_exp::fig07(&crawl));
    reports.push(crawl_exp::fig08(&crawl));
    reports.push(report::engine_report(
        "engine-crawl",
        "Engine counters — crawl campaign",
        &crawl.engine,
        crawl.wall_secs,
        crawl.shards,
        &crawl.loads,
    ));
    reports.push(telemetry_exp::report(&telem));
    drop(crawl);

    // Workload group.
    eprintln!("[repro] running workload campaign ({scale:?}) …");
    let mut wl = traffic_exp::run_workload(scale.config(seed ^ 0xBEEF).with_shards(shards));
    reports.push(traffic_exp::fig09(&wl));
    reports.push(traffic_exp::fig10(&wl));
    reports.push(traffic_exp::fig11(&wl));
    reports.push(traffic_exp::fig12(&wl));
    reports.push(traffic_exp::fig13(&wl));
    eprintln!("[repro] resolving provider records …");
    let ds = traffic_exp::collect_providers(&mut wl, scale.provider_sample());
    reports.push(traffic_exp::fig14(&wl, &ds));
    reports.push(traffic_exp::fig15(&wl, &ds));
    reports.push(traffic_exp::fig16(&wl, &ds));
    // Entry points.
    reports.push(entry_exp::fig17(&wl.campaign.scenario));
    let (r18, r19) = traffic_exp::fig18_19(&wl);
    reports.push(r18);
    reports.push(r19);
    reports.push(traffic_exp::fig20(&mut wl, scale.ens_sample()));
    reports.push(traffic_exp::engine(&wl));
    drop(wl);

    // Counterfactual group.
    eprintln!("[repro] running what-if cloud-exit sweep ({scale:?}) …");
    reports.push(resilience_exp::whatif_cloud_exit(
        scale,
        seed ^ 0xC10D,
        shards,
    ));

    // Recovery group.
    eprintln!("[repro] running what-if recovery observatory ({scale:?}) …");
    reports.push(recovery_exp::whatif_recovery(scale, seed ^ 0x7EC0, shards));

    // Replay group — the generative request stream. Same seed derivation
    // as the standalone `repro workload-replay` artefact, so the digests
    // in EXPERIMENTS.md and the CI expectation file cross-check.
    eprintln!("[repro] running workload replay ({scale:?}) …");
    let rd = workload_replay_exp::run(scale, seed ^ 0xF00D, shards);
    reports.push(workload_replay_exp::report(&rd));
    reports
}

/// Render reports as the EXPERIMENTS.md body.
pub fn to_markdown(reports: &[Report], scale: Scale, seed: u64) -> String {
    let mut out = String::new();
    out.push_str("# EXPERIMENTS — paper vs. measured\n\n");
    out.push_str(&format!(
        "Generated by `repro all --scale {:?} --seed {seed}` (see DESIGN.md for the \
experiment index; absolute counts scale with the scenario preset, shares and \
shapes are the reproduction targets).\n\n",
        scale
    ));
    for r in reports {
        out.push_str(&r.to_markdown());
    }
    out
}
