//! # experiments — regenerators for every table and figure
//!
//! One function per paper artefact (Table 1, Figs. 3–20, §3/§4 dataset
//! statistics), listed once in [`ARTEFACTS`] in paper order and organised
//! into campaign [`Group`]s so the expensive simulations run once per
//! group:
//!
//! * **Table 1** (`crawl_exp::table1`): pure computation, no campaign;
//! * **crawl group** (`crawl_exp`, `telemetry_exp`): stats, Figs. 3–8, the
//!   engine counters and the metrics-registry snapshot;
//! * **workload group** (`traffic_exp`, `entry_exp`): Figs. 9–20 and the
//!   engine counters;
//! * **counterfactual group** (`resilience_exp`): the `whatif-cloud-exit`
//!   sweep executing the paper's cloud-exit scenario mid-campaign;
//! * **recovery group** (`recovery_exp`): the `whatif-recovery` observatory
//!   — crawler-eye timelines and recovery metrics over staged multi-wave
//!   exits, sampled on engine forks;
//! * **replay group** (`workload_replay_exp`): the `workload-replay`
//!   artefact driving a generative production-shaped request stream (Zipf
//!   popularity, diurnal curves, a flash crowd) through a live campaign.
//!
//! [`run_all`] concatenates the groups' sections; [`run_one`] runs one
//! group and keeps one section, so a standalone artefact is by
//! construction its `repro all` section. The `repro` binary dispatches
//! these and can emit EXPERIMENTS.md.

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

/// A campaign group: the sections one simulation produces. Each group
/// derives its own seed, runs its campaign once and returns its sections
/// in [`ARTEFACTS`] order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Group {
    /// Table 1: the worked counting example, no campaign.
    Table1,
    /// The crawl campaign, run with the metrics registry live.
    Crawl,
    /// The workload campaign and the provider/ENS resolutions it serves.
    Workload,
    /// The cloud-exit sweep, one campaign per row.
    CloudExit,
    /// The recovery observatory, one campaign per staged exit.
    Recovery,
    /// The generative request replay.
    Replay,
}

impl Group {
    /// The group's campaign seed, derived from the run seed — the one
    /// place each derivation is spelled, so a standalone artefact and the
    /// plain-text CI artefacts see the campaign `repro all` runs.
    pub fn seed(self, seed: u64) -> u64 {
        match self {
            Group::Table1 | Group::Crawl => seed,
            Group::Workload => seed ^ 0xBEEF,
            Group::CloudExit => seed ^ 0xC10D,
            Group::Recovery => seed ^ 0x7EC0,
            Group::Replay => seed ^ 0xF00D,
        }
    }

    /// Run the group's campaign once and return its sections in order.
    /// `shards` is the engine shard count (0 = auto via `TCSB_SHARDS`).
    pub fn run(self, scale: Scale, seed: u64, shards: usize) -> Vec<Report> {
        let seed = self.seed(seed);
        match self {
            Group::Table1 => vec![crawl_exp::table1()],
            Group::Crawl => {
                // The registry snapshot covers exactly this campaign (the
                // trace digest is unchanged by telemetry; tests assert it).
                eprintln!("[repro] running crawl campaign ({scale:?}) …");
                let (crawl, telem) = telemetry_exp::instrumented(|| {
                    crawl_exp::collect(scale.config(seed).with_shards(shards), scale.crawls())
                });
                vec![
                    crawl_exp::stats(&crawl),
                    crawl_exp::fig03(&crawl),
                    crawl_exp::fig04(&crawl),
                    crawl_exp::fig05(&crawl),
                    crawl_exp::fig06(&crawl),
                    crawl_exp::fig07(&crawl),
                    crawl_exp::fig08(&crawl),
                    report::engine_report(
                        "engine-crawl",
                        "Engine counters — crawl campaign",
                        &crawl.engine,
                        crawl.wall_secs,
                        crawl.shards,
                        &crawl.loads,
                    ),
                    telemetry_exp::report(&telem),
                ]
            }
            Group::Workload => {
                eprintln!("[repro] running workload campaign ({scale:?}) …");
                let mut wl = traffic_exp::run_workload(scale.config(seed).with_shards(shards));
                let mut out = vec![
                    traffic_exp::fig09(&wl),
                    traffic_exp::fig10(&wl),
                    traffic_exp::fig11(&wl),
                    traffic_exp::fig12(&wl),
                    traffic_exp::fig13(&wl),
                ];
                eprintln!("[repro] resolving provider records …");
                let ds = traffic_exp::collect_providers(&mut wl, scale.provider_sample());
                let (r18, r19) = traffic_exp::fig18_19(&wl);
                out.extend([
                    traffic_exp::fig14(&wl, &ds),
                    traffic_exp::fig15(&wl, &ds),
                    traffic_exp::fig16(&wl, &ds),
                    entry_exp::fig17(&wl.campaign.scenario),
                    r18,
                    r19,
                    traffic_exp::fig20(&mut wl, scale.ens_sample()),
                    traffic_exp::engine(&wl),
                ]);
                out
            }
            Group::CloudExit => {
                eprintln!("[repro] running what-if cloud-exit sweep ({scale:?}) …");
                vec![resilience_exp::whatif_cloud_exit(scale, seed, shards)]
            }
            Group::Recovery => {
                eprintln!("[repro] running what-if recovery observatory ({scale:?}) …");
                vec![recovery_exp::whatif_recovery(scale, seed, shards)]
            }
            Group::Replay => {
                eprintln!("[repro] running workload replay ({scale:?}) …");
                let rd = workload_replay_exp::run(scale, seed, shards);
                vec![workload_replay_exp::report(&rd)]
            }
        }
    }
}

/// Every section `repro all` prints, in paper order, as
/// `(name, group, what it regenerates)`. The name is the section's report
/// id; a group's sections are contiguous and in the order its
/// [`Group::run`] returns them.
#[rustfmt::skip]
pub const ARTEFACTS: &[(&str, Group, &str)] = &[
    ("table1",            Group::Table1,    "Table 1 — counting-methodology worked example"),
    ("stats",             Group::Crawl,     "§3/§4 crawl dataset statistics"),
    ("fig03",             Group::Crawl,     "Fig. 3 — cloud share of DHT servers (A-N vs G-IP)"),
    ("fig04",             Group::Crawl,     "Fig. 4 — cumulative crawls vs unique peers/IPs"),
    ("fig05",             Group::Crawl,     "Fig. 5 — cloud provider attribution"),
    ("fig06",             Group::Crawl,     "Fig. 6 — country attribution"),
    ("fig07",             Group::Crawl,     "Fig. 7 — in-degree distribution"),
    ("fig08",             Group::Crawl,     "Fig. 8 — resilience under node removal"),
    ("engine-crawl",      Group::Crawl,     "scheduler counters of the crawl campaign"),
    ("telemetry",         Group::Crawl,     "metrics registry snapshot of the crawl campaign"),
    ("fig09",             Group::Workload,  "Fig. 9 — request frequency in days seen"),
    ("fig10",             Group::Workload,  "Fig. 10 — traffic share per peer (Lorenz)"),
    ("fig11",             Group::Workload,  "Fig. 11 — cloud share of DHT/Bitswap traffic"),
    ("fig12",             Group::Workload,  "Fig. 12 — cloud share of traffic IPs vs messages"),
    ("fig13",             Group::Workload,  "Fig. 13 — platform attribution of traffic"),
    ("fig14",             Group::Workload,  "Fig. 14 — provider population classes"),
    ("fig15",             Group::Workload,  "Fig. 15 — provider-record concentration"),
    ("fig16",             Group::Workload,  "Fig. 16 — CID cloud-exposure shares"),
    ("fig17",             Group::Workload,  "Fig. 17 — DNSLink gateway attribution"),
    ("fig18",             Group::Workload,  "Fig. 18 — gateway frontend attribution"),
    ("fig19",             Group::Workload,  "Fig. 19 — gateway frontend geolocation"),
    ("fig20",             Group::Workload,  "Fig. 20 — ENS content attribution"),
    ("engine-workload",   Group::Workload,  "scheduler counters of the workload campaign"),
    ("whatif-cloud-exit", Group::CloudExit, "what-if — lookup health vs cloud peers removed"),
    ("whatif-recovery",   Group::Recovery,  "what-if — recovery timelines over staged exits"),
    ("workload-replay",   Group::Replay,    "replay — Zipf stream, diurnal cycles, flash crowd"),
];

/// Run every group at the given scale; returns all sections in
/// [`ARTEFACTS`] order. Every table is byte-identical for every shard
/// count.
pub fn run_all(scale: Scale, seed: u64, shards: usize) -> Vec<Report> {
    let mut groups: Vec<Group> = ARTEFACTS.iter().map(|a| a.1).collect();
    groups.dedup();
    let reports: Vec<Report> = groups
        .into_iter()
        .flat_map(|g| g.run(scale, seed, shards))
        .collect();
    let ids: Vec<&str> = reports.iter().map(|r| r.id.as_str()).collect();
    let names: Vec<&str> = ARTEFACTS.iter().map(|a| a.0).collect();
    assert_eq!(ids, names, "group sections out of step with ARTEFACTS");
    reports
}

/// Run the group that owns section `name` and return that section — by
/// construction the one [`run_all`] prints. `None` if no section has that
/// name.
pub fn run_one(name: &str, scale: Scale, seed: u64, shards: usize) -> Option<Report> {
    let &(_, group, _) = ARTEFACTS.iter().find(|a| a.0 == name)?;
    let section = group
        .run(scale, seed, shards)
        .into_iter()
        .find(|r| r.id == name)
        .expect("a group returns every section ARTEFACTS assigns it");
    Some(section)
}

/// Render reports as the EXPERIMENTS.md body.
pub fn to_markdown(reports: &[Report], scale: Scale, seed: u64) -> String {
    let mut out = String::new();
    out.push_str("# EXPERIMENTS — paper vs. measured\n\n");
    out.push_str(&format!(
        "Generated by `repro all --scale {} --seed {seed}` (`repro list` indexes the \
sections; absolute counts scale with the scenario preset, shares and shapes are the \
reproduction targets).\n\n",
        scale.name()
    ));
    for r in reports {
        out.push_str(&r.to_markdown());
    }
    out
}
