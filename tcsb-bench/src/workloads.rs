//! The four workloads. Each drives the simulator through public
//! functions only and is timed from outside; one call to [`run_rep`] is one
//! repetition: set-up (`netgen::build` + `Campaign::new`), the measured
//! run, and the checks on what it produced.
//!
//! The request streams are open-loop in *virtual* time (deterministic,
//! never late) and closed in host time; every number here says which of
//! the two clocks it reads. Host timings here are raw host seconds; each
//! repetition carries the host speed measured over it (see
//! [`crate::calib`]), by which the end-to-end figures are brought to the
//! reference host when they are reported.

use crate::calib::{Calibrator, Mark};
use crate::host;
use crate::span::Tracer;
use experiments::crawl_exp::{self, CrawlData};
use experiments::{Report, Scale, Unit};
use netgen::{ScenarioConfig, StagedExitSpec};
use simnet::{Dur, ShardLoad, SimStats, SimTime};
use tcsb_core::{Campaign, CampaignOptions};

/// A named workload and the reason it exists.
pub struct Workload {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Why it was chosen: which layers carry its cost.
    pub why: &'static str,
}

/// Every workload, in `BENCHMARK.json` order.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "crawl_small",
        why: "the paper's crawl campaign at small scale: simnet timers/dials/churn, kademlia tables and crawler walks, counting and analysis carry the cost; bitswap idles",
    },
    Workload {
        name: "replay_tiny",
        why: "Zipf + diurnal + flash request stream at tiny scale: replay driver, ipfs-node fetch path, bitswap and provider lookups carry the cost; the crawler idles",
    },
    Workload {
        name: "sharded_stress_1h",
        why: "first virtual hour of the stress scenario on 1 and on 2 shards in alternating order; timings are the 1-shard run's, the 2-shard run shows in shard_speedup and simnet.shard.*; the largest working set",
    },
    Workload {
        name: "whatif_recovery_small",
        why: "two-wave AWS-then-Hydra exit with 7 fork-sampled observations: engine state is cloned and written (copy-on-write, actor Clone, queue copy), not dispatched",
    },
];

/// Crawls in the `crawl_small` campaign (`Scale::Small.crawls()`).
const CRAWLS: usize = 14;
/// Virtual length of one `sharded_stress_1h` run.
const STRESS_SLICE: Dur = Dur(HOUR);
const HOUR: u64 = 3_600_000_000_000;

/// What a workload is measured with: the span recorder and the
/// host-speed calibrator whose slices run between its segments.
pub struct Harness {
    pub tr: Tracer,
    pub cal: Calibrator,
}

impl Harness {
    pub fn new() -> Harness {
        Harness {
            tr: Tracer::new(),
            cal: Calibrator::new(),
        }
    }
}

impl Default for Harness {
    fn default() -> Self {
        Harness::new()
    }
}

/// One set-up: its host seconds and the host speed read off the
/// calibration slice walked right after it.
#[derive(Clone, Copy)]
pub struct SetUp {
    pub secs: f64,
    pub speed: f64,
}

/// What one repetition produced. Timings are raw host seconds.
pub struct Rep {
    /// Host speed over the measured run (1 = the reference host), from the
    /// calibration slices interleaved with it.
    pub speed: f64,
    /// The set-up (`netgen::build` + `Campaign::new`).
    pub setup: SetUp,
    /// Seconds of the measured run, artefact analysis included, calibration
    /// slices excluded.
    pub wall_s: f64,
    /// User + system CPU seconds over the same interval as `wall_s`.
    pub cpu_s: f64,
    /// Trace digest at the end of the measured run (simulated, exact).
    pub digest: u64,
    /// Engine counters at the end of the measured run.
    pub stats: SimStats,
    /// Per-shard load and memory accounting at the end of the run.
    pub loads: Vec<ShardLoad>,
    /// Operations the run's checks covered, and how many failed them.
    pub attempted: u64,
    pub failed: u64,
    /// `sharded_stress_1h` only: wall and CPU seconds of the 2-shard run
    /// (`setup_s`, `wall_s` and `cpu_s` are the 1-shard run's).
    pub two_shards: Option<(f64, f64)>,
    /// Voluntary context switches over the measured run (the 2-shard one
    /// on `sharded_stress_1h`).
    pub ctx_switches: u64,
    /// `replay_tiny` only: requests the replay driver issued.
    pub requests: u64,
    /// `crawl_small` only: mean |measured − paper| in percentage points
    /// over the crawl-group `Unit::Pct` rows (simulated, exact).
    pub fidelity_pp: Option<f64>,
    /// `crawl_small` only: mean peers per crawl (simulated, exact).
    pub peers_per_crawl: Option<f64>,
    /// Seconds of each `Campaign::crawl` (`crawl_small`).
    pub crawl_s: Vec<f64>,
    /// Seconds of each `whatif::sample_now` (`whatif_recovery_small`).
    pub sample_s: Vec<f64>,
    /// Seconds of bare `Campaign::with_fork(|_| ())` calls on the
    /// warmed campaign, after the measured run. Traced repetitions only.
    pub fork_s: Vec<f64>,
    /// What the telemetry crate recorded over this repetition's measured
    /// campaign. Traced repetitions only.
    pub telem: Option<Telem>,
}

/// Telemetry of one campaign: the metrics registry (virtual-time, exact)
/// and the share of epoch wall time the shards spent dispatching (host).
pub struct Telem {
    pub snap: telemetry::Snapshot,
    /// Σ work µs / Σ epoch µs over the retained epoch-profiler samples;
    /// `None` on single-shard runs, which have no epochs.
    pub work_share: Option<f64>,
}

impl Rep {
    /// The fields every workload fills the same way, read off the campaign
    /// at the end of its measured run; the workload-specific ones empty.
    fn new(setup: SetUp, run: Run, c: &Campaign) -> Rep {
        Rep {
            speed: run.speed,
            setup,
            wall_s: run.wall_s,
            cpu_s: run.cpu_s,
            ctx_switches: run.ctx_switches,
            digest: c.sim.trace_digest(),
            stats: c.sim.stats(),
            loads: c.sim.shard_loads(),
            attempted: 0,
            failed: 0,
            two_shards: None,
            requests: 0,
            fidelity_pp: None,
            peers_per_crawl: None,
            crawl_s: Vec::new(),
            sample_s: Vec::new(),
            fork_s: Vec::new(),
            telem: observe(),
        }
    }

    /// Seconds of the measured run on the reference host.
    pub fn wall_ref_s(&self) -> f64 {
        self.wall_s * self.speed
    }
}

/// What `workload`'s set-up builds from `seed`: the scenario and the
/// campaign options. The one place that spells them, for the measured
/// repetitions and the set-up-only samples alike.
fn inputs(workload: &str, seed: u64) -> Result<(ScenarioConfig, CampaignOptions), String> {
    match workload {
        "crawl_small" => Ok((ScenarioConfig::small(seed).with_shards(1), crawl_options())),
        "replay_tiny" => Ok((
            ScenarioConfig::tiny(seed).with_shards(1),
            CampaignOptions {
                with_workload: true,
                with_requests: false,
                live_workload: Some(experiments::workload_replay_exp::replay_spec(
                    Scale::Tiny,
                    seed,
                )),
                ..Default::default()
            },
        )),
        // The timed run of the pair; the 2-shard run differs in the
        // shard count alone.
        "sharded_stress_1h" => Ok((
            ScenarioConfig::stress(seed).with_shards(1),
            CampaignOptions::default(),
        )),
        "whatif_recovery_small" => Ok((
            recovery_config(seed),
            CampaignOptions {
                with_workload: true,
                with_requests: false,
                ..Default::default()
            },
        )),
        other => Err(format!("unknown workload {other:?}")),
    }
}

/// Run repetition number `index` (from 0) of `workload` on inputs derived
/// from `seed`.
pub fn run_rep(workload: &str, seed: u64, index: usize, h: &mut Harness) -> Result<Rep, String> {
    let (cfg, opts) = inputs(workload, seed)?;
    Ok(match workload {
        "crawl_small" => crawl(cfg, CRAWLS, h),
        "replay_tiny" => replay(cfg, opts, h),
        // 1, 2, 2, 1, …: neither shard count always inherits the other's
        // warmed heap, or the cold process.
        "sharded_stress_1h" => sharded(cfg, opts, index.is_multiple_of(2), h),
        _ => whatif_recovery(cfg, opts, h),
    })
}

/// `netgen::build` + `Campaign::new`, timed together (the set-up) and
/// apart (the `netgen.build` / `core.campaign.new` spans), and one
/// calibration slice right after, which is that set-up's host speed.
fn set_up(cfg: ScenarioConfig, opts: CampaignOptions, h: &mut Harness) -> (Campaign, SetUp) {
    // With telemetry on, the registry then covers exactly the campaign
    // built here.
    telemetry::reset();
    let all = h.tr.begin("setup");
    let b = h.tr.begin("netgen.build");
    let scenario = netgen::build(cfg);
    h.tr.end(b);
    let n = h.tr.begin("core.campaign.new");
    let campaign = Campaign::new(scenario, opts);
    h.tr.end(n);
    let secs = h.tr.end(all);
    let mark = h.cal.mark();
    h.cal.slice();
    let speed = h.cal.speed_since(mark);
    (campaign, SetUp { secs, speed })
}

/// Set-up alone, as the workload performs it: extra samples for the
/// `setup_s` median on workloads whose set-up is cheap.
pub fn set_up_only(workload: &str, seed: u64, h: &mut Harness) -> Result<SetUp, String> {
    let (cfg, opts) = inputs(workload, seed)?;
    Ok(set_up(cfg, opts, h).1)
}

/// What a [`Meter`] read over a measured run.
struct Run {
    wall_s: f64,
    cpu_s: f64,
    ctx_switches: u64,
    speed: f64,
}

/// Interval meter: wall seconds (the `run` span), CPU seconds, voluntary
/// context switches and host speed between `start` and `stop`. Calibration
/// slices inside the interval set the speed and are taken out of the two
/// clocks.
struct Meter {
    span: crate::span::Open,
    cpu0: f64,
    ctx0: u64,
    cal0: Mark,
}

impl Meter {
    fn start(h: &mut Harness) -> Meter {
        let meter = Meter {
            cpu0: host::cpu_s(),
            ctx0: host::voluntary_ctx_switches(),
            cal0: h.cal.mark(),
            span: h.tr.begin("run"),
        };
        h.cal.slice();
        meter
    }

    fn stop(self, h: &mut Harness) -> Run {
        let span_s = h.tr.end(self.span);
        let cal_s = h.cal.secs_since(self.cal0);
        Run {
            wall_s: span_s - cal_s,
            // A slice is one busy thread: its CPU time is its wall time.
            cpu_s: host::cpu_s() - self.cpu0 - cal_s,
            ctx_switches: host::voluntary_ctx_switches() - self.ctx0,
            speed: h.cal.speed_since(self.cal0),
        }
    }
}

/// Run the campaign up to virtual time `to` in steps of `step`, a
/// calibration slice after each. The engine's history does not depend on
/// where a run is cut (a test holds `crawl` to `crawl_exp::collect`, which
/// does not cut), so this is `run_until(to)` as far as the simulation is
/// concerned.
fn advance(c: &mut Campaign, to: SimTime, step: Dur, h: &mut Harness) {
    while c.now() < to {
        let next = (c.now() + step).min(to);
        c.sim.run_until(next);
        h.cal.slice();
    }
}

/// One timed call into a layer (a span named `name`), a calibration slice
/// after it. Returns what the call returned and its host seconds.
fn timed<R>(h: &mut Harness, name: &'static str, call: impl FnOnce() -> R) -> (R, f64) {
    let span = h.tr.begin(name);
    let r = call();
    let secs = h.tr.end(span);
    h.cal.slice();
    (r, secs)
}

/// Bare forks of the warmed campaign, host seconds each (traced
/// repetitions only).
fn bare_forks(c: &mut Campaign, tr: &mut Tracer) -> Vec<f64> {
    let n = if tr.recording { 5 } else { 0 };
    (0..n)
        .map(|_| {
            let f = tr.begin("simnet.engine.fork");
            c.with_fork(|_| ());
            tr.end(f)
        })
        .collect()
}

/// Snapshot the telemetry crate's recordings, if it is recording.
fn observe() -> Option<Telem> {
    telemetry::enabled().then(|| Telem {
        snap: telemetry::snapshot(),
        work_share: work_share(&telemetry::export_chrome_trace()),
    })
}

/// Σ `work` slice µs / Σ `epoch` slice µs of an epoch-profiler export (the
/// profiler hands out its samples only in this rendering).
fn work_share(chrome_trace: &str) -> Option<f64> {
    let doc = crate::json::parse(chrome_trace).ok()?;
    let (mut work, mut total) = (0.0, 0.0);
    for ev in crate::json::get(&doc, "traceEvents")?.as_arr()? {
        let dur = crate::json::get(ev, "dur").and_then(crate::json::num)?;
        match crate::json::get(ev, "name")?.as_str()? {
            "work" => work += dur,
            _ => total += dur,
        }
    }
    (total > 0.0).then(|| work / total)
}

fn crawl_options() -> CampaignOptions {
    CampaignOptions {
        with_workload: false,
        ..Default::default()
    }
}

/// The §3 crawl campaign, step for step what
/// `experiments::crawl_exp::collect(cfg, n_crawls)` does (a test pins the
/// two to the same digest), then `stats` + `fig03`…`fig08`. Spelled out
/// here so that set-up, every crawl and the analysis can be timed apart.
pub fn crawl(cfg: ScenarioConfig, n_crawls: usize, h: &mut Harness) -> Rep {
    let n_cloud_planted = cfg.n_cloud;
    let (mut c, setup) = set_up(cfg.with_shards(1), crawl_options(), h);
    let meter = Meter::start(h);
    advance(
        &mut c,
        SimTime::ZERO + Dur::from_hours(6),
        Dur::from_hours(1),
        h,
    );
    let total = c.scenario.cfg.duration;
    let gap = Dur(total.0.saturating_sub(Dur::from_hours(8).0) / n_crawls as u64);
    let mut crawl_s = Vec::with_capacity(n_crawls);
    for _ in 0..n_crawls {
        let ((), secs) = timed(h, "core.crawler.crawl", || {
            c.crawl(Dur::from_mins(40));
        });
        crawl_s.push(secs);
        let next_crawl = c.now() + gap;
        advance(&mut c, next_crawl, Dur(gap.0 / 4 + 1), h);
    }
    let data = CrawlData {
        snaps: c.snapshots().to_vec(),
        dbs: std::mem::take(&mut c.scenario.dbs),
        n_cloud_planted,
        engine: c.sim.stats(),
        loads: c.sim.shard_loads(),
        digest: c.sim.trace_digest(),
        wall_secs: 0.0,
        shards: 1,
        placement: c.placement.clone(),
        lookahead: Vec::new(),
        providers_live: 0,
        providers_raw: 0,
    };
    let (reports, _) = timed(h, "core.analysis.figs", || {
        [
            crawl_exp::stats(&data),
            crawl_exp::fig03(&data),
            crawl_exp::fig04(&data),
            crawl_exp::fig05(&data),
            crawl_exp::fig06(&data),
            crawl_exp::fig07(&data),
            crawl_exp::fig08(&data),
        ]
    });
    let run = meter.stop(h);
    let peers: Vec<usize> = data.snaps.iter().map(|s| s.peers.len()).collect();
    Rep {
        attempted: n_crawls as u64,
        failed: peers.iter().filter(|&&p| p == 0).count() as u64,
        fidelity_pp: Some(fidelity_pp(&reports)),
        peers_per_crawl: Some(peers.iter().sum::<usize>() as f64 / n_crawls.max(1) as f64),
        crawl_s,
        fork_s: bare_forks(&mut c, &mut h.tr),
        ..Rep::new(setup, run, &c)
    }
}

/// Mean |measured − paper| in percentage points over every `Unit::Pct`
/// row that carries a paper value.
pub fn fidelity_pp(reports: &[Report]) -> f64 {
    let errs: Vec<f64> = reports
        .iter()
        .flat_map(|r| &r.rows)
        .filter(|row| row.unit == Unit::Pct)
        .filter_map(|row| Some((row.measured - row.paper?).abs() * 100.0))
        .collect();
    errs.iter().sum::<f64>() / errs.len().max(1) as f64
}

/// The tiny-scale request replay, `workload_replay_exp::run` without its
/// fork probes: bootstrap to the window, then the whole request window.
fn replay(cfg: ScenarioConfig, opts: CampaignOptions, h: &mut Harness) -> Rep {
    let window = opts.live_workload.as_ref().expect("replay spec").window;
    let (mut c, setup) = set_up(cfg, opts, h);
    let meter = Meter::start(h);
    advance(&mut c, window.0, Dur::from_hours(6), h);
    advance(&mut c, window.1, Dur::from_mins(30), h);
    let run = meter.stop(h);
    let issued = c
        .sim
        .actor(c.webuser)
        .webuser()
        .replay
        .as_ref()
        .expect("campaign runs in replay mode")
        .issued;
    let requests = issued.0 + issued.1;
    Rep {
        // Unserved requests are a simulated outcome (offline or
        // unreachable providers), reported as `request_unserved_share`;
        // the operation *fails* only when the driver issued nothing.
        attempted: requests.max(1),
        failed: u64::from(requests == 0),
        requests,
        fork_s: bare_forks(&mut c, &mut h.tr),
        ..Rep::new(setup, run, &c)
    }
}

/// One run of the stress slice under the shipped placement and lookahead
/// defaults.
fn stress_slice(cfg: ScenarioConfig, opts: CampaignOptions, h: &mut Harness) -> Rep {
    let (mut c, setup) = set_up(cfg, opts, h);
    let meter = Meter::start(h);
    advance(&mut c, SimTime::ZERO + STRESS_SLICE, Dur::from_mins(5), h);
    let run = meter.stop(h);
    Rep {
        fork_s: bare_forks(&mut c, &mut h.tr),
        ..Rep::new(setup, run, &c)
    }
}

/// The stress slice on 1 shard and on 2 shards, the 1-shard run first when
/// `one_first`. The pair is one repetition; its operations are the two
/// runs, and both fail when their digests or event counts differ (the
/// engine's shard-invariance contract).
///
/// The repetition's timings are the 1-shard run's. Two shard threads on
/// the two cores of a shared host take anything from 1× to 2× their usual
/// time for minutes on end (README, baseline), which no bound the contract
/// allows can hold; so the 2-shard run is reported as what it is next to
/// the 1-shard run of the same pair (`shard_speedup`, `simnet.shard.*`),
/// where `compare` can call it unresolved. The shard counters, the epoch
/// profile and the context switches are the 2-shard run's.
fn sharded(cfg: ScenarioConfig, opts: CampaignOptions, one_first: bool, h: &mut Harness) -> Rep {
    let mut slice = |shards| stress_slice(cfg.clone().with_shards(shards), opts.clone(), h);
    let (one, two) = if one_first {
        let one = slice(1);
        (one, slice(2))
    } else {
        let two = slice(2);
        (slice(1), two)
    };
    let same = one.digest == two.digest && one.stats.events == two.stats.events;
    Rep {
        attempted: 2,
        failed: if same { 0 } else { 2 },
        two_shards: Some((two.wall_s, two.cpu_s)),
        loads: two.loads,
        telem: two.telem,
        ctx_switches: two.ctx_switches,
        ..one
    }
}

/// Scenario of `recovery_exp`'s two-wave row at small scale: AWS exits at
/// 30 h, the Hydras at 34 h.
fn recovery_config(seed: u64) -> ScenarioConfig {
    let mut cfg = ScenarioConfig::small(seed).with_shards(1);
    cfg.duration = Dur::from_hours(48).min(cfg.duration);
    cfg.n_requests = 0;
    cfg.interventions =
        StagedExitSpec::aws_then_hydra(SimTime(30 * HOUR), SimTime(34 * HOUR)).into_plan();
    cfg
}

/// The recovery observatory's two-wave row, built as `recovery_exp` builds
/// it: `netgen::build` → `Campaign::new` → `whatif::apply` → a loop of
/// `run_for` + `whatif::sample_now`, one observation every 3 h from 6 h
/// before the first wave to 8 h after the second.
fn whatif_recovery(cfg: ScenarioConfig, opts: CampaignOptions, h: &mut Harness) -> Rep {
    let samples = whatif::TimelineConfig::sample_times_for_plan(
        &cfg.interventions,
        Dur::from_hours(6),
        Dur::from_hours(3),
        Dur::from_hours(8),
    );
    let probe_deadline = SimTime(samples[0].0.saturating_sub(6 * HOUR));
    let (mut c, setup) = set_up(cfg, opts, h);
    let tl = whatif::TimelineConfig {
        samples,
        probe_cids: c
            .scenario
            .content
            .iter()
            .filter(|item| item.publish_at < probe_deadline)
            .take(60)
            .map(|item| item.cid)
            .collect(),
        probe_spacing: Dur::from_secs(20),
        crawl_max_wait: Dur::from_mins(40),
    };
    let meter = Meter::start(h);
    timed(h, "whatif.compile", || whatif::apply(&mut c));
    let mut sample_s = Vec::with_capacity(tl.samples.len());
    let mut empty = 0;
    for &at in &tl.samples {
        advance(&mut c, at, Dur::from_hours(3), h);
        let (sample, secs) = timed(h, "whatif.sample_now", || whatif::sample_now(&mut c, &tl));
        sample_s.push(secs);
        empty += u64::from(sample.population.total == 0);
    }
    let run = meter.stop(h);
    Rep {
        attempted: tl.samples.len() as u64,
        failed: empty,
        sample_s,
        fork_s: bare_forks(&mut c, &mut h.tr),
        ..Rep::new(setup, run, &c)
    }
}

/// Cross-repetition check: a repetition whose digest or event count
/// differs from the first marks every operation of the workload failed.
/// Returns `(attempted, failed)` over all repetitions.
pub fn tally(reps: &[Rep]) -> (u64, u64) {
    let attempted: u64 = reps.iter().map(|r| r.attempted).sum();
    let first = &reps[0];
    let diverged = reps
        .iter()
        .any(|r| r.digest != first.digest || r.stats.events != first.stats.events);
    let failed = if diverged {
        attempted
    } else {
        reps.iter().map(|r| r.failed).sum()
    };
    (attempted, failed)
}
