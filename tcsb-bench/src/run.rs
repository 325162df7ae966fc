//! One workload in one process: the run the benchmark contract drives
//! (`--workload W --seed N --seconds S --trace 0|1`), so that the memory
//! high-water mark and CPU time it reports belong to that workload alone.

use crate::json::Json;
use crate::kernels::{self, Calibration};
use crate::metrics::{self, MetricDef, END_TO_END, PER_LAYER};
use crate::report::{self, Value};
use crate::span::Tracer;
use crate::workloads::{self, Harness, Rep, WORKLOADS};
use crate::{host, stats};
use std::time::{Duration, Instant};

/// Arguments of one run.
#[derive(Clone, Debug, PartialEq)]
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    /// How long the end-to-end repetitions go on, host seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end one.
    pub trace: bool,
}

/// Seed used when none is given.
pub const DEFAULT_SEED: u64 = 7;
/// Measuring time used when none is given (`run_seconds` of
/// `BENCHMARK.json`).
pub const DEFAULT_SECONDS: f64 = 20.0;
/// Set-up samples a run collects before it stops adding set-up-only ones.
const SETUP_SAMPLES: usize = 31;
/// Host time the set-up-only samples may take altogether.
const SETUP_BUDGET: Duration = Duration::from_millis(1500);
/// Repetitions an untraced run wants at least: the first repetition of a
/// process runs a sixth slower than the rest, and a median of three leaves
/// it out.
const MIN_REPS: usize = 3;
/// How far past `--seconds` a run may plan to go to reach [`MIN_REPS`].
const MAX_OVERSHOOT: f64 = 1.5;
/// (Untraced, traced) pairs of repetitions in a traced run.
const TRACE_PAIRS: usize = 3;
/// Tracing overhead, percent of the untraced wall time, that a traced run
/// may not exceed.
pub const MAX_OVERHEAD_PCT: f64 = 5.0;

/// What a run established, ready to print.
pub struct Outcome {
    pub args: RunArgs,
    pub cal: Calibration,
    pub attempted: u64,
    pub failed: u64,
    /// Trace digest and event count of the first repetition (labels; never
    /// compared against anything outside this invocation).
    pub digest: u64,
    pub events: u64,
    pub reps: usize,
    /// Median host speed over the repetitions (1 = the reference host), by
    /// which the end-to-end timings were multiplied, and their median
    /// measured run in raw host seconds.
    pub speed: f64,
    pub wall_raw_s: f64,
    /// The metrics of the contract's result line: the end-to-end catalog for
    /// an untraced run, the per-layer catalog for a traced one.
    pub values: Vec<Value>,
    /// Untraced run: the end-to-end figures that only this workload has
    /// (listed under the per-layer catalog, which every workload can fill).
    pub own: Vec<Value>,
}

impl Outcome {
    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// Process exit code: non-zero when a check failed.
    pub fn exit_code(&self) -> i32 {
        if self.correct() {
            0
        } else {
            1
        }
    }

    /// `values` in the order of `catalog`; an error names a metric the
    /// catalog has and the run lacks.
    fn rows(
        &self,
        catalog: &'static [MetricDef],
    ) -> Result<Vec<(&'static MetricDef, &Value)>, String> {
        report::in_catalog_order(&self.values, catalog)
    }

    fn catalog(&self) -> &'static [MetricDef] {
        if self.args.trace {
            PER_LAYER
        } else {
            END_TO_END
        }
    }

    /// Every row this run reports: the catalog's, then the workload's own.
    fn all_rows(&self) -> Result<Vec<(&'static MetricDef, &Value)>, String> {
        let mut rows = self.rows(self.catalog())?;
        for v in &self.own {
            let def =
                metrics::find(v.name).ok_or(format!("metric {} is not in the catalog", v.name))?;
            rows.push((def, v));
        }
        Ok(rows)
    }

    /// The result line of the benchmark contract: exactly `correct`,
    /// `attempted`, `failed` and `metrics` — every end-to-end metric of
    /// `BENCHMARK.json` for an untraced run, every per-layer one for a
    /// traced run.
    pub fn result_line(&self) -> Result<String, String> {
        Ok(Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Int(self.attempted)),
            ("failed", Json::Int(self.failed)),
            ("metrics", report::metrics_json(&self.rows(self.catalog())?)),
        ])
        .to_string())
    }

    /// Everything `tcsb-bench run`/`trace` keeps about this workload.
    pub fn detail(&self) -> Result<Json, String> {
        let two_cores = host::cpus() >= 2;
        Ok(Json::obj([
            ("workload", Json::str(&self.args.workload)),
            ("seed", Json::Int(self.args.seed)),
            ("trace", Json::Bool(self.args.trace)),
            ("host_cpus", Json::Int(host::cpus() as u64)),
            // With fewer cores than shards the 1-shard/2-shard wall ratio
            // measures synchronisation overhead, not a speed-up.
            ("sync_overhead_only", Json::Bool(!two_cores)),
            (
                "calibration",
                Json::obj([
                    (
                        "ipfs-types.sha256_mib_per_s",
                        Json::Num(self.cal.sha256_mib_per_s),
                    ),
                    (
                        "simnet.engine.pingpong_events_per_s",
                        Json::Num(self.cal.pingpong_events_per_s),
                    ),
                ]),
            ),
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Int(self.attempted)),
            ("failed", Json::Int(self.failed)),
            ("host_speed", Json::Num(self.speed)),
            ("wall_raw_s", Json::Num(self.wall_raw_s)),
            ("digest", Json::str(format!("{:#018x}", self.digest))),
            ("events", Json::Int(self.events)),
            ("repetitions", Json::Int(self.reps as u64)),
            ("metrics", report::detail_json(&self.all_rows()?)),
        ]))
    }

    /// Human-readable lines: every metric by name with unit, sample count
    /// and raw per-repetition values.
    pub fn print(&self) -> Result<(), String> {
        let a = &self.args;
        println!(
            "workload {} seed {} {} · host_cpus {} · sha256 {:.1} MiB/s · pingpong {:.0} events/s",
            a.workload,
            a.seed,
            if a.trace { "traced" } else { "end-to-end" },
            host::cpus(),
            self.cal.sha256_mib_per_s,
            self.cal.pingpong_events_per_s,
        );
        println!(
            "digest {:#018x} · events {} · repetitions {} · operations attempted {} failed {}",
            self.digest, self.events, self.reps, self.attempted, self.failed
        );
        println!(
            "host speed {:.4} of the reference host: end-to-end timings are host seconds × that. \
             Raw: wall {:.4} s · {:.0} events/s",
            self.speed,
            self.wall_raw_s,
            self.events as f64 / self.wall_raw_s,
        );
        for (def, v) in self.all_rows()? {
            let mut line = format!("  {:<40} {:>16.6} {}", def.name, v.value, def.unit);
            if def.name == "shard_speedup" && host::cpus() < 2 {
                line = format!(
                    "  {:<40} {:>16} (sync_overhead_only: true)",
                    def.name, "null"
                );
            }
            if v.samples.len() > 1 {
                let raw: Vec<String> = v.samples.iter().map(|x| format!("{x:.4}")).collect();
                line += &format!("  n={} [{}]", v.samples.len(), raw.join(", "));
                if let Some(p) = stats::tail_percentile(v.samples.len()) {
                    line += &format!(" p{p}={:.4}", stats::percentile(&v.samples, p));
                }
            }
            println!("{line}");
        }
        Ok(())
    }
}

/// The environment toggles the library crates read; the benchmark fixes
/// its configuration itself, so whatever the caller's shell exports must
/// not reach the simulator.
const LIBRARY_ENV: [&str; 4] = [
    "TCSB_SHARDS",
    "TCSB_BALANCE",
    "TCSB_LOOKAHEAD",
    "TCSB_TELEMETRY",
];

/// Run one workload as `args` say. Call from a process that has started
/// no other thread (the library environment is scrubbed first).
pub fn run(args: RunArgs) -> Result<(Outcome, Tracer), String> {
    if !WORKLOADS.iter().any(|w| w.name == args.workload) {
        return Err(format!("unknown workload {:?}", args.workload));
    }
    for key in LIBRARY_ENV {
        std::env::remove_var(key);
    }
    let cal = kernels::calibrate(args.seed);
    let mut h = Harness::new();
    let Measured { reps, values, own } = if args.trace {
        traced(&args, &cal, &mut h)?
    } else {
        end_to_end(&args, &mut h)?
    };
    let (attempted, mut failed) = workloads::tally(&reps);
    if let Some(overhead) = values.iter().find(|v| v.name == "telemetry.overhead_pct") {
        if overhead_exceeded(&overhead.samples) {
            eprintln!(
                "tcsb-bench: tracing overhead {:?} % exceeds {MAX_OVERHEAD_PCT} % on every pair",
                overhead.samples
            );
            failed = attempted;
        }
    }
    let outcome = Outcome {
        cal,
        attempted,
        failed,
        digest: reps[0].digest,
        events: reps[0].stats.events,
        reps: reps.len(),
        speed: stats::median(&reps.iter().map(|r| r.speed).collect::<Vec<f64>>()),
        wall_raw_s: stats::median(&reps.iter().map(|r| r.wall_s).collect::<Vec<f64>>()),
        values,
        own,
        args,
    };
    Ok((outcome, h.tr))
}

/// Whether the tracing overhead is over the limit on every (untraced,
/// traced) pair: then the host's noise (±4 % from one repetition to the
/// next, the first of a process slower still) cannot be what put it there.
/// Over on some pairs only, the median is reported with its samples.
pub fn overhead_exceeded(pair_pcts: &[f64]) -> bool {
    pair_pcts.iter().all(|&pct| pct > MAX_OVERHEAD_PCT)
}

/// What a run measured: its repetitions, the metrics of the contract's
/// result line, and the workload's own end-to-end figures (untraced only).
struct Measured {
    reps: Vec<Rep>,
    values: Vec<Value>,
    own: Vec<Value>,
}

/// One repetition of the run's workload with the telemetry crate and the
/// harness spans on.
fn telemetered_rep(args: &RunArgs, index: usize, h: &mut Harness) -> Result<Rep, String> {
    telemetry::set_enabled(true);
    h.tr.recording = true;
    let rep = workloads::run_rep(&args.workload, args.seed, index, h);
    h.tr.recording = false;
    telemetry::set_enabled(false);
    rep
}

/// Repetitions with tracing off until `seconds` have passed, and on to
/// [`MIN_REPS`] of them while the next one would still end within
/// [`MAX_OVERSHOOT`] × `seconds` (on a host slowed to half its speed the
/// run gives up the third repetition, not the driver's time limit); then
/// enough set-up-only samples for a median.
fn end_to_end(args: &RunArgs, h: &mut Harness) -> Result<Measured, String> {
    let started = Instant::now();
    let mut reps = Vec::new();
    loop {
        reps.push(workloads::run_rep(
            &args.workload,
            args.seed,
            reps.len(),
            h,
        )?);
        let elapsed = started.elapsed().as_secs_f64();
        let next_ends = elapsed + elapsed / reps.len() as f64;
        let owed = reps.len() < MIN_REPS && next_ends <= MAX_OVERSHOOT * args.seconds;
        if elapsed >= args.seconds && !owed {
            break;
        }
    }
    let mut extra = Vec::new();
    let budget = Instant::now();
    while reps.len() + extra.len() < SETUP_SAMPLES && budget.elapsed() < SETUP_BUDGET {
        extra.push(workloads::set_up_only(&args.workload, args.seed, h)?);
    }
    let values = report::end_to_end(&reps, &extra, host::peak_rss_mb());
    let mut own = report::own_figures(&reps, None);
    own.retain(|v| metrics::own_workload(v.name) == Some(&args.workload));
    Ok(Measured { reps, values, own })
}

/// [`TRACE_PAIRS`] pairs of one repetition with tracing off and one with
/// telemetry and spans on, alternating which goes first (the spread of
/// their wall-time ratios says what the tracing overhead figure is worth;
/// their digests must agree), then the fixed-count kernels.
fn traced(args: &RunArgs, cal: &Calibration, h: &mut Harness) -> Result<Measured, String> {
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    for pair in 0..TRACE_PAIRS {
        // Both of a pair get the pair's index: on the sharded workload that
        // is what orders its 1- and 2-shard runs.
        if pair % 2 == 0 {
            plain.push(workloads::run_rep(&args.workload, args.seed, pair, h)?);
            traced.push(telemetered_rep(args, pair, h)?);
        } else {
            traced.push(telemetered_rep(args, pair, h)?);
            plain.push(workloads::run_rep(&args.workload, args.seed, pair, h)?);
        }
    }
    let rows = kernels::run_all(args.seed, cal);
    let values = report::per_layer(&plain, &traced, &h.tr, rows);
    plain.extend(traced);
    Ok(Measured {
        reps: plain,
        values,
        own: Vec::new(),
    })
}
