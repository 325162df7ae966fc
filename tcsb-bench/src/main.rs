//! `tcsb-bench`: the benchmark's command line.
//!
//! ```text
//! tcsb-bench --workload W --seed N --seconds S --trace 0|1   one workload, this process
//! tcsb-bench run     [--workload W|all] [--seed N] [--seconds S] [--out FILE]
//! tcsb-bench trace   [--workload W|all] [--seed N] [--seconds S] [--out FILE]
//! tcsb-bench compare A.json B.json
//! ```
//!
//! The first form is what `BENCHMARK.json`'s command runs; its last line
//! of output is the result object. `run` and `trace` start it once per
//! workload (one workload per process) and keep what each printed.

use std::process::{Command, ExitCode, Stdio};
use tcsb_bench::json::{self, Json};
use tcsb_bench::run::{self, RunArgs, DEFAULT_SECONDS, DEFAULT_SEED};
use tcsb_bench::workloads::WORKLOADS;
use tcsb_bench::{compare, host};

/// Prefix of the line on which a single-workload run hands its full
/// detail (samples, digest, calibration) to `run`/`trace`.
const DETAIL_PREFIX: &str = "#detail ";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => many(&args[1..], false),
        Some("trace") => many(&args[1..], true),
        Some("compare") => compare_files(&args[1..]),
        Some(flag) if flag.starts_with("--") => single(&args),
        _ => Err(usage()),
    };
    match result {
        Ok(code) => ExitCode::from(code),
        Err(msg) => {
            eprintln!("tcsb-bench: {msg}");
            ExitCode::from(2)
        }
    }
}

fn usage() -> String {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    format!(
        "usage: tcsb-bench run|trace [--workload NAME|all] [--seed N] [--seconds S] [--out FILE]\n\
         \x20      tcsb-bench compare A.json B.json\n\
         \x20      tcsb-bench --workload NAME --seed N --seconds S --trace 0|1\n\
         workloads: {}",
        names.join(", ")
    )
}

/// `--key value` pairs; every flag takes a value.
fn flags(args: &[String]) -> Result<Vec<(&str, &str)>, String> {
    if !args.len().is_multiple_of(2) {
        return Err(format!("flag without a value\n{}", usage()));
    }
    args.chunks(2)
        .map(|kv| match kv[0].strip_prefix("--") {
            Some(key) => Ok((key, kv[1].as_str())),
            None => Err(format!("unexpected argument {:?}\n{}", kv[0], usage())),
        })
        .collect()
}

fn parse<T: std::str::FromStr>(key: &str, value: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("--{key}: cannot read {value:?}"))
}

/// One workload in this process (the benchmark contract's invocation).
fn single(args: &[String]) -> Result<u8, String> {
    let mut run_args = RunArgs {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
    };
    for (key, value) in flags(args)? {
        match key {
            "workload" => run_args.workload = value.to_string(),
            "seed" => run_args.seed = parse(key, value)?,
            "seconds" => run_args.seconds = parse(key, value)?,
            "trace" => run_args.trace = parse::<u8>(key, value)? != 0,
            _ => return Err(format!("unknown flag --{key}\n{}", usage())),
        }
    }
    let (outcome, tracer) = run::run(run_args)?;
    outcome.print()?;
    if outcome.args.trace {
        // Beside the executable: inside the build directory, which is the
        // one place a checkout is sure to let the benchmark write.
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let path = exe.with_file_name(format!("tcsb-bench-{}.trace.json", outcome.args.workload));
        std::fs::write(&path, tracer.chrome_trace(&outcome.args.workload))
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        println!("spans: {} in {}", tracer.spans().len(), path.display());
    }
    println!("{DETAIL_PREFIX}{}", outcome.detail()?);
    println!("{}", outcome.result_line()?);
    Ok(outcome.exit_code() as u8)
}

/// `run` / `trace`: one child process per workload, their details
/// gathered into one summary.
fn many(args: &[String], trace: bool) -> Result<u8, String> {
    let (mut which, mut seed, mut seconds, mut out) = ("all", DEFAULT_SEED, DEFAULT_SECONDS, None);
    for (key, value) in flags(args)? {
        match key {
            "workload" => which = value,
            "seed" => seed = parse(key, value)?,
            "seconds" => seconds = parse(key, value)?,
            "out" => out = Some(value),
            _ => return Err(format!("unknown flag --{key}\n{}", usage())),
        }
    }
    let names: Vec<&str> = WORKLOADS
        .iter()
        .map(|w| w.name)
        .filter(|n| which == "all" || which == *n)
        .collect();
    if names.is_empty() {
        return Err(format!("unknown workload {which:?}\n{}", usage()));
    }
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut details = Vec::new();
    let mut code = 0;
    for name in names {
        let child = Command::new(&exe)
            .args(["--workload", name])
            .args(["--seed", &seed.to_string()])
            .args(["--seconds", &seconds.to_string()])
            .args(["--trace", if trace { "1" } else { "0" }])
            .stdout(Stdio::piped())
            .output()
            .map_err(|e| format!("starting {name}: {e}"))?;
        let text = String::from_utf8_lossy(&child.stdout);
        let mut detail = None;
        for line in text.lines() {
            match line.strip_prefix(DETAIL_PREFIX) {
                Some(d) => detail = Some(d.to_string()),
                None => println!("{line}"),
            }
        }
        if !child.status.success() {
            eprintln!("tcsb-bench: workload {name} exited with {}", child.status);
            code = 1;
        }
        details.push(detail.ok_or_else(|| format!("workload {name} printed no detail"))?);
    }
    // The details are already JSON text; splice them in as they are.
    let summary = format!(
        "{{\"schema\": \"tcsb-bench/1\", \"trace\": {trace}, \"seed\": {seed}, \
         \"seconds\": {}, \"host_cpus\": {}, \"workloads\": [\n{}\n], \"claim\": null}}\n",
        Json::Num(seconds),
        host::cpus(),
        details.join(",\n"),
    );
    match out {
        Some(path) => {
            std::fs::write(path, &summary).map_err(|e| format!("writing {path}: {e}"))?;
            println!("summary: {path} (\"claim\": null)");
        }
        None => print!("{summary}"),
    }
    Ok(code)
}

fn compare_files(args: &[String]) -> Result<u8, String> {
    let [a, b] = args else {
        return Err(usage());
    };
    let read = |path: &String| {
        std::fs::read_to_string(path)
            .map_err(|e| format!("reading {path}: {e}"))
            .and_then(|text| json::parse(&text))
    };
    let (rows, reject) = compare::compare(&read(a)?, &read(b)?)?;
    print!("{}", compare::render(&rows));
    let count = |v| rows.iter().filter(|r| r.verdict == v).count();
    println!(
        "{} rows: {} ok, {} regressed, {} unresolved{}",
        rows.len(),
        count(compare::Verdict::Ok),
        count(compare::Verdict::Regressed),
        count(compare::Verdict::Unresolved),
        if reject { " — B is rejected" } else { "" }
    );
    Ok(u8::from(reject))
}
