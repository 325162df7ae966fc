//! The harness held to its contract: `BENCHMARK.json` and the metric
//! catalog say the same thing within the contract's grammar and limits,
//! the statistics select what they claim to, a failed check turns into a
//! non-zero exit, and the workloads are deterministic per seed.

use netgen::ScenarioConfig;
use simnet::Dur;
use tcsb_bench::compare::{self, judge, Side, Verdict};
use tcsb_bench::json::{self, Parsed};
use tcsb_bench::metrics::{self, Better, MetricDef, END_TO_END, PER_LAYER};
use tcsb_bench::run::{Outcome, RunArgs};
use tcsb_bench::span::Tracer;
use tcsb_bench::workloads::{self, Harness, WORKLOADS};
use tcsb_bench::{actors, host, kernels, report, stats};

fn benchmark_json() -> Parsed {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root"))
        .expect("BENCHMARK.json parses")
}

fn str_field<'a>(v: &'a Parsed, key: &str) -> &'a str {
    json::get(v, key)
        .and_then(Parsed::as_str)
        .unwrap_or_else(|| panic!("missing string field {key}"))
}

fn entries<'a>(doc: &'a Parsed, key: &str) -> &'a [Parsed] {
    json::get(doc, key)
        .and_then(Parsed::as_arr)
        .unwrap_or_else(|| panic!("missing array {key}"))
}

fn keys(v: &Parsed) -> Vec<&str> {
    v.as_obj()
        .expect("object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect()
}

/// A `BENCHMARK.json` metric list and a catalog table name the same
/// metrics with the same unit and direction, in the same order.
fn assert_same(listed: &[Parsed], catalog: &[MetricDef], with_bound: bool) {
    let names: Vec<&str> = listed.iter().map(|m| str_field(m, "name")).collect();
    let expected: Vec<&str> = catalog.iter().map(|d| d.name).collect();
    assert_eq!(names, expected);
    for (m, def) in listed.iter().zip(catalog) {
        assert_eq!(str_field(m, "unit"), def.unit, "{}", def.name);
        assert_eq!(str_field(m, "better"), def.better.as_str(), "{}", def.name);
        if with_bound {
            assert_eq!(keys(m), ["name", "unit", "better", "bound"]);
            let bound = json::get(m, "bound").and_then(json::num).expect("bound");
            assert_eq!(Some(bound), def.bound, "{}", def.name);
            assert!(bound > 0.0 && bound <= 0.25, "{}: bound {bound}", def.name);
        } else {
            assert_eq!(keys(m), ["name", "unit", "better"]);
        }
    }
}

#[test]
fn benchmark_json_and_catalog_agree() {
    let doc = benchmark_json();
    assert_eq!(
        keys(&doc),
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let listed = entries(&doc, "workloads");
    assert!((2..=8).contains(&listed.len()));
    for (w, def) in listed.iter().zip(&WORKLOADS) {
        assert_eq!(keys(w), ["name", "why"]);
        assert_eq!(str_field(w, "name"), def.name);
        assert_eq!(str_field(w, "why"), def.why);
        assert!(
            def.why.len() <= 200 && !def.why.contains('\n'),
            "{}",
            def.name
        );
    }
    assert_eq!(listed.len(), WORKLOADS.len());
    assert_same(entries(&doc, "end_to_end"), END_TO_END, true);
    assert_same(entries(&doc, "per_layer"), PER_LAYER, false);

    let paths: Vec<&str> = entries(&doc, "paths")
        .iter()
        .map(|p| p.as_str().expect("path"))
        .collect();
    assert_eq!(paths, ["tcsb-bench"]);
    let seconds = json::get(&doc, "run_seconds")
        .and_then(json::num)
        .expect("run_seconds");
    assert_eq!(seconds, tcsb_bench::run::DEFAULT_SECONDS);
    assert!((1.0..=60.0).contains(&seconds) && seconds.fract() == 0.0);
    let command = entries(&doc, "command");
    assert!(command.len() <= 32);
    for part in command {
        let part = part.as_str().expect("command part");
        assert!(part.len() <= 200 && !part.starts_with('/') && !part.contains(".."));
    }
}

#[test]
fn catalog_keeps_to_grammar_and_limits() {
    assert!((1..=16).contains(&END_TO_END.len()));
    assert!((1..=128).contains(&PER_LAYER.len()));
    let mut seen = std::collections::BTreeSet::new();
    for def in END_TO_END.iter().chain(PER_LAYER) {
        assert!(metrics::valid_name(def.name), "{}", def.name);
        assert!(metrics::valid_unit(def.unit), "{}: {}", def.name, def.unit);
        assert!(seen.insert(def.name), "{} is listed twice", def.name);
    }
    for w in &WORKLOADS {
        assert!(
            metrics::valid_name(w.name) && seen.insert(w.name),
            "{}",
            w.name
        );
    }
    let setup = metrics::find("setup_s").expect("setup_s is an end-to-end metric");
    assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
    // The end-to-end figures of single workloads: listed per-layer, judged,
    // and each on a workload that exists.
    let own: Vec<&MetricDef> = PER_LAYER
        .iter()
        .filter(|d| metrics::own_workload(d.name).is_some())
        .collect();
    assert_eq!(own.len(), 5);
    for def in own {
        let workload = metrics::own_workload(def.name).expect("filtered");
        assert!(WORKLOADS.iter().any(|w| w.name == workload), "{workload}");
        assert!(def.bound.is_some(), "{} is judged", def.name);
    }
    assert!(END_TO_END
        .iter()
        .all(|d| metrics::own_workload(d.name).is_none()));
    assert!(!metrics::valid_name("-leading") && !metrics::valid_name("has space"));
    assert!(!metrics::valid_name(&"x".repeat(65)) && !metrics::valid_unit("seventeen_letters"));
}

#[test]
fn percentile_selection() {
    // The highest percentile with at least ten samples beyond it.
    assert_eq!(stats::tail_percentile(21), None);
    assert_eq!(stats::tail_percentile(49), None);
    assert_eq!(stats::tail_percentile(56), Some(80.0));
    assert_eq!(stats::tail_percentile(100), Some(90.0));
    assert_eq!(stats::tail_percentile(200), Some(95.0));
    assert_eq!(stats::tail_percentile(1_000), Some(99.0));
    assert_eq!(stats::tail_percentile(10_000), Some(99.9));

    assert_eq!(stats::median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(stats::median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    let xs: Vec<f64> = (1..=100).map(f64::from).collect();
    assert_eq!(stats::percentile(&xs, 80.0), 80.0);
    assert_eq!(stats::percentile(&xs, 99.9), 100.0);
    // statistics.quantiles([1..10], n=4) = [2.75, 5.5, 8.25].
    let ten: Vec<f64> = (1..=10).map(f64::from).collect();
    assert!((stats::spread(&ten) - 5.5 / 5.5).abs() < 1e-12);
    assert_eq!(stats::spread(&[2.0, 2.0, 2.0]), 0.0);
    assert_eq!(stats::spread(&[9.0, 10.0, 11.0]), 0.2);
}

#[test]
fn proc_readers() {
    let stat = "4242 (tcsb bench) (x)) R 1 2 3 4 5 6 7 8 9 10 250 50 0 0 20 0 3 0 100";
    assert_eq!(host::parse_stat_cpu_s(stat), Some(3.0));
    assert_eq!(host::parse_stat_cpu_s("garbage"), None);
    let status = "Name:\tx\nVmHWM:\t  204800 kB\nvoluntary_ctxt_switches:\t17\n";
    assert_eq!(host::parse_status_field(status, "VmHWM"), Some(204_800));
    assert_eq!(host::parse_status_field(status, "VmRSS"), None);
    if cfg!(target_os = "linux") {
        assert!(host::peak_rss_mb() > 0.0);
        std::thread::sleep(std::time::Duration::from_millis(2));
        assert!(host::voluntary_ctx_switches() > 0);
    }
}

#[test]
fn calibrator_reads_a_speed_and_accounts_for_its_time() {
    let mut cal = tcsb_bench::calib::Calibrator::new();
    let mark = cal.mark();
    assert_eq!(cal.speed_since(mark), 1.0, "no slice, no reading");
    assert_eq!(cal.secs_since(mark), 0.0);
    let clock = std::time::Instant::now();
    cal.slice();
    cal.slice();
    let elapsed = clock.elapsed().as_secs_f64();
    let speed = cal.speed_since(mark);
    assert!(speed.is_finite() && speed > 0.0, "{speed}");
    // What the workload's clocks leave out is the slices, not more.
    let out = cal.secs_since(mark);
    assert!(out > 0.0 && out <= elapsed, "{out} of {elapsed}");

    // The yardstick really is SHA-256's compression function: the padded
    // one-block message "abc" gives the NIST digest.
    let mut block = [0u8; 64];
    block[..3].copy_from_slice(b"abc");
    block[3] = 0x80;
    block[63] = 24;
    let mut state = tcsb_bench::calib::H0;
    tcsb_bench::calib::compress(&mut state, &block);
    assert_eq!(
        state,
        [
            0xba7816bf, 0x8f01cfea, 0x414140de, 0x5dae2223, 0xb00361a3, 0x96177a9c, 0xb410ff61,
            0xf20015ad
        ]
    );
}

#[test]
fn json_round_trip_keeps_every_digit() {
    use json::Json;
    let x = 1.2034567890123457_f64;
    let text = Json::obj([
        ("v", Json::Num(x)),
        ("s", Json::str("a\"b\n")),
        ("n", Json::Null),
    ])
    .to_string();
    let back = json::parse(&text).expect("own output parses");
    assert_eq!(json::get(&back, "v").and_then(json::num), Some(x));
    assert_eq!(
        json::get(&back, "s").and_then(Parsed::as_str),
        Some("a\"b\n")
    );
    assert_eq!(Json::Num(f64::NAN).to_string(), "null");
    assert_eq!(Json::Num(2.0).to_string(), "2.0");
}

#[test]
fn spans_nest_and_export() {
    let mut tr = Tracer::new();
    let quiet = tr.begin("untraced");
    assert!(tr.end(quiet) >= 0.0);
    assert!(tr.spans().is_empty(), "nothing is kept while not recording");
    tr.recording = true;
    let outer = tr.begin("outer");
    let inner = tr.begin("inner");
    std::thread::sleep(std::time::Duration::from_millis(2));
    tr.end(inner);
    tr.end(outer);
    assert_eq!(tr.spans().len(), 2);
    assert_eq!(tr.spans()[1].parent, Some(0));
    assert!(tr.spans()[1].secs() <= tr.spans()[0].secs());
    assert_eq!(tr.total("missing"), 0.0);
    let doc = json::parse(&tr.chrome_trace("w")).expect("trace parses");
    assert_eq!(entries(&doc, "traceEvents").len(), 2);
}

#[test]
fn compare_verdicts() {
    let side = |value, spread| Side { value, spread };
    let steady = |value| side(value, 0.01);
    assert_eq!(
        judge(Better::Lower, 0.10, steady(10.0), steady(10.9)),
        Verdict::Ok
    );
    assert_eq!(
        judge(Better::Lower, 0.10, steady(10.0), steady(11.1)),
        Verdict::Regressed
    );
    assert_eq!(
        judge(Better::Higher, 0.10, steady(10.0), steady(8.9)),
        Verdict::Regressed
    );
    assert_eq!(
        judge(Better::Higher, 0.10, steady(10.0), steady(20.0)),
        Verdict::Ok
    );
    // Spread wider than the bound: unresolved, whichever way the medians lie.
    assert_eq!(
        judge(Better::Lower, 0.10, side(10.0, 0.2), steady(10.0)),
        Verdict::Unresolved
    );
    assert_eq!(
        judge(Better::Lower, 0.10, steady(10.0), side(12.0, 0.2)),
        Verdict::Unresolved
    );
    // Exact metrics.
    assert_eq!(
        judge(Better::Lower, 0.0, steady(0.189), steady(0.189)),
        Verdict::Ok
    );
    assert_eq!(
        judge(Better::Lower, 0.0, steady(0.189), steady(0.188)),
        Verdict::Regressed
    );

    let summary_of = |metrics: String, failed: u64| {
        json::parse(&format!(
            "{{\"workloads\": [{{\"workload\": \"crawl_small\", \"attempted\": 14, \
             \"failed\": {failed}, \"metrics\": {{{metrics}}}}}]}}"
        ))
        .expect("summary parses")
    };
    let summary = |wall: f64, failed: u64| {
        let metrics = format!(
            "\"wall_s\": {{\"value\": {wall:?}, \"spread\": 0.01}}, \
             \"simnet.engine.fork_ms\": {{\"value\": 1.0}}"
        );
        summary_of(metrics, failed)
    };
    let (rows, reject) = compare::compare(&summary(8.0, 0), &summary(8.5, 0)).expect("compares");
    assert_eq!(rows.len(), 1, "only metrics with a bound are judged");
    assert!(!reject && rows[0].verdict == Verdict::Ok);
    let (rows, reject) = compare::compare(&summary(8.0, 0), &summary(10.5, 0)).expect("compares");
    assert!(reject && rows[0].verdict == Verdict::Regressed);
    // A larger failed-operation share rejects even with every metric flat.
    let (_, reject) = compare::compare(&summary(8.0, 0), &summary(8.0, 1)).expect("compares");
    assert!(reject);
    assert!(compare::render(&rows).contains("regressed"));

    // A set-up of milliseconds may double without regressing: the floor is
    // 0.05 s. Beyond the floor the 25 % bound applies.
    let setup = |s: f64| summary_of(format!("\"setup_s\": {{\"value\": {s:?}}}"), 0);
    let (rows, reject) = compare::compare(&setup(0.006), &setup(0.012)).expect("compares");
    assert!(!reject && rows[0].verdict == Verdict::Ok);
    let (rows, reject) = compare::compare(&setup(0.4), &setup(0.6)).expect("compares");
    assert!(reject && rows[0].verdict == Verdict::Regressed);
    // `null` (no speed-up to speak of on one core) is not judged.
    let speedup = |v: &str| summary_of(format!("\"shard_speedup\": {{\"value\": {v}}}"), 0);
    let (rows, reject) = compare::compare(&speedup("null"), &speedup("0.4")).expect("compares");
    assert!(!reject && rows.is_empty());
}

/// `actors` restates the null actors of `crates/bench/benches/engine.rs`
/// (the benchmark may not edit files outside its directory, so that bench
/// keeps its own). Both must stay the load behind `BENCH_engine.json`'s
/// rows: the event counts committed there hold the copy to the original.
#[test]
fn null_actors_are_the_engine_bench_rows() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCH_engine.json");
    let doc = json::parse(&std::fs::read_to_string(path).expect("BENCH_engine.json"))
        .expect("BENCH_engine.json parses");
    let row = |name: &str, field: &str| {
        json::get(&doc, name)
            .and_then(|r| json::get(r, field))
            .and_then(json::num)
            .unwrap_or_else(|| panic!("{name}.{field}"))
    };
    let mut pingpong = actors::pingpong_sim(512);
    pingpong.run_for(Dur::from_secs(60));
    let st = pingpong.stats();
    assert_eq!(st.events as f64, row("pingpong_512pairs_60s", "events"));
    assert_eq!(
        st.peak_queue_len as f64,
        row("pingpong_512pairs_60s", "peak_queue_len")
    );
    let mut storm = actors::storm_sim(1024);
    storm.run_for(Dur::from_mins(10));
    let st = storm.stats();
    assert_eq!(st.events as f64, row("timer_storm_1024_10min", "events"));
    assert_eq!(
        st.peak_queue_len as f64,
        row("timer_storm_1024_10min", "peak_queue_len")
    );
}

/// A short crawl campaign at tiny scale: seconds even in a debug build.
fn tiny_crawl(seed: u64) -> workloads::Rep {
    let mut cfg = ScenarioConfig::tiny(seed);
    cfg.duration = Dur::from_hours(14);
    workloads::crawl(cfg, 2, &mut Harness::new())
}

#[test]
fn same_seed_same_history_other_seed_other_history() {
    let (a, b, other) = (tiny_crawl(3), tiny_crawl(3), tiny_crawl(4));
    assert_eq!(a.digest, b.digest);
    assert_eq!(a.stats.events, b.stats.events);
    assert_eq!(a.fidelity_pp, b.fidelity_pp);
    assert_eq!((a.attempted, a.failed), (2, 0));
    assert_eq!(workloads::tally(&[a, b]), (4, 0));
    assert_ne!(other.digest, tiny_crawl(3).digest);
}

#[test]
fn crawl_workload_is_the_experiments_crawl_campaign() {
    let mut cfg = ScenarioConfig::tiny(5).with_shards(1);
    cfg.duration = Dur::from_hours(14);
    let data = experiments::crawl_exp::collect(cfg.clone(), 2);
    let rep = workloads::crawl(cfg, 2, &mut Harness::new());
    assert_eq!(rep.digest, data.digest);
    assert_eq!(rep.stats.events, data.engine.events);
    assert_eq!(rep.crawl_s.len(), 2);
}

#[test]
fn a_mismatching_digest_fails_every_operation_and_the_run() {
    let good = tiny_crawl(3);
    let mut bad = tiny_crawl(3);
    bad.digest ^= 1;
    let reps = [good, bad];
    let (attempted, failed) = workloads::tally(&reps);
    assert_eq!((attempted, failed), (4, 4));

    let outcome = Outcome {
        args: RunArgs {
            workload: "crawl_small".into(),
            seed: 3,
            seconds: 1.0,
            trace: false,
        },
        cal: kernels::Calibration {
            sha256_mib_per_s: 1.0,
            pingpong_events_per_s: 1.0,
        },
        attempted,
        failed,
        digest: reps[0].digest,
        events: reps[0].stats.events,
        reps: reps.len(),
        speed: 1.0,
        wall_raw_s: 1.0,
        values: report::end_to_end(&reps, &[], host::peak_rss_mb()),
        own: Vec::new(),
    };
    assert!(!outcome.correct());
    assert_ne!(outcome.exit_code(), 0);
    let line = json::parse(
        &outcome
            .result_line()
            .expect("every end-to-end metric present"),
    )
    .expect("result line parses");
    assert_eq!(keys(&line), ["correct", "attempted", "failed", "metrics"]);
    let names = keys(json::get(&line, "metrics").expect("metrics"));
    let expected: Vec<&str> = END_TO_END.iter().map(|d| d.name).collect();
    assert_eq!(names, expected);
}

#[test]
fn tracing_overhead_fails_only_when_every_pair_is_over() {
    use tcsb_bench::run::overhead_exceeded;
    assert!(!overhead_exceeded(&[-4.9, -0.5, 6.5]));
    assert!(!overhead_exceeded(&[5.0, 9.0, 12.0]));
    assert!(overhead_exceeded(&[5.1, 9.0, 12.0]));
}

#[test]
fn unknown_workload_is_an_error() {
    let args = RunArgs {
        workload: "nope".into(),
        seed: 1,
        seconds: 1.0,
        trace: false,
    };
    assert!(tcsb_bench::run::run(args).is_err());
}
