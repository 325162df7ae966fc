//! `repro` — regenerate the paper's tables and figures.
//!
//! ```text
//! repro all   [--scale tiny|small|quick|stress|paper|internet] [--seed N] [--shards N] [--md PATH]
//! repro list                # every section, scale and flag
//! repro <section>           # one section of `repro all` (table1, stats, fig03, …, engine-crawl, …)
//! repro budget              # deterministic per-shard budget (plain text)
//! repro telemetry           # deterministic metrics registry snapshot (plain text)
//! repro workload-replay     # generative Zipf/diurnal/flash request replay (plain text)
//! ```
//!
//! The sections, their order and each campaign group's seed derivation
//! live in `experiments::ARTEFACTS` and `experiments::Group`: `repro
//! <section>` runs the owning group and prints that one section, which is
//! by construction what `repro all` prints for it. The three plain-text
//! artefacts render a campaign's raw data for the CI expectation diffs;
//! `telemetry` and `workload-replay` share their names with `all` sections
//! of the same campaigns, and on the command line name the plain text.

//! With `--telemetry` every run also records the flight recorder and the
//! per-shard epoch profiler; `--flight-out` / `--profile-out` write them
//! out. The trace digest is byte-identical with telemetry on or off.

use experiments::{crawl_exp, telemetry_exp, workload_replay_exp, Group, Scale, ARTEFACTS, SCALES};

/// The plain-text artefacts the CI expectation diffs read, as `(name,
/// what it renders)`.
const PLAIN: &[(&str, &str)] = &[
    ("budget", "per-shard budget of the crawl campaign"),
    ("telemetry", "registry snapshot of the crawl campaign"),
    ("workload-replay", "replay digests and request accounting"),
];

fn is_plain(name: &str) -> bool {
    PLAIN.iter().any(|p| p.0 == name)
}

fn print_list() {
    let width = ARTEFACTS.iter().map(|a| a.0.len()).max().unwrap_or(0);
    println!("  {:<width$} every section, in paper order", "all");
    println!("sections (each runs its campaign group, prints what `all` prints for it):");
    for (name, _, what) in ARTEFACTS.iter().filter(|a| !is_plain(a.0)) {
        println!("  {name:<width$} {what}");
    }
    println!("plain text (CI expectation diffs; `all` prints the sections of that name):");
    for (name, what) in PLAIN {
        println!("  {name:<width$} {what}");
    }
    let scales: Vec<&str> = SCALES.iter().map(|s| s.name()).collect();
    println!("\nscales: {} (default: small)", scales.join(", "));
    println!(
        "flags:  --scale <s>  --seed <u64>  --shards <n>  --md <path (with `all`)>\n\
         --telemetry  --flight-out <path>  --profile-out <path>"
    );
    println!(
        "        --shards N runs the engine on N cores (default 1, or TCSB_SHARDS);\n\
         all tables and digests are byte-identical for every shard count.\n\
         --telemetry turns on the zero-perturbation telemetry: the flight\n\
         recorder (--flight-out, JSONL; also dumped on panic) and the\n\
         per-shard epoch profiler (--profile-out, Chrome trace-event JSON —\n\
         open in Perfetto). Digests are unchanged."
    );
}

fn usage_and_exit() -> ! {
    eprintln!(
        "usage: repro <all|list|artefact> \
[--scale tiny|small|quick|stress|paper|internet] [--seed N] [--shards N] [--md PATH]\n\
       run `repro list` to see every artefact name"
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage_and_exit();
    }
    let cmd = args[0].clone();
    if cmd == "list" {
        print_list();
        return;
    }
    if cmd != "all" && !is_plain(&cmd) && !ARTEFACTS.iter().any(|a| a.0 == cmd) {
        eprintln!("error: unknown artefact {cmd:?}");
        eprintln!("       run `repro list` for every artefact name");
        std::process::exit(2);
    }
    let mut scale = Scale::Small;
    let mut seed = 42u64;
    let mut shards = 0usize; // 0 = auto (TCSB_SHARDS or 1)
    let mut md_path: Option<String> = None;
    let mut telemetry_on = false;
    let mut flight_out: Option<String> = None;
    let mut profile_out: Option<String> = None;
    let mut i = 1;
    let value_of = |args: &[String], i: usize| -> String {
        args.get(i + 1).cloned().unwrap_or_else(|| {
            eprintln!("flag {} requires a value", args[i]);
            std::process::exit(2);
        })
    };
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                let v = value_of(&args, i);
                scale = Scale::parse(&v).unwrap_or_else(|| {
                    let scales: Vec<&str> = SCALES.iter().map(|s| s.name()).collect();
                    eprintln!(
                        "error: unknown scale {v:?} (expected one of: {})",
                        scales.join(", ")
                    );
                    std::process::exit(2);
                });
                i += 2;
            }
            "--seed" => {
                seed = value_of(&args, i).parse().unwrap_or_else(|_| {
                    eprintln!("seed must be a u64");
                    std::process::exit(2);
                });
                i += 2;
            }
            "--shards" => {
                shards = value_of(&args, i).parse().unwrap_or_else(|_| {
                    eprintln!("shards must be a positive integer");
                    std::process::exit(2);
                });
                if shards == 0 {
                    eprintln!("shards must be >= 1");
                    std::process::exit(2);
                }
                i += 2;
            }
            "--md" => {
                md_path = Some(value_of(&args, i));
                i += 2;
            }
            "--telemetry" => {
                telemetry_on = true;
                i += 1;
            }
            "--flight-out" => {
                flight_out = Some(value_of(&args, i));
                telemetry_on = true;
                i += 2;
            }
            "--profile-out" => {
                profile_out = Some(value_of(&args, i));
                telemetry_on = true;
                i += 2;
            }
            other => {
                eprintln!("error: unknown flag {other}");
                usage_and_exit();
            }
        }
    }

    telemetry::set_enabled(telemetry_on);
    // Post-mortem trace for failed runs (a nightly internet-scale panic
    // leaves spans, not just a backtrace). Dumps only if spans exist.
    telemetry::install_panic_hook(
        flight_out
            .clone()
            .unwrap_or_else(|| "flight-recorder.jsonl".to_string())
            .as_str(),
    );

    match cmd.as_str() {
        "all" => {
            let reports = experiments::run_all(scale, seed, shards);
            for r in &reports {
                println!("{r}");
            }
            if let Some(path) = md_path {
                let md = experiments::to_markdown(&reports, scale, seed);
                std::fs::write(&path, md).expect("write markdown");
                eprintln!("[repro] wrote {path}");
            }
        }
        "budget" => {
            // Deterministic per-shard budget: no wall-clock or throughput
            // figures, so the output is stable per (scale, seed, shards)
            // and CI can diff it against a committed expectation file.
            let cfg = scale.config(Group::Crawl.seed(seed)).with_shards(shards);
            let data = crawl_exp::collect(cfg, scale.crawls());
            println!(
                "budget scale={} seed={} shards={}",
                scale.name(),
                seed,
                data.shards
            );
            println!("digest {:#018x}", data.digest);
            println!("events {}", data.engine.events);
            // Live vs raw provider-record totals over scenario nodes. The
            // live figure uses `ProviderStore::record_count`, which skips
            // expired-but-unpruned records; the raw figure keeps them so
            // the gap (store garbage awaiting cleanup) stays visible.
            println!(
                "providers live={} raw={}",
                data.providers_live, data.providers_raw
            );
            for l in &data.loads {
                println!(
                    "s{} owned_nodes={} dispatched={} replica_bytes={} owned_bytes={} \
queue_bytes={} epochs={} barrier_waits={} mailbox_out_events={} mailbox_out_bytes={}",
                    l.shard,
                    l.state.owned_nodes,
                    l.dispatched,
                    l.state.replica_bytes,
                    l.state.owned_bytes,
                    l.state.queue_bytes,
                    l.sync.epochs,
                    l.sync.barrier_waits,
                    l.sync.mailbox_events_out,
                    l.sync.mailbox_bytes_out
                );
            }
            // Placement and lookahead: the partitioner's predicted
            // per-shard weights (the balance objective the
            // dispatched counters above are measured against), and the
            // effective shard×shard conservative lookahead matrix (ns;
            // "-" where no influence path exists). All deterministic.
            let p = &data.placement;
            let predicted: Vec<String> = p.predicted.iter().map(|w| w.to_string()).collect();
            println!(
                "placement mode=balanced splits={} predicted_ratio_x100={} predicted=[{}]",
                p.splits,
                p.predicted_ratio_x100(),
                predicted.join(",")
            );
            let n = if data.lookahead.is_empty() {
                0
            } else {
                data.shards
            };
            for src in 0..n {
                let row: Vec<String> = (0..n)
                    .map(|dst| {
                        let d = data.lookahead[src * n + dst];
                        if d.0 >= u64::MAX / 4 {
                            "-".into()
                        } else {
                            format!("{}", d.0)
                        }
                    })
                    .collect();
                println!("lookahead_ns s{src} [{}]", row.join(","));
            }
        }
        "telemetry" => {
            // The crawl group's registry snapshot as stable plain text for
            // the CI expectation diff; the registry is on for exactly this
            // campaign regardless of the --telemetry flag.
            let cfg = scale.config(Group::Crawl.seed(seed)).with_shards(shards);
            let (data, snap) =
                telemetry_exp::instrumented(|| crawl_exp::collect(cfg, scale.crawls()));
            print!(
                "{}",
                telemetry_exp::render_lines(scale.name(), seed, data.digest, &snap)
            );
        }
        "workload-replay" => {
            // The replay group's campaign as stable plain text (virtual-time
            // figures only) for the CI 1-vs-4-shard diff.
            let data = workload_replay_exp::run(scale, Group::Replay.seed(seed), shards);
            print!(
                "{}",
                workload_replay_exp::render_lines(scale.name(), seed, &data)
            );
        }
        name => {
            let section = experiments::run_one(name, scale, seed, shards)
                .expect("validated against ARTEFACTS above");
            println!("{section}");
        }
    }

    if let Some(path) = &flight_out {
        match telemetry::flight::dump_to(path) {
            Ok(n) => eprintln!("[repro] wrote {n} flight-recorder span(s) to {path}"),
            Err(e) => eprintln!("[repro] flight-recorder dump to {path} failed: {e}"),
        }
    }
    if let Some(path) = &profile_out {
        match telemetry::profile::write_chrome_trace(path) {
            Ok(n) => eprintln!(
                "[repro] wrote {n} epoch sample(s) to {path} (Chrome trace-event; open in Perfetto)"
            ),
            Err(e) => eprintln!("[repro] profiler dump to {path} failed: {e}"),
        }
    }
}
