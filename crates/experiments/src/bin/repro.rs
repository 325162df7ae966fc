//! `repro` — regenerate the paper's tables and figures.
//!
//! ```text
//! repro all   [--scale tiny|small|quick|stress|paper|internet] [--seed N] [--shards N] [--md PATH]
//! repro list                                  # enumerate artefacts
//! repro table1|stats|fig03..fig08             # crawl-group artefacts
//! repro fig09..fig16|fig17..fig20             # workload-group artefacts
//! repro whatif-cloud-exit                     # counterfactual sweep
//! repro engine                                # scheduler counters only
//! repro budget                                # deterministic per-shard budget
//! repro telemetry                             # deterministic metrics registry snapshot
//! repro workload-replay                       # generative Zipf/diurnal/flash request replay
//! ```

//! With `--telemetry` every run also records the flight recorder and the
//! per-shard epoch profiler; `--flight-out` / `--profile-out` write them
//! out. The trace digest is byte-identical with telemetry on or off.

use experiments::{
    crawl_exp, entry_exp, recovery_exp, resilience_exp, telemetry_exp, traffic_exp,
    workload_replay_exp, Scale, SCALES,
};

/// Every producible artefact: `(name, what it regenerates)`.
const ARTEFACTS: &[(&str, &str)] = &[
    ("all", "every table and figure below, in paper order"),
    ("table1", "Table 1 — counting-methodology worked example"),
    ("stats", "§3/§4 crawl dataset statistics"),
    ("fig03", "Fig. 3 — cloud share of DHT servers (A-N vs G-IP)"),
    ("fig04", "Fig. 4 — cumulative crawls vs unique peers/IPs"),
    ("fig05", "Fig. 5 — cloud provider attribution"),
    ("fig06", "Fig. 6 — country attribution"),
    ("fig07", "Fig. 7 — in-degree distribution"),
    ("fig08", "Fig. 8 — resilience under node removal"),
    ("fig09", "Fig. 9 — request frequency in days seen"),
    ("fig10", "Fig. 10 — traffic share per peer (Lorenz)"),
    ("fig11", "Fig. 11 — cloud share of DHT/Bitswap traffic"),
    ("fig12", "Fig. 12 — cloud share of traffic IPs vs messages"),
    ("fig13", "Fig. 13 — platform attribution of traffic"),
    ("fig14", "Fig. 14 — provider population classes"),
    ("fig15", "Fig. 15 — provider-record concentration"),
    ("fig16", "Fig. 16 — CID cloud-exposure shares"),
    ("fig17", "Fig. 17 — DNSLink gateway attribution"),
    ("fig18", "Fig. 18 — gateway frontend attribution"),
    ("fig19", "Fig. 19 — gateway frontend geolocation"),
    ("fig20", "Fig. 20 — ENS content attribution"),
    (
        "whatif-cloud-exit",
        "counterfactual — lookup health vs fraction of cloud peers removed",
    ),
    (
        "whatif-recovery",
        "recovery observatory — crawler-eye timelines over staged multi-wave exits",
    ),
    (
        "engine",
        "engine counters for the crawl campaign at the chosen scale (scheduler health)",
    ),
    (
        "budget",
        "deterministic per-shard state/load budget for the crawl campaign (CI expectation diff)",
    ),
    (
        "telemetry",
        "deterministic virtual-time metrics registry snapshot of the crawl campaign (CI expectation diff)",
    ),
    (
        "workload-replay",
        "production workload replay — Zipf stream, diurnal cycles, flash crowd (CI expectation diff)",
    ),
];

fn print_list() {
    println!("artefacts:");
    let width = ARTEFACTS.iter().map(|a| a.0.len()).max().unwrap_or(0);
    for (name, what) in ARTEFACTS {
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
        "usage: repro <all|list|table1|stats|figNN> \
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
    if !ARTEFACTS.iter().any(|(name, _)| *name == cmd) {
        eprintln!("error: unknown artefact {cmd:?}");
        eprintln!(
            "       known artefacts: all, table1, stats, fig03..fig20, \
whatif-cloud-exit, whatif-recovery, engine, budget, telemetry, workload-replay"
        );
        eprintln!("       run `repro list` for the full annotated index");
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
        "table1" => println!("{}", crawl_exp::table1()),
        "whatif-cloud-exit" => {
            // Seed derivation matches `run_all` so the standalone artefact
            // reproduces the EXPERIMENTS.md section bit-for-bit.
            println!(
                "{}",
                resilience_exp::whatif_cloud_exit(scale, seed ^ 0xC10D, shards)
            );
        }
        "whatif-recovery" => {
            println!(
                "{}",
                recovery_exp::whatif_recovery(scale, seed ^ 0x7EC0, shards)
            );
        }
        "engine" => {
            let data = crawl_exp::collect(scale.config(seed).with_shards(shards), scale.crawls());
            println!(
                "{}",
                experiments::report::engine_report(
                    "engine-crawl",
                    &format!("Engine counters — crawl campaign ({})", scale.name()),
                    &data.engine,
                    data.wall_secs,
                    data.shards,
                    &data.loads,
                )
            );
        }
        "budget" => {
            // Deterministic per-shard budget: no wall-clock or throughput
            // figures, so the output is stable per (scale, seed, shards)
            // and CI can diff it against a committed expectation file.
            let data = crawl_exp::collect(scale.config(seed).with_shards(shards), scale.crawls());
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
            // The registry snapshot of the crawl campaign, rendered as
            // stable plain text for the CI expectation diff. Forces the
            // registry on for exactly this campaign regardless of the
            // --telemetry flag.
            let (data, snap) = telemetry_exp::collect_instrumented(
                scale.config(seed).with_shards(shards),
                scale.crawls(),
            );
            print!(
                "{}",
                telemetry_exp::render_lines(scale.name(), seed, data.digest, &snap)
            );
        }
        "workload-replay" => {
            // Generative request replay; seed derivation matches `run_all`.
            // Forces the metrics registry on for exactly this campaign and
            // renders stable plain text (virtual-time figures only) for the
            // CI 1-vs-4-shard expectation diff.
            let data = workload_replay_exp::run(scale, seed ^ 0xF00D, shards);
            print!(
                "{}",
                workload_replay_exp::render_lines(scale.name(), seed, &data)
            );
        }
        "stats" | "fig03" | "fig04" | "fig05" | "fig06" | "fig07" | "fig08" => {
            let data = crawl_exp::collect(scale.config(seed).with_shards(shards), scale.crawls());
            let r = match cmd.as_str() {
                "stats" => crawl_exp::stats(&data),
                "fig03" => crawl_exp::fig03(&data),
                "fig04" => crawl_exp::fig04(&data),
                "fig05" => crawl_exp::fig05(&data),
                "fig06" => crawl_exp::fig06(&data),
                "fig07" => crawl_exp::fig07(&data),
                _ => crawl_exp::fig08(&data),
            };
            println!("{r}");
        }
        "fig09" | "fig10" | "fig11" | "fig12" | "fig13" | "fig14" | "fig15" | "fig16" | "fig17"
        | "fig18" | "fig19" | "fig20" => {
            let mut wl = traffic_exp::run_workload(scale.config(seed ^ 0xBEEF).with_shards(shards));
            let r = match cmd.as_str() {
                "fig09" => traffic_exp::fig09(&wl),
                "fig10" => traffic_exp::fig10(&wl),
                "fig11" => traffic_exp::fig11(&wl),
                "fig12" => traffic_exp::fig12(&wl),
                "fig13" => traffic_exp::fig13(&wl),
                "fig17" => entry_exp::fig17(&wl.campaign.scenario),
                "fig18" => traffic_exp::fig18_19(&wl).0,
                "fig19" => traffic_exp::fig18_19(&wl).1,
                "fig20" => traffic_exp::fig20(&mut wl, scale.ens_sample()),
                _ => {
                    let ds = traffic_exp::collect_providers(&mut wl, scale.provider_sample());
                    match cmd.as_str() {
                        "fig14" => traffic_exp::fig14(&wl, &ds),
                        "fig15" => traffic_exp::fig15(&wl, &ds),
                        _ => traffic_exp::fig16(&wl, &ds),
                    }
                }
            };
            println!("{r}");
        }
        _ => unreachable!("validated against ARTEFACTS above"),
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
