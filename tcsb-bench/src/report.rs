//! From repetitions to named metric values, and from those to the lines
//! the harness prints.

use crate::json::Json;
use crate::kernels::Row;
use crate::metrics::MetricDef;
use crate::span::Tracer;
use crate::stats::median;
use crate::workloads::{Rep, SetUp};
use crate::{host, stats};

/// One metric value with the samples behind it.
pub struct Value {
    pub name: &'static str,
    /// The reported figure (median of `samples` for timings).
    pub value: f64,
    /// What `value` is the median of: one entry per repetition, per layer
    /// call or per kernel round; a single entry for a count.
    pub samples: Vec<f64>,
}

fn of(name: &'static str, samples: Vec<f64>) -> Value {
    Value {
        name,
        value: median(&samples),
        samples,
    }
}

/// The end-to-end metrics every workload has, from the repetitions of an
/// untraced run, each timing brought to the reference host by the host
/// speed measured beside it. `extra_setups` are the set-up-only samples
/// taken beside the repetitions' own; `peak_rss_mb` is the process's
/// high-water mark when the last repetition ended.
pub fn end_to_end(reps: &[Rep], extra_setups: &[SetUp], peak_rss_mb: f64) -> Vec<Value> {
    let per_rep = |f: fn(&Rep) -> f64| reps.iter().map(f).collect::<Vec<f64>>();
    let setups = reps
        .iter()
        .map(|r| &r.setup)
        .chain(extra_setups)
        .map(|s| s.secs * s.speed)
        .collect();
    vec![
        of("setup_s", setups),
        of("wall_s", per_rep(Rep::wall_ref_s)),
        of(
            "events_per_s",
            per_rep(|r| r.stats.events as f64 / r.wall_ref_s()),
        ),
        of("cpu_s", per_rep(|r| r.cpu_s * r.speed)),
        of("peak_rss_mb", vec![peak_rss_mb]),
    ]
}

/// The end-to-end figures that exist on one workload each
/// ([`crate::metrics::own_workload`]), over the untraced repetitions
/// `reps`, in reference-host time like the ones every workload has; 0
/// where the workload has no such thing. `telemetered` is a
/// repetition of the same workload run with the telemetry registry on,
/// which alone knows how requests were served: without one,
/// `request_unserved_share` is left out.
pub fn own_figures(reps: &[Rep], telemetered: Option<&Rep>) -> Vec<Value> {
    // Every `sample_now` call of every repetition: one pool, one median.
    let samples: Vec<f64> = reps
        .iter()
        .flat_map(|r| r.sample_s.iter().map(|s| s * r.speed))
        .collect();
    let mut figures = vec![
        of(
            "requests_per_s",
            reps.iter()
                .map(|r| r.requests as f64 / r.wall_ref_s())
                .collect(),
        ),
        of(
            "shard_speedup",
            reps.iter()
                .map(|r| r.two_shards.map_or(0.0, |(two, _)| r.wall_s / two))
                .collect(),
        ),
        of("whatif_sample_s_p50", or_0(samples)),
        of(
            "fidelity_mean_abs_err_pp",
            vec![reps[0].fidelity_pp.unwrap_or(0.0)],
        ),
    ];
    if let Some(t) = telemetered {
        let snap = &t.telem.as_ref().expect("ran with telemetry on").snap;
        let served: f64 = ["cache", "bitswap", "dht"]
            .iter()
            .map(|kind| counter(snap, &format!("requests_served_{kind}")))
            .sum();
        let unserved = ratio(t.requests as f64 - served, t.requests as f64);
        figures.push(of("request_unserved_share", vec![unserved]));
    }
    figures
}

fn counter(snap: &telemetry::Snapshot, name: &str) -> f64 {
    snap.counters
        .iter()
        .find(|(n, _)| *n == name)
        .map_or(0.0, |(_, v)| *v as f64)
}

/// `(count, sum)` of a registry histogram.
fn hist(snap: &telemetry::Snapshot, name: &str) -> (f64, f64) {
    snap.hists
        .iter()
        .find(|(n, _)| *n == name)
        .map_or((0.0, 0.0), |(_, h)| (h.count as f64, h.sum as f64))
}

/// `a / b`, 0 when there is nothing to divide by (a layer the workload
/// does not exercise reports 0, not NaN).
fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// `xs`, or a single 0 when the workload produced no such sample.
fn or_0(xs: Vec<f64>) -> Vec<f64> {
    if xs.is_empty() {
        vec![0.0]
    } else {
        xs
    }
}

/// Tracing overhead of each (untraced, traced) pair of repetitions, in
/// percent of the untraced `wall_s`.
pub fn overhead_pct(plain: &[Rep], traced: &[Rep]) -> Vec<f64> {
    plain
        .iter()
        .zip(traced)
        .map(|(p, t)| (t.wall_ref_s() / p.wall_ref_s() - 1.0) * 100.0)
        .collect()
}

/// The per-layer metrics of a traced run, timings in raw host seconds (the
/// kernels are not interleaved with anything that could say how fast the
/// host was, so nothing here is rescaled): `plain` are the repetitions run
/// with tracing off, `traced` their partners with telemetry and spans on
/// (same history, a test of that is the caller's), `tr` holds the traced
/// repetitions' spans, `kernels` the fixed-count rows.
pub fn per_layer(plain: &[Rep], traced: &[Rep], tr: &Tracer, kernels: Vec<Row>) -> Vec<Value> {
    let kernel = |name: &str| {
        kernels
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| median(v))
    };
    let pooled = |reps: &[Rep], f: fn(&Rep) -> &Vec<f64>| -> Vec<f64> {
        reps.iter().flat_map(|r| f(r).iter().copied()).collect()
    };
    let one = |v: f64| vec![v];
    let mut rows: Vec<Row> = Vec::new();

    // Simulated figures repeat exactly, so the first traced repetition
    // speaks for all of them.
    let first = &traced[0];
    let telem = first
        .telem
        .as_ref()
        .expect("traced repetition ran with telemetry on");
    let snap = &telem.snap;
    let issued = first.requests as f64;
    let served = |kind: &str| counter(snap, &format!("requests_served_{kind}"));
    rows.extend([
        ("host.cpus", one(host::cpus() as f64)),
        ("host.speed", plain.iter().map(|r| r.speed).collect()),
        ("wall_raw_s", plain.iter().map(|r| r.wall_s).collect()),
    ]);

    // Engine counts of the workload.
    let st = &first.stats;
    let k = &st.kinds;
    let mut state = simnet::StateBytes::default();
    let mut sync = simnet::SyncCounters::default();
    for l in &first.loads {
        state.add(&l.state);
        sync.add(&l.sync);
    }
    let nodes = state.nodes as f64;
    let ms = |secs: Vec<f64>| secs.into_iter().map(|s| s * 1e3).collect::<Vec<f64>>();
    let fork_ms = or_0(ms(pooled(traced, |r| &r.fork_s)));
    let fork_ms_p50 = median(&fork_ms);
    rows.extend([
        ("simnet.engine.events", one(st.events as f64)),
        ("simnet.engine.ev_deliver", one(k.deliver as f64)),
        ("simnet.engine.ev_timer", one(k.timer as f64)),
        (
            "simnet.engine.ev_dial",
            one((k.dial_arrive + k.handshake + k.relay_hop + k.dial_outcome) as f64),
        ),
        ("simnet.engine.ev_conn_closed", one(k.conn_closed as f64)),
        (
            "simnet.engine.ev_command",
            one((k.command + k.command_batch) as f64),
        ),
        (
            "simnet.engine.peak_queue_len",
            one(st.peak_queue_len as f64),
        ),
        (
            "simnet.engine.msg_drop_share",
            one(ratio(
                (st.msgs_lost + st.msgs_dropped) as f64,
                st.msgs_sent as f64,
            )),
        ),
        (
            "simnet.engine.dial_fail_share",
            one(ratio(
                st.dials_failed as f64,
                (st.dials_ok + st.dials_failed) as f64,
            )),
        ),
        (
            "simnet.engine.owned_bytes_per_node",
            one(ratio(state.owned_bytes as f64, nodes)),
        ),
        (
            "simnet.engine.replica_bytes_per_node",
            one(ratio(state.replica_bytes as f64, nodes)),
        ),
        ("simnet.engine.fork_ms", fork_ms),
    ]);

    // Conservative synchronisation (all 0 on one shard).
    let sharded = first.loads.len() > 1;
    let dispatched: Vec<f64> = first.loads.iter().map(|l| l.dispatched as f64).collect();
    let max_d = dispatched.iter().copied().fold(0.0, f64::max);
    let min_d = dispatched.iter().copied().fold(f64::INFINITY, f64::min);
    let epochs = sync.epochs as f64;
    rows.extend([
        ("simnet.shard.epochs", one(epochs)),
        ("simnet.shard.barrier_waits", one(sync.barrier_waits as f64)),
        (
            "simnet.shard.mailbox_events",
            one(sync.mailbox_events_out as f64),
        ),
        (
            "simnet.shard.mailbox_bytes",
            one(sync.mailbox_bytes_out as f64),
        ),
        (
            "simnet.shard.events_per_epoch",
            one(ratio(dispatched.iter().sum(), epochs)),
        ),
        (
            "simnet.shard.dispatch_ratio",
            one(if sharded { ratio(max_d, min_d) } else { 0.0 }),
        ),
        (
            "simnet.shard.work_share",
            traced
                .iter()
                .map(|r| r.telem.as_ref().and_then(|t| t.work_share).unwrap_or(0.0))
                .collect(),
        ),
        (
            "simnet.shard.ctx_switches",
            plain
                .iter()
                .map(|r| if sharded { r.ctx_switches as f64 } else { 0.0 })
                .collect(),
        ),
        (
            "simnet.shard.wall_2shard_s",
            plain
                .iter()
                .map(|r| r.two_shards.map_or(0.0, |(wall, _)| wall))
                .collect(),
        ),
        (
            "simnet.shard.cpu_2shard_s",
            plain
                .iter()
                .map(|r| r.two_shards.map_or(0.0, |(_, cpu)| cpu))
                .collect(),
        ),
    ]);

    // Protocol counts from the telemetry registry (virtual time, exact).
    let (lookups, contacted) = hist(snap, "lookup_contacted");
    let started = counter(snap, "fetches_started");
    let coalesced = counter(snap, "want_coalesce_hits");
    let (latency_n, latency_sum) = hist(snap, "request_latency_ns");
    rows.extend([
        (
            "kademlia.lookups_completed",
            one(counter(snap, "lookups_completed")),
        ),
        (
            "kademlia.lookup_contacted_mean",
            one(ratio(contacted, lookups)),
        ),
        (
            "kademlia.lookup_peer_fail_share",
            one(ratio(counter(snap, "lookup_peer_failures"), contacted)),
        ),
        ("bitswap.fetches_started", one(started)),
        (
            "bitswap.fetches_resolved",
            one(counter(snap, "bitswap_fetches_resolved")),
        ),
        (
            "bitswap.want_coalesce_share",
            one(ratio(coalesced, coalesced + started)),
        ),
        (
            "ipfs-node.served_cache_share",
            one(ratio(served("cache"), issued)),
        ),
        (
            "ipfs-node.served_bitswap_share",
            one(ratio(served("bitswap"), issued)),
        ),
        (
            "ipfs-node.served_dht_share",
            one(ratio(served("dht"), issued)),
        ),
        (
            "ipfs-node.request_latency_sim_ms_mean",
            one(ratio(latency_sum, latency_n) / 1e6),
        ),
    ]);

    // Host seconds per layer call, from the traced repetitions' spans and
    // the repetitions' own stopwatches.
    let spans = |name: &str| or_0(tr.durations(name));
    let mut crawls = pooled(plain, |r| &r.crawl_s);
    crawls.extend(pooled(traced, |r| &r.crawl_s));
    let sample_ms = median(&or_0(ms(pooled(traced, |r| &r.sample_s))));
    let figs = spans("core.analysis.figs");
    let figs_s = median(&figs);
    rows.extend([
        ("netgen.build_s", spans("netgen.build")),
        ("core.campaign.new_s", spans("core.campaign.new")),
        ("core.crawler.crawl_s_p50", or_0(crawls)),
        (
            "core.crawler.peers_per_crawl",
            one(first.peers_per_crawl.unwrap_or(0.0)),
        ),
        ("core.analysis.figs_s", figs),
        ("whatif.compile_ms", ms(spans("whatif.compile"))),
        ("whatif.samples", one(first.sample_s.len() as f64)),
        (
            "whatif.sample_crawl_share",
            one(if sample_ms == 0.0 {
                0.0
            } else {
                1.0 - fork_ms_p50 / sample_ms
            }),
        ),
        ("telemetry.overhead_pct", overhead_pct(plain, traced)),
    ]);

    // Attribution of the median traced repetition, host seconds (of its
    // 2-shard run where it has one: that is the run epochs belong to). Set-up
    // lies outside the measured run; the other five rows sum to
    // `attrib.wall_s` by construction, the residual being what cannot be
    // split from outside a `Sim<EcoActor>`: kademlia + bitswap + node glue.
    let walls: Vec<f64> = traced
        .iter()
        .map(|r| r.two_shards.map_or(r.wall_s, |(wall, _)| wall))
        .collect();
    let wall_s = median(&walls);
    let engine_s = st.events as f64 * kernel("simnet.engine.null_ns_per_event") / 1e9;
    let sync_s = epochs * kernel("simnet.shard.sync_ns_per_epoch") / 1e9;
    // The workload forks once per `sample_now`.
    let fork_s = first.sample_s.len() as f64 * fork_ms_p50 / 1e3;
    rows.extend([
        (
            "attrib.setup_s",
            traced.iter().map(|r| r.setup.secs).collect(),
        ),
        ("attrib.engine_s", one(engine_s)),
        ("attrib.sync_s", one(sync_s)),
        ("attrib.fork_s", one(fork_s)),
        ("attrib.analysis_s", one(figs_s)),
        (
            "attrib.actors_residual_s",
            one(wall_s - engine_s - sync_s - fork_s - figs_s),
        ),
        ("attrib.wall_s", one(wall_s)),
    ]);

    rows.extend(kernels);
    let mut values = own_figures(plain, Some(first));
    values.extend(rows.into_iter().map(|(n, v)| of(n, v)));
    values
}

/// Order `values` as `catalog` lists them; an error names every metric
/// the catalog has and the run lacks, or the other way round.
pub fn in_catalog_order<'a>(
    values: &'a [Value],
    catalog: &'static [MetricDef],
) -> Result<Vec<(&'static MetricDef, &'a Value)>, String> {
    let mut out = Vec::with_capacity(catalog.len());
    for def in catalog {
        match values.iter().find(|v| v.name == def.name) {
            Some(v) => out.push((def, v)),
            None => return Err(format!("metric {} was not measured", def.name)),
        }
    }
    match values
        .iter()
        .find(|v| !catalog.iter().any(|d| d.name == v.name))
    {
        Some(stray) => Err(format!("metric {} is not in the catalog", stray.name)),
        None => Ok(out),
    }
}

/// The `metrics` object of the result line: `{name: {value, unit}}`.
pub fn metrics_json(rows: &[(&MetricDef, &Value)]) -> Json {
    Json::obj(rows.iter().map(|(def, v)| {
        (
            def.name,
            Json::obj([("value", Json::Num(v.value)), ("unit", Json::str(def.unit))]),
        )
    }))
}

/// The same with sample count, samples and run-to-run spread: what
/// `tcsb-bench run` keeps per workload and `compare` reads back. With
/// fewer cores than shards `shard_speedup` is `null`: the samples beside it
/// are then ratios of synchronisation overhead, not speed-ups.
pub fn detail_json(rows: &[(&MetricDef, &Value)]) -> Json {
    Json::obj(rows.iter().map(|(def, v)| {
        let no_speedup = def.name == "shard_speedup" && host::cpus() < 2;
        (
            def.name,
            Json::obj([
                (
                    "value",
                    if no_speedup {
                        Json::Null
                    } else {
                        Json::Num(v.value)
                    },
                ),
                ("unit", Json::str(def.unit)),
                ("n", Json::Int(v.samples.len() as u64)),
                ("samples", Json::nums(&v.samples)),
                ("spread", Json::Num(stats::spread(&v.samples))),
            ]),
        )
    }))
}
