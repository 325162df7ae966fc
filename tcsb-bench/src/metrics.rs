//! The metric catalog: every name the harness emits, with its unit, the
//! direction that counts as better and — where a regression is judged —
//! the share by which it may worsen. `BENCHMARK.json` is this table
//! written out; a test holds the two together.
//!
//! Host metrics read the host's clock or memory; simulated metrics are
//! functions of (workload, seed) alone and repeat exactly.

/// Which direction is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    /// Spelling in `BENCHMARK.json`.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric.
#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the base by which the metric may worsen before
    /// `tcsb-bench compare` calls it regressed; `Some(0.0)` = must repeat
    /// exactly (simulated); `None` = reported, never judged.
    pub bound: Option<f64>,
    /// Worsening below this many units is never a regression, whatever
    /// share of a small base it is.
    pub floor: f64,
}

const fn def(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: Option<f64>,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
        floor: 0.0,
    }
}

impl MetricDef {
    const fn with_floor(self, floor: f64) -> MetricDef {
        MetricDef { floor, ..self }
    }
}

use Better::{Higher, Lower};

/// Metrics every workload reports from an untraced run, all host-side;
/// seconds are seconds of the reference host ([`crate::calib`]).
pub const END_TO_END: &[MetricDef] = &[
    // Ten runs of one workload spread up to 9 % of their median in
    // reference-host seconds (README, baseline); three times that is the
    // 25 % the contract allows at most. A gain is judged by alternating
    // pairs, not by these bounds.
    // `netgen::build` + `Campaign::new`, median over set-ups. The tiny
    // scenario sets up in 6 ms, where a quarter is scheduler noise.
    def("setup_s", "s", Lower, Some(0.25)).with_floor(0.05),
    // The measured run including artefact analysis.
    def("wall_s", "s", Lower, Some(0.25)),
    // Simulated events dispatched per second of it.
    def("events_per_s", "1/s", Higher, Some(0.25)),
    // User + system CPU s over the measured run.
    def("cpu_s", "s", Lower, Some(0.25)),
    // Resident-set high-water mark of the process.
    def("peak_rss_mb", "MiB", Lower, Some(0.15)),
];

/// Metrics of the traced run. The first five are end-to-end figures of
/// single workloads ([`own_workload`]; 0 on the others), which the untraced
/// run of that workload reports too; the rest are single layers.
pub const PER_LAYER: &[MetricDef] = &[
    // --- end-to-end figures that exist on one workload only -------------
    def("requests_per_s", "1/s", Higher, Some(0.10)),
    def("request_unserved_share", "share", Lower, Some(0.0)),
    def("shard_speedup", "ratio", Higher, Some(0.10)),
    def("whatif_sample_s_p50", "s", Lower, Some(0.10)),
    def("fidelity_mean_abs_err_pp", "pp", Lower, Some(0.0)),
    // --- host record and calibration ------------------------------------
    def("host.cpus", "count", Higher, None),
    // Interleaved calibration over the untraced repetitions: host speed
    // relative to the reference host, and their measured run in raw seconds.
    def("host.speed", "ratio", Higher, None),
    def("wall_raw_s", "s", Lower, None),
    def("ipfs-types.sha256_mib_per_s", "MiB/s", Higher, None),
    def("simnet.engine.pingpong_events_per_s", "1/s", Higher, None),
    // --- simnet kernels ---------------------------------------------------
    def("simnet.wheel.push_pop_near_ns", "ns", Lower, None),
    def("simnet.wheel.push_pop_coarse_ns", "ns", Lower, None),
    def("simnet.wheel.push_pop_far_ns", "ns", Lower, None),
    def("simnet.conn.insert_remove_ns", "ns", Lower, None),
    def("simnet.conn.lookup_ns", "ns", Lower, None),
    def("simnet.engine.null_ns_per_event", "ns", Lower, None),
    def("simnet.engine.timer_ns_per_event", "ns", Lower, None),
    def("simnet.engine.event_bytes", "bytes", Lower, None),
    // --- simnet counts of the workload (simulated, exact, except
    //     peak_queue_len) ---------------------------------------------------
    def("simnet.engine.events", "count", Lower, Some(0.0)),
    def("simnet.engine.ev_deliver", "count", Lower, Some(0.0)),
    def("simnet.engine.ev_timer", "count", Lower, Some(0.0)),
    def("simnet.engine.ev_dial", "count", Lower, Some(0.0)),
    def("simnet.engine.ev_conn_closed", "count", Lower, Some(0.0)),
    def("simnet.engine.ev_command", "count", Lower, Some(0.0)),
    def("simnet.engine.peak_queue_len", "count", Lower, None),
    def("simnet.engine.msg_drop_share", "share", Lower, Some(0.0)),
    def("simnet.engine.dial_fail_share", "share", Lower, Some(0.0)),
    def("simnet.engine.owned_bytes_per_node", "bytes", Lower, None),
    def("simnet.engine.replica_bytes_per_node", "bytes", Lower, None),
    def("simnet.engine.fork_ms", "ms", Lower, None),
    // --- simnet::shard (0 on single-shard workloads) ----------------------
    def("simnet.shard.epochs", "count", Lower, None),
    def("simnet.shard.barrier_waits", "count", Lower, None),
    def("simnet.shard.mailbox_events", "count", Lower, None),
    def("simnet.shard.mailbox_bytes", "bytes", Lower, None),
    def("simnet.shard.events_per_epoch", "count", Higher, None),
    def("simnet.shard.dispatch_ratio", "ratio", Lower, None),
    def("simnet.shard.work_share", "share", Higher, None),
    def("simnet.shard.sync_ns_per_epoch", "ns", Lower, None),
    def("simnet.shard.ctx_switches", "count", Lower, None),
    // Wall and CPU seconds of the 2-shard run, untraced: what `wall_s` and
    // `cpu_s` are for the 1-shard run of the same pair.
    def("simnet.shard.wall_2shard_s", "s", Lower, None),
    def("simnet.shard.cpu_2shard_s", "s", Lower, None),
    // --- kademlia ---------------------------------------------------------
    def("kademlia.table.closest_ns", "ns", Lower, None),
    def("kademlia.table.observe_ns", "ns", Lower, None),
    def("kademlia.table.try_insert_ns", "ns", Lower, None),
    def("kademlia.lookup.converge_us", "us", Lower, None),
    def("kademlia.lookup.step_ns", "ns", Lower, None),
    def("kademlia.providers.add_get_ns", "ns", Lower, None),
    def("kademlia.dht.handle_request_ns", "ns", Lower, None),
    def("kademlia.lookups_completed", "count", Lower, Some(0.0)),
    def("kademlia.lookup_contacted_mean", "count", Lower, Some(0.0)),
    def("kademlia.lookup_peer_fail_share", "share", Lower, Some(0.0)),
    // --- bitswap ----------------------------------------------------------
    def("bitswap.start_fetch_ns", "ns", Lower, None),
    def("bitswap.want_ns", "ns", Lower, None),
    def("bitswap.block_ns", "ns", Lower, None),
    def("bitswap.fetches_started", "count", Lower, Some(0.0)),
    def("bitswap.fetches_resolved", "count", Higher, Some(0.0)),
    def("bitswap.want_coalesce_share", "share", Higher, Some(0.0)),
    // --- ipfs-node (simulated, exact) ---------------------------------------
    def("ipfs-node.served_cache_share", "share", Higher, Some(0.0)),
    def("ipfs-node.served_bitswap_share", "share", Higher, Some(0.0)),
    def("ipfs-node.served_dht_share", "share", Higher, Some(0.0)),
    def(
        "ipfs-node.request_latency_sim_ms_mean",
        "ms",
        Lower,
        Some(0.0),
    ),
    // --- netgen, core, measurement-side crates ------------------------------
    def("netgen.build_s", "s", Lower, None),
    def("netgen.placement.balanced_ms", "ms", Lower, None),
    def("netgen.workload.zipf_sample_ns", "ns", Lower, None),
    def("netgen.workload.emit_tick_us", "us", Lower, None),
    def("core.campaign.new_s", "s", Lower, None),
    def("core.crawler.crawl_s_p50", "s", Lower, None),
    def("core.crawler.peers_per_crawl", "count", Higher, Some(0.0)),
    def("core.analysis.figs_s", "s", Lower, None),
    def("core.analysis.resilience_ms", "ms", Lower, None),
    def("clouddb.lookup_ns", "ns", Lower, None),
    def("dnslink.scan_ms", "ms", Lower, None),
    def("ens.extract_ms", "ms", Lower, None),
    // --- whatif -------------------------------------------------------------
    def("whatif.compile_ms", "ms", Lower, None),
    def("whatif.samples", "count", Higher, Some(0.0)),
    def("whatif.sample_crawl_share", "share", Higher, None),
    // --- tracing overhead and attribution (host seconds) --------------------
    def("telemetry.overhead_pct", "%", Lower, None),
    def("attrib.setup_s", "s", Lower, None),
    def("attrib.engine_s", "s", Lower, None),
    def("attrib.sync_s", "s", Lower, None),
    def("attrib.fork_s", "s", Lower, None),
    def("attrib.analysis_s", "s", Lower, None),
    def("attrib.actors_residual_s", "s", Lower, None),
    def("attrib.wall_s", "s", Lower, None),
];

/// The one workload on which an end-to-end figure listed under
/// [`PER_LAYER`] exists, `None` for every other metric.
pub fn own_workload(metric: &str) -> Option<&'static str> {
    match metric {
        "requests_per_s" | "request_unserved_share" => Some("replay_tiny"),
        "shard_speedup" => Some("sharded_stress_1h"),
        "whatif_sample_s_p50" => Some("whatif_recovery_small"),
        "fidelity_mean_abs_err_pp" => Some("crawl_small"),
        _ => None,
    }
}

/// Look a metric up in either table.
pub fn find(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}

/// Whether `name` follows the contract's grammar: starts with a letter or
/// digit, then at most 63 more of letters, digits, `_`, `.` and `-`.
pub fn valid_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(ok)
}

/// Whether `unit` follows the contract's grammar.
pub fn valid_unit(unit: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
    !unit.is_empty() && unit.len() <= 16 && unit.chars().all(ok)
}
