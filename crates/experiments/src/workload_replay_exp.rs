//! The `workload-replay` artefact: a production-shaped request replay —
//! Zipf-popular CIDs, per-region diurnal rate curves and a flash crowd —
//! driven generatively through a live campaign.
//!
//! Everything in the rendered artefact is deterministic per (scale, seed)
//! and byte-identical across reruns and shard counts: per-phase trace
//! digests, request accounting, the telemetry served-by counters and the
//! flash-CID provider-record time series (sampled on engine forks, so the
//! probes never perturb the replay they observe). Host wall-clock figures
//! appear only in the EXPERIMENTS.md notes.

use crate::report::{Report, Unit};
use crate::telemetry_exp::instrumented;
use crate::Scale;
use ipfs_types::Cid;
use netgen::{FlashCrowdSpec, WorkloadSpec};
use simnet::{Dur, SimTime};
use tcsb_core::{Campaign, CampaignOptions};

const HOUR: u64 = 3_600_000_000_000;
const MIN: u64 = 60_000_000_000;

/// One phase of the replay with the trace digest at its end.
pub struct ReplayPhase {
    /// Phase label.
    pub name: &'static str,
    /// Virtual end time.
    pub end: SimTime,
    /// Trace digest when the phase closed.
    pub digest: u64,
    /// Cumulative engine events when the phase closed.
    pub events: u64,
}

/// One fork-sampled point of the flash-CID provider-record series.
pub struct ConcentrationSample {
    /// Virtual sample time.
    pub at: SimTime,
    /// Live provider records resolved for the flash CID.
    pub live_records: usize,
    /// Distinct providers behind those records.
    pub distinct_providers: usize,
    /// Records whose provider would answer a dial right now.
    pub reachable: usize,
}

/// Everything the artefact renders.
pub struct ReplayData {
    /// The workload description driven through the campaign.
    pub spec: WorkloadSpec,
    /// Phase digests in order (bootstrap, pre-flash, flash, cooldown).
    pub phases: Vec<ReplayPhase>,
    /// Flash-CID provider-record time series.
    pub series: Vec<ConcentrationSample>,
    /// Requests issued by the driver: `(http, direct fetch)`.
    pub issued: (u64, u64),
    /// Telemetry registry snapshot covering exactly this campaign.
    pub snap: telemetry::Snapshot,
    /// Final trace digest.
    pub digest: u64,
    /// Engine counters at the end.
    pub engine: simnet::SimStats,
    /// Engine shards the campaign ran on.
    pub shards: usize,
    /// Provider records summed over scenario nodes: live at campaign end.
    pub providers_live: usize,
    /// Same sum counting expired-but-unpruned records too.
    pub providers_raw: usize,
    /// Host wall-clock seconds (non-deterministic; notes only).
    pub wall_secs: f64,
}

/// The replay spec for a scale: total requests sized to the preset, a
/// window opening after bootstrap, and a flash crowd over the window's
/// 40–50% span slice (boost ×150 on a top-5 CID plus an eighth of the
/// organic volume as crowd extras).
pub fn replay_spec(scale: Scale, seed: u64) -> WorkloadSpec {
    let (total, end_h) = match scale {
        Scale::Tiny => (60_000, 30),
        Scale::Small => (1_100_000, 186),
        Scale::Quick => (2_000_000, 330),
        Scale::Stress => (3_000_000, 498),
        Scale::Paper => (8_000_000, 906),
        Scale::Internet => (1_000_000, 66),
    };
    let window = (SimTime(6 * HOUR), SimTime(end_h * HOUR));
    let mut spec = WorkloadSpec::preset(total, window, seed);
    let span = window.1 .0 - window.0 .0;
    let f0 = window.0 .0 + span * 2 / 5;
    spec.flash = Some(FlashCrowdSpec {
        rank: 3,
        boost: 150,
        extra_requests: total / 8,
        window: (SimTime(f0), SimTime(f0 + span / 10)),
    });
    spec
}

fn probe(c: &mut Campaign, cid: Cid, at: SimTime) -> ConcentrationSample {
    c.with_fork(|f| {
        let resolved = f.resolve_providers(&[cid], true, Dur::from_secs(2));
        let records = resolved
            .into_iter()
            .next()
            .map(|(_, recs, _)| recs)
            .unwrap_or_default();
        let mut providers: Vec<_> = records.iter().map(|r| r.provider).collect();
        providers.sort();
        providers.dedup();
        let reachable = records.iter().filter(|r| f.record_reachable(r)).count();
        ConcentrationSample {
            at,
            live_records: records.len(),
            distinct_providers: providers.len(),
            reachable,
        }
    })
}

/// Run the replay campaign and collect the artefact data. The telemetry
/// registry is forced on for exactly this campaign (restored afterwards)
/// so the served-by counters and the request-latency histogram cover the
/// replay and nothing else.
pub fn run(scale: Scale, seed: u64, shards: usize) -> ReplayData {
    let spec = replay_spec(scale, seed);
    let scenario = netgen::build(scale.config(seed).with_shards(shards));
    let started = std::time::Instant::now();
    let ((c, phases, series), snap) = instrumented(|| {
        let mut c = Campaign::new(
            scenario,
            CampaignOptions {
                with_workload: true,
                with_requests: false,
                live_workload: Some(spec.clone()),
            },
        );
        let flash = spec.flash.expect("replay_spec always configures a flash");
        let span = spec.window.1 .0 - spec.window.0 .0;
        // Phase boundaries plus fork-probe sample points, time-ordered. The
        // series brackets the flash window: two baseline samples, one
        // mid-crowd, then the decay as the crowd's re-provides expire.
        let samples = [
            SimTime(flash.window.0 .0.saturating_sub(span / 10)),
            SimTime(flash.window.0 .0),
            SimTime((flash.window.0 .0 + flash.window.1 .0) / 2),
            SimTime(flash.window.1 .0),
            SimTime(flash.window.1 .0 + span / 10),
            SimTime(flash.window.1 .0 + span / 5),
        ];
        let phase_ends = [
            ("bootstrap", spec.window.0),
            ("pre-flash", flash.window.0),
            ("flash", flash.window.1),
            ("cooldown", spec.window.1),
        ];
        let mut breakpoints: Vec<(SimTime, Option<&'static str>)> = phase_ends
            .iter()
            .map(|&(name, t)| (t, Some(name)))
            .chain(samples.iter().map(|&t| (t, None)))
            .collect();
        breakpoints.sort_by_key(|&(t, label)| (t, label.is_some()));

        let flash_cid = c
            .sim
            .actor(c.webuser)
            .webuser()
            .replay
            .as_ref()
            .expect("campaign runs in replay mode")
            .flash_cid()
            .expect("flash rank within catalog");

        let mut phases = Vec::new();
        let mut series = Vec::new();
        for (t, label) in breakpoints {
            c.sim.run_until(t.max(c.now()));
            match label {
                Some(name) => phases.push(ReplayPhase {
                    name,
                    end: t,
                    digest: c.sim.trace_digest(),
                    events: c.sim.stats().events,
                }),
                None => series.push(probe(&mut c, flash_cid, t)),
            }
        }
        series.sort_by_key(|s| s.at);
        (c, phases, series)
    });

    let issued = c
        .sim
        .actor(c.webuser)
        .webuser()
        .replay
        .as_ref()
        .expect("replay driver survives the run")
        .issued;
    let (providers_live, providers_raw) = c.provider_record_counts();
    ReplayData {
        spec,
        phases,
        series,
        issued,
        snap,
        digest: c.sim.trace_digest(),
        engine: c.sim.stats(),
        shards: c.shards(),
        providers_live,
        providers_raw,
        wall_secs: started.elapsed().as_secs_f64(),
    }
}

fn counter(snap: &telemetry::Snapshot, name: &str) -> u64 {
    snap.counters
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, v)| *v)
        .unwrap_or(0)
}

fn latency(snap: &telemetry::Snapshot) -> (u64, u64) {
    snap.hists
        .iter()
        .find(|(n, _)| *n == "request_latency_ns")
        .map(|(_, h)| (h.count, h.sum))
        .unwrap_or((0, 0))
}

/// Render the plain-text artefact CI diffs byte-for-byte between shard
/// counts: spec, per-phase digests, request accounting, served-by
/// counters, the latency fold and the flash provider-record series — all
/// integers, no host figures.
pub fn render_lines(scale_name: &str, seed: u64, d: &ReplayData) -> String {
    let m = |t: SimTime| t.0 / MIN;
    let mut out = format!("workload-replay scale={scale_name} seed={seed}\n");
    out.push_str(&format!(
        "spec total={} http_permille={} tick_s={} window_m={}..{} regions=[{}]\n",
        d.spec.total_requests,
        d.spec.http_share_permille,
        d.spec.tick.0 / 1_000_000_000,
        m(d.spec.window.0),
        m(d.spec.window.1),
        d.spec
            .region_share_permille
            .iter()
            .map(|s| s.to_string())
            .collect::<Vec<_>>()
            .join(","),
    ));
    if let Some(f) = d.spec.flash {
        out.push_str(&format!(
            "flash rank={} boost={} extra={} window_m={}..{}\n",
            f.rank,
            f.boost,
            f.extra_requests,
            m(f.window.0),
            m(f.window.1)
        ));
    }
    for p in &d.phases {
        out.push_str(&format!(
            "phase {} end_m={} digest {:#018x} events {}\n",
            p.name,
            m(p.end),
            p.digest,
            p.events
        ));
    }
    out.push_str(&format!(
        "requests http={} fetch={} total={}\n",
        d.issued.0,
        d.issued.1,
        d.issued.0 + d.issued.1
    ));
    for name in [
        "fetches_started",
        "want_coalesce_hits",
        "requests_served_cache",
        "requests_served_bitswap",
        "requests_served_dht",
    ] {
        out.push_str(&format!("counter {name} {}\n", counter(&d.snap, name)));
    }
    let (n, sum) = latency(&d.snap);
    out.push_str(&format!("request_latency samples={n} sum_ns={sum}\n"));
    for s in &d.series {
        out.push_str(&format!(
            "flash_providers t_m={} live={} distinct={} reachable={}\n",
            m(s.at),
            s.live_records,
            s.distinct_providers,
            s.reachable
        ));
    }
    out.push_str(&format!(
        "providers live={} raw={}\n",
        d.providers_live, d.providers_raw
    ));
    out
}

/// The EXPERIMENTS.md section.
pub fn report(d: &ReplayData) -> Report {
    let mut r = Report::new(
        "workload-replay",
        "Production workload replay — Zipf stream, diurnal cycles, flash crowd",
    );
    let total = (d.issued.0 + d.issued.1) as f64;
    r.val("requests issued", total, Unit::Count);
    r.val(
        "requests · http share",
        d.issued.0 as f64 / total.max(1.0),
        Unit::Pct,
    );
    let started = counter(&d.snap, "fetches_started");
    let coalesced = counter(&d.snap, "want_coalesce_hits");
    r.val("fetch pipelines started", started as f64, Unit::Count);
    r.val(
        "want-coalesce hit rate",
        coalesced as f64 / (coalesced + started).max(1) as f64,
        Unit::Pct,
    );
    for (label, name) in [
        ("served from gateway cache", "requests_served_cache"),
        ("served via bitswap phase", "requests_served_bitswap"),
        ("served via dht providers", "requests_served_dht"),
    ] {
        r.val(label, counter(&d.snap, name) as f64, Unit::Count);
    }
    let (n, sum) = latency(&d.snap);
    r.val(
        "request latency · mean (s, virtual)",
        if n == 0 {
            0.0
        } else {
            sum as f64 / n as f64 / 1e9
        },
        Unit::Secs,
    );
    r.val(
        "provider records · live",
        d.providers_live as f64,
        Unit::Count,
    );
    r.val(
        "provider records · raw",
        d.providers_raw as f64,
        Unit::Count,
    );
    let series: Vec<String> = d
        .series
        .iter()
        .map(|s| {
            format!(
                "t={}h live={} distinct={} reachable={}",
                s.at.0 / HOUR,
                s.live_records,
                s.distinct_providers,
                s.reachable
            )
        })
        .collect();
    r.note(format!(
        "flash-CID provider records (fork-sampled, probe-free): {}",
        series.join(" · ")
    ));
    let digests: Vec<String> = d
        .phases
        .iter()
        .map(|p| format!("{} {:#018x}", p.name, p.digest))
        .collect();
    r.note(format!(
        "phase digests (byte-identical across reruns and shard counts): {}",
        digests.join(" · ")
    ));
    if d.wall_secs > 0.0 {
        r.note(format!(
            "host metrics (non-deterministic, excluded from the byte-identity contract): \
wall {:.1}s · {:.0} requests/s · {:.0} events/s · shards {}",
            d.wall_secs,
            total / d.wall_secs,
            d.engine.events as f64 / d.wall_secs,
            d.shards
        ));
    }
    r
}
