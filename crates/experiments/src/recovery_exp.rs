//! The `whatif-recovery` experiment: longitudinal recovery dynamics of
//! staged cloud exits, through the crawler's eyes.
//!
//! Where `whatif-cloud-exit` probes single before/after points, this
//! artefact observes the whole arc: a deterministic sampling cadence runs
//! the §3 DHT crawler plus the health probe on engine *forks* across each
//! intervention plan, producing Fig. 4-style population time series
//! (total / crawlable / by-net-class / by-provider), routing-table fill
//! and lookup-health curves, and derives recovery metrics — time back to
//! 90% of baseline lookup success and the steady-state population delta.
//! The sweep covers the three longitudinal counterfactuals the plan
//! machinery composes: a single abrupt exit vs its graceful twin (recovery
//! curves differ even when the removed set is identical), a two-wave
//! AWS-then-Hydra exodus ([`netgen::StagedExitSpec`]), and a partition
//! that heals. Forked sampling means every row's trace digest is exactly
//! that of an unobserved campaign — byte-identical per seed and per shard
//! count.

use crate::report::{Report, Unit};
use crate::resilience_exp::whatif_campaign;
use crate::Scale;
use netgen::{ExitStyle, InterventionKind, InterventionSpec, InterventionTarget, StagedExitSpec};
use simnet::{Dur, SimTime};
use whatif::{Timeline, TimelineConfig};

/// When the (final) exit wave fires.
const T_EXIT: Dur = Dur(34 * 3_600 * 1_000_000_000);
/// Lead of the first wave in the staged two-wave plan.
const WAVE_LEAD: Dur = Dur(4 * 3_600 * 1_000_000_000);
/// Sampling cadence.
const STEP: Dur = Dur(3 * 3_600 * 1_000_000_000);
/// Observation lead before the first wave.
const PRE: Dur = Dur(6 * 3_600 * 1_000_000_000);
/// Observation tail after the last scheduled event.
const TAIL: Dur = Dur(8 * 3_600 * 1_000_000_000);
/// How long the partition lasts before healing.
const PARTITION_HEAL: Dur = Dur(6 * 3_600 * 1_000_000_000);

/// Probe batch per timeline sample (smaller than the cloud-exit probe:
/// it runs at every sample, not twice per row).
fn probe_sample(scale: Scale) -> usize {
    match scale {
        Scale::Tiny => 20,
        Scale::Small => 60,
        Scale::Quick => 120,
        Scale::Stress => 160,
        Scale::Paper => 300,
        Scale::Internet => 300,
    }
}

/// One sweep entry: a plan plus the event time recovery is measured from.
struct SweepEntry {
    label: String,
    plan: Vec<InterventionSpec>,
    event_at: SimTime,
}

fn sweep(seed: u64) -> Vec<SweepEntry> {
    let at = SimTime::ZERO + T_EXIT;
    let wave1 = SimTime::ZERO + Dur(T_EXIT.0 - WAVE_LEAD.0);
    vec![
        SweepEntry {
            label: "50% of cloud peers exit (abrupt)".into(),
            plan: vec![InterventionSpec::exit(
                at,
                InterventionTarget::CloudFraction {
                    fraction: 0.5,
                    seed: seed ^ 50,
                },
                ExitStyle::Abrupt,
            )],
            event_at: at,
        },
        SweepEntry {
            label: "50% of cloud peers exit (graceful)".into(),
            plan: vec![InterventionSpec::exit(
                at,
                InterventionTarget::CloudFraction {
                    fraction: 0.5,
                    seed: seed ^ 50,
                },
                ExitStyle::Graceful,
            )],
            event_at: at,
        },
        SweepEntry {
            label: "AWS exits, then the Hydras (two-wave, abrupt)".into(),
            plan: StagedExitSpec::aws_then_hydra(wave1, at).into_plan(),
            event_at: at,
        },
        SweepEntry {
            label: "EU region partitioned, heals after 6h".into(),
            plan: vec![InterventionSpec {
                at,
                target: InterventionTarget::Region(1),
                kind: InterventionKind::Partition {
                    heal_at: Some(at + PARTITION_HEAL),
                },
            }],
            event_at: at,
        },
    ]
}

/// Everything one sweep entry produces besides its timeline.
struct EntryResult {
    timeline: Timeline,
    /// Nodes permanently removed by exit waves (per-wave disjoint).
    removed: usize,
    /// Nodes isolated by partition stages.
    partitioned: usize,
    population: usize,
    digest: u64,
}

/// Run one sweep entry: fresh campaign (identical to the others up to the
/// plan), timeline sampled across the whole plan.
fn run_entry(scale: Scale, seed: u64, entry: &SweepEntry, shards: usize) -> EntryResult {
    // Probe CIDs: catalog items published well before the first sample.
    let first_sample = entry
        .plan
        .iter()
        .map(|sp| sp.at)
        .min()
        .unwrap_or(SimTime::ZERO + T_EXIT);
    let deadline = SimTime(first_sample.0.saturating_sub(PRE.0 + Dur::from_hours(6).0));
    let (mut campaign, compiled, cids) = whatif_campaign(
        scale,
        seed,
        shards,
        entry.plan.clone(),
        deadline,
        probe_sample(scale),
    );
    let count = |exit: bool| -> usize {
        compiled
            .iter()
            .filter(|c| matches!(c.spec.kind, InterventionKind::Exit { .. }) == exit)
            .map(|c| c.nodes.len())
            .sum()
    };
    let (removed, partitioned) = (count(true), count(false));
    let population = campaign.scenario.nodes.len();
    let tl_cfg = TimelineConfig {
        samples: TimelineConfig::sample_times_for_plan(&entry.plan, PRE, STEP, TAIL),
        probe_cids: cids,
        probe_spacing: Dur::from_secs(20),
        crawl_max_wait: Dur::from_mins(40),
    };
    let timeline = whatif::timeline::run(&mut campaign, &tl_cfg);
    EntryResult {
        timeline,
        removed,
        partitioned,
        population,
        digest: campaign.sim.trace_digest(),
    }
}

/// The `whatif-recovery` artefact.
pub fn whatif_recovery(scale: Scale, seed: u64, shards: usize) -> Report {
    let mut r = Report::new(
        "whatif-recovery",
        "Recovery observatory: crawler-eye timelines over staged exits",
    );
    let entries = sweep(seed);
    let n = entries.len();
    for (i, entry) in entries.iter().enumerate() {
        eprintln!("[repro] recovery row {}/{n}: {} …", i + 1, entry.label);
        let res = run_entry(scale, seed, entry, shards);
        let m = res.timeline.recovery_metrics(entry.event_at);
        r.val(
            &format!("time to 90% of baseline success — {}", entry.label),
            m.time_to_90pct.map(|d| d.as_secs_f64()).unwrap_or(-1.0),
            Unit::Secs,
        );
        r.val(
            &format!("steady-state crawled-population delta — {}", entry.label),
            m.population_delta as f64,
            Unit::Count,
        );
        let target_part = if res.partitioned > 0 {
            format!("isolated {}/{} nodes", res.partitioned, res.population)
        } else {
            format!("removed {}/{} nodes", res.removed, res.population)
        };
        r.note(format!(
            "{}: {target_part} · success {:.1}% → trough {:.1}% → \
final {:.1}% · crawled population {} → {} · digest {:#018x}",
            entry.label,
            m.baseline_success * 100.0,
            m.trough_success * 100.0,
            m.final_success * 100.0,
            m.baseline_population,
            m.final_population,
            res.digest,
        ));
        for row in res.timeline.render_rows(entry.event_at) {
            r.note(format!("{} · {row}", entry.label));
        }
    }
    r.note(format!(
        "Sampling cadence: every {:.0}h from {:.0}h before the first wave to {:.0}h after \
the last event; T is the (final) exit wave. Each sample forks the engine, runs the §3 \
crawler and a {}-CID health probe inside the fork, and discards it — the row digests are \
those of *unobserved* campaigns, byte-identical per seed and per shard count. Population \
classes: c=cloud-only, n=non-cloud, b=both, u=unknown addresses (crawler-eye, Fig. 4 \
style); online-truth is the engine's ground-truth server count the crawl approximates. \
`time to 90%` = virtual time from T until lookup success is back at ≥90% of the last \
pre-wave sample, counted from the first sample where the damage is visible (0.0s = \
success never dipped below the threshold; -1.0s = dipped and not recovered within the \
observed window).",
        STEP.0 as f64 / 3_600e9,
        PRE.0 as f64 / 3_600e9,
        TAIL.0 as f64 / 3_600e9,
        probe_sample(scale),
    ));
    r.note(
        "Longitudinal anchors: Trautwein et al. motivate the routing-table-healing and \
republish metrics; Prünster et al. the partition-recovery angle; the two-wave row composes \
the paper's §7 cloud-exit counterfactual with the real 2023 Hydra shutdown as its second \
wave. Abrupt vs graceful rows remove the *same* node set (same selection seed) — only the \
exit style differs, isolating the recovery-curve effect of unannounced departures.",
    );
    r
}
