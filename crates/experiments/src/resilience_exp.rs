//! The `whatif-cloud-exit` experiment: execute the paper's headline
//! counterfactual instead of extrapolating it.
//!
//! §4/§7 of the paper argue that with ~79.6% of DHT servers cloud-hosted
//! (A-N counting), a coordinated cloud exit would gut the network, and the
//! real-world Hydra-booster shutdown previewed a slice of that. Here we
//! *run* the counterfactual: one campaign per removal fraction, identical
//! up to the intervention, with the DHT probed immediately before and
//! shortly after the exit. Reported per row: user-facing lookup success
//! (≥1 reachable provider), raw record availability (records outlive their
//! providers until the 24 h TTL), lookup effort (peers contacted) and
//! lookup latency — plus the trace digest, so two runs of the same seed
//! can be compared byte-for-byte.

use crate::report::{Report, Unit};
use crate::Scale;
use ipfs_types::Cid;
use netgen::{ExitStyle, InterventionKind, InterventionSpec, InterventionTarget, PAPER};
use simnet::{Dur, SimTime};
use tcsb_core::{Campaign, CampaignOptions};
use whatif::{CompiledIntervention, DhtHealth};

/// When the exit fires (the campaign is warm and well-provided by then).
const T_EXIT: Dur = Dur(34 * 3_600 * 1_000_000_000);
/// Virtual settle time between the exit and the post-probe.
const SETTLE: Dur = Dur(2 * 3_600 * 1_000_000_000);
/// How long the region partition lasts before healing.
const PARTITION_HEAL: Dur = Dur(6 * 3_600 * 1_000_000_000);

/// One row of the sweep.
struct RowResult {
    label: String,
    removed: usize,
    population: usize,
    /// Uptime-weighted cloud share of the scenario's DHT servers (same
    /// value on every row — the scenarios are identical up to the plan).
    cloud_server_share: f64,
    pre: DhtHealth,
    post: DhtHealth,
    /// Probe taken after a partition healed (partition rows only).
    healed: Option<DhtHealth>,
    digest: u64,
}

fn probe_sample(scale: Scale) -> usize {
    match scale {
        Scale::Tiny => 30,
        Scale::Small => 90,
        Scale::Quick => 200,
        Scale::Stress => 300,
        Scale::Paper => 600,
        Scale::Internet => 600,
    }
}

/// The sweep: fractions of cloud-hosted peers removed abruptly, one
/// graceful comparison point, and the Hydra-fleet shutdown.
fn sweep(seed: u64) -> Vec<(String, Vec<InterventionSpec>)> {
    let at = SimTime::ZERO + T_EXIT;
    let mut rows: Vec<(String, Vec<InterventionSpec>)> =
        vec![("baseline (no exit)".into(), vec![])];
    for pct in [25u64, 50, 75, 100] {
        rows.push((
            format!("{pct}% of cloud peers exit (abrupt)"),
            vec![InterventionSpec::exit(
                at,
                InterventionTarget::CloudFraction {
                    fraction: pct as f64 / 100.0,
                    seed: seed ^ pct,
                },
                ExitStyle::Abrupt,
            )],
        ));
    }
    rows.push((
        "50% of cloud peers exit (graceful)".into(),
        vec![InterventionSpec::exit(
            at,
            InterventionTarget::CloudFraction {
                fraction: 0.5,
                seed: seed ^ 50,
            },
            ExitStyle::Graceful,
        )],
    ));
    rows.push((
        "all Hydras exit (abrupt)".into(),
        vec![InterventionSpec::hydra_shutdown(at)],
    ));
    // Eclipse-style region partition (per Prünster et al.): one latency
    // region severed from the rest of the network, healing 6 virtual hours
    // later — the post-probe lands mid-partition, the healed probe after
    // recovery, so the row measures both the outage and the heal time.
    rows.push((
        "EU region partitioned (heals at T+6h)".into(),
        vec![InterventionSpec {
            at,
            target: InterventionTarget::Region(1),
            kind: InterventionKind::Partition {
                heal_at: Some(at + PARTITION_HEAL),
            },
        }],
    ));
    rows
}

/// A what-if campaign, the set-up every cloud-exit row and recovery entry
/// shares: the scale's scenario capped at 48 virtual hours with no request
/// workload — a counterfactual needs a settled, well-provided network, not
/// a multi-week campaign, and the publishes that still run create the
/// provider records the probes resolve — with `plan` compiled and
/// scheduled. Returns the campaign, the compiled plan and up to `n_probes`
/// probe CIDs: regular catalog items published before `probe_deadline`, in
/// catalog order (deterministic).
pub(crate) fn whatif_campaign(
    scale: Scale,
    seed: u64,
    shards: usize,
    plan: Vec<InterventionSpec>,
    probe_deadline: SimTime,
    n_probes: usize,
) -> (Campaign, Vec<CompiledIntervention>, Vec<Cid>) {
    let mut cfg = scale.config(seed).with_shards(shards);
    cfg.duration = Dur::from_hours(48).min(cfg.duration);
    cfg.n_requests = 0;
    cfg.interventions = plan;
    let scenario = netgen::build(cfg);
    let cids: Vec<Cid> = scenario
        .content
        .iter()
        .filter(|item| item.publish_at < probe_deadline)
        .take(n_probes)
        .map(|item| item.cid)
        .collect();
    let mut campaign = Campaign::new(
        scenario,
        CampaignOptions {
            with_workload: true,
            with_requests: false,
            ..Default::default()
        },
    );
    let compiled = whatif::apply(&mut campaign);
    (campaign, compiled, cids)
}

/// Run one row: a fresh campaign (same scenario seed ⇒ identical until the
/// intervention), probed before and after.
fn run_row(
    scale: Scale,
    seed: u64,
    label: &str,
    plan: Vec<InterventionSpec>,
    shards: usize,
) -> RowResult {
    let plan_is_empty = plan.is_empty();
    let heal_at = plan
        .iter()
        .filter_map(|sp| match sp.kind {
            InterventionKind::Partition { heal_at } => heal_at,
            _ => None,
        })
        .max();
    // Probes start well after these publishes.
    let deadline = SimTime(T_EXIT.0.saturating_sub(Dur::from_hours(12).0));
    let (mut campaign, compiled, cids) =
        whatif_campaign(scale, seed, shards, plan, deadline, probe_sample(scale));
    let share = cloud_server_share(&campaign.scenario);
    let removed: usize = compiled.iter().map(|c| c.nodes.len()).sum();
    let population = campaign.scenario.nodes.len();
    debug_assert!(plan_is_empty || removed > 0, "{label}: empty target set");

    // Pre-probe ends before T_EXIT (spacing 20 s per lookup + settle tail).
    let spacing = Dur::from_secs(20);
    let pre_at = T_EXIT
        .0
        .saturating_sub(spacing.0 * cids.len() as u64 + Dur::from_hours(2).0);
    campaign.run_for(Dur(pre_at));
    let pre = whatif::dht_health(&mut campaign, &cids, spacing);
    // Let the exit fire and the dust (RPC timeouts, reconnects) settle.
    let past_exit = (SimTime::ZERO + T_EXIT + SETTLE)
        .0
        .saturating_sub(campaign.now().0);
    campaign.run_for(Dur(past_exit));
    let post = whatif::dht_health(&mut campaign, &cids, spacing);
    // Partition rows: run past the heal and probe again (recovery view).
    let healed = heal_at.map(|h| {
        let past_heal = (h + SETTLE).0.saturating_sub(campaign.now().0);
        campaign.run_for(Dur(past_heal));
        whatif::dht_health(&mut campaign, &cids, spacing)
    });
    RowResult {
        label: label.to_string(),
        removed,
        population,
        cloud_server_share: share,
        pre,
        post,
        healed,
        digest: campaign.sim.trace_digest(),
    }
}

/// The `whatif-cloud-exit` artefact.
pub fn whatif_cloud_exit(scale: Scale, seed: u64, shards: usize) -> Report {
    let mut r = Report::new(
        "whatif-cloud-exit",
        "Counterfactual: lookup health under cloud exit",
    );
    let rows = sweep(seed);
    let n_rows = rows.len();
    let mut server_share = 0.0;
    for (i, (label, plan)) in rows.into_iter().enumerate() {
        eprintln!("[repro] whatif row {}/{n_rows}: {label} …", i + 1);
        let row = run_row(scale, seed, &label, plan, shards);
        server_share = row.cloud_server_share;
        r.val(
            &format!("lookup success — {}", row.label),
            row.post.success_rate,
            Unit::Pct,
        );
        let healed_part = row
            .healed
            .map(|h| {
                format!(
                    " · healed {:.1}% (latency {:.2}s)",
                    h.success_rate * 100.0,
                    h.mean_elapsed.as_secs_f64()
                )
            })
            .unwrap_or_default();
        r.note(format!(
            "{}: targeted {}/{} nodes · success {:.1}% → {:.1}% · records {:.1}% → {:.1}% · \
contacted {:.1} → {:.1} · latency {:.2}s → {:.2}s{} · digest {:#018x}",
            row.label,
            row.removed,
            row.population,
            row.pre.success_rate * 100.0,
            row.post.success_rate * 100.0,
            row.pre.record_availability * 100.0,
            row.post.record_availability * 100.0,
            row.pre.mean_contacted,
            row.post.mean_contacted,
            row.pre.mean_elapsed.as_secs_f64(),
            row.post.mean_elapsed.as_secs_f64(),
            healed_part,
            row.digest,
        ));
    }
    r.cmp(
        "cloud share of DHT servers (what p=100% removes, A-N-weighted)",
        PAPER.cloud_share_an,
        server_share,
        Unit::Pct,
    );
    r.note(
        "Each row is its own campaign, identical to the baseline up to the intervention \
(same scenario seed). Success = ≥1 reachable provider; record availability decays only \
with the 24 h TTL, so it outlives reachability after an exit. Same seed ⇒ identical \
digests per row, for every engine shard count. The partition row isolates one latency \
region (eclipse-style) and probes again after the heal.",
    );
    r.note(
        "Paper anchors: ≈79.6% of DHT servers are cloud-hosted (A-N, Fig. 3) and the DHT \
partitions only after ≈60% targeted removal (Fig. 8); the Hydra row mirrors the \
real-world 2023 Hydra-booster shutdown (§7).",
    );
    r
}

/// Run the full sweep and return only each row's `(label, trace digest)` —
/// the determinism-contract fingerprint the golden regression test pins at
/// tiny scale (a contract change shows up here in `cargo test`, not only
/// in the nightly EXPERIMENTS.md diff).
pub fn sweep_digests(scale: Scale, seed: u64, shards: usize) -> Vec<(String, u64)> {
    sweep(seed)
        .into_iter()
        .map(|(label, plan)| {
            let row = run_row(scale, seed, &label, plan, shards);
            (label, row.digest)
        })
        .collect()
}

/// Uptime-weighted cloud share of DHT *servers* — what a full cloud exit
/// removes from the crawlable network, comparable to the paper's A-N
/// counting (NAT-ed clients are invisible to crawls and excluded; each
/// node contributes its online fraction, so the ≈15%-uptime fringe counts
/// fractionally exactly as in Fig. 3).
fn cloud_server_share(scenario: &netgen::Scenario) -> f64 {
    let horizon = scenario.cfg.duration.0;
    let uptime = |n: &netgen::NodeSpec| -> f64 {
        n.sessions
            .iter()
            .map(|s| s.down.0.min(horizon).saturating_sub(s.up.0.min(horizon)))
            .sum::<u64>() as f64
            / horizon.max(1) as f64
    };
    let (mut cloud, mut total) = (0.0f64, 0.0f64);
    for n in scenario.nodes.iter().filter(|n| !n.nat) {
        let u = uptime(n);
        total += u;
        if n.provider.is_some() {
            cloud += u;
        }
    }
    cloud / total.max(f64::MIN_POSITIVE)
}
