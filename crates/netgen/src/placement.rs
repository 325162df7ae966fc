//! Deterministic load-balanced node→shard placement.
//!
//! Keeping every region whole (`region % shards`) maximizes the
//! cross-shard latency floor but parks every heavyweight actor — the
//! monitor, the crawler, the gateway frontends, and the most populous
//! region — on the same few shards: at 4 shards the measured max-to-min
//! per-shard dispatched-event ratio was ~10×.
//!
//! [`balanced`] is a two-phase weighted partition instead. Phase 1
//! packs *whole regions* onto shards, heaviest region first onto the
//! currently lightest shard (LPT bin packing) — whole regions are free:
//! they add no intra-region shard pair, so every pair keeps the wide
//! inter-region latency floor that the engine's per-pair lookahead
//! matrix (`Sim::lookahead_matrix`) turns into wide epoch horizons.
//! Phase 2 splits only while the predicted max/min shard ratio exceeds
//! the balance goal: the heaviest shard sheds a stratified sample of its
//! heaviest region onto the lightest shard. Each split is the *minimum
//! price in lookahead* for the balance it buys — one new shard pair at
//! the intra-region floor — and the loop stops the moment the predicted
//! ratio clears the goal, so a hot region costs one fast pair instead of
//! a chain of them. Splitting is how the hottest region stops pinning
//! one shard at 10× the load of another.
//!
//! Split halves are *stratified*, not contiguous: the moved set is a
//! proportional sample across the region's weight-sorted items, so both
//! halves have the same class mix and any systematic per-class error in
//! the weight model cancels between them instead of landing on one
//! shard.
//!
//! Weights are *predictions* — placement only affects which thread owns a
//! node, never the simulation's results (the engine's determinism
//! contract makes every placement byte-identical), so a bad prediction
//! costs balance, not correctness. The per-shard `ShardLoad` dispatched
//! counters are the measured objective these predictions are calibrated
//! against.

use crate::scenario::{NodeSpec, Platform, Segment};

/// One node to place: its latency region and predicted event weight.
#[derive(Clone, Copy, Debug)]
pub struct PlacementItem {
    /// Latency region (placement keeps region-major order).
    pub region: u16,
    /// Predicted share of dispatched events (unitless; 0 is treated as 1).
    pub weight: u64,
}

/// A computed node→shard assignment.
#[derive(Clone, Debug)]
pub struct Placement {
    /// Shard per item, aligned with the input slice.
    pub shard_of: Vec<u16>,
    /// Predicted weight per shard (the partition objective).
    pub predicted: Vec<u64>,
    /// Number of regions split across a shard boundary.
    pub splits: usize,
}

impl Placement {
    /// Predicted max-to-min shard weight ratio ×100 (min clamped to 1).
    pub fn predicted_ratio_x100(&self) -> u64 {
        let max = self.predicted.iter().copied().max().unwrap_or(0);
        let min = self.predicted.iter().copied().min().unwrap_or(0).max(1);
        max * 100 / min
    }

    fn count_splits(items: &[PlacementItem], shard_of: &[u16]) -> usize {
        let mut per_region: std::collections::BTreeMap<u16, (u16, bool)> =
            std::collections::BTreeMap::new();
        for (i, item) in items.iter().enumerate() {
            per_region
                .entry(item.region)
                .and_modify(|(s, split)| *split |= *s != shard_of[i])
                .or_insert((shard_of[i], false));
        }
        per_region.values().filter(|(_, split)| *split).count()
    }
}

/// Balance goal for the split loop, as predicted max/min shard weight
/// ×100: phase 2 stops splitting once the predicted ratio is strictly
/// below this. 150 matches the measured acceptance line — every split a
/// region avoids keeps two shards off the narrow intra-region lookahead
/// floor, which would multiply the epoch count, so the loop buys exactly
/// as much balance as the goal demands and no more.
const GOAL_RATIO_X100: u64 = 150;

/// Two-phase weighted partition: LPT whole-region packing, then
/// minimum-split rebalancing. Deterministic (integer arithmetic only,
/// stable sorts with explicit tie-breaks, no ambient state).
///
/// Phase 1 assigns whole regions to shards, heaviest region first onto
/// the lightest shard so far. Phase 2 repeatedly moves a stratified
/// portion of the heaviest shard's heaviest region part onto the
/// lightest shard — splitting that region — until the predicted max/min
/// ratio is under [`GOAL_RATIO_X100`] or no move can help. At stress
/// scale this places three of four regions whole and splits only the
/// hottest one, between exactly two shards: one intra-region shard pair
/// instead of the chain a contiguous cut produces.
pub fn balanced(items: &[PlacementItem], shards: usize) -> Placement {
    let n = items.len();
    if shards <= 1 {
        // Nothing to partition: a single-shard campaign must not pay for
        // the region maps and sorts below.
        return Placement {
            shard_of: vec![0; n],
            predicted: vec![items.iter().map(|it| it.weight.max(1)).sum()],
            splits: 0,
        };
    }

    // Per-region item lists, stable in insertion order.
    let mut region_items: std::collections::BTreeMap<u16, Vec<usize>> =
        std::collections::BTreeMap::new();
    for (i, it) in items.iter().enumerate() {
        region_items.entry(it.region).or_default().push(i);
    }
    // A `part` is a set of same-region items currently assigned together.
    // Phase 1 makes one part per region; phase 2 splits parts.
    struct Part {
        items: Vec<usize>,
        weight: u64,
        shard: usize,
    }
    let mut parts: Vec<Part> = region_items
        .into_values()
        .map(|idx| {
            let weight = idx.iter().map(|&i| items[i].weight.max(1)).sum();
            Part {
                items: idx,
                weight,
                shard: 0,
            }
        })
        .collect();

    // Phase 1: LPT — heaviest region first onto the lightest shard
    // (ties: earlier part, lower shard index).
    let mut by_weight: Vec<usize> = (0..parts.len()).collect();
    by_weight.sort_by_key(|&p| std::cmp::Reverse(parts[p].weight));
    let mut load = vec![0u64; shards];
    for &p in &by_weight {
        let s = (0..shards).min_by_key(|&s| (load[s], s)).unwrap_or(0);
        parts[p].shard = s;
        load[s] += parts[p].weight;
    }

    // Phase 2: minimum-split rebalancing. Each pass moves weight from the
    // heaviest shard to the lightest; the moved set is a stratified
    // sample of the donor part (proportional across its weight-sorted
    // items), so both halves keep the same class mix.
    for _ in 0..2 * shards {
        let hi = (0..shards)
            .max_by_key(|&s| (load[s], std::cmp::Reverse(s)))
            .unwrap_or(0);
        let lo = (0..shards).min_by_key(|&s| (load[s], s)).unwrap_or(0);
        if load[hi] * 100 < GOAL_RATIO_X100 * load[lo].max(1) {
            break;
        }
        let need = (load[hi] - load[lo]) / 2;
        if need == 0 {
            break;
        }
        // Donor: the heaviest part on the heaviest shard.
        let Some(donor) = (0..parts.len())
            .filter(|&p| parts[p].shard == hi)
            .max_by_key(|&p| (parts[p].weight, std::cmp::Reverse(p)))
        else {
            break;
        };
        if parts[donor].weight <= need {
            // The whole part helps more than any split of it: move it
            // intact (keeps its region in one place — no new fast pair
            // if it was whole).
            load[hi] -= parts[donor].weight;
            load[lo] += parts[donor].weight;
            parts[donor].shard = lo;
            continue;
        }
        // Stratified split: walk items heaviest-first, keep the moved
        // share tracking `need / part.weight` throughout the walk so the
        // moved set samples every weight stratum proportionally.
        let mut sorted = parts[donor].items.clone();
        sorted.sort_by_key(|&i| (std::cmp::Reverse(items[i].weight.max(1)), i));
        let part_w = parts[donor].weight as u128;
        let mut moved: Vec<usize> = Vec::new();
        let mut kept: Vec<usize> = Vec::new();
        let (mut moved_w, mut seen_w) = (0u128, 0u128);
        for &i in &sorted {
            let w = items[i].weight.max(1) as u128;
            seen_w += w;
            // Move iff doing so keeps moved_w closest to the
            // proportional target `need × seen_w / part_w`.
            if (moved_w + w) * part_w <= (need as u128) * seen_w + part_w * w / 2 {
                moved_w += w;
                moved.push(i);
            } else {
                kept.push(i);
            }
        }
        if moved.is_empty() || kept.is_empty() {
            break;
        }
        load[hi] -= moved_w as u64;
        load[lo] += moved_w as u64;
        let kept_w = parts[donor].weight - moved_w as u64;
        parts[donor].items = kept;
        parts[donor].weight = kept_w;
        parts.push(Part {
            items: moved,
            weight: moved_w as u64,
            shard: lo,
        });
    }

    let mut shard_of = vec![0u16; n];
    for part in &parts {
        for &i in &part.items {
            shard_of[i] = part.shard as u16;
        }
    }
    let splits = Placement::count_splits(items, &shard_of);
    Placement {
        shard_of,
        predicted: load,
        splits,
    }
}

/// Predicted event weight of a scenario node: a per-class linear model
/// `per_hour × online_hours + per_session × sessions`, fitted per class
/// by least squares against measured per-node dispatched counts on the
/// stress preset (and cross-checked at tiny scale). The two terms carry
/// different physics: steady-state work (dial ticks, reprovides, serving
/// inbound traffic) scales with online time, while bootstrap work (DHT
/// joins, table fills, the dial storm on every arrival) scales with the
/// session count — Ephemeral nodes average under an hour online yet cost
/// ~170 events per session, which an hours-only model misses entirely.
pub fn node_weight(spec: &NodeSpec) -> u64 {
    let online_secs: u64 = spec
        .sessions
        .iter()
        .map(|s| s.down.0.saturating_sub(s.up.0) / 1_000_000_000)
        .sum();
    let online_hours = online_secs / 3600;
    let sessions = spec.sessions.len() as u64;
    let (per_hour, per_session) = match spec.platform {
        // 20 virtual DHT heads per host, but heads answer cheaply.
        Some(Platform::Hydra) => (18, 0),
        // Unbounded conns, 5-min connmgr, 64 dials/tick.
        Some(Platform::Filebase) => (35, 0),
        // Batch reproviders and bitswap-heavy gateway platforms measure
        // alike: steady ~26 events/hour.
        Some(
            Platform::Web3Storage | Platform::NftStorage | Platform::Pinata | Platform::Gateway,
        ) => (26, 0),
        Some(Platform::IpfsBank) => (27, 0),
        None => match spec.segment {
            Segment::CloudStable => (24, 0),
            Segment::PublicFringe => (27, 175),
            Segment::NatClient => (10, 110),
            Segment::Ephemeral => (3, 172),
            Segment::Platform => (24, 0),
        },
    };
    (online_hours * per_hour + sessions * per_session).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn items(spec: &[(u16, u64)]) -> Vec<PlacementItem> {
        spec.iter()
            .map(|&(region, weight)| PlacementItem { region, weight })
            .collect()
    }

    #[test]
    fn balanced_splits_only_when_needed() {
        // Four equal regions over four shards: no splits, perfect balance.
        let mut v = Vec::new();
        for r in 0..4u16 {
            for _ in 0..10 {
                v.push((r, 100u64));
            }
        }
        let p = balanced(&items(&v), 4);
        assert_eq!(p.splits, 0, "equal regions need no splits: {p:?}");
        assert!(p.predicted.iter().all(|&w| w == 1000), "{p:?}");
    }

    #[test]
    fn balanced_cuts_hot_region() {
        // One region carries ~everything; it must be split.
        let mut v = vec![(0u16, 1000u64); 30];
        v.extend([(1, 10), (2, 10), (3, 10)]);
        let p = balanced(&items(&v), 4);
        assert!(p.splits >= 1, "hot region must split: {p:?}");
        assert!(
            p.predicted_ratio_x100() < 150,
            "predicted ratio {} should beat 1.5×: {p:?}",
            p.predicted_ratio_x100()
        );
    }

    #[test]
    fn one_shard_is_the_trivial_assignment() {
        // Zero weights count as 1, like everywhere else in the partitioner.
        let v = [(0u16, 7u64), (3, 0), (1, 5)];
        for shards in [0, 1] {
            let p = balanced(&items(&v), shards);
            assert_eq!(p.shard_of, vec![0, 0, 0]);
            assert_eq!(p.predicted, vec![13]);
            assert_eq!(p.splits, 0);
        }
    }

    #[test]
    fn split_halves_share_class_mix() {
        // A split region's halves are stratified samples: their mean item
        // weights agree within a few percent, so systematic per-class
        // weight-model error cancels between them.
        let mut v = vec![(1u16, 5u64); 200];
        // One hot region with a wide weight spread (two "classes").
        for i in 0..400u64 {
            v.push((0, if i % 2 == 0 { 20 } else { 200 }));
        }
        let p = balanced(&items(&v), 2);
        let halves: Vec<(u64, u64)> = (0..2u16)
            .map(|s| {
                v.iter()
                    .zip(&p.shard_of)
                    .filter(|&((r, _), &sh)| *r == 0 && sh == s)
                    .fold((0, 0), |(w, n), ((_, iw), _)| (w + iw, n + 1))
            })
            .collect();
        for &(w, n) in &halves {
            assert!(n > 0, "both shards hold part of the hot region: {p:?}");
            let mean = w / n;
            assert!(
                (88..=132).contains(&mean),
                "half mean weight {mean} strays from the population mean 110: {p:?}"
            );
        }
    }

    #[test]
    fn splits_populate_surplus_shards() {
        // More shards than regions (the tiny --shards 7 case): phase 2
        // must split regions until no shard is empty.
        let v: Vec<(u16, u64)> = (0..140).map(|i| (i % 2, 10)).collect();
        let p = balanced(&items(&v), 7);
        assert!(
            p.predicted.iter().all(|&w| w > 0),
            "every shard gets load: {p:?}"
        );
        assert!(
            p.predicted_ratio_x100() < 150,
            "ratio {} under goal: {p:?}",
            p.predicted_ratio_x100()
        );
    }

    #[test]
    fn singleton_heavyweight_gets_own_cut() {
        // A monitor-like singleton outweighing everything should not drag
        // a full region with it.
        let mut v = vec![(0u16, 50u64); 20];
        v.push((0, 5000)); // the singleton
        v.extend(vec![(1, 50); 20]);
        let p = balanced(&items(&v), 3);
        let singleton_shard = p.shard_of[20];
        let alone = p.shard_of.iter().filter(|&&s| s == singleton_shard).count();
        assert!(alone <= 3, "singleton should sit nearly alone: {p:?}");
    }
}
