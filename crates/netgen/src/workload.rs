//! Live request-replay workload: Zipf CID sampling, diurnal rate curves
//! and flash crowds.
//!
//! The static request trace ([`crate::scenario::Request`]) materialises
//! every request up front; at millions of requests that vector dominates
//! scenario build time and memory. This module instead describes the
//! workload *generatively*: a [`WorkloadSpec`] holds the popularity model,
//! the per-region time-of-day rate curves and an optional
//! [`FlashCrowdSpec`], and the driver (the webuser actor in `tcsb-core`)
//! samples requests tick by tick while the campaign runs.
//!
//! Determinism contract: everything here is integer arithmetic over
//! canonically ordered inputs. [`ZipfSampler`] sorts items by
//! (weight desc, id asc) before building its cumulative table, so the
//! popularity ranking — and therefore every sample for a given random
//! draw — is invariant under permutation of the input item order (a
//! proptest asserts this). [`RateStream`] emits exact per-tick counts via
//! a largest-remainder split, so the total over the window equals
//! `total_requests` exactly, independent of tick size rounding.

use simnet::{Dur, SimTime};

/// Latency regions used by the rate curves (mirrors
/// [`crate::scenario::region_of`]: 0 = Americas, 1 = Europe, 2 = Asia,
/// 3 = Brazil/other).
pub const N_REGIONS: usize = 4;

/// A 24-hour request-rate profile in region-local time.
///
/// `hourly[h]` is the relative weight of local hour `h`; the absolute rate
/// comes from scaling the region's request total over the replay window.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RateCurve {
    /// Relative weight per local hour (unitless; all-zero is invalid).
    pub hourly: [u16; 24],
    /// Offset added to the UTC hour to get local time.
    pub utc_offset_hours: i8,
}

impl RateCurve {
    /// Constant rate around the clock.
    pub fn flat() -> RateCurve {
        RateCurve {
            hourly: [10; 24],
            utc_offset_hours: 0,
        }
    }

    /// Evening-peaked diurnal profile (Costa et al. observe regional
    /// diurnal cycles with an evening maximum and a night-time trough).
    pub fn diurnal(utc_offset_hours: i8) -> RateCurve {
        RateCurve {
            hourly: [
                4, 3, 2, 2, 2, 3, // 00–05 local: trough
                5, 8, 11, 13, 14, 15, // 06–11: morning ramp
                15, 14, 14, 15, 16, 18, // 12–17: afternoon plateau
                20, 22, 21, 16, 10, 6, // 18–23: evening peak, wind-down
            ],
            utc_offset_hours,
        }
    }

    /// The curve weight in effect at virtual time `t` (UTC).
    pub fn weight_at(&self, t: SimTime) -> u64 {
        let hour_utc = (t.0 / Dur::from_hours(1).0) % 24;
        let local = (hour_utc as i64 + self.utc_offset_hours as i64).rem_euclid(24) as usize;
        self.hourly[local] as u64
    }
}

/// One CID's popularity spikes during a window — the flash-crowd
/// primitive. The spiking item is named by popularity *rank* (0 = the
/// hottest item in the sampler's canonical order), so the same spec means
/// the same CID for any permutation of the content catalog.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FlashCrowdSpec {
    /// Popularity rank of the item that spikes.
    pub rank: usize,
    /// Weight multiplier applied to that item while the window is open
    /// (≥ 1; 1 means no popularity shift).
    pub boost: u32,
    /// Additional requests for the flash CID, spread uniformly over the
    /// window on top of `total_requests` (the demand surge).
    pub extra_requests: u64,
    /// Half-open window `[start, end)` in virtual time.
    pub window: (SimTime, SimTime),
}

impl FlashCrowdSpec {
    /// Whether the window is open at `t`.
    pub fn active_at(&self, t: SimTime) -> bool {
        t >= self.window.0 && t < self.window.1
    }
}

/// Generative description of a live request workload.
#[derive(Clone, Debug, PartialEq)]
pub struct WorkloadSpec {
    /// Baseline request total over the whole window (exact — the rate
    /// stream's largest-remainder split guarantees it).
    pub total_requests: u64,
    /// Share of requests entering through an HTTP gateway, in permille;
    /// the rest are direct fetches from participant nodes.
    pub http_share_permille: u16,
    /// Replay tick: the driver wakes once per tick and emits that tick's
    /// request batch (one timer event per tick, not per request).
    pub tick: Dur,
    /// Half-open replay window `[start, end)`.
    pub window: (SimTime, SimTime),
    /// Per-region share of the baseline total, in permille (sums to 1000).
    pub region_share_permille: [u16; N_REGIONS],
    /// Per-region diurnal rate curves.
    pub curves: [RateCurve; N_REGIONS],
    /// Optional flash crowd.
    pub flash: Option<FlashCrowdSpec>,
    /// Seed for the driver's per-region sampling streams.
    pub seed: u64,
}

impl WorkloadSpec {
    /// Default preset: paper-flavoured region mix (Americas/Europe/Asia/
    /// Brazil) with evening-peaked local curves and a 70% gateway share.
    pub fn preset(total_requests: u64, window: (SimTime, SimTime), seed: u64) -> WorkloadSpec {
        WorkloadSpec {
            total_requests,
            http_share_permille: 700,
            tick: Dur::from_secs(60),
            window,
            region_share_permille: [330, 380, 210, 80],
            curves: [
                RateCurve::diurnal(-6),
                RateCurve::diurnal(1),
                RateCurve::diurnal(8),
                RateCurve::diurnal(-3),
            ],
            flash: None,
            seed,
        }
    }

    /// Number of whole ticks in the window.
    pub fn n_ticks(&self) -> u64 {
        debug_assert!(self.tick.0 > 0, "tick must be positive");
        (self.window.1 .0.saturating_sub(self.window.0 .0)) / self.tick.0
    }

    /// Virtual time of tick `k`.
    pub fn tick_at(&self, k: u64) -> SimTime {
        SimTime(self.window.0 .0 + k * self.tick.0)
    }
}

/// Requests to emit at one tick.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TickEmission {
    /// Baseline requests per region.
    pub per_region: [u64; N_REGIONS],
    /// Flash-crowd surge requests (all for the flash CID).
    pub flash_extra: u64,
}

impl TickEmission {
    /// Total requests this tick.
    pub fn total(&self) -> u64 {
        self.per_region.iter().sum::<u64>() + self.flash_extra
    }
}

/// Stateful per-tick emission stream: exact largest-remainder split of the
/// spec's totals over the window. Advancing tick by tick from the start
/// always yields the same sequence; the driver embeds one of these and
/// calls [`RateStream::emit`] from its tick handler.
#[derive(Clone, Debug)]
pub struct RateStream {
    /// Per-region request totals (largest-remainder split of
    /// `total_requests` by `region_share_permille`).
    region_totals: [u64; N_REGIONS],
    /// Per-region curve mass over the whole window.
    total_mass: [u64; N_REGIONS],
    /// Per-region curve mass consumed so far.
    cum_mass: [u64; N_REGIONS],
    /// Per-region requests emitted so far.
    emitted: [u64; N_REGIONS],
    /// Flash surge requests emitted so far.
    flash_emitted: u64,
    /// Next tick index.
    next_tick: u64,
}

impl RateStream {
    /// Build the stream for `spec` (computes the window's curve masses —
    /// O(ticks), integer-only).
    pub fn new(spec: &WorkloadSpec) -> RateStream {
        let share_sum: u64 = spec.region_share_permille.iter().map(|s| *s as u64).sum();
        assert!(share_sum > 0, "region shares must not all be zero");
        // Largest-remainder split of the total across regions.
        let mut region_totals = [0u64; N_REGIONS];
        let mut acc = 0u64;
        let mut cum_share = 0u64;
        for r in 0..N_REGIONS {
            cum_share += spec.region_share_permille[r] as u64;
            let through = spec.total_requests * cum_share / share_sum;
            region_totals[r] = through - acc;
            acc = through;
        }
        let mut total_mass = [0u64; N_REGIONS];
        for k in 0..spec.n_ticks() {
            let t = spec.tick_at(k);
            for r in 0..N_REGIONS {
                total_mass[r] += spec.curves[r].weight_at(t);
            }
        }
        RateStream {
            region_totals,
            total_mass,
            cum_mass: [0; N_REGIONS],
            emitted: [0; N_REGIONS],
            flash_emitted: 0,
            next_tick: 0,
        }
    }

    /// Per-region totals the stream will emit over the whole window.
    pub fn region_totals(&self) -> [u64; N_REGIONS] {
        self.region_totals
    }

    /// Emit the next tick's request counts, or `None` past the window end.
    pub fn emit(&mut self, spec: &WorkloadSpec) -> Option<(SimTime, TickEmission)> {
        let k = self.next_tick;
        if k >= spec.n_ticks() {
            return None;
        }
        self.next_tick += 1;
        let t = spec.tick_at(k);
        let mut out = TickEmission::default();
        for r in 0..N_REGIONS {
            self.cum_mass[r] += spec.curves[r].weight_at(t);
            let target = if self.total_mass[r] == 0 {
                0
            } else {
                // Widen to u128: totals × masses can overflow u64 at
                // internet scale.
                (self.region_totals[r] as u128 * self.cum_mass[r] as u128
                    / self.total_mass[r] as u128) as u64
            };
            out.per_region[r] = target - self.emitted[r];
            self.emitted[r] = target;
        }
        if let Some(flash) = &spec.flash {
            let window_ticks = (flash.window.1 .0.saturating_sub(flash.window.0 .0))
                .div_ceil(spec.tick.0)
                .max(1);
            if flash.active_at(t) {
                let elapsed = ((t.0 - flash.window.0 .0) / spec.tick.0 + 1).min(window_ticks);
                let target = flash.extra_requests * elapsed / window_ticks;
                out.flash_extra = target - self.flash_emitted;
                self.flash_emitted = target;
            }
        }
        Some((t, out))
    }
}

/// Deterministic weighted CID sampler over the content catalog's Zipf
/// weights (the fig 9/15 Pareto fits: item `c` carries weight
/// `(c+1)^-0.6` in [`crate::build()`]).
///
/// Items are canonically ordered by (weight desc, id asc) at construction,
/// so two samplers built from any permutations of the same `(id, weight)`
/// set are *identical* — same ranking, same cumulative table, same sample
/// for every draw. Weights are scaled to integers once; sampling is a
/// single `partition_point` over the cumulative table.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ZipfSampler {
    /// Item ids in popularity-rank order.
    ids: Vec<u32>,
    /// Integer weights aligned with `ids`.
    weights: Vec<u64>,
    /// Cumulative weights aligned with `ids` (`cum[i]` = weights through
    /// rank `i` inclusive).
    cum: Vec<u64>,
}

/// Fixed-point scale for item weights.
const WEIGHT_SCALE: f64 = 1_000_000.0;

impl ZipfSampler {
    /// Build from `(id, weight)` pairs. Ids must be unique; weights must
    /// be finite and non-negative (zero-weight items are kept with the
    /// minimal integer weight so every id stays sampleable).
    pub fn new(items: &[(u32, f64)]) -> ZipfSampler {
        let mut scaled: Vec<(u32, u64)> = items
            .iter()
            .map(|(id, w)| {
                assert!(w.is_finite() && *w >= 0.0, "item weight must be finite");
                (*id, ((w * WEIGHT_SCALE).round() as u64).max(1))
            })
            .collect();
        scaled.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        let ids: Vec<u32> = scaled.iter().map(|(id, _)| *id).collect();
        let weights: Vec<u64> = scaled.iter().map(|(_, w)| *w).collect();
        let mut acc = 0u64;
        let cum = weights
            .iter()
            .map(|w| {
                acc += w;
                acc
            })
            .collect();
        ZipfSampler { ids, weights, cum }
    }

    /// Number of items.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the sampler is empty.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Item id at popularity rank `rank` (0 = hottest).
    pub fn item_at_rank(&self, rank: usize) -> u32 {
        self.ids[rank]
    }

    /// Popularity-rank order of all ids (most popular first).
    pub fn ranking(&self) -> &[u32] {
        &self.ids
    }

    /// Total integer weight without any flash boost.
    pub fn base_range(&self) -> u64 {
        *self.cum.last().unwrap_or(&0)
    }

    /// Draw range for `random_range(0..range)` given an optionally active
    /// flash boost `(rank, boost)`: the boosted item's extra weight
    /// extends the range past the base table.
    pub fn range(&self, flash: Option<(usize, u32)>) -> u64 {
        let base = self.base_range();
        match flash {
            Some((rank, boost)) if rank < self.len() && boost > 1 => {
                base + self.weights[rank] * (boost as u64 - 1)
            }
            _ => base,
        }
    }

    /// Map a draw `x ∈ [0, range(flash))` to an item id. Draws past the
    /// base table land on the flash item.
    pub fn sample(&self, x: u64, flash: Option<(usize, u32)>) -> u32 {
        debug_assert!(!self.is_empty(), "sampling from an empty sampler");
        let base = self.base_range();
        if x >= base {
            let (rank, _) = flash.expect("draw past base range without a flash boost");
            return self.ids[rank];
        }
        let pos = self.cum.partition_point(|w| *w <= x);
        self.ids[pos.min(self.ids.len() - 1)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec_1day(total: u64) -> WorkloadSpec {
        WorkloadSpec::preset(
            total,
            (SimTime::ZERO, SimTime::ZERO + Dur::from_hours(24)),
            7,
        )
    }

    #[test]
    fn rate_stream_totals_are_exact() {
        for total in [0u64, 1, 17, 999, 100_000] {
            let spec = spec_1day(total);
            let mut stream = RateStream::new(&spec);
            let mut emitted = 0u64;
            while let Some((_, e)) = stream.emit(&spec) {
                emitted += e.total();
            }
            assert_eq!(emitted, total, "total {total} must replay exactly");
        }
    }

    #[test]
    fn rate_stream_region_split_matches_shares() {
        let spec = spec_1day(1_000_000);
        let stream = RateStream::new(&spec);
        let totals = stream.region_totals();
        assert_eq!(totals.iter().sum::<u64>(), 1_000_000);
        for r in 0..N_REGIONS {
            let want = 1_000_000u64 * spec.region_share_permille[r] as u64 / 1000;
            assert!(
                totals[r].abs_diff(want) <= 1,
                "region {r}: {} vs {want}",
                totals[r]
            );
        }
    }

    #[test]
    fn rate_stream_follows_diurnal_shape() {
        let spec = spec_1day(240_000);
        let mut stream = RateStream::new(&spec);
        // Europe (region 1, UTC+1): local 03:00 = 02:00 UTC (trough),
        // local 19:00 = 18:00 UTC (peak).
        let mut at_trough = 0u64;
        let mut at_peak = 0u64;
        while let Some((t, e)) = stream.emit(&spec) {
            let hour = t.0 / Dur::from_hours(1).0;
            if hour == 2 {
                at_trough += e.per_region[1];
            }
            if hour == 18 {
                at_peak += e.per_region[1];
            }
        }
        assert!(
            at_peak > at_trough * 5,
            "evening peak ({at_peak}) must dominate the night trough ({at_trough})"
        );
    }

    #[test]
    fn flash_extra_lands_inside_window_and_is_exact() {
        let mut spec = spec_1day(10_000);
        let window = (
            SimTime::ZERO + Dur::from_hours(10),
            SimTime::ZERO + Dur::from_hours(12),
        );
        spec.flash = Some(FlashCrowdSpec {
            rank: 0,
            boost: 50,
            extra_requests: 33_333,
            window,
        });
        let mut stream = RateStream::new(&spec);
        let mut flash_total = 0u64;
        while let Some((t, e)) = stream.emit(&spec) {
            if e.flash_extra > 0 {
                assert!(
                    t >= window.0 && t < window.1,
                    "surge outside window at {t:?}"
                );
            }
            flash_total += e.flash_extra;
        }
        assert_eq!(flash_total, 33_333);
    }

    #[test]
    fn zipf_sampler_is_permutation_invariant() {
        let items: Vec<(u32, f64)> = (0..500u32)
            .map(|c| (c, 1.0 / ((c + 1) as f64).powf(0.6)))
            .collect();
        let mut shuffled = items.clone();
        shuffled.reverse();
        shuffled.swap(3, 250);
        let a = ZipfSampler::new(&items);
        let b = ZipfSampler::new(&shuffled);
        assert_eq!(a, b, "canonical order must erase input permutation");
        assert_eq!(a.item_at_rank(0), 0, "heaviest item ranks first");
    }

    #[test]
    fn zipf_ties_break_by_id() {
        let s = ZipfSampler::new(&[(9, 1.0), (2, 1.0), (5, 2.0)]);
        assert_eq!(s.ranking(), &[5, 2, 9]);
    }

    #[test]
    fn flash_boost_extends_range_onto_flash_item() {
        let s = ZipfSampler::new(&[(0, 3.0), (1, 2.0), (2, 1.0)]);
        let base = s.base_range();
        let flash = Some((2usize, 10u32));
        // Rank 2 weight = 1.0 → 1e6; boost 10 adds 9e6.
        assert_eq!(s.range(flash), base + 9_000_000);
        assert_eq!(s.sample(base, flash), 2);
        assert_eq!(s.sample(s.range(flash) - 1, flash), 2);
        // Draws inside the base table are unchanged by the boost.
        assert_eq!(s.sample(0, flash), s.sample(0, None));
    }

    #[test]
    fn sample_covers_all_items_proportionally() {
        let s = ZipfSampler::new(&[(0, 2.0), (1, 1.0)]);
        let range = s.range(None);
        let hits0 = (0..range).filter(|x| s.sample(*x, None) == 0).count() as u64;
        assert_eq!(hits0, 2_000_000);
        assert_eq!(range - hits0, 1_000_000);
    }

    mod prop {
        use super::*;
        use proptest::prelude::*;
        use rand::rngs::StdRng;
        use rand::seq::SliceRandom;
        use rand::SeedableRng;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]
            // Each region may hand the catalog to the sampler in its own
            // order; the popularity ranking — and every sample — must not
            // depend on that order.
            #[test]
            fn ranking_permutation_invariant_across_regions(
                weights in collection::vec(0.0f64..10.0, 1..200),
                perm_seed in any::<u64>(),
                draws in collection::vec(any::<u64>(), 16),
            ) {
                let items: Vec<(u32, f64)> = weights
                    .iter()
                    .enumerate()
                    .map(|(i, w)| (i as u32, *w))
                    .collect();
                let reference = ZipfSampler::new(&items);
                let range = reference.range(None);
                for region in 0..N_REGIONS as u64 {
                    let mut perm = items.clone();
                    let mut rng = StdRng::seed_from_u64(perm_seed ^ region);
                    perm.shuffle(&mut rng);
                    let s = ZipfSampler::new(&perm);
                    prop_assert_eq!(s.ranking(), reference.ranking());
                    for d in &draws {
                        let x = d % range;
                        prop_assert_eq!(s.sample(x, None), reference.sample(x, None));
                    }
                }
            }
        }
    }
}
