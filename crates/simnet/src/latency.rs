//! Inter-region latency model.
//!
//! Nodes are placed in coarse geographic regions; message latency is a
//! region-pair base RTT/2 plus multiplicative jitter. Precise RTTs are
//! irrelevant to the paper's analyses (shares and distributions), but the
//! *ordering* matters: crawl durations, lookup timeouts, and the "second half
//! of the crawl is spent waiting on unresponsive peers" effect all come from
//! this model plus the dial timeout.

use crate::time::Dur;
use rand::{Rng, RngExt};

/// Coarse region identifier (index into the latency matrix).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RegionId(pub u16);

/// Region-pair latency matrix with jitter.
#[derive(Clone, Debug)]
pub struct LatencyModel {
    /// `base[i][j]` = one-way latency between regions i and j.
    base: Vec<Vec<Dur>>,
    /// Multiplicative jitter amplitude, e.g. 0.2 ⇒ ±20%.
    jitter: f64,
}

impl LatencyModel {
    /// A single-region model with constant base latency.
    pub fn uniform(base: Dur, jitter: f64) -> LatencyModel {
        LatencyModel {
            base: vec![vec![base]],
            jitter,
        }
    }

    /// A synthetic continental model: `n` regions, `intra` latency inside a
    /// region, `inter` between distinct regions.
    pub fn continents(n: usize, intra: Dur, inter: Dur, jitter: f64) -> LatencyModel {
        let base = (0..n)
            .map(|i| (0..n).map(|j| if i == j { intra } else { inter }).collect())
            .collect();
        LatencyModel { base, jitter }
    }

    /// Number of regions.
    pub fn regions(&self) -> usize {
        self.base.len()
    }

    /// The jitter amplitude.
    pub fn jitter(&self) -> f64 {
        self.jitter
    }

    /// Row-major copy of the base matrix plus its dimension — the engine
    /// caches this flat form so the per-send lookup is one indexed load.
    pub fn to_flat(&self) -> (Vec<Dur>, usize) {
        let n = self.base.len();
        let mut flat = Vec::with_capacity(n * n);
        for row in &self.base {
            flat.extend_from_slice(row);
        }
        (flat, n)
    }

    /// Sample a one-way latency between two regions.
    pub fn sample(&self, rng: &mut impl Rng, a: RegionId, b: RegionId) -> Dur {
        let i = (a.0 as usize).min(self.base.len() - 1);
        let j = (b.0 as usize).min(self.base.len() - 1);
        apply_jitter(self.base[i][j], self.jitter, rng)
    }
}

/// Apply multiplicative jitter to a base latency — the single definition of
/// the jitter formula, shared by [`LatencyModel::sample`] and the engine's
/// flattened fast path in `SimCore`.
pub fn apply_jitter(base: Dur, jitter: f64, rng: &mut impl Rng) -> Dur {
    if jitter <= 0.0 {
        return base;
    }
    let factor = 1.0 + rng.random_range(-jitter..jitter);
    base * factor
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn uniform_no_jitter_is_constant() {
        let m = LatencyModel::uniform(Dur::from_millis(50), 0.0);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..10 {
            assert_eq!(
                m.sample(&mut rng, RegionId(0), RegionId(0)),
                Dur::from_millis(50)
            );
        }
    }

    #[test]
    fn jitter_stays_in_band() {
        let m = LatencyModel::uniform(Dur::from_millis(100), 0.25);
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..1000 {
            let d = m.sample(&mut rng, RegionId(0), RegionId(0));
            assert!(
                d >= Dur::from_millis(75) && d <= Dur::from_millis(125),
                "{d:?}"
            );
        }
    }

    #[test]
    fn continents_shape() {
        let m = LatencyModel::continents(3, Dur::from_millis(10), Dur::from_millis(120), 0.0);
        let mut rng = StdRng::seed_from_u64(3);
        assert_eq!(
            m.sample(&mut rng, RegionId(1), RegionId(1)),
            Dur::from_millis(10)
        );
        assert_eq!(
            m.sample(&mut rng, RegionId(0), RegionId(2)),
            Dur::from_millis(120)
        );
        assert_eq!(m.regions(), 3);
    }

    #[test]
    fn out_of_range_region_clamps() {
        let m = LatencyModel::uniform(Dur::from_millis(40), 0.0);
        let mut rng = StdRng::seed_from_u64(4);
        assert_eq!(
            m.sample(&mut rng, RegionId(9), RegionId(7)),
            Dur::from_millis(40)
        );
    }
}
