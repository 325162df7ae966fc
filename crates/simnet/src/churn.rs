//! Churn models: heavy-tailed online/offline session sampling.
//!
//! Measurement studies of IPFS churn (\[13\] in the paper) find session
//! lengths to be heavy-tailed: most fringe nodes stay minutes-to-hours,
//! a stable core stays up for weeks. We model per-segment session and
//! absence durations as log-normal variables, sampled with a hand-rolled
//! Box–Muller transform (the offline crate set has no `rand_distr`).

use crate::time::Dur;
use rand::{Rng, RngExt};

/// Standard-normal sampling via Box–Muller.
pub fn sample_standard_normal(rng: &mut impl Rng) -> f64 {
    // Uniform in (0, 1]: avoid ln(0).
    let u1: f64 = 1.0 - rng.random::<f64>();
    let u2: f64 = rng.random::<f64>();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// A log-normal distribution parameterized by the underlying normal's
/// mean (`mu`) and standard deviation (`sigma`).
#[derive(Clone, Copy, Debug)]
pub struct LogNormal {
    /// Mean of ln(X).
    pub mu: f64,
    /// Std-dev of ln(X).
    pub sigma: f64,
}

impl LogNormal {
    /// Construct from the distribution's *median* (e^mu) and sigma — medians
    /// are the intuitive calibration knob for session lengths.
    pub fn from_median(median: f64, sigma: f64) -> LogNormal {
        assert!(median > 0.0, "median must be positive");
        LogNormal {
            mu: median.ln(),
            sigma,
        }
    }

    /// Draw a sample.
    pub fn sample(&self, rng: &mut impl Rng) -> f64 {
        (self.mu + self.sigma * sample_standard_normal(rng)).exp()
    }

    /// The distribution mean: exp(mu + sigma²/2).
    pub fn mean(&self) -> f64 {
        (self.mu + self.sigma * self.sigma / 2.0).exp()
    }
}

/// Alternating online/offline behaviour for one population segment.
#[derive(Clone, Copy, Debug)]
pub struct ChurnModel {
    /// Online session length (seconds).
    pub online: LogNormal,
    /// Offline gap length (seconds).
    pub offline: LogNormal,
    /// Probability of rotating to a fresh IP on re-join.
    pub ip_rotation: f64,
    /// Probability of regenerating the peer ID on re-join (the paper
    /// observes many single-interaction peer IDs).
    pub new_identity: f64,
}

impl ChurnModel {
    /// An (almost) always-on profile, as exhibited by cloud-hosted nodes:
    /// week-scale sessions, minute-scale gaps, no rotation.
    pub fn stable() -> ChurnModel {
        ChurnModel {
            online: LogNormal::from_median(14.0 * 86_400.0, 0.7),
            offline: LogNormal::from_median(300.0, 0.5),
            ip_rotation: 0.02,
            new_identity: 0.0,
        }
    }

    /// A fringe / residential profile: hour-scale sessions, long gaps,
    /// frequent DHCP-style IP rotation.
    pub fn fringe() -> ChurnModel {
        ChurnModel {
            online: LogNormal::from_median(2.0 * 3_600.0, 1.2),
            offline: LogNormal::from_median(10.0 * 3_600.0, 1.2),
            ip_rotation: 0.8,
            new_identity: 0.3,
        }
    }

    /// Sample an online session duration, clamped to `[min, max]`.
    pub fn sample_online(&self, rng: &mut impl Rng, min: Dur, max: Dur) -> Dur {
        let s = self.online.sample(rng);
        Dur::from_secs_f64(s).clamp(min, max)
    }

    /// Sample an offline gap duration, clamped to `[min, max]`.
    pub fn sample_offline(&self, rng: &mut impl Rng, min: Dur, max: Dur) -> Dur {
        let s = self.offline.sample(rng);
        Dur::from_secs_f64(s).clamp(min, max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn standard_normal_moments() {
        let mut rng = StdRng::seed_from_u64(1);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| sample_standard_normal(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.03, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn lognormal_median_calibration() {
        let d = LogNormal::from_median(3600.0, 1.0);
        let mut rng = StdRng::seed_from_u64(2);
        let n = 20_001;
        let mut samples: Vec<f64> = (0..n).map(|_| d.sample(&mut rng)).collect();
        samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = samples[n / 2];
        assert!((median / 3600.0 - 1.0).abs() < 0.1, "median {median}");
        // Heavy tail: mean well above median.
        let mean = samples.iter().sum::<f64>() / n as f64;
        assert!(mean > median * 1.3);
    }

    #[test]
    fn churn_sampling_respects_clamp() {
        let m = ChurnModel::fringe();
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..1000 {
            let d = m.sample_online(&mut rng, Dur::from_secs(60), Dur::from_hours(48));
            assert!(d >= Dur::from_secs(60) && d <= Dur::from_hours(48));
        }
    }

    #[test]
    fn stable_sessions_longer_than_fringe() {
        let mut rng = StdRng::seed_from_u64(4);
        let stable: f64 = (0..500)
            .map(|_| ChurnModel::stable().online.sample(&mut rng))
            .sum::<f64>()
            / 500.0;
        let fringe: f64 = (0..500)
            .map(|_| ChurnModel::fringe().online.sample(&mut rng))
            .sum::<f64>()
            / 500.0;
        assert!(stable > fringe * 10.0, "stable {stable} fringe {fringe}");
    }
}
