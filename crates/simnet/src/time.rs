//! Virtual time for the discrete-event simulator.
//!
//! The paper's campaign spans nine wall-clock months; we compress that into
//! virtual time measured in nanoseconds since simulation start. All protocol
//! timeouts and churn schedules are expressed in [`Dur`] and compared on
//! [`SimTime`] — no wall clock anywhere.

use std::ops::{Add, AddAssign, Mul, Sub};

/// A point in virtual time (nanoseconds since simulation start).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct SimTime(pub u64);

/// A span of virtual time (nanoseconds).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Dur(pub u64);

impl SimTime {
    /// Simulation start.
    pub const ZERO: SimTime = SimTime(0);

    /// Whole seconds since start.
    pub fn as_secs(self) -> u64 {
        self.0 / 1_000_000_000
    }

    /// Fractional seconds since start.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Whole virtual days since start (the unit of the paper's "days seen"
    /// frequency analyses).
    pub fn day(self) -> u64 {
        self.0 / Dur::DAY.0
    }

    /// Saturating difference.
    pub fn since(self, earlier: SimTime) -> Dur {
        Dur(self.0.saturating_sub(earlier.0))
    }
}

impl Dur {
    /// Zero-length span.
    pub const ZERO: Dur = Dur(0);
    /// One millisecond.
    pub const MILLI: Dur = Dur(1_000_000);
    /// One second.
    pub const SECOND: Dur = Dur(1_000_000_000);
    /// One minute.
    pub const MINUTE: Dur = Dur(60 * Dur::SECOND.0);
    /// One hour.
    pub const HOUR: Dur = Dur(60 * Dur::MINUTE.0);
    /// One virtual day.
    pub const DAY: Dur = Dur(24 * Dur::HOUR.0);

    /// From milliseconds.
    pub const fn from_millis(ms: u64) -> Dur {
        Dur(ms * 1_000_000)
    }

    /// From seconds.
    pub const fn from_secs(s: u64) -> Dur {
        Dur(s * 1_000_000_000)
    }

    /// From minutes.
    pub const fn from_mins(m: u64) -> Dur {
        Dur(m * 60 * 1_000_000_000)
    }

    /// From hours.
    pub const fn from_hours(h: u64) -> Dur {
        Dur(h * 3_600 * 1_000_000_000)
    }

    /// From fractional seconds (clamped at zero).
    pub fn from_secs_f64(s: f64) -> Dur {
        Dur((s.max(0.0) * 1e9) as u64)
    }

    /// As fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// As fractional milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }
}

impl Add<Dur> for SimTime {
    type Output = SimTime;
    fn add(self, d: Dur) -> SimTime {
        SimTime(self.0.saturating_add(d.0))
    }
}

impl AddAssign<Dur> for SimTime {
    fn add_assign(&mut self, d: Dur) {
        *self = *self + d;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = Dur;
    fn sub(self, rhs: SimTime) -> Dur {
        self.since(rhs)
    }
}

impl Add for Dur {
    type Output = Dur;
    fn add(self, rhs: Dur) -> Dur {
        Dur(self.0.saturating_add(rhs.0))
    }
}

impl Mul<u64> for Dur {
    type Output = Dur;
    fn mul(self, k: u64) -> Dur {
        Dur(self.0.saturating_mul(k))
    }
}

impl Mul<f64> for Dur {
    type Output = Dur;
    fn mul(self, k: f64) -> Dur {
        Dur((self.0 as f64 * k.max(0.0)) as u64)
    }
}

impl std::fmt::Debug for SimTime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.as_secs();
        write!(
            f,
            "T+{:02}d{:02}:{:02}:{:02}",
            s / 86400,
            (s / 3600) % 24,
            (s / 60) % 60,
            s % 60
        )
    }
}

impl std::fmt::Debug for Dur {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.0 >= Dur::SECOND.0 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else {
            write!(f, "{:.3}ms", self.as_millis_f64())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic() {
        let t = SimTime::ZERO + Dur::from_secs(90);
        assert_eq!(t.as_secs(), 90);
        assert_eq!(t - SimTime::ZERO, Dur::from_secs(90));
        assert_eq!(Dur::from_mins(2) + Dur::from_secs(30), Dur::from_secs(150));
        assert_eq!(Dur::from_secs(2) * 3, Dur::from_secs(6));
    }

    #[test]
    fn day_boundaries() {
        assert_eq!((SimTime::ZERO + Dur::from_hours(23)).day(), 0);
        assert_eq!((SimTime::ZERO + Dur::from_hours(24)).day(), 1);
        assert_eq!((SimTime::ZERO + Dur::from_hours(49)).day(), 2);
    }

    #[test]
    fn float_conversions() {
        assert_eq!(Dur::from_secs_f64(1.5).0, 1_500_000_000);
        assert_eq!(Dur::from_secs_f64(-2.0), Dur::ZERO);
        assert!((Dur::from_millis(250).as_secs_f64() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn saturation() {
        let t = SimTime(u64::MAX) + Dur::from_secs(1);
        assert_eq!(t.0, u64::MAX);
        assert_eq!(SimTime::ZERO.since(SimTime(5)), Dur::ZERO);
    }
}
