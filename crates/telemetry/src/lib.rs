//! Zero-perturbation telemetry for the simulation engine.
//!
//! Three instruments, all off by default and gated behind one global flag:
//!
//! * [`metrics`] — a lock-free-on-the-hot-path registry of counters and
//!   log-bucketed histograms keyed by static metric ids. Every recorded
//!   value is derived from *virtual* time or deterministic engine state, and
//!   every operation is commutative (atomic adds), so a snapshot taken after
//!   a campaign is identical regardless of thread interleaving or shard
//!   count.
//! * [`flight`] — the flight recorder: a bounded ring buffer of structured
//!   span events (campaign phase, intervention wave, crawl, lookup) with
//!   deterministic virtual timestamps, dumped as JSONL on demand or from a
//!   panic hook.
//! * [`profile`] — the per-shard epoch profiler: wall-time per epoch,
//!   barrier-wait time, mailbox volume and queue depth, exported as a
//!   Chrome trace-event file (load it in Perfetto or `chrome://tracing`).
//!
//! House rule (PR 5, extended here): observation must provably never
//! perturb the trace. Nothing in this crate feeds back into the engine —
//! the trace digest is byte-identical with telemetry on or off, at every
//! shard count, and the test suite asserts it.

#![forbid(unsafe_code)]

use std::sync::atomic::{AtomicBool, Ordering};

pub mod flight;
pub mod metrics;
pub mod profile;

pub use flight::{dump_jsonl, install_panic_hook, instant, span, SpanEvent};
pub use metrics::{count, gauge_max, observe, snapshot, Counter, Gauge, Hist, Metric, Snapshot};
pub use profile::{epoch_sample, export_chrome_trace, write_chrome_trace, EpochSample};

/// Master switch. All recording functions are no-ops while this is false;
/// the check is a single relaxed atomic load, cheap enough for hot paths.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Turn telemetry recording on or off globally.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether telemetry recording is currently enabled.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Clear all recorded state (metrics, flight recorder, profiler samples).
/// The enabled flag is left untouched. Call between campaigns so a
/// snapshot covers exactly one run.
pub fn reset() {
    metrics::reset();
    flight::reset();
    profile::reset();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enable_toggle_round_trips() {
        let _guard = crate::metrics::test_lock();
        set_enabled(true);
        assert!(enabled());
        set_enabled(false);
        assert!(!enabled());
    }
}
