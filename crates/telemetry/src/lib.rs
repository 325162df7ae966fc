//! Zero-perturbation telemetry for the simulation engine.
//!
//! Three instruments, all off by default and switched per thread: each
//! thread records into a [`Sink`] of its own, so concurrent campaigns never
//! see each other's recordings and nothing takes a lock.
//!
//! * [`metrics`] — a registry of counters, gauges and log-bucketed
//!   histograms keyed by static metric ids. Every recorded value is derived
//!   from *virtual* time or deterministic engine state, and every fold is
//!   commutative, so a snapshot is identical at every shard count: shard
//!   workers hand their sinks back ([`take`], [`absorb`]).
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

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicUsize, Ordering};

pub mod flight;
pub mod metrics;
pub mod profile;

pub use flight::{dump_jsonl, install_panic_hook, span, SpanEvent};
pub use metrics::{count, gauge_max, observe, snapshot, Counter, Gauge, Hist, Metric, Snapshot};
pub use profile::{epoch_sample, export_chrome_trace, write_chrome_trace, EpochSample};

/// How many threads record. While none does, the enabled check is this one
/// load and touches no thread-local storage. It publishes no data (a
/// thread reads only its own flag), hence `Relaxed`.
static RECORDING: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static ON: Cell<bool> = const { Cell::new(false) };
    static SINK: RefCell<Sink> = RefCell::default();
}

/// Everything one thread recorded: registry, flight ring, epoch samples.
#[derive(Debug, Default)]
pub struct Sink {
    metrics: metrics::Registry,
    flight: flight::Ring,
    profile: profile::Store,
}

/// Turn telemetry recording on or off for the calling thread.
pub fn set_enabled(on: bool) {
    match (ON.replace(on), on) {
        (false, true) => RECORDING.fetch_add(1, Ordering::Relaxed),
        (true, false) => RECORDING.fetch_sub(1, Ordering::Relaxed),
        _ => 0,
    };
}

/// Whether the calling thread records.
#[inline]
pub fn enabled() -> bool {
    RECORDING.load(Ordering::Relaxed) != 0 && ON.get()
}

/// Apply `f` to this thread's sink if this thread records. Only the count
/// check is inlined into the (engine's hot) call sites.
#[inline]
fn record(f: impl FnOnce(&mut Sink)) {
    if RECORDING.load(Ordering::Relaxed) != 0 {
        record_here(f);
    }
}

#[cold]
#[inline(never)]
fn record_here(f: impl FnOnce(&mut Sink)) {
    if ON.get() {
        SINK.with_borrow_mut(f);
    }
}

/// Clear this thread's recordings; its enabled flag stays. Call between
/// campaigns so a snapshot covers exactly one run.
pub fn reset() {
    SINK.take();
}

/// Move this thread's recordings out, leaving its sink empty.
pub fn take() -> Sink {
    SINK.take()
}

/// Fold another thread's recordings into this thread's: counters add, gauges
/// max, histograms merge, spans and samples are appended under their caps.
pub fn absorb(other: Sink) {
    SINK.with_borrow_mut(|s| {
        s.metrics.absorb(&other.metrics);
        s.flight.absorb(other.flight);
        s.profile.absorb(other.profile);
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enable_toggle_round_trips() {
        set_enabled(true);
        assert!(enabled());
        set_enabled(false);
        assert!(!enabled());
    }

    #[test]
    fn absorb_folds_another_threads_recordings() {
        set_enabled(true);
        reset();
        count(Counter::DialsOk, 2);
        gauge_max(Gauge::ConnOccupancyPeak, 5);
        observe(Metric::DialLatencyNs, 8);
        span(3, 0, "phase", "main", 0);
        let worker = std::thread::spawn(|| {
            set_enabled(true);
            count(Counter::DialsOk, 3);
            gauge_max(Gauge::ConnOccupancyPeak, 4);
            observe(Metric::DialLatencyNs, 1);
            span(1, 0, "lookup", "dht", 2);
            set_enabled(false);
            take()
        })
        .join()
        .expect("worker thread");
        absorb(worker);
        let snap = snapshot();
        set_enabled(false);
        assert_eq!(snap.counters[0], ("dials_ok", 5));
        assert_eq!(snap.gauges[0], ("conn_occupancy_peak", 5));
        assert_eq!((snap.hists[0].1.count, snap.hists[0].1.sum), (2, 9));
        assert_eq!(flight::len(), (2, 0));
        assert!(
            dump_jsonl().starts_with("{\"t_ns\":1,"),
            "dump is in content order"
        );
        reset();
    }
}
