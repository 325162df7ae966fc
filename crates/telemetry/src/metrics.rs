//! The metrics registry: counters, gauges and log-bucketed histograms
//! keyed by static metric ids.
//!
//! Determinism contract: every recording operation is commutative —
//! counter adds, per-bucket adds, sum adds and max-folds. A snapshot taken
//! after a campaign therefore does not depend on how nodes were
//! partitioned into shards: the multiset of recorded observations is fixed
//! by the virtual-time trace, each shard worker folds its share into its
//! own thread's registry, and [`crate::absorb`] folds those registries
//! together with the same adds and maxes. The test suite asserts snapshot
//! equality across shard counts and reruns.
//!
//! The hot path is the enabled check plus one or two plain adds into the
//! calling thread's registry — no locks, no atomic read-modify-writes, no
//! allocation.

use std::iter::zip;

/// Monotonic event counters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Counter {
    /// Dials that completed a handshake.
    DialsOk,
    /// Dials that failed (timeout, refusal, dead relay hop).
    DialsFailed,
    /// DHT lookups that ran to completion (result taken by the owner op).
    LookupsCompleted,
    /// Per-peer query failures observed inside lookups.
    LookupPeerFailures,
    /// Bitswap fetch sessions resolved by a received block.
    BitswapFetchesResolved,
    /// Fetch pipelines started (one per distinct in-flight CID).
    FetchesStarted,
    /// Requests for a CID already being fetched, coalesced onto the
    /// in-flight pipeline instead of starting a new one (the want-coalesce
    /// hit; rate = hits / (hits + started)).
    WantCoalesceHits,
    /// Requests answered straight from the local blockstore.
    RequestsServedCache,
    /// Requests resolved by the 1-hop Bitswap broadcast.
    RequestsServedBitswap,
    /// Requests that needed the DHT provider-lookup fallback.
    RequestsServedDht,
}

const COUNTERS: [Counter; 10] = [
    Counter::DialsOk,
    Counter::DialsFailed,
    Counter::LookupsCompleted,
    Counter::LookupPeerFailures,
    Counter::BitswapFetchesResolved,
    Counter::FetchesStarted,
    Counter::WantCoalesceHits,
    Counter::RequestsServedCache,
    Counter::RequestsServedBitswap,
    Counter::RequestsServedDht,
];

impl Counter {
    pub fn name(self) -> &'static str {
        match self {
            Counter::DialsOk => "dials_ok",
            Counter::DialsFailed => "dials_failed",
            Counter::LookupsCompleted => "lookups_completed",
            Counter::LookupPeerFailures => "lookup_peer_failures",
            Counter::BitswapFetchesResolved => "bitswap_fetches_resolved",
            Counter::FetchesStarted => "fetches_started",
            Counter::WantCoalesceHits => "want_coalesce_hits",
            Counter::RequestsServedCache => "requests_served_cache",
            Counter::RequestsServedBitswap => "requests_served_bitswap",
            Counter::RequestsServedDht => "requests_served_dht",
        }
    }
}

/// High-water-mark gauges (folded with `max`, hence shard-invariant).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Gauge {
    /// Peak connection-table occupancy observed on any single node.
    ConnOccupancyPeak,
}

const GAUGES: [Gauge; 1] = [Gauge::ConnOccupancyPeak];

impl Gauge {
    pub fn name(self) -> &'static str {
        match self {
            Gauge::ConnOccupancyPeak => "conn_occupancy_peak",
        }
    }
}

/// Log-bucketed histograms. Bucket index of a value `v` is
/// `v.max(1).ilog2()` — i.e. bucket `b` holds values in `[2^b, 2^(b+1))`,
/// with 0 and 1 sharing bucket 0.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Metric {
    /// Dial duration, virtual ns, from `Ctx::dial` to the dial outcome.
    DialLatencyNs,
    /// Full lookup duration, virtual ns, from start to result adoption.
    LookupLatencyNs,
    /// Peers contacted per completed lookup (hops proxy).
    LookupContacted,
    /// Bitswap want resolution, virtual ns, session start to first block.
    WantResolutionNs,
    /// Connection-table occupancy sampled at each connection insert.
    ConnOccupancy,
    /// Scheduling delay, virtual ns, between "now" and the scheduled
    /// timestamp of every engine event pushed through `route()`. The log
    /// buckets map directly onto timer-wheel bands: buckets 0–20 land in
    /// the fine wheel (< 2^21 ns), 21–32 in the coarse wheel (< 2^33 ns),
    /// 33+ in the far heap — so this histogram *is* band residency.
    SchedDelayNs,
    /// End-to-end request latency, virtual ns, from fetch-pipeline start
    /// to completion or failure (cache hits resolve at latency 0).
    RequestLatencyNs,
}

const METRICS: [Metric; 7] = [
    Metric::DialLatencyNs,
    Metric::LookupLatencyNs,
    Metric::LookupContacted,
    Metric::WantResolutionNs,
    Metric::ConnOccupancy,
    Metric::SchedDelayNs,
    Metric::RequestLatencyNs,
];

impl Metric {
    pub fn name(self) -> &'static str {
        match self {
            Metric::DialLatencyNs => "dial_latency_ns",
            Metric::LookupLatencyNs => "lookup_latency_ns",
            Metric::LookupContacted => "lookup_contacted",
            Metric::WantResolutionNs => "want_resolution_ns",
            Metric::ConnOccupancy => "conn_occupancy",
            Metric::SchedDelayNs => "sched_delay_ns",
            Metric::RequestLatencyNs => "request_latency_ns",
        }
    }
}

/// 64 log2 buckets cover the full u64 range.
pub const N_BUCKETS: usize = 64;

/// One thread's registry, indexed by metric id.
#[derive(Debug, Default)]
pub(crate) struct Registry {
    counters: [u64; COUNTERS.len()],
    gauges: [u64; GAUGES.len()],
    hists: [Hist; METRICS.len()],
}

impl Registry {
    /// Fold another registry in: counters add, gauges max, histograms merge.
    pub(crate) fn absorb(&mut self, other: &Registry) {
        for (a, b) in self.counters.iter_mut().zip(&other.counters) {
            *a += b;
        }
        for (a, b) in self.gauges.iter_mut().zip(&other.gauges) {
            *a = (*a).max(*b);
        }
        for (a, b) in self.hists.iter_mut().zip(&other.hists) {
            a.merge(b);
        }
    }
}

/// Add `n` to a counter. No-op while telemetry is disabled.
#[inline]
pub fn count(c: Counter, n: u64) {
    crate::record(|s| s.metrics.counters[c as usize] += n);
}

/// Fold `v` into a high-water-mark gauge. No-op while telemetry is disabled.
#[inline]
pub fn gauge_max(g: Gauge, v: u64) {
    crate::record(|s| {
        let cell = &mut s.metrics.gauges[g as usize];
        *cell = (*cell).max(v);
    });
}

/// Record one observation into a histogram. No-op while disabled.
#[inline]
pub fn observe(m: Metric, v: u64) {
    crate::record(|s| s.metrics.hists[m as usize].observe(v));
}

/// Zero this thread's registry.
pub fn reset() {
    crate::SINK.with_borrow_mut(|s| s.metrics = Registry::default());
}

/// A plain mergeable histogram: one row of the registry, and the fold that
/// joins the shard workers' rows (checked by the shard-merge proptest).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Hist {
    pub count: u64,
    pub sum: u64,
    pub buckets: [u64; N_BUCKETS],
}

impl Default for Hist {
    fn default() -> Self {
        Hist {
            count: 0,
            sum: 0,
            buckets: [0; N_BUCKETS],
        }
    }
}

impl Hist {
    /// Record one observation into bucket `v.max(1).ilog2()`; the sum
    /// wraps on overflow.
    pub fn observe(&mut self, v: u64) {
        self.count += 1;
        self.sum = self.sum.wrapping_add(v);
        self.buckets[v.max(1).ilog2() as usize] += 1;
    }

    /// Fold another histogram in. Merging is associative and commutative,
    /// so any partition of the observation multiset merges to the same
    /// result — the property the proptest checks.
    pub fn merge(&mut self, other: &Hist) {
        self.count += other.count;
        self.sum = self.sum.wrapping_add(other.sum);
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += *b;
        }
    }

    /// Mean observation, or 0 for an empty histogram.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// A point-in-time copy of the whole registry, in fixed id order.
#[derive(Clone, Debug, PartialEq)]
pub struct Snapshot {
    pub counters: Vec<(&'static str, u64)>,
    pub gauges: Vec<(&'static str, u64)>,
    pub hists: Vec<(&'static str, Hist)>,
}

impl Snapshot {
    /// FNV-1a over every value in fixed order — a compact determinism
    /// fingerprint for the `repro telemetry` artefact.
    pub fn digest(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut fold = |v: u64| {
            for byte in v.to_le_bytes() {
                h ^= byte as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        for (_, v) in &self.counters {
            fold(*v);
        }
        for (_, v) in &self.gauges {
            fold(*v);
        }
        for (_, hist) in &self.hists {
            fold(hist.count);
            fold(hist.sum);
            for b in &hist.buckets {
                fold(*b);
            }
        }
        h
    }

    /// Deterministic plain-text rendering: one line per counter/gauge, a
    /// header plus one line per occupied bucket for each histogram.
    pub fn render_lines(&self) -> Vec<String> {
        let mut out = Vec::new();
        for (name, v) in &self.counters {
            out.push(format!("counter {name} {v}"));
        }
        for (name, v) in &self.gauges {
            out.push(format!("gauge {name} {v}"));
        }
        for (name, hist) in &self.hists {
            out.push(format!("hist {name} count={} sum={}", hist.count, hist.sum));
            for (b, n) in hist.buckets.iter().enumerate() {
                if *n > 0 {
                    out.push(format!("  bucket 2^{b:02} {n}"));
                }
            }
        }
        out
    }
}

/// Copy this thread's registry into a [`Snapshot`].
pub fn snapshot() -> Snapshot {
    crate::SINK.with_borrow(|s| {
        let r = &s.metrics;
        Snapshot {
            counters: zip(COUNTERS.map(Counter::name), r.counters).collect(),
            gauges: zip(GAUGES.map(Gauge::name), r.gauges).collect(),
            hists: zip(METRICS.map(Metric::name), r.hists.clone()).collect(),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_records_nothing() {
        crate::set_enabled(false);
        reset();
        count(Counter::DialsOk, 5);
        observe(Metric::DialLatencyNs, 1000);
        gauge_max(Gauge::ConnOccupancyPeak, 7);
        let snap = snapshot();
        assert!(snap.counters.iter().all(|(_, v)| *v == 0));
        assert!(snap.gauges.iter().all(|(_, v)| *v == 0));
        assert!(snap.hists.iter().all(|(_, h)| h.count == 0));
    }

    #[test]
    fn enabled_records_and_buckets() {
        crate::set_enabled(true);
        reset();
        count(Counter::DialsOk, 2);
        count(Counter::DialsOk, 3);
        observe(Metric::DialLatencyNs, 0); // bucket 0
        observe(Metric::DialLatencyNs, 1); // bucket 0
        observe(Metric::DialLatencyNs, 1024); // bucket 10
        gauge_max(Gauge::ConnOccupancyPeak, 4);
        gauge_max(Gauge::ConnOccupancyPeak, 2);
        let snap = snapshot();
        crate::set_enabled(false);
        assert_eq!(snap.counters[0], ("dials_ok", 5));
        assert_eq!(snap.gauges[0], ("conn_occupancy_peak", 4));
        let (_, h) = &snap.hists[0];
        assert_eq!(h.count, 3);
        assert_eq!(h.sum, 1025);
        assert_eq!(h.buckets[0], 2);
        assert_eq!(h.buckets[10], 1);
        reset();
    }

    #[test]
    fn digest_tracks_content() {
        crate::set_enabled(true);
        reset();
        let empty = snapshot().digest();
        observe(Metric::SchedDelayNs, 42);
        let one = snapshot().digest();
        crate::set_enabled(false);
        assert_ne!(empty, one);
        reset();
    }
}
