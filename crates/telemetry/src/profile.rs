//! The per-shard epoch profiler: wall-clock timelines of the conservative
//! sync loop, exported as Chrome trace-event JSON (load the file in
//! Perfetto — <https://ui.perfetto.dev> — or `chrome://tracing`).
//!
//! Every sample is *host* data (wall micros, queue depths at wall
//! instants): useful for spotting shard imbalance and lookahead stalls,
//! never comparable across machines, and therefore kept strictly apart
//! from the deterministic metrics registry — the same segregation
//! `SimStats` already applies to its wall-clock fields.

use std::sync::OnceLock;
use std::time::Instant;

/// Maximum retained samples (≈ 4 MB worst case); the drop counter records
/// anything beyond it.
pub const SAMPLE_CAP: usize = 1 << 16;

/// One epoch of one shard, in wall-clock micros relative to the first
/// sample anchor. An epoch starts at the drain of the shard's inbound
/// mailboxes and ends after the barrier that follows its processing
/// phase, so it spans both of its barrier waits.
#[derive(Clone, Debug)]
pub struct EpochSample {
    pub shard: u16,
    /// Epoch start (the mailbox drain), µs since anchor.
    pub t0_us: u64,
    /// Whole-epoch wall duration, µs (includes the drain and both barrier
    /// waits).
    pub total_us: u64,
    /// Offset of the processing phase inside the epoch, µs.
    pub work_start_us: u64,
    /// Processing-phase wall duration, µs (event dispatch + mailbox flush).
    pub work_us: u64,
    /// Events dispatched by this shard during the epoch.
    pub events: u64,
    /// Cross-shard messages flushed out this epoch.
    pub mailbox_events: u64,
    /// Bytes of those messages (count × event size).
    pub mailbox_bytes: u64,
    /// Local queue depth at the end of the epoch, before the next drain.
    pub queue_len: u64,
}

/// One thread's samples: the first [`SAMPLE_CAP`], and a count of the rest.
#[derive(Debug, Default)]
pub(crate) struct Store {
    samples: Vec<EpochSample>,
    dropped: u64,
}

impl Store {
    fn push(&mut self, sample: EpochSample) {
        if self.samples.len() >= SAMPLE_CAP {
            self.dropped += 1;
        } else {
            self.samples.push(sample);
        }
    }

    /// Append another store's samples after this one's, re-applying the cap.
    pub(crate) fn absorb(&mut self, other: Store) {
        self.dropped += other.dropped;
        for sample in other.samples {
            self.push(sample);
        }
    }
}

static ANCHOR: OnceLock<Instant> = OnceLock::new();

/// Wall micros since the profiler anchor (set on first use).
pub fn now_us() -> u64 {
    ANCHOR.get_or_init(Instant::now).elapsed().as_micros() as u64
}

/// Record one epoch sample. No-op while telemetry is off. Called once per
/// shard per epoch — far off the per-event hot path.
pub fn epoch_sample(sample: EpochSample) {
    crate::record(|s| s.profile.push(sample));
}

/// This thread's retained sample count plus overflow count.
pub fn len() -> (usize, u64) {
    crate::SINK.with_borrow(|s| (s.profile.samples.len(), s.profile.dropped))
}

/// Render this thread's samples as a Chrome trace-event JSON document.
/// Each epoch becomes a complete ("ph":"X") slice on track `tid = shard`,
/// with a nested "work" slice for the processing phase; counters ride in
/// `args`.
pub fn export_chrome_trace() -> String {
    crate::SINK.with_borrow(|sink| {
        let mut out = String::from("{\"traceEvents\":[");
        let mut first = true;
        for s in &sink.profile.samples {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!(
                concat!(
                    "{{\"name\":\"epoch\",\"ph\":\"X\",\"ts\":{},\"dur\":{},",
                    "\"pid\":0,\"tid\":{},\"args\":{{\"events\":{},",
                    "\"mailbox_events\":{},\"mailbox_bytes\":{},\"queue_len\":{}}}}}"
                ),
                s.t0_us,
                s.total_us,
                s.shard,
                s.events,
                s.mailbox_events,
                s.mailbox_bytes,
                s.queue_len
            ));
            if s.work_us > 0 {
                out.push_str(&format!(
                    ",{{\"name\":\"work\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":0,\"tid\":{}}}",
                    s.t0_us + s.work_start_us,
                    s.work_us,
                    s.shard
                ));
            }
        }
        out.push_str("],\"displayTimeUnit\":\"ms\"}");
        out
    })
}

/// Write the Chrome trace to a file. Returns the retained sample count.
pub fn write_chrome_trace(path: &str) -> std::io::Result<usize> {
    let (n, _) = len();
    std::fs::write(path, export_chrome_trace())?;
    Ok(n)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(shard: u16, t0: u64) -> EpochSample {
        EpochSample {
            shard,
            t0_us: t0,
            total_us: 10,
            work_start_us: 2,
            work_us: 6,
            events: 100,
            mailbox_events: 5,
            mailbox_bytes: 640,
            queue_len: 42,
        }
    }

    #[test]
    fn records_and_exports() {
        crate::set_enabled(true);
        crate::reset();
        epoch_sample(sample(0, 0));
        epoch_sample(sample(1, 3));
        let trace = export_chrome_trace();
        crate::set_enabled(false);
        assert!(trace.starts_with("{\"traceEvents\":["));
        assert!(trace.contains("\"name\":\"epoch\""));
        assert!(trace.contains("\"name\":\"work\""));
        assert!(trace.contains("\"tid\":1"));
        assert_eq!(len().0, 2);
        crate::reset();
    }

    #[test]
    fn disabled_records_nothing() {
        crate::set_enabled(false);
        crate::reset();
        epoch_sample(sample(0, 0));
        assert_eq!(len(), (0, 0));
    }
}
