//! The flight recorder: a bounded ring buffer of structured span events
//! with deterministic *virtual* timestamps.
//!
//! Spans mark the coarse narrative of a campaign — phases, crawls,
//! intervention waves, lookups — so that a failed run leaves a readable
//! post-mortem instead of a bare backtrace. The buffer is dumped as JSONL
//! on demand (`repro --flight-out`) or from a panic hook
//! ([`install_panic_hook`]).
//!
//! Each thread keeps its own ring (shard workers' are appended to the
//! campaign thread's), and the dump is ordered by span content, so it does
//! not depend on which shard recorded a span.

use std::collections::VecDeque;

/// Maximum retained span events; older events are dropped FIFO.
pub const RING_CAP: usize = 4096;

/// One structured span event; its derived order is the dump order.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct SpanEvent {
    /// Virtual start time, ns.
    pub t_ns: u64,
    /// Virtual duration, ns (0 for instantaneous marks).
    pub dur_ns: u64,
    /// Static kind tag: "phase", "crawl", "wave", "lookup", "probe", ...
    pub kind: &'static str,
    /// Free-form label (scenario name, wave style, CID class, ...).
    pub label: String,
    /// One numeric attribute (node count, hop count, ... kind-specific).
    pub a: u64,
}

/// One thread's ring: the newest [`RING_CAP`] spans, and a drop count.
#[derive(Debug, Default)]
pub(crate) struct Ring {
    buf: VecDeque<SpanEvent>,
    dropped: u64,
}

impl Ring {
    fn push(&mut self, ev: SpanEvent) {
        if self.buf.len() >= RING_CAP {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(ev);
    }

    /// Append another ring's spans after this one's, re-applying the cap.
    pub(crate) fn absorb(&mut self, other: Ring) {
        self.dropped += other.dropped;
        for ev in other.buf {
            self.push(ev);
        }
    }
}

/// Record a span with a virtual duration. No-op while telemetry is off.
pub fn span(t_ns: u64, dur_ns: u64, kind: &'static str, label: impl Into<String>, a: u64) {
    crate::record(|s| {
        s.flight.push(SpanEvent {
            t_ns,
            dur_ns,
            kind,
            label: label.into(),
            a,
        })
    });
}

/// Number of events this thread retains (plus how many were dropped).
pub fn len() -> (usize, u64) {
    crate::SINK.with_borrow(|s| (s.flight.buf.len(), s.flight.dropped))
}

/// Minimal JSON string escaper — labels are ASCII identifiers in practice,
/// but stay safe for arbitrary content.
fn escape(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
}

/// Render this thread's retained events as JSONL in [`SpanEvent`] order
/// (virtual start time first). Below [`RING_CAP`] the output is a function
/// of the recorded spans alone, whichever shard recorded them.
pub fn dump_jsonl() -> String {
    crate::SINK.with_borrow(|s| {
        let ring = &s.flight;
        let mut spans: Vec<_> = ring.buf.iter().collect();
        spans.sort_unstable();
        let mut out = String::new();
        if ring.dropped > 0 {
            out.push_str(&format!(
                "{{\"kind\":\"meta\",\"dropped\":{},\"cap\":{}}}\n",
                ring.dropped, RING_CAP
            ));
        }
        for ev in spans {
            out.push_str(&format!(
                "{{\"t_ns\":{},\"dur_ns\":{},\"kind\":\"{}\",\"label\":\"",
                ev.t_ns, ev.dur_ns, ev.kind
            ));
            escape(&ev.label, &mut out);
            out.push_str(&format!("\",\"a\":{}}}\n", ev.a));
        }
        out
    })
}

/// Write the JSONL dump to a file. Returns how many events were written.
pub fn dump_to(path: &str) -> std::io::Result<usize> {
    let (n, _) = len();
    std::fs::write(path, dump_jsonl())?;
    Ok(n)
}

/// Chain a panic hook that dumps the panicking thread's flight recorder to
/// `path` (only when non-empty), then runs the previously installed hook.
/// Installed by the `repro` binary so failed long runs leave a post-mortem
/// trace. A panic inside a shard worker therefore dumps that worker's
/// spans only, not the campaign thread's.
pub fn install_panic_hook(path: &str) {
    let path = path.to_string();
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let (n, _) = len();
        if n > 0 {
            match dump_to(&path) {
                Ok(n) => eprintln!("flight recorder: dumped {n} span(s) to {path}"),
                Err(e) => eprintln!("flight recorder: dump to {path} failed: {e}"),
            }
        }
        prev(info);
    }));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_caps_and_dumps() {
        crate::set_enabled(true);
        crate::reset();
        for i in 0..(RING_CAP + 10) as u64 {
            span(i, 1, "phase", "warmup", i);
        }
        let (n, dropped) = len();
        assert_eq!(n, RING_CAP);
        assert_eq!(dropped, 10);
        let dump = dump_jsonl();
        assert!(dump.starts_with("{\"kind\":\"meta\",\"dropped\":10"));
        assert!(dump.lines().count() == RING_CAP + 1);
        crate::set_enabled(false);
        crate::reset();
    }

    #[test]
    fn disabled_records_nothing() {
        crate::set_enabled(false);
        crate::reset();
        span(1, 2, "crawl", "c0", 0);
        assert_eq!(len(), (0, 0));
    }

    #[test]
    fn escapes_labels() {
        let mut s = String::new();
        escape("a\"b\\c\nd", &mut s);
        assert_eq!(s, "a\\\"b\\\\c\\nd");
    }
}
