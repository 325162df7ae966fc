//! Harness spans: one per call into a layer, recorded from the
//! benchmark's side of the call, kept in memory and written as a Chrome
//! trace-event file when the run ends.

use crate::json::Json;
use std::time::Instant;

/// One finished span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Module-style name of the layer call (`core.crawler.crawl`, …).
    pub name: &'static str,
    /// Start, µs since the tracer was created.
    pub start_us: u64,
    /// End, µs since the tracer was created.
    pub end_us: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_us - self.start_us) as f64 / 1e6
    }
}

/// An open span; close it with [`Tracer::end`].
pub struct Open {
    at: Instant,
    slot: Option<usize>,
}

/// Times every span; keeps them only while `recording` (the traced run).
pub struct Tracer {
    origin: Instant,
    /// Whether spans are kept.
    pub recording: bool,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    /// A tracer that times but keeps nothing until `recording` is set.
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            recording: false,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Open a span named `name` under the innermost open one.
    pub fn begin(&mut self, name: &'static str) -> Open {
        let at = Instant::now();
        let slot = self.recording.then(|| {
            let us = at.duration_since(self.origin).as_micros() as u64;
            self.spans.push(Span {
                name,
                start_us: us,
                end_us: us,
                parent: self.stack.last().copied(),
            });
            self.stack.push(self.spans.len() - 1);
            self.spans.len() - 1
        });
        Open { at, slot }
    }

    /// Close `open`; returns the span's duration in seconds.
    pub fn end(&mut self, open: Open) -> f64 {
        let now = Instant::now();
        if let Some(slot) = open.slot {
            self.spans[slot].end_us = now.duration_since(self.origin).as_micros() as u64;
            let top = self.stack.pop();
            debug_assert_eq!(top, Some(slot), "spans must close innermost first");
        }
        now.duration_since(open.at).as_secs_f64()
    }

    /// Every recorded span, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Summed duration of the spans named `name`, in seconds.
    pub fn total(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .fold(0.0, |acc, s| acc + s)
    }

    /// Durations of the spans named `name`, in seconds.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .collect()
    }

    /// The spans as a Chrome trace-event document (complete `"X"` events;
    /// span index, parent index and workload ride in `args`).
    pub fn chrome_trace(&self, workload: &str) -> String {
        let events = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                Json::obj([
                    ("name", Json::str(s.name)),
                    ("ph", Json::str("X")),
                    ("ts", Json::Int(s.start_us)),
                    ("dur", Json::Int(s.end_us - s.start_us)),
                    ("pid", Json::Int(1)),
                    ("tid", Json::Int(1)),
                    (
                        "args",
                        Json::obj([
                            ("id", Json::Int(i as u64)),
                            (
                                "parent",
                                s.parent.map_or(Json::Null, |p| Json::Int(p as u64)),
                            ),
                            ("workload", Json::str(workload)),
                        ]),
                    ),
                ])
            })
            .collect();
        Json::obj([("traceEvents", Json::Arr(events))]).to_string()
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}
