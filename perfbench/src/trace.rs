//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span is a name, a start and an end, the span that caused it and the
//! request it belongs to. Spans are kept in memory while the run lasts and
//! written out as JSON lines when it ends. A disabled tracer records
//! nothing, so the untraced run pays one branch per call site.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One recorded span.
#[derive(Debug, Clone)]
struct Span {
    id: u64,
    name: &'static str,
    start: Instant,
    end: Instant,
    parent: Option<u64>,
    request: Option<u64>,
}

/// The span sink shared by the benchmark's threads.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer that records when `enabled` and does nothing otherwise.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Reserves a span id, so that children can name a parent that is
    /// recorded after them.
    pub fn id(&self) -> u64 {
        if !self.enabled {
            return 0;
        }
        // A counter only: it publishes no other data.
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Records a finished span under a reserved id.
    pub fn record(
        &self,
        id: u64,
        name: &'static str,
        (start, end): (Instant, Instant),
        parent: Option<u64>,
        request: Option<u64>,
    ) {
        if self.enabled {
            let span = Span { id, name, start, end, parent, request };
            self.spans.lock().expect("no thread panics while holding the span list").push(span);
        }
    }

    /// Times `f` and records it as a span; returns its result and duration
    /// whether or not the tracer is enabled.
    pub fn time<R>(
        &self,
        name: &'static str,
        parent: Option<u64>,
        request: Option<u64>,
        f: impl FnOnce() -> R,
    ) -> (R, Duration) {
        let id = self.id();
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.record(id, name, (start, end), parent, request);
        (out, end - start)
    }

    /// Number of spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans.lock().expect("no thread panics while holding the span list").len()
    }

    /// The spans as JSON lines, times in microseconds since the tracer was
    /// created, in id order.
    pub fn to_jsonl(&self) -> String {
        let mut spans =
            self.spans.lock().expect("no thread panics while holding the span list").clone();
        spans.sort_by_key(|s| s.id);
        let us = |t: Instant| t.saturating_duration_since(self.epoch).as_secs_f64() * 1e6;
        let opt = |v: Option<u64>| v.map_or_else(|| "null".to_string(), |v| v.to_string());
        let mut out = String::new();
        for s in &spans {
            let _ = writeln!(
                out,
                "{{\"id\": {}, \"name\": \"{}\", \"start_us\": {:.3}, \"end_us\": {:.3}, \
                 \"parent\": {}, \"request\": {}}}",
                s.id,
                s.name,
                us(s.start),
                us(s.end),
                opt(s.parent),
                opt(s.request)
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing_but_still_times() {
        let t = Tracer::new(false);
        let (v, d) = t.time("x", None, None, || 7);
        assert_eq!(v, 7);
        assert!(d >= Duration::ZERO);
        assert_eq!(t.len(), 0);
    }

    #[test]
    fn spans_keep_parent_and_request() {
        let t = Tracer::new(true);
        let parent = t.id();
        t.time("child", Some(parent), Some(3), || ());
        let now = Instant::now();
        t.record(parent, "parent", (now, now), None, Some(3));
        let lines = t.to_jsonl();
        let lines: Vec<&str> = lines.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"name\": \"parent\""));
        assert!(lines[1].contains(&format!("\"parent\": {parent}")));
        assert!(lines[1].contains("\"request\": 3"));
    }
}
