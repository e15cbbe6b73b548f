//! Bench-side spans around every call into a platform layer. Spans are
//! kept in memory and written once, as Chrome-trace JSON, at the end of a
//! traced run. An untraced run holds a disabled tracer that records
//! nothing.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One closed span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer name (`submit`, `step`, ...).
    pub name: &'static str,
    /// Microseconds since the tracer's origin.
    pub start_us: f64,
    /// Duration in microseconds.
    pub dur_us: f64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Driven tick the span belongs to, if any.
    pub tick: Option<u64>,
}

/// Handle to an open span.
#[must_use]
pub struct Open(Option<usize>);

/// In-memory span recorder.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    /// A tracer; `enabled = false` records nothing.
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Opens a span nested in the innermost open one.
    pub fn open(&mut self, name: &'static str, tick: Option<u64>) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_us: self.origin.elapsed().as_secs_f64() * 1e6,
            dur_us: 0.0,
            parent: self.stack.last().copied(),
            tick,
        });
        self.stack.push(idx);
        Open(Some(idx))
    }

    /// Closes a span (spans close innermost first).
    pub fn close(&mut self, open: Open) {
        let Some(idx) = open.0 else { return };
        let end = self.origin.elapsed().as_secs_f64() * 1e6;
        let popped = self.stack.pop();
        debug_assert_eq!(popped, Some(idx), "spans must close innermost first");
        let span = &mut self.spans[idx];
        span.dur_us = end - span.start_us;
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per span name, in seconds: each span's duration minus the
    /// part its child spans cover.
    pub fn self_seconds(&self) -> BTreeMap<&'static str, f64> {
        self_seconds(&self.spans)
    }

    /// The spans as a Chrome-trace JSON document (loads in Perfetto).
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i},\"parent\":{},\"tick\":{}}}}}",
                s.name,
                s.start_us,
                s.dur_us,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.tick.map_or("null".to_string(), |t| t.to_string()),
            );
        }
        out.push_str("]}\n");
        out
    }
}

/// Wall seconds that recording `spans` costs: the same number of spans is
/// opened and closed, with the same nesting, in a scratch tracer. This is
/// the only work a traced repetition adds to an untraced one.
pub fn replay_cost(spans: &[Span]) -> f64 {
    let started = Instant::now();
    let scratch = replay(spans);
    let cost = started.elapsed().as_secs_f64();
    debug_assert_eq!(scratch.spans.len(), spans.len());
    cost
}

fn replay(spans: &[Span]) -> Tracer {
    let mut scratch = Tracer::new(true);
    let mut open: Vec<(usize, Open)> = Vec::new();
    for (i, s) in spans.iter().enumerate() {
        while open.last().is_some_and(|(idx, _)| Some(*idx) != s.parent) {
            let (_, o) = open.pop().expect("non-empty");
            scratch.close(o);
        }
        open.push((i, scratch.open(s.name, s.tick)));
    }
    while let Some((_, o)) = open.pop() {
        scratch.close(o);
    }
    scratch
}

/// Self time per span name over a span list whose parents precede their
/// children.
pub fn self_seconds(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut child_us = vec![0.0f64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_us[p] += s.dur_us;
        }
    }
    let mut out = BTreeMap::new();
    for (s, c) in spans.iter().zip(&child_us) {
        *out.entry(s.name).or_insert(0.0) += (s.dur_us - c).max(0.0) / 1e6;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: f64, dur: f64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_us: start,
            dur_us: dur,
            parent,
            tick: None,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            span("run", 0.0, 10e6, None),
            span("tick", 1e6, 4e6, Some(0)),
            span("step", 1e6, 3e6, Some(1)),
            span("tick", 5e6, 2e6, Some(0)),
            span("step", 5e6, 2e6, Some(3)),
        ];
        let s = self_seconds(&spans);
        assert_eq!(s["run"], 4.0);
        assert_eq!(s["tick"], 1.0);
        assert_eq!(s["step"], 5.0);
        // Self times partition the root's wall time.
        assert_eq!(s.values().sum::<f64>(), 10.0);
    }

    #[test]
    fn replay_reproduces_the_nesting() {
        let spans = vec![
            span("run", 0.0, 10.0, None),
            span("tick", 1.0, 4.0, Some(0)),
            span("step", 1.0, 3.0, Some(1)),
            span("tick", 5.0, 2.0, Some(0)),
        ];
        let parents = |s: &[Span]| s.iter().map(|x| x.parent).collect::<Vec<_>>();
        assert_eq!(parents(replay(&spans).spans()), parents(&spans));
        assert!(replay_cost(&spans) >= 0.0);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let o = t.open("run", None);
        t.close(o);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn nesting_and_export() {
        let mut t = Tracer::new(true);
        let run = t.open("run", None);
        let tick = t.open("step", Some(3));
        t.close(tick);
        t.close(run);
        assert_eq!(t.spans()[1].parent, Some(0));
        let json = t.chrome_json();
        assert!(json.contains("\"name\":\"step\""));
        assert!(json.contains("\"tick\":3"));
        assert!(json.contains("\"parent\":null"));
    }
}
