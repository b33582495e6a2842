//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span has a name (the layer metric it feeds), a start, an end, its
//! parent span and the request it belongs to. Spans are kept in memory
//! and written out once, at the end of a traced run, as Chrome
//! trace-event JSON (open it offline in Perfetto or `chrome://tracing`).
//! A disabled tracer records nothing, so the untraced run pays one branch
//! per call.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    enabled: Cell<bool>,
    origin: Instant,
    spans: RefCell<Vec<Span>>,
    stack: RefCell<Vec<usize>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled: Cell::new(enabled),
            origin: Instant::now(),
            spans: RefCell::new(Vec::new()),
            stack: RefCell::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled.get()
    }

    /// Turns recording on or off, for runs that alternate traced and
    /// untraced rounds.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.set(on);
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name` for request `request`.
    pub fn span<T>(&self, name: &'static str, request: u64, f: impl FnOnce() -> T) -> T {
        if !self.enabled.get() {
            return f();
        }
        let idx = {
            let mut spans = self.spans.borrow_mut();
            spans.push(Span {
                name,
                start_ns: self.now_ns(),
                end_ns: 0,
                parent: self.stack.borrow().last().copied(),
                request,
            });
            spans.len() - 1
        };
        self.stack.borrow_mut().push(idx);
        let out = f();
        self.stack.borrow_mut().pop();
        self.spans.borrow_mut()[idx].end_ns = self.now_ns();
        out
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.borrow().clone()
    }
}

/// Each span's self time: its duration minus the part of it covered by
/// its children (children of one span never overlap: they run on the
/// benchmark's single thread).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut covered = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            covered[p] += s.duration_ns();
        }
    }
    spans
        .iter()
        .zip(covered)
        .map(|(s, c)| s.duration_ns().saturating_sub(c))
        .collect()
}

/// Per-name span count, total self time and median duration.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerRow {
    pub count: usize,
    pub self_ns: u64,
    pub median_ns: f64,
}

pub fn layer_table(spans: &[Span]) -> BTreeMap<&'static str, LayerRow> {
    let selfs = self_times_ns(spans);
    let mut durations: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut self_ns: BTreeMap<&'static str, u64> = BTreeMap::new();
    for (s, own) in spans.iter().zip(selfs) {
        durations
            .entry(s.name)
            .or_default()
            .push(s.duration_ns() as f64);
        *self_ns.entry(s.name).or_default() += own;
    }
    durations
        .into_iter()
        .map(|(name, d)| {
            let row = LayerRow {
                count: d.len(),
                self_ns: self_ns[name],
                median_ns: crate::stats::median(&d),
            };
            (name, row)
        })
        .collect()
}

/// The spans as a Chrome trace-event document (complete events, µs).
pub fn chrome_trace_json(spans: &[Span]) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let parent = s.parent.map_or(-1, |p| p as i64);
        let _ = write!(
            out,
            "\n{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
             \"pid\":1,\"tid\":1,\"args\":{{\"id\":{i},\"parent\":{parent},\"request\":{}}}}}",
            s.name,
            s.name.split('.').next().unwrap_or(s.name),
            s.start_ns as f64 / 1e3,
            s.duration_ns() as f64 / 1e3,
            s.request
        );
    }
    out.push_str("\n],\"displayTimeUnit\":\"ns\"}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            request: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            span("outer", 0, 100, None),
            span("a", 10, 30, Some(0)),
            span("b", 40, 90, Some(0)),
            span("c", 50, 60, Some(2)),
        ];
        assert_eq!(self_times_ns(&spans), vec![30, 20, 40, 10]);
        let table = layer_table(&spans);
        assert_eq!(table["outer"].self_ns, 30);
        assert_eq!(table["b"].count, 1);
    }

    #[test]
    fn tracer_records_nesting_only_when_enabled() {
        let t = Tracer::new(true);
        t.span("outer", 3, || t.span("inner", 3, || ()));
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].duration_ns() >= spans[1].duration_ns());
        let json = chrome_trace_json(&spans);
        assert!(json.contains("\"name\":\"inner\"") && json.contains("\"parent\":0"));

        let off = Tracer::new(false);
        assert_eq!(off.span("outer", 0, || 5), 5);
        assert!(off.spans().is_empty());
        off.set_enabled(true);
        off.span("later", 1, || ());
        assert_eq!(off.spans().len(), 1);
    }
}
