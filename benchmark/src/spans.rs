//! The harness's own spans: one record per call it makes into a layer's
//! public functions, kept in memory and dumped as Chrome-trace JSON when
//! the traced run ends. Spans inside the program are a later change; these
//! sit at the boundary the harness can see.
//!
//! The harness drives the program from one thread, so "the span that
//! caused this one" is simply the innermost span still open.

use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_us: f64,
    pub end_us: f64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn dur_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

/// An in-memory span recorder. Disabled (the untraced run), `record` is a
/// plain call: no clock read, no allocation.
pub struct Spans {
    origin: Instant,
    enabled: bool,
    workload: &'static str,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    pub fn new(workload: &'static str, enabled: bool) -> Spans {
        Spans {
            origin: Instant::now(),
            enabled,
            workload,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Run `f` inside a span named `name`, child of the innermost open
    /// span. Returns `f`'s result and the wall time of the call in
    /// microseconds (measured even when recording is off, so callers take
    /// their timings from one clock).
    pub fn record<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Spans) -> T) -> (T, f64) {
        let start = Instant::now();
        if !self.enabled {
            let out = f(self);
            return (out, start.elapsed().as_secs_f64() * 1e6);
        }
        let start_us = start.duration_since(self.origin).as_secs_f64() * 1e6;
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_us,
            end_us: start_us,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        let dur_us = start.elapsed().as_secs_f64() * 1e6;
        self.spans[id].end_us = start_us + dur_us;
        (out, dur_us)
    }

    pub fn self_time_us(&self) -> BTreeMap<&'static str, f64> {
        self_time_us(&self.spans)
    }

    /// Chrome trace-event JSON (`chrome://tracing`, Perfetto): one
    /// complete (`"X"`) event per span, the workload as its category.
    pub fn chrome_trace(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
                 \"pid\":1,\"tid\":1,\"args\":{{\"id\":{i},\"parent\":{parent}}}}}",
                s.name,
                self.workload,
                s.start_us,
                s.dur_us()
            ));
        }
        out.push_str("\n]}\n");
        out
    }
}

/// A layer's self time is its spans' duration minus the part their child
/// spans cover, summed per span name.
pub fn self_time_us(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut child_us = vec![0.0; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_us[p] += s.dur_us();
        }
    }
    let mut by_name = BTreeMap::new();
    for (s, covered) in spans.iter().zip(child_us) {
        *by_name.entry(s.name).or_insert(0.0) += s.dur_us() - covered;
    }
    by_name
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_us: f64, end_us: f64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_us,
            end_us,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_children_and_folds_by_name() {
        let spans = [
            span("rep", 0.0, 100.0, None),
            span("core.run_window", 10.0, 40.0, Some(0)),
            span("core.run_window", 50.0, 90.0, Some(0)),
            span("store.kv", 55.0, 65.0, Some(2)),
        ];
        let folded = self_time_us(&spans);
        assert_eq!(folded["rep"], 30.0);
        assert_eq!(folded["core.run_window"], 30.0 + 30.0);
        assert_eq!(folded["store.kv"], 10.0);
        let total: f64 = folded.values().sum();
        assert_eq!(total, 100.0, "self times partition the root span");
    }

    #[test]
    fn recorder_nests_by_call_order() {
        let mut spans = Spans::new("test", true);
        spans.record("outer", |s| {
            s.record("inner", |_| ());
            s.record("inner", |_| ());
        });
        spans.record("sibling", |_| ());
        let parents: Vec<_> = spans.spans.iter().map(|s| (s.name, s.parent)).collect();
        assert_eq!(
            parents,
            [
                ("outer", None),
                ("inner", Some(0)),
                ("inner", Some(0)),
                ("sibling", None)
            ]
        );
        let json: serde_json::Value =
            serde_json::from_str(&spans.chrome_trace()).expect("chrome trace is valid JSON");
        assert_eq!(json["traceEvents"].as_array().map(<[_]>::len), Some(4));
    }

    #[test]
    fn disabled_recorder_keeps_nothing_but_still_times() {
        let mut spans = Spans::new("test", false);
        let ((), us) = spans.record("x", |_| {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        assert!(us >= 2_000.0);
        assert!(spans.spans.is_empty());
    }
}
