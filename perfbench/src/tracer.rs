//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span records its name, start, end, and the span that was open when
//! it started. Spans are kept in memory and written out as JSON lines
//! when the run ends. A disabled tracer records nothing and only calls
//! the wrapped closure, so untraced runs pay one branch per call.

use std::cell::RefCell;
use std::time::Instant;

use cochar_store::json::Json;

struct Span {
    name: String,
    start: f64,
    end: f64,
    parent: Option<usize>,
}

/// Span recorder for the benchmark's (single) driving thread.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.on
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&self, name: &str, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let idx = {
            let mut spans = self.spans.borrow_mut();
            let parent = self.open.borrow().last().copied();
            let start = self.origin.elapsed().as_secs_f64();
            spans.push(Span { name: name.to_string(), start, end: start, parent });
            spans.len() - 1
        };
        self.open.borrow_mut().push(idx);
        let r = f();
        self.open.borrow_mut().pop();
        self.spans.borrow_mut()[idx].end = self.origin.elapsed().as_secs_f64();
        r
    }

    /// Durations in seconds of every span named `name`, in start order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        let spans = self.spans.borrow();
        spans.iter().filter(|s| s.name == name).map(|s| s.end - s.start).collect()
    }

    /// Self times of every span named `name`: its duration minus the
    /// durations of the spans (and probes) directly inside it.
    pub fn self_times(&self, name: &str) -> Vec<f64> {
        let spans = self.spans.borrow();
        spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name)
            .map(|(i, s)| {
                let children: f64 =
                    spans.iter().filter(|c| c.parent == Some(i)).map(|c| c.end - c.start).sum();
                s.end - s.start - children
            })
            .collect()
    }

    /// Every span as one JSON object per line, tagged with `workload`.
    pub fn render(&self, workload: &str) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.borrow().iter().enumerate() {
            let parent = s.parent.map_or(Json::Null, |p| Json::u64(p as u64));
            let line = Json::Obj(vec![
                ("workload".into(), Json::str(workload)),
                ("id".into(), Json::u64(i as u64)),
                ("name".into(), Json::str(s.name.as_str())),
                ("start_s".into(), Json::f64(s.start)),
                ("end_s".into(), Json::f64(s.end)),
                ("parent".into(), parent),
            ]);
            out.push_str(&line.render());
            out.push('\n');
        }
        out
    }
}
