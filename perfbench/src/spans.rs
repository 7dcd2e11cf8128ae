//! The benchmark's own host-time spans (set-up, runs, oracle checks, layer
//! timings), kept in memory and written at exit as a Chrome trace-event
//! document that ui.perfetto.dev loads.

use std::time::{Duration, Instant};

use fugu_bench::Json;

/// One closed span: a complete (`"ph": "X"`) trace event.
#[derive(Debug, Clone)]
struct Span {
    name: String,
    cat: &'static str,
    start: Duration,
    dur: Duration,
    parent: Option<usize>,
    args: Vec<(&'static str, Json)>,
}

/// An in-memory span log with one time origin.
#[derive(Debug)]
pub struct SpanLog {
    origin: Instant,
    spans: Vec<Span>,
}

/// Handle to a span opened with [`SpanLog::open`]; pass it to
/// [`SpanLog::close`].
#[derive(Debug, Clone, Copy)]
pub struct Open {
    index: usize,
    started: Instant,
}

impl Default for SpanLog {
    fn default() -> Self {
        SpanLog::new()
    }
}

impl SpanLog {
    /// An empty log whose time origin is now.
    pub fn new() -> SpanLog {
        SpanLog {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Opens a span named `name` in category `cat`, a child of `parent`.
    pub fn open(
        &mut self,
        name: impl Into<String>,
        cat: &'static str,
        parent: Option<Open>,
    ) -> Open {
        let started = Instant::now();
        self.spans.push(Span {
            name: name.into(),
            cat,
            start: started - self.origin,
            dur: Duration::ZERO,
            parent: parent.map(|p| p.index),
            args: Vec::new(),
        });
        Open {
            index: self.spans.len() - 1,
            started,
        }
    }

    /// Closes `span`, attaching `args`, and returns its duration.
    pub fn close(&mut self, span: Open, args: Vec<(&'static str, Json)>) -> Duration {
        let dur = span.started.elapsed();
        let s = &mut self.spans[span.index];
        s.dur = dur;
        s.args = args;
        dur
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// True if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// The log as a Chrome trace-event document (times in microseconds).
    /// Each event carries its own index as `id` and its parent's as
    /// `parent`, so the causal chain survives beside the nesting Perfetto
    /// draws from time containment.
    pub fn to_chrome_trace(&self) -> Json {
        let us = |d: Duration| Json::from(d.as_secs_f64() * 1e6);
        let events = self.spans.iter().enumerate().map(|(i, s)| {
            let mut args = Json::object([("id", Json::from(i))]);
            if let Some(p) = s.parent {
                args.set("parent", p);
            }
            for (k, v) in &s.args {
                args.set(*k, v.clone());
            }
            Json::object([
                ("name", Json::from(s.name.as_str())),
                ("cat", Json::from(s.cat)),
                ("ph", Json::from("X")),
                ("ts", us(s.start)),
                ("dur", us(s.dur)),
                ("pid", Json::from(1u64)),
                ("tid", Json::from(1u64)),
                ("args", args),
            ])
        });
        Json::object([
            ("traceEvents", Json::array(events)),
            ("displayTimeUnit", Json::from("ms")),
        ])
    }
}
