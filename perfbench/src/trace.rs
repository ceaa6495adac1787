//! In-memory spans around the benchmark's calls into each layer.
//!
//! A traced run records one span per call (each submit, each pipeline,
//! each client submit and result wait, each standalone probe) with its
//! name, start, end and parent. Each thread keeps its own [`Tracer`];
//! the spans are merged and written out once, when the run ends, as
//! Chrome trace-event JSON (viewable in Perfetto). An untraced run uses a
//! disabled tracer, which records nothing.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use ramr_telemetry::json::Value;

/// One finished span.
#[derive(Debug, Clone)]
struct Span {
    /// Unique across threads: the thread number in the high half.
    id: u64,
    /// The span that caused this one.
    parent: Option<u64>,
    /// What was called.
    name: String,
    /// Recording thread.
    tid: u32,
    /// Start, since the run's origin.
    start: Duration,
    /// End, since the run's origin.
    end: Duration,
}

/// An open span; close it with [`Tracer::end`].
#[derive(Debug)]
pub struct Open {
    id: u64,
    parent: Option<u64>,
    name: String,
    start: Instant,
}

impl Open {
    /// The id children should name as their parent.
    pub fn id(&self) -> u64 {
        self.id
    }
}

/// A per-thread span recorder.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    tid: u32,
    next: u32,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder for thread `tid`; records nothing unless `enabled`.
    pub fn new(enabled: bool, origin: Instant, tid: u32) -> Self {
        Tracer { enabled, origin, tid, next: 0, spans: Vec::new() }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Opens a span, or returns `None` when tracing is off.
    pub fn begin(&mut self, name: impl Into<String>, parent: Option<u64>) -> Option<Open> {
        if !self.enabled {
            return None;
        }
        self.next += 1;
        let id = (u64::from(self.tid) << 32) | u64::from(self.next);
        Some(Open { id, parent, name: name.into(), start: Instant::now() })
    }

    /// Closes a span opened by [`begin`](Self::begin).
    pub fn end(&mut self, open: Option<Open>) {
        if let Some(open) = open {
            let end = Instant::now();
            self.spans.push(Span {
                id: open.id,
                parent: open.parent,
                name: open.name,
                tid: self.tid,
                start: open.start.duration_since(self.origin),
                end: end.duration_since(self.origin),
            });
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(
        &mut self,
        name: impl Into<String>,
        parent: Option<u64>,
        f: impl FnOnce() -> T,
    ) -> T {
        let open = self.begin(name, parent);
        let out = f();
        self.end(open);
        out
    }

    /// Moves another thread's spans into this recorder.
    pub fn absorb(&mut self, other: Tracer) {
        self.spans.extend(other.spans);
    }

    /// The spans as Chrome trace-event JSON (complete `"X"` events).
    pub fn to_chrome_json(&self) -> String {
        let us = |d: Duration| Value::Num(d.as_secs_f64() * 1e6);
        let events = self
            .spans
            .iter()
            .map(|s| {
                let mut args = BTreeMap::new();
                args.insert("id".to_string(), Value::Num(s.id as f64));
                if let Some(p) = s.parent {
                    args.insert("parent".to_string(), Value::Num(p as f64));
                }
                let mut e = BTreeMap::new();
                e.insert("name".to_string(), Value::Str(s.name.clone()));
                e.insert("ph".to_string(), Value::Str("X".into()));
                e.insert("pid".to_string(), Value::Num(1.0));
                e.insert("tid".to_string(), Value::Num(f64::from(s.tid)));
                e.insert("ts".to_string(), us(s.start));
                e.insert("dur".to_string(), us(s.end.saturating_sub(s.start)));
                e.insert("args".to_string(), Value::Obj(args));
                Value::Obj(e)
            })
            .collect();
        let mut root = BTreeMap::new();
        root.insert("traceEvents".to_string(), Value::Arr(events));
        Value::Obj(root).to_json()
    }
}
