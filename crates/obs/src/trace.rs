//! Span/event tracing on a virtual tick clock.
//!
//! The tracing model is deliberately small: a [`Recorder`] is a cheaply
//! clonable handle that is either **enabled** (it owns a shared trace
//! buffer, a metrics registry and a tick counter) or **disabled** (it owns
//! nothing). Every recording call starts with a branch on that option, so
//! the disabled path costs one predictable-not-taken branch and never
//! allocates — instrumented hot loops run at full speed when nobody is
//! watching (see `benches/obs.rs` in `cso-bench` for the measurement).
//!
//! Time is the workspace's **virtual tick clock** (the same integer ticks
//! the fault-injected transport advances): entries are stamped with
//! `Recorder::tick()`, which callers advance explicitly. Nothing here reads
//! a wall clock, so traces are bit-identical across runs and machines.

use crate::metrics::{MetricsRegistry, MetricsSnapshot};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{self, ThreadId};

/// A dynamically-typed field value attached to a span or event.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Floating-point number.
    F64(f64),
    /// Boolean flag.
    Bool(bool),
    /// Text (allocates — avoid in hot loops unless the recorder is known
    /// to be enabled).
    Str(String),
}

impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::U64(v)
    }
}
impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Value::U64(v as u64)
    }
}
impl From<u32> for Value {
    fn from(v: u32) -> Self {
        Value::U64(v as u64)
    }
}
impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::I64(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::F64(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

/// What kind of record a [`TraceEntry`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EntryKind {
    /// A span opened (`id` identifies it until the matching end).
    SpanStart,
    /// A span closed.
    SpanEnd,
    /// A point-in-time event inside the enclosing span.
    Event,
}

impl EntryKind {
    /// Stable lowercase name used by the exporters.
    pub fn as_str(&self) -> &'static str {
        match self {
            EntryKind::SpanStart => "span_start",
            EntryKind::SpanEnd => "span_end",
            EntryKind::Event => "event",
        }
    }
}

/// One record in a trace: a span boundary or an event.
#[derive(Debug, Clone)]
pub struct TraceEntry {
    /// Record kind.
    pub kind: EntryKind,
    /// Id of this span (both boundaries share it) or of this event.
    pub id: u64,
    /// Id of the enclosing span, if any.
    pub parent: Option<u64>,
    /// Static name from the span taxonomy (DESIGN.md §7).
    pub name: &'static str,
    /// Virtual tick the record was made at.
    pub tick: u64,
    /// Attached fields, in call order.
    pub fields: Vec<(&'static str, Value)>,
}

#[derive(Debug, Default)]
struct TraceBuf {
    entries: Vec<TraceEntry>,
    next_id: u64,
    /// Each thread's stack of open span ids (innermost last), so spans
    /// open at once on two threads never parent each other. A thread's
    /// entry goes when its last span closes.
    stacks: HashMap<ThreadId, Vec<u64>>,
}

impl TraceBuf {
    /// The innermost span open on `thread`.
    fn top(&self, thread: ThreadId) -> Option<u64> {
        self.stacks.get(&thread).and_then(|s| s.last().copied())
    }
}

#[derive(Debug)]
struct Inner {
    tick: AtomicU64,
    trace: Mutex<TraceBuf>,
    metrics: MetricsRegistry,
}

/// Handle for recording spans, events and metrics.
///
/// Cloning shares the underlying buffers; a disabled recorder
/// ([`Recorder::disabled`], also the `Default`) turns every call into a
/// no-op behind a single branch.
#[derive(Clone, Default)]
pub struct Recorder {
    inner: Option<Arc<Inner>>,
}

/// Prints only whether the recorder is enabled, not its buffers: configs
/// that carry a recorder derive `Debug`.
impl std::fmt::Debug for Recorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Recorder").field("enabled", &self.is_enabled()).finish()
    }
}

impl Recorder {
    /// An enabled recorder with empty trace and metrics at tick zero.
    pub fn new() -> Self {
        Recorder {
            inner: Some(Arc::new(Inner {
                tick: AtomicU64::new(0),
                trace: Mutex::new(TraceBuf::default()),
                metrics: MetricsRegistry::new(),
            })),
        }
    }

    /// The no-op recorder: records nothing, costs ~nothing.
    pub fn disabled() -> Self {
        Recorder { inner: None }
    }

    /// Whether this recorder keeps anything. Use to skip building
    /// allocation-heavy fields in hot paths.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Current virtual tick (0 when disabled).
    pub fn tick(&self) -> u64 {
        self.inner.as_ref().map_or(0, |i| i.tick.load(Ordering::Relaxed))
    }

    /// Advances the virtual clock by `ticks`.
    pub fn advance_ticks(&self, ticks: u64) {
        if let Some(i) = &self.inner {
            i.tick.fetch_add(ticks, Ordering::Relaxed);
        }
    }

    /// Moves the clock forward to `tick` if it is ahead of the current
    /// value (concurrent virtual timelines converge on the slowest).
    pub fn advance_tick_to(&self, tick: u64) {
        if let Some(i) = &self.inner {
            i.tick.fetch_max(tick, Ordering::Relaxed);
        }
    }

    /// Opens a span. The returned guard closes it on drop.
    pub fn span(&self, name: &'static str) -> SpanGuard {
        self.span_with(name, &[])
    }

    /// Opens a span with fields attached to its start record.
    pub fn span_with(&self, name: &'static str, fields: &[(&'static str, Value)]) -> SpanGuard {
        let Some(inner) = &self.inner else {
            return SpanGuard { rec: Recorder::disabled(), id: 0, name, thread: None };
        };
        let thread = thread::current().id();
        let tick = inner.tick.load(Ordering::Relaxed);
        let mut buf = inner.trace.lock().expect("trace lock");
        buf.next_id += 1;
        let id = buf.next_id;
        let parent = buf.top(thread);
        buf.stacks.entry(thread).or_default().push(id);
        buf.entries.push(TraceEntry {
            kind: EntryKind::SpanStart,
            id,
            parent,
            name,
            tick,
            fields: fields.to_vec(),
        });
        SpanGuard { rec: self.clone(), id, name, thread: Some(thread) }
    }

    /// Records a point event inside the calling thread's current span.
    pub fn event(&self, name: &'static str, fields: &[(&'static str, Value)]) {
        let Some(inner) = &self.inner else { return };
        let tick = inner.tick.load(Ordering::Relaxed);
        let mut buf = inner.trace.lock().expect("trace lock");
        buf.next_id += 1;
        let id = buf.next_id;
        let parent = buf.top(thread::current().id());
        buf.entries.push(TraceEntry {
            kind: EntryKind::Event,
            id,
            parent,
            name,
            tick,
            fields: fields.to_vec(),
        });
    }

    /// Closes span `id`, opened on `thread` (the guard may be dropped on
    /// another one).
    fn close_span(&self, id: u64, name: &'static str, thread: ThreadId) {
        let Some(inner) = &self.inner else { return };
        let tick = inner.tick.load(Ordering::Relaxed);
        let mut buf = inner.trace.lock().expect("trace lock");
        // Tolerate out-of-order guard drops: remove the id wherever it is.
        let stack = buf.stacks.entry(thread).or_default();
        if let Some(pos) = stack.iter().rposition(|&s| s == id) {
            stack.remove(pos);
        }
        let parent = stack.last().copied();
        if parent.is_none() {
            buf.stacks.remove(&thread);
        }
        buf.entries.push(TraceEntry {
            kind: EntryKind::SpanEnd,
            id,
            parent,
            name,
            tick,
            fields: Vec::new(),
        });
    }

    /// Adds `n` to the counter `name` (creating it at zero).
    pub fn counter_add(&self, name: &str, n: u64) {
        if let Some(i) = &self.inner {
            i.metrics.counter_add(name, n);
        }
    }

    /// Sets the gauge `name` to `v`.
    pub fn gauge_set(&self, name: &str, v: f64) {
        if let Some(i) = &self.inner {
            i.metrics.gauge_set(name, v);
        }
    }

    /// Records `v` into the log-scale histogram `name`.
    pub fn histogram_record(&self, name: &str, v: u64) {
        if let Some(i) = &self.inner {
            i.metrics.histogram_record(name, v);
        }
    }

    /// Snapshot of the metrics registry (empty when disabled).
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.inner.as_ref().map(|i| i.metrics.snapshot()).unwrap_or_default()
    }

    /// Snapshot of the trace so far (empty when disabled).
    pub fn trace_snapshot(&self) -> Vec<TraceEntry> {
        self.inner
            .as_ref()
            .map(|i| i.trace.lock().expect("trace lock").entries.clone())
            .unwrap_or_default()
    }

    /// All events with the given name, in record order (test helper).
    pub fn events_named(&self, name: &str) -> Vec<TraceEntry> {
        self.trace_snapshot()
            .into_iter()
            .filter(|e| e.kind == EntryKind::Event && e.name == name)
            .collect()
    }
}

/// Closes its span when dropped.
#[must_use = "dropping the guard immediately closes the span"]
#[derive(Debug)]
pub struct SpanGuard {
    rec: Recorder,
    id: u64,
    name: &'static str,
    /// The thread whose stack holds the span (`None` when disabled).
    thread: Option<ThreadId>,
}

impl SpanGuard {
    /// The span's id (0 for a disabled recorder).
    pub fn id(&self) -> u64 {
        self.id
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(thread) = self.thread {
            self.rec.close_span(self.id, self.name, thread);
        }
    }
}

/// A field value lookup on a [`TraceEntry`].
impl TraceEntry {
    /// The value of field `key`, if present.
    pub fn field(&self, key: &str) -> Option<&Value> {
        self.fields.iter().find(|(k, _)| *k == key).map(|(_, v)| v)
    }

    /// The field as `u64`, if it is one.
    pub fn field_u64(&self, key: &str) -> Option<u64> {
        match self.field(key) {
            Some(Value::U64(v)) => Some(*v),
            _ => None,
        }
    }

    /// The field as `f64`, if it is one.
    pub fn field_f64(&self, key: &str) -> Option<f64> {
        match self.field(key) {
            Some(Value::F64(v)) => Some(*v),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_records_nothing() {
        let rec = Recorder::disabled();
        assert!(!rec.is_enabled());
        {
            let _s = rec.span("outer");
            rec.event("ev", &[("x", Value::U64(1))]);
            rec.counter_add("c", 5);
            rec.advance_ticks(10);
        }
        assert!(rec.trace_snapshot().is_empty());
        assert!(rec.metrics_snapshot().is_empty());
        assert_eq!(rec.tick(), 0);
    }

    #[test]
    fn default_recorder_is_disabled() {
        assert!(!Recorder::default().is_enabled());
    }

    #[test]
    fn spans_nest_and_events_attach_to_innermost() {
        let rec = Recorder::new();
        {
            let outer = rec.span("outer");
            rec.event("top", &[]);
            {
                let inner = rec.span("inner");
                rec.event("deep", &[]);
                assert_ne!(outer.id(), inner.id());
            }
            rec.event("top2", &[]);
        }
        let t = rec.trace_snapshot();
        let names: Vec<&str> = t.iter().map(|e| e.name).collect();
        assert_eq!(names, vec!["outer", "top", "inner", "deep", "inner", "top2", "outer"]);
        let deep = &t[3];
        let inner_start = &t[2];
        let outer_start = &t[0];
        assert_eq!(deep.parent, Some(inner_start.id));
        assert_eq!(inner_start.parent, Some(outer_start.id));
        assert_eq!(t[1].parent, Some(outer_start.id));
        // Start and end share the id and name.
        assert_eq!(t[2].id, t[4].id);
        assert_eq!(t[4].kind, EntryKind::SpanEnd);
        assert_eq!(t[4].name, "inner");
    }

    #[test]
    fn ticks_stamp_entries() {
        let rec = Recorder::new();
        rec.event("a", &[]);
        rec.advance_ticks(5);
        rec.event("b", &[]);
        rec.advance_tick_to(3); // behind: no-op
        rec.event("c", &[]);
        rec.advance_tick_to(9);
        rec.event("d", &[]);
        let ticks: Vec<u64> = rec.trace_snapshot().iter().map(|e| e.tick).collect();
        assert_eq!(ticks, vec![0, 5, 5, 9]);
    }

    #[test]
    fn fields_round_trip() {
        let rec = Recorder::new();
        rec.event(
            "e",
            &[
                ("u", Value::U64(7)),
                ("f", Value::F64(1.5)),
                ("b", Value::Bool(true)),
                ("s", Value::from("hi")),
            ],
        );
        let e = &rec.events_named("e")[0];
        assert_eq!(e.field_u64("u"), Some(7));
        assert_eq!(e.field_f64("f"), Some(1.5));
        assert_eq!(e.field("b"), Some(&Value::Bool(true)));
        assert_eq!(e.field("s"), Some(&Value::Str("hi".into())));
        assert_eq!(e.field("missing"), None);
    }

    #[test]
    fn clones_share_the_buffer() {
        let rec = Recorder::new();
        let other = rec.clone();
        other.event("from-clone", &[]);
        other.counter_add("shared", 2);
        assert_eq!(rec.events_named("from-clone").len(), 1);
        assert_eq!(rec.metrics_snapshot().counter("shared"), Some(2));
    }

    /// Two threads each hold a span open at once: every start, end and
    /// event names the span open on its own thread as its parent, and a
    /// guard dropped on another thread still closes its own span.
    #[test]
    fn each_thread_parents_its_own_spans() {
        let rec = Recorder::new();
        let barrier = std::sync::Barrier::new(2);
        std::thread::scope(|scope| {
            for (outer, ev, inner, deep) in
                [("a", "a.ev", "a.inner", "a.deep"), ("b", "b.ev", "b.inner", "b.deep")]
            {
                let (rec, barrier) = (&rec, &barrier);
                scope.spawn(move || {
                    let _outer = rec.span(outer);
                    barrier.wait(); // both outer spans are open
                    rec.event(ev, &[]);
                    let inner = rec.span(inner);
                    barrier.wait(); // both inner spans are open
                    rec.event(deep, &[]);
                    drop(inner);
                    barrier.wait();
                });
            }
        });
        let t = rec.trace_snapshot();
        let name_of = |id: Option<u64>| {
            id.map(|id| {
                t.iter().find(|e| e.id == id && e.kind == EntryKind::SpanStart).unwrap().name
            })
        };
        for e in &t {
            let want = match e.name {
                "a" | "b" => None,
                "a.ev" | "a.inner" => Some("a"),
                "b.ev" | "b.inner" => Some("b"),
                "a.deep" => Some("a.inner"),
                "b.deep" => Some("b.inner"),
                other => panic!("unexpected entry {other}"),
            };
            let want = if e.kind == EntryKind::SpanEnd && e.name.ends_with(".inner") {
                Some(&e.name[..1]) // an end names what stays open
            } else {
                want
            };
            assert_eq!(name_of(e.parent), want, "{:?} {}", e.kind, e.name);
        }
        assert_eq!(t.len(), 2 * 6);

        // A guard moved to another thread and dropped there closes its
        // span on the thread that opened it.
        let rec = Recorder::new();
        let moved = rec.span("moved");
        std::thread::spawn(move || drop(moved)).join().unwrap();
        let _after = rec.span("after");
        let t = rec.trace_snapshot();
        assert_eq!((t[1].kind, t[1].name, t[1].parent), (EntryKind::SpanEnd, "moved", None));
        assert_eq!((t[2].name, t[2].parent), ("after", None));
    }

    #[test]
    fn out_of_order_guard_drop_is_tolerated() {
        let rec = Recorder::new();
        let a = rec.span("a");
        let b = rec.span("b");
        drop(a); // dropped before b
        drop(b);
        let kinds: Vec<(EntryKind, &str)> =
            rec.trace_snapshot().iter().map(|e| (e.kind, e.name)).collect();
        assert_eq!(
            kinds,
            vec![
                (EntryKind::SpanStart, "a"),
                (EntryKind::SpanStart, "b"),
                (EntryKind::SpanEnd, "a"),
                (EntryKind::SpanEnd, "b"),
            ]
        );
    }
}
