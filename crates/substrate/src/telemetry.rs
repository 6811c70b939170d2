//! Out-of-band span tracing and counters for the whole workspace.
//!
//! Every perf-sensitive layer of the system — the round engine, the
//! executor, the graph builder, the serving reactor — shares one
//! instrumentation vocabulary:
//!
//! * a **span** is a named interval (`start_ns`..`start_ns + dur_ns`)
//!   on one thread, with an id, the id of the span it nests inside on
//!   that thread, an optional free-form tag (e.g. the `x-cache` tier)
//!   and integer args (words, items, rounds);
//! * a **counter** is a named point sample (scratch-arena bytes,
//!   round words).
//!
//! Both are [`TraceEvent`]s deposited into a [`Telemetry`] sink — a
//! cheap cloneable handle (an `Arc` internally) threaded through the
//! same configs that already carry [`ExecutorConfig`](crate::ExecutorConfig).
//! A consumer [`drain`](Telemetry::drain)s the events and renders them
//! (`mmvc_core::tracefmt` ships Chrome-trace and JSONL exporters; the
//! serving daemon rotates per-epoch trace files).
//!
//! ## The out-of-band contract
//!
//! Telemetry observes; it never participates. Nothing an algorithm
//! computes may depend on the sink: timestamps, span ids and drained
//! buffers stay outside every `RunReport`, cache key and witness byte,
//! exactly like `wall_ms`. The pins in `tests/telemetry.rs` hold the
//! system to this: canonical report bytes are identical with telemetry
//! on, off, and across `Sequential`/`Threaded{k}`.
//!
//! ## Overhead budget
//!
//! The default handle ([`Telemetry::disabled`]) carries **no sink at
//! all** — every instrumentation site costs one branch. A live sink
//! that has been switched off ([`set_enabled`](Telemetry::set_enabled))
//! costs one relaxed atomic load per site. Only the *enabled* path pays
//! for timestamps and a short [`Completions`] lock per event — the same
//! swap-buffer mailbox the serving reactor already drains worker
//! completions through, so a burst of events costs the drainer one lock
//! acquisition, not one per event.
//!
//! ```
//! use mmvc_substrate::Telemetry;
//!
//! let tel = Telemetry::recording();
//! {
//!     let _outer = tel.span("build");
//!     let _inner = tel.span("scatter");
//! } // spans record on drop
//! tel.counter("bytes", 4096);
//! let events = tel.drain();
//! assert_eq!(events.len(), 3);
//! let scatter = events.iter().find(|e| e.name == "scatter").unwrap();
//! let build = events.iter().find(|e| e.name == "build").unwrap();
//! assert_eq!(scatter.parent, build.id, "nesting is tracked per thread");
//! ```

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use crate::Completions;

/// Which kind of record a [`TraceEvent`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A named interval on one thread (see [`Telemetry::span`]).
    Span,
    /// A named point sample (see [`Telemetry::counter`]).
    Counter,
}

/// One drained telemetry record.
///
/// Timestamps are nanoseconds since the sink's creation instant (its
/// *epoch*), so events from every thread share one clock. Small
/// sequential `tid`s are assigned per OS thread on first use — stable
/// for the life of the process, suitable as Chrome-trace thread ids.
#[derive(Debug, Clone)]
pub struct TraceEvent {
    /// Span or counter.
    pub kind: EventKind,
    /// Static event name, e.g. `"round"` or `"csr.build"`.
    pub name: &'static str,
    /// Free-form qualifier (scenario name, `x-cache` tier), if any.
    pub tag: Option<String>,
    /// Start of the interval (spans) or sample instant (counters), in
    /// nanoseconds since the sink's epoch.
    pub start_ns: u64,
    /// Interval length in nanoseconds; `0` for counters.
    pub dur_ns: u64,
    /// Counter value; `0` for spans.
    pub value: u64,
    /// Small per-thread id (first-use order, process-wide).
    pub tid: u64,
    /// Span id (`≥ 1`); `0` for counters.
    pub id: u64,
    /// Id of the span this one nests inside on the same thread, or `0`
    /// for a root span. Always `0` for counters and for spans recorded
    /// via [`Telemetry::record_span`] (whose interval may cross
    /// threads).
    pub parent: u64,
    /// Integer arguments (words, items, round numbers, ...).
    pub args: Vec<(&'static str, u64)>,
}

/// The shared state behind every clone of one [`Telemetry`] handle.
#[derive(Debug)]
struct Sink {
    enabled: AtomicBool,
    epoch: Instant,
    events: Completions<TraceEvent>,
    next_id: AtomicU64,
}

/// Process-wide allocator of small per-thread ids (`tid` in events).
static NEXT_TID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// This thread's assigned small id (`0` = not yet assigned).
    static TID: Cell<u64> = const { Cell::new(0) };
    /// Id of the innermost [`Span`] currently open on this thread
    /// (`0` = none) — how child spans find their parent without a
    /// lock.
    static CURRENT_SPAN: Cell<u64> = const { Cell::new(0) };
}

/// This thread's small id, assigned on first use.
fn current_tid() -> u64 {
    TID.with(|t| {
        let v = t.get();
        if v != 0 {
            return v;
        }
        let v = NEXT_TID.fetch_add(1, Ordering::Relaxed);
        t.set(v);
        v
    })
}

/// A cloneable handle on a telemetry sink (see the module docs).
///
/// The default handle is [`disabled`](Telemetry::disabled): it has no
/// sink, records nothing, and costs one branch per instrumentation
/// site. [`recording`](Telemetry::recording) builds a live sink; all
/// clones share it, and any clone may [`drain`](Telemetry::drain) it.
#[derive(Debug, Clone, Default)]
pub struct Telemetry {
    sink: Option<Arc<Sink>>,
}

impl Telemetry {
    /// A handle with no sink: nothing is ever recorded, clones are
    /// free, and every instrumentation site reduces to one branch.
    pub fn disabled() -> Self {
        Telemetry { sink: None }
    }

    /// A live sink, enabled from the start. Its epoch (timestamp zero)
    /// is the moment of this call.
    pub fn recording() -> Self {
        Telemetry {
            sink: Some(Arc::new(Sink {
                enabled: AtomicBool::new(true),
                epoch: Instant::now(),
                events: Completions::new(),
                next_id: AtomicU64::new(1),
            })),
        }
    }

    /// Whether events are currently recorded: a branch (no sink) plus
    /// at most one relaxed atomic load (live sink) — the whole cost of
    /// an instrumentation site on the disabled path.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        match &self.sink {
            Some(sink) => sink.enabled.load(Ordering::Relaxed),
            None => false,
        }
    }

    /// Switches a live sink on or off (no-op on a sinkless handle).
    /// Spans already open keep recording when they close.
    pub fn set_enabled(&self, on: bool) {
        if let Some(sink) = &self.sink {
            sink.enabled.store(on, Ordering::Relaxed);
        }
    }

    /// Opens a span; the interval records when the guard drops. On the
    /// disabled path this creates an inert guard and costs only the
    /// [`is_enabled`](Self::is_enabled) check.
    #[inline]
    pub fn span(&self, name: &'static str) -> Span<'_> {
        self.span_inner(name, None)
    }

    /// [`span`](Self::span) with a free-form tag. The tag string is
    /// only materialized when the sink is enabled.
    #[inline]
    pub fn span_tagged(&self, name: &'static str, tag: &str) -> Span<'_> {
        if !self.is_enabled() {
            return Span { active: None };
        }
        self.span_inner(name, Some(tag.to_string()))
    }

    fn span_inner(&self, name: &'static str, tag: Option<String>) -> Span<'_> {
        if !self.is_enabled() {
            return Span { active: None };
        }
        let sink = self.sink.as_ref().expect("enabled implies a sink");
        let id = sink.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = CURRENT_SPAN.with(|c| c.replace(id));
        Span {
            active: Some(ActiveSpan {
                sink,
                name,
                tag,
                start: Instant::now(),
                id,
                parent,
                args: Vec::new(),
            }),
        }
    }

    /// Records a point sample.
    #[inline]
    pub fn counter(&self, name: &'static str, value: u64) {
        if !self.is_enabled() {
            return;
        }
        let sink = self.sink.as_ref().expect("enabled implies a sink");
        sink.events.push(TraceEvent {
            kind: EventKind::Counter,
            name,
            tag: None,
            start_ns: sink.ns_of(Instant::now()),
            dur_ns: 0,
            value,
            tid: current_tid(),
            id: 0,
            parent: 0,
            args: Vec::new(),
        });
    }

    /// Records a span whose endpoints the caller measured itself,
    /// closing it *now* — the shape for intervals that cross threads
    /// (a request parsed on the reactor, computed on a worker, and
    /// finished back on the reactor at last-byte-written). No parent is
    /// attached: the interval does not belong to any one thread's span
    /// stack.
    pub fn record_span(
        &self,
        name: &'static str,
        tag: Option<&str>,
        start: Instant,
        args: &[(&'static str, u64)],
    ) {
        if !self.is_enabled() {
            return;
        }
        let sink = self.sink.as_ref().expect("enabled implies a sink");
        let start_ns = sink.ns_of(start);
        let end_ns = sink.ns_of(Instant::now());
        sink.events.push(TraceEvent {
            kind: EventKind::Span,
            name,
            tag: tag.map(str::to_string),
            start_ns,
            dur_ns: end_ns.saturating_sub(start_ns),
            value: 0,
            tid: current_tid(),
            id: sink.next_id.fetch_add(1, Ordering::Relaxed),
            parent: 0,
            args: args.to_vec(),
        });
    }

    /// Takes every recorded event (one buffer swap; see
    /// [`Completions::drain_into`]). Events arrive in completion order;
    /// exporters sort by `(tid, start_ns)`.
    pub fn drain(&self) -> Vec<TraceEvent> {
        let mut out = Vec::new();
        if let Some(sink) = &self.sink {
            sink.events.drain_into(&mut out);
        }
        out
    }

    /// Whether any events are waiting to be drained.
    pub fn has_events(&self) -> bool {
        match &self.sink {
            Some(sink) => !sink.events.is_empty(),
            None => false,
        }
    }
}

impl Sink {
    /// Nanoseconds between the sink's epoch and `t` (0 if `t` precedes
    /// the epoch — cross-thread `Instant`s are monotone but not always
    /// totally ordered at nanosecond grain).
    fn ns_of(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }
}

/// An open span: created by [`Telemetry::span`], recorded on drop. An
/// inert guard (disabled sink) does nothing at all.
#[derive(Debug)]
#[must_use = "a span records its interval when dropped"]
pub struct Span<'a> {
    active: Option<ActiveSpan<'a>>,
}

#[derive(Debug)]
struct ActiveSpan<'a> {
    sink: &'a Sink,
    name: &'static str,
    tag: Option<String>,
    start: Instant,
    id: u64,
    parent: u64,
    args: Vec<(&'static str, u64)>,
}

impl Span<'_> {
    /// Attaches an integer argument (no-op on an inert guard).
    pub fn arg(&mut self, key: &'static str, value: u64) {
        if let Some(active) = &mut self.active {
            active.args.push((key, value));
        }
    }

    /// Builder-style [`arg`](Self::arg).
    pub fn with_arg(mut self, key: &'static str, value: u64) -> Self {
        self.arg(key, value);
        self
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        let Some(active) = self.active.take() else {
            return;
        };
        // Restore the enclosing span as this thread's innermost.
        CURRENT_SPAN.with(|c| c.set(active.parent));
        let start_ns = active.sink.ns_of(active.start);
        let end_ns = active.sink.ns_of(Instant::now());
        active.sink.events.push(TraceEvent {
            kind: EventKind::Span,
            name: active.name,
            tag: active.tag,
            start_ns,
            dur_ns: end_ns.saturating_sub(start_ns),
            value: 0,
            tid: current_tid(),
            id: active.id,
            parent: active.parent,
            args: active.args,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_records_nothing() {
        let tel = Telemetry::disabled();
        assert!(!tel.is_enabled());
        {
            let mut s = tel.span("noop");
            s.arg("k", 1);
        }
        tel.counter("c", 7);
        tel.record_span("r", Some("t"), Instant::now(), &[]);
        assert!(!tel.has_events());
        assert!(tel.drain().is_empty());
        // Defaults to disabled.
        assert!(!Telemetry::default().is_enabled());
    }

    #[test]
    fn spans_nest_and_record_on_drop() {
        let tel = Telemetry::recording();
        {
            let _outer = tel.span("outer");
            {
                let _inner = tel.span_tagged("inner", "leaf").with_arg("n", 42);
            }
            let _sibling = tel.span("sibling");
        }
        let mut events = tel.drain();
        events.sort_by_key(|e| e.id);
        assert_eq!(events.len(), 3);
        let outer = events.iter().find(|e| e.name == "outer").unwrap();
        let inner = events.iter().find(|e| e.name == "inner").unwrap();
        let sibling = events.iter().find(|e| e.name == "sibling").unwrap();
        assert_eq!(outer.parent, 0);
        assert_eq!(inner.parent, outer.id);
        assert_eq!(sibling.parent, outer.id);
        assert_eq!(inner.tag.as_deref(), Some("leaf"));
        assert_eq!(inner.args, vec![("n", 42)]);
        // Children sit inside the parent interval.
        assert!(inner.start_ns >= outer.start_ns);
        assert!(inner.start_ns + inner.dur_ns <= outer.start_ns + outer.dur_ns);
        // Drain empties the sink.
        assert!(!tel.has_events());
    }

    #[test]
    fn counters_and_explicit_spans() {
        let tel = Telemetry::recording();
        tel.counter("bytes", 4096);
        let start = Instant::now();
        tel.record_span("request", Some("hit"), start, &[("status", 200)]);
        let events = tel.drain();
        let c = events
            .iter()
            .find(|e| e.kind == EventKind::Counter)
            .unwrap();
        assert_eq!((c.name, c.value, c.id), ("bytes", 4096, 0));
        let s = events.iter().find(|e| e.kind == EventKind::Span).unwrap();
        assert_eq!(s.tag.as_deref(), Some("hit"));
        assert_eq!(s.args, vec![("status", 200)]);
        assert!(s.id >= 1);
    }

    #[test]
    fn set_enabled_gates_recording() {
        let tel = Telemetry::recording();
        tel.set_enabled(false);
        assert!(!tel.is_enabled());
        tel.counter("dropped", 1);
        let _ = tel.span("dropped");
        assert!(tel.drain().is_empty());
        tel.set_enabled(true);
        tel.counter("kept", 1);
        assert_eq!(tel.drain().len(), 1);
        // Sinkless handles ignore set_enabled.
        let off = Telemetry::disabled();
        off.set_enabled(true);
        assert!(!off.is_enabled());
    }

    #[test]
    fn clones_share_one_sink() {
        let tel = Telemetry::recording();
        let clone = tel.clone();
        clone.counter("from-clone", 1);
        assert!(tel.has_events());
        assert_eq!(tel.drain().len(), 1);
    }

    #[test]
    fn threads_get_distinct_tids() {
        let tel = Telemetry::recording();
        let t2 = tel.clone();
        std::thread::spawn(move || t2.counter("other", 1))
            .join()
            .unwrap();
        tel.counter("main", 1);
        let events = tel.drain();
        assert_eq!(events.len(), 2);
        assert_ne!(events[0].tid, events[1].tid);
    }
}
