//! A causal span/event tracer (Dapper-style).
//!
//! Every span carries a [`SpanId`], the [`TraceId`] of the request tree it
//! belongs to, and an optional parent span — so a cross-tier request
//! (store update → trigger → re-eval → DARR record) reconstructs as one
//! tree instead of a flat stream. A [`SpanContext`] is the cheap-to-copy
//! `(trace_id, span_id)` pair that travels *in-band* with messages across
//! simulated distributed boundaries (`store::lease::UpdateMessage`, DARR
//! claim/complete calls, cluster job dispatch).
//!
//! Parenting is implicit, entered or explicit:
//! - implicit: [`Tracer::span`] parents under the tracer's innermost open
//!   span on the *current thread*, kept on a thread-local stack (no lock,
//!   no thread id), so lexical nesting just works;
//! - entered: [`Tracer::enter`] makes a carried [`SpanContext`] the
//!   thread's current span for the guard's lifetime, so a caller holding a
//!   context from a message, another thread or a driver's rounds calls the
//!   plain, implicitly parented API under it; `enter(None)` hides the open
//!   spans instead;
//! - explicit: [`Tracer::span_child`] links one span to a carried context
//!   (a worker thread parenting under its submitter's span);
//! - non-lexical: [`Tracer::begin_span`]/[`Tracer::end_span`] for drivers
//!   whose spans outlive any stack frame (e.g. a chaos claim held across
//!   rounds).
//!
//! Ids are allocated from sequence counters (never time or randomness), so
//! a single-threaded driver over a [`ManualClock`] produces byte-identical
//! logs across same-seed runs — the determinism contract the chaos
//! regression test asserts (DESIGN.md §9).
//!
//! [`ManualClock`]: crate::clock::ManualClock

use std::cell::RefCell;
use std::fmt;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::clock::Clock;

/// Identity of one trace (a tree of spans rooted at one request).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TraceId(pub u64);

impl fmt::Display for TraceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Identity of one span within a tracer (unique across traces).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SpanId(pub u64);

impl fmt::Display for SpanId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// The propagation token: which trace a message belongs to and which span
/// caused it. Two words, `Copy`, and serializable as `t<trace>.s<span>` —
/// cheap enough to ride along every simulated wire message.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SpanContext {
    /// The trace this context belongs to.
    pub trace_id: TraceId,
    /// The originating span.
    pub span_id: SpanId,
}

impl SpanContext {
    /// Serializes to the compact wire form `t<trace>.s<span>`.
    pub fn encode(&self) -> String {
        format!("t{}.s{}", self.trace_id.0, self.span_id.0)
    }

    /// Parses the wire form produced by [`SpanContext::encode`].
    pub fn decode(s: &str) -> Option<Self> {
        let rest = s.strip_prefix('t')?;
        let (trace, span) = rest.split_once(".s")?;
        Some(SpanContext {
            trace_id: TraceId(trace.parse().ok()?),
            span_id: SpanId(span.parse().ok()?),
        })
    }
}

impl fmt::Display for SpanContext {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.encode())
    }
}

/// What a [`TraceEvent`] marks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A span opened.
    SpanStart,
    /// A span closed (fields carry `dur_ms` when the guard knew its start).
    SpanEnd,
    /// A point event.
    Event,
}

impl fmt::Display for EventKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EventKind::SpanStart => write!(f, "span_start"),
            EventKind::SpanEnd => write!(f, "span_end"),
            EventKind::Event => write!(f, "event"),
        }
    }
}

/// One recorded trace entry.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Span/event name (dot-separated taxonomy, e.g. `eval.fold`).
    pub name: String,
    /// Start, end, or point event.
    pub kind: EventKind,
    /// Clock reading when recorded, in milliseconds.
    pub at_ms: f64,
    /// For span start/end: the span's own identity. For point events: the
    /// span the event belongs to (`None` when emitted outside any span).
    pub ctx: Option<SpanContext>,
    /// Parent span (span-start events only; roots carry `None`).
    pub parent: Option<SpanId>,
    /// Key-value annotations.
    pub fields: Vec<(String, String)>,
}

impl TraceEvent {
    fn render(&self) -> String {
        let mut line = format!("{:.3} {} {}", self.at_ms, self.kind, self.name);
        if let Some(ctx) = &self.ctx {
            line.push_str(&format!(" trace={} span={}", ctx.trace_id, ctx.span_id));
        }
        if let Some(parent) = &self.parent {
            line.push_str(&format!(" parent={parent}"));
        }
        for (k, v) in &self.fields {
            line.push_str(&format!(" {k}={v}"));
        }
        line
    }
}

/// Hands out tracer ids. Ids never repeat, so an entry a tracer left on a
/// thread's stack can never match a later tracer.
static NEXT_TRACER: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// This thread's open spans and entered contexts for every tracer,
    /// innermost last, as `(tracer id, context)`. A `None` context hides
    /// the tracer's entries below it ([`Tracer::enter`] with `None`).
    static STACK: RefCell<Vec<(u64, Option<SpanContext>)>> = const { RefCell::new(Vec::new()) };
}

/// Records causally-linked spans and events against a pluggable [`Clock`].
pub struct Tracer {
    clock: Arc<dyn Clock>,
    events: Mutex<Vec<TraceEvent>>,
    next_trace: AtomicU64,
    next_span: AtomicU64,
    /// Tags this tracer's entries on the thread-local span stacks.
    id: u64,
}

impl fmt::Debug for Tracer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tracer({} events, clock {:?})", self.events.lock().len(), self.clock)
    }
}

fn own_fields(fields: &[(&str, &str)]) -> Vec<(String, String)> {
    fields.iter().map(|(k, v)| (k.to_string(), v.to_string())).collect()
}

impl Tracer {
    /// Creates a tracer reading time from `clock`.
    pub fn new(clock: Arc<dyn Clock>) -> Self {
        Tracer {
            clock,
            events: Mutex::new(Vec::new()),
            next_trace: AtomicU64::new(1),
            next_span: AtomicU64::new(1),
            id: NEXT_TRACER.fetch_add(1, Ordering::Relaxed),
        }
    }

    /// The tracer's clock reading, in milliseconds.
    pub fn now_ms(&self) -> f64 {
        self.clock.now_ms()
    }

    /// The tracer's clock.
    pub fn clock(&self) -> &Arc<dyn Clock> {
        &self.clock
    }

    fn alloc_span(&self) -> SpanId {
        SpanId(self.next_span.fetch_add(1, Ordering::Relaxed))
    }

    fn alloc_trace(&self) -> TraceId {
        TraceId(self.next_trace.fetch_add(1, Ordering::Relaxed))
    }

    /// This tracer's current span on the *current thread*: the innermost
    /// open span or entered context, if any.
    pub fn current_context(&self) -> Option<SpanContext> {
        STACK.with_borrow(|stack| stack.iter().rev().find(|(t, _)| *t == self.id)?.1)
    }

    fn push_current(&self, ctx: Option<SpanContext>) {
        STACK.with_borrow_mut(|stack| stack.push((self.id, ctx)));
    }

    /// Removes the innermost matching entry, so guards may drop in any
    /// order. Equal entries are interchangeable, so which one goes does
    /// not matter.
    fn pop_current(&self, ctx: Option<SpanContext>) {
        // a guard dropped while the thread tears down finds no stack
        let _ = STACK.try_with(|stack| {
            let mut stack = stack.borrow_mut();
            if let Some(pos) = stack.iter().rposition(|e| *e == (self.id, ctx)) {
                stack.remove(pos);
            }
        });
    }

    fn start_span(
        &self,
        at_ms: f64,
        name: &str,
        parent: Option<SpanContext>,
        fields: &[(&str, &str)],
    ) -> SpanContext {
        let span_id = self.alloc_span();
        let trace_id = match parent {
            Some(p) => p.trace_id,
            None => self.alloc_trace(),
        };
        let ctx = SpanContext { trace_id, span_id };
        self.record(TraceEvent {
            name: name.to_string(),
            kind: EventKind::SpanStart,
            at_ms,
            ctx: Some(ctx),
            parent: parent.map(|p| p.span_id),
            fields: own_fields(fields),
        });
        ctx
    }

    /// Opens a span parented under the innermost open span on this thread
    /// (a new root trace when there is none): records the start now, and
    /// the end (with `dur_ms`) when the returned guard drops.
    #[must_use = "the span closes when the guard drops"]
    pub fn span(&self, name: &str, fields: &[(&str, &str)]) -> SpanGuard<'_> {
        self.span_with_parent(self.current_context(), name, fields)
    }

    /// Opens a span as an explicit child of `parent` — the propagation
    /// primitive for contexts carried across threads or messages.
    #[must_use = "the span closes when the guard drops"]
    pub fn span_child(
        &self,
        parent: SpanContext,
        name: &str,
        fields: &[(&str, &str)],
    ) -> SpanGuard<'_> {
        self.span_with_parent(Some(parent), name, fields)
    }

    /// Opens a span under an optional explicit parent; `None` falls back to
    /// the current thread's innermost span, then to a fresh root trace.
    #[must_use = "the span closes when the guard drops"]
    pub fn span_with_parent(
        &self,
        parent: Option<SpanContext>,
        name: &str,
        fields: &[(&str, &str)],
    ) -> SpanGuard<'_> {
        let parent = parent.or_else(|| self.current_context());
        let start = self.now_ms();
        let ctx = self.start_span(start, name, parent, fields);
        self.push_current(Some(ctx));
        SpanGuard { tracer: self, ctx, start, _thread: PhantomData }
    }

    /// Makes `ctx` this thread's current span for this tracer until the
    /// returned guard drops, recording nothing: spans and events opened
    /// meanwhile parent under it as under an open span. A caller holding a
    /// context from a message, another thread or a driver's earlier rounds
    /// enters it around a plain call instead of passing it down.
    ///
    /// `None` hides this thread's open spans instead, so spans opened
    /// meanwhile start new root traces, as on a thread with no open span.
    /// A thread that runs work on behalf of other threads (a flat-combining
    /// shard applying their requests) uses this to keep that work out of
    /// its own trace.
    #[must_use = "the thread's previous current span comes back when the guard drops"]
    pub fn enter(&self, ctx: Option<SpanContext>) -> EnterGuard<'_> {
        self.push_current(ctx);
        EnterGuard { tracer: self, ctx, _thread: PhantomData }
    }

    /// Opens a non-lexical span stamped at the clock's current reading and
    /// returns its context; close it with [`Tracer::end_span`]. Does not
    /// touch the implicit per-thread stack — drivers whose spans outlive
    /// any stack frame (claims held across rounds) keep the context and
    /// [`Tracer::enter`] it around the calls that belong to it.
    pub fn begin_span(
        &self,
        name: &str,
        parent: Option<SpanContext>,
        fields: &[(&str, &str)],
    ) -> SpanContext {
        self.start_span(self.now_ms(), name, parent, fields)
    }

    /// Closes a span opened with [`Tracer::begin_span`].
    pub fn end_span(&self, ctx: SpanContext, fields: &[(&str, &str)]) {
        self.record(TraceEvent {
            name: String::new(),
            kind: EventKind::SpanEnd,
            at_ms: self.now_ms(),
            ctx: Some(ctx),
            parent: None,
            fields: own_fields(fields),
        });
    }

    /// Records a point event stamped with the clock's current reading,
    /// attached to the innermost open span on this thread (if any).
    pub fn event(&self, name: &str, fields: &[(&str, &str)]) {
        self.event_at(self.now_ms(), name, fields);
    }

    /// Records a point event attached to the span identified by `ctx` —
    /// used when the owning context was carried in-band with a message.
    pub fn event_in(&self, ctx: SpanContext, name: &str, fields: &[(&str, &str)]) {
        self.record(TraceEvent {
            name: name.to_string(),
            kind: EventKind::Event,
            at_ms: self.now_ms(),
            ctx: Some(ctx),
            parent: None,
            fields: own_fields(fields),
        });
    }

    /// Records a point event at an explicit timestamp — used by drivers
    /// that carry their own logical clock (e.g. the chaos driver).
    pub fn event_at(&self, at_ms: f64, name: &str, fields: &[(&str, &str)]) {
        self.record(TraceEvent {
            name: name.to_string(),
            kind: EventKind::Event,
            at_ms,
            ctx: self.current_context(),
            parent: None,
            fields: own_fields(fields),
        });
    }

    fn record(&self, event: TraceEvent) {
        self.events.lock().push(event);
    }

    /// A copy of every recorded event, in record order.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.events.lock().clone()
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.lock().len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Renders the full event log as text, one event per line — the byte
    /// surface the deterministic-trace regression test compares.
    pub fn render_log(&self) -> String {
        let events = self.events.lock();
        let mut out = String::with_capacity(events.len() * 64);
        for e in events.iter() {
            out.push_str(&e.render());
            out.push('\n');
        }
        out
    }

    /// Tail-based trace sampling: with the *whole* trace in hand, keep the
    /// interesting ones (matched an event name, carried a flagged field
    /// key, contained a span at least `keep_min_dur_ms` long, or was
    /// explicitly pinned) and drop everything else — bounding trace memory
    /// under sustained load without losing the traces worth debugging.
    /// Traces with spans still open are always kept (their verdict is not
    /// in yet), as are events recorded outside any span. The decision is a
    /// pure function of the recorded events, so same-seed runs sample
    /// identically.
    pub fn sample_tail(&self, policy: &TailPolicy) -> TailSampleReport {
        let mut events = self.events.lock();
        // BTree containers: the open-span sweep below iterates these, and
        // the kept-trace set must not depend on hash iteration order
        let mut starts: std::collections::BTreeMap<u64, f64> = std::collections::BTreeMap::new();
        let mut open: std::collections::BTreeMap<u64, usize> = std::collections::BTreeMap::new();
        let mut seen: Vec<u64> = Vec::new();
        let mut keep: std::collections::BTreeSet<u64> =
            policy.keep_trace_ids.iter().map(|t| t.0).collect();
        for e in events.iter() {
            let Some(ctx) = e.ctx else { continue };
            let trace = ctx.trace_id.0;
            if !seen.contains(&trace) {
                seen.push(trace);
            }
            match e.kind {
                EventKind::SpanStart => {
                    starts.insert(ctx.span_id.0, e.at_ms);
                    *open.entry(trace).or_insert(0) += 1;
                }
                EventKind::SpanEnd => {
                    if let Some(n) = open.get_mut(&trace) {
                        *n = n.saturating_sub(1);
                    }
                    if let Some(start) = starts.get(&ctx.span_id.0) {
                        if e.at_ms - start >= policy.keep_min_dur_ms {
                            keep.insert(trace);
                        }
                    }
                }
                EventKind::Event => {}
            }
            if policy.keep_event_names.contains(&e.name) {
                keep.insert(trace);
            }
            if e.fields.iter().any(|(k, _)| policy.keep_field_keys.iter().any(|f| f == k)) {
                keep.insert(trace);
            }
        }
        for (trace, open_spans) in &open {
            if *open_spans > 0 {
                keep.insert(*trace);
            }
        }
        let events_before = events.len();
        let traces_kept = seen.iter().filter(|t| keep.contains(t)).count();
        events.retain(|e| match e.ctx {
            None => true,
            Some(ctx) => keep.contains(&ctx.trace_id.0),
        });
        TailSampleReport {
            traces_seen: seen.len(),
            traces_kept,
            events_before,
            events_after: events.len(),
        }
    }
}

/// What [`Tracer::sample_tail`] keeps. The default keeps nothing but open
/// traces — arm it with the builder methods.
#[derive(Debug, Clone)]
pub struct TailPolicy {
    /// Keep traces containing a span at least this long (ms); `+inf`
    /// disables duration-based keeping.
    pub keep_min_dur_ms: f64,
    /// Keep traces containing an event or span with one of these names.
    pub keep_event_names: Vec<String>,
    /// Keep traces containing an event or span carrying one of these
    /// field keys (e.g. `error`).
    pub keep_field_keys: Vec<String>,
    /// Always-keep trace ids (e.g. traces referenced by an exemplar).
    pub keep_trace_ids: Vec<TraceId>,
}

impl Default for TailPolicy {
    fn default() -> Self {
        TailPolicy {
            keep_min_dur_ms: f64::INFINITY,
            keep_event_names: Vec::new(),
            keep_field_keys: Vec::new(),
            keep_trace_ids: Vec::new(),
        }
    }
}

impl TailPolicy {
    /// A policy that keeps nothing (beyond still-open traces).
    pub fn new() -> Self {
        Self::default()
    }

    /// Keep traces containing a span at least `ms` long.
    #[must_use]
    pub fn with_min_dur_ms(mut self, ms: f64) -> Self {
        self.keep_min_dur_ms = ms;
        self
    }

    /// Keep traces containing an event or span named `name`.
    #[must_use]
    pub fn keep_event(mut self, name: &str) -> Self {
        self.keep_event_names.push(name.to_string());
        self
    }

    /// Keep traces carrying field key `key` anywhere.
    #[must_use]
    pub fn keep_field(mut self, key: &str) -> Self {
        self.keep_field_keys.push(key.to_string());
        self
    }

    /// Pin `trace` regardless of content.
    #[must_use]
    pub fn keep_trace(mut self, trace: TraceId) -> Self {
        self.keep_trace_ids.push(trace);
        self
    }
}

/// What one [`Tracer::sample_tail`] pass did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TailSampleReport {
    /// Distinct traces inspected.
    pub traces_seen: usize,
    /// Traces retained.
    pub traces_kept: usize,
    /// Events held before the pass.
    pub events_before: usize,
    /// Events held after the pass.
    pub events_after: usize,
}

/// Closes its span (recording `dur_ms`) on drop; exposes the span's
/// [`SpanContext`] for in-band propagation while it is open. Not `Send`:
/// the span sits on the opening thread's stack until the guard drops.
pub struct SpanGuard<'a> {
    tracer: &'a Tracer,
    ctx: SpanContext,
    start: f64,
    _thread: PhantomData<*const ()>,
}

impl SpanGuard<'_> {
    /// The open span's context — copy this into messages so downstream
    /// work can link child spans back to it.
    pub fn context(&self) -> SpanContext {
        self.ctx
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let end = self.tracer.now_ms();
        self.tracer.pop_current(Some(self.ctx));
        self.tracer.record(TraceEvent {
            name: String::new(),
            kind: EventKind::SpanEnd,
            at_ms: end,
            ctx: Some(self.ctx),
            parent: None,
            fields: vec![("dur_ms".to_string(), format!("{:.3}", end - self.start))],
        });
    }
}

/// Returned by [`Tracer::enter`]; restores the thread's previous current
/// span on drop. Not `Send`, like [`SpanGuard`].
pub struct EnterGuard<'a> {
    tracer: &'a Tracer,
    ctx: Option<SpanContext>,
    _thread: PhantomData<*const ()>,
}

impl Drop for EnterGuard<'_> {
    fn drop(&mut self) {
        self.tracer.pop_current(self.ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::ManualClock;

    fn manual_tracer() -> (Arc<ManualClock>, Tracer) {
        let clock = Arc::new(ManualClock::new());
        let tracer = Tracer::new(Arc::clone(&clock) as Arc<dyn Clock>);
        (clock, tracer)
    }

    #[test]
    fn span_records_start_and_end_with_duration() {
        let (clock, tracer) = manual_tracer();
        {
            let _span = tracer.span("eval.fold", &[("fold", "2")]);
            clock.advance_ms(7.0);
        }
        let events = tracer.events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].kind, EventKind::SpanStart);
        assert_eq!(events[0].fields, vec![("fold".to_string(), "2".to_string())]);
        assert_eq!(events[0].parent, None, "first span is a root");
        assert_eq!(events[1].kind, EventKind::SpanEnd);
        assert_eq!(events[1].at_ms, 7.0);
        assert_eq!(events[1].ctx, events[0].ctx, "end carries the same identity");
        assert_eq!(events[1].fields[0], ("dur_ms".to_string(), "7.000".to_string()));
    }

    #[test]
    fn nested_spans_parent_implicitly_and_events_attach() {
        let (_clock, tracer) = manual_tracer();
        {
            let outer = tracer.span("outer", &[]);
            tracer.event("note", &[]);
            {
                let _inner = tracer.span("inner", &[]);
            }
            drop(outer);
        }
        let events = tracer.events();
        let outer_ctx = events[0].ctx.unwrap();
        assert_eq!(events[1].ctx, Some(outer_ctx), "event attaches to the open span");
        let inner_start = &events[2];
        assert_eq!(inner_start.kind, EventKind::SpanStart);
        assert_eq!(inner_start.parent, Some(outer_ctx.span_id));
        assert_eq!(inner_start.ctx.unwrap().trace_id, outer_ctx.trace_id, "same trace");
        assert!(tracer.current_context().is_none(), "stack drains with the guards");
    }

    #[test]
    fn explicit_child_links_across_carried_context() {
        let (_clock, tracer) = manual_tracer();
        let carried = {
            let root = tracer.span("root", &[]);
            root.context()
        };
        {
            let child = tracer.span_child(carried, "remote.child", &[]);
            assert_eq!(child.context().trace_id, carried.trace_id);
        }
        let events = tracer.events();
        let child_start = events.iter().find(|e| e.name == "remote.child").unwrap();
        assert_eq!(child_start.parent, Some(carried.span_id));
    }

    #[test]
    fn non_lexical_spans_for_drivers() {
        let (clock, tracer) = manual_tracer();
        let root = tracer.begin_span("driver.key", None, &[("key", "p0")]);
        clock.advance_ms(20.0);
        let attempt = tracer.begin_span("driver.attempt", Some(root), &[]);
        tracer.event_in(attempt, "driver.tick", &[]);
        clock.advance_ms(20.0);
        tracer.end_span(attempt, &[]);
        tracer.end_span(root, &[]);
        let events = tracer.events();
        assert_eq!(events.len(), 5);
        assert_eq!(events[1].parent, Some(root.span_id));
        assert_eq!(events[2].ctx, Some(attempt));
        assert_eq!(events[4].at_ms, 40.0);
        assert!(tracer.current_context().is_none(), "begin_span leaves the stack alone");
    }

    #[test]
    fn span_context_encodes_and_decodes() {
        let ctx = SpanContext { trace_id: TraceId(12), span_id: SpanId(34) };
        assert_eq!(ctx.encode(), "t12.s34");
        assert_eq!(SpanContext::decode("t12.s34"), Some(ctx));
        assert_eq!(SpanContext::decode("nonsense"), None);
        assert_eq!(SpanContext::decode("t1.sx"), None);
    }

    #[test]
    fn manual_clock_makes_logs_replayable() {
        let run = || {
            let (clock, tracer) = manual_tracer();
            for i in 0..3 {
                tracer.event("tick", &[("i", &i.to_string())]);
                clock.advance_ms(10.0);
            }
            tracer.event_at(99.5, "done", &[]);
            tracer.render_log()
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "same driver sequence must produce byte-identical logs");
        assert!(a.contains("0.000 event tick i=0"));
        assert!(a.contains("20.000 event tick i=2"));
        assert!(a.contains("99.500 event done"));
    }

    #[test]
    fn ids_are_sequential_and_deterministic() {
        let run = || {
            let (_clock, tracer) = manual_tracer();
            let a = tracer.span("a", &[]);
            let b = tracer.span("b", &[]);
            (a.context(), b.context())
        };
        let (a1, b1) = run();
        let (a2, b2) = run();
        assert_eq!((a1, b1), (a2, b2), "sequence counters replay identically");
        assert_eq!(a1.span_id, SpanId(1));
        assert_eq!(b1.span_id, SpanId(2));
        assert_eq!(b1.trace_id, a1.trace_id, "b nests under a via the thread stack");
    }

    #[test]
    fn tracer_len_and_emptiness() {
        let (_clock, tracer) = manual_tracer();
        assert!(tracer.is_empty());
        tracer.event("x", &[]);
        assert_eq!(tracer.len(), 1);
        assert!(!tracer.is_empty());
    }

    #[test]
    fn tail_sampling_keeps_interesting_traces_and_drops_the_rest() {
        let (clock, tracer) = manual_tracer();
        // trace 1: fast and boring — must drop
        {
            let _s = tracer.span("serve.request", &[]);
            clock.advance_ms(0.1);
        }
        // trace 2: slow — kept by duration
        let slow = {
            let s = tracer.span("serve.request", &[]);
            clock.advance_ms(25.0);
            s.context().trace_id
        };
        // trace 3: shed — kept by event name
        {
            let s = tracer.span("serve.request", &[]);
            tracer.event_in(s.context(), "serve.shed", &[("shard", "0")]);
            clock.advance_ms(0.1);
        }
        // trace 4: errored — kept by field key
        {
            let _s = tracer.span("serve.request", &[("error", "timeout")]);
            clock.advance_ms(0.1);
        }
        // ctx-less driver event: always survives
        tracer.event_at(99.0, "driver.tick", &[]);
        let report = tracer.sample_tail(
            &TailPolicy::new().with_min_dur_ms(10.0).keep_event("serve.shed").keep_field("error"),
        );
        assert_eq!(report.traces_seen, 4);
        assert_eq!(report.traces_kept, 3, "only the fast boring trace drops");
        assert!(report.events_after < report.events_before);
        let log = tracer.render_log();
        assert!(log.contains(&format!("trace={slow}")), "slow trace survives: {log}");
        assert!(log.contains("serve.shed"));
        assert!(log.contains("error=timeout"));
        assert!(log.contains("driver.tick"), "ctx-less events survive");
        assert_eq!(tracer.len(), report.events_after);
    }

    #[test]
    fn tail_sampling_never_drops_open_traces_or_pinned_ids() {
        let (_clock, tracer) = manual_tracer();
        let open = tracer.begin_span("driver.key", None, &[]);
        let closed = {
            let s = tracer.span("fast", &[]);
            s.context().trace_id
        };
        let report = tracer.sample_tail(&TailPolicy::new());
        assert_eq!(report.traces_kept, 1, "the open trace survives a keep-nothing policy");
        assert!(tracer.render_log().contains("driver.key"));
        assert!(!tracer.render_log().contains("fast"));
        tracer.end_span(open, &[]);

        let (_clock2, tracer2) = manual_tracer();
        let pinned = {
            let s = tracer2.span("fast", &[]);
            s.context().trace_id
        };
        let _ = closed;
        let report = tracer2.sample_tail(&TailPolicy::new().keep_trace(pinned));
        assert_eq!(report.traces_kept, 1, "pinned ids survive");
        assert_eq!(report.events_after, report.events_before);
    }

    #[test]
    fn tail_sampling_is_deterministic() {
        let run = || {
            let (clock, tracer) = manual_tracer();
            for i in 0..8 {
                let s = tracer.span("op", &[("i", &i.to_string())]);
                if i % 3 == 0 {
                    tracer.event_in(s.context(), "op.flag", &[]);
                }
                clock.advance_ms(if i % 2 == 0 { 1.0 } else { 20.0 });
            }
            tracer.sample_tail(&TailPolicy::new().with_min_dur_ms(10.0).keep_event("op.flag"));
            tracer.render_log()
        };
        assert_eq!(run(), run(), "sampling must replay byte-identically");
    }

    #[test]
    fn detached_spans_are_roots_and_the_open_spans_come_back() {
        let (_clock, tracer) = manual_tracer();
        let outer = tracer.span("outer", &[]);
        {
            let _detached = tracer.enter(None);
            assert_eq!(tracer.current_context(), None);
            let _inner = tracer.span("inner", &[]);
        }
        assert_eq!(tracer.current_context(), Some(outer.context()));
        let inner = tracer.events().into_iter().find(|e| e.name == "inner");
        assert_eq!(inner.map(|e| e.parent), Some(None), "a span opened while detached is a root");
    }

    #[test]
    fn an_entered_context_parents_plain_spans_and_the_open_spans_come_back() {
        let (_clock, tracer) = manual_tracer();
        let carried = tracer.begin_span("driver.key", None, &[]);
        let outer = tracer.span("outer", &[]);
        {
            let _entered = tracer.enter(Some(carried));
            assert_eq!(tracer.current_context(), Some(carried));
            let _inner = tracer.span("inner", &[]);
        }
        assert_eq!(tracer.current_context(), Some(outer.context()));
        let events = tracer.events();
        assert_eq!(events.len(), 4, "entering records nothing: {events:?}");
        let inner = &events[2];
        assert_eq!(inner.parent, Some(carried.span_id));
        assert_eq!(inner.ctx.map(|c| c.trace_id), Some(carried.trace_id));
    }

    #[test]
    fn two_tracers_on_one_thread_never_parent_each_others_spans() {
        let (_ca, a) = manual_tracer();
        let (_cb, b) = manual_tracer();
        let a_outer = a.span("a.outer", &[]);
        let b_root = b.span("b.root", &[]);
        {
            let _detached = a.enter(None);
            assert_eq!(b.current_context(), Some(b_root.context()), "detaching a leaves b alone");
        }
        let _a_inner = a.span("a.inner", &[]);
        let starts = |t: &Tracer| -> Vec<Option<SpanId>> {
            t.events().iter().filter(|e| e.kind == EventKind::SpanStart).map(|e| e.parent).collect()
        };
        // both tracers number their first span 1, so only the tracer tag
        // keeps b's root from parenting under a's open span
        assert_eq!(a_outer.context(), b_root.context());
        assert_eq!(starts(&b), vec![None]);
        assert_eq!(starts(&a), vec![None, Some(a_outer.context().span_id)]);
    }

    #[test]
    fn guards_dropped_out_of_order_leave_no_stale_entry() {
        let (_clock, tracer) = manual_tracer();
        let carried = tracer.begin_span("driver.key", None, &[]);
        let a = tracer.span("a", &[]);
        let entered = tracer.enter(Some(carried));
        let b = tracer.span("b", &[]);
        let detached = tracer.enter(None);
        drop(a);
        drop(entered);
        assert_eq!(tracer.current_context(), None, "still detached");
        drop(detached);
        assert_eq!(tracer.current_context(), Some(b.context()));
        drop(b);
        assert_eq!(tracer.current_context(), None);
        STACK.with_borrow(|stack| {
            assert!(stack.iter().all(|(t, _)| *t != tracer.id), "stale entries: {stack:?}");
        });
    }
}
