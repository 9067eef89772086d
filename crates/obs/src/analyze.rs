//! Span-tree reconstruction and analysis over the tracer's event stream.
//!
//! [`TraceForest::from_events`] folds the flat [`TraceEvent`] log back into
//! causal trees: one tree per [`TraceId`], spans linked start→end by
//! [`SpanId`] and child→parent by the parent id recorded on span starts.
//! On top of the forest it computes the standard latency diagnostics —
//! per-trace critical paths (the chain of spans that bounds end-to-end
//! latency) and per-name self-time rollups (time inside a span not covered
//! by its children) — and exports Chrome trace-event JSON loadable in
//! Perfetto / `chrome://tracing`. Under a `ManualClock` the export is
//! deterministic: spans serialize in span-id order with sorted object keys
//! (vendored `serde` uses `BTreeMap`), so same-seed runs produce
//! byte-identical files.

use std::collections::BTreeMap;

use serde::Value;

use crate::trace::{EventKind, SpanContext, SpanId, TraceEvent, TraceId};

/// One reconstructed span: identity, causal links, interval, annotations.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanNode {
    /// The span's trace and span id.
    pub ctx: SpanContext,
    /// Parent span id, `None` for trace roots.
    pub parent: Option<SpanId>,
    /// Span name (from the start event).
    pub name: String,
    /// Start timestamp, milliseconds.
    pub start_ms: f64,
    /// End timestamp, milliseconds; equals `start_ms` when no end event
    /// was recorded (span still open when the log was captured).
    pub end_ms: f64,
    /// Merged start+end annotations, sorted by key.
    pub fields: Vec<(String, String)>,
    /// Child span ids, ascending.
    pub children: Vec<SpanId>,
}

impl SpanNode {
    /// The span's wall duration in milliseconds.
    pub fn duration_ms(&self) -> f64 {
        (self.end_ms - self.start_ms).max(0.0)
    }

    /// The value of annotation `key`, if present.
    pub fn field(&self, key: &str) -> Option<&str> {
        self.fields.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
    }

    /// The operator label: `name[value]` when the span carries the
    /// `refine_field` annotation, else the bare name. Cost profiles,
    /// critical paths and diagnosis all key operators this way, so their
    /// outputs join directly.
    pub fn operator_label(&self, refine_field: Option<&str>) -> String {
        match refine_field.and_then(|f| self.field(f)) {
            Some(v) => format!("{}[{}]", self.name, v),
            None => self.name.clone(),
        }
    }
}

/// A point event attributed to its owning span (if it had one).
#[derive(Debug, Clone, PartialEq)]
pub struct PointEvent {
    /// Event name.
    pub name: String,
    /// Timestamp, milliseconds.
    pub at_ms: f64,
    /// The span the event belongs to, when it was emitted inside one.
    pub ctx: Option<SpanContext>,
    /// Annotations, sorted by key.
    pub fields: Vec<(String, String)>,
}

/// The reconstructed causal forest: every trace's span tree plus the point
/// events attributed to spans.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TraceForest {
    spans: BTreeMap<u64, SpanNode>,
    roots: BTreeMap<u64, Vec<SpanId>>,
    orphans: Vec<SpanId>,
    points: Vec<PointEvent>,
    unresolved_points: usize,
}

fn sorted_fields(fields: &[(String, String)]) -> Vec<(String, String)> {
    let mut out = fields.to_vec();
    out.sort();
    out
}

impl TraceForest {
    /// Folds a recorded event stream back into span trees.
    pub fn from_events(events: &[TraceEvent]) -> Self {
        let mut spans: BTreeMap<u64, SpanNode> = BTreeMap::new();
        let mut points = Vec::new();
        for e in events {
            match e.kind {
                EventKind::SpanStart => {
                    let ctx = match e.ctx {
                        Some(ctx) => ctx,
                        None => continue,
                    };
                    spans.insert(
                        ctx.span_id.0,
                        SpanNode {
                            ctx,
                            parent: e.parent,
                            name: e.name.clone(),
                            start_ms: e.at_ms,
                            end_ms: e.at_ms,
                            fields: e.fields.clone(),
                            children: Vec::new(),
                        },
                    );
                }
                EventKind::SpanEnd => {
                    if let Some(node) = e.ctx.and_then(|c| spans.get_mut(&c.span_id.0)) {
                        node.end_ms = e.at_ms;
                        node.fields.extend(e.fields.iter().cloned());
                    }
                }
                EventKind::Event => points.push(PointEvent {
                    name: e.name.clone(),
                    at_ms: e.at_ms,
                    ctx: e.ctx,
                    fields: sorted_fields(&e.fields),
                }),
            }
        }
        for node in spans.values_mut() {
            node.fields = sorted_fields(&node.fields);
        }
        Self::link(spans, points)
    }

    /// Builds child lists, roots, and orphan/unresolved bookkeeping from
    /// an already-assembled span map.
    fn link(mut spans: BTreeMap<u64, SpanNode>, points: Vec<PointEvent>) -> Self {
        let ids: Vec<u64> = spans.keys().copied().collect();
        let mut orphans = Vec::new();
        let mut roots: BTreeMap<u64, Vec<SpanId>> = BTreeMap::new();
        let mut child_links: Vec<(u64, SpanId)> = Vec::new();
        for id in &ids {
            let node = &spans[id];
            match node.parent {
                Some(parent) if spans.contains_key(&parent.0) => {
                    child_links.push((parent.0, node.ctx.span_id));
                }
                Some(_) => orphans.push(node.ctx.span_id),
                None => roots.entry(node.ctx.trace_id.0).or_default().push(node.ctx.span_id),
            }
        }
        for (parent, child) in child_links {
            if let Some(p) = spans.get_mut(&parent) {
                p.children.push(child);
            }
        }
        let unresolved_points = points
            .iter()
            .filter(|p| p.ctx.is_some_and(|c| !spans.contains_key(&c.span_id.0)))
            .count();
        TraceForest { spans, roots, orphans, points, unresolved_points }
    }

    /// Number of reconstructed spans.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// True when the forest holds no spans.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Distinct traces that have at least one root span.
    pub fn trace_ids(&self) -> Vec<TraceId> {
        self.roots.keys().map(|t| TraceId(*t)).collect()
    }

    /// The span with the given id, if present.
    pub fn span(&self, id: SpanId) -> Option<&SpanNode> {
        self.spans.get(&id.0)
    }

    /// All spans, ascending by span id.
    pub fn spans(&self) -> impl Iterator<Item = &SpanNode> {
        self.spans.values()
    }

    /// Root span ids of `trace`, ascending.
    pub fn roots_of(&self, trace: TraceId) -> &[SpanId] {
        self.roots.get(&trace.0).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Spans whose recorded parent never appeared in the stream — a
    /// context-propagation bug when nonzero.
    pub fn orphans(&self) -> &[SpanId] {
        &self.orphans
    }

    /// Point events whose carried context resolves to no known span.
    pub fn unresolved_points(&self) -> usize {
        self.unresolved_points
    }

    /// All point events, in record order.
    pub fn points(&self) -> &[PointEvent] {
        &self.points
    }

    /// Point events attributed to span `id`, in record order.
    pub fn points_in(&self, id: SpanId) -> Vec<&PointEvent> {
        self.points.iter().filter(|p| p.ctx.map(|c| c.span_id) == Some(id)).collect()
    }

    /// The latency-bounding chain of `trace`: starting from the trace's
    /// longest root, repeatedly descend into the child that finishes last
    /// (ties broken by lower span id). Empty when the trace is unknown.
    pub fn critical_path(&self, trace: TraceId) -> Vec<SpanId> {
        let root = self
            .roots_of(trace)
            .iter()
            .copied()
            .max_by(|a, b| {
                let (da, db) = (self.spans[&a.0].duration_ms(), self.spans[&b.0].duration_ms());
                da.total_cmp(&db).then(b.0.cmp(&a.0))
            })
            .into_iter()
            .next();
        let mut path = Vec::new();
        let mut cursor = root;
        while let Some(id) = cursor {
            path.push(id);
            cursor = self.spans[&id.0].children.iter().copied().max_by(|a, b| {
                let (ea, eb) = (self.spans[&a.0].end_ms, self.spans[&b.0].end_ms);
                ea.total_cmp(&eb).then(b.0.cmp(&a.0))
            });
        }
        path
    }

    /// The critical path rendered as operator labels
    /// ([`SpanNode::operator_label`]), root to leaf.
    pub fn critical_path_labels(&self, trace: TraceId, refine_field: Option<&str>) -> Vec<String> {
        self.critical_path(trace)
            .into_iter()
            .filter_map(|id| self.span(id))
            .map(|s| s.operator_label(refine_field))
            .collect()
    }

    /// Time spent inside span `id` not covered by its children's
    /// durations, clamped at zero (children may overlap when parallel).
    pub fn self_time_ms(&self, id: SpanId) -> f64 {
        let node = match self.spans.get(&id.0) {
            Some(n) => n,
            None => return 0.0,
        };
        let child_ms: f64 = node.children.iter().map(|c| self.spans[&c.0].duration_ms()).sum();
        (node.duration_ms() - child_ms).max(0.0)
    }

    /// Per-span-name totals of self time across one trace — the latency
    /// breakdown ("where does the time actually go").
    pub fn self_time_rollup(&self, trace: TraceId) -> BTreeMap<String, f64> {
        let mut rollup = BTreeMap::new();
        for node in self.spans.values().filter(|n| n.ctx.trace_id == trace) {
            *rollup.entry(node.name.clone()).or_insert(0.0) += self.self_time_ms(node.ctx.span_id);
        }
        rollup
    }

    /// Exports the forest as Chrome trace-event JSON (the format Perfetto
    /// and `chrome://tracing` load): spans as complete (`"ph":"X"`) events
    /// with `ts`/`dur` in microseconds, point events as instants
    /// (`"ph":"i"`), `pid` = trace id, `tid` = span id. Span-id iteration
    /// order plus sorted object keys make the bytes deterministic.
    pub fn to_chrome_json(&self) -> String {
        let mut trace_events = Vec::with_capacity(self.spans.len() + self.points.len());
        for node in self.spans.values() {
            let mut args = BTreeMap::new();
            for (k, v) in &node.fields {
                args.insert(k.clone(), Value::Str(v.clone()));
            }
            if let Some(parent) = node.parent {
                args.insert("parent".to_string(), Value::Int(parent.0 as i64));
            }
            let mut obj = BTreeMap::new();
            obj.insert("args".to_string(), Value::Object(args));
            obj.insert("cat".to_string(), Value::Str("coda".to_string()));
            obj.insert("dur".to_string(), Value::Float(node.duration_ms() * 1000.0));
            obj.insert("name".to_string(), Value::Str(node.name.clone()));
            obj.insert("ph".to_string(), Value::Str("X".to_string()));
            obj.insert("pid".to_string(), Value::Int(node.ctx.trace_id.0 as i64));
            obj.insert("tid".to_string(), Value::Int(node.ctx.span_id.0 as i64));
            obj.insert("ts".to_string(), Value::Float(node.start_ms * 1000.0));
            trace_events.push(Value::Object(obj));
        }
        for point in &self.points {
            let mut args = BTreeMap::new();
            for (k, v) in &point.fields {
                args.insert(k.clone(), Value::Str(v.clone()));
            }
            let mut obj = BTreeMap::new();
            obj.insert("args".to_string(), Value::Object(args));
            obj.insert("cat".to_string(), Value::Str("coda".to_string()));
            obj.insert("name".to_string(), Value::Str(point.name.clone()));
            obj.insert("ph".to_string(), Value::Str("i".to_string()));
            let (pid, tid, scope) = match point.ctx {
                Some(ctx) => (ctx.trace_id.0 as i64, ctx.span_id.0 as i64, "t"),
                None => (0, 0, "g"),
            };
            obj.insert("pid".to_string(), Value::Int(pid));
            obj.insert("s".to_string(), Value::Str(scope.to_string()));
            obj.insert("tid".to_string(), Value::Int(tid));
            obj.insert("ts".to_string(), Value::Float(point.at_ms * 1000.0));
            trace_events.push(Value::Object(obj));
        }
        let mut top = BTreeMap::new();
        top.insert("displayTimeUnit".to_string(), Value::Str("ms".to_string()));
        top.insert("traceEvents".to_string(), Value::Array(trace_events));
        // value-model rendering is infallible; an empty string would only
        // appear if the vendored serde_json grew a real error path
        serde_json::to_string(&Value::Object(top)).unwrap_or_default()
    }

    /// Parses Chrome trace-event JSON produced by
    /// [`TraceForest::to_chrome_json`] back into a forest — the round-trip
    /// proof that the export loses no causal structure.
    ///
    /// # Errors
    ///
    /// A description of the first malformed construct.
    pub fn from_chrome_json(json: &str) -> Result<Self, String> {
        let value = serde_json::parse(json).map_err(|e| e.to_string())?;
        let top = value.as_object().ok_or("top level must be an object")?;
        let events =
            top.get("traceEvents").and_then(Value::as_array).ok_or("missing traceEvents array")?;
        let mut spans: BTreeMap<u64, SpanNode> = BTreeMap::new();
        let mut points = Vec::new();
        for (i, event) in events.iter().enumerate() {
            let obj = event.as_object().ok_or_else(|| format!("traceEvents[{i}] not an object"))?;
            let get_str = |key: &str| obj.get(key).and_then(Value::as_str);
            let get_num = |key: &str| match obj.get(key) {
                Some(Value::Int(n)) => Some(*n as f64),
                Some(Value::Float(f)) => Some(*f),
                _ => None,
            };
            let ph = get_str("ph").ok_or_else(|| format!("traceEvents[{i}] missing ph"))?;
            let name = get_str("name")
                .ok_or_else(|| format!("traceEvents[{i}] missing name"))?
                .to_string();
            let ts = get_num("ts").ok_or_else(|| format!("traceEvents[{i}] missing ts"))?;
            let pid = get_num("pid").unwrap_or(0.0) as u64;
            let tid = get_num("tid").unwrap_or(0.0) as u64;
            let args = obj.get("args").and_then(Value::as_object);
            let mut fields = Vec::new();
            let mut parent = None;
            if let Some(args) = args {
                for (k, v) in args {
                    match v {
                        Value::Int(n) if k == "parent" => parent = Some(SpanId(*n as u64)),
                        Value::Str(s) => fields.push((k.clone(), s.clone())),
                        _ => return Err(format!("traceEvents[{i}] has non-string arg {k}")),
                    }
                }
            }
            let ctx = SpanContext { trace_id: TraceId(pid), span_id: SpanId(tid) };
            match ph {
                "X" => {
                    let dur = get_num("dur").unwrap_or(0.0);
                    spans.insert(
                        tid,
                        SpanNode {
                            ctx,
                            parent,
                            name,
                            start_ms: ts / 1000.0,
                            end_ms: (ts + dur) / 1000.0,
                            fields,
                            children: Vec::new(),
                        },
                    );
                }
                "i" => {
                    let ctx = (tid != 0).then_some(ctx);
                    points.push(PointEvent { name, at_ms: ts / 1000.0, ctx, fields });
                }
                other => return Err(format!("traceEvents[{i}] has unsupported ph {other:?}")),
            }
        }
        Ok(Self::link(spans, points))
    }

    /// True when `other` has the same causal structure: span ids, names,
    /// parent links, children, fields, and point attribution (timestamps
    /// excluded — they pick up float rounding through the µs export).
    pub fn same_shape(&self, other: &TraceForest) -> bool {
        self.spans.len() == other.spans.len()
            && self.spans.iter().all(|(id, a)| {
                other.spans.get(id).is_some_and(|b| {
                    a.ctx == b.ctx
                        && a.parent == b.parent
                        && a.name == b.name
                        && a.fields == b.fields
                        && a.children == b.children
                })
            })
            && self.roots == other.roots
            && self.orphans == other.orphans
            && self.points.len() == other.points.len()
            && self
                .points
                .iter()
                .zip(&other.points)
                .all(|(a, b)| a.name == b.name && a.ctx == b.ctx && a.fields == b.fields)
    }

    /// One-line human summary per trace: root name, span count, duration.
    pub fn render_summary(&self) -> String {
        let mut out = String::new();
        for (trace, roots) in &self.roots {
            let n = self.spans.values().filter(|s| s.ctx.trace_id.0 == *trace).count();
            let root = &self.spans[&roots[0].0];
            let end = self
                .spans
                .values()
                .filter(|s| s.ctx.trace_id.0 == *trace)
                .map(|s| s.end_ms)
                .fold(root.start_ms, f64::max);
            out.push_str(&format!(
                "trace {trace}: root {} spans {n} dur {:.3} ms\n",
                root.name,
                end - root.start_ms
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::{Clock, ManualClock};
    use crate::trace::Tracer;
    use std::sync::Arc;

    fn manual_tracer() -> (Arc<ManualClock>, Tracer) {
        let clock = Arc::new(ManualClock::new());
        let tracer = Tracer::new(Arc::clone(&clock) as Arc<dyn Clock>);
        (clock, tracer)
    }

    /// root(0..40) > [a(5..15), b(10..40 > c(12..35))], plus two points.
    fn sample_tracer() -> Tracer {
        let (clock, tracer) = manual_tracer();
        let root = tracer.begin_span("root", None, &[("req", "r1")]);
        clock.set_ms(5.0);
        let a = tracer.begin_span("work.a", Some(root), &[]);
        tracer.event_in(a, "a.tick", &[]);
        clock.set_ms(10.0);
        let b = tracer.begin_span("work.b", Some(root), &[]);
        clock.set_ms(12.0);
        let c = tracer.begin_span("work.c", Some(b), &[]);
        clock.set_ms(15.0);
        tracer.end_span(a, &[]);
        clock.set_ms(35.0);
        tracer.end_span(c, &[]);
        clock.set_ms(40.0);
        tracer.end_span(b, &[]);
        tracer.event("loose", &[]);
        tracer.end_span(root, &[]);
        tracer
    }

    #[test]
    fn forest_reconstructs_tree_and_intervals() {
        let tracer = sample_tracer();
        let forest = TraceForest::from_events(&tracer.events());
        assert_eq!(forest.len(), 4);
        assert!(forest.orphans().is_empty());
        assert_eq!(forest.unresolved_points(), 0);
        assert_eq!(forest.trace_ids(), vec![TraceId(1)]);
        let roots = forest.roots_of(TraceId(1));
        assert_eq!(roots.len(), 1);
        let root = forest.span(roots[0]).unwrap();
        assert_eq!(root.name, "root");
        assert_eq!(root.children, vec![SpanId(2), SpanId(3)]);
        assert_eq!((root.start_ms, root.end_ms), (0.0, 40.0));
        assert_eq!(root.field("req"), Some("r1"));
        assert_eq!(forest.points_in(SpanId(2)).len(), 1, "a.tick lands in work.a");
    }

    #[test]
    fn critical_path_follows_latest_finishing_children() {
        let tracer = sample_tracer();
        let forest = TraceForest::from_events(&tracer.events());
        let path: Vec<String> = forest
            .critical_path(TraceId(1))
            .into_iter()
            .map(|id| forest.span(id).unwrap().name.clone())
            .collect();
        assert_eq!(path, vec!["root", "work.b", "work.c"]);
        assert!(forest.critical_path(TraceId(99)).is_empty());
    }

    #[test]
    fn self_time_subtracts_children() {
        let tracer = sample_tracer();
        let forest = TraceForest::from_events(&tracer.events());
        // root 40 - (a 10 + b 30) = 0; b 30 - c 23 = 7.
        assert_eq!(forest.self_time_ms(SpanId(1)), 0.0);
        assert_eq!(forest.self_time_ms(SpanId(3)), 7.0);
        let rollup = forest.self_time_rollup(TraceId(1));
        assert_eq!(rollup["work.a"], 10.0);
        assert_eq!(rollup["work.b"], 7.0);
        assert_eq!(rollup["work.c"], 23.0);
    }

    #[test]
    fn orphans_and_unresolved_points_are_flagged() {
        let (_clock, tracer) = manual_tracer();
        let ghost = SpanContext { trace_id: TraceId(9), span_id: SpanId(99) };
        let _real = tracer.begin_span("child", Some(ghost), &[]);
        tracer.event_in(ghost, "lost", &[]);
        let forest = TraceForest::from_events(&tracer.events());
        assert_eq!(forest.orphans(), &[SpanId(1)]);
        assert_eq!(forest.unresolved_points(), 1);
    }

    #[test]
    fn chrome_json_round_trips_and_is_deterministic() {
        let build = || {
            let tracer = sample_tracer();
            TraceForest::from_events(&tracer.events())
        };
        let forest = build();
        let json = forest.to_chrome_json();
        assert_eq!(json, build().to_chrome_json(), "export is byte-deterministic");
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"displayTimeUnit\":\"ms\""));
        let parsed = TraceForest::from_chrome_json(&json).expect("round-trip parse");
        assert!(forest.same_shape(&parsed));
        assert_eq!(
            parsed.critical_path(TraceId(1)),
            forest.critical_path(TraceId(1)),
            "causal analysis survives the export"
        );
        assert!(TraceForest::from_chrome_json("[]").is_err());
        assert!(TraceForest::from_chrome_json("{\"traceEvents\":[{}]}").is_err());
    }

    /// Satellite: equal-end (and equal-self-time) critical-path ties break
    /// by lowest span id, never by map/event iteration order — permuting
    /// the event insertion order must not change the chosen path.
    #[test]
    fn critical_path_ties_break_by_span_id_under_permuted_insertion() {
        let ctx = |span: u64| SpanContext { trace_id: TraceId(1), span_id: SpanId(span) };
        let start = |span: u64, parent: Option<u64>, at: f64| TraceEvent {
            name: format!("work.{span}"),
            kind: EventKind::SpanStart,
            at_ms: at,
            ctx: Some(ctx(span)),
            parent: parent.map(SpanId),
            fields: Vec::new(),
        };
        let end = |span: u64, at: f64| TraceEvent {
            name: format!("work.{span}"),
            kind: EventKind::SpanEnd,
            at_ms: at,
            ctx: Some(ctx(span)),
            parent: None,
            fields: Vec::new(),
        };
        // root 1 with three children 2, 3, 4: all start at 5 and end at 20
        // — identical durations and self-times, a full three-way tie. The
        // concurrent siblings' starts and ends may land in the log in any
        // interleaving; every one must reconstruct the same path.
        let orders: [[u64; 3]; 6] =
            [[2, 3, 4], [2, 4, 3], [3, 2, 4], [3, 4, 2], [4, 2, 3], [4, 3, 2]];
        for start_order in orders {
            for end_order in orders {
                let mut events = vec![start(1, None, 0.0)];
                events.extend(start_order.iter().map(|&s| start(s, Some(1), 5.0)));
                events.extend(end_order.iter().map(|&s| end(s, 20.0)));
                events.push(end(1, 25.0));
                let forest = TraceForest::from_events(&events);
                assert_eq!(
                    forest.critical_path(TraceId(1)),
                    vec![SpanId(1), SpanId(2)],
                    "equal-end children must tie-break to the lowest span id \
                     (starts {start_order:?}, ends {end_order:?})"
                );
            }
        }
        // equal-duration *roots* tie the same way
        let twin_roots = vec![start(1, None, 0.0), start(2, None, 0.0), end(1, 9.0), end(2, 9.0)];
        let forest = TraceForest::from_events(&twin_roots);
        assert_eq!(forest.critical_path(TraceId(1)), vec![SpanId(1)]);
    }

    #[test]
    fn summary_names_roots() {
        let tracer = sample_tracer();
        let forest = TraceForest::from_events(&tracer.events());
        let summary = forest.render_summary();
        assert!(summary.contains("trace 1: root root spans 4 dur 40.000 ms"));
    }
}
