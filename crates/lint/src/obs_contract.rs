//! Observability contract: statically extracts every metric
//! registration/observation name, label key and span/event name in the
//! workspace into a canonical [`ObsSchema`] (committed as
//! `OBS_SCHEMA.json`), and checks the surface for the interface-drift
//! failure modes that unchecked stringly-typed metrics invite:
//!
//! - **consumed-but-never-produced** — a `coda_*` name read from a
//!   snapshot, asserted by a smoke test, or referenced by an SLO spec that
//!   no code path ever registers/observes;
//! - **kind conflicts** — one name used as both a counter and a histogram;
//! - **label-set mismatches** — one base name split by two different label
//!   keys (`{shard=…}` in one crate, `{spec=…}` in another);
//! - **case/underscore collisions** — names that differ only by case or
//!   `_` placement, which dashboards and `name_parts` treat as distinct;
//! - **unproduced keep_event names** — a tail-sampling policy pinning an
//!   event name nothing emits keeps nothing.
//!
//! All of the above are [`Rule::ObsContract`] (baselineable). Drift between
//! the extracted schema and the committed one is [`Rule::ObsSchemaDrift`]
//! and is **never** baselineable: regenerate with
//! `cargo run -p coda-lint -- --write-obs-schema OBS_SCHEMA.json`, review,
//! commit.

use std::collections::BTreeMap;

use serde::impl_serde_struct;

use crate::items::matching_paren;
use crate::lexer::TokKind;
use crate::source::SourceFile;
use crate::{Finding, Rule};

/// One metric family in the schema.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MetricSchema {
    /// `counter` | `gauge` | `histogram` (first by sort order on conflict —
    /// conflicts are also findings).
    pub kind: String,
    /// Label keys the family is split by (`labeled_name` second argument).
    pub labels: Vec<String>,
}

impl_serde_struct!(MetricSchema { kind, labels });

/// The whole extracted observability surface, canonically ordered.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ObsSchema {
    /// Format version (currently 1).
    pub version: u64,
    /// Metric name → family schema.
    pub metrics: BTreeMap<String, MetricSchema>,
    /// Every span name passed to `span`/`begin_span`.
    pub spans: Vec<String>,
    /// Every event name passed to `event`/`event_at`.
    pub events: Vec<String>,
}

impl_serde_struct!(ObsSchema { version, metrics, spans, events });

impl ObsSchema {
    /// Canonical pretty JSON: keys sorted (BTreeMap), two-space indent,
    /// trailing newline — byte-identical across extractions by
    /// construction.
    pub fn to_pretty_json(&self) -> String {
        let mut out = String::new();
        render(&serde::Serialize::to_value(self), 0, &mut out);
        out.push('\n');
        out
    }

    /// Parses a committed schema file.
    ///
    /// # Errors
    ///
    /// Returns a message when the text is not valid schema JSON.
    pub fn parse(text: &str) -> Result<ObsSchema, String> {
        let value = serde_json::parse(text).map_err(|e| format!("bad schema JSON: {e}"))?;
        serde::Deserialize::from_value(&value).map_err(|e| format!("bad schema shape: {e}"))
    }
}

fn render(v: &serde::Value, indent: usize, out: &mut String) {
    let pad = "  ".repeat(indent + 1);
    match v {
        serde::Value::Object(map) => {
            if map.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push_str("{\n");
            for (i, (k, val)) in map.iter().enumerate() {
                out.push_str(&pad);
                out.push_str(&serde_json::to_string(k).unwrap_or_default());
                out.push_str(": ");
                render(val, indent + 1, out);
                if i + 1 < map.len() {
                    out.push(',');
                }
                out.push('\n');
            }
            out.push_str(&"  ".repeat(indent));
            out.push('}');
        }
        serde::Value::Array(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return;
            }
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                render(item, indent, out);
            }
            out.push(']');
        }
        other => out.push_str(&serde_json::to_string(other).unwrap_or_default()),
    }
}

/// Where something was seen, for finding placement.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct Site {
    file: String,
    line: u32,
}

/// Everything extracted before checking.
#[derive(Debug, Default)]
struct Extraction {
    /// name → kind → first site.
    kinds: BTreeMap<String, BTreeMap<&'static str, Site>>,
    /// name → label key → first site.
    labels: BTreeMap<String, BTreeMap<String, Site>>,
    /// Loose references (snapshot reads, SLO specs, asserts): name → sites.
    refs: BTreeMap<String, Vec<Site>>,
    /// Span names → first site.
    spans: BTreeMap<String, Site>,
    /// Event names → first site.
    events: BTreeMap<String, Site>,
    /// `keep_event` pins: name → site.
    keeps: BTreeMap<String, Site>,
}

/// Snapshot-side receivers: `.counter("x")` on one of these reads a parsed
/// snapshot instead of registering on the live registry.
const SNAPSHOT_RECEIVERS: &[&str] = &["snap", "snapshot", "parsed", "delta", "before", "after"];

/// Extracts the observability surface and checks the contract. Returns the
/// canonical schema and the findings.
pub fn check(files: &[SourceFile]) -> (ObsSchema, Vec<Finding>) {
    let mut ex = Extraction::default();
    for sf in files {
        extract(sf, &mut ex);
    }
    let schema = assemble(&ex);
    let findings = contract_findings(&ex);
    (schema, findings)
}

fn extract(sf: &SourceFile, ex: &mut Extraction) {
    let toks = &sf.tokens;
    // Str arg positions already claimed by a classified call, so the
    // catch-all reference scan does not double-count producer names
    let mut claimed = vec![false; toks.len()];

    for i in 0..toks.len() {
        let t = &toks[i];
        if sf.in_test(i) {
            continue;
        }
        if t.kind != TokKind::Ident || !matches!(toks.get(i + 1), Some(p) if p.is_punct('(')) {
            continue;
        }
        let close = matching_paren(toks, i + 1, toks.len());
        let strs: Vec<usize> =
            (i + 2..close).filter(|&j| toks[j].kind == TokKind::Str && !sf.in_test(j)).collect();
        // span/event/keep_event names are direct arguments; strings nested
        // in brackets or inner calls are field keys (`&[("client", c)]`),
        // not names — a dynamic-name call registers nothing
        let top_strs: Vec<usize> = {
            let mut depth = 0i32;
            let mut out = Vec::new();
            for (j, t) in toks.iter().enumerate().take(close).skip(i + 2) {
                if t.is_punct('(') || t.is_punct('[') {
                    depth += 1;
                } else if t.is_punct(')') || t.is_punct(']') {
                    depth -= 1;
                } else if depth == 0 && t.kind == TokKind::Str && !sf.in_test(j) {
                    out.push(j);
                }
            }
            out
        };
        let site = |j: usize| Site { file: sf.rel.clone(), line: toks[j].line };

        let kind: Option<&'static str> = match t.text.as_str() {
            "count" | "counter" => Some("counter"),
            "gauge" => Some("gauge"),
            "histogram" => Some("histogram"),
            _ => None,
        };
        if let Some(kind) = kind {
            // every metric-shaped string in the call is a produced name —
            // conditional-name sites pick at runtime
            // (`count(if ok { "coda_a" } else { "coda_b" }, 1)`)
            let names: Vec<(usize, String)> =
                strs.iter().filter_map(|&j| metric_name(&toks[j].text).map(|n| (j, n))).collect();
            if names.is_empty() {
                continue;
            }
            let snapshot_read = t.is_ident("counter") && is_snapshot_receiver(toks, i);
            for (name_j, name) in names {
                claimed[name_j] = true;
                if snapshot_read {
                    ex.refs.entry(name).or_default().push(site(name_j));
                    continue;
                }
                ex.kinds.entry(name).or_default().entry(kind).or_insert_with(|| site(name_j));
            }
            continue;
        }
        match t.text.as_str() {
            "labeled_name" => {
                if let [name_j, label_j, ..] = strs[..] {
                    if let Some(name) = metric_name(&toks[name_j].text) {
                        claimed[name_j] = true;
                        claimed[label_j] = true;
                        ex.labels
                            .entry(name)
                            .or_default()
                            .entry(toks[label_j].text.clone())
                            .or_insert_with(|| site(label_j));
                    }
                }
            }
            "span" | "begin_span" => {
                if let Some(&name_j) = top_strs.first() {
                    if let Some(name) = obs_name(&toks[name_j].text) {
                        claimed[name_j] = true;
                        ex.spans.entry(name).or_insert_with(|| site(name_j));
                    }
                }
            }
            "event" | "event_at" => {
                if let Some(&name_j) = top_strs.first() {
                    if let Some(name) = obs_name(&toks[name_j].text) {
                        claimed[name_j] = true;
                        ex.events.entry(name).or_insert_with(|| site(name_j));
                    }
                }
            }
            "keep_event" => {
                if let Some(&name_j) = top_strs.first() {
                    if let Some(name) = obs_name(&toks[name_j].text) {
                        claimed[name_j] = true;
                        ex.keeps.entry(name).or_insert_with(|| site(name_j));
                    }
                }
            }
            _ => {}
        }
    }

    // catch-all: every unclaimed `coda_*` string literal in non-test code is
    // a reference to the metric surface (snapshot indexing, SLO specs,
    // smoke asserts) and must resolve against a produced family
    for (j, t) in toks.iter().enumerate() {
        if t.kind == TokKind::Str && !claimed[j] && !sf.in_test(j) {
            if let Some(name) = metric_name(&t.text) {
                ex.refs.entry(name).or_default().push(Site { file: sf.rel.clone(), line: t.line });
            }
        }
    }
}

/// A full metric name: `coda_<something>`, label suffix stripped.
fn metric_name(s: &str) -> Option<String> {
    let base = s.split('{').next().unwrap_or(s);
    let rest = base.strip_prefix("coda_")?;
    if rest.is_empty()
        || !rest.chars().all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
        || rest.ends_with('_')
    {
        return None;
    }
    Some(base.to_string())
}

/// A span/event name: dotted lowercase identifier path (`slo.burn`).
fn obs_name(s: &str) -> Option<String> {
    if s.is_empty()
        || !s.chars().all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_' || c == '.')
    {
        return None;
    }
    Some(s.to_string())
}

/// Whether the call receiver at the ident `i` is a parsed snapshot.
fn is_snapshot_receiver(toks: &[crate::lexer::Tok], i: usize) -> bool {
    if i == 0 || !toks[i - 1].is_punct('.') {
        return false;
    }
    let mut j = i - 1;
    while j > 0 {
        let p = &toks[j - 1];
        if p.kind == TokKind::Ident {
            if SNAPSHOT_RECEIVERS.contains(&p.text.as_str()) {
                return true;
            }
            if j >= 2 && toks[j - 2].is_punct('.') {
                j -= 2;
                continue;
            }
        }
        break;
    }
    false
}

fn assemble(ex: &Extraction) -> ObsSchema {
    let mut metrics: BTreeMap<String, MetricSchema> = BTreeMap::new();
    let mut names: Vec<&String> = ex.kinds.keys().collect();
    names.extend(ex.labels.keys());
    names.sort();
    names.dedup();
    for name in names {
        let kind = ex
            .kinds
            .get(name)
            .and_then(|ks| ks.keys().next().copied())
            .unwrap_or("labels-only")
            .to_string();
        let labels: Vec<String> =
            ex.labels.get(name).map(|ls| ls.keys().cloned().collect()).unwrap_or_default();
        metrics.insert(name.clone(), MetricSchema { kind, labels });
    }
    ObsSchema {
        version: 1,
        metrics,
        spans: ex.spans.keys().cloned().collect(),
        events: ex.events.keys().cloned().collect(),
    }
}

fn contract_findings(ex: &Extraction) -> Vec<Finding> {
    let mut out: Vec<Finding> = Vec::new();
    let push = |out: &mut Vec<Finding>, site: &Site, message: String| {
        out.push(Finding {
            rule: Rule::ObsContract,
            file: site.file.clone(),
            line: site.line,
            message,
        });
    };

    // consumed-but-never-produced
    for (name, sites) in &ex.refs {
        if !ex.kinds.contains_key(name) {
            if let Some(site) = sites.iter().min() {
                push(
                    &mut out,
                    site,
                    format!(
                        "metric `{name}` is consumed here but never registered or observed \
                         anywhere in the workspace"
                    ),
                );
            }
        }
    }
    // kind conflicts
    for (name, kinds) in &ex.kinds {
        if kinds.len() > 1 {
            let list: Vec<&str> = kinds.keys().copied().collect();
            if let Some(site) = kinds.values().min() {
                push(
                    &mut out,
                    site,
                    format!("metric `{name}` is used as multiple kinds: {}", list.join(" and ")),
                );
            }
        }
    }
    // label-set mismatches
    for (name, labels) in &ex.labels {
        if labels.len() > 1 {
            let list: Vec<&str> = labels.keys().map(String::as_str).collect();
            if let Some(site) = labels.values().min() {
                push(
                    &mut out,
                    site,
                    format!(
                        "metric `{name}` is split by conflicting label keys ({}) — one \
                         family must use one label set",
                        list.join(" vs ")
                    ),
                );
            }
        }
    }
    // case/underscore collisions
    let mut by_norm: BTreeMap<String, Vec<&String>> = BTreeMap::new();
    for name in ex.kinds.keys() {
        by_norm.entry(name.to_lowercase().replace('_', "")).or_default().push(name);
    }
    for group in by_norm.values() {
        if group.len() > 1 {
            let second = group[1];
            if let Some(site) = ex.kinds[second].values().min() {
                push(
                    &mut out,
                    site,
                    format!(
                        "metric names {} differ only by case/underscores — dashboards \
                         will treat them as distinct series",
                        group.iter().map(|n| format!("`{n}`")).collect::<Vec<_>>().join(", ")
                    ),
                );
            }
        }
    }
    // keep_event pins that nothing emits
    for (name, site) in &ex.keeps {
        if !ex.events.contains_key(name) && !ex.spans.contains_key(name) {
            push(
                &mut out,
                site,
                format!(
                    "tail-sampling policy pins event `{name}` but nothing in the workspace \
                     emits it — the pin keeps nothing"
                ),
            );
        }
    }
    out
}

/// Diffs the freshly extracted schema against the committed one. Any
/// difference is an [`Rule::ObsSchemaDrift`] finding (never baselineable).
pub fn drift(committed: &ObsSchema, current: &ObsSchema) -> Vec<Finding> {
    let mut msgs: Vec<String> = Vec::new();
    for (name, m) in &current.metrics {
        match committed.metrics.get(name) {
            None => msgs.push(format!("metric `{name}` added")),
            Some(old) if old != m => msgs.push(format!(
                "metric `{name}` changed (kind {} → {}, labels [{}] → [{}])",
                old.kind,
                m.kind,
                old.labels.join(","),
                m.labels.join(",")
            )),
            Some(_) => {}
        }
    }
    for name in committed.metrics.keys() {
        if !current.metrics.contains_key(name) {
            msgs.push(format!("metric `{name}` removed"));
        }
    }
    for (what, old, new) in
        [("span", &committed.spans, &current.spans), ("event", &committed.events, &current.events)]
    {
        for n in new.iter().filter(|n| !old.contains(n)) {
            msgs.push(format!("{what} `{n}` added"));
        }
        for n in old.iter().filter(|n| !new.contains(n)) {
            msgs.push(format!("{what} `{n}` removed"));
        }
    }
    msgs.sort();
    msgs.iter()
        .map(|m| Finding {
            rule: Rule::ObsSchemaDrift,
            file: "OBS_SCHEMA.json".to_string(),
            line: 1,
            message: format!(
                "{m} — the observability surface drifted from the committed schema; \
                 regenerate with `--write-obs-schema OBS_SCHEMA.json`, review, commit"
            ),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::CrateKind;

    fn run(src: &str) -> (ObsSchema, Vec<Finding>) {
        check(&[SourceFile::parse("t.rs", CrateKind::Library, src)])
    }

    #[test]
    fn producers_land_in_the_schema() {
        let (schema, findings) = run("fn f(o: &Obs) {\n o.registry().count(\"coda_x_ops\", 1);\n\
             o.registry().histogram(\"coda_x_wait_ms\");\n\
             o.registry().gauge(\"coda_x_depth\").set(1);\n\
             o.tracer().span(\"x.request\", &[]);\n o.tracer().event(\"x.done\", &[]);\n}");
        assert!(findings.is_empty(), "{findings:#?}");
        assert_eq!(schema.metrics["coda_x_ops"].kind, "counter");
        assert_eq!(schema.metrics["coda_x_wait_ms"].kind, "histogram");
        assert_eq!(schema.metrics["coda_x_depth"].kind, "gauge");
        assert_eq!(schema.spans, vec!["x.request"]);
        assert_eq!(schema.events, vec!["x.done"]);
    }

    #[test]
    fn consumed_but_never_produced_is_flagged() {
        let (_, findings) = run("fn f(o: &Obs) { o.registry().count(\"coda_x_present\", 1); }\n\
             fn g(snap: &Snap) { assert!(snap.counter(\"coda_x_missing\") > 0); }");
        assert_eq!(findings.len(), 1, "{findings:#?}");
        assert!(findings[0].message.contains("coda_x_missing"), "{findings:#?}");
        assert!(findings[0].rule == Rule::ObsContract);
    }

    #[test]
    fn snapshot_counter_reads_are_references_not_registrations() {
        let (schema, findings) = run("fn f(o: &Obs) { o.registry().count(\"coda_x_ops\", 1); }\n\
             fn g(parsed: &Snap) { let n = parsed.counter(\"coda_x_ops\"); }");
        assert!(findings.is_empty(), "{findings:#?}");
        assert_eq!(schema.metrics.len(), 1);
    }

    #[test]
    fn label_key_mismatch_is_flagged() {
        let (_, findings) = run(
            "fn f(r: &Reg, s: &str) {\n r.count(&labeled_name(\"coda_x_ms\", \"shard\", s), 1);\n\
             r.count(&labeled_name(\"coda_x_ms\", \"spec\", s), 1);\n}",
        );
        assert_eq!(findings.len(), 1, "{findings:#?}");
        assert!(findings[0].message.contains("shard"), "{findings:#?}");
        assert!(findings[0].message.contains("spec"), "{findings:#?}");
    }

    #[test]
    fn kind_conflict_is_flagged() {
        let (_, findings) =
            run("fn f(r: &Reg) { r.count(\"coda_x_val\", 1); r.histogram(\"coda_x_val\"); }");
        assert_eq!(findings.len(), 1, "{findings:#?}");
        assert!(findings[0].message.contains("multiple kinds"), "{findings:#?}");
    }

    #[test]
    fn case_underscore_collision_is_flagged() {
        let (_, findings) = run(
            "fn f(r: &Reg) { r.count(\"coda_x_opstotal\", 1); r.count(\"coda_x_ops_total\", 1); }",
        );
        assert_eq!(findings.len(), 1, "{findings:#?}");
        assert!(findings[0].message.contains("differ only by case"), "{findings:#?}");
    }

    #[test]
    fn unproduced_keep_event_is_flagged() {
        let (_, findings) = run("fn f(t: &Tracer, p: TailPolicy) { t.event(\"x.done\", &[]);\n\
             let p = p.keep_event(\"x.done\").keep_event(\"x.ghost\"); }");
        assert_eq!(findings.len(), 1, "{findings:#?}");
        assert!(findings[0].message.contains("x.ghost"), "{findings:#?}");
    }

    #[test]
    fn test_code_is_excluded_from_extraction() {
        let (schema, findings) = run("fn f(o: &Obs) { o.registry().count(\"coda_x_ops\", 1); }\n\
             #[cfg(test)]\nmod tests {\n fn t(r: &Reg) { r.count(\"coda_test_fake\", 1);\n\
             let n = snap.counter(\"coda_x_never\"); }\n}");
        assert!(findings.is_empty(), "{findings:#?}");
        assert_eq!(schema.metrics.len(), 1);
    }

    #[test]
    fn schema_json_round_trips_and_is_stable() {
        let (schema, _) = run("fn f(o: &Obs) {\n o.registry().count(\"coda_x_ops\", 1);\n\
             o.registry().histogram(&labeled_name(\"coda_x_ms\", \"shard\", s));\n\
             o.tracer().span(\"x.request\", &[]);\n}");
        let text = schema.to_pretty_json();
        let back = ObsSchema::parse(&text).expect("parse back");
        assert_eq!(back, schema);
        assert_eq!(text, back.to_pretty_json(), "render is canonical");
        assert_eq!(schema.metrics["coda_x_ms"].labels, vec!["shard"]);
    }

    #[test]
    fn drift_fires_on_any_difference_and_is_not_baselineable() {
        let (a, _) = run("fn f(r: &Reg) { r.count(\"coda_x_ops\", 1); }");
        let (b, _) =
            run("fn f(r: &Reg) { r.count(\"coda_x_ops\", 1); r.count(\"coda_x_extra\", 1); \
             r.event(\"x.new\", &[]); }");
        assert!(drift(&a, &a).is_empty());
        let d = drift(&a, &b);
        assert_eq!(d.len(), 2, "{d:#?}");
        assert!(d.iter().all(|f| f.rule == Rule::ObsSchemaDrift));
        assert!(d.iter().all(|f| !f.rule.is_baselineable()));
        assert!(d.iter().any(|f| f.message.contains("coda_x_extra")));
        assert!(d.iter().any(|f| f.message.contains("x.new")));
    }
}
