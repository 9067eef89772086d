//! Breach-triggered incident diagnosis: from "an SLO is burning" to "this
//! series / operator / shard is to blame", deterministically.
//!
//! When the [`SloEngine`](crate::slo::SloEngine) reports a burning SLO,
//! [`diagnose`] assembles one [`Incident`] per contiguous breach run
//! ([`SloReport::breach_runs`]): it slices the [`FlightRecorder`] timeline
//! to the breach window, diffs each anomaly window against a pre-breach
//! baseline (z-score per metric series over ring-buffer history), pulls
//! the exemplar spans captured inside the window, reconstructs their
//! place in the [`TraceForest`], runs critical-path + self-time analysis,
//! and joins against a [`CostProfile`] — emitting ranked suspects at
//! three granularities: metric series, operator `name[spec]`, and shard.
//!
//! Every ranking uses a deterministic total order (score, then
//! labeled-before-unlabeled, then name — never map iteration order), and
//! the report contains only quantities invariant under shard count, so
//! same-seed runs produce byte-identical `DIAG_REPORT.json` regardless of
//! how many shards served the traffic (DESIGN.md §14).
//!
//! The ranking model in brief:
//!
//! - **Baseline**: the last `baseline_windows` flight windows that end at
//!   least `guard_windows` before the first breach — the guard keeps the
//!   fault's onset (which predates the alert by up to the short burn
//!   window) from contaminating "normal".
//! - **Per-window scalar**: counters and gauges contribute their delta
//!   per level-0 window; histograms contribute their delta *sum* per
//!   window (sums are invariant under shard count where counts are not).
//! - **Score**: `z = (observed − mean) / max(std, floor·|mean|, floor)`,
//!   where `observed` is the anomaly slice's extremum (max or min,
//!   whichever deviates more — a mean would dilute single-window spikes).

use std::collections::{BTreeMap, BTreeSet};

use serde::impl_serde_struct;

use crate::analyze::TraceForest;
use crate::flight::{FlightRecorder, FlightWindow};
use crate::metrics::{label_value, name_parts};
use crate::profile::{CostProfile, Exemplar};
use crate::slo::SloReport;

/// Knobs for the attribution engine.
#[derive(Debug, Clone)]
pub struct DiagnoseConfig {
    /// Flight windows of pre-breach history forming the baseline.
    pub baseline_windows: usize,
    /// Windows immediately before the first breach excluded from the
    /// baseline *and* included in the anomaly slice — the detection lag
    /// guard (a burn alert trails the fault's onset).
    pub guard_windows: usize,
    /// Minimum |z| for a series to rank as a suspect.
    pub z_threshold: f64,
    /// Robustness floor for the z denominator, both as a fraction of the
    /// baseline mean and as an absolute: a flat-zero baseline must not
    /// make every nonzero observation infinitely anomalous.
    pub floor_frac: f64,
    /// Ranked series suspects retained per incident. Sized generously: a
    /// zero-baseline bulk counter (e.g. recovery bytes transferred) scores
    /// a huge z in its own units, and a tight cap would let one such
    /// burst crowd out the persistent low-rate anomalies that usually
    /// name the actual cause.
    pub max_suspects: usize,
}

impl Default for DiagnoseConfig {
    fn default() -> Self {
        DiagnoseConfig {
            baseline_windows: 8,
            guard_windows: 3,
            z_threshold: 3.0,
            floor_frac: 0.25,
            max_suspects: 32,
        }
    }
}

/// One anomalous metric series, ranked by |z|.
#[derive(Debug, Clone, PartialEq)]
pub struct SeriesSuspect {
    /// The series name (flat, possibly `base{label="value"}`).
    pub series: String,
    /// Instrument kind: `counter`, `gauge`, or `histogram`.
    pub kind: String,
    /// Baseline per-window mean of the series scalar.
    pub baseline_mean: f64,
    /// Baseline per-window standard deviation.
    pub baseline_std: f64,
    /// The anomaly slice's most deviant per-window scalar.
    pub observed: f64,
    /// Signed z-score of `observed` against the baseline.
    pub z: f64,
    /// Which way the series moved: `up` or `down`.
    pub direction: String,
}

impl_serde_struct!(SeriesSuspect {
    series,
    kind,
    baseline_mean,
    baseline_std,
    observed,
    z,
    direction
});

/// One operator implicated by exemplar spans inside the breach window.
#[derive(Debug, Clone, PartialEq)]
pub struct OperatorSuspect {
    /// Operator label: span name, refined to `name[spec]` when the span
    /// carries a `spec` field (the cost-profile keying).
    pub operator: String,
    /// Distinct exemplar spans aggregated.
    pub spans: u64,
    /// Total self-time across those spans, milliseconds.
    pub total_self_ms: f64,
    /// Mean self-time per exemplar span.
    pub mean_self_ms: f64,
    /// The operator's mean self-time over the whole run's cost profile.
    pub profile_mean_self_ms: f64,
    /// `mean_self_ms` over the (floored) profile mean — how much slower
    /// the breach-window spans ran than the operator's norm.
    pub slowdown: f64,
    /// Encoded span contexts of the implicated exemplars, worst first.
    pub exemplars: Vec<String>,
}

impl_serde_struct!(OperatorSuspect {
    operator,
    spans,
    total_self_ms,
    mean_self_ms,
    profile_mean_self_ms,
    slowdown,
    exemplars
});

/// One shard implicated by `shard`-labeled series suspects.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardSuspect {
    /// The shard label value (e.g. `shard-0`).
    pub shard: String,
    /// `overload` (queue-wait anomalous, service time not),
    /// `slow-service` (service time anomalous), or `degraded`.
    pub verdict: String,
    /// Worst |z| among this shard's series suspects.
    pub max_z: f64,
    /// The shard's anomalous series, ranked.
    pub series: Vec<String>,
}

impl_serde_struct!(ShardSuspect { shard, verdict, max_z, series });

/// Everything concluded about one contiguous breach run.
#[derive(Debug, Clone, PartialEq)]
pub struct Incident {
    /// The breaching SLO.
    pub slo: String,
    /// First breached evaluation boundary, milliseconds.
    pub first_breach_ms: f64,
    /// Last breached evaluation boundary in the run.
    pub last_breach_ms: f64,
    /// Breached evaluations in the run.
    pub breaches: u64,
    /// Worst long-window burn inside the run.
    pub max_long_burn: f64,
    /// Worst short-window burn inside the run.
    pub max_short_burn: f64,
    /// Flight windows in the baseline slice.
    pub baseline_windows: u64,
    /// Flight windows in the anomaly slice.
    pub anomaly_windows: u64,
    /// Ranked anomalous series (|z| descending).
    pub series_suspects: Vec<SeriesSuspect>,
    /// Ranked operators implicated by exemplar spans in the window.
    pub operator_suspects: Vec<OperatorSuspect>,
    /// Shards implicated by `shard`-labeled series suspects.
    pub shard_suspects: Vec<ShardSuspect>,
    /// Critical-path operator labels of the worst exemplar trace in the
    /// window (empty without exemplars).
    pub critical_path: Vec<String>,
    /// The single best answer to "what broke": the top series, except
    /// when it is `spec`-labeled and an operator suspect matches — then
    /// the operator label (the finer diagnosis).
    pub top_suspect: String,
}

impl_serde_struct!(Incident {
    slo,
    first_breach_ms,
    last_breach_ms,
    breaches,
    max_long_burn,
    max_short_burn,
    baseline_windows,
    anomaly_windows,
    series_suspects,
    operator_suspects,
    shard_suspects,
    critical_path,
    top_suspect
});

/// The deterministic `DIAG_REPORT.json` artifact.
#[derive(Debug, Clone, PartialEq)]
pub struct DiagReport {
    /// Schema tag (`coda-diag-report-v1`).
    pub schema: String,
    /// One entry per contiguous breach run; empty on a clean run.
    pub incidents: Vec<Incident>,
}

impl_serde_struct!(DiagReport { schema, incidents });

impl DiagReport {
    /// Serializes to deterministic JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).unwrap_or_default()
    }

    /// Parses a report back from JSON.
    ///
    /// # Errors
    ///
    /// Returns the parse/shape error message on malformed input.
    pub fn from_json(s: &str) -> Result<Self, String> {
        let value = serde_json::parse(s).map_err(|e| e.to_string())?;
        serde::Deserialize::from_value(&value)
    }
}

/// Per-window scalars for every series in a flight window, normalized to
/// a per-level-0-window rate so merged (coarse) windows compare against
/// fine ones. Histograms contribute their delta **sum**: observation
/// counts shift between per-shard series as shard count changes, but the
/// total observed milliseconds do not.
fn window_scalars(w: &FlightWindow) -> BTreeMap<String, (&'static str, f64)> {
    let per = w.windows.max(1) as f64;
    let mut out = BTreeMap::new();
    for (k, v) in &w.delta.counters {
        out.insert(k.clone(), ("counter", *v as f64 / per));
    }
    for (k, v) in &w.delta.gauges {
        out.insert(k.clone(), ("gauge", *v / per));
    }
    for (k, h) in &w.delta.histograms {
        out.insert(k.clone(), ("histogram", h.sum / per));
    }
    out
}

/// Labeled series rank before unlabeled on score ties: when an aggregate
/// and one of its labeled splits are equally anomalous, the split is the
/// finer (more actionable) diagnosis.
fn label_rank(series: &str) -> u8 {
    u8::from(name_parts(series).1.is_none())
}

fn mean_std(values: &[f64]) -> (f64, f64) {
    if values.is_empty() {
        return (0.0, 0.0);
    }
    let n = values.len() as f64;
    let mean = values.iter().sum::<f64>() / n;
    let var = values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n;
    (mean, var.sqrt())
}

/// Ranks anomalous series for one incident's baseline/anomaly slices.
fn rank_series(
    cfg: &DiagnoseConfig,
    baseline: &[&&FlightWindow],
    anomaly: &[&&FlightWindow],
) -> Vec<SeriesSuspect> {
    let base_rows: Vec<_> = baseline.iter().map(|w| window_scalars(w)).collect();
    let anom_rows: Vec<_> = anomaly.iter().map(|w| window_scalars(w)).collect();
    let mut names: BTreeMap<String, &'static str> = BTreeMap::new();
    for row in base_rows.iter().chain(&anom_rows) {
        for (name, (kind, _)) in row {
            names.entry(name.clone()).or_insert(kind);
        }
    }
    let mut suspects = Vec::new();
    for (series, kind) in names {
        let value_of =
            |row: &BTreeMap<String, (&'static str, f64)>| row.get(&series).map_or(0.0, |v| v.1);
        let base_vals: Vec<f64> = base_rows.iter().map(value_of).collect();
        let (mean, std) = mean_std(&base_vals);
        let mut max = f64::NEG_INFINITY;
        let mut min = f64::INFINITY;
        for v in anom_rows.iter().map(value_of) {
            max = max.max(v);
            min = min.min(v);
        }
        if anom_rows.is_empty() {
            continue;
        }
        let (observed, direction) =
            if max - mean >= mean - min { (max, "up") } else { (min, "down") };
        let denom = std.max(cfg.floor_frac * mean.abs()).max(cfg.floor_frac);
        let z = (observed - mean) / denom;
        if z.abs() >= cfg.z_threshold {
            suspects.push(SeriesSuspect {
                series,
                kind: kind.to_string(),
                baseline_mean: mean,
                baseline_std: std,
                observed,
                z,
                direction: direction.to_string(),
            });
        }
    }
    suspects.sort_by(|a, b| {
        b.z.abs()
            .total_cmp(&a.z.abs())
            .then_with(|| label_rank(&a.series).cmp(&label_rank(&b.series)))
            .then_with(|| a.series.cmp(&b.series))
    });
    suspects.truncate(cfg.max_suspects);
    suspects
}

/// Aggregates the breach window's exemplar spans into operator suspects,
/// joined against the whole-run cost profile for a slowdown ratio.
fn rank_operators(
    cfg: &DiagnoseConfig,
    exemplars: &BTreeMap<String, Vec<Exemplar>>,
    forest: &TraceForest,
    from_ms: f64,
    to_ms: f64,
) -> (Vec<OperatorSuspect>, Vec<String>) {
    let profile = CostProfile::from_forest_refined(forest, Some("spec"));
    struct Agg {
        spans: u64,
        total_self_ms: f64,
        exemplars: Vec<(f64, String)>,
    }
    let mut by_operator: BTreeMap<String, Agg> = BTreeMap::new();
    let mut seen = BTreeSet::new();
    let mut worst: Option<(f64, u64)> = None; // (value, span id) of the worst exemplar
    for list in exemplars.values() {
        for e in list {
            if !(e.at_ms > from_ms && e.at_ms <= to_ms) {
                continue;
            }
            let Some(ctx) = e.ctx else { continue };
            if !seen.insert(ctx.span_id.0) {
                continue;
            }
            let Some(span) = forest.span(ctx.span_id) else { continue };
            if worst.is_none_or(|(v, id)| (e.value, ctx.span_id.0) > (v, id)) {
                worst = Some((e.value, ctx.span_id.0));
            }
            let operator = match span.field("spec") {
                Some(v) => format!("{}[{}]", span.name, v),
                None => span.name.clone(),
            };
            let agg = by_operator.entry(operator).or_insert(Agg {
                spans: 0,
                total_self_ms: 0.0,
                exemplars: Vec::new(),
            });
            agg.spans += 1;
            agg.total_self_ms += forest.self_time_ms(ctx.span_id);
            agg.exemplars.push((e.value, ctx.encode()));
        }
    }
    let mut suspects: Vec<OperatorSuspect> = by_operator
        .into_iter()
        .map(|(operator, mut agg)| {
            agg.exemplars.sort_by(|a, b| b.0.total_cmp(&a.0).then_with(|| a.1.cmp(&b.1)));
            let mean_self_ms = agg.total_self_ms / agg.spans.max(1) as f64;
            let profile_mean_self_ms =
                profile.entries.get(&operator).map_or(0.0, |e| e.mean_self_ms);
            OperatorSuspect {
                operator,
                spans: agg.spans,
                total_self_ms: agg.total_self_ms,
                mean_self_ms,
                profile_mean_self_ms,
                slowdown: mean_self_ms / profile_mean_self_ms.max(cfg.floor_frac),
                exemplars: agg.exemplars.into_iter().map(|(_, ctx)| ctx).collect(),
            }
        })
        .collect();
    suspects.sort_by(|a, b| {
        b.total_self_ms.total_cmp(&a.total_self_ms).then_with(|| a.operator.cmp(&b.operator))
    });
    let critical_path = worst
        .and_then(|(_, span_id)| forest.span(crate::trace::SpanId(span_id)))
        .map(|span| forest.critical_path_labels(span.ctx.trace_id, Some("spec")))
        .unwrap_or_default();
    (suspects, critical_path)
}

/// Groups `shard`-labeled series suspects into per-shard verdicts.
fn rank_shards(series_suspects: &[SeriesSuspect]) -> Vec<ShardSuspect> {
    struct Agg {
        max_z: f64,
        wait_up: bool,
        service_up: bool,
        series: Vec<String>,
    }
    let mut by_shard: BTreeMap<String, Agg> = BTreeMap::new();
    for s in series_suspects {
        let Some(shard) = label_value(&s.series, "shard") else { continue };
        let agg = by_shard.entry(shard.to_string()).or_insert(Agg {
            max_z: 0.0,
            wait_up: false,
            service_up: false,
            series: Vec::new(),
        });
        agg.max_z = agg.max_z.max(s.z.abs());
        let (base, _) = name_parts(&s.series);
        if s.direction == "up" {
            agg.wait_up |= base.contains("queue_wait");
            agg.service_up |= base.contains("service");
        }
        agg.series.push(s.series.clone());
    }
    let mut out: Vec<ShardSuspect> = by_shard
        .into_iter()
        .map(|(shard, agg)| ShardSuspect {
            shard,
            verdict: if agg.service_up {
                "slow-service"
            } else if agg.wait_up {
                "overload"
            } else {
                "degraded"
            }
            .to_string(),
            max_z: agg.max_z,
            series: agg.series,
        })
        .collect();
    out.sort_by(|a, b| b.max_z.total_cmp(&a.max_z).then_with(|| a.shard.cmp(&b.shard)));
    out
}

/// The single best answer: the top series, unless it is `spec`-labeled
/// and an operator suspect carries the same spec — then the operator.
fn pick_top_suspect(
    series_suspects: &[SeriesSuspect],
    operator_suspects: &[OperatorSuspect],
) -> String {
    let Some(top) = series_suspects.first() else { return String::new() };
    if let Some(spec) = label_value(&top.series, "spec") {
        let suffix = format!("[{spec}]");
        if let Some(op) = operator_suspects.iter().find(|o| o.operator.ends_with(&suffix)) {
            return op.operator.clone();
        }
        if let Some(op) = operator_suspects.first() {
            return op.operator.clone();
        }
    }
    top.series.clone()
}

/// Runs attribution over everything the ops plane collected: one
/// [`Incident`] per contiguous breach run in `slo_report`, ranked
/// suspects at series, operator, and shard granularity. A report with no
/// breaches yields a valid empty report.
pub fn diagnose(
    cfg: &DiagnoseConfig,
    recorder: &FlightRecorder,
    slo_report: &SloReport,
    exemplars: &BTreeMap<String, Vec<Exemplar>>,
    forest: &TraceForest,
) -> DiagReport {
    let window_ms = recorder.config().window_ms;
    let timeline = recorder.timeline();
    let mut incidents = Vec::new();
    for run in slo_report.breach_runs() {
        let cut = run.first_ms - cfg.guard_windows as f64 * window_ms;
        let anomaly: Vec<&&FlightWindow> =
            timeline.iter().filter(|w| w.end_ms > cut && w.start_ms < run.last_ms).collect();
        let baseline_all: Vec<&&FlightWindow> =
            timeline.iter().filter(|w| w.end_ms <= cut).collect();
        let skip = baseline_all.len().saturating_sub(cfg.baseline_windows);
        let baseline = &baseline_all[skip..];

        let series_suspects = rank_series(cfg, baseline, &anomaly);
        let (operator_suspects, critical_path) =
            rank_operators(cfg, exemplars, forest, cut, run.last_ms);
        let shard_suspects = rank_shards(&series_suspects);
        let top_suspect = pick_top_suspect(&series_suspects, &operator_suspects);
        incidents.push(Incident {
            slo: run.slo,
            first_breach_ms: run.first_ms,
            last_breach_ms: run.last_ms,
            breaches: run.evaluations,
            max_long_burn: run.max_long_burn,
            max_short_burn: run.max_short_burn,
            baseline_windows: baseline.len() as u64,
            anomaly_windows: anomaly.len() as u64,
            series_suspects,
            operator_suspects,
            shard_suspects,
            critical_path,
            top_suspect,
        });
    }
    DiagReport { schema: "coda-diag-report-v1".to_string(), incidents }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::clock::{Clock, ManualClock};
    use crate::flight::FlightConfig;
    use crate::metrics::{labeled_name, MetricsRegistry};
    use crate::slo::{BurnWindows, SloEngine, SloSignal, SloSpec};
    use crate::trace::Tracer;

    fn shed_slo() -> SloSpec {
        SloSpec {
            name: "serve-shed-rate".to_string(),
            signal: SloSignal::EventRatio {
                bad: "coda_serve_shed_total".to_string(),
                good: "coda_serve_ops_total".to_string(),
            },
            objective: 0.05,
        }
    }

    fn rig(specs: Vec<SloSpec>) -> (SloEngine, FlightRecorder, MetricsRegistry) {
        let windows = BurnWindows { long_windows: 4, short_windows: 2, factor: 2.0 };
        let cfg = FlightConfig { window_ms: 10.0, level_capacity: 32, merge: 4, levels: 2 };
        (SloEngine::new(specs, windows), FlightRecorder::new(cfg), MetricsRegistry::new())
    }

    fn small_cfg() -> DiagnoseConfig {
        DiagnoseConfig { baseline_windows: 4, guard_windows: 2, ..DiagnoseConfig::default() }
    }

    #[test]
    fn clean_run_yields_a_valid_empty_report() {
        let (mut engine, mut rec, reg) = rig(vec![shed_slo()]);
        rec.tick(0.0, &reg.snapshot());
        for i in 1..=8 {
            reg.count("coda_serve_ops_total", 100);
            rec.tick(i as f64 * 10.0, &reg.snapshot());
            engine.step(&rec, None);
        }
        let report = diagnose(
            &DiagnoseConfig::default(),
            &rec,
            &engine.report(),
            &BTreeMap::new(),
            &TraceForest::from_events(&[]),
        );
        assert!(report.incidents.is_empty(), "no breach, no incident");
        assert_eq!(report.schema, "coda-diag-report-v1");
        let back = DiagReport::from_json(&report.to_json()).expect("empty report parses");
        assert_eq!(back, report);
    }

    #[test]
    fn a_shed_burst_is_attributed_to_the_shed_series() {
        let (mut engine, mut rec, reg) = rig(vec![shed_slo()]);
        rec.tick(0.0, &reg.snapshot());
        for i in 1..=10 {
            reg.count("coda_serve_ops_total", 100);
            if i > 6 {
                reg.count("coda_serve_shed_total", 40);
            }
            rec.tick(i as f64 * 10.0, &reg.snapshot());
            engine.step(&rec, None);
        }
        let slo_report = engine.report();
        assert!(slo_report.total_breaches() > 0, "the burst must burn");
        let report = diagnose(
            &small_cfg(),
            &rec,
            &slo_report,
            &BTreeMap::new(),
            &TraceForest::from_events(&[]),
        );
        assert_eq!(report.incidents.len(), 1, "one contiguous run, one incident");
        let inc = &report.incidents[0];
        assert_eq!(inc.slo, "serve-shed-rate");
        assert_eq!(inc.top_suspect, "coda_serve_shed_total");
        let top = &inc.series_suspects[0];
        assert_eq!(top.direction, "up");
        assert!(top.z >= 3.0, "burst must clear the threshold: {top:?}");
        assert!(inc.operator_suspects.is_empty(), "no exemplars, no operators — not a panic");
        assert!(inc.critical_path.is_empty());
        assert!(inc.breaches >= 1);
        assert!(inc.baseline_windows >= 1);
    }

    #[test]
    fn labeled_split_outranks_its_aggregate_on_ties_and_names_the_shard() {
        let (mut engine, mut rec, reg) = rig(vec![shed_slo()]);
        let per_shard = labeled_name("coda_serve_queue_wait_ms", "shard", "shard-2");
        rec.tick(0.0, &reg.snapshot());
        for i in 1..=10 {
            reg.count("coda_serve_ops_total", 100);
            if i > 6 {
                reg.count("coda_serve_shed_total", 40);
                // identical sums land in the aggregate and the shard split
                reg.histogram("coda_serve_queue_wait_ms").observe(50.0);
                reg.histogram(&per_shard).observe(50.0);
            }
            rec.tick(i as f64 * 10.0, &reg.snapshot());
            engine.step(&rec, None);
        }
        let report = diagnose(
            &small_cfg(),
            &rec,
            &engine.report(),
            &BTreeMap::new(),
            &TraceForest::from_events(&[]),
        );
        let inc = &report.incidents[0];
        let wait_rank =
            |name: &str| inc.series_suspects.iter().position(|s| s.series == name).expect("ranked");
        assert!(
            wait_rank(&per_shard) < wait_rank("coda_serve_queue_wait_ms"),
            "equal-z tie must prefer the labeled split: {:?}",
            inc.series_suspects
        );
        assert_eq!(inc.shard_suspects.len(), 1);
        assert_eq!(inc.shard_suspects[0].shard, "shard-2");
        assert_eq!(inc.shard_suspects[0].verdict, "overload");
    }

    /// Satellite: equal-score suspects keep a deterministic total order
    /// regardless of registration (insertion) order.
    #[test]
    fn equal_score_suspects_order_deterministically_under_permutation() {
        let run = |names: &[&str]| {
            let (mut engine, mut rec, reg) = rig(vec![shed_slo()]);
            rec.tick(0.0, &reg.snapshot());
            for i in 1..=10 {
                reg.count("coda_serve_ops_total", 100);
                if i > 6 {
                    reg.count("coda_serve_shed_total", 40);
                    for name in names {
                        reg.count(name, 40);
                    }
                }
                rec.tick(i as f64 * 10.0, &reg.snapshot());
                engine.step(&rec, None);
            }
            let report = diagnose(
                &small_cfg(),
                &rec,
                &engine.report(),
                &BTreeMap::new(),
                &TraceForest::from_events(&[]),
            );
            report.incidents[0].series_suspects.iter().map(|s| s.series.clone()).collect::<Vec<_>>()
        };
        let a = run(&["coda_x_alpha", "coda_x_beta", "coda_x_gamma"]);
        let b = run(&["coda_x_gamma", "coda_x_alpha", "coda_x_beta"]);
        let c = run(&["coda_x_beta", "coda_x_gamma", "coda_x_alpha"]);
        assert_eq!(a, b, "ranking must not depend on insertion order");
        assert_eq!(b, c);
        let alpha = a.iter().position(|s| s == "coda_x_alpha").expect("ranked");
        let beta = a.iter().position(|s| s == "coda_x_beta").expect("ranked");
        assert!(alpha < beta, "equal scores fall back to name order");
    }

    #[test]
    fn exemplar_spans_become_operator_suspects_with_critical_path() {
        let clock = Arc::new(ManualClock::new());
        let tracer = Tracer::new(Arc::clone(&clock) as Arc<dyn Clock>);
        let slow_ctx;
        {
            let _graph = tracer.span("eval.graph", &[]);
            {
                let path = tracer.span("eval.path", &[("spec", "scale>ridge")]);
                slow_ctx = path.context();
                clock.advance_ms(80.0);
            }
        }
        let forest = TraceForest::from_events(&tracer.events());
        let mut exemplars = BTreeMap::new();
        exemplars.insert(
            "coda_core_eval_path_ms".to_string(),
            vec![Exemplar { value: 80.0, ctx: Some(slow_ctx), at_ms: 75.0 }],
        );

        let (mut engine, mut rec, reg) = rig(vec![SloSpec {
            name: "eval-path-latency".to_string(),
            signal: SloSignal::LatencyAbove {
                histogram: "coda_core_eval_path_ms".to_string(),
                threshold_ms: 25.0,
            },
            objective: 0.05,
        }]);
        let spec_series = labeled_name("coda_core_eval_path_ms", "spec", "scale>ridge");
        rec.tick(0.0, &reg.snapshot());
        for i in 1..=10 {
            if i > 6 {
                reg.histogram("coda_core_eval_path_ms").observe(80.0);
                reg.histogram(&spec_series).observe(80.0);
            } else {
                reg.histogram("coda_core_eval_path_ms").observe(1.0);
                reg.histogram(&spec_series).observe(1.0);
            }
            rec.tick(i as f64 * 10.0, &reg.snapshot());
            engine.step(&rec, None);
        }
        let report = diagnose(&small_cfg(), &rec, &engine.report(), &exemplars, &forest);
        let inc = &report.incidents[0];
        assert_eq!(inc.operator_suspects.len(), 1);
        let op = &inc.operator_suspects[0];
        assert_eq!(op.operator, "eval.path[scale>ridge]");
        assert_eq!(op.spans, 1);
        assert!((op.total_self_ms - 80.0).abs() < 1e-9);
        assert_eq!(op.exemplars, vec![slow_ctx.encode()]);
        assert_eq!(
            inc.critical_path,
            vec!["eval.graph".to_string(), "eval.path[scale>ridge]".to_string()]
        );
        assert_eq!(
            inc.top_suspect, "eval.path[scale>ridge]",
            "a spec-labeled top series resolves to the operator"
        );
        let back = DiagReport::from_json(&report.to_json()).expect("report parses");
        assert_eq!(back, report);
    }

    #[test]
    fn separate_breach_runs_become_separate_incidents() {
        let (mut engine, mut rec, reg) = rig(vec![shed_slo()]);
        rec.tick(0.0, &reg.snapshot());
        for i in 1..=20 {
            reg.count("coda_serve_ops_total", 100);
            // two bursts separated by a long clean stretch
            if (7..=8).contains(&i) || (16..=17).contains(&i) {
                reg.count("coda_serve_shed_total", 60);
            }
            rec.tick(i as f64 * 10.0, &reg.snapshot());
            engine.step(&rec, None);
        }
        let slo_report = engine.report();
        let runs = slo_report.breach_runs();
        assert!(runs.len() >= 2, "two bursts, two runs: {runs:?}");
        let report = diagnose(
            &small_cfg(),
            &rec,
            &slo_report,
            &BTreeMap::new(),
            &TraceForest::from_events(&[]),
        );
        assert_eq!(report.incidents.len(), runs.len());
        assert!(report.incidents[0].last_breach_ms < report.incidents[1].first_breach_ms);
        for inc in &report.incidents {
            assert_eq!(inc.top_suspect, "coda_serve_shed_total");
        }
    }
}
