//! The experiment harness: regenerates every table and figure of the paper
//! (see DESIGN.md §4 for the experiment index). Each section prints the
//! paper's claim and the measured result.
//!
//! Run everything:   `cargo run --release -p coda-bench --bin experiments`
//! Run one:          `cargo run --release -p coda-bench --bin experiments -- --exp f3`
//! With metrics:     `cargo run --release -p coda-bench --bin experiments -- --exp d5 --metrics`

use bytes::Bytes;
use coda_bench::{listing1_graph, mutate_fraction, patterned_bytes, print_table, small_graph};
use coda_cluster::{run_cooperative, AnalyticsTask, ComputeNode, Scheduler, SimNetwork};
use coda_core::{Evaluator, Pipeline};
use coda_data::{synth, CvStrategy, Dataset, Metric, Transformer};
use coda_ml::LinearRegression;
use coda_obs::{Obs, WallClock};
use coda_store::{
    CachingClient, ChangeMonitor, DeltaCodec, HomeDataStore, PushMode, RecomputeTrigger,
    TransferStats,
};
use coda_templates::{
    AnomalyAnalysis, CohortAnalysis, FailurePredictionAnalysis, RootCauseAnalysis,
};
use coda_timeseries::{
    CascadedWindows, FlatWindowing, SeriesData, TimeSeriesPipelineBuilder, TsAsIid, TsAsIs,
    TsEvaluator, WindowConfig,
};

/// One catalog row: id, what the experiment reproduces, and the function
/// that runs it.
type Experiment = (&'static str, &'static str, fn(Option<&Obs>));

/// The catalog. `--list` prints it and `--exp` dispatches through it, so the
/// two cannot disagree; a full run walks it in order.
const EXPERIMENTS: &[Experiment] = &[
    ("t1", "Table I: regression modeling-step catalog, exercised end to end", |_| exp_t1()),
    ("t2", "Table II: time-series pipeline catalog, exercised end to end", |_| exp_t2()),
    ("f1", "Fig. 1: local vs cloud placement across latency and VM count", |_| exp_f1()),
    ("f2", "Fig. 2: cooperative analytics through the DARR", |_| exp_f2()),
    ("f3", "Fig. 3: the 36-pipeline example graph", |_| exp_f3()),
    ("f4", "Fig. 4: K-fold cross-validation", |_| exp_f4()),
    ("f5", "Fig. 5: pipeline training/prediction semantics", |_| exp_f5()),
    ("f6", "Figs. 6-10: the windowing transformers' shape laws", |_| exp_f6_f10()),
    ("f11", "Fig. 11: model comparison across series regimes", |_| exp_f11()),
    ("f12", "Fig. 12: TimeSeriesSlidingSplit windows + leakage demo", |_| exp_f12()),
    ("d1", "§III: delta encoding vs full transfer", |_| exp_d1()),
    ("d2", "§III: pull/push/lease propagation costs", |_| exp_d2()),
    ("d3", "§III: recomputation triggers", |_| exp_d3()),
    ("d4", "robustness: cooperative run under injected faults", exp_d4),
    ("d5", "prefix cache: cached vs uncached TEG evaluation speedup", exp_d5),
    ("d6", "robustness: crash-stop failure, WAL replay and home failover", exp_d6),
    ("d7", "serving tier: sharded multi-tenant sustained load (writes BENCH_serving.json)", exp_d7),
    ("d8", "ops plane: flight recorder, SLO burn rates, exemplar cost profiles (writes OPS_REPORT.json)", |_| exp_d8()),
    ("d9", "incident diagnosis: breach-triggered root-cause attribution vs injected ground truth (writes DIAG_REPORT.json)", |_| exp_d9()),
    ("s1", "§IV-E: the four solution templates", |_| exp_s1()),
    ("s2", "§II: censored failure-time analysis (Kaplan-Meier)", |_| exp_s2()),
    ("a1", "ablation: delta history depth", |_| exp_a1()),
    ("a2", "ablation: evaluator thread scaling", |_| exp_a2()),
    ("a3", "ablation: forecast history window", |_| exp_a3()),
    ("a4", "ablation: nested vs plain cross-validation", |_| exp_a4()),
    ("a5", "ablation: retraining policies under drift", |_| exp_a5()),
    ("a6", "§IV-C: DNN vs LSTM execution speed", |_| exp_a6()),
    ("a7", "selective (successive-halving) vs exhaustive search", |_| exp_a7()),
];

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.iter().any(|a| a == "--list" || a == "--help" || a == "-h") {
        println!("coda experiment harness — every table/figure of Iyengar et al., ICDCS 2019");
        println!("usage: experiments [--exp <id>] [--metrics] [--trace-out <path>] [--list]\n");
        println!("  --metrics          collect a unified MetricsRegistry snapshot across the run");
        println!("                     and dump it (Prometheus text + JSON) at the end");
        println!("  --trace-out PATH   trace the run and write a Chrome trace-event JSON file");
        println!("                     (load it at ui.perfetto.dev or chrome://tracing)\n");
        for (id, what, _) in EXPERIMENTS {
            println!("  {id:<4} {what}");
        }
        return;
    }
    let only: Option<String> = args
        .iter()
        .position(|a| a == "--exp")
        .and_then(|i| args.get(i + 1))
        .map(|s| s.to_ascii_lowercase());
    if let Some(o) = &only {
        if !EXPERIMENTS.iter().any(|(id, _, _)| id == o) {
            eprintln!("unknown experiment id {o}; use --list to see the catalog");
            std::process::exit(2);
        }
    }
    let run = |id: &str| only.as_deref().is_none_or(|o| o == id);
    let trace_out: Option<String> = args
        .iter()
        .position(|a| a == "--trace-out")
        .and_then(|i| args.get(i + 1))
        .map(|s| s.to_string());
    let obs = (args.iter().any(|a| a == "--metrics") || trace_out.is_some()).then(Obs::wall);

    println!("coda experiment harness — paper: Iyengar et al., ICDCS 2019");
    for (id, _, exp) in EXPERIMENTS {
        if run(id) {
            exp(obs.as_ref());
        }
    }

    if let Some(o) = &obs {
        if args.iter().any(|a| a == "--metrics") {
            println!("\n=== metrics snapshot (prometheus) ===");
            print!("{}", o.registry().render_prometheus());
            let json = o.registry().snapshot().to_json();
            println!("=== metrics snapshot (json) ===");
            println!("{json}");
            let parsed =
                coda_obs::MetricsSnapshot::from_json(&json).expect("snapshot JSON must round-trip");
            if run("d4") {
                let dropped = parsed.counter("coda_chaos_faults_dropped");
                assert_eq!(
                    parsed.counter("coda_chaos_faults_injected"),
                    dropped
                        + parsed.counter("coda_chaos_faults_link_down")
                        + parsed.counter("coda_chaos_faults_node_down"),
                    "every injected fault is a drop, a link-flap refusal or a crash-window refusal"
                );
                assert!(dropped > 0, "the drop scenarios ran, so drops must be counted");
                assert!(
                    parsed.counter("coda_chaos_retry_retries") > 0,
                    "dropped exchanges are retried, so retries must be counted"
                );
            }
            if run("d5") {
                assert!(
                    parsed.counter("coda_core_cache_hits") > 0,
                    "a cached evaluation ran, so cache-hit counters must be nonzero"
                );
            }
            if run("d6") {
                assert!(
                    parsed.counter("coda_cluster_failovers_total") > 0,
                    "the no-restart scenario promotes a replica, so failovers must be counted"
                );
                assert!(
                    parsed.counter("coda_darr_claims_reaped_total") > 0,
                    "the dead home's orphaned claim must be reaped and counted"
                );
            }
            if run("d7") {
                assert!(
                    parsed.counter("coda_serve_ops_total") > 0,
                    "the sustained load ran, so serving op counters must be nonzero"
                );
                assert!(
                    parsed.counter("coda_serve_batches") > 0,
                    "every applied request runs in a combining pass, so passes must be counted"
                );
                assert!(parsed.counter("coda_store_puts") > 0, "the load's puts reach the store");
                assert_eq!(
                    parsed.counter("coda_store_delta_encodes"),
                    0,
                    "no D7 pull names a version and no lease is granted, so no delta is encoded"
                );
            }
            println!(
                "metrics: {} counters, {} gauges, {} histograms; JSON snapshot parses back",
                parsed.counters.len(),
                parsed.gauges.len(),
                parsed.histograms.len()
            );
            if !parsed.histograms.is_empty() {
                println!("=== latency quantiles ===");
                for (name, h) in &parsed.histograms {
                    // bucket quantiles read as latencies only for `_ms`
                    // families; a size histogram reads as its exact mean
                    if coda_obs::name_parts(name).0.ends_with("_ms") {
                        let (p50, mean) = (h.quantile(0.50), h.mean());
                        println!(
                            "{name}: p50={p50:.6} p95={:.6} p99={:.6} ms (count={})",
                            h.quantile(0.95),
                            h.quantile(0.99),
                            h.count
                        );
                        // no median of non-negative samples exceeds twice
                        // their mean (Markov), and a bucket quantile reads
                        // within 1/16 of its sample
                        if run("d7") {
                            assert!(
                                p50 <= 2.0 * (1.0 + 1.0 / 16.0) * mean,
                                "{name}: p50 {p50} ms cannot exceed twice the mean {mean} ms"
                            );
                        }
                    } else {
                        println!("{name}: mean={:.3} (count={})", h.mean(), h.count);
                    }
                }
            }
        }
        if let Some(path) = &trace_out {
            let forest = o.forest();
            let chrome = forest.to_chrome_json();
            std::fs::write(path, &chrome).expect("trace file must be writable");
            // self-check: the exported file must load back into an
            // equivalent forest (what Perfetto will see is what we traced)
            let back = coda_obs::TraceForest::from_chrome_json(&chrome)
                .expect("exported trace must parse back");
            assert!(back.same_shape(&forest), "round-tripped trace must preserve the span forest");
            println!("\n=== trace export ===");
            println!(
                "wrote {path}: {} spans in {} traces ({} orphans)",
                forest.len(),
                forest.trace_ids().len(),
                forest.orphans().len()
            );
            for line in forest.render_summary().lines().take(8) {
                println!("{line}");
            }
        }
    }
}

/// T1 — Table I: the regression modeling-step catalog, exercised end to end.
fn exp_t1() {
    let rows = vec![
        vec!["Select Features".into(), "select_k_best (f-stat / corr / mutual-info), pca".into()],
        vec!["Feature Normalization".into(), "minmax_scaler, standard_scaler".into()],
        vec!["Feature Transformation".into(), "pca (covariance eigendecomposition)".into()],
        vec![
            "Model Training".into(),
            "random_forest, mlp_regressor, linear_regression (+tree, knn, gb, ridge)".into(),
        ],
        vec!["Model Evaluation".into(), "k-fold, monte-carlo, train-test, ts-sliding".into()],
        vec!["Model Score".into(), "rmse, mape (+mse, mae, median-ae, rmsle, r2)".into()],
    ];
    print_table("T1 — Table I component catalog (all implemented)", &["Step", "Components"], &rows);
    let ds = synth::friedman1(400, 10, 0.5, 1);
    let report = Evaluator::new(CvStrategy::kfold(5), Metric::Rmse)
        .with_threads(4)
        .evaluate_graph(&listing1_graph(), &ds)
        .expect("graph evaluates");
    let top: Vec<Vec<String>> = report
        .results
        .iter()
        .take(5)
        .map(|r| vec![r.spec.steps.join(" -> "), format!("{:.4}", r.mean_score)])
        .collect();
    print_table("T1 — top-5 paths on friedman1 (rmse, 5-fold)", &["Pipeline", "RMSE"], &top);
    println!("paper: data scientists iterate dozens of combinations; measured: {} paths evaluated automatically", report.results.len());
}

/// T2 — Table II: the time-series pipeline catalog, exercised end to end.
fn exp_t2() {
    let rows = vec![
        vec!["Data Scaling".into(), "minmax, robust, standard, no scaling".into()],
        vec!["Data Preprocessing".into(), "cascaded windows, flat windowing, ts-as-iid, ts-as-is".into()],
        vec![
            "Model Training".into(),
            "temporal: lstm(simple/deep), cnn(simple/deep), wavenet, seriesnet; iid: dnn(simple/deep); statistical: zero, ar, ari".into(),
        ],
        vec!["Model Evaluation".into(), "TimeSeriesSlidingSplit".into()],
        vec!["Model Score".into(), "rmse, mape".into()],
    ];
    print_table(
        "T2 — Table II component catalog (all implemented)",
        &["Step", "Components"],
        &rows,
    );
    let series = SeriesData::univariate(synth::trend_seasonal_series(500, 24.0, 0.4, 2));
    let graph = TimeSeriesPipelineBuilder::new(24, 1, 1)
        .with_deep_variants(false)
        .with_epochs(30)
        .with_seed(2)
        .build()
        .expect("fixed wiring");
    let report = TsEvaluator::sliding(300, 10, 60, 2, Metric::Rmse)
        .with_threads(8)
        .evaluate_graph(&graph, &series)
        .expect("series long enough");
    let top: Vec<Vec<String>> = report
        .results
        .iter()
        .filter(|r| r.is_ok())
        .take(6)
        .map(|r| vec![r.spec.steps.join(" -> "), format!("{:.4}", r.mean_score)])
        .collect();
    print_table(
        "T2 — top paths on trend+seasonal series (rmse, sliding split)",
        &["Pipeline", "RMSE"],
        &top,
    );
}

/// F1 — Fig. 1: local vs cloud placement across network latency and VM count.
fn exp_f1() {
    let client = ComputeNode::client("edge", 1.0);
    let task = AnalyticsTask { n_subtasks: 36, work_per_subtask: 100.0, input_bytes: 2_000_000 };
    let mut rows = Vec::new();
    for latency in [1.0, 10.0, 100.0, 1_000.0, 10_000.0] {
        for vms in [1usize, 4, 16] {
            let cloud = ComputeNode::cloud("dc", 4.0, vms);
            let net = SimNetwork::new(latency, 2_000.0);
            let d = Scheduler::place(&task, &client, &cloud, &net);
            rows.push(vec![
                format!("{latency}"),
                format!("{vms}"),
                format!("{:.0}", d.local_ms),
                d.cloud_ms.map(|c| format!("{c:.0}")).unwrap_or_else(|| "-".into()),
                format!("{:?}", d.placement),
            ]);
        }
    }
    // disconnected case
    let cloud = ComputeNode::cloud("dc", 4.0, 16);
    let mut net = SimNetwork::new(1.0, 2_000.0);
    net.disconnect("edge", "dc");
    let d = Scheduler::place(&task, &client, &cloud, &net);
    rows.push(vec![
        "disconnected".into(),
        "16".into(),
        format!("{:.0}", d.local_ms),
        "-".into(),
        format!("{:?}", d.placement),
    ]);
    print_table(
        "F1 — placement: local vs elastic cloud (36-pipeline grid)",
        &["latency ms", "VMs", "local ms", "cloud ms", "decision"],
        &rows,
    );
    println!("paper: client-side computation avoids latency and survives disconnection; cloud VMs scale out grids. Measured: crossover moves with latency and VM count; disconnection forces Local.");
}

/// F2 — Fig. 2: cooperative analytics through the DARR.
fn exp_f2() {
    let ds = synth::friedman1(250, 6, 0.5, 3);
    let graph = small_graph();
    let mut rows = Vec::new();
    for n in [1usize, 2, 4, 8] {
        let clock = WallClock::new();
        let without =
            run_cooperative(&graph, &ds, CvStrategy::kfold(5), Metric::Rmse, n, false, &clock);
        let with =
            run_cooperative(&graph, &ds, CvStrategy::kfold(5), Metric::Rmse, n, true, &clock);
        rows.push(vec![
            n.to_string(),
            format!("{}", without.total_evaluations),
            format!("{}", without.wall_ms as u64),
            format!("{}", with.total_evaluations),
            format!("{}", with.reused_results),
            format!("{}", with.wall_ms as u64),
        ]);
    }
    print_table(
        "F2 — N clients x 8 pipelines, independent vs DARR-cooperative",
        &["clients", "evals (no DARR)", "wall ms", "evals (DARR)", "reused", "wall ms"],
        &rows,
    );
    println!("paper: clients share results and avoid redundant calculations. Measured: evaluations stay at the pipeline count with the DARR (N x without it).");
}

/// F3 — Fig. 3 / §IV-A: the 36-pipeline example graph.
fn exp_f3() {
    let graph = listing1_graph();
    let n = graph.enumerate_paths().len();
    println!("\n## F3 — Fig. 3 example graph");
    println!("paper: \"The total number of Pipelines for our working example ... is 36\"");
    println!(
        "measured: {} nodes, {} edges, {n} root->leaf pipelines",
        graph.n_nodes(),
        graph.n_edges()
    );
    assert_eq!(n, 36);
    let ds = synth::badly_scaled_regression(300, 7, 0.5, 4);
    let report = Evaluator::new(CvStrategy::kfold(5), Metric::Rmse)
        .with_threads(4)
        .evaluate_graph(&graph, &ds)
        .expect("graph evaluates");
    let best = report.best().expect("paths evaluated");
    println!(
        "best path on badly-scaled data: {} (rmse {:.4}); a scaled path wins: {}",
        best.spec.steps.join(" -> "),
        best.mean_score,
        best.spec.steps[0] != "noop"
    );
}

/// F4 — Fig. 4: K-fold cross-validation produces K models and K estimates.
fn exp_f4() {
    let ds = synth::linear_regression(200, 3, 0.3, 5);
    let pipeline = Pipeline::from_nodes(vec![coda_core::Node::auto(
        (Box::new(LinearRegression::new()) as coda_data::BoxedEstimator).into(),
    )]);
    let mut rows = Vec::new();
    for k in [3usize, 5, 10] {
        let eval = Evaluator::new(CvStrategy::kfold(k), Metric::Rmse);
        let scores = eval.evaluate_pipeline(&pipeline, &ds).expect("evaluates");
        let mean = scores.iter().sum::<f64>() / scores.len() as f64;
        let sd = (scores.iter().map(|s| (s - mean) * (s - mean)).sum::<f64>()
            / scores.len() as f64)
            .sqrt();
        rows.push(vec![
            k.to_string(),
            scores.len().to_string(),
            format!("{mean:.4}"),
            format!("{sd:.4}"),
        ]);
    }
    print_table(
        "F4 — K-fold CV: K models, K estimates, mean as final estimate",
        &["K", "estimates", "mean rmse", "std"],
        &rows,
    );
}

/// F5 — Fig. 5: training vs prediction operation sequences.
fn exp_f5() {
    use coda_data::{BoxedTransformer, ComponentError};
    use std::sync::{Arc, Mutex};

    #[derive(Debug, Clone)]
    struct Probe {
        label: String,
        log: Arc<Mutex<Vec<String>>>,
        fitted: bool,
    }
    impl Transformer for Probe {
        fn name(&self) -> &str {
            &self.label
        }
        fn fit(&mut self, _d: &Dataset) -> Result<(), ComponentError> {
            self.log.lock().unwrap().push(format!("{}.fit", self.label));
            self.fitted = true;
            Ok(())
        }
        fn transform(&self, d: &Dataset) -> Result<Dataset, ComponentError> {
            if !self.fitted {
                return Err(ComponentError::NotFitted(self.label.clone()));
            }
            self.log.lock().unwrap().push(format!("{}.transform", self.label));
            Ok(d.clone())
        }
        fn clone_box(&self) -> BoxedTransformer {
            Box::new(Probe { label: self.label.clone(), log: self.log.clone(), fitted: false })
        }
    }

    let log = Arc::new(Mutex::new(Vec::new()));
    let ds = synth::linear_regression(50, 2, 0.1, 6);
    let mut p = Pipeline::from_nodes(vec![
        coda_core::Node::auto(
            (Box::new(Probe { label: "robustscaler".into(), log: log.clone(), fitted: false })
                as BoxedTransformer)
                .into(),
        ),
        coda_core::Node::auto(
            (Box::new(Probe { label: "select_k".into(), log: log.clone(), fitted: false })
                as BoxedTransformer)
                .into(),
        ),
        coda_core::Node::auto(
            (Box::new(LinearRegression::new()) as coda_data::BoxedEstimator).into(),
        ),
    ]);
    p.fit(&ds).expect("fits");
    let fit_trace = std::mem::take(&mut *log.lock().unwrap()).join(", ");
    p.predict(&ds).expect("predicts");
    let predict_trace = log.lock().unwrap().join(", ");
    println!("\n## F5 — Fig. 5 pipeline operation semantics");
    println!("paper: training = internal fit&transform then final fit; prediction = internal transform only");
    println!("measured fit trace:     {fit_trace}, (then estimator.fit)");
    println!("measured predict trace: {predict_trace}, (then estimator.predict)");
}

/// F6–F10 — Figs. 6-10: the windowing transformers' shape laws.
fn exp_f6_f10() {
    let l = 100;
    let v = 3;
    let p = 8;
    let series = SeriesData::new(synth::multivariate_sensors(l, v, 7), 0);
    let ds = series.to_dataset();
    let cfg = WindowConfig::new(p, 1);
    let cascaded = CascadedWindows::new(cfg).fit_transform(&ds).expect("windows");
    let flat = FlatWindowing::new(cfg).fit_transform(&ds).expect("windows");
    let iid = TsAsIid::new(cfg).fit_transform(&ds).expect("windows");
    let asis = TsAsIs::new(cfg).fit_transform(&ds).expect("windows");
    let rows = vec![
        vec![
            "CascadedWindows (Fig. 7)".into(),
            format!("{} x {}", cascaded.n_samples(), cascaded.n_features()),
            format!("L-p = {} windows of p*v = {}", l - p, p * v),
        ],
        vec![
            "FlatWindowing (Fig. 8)".into(),
            format!("{} x {}", flat.n_samples(), flat.n_features()),
            format!("same cells flattened to 1 x pv = {}", p * v),
        ],
        vec![
            "TS-as-IID (Fig. 9)".into(),
            format!("{} x {}", iid.n_samples(), iid.n_features()),
            format!("L-h = {} independent rows of v = {v}", l - 1),
        ],
        vec![
            "TS-as-is (Fig. 10)".into(),
            format!("{} x {}", asis.n_samples(), asis.n_features()),
            format!("target lags only (p = {p})"),
        ],
    ];
    print_table(
        "F6-F10 — windowing transformers on a 100 x 3 series (p=8, h=1)",
        &["Transformer", "measured shape", "paper's law"],
        &rows,
    );
    println!("flat == cascaded cell-for-cell: {}", flat == cascaded);
}

/// F11 — Fig. 11: the full model comparison across series regimes.
fn exp_f11() {
    let eval = TsEvaluator::sliding(300, 10, 80, 2, Metric::Rmse).with_threads(8);
    let graph = TimeSeriesPipelineBuilder::new(16, 1, 1)
        .with_deep_variants(false)
        .with_all_scalers(false)
        .with_epochs(50)
        .with_seed(8)
        .build()
        .expect("fixed wiring");
    let regimes: Vec<(&str, Vec<f64>)> = vec![
        (
            "seasonal (period 16)",
            (0..500).map(|t| (2.0 * std::f64::consts::PI * t as f64 / 16.0).sin() * 3.0).collect(),
        ),
        ("AR(2) mean-reverting", synth::ar2_series(500, 0.5, 0.2, 1.0, 9)),
        ("random walk", synth::random_walk(500, 1.0, 10)),
    ];
    let families = [
        "lstm_simple",
        "cnn_simple",
        "wavenet",
        "seriesnet",
        "dnn_simple",
        "dnn_iid_simple",
        "zero_model",
        "ar_forecaster",
    ];
    let mut rows = Vec::new();
    for (name, series) in &regimes {
        let report = eval
            .evaluate_graph(&graph, &SeriesData::univariate(series.clone()))
            .expect("series long enough");
        let mut row = vec![name.to_string()];
        for f in families {
            row.push(report.score_for(f).map(|s| format!("{s:.3}")).unwrap_or_else(|| "-".into()));
        }
        row.push(report.best().map(|b| b.spec.steps.last().unwrap().clone()).unwrap_or_default());
        rows.push(row);
    }
    let mut headers = vec!["regime"];
    headers.extend(families);
    headers.push("winner");
    print_table("F11 — model RMSE by series regime (sliding split)", &headers, &rows);
    println!("paper's implied shape: temporal models win on structured series; the Zero baseline is near-unbeatable on a random walk.");
}

/// F12 — Fig. 12: sliding split vs naive K-fold on time series.
fn exp_f12() {
    let splits =
        CvStrategy::TimeSeriesSlidingSplit { train_size: 40, buffer: 5, validation_size: 15, k: 3 }
            .splits(100)
            .expect("fits");
    let rows: Vec<Vec<String>> = splits
        .iter()
        .enumerate()
        .map(|(i, s)| {
            vec![
                (i + 1).to_string(),
                format!("[{}, {}]", s.train[0], s.train.last().unwrap()),
                format!("[{}, {}]", s.validation[0], s.validation.last().unwrap()),
            ]
        })
        .collect();
    print_table(
        "F12 — TimeSeriesSlidingSplit windows (train 40, buffer 5, val 15, k 3, n 100)",
        &["slide", "train range", "validation range"],
        &rows,
    );
    // leakage demonstration: on a random walk, i.i.d. K-fold interleaves
    // future and past, making persistence-style lag features look better
    // than they are out-of-sample.
    let walk = synth::random_walk(400, 1.0, 11);
    let lagged = TsAsIs::new(WindowConfig::new(4, 1))
        .fit_transform(&SeriesData::univariate(walk).to_dataset())
        .expect("windows");
    let pipeline = Pipeline::from_nodes(vec![coda_core::Node::auto(
        (Box::new(coda_timeseries::ArForecaster::new()) as coda_data::BoxedEstimator).into(),
    )]);
    let kfold_scores =
        Evaluator::new(CvStrategy::KFold { k: 5, shuffle: true, seed: 1 }, Metric::Rmse)
            .evaluate_pipeline(&pipeline, &lagged)
            .expect("evaluates");
    let sliding_scores = Evaluator::new(
        CvStrategy::TimeSeriesSlidingSplit {
            train_size: 200,
            buffer: 10,
            validation_size: 60,
            k: 3,
        },
        Metric::Rmse,
    )
    .evaluate_pipeline(&pipeline, &lagged)
    .expect("evaluates");
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    println!(
        "AR on a random walk: shuffled 5-fold rmse {:.3} vs sliding-split rmse {:.3} (sliding is the honest, typically harder estimate)",
        mean(&kfold_scores),
        mean(&sliding_scores)
    );
}

/// D1 — §III delta encoding: wire bytes vs update fraction.
fn exp_d1() {
    let size = 262_144; // 256 KiB object
    let base = patterned_bytes(size, 1);
    let mut rows = Vec::new();
    for fraction in [0.001, 0.01, 0.05, 0.1, 0.25, 0.5, 0.9] {
        let contiguous = mutate_fraction(&base, fraction);
        let scattered = coda_bench::mutate_fraction_scattered(&base, fraction);
        let d_cont = DeltaCodec::encode(&base, &contiguous, 1, 2);
        let d_scat = DeltaCodec::encode(&base, &scattered, 1, 2);
        let ratio = d_cont.wire_size() as f64 / size as f64;
        rows.push(vec![
            format!("{:.1}%", fraction * 100.0),
            size.to_string(),
            d_cont.wire_size().to_string(),
            format!("{:.3}", ratio),
            d_scat.wire_size().to_string(),
            if ratio < 0.5 { "delta" } else { "full" }.into(),
        ]);
    }
    print_table(
        "D1 — delta vs full transfer, 256 KiB object",
        &[
            "changed",
            "full bytes",
            "delta (contiguous)",
            "ratio",
            "delta (scattered)",
            "store sends",
        ],
        &rows,
    );
    println!("paper: \"this delta may be considerably smaller than version 3 of o1\" — measured: true until the changed fraction crosses the advantage threshold, where the store falls back to full transfers.");
}

/// D2 — §III pull/push/lease modes: message and byte costs.
fn exp_d2() {
    let size = 65_536;
    let n_updates = 20;
    let modes: Vec<(&str, Option<PushMode>)> = vec![
        ("pull per update", None),
        ("push full", Some(PushMode::Full)),
        ("push delta", Some(PushMode::Delta)),
        ("notify only", Some(PushMode::NotifyOnly)),
    ];
    let mut rows = Vec::new();
    for (name, mode) in modes {
        let obs = Obs::deterministic();
        let mut store = HomeDataStore::new("home", 4);
        store.attach_obs(obs.clone());
        let mut client = CachingClient::new("c");
        let mut blob = patterned_bytes(size, 2);
        store.put("o", Bytes::from(blob.clone()));
        client.pull(&mut store, "o").expect("pull");
        if let Some(m) = mode {
            store.subscribe("c", "o", m, 1_000_000);
        }
        let start = obs.registry().snapshot();
        let before = client.bytes_received;
        for i in 0..n_updates {
            blob[i * 64] ^= 0xFF;
            let (_, pushes) = store.put("o", Bytes::from(blob.clone()));
            for p in &pushes {
                client.apply_push(p).expect("apply");
            }
            if mode.is_none() {
                client.pull(&mut store, "o").expect("pull");
            }
        }
        // notify-only: client fetches once at the end (when it needs data)
        if mode == Some(PushMode::NotifyOnly) {
            client.pull(&mut store, "o").expect("pull");
        }
        let stats = TransferStats::from_snapshot(&obs.registry().snapshot().diff(&start));
        rows.push(vec![
            name.into(),
            stats.messages.to_string(),
            (client.bytes_received - before).to_string(),
            client.held_version("o").unwrap().to_string(),
        ]);
    }
    print_table(
        &format!("D2 — update propagation over {n_updates} small updates to a 64 KiB object"),
        &["mode", "store msgs", "client bytes", "final version"],
        &rows,
    );
    println!("paper: push full/delta/notify trade immediacy for bandwidth; delta and notify-only cut bytes by orders of magnitude.");
}

/// D3 — §III recomputation triggers.
fn exp_d3() {
    let policies: Vec<(&str, RecomputeTrigger)> = vec![
        ("count >= 5", RecomputeTrigger::UpdateCount(5)),
        ("bytes >= 32768", RecomputeTrigger::UpdateBytes(32_768)),
        ("app: drift > 2.0", RecomputeTrigger::AppSpecific(Box::new(|s| s.magnitude > 2.0))),
    ];
    let mut rows = Vec::new();
    for (name, trigger) in policies {
        let mut monitor = ChangeMonitor::new(trigger);
        let mut fired_at = Vec::new();
        // 50 updates of 4 KiB; drift accumulates slowly then spikes at 30
        for i in 1..=50u64 {
            let magnitude = if i == 30 { 2.5 } else { 0.05 };
            if monitor.record_update(4096, magnitude) {
                fired_at.push(i);
            }
        }
        rows.push(vec![name.into(), monitor.recomputations.to_string(), format!("{fired_at:?}")]);
    }
    print_table(
        "D3 — recompute triggers over 50 updates (4 KiB each, drift spike at #30)",
        &["policy", "recomputations", "fired at update #"],
        &rows,
    );
    println!("paper: app-specific triggers are \"the best way\" — measured: they fire once, exactly at the drift spike, while count/bytes policies fire on a fixed cadence.");
}

/// D4 — robustness: the seeded chaos driver sweeps fault intensity over a
/// 4-client cooperative run and reports what the resilience machinery did.
fn exp_d4(obs: Option<&Obs>) {
    use coda_cluster::{run_chaos_coop, ChaosCoopConfig};
    let base = ChaosCoopConfig {
        seed: 17,
        n_clients: 4,
        n_keys: 16,
        drop_probability: 0.0,
        darr_partition: None,
        crash: None,
        claim_duration: 200,
        max_rounds: 10_000,
    };
    let scenarios: Vec<(&str, ChaosCoopConfig)> = vec![
        ("fault-free", base),
        ("20% drops", ChaosCoopConfig { drop_probability: 0.2, ..base }),
        (
            "drops + crash",
            ChaosCoopConfig { drop_probability: 0.2, crash: Some((2, 150.0, 650.0)), ..base },
        ),
        (
            "drops + crash + partition",
            ChaosCoopConfig {
                drop_probability: 0.2,
                crash: Some((2, 150.0, 650.0)),
                darr_partition: Some((300.0, 700.0)),
                ..base
            },
        ),
        (
            "40% drops + crash + partition",
            ChaosCoopConfig {
                drop_probability: 0.4,
                crash: Some((2, 150.0, 650.0)),
                darr_partition: Some((300.0, 700.0)),
                ..base
            },
        ),
    ];
    let mut rows = Vec::new();
    for (name, cfg) in &scenarios {
        let r = run_chaos_coop(cfg, 1, obs);
        assert_eq!(r, run_chaos_coop(cfg, 1, None), "same seed must replay identically");
        rows.push(vec![
            name.to_string(),
            format!("{}/{}", r.completed, r.n_keys),
            r.computed.to_string(),
            r.reused.to_string(),
            r.journaled.to_string(),
            r.replayed.to_string(),
            r.duplicates.to_string(),
            r.takeovers.to_string(),
            r.retry.retries.to_string(),
            format!("{:.0}", r.retry.total_backoff_ms),
            r.faults.dropped.to_string(),
        ]);
    }
    print_table(
        "D4 — chaos: 4 clients x 16 evaluations under injected faults (seed 17)",
        &[
            "scenario",
            "done",
            "computed",
            "reused",
            "journaled",
            "replayed",
            "dups",
            "takeovers",
            "retries",
            "backoff ms",
            "dropped",
        ],
        &rows,
    );
    println!("shape: every scenario completes all 16 evaluations; faults shift work from reuse to retries, journals and takeovers, and every duplicate computation is accounted — none are silent. Each row is verified to replay bit-identically from its seed.");
}

/// D5 — shared-prefix transform caching: cached vs uncached wall-clock on
/// fan-out TEGs, by path count and grid size. Every fan-out path shares a
/// 3-stage transformer prefix, so the cache fits it once per fold instead
/// of once per path per fold.
fn exp_d5(obs: Option<&Obs>) {
    use coda_bench::fan_out_graph;
    use coda_core::ParamGrid;

    let ds = synth::friedman1(1500, 30, 0.4, 55);
    let cv = CvStrategy::kfold(5);
    let time_eval = |cached: bool, graph: &coda_core::Teg, grid: Option<&ParamGrid>| {
        let mut eval = Evaluator::new(cv.clone(), Metric::Rmse).with_prefix_cache(cached);
        if let Some(o) = obs {
            eval = eval.with_obs(o.clone());
        }
        let start = std::time::Instant::now();
        let report = match grid {
            Some(g) => eval.evaluate_graph_with_grid(graph, &ds, g),
            None => eval.evaluate_graph(graph, &ds),
        }
        .expect("fan-out graph evaluates");
        (start.elapsed().as_secs_f64() * 1000.0, report)
    };

    let mut rows = Vec::new();
    for n_paths in [2usize, 4, 8, 16] {
        let graph = fan_out_graph(n_paths);
        let (uncached_ms, base) = time_eval(false, &graph, None);
        let (cached_ms, report) = time_eval(true, &graph, None);
        for (a, b) in base.results.iter().zip(&report.results) {
            assert_eq!(a.spec, b.spec);
            assert_eq!(a.mean_score.to_bits(), b.mean_score.to_bits(), "cached ≡ uncached");
        }
        let stats = report.cache.expect("cached run reports stats");
        assert!(stats.hits > 0, "fan-out must produce cache hits");
        rows.push(vec![
            n_paths.to_string(),
            "—".to_string(),
            format!("{uncached_ms:.0}"),
            format!("{cached_ms:.0}"),
            format!("{:.2}x", uncached_ms / cached_ms),
            format!("{}/{}", stats.hits, stats.lookups()),
            format!("{:.0}%", stats.hit_rate() * 100.0),
        ]);
    }
    // grid sweep over the estimator only: the transformer prefix stays
    // shared across every assignment, so hits scale with grid size too
    for grid_size in [2usize, 4] {
        let graph = fan_out_graph(4);
        let mut grid = ParamGrid::new();
        grid.add(
            "ridge_regression__alpha",
            (0..grid_size).map(|i| (0.01 * 10f64.powi(i as i32)).into()).collect(),
        );
        let (uncached_ms, base) = time_eval(false, &graph, Some(&grid));
        let (cached_ms, report) = time_eval(true, &graph, Some(&grid));
        for (a, b) in base.results.iter().zip(&report.results) {
            assert_eq!(a.mean_score.to_bits(), b.mean_score.to_bits(), "cached ≡ uncached");
        }
        let stats = report.cache.expect("cached run reports stats");
        assert!(stats.hits > 0, "grid fan-out must produce cache hits");
        rows.push(vec![
            "4".to_string(),
            grid_size.to_string(),
            format!("{uncached_ms:.0}"),
            format!("{cached_ms:.0}"),
            format!("{:.2}x", uncached_ms / cached_ms),
            format!("{}/{}", stats.hits, stats.lookups()),
            format!("{:.0}%", stats.hit_rate() * 100.0),
        ]);
    }
    print_table(
        "D5 — prefix cache: fan-out TEG (3-stage shared prefix), 1500x30 friedman1, 5-fold CV",
        &["paths", "grid", "uncached ms", "cached ms", "speedup", "hits/lookups", "hit rate"],
        &rows,
    );
    println!("shape: speedup grows with fan-out (more paths amortize each prefix fit) and holds under estimator-only grids; reports are verified bit-identical to the uncached run in every row.");
}

/// D6 — crash-stop failure handling: a two-node home/replica pair works
/// through a cooperative put + claim worklist while the chaos plan kills the
/// home at a WAL operation boundary. With a scheduled restart the node
/// replays its WAL byte-identically and rejoins; without one the phi-accrual
/// detector drives a lease-gated failover and the dead home's orphaned DARR
/// claim is reaped and taken over. Every scenario must land on the no-crash
/// digest.
fn exp_d6(obs: Option<&Obs>) {
    use coda_chaos::CrashPlan;
    use coda_cluster::{run_crash_recovery, CrashRecoveryConfig};

    let base = CrashRecoveryConfig::default();
    let baseline = run_crash_recovery(&base, 1, None);
    assert_eq!(baseline.failovers, 0, "the crash-free run must not move the home role");

    let scenarios: Vec<(&str, CrashRecoveryConfig)> = vec![
        ("crash-free", base.clone()),
        (
            "crash + restart",
            CrashRecoveryConfig {
                plan: CrashPlan::new().with_crash_at("node-0", 10, Some(500.0)),
                ..base.clone()
            },
        ),
        (
            "crash, no restart",
            CrashRecoveryConfig {
                plan: CrashPlan::new().with_crash_at("node-0", 9, None),
                ..base.clone()
            },
        ),
    ];
    let mut rows = Vec::new();
    for (name, cfg) in &scenarios {
        let r = run_crash_recovery(cfg, 1, obs);
        assert_eq!(r, run_crash_recovery(cfg, 1, None), "same seed must replay identically");
        assert_eq!(r.digest, baseline.digest, "{name}: must converge to the no-crash state");
        assert_eq!(r.recovery_mismatches, 0, "{name}: WAL replay must be byte-identical");
        rows.push(vec![
            name.to_string(),
            r.completed.to_string(),
            format!("{}/{}", r.crashes, r.restarts),
            r.wal_replayed_records.to_string(),
            r.byte_identical_recoveries.to_string(),
            format!("{}/{}", r.suspicions, r.deaths),
            r.failovers.to_string(),
            r.reaped_claims.to_string(),
            r.takeovers.to_string(),
            r.final_home.clone(),
        ]);
    }
    print_table(
        "D6 — crash recovery: 2-node home/replica pair, 8-item worklist (seed 7)",
        &[
            "scenario",
            "done",
            "crash/restart",
            "replayed",
            "byte-ident",
            "susp/dead",
            "failovers",
            "reaped",
            "takeovers",
            "final home",
        ],
        &rows,
    );
    println!("shape: every scenario converges to the crash-free digest; a restarted home replays its WAL to byte-identical state and rejoins as replica, while an unrecovered crash fails over only after the detector's dead verdict AND home-lease expiry, then reaps the orphaned claim.");
}

/// D7 — serving tier: zipf-skewed sustained load against the sharded
/// flat-combining tier, emitting the `BENCH_serving.json` ratchet baseline.
fn exp_d7(obs: Option<&Obs>) {
    let seed: u64 = std::env::var("SERVE_SEED")
        .ok()
        .map(|s| s.parse().expect("SERVE_SEED must be an integer"))
        .unwrap_or(7);
    let r = coda_bench::run_serving_bench(seed, obs);

    assert_eq!(r.shed, 0, "the closed loop keeps at most one request in flight per thread");
    assert!(
        r.per_shard_ops.iter().all(|&ops| ops > 0),
        "zipf traffic over {} keys must reach every shard: {:?}",
        512,
        r.per_shard_ops
    );
    assert!(
        r.total_ops >= (r.n_threads * 50_000) as u64,
        "every submitted op (plus cooperative completions) must be applied"
    );
    assert!(r.batches > 0 && r.trigger_firings > 0);

    let rows: Vec<Vec<String>> = r
        .per_shard_ops
        .iter()
        .enumerate()
        .map(|(i, &ops)| {
            vec![
                format!("shard-{i}"),
                ops.to_string(),
                format!("{:.1}%", 100.0 * ops as f64 / r.total_ops as f64),
            ]
        })
        .collect();
    print_table(
        &format!(
            "D7 — serving tier: {} clients, {} shards, zipf(s=1.1) over 512 keys (seed {seed})",
            r.n_clients, r.n_shards
        ),
        &["shard", "ops applied", "share"],
        &rows,
    );
    println!(
        "throughput: {:.0} ops/s ({} ops in {:.0} ms); latency p50={:.4} p95={:.4} p99={:.4} ms",
        r.throughput_ops_per_sec, r.total_ops, r.elapsed_ms, r.p50_ms, r.p95_ms, r.p99_ms
    );
    println!(
        "batching: {} batches, {:.2} ops/batch mean; {} recompute-trigger firings; {} shed",
        r.batches, r.mean_batch, r.trigger_firings, r.shed
    );
    std::fs::write("BENCH_serving.json", r.to_json()).expect("BENCH_serving.json must be writable");
    println!("wrote BENCH_serving.json (ratchet baseline for bench_gate)");
    println!("shape: hash-routing spreads the zipf head across shards (no shard starves), the closed loop never trips admission control, and each request is applied on a submitter's thread: a shard's lock holder applies every request published behind it in one combining pass.");
}

/// D8 — the ops plane: a deterministic clean/fault pair of serving-tier
/// scenarios observed through the flight recorder, burn-rate SLO engine,
/// and exemplar-sampled cost profiles. Writes `OPS_REPORT.json` (both
/// scenarios) and `COST_PROFILE.json` (the fault scenario's per-operator
/// self-times); both artifacts are byte-identical across same-seed runs.
fn exp_d8() {
    let seed: u64 = std::env::var("OPS_SEED")
        .ok()
        .map(|s| s.parse().expect("OPS_SEED must be an integer"))
        .unwrap_or(7);
    let report = coda_bench::run_ops_report(seed);

    assert_eq!(report.clean.burn_events, 0, "the healthy run must not page anyone");
    assert_eq!(report.clean.total_breaches, 0);
    assert!(report.fault.burn_events >= 1, "the fault run must fire slo.burn alerts");
    assert!(report.fault.serve_shed > 0, "held shards must shed the burst");

    let mut rows = Vec::new();
    for scenario in [&report.clean, &report.fault] {
        for s in &scenario.slo.statuses {
            rows.push(vec![
                scenario.name.clone(),
                s.slo.clone(),
                s.evaluations.to_string(),
                s.breaches.to_string(),
                format!("{:.2}", s.max_long_burn),
                format!("{:.2}", s.max_short_burn),
            ]);
        }
    }
    print_table(
        &format!("D8 — SLO burn rates over {} windows (seed {seed})", report.clean.windows),
        &["scenario", "slo", "evals", "breaches", "max long burn", "max short burn"],
        &rows,
    );
    println!(
        "flight: {} timeline windows retained; tail sampling kept {}/{} traces ({} of {} events)",
        report.fault.timeline.len(),
        report.fault.traces_kept,
        report.fault.traces_seen,
        report.fault.events_after,
        report.fault.events_before,
    );
    for cp in report.fault.critical_paths.iter().take(3) {
        println!("critical path: {} ({} @ {:.0} ms)", cp.path, cp.trace, cp.at_ms);
    }
    std::fs::write("OPS_REPORT.json", report.to_json()).expect("OPS_REPORT.json must be writable");
    std::fs::write("COST_PROFILE.json", report.fault.cost.to_json())
        .expect("COST_PROFILE.json must be writable");
    println!("wrote OPS_REPORT.json and COST_PROFILE.json (deterministic for a fixed seed)");
    println!("shape: the clean scenario never burns while every injected fault — shed bursts, a latency tail, failing OLS paths, an unrecovered home crash — pushes its declared SLO over both burn windows.");
}

/// D9 — from burn to blame: the diagnosis engine replays the D8 pair and
/// two targeted faults (single hot shard, single slow operator), then
/// scores each incident report against the injected ground truth. Writes
/// `DIAG_REPORT.json`, byte-identical across same-seed runs and across
/// serving shard counts.
fn exp_d9() {
    let seed: u64 = std::env::var("DIAG_SEED")
        .ok()
        .map(|s| s.parse().expect("DIAG_SEED must be an integer"))
        .unwrap_or(7);
    let bundle = coda_bench::run_diag_report(seed, 2);

    assert_eq!(bundle.clean.incidents, 0, "the healthy run must diagnose to zero incidents");
    assert!(bundle.fault.incidents > 0, "the fault run must raise incidents");
    assert!(bundle.all_attributed(), "every scenario must attribute to its injected cause");

    let mut rows = Vec::new();
    for s in [&bundle.clean, &bundle.fault, &bundle.hot_shard, &bundle.slow_operator] {
        let top = s.top_suspects.first().cloned().unwrap_or_else(|| "-".to_string());
        rows.push(vec![
            s.name.clone(),
            s.incidents.to_string(),
            s.injected.first().cloned().unwrap_or_else(|| "-".to_string()),
            top,
            if s.attributed == 1 { "yes" } else { "NO" }.to_string(),
        ]);
    }
    print_table(
        &format!("D9 — incident diagnosis vs injected ground truth (seed {seed})"),
        &["scenario", "incidents", "injected cause", "top suspect", "attributed"],
        &rows,
    );
    for inc in &bundle.slow_operator.report.incidents {
        if !inc.critical_path.is_empty() {
            println!("critical path ({}): {}", inc.slo, inc.critical_path.join(" > "));
        }
    }
    std::fs::write("DIAG_REPORT.json", bundle.to_json())
        .expect("DIAG_REPORT.json must be writable");
    println!("wrote DIAG_REPORT.json (deterministic for a fixed seed, any shard count)");
    println!("shape: the clean run stays silent, the D8 fault families all surface as suspects, and each targeted fault pins its injected cause — the hot shard by its queue-wait split, the slow operator by its spec-labeled eval path.");
}

/// S1 — §IV-E solution templates on synthetic industrial data.
fn exp_s1() {
    let fleet = synth::failure_prediction_data(40, 120, 10, 12);
    let fpa = FailurePredictionAnalysis::new()
        .with_fast_settings()
        .with_threads(4)
        .run(&fleet)
        .expect("labeled data");
    let (process, causal) = synth::root_cause_data(500, 8, 3, 13);
    let rca = RootCauseAnalysis::new().run(&process).expect("labeled data");
    let causal_names: Vec<String> = causal.iter().map(|c| format!("x{c}")).collect();
    let top3: Vec<String> = rca.top_factors(3).iter().map(|s| s.to_string()).collect();
    let recovered = causal_names.iter().filter(|c| top3.contains(c)).count();
    let (sensor, truth) = synth::anomaly_data(2000, 4, 0.03, 14);
    let anomalies =
        AnomalyAnalysis::new().fit(&sensor).expect("fits").detect(&sensor).expect("detects");
    let truth_f: Vec<f64> = truth.iter().map(|&t| if t { 1.0 } else { 0.0 }).collect();
    let flags_f: Vec<f64> = anomalies.flags.iter().map(|&f| if f { 1.0 } else { 0.0 }).collect();
    let anomaly_f1 = coda_data::metrics::f1_score(&truth_f, &flags_f, 1.0).expect("computable");
    let (assets, cohort_truth) = synth::cohort_data(120, 4, 6, 15);
    let cohorts = CohortAnalysis::new(4).run(&assets).expect("clusters");
    let rows = vec![
        vec![
            "Failure Prediction".into(),
            format!("F1 {:.3}", fpa.f1),
            format!("best: {}", fpa.best_pipeline.join(" -> ")),
        ],
        vec![
            "Root Cause".into(),
            format!("R2 {:.3}, {recovered}/3 causal factors in top-3", rca.explained_r2),
            format!("top: {top3:?}"),
        ],
        vec![
            "Anomaly".into(),
            format!("F1 {anomaly_f1:.3}"),
            format!("flagged {:.1}%", anomalies.flagged_fraction * 100.0),
        ],
        vec![
            "Cohort".into(),
            format!("purity {:.3}", cohorts.purity_against(&cohort_truth)),
            format!("sizes {:?}", cohorts.sizes),
        ],
    ];
    print_table(
        "S1 — solution templates on synthetic industrial data",
        &["Template", "Quality", "Detail"],
        &rows,
    );
}

/// A1 — ablation: delta history depth vs transfer mix. Clients lag by a
/// varying number of versions; a deeper history keeps more of them on the
/// cheap delta path.
fn exp_a1() {
    let object_size = 65_536usize;
    let mut rows = Vec::new();
    for depth in [1usize, 2, 4, 8] {
        let obs = Obs::deterministic();
        let mut store = HomeDataStore::new("home", depth);
        store.attach_obs(obs.clone());
        let mut blob = patterned_bytes(object_size, 3);
        store.put("o", Bytes::from(blob.clone()));
        // 8 versions
        for i in 0..8usize {
            blob[i * 128] ^= 0xFF;
            store.put("o", Bytes::from(blob.clone()));
        }
        let start = obs.registry().snapshot();
        // clients holding versions 1..=8 all sync to version 9
        for held in 1..=8u64 {
            store.fetch("o", Some(held)).expect("infallible");
        }
        let stats = TransferStats::from_snapshot(&obs.registry().snapshot().diff(&start));
        rows.push(vec![
            depth.to_string(),
            stats.delta_transfers.to_string(),
            stats.full_transfers.to_string(),
            stats.bytes.to_string(),
        ]);
    }
    print_table(
        "A1 — ablation: history depth vs transfer mix (8 lagging clients, 64 KiB object)",
        &["history depth", "delta transfers", "full transfers", "bytes"],
        &rows,
    );
    println!("design choice: the store precomputes d(o, k-i, k) only for retained versions; deeper history trades memory for bandwidth.");
}

/// A2 — ablation: parallel path evaluation thread scaling on the 36-path
/// Listing-1 graph.
fn exp_a2() {
    let ds = synth::friedman1(800, 10, 0.5, 21);
    let graph = listing1_graph();
    let mut rows = Vec::new();
    let mut base_ms = 0.0;
    for threads in [1usize, 2, 4, 8] {
        let eval = Evaluator::new(CvStrategy::kfold(3), Metric::Rmse).with_threads(threads);
        let start = std::time::Instant::now();
        let report = eval.evaluate_graph(&graph, &ds).expect("graph evaluates");
        let ms = start.elapsed().as_secs_f64() * 1000.0;
        if threads == 1 {
            base_ms = ms;
        }
        rows.push(vec![
            threads.to_string(),
            format!("{ms:.0}"),
            format!("{:.2}x", base_ms / ms),
            report.n_ok().to_string(),
        ]);
    }
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    print_table(
        &format!("A2 — ablation: evaluator thread scaling (36 paths, 3-fold CV, host has {cores} core(s))"),
        &["threads", "wall ms", "speedup", "paths ok"],
        &rows,
    );
    println!("paper: \"parameter optimizations can be done via parallel invocations\" — expected speedup saturates at min(threads, cores, paths); on this {cores}-core host the parallel path is exercised for correctness (identical reports at every thread count) rather than for throughput.");
}

/// A3 — ablation: history window length for forecasting a seasonal series.
fn exp_a3() {
    let period = 16usize;
    let series = synth::trend_seasonal_series(600, period as f64, 1.5, 24);
    let mut rows = Vec::new();
    for p in [2usize, 4, 8, 16, 32] {
        let lagged = TsAsIs::new(WindowConfig::new(p, 1))
            .fit_transform(&SeriesData::univariate(series.clone()).to_dataset())
            .expect("windows");
        let pipeline = Pipeline::from_nodes(vec![coda_core::Node::auto(
            (Box::new(coda_timeseries::ArForecaster::new()) as coda_data::BoxedEstimator).into(),
        )]);
        let scores = Evaluator::new(
            CvStrategy::TimeSeriesSlidingSplit {
                train_size: 300,
                buffer: 10,
                validation_size: 80,
                k: 2,
            },
            Metric::Rmse,
        )
        .evaluate_pipeline(&pipeline, &lagged)
        .expect("evaluates");
        let mean = scores.iter().sum::<f64>() / scores.len() as f64;
        rows.push(vec![
            p.to_string(),
            format!("{mean:.4}"),
            if p >= period { "covers one period".into() } else { String::new() },
        ]);
    }
    print_table(
        &format!("A3 — ablation: AR history window vs RMSE (seasonal series, period {period})"),
        &["history p", "rmse", ""],
        &rows,
    );
    println!("design choice: the pipeline builder's history window must reach the dominant period; error collapses once p covers it.");
}

/// A4 — nested vs plain cross-validation: the optimism of tuning and
/// reporting on the same folds (§IV-B's Nested K-fold), averaged over
/// repeated draws so the selection bias is visible above fold noise.
fn exp_a4() {
    use coda_ml::KnnRegressor;
    let grid_values: Vec<coda_data::ParamValue> = (1..=15).map(|k| (k as usize).into()).collect();
    let mut grid = coda_core::ParamGrid::new();
    grid.add("knn_regressor__k", grid_values);
    let pipeline = Pipeline::from_nodes(vec![coda_core::Node::auto(
        (Box::new(KnnRegressor::new(1)) as coda_data::BoxedEstimator).into(),
    )]);
    let graph = coda_core::TegBuilder::new()
        .add_models(vec![Box::new(KnnRegressor::new(1))])
        .create_graph()
        .expect("single node");
    let mut plain_sum = 0.0;
    let mut nested_sum = 0.0;
    let mut truth_sum = 0.0;
    let reps = 8u64;
    for seed in 0..reps {
        let ds = synth::friedman1(120, 5, 2.0, 600 + seed);
        let fresh = synth::friedman1(600, 5, 2.0, 700 + seed);
        let eval = Evaluator::new(CvStrategy::kfold(4), Metric::Rmse);
        let plain = eval.evaluate_graph_with_grid(&graph, &ds, &grid).expect("evaluates");
        plain_sum += plain.best().expect("paths evaluated").mean_score;
        let nested =
            eval.nested_evaluate(&pipeline, &ds, &grid, CvStrategy::kfold(3)).expect("evaluates");
        nested_sum += nested.outer_mean();
        let params = nested.consensus_params().expect("folds ran").clone();
        let mut deployed = pipeline.fresh_clone();
        deployed.apply_matching_params(&params).expect("grid params valid");
        deployed.fit(&ds).expect("fits");
        let pred = deployed.predict(&fresh).expect("predicts");
        truth_sum += coda_data::metrics::rmse(fresh.target().unwrap(), &pred).expect("computable");
    }
    let n = reps as f64;
    let rows = vec![
        vec!["plain grid-search CV (selection folds)".into(), format!("{:.4}", plain_sum / n)],
        vec!["nested CV outer estimate".into(), format!("{:.4}", nested_sum / n)],
        vec!["true error on fresh data".into(), format!("{:.4}", truth_sum / n)],
    ];
    print_table(
        "A4 — nested vs plain CV (15-point kNN grid, n=120, mean of 8 draws, rmse)",
        &["estimate", "rmse"],
        &rows,
    );
    println!(
        "shape: plain reports the winner's own selection folds and is optimistic; nested's outer estimate is higher (honest). Measured selection bias: {:.1}% (fresh-data error is lower than both because the deployed model refits on all n=120 samples while CV folds train on 90).",
        ((nested_sum - plain_sum) / nested_sum) * 100.0
    );
}

/// A5 — retraining policy trade-off (§II's lifecycle discussion), measured.
fn exp_a5() {
    use coda_cluster::{ModelLifecycle, RetrainPolicy};
    use coda_ml::LinearRegression;
    let make_batch = |n: usize, slope: f64, seed: u64| {
        let base = synth::linear_regression(n, 1, 0.0, seed);
        let y: Vec<f64> = base.features().col(0).iter().map(|v| slope * v).collect();
        Dataset::new(base.features().clone()).with_target(y).expect("lengths match")
    };
    let mut rows = Vec::new();
    for (name, policy) in [
        ("never", RetrainPolicy::Never),
        ("every batch", RetrainPolicy::EveryNBatches(1)),
        ("every 4 batches", RetrainPolicy::EveryNBatches(4)),
        ("on drift 25%", RetrainPolicy::OnDrift { tolerance_ratio: 0.25, window: 2 }),
    ] {
        let pipeline = Pipeline::from_nodes(vec![coda_core::Node::auto(
            (Box::new(LinearRegression::new()) as coda_data::BoxedEstimator).into(),
        )]);
        let mut lc =
            ModelLifecycle::deploy(pipeline, &make_batch(300, 2.0, 31), Metric::Rmse, policy)
                .expect("deploys");
        for i in 0..16u64 {
            let slope = if i < 8 { 2.0 } else { -1.0 }; // concept drift at batch 8
            lc.process_batch(&make_batch(150, slope, 400 + i)).expect("batch processes");
        }
        rows.push(vec![
            name.into(),
            format!("{:.3}", lc.lifetime_error()),
            lc.retrain_count.to_string(),
        ]);
    }
    print_table(
        "A5 — retraining policies under concept drift (16 batches, drift at #8)",
        &["policy", "lifetime rmse", "retrains"],
        &rows,
    );
    println!("paper: \"Too frequent retraining can result in high overhead, while too infrequent retraining can result in obsolete models\" — the drift policy reaches cadence-level error at a fraction of the retrains.");
}

/// A6 — §IV-C3's explicit performance claim: "One of the advantage standard
/// DNNs offer over LSTMs is their much faster speed of execution", with CNNs
/// "providing faster performance when compared to LSTMs" (§IV-C2).
fn exp_a6() {
    use coda_data::Estimator;
    use coda_timeseries::{CnnForecaster, DnnForecaster, LstmForecaster};
    let p = 24;
    let series = SeriesData::univariate(synth::trend_seasonal_series(400, 24.0, 0.5, 41));
    let windowed = CascadedWindows::new(WindowConfig::new(p, 1))
        .fit_transform(&series.to_dataset())
        .expect("windows");
    let epochs = 20usize;
    let time_fit = |mut m: Box<dyn Estimator>| -> (f64, f64) {
        let start = std::time::Instant::now();
        m.fit(&windowed).expect("fits");
        let ms = start.elapsed().as_secs_f64() * 1000.0;
        let pred = m.predict(&windowed).expect("predicts");
        let rmse = coda_data::metrics::rmse(windowed.target().unwrap(), &pred).expect("computable");
        (ms, rmse)
    };
    let jobs: Vec<(&str, Box<dyn Estimator>)> = vec![
        ("dnn_simple", Box::new(DnnForecaster::simple(p).with_epochs(epochs))),
        ("cnn_simple", Box::new(CnnForecaster::simple(p, 1).with_epochs(epochs))),
        ("lstm_simple", Box::new(LstmForecaster::simple(p, 1).with_epochs(epochs))),
        ("lstm_deep", Box::new(LstmForecaster::deep(p, 1).with_epochs(epochs))),
    ];
    let mut dnn_ms = 0.0;
    let mut lstm_ms = 0.0;
    let mut rows = Vec::new();
    for (name, model) in jobs {
        let (ms, rmse) = time_fit(model);
        if name == "dnn_simple" {
            dnn_ms = ms;
        }
        if name == "lstm_simple" {
            lstm_ms = ms;
        }
        rows.push(vec![name.into(), format!("{ms:.0}"), format!("{rmse:.3}")]);
    }
    print_table(
        &format!("A6 — training speed, {epochs} epochs on 376 windows of p={p} (same data)"),
        &["model", "fit ms", "train rmse"],
        &rows,
    );
    println!(
        "paper: standard DNNs are \"much faster\" than LSTMs — measured: the simple LSTM costs {:.0}x the simple DNN to train; CNN sits between.",
        lstm_ms / dnn_ms.max(1.0)
    );
}

/// A7 — selective testing (the paper's title and §III: "the total number of
/// possible calculations … is generally too large to exhaustively
/// determine"): successive halving vs exhaustive evaluation.
fn exp_a7() {
    let ds = synth::friedman1(800, 8, 0.8, 51);
    let graph = listing1_graph();
    let eval = Evaluator::new(CvStrategy::kfold(4), Metric::Rmse);
    let start = std::time::Instant::now();
    let exhaustive = eval.evaluate_graph(&graph, &ds).expect("graph evaluates");
    let exhaustive_ms = start.elapsed().as_secs_f64() * 1000.0;
    let exhaustive_cost = 36 * 4 * ds.n_samples();
    let start = std::time::Instant::now();
    let halving = eval.successive_halving(&graph, &ds, 80, 3).expect("search succeeds");
    let halving_ms = start.elapsed().as_secs_f64() * 1000.0;
    let rows = vec![
        vec![
            "exhaustive (36 paths, 4-fold)".into(),
            exhaustive_cost.to_string(),
            format!("{exhaustive_ms:.0}"),
            exhaustive.best().expect("paths ok").spec.steps.join(" -> "),
            format!("{:.4}", exhaustive.best().expect("paths ok").mean_score),
        ],
        vec![
            "successive halving".into(),
            halving.samples_spent.to_string(),
            format!("{halving_ms:.0}"),
            halving.best().expect("finalists").spec.steps.join(" -> "),
            format!("{:.4}", halving.best().expect("finalists").mean_score),
        ],
    ];
    print_table(
        "A7 — selective vs exhaustive path evaluation (friedman1, n=800)",
        &["strategy", "sample-evals", "wall ms", "winner", "winner rmse"],
        &rows,
    );
    let rounds: Vec<String> = halving
        .rounds
        .iter()
        .map(|r| format!("round {}: {} survivors @ {} samples", r.round, r.survivors, r.samples))
        .collect();
    println!("halving schedule: {}", rounds.join("; "));
    println!(
        "shape: selective testing reaches a same-quality winner at {:.0}% of the exhaustive sample budget.",
        100.0 * halving.samples_spent as f64 / exhaustive_cost as f64
    );
}

/// S2 — censored failure-time analysis (§II: "the issue of censored data"):
/// Kaplan-Meier estimation vs the naive mean of observed failures.
fn exp_s2() {
    use coda_templates::FailureTimeAnalysis;
    let fta = FailureTimeAnalysis::new();
    let true_mean = 50.0;
    let true_median = true_mean * std::f64::consts::LN_2;
    let mut rows = Vec::new();
    for study_end in [30.0, 60.0, 120.0] {
        let (durations, observed) = synth::failure_times(2000, true_mean, study_end, 61);
        let censored = observed.iter().filter(|&&o| !o).count() as f64 / observed.len() as f64;
        let report = fta.run(durations, observed).expect("valid survival data");
        rows.push(vec![
            format!("{study_end}"),
            format!("{:.0}%", censored * 100.0),
            report
                .median_time_to_failure
                .map(|m| format!("{m:.1}"))
                .unwrap_or_else(|| "not estimable".into()),
            format!("{true_median:.1}"),
            format!("{:.1}", report.naive_mean_failure_time),
        ]);
    }
    print_table(
        "S2 — Kaplan-Meier vs naive estimates under censoring (true mean lifetime 50)",
        &["study end", "censored", "KM median", "true median", "naive mean of failures"],
        &rows,
    );
    let short = synth::failure_times(400, 20.0, 80.0, 62);
    let long = synth::failure_times(400, 60.0, 80.0, 63);
    let (chi2, differs) = fta.compare_cohorts(short, long).expect("valid cohorts");
    println!(
        "log-rank test between mean-20 and mean-60 cohorts: chi2 = {chi2:.1}, differs at 0.05: {differs}"
    );
    println!("shape: the KM median stays near the truth at every censoring level while the naive mean collapses toward the study cutoff.");
}
