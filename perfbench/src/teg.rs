//! The TEG workloads: repeated `evaluate_graph` calls that return the
//! ranked report, and the traced replay from the graph down to single
//! operators.

use std::collections::BTreeMap;
use std::time::Instant;

use coda_core::{CacheStats, Component, Evaluator, Node, PathResult, Pipeline, Teg, TegBuilder};
use coda_data::{synth, BoxedEstimator, BoxedTransformer, CvStrategy, Dataset, Metric, NoOp};
use coda_ml::{
    DecisionTreeRegressor, KnnRegressor, MinMaxScaler, Pca, RandomForestRegressor, RobustScaler,
    ScoreFunction, SelectKBest, StandardScaler,
};
use coda_timeseries::{SeriesData, TimeSeriesPipelineBuilder, TsEvaluator};

use crate::spans::Recorder;
use crate::stats;

/// Evaluator threads (the reference machine has two cores).
pub const EVAL_THREADS: usize = 2;
/// Evaluations per timed phase at the least, however long they take.
pub const MIN_EVALS: usize = 3;
/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 41;

/// Forecast graph: history window, deep-model epochs, sliding split.
const HISTORY: usize = 24;
const EPOCHS: usize = 5;
const SERIES_LEN: usize = 500;
const LSTM_HIDDEN: usize = 16;

/// Which TEG workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Listing 1 on friedman1.
    Tabular,
    /// The Fig. 11 time-series graph on a trend+seasonal series.
    Forecast,
}

/// The data and graph of one TEG workload.
pub struct Inputs {
    /// Which workload.
    pub workload: Workload,
    /// The tabular dataset, or the series as a one-column dataset.
    pub data: Dataset,
    /// The series (forecast only).
    pub series: Option<SeriesData>,
    /// The graph.
    pub graph: Teg,
    /// Its enumerated paths.
    pub pipelines: Vec<Pipeline>,
}

/// The Fig. 3 / Listing 1 graph: 4 scalers x 3 selectors x 3 models.
pub fn listing1_graph() -> Teg {
    TegBuilder::new()
        .add_feature_scalers(vec![
            Box::new(MinMaxScaler::new()) as BoxedTransformer,
            Box::new(StandardScaler::new()),
            Box::new(RobustScaler::new()),
            Box::new(NoOp::new()),
        ])
        .add_feature_selectors(vec![
            Box::new(Pca::new(4)) as BoxedTransformer,
            Box::new(SelectKBest::new(4, ScoreFunction::FRegression)),
            Box::new(NoOp::new()),
        ])
        .add_models(vec![
            Box::new(DecisionTreeRegressor::new()) as BoxedEstimator,
            Box::new(KnnRegressor::new(5)),
            Box::new(RandomForestRegressor::new(15)),
        ])
        .create_graph()
        .expect("fixed wiring is acyclic")
}

impl Inputs {
    /// Builds the data, the graph and the path enumeration from `seed`.
    pub fn new(workload: Workload, seed: u64) -> Self {
        match workload {
            Workload::Tabular => {
                let data = synth::friedman1(800, 8, 0.8, seed);
                let graph = listing1_graph();
                let pipelines = graph.enumerate_pipelines().expect("fixed wiring");
                Inputs { workload, data, series: None, graph, pipelines }
            }
            Workload::Forecast => {
                let series = SeriesData::univariate(synth::trend_seasonal_series(
                    SERIES_LEN, 24.0, 0.4, seed,
                ));
                let graph = TimeSeriesPipelineBuilder::new(HISTORY, 1, 1)
                    .with_deep_variants(false)
                    .with_all_scalers(true)
                    .with_epochs(EPOCHS)
                    .with_seed(seed)
                    .build()
                    .expect("fixed wiring");
                let pipelines = graph.enumerate_pipelines().expect("fixed wiring");
                Inputs {
                    workload,
                    data: series.to_dataset(),
                    series: Some(series),
                    graph,
                    pipelines,
                }
            }
        }
    }

    /// The cross-validation strategy of this workload.
    pub fn cv(&self) -> CvStrategy {
        match self.workload {
            Workload::Tabular => CvStrategy::kfold(4),
            Workload::Forecast => CvStrategy::TimeSeriesSlidingSplit {
                train_size: 300,
                buffer: 10,
                validation_size: 90,
                k: 2,
            },
        }
    }

    /// Pipeline-fold evaluations in one `evaluate_graph` call.
    pub fn path_folds(&self) -> usize {
        self.pipelines.len() * self.cv().n_splits()
    }

    /// One `evaluate_graph` call: the ranked results and, for the tabular
    /// workload, the prefix-cache accounting.
    pub fn evaluate(
        &self,
        threads: usize,
    ) -> Result<(Vec<PathResult>, Option<CacheStats>), String> {
        match (self.workload, &self.series) {
            (Workload::Forecast, Some(series)) => {
                let CvStrategy::TimeSeriesSlidingSplit { train_size, buffer, validation_size, k } =
                    self.cv()
                else {
                    unreachable!("the forecast workload uses a sliding split")
                };
                TsEvaluator::sliding(train_size, buffer, validation_size, k, Metric::Rmse)
                    .with_threads(threads)
                    .evaluate_graph(&self.graph, series)
                    .map(|r| (r.results, None))
                    .map_err(|e| e.to_string())
            }
            _ => Evaluator::new(self.cv(), Metric::Rmse)
                .with_threads(threads)
                .with_prefix_cache(true)
                .evaluate_graph(&self.graph, &self.data)
                .map(|r| (r.results, r.cache))
                .map_err(|e| e.to_string()),
        }
    }
}

/// FNV-1a over the ranking and the bits of every fold score: two reports
/// share a digest only if they rank the same paths the same way with
/// bit-identical scores.
pub fn digest(results: &[PathResult]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for r in results {
        eat(r.spec.key().as_bytes());
        eat(&[u8::from(r.error.is_some())]);
        for s in &r.fold_scores {
            eat(&s.to_bits().to_le_bytes());
        }
        eat(&r.mean_score.to_bits().to_le_bytes());
    }
    h
}

/// The reference digest kept in `digests.txt` for `workload` and `seed`.
pub fn reference_digest(workload: &str, seed: u64) -> Option<u64> {
    include_str!("../digests.txt").lines().find_map(|line| {
        let mut f = line.split_whitespace();
        (f.next()? == workload && f.next()?.parse::<u64>().ok()? == seed)
            .then(|| u64::from_str_radix(f.next()?, 16).ok())
            .flatten()
    })
}

/// Timings and checks of a run of consecutive evaluations.
#[derive(Debug, Default)]
pub struct EvalRun {
    /// Seconds per `evaluate_graph` call.
    pub eval_s: Vec<f64>,
    /// Wall time of the whole loop.
    pub wall_s: f64,
    /// Paths evaluated.
    pub attempted: u64,
    /// Failed paths plus evaluations whose digest did not match.
    pub failed: u64,
    /// Failure messages.
    pub errors: Vec<String>,
    /// The digest of the first evaluation.
    pub digest: Option<u64>,
    /// Prefix-cache accounting of the last evaluation.
    pub cache: Option<CacheStats>,
}

/// Evaluates the graph over and over for `seconds` (at least
/// [`MIN_EVALS`] times), checking every report against `expect` — the
/// reference digest, or else the run's first report.
pub fn eval_loop(
    inputs: &Inputs,
    threads: usize,
    seconds: f64,
    min_evals: usize,
    expect: Option<u64>,
    mut rec: Option<&mut Recorder>,
) -> EvalRun {
    let mut run = EvalRun::default();
    let start = Instant::now();
    while run.eval_s.len() < min_evals || start.elapsed().as_secs_f64() < seconds {
        let t0 = Instant::now();
        let out = inputs.evaluate(threads);
        let t1 = Instant::now();
        if let Some(r) = rec.as_deref_mut() {
            r.record("core.evaluate_graph", None, run.eval_s.len() as u64, t0, t1);
        }
        run.eval_s.push((t1 - t0).as_secs_f64());
        run.attempted += inputs.pipelines.len() as u64;
        match out {
            Ok((results, cache)) => {
                let bad = results.iter().filter(|r| !r.is_ok()).count() as u64;
                if bad > 0 {
                    run.failed += bad;
                    run.errors.push(format!("{bad} paths failed"));
                }
                let d = digest(&results);
                let want = *run.digest.get_or_insert(expect.unwrap_or(d));
                if d != want {
                    run.failed += 1;
                    run.errors.push(format!("report digest {d:016x}, expected {want:016x}"));
                }
                run.cache = cache;
            }
            Err(e) => {
                run.failed += inputs.pipelines.len() as u64;
                run.errors.push(e);
            }
        }
    }
    run.wall_s = start.elapsed().as_secs_f64();
    run
}

/// Builds the inputs `SETUP_REPEATS` times; returns the last with the
/// set-up times.
pub fn setup_repeated(workload: Workload, seed: u64) -> (Inputs, Vec<f64>) {
    let mut times = Vec::new();
    loop {
        let t0 = Instant::now();
        let inputs = std::hint::black_box(Inputs::new(workload, seed));
        times.push(t0.elapsed().as_secs_f64());
        if times.len() == SETUP_REPEATS {
            return (inputs, times);
        }
    }
}

/// Where an operator's time is reported.
pub fn operator_metric(name: &str) -> String {
    const WINDOWS: [&str; 4] = ["cascaded_windows", "flat_windowing", "ts_as_iid", "ts_as_is"];
    const NN: [&str; 7] = [
        "lstm_simple",
        "cnn_simple",
        "wavenet",
        "seriesnet",
        "dnn_simple",
        "dnn_iid_simple",
        "ar_forecaster",
    ];
    if WINDOWS.contains(&name) {
        format!("timeseries.window_ms.{name}")
    } else if NN.contains(&name) {
        format!("nn.fit_ms.{name}")
    } else {
        format!("ml.fit_ms.{name}")
    }
}

/// What the traced replay measured.
#[derive(Debug, Default)]
pub struct Replay {
    /// Per operator metric name: fit plus predict (or transform) ms per
    /// path and fold.
    pub operator_ms: BTreeMap<String, Vec<f64>>,
    /// Per path: the sum over folds of its pipeline fit + predict time.
    pub path_ms: Vec<f64>,
    /// Computed LSTM floating-point operations and the seconds they took.
    pub lstm_flop: f64,
    /// Seconds of LSTM fit + predict.
    pub lstm_s: f64,
    /// Failed pipeline or operator runs.
    pub failed: u64,
    /// Failure messages.
    pub errors: Vec<String>,
}

/// Computed LSTM floating-point operations for `rows` windows: four gates
/// of (inputs + hidden) x hidden multiply-adds per timestep; training
/// runs forward and backward (about three forward passes) every epoch.
fn lstm_flop(train_rows: usize, predict_rows: usize) -> f64 {
    let per_step = 8.0 * LSTM_HIDDEN as f64 * (1 + LSTM_HIDDEN) as f64;
    let steps = HISTORY as f64 * per_step;
    (3.0 * EPOCHS as f64 * train_rows as f64 + predict_rows as f64) * steps
}

/// Replays every path and fold single-threaded: a `core.pipeline` span
/// around `Pipeline::fit` and `predict`, then each operator alone on the
/// output of the ones before it — transformers through their own
/// `fit_transform`/`transform`, estimators through a single-node
/// `Pipeline::from_nodes`.
pub fn replay(inputs: &Inputs, rec: &mut Recorder) -> Replay {
    let mut out = Replay { path_ms: vec![0.0; inputs.pipelines.len()], ..Replay::default() };
    let splits = match inputs.cv().splits_for(&inputs.data) {
        Ok(s) => s,
        Err(e) => {
            out.failed += 1;
            out.errors.push(e.to_string());
            return out;
        }
    };
    let fail = |out: &mut Replay, e: String| {
        out.failed += 1;
        if out.errors.len() < 5 {
            out.errors.push(e);
        }
    };
    let mut span_names: BTreeMap<String, &'static str> = BTreeMap::new();
    for (p, pipeline) in inputs.pipelines.iter().enumerate() {
        for (f, split) in splits.iter().enumerate() {
            let req = (p * splits.len() + f) as u64;
            let train = inputs.data.select(&split.train);
            let validation = inputs.data.select(&split.validation);
            let mut fresh = pipeline.fresh_clone();
            let t0 = Instant::now();
            let whole = fresh.fit(&train).and_then(|()| fresh.predict(&validation));
            let t1 = Instant::now();
            rec.record("core.pipeline", Some("core.evaluate_graph"), req, t0, t1);
            out.path_ms[p] += (t1 - t0).as_secs_f64() * 1e3;
            if let Err(e) = whole {
                fail(&mut out, format!("{pipeline}: {e}"));
                continue;
            }
            let (mut cur_train, mut cur_val) = (train, validation);
            for node in pipeline.nodes() {
                let t0 = Instant::now();
                let step = run_operator(node, &cur_train, &cur_val);
                let t1 = Instant::now();
                let metric = operator_metric(node.name());
                let span: &'static str = span_names
                    .entry(metric.clone())
                    .or_insert_with(|| Box::leak(metric.clone().into_boxed_str()));
                rec.record(span, Some("core.pipeline"), req, t0, t1);
                let ms = (t1 - t0).as_secs_f64() * 1e3;
                if node.name() == "lstm_simple" {
                    out.lstm_flop += lstm_flop(cur_train.n_samples(), cur_val.n_samples());
                    out.lstm_s += ms / 1e3;
                }
                out.operator_ms.entry(metric).or_default().push(ms);
                match step {
                    Ok(Some((t, v))) => (cur_train, cur_val) = (t, v),
                    Ok(None) => {}
                    Err(e) => {
                        fail(&mut out, format!("{}: {e}", node.name()));
                        break;
                    }
                }
            }
        }
    }
    out
}

/// Runs one operator: a transformer returns its transformed train and
/// validation sets, an estimator fits and predicts (returning `None`).
fn run_operator(
    node: &Node,
    train: &Dataset,
    validation: &Dataset,
) -> Result<Option<(Dataset, Dataset)>, String> {
    match node.component() {
        Component::Transform(t) => {
            let mut t = t.clone_box();
            let tr = t.fit_transform(train).map_err(|e| e.to_string())?;
            let va = t.transform(validation).map_err(|e| e.to_string())?;
            Ok(Some((tr, va)))
        }
        Component::Estimate(_) => {
            let mut single = Pipeline::from_nodes(vec![node.clone()]);
            single.fit(train).map_err(|e| e.to_string())?;
            std::hint::black_box(single.predict(validation).map_err(|e| e.to_string())?);
            Ok(None)
        }
    }
}

fn workload_name(w: Workload) -> &'static str {
    match w {
        Workload::Tabular => "teg-tabular",
        Workload::Forecast => "teg-forecast",
    }
}

/// The end-to-end metrics of an evaluation loop.
fn end_to_end(r: &mut crate::Report, inputs: &Inputs, run: &EvalRun, setups: &[f64], rss_kib: u64) {
    let s = stats::summarise(&run.eval_s);
    r.set("throughput_ops_s", (inputs.path_folds() * run.eval_s.len()) as f64 / run.wall_s);
    r.set("latency_p50_ms", s.p50 * 1e3);
    r.set("peak_rss_mb", rss_kib as f64 / 1024.0);
    r.set("setup_s", stats::median(setups));
    r.note(format!(
        "eval_s {:.4} (median of {} evaluate_graph calls; p{:.0} {:.4}); {} paths x {} folds",
        s.p50,
        s.n,
        s.tail_q * 100.0,
        s.tail,
        inputs.pipelines.len(),
        inputs.cv().n_splits()
    ));
    let each: Vec<String> = run.eval_s.iter().map(|t| format!("{t:.3}")).collect();
    r.note(format!("evaluate_graph seconds: {}", each.join(" ")));
    r.note(format!("error_rate {:.6}", stats::ratio(run.failed as f64, run.attempted as f64)));
    for e in &run.errors {
        r.note(format!("FAILED: {e}"));
    }
    r.attempted += run.attempted;
    r.failed += run.failed;
}

fn expected_digest(r: &mut crate::Report, name: &str, seed: u64) -> Option<u64> {
    let expect = reference_digest(name, seed);
    match expect {
        Some(d) => r.note(format!("reference report digest {d:016x}")),
        None => r.note(format!(
            "no reference digest for seed {seed}: reports checked against the run's first"
        )),
    }
    expect
}

/// A TEG run: the untraced evaluation loop, or with tracing the per-layer
/// breakdown (see `README.md`).
pub fn run(workload: Workload, args: &crate::Args) -> crate::Report {
    let name = workload_name(workload);
    let mut r = crate::Report::default();
    let expect = expected_digest(&mut r, name, args.seed);
    let (inputs, setups) = setup_repeated(workload, args.seed);
    if !args.trace {
        let run = eval_loop(&inputs, EVAL_THREADS, args.seconds, MIN_EVALS, expect, None);
        end_to_end(&mut r, &inputs, &run, &setups, crate::serve::peak_rss_kib());
        if let Some(d) = run.digest {
            r.note(format!("report digest {d:016x}"));
        }
        return r;
    }

    let half = args.seconds / 2.0;
    let plain = eval_loop(&inputs, EVAL_THREADS, half, MIN_EVALS, expect, None);
    let mut untraced = crate::Report::default();
    end_to_end(&mut untraced, &inputs, &plain, &setups, crate::serve::peak_rss_kib());
    r.absorb_counts(&untraced);
    let expect = expect.or(plain.digest);

    let mut rec = Recorder::new(Instant::now());
    let mut traced_setups = Vec::new();
    for i in 0..SETUP_REPEATS {
        let t0 = Instant::now();
        std::hint::black_box(Inputs::new(workload, args.seed));
        let t1 = Instant::now();
        rec.record("core.setup", None, i as u64, t0, t1);
        traced_setups.push((t1 - t0).as_secs_f64());
    }
    let traced = eval_loop(&inputs, EVAL_THREADS, half, MIN_EVALS, expect, Some(&mut rec));
    let mut with_spans = crate::Report::default();
    end_to_end(&mut with_spans, &inputs, &traced, &traced_setups, crate::serve::peak_rss_kib());
    r.attempted += with_spans.attempted;
    r.failed += with_spans.failed;
    for (m, _) in crate::END_TO_END {
        r.set(
            format!("trace.overhead_ratio.{m}"),
            stats::ratio(with_spans.get(m), untraced.get(m)),
        );
    }

    let one = eval_loop(&inputs, 1, 0.0, 1, expect, None);
    r.attempted += one.attempted;
    r.failed += one.failed;
    let two = stats::median(&plain.eval_s);
    r.set(
        "core.eval.parallel_eff",
        stats::ratio(stats::median(&one.eval_s), EVAL_THREADS as f64 * two),
    );
    r.note(format!(
        "1 thread: {:.3} s; {EVAL_THREADS} threads: {two:.3} s (available parallelism {})",
        one.eval_s[0],
        std::thread::available_parallelism().map_or(0, |n| n.get())
    ));
    if let Some(c) = plain.cache {
        r.set("core.cache.hit_ratio", c.hit_rate());
        r.set("core.cache.mb", c.bytes as f64 / (1024.0 * 1024.0));
    }

    let replay = replay(&inputs, &mut rec);
    r.attempted += inputs.path_folds() as u64;
    r.failed += replay.failed;
    for e in &replay.errors {
        r.note(format!("FAILED (replay): {e}"));
    }
    let total: f64 = replay.path_ms.iter().sum();
    let slowest = replay.path_ms.iter().copied().fold(0.0, f64::max);
    r.set("core.eval.slowest_path_share", stats::ratio(slowest, total));
    for (metric, ms) in &replay.operator_ms {
        r.set(metric, stats::median(ms));
    }
    r.set("nn.lstm_gflop_s", stats::ratio(replay.lstm_flop / 1e9, replay.lstm_s));
    r.note(format!(
        "nn.lstm_gflop_s is computed from layer shapes: {:.3} GFLOP over {:.3} s of LSTM fit+predict",
        replay.lstm_flop / 1e9,
        replay.lstm_s
    ));
    r.note(format!("{} spans over {} path-folds", rec.spans().len(), inputs.path_folds()));
    let path = crate::trace_dir().join(format!("{name}-{}-spans.csv", args.seed));
    match rec.write_csv(&path) {
        Ok(()) => r.note(format!("spans written to {}", path.display())),
        Err(e) => r.note(format!("could not write {}: {e}", path.display())),
    }
    r
}

/// Prints the report digest of one evaluation (used to fill `digests.txt`).
pub fn digest_phase(workload: Workload, args: &crate::Args) -> crate::Report {
    let inputs = Inputs::new(workload, args.seed);
    let run = eval_loop(&inputs, EVAL_THREADS, 0.0, 1, None, None);
    let mut r =
        crate::Report { attempted: run.attempted, failed: run.failed, ..Default::default() };
    if let Some(d) = run.digest {
        r.note(format!("{} {} {d:016x}", workload_name(workload), args.seed));
    }
    r
}
