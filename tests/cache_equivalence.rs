//! The prefix-cache equivalence harness: every evaluator configuration —
//! cached/uncached × 1/4 threads × with/without a parameter grid — must
//! produce an identical `GraphReport` on seeded TEGs. Bit-identical fold
//! scores, identical ranking (including tie order), identical error
//! strings; the only permitted difference is the `cache` stats field.
//!
//! Filterable as one suite: `cargo test --release -- cache_equivalence`.

mod common;

use coda::data::{synth, CvStrategy, Metric};
use coda::graph::{Evaluator, GraphReport, ParamGrid, Teg};
use coda::timeseries::{SeriesData, TimeSeriesPipelineBuilder, TsEvaluator};
use common::{
    assert_reports_identical, dataset, failing_branch_teg, fan_out_teg, linear_chain_teg,
    mixed_grid, mixed_teg, tiny_wide_dataset,
};

/// Evaluates `graph` under every configuration in the matrix and asserts
/// all reports equal the uncached single-threaded baseline.
fn assert_all_configs_identical(
    graph: &Teg,
    ds: &coda::data::Dataset,
    cv: CvStrategy,
    grid: Option<&ParamGrid>,
) {
    let run = |cached: bool, threads: usize| -> GraphReport {
        let mut eval = Evaluator::new(cv.clone(), Metric::Rmse).with_prefix_cache(cached);
        if threads > 1 {
            eval = eval.with_threads(threads);
        }
        match grid {
            Some(g) => eval.evaluate_graph_with_grid(graph, ds, g),
            None => eval.evaluate_graph(graph, ds),
        }
        .expect("fixture graphs evaluate")
    };
    let baseline = run(false, 1);
    for cached in [false, true] {
        for threads in [1usize, 4] {
            let report = run(cached, threads);
            assert_reports_identical(&baseline, &report);
            assert_eq!(
                report.cache.is_some(),
                cached,
                "stats present exactly when the cache is on"
            );
        }
    }
}

#[test]
fn cache_equivalence_fan_out() {
    assert_all_configs_identical(&fan_out_teg(6), &dataset(31), CvStrategy::kfold(4), None);
}

#[test]
fn cache_equivalence_linear_chain() {
    assert_all_configs_identical(&linear_chain_teg(), &dataset(32), CvStrategy::kfold(4), None);
}

#[test]
fn cache_equivalence_mixed_graph() {
    assert_all_configs_identical(&mixed_teg(), &dataset(33), CvStrategy::kfold(3), None);
}

#[test]
fn cache_equivalence_with_grid() {
    assert_all_configs_identical(
        &mixed_teg(),
        &dataset(34),
        CvStrategy::kfold(3),
        Some(&mixed_grid()),
    );
}

#[test]
fn cache_equivalence_failing_branch() {
    let ds = tiny_wide_dataset(35);
    let graph = failing_branch_teg();
    // sanity: the fixture really has one failing and one passing branch
    let report =
        Evaluator::new(CvStrategy::kfold(3), Metric::Rmse).evaluate_graph(&graph, &ds).unwrap();
    assert_eq!(report.n_failed(), 1, "OLS branch must fail (underdetermined)");
    assert_eq!(report.n_ok(), 1, "ridge branch must pass");
    assert_all_configs_identical(&graph, &ds, CvStrategy::kfold(3), None);
}

#[test]
fn cache_equivalence_shuffled_cv() {
    let cv = CvStrategy::KFold { k: 5, shuffle: true, seed: 99 };
    assert_all_configs_identical(&fan_out_teg(4), &dataset(36), cv, None);
}

#[test]
fn cache_equivalence_windowing_graph() {
    // the Fig. 11 graph: windowing transformers derive each validation
    // fold's truth, which every configuration must score against
    let series = SeriesData::univariate(synth::trend_seasonal_series(200, 12.0, 0.1, 38));
    let ds = series.to_dataset();
    let graph = TimeSeriesPipelineBuilder::new(8, 1, 1)
        .with_deep_variants(false)
        .with_all_scalers(false)
        .with_epochs(3)
        .build()
        .expect("fixed wiring");
    let cv = CvStrategy::TimeSeriesSlidingSplit {
        train_size: 100,
        buffer: 4,
        validation_size: 30,
        k: 2,
    };
    assert_all_configs_identical(&graph, &ds, cv.clone(), None);
    let baseline = Evaluator::new(cv, Metric::Rmse).evaluate_graph(&graph, &ds).unwrap();
    assert_eq!(baseline.n_failed(), 0, "every windowing path evaluates");
    let ts = TsEvaluator::sliding(100, 4, 30, 2, Metric::Rmse)
        .with_threads(4)
        .evaluate_graph(&graph, &series)
        .unwrap();
    assert_reports_identical(&baseline, &ts);
}

#[test]
fn cache_equivalence_fan_out_stats_match_structure() {
    // beyond equivalence: the cached run's accounting must match the
    // graph's prefix structure exactly, independent of thread count
    let ds = dataset(37);
    let graph = fan_out_teg(6);
    let (distinct, visits) = graph.transform_prefix_counts();
    let (distinct, visits) = (distinct as u64, visits as u64);
    assert_eq!((distinct, visits), (2, 12), "2-stage shared prefix, 6 paths");
    for threads in [1usize, 4] {
        let mut eval = Evaluator::new(CvStrategy::kfold(4), Metric::Rmse).with_prefix_cache(true);
        if threads > 1 {
            eval = eval.with_threads(threads);
        }
        let stats = eval.evaluate_graph(&graph, &ds).unwrap().cache.unwrap();
        assert_eq!(stats.misses, distinct * 4, "one fit per distinct prefix per fold");
        assert_eq!(stats.hits, (visits - distinct) * 4);
        assert_eq!(stats.refits_avoided, stats.hits);
        assert!(stats.bytes > 0);
    }
}
