//! Shared helpers for the experiment harness and Criterion benches:
//! canonical workloads for each experiment and a plain-text table printer.

use coda_core::{Teg, TegBuilder};
use coda_data::{BoxedEstimator, BoxedTransformer, NoOp};
use coda_ml::{
    DecisionTreeRegressor, KnnRegressor, MinMaxScaler, Pca, RandomForestRegressor, RobustScaler,
    ScoreFunction, SelectKBest, StandardScaler,
};

pub mod diag;
pub mod ops;
pub mod serving;
pub use diag::{run_diag_report, ClockBurnScaler, DiagBundle, DiagScenario};
pub use ops::{run_ops_report, run_ops_scenario, CriticalPath, OpsReport, OpsScenario};
pub use serving::{
    median, run_serving_bench, serving_bench_config, serving_obs_ratios, tier_overhead_ratios,
    ServingBenchResult,
};

/// Prints a fixed-width table with a header rule.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n## {title}");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let line = |cells: &[String]| {
        let mut s = String::from("| ");
        for (w, cell) in widths.iter().zip(cells) {
            s.push_str(&format!("{cell:<w$} | "));
        }
        s
    };
    let head: Vec<String> = headers.iter().map(|h| h.to_string()).collect();
    println!("{}", line(&head));
    println!("|{}|", widths.iter().map(|w| "-".repeat(w + 2)).collect::<Vec<_>>().join("|"));
    for row in rows {
        println!("{}", line(row));
    }
}

/// The exact example graph of Fig. 3 / Listing 1: 4 scalers × 3 selectors ×
/// 3 models = 36 pipelines.
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

/// A small regression graph for cooperation/throughput benches.
pub fn small_graph() -> Teg {
    TegBuilder::new()
        .add_feature_scalers(vec![
            Box::new(StandardScaler::new()) as BoxedTransformer,
            Box::new(NoOp::new()),
        ])
        .add_models(vec![
            Box::new(coda_ml::LinearRegression::new()) as BoxedEstimator,
            Box::new(coda_ml::RidgeRegression::new(1.0)),
            Box::new(KnnRegressor::new(5)),
            Box::new(RandomForestRegressor::new(10)),
        ])
        .create_graph()
        .expect("fixed wiring is acyclic")
}

/// A fan-out graph for prefix-cache benches: a fixed 3-stage transformer
/// prefix (standard scaler → PCA → select-k-best) shared by `n_models`
/// ridge regressors with distinct regularization strengths. Every path
/// shares the whole prefix, so a prefix cache fits it once per fold
/// instead of `n_models` times.
pub fn fan_out_graph(n_models: usize) -> Teg {
    let models: Vec<BoxedEstimator> = (0..n_models)
        .map(|i| {
            Box::new(coda_ml::RidgeRegression::new(0.01 * 1.5f64.powi(i as i32))) as BoxedEstimator
        })
        .collect();
    TegBuilder::new()
        .add_feature_scalers(vec![Box::new(StandardScaler::new()) as BoxedTransformer])
        .add_feature_selectors(vec![Box::new(Pca::new(12)) as BoxedTransformer])
        .add_transformers(vec![
            Box::new(SelectKBest::new(8, ScoreFunction::FRegression)) as BoxedTransformer
        ])
        .add_models(models)
        .create_graph()
        .expect("fixed wiring is acyclic")
}

/// Patterned bytes for delta-encoding workloads.
pub fn patterned_bytes(n: usize, seed: u8) -> Vec<u8> {
    (0..n).map(|i| ((i as u64 * 131 + seed as u64) % 251) as u8).collect()
}

/// Applies an update rewriting a contiguous region covering `fraction` of
/// the bytes (the common shape of real updates: appended rows, a rewritten
/// record range).
pub fn mutate_fraction(data: &[u8], fraction: f64) -> Vec<u8> {
    let mut out = data.to_vec();
    let n_touch = ((data.len() as f64) * fraction).round() as usize;
    if n_touch == 0 {
        return out;
    }
    let start = (data.len() - n_touch) / 2;
    for b in &mut out[start..start + n_touch] {
        *b ^= 0x5A;
    }
    out
}

/// Applies an update touching `fraction` of the bytes spread evenly — the
/// worst case for block-based delta encoding (no clean block survives once
/// the stride drops below the block size).
pub fn mutate_fraction_scattered(data: &[u8], fraction: f64) -> Vec<u8> {
    let mut out = data.to_vec();
    let n_touch = ((data.len() as f64) * fraction).round() as usize;
    if n_touch == 0 {
        return out;
    }
    let stride = (data.len() / n_touch).max(1);
    let mut touched = 0;
    let mut i = 0;
    while touched < n_touch && i < out.len() {
        out[i] ^= 0x5A;
        touched += 1;
        i += stride;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn listing1_has_36_paths() {
        assert_eq!(listing1_graph().enumerate_paths().len(), 36);
    }

    #[test]
    fn mutate_fraction_touches_expected_share() {
        let base = patterned_bytes(10_000, 1);
        let changed = mutate_fraction(&base, 0.1);
        let diff = base.iter().zip(&changed).filter(|(a, b)| a != b).count();
        assert!((diff as f64 - 1000.0).abs() < 50.0, "diff {diff}");
        assert_eq!(mutate_fraction(&base, 0.0), base);
    }
}
