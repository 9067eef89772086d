//! Smoke test for the unified observability layer: a single shared
//! `MetricsRegistry` collects nonzero counters from all four instrumented
//! crates (core eval, store, DARR, cluster) in one process, and the
//! resulting snapshot renders to Prometheus text and round-trips through
//! JSON.
//!
//! Filterable as one suite: `cargo test --release -- obs_smoke`.

mod common;

use bytes::Bytes;
use coda::cluster::{run_chaos_coop, ChaosCoopConfig};
use coda::data::{CvStrategy, Metric};
use coda::graph::Evaluator;
use coda::obs::Obs;
use coda::store::{ChangeMonitor, HomeDataStore, RecomputeTrigger};
use common::{dataset, fan_out_teg};

/// Drives every instrumented subsystem against one shared `Obs` handle.
fn exercise_all_crates(obs: &Obs) {
    // core: a cached graph evaluation (hits from shared prefixes)
    let ds = dataset(41);
    let graph = fan_out_teg(4);
    Evaluator::new(CvStrategy::kfold(3), Metric::Rmse)
        .with_prefix_cache(true)
        .with_obs(obs.clone())
        .evaluate_graph(&graph, &ds)
        .expect("fixture graph evaluates");

    // store: puts, pulls, and trigger firings on an instrumented home store
    let mut store = HomeDataStore::new("home", 4);
    store.attach_obs(obs.clone());
    let mut monitor = ChangeMonitor::new(RecomputeTrigger::UpdateCount(2));
    monitor.attach_obs(obs.clone());
    for salt in 0..3u8 {
        let blob: Vec<u8> = (0..4096).map(|i| (i % 251) as u8 ^ salt).collect();
        let len = blob.len() as u64;
        store.put("ds", Bytes::from(blob));
        monitor.record_update(len, 0.0);
    }
    store.fetch("ds", None).expect("object exists");

    // darr + cluster: the chaos driver wires its DARR and publishes its report
    let cfg = ChaosCoopConfig {
        seed: 9,
        n_clients: 3,
        n_keys: 8,
        drop_probability: 0.2,
        darr_partition: Some((100.0, 300.0)),
        crash: None,
        claim_duration: 200,
        max_rounds: 10_000,
    };
    let report = run_chaos_coop(&cfg, 1, Some(obs));
    assert_eq!(report.completed, report.n_keys, "chaos run must converge");
}

#[test]
fn obs_smoke_all_four_crates_populate_one_registry() {
    let obs = Obs::wall();
    exercise_all_crates(&obs);
    let snap = obs.registry().snapshot();

    // at least one load-bearing counter per crate is nonzero
    for name in [
        "coda_core_cache_hits",
        "coda_core_eval_paths",
        "coda_store_puts",
        "coda_store_pulls",
        "coda_store_trigger_firings",
        "coda_darr_records_stored",
        "coda_darr_claims_granted",
        "coda_cluster_chaos_completed",
        "coda_chaos_faults_injected",
    ] {
        assert!(snap.counter(name) > 0, "{name} must be nonzero, got snapshot: {snap:?}");
    }
    assert!(
        snap.histograms.contains_key("coda_core_eval_path_ms"),
        "eval timing histogram must be registered"
    );
}

#[test]
fn obs_smoke_snapshot_renders_and_round_trips() {
    let obs = Obs::wall();
    exercise_all_crates(&obs);

    let text = obs.registry().render_prometheus();
    for line in ["coda_core_cache_hits ", "coda_store_puts ", "coda_darr_records_stored "] {
        assert!(text.contains(line), "prometheus text must expose {line:?}:\n{text}");
    }
    assert!(text.contains("# TYPE coda_core_eval_path_ms histogram"));

    let snap = obs.registry().snapshot();
    let json = snap.to_json();
    let parsed = coda::obs::MetricsSnapshot::from_json(&json).expect("snapshot JSON parses back");
    assert_eq!(parsed, snap, "JSON round-trip must be lossless");
}

#[test]
fn obs_smoke_snapshot_diff_attributes_each_phase() {
    // before/after snapshot deltas isolate what each phase contributed to
    // the shared registry, even though every phase writes into it
    let obs = Obs::wall();

    let before_eval = obs.registry().snapshot();
    let ds = dataset(41);
    let graph = fan_out_teg(4);
    Evaluator::new(CvStrategy::kfold(3), Metric::Rmse)
        .with_prefix_cache(true)
        .with_obs(obs.clone())
        .evaluate_graph(&graph, &ds)
        .expect("fixture graph evaluates");
    let after_eval = obs.registry().snapshot();

    let cfg = ChaosCoopConfig {
        seed: 9,
        n_clients: 3,
        n_keys: 8,
        drop_probability: 0.0,
        darr_partition: None,
        crash: None,
        claim_duration: 200,
        max_rounds: 10_000,
    };
    run_chaos_coop(&cfg, 1, Some(&obs));
    let after_chaos = obs.registry().snapshot();

    let eval_phase = after_eval.diff(&before_eval);
    assert_eq!(eval_phase.counter("coda_core_eval_graphs"), 1, "the eval phase ran one graph");
    assert!(eval_phase.counter("coda_core_cache_hits") > 0);
    assert_eq!(eval_phase.counter("coda_darr_records_stored"), 0, "no DARR work in this phase");

    let chaos_phase = after_chaos.diff(&after_eval);
    assert_eq!(chaos_phase.counter("coda_core_eval_graphs"), 0, "no eval work in this phase");
    assert_eq!(chaos_phase.counter("coda_cluster_chaos_keys"), 8);
    assert!(chaos_phase.counter("coda_darr_records_stored") > 0);
    // histograms diff too: the eval phase owns all path timings
    assert_eq!(
        eval_phase.histograms["coda_core_eval_path_ms"].count,
        after_chaos.histograms["coda_core_eval_path_ms"].count,
        "the chaos phase adds no eval-path observations"
    );
}

#[test]
fn obs_smoke_spans_cover_the_taxonomy() {
    let obs = Obs::wall();
    exercise_all_crates(&obs);
    let log = obs.tracer().render_log();
    for needle in
        ["span_start eval.graph", "span_start eval.path", "span_start eval.fold", "event chaos."]
    {
        assert!(log.contains(needle), "trace log must contain {needle:?}");
    }
}
