//! Cooperative data analytics (Fig. 2) plus the versioned data tier (§III):
//! several clients share one dataset, coordinate through the DARR to avoid
//! redundant pipeline evaluations, and keep their caches consistent with
//! delta-encoded updates from the home data store.
//!
//! Run with: `cargo run --release --example cooperative_clients`

use bytes::Bytes;
use coda::chaos::RetryPolicy;
use coda::cluster::run_cooperative;
use coda::cluster::{run_job, ComponentRegistry, JobSpec, SpecValue};
use coda::darr::Darr;
use coda::data::{synth, CvStrategy, Metric, NoOp};
use coda::graph::TegBuilder;
use coda::ml::{
    GradientBoostingRegressor, KnnRegressor, LinearRegression, RandomForestRegressor,
    RidgeRegression, StandardScaler,
};
use coda::obs::{Obs, WallClock};
use coda::store::{CachingClient, HomeDataStore, PushMode, TransferStats};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // ---- Part 1: cooperative evaluation through the DARR -----------------
    let dataset = synth::friedman1(300, 6, 0.5, 11);
    let graph = TegBuilder::new()
        .add_feature_scalers(vec![Box::new(StandardScaler::new()), Box::new(NoOp::new())])
        .add_models(vec![
            Box::new(LinearRegression::new()),
            Box::new(RidgeRegression::new(1.0)),
            Box::new(KnnRegressor::new(5)),
            Box::new(RandomForestRegressor::new(15)),
            Box::new(GradientBoostingRegressor::new(30, 0.1)),
        ])
        .create_graph()?;

    let clock = WallClock::new();
    for n_clients in [1usize, 2, 4] {
        let run = |use_darr| {
            let cv = CvStrategy::kfold(5);
            run_cooperative(&graph, &dataset, cv, Metric::Rmse, n_clients, use_darr, &clock)
        };
        let (without, with) = (run(false), run(true));
        println!(
            "{n_clients} clients x {} pipelines | no DARR: {:3} evaluations ({} redundant), {:7.1} ms | \
             DARR: {:3} evaluations, {} reused, {:7.1} ms",
            with.n_pipelines,
            without.total_evaluations,
            without.redundant_evaluations,
            without.wall_ms,
            with.total_evaluations,
            with.reused_results,
            with.wall_ms,
        );
    }

    // ---- Part 2: consistent caches with delta encoding -------------------
    println!("\ndata tier: delta-encoded cache synchronization");
    let obs = Obs::deterministic();
    let mut home = HomeDataStore::new("home", 8);
    home.attach_obs(obs.clone());
    // the shared dataset serialized as bytes (one f64 per cell)
    let mut blob: Vec<u8> =
        dataset.features().as_slice().iter().flat_map(|v| v.to_le_bytes()).collect();
    home.put("dataset", Bytes::from(blob.clone()));

    let mut alice = CachingClient::new("alice");
    let mut bob = CachingClient::new("bob");
    alice.pull(&mut home, "dataset")?;
    bob.pull(&mut home, "dataset")?;
    println!("initial pulls: {} bytes each", alice.bytes_received);

    // bob subscribes to delta pushes; alice polls
    home.subscribe("bob", "dataset", PushMode::Delta, 1_000);

    // a sensor appends a few new readings (small update)
    for b in blob.iter_mut().take(64) {
        *b ^= 0xA5;
    }
    let (v2, pushes) = home.put("dataset", Bytes::from(blob.clone()));
    for push in &pushes {
        println!("push to {}: {} bytes (version {v2})", push.client(), push.wire_size());
        bob.apply_push(push)?;
    }
    let alice_before = alice.bytes_received;
    alice.pull(&mut home, "dataset")?;
    println!(
        "alice delta pull: {} bytes (full copy would be {} bytes)",
        alice.bytes_received - alice_before,
        blob.len()
    );
    assert_eq!(alice.held_version("dataset"), Some(v2));
    assert_eq!(bob.held_version("dataset"), Some(v2));
    let stats = TransferStats::from_snapshot(&obs.registry().snapshot());
    println!(
        "home store totals: {} messages, {} bytes, {} full, {} delta",
        stats.messages, stats.bytes, stats.full_transfers, stats.delta_transfers
    );

    // ---- Part 3: structured calculations as data --------------------------
    // A job spec is pure JSON any client can submit; the registry resolves
    // component names to the pre-defined catalog, and the DARR deduplicates.
    println!("\nstructured calculations via the component registry");
    let registry = ComponentRegistry::standard();
    let mut params = std::collections::BTreeMap::new();
    params.insert("pca__n_components".to_string(), SpecValue::Int(4));
    let spec = JobSpec {
        dataset_id: "friedman".to_string(),
        dataset_version: 1,
        steps: vec![
            "standard_scaler".to_string(),
            "pca".to_string(),
            "random_forest_regressor".to_string(),
        ],
        params,
        cv_folds: 4,
        metric: "rmse".to_string(),
    };
    println!("spec json: {}", spec.to_json());
    let darr = Darr::new();
    let one_attempt = RetryPolicy::fixed(0.0, 1);
    let record = run_job(&registry, &spec, &dataset, &darr, "alice", &one_attempt, None).0?;
    println!("alice computed: rmse {:.4} over {} folds", record.score, record.fold_scores.len());
    let reused = run_job(&registry, &spec, &dataset, &darr, "bob", &one_attempt, None).0?;
    println!("bob reused {}'s result; darr now holds {} record(s)", reused.producer, darr.len());
    // the repository snapshot travels between sites as plain JSON lines
    let snapshot = darr.export_records();
    let mirror = Darr::new();
    mirror.import_records(&snapshot)?;
    println!("mirror restored {} record(s) from the snapshot", mirror.len());
    Ok(())
}
