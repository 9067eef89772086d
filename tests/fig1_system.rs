//! The complete Fig. 1 scenario in one test: data lives in a partitioned,
//! versioned data tier; geographically distributed clients decide between
//! local and cloud execution, cooperate through the DARR, route special
//! capabilities to AI web services, keep caches consistent through deltas,
//! and retrain when the data drifts enough to fire the recompute trigger.

use bytes::Bytes;
use coda::cluster::webservice::route_capability;
use coda::cluster::{
    run_cooperative, AnalyticsTask, ComputeNode, Placement, Scheduler, SimNetwork, SimWebService,
};
use coda::data::{synth, CvStrategy, Dataset, Metric, NoOp};
use coda::graph::TegBuilder;
use coda::ml::{KnnRegressor, LinearRegression, RandomForestRegressor, StandardScaler};
use coda::store::{ChangeMonitor, DataTier, RecomputeTrigger};

#[test]
fn full_fig1_scenario() {
    // --- the data tier: a dataset object distributed over home stores ----
    let mut tier = DataTier::new(3, 4);
    let dataset = synth::friedman1(200, 6, 0.5, 77);
    let blob = dataset.to_bytes();
    let (v1, _) = tier.put("plant-telemetry", Bytes::from(blob.clone()));
    assert_eq!(v1, 1);
    let home = tier.home_name("plant-telemetry").to_string();

    // a client pulls the dataset from its home store and reconstructs it
    let reply = tier.fetch("plant-telemetry", None).expect("object exists");
    let pulled = match reply {
        coda::store::FetchReply::Full { data, .. } => Dataset::from_bytes(&data).unwrap(),
        other => panic!("first pull must be full, got {other:?}"),
    };
    assert_eq!(pulled.n_samples(), 200);

    // --- placement: should this client run the grid locally or in the cloud?
    let client = ComputeNode::client("plant-edge", 1.0);
    let cloud = ComputeNode::cloud("region-dc", 4.0, 8);
    let mut net = SimNetwork::new(20.0, 5_000.0);
    let task =
        AnalyticsTask { n_subtasks: 8, work_per_subtask: 400.0, input_bytes: blob.len() as u64 };
    let decision = Scheduler::place(&task, &client, &cloud, &net);
    assert_eq!(decision.placement, Placement::Cloud, "fast link + 8 VMs favours the cloud");
    let realized = Scheduler::execute(&decision, &task, &client, &cloud, &mut net);
    assert!(realized < client.execution_time(&task));

    // --- cooperative evaluation of the shared graph through the DARR ------
    let graph = TegBuilder::new()
        .add_feature_scalers(vec![Box::new(StandardScaler::new()), Box::new(NoOp::new())])
        .add_models(vec![
            Box::new(LinearRegression::new()),
            Box::new(KnnRegressor::new(5)),
            Box::new(RandomForestRegressor::new(8)),
        ])
        .create_graph()
        .unwrap();
    let clock = coda::obs::WallClock::new();
    let coop =
        run_cooperative(&graph, &pulled, CvStrategy::kfold(3), Metric::Rmse, 3, true, &clock);
    assert_eq!(coop.total_evaluations, coop.n_pipelines, "DARR eliminates redundancy");
    assert_eq!(coop.reused_results, 2 * coop.n_pipelines);

    // --- AI web services complement local capabilities (Fig. 1) ----------
    let mut services = vec![
        SimWebService::new("watson", &["nlu", "speech"], 80.0, 0.02, 100),
        SimWebService::new("cloud-vision", &["vision"], 60.0, 0.05, 10),
    ];
    let idx = route_capability(&services, "nlu").expect("nlu offered");
    assert_eq!(services[idx].name(), "watson");
    assert!(services[idx].call("nlu").is_some());
    assert!(route_capability(&services, "translation").is_none());

    // --- updates arrive; the trigger decides when to recompute ------------
    let mut monitor = ChangeMonitor::new(RecomputeTrigger::UpdateBytes(2 * blob.len() as u64));
    let mut recomputed = false;
    for round in 0..3u8 {
        let updated = synth::friedman1(200, 6, 0.5, 77 + round as u64 + 1);
        let bytes = updated.to_bytes();
        let n = bytes.len() as u64;
        tier.put("plant-telemetry", Bytes::from(bytes));
        if monitor.record_update(n, 0.0) {
            recomputed = true;
            // recomputation consults the tier's latest version
            let latest = tier.fetch("plant-telemetry", Some(v1)).expect("exists");
            assert!(latest.version() > v1);
        }
    }
    assert!(recomputed, "2x-size threshold must fire within three full rewrites");
    assert_eq!(tier.home_name("plant-telemetry"), home, "home store never moves");
}
