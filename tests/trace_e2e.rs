//! End-to-end causal tracing acceptance test: one logical "data update"
//! flows through every simulated distributed boundary — a store `put`
//! pushing to a subscribed client, a recompute trigger firing, a TEG
//! evaluation, and a cooperative DARR record — and the resulting trace
//! forest must be a single coherent tree with no orphaned spans, a
//! non-empty multi-crate critical path, and a Chrome trace export that
//! round-trips through the analyzer. A seeded chaos run must additionally
//! replay its whole forest byte-identically.
//!
//! Filterable as one suite: `cargo test --release -- trace_e2e`.

mod common;

use bytes::Bytes;
use coda::chaos::RetryPolicy;
use coda::cluster::{run_chaos_coop, ChaosCoopConfig};
use coda::darr::{ComputationKey, CooperativeClient, Darr};
use coda::data::{CvStrategy, Metric};
use coda::graph::Evaluator;
use coda::obs::{Obs, TraceForest};
use coda::store::{
    content_hash, CachingClient, ChangeMonitor, HomeDataStore, PushMode, RecomputeTrigger,
    UpdateMessage,
};
use common::{dataset, fan_out_teg};

/// Drives the full multi-tier story under one root span and returns the
/// resulting forest: store update → push apply → trigger → eval → DARR.
fn run_multi_tier(obs: &Obs) -> TraceForest {
    // store tier: an instrumented home store pushing to a caching client
    let mut store = HomeDataStore::new("home", 4);
    store.attach_obs(obs.clone());
    let mut cache = CachingClient::new("analyst");
    cache.attach_obs(obs.clone());
    store.subscribe("analyst", "ds", PushMode::Full, 10_000);

    let root = obs.tracer().begin_span("ingest.update", None, &[("object", "ds")]);

    let blob: Vec<u8> = (0..4096).map(|i| (i % 251) as u8).collect();
    let blob_len = blob.len() as u64;
    let (_, messages) = {
        let _root = obs.tracer().enter(Some(root));
        store.put("ds", Bytes::from(blob))
    };
    assert!(!messages.is_empty(), "the subscription must produce a push");
    for msg in &messages {
        if let UpdateMessage::Full { .. } | UpdateMessage::Delta { .. } = msg {
            cache.apply_push(msg).expect("push applies cleanly");
        }
    }

    // trigger tier: the update volume fires a recompute, which runs the
    // eval and DARR tiers under a `trigger.recompute` span
    let mut monitor = ChangeMonitor::new(RecomputeTrigger::UpdateBytes(1024));
    monitor.attach_obs(obs.clone());
    assert!(monitor.record_update(blob_len, 0.0), "4 KiB must fire the byte trigger");
    {
        let _recompute = obs.span_child(root, "trigger.recompute", &[("object", "ds")]);

        // eval tier: implicit parenting hangs eval.graph off the guard
        let ds = dataset(7);
        let teg = fan_out_teg(3);
        Evaluator::new(CvStrategy::kfold(3), Metric::Rmse)
            .with_obs(obs.clone())
            .evaluate_graph(&teg, &ds)
            .expect("fixture graph evaluates");

        // darr tier: the record's claim/complete nest under the current
        // span
        let darr = Darr::new();
        darr.attach_obs(obs.clone());
        let coop = CooperativeClient::new(&darr, "analyst", 60_000).with_obs(obs.clone());
        let key = ComputationKey::new("ds", 1, "p0", "kfold(3)", "rmse");
        coop.run(&[key], &RetryPolicy::fixed(0.0, 1), |_| {
            Ok((0.5, vec![0.4, 0.5, 0.6], "trace e2e".to_string()))
        });
    }
    obs.tracer().end_span(root, &[]);
    obs.forest()
}

#[test]
fn multi_tier_update_yields_one_coherent_trace() {
    let obs = Obs::deterministic();
    let forest = run_multi_tier(&obs);

    assert!(forest.orphans().is_empty(), "every carried context resolves to a real parent");
    assert_eq!(forest.unresolved_points(), 0, "every point event lands in a known span");
    assert_eq!(forest.trace_ids().len(), 1, "one update, one trace");

    // every tier contributed spans to the same tree
    let names: Vec<&str> = forest.spans().map(|s| s.name.as_str()).collect();
    for needle in [
        "ingest.update",
        "store.put",
        "store.apply_update",
        "trigger.recompute",
        "eval.graph",
        "eval.path",
        "eval.fold",
        "darr.process",
        "darr.claim",
        "darr.complete",
    ] {
        assert!(names.contains(&needle), "forest must contain a {needle} span, got {names:?}");
    }

    // the tree's shape, pinned before implicit parenting moved to a
    // thread-local stack: every (span, parent span) name pair, sorted
    // because the evaluator's worker threads interleave the raw log
    let mut edges: Vec<String> = forest
        .spans()
        .map(|s| {
            let parent = s.parent.and_then(|p| forest.span(p)).map_or("-", |p| p.name.as_str());
            format!("{} <- {parent}\n", s.name)
        })
        .collect();
    edges.sort_unstable();
    assert_eq!(
        content_hash(edges.concat().as_bytes()),
        0x6df9_eabc_f532_0432,
        "the span tree's shape changed"
    );

    // the critical path starts at the root and crosses crate boundaries
    let trace = forest.trace_ids()[0];
    let path = forest.critical_path(trace);
    assert!(path.len() >= 2, "critical path must descend below the root");
    let nodes: Vec<_> = path.iter().map(|id| forest.span(*id).expect("path resolves")).collect();
    assert_eq!(nodes[0].name, "ingest.update");
    for pair in nodes.windows(2) {
        assert_eq!(pair[1].parent, Some(pair[0].ctx.span_id), "path edges are parent links");
    }

    // self-time rollups cover every span and never exceed totals
    for span in forest.spans() {
        let own = forest.self_time_ms(span.ctx.span_id);
        assert!(own >= 0.0 && own <= span.duration_ms() + 1e-9);
    }
    let rollup = forest.self_time_rollup(trace);
    assert!(rollup.contains_key("eval.fold"), "leaf work shows up in the rollup");
}

#[test]
fn multi_tier_trace_round_trips_through_chrome_export() {
    let obs = Obs::deterministic();
    let forest = run_multi_tier(&obs);
    let chrome = forest.to_chrome_json();

    let back = TraceForest::from_chrome_json(&chrome).expect("export parses back");
    assert!(back.same_shape(&forest), "round trip preserves the span forest");
    let trace = back.trace_ids()[0];
    assert!(
        back.critical_path(trace).len() >= 2,
        "the multi-tier critical path survives the export"
    );

    // deterministic: an identical run exports byte-identical JSON
    let obs2 = Obs::deterministic();
    let chrome2 = run_multi_tier(&obs2).to_chrome_json();
    assert_eq!(chrome, chrome2, "same run, same bytes");
}

#[test]
fn chaos_run_replays_its_trace_forest_byte_identically() {
    let cfg = ChaosCoopConfig {
        seed: 17,
        n_clients: 4,
        n_keys: 16,
        drop_probability: 0.2,
        darr_partition: Some((300.0, 700.0)),
        crash: Some((2, 150.0, 650.0)),
        claim_duration: 200,
        max_rounds: 10_000,
    };
    let obs_a = Obs::deterministic();
    let report_a = run_chaos_coop(&cfg, 1, Some(&obs_a));
    let obs_b = Obs::deterministic();
    let report_b = run_chaos_coop(&cfg, 1, Some(&obs_b));
    assert_eq!(report_a, report_b, "reports replay bit-identically");

    let forest_a = obs_a.forest();
    let forest_b = obs_b.forest();
    assert_eq!(forest_a, forest_b, "same seed, same trace forest");
    assert_eq!(forest_a.to_chrome_json(), forest_b.to_chrome_json(), "exports are byte-identical");

    // the forest is coherent: every message-carried context resolved
    assert!(!forest_a.is_empty(), "the run must trace spans");
    assert!(forest_a.orphans().is_empty(), "no orphaned spans under chaos");
    assert_eq!(forest_a.unresolved_points(), 0, "no dangling protocol events");
    // one root per touched key, with the DARR's spans linked underneath
    assert_eq!(forest_a.trace_ids().len(), cfg.n_keys, "one trace per work item");
    let names: Vec<&str> = forest_a.spans().map(|s| s.name.as_str()).collect();
    for needle in ["chaos.key", "chaos.attempt", "darr.claim", "darr.complete"] {
        assert!(names.contains(&needle), "chaos forest must contain {needle} spans");
    }
}
