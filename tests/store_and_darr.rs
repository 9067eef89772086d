//! Cross-crate integration: the data tier and the DARR working together —
//! dataset updates propagate through the store, trigger recomputation, and
//! invalidate stale DARR entries; cooperating clients re-cover the new
//! version without redundancy.

use bytes::Bytes;
use coda::chaos::RetryPolicy;
use coda::darr::{ComputationKey, CooperativeClient, Darr};
use coda::obs::Obs;
use coda::store::{
    CachingClient, ChangeMonitor, HomeDataStore, PushMode, RecomputeTrigger, TransferStats,
};

/// One attempt per key: a held claim is skipped, never revisited.
fn once() -> RetryPolicy {
    RetryPolicy::fixed(0.0, 1)
}

fn dataset_blob(version_salt: u8, n: usize) -> Bytes {
    Bytes::from((0..n).map(|i| ((i as u64 * 31) % 251) as u8 ^ version_salt).collect::<Vec<u8>>())
}

#[test]
fn update_flow_store_trigger_darr() {
    let mut store = HomeDataStore::new("home", 4);
    let darr = Darr::new();
    let mut monitor = ChangeMonitor::new(RecomputeTrigger::UpdateCount(3));

    // version 1 of the dataset; a first analytics pass fills the DARR
    store.put("ds", dataset_blob(0, 10_000));
    darr.register_dataset_version("ds", 1);
    let keys: Vec<ComputationKey> = (0..4)
        .map(|i| ComputationKey::new("ds", 1, &format!("pipeline-{i}") as &str, "kfold(5)", "rmse"))
        .collect();
    let client = CooperativeClient::new(&darr, "c1", 100);
    let (summary, _) = client.run(&keys, &once(), |_| Ok((1.0, vec![], "v1".to_string())));
    assert_eq!(summary.computed, 4);

    // three updates arrive; the third crosses the recompute threshold
    let mut fired = false;
    for salt in 1..=3u8 {
        let blob = dataset_blob(salt, 10_000);
        let (v, _) = store.put("ds", blob.clone());
        fired = monitor.record_update(blob.len() as u64, 0.0);
        if fired {
            darr.register_dataset_version("ds", v);
        }
    }
    assert!(fired, "threshold of 3 updates must fire on the third");
    assert_eq!(store.version_of("ds"), Some(4));
    assert_eq!(darr.dataset_version("ds"), Some(4));

    // all v1 results are now stale: nothing to reuse
    assert!(darr.computed_for("ds").is_empty());
    let new_keys: Vec<ComputationKey> = keys.iter().map(|k| k.at_version(4)).collect();
    let (summary2, _) = client.run(&new_keys, &once(), |_| Ok((2.0, vec![], "v4".to_string())));
    assert_eq!(summary2.computed, 4, "stale results must not be reused");
    assert_eq!(summary2.reused, 0);
}

#[test]
fn multi_client_cache_consistency_under_update_storm() {
    let obs = Obs::deterministic();
    let mut store = HomeDataStore::new("home", 8);
    store.attach_obs(obs.clone());
    let mut clients: Vec<CachingClient> =
        (0..3).map(|i| CachingClient::new(format!("c{i}"))).collect();
    let mut blob = dataset_blob(0, 50_000).to_vec();
    store.put("ds", Bytes::from(blob.clone()));
    for c in &mut clients {
        c.pull(&mut store, "ds").unwrap();
    }
    // client 0 uses delta push, client 1 notify-only, client 2 polls
    store.subscribe("c0", "ds", PushMode::Delta, 1_000);
    store.subscribe("c1", "ds", PushMode::NotifyOnly, 1_000);

    for round in 0..10u8 {
        // small in-place mutation
        let idx = 64 * (round as usize + 1);
        blob[idx] ^= 0xFF;
        let (_, pushes) = store.put("ds", Bytes::from(blob.clone()));
        for push in &pushes {
            let target: usize = push.client()[1..].parse().unwrap();
            clients[target].apply_push(push).unwrap();
        }
        // the notify-only client pulls on demand
        clients[1].pull(&mut store, "ds").unwrap();
        // the polling client pulls every other round
        if round % 2 == 1 {
            clients[2].pull(&mut store, "ds").unwrap();
        }
    }
    clients[2].pull(&mut store, "ds").unwrap();
    // all clients converge to identical bytes
    let expected = Bytes::from(blob);
    for c in &clients {
        assert_eq!(c.held_version("ds"), Some(11));
        assert_eq!(c.held_data("ds").unwrap(), &expected);
    }
    // delta encoding kept traffic far below 11 full copies
    let stats = TransferStats::from_snapshot(&obs.registry().snapshot());
    assert!(stats.delta_transfers >= 10, "deltas used: {}", stats.delta_transfers);
    assert!(
        stats.bytes < 11 * 50_000,
        "total bytes {} must be far below {} (all-full)",
        stats.bytes,
        11 * 50_000
    );
}

#[test]
fn lease_expiry_mid_stream_falls_back_to_pull() {
    let mut store = HomeDataStore::new("home", 4);
    let mut client = CachingClient::new("c0");
    let mut blob = dataset_blob(0, 10_000).to_vec();
    store.put("ds", Bytes::from(blob.clone()));
    client.pull(&mut store, "ds").unwrap();
    store.subscribe("c0", "ds", PushMode::Delta, 5);

    // first update arrives within the lease
    blob[0] ^= 1;
    let (_, pushes) = store.put("ds", Bytes::from(blob.clone()));
    assert_eq!(pushes.len(), 1);
    client.apply_push(&pushes[0]).unwrap();

    // the lease expires; the next update is NOT pushed (failure injection)
    store.advance_clock(10);
    blob[1] ^= 1;
    store.put("ds", Bytes::from(blob.clone()));
    assert!(client.is_stale(&store, "ds"));

    // the client notices staleness, renews and pulls; renewal of an expired
    // lease fails, so it must re-subscribe
    assert!(!store.renew("c0", "ds", 100));
    store.subscribe("c0", "ds", PushMode::Delta, 100);
    client.pull(&mut store, "ds").unwrap();
    assert_eq!(client.held_version("ds"), Some(3));
    assert_eq!(&client.held_data("ds").unwrap()[..], &blob[..]);
}

#[test]
fn cooperative_claim_takeover_after_client_failure() {
    let darr = Darr::new();
    let key = ComputationKey::new("ds", 1, "p", "cv", "m");
    // client a claims then dies (never completes)
    assert!(darr.try_claim(&key, "a", 50).is_claimed());
    // b cannot claim while the lease is live
    assert!(!darr.try_claim(&key, "b", 50).is_claimed());
    // after the claim lease expires, b takes over
    darr.advance_clock(60);
    assert!(darr.try_claim(&key, "b", 50).is_claimed());
    darr.complete(&key, "b", 0.5, vec![], "takeover");
    assert_eq!(darr.lookup(&key).unwrap().producer, "b");
}

#[test]
fn best_result_visible_to_all_clients() {
    let darr = Darr::new();
    let mk = |p: &str| ComputationKey::new("ds", 1, p, "kfold(5)", "rmse");
    let a = CooperativeClient::new(&darr, "a", 100);
    let b = CooperativeClient::new(&darr, "b", 100);
    a.run(&[mk("p1")], &once(), |_| Ok((0.9, vec![], String::new())));
    b.run(&[mk("p2")], &once(), |_| Ok((0.2, vec![], String::new())));
    a.run(&[mk("p3")], &once(), |_| Ok((0.5, vec![], String::new())));
    let best = darr.best_for("ds", "rmse", false).unwrap();
    assert_eq!(best.key.pipeline, "p2");
    assert_eq!(best.producer, "b");
    assert_eq!(darr.computed_for("ds").len(), 3);
}
