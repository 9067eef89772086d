//! Failure injection across the cooperative system: failing pipelines in a
//! multi-client run, clients desynchronizing from the push stream, and full
//! site outages with recovery.

use bytes::Bytes;
use coda::chaos::RetryPolicy;
use coda::cluster::run_cooperative;
use coda::darr::{ClaimOutcome, ComputationKey, CoopOutcome, CooperativeClient, Darr};
use coda::data::{synth, CvStrategy, Metric};
use coda::graph::TegBuilder;
use coda::ml::{LinearRegression, RidgeRegression};
use coda::obs::{Obs, WallClock};
use coda::store::{
    CachingClient, DeltaCodec, FetchReply, HomeDataStore, PushMode, ReplicatedStore, TransferStats,
};

#[test]
fn cooperative_run_survives_failing_paths() {
    // 12 samples, 6 features: linear regression needs 7+ training samples;
    // 3-fold leaves 8 — but give it 10 features so it fails, while ridge
    // (regularized) still fits.
    let ds = synth::linear_regression(12, 10, 0.01, 301);
    let graph = TegBuilder::new()
        .add_models(vec![
            Box::new(LinearRegression::new()), // needs 11 samples of 8 available -> fails
            Box::new(RidgeRegression::new(1.0)), // always fits
        ])
        .create_graph()
        .unwrap();
    for use_darr in [false, true] {
        let clock = WallClock::new();
        let report =
            run_cooperative(&graph, &ds, CvStrategy::kfold(3), Metric::Rmse, 3, use_darr, &clock);
        assert!(report.best_score.is_finite(), "ridge path must produce a score");
        // only the viable path is ever *successfully* computed
        if use_darr {
            assert!(report.total_evaluations <= report.n_pipelines * 3);
        }
    }
}

#[test]
fn client_desynchronized_from_push_stream_recovers_by_pull() {
    let obs = Obs::deterministic();
    let mut store = HomeDataStore::new("home", 2); // short history
    store.attach_obs(obs.clone());
    let mut client = CachingClient::new("c");
    let mut blob: Vec<u8> = (0..40_000u32).map(|i| (i % 241) as u8).collect();
    store.put("o", Bytes::from(blob.clone()));
    client.pull(&mut store, "o").unwrap();
    store.subscribe("c", "o", PushMode::Delta, 1_000);

    // the client "goes offline": three updates happen; the first two pushes
    // are lost on the network, only the last arrives
    let mut last_push = None;
    for i in 0..3usize {
        blob[i * 100] ^= 0xFF;
        let (_, pushes) = store.put("o", Bytes::from(blob.clone()));
        last_push = pushes.into_iter().next();
    }
    // back online: the surviving delta (base v3) cannot apply on held v1
    let push = last_push.expect("lease was active");
    assert!(matches!(push, coda::store::UpdateMessage::Delta { .. }));
    let err = client.apply_push(&push).unwrap_err();
    assert!(matches!(err, coda::store::client::ClientError::BaseVersionMismatch { .. }));
    assert_eq!(client.held_version("o"), Some(1), "a bad delta must not corrupt the cache");
    // version-aware pull resynchronizes; the held version (1) fell out of
    // the depth-2 history, so the store correctly sends a full copy
    client.pull(&mut store, "o").unwrap();
    assert_eq!(client.held_version("o"), Some(4));
    assert_eq!(&client.held_data("o").unwrap()[..], &blob[..]);
    assert!(TransferStats::from_snapshot(&obs.registry().snapshot()).full_transfers >= 2);
}

#[test]
fn replicated_store_full_outage_then_recovery() {
    let mut rs = ReplicatedStore::new(2, 4);
    rs.put("o", Bytes::from_static(b"v1")).unwrap();
    for site in ["site-0", "site-1", "site-2"] {
        rs.fail_site(site).unwrap();
    }
    assert!(rs.put("o", Bytes::from_static(b"lost")).is_err());
    assert!(rs.fetch("o", None).is_err());
    // one site comes back: service resumes from the last committed version
    rs.recover_site("site-2").unwrap();
    let reply = rs.fetch("o", None).unwrap().unwrap();
    assert_eq!(reply.version(), 1, "committed data survives the outage");
    let v = rs.put("o", Bytes::from_static(b"v2")).unwrap();
    assert_eq!(v, 2);
    assert_eq!(rs.primary_name(), "site-2");
    // remaining sites recover and catch up on the next write
    rs.recover_site("site-0").unwrap();
    rs.recover_site("site-1").unwrap();
    rs.put("o", Bytes::from_static(b"v3")).unwrap();
    assert!(rs.site_versions("o").iter().all(|(_, v)| *v == Some(3)));
}

#[test]
fn recovered_replica_serves_only_versions_it_really_held() {
    // site-1 misses v2 while it is down and catches up on the write of v3;
    // once the primary is lost, a client holding the real v2 pulls from
    // site-1 and must rebuild v3, so site-1 may not keep a v2 it never saw
    let version =
        |k: u64| -> Vec<u8> { (0..256u64).map(|i| ((i * 7 + k * 13) % 251) as u8).collect() };
    let mut rs = ReplicatedStore::new(1, 8);
    rs.put("o", Bytes::from(version(1))).unwrap();
    rs.fail_site("site-1").unwrap();
    rs.put("o", Bytes::from(version(2))).unwrap();
    rs.recover_site("site-1").unwrap();
    rs.put("o", Bytes::from(version(3))).unwrap();
    rs.fail_site("site-0").unwrap();
    let reply = rs.fetch("o", Some(2)).unwrap().expect("site-1 holds the object");
    assert_eq!(reply.version(), 3);
    let rebuilt = match reply {
        FetchReply::Delta(delta) => {
            DeltaCodec::apply(&version(2), &delta).expect("the delta must apply onto the real v2")
        }
        FetchReply::Full { data, .. } => data,
        FetchReply::UpToDate { .. } => panic!("site-1 is at v3, not v2"),
    };
    assert_eq!(&rebuilt[..], &version(3)[..]);
}

#[test]
fn darr_claim_taken_over_after_lease_expiry() {
    // a client claims a computation and dies: its lease expires on the
    // logical clock and another client takes the work over — no key is
    // permanently wedged by a crashed holder
    let darr = Darr::new();
    let key = ComputationKey::new("ds", 1, "pipe|ridge", "kfold(3)", "rmse");
    assert_eq!(darr.try_claim(&key, "dead-client", 50), ClaimOutcome::Claimed);
    // while the lease is live, the work is protected from duplication
    assert_eq!(
        darr.try_claim(&key, "survivor", 50),
        ClaimOutcome::HeldBy("dead-client".to_string())
    );
    darr.advance_clock(60); // lease expires; the holder never completed
    let survivor = CooperativeClient::new(&darr, "survivor", 50);
    let once = RetryPolicy::fixed(0.0, 1);
    let work = std::slice::from_ref(&key);
    let (_, mut outcomes) =
        survivor.run(work, &once, |_| Ok((0.25, vec![0.2, 0.3], "takeover".into())));
    match outcomes.remove(0) {
        CoopOutcome::Computed(record) => assert_eq!(record.producer, "survivor"),
        other => panic!("expected takeover compute, got {other:?}"),
    }
    assert_eq!(darr.lookup(&key).unwrap().score, 0.25);
}

#[test]
fn skipped_held_keys_eventually_reused_across_two_clients() {
    // client A holds claims mid-computation; client B's first pass skips
    // them, then B's bounded-backoff revisit finds A's finished results
    // and reuses them — nothing is recomputed and nothing is lost
    let darr = Darr::new();
    let keys: Vec<ComputationKey> = (0..4)
        .map(|i| {
            ComputationKey::new(
                "ds".to_string(),
                1,
                format!("p{i}"),
                "kfold(3)".into(),
                "rmse".into(),
            )
        })
        .collect();
    // A is busy computing the middle two keys
    assert_eq!(darr.try_claim(&keys[1], "a", 1_000), ClaimOutcome::Claimed);
    assert_eq!(darr.try_claim(&keys[2], "a", 1_000), ClaimOutcome::Claimed);
    let b = CooperativeClient::new(&darr, "b", 1_000);
    let policy = RetryPolicy::fixed(10.0, 5);
    let mut b_revisits = 0;
    let (summary, outcomes) = b.run(&keys, &policy, |key| {
        // emulate A finishing concurrently: A completes both held keys
        // while B computes its last unheld key (after the first pass
        // already skipped the held ones), so only the revisit sees them
        b_revisits += 1;
        if b_revisits == 2 {
            darr.complete(&keys[1], "a", 0.1, vec![], "by a");
            darr.complete(&keys[2], "a", 0.2, vec![], "by a");
        }
        Ok((0.5, vec![], format!("by b: {}", key.pipeline)))
    });
    assert_eq!(summary.computed, 2, "B computes exactly the unheld keys");
    assert_eq!(summary.reused, 2, "held keys resolve to A's results on revisit");
    assert_eq!(summary.skipped, 0, "no key may remain skipped");
    assert!(summary.retry.retries >= 1, "revisits must go through the retry policy");
    assert!(matches!(outcomes[1], CoopOutcome::Reused(ref r) if r.producer == "a"));
    assert!(matches!(outcomes[2], CoopOutcome::Reused(ref r) if r.producer == "a"));
    assert_eq!(darr.len(), 4);
}

#[test]
fn lease_cancellation_mid_burst_stops_exactly_there() {
    let mut store = HomeDataStore::new("home", 4);
    let mut client = CachingClient::new("c");
    let mut blob = vec![0u8; 4096];
    store.put("o", Bytes::from(blob.clone()));
    client.pull(&mut store, "o").unwrap();
    store.subscribe("c", "o", PushMode::Full, 1_000);
    let mut received = 0usize;
    for i in 0..6usize {
        if i == 3 {
            assert!(store.cancel("c", "o"));
        }
        blob[i] ^= 1;
        let (_, pushes) = store.put("o", Bytes::from(blob.clone()));
        received += pushes.len();
        for p in &pushes {
            client.apply_push(p).unwrap();
        }
    }
    assert_eq!(received, 3, "exactly the pre-cancellation updates are pushed");
    assert!(client.is_stale(&store, "o"));
}

#[test]
fn partitioned_client_journals_then_replays_and_defers_to_newer_results() {
    // a client cut off from the DARR keeps computing into its journal; once
    // the link heals the journal replays by keep-newer merge, so a result
    // another client stored during the partition beats the older journaled
    // copy — nothing is lost and nothing is duplicated
    let darr = Darr::new();
    let keys: Vec<ComputationKey> = (0..3)
        .map(|i| ComputationKey::new("ds", 1, &format!("p{i}") as &str, "kfold(3)", "rmse"))
        .collect();
    let once = RetryPolicy::fixed(0.0, 1);
    let offline = CooperativeClient::new(&darr, "offline", 100);
    offline.link().set_up(false);
    let (summary, outcomes) = offline.run(&keys, &once, |_| Ok((1.0, vec![], "offline".into())));
    assert_eq!(summary.journaled, 3);
    assert_eq!(summary.replayed, 0, "nothing reaches the DARR during the partition");
    assert!(outcomes.iter().all(|o| matches!(o, CoopOutcome::Journaled(_))));
    assert_eq!(offline.journaled(), 3);
    assert!(darr.is_empty());

    // meanwhile another client stores p0 with a later DARR timestamp
    darr.advance_clock(1_000);
    let online = CooperativeClient::new(&darr, "online", 100);
    online.run(&keys[..1], &once, |_| Ok((9.0, vec![], "fresher".into())));

    // after the heal the journal replays before any key is consulted
    offline.link().set_up(true);
    let (summary, outcomes) = offline.run(&keys, &once, |_| unreachable!("all stored"));
    assert_eq!(summary.replayed, 2, "only the keys nobody else stored apply");
    assert_eq!(summary.reused, 3);
    assert_eq!(offline.journaled(), 0);
    assert!(matches!(&outcomes[0], CoopOutcome::Reused(r) if r.producer == "online"));
    assert_eq!(darr.lookup(&keys[0]).unwrap().score, 9.0, "the newer record wins");
    for key in &keys[1..] {
        assert_eq!(darr.lookup(key).unwrap().producer, "offline");
    }
}
