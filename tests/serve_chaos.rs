//! Chaos composition for the sharded serving tier (satellite of the
//! coda-serve tentpole): killing one shard's home mid-load must trigger
//! crash-recovery for that shard *only*, leave every other shard's state
//! and digest untouched, converge to the same canonical state as a
//! crash-free same-seed run, and replay byte-identically across same-seed
//! runs.

use bytes::Bytes;
use coda::chaos::CrashPlan;
use coda::cluster::{run_crash_recovery, CrashRecoveryConfig};
use coda::obs::Obs;
use coda::store::shard_of;
use coda_serve::{ServeConfig, ServeRequest, ServeTier, TriggerPolicy};

/// splitmix64 — seeded op stream, same idiom as the serving tier's own
/// load generator.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Runs a deterministic put/pull stream through a 2-shard tier under
/// `plan`, returning (canonical state, per-shard summaries' recovery
/// counts, obs recovery counter).
fn run_tier_under_plan(seed: u64, plan: CrashPlan) -> (String, Vec<(u64, u64, u64)>, u64) {
    let obs = Obs::deterministic();
    let cfg = ServeConfig {
        n_shards: 2,
        snapshot_every: 4,
        trigger: TriggerPolicy::Count(3),
        plan,
        ..ServeConfig::default()
    };
    let tier = ServeTier::start_obs(&cfg, Some(&obs));
    let mut rng = seed | 1;
    for _ in 0..200 {
        let key = splitmix64(&mut rng) % 24;
        if splitmix64(&mut rng).is_multiple_of(3) {
            tier.submit(ServeRequest::Pull { id: format!("obj-{key}"), client_version: None })
                .expect("admitted");
        } else {
            let fill = (splitmix64(&mut rng) & 0xff) as u8;
            tier.submit(ServeRequest::Put {
                id: format!("obj-{key}"),
                data: Bytes::from(vec![fill; 128]),
            })
            .expect("admitted");
        }
    }
    tier.advance_clock(5);
    let report = tier.finish();
    let recoveries: Vec<(u64, u64, u64)> = report
        .shards
        .iter()
        .map(|s| (s.recoveries, s.recoveries_byte_identical, s.recovery_mismatches))
        .collect();
    let recovered = obs.registry().snapshot().counter("coda_serve_recoveries");
    (report.canonical_state(), recoveries, recovered)
}

/// Killing shard-1's store mid-load recovers in place, touches only
/// shard-1, and is invisible in the final canonical state.
#[test]
fn shard_crash_recovers_in_place_and_stays_invisible() {
    let seed = 17u64;
    let (clean_state, clean_recoveries, _) = run_tier_under_plan(seed, CrashPlan::new());
    assert!(clean_recoveries.iter().all(|&(r, _, _)| r == 0), "no plan, no recoveries");

    let plan = CrashPlan::new().with_crash_at("shard-1", 6, Some(0.0));
    let (crashed_state, recoveries, obs_recoveries) = run_tier_under_plan(seed, plan.clone());
    assert_eq!(recoveries[1].0, 1, "the planned point must fire on shard-1");
    assert_eq!(recoveries[1].1, 1, "WAL replay must be byte-identical");
    assert_eq!(recoveries[1].2, 0, "no recovery may diverge");
    assert_eq!(recoveries[0], (0, 0, 0), "shard-0 was never scheduled");
    assert_eq!(obs_recoveries, 1);
    assert_eq!(
        crashed_state, clean_state,
        "a byte-identical recovery must be invisible in canonical state"
    );

    // same seed, same plan: the whole run replays byte-identically
    let (replay_state, replay_recoveries, _) = run_tier_under_plan(seed, plan);
    assert_eq!(replay_state, crashed_state);
    assert_eq!(replay_recoveries, recoveries);
}

/// The sharded kill-restart driver: crashing one lane's home fails over
/// that lane only, every lane's digest still matches the crash-free
/// sharded baseline, and same-seed runs replay identically.
#[test]
fn sharded_recovery_fails_over_one_lane_only() {
    const N_SHARDS: usize = 2;
    let cfg = CrashRecoveryConfig::default();
    let baseline = run_crash_recovery(&cfg, N_SHARDS, None);
    assert_eq!(baseline.completed, cfg.n_items, "sharded baseline covers all work");
    assert_eq!(baseline.failovers, 0);
    assert_eq!(baseline.shard_digests.len(), N_SHARDS);

    // target the lane that owns obj-0 — guaranteed non-empty workload
    let lane = shard_of("obj-0", N_SHARDS);
    let other = 1 - lane;
    let crash_cfg = CrashRecoveryConfig {
        plan: CrashPlan::new().with_crash_at(&format!("s{lane}-node-0"), 3, None),
        ..cfg.clone()
    };
    let report = run_crash_recovery(&crash_cfg, N_SHARDS, None);
    assert_eq!(report.crashes, 1, "exactly one lane's home crashes");
    assert_eq!(report.failovers, 1, "exactly one lane fails over");
    assert_eq!(report.completed, cfg.n_items, "no work may be lost");
    assert!(
        report.final_home.contains(&format!("s{lane}-node-1")),
        "the crashed lane promotes its replica: {}",
        report.final_home
    );
    assert!(
        report.final_home.contains(&format!("s{other}-node-0")),
        "the untouched lane keeps its home: {}",
        report.final_home
    );
    assert_eq!(
        report.shard_digests[other], baseline.shard_digests[other],
        "the untouched lane's digest must be unaffected"
    );
    assert_eq!(
        report.shard_digests[lane], baseline.shard_digests[lane],
        "the crashed lane must converge to its baseline digest"
    );

    // same seed, same plan: byte-identical replay
    let replay = run_crash_recovery(&crash_cfg, N_SHARDS, None);
    assert_eq!(replay, report, "sharded kill-restart must replay bit-identically");
}

/// A kill-*restart* point in a sharded run proves byte-identical WAL
/// replay inside its lane while the other lane never notices.
#[test]
fn sharded_restart_replays_byte_identically() {
    const N_SHARDS: usize = 2;
    let cfg = CrashRecoveryConfig::default();
    let baseline = run_crash_recovery(&cfg, N_SHARDS, None);
    let lane = shard_of("obj-0", N_SHARDS);
    let crash_cfg = CrashRecoveryConfig {
        plan: CrashPlan::new().with_crash_at(&format!("s{lane}-node-0"), 3, Some(600.0)),
        ..cfg
    };
    let report = run_crash_recovery(&crash_cfg, N_SHARDS, None);
    assert_eq!(report.crashes, 1);
    assert_eq!(report.restarts, 1);
    assert_eq!(report.byte_identical_recoveries, 1, "WAL replay must be exact");
    assert_eq!(report.recovery_mismatches, 0);
    assert_eq!(report.digest, baseline.digest, "aggregate digest must converge");
}
