//! Deterministic kill-restart driver: two durable home-store nodes and a
//! shared DARR under a [`CrashPlan`], exercising the full crash-stop
//! failure path end to end —
//!
//! 1. the acting home serves puts (WAL-logged, delta-replicated to the
//!    subscribed replica) and works a cooperative DARR item list;
//! 2. a [`CrashSchedule`] kills a node the moment its WAL reaches the
//!    planned operation count;
//! 3. the [`FailureDetector`] accrues suspicion from the silence, and once
//!    it reaches the *dead* verdict **and** the home lease expires,
//!    [`HomeLeaseFailover`] promotes the surviving replica;
//! 4. the new home reaps the dead node's orphaned DARR claims after a
//!    grace period and takes the interrupted work over;
//! 5. at the scheduled restart the node replays its WAL — the recovered
//!    state must be byte-identical to the pre-crash export — rejoins the
//!    heartbeat ring, and demotes/catches up over the existing delta
//!    chains when it lost the home role.
//!
//! Every clock is logical and every decision deterministic, so a run with
//! the same [`CrashRecoveryConfig`] replays bit-identically, and a run
//! crashed at *any* WAL crash point converges to the same final
//! store/DARR digest as the crash-free run — the property the
//! kill-restart acceptance test sweeps exhaustively.

use std::collections::BTreeSet;

use bytes::Bytes;
use coda_chaos::{CrashPlan, CrashSchedule};
use coda_darr::{ClaimOutcome, ComputationKey, Darr};
use coda_obs::Obs;
use coda_store::{
    catch_up, DurableStore, FailoverDecision, FetchReply, HomeLeaseFailover, Incoming, PushMode,
};

use crate::failure::{DetectorConfig, FailureDetector, Liveness};

/// Logical milliseconds per driver round (heartbeat interval; the DARR and
/// home-lease clocks tick once per round).
const STEP_MS: f64 = 10.0;
/// Store-clock ticks a replica subscription lasts — effectively forever.
const SUBSCRIPTION_TICKS: u64 = 1_000_000;

/// Configuration of one kill-restart run. Driver times are logical
/// milliseconds; lease/claim/grace times are logical ticks (one per round).
#[derive(Debug, Clone, PartialEq)]
pub struct CrashRecoveryConfig {
    /// Seed mixed into every payload (varies content across CI matrix runs).
    pub seed: u64,
    /// Distinct store objects written round-robin.
    pub n_objects: usize,
    /// Puts the workload performs in total.
    pub n_puts: usize,
    /// Cooperative DARR work items.
    pub n_items: usize,
    /// Payload bytes per object version.
    pub payload_len: usize,
    /// Fold the WAL into a snapshot after this many records (0 = never).
    pub snapshot_every: usize,
    /// The crash-stop schedule (empty plan = crash-free baseline).
    pub plan: CrashPlan,
    /// Home-lease duration in ticks (renewed every round by the holder).
    pub home_lease: u64,
    /// DARR claim duration in ticks (long: orphans are cleared by
    /// *reaping*, not expiry).
    pub claim_duration: u64,
    /// Ticks past the detector's dead verdict before orphaned claims reap.
    pub reap_grace: u64,
    /// Safety cap on driver rounds.
    pub max_rounds: usize,
}

impl Default for CrashRecoveryConfig {
    fn default() -> Self {
        CrashRecoveryConfig {
            seed: 7,
            n_objects: 3,
            n_puts: 12,
            n_items: 8,
            payload_len: 512,
            snapshot_every: 8,
            plan: CrashPlan::new(),
            home_lease: 5,
            claim_duration: 10_000,
            reap_grace: 2,
            max_rounds: 400,
        }
    }
}

/// What happened in one kill-restart run — the ground truth the
/// acceptance test compares against the crash-free baseline and across
/// same-seed replays.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CrashRecoveryReport {
    /// Driver rounds executed.
    pub rounds: usize,
    /// Crash events fired by the schedule.
    pub crashes: u64,
    /// Restart events fired by the schedule.
    pub restarts: u64,
    /// Home promotions performed.
    pub failovers: u64,
    /// Detector alive→suspect transitions.
    pub suspicions: u64,
    /// Detector →dead transitions.
    pub deaths: u64,
    /// Orphaned DARR claims reaped from dead owners.
    pub reaped_claims: u64,
    /// WAL records replayed across all recoveries.
    pub wal_replayed_records: u64,
    /// Recoveries whose replayed state matched the pre-crash export
    /// byte for byte.
    pub byte_identical_recoveries: u64,
    /// Recoveries that diverged (must stay zero).
    pub recovery_mismatches: u64,
    /// Interrupted work items re-claimed after a reap.
    pub takeovers: u64,
    /// Work items completed (must reach `n_items`).
    pub completed: usize,
    /// The home at the end of the run.
    pub final_home: String,
    /// WAL operation count at the initial home (`node-0`) when the run
    /// ended — in a crash-free baseline this is the number of crash
    /// points an exhaustive kill-restart sweep must cover.
    pub home_ops: u64,
    /// Canonical digest of the final store contents and DARR outcomes —
    /// producer- and timing-independent, so a crashed run and the
    /// crash-free baseline must produce the *same* digest. In a sharded
    /// run this is the concatenation of the per-shard digests in shard
    /// order.
    pub digest: String,
    /// The per-shard digests (one entry for an unsharded run) — lets a
    /// chaos test assert that killing one shard's home left every *other*
    /// shard's digest untouched.
    pub shard_digests: Vec<String>,
}

impl coda_obs::Publish for CrashRecoveryReport {
    fn publish(&self, registry: &coda_obs::MetricsRegistry) {
        // components attached live (failover, detector, DARR, stores)
        // already emitted their own counters; only driver-level facts here
        registry.count("coda_cluster_recovery_rounds", self.rounds as u64);
        registry.count("coda_cluster_recovery_crashes", self.crashes);
        registry.count("coda_cluster_recovery_restarts", self.restarts);
        registry.count("coda_cluster_recovery_takeovers", self.takeovers);
        registry.count("coda_cluster_recovery_byte_identical", self.byte_identical_recoveries);
        registry.count("coda_cluster_recovery_mismatches", self.recovery_mismatches);
        registry.count("coda_cluster_recovery_completed", self.completed as u64);
    }
}

/// Deterministic payload for the `j`-th put: a seed-keyed base pattern
/// with a small `j`-dependent splice, so consecutive versions of an object
/// differ by a few bytes and the delta replication path actually carries
/// deltas.
fn payload(seed: u64, j: usize, len: usize) -> Bytes {
    let mut data: Vec<u8> =
        (0..len).map(|i| ((i as u64).wrapping_mul(13).wrapping_add(seed) % 251) as u8).collect();
    if len >= 8 {
        let at = (j * 7) % (len - 7);
        for (k, b) in data[at..at + 8].iter_mut().enumerate() {
            *b = ((j as u64).wrapping_mul(31).wrapping_add(k as u64) % 251) as u8;
        }
    }
    Bytes::from(data)
}

/// Deterministic score for work item `idx` — identical no matter which
/// node ends up computing it.
fn score_for(idx: usize) -> f64 {
    0.05 * (idx as f64 + 1.0)
}

/// Runs one kill-restart scenario to completion (or the round cap).
///
/// The workload partitions into `n_shards` independent home/replica
/// *lanes* by the tier-wide stable routing hash ([`coda_store::shard_of`])
/// — objects by id, work items by their `dataset|pipeline` key — and each
/// lane runs the full kill-restart driver over its slice. Lane `k`'s nodes
/// are named `s{k}-node-0` / `s{k}-node-1`, so a [`CrashPlan`] can target
/// one shard's home without touching the rest; points addressed to other
/// lanes simply never fire in this one. With `n_shards == 1` the node
/// names stay `node-0`/`node-1` and the run is byte-for-byte the historical
/// unsharded driver. The aggregated report sums counters across lanes,
/// takes the maximum round count, joins the per-lane homes with `,` into
/// `final_home`, and concatenates the per-lane digests (also kept
/// individually in `shard_digests`).
///
/// With `obs`, each lane gets a `recovery.run` root span with crash /
/// promotion / reap / rejoin point events, WAL replays run in
/// `store.wal_replay` child spans, and the detector, failover gate, DARR
/// and stores all count live into the attached registry
/// (`coda_cluster_failovers_total`, `coda_darr_claims_reaped_total`,
/// `coda_store_wal_replays`, …). A manual observer clock is kept in
/// lockstep with driver time, so two same-seed runs emit byte-identical
/// trace logs and metrics.
pub fn run_crash_recovery(
    cfg: &CrashRecoveryConfig,
    n_shards: usize,
    obs: Option<&Obs>,
) -> CrashRecoveryReport {
    assert!(n_shards >= 1, "need at least one shard lane");
    let reports: Vec<CrashRecoveryReport> = (0..n_shards)
        .map(|k| {
            let lane = LaneSpec {
                prefix: if n_shards == 1 { String::new() } else { format!("s{k}-") },
                objects: (0..cfg.n_objects)
                    .map(|j| format!("obj-{j}"))
                    .filter(|id| coda_store::shard_of(id, n_shards) == k)
                    .collect(),
                puts: (0..cfg.n_puts)
                    .filter(|j| {
                        coda_store::shard_of(&format!("obj-{}", j % cfg.n_objects), n_shards) == k
                    })
                    .collect(),
                items: (0..cfg.n_items)
                    .filter(|i| coda_store::shard_of(&format!("recovery-ds|p{i}"), n_shards) == k)
                    .collect(),
            };
            run_lane(cfg, obs, &lane)
        })
        .collect();

    let mut agg = CrashRecoveryReport::default();
    let mut homes = Vec::with_capacity(reports.len());
    for r in reports {
        agg.rounds = agg.rounds.max(r.rounds);
        agg.crashes += r.crashes;
        agg.restarts += r.restarts;
        agg.failovers += r.failovers;
        agg.suspicions += r.suspicions;
        agg.deaths += r.deaths;
        agg.reaped_claims += r.reaped_claims;
        agg.wal_replayed_records += r.wal_replayed_records;
        agg.byte_identical_recoveries += r.byte_identical_recoveries;
        agg.recovery_mismatches += r.recovery_mismatches;
        agg.takeovers += r.takeovers;
        agg.completed += r.completed;
        agg.home_ops += r.home_ops;
        agg.digest.push_str(&r.digest);
        homes.push(r.final_home);
        agg.shard_digests.push(r.digest);
    }
    agg.final_home = homes.join(",");
    agg
}

/// One lane's slice of the sharded workload: the node-name prefix and the
/// global object ids / put indices / item indices this lane owns. Global
/// indices ride along so payloads, scores and digest lines match what the
/// unsharded driver produces for the same work.
struct LaneSpec {
    prefix: String,
    objects: Vec<String>,
    puts: Vec<usize>,
    items: Vec<usize>,
}

/// The kill-restart driver over one lane's slice — the whole historical
/// unsharded driver, parameterized only by node naming and work subset.
fn run_lane(cfg: &CrashRecoveryConfig, obs: Option<&Obs>, lane: &LaneSpec) -> CrashRecoveryReport {
    assert!(cfg.n_objects >= 1 && cfg.n_puts >= 1 && cfg.n_items >= 1, "need a workload");
    let names = [format!("{}node-0", lane.prefix), format!("{}node-1", lane.prefix)];
    let objects: Vec<String> = lane.objects.clone();
    let keys: Vec<ComputationKey> = lane
        .items
        .iter()
        .map(|i| {
            ComputationKey::new("recovery-ds", 1, &format!("p{i}") as &str, "kfold(3)", "rmse")
        })
        .collect();

    let root = obs.map(|o| {
        o.sync_manual_ms(0.0);
        o.tracer().begin_span("recovery.run", None, &[("seed", &cfg.seed.to_string())])
    });
    let event = |name: &str, attrs: &[(&str, &str)]| {
        if let (Some(o), Some(r)) = (obs, root) {
            o.tracer().event_in(r, name, attrs);
        }
    };

    let mut stores: Vec<Option<DurableStore>> = names
        .iter()
        .map(|n| {
            let mut s = DurableStore::new(n.clone(), 4, cfg.snapshot_every);
            if let Some(o) = obs {
                s.attach_obs(o.clone());
            }
            Some(s)
        })
        .collect();
    let mut images = [None, None];
    let mut saved_exports: Vec<Option<String>> = vec![None, None];

    let mut schedule = CrashSchedule::new(cfg.plan.clone());
    let mut detector = FailureDetector::new(DetectorConfig {
        window: 8,
        initial_interval_ms: STEP_MS,
        suspect_phi: 1.0,
        dead_phi: 4.0,
    });
    let mut failover = HomeLeaseFailover::new(names[0].clone(), cfg.home_lease, 0);
    let darr = Darr::new();
    if let Some(o) = obs {
        detector.attach_obs(o.clone());
        failover.attach_obs(o.clone());
        darr.attach_obs(o.clone());
    }
    for n in &names {
        detector.register(n, 0.0);
    }
    // the initial home subscribes its replica to every object (WAL-logged)
    if let Some(home) = stores[0].as_mut() {
        for id in &objects {
            home.subscribe(&names[1], id, PushMode::Delta, SUBSCRIPTION_TICKS);
        }
    }

    let idx_of = |name: &str| names.iter().position(|n| n == name).unwrap_or(0);
    let mut report = CrashRecoveryReport::default();
    let mut completed: BTreeSet<usize> = BTreeSet::new();
    let mut orphaned: BTreeSet<usize> = BTreeSet::new();
    let mut in_flight: Option<(usize, String)> = None;
    let mut puts_done = 0usize;

    for round in 0..cfg.max_rounds {
        report.rounds = round + 1;
        let tick = round as u64;
        let now_ms = round as f64 * STEP_MS;
        if let Some(o) = obs {
            o.sync_manual_ms(now_ms);
        }

        // 1. scheduled restarts: replay the WAL, prove byte-identical
        // recovery, rejoin the heartbeat ring, demote + catch up if the
        // home role moved while the node was down
        for node in schedule.due_restarts(now_ms) {
            let i = idx_of(&node);
            let Some(image) = images[i].take() else { continue };
            let (recovered, replayed) = {
                let _run = obs.map(|o| o.tracer().enter(root));
                DurableStore::recover(image, obs)
            };
            report.wal_replayed_records += replayed as u64;
            match saved_exports[i].take() {
                Some(expected) if recovered.export_state() == expected => {
                    report.byte_identical_recoveries += 1;
                }
                _ => report.recovery_mismatches += 1,
            }
            stores[i] = Some(recovered);
            detector.heartbeat(&node, now_ms);
            event("recovery.rejoin", &[("node", &node)]);
            if failover.holder() != node {
                // demoted: catch up from the new home over delta chains
                let holder_idx = idx_of(failover.holder());
                let (a, b) = if holder_idx < i {
                    let (lo, hi) = stores.split_at_mut(i);
                    (lo[holder_idx].as_mut(), hi[0].as_mut())
                } else {
                    let (lo, hi) = stores.split_at_mut(holder_idx);
                    (hi[0].as_mut(), lo[i].as_mut())
                };
                if let (Some(home), Some(me)) = (a, b) {
                    for id in &objects {
                        if let Ok(Some(reply)) = home.fetch(id, me.current_version(id)) {
                            let held = me.store().current(id);
                            if let Ok(Some((v, data))) = catch_up(held, Incoming::Reply(&reply)) {
                                me.install_version(id, v, data);
                            }
                        }
                        home.subscribe(&node, id, PushMode::Delta, SUBSCRIPTION_TICKS);
                    }
                }
            }
        }

        // 2. heartbeats + home lease renewal
        for (i, name) in names.iter().enumerate() {
            if stores[i].is_some() {
                detector.heartbeat(name, now_ms);
            }
        }
        let holder = failover.holder().to_string();
        if stores[idx_of(&holder)].is_some() {
            failover.renew(&holder, tick);
        }

        // 3. failure evaluation and the lease-gated failover decision
        let mut verdicts = [Liveness::Alive, Liveness::Alive];
        for (i, name) in names.iter().enumerate() {
            verdicts[i] = detector.evaluate(name, now_ms);
        }
        let holder_idx = idx_of(&holder);
        let other_idx = 1 - holder_idx;
        let candidate =
            if stores[other_idx].is_some() { Some(names[other_idx].as_str()) } else { None };
        if let FailoverDecision::Promoted { from, to } =
            failover.evaluate(verdicts[holder_idx] == Liveness::Dead, candidate, tick)
        {
            event("recovery.promote", &[("from", &from), ("to", &to)]);
        }

        // 4. reap a dead node's orphaned claims once the grace elapses
        let holder = failover.holder().to_string();
        let holder_alive = stores[idx_of(&holder)].is_some();
        if holder_alive {
            for (i, name) in names.iter().enumerate() {
                if *name == holder || verdicts[i] != Liveness::Dead {
                    continue;
                }
                if let Some(dead_ms) = detector.dead_since(name) {
                    let dead_tick = (dead_ms / STEP_MS) as u64;
                    let reaped = darr.reap_claims(name, dead_tick, cfg.reap_grace);
                    if reaped > 0 {
                        report.reaped_claims += reaped as u64;
                        event("recovery.reap", &[("owner", name), ("claims", &reaped.to_string())]);
                    }
                }
            }
        }

        // 5. complete last round's claim (a crashed owner's claim dangles
        // in the DARR until reaped)
        if let Some((idx, owner)) = in_flight.take() {
            if stores[idx_of(&owner)].is_some() && owner == holder {
                darr.complete(&keys[idx], &owner, score_for(lane.items[idx]), vec![], "recovery");
                completed.insert(idx);
            } else {
                orphaned.insert(idx);
            }
        }

        // 6. the acting home claims the next outstanding work item
        if holder_alive && in_flight.is_none() {
            if let Some(idx) = (0..keys.len()).find(|i| !completed.contains(i)) {
                match darr.try_claim(&keys[idx], &holder, cfg.claim_duration) {
                    ClaimOutcome::Claimed => {
                        if orphaned.remove(&idx) {
                            report.takeovers += 1;
                            event("recovery.takeover", &[("item", &keys[idx].pipeline)]);
                        }
                        in_flight = Some((idx, holder.clone()));
                    }
                    ClaimOutcome::AlreadyComputed(_) => {
                        completed.insert(idx);
                    }
                    ClaimOutcome::HeldBy(_) => {} // wait for the reaper
                }
            }
        }

        // 7. the put workload: next deterministic put, delta-replicated to
        // the live replica
        if holder_alive && puts_done < lane.puts.len() {
            // global put index: the payload and target object must match
            // what the unsharded driver produces for the same put
            let j = lane.puts[puts_done];
            let id = format!("obj-{}", j % cfg.n_objects);
            let data = payload(cfg.seed, j, cfg.payload_len);
            let holder_idx = idx_of(&holder);
            let other_idx = 1 - holder_idx;
            let messages = match stores[holder_idx].as_mut() {
                Some(home) => home.put(&id, data).1,
                None => Vec::new(),
            };
            if let Some(replica) = stores[other_idx].as_mut() {
                for msg in messages.iter().filter(|m| m.client() == names[other_idx]) {
                    let held = replica.store().current(msg.object());
                    if let Ok(Some((v, data))) = catch_up(held, Incoming::Push(msg)) {
                        replica.install_version(msg.object(), v, data);
                    }
                }
            }
            puts_done += 1;
        }

        darr.advance_clock(1);

        // 8. crash points: after the round's operations, each live node
        // consults the schedule with its WAL operation count
        for (i, name) in names.iter().enumerate() {
            let ops = match stores[i].as_ref() {
                Some(s) => s.ops(),
                None => continue,
            };
            if schedule.should_crash(name, ops, now_ms) {
                let Some(store) = stores[i].take() else { continue };
                saved_exports[i] = Some(store.export_state());
                images[i] = Some(store.crash());
                if let Some((idx, owner)) = in_flight.take() {
                    if owner == *name {
                        orphaned.insert(idx);
                    } else {
                        in_flight = Some((idx, owner));
                    }
                }
                event("recovery.crash", &[("node", name), ("at_op", &ops.to_string())]);
            }
        }

        // 9. converged?
        if puts_done == lane.puts.len()
            && completed.len() == keys.len()
            && in_flight.is_none()
            && schedule.pending_restarts() == 0
        {
            break;
        }
    }

    report.crashes = schedule.crashes();
    report.restarts = schedule.restarts();
    report.failovers = failover.failovers();
    report.suspicions = detector.suspicions();
    report.deaths = detector.deaths();
    report.completed = completed.len();
    report.final_home = failover.holder().to_string();
    report.home_ops = stores[0].as_ref().map(DurableStore::ops).unwrap_or(0);

    // digest of the *logical* outcome: final object contents/versions from
    // the acting home (falling back to any live store) plus every DARR
    // result's deterministic score — producer- and timing-free, so it must
    // match between a crashed run and the crash-free baseline
    let digest_idx = if stores[idx_of(failover.holder())].is_some() {
        Some(idx_of(failover.holder()))
    } else {
        stores.iter().position(Option::is_some)
    };
    let mut digest = String::new();
    if let Some(i) = digest_idx {
        if let Some(store) = stores[i].as_mut() {
            for id in &objects {
                if let Ok(Some(FetchReply::Full { version, data })) = store.fetch(id, None) {
                    digest.push_str(&format!(
                        "object {id} v{version} hash={:016x}\n",
                        coda_store::content_hash(&data)
                    ));
                }
            }
        }
    }
    for (idx, key) in keys.iter().enumerate() {
        if let Some(r) = darr.lookup(key) {
            digest.push_str(&format!("item p{} score={:.3}\n", lane.items[idx], r.score));
        }
    }
    digest.push_str(&format!("completed={}\n", report.completed));
    report.digest = digest.clone();
    report.shard_digests = vec![digest];

    if let (Some(o), Some(r)) = (obs, root) {
        o.tracer().end_span(r, &[("home", &report.final_home)]);
        o.publish(&report);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crash_free_baseline_converges_without_failovers() {
        let cfg = CrashRecoveryConfig::default();
        let report = run_crash_recovery(&cfg, 1, None);
        assert_eq!(report.completed, cfg.n_items);
        assert_eq!(report.crashes, 0);
        assert_eq!(report.failovers, 0, "no crash = no failover, ever");
        assert_eq!(report.deaths, 0);
        assert_eq!(report.reaped_claims, 0);
        assert_eq!(report.final_home, "node-0");
        assert!(report.digest.contains("completed=8"));
        assert!(report.rounds < cfg.max_rounds);
    }

    #[test]
    fn home_crash_fails_over_reaps_and_matches_the_baseline_digest() {
        let baseline = run_crash_recovery(&CrashRecoveryConfig::default(), 1, None);
        let cfg = CrashRecoveryConfig {
            plan: CrashPlan::new().with_crash_at("node-0", 10, None),
            ..CrashRecoveryConfig::default()
        };
        let report = run_crash_recovery(&cfg, 1, None);
        assert_eq!(report.crashes, 1);
        assert_eq!(report.failovers, 1, "the replica must be promoted");
        assert_eq!(report.final_home, "node-1");
        assert!(report.deaths >= 1);
        assert!(report.suspicions >= 1, "suspicion precedes the dead verdict");
        assert!(report.reaped_claims >= 1, "the orphaned claim must be reaped");
        assert!(report.takeovers >= 1, "the interrupted item must be retaken");
        assert_eq!(report.completed, cfg.n_items);
        assert_eq!(report.digest, baseline.digest, "the outcome must converge");
    }

    #[test]
    fn restarted_home_replays_byte_identically_and_rejoins() {
        let baseline = run_crash_recovery(&CrashRecoveryConfig::default(), 1, None);
        let cfg = CrashRecoveryConfig {
            plan: CrashPlan::new().with_crash_at("node-0", 10, Some(600.0)),
            ..CrashRecoveryConfig::default()
        };
        let report = run_crash_recovery(&cfg, 1, None);
        assert_eq!(report.crashes, 1);
        assert_eq!(report.restarts, 1);
        assert_eq!(report.byte_identical_recoveries, 1, "WAL replay must be exact");
        assert_eq!(report.recovery_mismatches, 0);
        assert_eq!(report.failovers, 1);
        assert_eq!(report.final_home, "node-1", "the restarted node demotes");
        assert_eq!(report.digest, baseline.digest);
    }

    #[test]
    fn replica_crash_never_moves_the_home_role() {
        let baseline = run_crash_recovery(&CrashRecoveryConfig::default(), 1, None);
        let cfg = CrashRecoveryConfig {
            plan: CrashPlan::new().with_crash_at("node-1", 5, Some(400.0)),
            ..CrashRecoveryConfig::default()
        };
        let report = run_crash_recovery(&cfg, 1, None);
        assert_eq!(report.crashes, 1);
        assert_eq!(report.restarts, 1);
        assert_eq!(report.failovers, 0, "the home never crashed");
        assert_eq!(report.final_home, "node-0");
        assert_eq!(report.byte_identical_recoveries, 1);
        assert_eq!(report.digest, baseline.digest, "catch-up must close the gap");
    }

    #[test]
    fn same_seed_replays_identically() {
        let cfg = CrashRecoveryConfig {
            plan: CrashPlan::new().with_crash_at("node-0", 14, Some(500.0)),
            ..CrashRecoveryConfig::default()
        };
        let a = run_crash_recovery(&cfg, 1, None);
        let b = run_crash_recovery(&cfg, 1, None);
        assert_eq!(a, b, "identical configs must replay bit-identically");
    }

    #[test]
    fn early_crash_without_restart_still_converges() {
        let baseline = run_crash_recovery(&CrashRecoveryConfig::default(), 1, None);
        for at_op in [1u64, 2, 3] {
            let cfg = CrashRecoveryConfig {
                plan: CrashPlan::new().with_crash_at("node-0", at_op, None),
                ..CrashRecoveryConfig::default()
            };
            let report = run_crash_recovery(&cfg, 1, None);
            assert_eq!(report.completed, cfg.n_items, "crash at op {at_op}");
            assert_eq!(report.digest, baseline.digest, "crash at op {at_op}");
        }
    }
}
