//! Deterministic chaos driver: N logical clients cooperating over a shared
//! DARR while a seeded [`FaultInjector`] drops messages, partitions the
//! repository and crashes a client mid-computation. The driver is
//! single-threaded round-robin — every source of randomness is seeded and
//! every clock is logical — so a run with the same [`ChaosCoopConfig`]
//! replays bit-identically, which is what the resilience acceptance test
//! asserts.
//!
//! Resilience paths exercised per step:
//! - unreachable DARR → [`RetryPolicy`] backoff, then offline compute with
//!   a write-behind journal replayed (keep-newer merge) after the heal;
//! - a claim held by a crashed client → lease expiry, then takeover;
//! - message drops on the claim/complete round trips → seeded retries.

use std::collections::{BTreeSet, VecDeque};

use coda_chaos::{FaultInjector, FaultPlan, FaultStats, RetryPolicy, RetryStats};
use coda_darr::{AnalyticsRecord, ClaimOutcome, ComputationKey, Darr};
use coda_obs::{Obs, SpanContext};
use coda_store::shard_of;

/// Logical milliseconds (and DARR ticks) per driver round.
const STEP_MS: f64 = 20.0;
/// Rounds a claimed computation takes — claims outlive steps, so a crash
/// mid-computation leaves a dangling claim for others to take over.
const WORK_STEPS: usize = 2;

/// Configuration of one chaos run. All times are logical milliseconds on
/// the driver clock.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChaosCoopConfig {
    /// Seed for the fault injector and retry jitter.
    pub seed: u64,
    /// Number of logical cooperating clients.
    pub n_clients: usize,
    /// Number of pipeline evaluations (work items).
    pub n_keys: usize,
    /// Per-message drop probability on every client↔DARR exchange.
    pub drop_probability: f64,
    /// Window during which the DARR is unreachable for every client.
    pub darr_partition: Option<(f64, f64)>,
    /// `(client index, down_at, up_at)`: one client crashes and restarts.
    pub crash: Option<(usize, f64, f64)>,
    /// Claim lease duration in DARR ticks.
    pub claim_duration: u64,
    /// Safety cap on driver rounds.
    pub max_rounds: usize,
}

impl Default for ChaosCoopConfig {
    fn default() -> Self {
        ChaosCoopConfig {
            seed: 7,
            n_clients: 3,
            n_keys: 12,
            drop_probability: 0.2,
            darr_partition: Some((400.0, 800.0)),
            crash: Some((1, 200.0, 600.0)),
            claim_duration: 200,
            max_rounds: 10_000,
        }
    }
}

/// What happened in one chaos run — the ground truth the acceptance test
/// and the D4 experiment compare across seeds.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ChaosCoopReport {
    /// Work items configured.
    pub n_keys: usize,
    /// Distinct results stored in the DARR at the end.
    pub completed: usize,
    /// Computations completed online (claim → compute → complete).
    pub computed: usize,
    /// Stored results reused instead of recomputed.
    pub reused: usize,
    /// Results computed offline and journaled during unreachability.
    pub journaled: usize,
    /// Journaled records the DARR accepted on replay.
    pub replayed: usize,
    /// Journaled records rejected on replay because the key was already
    /// computed — every duplicate computation is counted here, none are
    /// silent.
    pub duplicates: usize,
    /// Claims taken over after a holder's lease expired.
    pub takeovers: usize,
    /// Computations lost to the crash (claimed, never completed — redone
    /// by someone else via takeover).
    pub lost_to_crash: usize,
    /// Driver rounds executed.
    pub rounds: usize,
    /// Crash edges the *driver* observed (a client up last round, down
    /// now) — compared against the injector's own crash count to prove
    /// scheduled crashes actually bit the protocol.
    pub crashes_seen: u64,
    /// Restart edges the driver observed (a client back up after a crash).
    pub restarts_seen: u64,
    /// Aggregated retry/backoff accounting over every DARR exchange.
    pub retry: RetryStats,
    /// The injector's fault counters.
    pub faults: FaultStats,
}

impl coda_obs::Publish for ChaosCoopReport {
    fn publish(&self, registry: &coda_obs::MetricsRegistry) {
        registry.count("coda_cluster_chaos_keys", self.n_keys as u64);
        registry.count("coda_cluster_chaos_completed", self.completed as u64);
        registry.count("coda_cluster_chaos_computed", self.computed as u64);
        registry.count("coda_cluster_chaos_reused", self.reused as u64);
        registry.count("coda_cluster_chaos_journaled", self.journaled as u64);
        registry.count("coda_cluster_chaos_replayed", self.replayed as u64);
        registry.count("coda_cluster_chaos_duplicates", self.duplicates as u64);
        registry.count("coda_cluster_chaos_takeovers", self.takeovers as u64);
        registry.count("coda_cluster_chaos_lost_to_crash", self.lost_to_crash as u64);
        registry.count("coda_cluster_chaos_rounds", self.rounds as u64);
        // injected-vs-observed crash-stop events: the injector counts the
        // scheduled crash/restart edges (`coda_chaos_faults_{crashes,
        // restarts}`), the driver the edges its clients lived through
        registry.count("coda_cluster_crashes_observed", self.crashes_seen);
        registry.count("coda_cluster_restarts_observed", self.restarts_seen);
        self.retry.publish(registry);
        self.faults.publish(registry);
    }
}

/// Per-client driver state.
struct ClientState {
    name: String,
    /// Rotated work cursor (key indices still to try).
    pending: VecDeque<usize>,
    /// In-flight claimed computation: (key index, rounds remaining, the
    /// `chaos.attempt` span covering this claim → work → complete cycle).
    working: Option<(usize, usize, Option<SpanContext>)>,
    /// Offline results waiting for replay.
    journal: Vec<AnalyticsRecord>,
    /// Whether the previous round saw this client crashed (restart edge).
    was_down: bool,
}

/// One retried client↔DARR round trip: request and response legs each risk
/// an injected drop; backoffs advance both the chaos and *every DARR
/// lane's* clock so scheduled windows can heal and lane clocks stay in
/// lockstep — and keep an attached observer's manual clock aligned so
/// trace timestamps stay logical. Returns reachability plus retry
/// accounting.
fn reach(
    injector: &mut FaultInjector,
    client: &str,
    policy: &RetryPolicy,
    now_ms: &mut f64,
    lanes: &[Darr],
    obs: Option<&Obs>,
) -> (bool, RetryStats) {
    let mut state = policy.state();
    loop {
        state.begin_attempt();
        let request_dropped = injector.should_drop(client, "darr");
        let response_dropped = injector.should_drop("darr", client);
        if !request_dropped && !response_dropped {
            return (true, state.finish(true));
        }
        match state.next_backoff_ms() {
            Some(backoff) => {
                *now_ms += backoff;
                injector.advance_to(*now_ms);
                for lane in lanes {
                    lane.advance_clock(backoff.ceil() as u64);
                }
                if let Some(o) = obs {
                    o.sync_manual_ms(*now_ms);
                }
            }
            None => return (false, state.finish(false)),
        }
    }
}

/// Lazily opens the per-key root span the first time any client touches
/// key `idx`; every later protocol step for that key hangs off it.
fn key_root(
    obs: Option<&Obs>,
    key_spans: &mut [Option<SpanContext>],
    key_open: &mut [bool],
    keys: &[ComputationKey],
    idx: usize,
) -> Option<SpanContext> {
    let o = obs?;
    if key_spans[idx].is_none() {
        key_spans[idx] =
            Some(o.tracer().begin_span("chaos.key", None, &[("key", &keys[idx].pipeline)]));
        key_open[idx] = true;
    }
    key_spans[idx]
}

/// Closes key `idx`'s root span (once) with a terminal outcome.
fn close_key(
    obs: Option<&Obs>,
    key_spans: &[Option<SpanContext>],
    key_open: &mut [bool],
    idx: usize,
    outcome: &str,
) {
    if let (Some(o), Some(ctx)) = (obs, key_spans[idx]) {
        if key_open[idx] {
            key_open[idx] = false;
            o.tracer().end_span(ctx, &[("outcome", outcome)]);
        }
    }
}

/// Deterministic score for key `idx` — the "pipeline evaluation" stand-in.
fn score_for(idx: usize) -> f64 {
    0.1 * (idx as f64 + 1.0)
}

/// Runs one seeded chaos scenario to completion (or the round cap).
///
/// The repository is `n_shards` independent DARR lanes, and every key
/// routes to the lane [`coda_store::shard_of`] picks from its stable
/// `dataset|pipeline` routing key — the same hash the serving tier and the
/// data tier use. Lane clocks advance in lockstep (rounds and retry
/// backoffs tick all of them), so per-key protocol behavior — claims, lease
/// expiry, takeovers, journal replay — is invariant in the shard count, and
/// a 1-shard run is the historical single-DARR driver exactly.
///
/// With `obs`, every work item gets a `chaos.key` root span, each claim →
/// work → complete cycle a `chaos.attempt` child, and protocol events
/// (claims, takeovers, journal writes, replays, crash losses) attach to
/// those spans. The driver enters the carried [`SpanContext`] around each
/// DARR call, so the DARR's own `darr.claim`/`darr.complete`/`darr.merge`
/// spans link in under it and the whole run yields one coherent trace
/// forest. If the observer's clock is a manual clock it is kept in
/// lockstep with the driver's logical time, so two same-seed runs emit
/// byte-identical trace logs.
pub fn run_chaos_coop(
    cfg: &ChaosCoopConfig,
    n_shards: usize,
    obs: Option<&Obs>,
) -> ChaosCoopReport {
    assert!(cfg.n_clients >= 1 && cfg.n_keys >= 1, "need clients and work");
    assert!(n_shards >= 1, "need at least one DARR lane");
    let keys: Vec<ComputationKey> = (0..cfg.n_keys)
        .map(|i| ComputationKey::new("chaos-ds", 1, &format!("p{i}") as &str, "kfold(3)", "rmse"))
        .collect();
    // each key's owning lane, by the tier-wide stable routing hash
    let lane_of: Vec<usize> = keys
        .iter()
        .map(|k| shard_of(&format!("{}|{}", k.dataset_id, k.pipeline), n_shards))
        .collect();

    let mut plan = FaultPlan::new(cfg.seed).with_drop_probability(cfg.drop_probability);
    let client_names: Vec<String> = (0..cfg.n_clients).map(|c| format!("client-{c}")).collect();
    if let Some((from, to)) = cfg.darr_partition {
        for name in &client_names {
            plan = plan.with_link_flap(name, "darr", from, to);
        }
    }
    if let Some((idx, down, up)) = cfg.crash {
        plan = plan.with_crash(&client_names[idx % cfg.n_clients], down, up);
    }
    let mut injector = FaultInjector::new(plan);
    let policy =
        RetryPolicy::exponential(5.0, 2.0, 40.0, 4).with_jitter(0.1, cfg.seed.wrapping_add(1));

    let lanes: Vec<Darr> = (0..n_shards).map(|_| Darr::new()).collect();
    if let Some(o) = obs {
        for lane in &lanes {
            lane.attach_obs(o.clone());
        }
        o.sync_manual_ms(0.0);
    }
    // a point event inside the key's trace: every protocol step carries the
    // span context of the key it belongs to (or of the attempt cycle)
    let trace = |ctx: Option<SpanContext>, name: &str, client: &str, key: &str| {
        if let (Some(o), Some(c)) = (obs, ctx) {
            let _in_key = o.tracer().enter(Some(c));
            o.tracer().event(name, &[("client", client), ("key", key)]);
        }
    };
    // the carried context as the current span around one DARR call; with
    // `None` no span is current, so the call traces nothing
    let enter = |ctx: Option<SpanContext>| obs.map(|o| o.tracer().enter(ctx));
    let mut key_spans: Vec<Option<SpanContext>> = vec![None; cfg.n_keys];
    let mut key_open: Vec<bool> = vec![false; cfg.n_keys];
    let mut clients: Vec<ClientState> = (0..cfg.n_clients)
        .map(|c| {
            // rotated start offsets spread clients over the work list
            let offset = c * cfg.n_keys / cfg.n_clients;
            let pending = (0..cfg.n_keys).map(|i| (i + offset) % cfg.n_keys).collect();
            ClientState {
                name: client_names[c].clone(),
                pending,
                working: None,
                journal: Vec::new(),
                was_down: false,
            }
        })
        .collect();

    let mut report = ChaosCoopReport { n_keys: cfg.n_keys, ..ChaosCoopReport::default() };
    // keys that ever answered HeldBy: a later successful claim on one of
    // these (with no stored result) is a takeover of an expired lease
    let mut held_seen: BTreeSet<usize> = BTreeSet::new();
    // keys whose claim holder crashed mid-computation: the dangling claim
    // expires and the next successful claim is a takeover
    let mut orphaned: BTreeSet<usize> = BTreeSet::new();
    let mut now_ms = 0.0f64;

    for round in 0..cfg.max_rounds {
        report.rounds = round + 1;
        for client in &mut clients {
            if !injector.node_up(&client.name) {
                if !client.was_down {
                    report.crashes_seen += 1;
                }
                // crashed: in-flight work is lost; its claim dangles
                if let Some((idx, _, attempt)) = client.working.take() {
                    report.lost_to_crash += 1;
                    orphaned.insert(idx);
                    let ctx = attempt
                        .or_else(|| key_root(obs, &mut key_spans, &mut key_open, &keys, idx));
                    trace(ctx, "chaos.crash_loss", &client.name, &keys[idx].pipeline);
                    if let (Some(o), Some(a)) = (obs, attempt) {
                        o.tracer().end_span(a, &[("outcome", "crashed")]);
                    }
                }
                client.was_down = true;
                continue;
            }
            if client.was_down {
                report.restarts_seen += 1;
            }
            client.was_down = false;

            // finish in-flight work first
            if let Some((idx, remaining, attempt)) = client.working {
                if remaining > 1 {
                    client.working = Some((idx, remaining - 1, attempt));
                    continue;
                }
                client.working = None;
                let (ok, stats) =
                    reach(&mut injector, &client.name, &policy, &mut now_ms, &lanes, obs);
                report.retry.merge(&stats);
                if ok {
                    {
                        let _attempt = enter(attempt);
                        let lane = &lanes[lane_of[idx]];
                        lane.complete(&keys[idx], &client.name, score_for(idx), vec![], "chaos");
                    }
                    report.computed += 1;
                    trace(attempt, "chaos.complete", &client.name, &keys[idx].pipeline);
                    if let (Some(o), Some(a)) = (obs, attempt) {
                        o.tracer().end_span(a, &[("outcome", "completed")]);
                    }
                    close_key(obs, &key_spans, &mut key_open, idx, "computed");
                } else {
                    // completion lost: journal the finished result instead
                    client.journal.push(AnalyticsRecord {
                        key: keys[idx].clone(),
                        score: score_for(idx),
                        fold_scores: vec![],
                        explanation: "chaos (journaled)".to_string(),
                        producer: client.name.clone(),
                        stored_at: lanes[lane_of[idx]].now(),
                    });
                    report.journaled += 1;
                    trace(attempt, "chaos.journal", &client.name, &keys[idx].pipeline);
                    if let (Some(o), Some(a)) = (obs, attempt) {
                        o.tracer().end_span(a, &[("outcome", "journaled")]);
                    }
                }
                continue;
            }

            // replay any journal as soon as the DARR answers again
            if !client.journal.is_empty() {
                let (ok, stats) =
                    reach(&mut injector, &client.name, &policy, &mut now_ms, &lanes, obs);
                report.retry.merge(&stats);
                if ok {
                    for record in client.journal.drain(..) {
                        let idx = keys
                            .iter()
                            .position(|k| *k == record.key)
                            // lint:allow(panic_safety) journal entries are only created from work-list keys earlier in this function
                            .expect("journaled keys come from the work list");
                        let ctx = key_root(obs, &mut key_spans, &mut key_open, &keys, idx);
                        if lanes[lane_of[idx]].lookup(&record.key).is_some() {
                            report.duplicates += 1; // someone else got there
                            trace(ctx, "chaos.duplicate", &client.name, &record.key.pipeline);
                        } else {
                            trace(ctx, "chaos.replay", &client.name, &record.key.pipeline);
                            {
                                let _key = enter(ctx);
                                lanes[lane_of[idx]].merge_record(record);
                            }
                            report.replayed += 1;
                            close_key(obs, &key_spans, &mut key_open, idx, "replayed");
                        }
                    }
                }
                continue;
            }

            // pick up the next work item
            let Some(idx) = client.pending.pop_front() else {
                continue; // this client is done
            };
            let root = key_root(obs, &mut key_spans, &mut key_open, &keys, idx);
            let (ok, stats) = reach(&mut injector, &client.name, &policy, &mut now_ms, &lanes, obs);
            report.retry.merge(&stats);
            if !ok {
                // DARR unreachable: degrade gracefully — compute locally
                // now, journal for replay after the heal
                client.journal.push(AnalyticsRecord {
                    key: keys[idx].clone(),
                    score: score_for(idx),
                    fold_scores: vec![],
                    explanation: "chaos (offline)".to_string(),
                    producer: client.name.clone(),
                    stored_at: lanes[lane_of[idx]].now(),
                });
                report.journaled += 1;
                trace(root, "chaos.journal", &client.name, &keys[idx].pipeline);
                continue;
            }
            let outcome = {
                let _key = enter(root);
                lanes[lane_of[idx]].try_claim(&keys[idx], &client.name, cfg.claim_duration)
            };
            match outcome {
                ClaimOutcome::AlreadyComputed(_) => {
                    report.reused += 1;
                    trace(root, "chaos.reuse", &client.name, &keys[idx].pipeline);
                }
                ClaimOutcome::Claimed => {
                    let attempt = obs.zip(root).map(|(o, r)| {
                        o.tracer().begin_span(
                            "chaos.attempt",
                            Some(r),
                            &[("client", &client.name), ("key", &keys[idx].pipeline)],
                        )
                    });
                    if orphaned.remove(&idx) || held_seen.contains(&idx) {
                        report.takeovers += 1;
                        trace(attempt, "chaos.takeover", &client.name, &keys[idx].pipeline);
                    }
                    client.working = Some((idx, WORK_STEPS, attempt));
                    trace(attempt, "chaos.claim", &client.name, &keys[idx].pipeline);
                }
                ClaimOutcome::HeldBy(_) => {
                    held_seen.insert(idx);
                    client.pending.push_back(idx); // revisit with backoff
                    trace(root, "chaos.held", &client.name, &keys[idx].pipeline);
                }
            }
        }

        now_ms += STEP_MS;
        injector.advance_to(now_ms);
        for lane in &lanes {
            lane.advance_clock(STEP_MS as u64);
        }
        if let Some(o) = obs {
            o.sync_manual_ms(now_ms);
        }

        let all_idle = clients
            .iter()
            .all(|cl| cl.pending.is_empty() && cl.working.is_none() && cl.journal.is_empty());
        if all_idle && lanes.iter().map(Darr::len).sum::<usize>() >= cfg.n_keys {
            break;
        }
    }

    // end sweep: any key root still open never reached a stored result
    for idx in 0..cfg.n_keys {
        close_key(obs, &key_spans, &mut key_open, idx, "unresolved");
    }
    report.completed = lanes.iter().map(Darr::len).sum::<usize>();
    report.faults = injector.stats();
    if let Some(o) = obs {
        o.publish(&report);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_free_run_completes_without_retries() {
        let cfg = ChaosCoopConfig {
            drop_probability: 0.0,
            darr_partition: None,
            crash: None,
            ..ChaosCoopConfig::default()
        };
        let report = run_chaos_coop(&cfg, 1, None);
        assert_eq!(report.completed, cfg.n_keys);
        assert_eq!(report.journaled, 0);
        assert_eq!(report.duplicates, 0);
        assert_eq!(report.retry.retries, 0);
        assert_eq!(report.faults.dropped, 0);
        // cooperation still partitions the work across the three clients
        assert_eq!(report.computed, cfg.n_keys);
    }

    #[test]
    fn chaotic_run_completes_all_work() {
        let report = run_chaos_coop(&ChaosCoopConfig::default(), 1, None);
        assert_eq!(report.completed, report.n_keys, "no result may be lost");
        assert!(report.rounds < ChaosCoopConfig::default().max_rounds, "run must converge");
        // every computation is accounted: online completions plus replayed
        // journal entries cover the key space; duplicates are all visible
        assert_eq!(
            report.computed + report.replayed + report.duplicates,
            report.n_keys + report.duplicates,
        );
        assert!(report.faults.dropped > 0, "drops must actually occur");
        assert!(report.retry.retries > 0, "retries must actually occur");
        assert!(report.journaled > 0, "the partition must force offline compute");
        assert_eq!(report.journaled, report.replayed + report.duplicates);
        // injected-vs-observed crash accounting: every scheduled crash and
        // restart edge the injector counted was lived through by a client
        assert_eq!(report.crashes_seen, report.faults.crashes);
        assert_eq!(report.restarts_seen, report.faults.restarts);
        assert_eq!(report.crashes_seen, 1, "the default config crashes one client");
        assert_eq!(report.restarts_seen, 1);
    }

    #[test]
    fn same_seed_replays_identically() {
        let cfg = ChaosCoopConfig::default();
        let a = run_chaos_coop(&cfg, 1, None);
        let b = run_chaos_coop(&cfg, 1, None);
        assert_eq!(a, b, "identical seeds must produce identical counters");
    }

    #[test]
    fn different_seeds_diverge() {
        let a = run_chaos_coop(&ChaosCoopConfig::default(), 1, None);
        let b =
            run_chaos_coop(&ChaosCoopConfig { seed: 99, ..ChaosCoopConfig::default() }, 1, None);
        // both complete, but the fault sequences differ
        assert_eq!(a.completed, a.n_keys);
        assert_eq!(b.completed, b.n_keys);
        assert_ne!(a.faults, b.faults);
    }

    #[test]
    fn sharded_lanes_reproduce_the_unsharded_run() {
        // lane clocks tick in lockstep and claim/lease state is per key, so
        // the whole report — retries, takeovers, journal traffic — must be
        // invariant in the lane count
        let cfg = ChaosCoopConfig::default();
        let unsharded = run_chaos_coop(&cfg, 1, None);
        for n_shards in [1usize, 2, 4] {
            let sharded = run_chaos_coop(&cfg, n_shards, None);
            assert_eq!(sharded, unsharded, "{n_shards} lanes must be invisible");
        }
    }

    #[test]
    fn crash_forces_takeover() {
        // aggressive: long crash window, no other noise, so the crashed
        // client's claim must be taken over via lease expiry
        let cfg = ChaosCoopConfig {
            drop_probability: 0.0,
            darr_partition: None,
            crash: Some((0, 30.0, 2000.0)),
            claim_duration: 100,
            ..ChaosCoopConfig::default()
        };
        let report = run_chaos_coop(&cfg, 1, None);
        assert_eq!(report.completed, cfg.n_keys);
        assert!(report.lost_to_crash >= 1, "the crash must interrupt work");
        assert!(report.takeovers >= 1, "expired claims must be taken over");
    }
}
