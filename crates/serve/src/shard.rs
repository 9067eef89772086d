//! One shard's single-writer state: a [`DurableStore`] (WAL + snapshot
//! durability), a [`Darr`] partition, and the per-object
//! [`ChangeMonitor`]s that decide when analytics must recompute. A
//! [`ShardCore`] sits behind its shard's combiner lock in the tier; `apply`
//! is plain synchronous code with no locks of its own, because that lock
//! already serializes every request to this shard.
//!
//! The canonical-export machinery at the bottom is what the
//! shard-equivalence harness runs on: each shard dumps a sectioned raw
//! export, and [`merge_canonical_exports`] folds any number of them into
//! one canonical form in which shard count, request interleaving and
//! store naming are invisible — N-shard state and the unsharded baseline
//! must render byte-identically.

use std::collections::BTreeMap;

use coda_darr::Darr;
use coda_obs::Obs;
use coda_store::{ChangeMonitor, DurableStore, RecomputeTrigger};

use crate::request::{ServeRequest, ServeResponse};

/// When an object's recompute trigger fires. `Copy`, unlike
/// [`RecomputeTrigger`], so a tier config can stamp one monitor per object
/// per shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TriggerPolicy {
    /// No trigger monitoring.
    Off,
    /// Fire every `n` updates to an object.
    Count(u64),
    /// Fire once `n` bytes of updates accumulate on an object.
    Bytes(u64),
}

impl TriggerPolicy {
    fn monitor(&self) -> Option<ChangeMonitor> {
        match self {
            TriggerPolicy::Off => None,
            TriggerPolicy::Count(n) => Some(ChangeMonitor::new(RecomputeTrigger::UpdateCount(*n))),
            TriggerPolicy::Bytes(n) => Some(ChangeMonitor::new(RecomputeTrigger::UpdateBytes(*n))),
        }
    }
}

/// The state one shard's combiner lock guards.
#[derive(Debug)]
pub struct ShardCore {
    name: String,
    store: DurableStore,
    darr: Darr,
    policy: TriggerPolicy,
    /// object id → (its monitor, updates ever recorded). Tier-level
    /// derived state: it deliberately lives *outside* the durable store,
    /// so a store crash/replay leaves trigger accounting intact.
    monitors: BTreeMap<String, (ChangeMonitor, u64)>,
}

impl ShardCore {
    /// A fresh shard named `name` (by convention `shard-{i}`).
    pub fn new(
        name: &str,
        history_depth: usize,
        snapshot_every: usize,
        policy: TriggerPolicy,
    ) -> Self {
        ShardCore {
            name: name.to_string(),
            store: DurableStore::new(name.to_string(), history_depth, snapshot_every),
            darr: Darr::new(),
            policy,
            monitors: BTreeMap::new(),
        }
    }

    /// Attaches observability to the store and DARR partition.
    pub fn attach_obs(&mut self, obs: Obs) {
        self.store.attach_obs(obs.clone());
        self.darr.attach_obs(obs);
    }

    /// The shard's node name (what a [`coda_chaos::CrashPlan`] targets).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The store's WAL operation count — the crash-point counter.
    pub fn ops(&self) -> u64 {
        self.store.ops()
    }

    /// Total trigger firings across this shard's objects.
    pub fn trigger_firings(&self) -> u64 {
        self.monitors.values().map(|(m, _)| m.recomputations).sum()
    }

    /// Applies one request synchronously. Single-writer: the caller holds
    /// the shard's combiner lock, so it is the only mutator.
    pub fn apply(&mut self, req: ServeRequest) -> ServeResponse {
        match req {
            ServeRequest::Put { id, data } => {
                let bytes = data.len() as u64;
                let (version, pushes) = self.store.put(&id, data);
                let trigger_fired = match self.policy.monitor() {
                    None => false,
                    Some(fresh) => {
                        let (monitor, updates) =
                            self.monitors.entry(id).or_insert_with(|| (fresh, 0));
                        *updates += 1;
                        monitor.record_update(bytes, 0.0)
                    }
                };
                ServeResponse::Put { version, pushes: pushes.len(), trigger_fired }
            }
            ServeRequest::Pull { id, client_version } => {
                let Ok(reply) = self.store.fetch(&id, client_version);
                ServeResponse::Pull(reply)
            }
            ServeRequest::Subscribe { client, id, mode, duration } => {
                self.store.subscribe(&client, &id, mode, duration);
                ServeResponse::Lease(true)
            }
            ServeRequest::Cancel { client, id } => {
                ServeResponse::Lease(self.store.cancel(&client, &id))
            }
            ServeRequest::Claim { key, client, duration } => {
                ServeResponse::Claim(self.darr.try_claim(&key, &client, duration))
            }
            ServeRequest::Complete { key, client, score, fold_scores, explanation } => {
                ServeResponse::Complete(self.darr.complete(
                    &key,
                    &client,
                    score,
                    fold_scores,
                    &explanation,
                ))
            }
            ServeRequest::Lookup { key } => ServeResponse::Lookup(self.darr.lookup(&key)),
        }
    }

    /// Advances the shard's logical clocks (store leases + DARR claims).
    /// Control-plane: the tier broadcasts this to every shard so all
    /// clocks stay equal.
    pub fn advance_clock(&mut self, ticks: u64) {
        self.store.advance_clock(ticks);
        self.darr.advance_clock(ticks);
    }

    /// Crash-stop + recovery in place: export the pre-crash state, drop
    /// the in-memory store keeping only the durable image, replay the WAL,
    /// and report `(records_replayed, byte_identical)`. The DARR partition
    /// and trigger monitors are tier-level state and ride through — this
    /// models the shard's *store node* halting, exactly like the PR-6
    /// recovery driver's kill-restart, inlined so the other shards keep
    /// serving meanwhile.
    pub fn crash_recover(&mut self, obs: Option<&Obs>) -> (usize, bool) {
        let expected = self.store.export_state();
        let store = std::mem::replace(&mut self.store, DurableStore::new("swapped-out", 1, 0));
        let image = store.crash();
        let (recovered, replayed) = DurableStore::recover(image, obs);
        let byte_identical = recovered.export_state() == expected;
        self.store = recovered;
        (replayed, byte_identical)
    }

    /// Sectioned raw export of everything this shard owns — input to
    /// [`merge_canonical_exports`].
    pub fn export_raw(&self) -> String {
        export_parts(&self.store, &self.darr, &self.monitors)
    }
}

/// Renders the sectioned raw export for any (store, DARR, monitors)
/// triple — [`ShardCore::export_raw`] uses it, and equivalence tests call
/// it directly on a hand-driven unsharded `DurableStore`/`Darr` baseline.
pub fn export_parts(
    store: &DurableStore,
    darr: &Darr,
    monitors: &BTreeMap<String, (ChangeMonitor, u64)>,
) -> String {
    let mut out = store.export_state();
    if !out.ends_with('\n') {
        out.push('\n');
    }
    out.push_str("#darr\n");
    let records = darr.export_records();
    if !records.is_empty() {
        out.push_str(&records);
        out.push('\n');
    }
    out.push_str("#triggers\n");
    for (id, (monitor, updates)) in monitors {
        out.push_str(&format!(
            "trigger object={id} updates={updates} firings={}\n",
            monitor.recomputations
        ));
    }
    out
}

/// Folds any number of sectioned raw exports into one canonical form in
/// which sharding is invisible:
///
/// - the per-store `store name=…` header collapses to `state depth=… clock=…`
///   (clocks are broadcast, so they must agree; disagreement renders as
///   `clock=mixed(…)` and fails any byte comparison — by design);
/// - object blocks (with their history/delta sublines) sort by object id —
///   each store's `BTreeMap` already yields sorted blocks, so merging
///   shards' blocks re-sorts the same ordering the baseline has natively;
/// - lease, DARR-record and trigger lines sort lexicographically, erasing
///   insertion-order differences between one queue and many.
pub fn merge_canonical_exports(raws: &[String]) -> String {
    let mut depth = String::new();
    let mut clocks: Vec<String> = Vec::new();
    let mut blocks: Vec<(String, String)> = Vec::new(); // (object id, block text)
    let mut leases: Vec<String> = Vec::new();
    let mut records: Vec<String> = Vec::new();
    let mut triggers: Vec<String> = Vec::new();

    for raw in raws {
        let mut section = 0; // 0 = store, 1 = darr, 2 = triggers
        for line in raw.lines() {
            match line {
                "#darr" => {
                    section = 1;
                    continue;
                }
                "#triggers" => {
                    section = 2;
                    continue;
                }
                _ => {}
            }
            match section {
                0 => {
                    if let Some(rest) = line.strip_prefix("store name=") {
                        for field in rest.split_whitespace() {
                            if let Some(d) = field.strip_prefix("depth=") {
                                depth = d.to_string();
                            } else if let Some(c) = field.strip_prefix("clock=") {
                                clocks.push(c.to_string());
                            }
                        }
                    } else if let Some(rest) = line.strip_prefix("object ") {
                        let id = rest.split_whitespace().next().unwrap_or("").to_string();
                        blocks.push((id, format!("{line}\n")));
                    } else if line.starts_with("  ") {
                        if let Some((_, block)) = blocks.last_mut() {
                            block.push_str(line);
                            block.push('\n');
                        }
                    } else if line.starts_with("lease ") {
                        leases.push(line.to_string());
                    }
                }
                1 => records.push(line.to_string()),
                _ => triggers.push(line.to_string()),
            }
        }
    }

    clocks.sort();
    clocks.dedup();
    let clock = match clocks.as_slice() {
        [one] => one.clone(),
        many => format!("mixed({})", many.join(",")),
    };
    blocks.sort_by(|a, b| a.0.cmp(&b.0));
    leases.sort();
    records.sort();
    triggers.sort();

    let mut out = format!("state depth={depth} clock={clock}\n");
    for (_, block) in &blocks {
        out.push_str(block);
    }
    for line in &leases {
        out.push_str(line);
        out.push('\n');
    }
    out.push_str("#darr\n");
    for line in &records {
        out.push_str(line);
        out.push('\n');
    }
    out.push_str("#triggers\n");
    for line in &triggers {
        out.push_str(line);
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use coda_darr::{ClaimOutcome, ComputationKey};

    fn put(id: &str, n: usize, fill: u8) -> ServeRequest {
        ServeRequest::Put { id: id.to_string(), data: Bytes::from(vec![fill; n]) }
    }

    #[test]
    fn apply_covers_the_whole_request_surface() {
        let mut core = ShardCore::new("shard-0", 4, 0, TriggerPolicy::Count(2));
        let ServeResponse::Put { version, trigger_fired, .. } = core.apply(put("o1", 64, 1)) else {
            panic!("put answers Put")
        };
        assert_eq!(version, 1);
        assert!(!trigger_fired);
        let ServeResponse::Put { version, trigger_fired, .. } = core.apply(put("o1", 64, 2)) else {
            panic!("put answers Put")
        };
        assert_eq!(version, 2);
        assert!(trigger_fired, "count-2 trigger fires on the second put");
        assert_eq!(core.trigger_firings(), 1);

        let ServeResponse::Pull(Some(reply)) =
            core.apply(ServeRequest::Pull { id: "o1".into(), client_version: None })
        else {
            panic!("pull answers")
        };
        assert_eq!(reply.version(), 2);

        let key = ComputationKey::new("ds", 1, "p0", "kfold(3)", "rmse");
        let ServeResponse::Claim(ClaimOutcome::Claimed) =
            core.apply(ServeRequest::Claim { key: key.clone(), client: "c".into(), duration: 10 })
        else {
            panic!("first claim wins")
        };
        core.apply(ServeRequest::Complete {
            key: key.clone(),
            client: "c".into(),
            score: 0.5,
            fold_scores: vec![],
            explanation: "t".into(),
        });
        let ServeResponse::Lookup(Some(rec)) = core.apply(ServeRequest::Lookup { key }) else {
            panic!("completed result is stored")
        };
        assert_eq!(rec.score, 0.5);
        assert_eq!(core.ops(), 2, "two WAL-logged puts");
    }

    #[test]
    fn crash_recover_replays_byte_identically_and_keeps_triggers() {
        let mut core = ShardCore::new("shard-0", 4, 3, TriggerPolicy::Count(2));
        for i in 0..7 {
            core.apply(put(&format!("o{}", i % 2), 128, i as u8));
        }
        let firings = core.trigger_firings();
        assert!(firings > 0);
        let before = core.export_raw();
        let (replayed, byte_identical) = core.crash_recover(None);
        assert!(byte_identical, "WAL replay must reproduce the pre-crash store");
        assert!(replayed > 0 || core.ops() > 0);
        assert_eq!(core.export_raw(), before, "the whole shard state survives");
        assert_eq!(core.trigger_firings(), firings);
    }

    #[test]
    fn merged_export_is_invisible_to_sharding() {
        // the same ops applied to 1 core vs spread over 2 cores by routing
        let reqs: Vec<ServeRequest> =
            (0..10).map(|i| put(&format!("obj-{i}"), 64, i as u8)).collect();
        let mut single = ShardCore::new("shard-0", 4, 0, TriggerPolicy::Count(3));
        for r in &reqs {
            single.apply(r.clone());
        }
        let router = crate::ShardRouter::new(2);
        let mut pair = [
            ShardCore::new("shard-0", 4, 0, TriggerPolicy::Count(3)),
            ShardCore::new("shard-1", 4, 0, TriggerPolicy::Count(3)),
        ];
        for r in &reqs {
            pair[router.route(r)].apply(r.clone());
        }
        let merged_one = merge_canonical_exports(&[single.export_raw()]);
        let merged_two = merge_canonical_exports(&[pair[0].export_raw(), pair[1].export_raw()]);
        assert_eq!(merged_one, merged_two, "sharding must be invisible in canonical state");
    }

    #[test]
    fn mixed_clocks_refuse_to_canonicalize_silently() {
        let mut a = ShardCore::new("shard-0", 4, 0, TriggerPolicy::Off);
        let mut b = ShardCore::new("shard-1", 4, 0, TriggerPolicy::Off);
        a.advance_clock(5);
        b.advance_clock(7);
        let merged = merge_canonical_exports(&[a.export_raw(), b.export_raw()]);
        assert!(merged.contains("clock=mixed("), "clock skew must be visible: {merged}");
    }
}
