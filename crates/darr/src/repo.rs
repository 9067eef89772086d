//! The repository proper: thread-safe result storage, lookups, claims and
//! staleness handling.

use parking_lot::RwLock;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use coda_obs::{Counter, Obs, SpanGuard};

use crate::record::{AnalyticsRecord, ComputationKey};

/// Result of attempting to claim a computation.
#[derive(Debug, Clone, PartialEq)]
pub enum ClaimOutcome {
    /// The caller holds the claim and should compute.
    Claimed,
    /// Another client holds an unexpired claim.
    HeldBy(String),
    /// The result already exists; reuse it.
    AlreadyComputed(AnalyticsRecord),
}

impl ClaimOutcome {
    /// True when the caller acquired the claim.
    pub fn is_claimed(&self) -> bool {
        matches!(self, ClaimOutcome::Claimed)
    }
}

#[derive(Debug, Clone)]
struct Claim {
    owner: String,
    expires_at: u64,
}

#[derive(Default)]
struct Inner {
    records: BTreeMap<ComputationKey, AnalyticsRecord>,
    claims: BTreeMap<ComputationKey, Claim>,
    /// Latest known version per dataset id (for staleness checks).
    dataset_versions: BTreeMap<String, u64>,
}

/// The attached [`Obs`] and its `coda_darr_*` counter handles, resolved
/// once at attach, so each count is one atomic add.
struct DarrMetrics {
    obs: Obs,
    lookup_hits: Arc<Counter>,
    lookup_misses: Arc<Counter>,
    claims_granted: Arc<Counter>,
    claims_refused: Arc<Counter>,
    claims_reaped: Arc<Counter>,
    records_stored: Arc<Counter>,
}

impl DarrMetrics {
    fn new(obs: Obs) -> Self {
        let r = obs.registry();
        DarrMetrics {
            lookup_hits: r.counter("coda_darr_lookup_hits"),
            lookup_misses: r.counter("coda_darr_lookup_misses"),
            claims_granted: r.counter("coda_darr_claims_granted"),
            claims_refused: r.counter("coda_darr_claims_refused"),
            claims_reaped: r.counter("coda_darr_claims_reaped_total"),
            records_stored: r.counter("coda_darr_records_stored"),
            obs,
        }
    }
}

/// The shared Data Analytics Results Repository. Cheap to share across
/// threads (`&Darr` is all a client needs).
#[derive(Default)]
pub struct Darr {
    inner: RwLock<Inner>,
    clock: AtomicU64,
    /// Read without the lock: an operation learns that no span is current
    /// without cloning the handle.
    metrics: OnceLock<DarrMetrics>,
}

impl std::fmt::Debug for Darr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.read();
        write!(
            f,
            "Darr[{} records, {} claims, clock {}]",
            inner.records.len(),
            inner.claims.len(),
            self.clock.load(Ordering::Relaxed)
        )
    }
}

impl Darr {
    /// Creates an empty repository.
    pub fn new() -> Self {
        Self::default()
    }

    /// Attaches an observability handle: lookups, claims and stores count
    /// live into its registry under `coda_darr_*` names, and claims,
    /// completions and merges made while a span is current on the calling
    /// thread trace as its children. The first handle attached stays.
    pub fn attach_obs(&self, obs: Obs) {
        self.metrics.get_or_init(|| DarrMetrics::new(obs));
    }

    /// A `name` span under this thread's current span, or `None`, opening
    /// nothing, when no [`Obs`] is attached or no span is current.
    fn span(&self, name: &str, fields: &[(&str, &str)]) -> Option<SpanGuard<'_>> {
        let tracer = self.metrics.get()?.obs.tracer();
        Some(tracer.span_child(tracer.current_context()?, name, fields))
    }

    /// Current logical time.
    pub fn now(&self) -> u64 {
        self.clock.load(Ordering::Relaxed)
    }

    /// Advances the logical clock (expired claims become reclaimable).
    pub fn advance_clock(&self, ticks: u64) {
        self.clock.fetch_add(ticks, Ordering::Relaxed);
    }

    /// Registers the latest version of a dataset; results and claims for
    /// older versions become stale (lookups ignore them).
    pub fn register_dataset_version(&self, dataset_id: &str, version: u64) {
        let mut inner = self.inner.write();
        let slot = inner.dataset_versions.entry(dataset_id.to_string()).or_insert(0);
        if version > *slot {
            *slot = version;
        }
    }

    /// Latest registered version of a dataset.
    pub fn dataset_version(&self, dataset_id: &str) -> Option<u64> {
        self.inner.read().dataset_versions.get(dataset_id).copied()
    }

    fn is_stale(inner: &Inner, key: &ComputationKey) -> bool {
        inner
            .dataset_versions
            .get(&key.dataset_id)
            .map(|&latest| key.dataset_version < latest)
            .unwrap_or(false)
    }

    /// Looks up a stored result. Stale results (older dataset versions) are
    /// treated as misses.
    pub fn lookup(&self, key: &ComputationKey) -> Option<AnalyticsRecord> {
        let found = {
            let inner = self.inner.read();
            if Self::is_stale(&inner, key) {
                None
            } else {
                inner.records.get(key).cloned()
            }
        };
        if let Some(m) = self.metrics.get() {
            match found {
                Some(_) => m.lookup_hits.inc(),
                None => m.lookup_misses.inc(),
            }
        }
        found
    }

    /// Everything computed so far for a dataset at its current version —
    /// the paper's "users can determine from the DARR which calculations
    /// have been run for a certain data set".
    pub fn computed_for(&self, dataset_id: &str) -> Vec<AnalyticsRecord> {
        let inner = self.inner.read();
        inner
            .records
            .iter()
            .filter(|(k, _)| k.dataset_id == dataset_id && !Self::is_stale(&inner, k))
            .map(|(_, r)| r.clone())
            .collect()
    }

    /// The best stored result for a dataset under `metric`, using
    /// `higher_is_better` to rank.
    pub fn best_for(
        &self,
        dataset_id: &str,
        metric: &str,
        higher_is_better: bool,
    ) -> Option<AnalyticsRecord> {
        self.computed_for(dataset_id).into_iter().filter(|r| r.key.metric == metric).reduce(
            |a, b| {
                let better = if higher_is_better { b.score > a.score } else { b.score < a.score };
                if better {
                    b
                } else {
                    a
                }
            },
        )
    }

    /// Attempts to claim `key` for `client` for `duration` logical ticks.
    /// While a span is current on this thread (and an [`Obs`] is attached)
    /// the claim runs in a `darr.claim` child span with the outcome
    /// recorded as a point event — so a coordinator's trace shows exactly
    /// where contention and reuse happened.
    pub fn try_claim(&self, key: &ComputationKey, client: &str, duration: u64) -> ClaimOutcome {
        let span = self.span("darr.claim", &[("client", client), ("key", &key.pipeline)]);
        let outcome = self.claim(key, client, duration);
        if let (Some(s), Some(m)) = (&span, self.metrics.get()) {
            let label = match &outcome {
                ClaimOutcome::Claimed => "claimed",
                ClaimOutcome::HeldBy(_) => "held",
                ClaimOutcome::AlreadyComputed(_) => "reused",
            };
            m.obs.event_in(s.context(), "darr.claim_outcome", &[("outcome", label)]);
        }
        outcome
    }

    fn claim(&self, key: &ComputationKey, client: &str, duration: u64) -> ClaimOutcome {
        let now = self.now();
        let metrics = self.metrics.get();
        let mut inner = self.inner.write();
        if !Self::is_stale(&inner, key) {
            if let Some(r) = inner.records.get(key).cloned() {
                if let Some(m) = metrics {
                    m.lookup_hits.inc();
                }
                return ClaimOutcome::AlreadyComputed(r);
            }
        }
        let holder = inner
            .claims
            .get(key)
            .filter(|c| c.expires_at > now && c.owner != client)
            .map(|c| c.owner.clone());
        match holder {
            Some(owner) => {
                if let Some(m) = metrics {
                    m.claims_refused.inc();
                }
                ClaimOutcome::HeldBy(owner)
            }
            None => {
                inner.claims.insert(
                    key.clone(),
                    Claim { owner: client.to_string(), expires_at: now + duration },
                );
                if let Some(m) = metrics {
                    m.claims_granted.inc();
                }
                ClaimOutcome::Claimed
            }
        }
    }

    /// Releases a claim without storing a result (e.g. the client failed).
    /// Returns true if the caller held it.
    pub fn release_claim(&self, key: &ComputationKey, client: &str) -> bool {
        let mut inner = self.inner.write();
        if inner.claims.get(key).map(|c| c.owner == client).unwrap_or(false) {
            inner.claims.remove(key);
            true
        } else {
            false
        }
    }

    /// Reaps every claim held by a crashed `owner`, making its in-flight
    /// computations re-claimable by the surviving clients.
    ///
    /// The failure detector declared `owner` dead at logical time
    /// `dead_since`; reaping waits out a `grace` period beyond that
    /// instant so a wrongly-suspected (merely slow) owner that comes back
    /// keeps its claims. Until `now >= dead_since + grace` this is a
    /// no-op. Expired claims need no reaping — [`Darr::try_claim`]
    /// already ignores them — so only *unexpired* claims count here.
    /// Returns the number of claims reaped.
    pub fn reap_claims(&self, owner: &str, dead_since: u64, grace: u64) -> usize {
        let now = self.now();
        if now < dead_since.saturating_add(grace) {
            return 0;
        }
        let mut inner = self.inner.write();
        let doomed: Vec<ComputationKey> = inner
            .claims
            .iter()
            .filter(|(_, c)| c.owner == owner && c.expires_at > now)
            .map(|(k, _)| k.clone())
            .collect();
        for k in &doomed {
            inner.claims.remove(k);
        }
        let n = doomed.len();
        if let Some(m) = self.metrics.get() {
            m.claims_reaped.add(n as u64);
        }
        n
    }

    /// Stores a completed result and releases the claim — in a
    /// `darr.complete` child span while a span is current on this thread.
    pub fn complete(
        &self,
        key: &ComputationKey,
        client: &str,
        score: f64,
        fold_scores: Vec<f64>,
        explanation: &str,
    ) -> AnalyticsRecord {
        let _span = self.span("darr.complete", &[("client", client), ("key", &key.pipeline)]);
        let record = AnalyticsRecord {
            key: key.clone(),
            score,
            fold_scores,
            explanation: explanation.to_string(),
            producer: client.to_string(),
            stored_at: self.now(),
        };
        let mut inner = self.inner.write();
        inner.claims.remove(key);
        inner.records.insert(key.clone(), record.clone());
        if let Some(m) = self.metrics.get() {
            m.records_stored.inc();
        }
        record
    }

    /// Merges one externally-produced record (e.g. replayed from a client's
    /// journal after a partition healed), keeping the *newer* `stored_at`
    /// on conflict — the same rule as [`Darr::import_records`]. Releases
    /// any claim on the key and returns true when the record was applied.
    /// While a span is current on this thread (and an [`Obs`] is attached)
    /// the merge runs in a `darr.merge` child span, its applied/ignored
    /// outcome recorded as an event.
    pub fn merge_record(&self, record: AnalyticsRecord) -> bool {
        let span = self
            .span("darr.merge", &[("producer", &record.producer), ("key", &record.key.pipeline)]);
        let applied = {
            let mut inner = self.inner.write();
            let keep_incoming = inner
                .records
                .get(&record.key)
                .map(|existing| record.stored_at > existing.stored_at)
                .unwrap_or(true);
            if keep_incoming {
                inner.claims.remove(&record.key);
                inner.records.insert(record.key.clone(), record);
                if let Some(m) = self.metrics.get() {
                    m.records_stored.inc();
                }
            }
            keep_incoming
        };
        if let (Some(s), Some(m)) = (&span, self.metrics.get()) {
            let label = if applied { "applied" } else { "ignored" };
            m.obs.event_in(s.context(), "darr.merge_outcome", &[("outcome", label)]);
        }
        applied
    }

    /// Serializes every stored record to JSON lines — the repository is a
    /// durable cloud artifact in the paper, so its contents must survive
    /// process restarts and travel between sites.
    pub fn export_records(&self) -> String {
        let inner = self.inner.read();
        inner.records.values().map(|r| r.to_json()).collect::<Vec<_>>().join("\n")
    }

    /// Imports records from [`Darr::export_records`] output, merging into
    /// the current repository (existing keys keep the *newer* `stored_at`).
    /// Returns the number of records applied.
    ///
    /// # Errors
    ///
    /// The underlying `serde_json` error on the first malformed line;
    /// earlier valid lines remain applied.
    pub fn import_records(&self, snapshot: &str) -> Result<usize, serde_json::Error> {
        let mut applied = 0usize;
        for line in snapshot.lines().filter(|l| !l.trim().is_empty()) {
            let record = AnalyticsRecord::from_json(line)?;
            let mut inner = self.inner.write();
            let keep_incoming = inner
                .records
                .get(&record.key)
                .map(|existing| record.stored_at > existing.stored_at)
                .unwrap_or(true);
            if keep_incoming {
                inner.records.insert(record.key.clone(), record);
                applied += 1;
            }
        }
        Ok(applied)
    }

    /// Number of stored records (including stale ones).
    pub fn len(&self) -> usize {
        self.inner.read().records.len()
    }

    /// True when no records are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(p: &str) -> ComputationKey {
        ComputationKey::new("ds", 1, p, "kfold(5)", "rmse")
    }

    #[test]
    fn store_lookup_roundtrip() {
        let obs = Obs::deterministic();
        let darr = Darr::new();
        darr.attach_obs(obs.clone());
        assert!(darr.lookup(&key("p1")).is_none());
        darr.complete(&key("p1"), "c1", 0.5, vec![0.4, 0.6], "why");
        let r = darr.lookup(&key("p1")).unwrap();
        assert_eq!(r.score, 0.5);
        assert_eq!(r.producer, "c1");
        assert_eq!(darr.len(), 1);
        assert!(!darr.is_empty());
        let snap = obs.registry().snapshot();
        assert_eq!(snap.counter("coda_darr_lookup_hits"), 1);
        assert_eq!(snap.counter("coda_darr_lookup_misses"), 1);
        assert_eq!(snap.counter("coda_darr_records_stored"), 1);
    }

    #[test]
    fn claims_are_exclusive_until_expiry() {
        let darr = Darr::new();
        assert!(darr.try_claim(&key("p"), "a", 50).is_claimed());
        match darr.try_claim(&key("p"), "b", 50) {
            ClaimOutcome::HeldBy(owner) => assert_eq!(owner, "a"),
            other => panic!("expected HeldBy, got {other:?}"),
        }
        // owner can re-claim (idempotent)
        assert!(darr.try_claim(&key("p"), "a", 50).is_claimed());
        // after expiry another client may take over
        darr.advance_clock(51);
        assert!(darr.try_claim(&key("p"), "b", 50).is_claimed());
    }

    #[test]
    fn claim_after_completion_returns_record() {
        let darr = Darr::new();
        darr.try_claim(&key("p"), "a", 50);
        darr.complete(&key("p"), "a", 1.0, vec![1.0], "done");
        match darr.try_claim(&key("p"), "b", 50) {
            ClaimOutcome::AlreadyComputed(r) => assert_eq!(r.score, 1.0),
            other => panic!("expected AlreadyComputed, got {other:?}"),
        }
    }

    #[test]
    fn release_claim_requires_ownership() {
        let darr = Darr::new();
        darr.try_claim(&key("p"), "a", 50);
        assert!(!darr.release_claim(&key("p"), "b"));
        assert!(darr.release_claim(&key("p"), "a"));
        assert!(darr.try_claim(&key("p"), "b", 50).is_claimed());
    }

    #[test]
    fn reaping_waits_out_the_grace_period() {
        let obs = Obs::deterministic();
        let darr = Darr::new();
        darr.attach_obs(obs.clone());
        darr.try_claim(&key("p1"), "dead", 1000);
        darr.try_claim(&key("p2"), "dead", 1000);
        darr.try_claim(&key("p3"), "alive", 1000);
        // detector declares "dead" gone at t=10; grace is 20 ticks
        darr.advance_clock(25);
        assert_eq!(darr.reap_claims("dead", 10, 20), 0, "inside grace: no-op");
        assert!(matches!(darr.try_claim(&key("p1"), "b", 50), ClaimOutcome::HeldBy(_)));
        darr.advance_clock(5); // now = 30 = dead_since + grace
        assert_eq!(darr.reap_claims("dead", 10, 20), 2);
        assert_eq!(obs.registry().snapshot().counter("coda_darr_claims_reaped_total"), 2);
        // the dead owner's keys are re-claimable; the live owner's is not
        assert!(darr.try_claim(&key("p1"), "b", 50).is_claimed());
        assert!(darr.try_claim(&key("p2"), "b", 50).is_claimed());
        assert!(matches!(darr.try_claim(&key("p3"), "b", 50), ClaimOutcome::HeldBy(_)));
        // idempotent: nothing left to reap
        assert_eq!(darr.reap_claims("dead", 10, 20), 0);
    }

    #[test]
    fn reaping_counts_into_an_attached_registry() {
        let obs = Obs::deterministic();
        let darr = Darr::new();
        darr.attach_obs(obs.clone());
        darr.try_claim(&key("p"), "dead", 1000);
        darr.advance_clock(50);
        assert_eq!(darr.reap_claims("dead", 0, 10), 1);
        let snap = obs.registry().snapshot();
        assert_eq!(snap.counter("coda_darr_claims_reaped_total"), 1);
    }

    #[test]
    fn dataset_version_bump_invalidates() {
        let darr = Darr::new();
        darr.register_dataset_version("ds", 1);
        darr.complete(&key("p"), "a", 0.7, vec![], "v1 result");
        assert!(darr.lookup(&key("p")).is_some());
        darr.register_dataset_version("ds", 2);
        // the old result is stale...
        assert!(darr.lookup(&key("p")).is_none());
        assert!(darr.computed_for("ds").is_empty());
        // ...and the key can be claimed again at the new version
        assert!(darr.try_claim(&key("p").at_version(2), "b", 50).is_claimed());
        assert_eq!(darr.dataset_version("ds"), Some(2));
        // version registration never goes backwards
        darr.register_dataset_version("ds", 1);
        assert_eq!(darr.dataset_version("ds"), Some(2));
    }

    #[test]
    fn computed_for_and_best_for() {
        let darr = Darr::new();
        darr.complete(&key("p1"), "a", 0.9, vec![], "");
        darr.complete(&key("p2"), "b", 0.3, vec![], "");
        darr.complete(&ComputationKey::new("other", 1, "p", "cv", "rmse"), "c", 0.1, vec![], "");
        assert_eq!(darr.computed_for("ds").len(), 2);
        // rmse: lower is better
        let best = darr.best_for("ds", "rmse", false).unwrap();
        assert_eq!(best.key.pipeline, "p2");
        let best_high = darr.best_for("ds", "rmse", true).unwrap();
        assert_eq!(best_high.key.pipeline, "p1");
        assert!(darr.best_for("ds", "auc", true).is_none());
    }

    #[test]
    fn concurrent_claims_are_exclusive() {
        use std::sync::Arc;
        let darr = Arc::new(Darr::new());
        let keys: Vec<ComputationKey> = (0..20).map(|i| key(&format!("p{i}"))).collect();
        let mut handles = Vec::new();
        for t in 0..8 {
            let darr = Arc::clone(&darr);
            let keys = keys.clone();
            handles.push(std::thread::spawn(move || {
                let client = format!("client-{t}");
                let mut won = 0usize;
                for k in &keys {
                    if darr.try_claim(k, &client, 1000).is_claimed() {
                        won += 1;
                        darr.complete(k, &client, 0.0, vec![], "");
                    }
                }
                won
            }));
        }
        let total: usize = handles.into_iter().map(|h| h.join().unwrap()).sum();
        // every key computed exactly once across all clients
        assert_eq!(total, 20);
        assert_eq!(darr.len(), 20);
    }

    #[test]
    fn export_import_roundtrip_and_merge() {
        let darr = Darr::new();
        darr.complete(&key("p1"), "a", 0.5, vec![0.4], "first");
        darr.advance_clock(10);
        darr.complete(&key("p2"), "b", 0.7, vec![], "second");
        let snapshot = darr.export_records();
        assert_eq!(snapshot.lines().count(), 2);

        // a fresh repository restores everything
        let restored = Darr::new();
        assert_eq!(restored.import_records(&snapshot).unwrap(), 2);
        assert_eq!(restored.lookup(&key("p1")).unwrap().score, 0.5);
        assert_eq!(restored.lookup(&key("p2")).unwrap().producer, "b");

        // merging an older snapshot does not clobber newer local results
        restored.advance_clock(100);
        restored.complete(&key("p1"), "c", 0.1, vec![], "newer");
        assert_eq!(restored.import_records(&snapshot).unwrap(), 0);
        assert_eq!(restored.lookup(&key("p1")).unwrap().producer, "c");

        // malformed lines error
        assert!(restored.import_records("not json").is_err());
        // empty snapshot is a no-op
        assert_eq!(restored.import_records("").unwrap(), 0);
    }

    #[test]
    fn merge_record_keeps_newer_and_clears_claims() {
        let darr = Darr::new();
        darr.advance_clock(10);
        darr.complete(&key("p"), "a", 0.5, vec![], "local");
        // an older journaled record loses to the local one
        let old = AnalyticsRecord {
            key: key("p"),
            score: 0.9,
            fold_scores: vec![],
            explanation: "stale".to_string(),
            producer: "b".to_string(),
            stored_at: 5,
        };
        assert!(!darr.merge_record(old));
        assert_eq!(darr.lookup(&key("p")).unwrap().producer, "a");
        // a newer one wins and releases any claim on the key
        darr.try_claim(&key("p2"), "c", 100);
        let newer = AnalyticsRecord {
            key: key("p2"),
            score: 0.1,
            fold_scores: vec![0.1],
            explanation: "journaled".to_string(),
            producer: "b".to_string(),
            stored_at: 50,
        };
        assert!(darr.merge_record(newer));
        match darr.try_claim(&key("p2"), "d", 100) {
            ClaimOutcome::AlreadyComputed(r) => assert_eq!(r.producer, "b"),
            other => panic!("expected AlreadyComputed, got {other:?}"),
        }
    }

    #[test]
    fn claim_and_complete_link_to_the_entered_context() {
        use coda_obs::TraceForest;
        let obs = Obs::deterministic();
        let darr = Darr::new();
        darr.attach_obs(obs.clone());
        let req = obs.tracer().begin_span("client.process", None, &[]);
        {
            let _req = obs.tracer().enter(Some(req));
            assert!(darr.try_claim(&key("p"), "a", 50).is_claimed());
            darr.complete(&key("p"), "a", 0.5, vec![], "done");
        }
        obs.tracer().end_span(req, &[]);
        let forest = TraceForest::from_events(&obs.tracer().events());
        assert!(forest.orphans().is_empty());
        assert_eq!(forest.unresolved_points(), 0);
        for name in ["darr.claim", "darr.complete"] {
            let span = forest.spans().find(|s| s.name == name).unwrap();
            assert_eq!(span.parent, Some(req.span_id), "{name} hangs off the request");
        }
        // with no span current the operations trace nothing
        let quiet = Obs::deterministic();
        let darr = Darr::new();
        darr.attach_obs(quiet.clone());
        darr.try_claim(&key("q"), "a", 50);
        darr.complete(&key("q"), "a", 0.5, vec![], "done");
        assert!(
            darr.merge_record(AnalyticsRecord { stored_at: 9, ..darr.lookup(&key("q")).unwrap() })
        );
        assert_eq!(quiet.tracer().len(), 0);
    }

    #[test]
    fn debug_nonempty() {
        let darr = Darr::new();
        assert!(format!("{darr:?}").contains("Darr"));
    }
}
