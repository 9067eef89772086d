//! Cooperative evaluation driver: a client works through a list of
//! computations against the DARR, reusing stored results, claiming untried
//! ones, and computing only what no other client has covered — the
//! cooperation protocol of Fig. 2. While the client's [`DarrLink`] is down
//! it keeps computing locally, journaling results that are replayed into
//! the repository (keep-newer merge) once the link is back: cooperation
//! degrades — claims cannot be checked offline — but no result is lost.

use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use coda_chaos::{RetryPolicy, RetryStats};
use coda_obs::{Counter, Obs};

use crate::record::{AnalyticsRecord, ComputationKey};
use crate::repo::{ClaimOutcome, Darr};

/// What happened for one computation in a cooperative run.
#[derive(Debug, Clone, PartialEq)]
pub enum CoopOutcome {
    /// The client computed it (held the claim).
    Computed(AnalyticsRecord),
    /// A stored result was reused — a redundant computation avoided.
    Reused(AnalyticsRecord),
    /// The client computed it locally while the link was down; the record
    /// waits in the journal until it is replayed.
    Journaled(AnalyticsRecord),
    /// Another client still holds the claim.
    SkippedHeld(String),
    /// The computation failed; the claim was released.
    Failed(String),
}

/// Per-client counters from one [`CooperativeClient::run`]. Each key counts
/// once, at its final outcome.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CoopSummary {
    /// Computations this client performed online.
    pub computed: usize,
    /// Results reused from the DARR.
    pub reused: usize,
    /// Keys still held by another client when the retry policy gave up.
    pub skipped: usize,
    /// Failures.
    pub failed: usize,
    /// Keys computed here after winning a claim on revisit — the holder's
    /// lease expired or it released the claim.
    pub takeovers: usize,
    /// Keys computed locally and journaled while the link was down.
    pub journaled: usize,
    /// Journaled records the repository accepted on replay.
    pub replayed: usize,
    /// Retry/backoff accounting, one call per key.
    pub retry: RetryStats,
}

/// A client's (possibly partitioned) connection to the shared repository.
#[derive(Debug)]
pub struct DarrLink<'a> {
    darr: &'a Darr,
    up: AtomicBool,
}

impl<'a> DarrLink<'a> {
    /// A connected link to `darr`.
    fn new(darr: &'a Darr) -> Self {
        DarrLink { darr, up: AtomicBool::new(true) }
    }

    /// True when the repository is reachable.
    pub fn is_up(&self) -> bool {
        self.up.load(Ordering::SeqCst)
    }

    /// Partitions (`false`) or heals (`true`) the link.
    pub fn set_up(&self, up: bool) {
        self.up.store(up, Ordering::SeqCst);
    }

    /// The repository, when reachable.
    fn darr(&self) -> Option<&'a Darr> {
        self.is_up().then_some(self.darr)
    }
}

/// The attached [`Obs`] and the client's `coda_darr_*` counter handles,
/// resolved once at attach.
#[derive(Debug)]
struct CoopMetrics {
    obs: Obs,
    computed: Arc<Counter>,
    reused: Arc<Counter>,
    skipped_held: Arc<Counter>,
    failed: Arc<Counter>,
    takeovers: Arc<Counter>,
}

impl CoopMetrics {
    fn new(obs: Obs) -> Self {
        let r = obs.registry();
        CoopMetrics {
            computed: r.counter("coda_darr_computed"),
            reused: r.counter("coda_darr_reused"),
            skipped_held: r.counter("coda_darr_skipped_held"),
            failed: r.counter("coda_darr_failed"),
            takeovers: r.counter("coda_darr_takeovers"),
            obs,
        }
    }
}

/// A cooperating client bound to a shared [`Darr`] through its own
/// [`DarrLink`].
#[derive(Debug)]
pub struct CooperativeClient<'a> {
    link: DarrLink<'a>,
    name: String,
    claim_duration: u64,
    metrics: Option<CoopMetrics>,
    /// Results computed while the link was down, waiting for replay.
    journal: Mutex<Vec<AnalyticsRecord>>,
    /// Logical timestamp for journaled records; bumped per record so replay
    /// ordering is well defined while the DARR clock is unreachable.
    local_clock: AtomicU64,
}

impl<'a> CooperativeClient<'a> {
    /// Creates a client named `name` with the given claim lease duration.
    pub fn new<S: Into<String>>(darr: &'a Darr, name: S, claim_duration: u64) -> Self {
        CooperativeClient {
            link: DarrLink::new(darr),
            name: name.into(),
            claim_duration,
            metrics: None,
            journal: Mutex::new(Vec::new()),
            local_clock: AtomicU64::new(0),
        }
    }

    /// Attaches an observability handle: per-key outcomes and takeovers
    /// count live into its registry under `coda_darr_*` names, and each
    /// attempt at a key is traced as a `darr.process` span.
    pub fn with_obs(mut self, obs: Obs) -> Self {
        self.metrics = Some(CoopMetrics::new(obs));
        self
    }

    /// The client's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The client's link to the repository (partition it with
    /// [`DarrLink::set_up`]).
    pub fn link(&self) -> &DarrLink<'a> {
        &self.link
    }

    /// Results journaled and not yet replayed.
    pub fn journaled(&self) -> usize {
        self.journal.lock().len()
    }

    /// Works through `keys` with the cooperation protocol of Fig. 2 and
    /// returns the summary plus each key's final outcome, in `keys` order.
    /// `compute` runs only when this client must produce a result and
    /// returns `(score, fold_scores, explanation)` or an error message.
    ///
    /// 1. First pass, per key: reuse a stored result, or claim → compute →
    ///    complete (releasing the claim when `compute` fails), or defer a
    ///    key another client holds.
    /// 2. Second pass: revisit each deferred key under `policy`, advancing
    ///    the DARR clock by each backoff so the holder's lease ages, and
    ///    yielding the thread between zero-tick attempts. A holder that
    ///    finished turns the key into `Reused`; a claim won on revisit is a
    ///    takeover. Keys still held when the policy gives up stay
    ///    `SkippedHeld`.
    /// 3. While the link is down, keys are computed locally into the
    ///    journal, which is replayed by keep-newer merge once the link is
    ///    back — before the next online key and at the end of the run.
    ///
    /// Every `darr.process` span, with the repository's `darr.claim`,
    /// `darr.complete` and `darr.merge` spans, nests under the caller's
    /// current span.
    pub fn run<F>(
        &self,
        keys: &[ComputationKey],
        policy: &RetryPolicy,
        mut compute: F,
    ) -> (CoopSummary, Vec<CoopOutcome>)
    where
        F: FnMut(&ComputationKey) -> Result<(f64, Vec<f64>, String), String>,
    {
        let metrics = self.metrics.as_ref();
        let mut summary = CoopSummary::default();
        let mut outcomes = Vec::with_capacity(keys.len());
        for key in keys {
            summary.replayed += self.replay();
            outcomes.push(self.process(key, &mut compute));
        }
        for (key, outcome) in keys.iter().zip(&mut outcomes) {
            let mut state = policy.state();
            state.begin_attempt(); // the first pass was attempt 1
            while matches!(outcome, CoopOutcome::SkippedHeld(_)) {
                let Some(darr) = self.link.darr() else { break };
                let Some(backoff) = state.next_backoff_ms() else { break };
                match backoff.ceil() as u64 {
                    0 => std::thread::yield_now(),
                    ticks => darr.advance_clock(ticks),
                }
                state.begin_attempt();
                *outcome = self.process(key, &mut compute);
                if matches!(outcome, CoopOutcome::Computed(_)) {
                    summary.takeovers += 1;
                    if let Some(m) = metrics {
                        m.takeovers.inc();
                    }
                }
            }
            let resolved = matches!(
                outcome,
                CoopOutcome::Computed(_) | CoopOutcome::Reused(_) | CoopOutcome::Journaled(_)
            );
            summary.retry.merge(&state.finish(resolved));
        }
        summary.replayed += self.replay();
        for outcome in &outcomes {
            let (tally, counter) = match outcome {
                CoopOutcome::Computed(_) => (&mut summary.computed, metrics.map(|m| &m.computed)),
                CoopOutcome::Reused(_) => (&mut summary.reused, metrics.map(|m| &m.reused)),
                CoopOutcome::SkippedHeld(_) => {
                    (&mut summary.skipped, metrics.map(|m| &m.skipped_held))
                }
                CoopOutcome::Failed(_) => (&mut summary.failed, metrics.map(|m| &m.failed)),
                CoopOutcome::Journaled(_) => (&mut summary.journaled, None),
            };
            *tally += 1;
            if let Some(c) = counter {
                c.inc();
            }
        }
        (summary, outcomes)
    }

    /// One attempt at one key, traced as a `darr.process` span that the
    /// repository's claim and complete nest under.
    fn process<F>(&self, key: &ComputationKey, compute: &mut F) -> CoopOutcome
    where
        F: FnMut(&ComputationKey) -> Result<(f64, Vec<f64>, String), String>,
    {
        let _span = self.metrics.as_ref().map(|m| {
            m.obs.tracer().span("darr.process", &[("client", &self.name), ("key", &key.pipeline)])
        });
        let Some(darr) = self.link.darr() else {
            return match compute(key) {
                Ok((score, fold_scores, explanation)) => {
                    let record = AnalyticsRecord {
                        key: key.clone(),
                        score,
                        fold_scores,
                        explanation,
                        producer: self.name.clone(),
                        stored_at: self.local_clock.fetch_add(1, Ordering::SeqCst) + 1,
                    };
                    self.journal.lock().push(record.clone());
                    CoopOutcome::Journaled(record)
                }
                Err(e) => CoopOutcome::Failed(e),
            };
        };
        match darr.try_claim(key, &self.name, self.claim_duration) {
            ClaimOutcome::AlreadyComputed(record) => CoopOutcome::Reused(record),
            ClaimOutcome::HeldBy(owner) => CoopOutcome::SkippedHeld(owner),
            ClaimOutcome::Claimed => match compute(key) {
                Ok((score, folds, explanation)) => CoopOutcome::Computed(darr.complete(
                    key,
                    &self.name,
                    score,
                    folds,
                    &explanation,
                )),
                Err(e) => {
                    darr.release_claim(key, &self.name);
                    CoopOutcome::Failed(e)
                }
            },
        }
    }

    /// Replays the journal into the repository when the link is up,
    /// returning how many records it applied — a record another client
    /// stored with a newer timestamp during the partition wins, and the
    /// journaled copy is dropped rather than duplicated.
    fn replay(&self) -> usize {
        let Some(darr) = self.link.darr() else { return 0 };
        let drained = std::mem::take(&mut *self.journal.lock());
        drained.into_iter().map(|record| usize::from(darr.merge_record(record))).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Arc;

    fn keys(n: usize) -> Vec<ComputationKey> {
        (0..n)
            .map(|i| ComputationKey::new("ds", 1, &format!("p{i}") as &str, "kfold(3)", "rmse"))
            .collect()
    }

    /// One attempt per key: a held key is skipped, never revisited.
    fn once() -> RetryPolicy {
        RetryPolicy::fixed(0.0, 1)
    }

    fn ok(_: &ComputationKey) -> Result<(f64, Vec<f64>, String), String> {
        Ok((1.0, vec![], String::new()))
    }

    #[test]
    fn single_client_computes_everything_once() {
        let darr = Darr::new();
        let client = CooperativeClient::new(&darr, "a", 100);
        let work = keys(5);
        let (summary, _) = client
            .run(&work, &once(), |k| Ok((k.pipeline.len() as f64, vec![], "test".to_string())));
        assert_eq!(summary.computed, 5);
        // a second pass reuses all five
        let (summary2, outcomes) = client.run(&work, &once(), |_| unreachable!());
        assert_eq!(summary2.reused, 5);
        assert!(matches!(outcomes[0], CoopOutcome::Reused(_)));
    }

    #[test]
    fn two_clients_partition_the_work() {
        let darr = Darr::new();
        let a = CooperativeClient::new(&darr, "a", 100);
        let b = CooperativeClient::new(&darr, "b", 100);
        let work = keys(10);
        let (sa, _) = a.run(&work[..6], &once(), ok);
        let (sb, _) = b.run(&work, &once(), ok);
        assert_eq!(sa.computed, 6);
        assert_eq!(sb.computed, 4);
        assert_eq!(sb.reused, 6);
        // total computations equal the distinct work items
        assert_eq!(darr.len(), 10);
    }

    #[test]
    fn failure_releases_claim_for_others() {
        let darr = Darr::new();
        let a = CooperativeClient::new(&darr, "a", 100);
        let b = CooperativeClient::new(&darr, "b", 100);
        let work = keys(1);
        let (summary, outcomes) = a.run(&work, &once(), |_| Err("boom".to_string()));
        assert_eq!(summary.failed, 1);
        assert!(matches!(outcomes[0], CoopOutcome::Failed(_)));
        // b can immediately claim and finish
        let (_, outcomes) = b.run(&work, &once(), ok);
        assert!(matches!(outcomes[0], CoopOutcome::Computed(_)));
    }

    #[test]
    fn held_claim_is_skipped() {
        let darr = Darr::new();
        let work = keys(1);
        darr.try_claim(&work[0], "other", 100);
        let a = CooperativeClient::new(&darr, "a", 100);
        let (summary, outcomes) = a.run(&work, &once(), |_| unreachable!());
        assert_eq!(summary.skipped, 1);
        assert_eq!(outcomes[0], CoopOutcome::SkippedHeld("other".to_string()));
    }

    #[test]
    fn retry_takes_over_expired_claim() {
        let darr = Darr::new();
        let work = keys(1);
        // a client that died mid-compute holds the claim for 50 ticks
        darr.try_claim(&work[0], "dead", 50);
        let a = CooperativeClient::new(&darr, "a", 100);
        let (summary, outcomes) = a.run(&work, &RetryPolicy::fixed(30.0, 5), ok);
        assert_eq!(summary.computed, 1);
        assert_eq!(summary.skipped, 0);
        assert_eq!(summary.takeovers, 1);
        assert!(summary.retry.retries >= 1);
        assert!(matches!(outcomes[0], CoopOutcome::Computed(_)));
        assert_eq!(darr.lookup(&work[0]).unwrap().producer, "a");
    }

    #[test]
    fn retry_reuses_result_finished_by_holder() {
        let darr = Darr::new();
        let work = keys(2);
        // "other" holds p1 and finishes it while we compute p0
        darr.try_claim(&work[1], "other", 1000);
        let a = CooperativeClient::new(&darr, "a", 100);
        let (summary, outcomes) = a.run(&work, &RetryPolicy::fixed(10.0, 4), |k| {
            if k == &work[0] {
                darr.complete(&work[1], "other", 0.7, vec![], "done elsewhere");
            }
            Ok((1.0, vec![], String::new()))
        });
        assert_eq!(summary.computed, 1);
        assert_eq!(summary.reused, 1);
        assert_eq!(summary.takeovers, 0, "a reuse is not a takeover");
        assert!(matches!(outcomes[1], CoopOutcome::Reused(_)));
    }

    #[test]
    fn retry_exhausts_against_live_holder() {
        let darr = Darr::new();
        let work = keys(1);
        darr.try_claim(&work[0], "busy", 1_000_000);
        let a = CooperativeClient::new(&darr, "a", 100);
        let (summary, outcomes) = a.run(&work, &RetryPolicy::fixed(10.0, 3), |_| unreachable!());
        assert_eq!(summary.skipped, 1);
        assert_eq!(summary.takeovers, 0);
        assert_eq!(summary.retry.exhausted, 1);
        assert!(matches!(outcomes[0], CoopOutcome::SkippedHeld(_)));
    }

    #[test]
    fn registry_counts_each_key_once_at_its_final_outcome() {
        let obs = Obs::deterministic();
        let darr = Darr::new();
        let work = keys(3);
        // the first pass skips p0 and p1: p0's holder finishes while we
        // compute p2, and p1's dead holder's lease lapses on the revisit
        darr.try_claim(&work[0], "other", 1000);
        darr.try_claim(&work[1], "dead", 15);
        let a = CooperativeClient::new(&darr, "a", 100).with_obs(obs.clone());
        let (summary, outcomes) = a.run(&work, &RetryPolicy::fixed(10.0, 4), |k| {
            if k == &work[2] {
                darr.complete(&work[0], "other", 0.7, vec![], "done elsewhere");
            }
            Ok((1.0, vec![], String::new()))
        });
        assert!(matches!(outcomes[0], CoopOutcome::Reused(_)), "reused on the revisit");
        assert_eq!((summary.computed, summary.reused, summary.skipped), (2, 1, 0));
        assert_eq!(summary.takeovers, 1);
        let snap = obs.registry().snapshot();
        assert_eq!(snap.counter("coda_darr_computed"), summary.computed as u64);
        assert_eq!(snap.counter("coda_darr_reused"), summary.reused as u64);
        assert_eq!(snap.counter("coda_darr_skipped_held"), 0, "no key ended up skipped");
        assert_eq!(snap.counter("coda_darr_failed"), 0);
        assert_eq!(snap.counter("coda_darr_takeovers"), summary.takeovers as u64);
    }

    #[test]
    fn run_traces_the_whole_key_as_one_subtree() {
        use coda_obs::TraceForest;
        let obs = Obs::deterministic();
        let darr = Darr::new();
        darr.attach_obs(obs.clone());
        let client = CooperativeClient::new(&darr, "a", 100).with_obs(obs.clone());
        let job = obs.tracer().begin_span("cluster.job", None, &[]);
        let (summary, _) = {
            let _job = obs.tracer().enter(Some(job));
            client.run(&keys(1), &once(), ok)
        };
        obs.tracer().end_span(job, &[]);
        assert_eq!(summary.computed, 1);
        let forest = TraceForest::from_events(&obs.tracer().events());
        assert!(forest.orphans().is_empty());
        assert_eq!(forest.unresolved_points(), 0);
        let process = forest.spans().find(|s| s.name == "darr.process").unwrap();
        assert_eq!(process.parent, Some(job.span_id));
        for name in ["darr.claim", "darr.complete"] {
            let span = forest.spans().find(|s| s.name == name).unwrap();
            assert_eq!(span.parent, Some(process.ctx.span_id), "{name} nests under the process");
            assert_eq!(span.ctx.trace_id, job.trace_id, "one trace end to end");
        }
    }

    #[test]
    fn heal_mid_worklist_replays_before_the_next_online_key() {
        let darr = Darr::new();
        let client = CooperativeClient::new(&darr, "a", 100);
        let work = keys(4);
        client.link().set_up(false);
        let mut seen = 0;
        let (summary, _) = client.run(&work, &once(), |_| {
            seen += 1;
            if seen == 2 {
                // the partition heals while we are mid-list
                client.link().set_up(true);
            }
            Ok((1.0, vec![], String::new()))
        });
        assert_eq!(summary.journaled, 2);
        assert_eq!(summary.computed, 2);
        assert_eq!(summary.replayed, 2);
        assert_eq!(darr.len(), 4, "nothing lost across the heal");
    }

    #[test]
    fn offline_compute_failure_is_counted_not_journaled() {
        let darr = Darr::new();
        let client = CooperativeClient::new(&darr, "a", 100);
        client.link().set_up(false);
        let (summary, outcomes) = client.run(&keys(1), &once(), |_| Err("boom".to_string()));
        assert_eq!(summary.failed, 1);
        assert_eq!(summary.journaled, 0);
        assert!(matches!(outcomes[0], CoopOutcome::Failed(_)));
    }

    #[test]
    fn concurrent_clients_never_duplicate_work() {
        let darr = Arc::new(Darr::new());
        let computations = Arc::new(AtomicUsize::new(0));
        let work = keys(50);
        let mut handles = Vec::new();
        for t in 0..6 {
            let darr = Arc::clone(&darr);
            let computations = Arc::clone(&computations);
            let work = work.clone();
            handles.push(std::thread::spawn(move || {
                let client = CooperativeClient::new(&darr, format!("c{t}"), 1000);
                client.run(&work, &once(), |_| {
                    computations.fetch_add(1, Ordering::SeqCst);
                    Ok((0.0, vec![], String::new()))
                })
            }));
        }
        let mut total_effective = 0usize;
        for h in handles {
            let (s, _) = h.join().unwrap();
            assert_eq!(s.failed, 0);
            total_effective += s.computed + s.reused + s.skipped;
        }
        // with cooperation the total actual computations equal the work size
        assert_eq!(computations.load(Ordering::SeqCst), 50);
        assert_eq!(total_effective, 6 * 50);
        assert_eq!(darr.len(), 50);
    }
}
