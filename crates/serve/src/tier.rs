//! The serving tier: N shards, each a [`ShardCore`] behind a combiner lock
//! plus a bounded publication queue — flat combining (Hendler, Incze,
//! Shavit & Tzafrir, SPAA 2010), so requests run on their callers' threads.
//!
//! Life of a request: [`ServeTier::submit`] routes it by stable key hash
//! and publishes it on the owning shard's queue. A full queue sheds it
//! *right there* with [`ServeError::Overloaded`] (counted under
//! `coda_serve_shed_total`; `coda_serve_queue_depth` tracks occupancy
//! exactly). The submitter then takes the shard's lock, and whoever holds
//! it applies up to `batch_max` published requests in arrival order, fires
//! due crash points and fills each reply slot: an uncontended submit
//! applies its own request and wakes no thread.
//!
//! A [`CrashPlan`] point addressed to node `shard-{i}` fires when that
//! shard's WAL reaches the planned operation count: export, crash, replay
//! the WAL and prove it byte-identical, while other shards keep serving.
//! A panic under a shard's lock kills that shard alone.

use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use coda_chaos::CrashPlan;
use coda_obs::{labeled_name, BurnState, Counter, Gauge, Histogram, Obs, DEFAULT_MS_BOUNDS};

use crate::request::{ServeError, ServeRequest, ServeResponse};
use crate::router::ShardRouter;
use crate::shard::{merge_canonical_exports, ShardCore, TriggerPolicy};

/// Histogram bounds for the per-pass batch size.
const BATCH_BOUNDS: &[f64] = &[1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0];

/// Tier configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Shards, each with its own combiner lock and queue.
    pub n_shards: usize,
    /// Bounded publication queue per shard — the admission-control knob.
    pub queue_capacity: usize,
    /// Maximum requests one combining pass applies.
    pub batch_max: usize,
    /// Versions each shard's store retains for delta chains.
    pub history_depth: usize,
    /// WAL records between snapshots at each shard (0 = never).
    pub snapshot_every: usize,
    /// Recompute-trigger policy stamped on every object.
    pub trigger: TriggerPolicy,
    /// Crash-stop schedule; points target nodes named `shard-{i}`.
    pub plan: CrashPlan,
    /// Shared SLO burn state from a [`coda_obs::SloEngine`] the admission
    /// edge can consult (`None` = no ops plane attached).
    pub burn_state: Option<Arc<BurnState>>,
    /// When `true` *and* `burn_state` reports a breach, the admission edge
    /// sheds new data-plane requests before they are published (counted
    /// under `coda_serve_burn_shed_total` as well as the shed total).
    /// `false` — the default — keeps the hook purely observational:
    /// attaching a burn state changes nothing (equivalence-gated in tests).
    pub burn_admission: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            n_shards: 4,
            queue_capacity: 64,
            batch_max: 16,
            history_depth: 4,
            snapshot_every: 32,
            trigger: TriggerPolicy::Off,
            plan: CrashPlan::new(),
            burn_state: None,
            burn_admission: false,
        }
    }
}

/// What one shard did over the tier's lifetime.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ShardSummary {
    /// The shard's node name (`shard-{i}`).
    pub name: String,
    /// Requests the shard applied.
    pub ops_applied: u64,
    /// The store's final WAL operation count.
    pub store_ops: u64,
    /// Trigger firings across the shard's objects.
    pub trigger_firings: u64,
    /// Crash points executed on this shard.
    pub recoveries: u64,
    /// Recoveries whose WAL replay was byte-identical to the pre-crash
    /// export.
    pub recoveries_byte_identical: u64,
    /// Recoveries that diverged (must stay zero).
    pub recovery_mismatches: u64,
    /// A panic under the shard's lock killed it. Its counts and export are
    /// what it held at that moment, possibly halfway through a request.
    pub died: bool,
    /// The shard's sectioned raw state export.
    pub export_raw: String,
}

/// The tier's final report, produced by [`ServeTier::finish`].
#[derive(Debug, Clone, PartialEq)]
pub struct TierReport {
    /// One summary per shard, in shard order.
    pub shards: Vec<ShardSummary>,
    /// Requests shed by admission control over the tier's lifetime.
    pub shed_total: u64,
}

impl TierReport {
    /// Total requests applied across shards.
    pub fn total_ops(&self) -> u64 {
        self.shards.iter().map(|s| s.ops_applied).sum()
    }

    /// Per-shard applied-request counts, in shard order.
    pub fn per_shard_ops(&self) -> Vec<u64> {
        self.shards.iter().map(|s| s.ops_applied).collect()
    }

    /// The canonical merged state export — byte-comparable across shard
    /// counts (see [`merge_canonical_exports`]).
    pub fn canonical_state(&self) -> String {
        let raws: Vec<String> = self.shards.iter().map(|s| s.export_raw.clone()).collect();
        merge_canonical_exports(&raws)
    }
}

/// Where a request's reply lands: filled by whichever thread applies the
/// request, taken by the thread that submitted it.
type ReplySlot = Arc<Mutex<Option<ServeResponse>>>;

fn take_reply(slot: &Mutex<Option<ServeResponse>>) -> Option<ServeResponse> {
    slot.lock().unwrap_or_else(PoisonError::into_inner).take()
}

/// A request on a shard's publication queue.
#[derive(Debug)]
struct Published {
    req: ServeRequest,
    reply: ReplySlot,
    /// Clock reading at publish time; pickup minus this is the queue wait,
    /// the half of latency that blames overload rather than slow service.
    published_ms: f64,
}

/// Per-shard cached instrumentation.
struct ShardMetrics {
    obs: Obs,
    ops: Arc<Counter>,
    batches: Arc<Counter>,
    batch_size: Arc<Histogram>,
    depth: Arc<Gauge>,
    recoveries: Arc<Counter>,
    byte_identical: Arc<Counter>,
    mismatches: Arc<Counter>,
    /// Queue wait (publish to pickup) and service (time in `apply`), each
    /// aggregate plus this shard's split (`…{shard="shard-N"}`).
    queue_wait: Arc<Histogram>,
    queue_wait_shard: Arc<Histogram>,
    service: Arc<Histogram>,
    service_shard: Arc<Histogram>,
}

impl ShardMetrics {
    fn new(obs: &Obs, name: &str) -> Self {
        let r = obs.registry();
        ShardMetrics {
            obs: obs.clone(),
            ops: r.counter("coda_serve_ops_total"),
            batches: r.counter("coda_serve_batches"),
            batch_size: r.histogram("coda_serve_batch_size", BATCH_BOUNDS),
            depth: r.gauge("coda_serve_queue_depth"),
            recoveries: r.counter("coda_serve_recoveries"),
            byte_identical: r.counter("coda_serve_recoveries_byte_identical"),
            mismatches: r.counter("coda_serve_recovery_mismatches"),
            queue_wait: r.histogram("coda_serve_queue_wait_ms", DEFAULT_MS_BOUNDS),
            queue_wait_shard: r.histogram(
                &labeled_name("coda_serve_queue_wait_ms", "shard", name),
                DEFAULT_MS_BOUNDS,
            ),
            service: r.histogram("coda_serve_service_ms", DEFAULT_MS_BOUNDS),
            service_shard: r.histogram(
                &labeled_name("coda_serve_service_ms", "shard", name),
                DEFAULT_MS_BOUNDS,
            ),
        }
    }
}

/// What a shard's combiner lock guards.
#[derive(Debug)]
struct ShardState {
    core: ShardCore,
    /// The counts so far; `finish` fills in the rest.
    summary: ShardSummary,
    /// This shard's crash points in plan order: the WAL operation count
    /// each fires at, and whether it has (each fires once).
    points: Vec<(u64, bool)>,
    /// The requests of the pass in progress; kept to reuse its allocation.
    batch: Vec<Published>,
}

/// One shard: its state behind the combiner lock, and the bounded queue
/// requests are published on. Lock order: `state` before `queue`.
struct Shard {
    state: Mutex<ShardState>,
    queue: Mutex<VecDeque<Published>>,
    batch_max: usize,
    metrics: Option<ShardMetrics>,
}

impl Shard {
    /// One combining pass: applies up to `batch_max` published requests,
    /// oldest first. Returns how many it applied.
    fn combine(&self, state: &mut ShardState) -> usize {
        let mut batch = std::mem::take(&mut state.batch);
        {
            let mut queue = self.queue.lock().unwrap_or_else(PoisonError::into_inner);
            let n = queue.len().min(self.batch_max);
            batch.extend(queue.drain(..n));
        }
        let n = batch.len();
        if n > 0 {
            if let Some(m) = &self.metrics {
                m.depth.add(-(n as f64));
                m.batches.inc();
                m.batch_size.observe(n as f64);
            }
            // the pass applies other threads' requests: hide this thread's
            // open spans, so each request's spans start their own traces
            // whichever thread happens to apply them
            let _detached = self.metrics.as_ref().map(|m| m.obs.tracer().detach());
            for published in batch.drain(..) {
                self.apply(state, published);
            }
        }
        state.batch = batch;
        n
    }

    /// Applies one request, fills its reply slot, and fires every crash
    /// point the shard's WAL has reached.
    fn apply(&self, state: &mut ShardState, published: Published) {
        let Published { req, reply, published_ms } = published;
        let picked_up_ms = self.metrics.as_ref().map_or(0.0, |m| m.obs.now_ms());
        let resp = state.core.apply(req);
        state.summary.ops_applied += 1;
        if let Some(m) = &self.metrics {
            m.ops.inc();
            let wait = (picked_up_ms - published_ms).max(0.0);
            m.queue_wait.observe(wait);
            m.queue_wait_shard.observe(wait);
            let service = (m.obs.now_ms() - picked_up_ms).max(0.0);
            m.service.observe(service);
            m.service_shard.observe(service);
        }
        *reply.lock().unwrap_or_else(PoisonError::into_inner) = Some(resp);
        // crash points key on the WAL operation count, exactly like
        // `coda_cluster::run_crash_recovery`
        for (at_op, fired) in &mut state.points {
            if *fired || state.core.ops() < *at_op {
                continue;
            }
            *fired = true;
            let (_, ok) = state.core.crash_recover(self.metrics.as_ref().map(|m| &m.obs));
            let s = &mut state.summary;
            s.recoveries += 1;
            *(if ok { &mut s.recoveries_byte_identical } else { &mut s.recovery_mismatches }) += 1;
            if let Some(m) = &self.metrics {
                m.recoveries.inc();
                (if ok { &m.byte_identical } else { &m.mismatches }).inc();
            }
        }
    }

    /// Applies whatever is still published — a dead shard applies nothing
    /// — and summarizes the shard.
    fn finish(self) -> ShardSummary {
        if let Ok(mut state) = self.state.lock() {
            while self.combine(&mut state) > 0 {}
        }
        let (state, died) = match self.state.into_inner() {
            Ok(state) => (state, false),
            Err(poisoned) => (poisoned.into_inner(), true),
        };
        let core = &state.core;
        let (store_ops, trigger_firings, export_raw) =
            (core.ops(), core.trigger_firings(), core.export_raw());
        ShardSummary { store_ops, trigger_firings, died, export_raw, ..state.summary }
    }
}

/// A reply the caller has not collected yet — lets tests and load
/// generators pipeline submissions past a held shard.
pub struct Pending<'a> {
    shard: &'a Shard,
    index: usize,
    reply: ReplySlot,
}

impl fmt::Debug for Pending<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Pending").field("shard", &self.index).finish_non_exhaustive()
    }
}

impl Pending<'_> {
    /// Returns the reply once the request is applied; until then this
    /// thread takes the shard's lock and combines.
    ///
    /// # Errors
    ///
    /// [`ServeError::ShardUnavailable`] when the shard died first.
    pub fn wait(self) -> Result<ServeResponse, ServeError> {
        let unavailable = ServeError::ShardUnavailable { shard: self.index };
        loop {
            if let Some(resp) = take_reply(&self.reply) {
                return Ok(resp);
            }
            let Ok(mut state) = self.shard.state.lock() else {
                // a reply filled before the shard died still stands
                return take_reply(&self.reply).ok_or(unavailable);
            };
            if let Some(resp) = take_reply(&self.reply) {
                return Ok(resp);
            }
            // an unfilled request is still queued: a pass that took it
            // filled it before unlocking, or died and poisoned the lock
            if self.shard.combine(&mut state) == 0 {
                return Err(unavailable);
            }
        }
    }
}

/// Guard returned by [`ServeTier::hold_shard`]: it holds the shard's
/// combiner lock, so nothing applies there until it drops (or
/// [`HoldGuard::release`] is called).
#[derive(Debug)]
pub struct HoldGuard<'a> {
    _state: MutexGuard<'a, ShardState>,
}

impl HoldGuard<'_> {
    /// Lets the held shard combine again.
    pub fn release(self) {}
}

/// The running tier.
pub struct ServeTier {
    router: ShardRouter,
    shards: Vec<Shard>,
    queue_capacity: usize,
    shed: AtomicU64,
    shed_counter: Option<Arc<Counter>>,
    burn_state: Option<Arc<BurnState>>,
    burn_admission: bool,
    burn_shed_counter: Option<Arc<Counter>>,
}

impl ServeTier {
    /// Starts `cfg.n_shards` shards. With `obs`, shed/depth/batch/op counts
    /// and recovery accounting flow into the registry under `coda_serve_*`
    /// names.
    ///
    /// # Panics
    ///
    /// Panics if `n_shards`, `queue_capacity` or `batch_max` is zero.
    pub fn start_obs(cfg: &ServeConfig, obs: Option<&Obs>) -> Self {
        assert!(cfg.n_shards > 0, "need at least one shard");
        assert!(cfg.queue_capacity > 0, "need a nonzero queue");
        assert!(cfg.batch_max > 0, "need a nonzero batch cap");
        let shards = (0..cfg.n_shards)
            .map(|i| {
                let name = format!("shard-{i}");
                let mut core =
                    ShardCore::new(&name, cfg.history_depth, cfg.snapshot_every, cfg.trigger);
                if let Some(o) = obs {
                    core.attach_obs(o.clone());
                }
                let points =
                    cfg.plan.points().iter().filter(|p| p.node == name).map(|p| (p.at_op, false));
                Shard {
                    state: Mutex::new(ShardState {
                        core,
                        summary: ShardSummary { name: name.clone(), ..ShardSummary::default() },
                        points: points.collect(),
                        batch: Vec::with_capacity(cfg.batch_max),
                    }),
                    queue: Mutex::new(VecDeque::with_capacity(cfg.queue_capacity)),
                    batch_max: cfg.batch_max,
                    metrics: obs.map(|o| ShardMetrics::new(o, &name)),
                }
            })
            .collect();
        ServeTier {
            router: ShardRouter::new(cfg.n_shards),
            shards,
            queue_capacity: cfg.queue_capacity,
            shed: AtomicU64::new(0),
            shed_counter: obs.map(|o| o.registry().counter("coda_serve_shed_total")),
            burn_state: cfg.burn_state.clone(),
            burn_admission: cfg.burn_admission,
            burn_shed_counter: obs.map(|o| o.registry().counter("coda_serve_burn_shed_total")),
        }
    }

    /// The shard count.
    pub fn n_shards(&self) -> usize {
        self.router.n_shards()
    }

    /// Requests shed so far.
    pub fn shed_total(&self) -> u64 {
        self.shed.load(Ordering::Relaxed)
    }

    fn count_shed(&self) {
        self.shed.fetch_add(1, Ordering::Relaxed);
        if let Some(c) = &self.shed_counter {
            c.inc();
        }
    }

    /// Routes and publishes `req` without applying it. This *is* the
    /// admission-control edge: a full queue sheds immediately.
    ///
    /// # Errors
    ///
    /// [`ServeError::Overloaded`] when the owning shard's bounded queue is
    /// full; [`ServeError::ShardUnavailable`] when the shard died.
    pub fn submit_nowait(&self, req: ServeRequest) -> Result<Pending<'_>, ServeError> {
        let index = self.router.route(&req);
        // SLO-burn back-pressure: when opted in and the attached burn state
        // reports an active breach, shed before publishing — the tier
        // trades availability for recovery headroom. Observational mode
        // (the default) never touches this branch.
        if self.burn_admission && self.burn_state.as_ref().is_some_and(|s| s.breached()) {
            self.count_shed();
            if let Some(c) = &self.burn_shed_counter {
                c.inc();
            }
            return Err(ServeError::Overloaded { shard: index });
        }
        let shard = &self.shards[index];
        if shard.state.is_poisoned() {
            return Err(ServeError::ShardUnavailable { shard: index });
        }
        let reply = ReplySlot::default();
        let published_ms = shard.metrics.as_ref().map_or(0.0, |m| m.obs.now_ms());
        {
            let mut queue = shard.queue.lock().unwrap_or_else(PoisonError::into_inner);
            if queue.len() >= self.queue_capacity {
                drop(queue);
                self.count_shed();
                return Err(ServeError::Overloaded { shard: index });
            }
            queue.push_back(Published { req, reply: Arc::clone(&reply), published_ms });
        }
        if let Some(m) = &shard.metrics {
            m.depth.add(1.0);
        }
        Ok(Pending { shard, index, reply })
    }

    /// [`ServeTier::submit_nowait`] then [`Pending::wait`]: a closed-loop
    /// round trip, applied on this thread unless another thread's pass did.
    ///
    /// # Errors
    ///
    /// Same as those two.
    pub fn submit(&self, req: ServeRequest) -> Result<ServeResponse, ServeError> {
        self.submit_nowait(req)?.wait()
    }

    /// Control-plane clock broadcast: advances every live shard's store and
    /// DARR clocks by `ticks`, each after it applied everything published
    /// before the broadcast, so logical clocks stay equal tier-wide.
    pub fn advance_clock(&self, ticks: u64) {
        for shard in &self.shards {
            let Ok(mut state) = shard.state.lock() else { continue };
            let mut due = shard.queue.lock().unwrap_or_else(PoisonError::into_inner).len();
            while due > 0 {
                due = due.saturating_sub(shard.combine(&mut state).max(1));
            }
            state.core.advance_clock(ticks);
        }
    }

    /// Test/bench hook: takes shard `shard`'s combiner lock once no pass is
    /// running there. While held, nothing applies on that shard and its
    /// queue fills, so admission control is observable deterministically.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    pub fn hold_shard(&self, shard: usize) -> HoldGuard<'_> {
        let state = self.shards[shard].state.lock();
        HoldGuard { _state: state.unwrap_or_else(PoisonError::into_inner) }
    }

    /// Shuts the tier down: each shard applies whatever is still published;
    /// the report lists every shard, in order, with its state.
    pub fn finish(self) -> TierReport {
        let shed_total = self.shed.load(Ordering::Relaxed);
        TierReport { shards: self.shards.into_iter().map(Shard::finish).collect(), shed_total }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use coda_darr::{ClaimOutcome, ComputationKey};

    fn put(id: &str, fill: u8) -> ServeRequest {
        ServeRequest::Put { id: id.to_string(), data: Bytes::from(vec![fill; 64]) }
    }

    #[test]
    fn requests_route_and_apply_across_shards() {
        let tier =
            ServeTier::start_obs(&ServeConfig { n_shards: 4, ..ServeConfig::default() }, None);
        for i in 0..40 {
            let ServeResponse::Put { version, .. } =
                tier.submit(put(&format!("obj-{i}"), i as u8)).expect("admitted")
            else {
                panic!("put answers Put")
            };
            assert_eq!(version, 1);
        }
        let key = ComputationKey::new("ds", 1, "p1", "kfold(3)", "rmse");
        let ServeResponse::Claim(ClaimOutcome::Claimed) = tier
            .submit(ServeRequest::Claim { key: key.clone(), client: "c0".into(), duration: 50 })
            .expect("admitted")
        else {
            panic!("first claim wins")
        };
        let ServeResponse::Claim(ClaimOutcome::HeldBy(owner)) = tier
            .submit(ServeRequest::Claim { key, client: "c1".into(), duration: 50 })
            .expect("admitted")
        else {
            panic!("second claim is refused")
        };
        assert_eq!(owner, "c0");
        let report = tier.finish();
        assert_eq!(report.total_ops(), 42);
        assert!(report.shards.iter().all(|s| s.ops_applied > 0), "spread: {report:?}");
        assert_eq!(report.shed_total, 0);
    }

    /// Satellite: queue-full load shed is a typed error with exact
    /// counters, and a drained queue resumes admission.
    #[test]
    fn admission_control_sheds_exactly_and_resumes() {
        let obs = Obs::deterministic();
        let cfg = ServeConfig { n_shards: 1, queue_capacity: 4, ..ServeConfig::default() };
        let tier = ServeTier::start_obs(&cfg, Some(&obs));
        let hold = tier.hold_shard(0);

        // deterministic burst: 4 fit the queue, the next 3 must shed
        let mut pendings = Vec::new();
        for i in 0..4 {
            pendings.push(tier.submit_nowait(put(&format!("o{i}"), 1)).expect("fits the queue"));
        }
        for i in 0..3 {
            let err = tier.submit_nowait(put(&format!("x{i}"), 1));
            assert_eq!(err.unwrap_err(), ServeError::Overloaded { shard: 0 }, "typed, not silent");
        }
        assert_eq!(tier.shed_total(), 3, "every shed is counted exactly");
        let snap = obs.registry().snapshot();
        assert_eq!(snap.counter("coda_serve_shed_total"), 3);
        let depth = obs.registry().gauge("coda_serve_queue_depth").get();
        assert!((depth - 4.0).abs() < f64::EPSILON, "queue depth must be exact, got {depth}");

        // drain: release the hold, collect every queued reply
        hold.release();
        for p in pendings {
            let ServeResponse::Put { version, .. } = p.wait().expect("queued op completes") else {
                panic!("put answers Put")
            };
            assert_eq!(version, 1);
        }
        // a drained queue resumes admission
        let ServeResponse::Put { .. } = tier.submit(put("resumed", 2)).expect("admission resumed")
        else {
            panic!("put answers Put")
        };
        let depth = obs.registry().gauge("coda_serve_queue_depth").get();
        assert!(depth.abs() < f64::EPSILON, "drained queue depth must return to 0, got {depth}");
        assert_eq!(tier.shed_total(), 3, "no new sheds after the drain");
        let report = tier.finish();
        assert_eq!(report.shed_total, 3);
        assert_eq!(report.total_ops(), 5);
    }

    /// Tentpole equivalence gate: attaching a burn state WITHOUT opting
    /// into burn admission must reproduce the exact shed counts of the
    /// hook-free tier, even while the state screams "breached".
    #[test]
    fn an_observational_burn_hook_changes_nothing() {
        let obs = Obs::deterministic();
        let burn = Arc::new(BurnState::new());
        burn.update(9.0, true); // breached the whole time — and ignored
        let cfg = ServeConfig {
            n_shards: 1,
            queue_capacity: 4,
            burn_state: Some(burn),
            burn_admission: false,
            ..ServeConfig::default()
        };
        let tier = ServeTier::start_obs(&cfg, Some(&obs));
        let hold = tier.hold_shard(0);
        let mut pendings = Vec::new();
        for i in 0..4 {
            pendings.push(tier.submit_nowait(put(&format!("o{i}"), 1)).expect("fits the queue"));
        }
        for i in 0..3 {
            let err = tier.submit_nowait(put(&format!("x{i}"), 1));
            assert_eq!(err.unwrap_err(), ServeError::Overloaded { shard: 0 });
        }
        hold.release();
        for p in pendings {
            p.wait().expect("queued op completes");
        }
        // byte-for-byte the queue-full scenario: 3 sheds, none burn-driven
        assert_eq!(tier.shed_total(), 3);
        let snap = obs.registry().snapshot();
        assert_eq!(snap.counter("coda_serve_shed_total"), 3);
        assert_eq!(snap.counter("coda_serve_burn_shed_total"), 0, "observational hooks never shed");
        let report = tier.finish();
        assert_eq!(report.total_ops(), 4);
        assert_eq!(report.shed_total, 3);
    }

    /// With admission opted in, a breached burn state sheds at the edge
    /// (typed error + dedicated counter) and clears the moment the SLO
    /// recovers — no queue interaction required.
    #[test]
    fn burn_admission_sheds_while_breached_and_recovers() {
        let obs = Obs::deterministic();
        let burn = Arc::new(BurnState::new());
        let cfg = ServeConfig {
            n_shards: 1,
            queue_capacity: 8,
            burn_state: Some(burn.clone()),
            burn_admission: true,
            ..ServeConfig::default()
        };
        let tier = ServeTier::start_obs(&cfg, Some(&obs));

        // healthy: admits normally
        tier.submit(put("before", 1)).expect("healthy SLO admits");

        // breached: every new request sheds before it is published
        burn.update(4.0, true);
        for i in 0..3 {
            let err = tier.submit_nowait(put(&format!("b{i}"), 1));
            assert_eq!(err.unwrap_err(), ServeError::Overloaded { shard: 0 });
        }
        let snap = obs.registry().snapshot();
        assert_eq!(snap.counter("coda_serve_burn_shed_total"), 3);
        assert_eq!(snap.counter("coda_serve_shed_total"), 3, "burn sheds count in the shed total");

        // recovered: admission resumes immediately
        burn.update(0.2, false);
        tier.submit(put("after", 2)).expect("recovered SLO admits");
        let report = tier.finish();
        assert_eq!(report.total_ops(), 2);
        assert_eq!(report.shed_total, 3);
    }

    #[test]
    fn batching_coalesces_a_backlog() {
        let obs = Obs::deterministic();
        let cfg =
            ServeConfig { n_shards: 1, queue_capacity: 32, batch_max: 8, ..ServeConfig::default() };
        let tier = ServeTier::start_obs(&cfg, Some(&obs));
        let hold = tier.hold_shard(0);
        let pendings: Vec<Pending> =
            (0..16).map(|i| tier.submit_nowait(put(&format!("o{i}"), 1)).expect("fits")).collect();
        hold.release();
        for p in pendings {
            p.wait().expect("completes");
        }
        let tier_report = tier.finish();
        assert_eq!(tier_report.total_ops(), 16);
        let snap = obs.registry().snapshot();
        let batches = snap.counter("coda_serve_batches");
        assert!(batches < 16, "16 queued ops must coalesce into fewer passes, got {batches}");
        assert_eq!(snap.counter("coda_serve_ops_total"), 16);
    }

    /// Tentpole: the latency decomposition splits queue wait (admission →
    /// pickup) from service time (inside apply), aggregate and per-shard,
    /// deterministically under a manual clock — the signal `diagnose` uses
    /// to tell an overloaded shard from a slow operator.
    #[test]
    fn queue_wait_vs_service_decomposition_is_deterministic() {
        let obs = Obs::deterministic();
        let cfg = ServeConfig { n_shards: 2, queue_capacity: 8, ..ServeConfig::default() };
        let tier = ServeTier::start_obs(&cfg, Some(&obs));

        // a closed-loop op on shard 1: picked up at the same logical time
        // it was admitted, so wait and service are exactly zero
        let mut i = 0;
        let shard1_req = loop {
            let req = put(&format!("s1-{i}"), 1);
            i += 1;
            if tier.router.route(&req) == 1 {
                break req;
            }
        };
        tier.submit(shard1_req).expect("admitted");

        // three ops queue against a held shard 0, then the clock advances
        // 40 ms before the hold lifts: each waited exactly 40 ms
        let hold = tier.hold_shard(0);
        let mut pendings = Vec::new();
        while pendings.len() < 3 {
            let req = put(&format!("s0-{i}"), 1);
            i += 1;
            if tier.router.route(&req) != 0 {
                continue;
            }
            pendings.push(tier.submit_nowait(req).expect("fits the queue"));
        }
        obs.sync_manual_ms(40.0);
        hold.release();
        for p in pendings {
            p.wait().expect("queued op completes");
        }

        let snap = obs.registry().snapshot();
        let wait = &snap.histograms["coda_serve_queue_wait_ms"];
        assert_eq!(wait.count, 4);
        assert!((wait.sum - 120.0).abs() < 1e-9, "3 held ops x 40 ms: {wait:?}");
        let wait0 = &snap.histograms[&labeled_name("coda_serve_queue_wait_ms", "shard", "shard-0")];
        assert_eq!(wait0.count, 3);
        assert!((wait0.sum - 120.0).abs() < 1e-9, "the held shard owns all the wait");
        let wait1 = &snap.histograms[&labeled_name("coda_serve_queue_wait_ms", "shard", "shard-1")];
        assert_eq!(wait1.count, 1);
        assert_eq!(wait1.sum, 0.0, "closed-loop shard-1 op never waited");
        let service = &snap.histograms["coda_serve_service_ms"];
        assert_eq!(service.count, 4);
        assert_eq!(service.sum, 0.0, "the manual clock never moves inside apply");
        let report = tier.finish();
        assert_eq!(report.total_ops(), 4);
    }

    #[test]
    fn advance_clock_keeps_every_shard_in_lockstep() {
        let tier =
            ServeTier::start_obs(&ServeConfig { n_shards: 3, ..ServeConfig::default() }, None);
        for i in 0..9 {
            tier.submit(put(&format!("obj-{i}"), 3)).expect("admitted");
        }
        tier.advance_clock(11);
        let report = tier.finish();
        let canonical = report.canonical_state();
        assert!(canonical.contains("clock=11"), "clocks must agree: {canonical}");
        assert!(!canonical.contains("mixed"), "no shard may lag the broadcast");
    }

    #[test]
    fn crash_plan_points_fire_per_shard_and_recover_byte_identically() {
        let obs = Obs::deterministic();
        let cfg = ServeConfig {
            n_shards: 2,
            snapshot_every: 3,
            plan: CrashPlan::new().with_crash_at("shard-0", 4, Some(0.0)),
            ..ServeConfig::default()
        };
        let tier = ServeTier::start_obs(&cfg, Some(&obs));
        for i in 0..24 {
            tier.submit(put(&format!("obj-{i}"), i as u8)).expect("admitted");
        }
        let report = tier.finish();
        let s0 = &report.shards[0];
        assert_eq!(s0.recoveries, 1, "the plan's point must fire on shard-0");
        assert_eq!(s0.recoveries_byte_identical, 1, "WAL replay must be exact");
        assert_eq!(s0.recovery_mismatches, 0);
        assert_eq!(report.shards[1].recoveries, 0, "shard-1 was never scheduled");
        assert_eq!(obs.registry().snapshot().counter("coda_serve_recoveries_byte_identical"), 1);
    }

    /// A submitter combines on its own thread, but the requests it applies
    /// must not join the trace of whatever span that thread has open:
    /// `store.put` stays a root, and the caller's span is current again
    /// afterwards.
    #[test]
    fn a_combining_caller_does_not_adopt_the_request_into_its_trace() {
        let obs = Obs::deterministic();
        let tier = ServeTier::start_obs(
            &ServeConfig { n_shards: 1, ..ServeConfig::default() },
            Some(&obs),
        );
        let caller = obs.span("client.request", &[]);
        tier.submit(put("o1", 1)).expect("admitted");
        assert_eq!(obs.tracer().current_context(), Some(caller.context()));
        drop(caller);
        let starts: Vec<_> = obs
            .tracer()
            .events()
            .into_iter()
            .filter(|e| e.name == "store.put" && e.kind == coda_obs::EventKind::SpanStart)
            .collect();
        assert_eq!(starts.len(), 1, "the put is traced once");
        assert_eq!(starts[0].parent, None, "store.put must stay a root");
        tier.finish();
    }

    /// A panic under a shard's lock kills that shard alone: its queued and
    /// new requests answer `ShardUnavailable` at once, the other shard
    /// keeps serving, and `finish` still reports both shards, in order.
    #[test]
    fn a_panic_under_a_shard_lock_fails_that_shard_fast() {
        let tier =
            ServeTier::start_obs(&ServeConfig { n_shards: 2, ..ServeConfig::default() }, None);
        let on_shard = |shard: usize, skip: usize| {
            (0..)
                .map(|i| put(&format!("o{i}"), 1))
                .filter(|req| tier.router.route(req) == shard)
                .nth(skip)
                .expect("some id routes to every shard")
        };
        let queued = tier.submit_nowait(on_shard(0, 0)).expect("admitted");
        std::thread::scope(|s| {
            let holder = s.spawn(|| {
                let _hold = tier.hold_shard(0);
                panic!("injected panic while shard 0 is held");
            });
            assert!(holder.join().is_err(), "the holder panicked");
        });
        let unavailable = ServeError::ShardUnavailable { shard: 0 };
        assert_eq!(queued.wait().unwrap_err(), unavailable, "a queued request resolves");
        assert_eq!(tier.submit(on_shard(0, 1)).unwrap_err(), unavailable, "new submits fail fast");
        assert_eq!(tier.submit_nowait(on_shard(0, 2)).unwrap_err(), unavailable);
        let ServeResponse::Put { version, .. } =
            tier.submit(on_shard(1, 0)).expect("shard 1 serves")
        else {
            panic!("put answers Put")
        };
        assert_eq!(version, 1);
        tier.advance_clock(3);
        let report = tier.finish();
        let shards: Vec<_> =
            report.shards.iter().map(|s| (s.name.as_str(), s.died, s.ops_applied)).collect();
        assert_eq!(shards, [("shard-0", true, 0), ("shard-1", false, 1)]);
    }
}
