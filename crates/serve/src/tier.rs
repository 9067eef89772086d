//! The serving tier: N single-writer worker shards behind bounded MPSC
//! mailboxes, with admission control at the submit edge and request
//! batching at the worker edge.
//!
//! Life of a request: [`ServeTier::submit`] routes it by stable key hash,
//! `try_send`s the envelope into the owning shard's bounded mailbox —
//! a full mailbox sheds the request *right there* with
//! [`ServeError::Overloaded`] (counted under `coda_serve_shed_total`,
//! queue occupancy tracked exactly by the `coda_serve_queue_depth` gauge)
//! — and the shard's worker thread drains its mailbox in batches of up to
//! `batch_max`, applying each request against the [`ShardCore`] it alone
//! owns. No locks are shared between shards; the only synchronization in
//! the data path is the mailbox channel itself.
//!
//! Chaos composes per shard: a [`CrashPlan`] point addressed to node
//! `shard-{i}` fires the moment that shard's WAL reaches the planned
//! operation count — the worker exports, crashes the store to its durable
//! image, replays the WAL, and proves the recovery byte-identical, all
//! while the other shards keep serving.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, Sender, SyncSender, TrySendError};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;

use coda_chaos::CrashPlan;
use coda_obs::{labeled_name, BurnState, Counter, Gauge, Histogram, Obs, DEFAULT_MS_BOUNDS};

use crate::request::{ServeError, ServeRequest, ServeResponse};
use crate::router::ShardRouter;
use crate::shard::{merge_canonical_exports, ShardCore, TriggerPolicy};

/// Histogram bounds for the per-wakeup batch size.
const BATCH_BOUNDS: &[f64] = &[1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0];

/// Tier configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker shards (threads).
    pub n_shards: usize,
    /// Bounded mailbox capacity per shard — the admission-control knob.
    pub queue_capacity: usize,
    /// Maximum requests a worker drains per wakeup.
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
    /// sheds new data-plane requests before they enqueue (counted under
    /// `coda_serve_burn_shed_total` as well as the shed total). `false` —
    /// the default — keeps the hook purely observational: attaching a
    /// burn state changes nothing (equivalence-gated in tests).
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
#[derive(Debug, Clone, PartialEq)]
pub struct ShardSummary {
    /// The shard's node name (`shard-{i}`).
    pub name: String,
    /// Requests the worker applied.
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

/// One message on a shard's mailbox.
enum ShardMsg {
    /// A data-plane request, its reply channel, and the clock reading at
    /// the admission edge — the worker's wakeup time minus this is the
    /// request's queue wait, the half of end-to-end latency that blames
    /// overload rather than slow service.
    Op { req: ServeRequest, reply: Sender<ServeResponse>, enqueued_ms: f64 },
    /// Control-plane clock broadcast; acks on `done`.
    Advance { ticks: u64, done: Sender<()> },
    /// Test/bench hook: park the worker until `release` disconnects, so a
    /// burst against a deliberately-stalled shard is deterministic.
    Hold { entered: Sender<()>, release: Receiver<()> },
}

/// A reply the caller has not collected yet — lets tests and load
/// generators pipeline submissions past a slow shard.
#[derive(Debug)]
pub struct Pending {
    shard: usize,
    rx: Receiver<ServeResponse>,
}

impl Pending {
    /// Blocks until the owning shard replies.
    ///
    /// # Errors
    ///
    /// [`ServeError::ShardUnavailable`] when the worker stopped before
    /// replying.
    pub fn wait(self) -> Result<ServeResponse, ServeError> {
        self.rx.recv().map_err(|_| ServeError::ShardUnavailable { shard: self.shard })
    }
}

/// Guard returned by [`ServeTier::hold_shard`]; dropping it (or calling
/// [`HoldGuard::release`]) unparks the worker.
#[derive(Debug)]
pub struct HoldGuard {
    _release: Sender<()>,
}

impl HoldGuard {
    /// Unparks the held worker.
    pub fn release(self) {}
}

/// Per-worker cached instrumentation.
struct WorkerMetrics {
    ops: Arc<Counter>,
    batches: Arc<Counter>,
    batch_size: Arc<Histogram>,
    depth: Arc<Gauge>,
    recoveries: Arc<Counter>,
    byte_identical: Arc<Counter>,
    mismatches: Arc<Counter>,
    /// Queue-wait decomposition: time between admission and the worker
    /// picking the request up — aggregate plus this shard's labeled split
    /// (`coda_serve_queue_wait_ms{shard="shard-N"}`).
    queue_wait: Arc<Histogram>,
    queue_wait_shard: Arc<Histogram>,
    /// Service-time decomposition: time inside `ShardCore::apply`.
    service: Arc<Histogram>,
    service_shard: Arc<Histogram>,
}

/// What a worker thread hands back when its mailbox closes.
struct ShardState {
    core: ShardCore,
    ops_applied: u64,
    recoveries: u64,
    recoveries_byte_identical: u64,
    recovery_mismatches: u64,
}

/// The running tier.
pub struct ServeTier {
    router: ShardRouter,
    mailboxes: Vec<SyncSender<ShardMsg>>,
    workers: Vec<JoinHandle<ShardState>>,
    shed: Arc<AtomicU64>,
    shed_counter: Option<Arc<Counter>>,
    depth_gauge: Option<Arc<Gauge>>,
    burn_state: Option<Arc<BurnState>>,
    burn_admission: bool,
    burn_shed_counter: Option<Arc<Counter>>,
    /// Clock source for the queue-wait decomposition (admission stamps).
    obs: Option<Obs>,
}

impl ServeTier {
    /// Starts `cfg.n_shards` worker threads. With `obs`, shed/depth/batch/op
    /// counts and recovery accounting flow into the registry under
    /// `coda_serve_*` names.
    ///
    /// # Panics
    ///
    /// Panics if `n_shards`, `queue_capacity` or `batch_max` is zero.
    pub fn start_obs(cfg: &ServeConfig, obs: Option<&Obs>) -> Self {
        assert!(cfg.n_shards > 0, "need at least one shard");
        assert!(cfg.queue_capacity > 0, "need a nonzero mailbox");
        assert!(cfg.batch_max > 0, "need a nonzero batch cap");
        let router = ShardRouter::new(cfg.n_shards);
        let mut mailboxes = Vec::with_capacity(cfg.n_shards);
        let mut workers = Vec::with_capacity(cfg.n_shards);
        for i in 0..cfg.n_shards {
            let name = format!("shard-{i}");
            let (tx, rx) = mpsc::sync_channel::<ShardMsg>(cfg.queue_capacity);
            let mut core =
                ShardCore::new(&name, cfg.history_depth, cfg.snapshot_every, cfg.trigger);
            if let Some(o) = obs {
                core.attach_obs(o.clone());
            }
            let metrics = obs.map(|o| WorkerMetrics {
                ops: o.registry().counter("coda_serve_ops_total"),
                batches: o.registry().counter("coda_serve_batches"),
                batch_size: o.registry().histogram("coda_serve_batch_size", BATCH_BOUNDS),
                depth: o.registry().gauge("coda_serve_queue_depth"),
                recoveries: o.registry().counter("coda_serve_recoveries"),
                byte_identical: o.registry().counter("coda_serve_recoveries_byte_identical"),
                mismatches: o.registry().counter("coda_serve_recovery_mismatches"),
                queue_wait: o.registry().histogram("coda_serve_queue_wait_ms", DEFAULT_MS_BOUNDS),
                queue_wait_shard: o.registry().histogram(
                    &labeled_name("coda_serve_queue_wait_ms", "shard", &name),
                    DEFAULT_MS_BOUNDS,
                ),
                service: o.registry().histogram("coda_serve_service_ms", DEFAULT_MS_BOUNDS),
                service_shard: o.registry().histogram(
                    &labeled_name("coda_serve_service_ms", "shard", &name),
                    DEFAULT_MS_BOUNDS,
                ),
            });
            // this shard's crash points, in plan order (each fires once)
            let points: Vec<u64> =
                cfg.plan.points().iter().filter(|p| p.node == name).map(|p| p.at_op).collect();
            let batch_max = cfg.batch_max;
            let worker_obs = obs.cloned();
            workers.push(std::thread::spawn(move || {
                worker_loop(core, rx, batch_max, points, metrics, worker_obs)
            }));
            mailboxes.push(tx);
        }
        ServeTier {
            router,
            mailboxes,
            workers,
            shed: Arc::new(AtomicU64::new(0)),
            shed_counter: obs.map(|o| o.registry().counter("coda_serve_shed_total")),
            depth_gauge: obs.map(|o| o.registry().gauge("coda_serve_queue_depth")),
            burn_state: cfg.burn_state.clone(),
            burn_admission: cfg.burn_admission,
            burn_shed_counter: obs.map(|o| o.registry().counter("coda_serve_burn_shed_total")),
            obs: obs.cloned(),
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

    /// Routes and enqueues `req` without waiting for the reply. This *is*
    /// the admission-control edge: a full mailbox sheds immediately.
    ///
    /// # Errors
    ///
    /// [`ServeError::Overloaded`] when the owning shard's bounded mailbox
    /// is full; [`ServeError::ShardUnavailable`] when its worker stopped.
    pub fn submit_nowait(&self, req: ServeRequest) -> Result<Pending, ServeError> {
        let shard = self.router.route(&req);
        // SLO-burn back-pressure: when opted in and the attached burn state
        // reports an active breach, shed before enqueueing — the tier
        // trades availability for recovery headroom. Observational mode
        // (the default) never touches this branch.
        if self.burn_admission {
            if let Some(state) = &self.burn_state {
                if state.breached() {
                    self.shed.fetch_add(1, Ordering::Relaxed);
                    if let Some(c) = &self.shed_counter {
                        c.inc();
                    }
                    if let Some(c) = &self.burn_shed_counter {
                        c.inc();
                    }
                    return Err(ServeError::Overloaded { shard });
                }
            }
        }
        let (reply_tx, reply_rx) = mpsc::channel();
        let enqueued_ms = self.obs.as_ref().map_or(0.0, Obs::now_ms);
        match self.mailboxes[shard].try_send(ShardMsg::Op { req, reply: reply_tx, enqueued_ms }) {
            Ok(()) => {
                if let Some(g) = &self.depth_gauge {
                    g.add(1.0);
                }
                Ok(Pending { shard, rx: reply_rx })
            }
            Err(TrySendError::Full(_)) => {
                self.shed.fetch_add(1, Ordering::Relaxed);
                if let Some(c) = &self.shed_counter {
                    c.inc();
                }
                Err(ServeError::Overloaded { shard })
            }
            Err(TrySendError::Disconnected(_)) => Err(ServeError::ShardUnavailable { shard }),
        }
    }

    /// Routes `req` to its shard and waits for the reply (closed loop).
    ///
    /// # Errors
    ///
    /// Same as [`ServeTier::submit_nowait`], plus
    /// [`ServeError::ShardUnavailable`] if the worker stops mid-request.
    pub fn submit(&self, req: ServeRequest) -> Result<ServeResponse, ServeError> {
        self.submit_nowait(req)?.wait()
    }

    /// Control-plane clock broadcast: advances every shard's store and
    /// DARR clocks by `ticks`, blocking until all shards applied it, so
    /// logical clocks stay equal tier-wide. Control traffic is always
    /// admitted (it uses blocking sends, not `try_send`).
    pub fn advance_clock(&self, ticks: u64) {
        let mut acks = Vec::with_capacity(self.mailboxes.len());
        for tx in &self.mailboxes {
            let (done_tx, done_rx) = mpsc::channel();
            if tx.send(ShardMsg::Advance { ticks, done: done_tx }).is_ok() {
                acks.push(done_rx);
            }
        }
        for rx in acks {
            let _ = rx.recv();
        }
    }

    /// Test/bench hook: parks shard `shard`'s worker after it drains its
    /// current message, returning once the worker is provably parked. While
    /// held, the mailbox fills and admission control is observable
    /// deterministically. Dropping the guard unparks the worker.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    pub fn hold_shard(&self, shard: usize) -> HoldGuard {
        let (entered_tx, entered_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel();
        let msg = ShardMsg::Hold { entered: entered_tx, release: release_rx };
        if self.mailboxes[shard].send(msg).is_ok() {
            let _ = entered_rx.recv();
        }
        HoldGuard { _release: release_tx }
    }

    /// Shuts the tier down: closes every mailbox, joins every worker, and
    /// returns the per-shard summaries plus the canonical state they
    /// carry.
    pub fn finish(self) -> TierReport {
        drop(self.mailboxes);
        let mut shards = Vec::with_capacity(self.workers.len());
        for handle in self.workers {
            if let Ok(state) = handle.join() {
                shards.push(ShardSummary {
                    name: state.core.name().to_string(),
                    ops_applied: state.ops_applied,
                    store_ops: state.core.ops(),
                    trigger_firings: state.core.trigger_firings(),
                    recoveries: state.recoveries,
                    recoveries_byte_identical: state.recoveries_byte_identical,
                    recovery_mismatches: state.recovery_mismatches,
                    export_raw: state.core.export_raw(),
                });
            }
        }
        TierReport { shards, shed_total: self.shed.load(Ordering::Relaxed) }
    }
}

/// The worker loop: blocking-recv one message, opportunistically drain up
/// to `batch_max` in the same wakeup, apply in arrival order, fire any due
/// crash points, reply. Returns the shard's final state when the mailbox
/// closes.
fn worker_loop(
    mut core: ShardCore,
    rx: Receiver<ShardMsg>,
    batch_max: usize,
    points: Vec<u64>,
    metrics: Option<WorkerMetrics>,
    obs: Option<Obs>,
) -> ShardState {
    let mut fired = vec![false; points.len()];
    let mut state_ops = 0u64;
    let mut recoveries = 0u64;
    let mut byte_identical = 0u64;
    let mut mismatches = 0u64;
    loop {
        let Ok(first) = rx.recv() else { break };
        let mut batch = vec![first];
        while batch.len() < batch_max {
            match rx.try_recv() {
                Ok(msg) => batch.push(msg),
                Err(_) => break,
            }
        }
        let n_ops = batch.iter().filter(|m| matches!(m, ShardMsg::Op { .. })).count();
        if let Some(m) = &metrics {
            if n_ops > 0 {
                m.batches.inc();
                m.batch_size.observe(n_ops as f64);
                m.depth.add(-(n_ops as f64));
            }
        }
        for msg in batch {
            match msg {
                ShardMsg::Op { req, reply, enqueued_ms } => {
                    // queue-wait vs service-time decomposition: wait is the
                    // admission-to-pickup gap (overload signature), service
                    // is the time inside apply (slow-operator signature)
                    let picked_up_ms = obs.as_ref().map_or(0.0, Obs::now_ms);
                    let resp = core.apply(req);
                    state_ops += 1;
                    if let Some(m) = &metrics {
                        m.ops.inc();
                        let wait = (picked_up_ms - enqueued_ms).max(0.0);
                        m.queue_wait.observe(wait);
                        m.queue_wait_shard.observe(wait);
                        let done_ms = obs.as_ref().map_or(picked_up_ms, Obs::now_ms);
                        let service = (done_ms - picked_up_ms).max(0.0);
                        m.service.observe(service);
                        m.service_shard.observe(service);
                    }
                    let _ = reply.send(resp);
                    // crash points key on the WAL operation count, exactly
                    // like the PR-6 recovery driver
                    for (i, &at_op) in points.iter().enumerate() {
                        if !fired[i] && core.ops() >= at_op {
                            fired[i] = true;
                            let (_, ok) = core.crash_recover(obs.as_ref());
                            recoveries += 1;
                            if ok {
                                byte_identical += 1;
                            } else {
                                mismatches += 1;
                            }
                            if let Some(m) = &metrics {
                                m.recoveries.inc();
                                if ok {
                                    m.byte_identical.inc();
                                } else {
                                    m.mismatches.inc();
                                }
                            }
                        }
                    }
                }
                ShardMsg::Advance { ticks, done } => {
                    core.advance_clock(ticks);
                    let _ = done.send(());
                }
                ShardMsg::Hold { entered, release } => {
                    let _ = entered.send(());
                    let _ = release.recv(); // parked until the guard drops
                }
            }
        }
    }
    ShardState {
        core,
        ops_applied: state_ops,
        recoveries,
        recoveries_byte_identical: byte_identical,
        recovery_mismatches: mismatches,
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

        // deterministic burst: 4 fit the mailbox, the next 3 must shed
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

        // drain: release the worker, collect every queued reply
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

        // breached: every new request sheds before touching a mailbox
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
        assert!(batches < 16, "16 queued ops must coalesce into fewer wakeups, got {batches}");
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
        // 40 ms before the worker drains: each waited exactly 40 ms
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
}
