//! The serving workloads: closed-loop clients against a two-shard
//! [`ServeTier`], and the traced replay of the same requests through each
//! layer underneath it.

use std::collections::HashSet;
use std::sync::Barrier;
use std::time::{Duration, Instant};

use bytes::Bytes;
use coda_darr::{ClaimOutcome, ComputationKey, Darr};
use coda_obs::Obs;
use coda_serve::{
    ServeConfig, ServeError, ServeRequest, ServeResponse, ServeTier, ShardCore, ShardRouter,
    TriggerPolicy,
};
use coda_store::{DeltaCodec, DurableStore, FetchReply, HomeDataStore};

use crate::gen::{self, Kind, Op, ServeSpec, CLIENT_THREADS};
use crate::spans::Recorder;
use crate::stats;

/// Operations generated per client thread; the loop cycles through them.
const STREAM_LEN: usize = 1 << 17;
/// Requests (both threads together) after which peak memory is read, so
/// that a faster tier is not charged for doing more work in the same time.
pub const RSS_AT_REQUESTS: u64 = 100_000;
/// Claim lease length. The tier clock never advances during a run, so no
/// claim expires and every grant is final.
const CLAIM_TICKS: u64 = 1_000_000;
/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 15;
/// The timed phase is cut into this many equal windows; the end-to-end
/// figures are medians over windows, so a short disturbance from outside
/// the benchmark moves them less than it would a whole-run figure.
pub const WINDOWS: usize = 20;

/// D7's tier configuration at two shards.
pub fn tier_config() -> ServeConfig {
    ServeConfig {
        n_shards: 2,
        queue_capacity: 64,
        batch_max: 16,
        history_depth: 4,
        snapshot_every: 64,
        trigger: TriggerPolicy::Count(64),
        ..ServeConfig::default()
    }
}

/// Peak resident memory of this process so far, in KiB (`VmHWM`).
pub fn peak_rss_kib() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1).and_then(|v| v.parse().ok()))
        })
        .unwrap_or(0)
}

/// The workload's inputs, generated from the seed before anything is timed.
pub struct Inputs {
    /// The workload shape.
    pub spec: &'static ServeSpec,
    /// `obj-{i}` for every object.
    pub names: Vec<String>,
    /// The preloaded first version of every object.
    pub initial: Vec<Bytes>,
    /// One operation stream per client thread.
    pub streams: Vec<Vec<Op>>,
}

impl Inputs {
    /// Generates the inputs of `spec` for `seed`.
    pub fn new(spec: &'static ServeSpec, seed: u64) -> Self {
        let names = (0..spec.n_objects).map(|i| format!("obj-{i}")).collect();
        let initial = (0..spec.n_objects)
            .map(|i| Bytes::from(gen::fresh_value(i as u64, 1, spec.object_bytes)))
            .collect();
        let streams = (0..CLIENT_THREADS).map(|t| gen::stream(spec, seed, t, STREAM_LEN)).collect();
        Inputs { spec, names, initial, streams }
    }

    /// The preload requests: every object once.
    fn preload(&self) -> impl Iterator<Item = (String, Bytes)> + '_ {
        self.names.iter().cloned().zip(self.initial.iter().cloned())
    }
}

/// What a client still needs to know to check a reply.
#[derive(Debug, Clone)]
pub enum Pending {
    /// A put of `obj`; with region updates, the version it must create.
    Put { obj: usize, expect: Option<u64> },
    /// A pull of `obj` naming `named`; `keep` replaces the cached copy.
    Pull { obj: usize, named: Option<u64>, keep: bool },
    /// A claim of `key` by `client`.
    Claim { key: ComputationKey, client: String },
    /// The completion of a won claim.
    Complete { key: ComputationKey, client: String },
}

/// Counts of what the replies were, for the per-layer ratios.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    /// Requests answered without error.
    pub admitted: u64,
    /// Failed requests and failed checks.
    pub failed: u64,
    /// The first few failure messages.
    pub errors: Vec<String>,
    /// Pulls answered.
    pub pulls: u64,
    /// Pulls that named a held version.
    pub named_pulls: u64,
    /// Replies by kind.
    pub full: u64,
    /// Delta replies.
    pub delta: u64,
    /// UpToDate replies.
    pub up_to_date: u64,
    /// Wire bytes over all pull replies.
    pub wire_bytes: u64,
    /// Claims answered.
    pub claims: u64,
    /// Claims granted.
    pub wins: u64,
}

impl Tally {
    fn merge(&mut self, o: &Tally) {
        self.admitted += o.admitted;
        self.failed += o.failed;
        for e in &o.errors {
            if self.errors.len() < 5 {
                self.errors.push(e.clone());
            }
        }
        self.pulls += o.pulls;
        self.named_pulls += o.named_pulls;
        self.full += o.full;
        self.delta += o.delta;
        self.up_to_date += o.up_to_date;
        self.wire_bytes += o.wire_bytes;
        self.claims += o.claims;
        self.wins += o.wins;
    }
}

/// One client thread's view: the values it writes, the copies it caches,
/// and the checks it runs on every reply.
pub struct Client<'a> {
    inputs: &'a Inputs,
    thread: usize,
    puts: u64,
    /// Region writer: the current (version, value) of each object it owns.
    own: Vec<(u64, Vec<u8>)>,
    /// The cached (version, value) per object, named in pulls and claims.
    cache: Vec<(u64, Bytes)>,
    /// Highest version seen per object, from puts and pulls.
    seen: Vec<u64>,
    /// Version of this client's last put per object.
    last_put: Vec<u64>,
    /// Keys granted to this client.
    pub granted: Vec<String>,
    /// Reply counts and failures.
    pub tally: Tally,
    /// Start and end of the last delta rebuild, for the traced replay.
    pub last_rebuild: Option<(Instant, Instant)>,
}

impl<'a> Client<'a> {
    /// A client for `thread`, holding every object's preloaded version.
    pub fn new(inputs: &'a Inputs, thread: usize) -> Self {
        let n = inputs.spec.n_objects;
        let own = if inputs.spec.region_updates {
            let mine = |i: usize| i % CLIENT_THREADS == thread;
            inputs
                .initial
                .iter()
                .enumerate()
                .map(|(i, b)| (1, if mine(i) { b.to_vec() } else { Vec::new() }))
                .collect()
        } else {
            Vec::new()
        };
        Client {
            inputs,
            thread,
            puts: 0,
            own,
            cache: inputs.initial.iter().map(|b| (1, b.clone())).collect(),
            seen: vec![1; n],
            last_put: vec![0; n],
            granted: Vec::new(),
            tally: Tally::default(),
            last_rebuild: None,
        }
    }

    fn fail(&mut self, msg: String) {
        self.tally.failed += 1;
        if self.tally.errors.len() < 5 {
            self.tally.errors.push(msg);
        }
    }

    /// Builds the request for `op`.
    pub fn request(&mut self, op: &Op) -> (ServeRequest, Pending) {
        let spec = self.inputs.spec;
        let o = op.obj as usize;
        let id = self.inputs.names[o].clone();
        match op.kind {
            Kind::Put if spec.region_updates => {
                let (version, value) = &mut self.own[o];
                let next = *version + 1;
                gen::rewrite_region(value, o as u64, next, op.arg);
                let data = Bytes::copy_from_slice(value);
                (ServeRequest::Put { id, data }, Pending::Put { obj: o, expect: Some(next) })
            }
            Kind::Put => {
                self.puts += 1;
                let stamp = ((self.thread as u64 + 1) << 40) | self.puts;
                let data = Bytes::from(gen::fresh_value(o as u64, stamp, spec.object_bytes));
                (ServeRequest::Put { id, data }, Pending::Put { obj: o, expect: None })
            }
            Kind::Pull => {
                let named = (spec.keep_prob > 0.0).then_some(self.cache[o].0);
                (
                    ServeRequest::Pull { id, client_version: named },
                    Pending::Pull { obj: o, named, keep: op.arg == 1 },
                )
            }
            Kind::Claim | Kind::Complete => {
                let key = if spec.pipelines > 0 {
                    let pipeline = format!("p{}", op.arg);
                    ComputationKey::new(
                        id,
                        self.cache[o].0,
                        pipeline,
                        "kfold(3)".into(),
                        "rmse".into(),
                    )
                } else {
                    ComputationKey::new("serve-ds", 1, format!("p{o}").as_str(), "kfold(3)", "rmse")
                };
                let client = format!("client-{}", op.client);
                let req = ServeRequest::Claim {
                    key: key.clone(),
                    client: client.clone(),
                    duration: CLAIM_TICKS,
                };
                (req, Pending::Claim { key, client })
            }
        }
    }

    fn see(&mut self, obj: usize, version: u64) {
        if version < self.seen[obj] {
            self.fail(format!("obj-{obj}: version went back from {} to {version}", self.seen[obj]));
        }
        self.seen[obj] = self.seen[obj].max(version);
    }

    fn check_value(&mut self, obj: usize, value: &[u8], version: u64) {
        match gen::verify(value, obj as u64) {
            Ok(stamp) if self.inputs.spec.region_updates && stamp != version => {
                self.fail(format!("obj-{obj}: value of v{stamp} served as v{version}"))
            }
            Ok(_) => {}
            Err(e) => self.fail(e),
        }
    }

    /// Checks `reply` against what was asked and updates the client's
    /// state. Returns the completion to send when a claim was won.
    pub fn on_reply(
        &mut self,
        pending: Pending,
        reply: Result<ServeResponse, ServeError>,
    ) -> Option<(ServeRequest, Pending)> {
        let reply = match reply {
            Ok(r) => r,
            Err(e) => {
                self.fail(e.to_string());
                return None;
            }
        };
        self.tally.admitted += 1;
        match (pending, reply) {
            (Pending::Put { obj, expect }, ServeResponse::Put { version, .. }) => {
                if version <= self.last_put[obj] {
                    self.fail(format!("obj-{obj}: put version {version} did not increase"));
                }
                self.last_put[obj] = version;
                match expect {
                    Some(e) if e != version => {
                        self.fail(format!("obj-{obj}: sole writer expected v{e}, got v{version}"))
                    }
                    Some(_) => self.own[obj].0 = version,
                    None => {}
                }
                self.see(obj, version);
            }
            (Pending::Pull { obj, named, keep }, ServeResponse::Pull(Some(reply))) => {
                self.tally.pulls += 1;
                self.tally.named_pulls += u64::from(named.is_some());
                self.tally.wire_bytes += reply.wire_size() as u64;
                let version = reply.version();
                let value = match reply {
                    FetchReply::Full { version, data } => {
                        self.tally.full += 1;
                        self.check_value(obj, &data, version);
                        Some(data)
                    }
                    FetchReply::Delta(d) => {
                        self.tally.delta += 1;
                        if named != Some(d.base_version) || self.cache[obj].0 != d.base_version {
                            self.fail(format!("obj-{obj}: delta from unheld v{}", d.base_version));
                            None
                        } else {
                            let start = Instant::now();
                            let rebuilt = DeltaCodec::apply(&self.cache[obj].1, &d);
                            self.last_rebuild = Some((start, Instant::now()));
                            match rebuilt {
                                Ok(v) => {
                                    self.check_value(obj, &v, d.target_version);
                                    Some(v)
                                }
                                Err(e) => {
                                    self.fail(format!("obj-{obj}: delta does not apply: {e}"));
                                    None
                                }
                            }
                        }
                    }
                    FetchReply::UpToDate { version } => {
                        self.tally.up_to_date += 1;
                        if named != Some(version) {
                            self.fail(format!("obj-{obj}: up to date at unheld v{version}"));
                        }
                        None
                    }
                };
                self.see(obj, version);
                if let (true, Some(v)) = (keep, value) {
                    self.cache[obj] = (version, v);
                }
            }
            (Pending::Claim { key, client }, ServeResponse::Claim(outcome)) => {
                self.tally.claims += 1;
                match outcome {
                    ClaimOutcome::Claimed => {
                        self.tally.wins += 1;
                        self.granted.push(key.to_string());
                        let score = gen::unit(&mut (gen::mix(self.granted.len() as u64) | 1));
                        let req = ServeRequest::Complete {
                            key: key.clone(),
                            client: client.clone(),
                            score,
                            fold_scores: vec![score; 3],
                            explanation: "perfbench".into(),
                        };
                        return Some((req, Pending::Complete { key, client }));
                    }
                    ClaimOutcome::HeldBy(_) => {}
                    ClaimOutcome::AlreadyComputed(rec) if rec.key == key => {}
                    ClaimOutcome::AlreadyComputed(rec) => {
                        self.fail(format!("claim of {key} answered with {}", rec.key))
                    }
                }
            }
            (Pending::Complete { key, client }, ServeResponse::Complete(rec)) => {
                if rec.key != key || rec.producer != client {
                    self.fail(format!(
                        "completion of {key} stored as {} by {}",
                        rec.key, rec.producer
                    ));
                }
            }
            (pending, reply) => self.fail(format!("{pending:?} answered with {reply:?}")),
        }
        None
    }
}

/// Fails every computation key granted more than once. Claims never
/// expire during a run and every grant is completed, so a second grant of
/// a key is a grant while the first claim or its result was held.
pub fn double_grants<'c>(clients: impl IntoIterator<Item = &'c Vec<String>>) -> u64 {
    let mut seen = HashSet::new();
    let mut doubles = 0;
    for key in clients.into_iter().flatten() {
        if !seen.insert(key) {
            doubles += 1;
        }
    }
    doubles
}

/// A started, preloaded tier.
pub struct Tier {
    /// The tier.
    pub tier: ServeTier,
    /// Its observability handle, when started with one.
    pub obs: Option<Obs>,
}

/// Starts the tier (with a wall-clock `Obs`, as D7 does, when `with_obs`)
/// and preloads every object once; returns it with the seconds both took.
/// With `rec`, every preload put is traced.
pub fn setup(inputs: &Inputs, with_obs: bool, mut rec: Option<&mut Recorder>) -> (Tier, f64) {
    let start = Instant::now();
    let obs = with_obs.then(Obs::wall);
    let tier = ServeTier::start_obs(&tier_config(), obs.as_ref());
    for (i, (id, data)) in inputs.preload().enumerate() {
        let t0 = Instant::now();
        let reply = tier.submit(ServeRequest::Put { id, data });
        if let Some(r) = rec.as_deref_mut() {
            r.record("serve.submit", None, i as u64, t0, Instant::now());
        }
        assert!(
            matches!(reply, Ok(ServeResponse::Put { version: 1, .. })),
            "preload put must create version 1: {reply:?}"
        );
    }
    (Tier { tier, obs }, start.elapsed().as_secs_f64())
}

/// Sets up [`SETUP_REPEATS`] times and keeps the last tier; returns it
/// with the set-up times.
pub fn setup_repeated(
    inputs: &Inputs,
    with_obs: bool,
    mut rec: Option<&mut Recorder>,
) -> (Tier, Vec<f64>) {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    loop {
        let (tier, s) = setup(inputs, with_obs, rec.as_deref_mut());
        times.push(s);
        if times.len() == SETUP_REPEATS {
            return (tier, times);
        }
        tier.tier.finish();
    }
}

/// What a closed-loop run measured.
pub struct LoadRun {
    /// Raw round-trip latencies (µs) by [`Kind::index`].
    pub latency_us: [Vec<f64>; 4],
    /// Requests completed.
    pub completed: u64,
    /// From the start barrier to the last client's exit.
    pub elapsed: Duration,
    /// Peak resident memory (KiB) after [`RSS_AT_REQUESTS`] requests.
    pub rss_kib: u64,
    /// Reply counts and failures over every client.
    pub tally: Tally,
    /// Keys granted more than once.
    pub double_grants: u64,
    /// Submit spans when traced.
    pub spans: Option<Recorder>,
    /// Latencies (µs) of the requests that completed in each of
    /// [`WINDOWS`] equal windows of the run.
    pub windows: Vec<Vec<f64>>,
    /// Window length in seconds.
    pub window_s: f64,
}

impl LoadRun {
    /// Every latency sample, all kinds pooled.
    pub fn pooled_us(&self) -> Vec<f64> {
        self.latency_us.iter().flatten().copied().collect()
    }
}

struct ThreadRun {
    latency_us: [Vec<f64>; 4],
    windows: Vec<Vec<f64>>,
    started: Instant,
    ended: Instant,
    rss_kib: u64,
    tally: Tally,
    granted: Vec<String>,
    spans: Option<Recorder>,
}

fn client_loop(
    tier: &ServeTier,
    mut client: Client<'_>,
    stream: &[Op],
    seconds: f64,
    start: &Barrier,
    origin: Option<Instant>,
) -> ThreadRun {
    let mut latency_us: [Vec<f64>; 4] = Default::default();
    for v in &mut latency_us {
        v.reserve(1 << 16);
    }
    let mut spans = origin.map(Recorder::new);
    let mut rss_kib = 0;
    let mut done = 0u64;
    let rss_mark = RSS_AT_REQUESTS / CLIENT_THREADS as u64;
    let thread_tag = (client.thread as u64 + 1) << 48;
    let window = Duration::from_secs_f64(seconds / WINDOWS as f64);
    let mut windows: Vec<Vec<f64>> = vec![Vec::new(); WINDOWS];
    start.wait();
    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(seconds);
    'ops: for op in stream.iter().cycle() {
        if Instant::now() >= deadline {
            break;
        }
        let mut next = Some((client.request(op), op.kind));
        while let Some(((req, pending), kind)) = next.take() {
            let t0 = Instant::now();
            let reply = tier.submit(req);
            let t1 = Instant::now();
            let us = (t1 - t0).as_nanos() as f64 / 1e3;
            latency_us[kind.index()].push(us);
            if let Some(w) =
                windows.get_mut(((t1 - started).as_nanos() / window.as_nanos()) as usize)
            {
                w.push(us);
            }
            if let Some(r) = spans.as_mut() {
                r.record("serve.submit", None, thread_tag | done, t0, t1);
            }
            done += 1;
            if done == rss_mark {
                rss_kib = peak_rss_kib();
            }
            next = client.on_reply(pending, reply).map(|f| (f, Kind::Complete));
            if client.tally.failed > 1000 {
                break 'ops;
            }
        }
    }
    let ended = Instant::now();
    if rss_kib == 0 {
        rss_kib = peak_rss_kib();
    }
    ThreadRun {
        latency_us,
        windows,
        started,
        ended,
        rss_kib,
        tally: client.tally,
        granted: client.granted,
        spans,
    }
}

/// Runs the closed loop: one thread per stream, each waiting for every
/// reply before sending its next request, for `seconds`.
pub fn run_load(tier: &ServeTier, inputs: &Inputs, seconds: f64, traced: bool) -> LoadRun {
    let barrier = Barrier::new(CLIENT_THREADS);
    let origin = traced.then(Instant::now);
    let runs: Vec<ThreadRun> = std::thread::scope(|s| {
        let handles: Vec<_> = inputs
            .streams
            .iter()
            .enumerate()
            .map(|(t, stream)| {
                let barrier = &barrier;
                s.spawn(move || {
                    client_loop(tier, Client::new(inputs, t), stream, seconds, barrier, origin)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    });
    let started = runs.iter().map(|r| r.started).min().expect("two client threads");
    let ended = runs.iter().map(|r| r.ended).max().expect("two client threads");
    let mut out = LoadRun {
        latency_us: Default::default(),
        completed: 0,
        elapsed: ended - started,
        rss_kib: runs.iter().map(|r| r.rss_kib).max().unwrap_or(0),
        tally: Tally::default(),
        double_grants: double_grants(runs.iter().map(|r| &r.granted)),
        spans: origin.map(Recorder::new),
        windows: vec![Vec::new(); WINDOWS],
        window_s: seconds / WINDOWS as f64,
    };
    for r in runs {
        for (all, mine) in out.latency_us.iter_mut().zip(&r.latency_us) {
            all.extend_from_slice(mine);
        }
        for (all, mine) in out.windows.iter_mut().zip(&r.windows) {
            all.extend_from_slice(mine);
        }
        out.tally.merge(&r.tally);
        if let (Some(all), Some(mine)) = (out.spans.as_mut(), r.spans) {
            all.absorb(mine);
        }
    }
    out.completed = out.latency_us.iter().map(|v| v.len() as u64).sum();
    out
}

/// Shuts `tier` down and checks that it applied exactly the preload plus
/// every admitted request. Returns the discrepancy (0 when they agree).
pub fn applied_mismatch(tier: ServeTier, inputs: &Inputs, admitted: u64) -> u64 {
    let report = tier.finish();
    let expected = inputs.spec.n_objects as u64 + admitted;
    report.total_ops().abs_diff(expected) + report.shed_total
}

/// The kind of a request the clients send.
fn request_kind(req: &ServeRequest) -> Kind {
    match req {
        ServeRequest::Put { .. } => Kind::Put,
        ServeRequest::Pull { .. } => Kind::Pull,
        ServeRequest::Complete { .. } => Kind::Complete,
        _ => Kind::Claim,
    }
}

/// A comparable fingerprint of a reply, so the layer replays can check
/// that every layer answered each request as the tier did.
fn fingerprint(r: &ServeResponse) -> (u8, u64, u64) {
    match r {
        ServeResponse::Put { version, .. } => (0, *version, 0),
        ServeResponse::Pull(Some(f)) => fetch_fingerprint(f),
        ServeResponse::Pull(None) => (4, 0, 0),
        ServeResponse::Claim(ClaimOutcome::Claimed) => (5, 0, 0),
        ServeResponse::Claim(ClaimOutcome::HeldBy(_)) => (6, 0, 0),
        ServeResponse::Claim(ClaimOutcome::AlreadyComputed(_)) => (7, 0, 0),
        ServeResponse::Complete(_) => (8, 0, 0),
        ServeResponse::Lookup(_) | ServeResponse::Lease(_) => (9, 0, 0),
    }
}

fn fetch_fingerprint(f: &FetchReply) -> (u8, u64, u64) {
    let kind = match f {
        FetchReply::Full { .. } => 1,
        FetchReply::Delta(_) => 2,
        FetchReply::UpToDate { .. } => 3,
    };
    (kind, f.version(), f.wire_size() as u64)
}

/// What the layer replay measured besides its spans.
#[derive(Debug, Default)]
pub struct Replay {
    /// Reply counts and client-side failures.
    pub tally: Tally,
    /// Layer replies that differed from the tier's.
    pub mismatches: u64,
    /// Keys granted more than once.
    pub double_grants: u64,
    /// The request kind of every replayed request, by request id.
    pub kinds: Vec<Kind>,
    /// The tier's reply kind per request id (see `fingerprint`).
    pub reply_kind: Vec<u8>,
    /// Put payload bytes per request id (0 for other requests).
    pub put_bytes: Vec<usize>,
}

/// Every layer under the tier, each with state of its own.
struct Layers {
    router: ShardRouter,
    cores: Vec<ShardCore>,
    durable: Vec<DurableStore>,
    homes: Vec<HomeDataStore>,
    darrs: Vec<Darr>,
    /// Each object's current value, the base `DeltaCodec::encode` diffs
    /// a put against.
    current: Vec<Bytes>,
}

impl Layers {
    /// Fresh per-shard layers with the tier's settings and telemetry,
    /// preloaded like the tier.
    fn new(inputs: &Inputs) -> Self {
        let cfg = tier_config();
        let obs = Obs::wall();
        let names = (0..cfg.n_shards).map(|i| format!("shard-{i}"));
        let mut layers = Layers {
            router: ShardRouter::new(cfg.n_shards),
            cores: names
                .clone()
                .map(|n| {
                    let mut c =
                        ShardCore::new(&n, cfg.history_depth, cfg.snapshot_every, cfg.trigger);
                    c.attach_obs(obs.clone());
                    c
                })
                .collect(),
            durable: names
                .clone()
                .map(|n| {
                    let mut d = DurableStore::new(n, cfg.history_depth, cfg.snapshot_every);
                    d.attach_obs(obs.clone());
                    d
                })
                .collect(),
            homes: names
                .map(|n| {
                    let mut h = HomeDataStore::new(n, cfg.history_depth);
                    h.attach_obs(obs.clone());
                    h
                })
                .collect(),
            darrs: (0..cfg.n_shards)
                .map(|_| {
                    let d = Darr::new();
                    d.attach_obs(obs.clone());
                    d
                })
                .collect(),
            current: inputs.initial.clone(),
        };
        for (id, data) in inputs.preload() {
            let s = layers.router.shard_for_key(&id);
            layers.cores[s].apply(ServeRequest::Put { id: id.clone(), data: data.clone() });
            layers.durable[s].put(&id, data.clone());
            layers.homes[s].put(&id, data);
        }
        layers
    }

    /// Runs request `id` through layers 2 to 5 and counts every reply that
    /// differs from the tier's fingerprint `fp`.
    fn replay(
        &mut self,
        id: u64,
        req: &ServeRequest,
        fp: (u8, u64, u64),
        rec: &mut Recorder,
    ) -> u64 {
        let s = self.router.route(req);
        let core = &mut self.cores[s];
        let owned = req.clone();
        let reply = rec.time("serve.apply", Some("serve.submit"), id, || core.apply(owned));
        let mut mismatches = u64::from(fingerprint(&reply) != fp);
        match req {
            ServeRequest::Put { id: obj, data } => {
                let (durable, home) = (&mut self.durable[s], &mut self.homes[s]);
                let d = data.clone();
                let (v, _) =
                    rec.time("store.durable.put", Some("serve.apply"), id, || durable.put(obj, d));
                let d = data.clone();
                let (w, _) =
                    rec.time("store.home.put", Some("store.durable.put"), id, || home.put(obj, d));
                let o: usize = obj[4..].parse().expect("object ids are obj-{index}");
                let base = std::mem::replace(&mut self.current[o], data.clone());
                let delta = rec.time("store.delta.encode", Some("store.home.put"), id, || {
                    DeltaCodec::encode(&base, data, v.saturating_sub(1), v)
                });
                mismatches += u64::from(v != fp.1) + u64::from(w != fp.1);
                mismatches += u64::from(delta.target_len != data.len());
            }
            ServeRequest::Pull { id: obj, client_version } => {
                let (durable, home) = (&mut self.durable[s], &mut self.homes[s]);
                let Ok(a) = rec.time("store.durable.fetch", Some("serve.apply"), id, || {
                    durable.fetch(obj, *client_version)
                });
                let Ok(b) = rec.time("store.home.fetch", Some("store.durable.fetch"), id, || {
                    home.fetch(obj, *client_version)
                });
                mismatches += u64::from(a.as_ref().map(fetch_fingerprint) != Some(fp));
                mismatches += u64::from(b.as_ref().map(fetch_fingerprint) != Some(fp));
            }
            ServeRequest::Claim { key, client, duration } => {
                let darr = &self.darrs[s];
                let outcome = rec.time("darr.try_claim", Some("serve.apply"), id, || {
                    darr.try_claim(key, client, *duration)
                });
                mismatches += u64::from(fingerprint(&ServeResponse::Claim(outcome)).0 != fp.0);
            }
            ServeRequest::Complete { key, client, score, fold_scores, explanation } => {
                let (darr, folds) = (&self.darrs[s], fold_scores.clone());
                rec.time("darr.complete", Some("serve.apply"), id, || {
                    darr.complete(key, client, *score, folds, explanation)
                });
            }
            _ => {}
        }
        mismatches
    }
}

/// Replays the first `per_thread` operations of each stream, alternating
/// thread by thread, with one client per stream. Each request goes through
/// every layer in turn before the next starts: the tier, a [`ShardCore`]
/// routed by [`ShardRouter::route`], [`DurableStore`], [`HomeDataStore`],
/// and finally [`DeltaCodec`] beside a [`Darr`] partition. Each layer has
/// its own preloaded state and sees the same requests in the same order,
/// so every layer must answer as the tier did.
pub fn replay_layers(inputs: &Inputs, per_thread: usize, rec: &mut Recorder) -> Replay {
    let mut out = Replay::default();
    let (Tier { tier, .. }, _) = setup(inputs, true, None);
    let mut layers = Layers::new(inputs);
    let mut clients: Vec<Client<'_>> =
        (0..CLIENT_THREADS).map(|t| Client::new(inputs, t)).collect();
    for i in 0..per_thread {
        for (t, client) in clients.iter_mut().enumerate() {
            let mut next = Some(client.request(&inputs.streams[t][i]));
            while let Some((req, pending)) = next.take() {
                let id = out.kinds.len() as u64;
                let sent = req.clone();
                let t0 = Instant::now();
                let reply = tier.submit(sent);
                rec.record("serve.submit", None, id, t0, Instant::now());
                let fp = reply.as_ref().map(fingerprint).unwrap_or((255, 0, 0));
                out.kinds.push(request_kind(&req));
                out.reply_kind.push(fp.0);
                out.put_bytes.push(match &req {
                    ServeRequest::Put { data, .. } => data.len(),
                    _ => 0,
                });
                out.mismatches += layers.replay(id, &req, fp, rec);
                client.last_rebuild = None;
                next = client.on_reply(pending, reply);
                if let Some((a, b)) = client.last_rebuild {
                    rec.record("store.delta.apply", None, id, a, b);
                }
            }
        }
    }
    for c in &clients {
        out.tally.merge(&c.tally);
    }
    out.double_grants = double_grants(clients.iter().map(|c| &c.granted));
    out.mismatches += applied_mismatch(tier, inputs, out.tally.admitted);
    out
}

/// Requests per client stream replayed through the layers in a traced run.
const REPLAY_PER_THREAD: usize = 20_000;

/// The end-to-end metrics of a closed-loop run, plus the per-kind
/// latencies as the tier layer's `serve.tier.submit_us.*` metrics.
fn end_to_end(r: &mut crate::Report, run: &LoadRun, setups: &[f64]) {
    let all = stats::summarise(&run.pooled_us());
    let per_window: Vec<stats::Summary> = run.windows.iter().map(|w| stats::summarise(w)).collect();
    let window_median = |f: fn(&stats::Summary) -> f64| {
        stats::median(&per_window.iter().map(f).collect::<Vec<_>>())
    };
    r.set("throughput_ops_s", window_median(|s| s.n as f64) / run.window_s);
    r.set("latency_p50_ms", window_median(|s| s.p50) / 1e3);
    r.set("peak_rss_mb", run.rss_kib as f64 / 1024.0);
    r.set("setup_s", stats::median(setups));
    r.note(format!(
        "all requests: p50 {:.2} us, p{:.2} {:.2} us over {} samples; {:.0} requests/s over {:.2} s; \
         medians over {} windows: {:.0} requests/s, p50 {:.2} us, p99 {:.2} us",
        all.p50,
        all.tail_q * 100.0,
        all.tail,
        all.n,
        run.completed as f64 / run.elapsed.as_secs_f64(),
        run.elapsed.as_secs_f64(),
        WINDOWS,
        r.get("throughput_ops_s"),
        r.get("latency_p50_ms") * 1e3,
        window_median(|s| s.tail),
    ));
    for kind in Kind::ALL {
        let s = stats::summarise(&run.latency_us[kind.index()]);
        let k = kind.name();
        r.set(format!("serve.tier.submit_us.{k}.p50"), s.p50);
        r.set(format!("serve.tier.submit_us.{k}.p99"), s.tail);
        r.note(format!(
            "{k}_p50_us {:.2}  {k}_p99_us {:.2} (p{:.2} of {} samples)",
            s.p50,
            s.tail,
            s.tail_q * 100.0,
            s.n
        ));
    }
    let t = &run.tally;
    r.note(format!(
        "pulls: {} full, {} delta, {} up to date; claims: {} of {} granted; error_rate {:.6}",
        t.full,
        t.delta,
        t.up_to_date,
        t.wins,
        t.claims,
        stats::ratio(t.failed as f64, run.completed as f64)
    ));
    for e in &t.errors {
        r.note(format!("FAILED: {e}"));
    }
}

/// The tier's own queue-wait, batching and service histograms over the
/// timed phase.
fn tier_metrics(
    r: &mut crate::Report,
    obs: &Obs,
    before: &coda_obs::MetricsSnapshot,
    run: &LoadRun,
) {
    let d = obs.registry().snapshot().diff(before);
    if let Some(wait) = d.histograms.get("coda_serve_queue_wait_ms") {
        r.set("serve.tier.queue_wait_us.mean", wait.mean() * 1e3);
        r.set("serve.tier.queue_wait_us.p99", wait.quantile(0.99) * 1e3);
    }
    r.set(
        "serve.tier.batch_mean",
        stats::ratio(
            d.counter("coda_serve_ops_total") as f64,
            d.counter("coda_serve_batches") as f64,
        ),
    );
    if let Some(service) = d.histograms.get("coda_serve_service_ms") {
        let shards = tier_config().n_shards as f64;
        r.set("serve.shard.busy_share", service.sum / (shards * run.elapsed.as_secs_f64() * 1e3));
    }
}

/// The untraced closed-loop run: set up, load for `seconds`, check.
pub fn load_phase(inputs: &Inputs, seconds: f64, with_obs: bool) -> crate::Report {
    let (Tier { tier, obs }, setups) = setup_repeated(inputs, with_obs, None);
    let before = obs.as_ref().map(|o| o.registry().snapshot());
    let run = run_load(&tier, inputs, seconds, false);
    let mut r = crate::Report::default();
    end_to_end(&mut r, &run, &setups);
    if let (Some(obs), Some(before)) = (&obs, &before) {
        tier_metrics(&mut r, obs, before, &run);
    }
    let mismatch = applied_mismatch(tier, inputs, run.tally.admitted);
    if mismatch > 0 || run.double_grants > 0 {
        r.note(format!(
            "FAILED: applied-vs-sent discrepancy {mismatch}, keys granted twice {}",
            run.double_grants
        ));
    }
    r.attempted = run.completed;
    r.failed = run.tally.failed + run.double_grants + mismatch;
    r
}

/// A serving run: the untraced closed loop, or with tracing the per-layer
/// breakdown (see `README.md`).
pub fn run(spec: &'static ServeSpec, args: &crate::Args) -> crate::Report {
    let inputs = Inputs::new(spec, args.seed);
    if !args.trace {
        return load_phase(&inputs, args.seconds, true);
    }
    let mut r = crate::Report::default();
    // three closed loops of half the run each: untraced with and without
    // an Obs, each in its own process so its memory is its own, then
    // traced in this one
    let half = args.seconds / 2.0;
    let phases = crate::child(args, "load-obs", half)
        .and_then(|with| crate::child(args, "load-plain", half).map(|without| (with, without)));
    let (with, without) = match phases {
        Ok(p) => p,
        Err(e) => {
            r.failed += 1;
            r.note(format!("FAILED: {e}"));
            return r;
        }
    };
    r.absorb_counts(&with);
    r.absorb_counts(&without);
    for name in [
        "serve.tier.queue_wait_us.mean",
        "serve.tier.queue_wait_us.p99",
        "serve.tier.batch_mean",
        "serve.shard.busy_share",
    ] {
        r.set(name, with.get(name));
    }
    r.set(
        "obs.overhead_ratio",
        stats::ratio(without.get("throughput_ops_s"), with.get("throughput_ops_s")),
    );
    r.set("obs.retained_mb", with.get("peak_rss_mb") - without.get("peak_rss_mb"));

    // the same closed loop with a span around every submit
    let origin = Instant::now();
    let mut setup_spans = Recorder::new(origin);
    let (Tier { tier, .. }, setups) = setup_repeated(&inputs, true, Some(&mut setup_spans));
    let run = run_load(&tier, &inputs, half, true);
    let mismatch = applied_mismatch(tier, &inputs, run.tally.admitted);
    let mut traced = crate::Report::default();
    end_to_end(&mut traced, &run, &setups);
    for (name, _) in crate::END_TO_END {
        r.set(
            format!("trace.overhead_ratio.{name}"),
            stats::ratio(traced.get(name), with.get(name)),
        );
    }
    for kind in [Kind::Put, Kind::Pull, Kind::Claim] {
        for q in ["p50", "p99"] {
            let name = format!("serve.tier.submit_us.{}.{q}", kind.name());
            r.set(&name, traced.get(&name));
        }
    }
    r.attempted += run.completed;
    r.failed += run.tally.failed + run.double_grants + mismatch;
    r.notes.extend(traced.notes.iter().map(|n| format!("traced: {n}")));

    // every layer on the same requests, one after another
    let mut layers = Recorder::new(Instant::now());
    let replay = replay_layers(&inputs, REPLAY_PER_THREAD, &mut layers);
    layer_metrics(&mut r, &replay, &layers);
    r.attempted += replay.kinds.len() as u64;
    r.failed += replay.tally.failed + replay.double_grants + replay.mismatches;
    if replay.mismatches > 0 {
        r.note(format!("FAILED: {} layer replies differ from the tier's", replay.mismatches));
    }
    for e in &replay.tally.errors {
        r.note(format!("FAILED (replay): {e}"));
    }

    let mut all = setup_spans;
    if let Some(s) = run.spans {
        all.absorb(s);
    }
    r.note(format!(
        "{} spans; {} requests replayed through every layer",
        all.spans().len() + layers.spans().len(),
        replay.kinds.len()
    ));
    let dir = crate::trace_dir();
    let name = &args.workload;
    for (file, rec) in [("load", &all), ("layers", &layers)] {
        let path = dir.join(format!("{name}-{}-{file}.csv", args.seed));
        match rec.write_csv(&path) {
            Ok(()) => r.note(format!("spans written to {}", path.display())),
            Err(e) => r.note(format!("could not write {}: {e}", path.display())),
        }
    }
    r
}

/// Per-layer metrics from the layer replay's spans and replies.
fn layer_metrics(r: &mut crate::Report, replay: &Replay, spans: &Recorder) {
    let kind_is = |k: Kind| move |req: u64| replay.kinds[req as usize] == k;
    let reply_is = |c: u8| move |req: u64| replay.reply_kind[req as usize] == c;
    for k in [Kind::Put, Kind::Pull, Kind::Claim] {
        r.set(
            format!("serve.tier.self_us.{}", k.name()),
            stats::median(&spans.self_us("serve.submit", kind_is(k))),
        );
    }
    for k in Kind::ALL {
        r.set(
            format!("serve.shard.apply_us.{}", k.name()),
            stats::median(&spans.durations_us("serve.apply", kind_is(k))),
        );
    }
    // the mean, not the median: the snapshot every `snapshot_every` puts
    // is part of the WAL's cost and amortises over all of them
    r.set("store.wal.self_us", stats::mean(&spans.self_us("store.durable.put", |_| true)));
    let mut durable = spans.durations_us("store.durable.put", |_| true);
    stats::sort(&mut durable);
    r.set("store.wal.put_p99_us", stats::quantile(&durable, stats::tail_q(durable.len())));
    r.set("store.home.put_us", stats::median(&spans.durations_us("store.home.put", |_| true)));
    for (name, code) in [("full", 1), ("delta", 2), ("up_to_date", 3)] {
        r.set(
            format!("store.home.fetch_us.{name}"),
            stats::median(&spans.durations_us("store.home.fetch", reply_is(code))),
        );
    }
    let t = &replay.tally;
    r.set("store.home.delta_reply_ratio", stats::ratio(t.delta as f64, t.named_pulls as f64));
    r.set("store.home.wire_bytes_per_pull", stats::ratio(t.wire_bytes as f64, t.pulls as f64));
    r.set(
        "store.delta.encode_us",
        stats::median(&spans.durations_us("store.delta.encode", |_| true)),
    );
    let per_byte: Vec<f64> = spans
        .spans()
        .iter()
        .filter(|s| s.name == "store.delta.encode")
        .map(|s| s.ns() as f64 / replay.put_bytes[s.req as usize].max(1) as f64)
        .collect();
    r.set("store.delta.encode_ns_per_byte", stats::median(&per_byte));
    r.set(
        "store.delta.apply_us",
        stats::median(&spans.durations_us("store.delta.apply", |_| true)),
    );
    r.set("darr.try_claim_us", stats::median(&spans.durations_us("darr.try_claim", |_| true)));
    r.set("darr.complete_us", stats::median(&spans.durations_us("darr.complete", |_| true)));
    r.set("darr.claim_win_ratio", stats::ratio(t.wins as f64, t.claims as f64));
}
