//! The D7 serving-tier benchmark: a sustained zipf-skewed closed-loop
//! load (hundreds of thousands of simulated cooperative clients
//! multiplexed over submitter threads) against a sharded
//! [`coda_serve::ServeTier`], instrumented through [`coda_obs::Obs`].
//! Produces the `BENCH_serving.json` artifact the CI benchmark ratchet
//! (`bench_gate`) compares against its committed baseline, and the tier's
//! own cost as a ratio measured in one process
//! ([`tier_overhead_ratios`]), which `bench_gate` gates on any machine, and
//! its telemetry's cost the same way ([`serving_obs_ratios`]), which
//! `overhead_gate` gates.

use std::time::Instant;

use coda_obs::Obs;
use coda_serve::{
    closed_loop, LoadGenConfig, LoadReport, ServeConfig, ServeError, ServeRequest, ServeResponse,
    ServeTier, ShardCore, ShardRouter, TriggerPolicy,
};

/// Everything one serving-bench run measured — the schema of
/// `BENCH_serving.json`.
#[derive(Debug, Clone)]
pub struct ServingBenchResult {
    /// Workload seed.
    pub seed: u64,
    /// Shards.
    pub n_shards: usize,
    /// Closed-loop submitter threads.
    pub n_threads: usize,
    /// Simulated cooperative clients.
    pub n_clients: usize,
    /// Requests completed across shards.
    pub total_ops: u64,
    /// Requests shed by admission control.
    pub shed: u64,
    /// Wall-clock duration of the loaded phase, milliseconds.
    pub elapsed_ms: f64,
    /// Completed requests per second.
    pub throughput_ops_per_sec: f64,
    /// Request-latency quantiles from the tier's histogram, milliseconds.
    pub p50_ms: f64,
    /// 95th percentile latency, milliseconds.
    pub p95_ms: f64,
    /// 99th percentile latency, milliseconds.
    pub p99_ms: f64,
    /// Requests applied by each shard, in shard order.
    pub per_shard_ops: Vec<u64>,
    /// Combining passes that applied at least one request.
    pub batches: u64,
    /// Mean requests applied per combining pass.
    pub mean_batch: f64,
    /// Recompute-trigger firings under load.
    pub trigger_firings: u64,
}

impl ServingBenchResult {
    /// Renders the stable JSON artifact (`BENCH_serving.json`).
    pub fn to_json(&self) -> String {
        let shards: Vec<String> = self.per_shard_ops.iter().map(u64::to_string).collect();
        format!(
            concat!(
                "{{\n",
                "  \"schema\": \"coda-serving-bench-v1\",\n",
                "  \"seed\": {},\n",
                "  \"n_shards\": {},\n",
                "  \"n_threads\": {},\n",
                "  \"n_clients\": {},\n",
                "  \"total_ops\": {},\n",
                "  \"shed\": {},\n",
                "  \"elapsed_ms\": {:.3},\n",
                "  \"throughput_ops_per_sec\": {:.1},\n",
                "  \"p50_ms\": {:.6},\n",
                "  \"p95_ms\": {:.6},\n",
                "  \"p99_ms\": {:.6},\n",
                "  \"per_shard_ops\": [{}],\n",
                "  \"batches\": {},\n",
                "  \"mean_batch\": {:.3},\n",
                "  \"trigger_firings\": {}\n",
                "}}\n",
            ),
            self.seed,
            self.n_shards,
            self.n_threads,
            self.n_clients,
            self.total_ops,
            self.shed,
            self.elapsed_ms,
            self.throughput_ops_per_sec,
            self.p50_ms,
            self.p95_ms,
            self.p99_ms,
            shards.join(", "),
            self.batches,
            self.mean_batch,
            self.trigger_firings,
        )
    }
}

/// The canonical D7 workload: 4 shards, 4 closed-loop submitter threads
/// multiplexing 200 000 simulated cooperative clients, 200 000 ops of
/// zipf-skewed (s = 1.1) mixed put/pull/claim/complete traffic over 512
/// hot objects.
pub fn serving_bench_config(seed: u64) -> (ServeConfig, LoadGenConfig) {
    let serve = ServeConfig {
        n_shards: 4,
        queue_capacity: 64,
        batch_max: 16,
        history_depth: 4,
        snapshot_every: 64,
        trigger: TriggerPolicy::Count(64),
        ..ServeConfig::default()
    };
    let load = LoadGenConfig {
        seed,
        n_clients: 200_000,
        ops_per_thread: 50_000,
        n_threads: 4,
        key_space: 512,
    };
    (serve, load)
}

/// Runs the D7 serving benchmark. Instruments through `obs` when given
/// (so `--metrics` runs fold the tier's counters into the harness-wide
/// snapshot); otherwise brings up its own wall-clock observer.
pub fn run_serving_bench(seed: u64, obs: Option<&Obs>) -> ServingBenchResult {
    let own;
    let obs = match obs {
        Some(o) => o,
        None => {
            own = Obs::wall();
            &own
        }
    };
    let (serve_cfg, load_cfg) = serving_bench_config(seed);
    let tier = ServeTier::start_obs(&serve_cfg, Some(obs));
    let t0 = obs.now_ms();
    let load = coda_serve::run_load(&tier, &load_cfg, Some(obs));
    let elapsed_ms = (obs.now_ms() - t0).max(0.001);
    let report = tier.finish();

    assert_eq!(
        load.shed, report.shed_total,
        "the generator's shed tally and the tier's shed counter must agree"
    );

    let snap = obs.registry().snapshot();
    let latency = snap.histograms.get("coda_serve_latency_ms");
    let quantile = |q: f64| latency.map(|h| h.quantile(q)).unwrap_or(0.0);
    let batches = snap.counter("coda_serve_batches");
    let total_ops = report.total_ops();
    ServingBenchResult {
        seed,
        n_shards: serve_cfg.n_shards,
        n_threads: load_cfg.n_threads,
        n_clients: load_cfg.n_clients,
        total_ops,
        shed: report.shed_total,
        elapsed_ms,
        throughput_ops_per_sec: total_ops as f64 / (elapsed_ms / 1000.0),
        p50_ms: quantile(0.50),
        p95_ms: quantile(0.95),
        p99_ms: quantile(0.99),
        per_shard_ops: report.per_shard_ops(),
        batches,
        mean_batch: if batches > 0 { total_ops as f64 / batches as f64 } else { 0.0 },
        trigger_firings: report.shards.iter().map(|s| s.trigger_firings).sum(),
    }
}

/// One wall-clock timed closed loop: D7's submitter thread 0 sends its
/// request stream through `send`, recording its latencies into `obs` when
/// given. Returns the seconds it took and what it did.
fn timed_stream(
    load: &LoadGenConfig,
    obs: Option<&Obs>,
    send: impl FnMut(ServeRequest) -> Result<ServeResponse, ServeError>,
) -> (f64, LoadReport) {
    let t0 = Instant::now();
    let report = closed_loop(load, 0, obs, send);
    (t0.elapsed().as_secs_f64(), report)
}

/// The median of `xs` (NaN when empty).
pub fn median(xs: &[f64]) -> f64 {
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// Runs `a` and `b` once per round, alternating which goes first, and
/// returns each round's a/b time ratio. Each returns its seconds and what
/// it did.
///
/// # Panics
///
/// Panics if a round's `a` and `b` did different things: the ratio would
/// compare different work.
fn alternating_ratios<T: PartialEq + std::fmt::Debug>(
    rounds: usize,
    a: impl Fn() -> (f64, T),
    b: impl Fn() -> (f64, T),
) -> Vec<f64> {
    (0..rounds)
        .map(|round| {
            let ((a_s, a_did), (b_s, b_did)) = if round % 2 == 0 {
                let first = a();
                (first, b())
            } else {
                let first = b();
                (a(), first)
            };
            assert_eq!(a_did, b_did, "both sides must do the same work");
            a_s / b_s.max(f64::MIN_POSITIVE)
        })
        .collect()
}

/// The tier's own cost, measured in one process so no machine constant
/// enters: one submitter thread sends D7's thread-0 request stream through
/// a fresh [`ServeTier`], and through bare [`ShardCore::apply`] calls on
/// the same shards routed by a [`ShardRouter`], both with a wall-clock
/// `Obs` attached. The two alternate which goes first over `rounds`
/// rounds. Returns each round's tier/bare time ratio.
///
/// # Panics
///
/// Panics if the two loops' tallies differ: the same single-threaded
/// stream must get the same replies either way, or the ratio compares
/// different work.
pub fn tier_overhead_ratios(seed: u64, rounds: usize) -> Vec<f64> {
    let (serve, load) = serving_bench_config(seed);
    let through_tier = || {
        let obs = Obs::wall();
        let tier = ServeTier::start_obs(&serve, Some(&obs));
        let run = timed_stream(&load, Some(&obs), |req| tier.submit(req));
        tier.finish();
        run
    };
    let bare = || {
        let obs = Obs::wall();
        let router = ShardRouter::new(serve.n_shards);
        let mut cores: Vec<ShardCore> = (0..serve.n_shards)
            .map(|i| {
                let mut core = ShardCore::new(
                    &format!("shard-{i}"),
                    serve.history_depth,
                    serve.snapshot_every,
                    serve.trigger,
                );
                core.attach_obs(obs.clone());
                core
            })
            .collect();
        timed_stream(&load, Some(&obs), |req| Ok(cores[router.route(&req)].apply(req)))
    };
    alternating_ratios(rounds, through_tier, bare)
}

/// The serving path's telemetry cost, measured in one process: one
/// submitter thread sends D7's thread-0 request stream through a fresh
/// [`ServeTier`] with a wall-clock `Obs` (recording the stream's latencies
/// too, as D7 does) and through a fresh one with none. The two alternate
/// which goes first over `rounds` rounds. Returns each round's
/// instrumented/plain time ratio.
///
/// # Panics
///
/// Panics if the two runs' load reports or final canonical states differ:
/// telemetry must only observe.
pub fn serving_obs_ratios(seed: u64, rounds: usize) -> Vec<f64> {
    let (serve, load) = serving_bench_config(seed);
    let run = |obs: Option<&Obs>| {
        let tier = ServeTier::start_obs(&serve, obs);
        let (secs, report) = timed_stream(&load, obs, |req| tier.submit(req));
        (secs, (report, tier.finish().canonical_state()))
    };
    alternating_ratios(rounds, || run(Some(&Obs::wall())), || run(None))
}
