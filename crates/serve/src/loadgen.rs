//! Deterministic closed-loop load generation for the serving tier.
//!
//! `n_threads` submitter threads each multiplex a slice of the simulated
//! cooperative-client population over one connection to the tier. Every
//! thread runs its own splitmix64 stream seeded from `seed + thread`, so
//! the op sequence each thread issues is a pure function of the config —
//! replaying a seed replays the workload. Object keys are zipf-skewed
//! (precomputed CDF, exponent `zipf_s`): a handful of hot objects absorb
//! most of the traffic, which is what makes batching and admission
//! control earn their keep.
//!
//! The loop is *closed*: a thread submits, waits for the reply (or the
//! typed shed error), records the latency through [`coda_obs::Obs`], and
//! only then issues its next op — so offered load self-limits the way a
//! population of real cooperating clients does.

use bytes::Bytes;
use coda_darr::ComputationKey;
use coda_obs::Obs;

use crate::request::{ServeError, ServeRequest, ServeResponse};
use crate::tier::ServeTier;

/// Histogram bounds (ms) for the `coda_serve_latency_ms` family. Every
/// producer of that family must register with these bounds — the registry
/// keeps whichever registration arrives first and silently drops the rest,
/// so a second bounds expression would never take effect (and the
/// `obs_contract` lint rejects it).
pub const SERVE_LATENCY_BOUNDS: &[f64] = &[
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0,
];

/// Load-generator configuration. Weights are relative integer parts of a
/// put/pull/claim mix; claims that win are followed by a completion, so
/// cooperative dedup shows up in the workload for free.
#[derive(Debug, Clone)]
pub struct LoadGenConfig {
    /// Workload seed; same seed, same op sequence per thread.
    pub seed: u64,
    /// Simulated cooperative client population (multiplexed over threads).
    pub n_clients: usize,
    /// Operations per submitter thread.
    pub ops_per_thread: usize,
    /// Submitter threads (closed loops).
    pub n_threads: usize,
    /// Distinct object ids.
    pub key_space: usize,
    /// Zipf exponent for key popularity (0 = uniform).
    pub zipf_s: f64,
    /// Payload bytes per put.
    pub payload_len: usize,
    /// Relative weight of puts in the mix.
    pub put_weight: u32,
    /// Relative weight of pulls in the mix.
    pub pull_weight: u32,
    /// Relative weight of claims in the mix.
    pub claim_weight: u32,
}

impl Default for LoadGenConfig {
    fn default() -> Self {
        LoadGenConfig {
            seed: 42,
            n_clients: 100_000,
            ops_per_thread: 25_000,
            n_threads: 4,
            key_space: 512,
            zipf_s: 1.1,
            payload_len: 256,
            put_weight: 4,
            pull_weight: 4,
            claim_weight: 2,
        }
    }
}

/// What a load run did, summed over submitter threads.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LoadReport {
    /// Requests admitted and completed.
    pub completed: u64,
    /// Requests shed by admission control (typed [`ServeError::Overloaded`]).
    pub shed: u64,
    /// Puts completed.
    pub puts: u64,
    /// Pulls completed.
    pub pulls: u64,
    /// Claims completed (any outcome).
    pub claims: u64,
    /// Completions published after won claims.
    pub completions: u64,
    /// Trigger firings observed in put replies.
    pub trigger_fired: u64,
}

impl LoadReport {
    fn absorb(&mut self, other: &LoadReport) {
        self.completed += other.completed;
        self.shed += other.shed;
        self.puts += other.puts;
        self.pulls += other.pulls;
        self.claims += other.claims;
        self.completions += other.completions;
        self.trigger_fired += other.trigger_fired;
    }
}

/// splitmix64 — the same tiny deterministic PRNG the chaos crates use;
/// no external randomness, no wall clock.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A unit sample in [0, 1).
fn unit(state: &mut u64) -> f64 {
    (splitmix64(state) >> 11) as f64 / (1u64 << 53) as f64
}

/// Precomputed zipf CDF over `n` ranks with exponent `s`. Sampling is a
/// binary search over the CDF — O(log n) per draw, fully deterministic.
#[derive(Debug, Clone)]
struct ZipfCdf {
    cdf: Vec<f64>,
}

impl ZipfCdf {
    fn new(n: usize, s: f64) -> Self {
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for rank in 1..=n {
            acc += 1.0 / (rank as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc.max(f64::MIN_POSITIVE);
        for v in &mut cdf {
            *v /= total;
        }
        ZipfCdf { cdf }
    }

    fn sample(&self, state: &mut u64) -> usize {
        let u = unit(state);
        match self.cdf.binary_search_by(|p| match p.partial_cmp(&u) {
            Some(o) => o,
            None => std::cmp::Ordering::Less,
        }) {
            Ok(i) => i,
            Err(i) => i.min(self.cdf.len().saturating_sub(1)),
        }
    }
}

/// Submitter thread `thread`'s closed loop: sends that thread's request
/// stream through `send`, one reply at a time. [`run_load`] sends through
/// [`ServeTier::submit`]; a bench can send it to bare [`crate::ShardCore`]s.
pub fn closed_loop(
    cfg: &LoadGenConfig,
    thread: usize,
    obs: Option<&Obs>,
    mut send: impl FnMut(ServeRequest) -> Result<ServeResponse, ServeError>,
) -> LoadReport {
    let mut rng = cfg.seed.wrapping_add(thread as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    let zipf = ZipfCdf::new(cfg.key_space.max(1), cfg.zipf_s);
    let total_weight = (cfg.put_weight + cfg.pull_weight + cfg.claim_weight).max(1);
    let clients_per_thread = (cfg.n_clients / cfg.n_threads.max(1)).max(1);
    let mut tally = LoadReport::default();
    let latency =
        obs.map(|o| o.registry().histogram("coda_serve_latency_ms", SERVE_LATENCY_BOUNDS));

    for _ in 0..cfg.ops_per_thread {
        let rank = zipf.sample(&mut rng);
        let client_idx =
            thread * clients_per_thread + (splitmix64(&mut rng) as usize) % clients_per_thread;
        let client = format!("client-{client_idx}");
        let roll = (splitmix64(&mut rng) % u64::from(total_weight)) as u32;
        let req = if roll < cfg.put_weight {
            let fill = (splitmix64(&mut rng) & 0xff) as u8;
            ServeRequest::Put {
                id: format!("obj-{rank}"),
                data: Bytes::from(vec![fill; cfg.payload_len]),
            }
        } else if roll < cfg.put_weight + cfg.pull_weight {
            ServeRequest::Pull { id: format!("obj-{rank}"), client_version: None }
        } else {
            ServeRequest::Claim {
                key: ComputationKey::new("serve-ds", 1, &format!("p{rank}"), "kfold(3)", "rmse"),
                client: client.clone(),
                duration: 1_000_000,
            }
        };

        let t0 = obs.map(Obs::now_ms);
        let outcome = send(req);
        if let (Some(h), Some(start), Some(o)) = (&latency, t0, obs) {
            h.observe(o.now_ms() - start);
        }
        match outcome {
            Ok(ServeResponse::Put { trigger_fired, .. }) => {
                tally.completed += 1;
                tally.puts += 1;
                if trigger_fired {
                    tally.trigger_fired += 1;
                }
            }
            Ok(ServeResponse::Pull(_)) => {
                tally.completed += 1;
                tally.pulls += 1;
            }
            Ok(ServeResponse::Claim(outcome)) => {
                tally.completed += 1;
                tally.claims += 1;
                if outcome == coda_darr::ClaimOutcome::Claimed {
                    // the winning client publishes its result, cooperative
                    // style, so later claimers hit AlreadyComputed
                    let score = unit(&mut rng);
                    let done = send(ServeRequest::Complete {
                        key: ComputationKey::new(
                            "serve-ds",
                            1,
                            &format!("p{rank}"),
                            "kfold(3)",
                            "rmse",
                        ),
                        client,
                        score,
                        fold_scores: vec![score; 3],
                        explanation: format!("rank {rank} by thread {thread}"),
                    });
                    if done.is_ok() {
                        tally.completed += 1;
                        tally.completions += 1;
                    }
                }
            }
            Ok(_) => tally.completed += 1,
            Err(ServeError::Overloaded { .. }) => tally.shed += 1,
            Err(ServeError::ShardUnavailable { .. }) => break,
        }
    }
    tally
}

/// Runs the closed-loop workload against `tier` and sums the per-thread
/// tallies. Deterministic given `cfg` (thread *interleaving* varies, but
/// each thread's op sequence never does).
///
/// # Panics
///
/// Re-raises a submitter's panic rather than drop that thread's tally.
pub fn run_load(tier: &ServeTier, cfg: &LoadGenConfig, obs: Option<&Obs>) -> LoadReport {
    let shed_before = tier.shed_total();
    let mut report = LoadReport::default();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..cfg.n_threads)
            .map(|t| s.spawn(move || closed_loop(cfg, t, obs, |req| tier.submit(req))))
            .collect();
        for h in handles {
            match h.join() {
                Ok(tally) => report.absorb(&tally),
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
    });
    // closed-loop submits that shed are also visible tier-side; sanity is
    // cheap, so keep the two books reconciled
    debug_assert!(tier.shed_total() - shed_before >= report.shed);
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tier::ServeConfig;

    #[test]
    fn zipf_cdf_is_monotone_and_skewed() {
        let z = ZipfCdf::new(64, 1.1);
        for w in z.cdf.windows(2) {
            assert!(w[1] >= w[0]);
        }
        let mut rng = 7u64;
        let mut counts = vec![0usize; 64];
        for _ in 0..10_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[32] * 2, "rank 0 must be hot: {:?}", &counts[..8]);
    }

    #[test]
    fn same_seed_same_thread_sequence() {
        let mut a = 42u64;
        let mut b = 42u64;
        for _ in 0..100 {
            assert_eq!(splitmix64(&mut a), splitmix64(&mut b));
        }
    }

    #[test]
    fn load_run_completes_and_reconciles() {
        let obs = Obs::deterministic();
        let tier = ServeTier::start_obs(
            &ServeConfig { n_shards: 2, ..ServeConfig::default() },
            Some(&obs),
        );
        let cfg = LoadGenConfig {
            n_clients: 1_000,
            ops_per_thread: 500,
            n_threads: 2,
            key_space: 32,
            ..LoadGenConfig::default()
        };
        let report = run_load(&tier, &cfg, Some(&obs));
        assert_eq!(report.shed, 0, "closed loop at 2 threads never overruns a 64-deep queue");
        assert!(report.completed >= 1_000, "every op must complete: {report:?}");
        assert!(report.puts > 0 && report.pulls > 0 && report.claims > 0, "mixed: {report:?}");
        let tier_report = tier.finish();
        assert_eq!(tier_report.total_ops(), report.completed);
        let snap = obs.registry().snapshot();
        assert_eq!(snap.counter("coda_serve_ops_total"), report.completed);
    }
}
