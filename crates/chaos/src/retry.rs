//! Retry/backoff policies with per-call statistics. Backoff is expressed in
//! logical milliseconds (the same unit the simulated network and store
//! clocks use); nothing here sleeps — callers advance their logical clocks
//! by the returned backoff, which keeps chaos runs deterministic.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The delay schedule between attempts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Backoff {
    /// The same delay before every retry.
    Fixed {
        /// Delay in logical milliseconds.
        delay_ms: f64,
    },
    /// `base * factor^(retry-1)`, capped at `max_ms`.
    Exponential {
        /// First retry delay.
        base_ms: f64,
        /// Multiplier per retry.
        factor: f64,
        /// Upper bound on any single delay.
        max_ms: f64,
    },
}

/// A retry policy: backoff schedule, attempt budget and seeded jitter.
#[derive(Debug, Clone, PartialEq)]
pub struct RetryPolicy {
    backoff: Backoff,
    max_attempts: u32,
    /// Jitter fraction in [0, 1): each delay is scaled by a seeded draw
    /// from [1 - jitter, 1 + jitter].
    jitter: f64,
    seed: u64,
}

impl RetryPolicy {
    /// Fixed-delay policy: up to `max_attempts` attempts, `delay_ms` apart.
    ///
    /// # Panics
    ///
    /// Panics when `max_attempts` is zero or `delay_ms` is negative.
    pub fn fixed(delay_ms: f64, max_attempts: u32) -> Self {
        assert!(max_attempts >= 1, "need at least one attempt");
        assert!(delay_ms >= 0.0, "negative delay");
        RetryPolicy { backoff: Backoff::Fixed { delay_ms }, max_attempts, jitter: 0.0, seed: 0 }
    }

    /// Exponential policy: delays `base, base*factor, ...` capped at
    /// `max_ms`, up to `max_attempts` attempts.
    ///
    /// # Panics
    ///
    /// Panics on a zero attempt budget or non-positive schedule parameters.
    pub fn exponential(base_ms: f64, factor: f64, max_ms: f64, max_attempts: u32) -> Self {
        assert!(max_attempts >= 1, "need at least one attempt");
        assert!(base_ms >= 0.0 && factor >= 1.0 && max_ms >= base_ms, "bad schedule");
        RetryPolicy {
            backoff: Backoff::Exponential { base_ms, factor, max_ms },
            max_attempts,
            jitter: 0.0,
            seed: 0,
        }
    }

    /// Adds seeded jitter: each delay is scaled by a deterministic draw from
    /// `[1 - fraction, 1 + fraction]`.
    ///
    /// # Panics
    ///
    /// Panics when `fraction` is outside `[0, 1)`.
    pub fn with_jitter(mut self, fraction: f64, seed: u64) -> Self {
        assert!((0.0..1.0).contains(&fraction), "jitter fraction must be in [0, 1)");
        self.jitter = fraction;
        self.seed = seed;
        self
    }

    /// Maximum number of attempts (1 = no retries).
    pub fn max_attempts(&self) -> u32 {
        self.max_attempts
    }

    /// The raw (jitter-free) delay before retry number `retry` (1-based).
    pub fn base_delay_ms(&self, retry: u32) -> f64 {
        match self.backoff {
            Backoff::Fixed { delay_ms } => delay_ms,
            Backoff::Exponential { base_ms, factor, max_ms } => {
                (base_ms * factor.powi(retry.saturating_sub(1) as i32)).min(max_ms)
            }
        }
    }

    /// Starts a fresh retry state for one logical operation. Use this when
    /// side effects (clock advances, failover) must happen between attempts;
    /// otherwise [`RetryPolicy::run`] is simpler.
    pub fn state(&self) -> RetryState {
        RetryState {
            policy: self.clone(),
            rng: StdRng::seed_from_u64(self.seed),
            attempts: 0,
            total_backoff_ms: 0.0,
        }
    }

    /// Runs `op` under this policy: `op` receives the 1-based attempt
    /// number; `Err` triggers a retry until the attempts run out.
    /// Returns the final result plus the attempt/backoff accounting.
    pub fn run<T, E>(&self, mut op: impl FnMut(u32) -> Result<T, E>) -> (Result<T, E>, RetryStats) {
        let mut state = self.state();
        loop {
            let attempt = state.begin_attempt();
            match op(attempt) {
                Ok(v) => return (Ok(v), state.finish(true)),
                Err(e) => {
                    if state.next_backoff_ms().is_none() {
                        return (Err(e), state.finish(false));
                    }
                }
            }
        }
    }
}

/// In-flight retry accounting for one logical operation.
#[derive(Debug, Clone)]
pub struct RetryState {
    policy: RetryPolicy,
    rng: StdRng,
    attempts: u32,
    total_backoff_ms: f64,
}

impl RetryState {
    /// Marks the start of the next attempt, returning its 1-based number.
    pub fn begin_attempt(&mut self) -> u32 {
        self.attempts += 1;
        self.attempts
    }

    /// Attempts made so far.
    pub fn attempts(&self) -> u32 {
        self.attempts
    }

    /// After a failed attempt: the (jittered) backoff before the next one,
    /// or `None` when the attempt budget is exhausted. The caller should
    /// advance its logical clock by the returned amount.
    pub fn next_backoff_ms(&mut self) -> Option<f64> {
        if self.attempts >= self.policy.max_attempts {
            return None;
        }
        let mut delay = self.policy.base_delay_ms(self.attempts);
        if self.policy.jitter > 0.0 {
            let scale = 1.0 + self.policy.jitter * self.rng.gen_range(-1.0..=1.0);
            delay *= scale;
        }
        self.total_backoff_ms += delay;
        Some(delay)
    }

    /// Finalizes the accounting (`succeeded` = the last attempt returned Ok).
    pub fn finish(&self, succeeded: bool) -> RetryStats {
        RetryStats {
            calls: 1,
            attempts: self.attempts,
            retries: self.attempts.saturating_sub(1),
            successes: u32::from(succeeded),
            exhausted: u32::from(!succeeded),
            total_backoff_ms: self.total_backoff_ms,
        }
    }
}

/// Attempt/backoff accounting — per call, and mergeable into a run-level
/// aggregate for reports.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RetryStats {
    /// Logical operations accounted (1 for a single call).
    pub calls: u32,
    /// Attempts made (including the first).
    pub attempts: u32,
    /// Retries (attempts beyond the first).
    pub retries: u32,
    /// Operations that eventually succeeded.
    pub successes: u32,
    /// Operations that ran out of attempts.
    pub exhausted: u32,
    /// Total logical-ms spent backing off.
    pub total_backoff_ms: f64,
}

impl RetryStats {
    /// Folds another operation's stats into this aggregate.
    pub fn merge(&mut self, other: &RetryStats) {
        self.calls += other.calls;
        self.attempts += other.attempts;
        self.retries += other.retries;
        self.successes += other.successes;
        self.exhausted += other.exhausted;
        self.total_backoff_ms += other.total_backoff_ms;
    }
}

impl coda_obs::Publish for RetryStats {
    fn publish(&self, registry: &coda_obs::MetricsRegistry) {
        registry.count("coda_chaos_retry_calls", u64::from(self.calls));
        registry.count("coda_chaos_retry_attempts", u64::from(self.attempts));
        registry.count("coda_chaos_retry_retries", u64::from(self.retries));
        registry.count("coda_chaos_retry_successes", u64::from(self.successes));
        registry.count("coda_chaos_retry_exhausted", u64::from(self.exhausted));
        registry.gauge("coda_chaos_retry_backoff_ms").add(self.total_backoff_ms);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn succeeds_first_try_without_backoff() {
        let policy = RetryPolicy::fixed(10.0, 3);
        let (result, stats) = policy.run(|_| Ok::<_, ()>(42));
        assert_eq!(result, Ok(42));
        assert_eq!(stats.attempts, 1);
        assert_eq!(stats.retries, 0);
        assert_eq!(stats.successes, 1);
        assert_eq!(stats.total_backoff_ms, 0.0);
    }

    #[test]
    fn retries_until_success() {
        let policy = RetryPolicy::fixed(5.0, 5);
        let mut fails = 3;
        let (result, stats) = policy.run(|_| {
            if fails > 0 {
                fails -= 1;
                Err("transient")
            } else {
                Ok("done")
            }
        });
        assert_eq!(result, Ok("done"));
        assert_eq!(stats.attempts, 4);
        assert_eq!(stats.retries, 3);
        assert!((stats.total_backoff_ms - 15.0).abs() < 1e-12);
    }

    #[test]
    fn gives_up_after_max_attempts() {
        let policy = RetryPolicy::fixed(1.0, 3);
        let (result, stats) = policy.run(|_| Err::<(), _>("permanent"));
        assert_eq!(result, Err("permanent"));
        assert_eq!(stats.attempts, 3);
        assert_eq!(stats.exhausted, 1);
        assert_eq!(stats.successes, 0);
    }

    #[test]
    fn exponential_schedule_caps() {
        let policy = RetryPolicy::exponential(10.0, 2.0, 35.0, 10);
        assert_eq!(policy.base_delay_ms(1), 10.0);
        assert_eq!(policy.base_delay_ms(2), 20.0);
        assert_eq!(policy.base_delay_ms(3), 35.0); // capped from 40
        assert_eq!(policy.base_delay_ms(4), 35.0);
    }

    #[test]
    fn jitter_is_deterministic_and_bounded() {
        let policy = RetryPolicy::fixed(100.0, 8).with_jitter(0.2, 99);
        let collect = || {
            let mut state = policy.state();
            let mut delays = Vec::new();
            loop {
                state.begin_attempt();
                match state.next_backoff_ms() {
                    Some(d) => delays.push(d),
                    None => break,
                }
            }
            delays
        };
        let a = collect();
        let b = collect();
        assert_eq!(a, b, "same seed must replay identically");
        assert_eq!(a.len(), 7);
        assert!(a.iter().all(|&d| (80.0..=120.0).contains(&d)), "delays {a:?}");
        // jitter actually varies the delays
        assert!(a.iter().any(|&d| (d - 100.0).abs() > 1e-9));
    }

    #[test]
    fn state_allows_side_effects_between_attempts() {
        let policy = RetryPolicy::fixed(2.0, 4);
        let mut state = policy.state();
        let mut clock = 0.0;
        let mut outcome = Err("down");
        loop {
            state.begin_attempt();
            if clock >= 4.0 {
                outcome = Ok("recovered");
                break;
            }
            match state.next_backoff_ms() {
                Some(d) => clock += d, // the caller advances its own clock
                None => break,
            }
        }
        assert_eq!(outcome, Ok("recovered"));
        let stats = state.finish(true);
        assert_eq!(stats.attempts, 3);
    }

    #[test]
    fn merge_accumulates() {
        let mut total = RetryStats::default();
        let policy = RetryPolicy::fixed(1.0, 2);
        let (_, a) = policy.run(|_| Ok::<_, ()>(1));
        let (_, b) = policy.run(|_| Err::<(), _>(()));
        total.merge(&a);
        total.merge(&b);
        assert_eq!(total.calls, 2);
        assert_eq!(total.attempts, 3);
        assert_eq!(total.successes, 1);
        assert_eq!(total.exhausted, 1);
    }
}
