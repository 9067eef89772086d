//! Deterministic fault injection and resilience policies for the simulated
//! distributed system:
//!
//! - a seeded [`FaultInjector`] that the chaos driver consults per message
//!   to produce message drops, scheduled link flaps and node crash/restart
//!   windows on a logical clock;
//! - a [`CrashPlan`] that kills a node at a logical operation count, for the
//!   kill-restart driver and the serving tier;
//! - a [`RetryPolicy`] (fixed or exponential backoff with seeded jitter and
//!   an attempt budget) whose [`RetryStats`] make every recovery path
//!   *measurable*.
//!
//! Everything is driven by logical time and seeded RNGs, so a chaos run
//! with the same [`FaultPlan`] seed replays bit-identically — the property
//! the resilience tests and the D4 experiment rely on.
//!
//! # Examples
//!
//! ```
//! use coda_chaos::{FaultPlan, FaultInjector, RetryPolicy};
//!
//! let plan = FaultPlan::new(7).with_drop_probability(0.5);
//! let mut inj = FaultInjector::new(plan);
//! let policy = RetryPolicy::exponential(10.0, 2.0, 80.0, 6);
//! let (result, stats) = policy.run(|_attempt| {
//!     if inj.should_drop("client", "store") { Err("dropped") } else { Ok(()) }
//! });
//! assert!(result.is_ok());
//! assert_eq!(stats.attempts, stats.retries + 1);
//! ```

pub mod crash;
pub mod fault;
pub mod retry;

pub use crash::{CrashPlan, CrashPoint, CrashSchedule};
pub use fault::{FaultInjector, FaultPlan, FaultStats, LinkFlap, NodeCrash};
pub use retry::{Backoff, RetryPolicy, RetryState, RetryStats};
