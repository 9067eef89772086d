//! The Data Analytics Results Repository — DARR (paper §III, Fig. 2).
//!
//! Multiple clients cooperating on the same data set store their analytics
//! results here, keyed by *exactly what was computed*: dataset id and
//! version, pipeline spec (steps + parameters), cross-validation
//! configuration, and metric. Before computing, a client consults the DARR;
//! results already present are reused, untried computations are *claimed*
//! so no two clients run the same one, and results for stale dataset
//! versions are ignored.
//!
//! # Examples
//!
//! ```
//! use coda_darr::{ComputationKey, Darr};
//!
//! let darr = Darr::new();
//! let key = ComputationKey::new("sensors", 3, "scaler>model", "kfold(5)", "rmse");
//! // first client claims the computation…
//! assert!(darr.try_claim(&key, "client-a", 100).is_claimed());
//! // …a second client cannot
//! assert!(!darr.try_claim(&key, "client-b", 100).is_claimed());
//! darr.complete(&key, "client-a", 0.42, vec![0.4, 0.44], "explanation");
//! // now everyone reuses the stored result
//! assert_eq!(darr.lookup(&key).unwrap().score, 0.42);
//! ```

#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod coop;
pub mod record;
pub mod repo;

pub use coop::{CoopOutcome, CoopSummary, CooperativeClient, DarrLink};
pub use record::{AnalyticsRecord, ComputationKey};
pub use repo::{ClaimOutcome, Darr};
