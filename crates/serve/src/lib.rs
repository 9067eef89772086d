//! The sharded multi-tenant serving tier: the store/DARR stack, scaled out.
//!
//! The paper's cooperative-analytics story (§III) only pays off when many
//! clients hit the data tier and the DARR concurrently. This crate shards
//! both by the stable key hash every layer already routes with
//! ([`coda_store::shard_of`]) across N shards. Each shard's
//! [`coda_store::DurableStore`], [`coda_darr::Darr`] partition and
//! per-object [`coda_store::ChangeMonitor`]s form one [`ShardCore`] behind
//! that shard's combiner lock and bounded publication queue — no
//! cross-shard locks, no shared mutable state, and no thread of the tier's
//! own: each request is applied on a caller's thread.
//!
//! The tier boundary provides what a single instance never needed:
//!
//! - **admission control** — queues are bounded; a full queue sheds the
//!   request with a typed [`ServeError::Overloaded`] (never a panic, never
//!   a silent drop) and counts it under `coda_serve_shed_total`;
//! - **request batching** — whichever submitter holds a shard's lock
//!   applies up to a batch cap of published requests per combining pass
//!   (`coda_serve_batch_size` histograms the effect);
//! - **crash composition** — each shard executes the
//!   [`coda_chaos::CrashPlan`] points addressed to it (node `shard-{i}`)
//!   at exact WAL operation counts: export, crash to the durable image,
//!   recover by WAL replay, and prove the replay byte-identical — in-line,
//!   while the other shards keep serving.
//!
//! Everything observable flows through [`coda_obs::Obs`]; everything
//! random or time-like is seeded/logical, so the shard-equivalence
//! harness can demand byte-identical final state against the unsharded
//! baseline at any shard count.

#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod loadgen;
pub mod request;
pub mod router;
pub mod shard;
pub mod tier;

pub use loadgen::{closed_loop, run_load, LoadGenConfig, LoadReport, SERVE_LATENCY_BOUNDS};
pub use request::{ServeError, ServeRequest, ServeResponse};
pub use router::ShardRouter;
pub use shard::{merge_canonical_exports, ShardCore, TriggerPolicy};
pub use tier::{ServeConfig, ServeTier, ShardSummary, TierReport};
