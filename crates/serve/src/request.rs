//! The serving tier's wire types: one request enum covering the existing
//! put/pull/claim/complete/trigger surface, the mirrored response enum,
//! and the typed admission-control error. A request names everything the
//! owning shard needs; nothing in here borrows, so a request published on
//! one thread can be applied on another.

use bytes::Bytes;
use coda_darr::{AnalyticsRecord, ComputationKey};
use coda_store::{FetchReply, PushMode};

/// One data-plane request. Object-addressed variants route by object id,
/// key-addressed variants by the DARR computation key; the router decides,
/// the shard executes.
#[derive(Debug, Clone)]
pub enum ServeRequest {
    /// Write a new version of `id` (WAL-logged at the owning shard).
    Put {
        /// Object id.
        id: String,
        /// The new full value.
        data: Bytes,
    },
    /// Version-aware fetch of `id`.
    Pull {
        /// Object id.
        id: String,
        /// The version the client already holds, if any.
        client_version: Option<u64>,
    },
    /// Lease-based subscription of `client` to `id`'s updates.
    Subscribe {
        /// Subscribing client.
        client: String,
        /// Object id.
        id: String,
        /// Push mode for updates.
        mode: PushMode,
        /// Lease duration in store-clock ticks.
        duration: u64,
    },
    /// Cancel `client`'s lease on `id`.
    Cancel {
        /// Subscribing client.
        client: String,
        /// Object id.
        id: String,
    },
    /// Try to claim `key` for `client` (cooperative dedup).
    Claim {
        /// The computation key.
        key: ComputationKey,
        /// Claiming client.
        client: String,
        /// Claim lease duration in DARR ticks.
        duration: u64,
    },
    /// Publish `client`'s finished result for `key`.
    Complete {
        /// The computation key.
        key: ComputationKey,
        /// Producing client.
        client: String,
        /// The result score.
        score: f64,
        /// Per-fold scores.
        fold_scores: Vec<f64>,
        /// Human-readable explanation.
        explanation: String,
    },
    /// Read the stored result for `key`, if any.
    Lookup {
        /// The computation key.
        key: ComputationKey,
    },
}

impl ServeRequest {
    /// The routing key: the object id for store ops, the stable
    /// `dataset|pipeline` string for DARR ops — what [`crate::ShardRouter`]
    /// hashes.
    pub fn routing_key(&self) -> String {
        match self {
            ServeRequest::Put { id, .. }
            | ServeRequest::Pull { id, .. }
            | ServeRequest::Subscribe { id, .. }
            | ServeRequest::Cancel { id, .. } => id.clone(),
            ServeRequest::Claim { key, .. }
            | ServeRequest::Complete { key, .. }
            | ServeRequest::Lookup { key } => format!("{}|{}", key.dataset_id, key.pipeline),
        }
    }
}

/// The response mirror of [`ServeRequest`].
#[derive(Debug, Clone)]
pub enum ServeResponse {
    /// A put landed: the new version, how many lease pushes it generated,
    /// and whether the object's recompute trigger fired.
    Put {
        /// New version of the object.
        version: u64,
        /// Lease pushes the put generated.
        pushes: usize,
        /// Whether the object's [`coda_store::ChangeMonitor`] fired.
        trigger_fired: bool,
    },
    /// A pull answered (None = unknown object).
    Pull(Option<FetchReply>),
    /// Subscribe / cancel acknowledged; `true` when the op changed state.
    Lease(bool),
    /// A claim answered.
    Claim(coda_darr::ClaimOutcome),
    /// A completion stored; the canonical record.
    Complete(AnalyticsRecord),
    /// A lookup answered (None = not computed yet).
    Lookup(Option<AnalyticsRecord>),
}

/// Why the tier refused or failed a request — the typed alternative to
/// panicking or silently dropping under load.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// Admission control shed the request: shard `shard`'s bounded queue
    /// was full. The caller may back off and retry; the shed is counted
    /// under `coda_serve_shed_total`.
    Overloaded {
        /// The shard whose queue was full.
        shard: usize,
    },
    /// A panic under the shard's lock killed it; it applies nothing more.
    ShardUnavailable {
        /// The unreachable shard.
        shard: usize,
    },
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Overloaded { shard } => {
                write!(f, "shard {shard} overloaded: bounded queue full, request shed")
            }
            ServeError::ShardUnavailable { shard } => {
                write!(f, "shard {shard} unavailable: a panic killed it")
            }
        }
    }
}

impl std::error::Error for ServeError {}
