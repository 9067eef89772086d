//! The distributed data tier of the paper's Section III: versioned objects
//! with home data stores, delta encoding between versions, pull and
//! lease-based push update propagation, and update-threshold triggers that
//! decide when analytics must be recomputed.
//!
//! Everything is deterministic and in-process: time is a logical clock the
//! caller advances, and every transfer is accounted in bytes/messages so
//! the paper's bandwidth claims can be *measured* (experiments D1–D3).
//!
//! # Examples
//!
//! ```
//! use coda_store::{DeltaCodec, HomeDataStore};
//! use bytes::Bytes;
//!
//! let mut store = HomeDataStore::new("home", 4);
//! store.put("o1", Bytes::from(vec![0u8; 10_000]));
//! let mut v2 = vec![0u8; 10_000];
//! v2[17] = 9; // small update
//! store.put("o1", Bytes::from(v2));
//!
//! // a client holding version 1 fetches version 2: the store sends a delta
//! let reply = store.fetch("o1", Some(1))?.expect("object exists");
//! assert!(reply.wire_size() < 1_000);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod client;
pub mod delta;
pub mod failover;
pub mod home;
pub mod lease;
pub mod replication;
pub mod tier;
pub mod trigger;
pub mod wal;

pub use client::{catch_up, CachingClient, ClientError, Incoming};
pub use delta::{content_hash, Delta, DeltaCodec, DeltaError, DeltaOp};
pub use failover::{FailoverDecision, HomeLeaseFailover};
pub use home::{FetchReply, HomeDataStore, TransferStats};
pub use lease::{Lease, PushMode, UpdateMessage};
pub use replication::{ReplicatedStore, ReplicationError};
pub use tier::{shard_of, DataTier};
pub use trigger::{ChangeMonitor, RecomputeTrigger, UpdateStats};
pub use wal::{DurableImage, DurableStore, Snapshot, WalRecord, WriteAheadLog};
