//! A caching client of a home data store: holds local versions, pulls with
//! version-aware fetches, and applies push messages (full, delta or
//! notify-then-pull). [`catch_up`] is the one rule by which any copy of an
//! object — this cache or a replica store — reaches the home's version.

use bytes::Bytes;
use coda_obs::Obs;
use std::collections::BTreeMap;

use crate::delta::{content_hash, DeltaCodec, DeltaError};
use crate::home::{FetchReply, HomeDataStore};
use crate::lease::UpdateMessage;

/// Error produced when applying an update to the local cache.
#[derive(Debug, Clone, PartialEq)]
pub enum ClientError {
    /// A delta arrived for a version the client does not hold.
    BaseVersionMismatch {
        /// Version the delta needs.
        needed: u64,
        /// Version the client holds (0 = none).
        held: u64,
    },
    /// Delta application failed.
    Delta(DeltaError),
    /// A pushed full value hashed differently from its recorded checksum —
    /// the payload was corrupted in flight.
    ChecksumMismatch {
        /// Checksum recorded by the home store.
        expected: u64,
        /// Checksum of the received bytes.
        actual: u64,
    },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::BaseVersionMismatch { needed, held } => {
                write!(f, "delta needs base version {needed}, client holds {held}")
            }
            ClientError::Delta(e) => write!(f, "delta application failed: {e}"),
            ClientError::ChecksumMismatch { expected, actual } => {
                write!(f, "push payload checksum {actual:#018x}, expected {expected:#018x}")
            }
        }
    }
}

impl std::error::Error for ClientError {}

impl From<DeltaError> for ClientError {
    fn from(e: DeltaError) -> Self {
        ClientError::Delta(e)
    }
}

/// What a copy of an object receives from the object's home.
#[derive(Debug, Clone, Copy)]
pub enum Incoming<'a> {
    /// The reply to a version-aware fetch made with the held version.
    Reply(&'a FetchReply),
    /// A lease push.
    Push(&'a UpdateMessage),
}

/// Brings a copy held at `held` (version and bytes; `None` when the copy
/// holds nothing) to the version `incoming` carries. A full payload is
/// taken as is, and a pushed one only when its checksum matches. A delta
/// applies only onto a held copy at its base version. An up-to-date reply
/// or a notification leaves the copy alone. Returns the copy's new version
/// and bytes, or `None` when it stays as it is.
///
/// # Errors
///
/// [`ClientError::ChecksumMismatch`] for a corrupted full push,
/// [`ClientError::BaseVersionMismatch`] for a delta onto another version,
/// and [`ClientError::Delta`] when the delta does not rebuild its target.
pub fn catch_up(
    held: Option<(u64, &[u8])>,
    incoming: Incoming<'_>,
) -> Result<Option<(u64, Bytes)>, ClientError> {
    match incoming {
        Incoming::Reply(FetchReply::UpToDate { .. })
        | Incoming::Push(UpdateMessage::Notify { .. }) => Ok(None),
        Incoming::Reply(FetchReply::Full { version, data }) => Ok(Some((*version, data.clone()))),
        Incoming::Push(UpdateMessage::Full { version, data, checksum, .. }) => {
            let actual = content_hash(data);
            if actual != *checksum {
                return Err(ClientError::ChecksumMismatch { expected: *checksum, actual });
            }
            Ok(Some((*version, data.clone())))
        }
        Incoming::Reply(FetchReply::Delta(delta))
        | Incoming::Push(UpdateMessage::Delta { delta, .. }) => match held {
            Some((v, base)) if v == delta.base_version => {
                Ok(Some((delta.target_version, DeltaCodec::apply(base, delta)?)))
            }
            _ => Err(ClientError::BaseVersionMismatch {
                needed: delta.base_version,
                held: held.map_or(0, |(v, _)| v),
            }),
        },
    }
}

/// A client-side object cache.
#[derive(Debug, Clone, Default)]
pub struct CachingClient {
    name: String,
    cache: BTreeMap<String, (u64, Bytes)>,
    /// Bytes received over all pulls/pushes.
    pub bytes_received: u64,
    obs: Option<Obs>,
}

impl CachingClient {
    /// Creates a named client with an empty cache.
    pub fn new<S: Into<String>>(name: S) -> Self {
        CachingClient { name: name.into(), cache: BTreeMap::new(), bytes_received: 0, obs: None }
    }

    /// Attaches an observability handle: applying a push that carries a
    /// [`coda_obs::SpanContext`] records a `store.apply_update` span as a
    /// child of the originating `put` — the receive side of the in-band
    /// context propagated through [`UpdateMessage`].
    pub fn attach_obs(&mut self, obs: Obs) {
        self.obs = Some(obs);
    }

    /// The client's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The locally-held version of `object` (None if uncached).
    pub fn held_version(&self, object: &str) -> Option<u64> {
        self.cache.get(object).map(|(v, _)| *v)
    }

    /// The locally-held bytes of `object`.
    pub fn held_data(&self, object: &str) -> Option<&Bytes> {
        self.cache.get(object).map(|(_, d)| d)
    }

    /// Moves the cached copy of `object` through [`catch_up`].
    fn apply(&mut self, object: &str, incoming: Incoming<'_>) -> Result<(), ClientError> {
        let held = self.cache.get(object).map(|(v, d)| (*v, &d[..]));
        if let Some(copy) = catch_up(held, incoming)? {
            self.cache.insert(object.to_string(), copy);
        }
        Ok(())
    }

    /// Pulls the latest version from the home store, passing the held
    /// version so the store can reply with a delta (paper §III).
    ///
    /// # Errors
    ///
    /// [`ClientError`] when a received delta cannot be applied.
    pub fn pull(&mut self, store: &mut HomeDataStore, object: &str) -> Result<bool, ClientError> {
        let held = self.held_version(object);
        let Ok(fetched) = store.fetch(object, held);
        let Some(reply) = fetched else {
            return Ok(false);
        };
        self.bytes_received += reply.wire_size() as u64;
        self.apply(object, Incoming::Reply(&reply))?;
        Ok(true)
    }

    /// Applies a push message. `Notify` messages only record that the cache
    /// is stale; call [`CachingClient::pull`] to refresh on demand.
    ///
    /// # Errors
    ///
    /// [`ClientError`] when a pushed payload cannot be applied.
    pub fn apply_push(&mut self, message: &UpdateMessage) -> Result<(), ClientError> {
        let obs = self.obs.clone();
        let _span = obs.as_ref().zip(message.context()).map(|(o, ctx)| {
            let _sender = o.tracer().enter(Some(ctx));
            o.tracer()
                .span("store.apply_update", &[("client", &self.name), ("object", message.object())])
        });
        self.bytes_received += message.wire_size() as u64;
        self.apply(message.object(), Incoming::Push(message))
    }

    /// True when the client's held version of `object` is behind `store`.
    pub fn is_stale(&self, store: &HomeDataStore, object: &str) -> bool {
        match (self.held_version(object), store.version_of(object)) {
            (Some(h), Some(s)) => h < s,
            (None, Some(_)) => true,
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lease::PushMode;

    fn patterned(n: usize, seed: u8) -> Bytes {
        Bytes::from(
            (0..n).map(|i| ((i as u64 * 13 + seed as u64) % 241) as u8).collect::<Vec<u8>>(),
        )
    }

    #[test]
    fn pull_full_then_delta() {
        let mut store = HomeDataStore::new("h", 4);
        let mut client = CachingClient::new("c");
        let base = patterned(20_000, 1);
        store.put("o", base.clone());
        assert!(client.pull(&mut store, "o").unwrap());
        assert_eq!(client.held_version("o"), Some(1));
        let full_bytes = client.bytes_received;

        let mut v2 = base.to_vec();
        v2[100] ^= 0xFF;
        store.put("o", Bytes::from(v2.clone()));
        assert!(client.is_stale(&store, "o"));
        client.pull(&mut store, "o").unwrap();
        assert_eq!(client.held_version("o"), Some(2));
        assert_eq!(&client.held_data("o").unwrap()[..], &v2[..]);
        // the delta pull must be far cheaper than the initial full pull
        let delta_bytes = client.bytes_received - full_bytes;
        assert!(delta_bytes < full_bytes / 10, "delta {delta_bytes} vs full {full_bytes}");
    }

    #[test]
    fn pull_missing_object() {
        let mut store = HomeDataStore::new("h", 4);
        let mut client = CachingClient::new("c");
        assert!(!client.pull(&mut store, "nope").unwrap());
    }

    #[test]
    fn pull_up_to_date_costs_header_only() {
        let mut store = HomeDataStore::new("h", 4);
        let mut client = CachingClient::new("c");
        store.put("o", patterned(1000, 2));
        client.pull(&mut store, "o").unwrap();
        let before = client.bytes_received;
        client.pull(&mut store, "o").unwrap();
        assert_eq!(client.bytes_received - before, 16);
        assert!(!client.is_stale(&store, "o"));
    }

    #[test]
    fn push_full_and_delta_apply() {
        let mut store = HomeDataStore::new("h", 4);
        let mut client = CachingClient::new("c");
        let base = patterned(10_000, 3);
        store.put("o", base.clone());
        client.pull(&mut store, "o").unwrap();
        store.subscribe("c", "o", PushMode::Delta, 100);
        let mut v2 = base.to_vec();
        v2[0] ^= 1;
        let (_, messages) = store.put("o", Bytes::from(v2.clone()));
        assert_eq!(messages.len(), 1);
        client.apply_push(&messages[0]).unwrap();
        assert_eq!(client.held_version("o"), Some(2));
        assert_eq!(&client.held_data("o").unwrap()[..], &v2[..]);
    }

    #[test]
    fn notify_then_on_demand_pull() {
        let mut store = HomeDataStore::new("h", 4);
        let mut client = CachingClient::new("c");
        let base = patterned(10_000, 4);
        store.put("o", base.clone());
        client.pull(&mut store, "o").unwrap();
        store.subscribe("c", "o", PushMode::NotifyOnly, 100);
        let mut v2 = base.to_vec();
        v2[9] ^= 0xF0;
        let (_, messages) = store.put("o", Bytes::from(v2));
        client.apply_push(&messages[0]).unwrap();
        // notify does not update the cache...
        assert_eq!(client.held_version("o"), Some(1));
        assert!(client.is_stale(&store, "o"));
        // ...until the client decides to pull
        client.pull(&mut store, "o").unwrap();
        assert_eq!(client.held_version("o"), Some(2));
    }

    #[test]
    fn delta_for_wrong_base_rejected() {
        let mut store = HomeDataStore::new("h", 4);
        let mut client = CachingClient::new("c");
        let base = patterned(10_000, 5);
        store.put("o", base.clone());
        // client never pulled; a delta push cannot apply
        store.subscribe("c", "o", PushMode::Delta, 100);
        let mut v2 = base.to_vec();
        v2[1] ^= 1;
        let (_, messages) = store.put("o", Bytes::from(v2));
        let err = client.apply_push(&messages[0]).unwrap_err();
        assert!(matches!(err, ClientError::BaseVersionMismatch { held: 0, .. }));
    }

    #[test]
    fn corrupted_full_push_rejected_then_repulled() {
        use crate::lease::UpdateMessage;
        let mut store = HomeDataStore::new("h", 4);
        let mut client = CachingClient::new("c");
        let base = patterned(2000, 6);
        store.put("o", base.clone());
        client.pull(&mut store, "o").unwrap();
        store.subscribe("c", "o", PushMode::Full, 100);
        let v2: Vec<u8> = base.iter().map(|b| b ^ 0xAA).collect();
        let (_, mut messages) = store.put("o", Bytes::from(v2.clone()));
        // corrupt the payload in flight without touching the checksum
        if let UpdateMessage::Full { data, .. } = &mut messages[0] {
            let mut raw = data.to_vec();
            raw[7] ^= 0x10;
            *data = Bytes::from(raw);
        }
        let err = client.apply_push(&messages[0]).unwrap_err();
        assert!(matches!(err, ClientError::ChecksumMismatch { .. }));
        assert_eq!(client.held_version("o"), Some(1), "corrupt push must not apply");
        // the rejected push leaves a held copy a version-aware pull repairs
        assert!(client.pull(&mut store, "o").unwrap());
        assert_eq!(client.held_version("o"), Some(2));
        assert_eq!(&client.held_data("o").unwrap()[..], &v2[..]);
    }

    #[test]
    fn push_carries_context_and_apply_links_to_it() {
        use coda_obs::{Obs, TraceForest};
        let obs = Obs::deterministic();
        let mut store = HomeDataStore::new("h", 4);
        store.attach_obs(obs.clone());
        let mut client = CachingClient::new("c");
        client.attach_obs(obs.clone());
        let base = patterned(4_000, 9);
        store.put("o", base.clone());
        client.pull(&mut store, "o").unwrap();
        store.subscribe("c", "o", PushMode::Full, 100);
        let v2: Vec<u8> = base.iter().map(|b| b ^ 0x3C).collect();
        let (_, messages) = store.put("o", Bytes::from(v2));
        let put_ctx = messages[0].context().expect("instrumented put stamps its context");
        client.apply_push(&messages[0]).unwrap();
        let forest = TraceForest::from_events(&obs.tracer().events());
        assert!(forest.orphans().is_empty());
        let apply = forest.spans().find(|s| s.name == "store.apply_update").unwrap();
        assert_eq!(apply.parent, Some(put_ctx.span_id), "apply is a child of the causing put");
        assert_eq!(apply.ctx.trace_id, put_ctx.trace_id, "one trace spans the wire");
    }
}
