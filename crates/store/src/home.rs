//! The home data store (paper §III): holds the current version of each
//! object, keeps recent versions from which it sends deltas
//! `d(o, k−1, k), d(o, k−2, k), …`, and answers version-aware fetches with
//! either the full object or a delta — whichever is cheaper on the wire.
//! A delta is encoded the first time a fetch or a push needs it and
//! memoized until the object's next version, so a put that no reader
//! lags behind encodes nothing.

use bytes::Bytes;
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

use coda_obs::{Counter, MetricsSnapshot, Obs};

use crate::delta::{content_hash, Delta, DeltaCodec};
use crate::lease::{Lease, PushMode, UpdateMessage};

/// How far below the full size a delta must be to be preferred
/// ("considerably smaller" in the paper): delta must be < 1/2 of full.
const DELTA_ADVANTAGE: f64 = 0.5;

/// What home stores sent, read from their `coda_store_*` counters: a view
/// of a [`MetricsSnapshot`], or of the diff of two snapshots to cover one
/// phase. Full and delta transfers count their payload bytes, a
/// notification 32 bytes (version number + change summary) and an
/// up-to-date reply 16.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TransferStats {
    /// Messages sent.
    pub messages: u64,
    /// Payload bytes sent.
    pub bytes: u64,
    /// Full-object transfers.
    pub full_transfers: u64,
    /// Delta transfers.
    pub delta_transfers: u64,
    /// Notification-only messages.
    pub notifications: u64,
}

impl TransferStats {
    /// The transfers `snap` counts, summed over every store that counts
    /// into its registry.
    pub fn from_snapshot(snap: &MetricsSnapshot) -> Self {
        let full_transfers = snap.counter("coda_store_full_transfers");
        let delta_transfers = snap.counter("coda_store_delta_transfers");
        let notifications = snap.counter("coda_store_notifications");
        let up_to_date = snap.counter("coda_store_pull_up_to_date");
        TransferStats {
            messages: full_transfers + delta_transfers + notifications + up_to_date,
            bytes: snap.counter("coda_store_full_bytes")
                + snap.counter("coda_store_delta_bytes")
                + 32 * notifications
                + 16 * up_to_date,
            full_transfers,
            delta_transfers,
            notifications,
        }
    }
}

/// Reply to a version-aware fetch.
#[derive(Debug, Clone)]
pub enum FetchReply {
    /// The full current version.
    Full {
        /// Current version number.
        version: u64,
        /// Object bytes.
        data: Bytes,
    },
    /// A delta from the client's version to the current one.
    Delta(Delta),
    /// The client is already current.
    UpToDate {
        /// Current version number.
        version: u64,
    },
}

impl FetchReply {
    /// Bytes this reply occupies on the wire.
    pub fn wire_size(&self) -> usize {
        match self {
            FetchReply::Full { data, .. } => data.len() + 16,
            FetchReply::Delta(d) => d.wire_size(),
            FetchReply::UpToDate { .. } => 16,
        }
    }

    /// The version the reply brings the client to.
    pub fn version(&self) -> u64 {
        match self {
            FetchReply::Full { version, .. } => *version,
            FetchReply::Delta(d) => d.target_version,
            FetchReply::UpToDate { version } => *version,
        }
    }
}

/// One stored object: current version plus a bounded history of recent
/// versions, and the deltas from them to the current version that were
/// needed so far.
#[derive(Debug, Clone, Default)]
struct StoredObject {
    version: u64,
    data: Bytes,
    /// (version, full bytes) most-recent-last; bounded by `history_depth`.
    history: VecDeque<(u64, Bytes)>,
    /// Memoized d(o, v, current) keyed by base version v: filled by
    /// [`StoredObject::delta_from`], emptied by [`StoredObject::advance`].
    deltas: BTreeMap<u64, Delta>,
}

impl StoredObject {
    /// Moves the object to `version` holding `data`: the old version joins
    /// the bounded history and the memoized deltas, which lead to the old
    /// version, are dropped. The one version-advance behind both a put and
    /// an installed catch-up.
    fn advance(&mut self, version: u64, data: Bytes, history_depth: usize) {
        if self.version > 0 {
            self.history.push_back((self.version, self.data.clone()));
            while self.history.len() > history_depth {
                self.history.pop_front();
            }
        }
        self.version = version;
        self.data = data;
        self.deltas.clear();
    }

    /// d(o, v, current), or `None` when version `v` is not retained. It is
    /// encoded the first time it is needed, counted on `encodes`, and
    /// memoized until the next advance, so a version costs at most one
    /// encode per retained base.
    fn delta_from(&mut self, v: u64, encodes: Option<&Counter>) -> Option<&Delta> {
        match self.deltas.entry(v) {
            Entry::Occupied(memo) => Some(memo.into_mut()),
            Entry::Vacant(slot) => {
                let (_, old) = self.history.iter().find(|(hv, _)| *hv == v)?;
                if let Some(c) = encodes {
                    c.inc();
                }
                Some(slot.insert(DeltaCodec::encode(old, &self.data, v, self.version)))
            }
        }
    }
}

/// A store's `coda_store_*` counter handles, resolved once when an [`Obs`]
/// is attached, so each count is one atomic add.
#[derive(Debug, Clone)]
struct StoreMetrics {
    obs: Obs,
    puts: Arc<Counter>,
    push_messages: Arc<Counter>,
    pulls: Arc<Counter>,
    full_transfers: Arc<Counter>,
    full_bytes: Arc<Counter>,
    delta_transfers: Arc<Counter>,
    delta_bytes: Arc<Counter>,
    notifications: Arc<Counter>,
    up_to_date: Arc<Counter>,
    installed_versions: Arc<Counter>,
    delta_encodes: Arc<Counter>,
}

impl StoreMetrics {
    fn new(obs: Obs) -> Self {
        let r = obs.registry();
        StoreMetrics {
            puts: r.counter("coda_store_puts"),
            push_messages: r.counter("coda_store_push_messages"),
            pulls: r.counter("coda_store_pulls"),
            full_transfers: r.counter("coda_store_full_transfers"),
            full_bytes: r.counter("coda_store_full_bytes"),
            delta_transfers: r.counter("coda_store_delta_transfers"),
            delta_bytes: r.counter("coda_store_delta_bytes"),
            notifications: r.counter("coda_store_notifications"),
            up_to_date: r.counter("coda_store_pull_up_to_date"),
            installed_versions: r.counter("coda_store_installed_versions"),
            delta_encodes: r.counter("coda_store_delta_encodes"),
            obs,
        }
    }

    /// One full-object transfer of `bytes` payload bytes.
    fn full(&self, bytes: usize) {
        self.full_transfers.inc();
        self.full_bytes.add(bytes as u64);
    }

    /// One delta transfer of `bytes` wire bytes.
    fn delta(&self, bytes: usize) {
        self.delta_transfers.inc();
        self.delta_bytes.add(bytes as u64);
    }
}

/// An in-process home data store with lease-based push. An attached
/// [`Obs`] counts what it sends; [`TransferStats`] reads those counters.
#[derive(Debug, Clone)]
pub struct HomeDataStore {
    name: String,
    history_depth: usize,
    objects: BTreeMap<String, StoredObject>,
    leases: Vec<Lease>,
    clock: u64,
    metrics: Option<StoreMetrics>,
}

impl HomeDataStore {
    /// Creates a store keeping `history_depth` recent versions per object.
    pub fn new<S: Into<String>>(name: S, history_depth: usize) -> Self {
        HomeDataStore {
            name: name.into(),
            history_depth: history_depth.max(1),
            objects: BTreeMap::new(),
            leases: Vec::new(),
            clock: 0,
            metrics: None,
        }
    }

    /// Attaches an observability handle: subsequent `put`/`fetch` calls
    /// count live into its registry under `coda_store_*` names.
    pub fn attach_obs(&mut self, obs: Obs) {
        self.metrics = Some(StoreMetrics::new(obs));
    }

    /// The store's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Current logical time.
    pub fn now(&self) -> u64 {
        self.clock
    }

    /// Advances the logical clock, expiring leases.
    pub fn advance_clock(&mut self, ticks: u64) {
        self.clock += ticks;
        let now = self.clock;
        self.leases.retain(|l| l.expires_at > now);
    }

    /// Current version of an object, if stored.
    pub fn version_of(&self, id: &str) -> Option<u64> {
        self.objects.get(id).map(|o| o.version)
    }

    /// The current version and bytes of an object, if stored: the held
    /// copy a replica hands to [`crate::catch_up`]. A local read, so it is
    /// not a transfer and is not counted.
    pub fn current(&self, id: &str) -> Option<(u64, &[u8])> {
        self.objects.get(id).map(|o| (o.version, &o.data[..]))
    }

    /// Stores a new version of `id` (creating it at version 1) and pushes
    /// to subscribed clients. Only an unexpired `Delta` or `NotifyOnly`
    /// lease makes the put encode a delta (the step from the preceding
    /// version); every other delta waits for the fetch that needs it.
    /// Returns the new version number and any push messages to deliver.
    ///
    /// An instrumented store opens a `store.put` span under the caller's
    /// current span and stamps every push message with its
    /// [`coda_obs::SpanContext`], so receiving clients link their apply
    /// work back to this update.
    pub fn put<S: AsRef<str>>(&mut self, id: S, data: Bytes) -> (u64, Vec<UpdateMessage>) {
        let id = id.as_ref();
        let metrics = self.metrics.as_ref();
        let span = metrics
            .map(|m| m.obs.tracer().span("store.put", &[("object", id), ("store", &self.name)]));
        let push_ctx = span.as_ref().map(|s| s.context());
        let entry = match self.objects.get_mut(id) {
            Some(entry) => entry,
            None => self.objects.entry(id.to_string()).or_default(),
        };
        entry.advance(entry.version + 1, data, self.history_depth);
        let (cur_version, cur_data) = (entry.version, entry.data.clone());
        let now = self.clock;
        // push deltas always step from the immediately preceding version,
        // and only a lease that sends or summarizes one needs it
        let reads_delta = self.leases.iter().any(|l| {
            l.object == id
                && l.expires_at > now
                && matches!(l.mode, PushMode::Delta | PushMode::NotifyOnly)
        });
        let prev_delta = if reads_delta {
            entry.delta_from(cur_version - 1, metrics.map(|m| m.delta_encodes.as_ref())).cloned()
        } else {
            None
        };
        // push to lease holders
        let mut messages = Vec::new();
        for lease in self.leases.iter().filter(|l| l.object == id && l.expires_at > now) {
            let msg = match (lease.mode, &prev_delta) {
                (PushMode::NotifyOnly, _) => {
                    if let Some(m) = metrics {
                        m.notifications.inc();
                    }
                    let changed =
                        prev_delta.as_ref().map(|d| d.literal_bytes()).unwrap_or(cur_data.len());
                    UpdateMessage::Notify {
                        client: lease.client.clone(),
                        object: id.to_string(),
                        version: cur_version,
                        changed_bytes: changed,
                        ctx: push_ctx,
                    }
                }
                (PushMode::Delta, Some(d))
                    if (d.wire_size() as f64) < DELTA_ADVANTAGE * cur_data.len() as f64 =>
                {
                    if let Some(m) = metrics {
                        m.delta(d.wire_size());
                    }
                    UpdateMessage::Delta {
                        client: lease.client.clone(),
                        object: id.to_string(),
                        delta: d.clone(),
                        ctx: push_ctx,
                    }
                }
                // a full lease, or a delta lease whose delta is not worth it
                _ => {
                    if let Some(m) = metrics {
                        m.full(cur_data.len());
                    }
                    UpdateMessage::Full {
                        client: lease.client.clone(),
                        object: id.to_string(),
                        version: cur_version,
                        data: cur_data.clone(),
                        checksum: content_hash(&cur_data),
                        ctx: push_ctx,
                    }
                }
            };
            messages.push(msg);
        }
        if let Some(m) = metrics {
            m.puts.inc();
            m.push_messages.add(messages.len() as u64);
        }
        (cur_version, messages)
    }

    /// Version-aware fetch (pull paradigm): the client passes its held
    /// version; the store replies with a delta when that version is
    /// retained and the delta is considerably smaller than the full object,
    /// otherwise the full copy. The delta is encoded on the first fetch
    /// that needs it and memoized until the next put. An instrumented
    /// store runs the pull in a `store.fetch` span under the caller's
    /// current span.
    ///
    /// # Errors
    ///
    /// Never fails today; the `Result` reserves room for storage-backend
    /// errors.
    pub fn fetch(
        &mut self,
        id: &str,
        client_version: Option<u64>,
    ) -> Result<Option<FetchReply>, std::convert::Infallible> {
        let metrics = self.metrics.as_ref();
        let _span = metrics
            .map(|m| m.obs.tracer().span("store.fetch", &[("object", id), ("store", &self.name)]));
        let Some(object) = self.objects.get_mut(id) else {
            return Ok(None);
        };
        if let Some(m) = metrics {
            m.pulls.inc();
        }
        let full_len = object.data.len();
        let reply = match client_version {
            Some(v) if v == object.version => {
                if let Some(m) = metrics {
                    m.up_to_date.inc();
                }
                FetchReply::UpToDate { version: v }
            }
            Some(v) => match object.delta_from(v, metrics.map(|m| m.delta_encodes.as_ref())) {
                Some(d) if (d.wire_size() as f64) < DELTA_ADVANTAGE * full_len as f64 => {
                    if let Some(m) = metrics {
                        m.delta(d.wire_size());
                    }
                    FetchReply::Delta(d.clone())
                }
                _ => {
                    if let Some(m) = metrics {
                        m.full(full_len);
                    }
                    FetchReply::Full { version: object.version, data: object.data.clone() }
                }
            },
            None => {
                if let Some(m) = metrics {
                    m.full(full_len);
                }
                FetchReply::Full { version: object.version, data: object.data.clone() }
            }
        };
        Ok(Some(reply))
    }

    /// Grants (or replaces) a lease: `client` subscribes to `object` updates
    /// in `mode` until logical time `now + duration`.
    pub fn subscribe<S: Into<String>>(
        &mut self,
        client: S,
        object: S,
        mode: PushMode,
        duration: u64,
    ) -> Lease {
        let lease = Lease {
            client: client.into(),
            object: object.into(),
            mode,
            expires_at: self.clock + duration,
        };
        self.leases.retain(|l| !(l.client == lease.client && l.object == lease.object));
        self.leases.push(lease.clone());
        lease
    }

    /// Renews an existing lease to `now + duration`. Returns false if no
    /// matching lease exists (expired leases must be re-subscribed).
    pub fn renew(&mut self, client: &str, object: &str, duration: u64) -> bool {
        let now = self.clock;
        for l in &mut self.leases {
            if l.client == client && l.object == object && l.expires_at > now {
                l.expires_at = now + duration;
                return true;
            }
        }
        false
    }

    /// Installs `version` of `id` directly: a replica that caught up
    /// through [`crate::catch_up`] jumps straight to the home's version,
    /// keeping its local history. Returns false when the store already
    /// holds `version` or newer; versions never move backwards.
    pub fn install_version(&mut self, id: &str, version: u64, data: Bytes) -> bool {
        let entry = self.objects.entry(id.to_string()).or_default();
        if version <= entry.version {
            return false;
        }
        entry.advance(version, data, self.history_depth);
        if let Some(m) = &self.metrics {
            m.installed_versions.inc();
        }
        true
    }

    /// A canonical, deterministic dump of the store's *durable* state —
    /// objects (with history and the delta from every retained version, by
    /// content hash), leases and the logical clock. Transfer counters are
    /// volatile accounting and excluded. A delta not yet memoized is
    /// encoded for the dump and not kept (nor counted), so the dump does
    /// not depend on which deltas fetches and pushes happened to need. Two
    /// stores holding byte-identical state render byte-identical dumps,
    /// which is how crash recovery proves a WAL replay reconstructed the
    /// pre-crash store exactly.
    pub fn export_state(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "store name={} depth={} clock={}",
            self.name, self.history_depth, self.clock
        );
        for (id, o) in &self.objects {
            let _ = writeln!(
                out,
                "object {id} v{} len={} hash={:016x}",
                o.version,
                o.data.len(),
                content_hash(&o.data)
            );
            for (v, data) in &o.history {
                let _ = writeln!(
                    out,
                    "  history v{v} len={} hash={:016x}",
                    data.len(),
                    content_hash(data)
                );
            }
            for (base, old) in &o.history {
                let encoded;
                let d = match o.deltas.get(base) {
                    Some(d) => d,
                    None => {
                        encoded = DeltaCodec::encode(old, &o.data, *base, o.version);
                        &encoded
                    }
                };
                let _ = writeln!(
                    out,
                    "  delta {base}->{} wire={} checksum={:016x}",
                    d.target_version,
                    d.wire_size(),
                    d.target_checksum
                );
            }
        }
        for l in &self.leases {
            let _ = writeln!(
                out,
                "lease client={} object={} mode={:?} expires_at={}",
                l.client, l.object, l.mode, l.expires_at
            );
        }
        out
    }

    /// Cancels a lease early (the paper: clients should cancel leases for
    /// data they no longer need). Returns true if one was removed.
    pub fn cancel(&mut self, client: &str, object: &str) -> bool {
        let before = self.leases.len();
        self.leases.retain(|l| !(l.client == client && l.object == object));
        self.leases.len() < before
    }

    /// Active (unexpired) lease count.
    pub fn active_leases(&self) -> usize {
        let now = self.clock;
        self.leases.iter().filter(|l| l.expires_at > now).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delta::DeltaCodec;

    fn big(val: u8, n: usize) -> Bytes {
        Bytes::from(vec![val; n])
    }

    fn patterned(n: usize, seed: u8) -> Bytes {
        Bytes::from(
            (0..n).map(|i| ((i as u64 * 31 + seed as u64) % 251) as u8).collect::<Vec<u8>>(),
        )
    }

    #[test]
    fn versions_increment() {
        let mut s = HomeDataStore::new("h", 3);
        let (v1, _) = s.put("o", big(1, 100));
        let (v2, _) = s.put("o", big(2, 100));
        assert_eq!((v1, v2), (1, 2));
        assert_eq!(s.version_of("o"), Some(2));
        assert_eq!(s.version_of("missing"), None);
    }

    /// A store counting into a fresh registry, and that registry's handle.
    fn counted(depth: usize) -> (HomeDataStore, Obs) {
        let obs = Obs::deterministic();
        let mut s = HomeDataStore::new("h", depth);
        s.attach_obs(obs.clone());
        (s, obs)
    }

    /// Everything the stores counting into `obs` have sent so far.
    fn sent(obs: &Obs) -> TransferStats {
        TransferStats::from_snapshot(&obs.registry().snapshot())
    }

    #[test]
    fn fetch_full_when_no_client_version() {
        let (mut s, obs) = counted(3);
        s.put("o", patterned(5000, 1));
        let reply = s.fetch("o", None).unwrap().unwrap();
        assert!(matches!(reply, FetchReply::Full { version: 1, .. }));
        assert_eq!(sent(&obs).full_transfers, 1);
    }

    #[test]
    fn fetch_delta_for_small_change() {
        let (mut s, obs) = counted(3);
        let base = patterned(10_000, 2);
        s.put("o", base.clone());
        let mut v2 = base.to_vec();
        v2[123] ^= 0xFF;
        s.put("o", Bytes::from(v2.clone()));
        let reply = s.fetch("o", Some(1)).unwrap().unwrap();
        match &reply {
            FetchReply::Delta(d) => {
                assert_eq!(d.base_version, 1);
                assert_eq!(d.target_version, 2);
                let rebuilt = DeltaCodec::apply(&base, d).unwrap();
                assert_eq!(&rebuilt[..], &v2[..]);
            }
            other => panic!("expected delta, got {other:?}"),
        }
        assert!(reply.wire_size() < 1000);
        assert_eq!(sent(&obs).delta_transfers, 1);
    }

    #[test]
    fn fetch_full_when_delta_not_worth_it() {
        let mut s = HomeDataStore::new("h", 3);
        s.put("o", big(0, 5000));
        s.put("o", big(255, 5000)); // complete rewrite
        let reply = s.fetch("o", Some(1)).unwrap().unwrap();
        assert!(matches!(reply, FetchReply::Full { .. }));
    }

    #[test]
    fn fetch_up_to_date() {
        let mut s = HomeDataStore::new("h", 3);
        s.put("o", big(1, 100));
        let reply = s.fetch("o", Some(1)).unwrap().unwrap();
        assert!(matches!(reply, FetchReply::UpToDate { version: 1 }));
        assert_eq!(reply.wire_size(), 16);
    }

    #[test]
    fn history_depth_bounds_delta_availability() {
        let mut s = HomeDataStore::new("h", 2);
        let base = patterned(8000, 3);
        s.put("o", base.clone()); // v1
        for k in 0..4u8 {
            let mut next = base.to_vec();
            next[10 + k as usize] ^= 0xFF;
            s.put("o", Bytes::from(next)); // v2..v5
        }
        // v1 fell out of the 2-deep history: full transfer
        let reply = s.fetch("o", Some(1)).unwrap().unwrap();
        assert!(matches!(reply, FetchReply::Full { .. }));
        // v4 is retained: delta
        let reply = s.fetch("o", Some(4)).unwrap().unwrap();
        assert!(matches!(reply, FetchReply::Delta(_)));
    }

    /// Delta encodes counted by the registry `obs` belongs to.
    fn encodes(obs: &Obs) -> u64 {
        obs.registry().snapshot().counter("coda_store_delta_encodes")
    }

    #[test]
    fn deltas_are_encoded_on_first_use_and_memoized_until_the_next_put() {
        let obs = Obs::deterministic();
        let mut s = HomeDataStore::new("h", 3);
        s.attach_obs(obs.clone());
        let base = patterned(4000, 6);
        let edit = |k: usize| {
            let mut next = base.to_vec();
            next[k * 100] ^= 0xFF;
            Bytes::from(next)
        };
        for k in 0..4 {
            s.put("o", edit(k)); // v1..=v4, no lease
            s.fetch("o", None).unwrap();
            s.fetch("o", s.version_of("o")).unwrap();
            s.fetch("o", Some(99)).unwrap();
        }
        assert_eq!(encodes(&obs), 0, "no lease and no retained version named: nothing encoded");

        let first = s.fetch("o", Some(2)).unwrap().unwrap();
        let second = s.fetch("o", Some(2)).unwrap().unwrap();
        assert!(matches!(first, FetchReply::Delta(_)));
        assert_eq!(format!("{first:?}"), format!("{second:?}"));
        assert_eq!(encodes(&obs), 1, "the second fetch reads the memo");
        s.export_state();
        assert_eq!(encodes(&obs), 1, "rendering a delta for the dump is not an encode");
        assert_eq!(s.objects["o"].deltas.len(), 1, "nor is it memoized");

        s.subscribe("c", "o", PushMode::Delta, 100);
        let (v5, pushed) = s.put("o", edit(4));
        assert!(matches!(pushed[..], [UpdateMessage::Delta { .. }]));
        assert_eq!(encodes(&obs), 2, "a delta lease encodes the push step once");
        assert_eq!(s.objects["o"].deltas.keys().collect::<Vec<_>>(), vec![&(v5 - 1)]);
        assert!(matches!(s.fetch("o", Some(v5 - 1)).unwrap(), Some(FetchReply::Delta(_))));
        assert_eq!(encodes(&obs), 2, "the push step's delta answers the pull too");

        s.cancel("c", "o");
        s.put("o", edit(5));
        assert!(s.objects["o"].deltas.is_empty(), "the next put drops the memo");
        assert_eq!(encodes(&obs), 2);
    }

    #[test]
    fn an_entered_context_parents_a_plain_put_and_its_pushes() {
        let obs = Obs::deterministic();
        let mut s = HomeDataStore::new("h", 2);
        s.attach_obs(obs.clone());
        s.subscribe("c", "o", PushMode::Full, 100);
        let carried = obs.tracer().begin_span("client.request", None, &[]);
        let open = obs.span("caller", &[]);
        let (_, pushed) = {
            let _entered = obs.tracer().enter(Some(carried));
            s.put("o", patterned(64, 1))
        };
        assert_eq!(obs.tracer().current_context(), Some(open.context()));
        drop(open);
        let forest = obs.forest();
        let put = forest.spans().find(|sp| sp.name == "store.put").unwrap();
        assert_eq!(put.parent, Some(carried.span_id));
        assert_eq!(pushed[0].context(), Some(put.ctx), "pushes carry the put's span");
    }

    #[test]
    fn an_unsampled_put_pushes_the_unsampled_context_and_its_apply_records_nothing() {
        /// Not a `ManualClock`, so head sampling applies; frozen, so every
        /// root after the first falls within the sampling gap.
        #[derive(Debug)]
        struct FrozenClock;
        impl coda_obs::Clock for FrozenClock {
            fn now_ms(&self) -> f64 {
                0.0
            }
        }
        let obs = Obs::with_clock(std::sync::Arc::new(FrozenClock));
        let mut s = HomeDataStore::new("h", 2);
        s.attach_obs(obs.clone());
        s.subscribe("c", "o", PushMode::Full, 100);
        let (_, sampled) = s.put("o", patterned(64, 1));
        let (_, pushed) = s.put("o", patterned(64, 2));
        assert_ne!(sampled[0].context(), Some(coda_obs::SpanContext::UNSAMPLED));
        assert_eq!(pushed[0].context(), Some(coda_obs::SpanContext::UNSAMPLED));
        let mut client = crate::CachingClient::new("c");
        client.attach_obs(obs.clone());
        client.apply_push(&pushed[0]).unwrap();
        assert_eq!(client.held_version("o"), Some(2), "the push applies all the same");
        let forest = obs.forest();
        let names: Vec<&str> = forest.spans().map(|sp| sp.name.as_str()).collect();
        assert_eq!(names, ["store.put"], "only the first put records, and no apply does");
    }

    #[test]
    fn missing_object_is_none() {
        let mut s = HomeDataStore::new("h", 2);
        assert!(s.fetch("nope", None).unwrap().is_none());
    }

    #[test]
    fn push_modes_produce_expected_messages() {
        let mut s = HomeDataStore::new("h", 3);
        let base = patterned(10_000, 4);
        s.put("o", base.clone());
        s.subscribe("full_client", "o", PushMode::Full, 100);
        s.subscribe("delta_client", "o", PushMode::Delta, 100);
        s.subscribe("notify_client", "o", PushMode::NotifyOnly, 100);
        let mut v2 = base.to_vec();
        v2[5] ^= 1;
        let (_, messages) = s.put("o", Bytes::from(v2));
        assert_eq!(messages.len(), 3);
        let mut kinds: Vec<&str> = messages
            .iter()
            .map(|m| match m {
                UpdateMessage::Full { .. } => "full",
                UpdateMessage::Delta { .. } => "delta",
                UpdateMessage::Notify { .. } => "notify",
            })
            .collect();
        kinds.sort();
        assert_eq!(kinds, vec!["delta", "full", "notify"]);
        // notify message reports a small change
        for m in &messages {
            if let UpdateMessage::Notify { changed_bytes, version, .. } = m {
                assert_eq!(*version, 2);
                assert!(*changed_bytes < 100);
            }
        }
    }

    #[test]
    fn lease_expiry_stops_pushes() {
        let mut s = HomeDataStore::new("h", 3);
        s.put("o", big(1, 100));
        s.subscribe("c", "o", PushMode::Full, 10);
        s.advance_clock(11);
        let (_, messages) = s.put("o", big(2, 100));
        assert!(messages.is_empty());
        assert_eq!(s.active_leases(), 0);
    }

    #[test]
    fn lease_renewal_extends() {
        let mut s = HomeDataStore::new("h", 3);
        s.put("o", big(1, 100));
        s.subscribe("c", "o", PushMode::Full, 10);
        s.advance_clock(5);
        assert!(s.renew("c", "o", 20));
        s.advance_clock(15); // now 20 < 25
        let (_, messages) = s.put("o", big(2, 100));
        assert_eq!(messages.len(), 1);
        // renewing an expired lease fails
        s.advance_clock(100);
        assert!(!s.renew("c", "o", 10));
    }

    #[test]
    fn early_cancel_removes_lease() {
        let mut s = HomeDataStore::new("h", 3);
        s.put("o", big(1, 100));
        s.subscribe("c", "o", PushMode::Full, 100);
        assert!(s.cancel("c", "o"));
        assert!(!s.cancel("c", "o"));
        let (_, messages) = s.put("o", big(2, 100));
        assert!(messages.is_empty());
    }

    #[test]
    fn resubscribe_replaces_lease() {
        let mut s = HomeDataStore::new("h", 3);
        s.put("o", big(1, 200));
        s.subscribe("c", "o", PushMode::Full, 100);
        s.subscribe("c", "o", PushMode::NotifyOnly, 100);
        let (_, messages) = s.put("o", big(2, 200));
        assert_eq!(messages.len(), 1);
        assert!(matches!(messages[0], UpdateMessage::Notify { .. }));
    }

    #[test]
    fn stats_accumulate() {
        let (mut s, obs) = counted(3);
        s.put("o", patterned(5000, 5));
        s.fetch("o", None).unwrap();
        s.fetch("o", None).unwrap();
        let stats = sent(&obs);
        assert_eq!(stats.messages, 2);
        assert!(stats.bytes >= 10_000);
    }

    #[test]
    fn the_transfer_view_sums_every_push_and_pull_of_its_registry() {
        const N: u64 = 10_000;
        let v1 = patterned(N as usize, 7);
        let mut v2 = v1.to_vec();
        v2[10] ^= 0xFF;
        let mut v3 = v2.clone();
        v3[20] ^= 0xFF;
        let (v2, v3) = (Bytes::from(v2), Bytes::from(v3));
        let w12 = DeltaCodec::encode(&v1, &v2, 1, 2).wire_size() as u64;
        let w23 = DeltaCodec::encode(&v2, &v3, 2, 3).wire_size() as u64;
        assert!(w12 < N / 2 && w23 < N / 2, "both steps are worth a delta");

        // one retained version, so v1 is dropped once v3 lands
        let (mut s, obs) = counted(1);
        let (mut other, other_obs) = counted(1);
        s.put("o", v1);
        assert_eq!(sent(&obs), TransferStats::default(), "no lease, no pull: nothing sent");
        s.subscribe("f", "o", PushMode::Full, 100);
        s.subscribe("d", "o", PushMode::Delta, 100);
        s.subscribe("n", "o", PushMode::NotifyOnly, 100);
        s.put("o", v2.clone()); // full N, delta w12, one notification
        other.put("o", v2);
        other.fetch("o", None).unwrap(); // full N, counted apart
        s.put("o", v3); // full N, delta w23, one notification
        assert!(matches!(s.fetch("o", Some(3)).unwrap(), Some(FetchReply::UpToDate { .. })));
        assert!(matches!(s.fetch("o", Some(2)).unwrap(), Some(FetchReply::Delta(_)))); // w23
        assert!(matches!(s.fetch("o", Some(1)).unwrap(), Some(FetchReply::Full { .. }))); // N
        s.fetch("o", None).unwrap(); // N

        let stats = sent(&obs);
        assert_eq!(stats.full_transfers, 4, "two full pushes, the dropped and the unnamed pull");
        assert_eq!(stats.delta_transfers, 3, "two delta pushes, the retained pull");
        assert_eq!(stats.notifications, 2);
        assert_eq!(stats.messages, 4 + 3 + 2 + 1, "plus one up-to-date reply");
        assert_eq!(stats.bytes, 4 * N + w12 + 2 * w23 + 2 * 32 + 16);
        let other_stats = sent(&other_obs);
        assert_eq!(
            other_stats,
            TransferStats {
                messages: 1,
                bytes: N,
                full_transfers: 1,
                delta_transfers: 0,
                notifications: 0
            }
        );
    }
}
