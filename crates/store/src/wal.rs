//! Write-ahead logging and snapshots for home data stores.
//!
//! A [`DurableStore`] wraps a [`HomeDataStore`] and records every
//! state-mutating operation in a [`WriteAheadLog`] *before* applying it.
//! Reads are not logged. Periodically the store folds the log into a
//! [`Snapshot`] (a point-in-time image of the durable state) and truncates
//! the log, bounding replay cost.
//!
//! Crash semantics are crash-stop: when a node dies, its in-memory store
//! vanishes but the snapshot + log survive (modelled by [`DurableImage`],
//! the bytes-on-disk stand-in). [`DurableStore::recover`] rebuilds the
//! store by cloning the snapshot and replaying the log — every operation
//! is deterministic, so the recovered state is byte-identical to the
//! pre-crash state ([`HomeDataStore::export_state`] proves it). Each WAL
//! append is one *crash point*: a `coda_chaos::CrashPlan` keyed by the
//! store's logical operation count can kill the node after any record,
//! and recovery must converge from all of them.

use bytes::Bytes;
use std::sync::Arc;

use coda_obs::{Counter, Obs};

use crate::delta::content_hash;
use crate::home::{FetchReply, HomeDataStore};
use crate::lease::{PushMode, UpdateMessage};

/// One logged state-mutating operation, in application order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalRecord {
    /// A new version of `id` was written.
    Put {
        /// Object id.
        id: String,
        /// The full new value (the log is physical, not delta-encoded:
        /// replay must not depend on history the snapshot may have folded
        /// away).
        data: Bytes,
    },
    /// A specific version was installed directly (replica catch-up).
    Install {
        /// Object id.
        id: String,
        /// The installed version number.
        version: u64,
        /// The full value at that version.
        data: Bytes,
    },
    /// A lease was granted or replaced.
    Subscribe {
        /// Subscribing client.
        client: String,
        /// Object id.
        object: String,
        /// Push mode.
        mode: PushMode,
        /// Lease duration in logical ticks.
        duration: u64,
    },
    /// A lease was renewed.
    Renew {
        /// Subscribing client.
        client: String,
        /// Object id.
        object: String,
        /// New duration from the renewal instant.
        duration: u64,
    },
    /// A lease was cancelled.
    Cancel {
        /// Subscribing client.
        client: String,
        /// Object id.
        object: String,
    },
    /// The store's logical clock advanced (lease expiry is clock-driven,
    /// so replay must reproduce the exact tick sequence).
    AdvanceClock {
        /// Ticks advanced.
        ticks: u64,
    },
}

impl WalRecord {
    /// The record's canonical single-line text encoding — the "WAL format"
    /// a real disk log would serialize; used for digests and debugging.
    pub fn render(&self) -> String {
        match self {
            WalRecord::Put { id, data } => {
                format!("put id={id} len={} hash={:016x}", data.len(), content_hash(data))
            }
            WalRecord::Install { id, version, data } => {
                format!(
                    "install id={id} v{version} len={} hash={:016x}",
                    data.len(),
                    content_hash(data)
                )
            }
            WalRecord::Subscribe { client, object, mode, duration } => {
                format!(
                    "subscribe client={client} object={object} mode={mode:?} duration={duration}"
                )
            }
            WalRecord::Renew { client, object, duration } => {
                format!("renew client={client} object={object} duration={duration}")
            }
            WalRecord::Cancel { client, object } => {
                format!("cancel client={client} object={object}")
            }
            WalRecord::AdvanceClock { ticks } => format!("advance ticks={ticks}"),
        }
    }
}

/// An append-only operation log with a base sequence number (operations
/// folded into the last snapshot are truncated away; `base_seq` keeps the
/// global numbering stable).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WriteAheadLog {
    base_seq: u64,
    records: Vec<WalRecord>,
}

impl WriteAheadLog {
    /// An empty log starting at sequence zero.
    pub fn new() -> Self {
        WriteAheadLog::default()
    }

    /// Appends a record, returning its 1-based global sequence number.
    pub fn append(&mut self, record: WalRecord) -> u64 {
        self.records.push(record);
        self.base_seq + self.records.len() as u64
    }

    /// Records currently retained (after the last snapshot).
    pub fn records(&self) -> &[WalRecord] {
        &self.records
    }

    /// Retained record count.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when no records are retained.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Global sequence number of the last appended record (0 = none yet).
    pub fn last_seq(&self) -> u64 {
        self.base_seq + self.records.len() as u64
    }

    /// Drops every retained record (they were folded into a snapshot at
    /// `last_seq`), keeping global numbering monotone.
    pub fn truncate(&mut self) {
        self.base_seq += self.records.len() as u64;
        self.records.clear();
    }

    /// The canonical text rendering of the retained log.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for (i, r) in self.records.iter().enumerate() {
            let _ = writeln!(out, "{} {}", self.base_seq + i as u64 + 1, r.render());
        }
        out
    }
}

/// A point-in-time image of the durable state, covering every operation
/// up to `last_seq`.
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// Global sequence number the snapshot covers through.
    pub last_seq: u64,
    store: HomeDataStore,
}

/// What survives a crash: the snapshot plus the log tail — the on-disk
/// bytes a real node would reread at boot.
#[derive(Debug, Clone)]
pub struct DurableImage {
    name: String,
    history_depth: usize,
    snapshot_every: usize,
    snapshot: Option<Snapshot>,
    wal: WriteAheadLog,
}

/// The log's counter handles, resolved once when an [`Obs`] is attached.
#[derive(Debug, Clone)]
struct WalMetrics {
    appends: Arc<Counter>,
    snapshots: Arc<Counter>,
}

impl WalMetrics {
    fn new(obs: &Obs) -> Self {
        let r = obs.registry();
        WalMetrics {
            appends: r.counter("coda_store_wal_appends"),
            snapshots: r.counter("coda_store_snapshots"),
        }
    }
}

/// A [`HomeDataStore`] with write-ahead logging, periodic snapshots, and
/// crash recovery by replay.
#[derive(Debug, Clone)]
pub struct DurableStore {
    store: HomeDataStore,
    wal: WriteAheadLog,
    snapshot: Option<Snapshot>,
    /// Fold the log into a snapshot after this many retained records
    /// (0 = never snapshot).
    snapshot_every: usize,
    history_depth: usize,
    metrics: Option<WalMetrics>,
}

impl DurableStore {
    /// Creates a durable store; `snapshot_every` bounds the log tail
    /// (0 disables snapshotting).
    pub fn new<S: Into<String>>(name: S, history_depth: usize, snapshot_every: usize) -> Self {
        DurableStore {
            store: HomeDataStore::new(name, history_depth),
            wal: WriteAheadLog::new(),
            snapshot: None,
            snapshot_every,
            history_depth,
            metrics: None,
        }
    }

    /// Attaches an observability handle: WAL appends, snapshots and
    /// replays count under `coda_store_wal_*` / `coda_store_snapshot*`
    /// names, and the wrapped store's own instrumentation comes along.
    pub fn attach_obs(&mut self, obs: Obs) {
        self.metrics = Some(WalMetrics::new(&obs));
        self.store.attach_obs(obs);
    }

    /// The wrapped store (reads don't need logging, but go through
    /// [`DurableStore::fetch`] for accounting anyway).
    pub fn store(&self) -> &HomeDataStore {
        &self.store
    }

    /// The store's name.
    pub fn name(&self) -> &str {
        self.store.name()
    }

    /// Total logical operations ever applied — the crash-point counter a
    /// `coda_chaos::CrashPlan` keys on.
    pub fn ops(&self) -> u64 {
        self.wal.last_seq()
    }

    /// The retained log.
    pub fn wal(&self) -> &WriteAheadLog {
        &self.wal
    }

    /// Snapshots taken so far (0 or the covering snapshot's existence).
    pub fn has_snapshot(&self) -> bool {
        self.snapshot.is_some()
    }

    /// Write-ahead: append before applying.
    fn log(&mut self, record: WalRecord) {
        self.wal.append(record);
        if let Some(m) = &self.metrics {
            m.appends.inc();
        }
    }

    /// After the logged operation has been applied: fold the log into a
    /// snapshot once the tail is long enough. (Snapshotting *before* apply
    /// would produce a snapshot claiming to cover a record whose effect it
    /// lacks — the lost-write bug recovery tests would catch.)
    fn maybe_snapshot(&mut self) {
        if self.snapshot_every > 0 && self.wal.len() >= self.snapshot_every {
            self.snapshot =
                Some(Snapshot { last_seq: self.wal.last_seq(), store: self.store.clone() });
            self.wal.truncate();
            if let Some(m) = &self.metrics {
                m.snapshots.inc();
            }
        }
    }

    /// Logged write: appends to the WAL, then applies.
    pub fn put(&mut self, id: &str, data: Bytes) -> (u64, Vec<UpdateMessage>) {
        self.log(WalRecord::Put { id: id.to_string(), data: data.clone() });
        let out = self.store.put(id, data);
        self.maybe_snapshot();
        out
    }

    /// Logged subscribe.
    pub fn subscribe(&mut self, client: &str, object: &str, mode: PushMode, duration: u64) {
        self.log(WalRecord::Subscribe {
            client: client.to_string(),
            object: object.to_string(),
            mode,
            duration,
        });
        self.store.subscribe(client.to_string(), object.to_string(), mode, duration);
        self.maybe_snapshot();
    }

    /// Logged renew. Returns whether an unexpired lease was extended.
    pub fn renew(&mut self, client: &str, object: &str, duration: u64) -> bool {
        self.log(WalRecord::Renew {
            client: client.to_string(),
            object: object.to_string(),
            duration,
        });
        let renewed = self.store.renew(client, object, duration);
        self.maybe_snapshot();
        renewed
    }

    /// Logged cancel. Returns whether a lease was removed.
    pub fn cancel(&mut self, client: &str, object: &str) -> bool {
        self.log(WalRecord::Cancel { client: client.to_string(), object: object.to_string() });
        let removed = self.store.cancel(client, object);
        self.maybe_snapshot();
        removed
    }

    /// Logged clock advance (lease expiry depends on it, so replay must
    /// see the same ticks).
    pub fn advance_clock(&mut self, ticks: u64) {
        self.log(WalRecord::AdvanceClock { ticks });
        self.store.advance_clock(ticks);
        self.maybe_snapshot();
    }

    /// Unlogged read (reads don't mutate durable state).
    ///
    /// # Errors
    ///
    /// Never fails today; mirrors [`HomeDataStore::fetch`].
    pub fn fetch(
        &mut self,
        id: &str,
        client_version: Option<u64>,
    ) -> Result<Option<FetchReply>, std::convert::Infallible> {
        self.store.fetch(id, client_version)
    }

    /// Unlogged version probe.
    pub fn current_version(&self, id: &str) -> Option<u64> {
        self.store.version_of(id)
    }

    /// Logged direct version install (replica catch-up after failover).
    pub fn install_version(&mut self, id: &str, version: u64, data: Bytes) -> bool {
        self.log(WalRecord::Install { id: id.to_string(), version, data: data.clone() });
        let installed = self.store.install_version(id, version, data);
        self.maybe_snapshot();
        installed
    }

    /// Crashes the node: the in-memory store is dropped; only the durable
    /// image (snapshot + log tail) survives.
    pub fn crash(self) -> DurableImage {
        DurableImage {
            name: self.store.name().to_string(),
            history_depth: self.history_depth,
            snapshot_every: self.snapshot_every,
            snapshot: self.snapshot,
            wal: self.wal,
        }
    }

    /// Boots from a durable image: clones the snapshot (or a fresh store)
    /// and replays the log tail in order. Returns the recovered store and
    /// the number of records replayed. The recovered durable state is
    /// byte-identical to the pre-crash state. With `obs` the whole replay
    /// runs in a `store.wal_replay` span under the caller's current span,
    /// and counts `coda_store_wal_replays` / `coda_store_wal_replayed_records`.
    pub fn recover(image: DurableImage, obs: Option<&Obs>) -> (Self, usize) {
        let _span = obs.map(|o| {
            o.tracer().span(
                "store.wal_replay",
                &[("store", &image.name), ("records", &image.wal.len().to_string())],
            )
        });
        let mut store = match &image.snapshot {
            Some(snap) => snap.store.clone(),
            None => HomeDataStore::new(image.name.clone(), image.history_depth),
        };
        if let Some(o) = obs {
            store.attach_obs(o.clone());
        }
        let replayed = image.wal.len();
        for record in image.wal.records() {
            match record {
                WalRecord::Put { id, data } => {
                    store.put(id, data.clone());
                }
                WalRecord::Install { id, version, data } => {
                    store.install_version(id, *version, data.clone());
                }
                WalRecord::Subscribe { client, object, mode, duration } => {
                    store.subscribe(client.clone(), object.clone(), *mode, *duration);
                }
                WalRecord::Renew { client, object, duration } => {
                    store.renew(client, object, *duration);
                }
                WalRecord::Cancel { client, object } => {
                    store.cancel(client, object);
                }
                WalRecord::AdvanceClock { ticks } => store.advance_clock(*ticks),
            }
        }
        if let Some(o) = obs {
            o.count("coda_store_wal_replays", 1);
            o.count("coda_store_wal_replayed_records", replayed as u64);
        }
        let recovered = DurableStore {
            store,
            wal: image.wal,
            snapshot: image.snapshot,
            snapshot_every: image.snapshot_every,
            history_depth: image.history_depth,
            metrics: obs.map(WalMetrics::new),
        };
        (recovered, replayed)
    }

    /// Canonical dump of the wrapped store's durable state.
    pub fn export_state(&self) -> String {
        self.store.export_state()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn payload(seed: u8, n: usize) -> Bytes {
        Bytes::from(
            (0..n).map(|i| ((i as u64 * 17 + seed as u64) % 251) as u8).collect::<Vec<u8>>(),
        )
    }

    /// Drives a scripted mixed workload against the store; the crash tests
    /// replay the same script and kill the node at every prefix.
    fn drive(store: &mut DurableStore, steps: usize) {
        for step in 0..steps {
            match step % 5 {
                0 => {
                    store.put(&format!("obj-{}", step % 3), payload(step as u8, 512));
                }
                1 => store.subscribe("c1", &format!("obj-{}", step % 3), PushMode::Delta, 40),
                2 => {
                    store.put(&format!("obj-{}", step % 3), payload(step as u8 + 1, 512));
                }
                3 => {
                    store.renew("c1", &format!("obj-{}", (step + 2) % 3), 60);
                }
                _ => store.advance_clock(7),
            }
        }
    }

    #[test]
    fn replay_reconstructs_the_exact_state() {
        let mut live = DurableStore::new("home", 3, 0);
        drive(&mut live, 23);
        let expected = live.export_state();
        let ops = live.ops();
        let (recovered, replayed) = DurableStore::recover(live.crash(), None);
        assert_eq!(replayed, ops as usize, "no snapshot: the whole log replays");
        assert_eq!(recovered.export_state(), expected, "byte-identical recovery");
        assert_eq!(recovered.ops(), ops, "op counter survives");
    }

    #[test]
    fn snapshot_bounds_replay_and_preserves_state() {
        let mut live = DurableStore::new("home", 3, 5);
        drive(&mut live, 23);
        assert!(live.has_snapshot());
        assert!(live.wal().len() < 5, "log tail stays short");
        let expected = live.export_state();
        let ops = live.ops();
        let (recovered, replayed) = DurableStore::recover(live.crash(), None);
        assert!(replayed < 5, "only the tail replays");
        assert_eq!(recovered.export_state(), expected);
        assert_eq!(recovered.ops(), ops);
    }

    #[test]
    fn crash_at_every_op_recovers_to_the_prefix_state() {
        // ground truth: state after every prefix of the script
        let total = 17usize;
        for cut in 1..=total {
            let mut reference = DurableStore::new("home", 2, 4);
            drive(&mut reference, cut);
            let expected = reference.export_state();

            let mut victim = DurableStore::new("home", 2, 4);
            drive(&mut victim, cut); // crash lands exactly after `cut` ops
            let (recovered, _) = DurableStore::recover(victim.crash(), None);
            assert_eq!(recovered.export_state(), expected, "crash point {cut}");
        }
    }

    #[test]
    fn recovered_store_keeps_serving_and_logging() {
        let mut live = DurableStore::new("home", 3, 0);
        live.put("o", payload(1, 256));
        live.subscribe("c", "o", PushMode::Full, 100);
        let (mut recovered, _) = DurableStore::recover(live.crash(), None);
        // the lease survived the crash: the next put pushes
        let (v, messages) = recovered.put("o", payload(2, 256));
        assert_eq!(v, 2);
        assert_eq!(messages.len(), 1);
        // and the new op is logged for the *next* crash
        let (again, _) = DurableStore::recover(recovered.crash(), None);
        assert_eq!(again.current_version("o"), Some(2));
    }

    #[test]
    fn wal_renders_canonically_and_truncates() {
        let mut wal = WriteAheadLog::new();
        wal.append(WalRecord::Put { id: "o".into(), data: payload(0, 8) });
        wal.append(WalRecord::AdvanceClock { ticks: 5 });
        assert_eq!(wal.last_seq(), 2);
        let text = wal.render();
        assert!(text.contains("1 put id=o len=8"));
        assert!(text.contains("2 advance ticks=5"));
        wal.truncate();
        assert!(wal.is_empty());
        assert_eq!(wal.last_seq(), 2, "numbering survives truncation");
        assert_eq!(wal.append(WalRecord::Cancel { client: "c".into(), object: "o".into() }), 3);
    }

    #[test]
    fn install_version_replays_byte_identically() {
        let mut live = DurableStore::new("replica", 3, 0);
        live.put("o", payload(1, 128));
        assert!(live.install_version("o", 5, payload(9, 128)));
        assert_eq!(live.current_version("o"), Some(5));
        assert!(!live.install_version("o", 4, payload(3, 128)), "versions never regress");
        let expected = live.export_state();
        let (recovered, _) = DurableStore::recover(live.crash(), None);
        assert_eq!(recovered.export_state(), expected);
        assert_eq!(recovered.current_version("o"), Some(5));
    }
}
