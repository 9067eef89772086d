//! The distributed data tier (paper §III): "there is a main database. That
//! database might be in a central location. Alternatively, the database
//! might be distributed across multiple nodes … Each data object has an
//! associated home data store."
//!
//! [`DataTier`] partitions the object space over several
//! [`HomeDataStore`]s by stable hashing of the object id; every operation
//! routes to the object's home store.

use bytes::Bytes;

use crate::home::{FetchReply, HomeDataStore};
use crate::lease::{PushMode, UpdateMessage};

/// The stable shard-routing function shared by every partitioned layer
/// (the [`DataTier`] here, the DARR lanes in `coda-cluster`, and the
/// serving shards in `coda-serve`): FNV-1a over the key bytes, modulo the
/// partition count. One function, one hash — so an object's home in a
/// `DataTier` and its worker shard in a serving tier always agree, and a
/// 1-partition layout routes everything to index 0 (the unsharded
/// baseline every equivalence test compares against).
///
/// # Panics
///
/// Panics if `n == 0` — a zero-way partition routes nowhere.
pub fn shard_of(id: &str, n: usize) -> usize {
    assert!(n > 0, "need at least one partition");
    let mut h = 0xcbf29ce484222325u64;
    for b in id.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    (h % n as u64) as usize
}

/// A partitioned set of home data stores with stable id-hash routing.
#[derive(Debug, Clone)]
pub struct DataTier {
    stores: Vec<HomeDataStore>,
}

impl DataTier {
    /// Creates a tier of `n_stores` partitions, each keeping
    /// `history_depth` versions.
    ///
    /// # Panics
    ///
    /// Panics if `n_stores == 0`.
    pub fn new(n_stores: usize, history_depth: usize) -> Self {
        assert!(n_stores > 0, "need at least one store");
        let stores = (0..n_stores)
            .map(|i| HomeDataStore::new(format!("store-{i}"), history_depth))
            .collect();
        DataTier { stores }
    }

    /// Number of partitions.
    pub fn n_stores(&self) -> usize {
        self.stores.len()
    }

    /// The partition index that is `id`'s home (stable FNV-1a hash).
    pub fn home_index(&self, id: &str) -> usize {
        shard_of(id, self.stores.len())
    }

    /// The home store's name for `id`.
    pub fn home_name(&self, id: &str) -> &str {
        self.stores[self.home_index(id)].name()
    }

    /// Borrows `id`'s home store.
    pub fn home(&self, id: &str) -> &HomeDataStore {
        &self.stores[self.home_index(id)]
    }

    /// Mutable borrow of `id`'s home store.
    pub fn home_mut(&mut self, id: &str) -> &mut HomeDataStore {
        let i = self.home_index(id);
        &mut self.stores[i]
    }

    /// Writes a new version of `id` through its home store.
    pub fn put(&mut self, id: &str, data: Bytes) -> (u64, Vec<UpdateMessage>) {
        self.home_mut(id).put(id, data)
    }

    /// Version-aware fetch from `id`'s home store.
    pub fn fetch(&mut self, id: &str, client_version: Option<u64>) -> Option<FetchReply> {
        let Ok(reply) = self.home_mut(id).fetch(id, client_version);
        reply
    }

    /// Subscribes `client` to `id`'s updates at its home store.
    pub fn subscribe(&mut self, client: &str, id: &str, mode: PushMode, duration: u64) {
        self.home_mut(id).subscribe(client.to_string(), id.to_string(), mode, duration);
    }

    /// Advances every store's logical clock.
    pub fn advance_clock(&mut self, ticks: u64) {
        for s in &mut self.stores {
            s.advance_clock(ticks);
        }
    }

    /// Objects per partition (load-balance diagnostics): store name → count
    /// over the given ids.
    pub fn distribution<'a, I: IntoIterator<Item = &'a str>>(&self, ids: I) -> Vec<usize> {
        let mut counts = vec![0usize; self.stores.len()];
        for id in ids {
            counts[self.home_index(id)] += 1;
        }
        counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::home::TransferStats;

    #[test]
    fn shard_of_is_stable_and_agrees_with_home_index() {
        let tier = DataTier::new(4, 2);
        for i in 0..64 {
            let id = format!("object-{i}");
            assert_eq!(shard_of(&id, 4), tier.home_index(&id));
            assert_eq!(shard_of(&id, 1), 0, "one partition routes everything to 0");
        }
        assert_eq!(shard_of("x", 8), shard_of("x", 8));
    }

    #[test]
    fn routing_is_stable_and_spread() {
        let tier = DataTier::new(4, 2);
        let ids: Vec<String> = (0..200).map(|i| format!("object-{i}")).collect();
        let counts = tier.distribution(ids.iter().map(|s| s.as_str()));
        assert_eq!(counts.iter().sum::<usize>(), 200);
        // every partition gets a reasonable share
        for &c in &counts {
            assert!(c > 20, "distribution too skewed: {counts:?}");
        }
        // stability: same id, same home
        assert_eq!(tier.home_index("object-7"), tier.home_index("object-7"));
    }

    #[test]
    fn put_fetch_roundtrip_through_home() {
        let mut tier = DataTier::new(3, 2);
        let (v, _) = tier.put("sensor-a", Bytes::from_static(b"hello"));
        assert_eq!(v, 1);
        let reply = tier.fetch("sensor-a", None).unwrap();
        match reply {
            FetchReply::Full { version, data } => {
                assert_eq!(version, 1);
                assert_eq!(&data[..], b"hello");
            }
            other => panic!("expected full, got {other:?}"),
        }
        // another object likely lives elsewhere but is equally reachable
        tier.put("sensor-b", Bytes::from_static(b"world"));
        assert!(tier.fetch("sensor-b", None).is_some());
        assert!(tier.fetch("missing", None).is_none());
    }

    #[test]
    fn subscriptions_route_to_home() {
        let mut tier = DataTier::new(4, 2);
        tier.put("o", Bytes::from_static(b"v1"));
        tier.subscribe("c", "o", PushMode::Full, 100);
        let (_, messages) = tier.put("o", Bytes::from_static(b"v2"));
        assert_eq!(messages.len(), 1);
        assert_eq!(messages[0].client(), "c");
        // clock advance expires the lease on every store
        tier.advance_clock(200);
        let (_, messages) = tier.put("o", Bytes::from_static(b"v3"));
        assert!(messages.is_empty());
    }

    #[test]
    fn stats_aggregate_across_partitions() {
        let obs = coda_obs::Obs::deterministic();
        let mut tier = DataTier::new(2, 2);
        assert_ne!(tier.home_index("a"), tier.home_index("b"));
        for id in ["a", "b"] {
            tier.home_mut(id).attach_obs(obs.clone());
        }
        tier.put("a", Bytes::from(vec![0u8; 100]));
        tier.put("b", Bytes::from(vec![0u8; 100]));
        tier.fetch("a", None);
        tier.fetch("b", None);
        let stats = TransferStats::from_snapshot(&obs.registry().snapshot());
        assert_eq!(stats.messages, 2);
        assert!(stats.bytes >= 200);
    }
}
