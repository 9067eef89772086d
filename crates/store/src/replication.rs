//! Geographic replication (paper §III: "The data may be replicated across
//! multiple geographic areas for high availability and disaster recovery in
//! case one site fails").
//!
//! A [`ReplicatedStore`] keeps a primary [`HomeDataStore`] plus replicas.
//! Writes go to the primary and propagate synchronously: a replica that
//! holds the primary's previous version applies the same write through its
//! own `put`, and one that missed writes while it was down catches up from
//! the primary through [`crate::catch_up`]. Reads are served by the first
//! *available* site, so a primary failure degrades to replica reads and a
//! later failover promotes a replica to primary without losing committed
//! versions.

use bytes::Bytes;
use std::sync::Arc;

use coda_obs::{Counter, Obs};

use crate::client::{catch_up, Incoming};
use crate::home::{FetchReply, HomeDataStore};

/// Error produced by replicated operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplicationError {
    /// Every site is down.
    AllSitesDown,
    /// The named site does not exist.
    UnknownSite(String),
}

impl std::fmt::Display for ReplicationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplicationError::AllSitesDown => write!(f, "all replica sites are down"),
            ReplicationError::UnknownSite(s) => write!(f, "unknown site {s}"),
        }
    }
}

impl std::error::Error for ReplicationError {}

/// One replica site: a store plus an up/down flag (failure injection).
#[derive(Debug, Clone)]
struct Site {
    store: HomeDataStore,
    up: bool,
}

/// A primary plus replicas with synchronous propagation and failover.
#[derive(Debug, Clone)]
pub struct ReplicatedStore {
    sites: Vec<Site>,
    /// Index of the current primary within `sites`.
    primary: usize,
    obs: Option<Obs>,
    /// `coda_store_failovers`, resolved when an [`Obs`] is attached.
    failovers: Option<Arc<Counter>>,
}

impl ReplicatedStore {
    /// Creates a replicated store with `n_replicas` secondaries, each site
    /// keeping `history_depth` versions.
    pub fn new(n_replicas: usize, history_depth: usize) -> Self {
        let sites = (0..=n_replicas)
            .map(|i| Site {
                store: HomeDataStore::new(format!("site-{i}"), history_depth),
                up: true,
            })
            .collect();
        ReplicatedStore { sites, primary: 0, obs: None, failovers: None }
    }

    /// Attaches an observability handle: failovers count live into its
    /// registry under `coda_store_*` names. Every site's store is
    /// instrumented, so replica propagation shows up as store traffic (each
    /// synchronous replica write or catch-up fetch is a real transfer).
    pub fn attach_obs(&mut self, obs: Obs) {
        for site in &mut self.sites {
            site.store.attach_obs(obs.clone());
        }
        self.failovers = Some(obs.registry().counter("coda_store_failovers"));
        self.obs = Some(obs);
    }

    /// The current primary's name.
    pub fn primary_name(&self) -> &str {
        self.sites[self.primary].store.name()
    }

    /// Number of sites (primary + replicas).
    pub fn n_sites(&self) -> usize {
        self.sites.len()
    }

    /// Number of currently reachable sites.
    pub fn n_available(&self) -> usize {
        self.sites.iter().filter(|s| s.up).count()
    }

    /// Takes a site down (disaster injection).
    ///
    /// # Errors
    ///
    /// [`ReplicationError::UnknownSite`] for a bad name.
    pub fn fail_site(&mut self, name: &str) -> Result<(), ReplicationError> {
        let site = self
            .sites
            .iter_mut()
            .find(|s| s.store.name() == name)
            .ok_or_else(|| ReplicationError::UnknownSite(name.to_string()))?;
        site.up = false;
        Ok(())
    }

    /// Brings a failed site back. A recovered site catches an object up
    /// from the primary on that object's next write.
    ///
    /// # Errors
    ///
    /// [`ReplicationError::UnknownSite`] for a bad name.
    pub fn recover_site(&mut self, name: &str) -> Result<(), ReplicationError> {
        let site = self
            .sites
            .iter_mut()
            .find(|s| s.store.name() == name)
            .ok_or_else(|| ReplicationError::UnknownSite(name.to_string()))?;
        site.up = true;
        Ok(())
    }

    /// Promotes the first available site to primary if the current primary
    /// is down. Returns true when a failover happened.
    pub fn failover_if_needed(&mut self) -> Result<bool, ReplicationError> {
        if self.sites[self.primary].up {
            return Ok(false);
        }
        match self.sites.iter().position(|s| s.up) {
            Some(next) => {
                self.primary = next;
                if let Some(c) = &self.failovers {
                    c.inc();
                }
                Ok(true)
            }
            None => Err(ReplicationError::AllSitesDown),
        }
    }

    /// Writes a new version through the primary (failing over first if
    /// needed) and synchronously propagates to every available replica.
    /// Returns the committed version number.
    ///
    /// An instrumented store runs the whole write in a
    /// `store.replicate_put` span under the caller's current span, so the
    /// primary's and each in-sync replica's `store.put` appear as its
    /// children. A replica that fell behind fetches from the primary under
    /// the same span instead.
    ///
    /// # Errors
    ///
    /// [`ReplicationError::AllSitesDown`] when no site can accept the write.
    pub fn put(&mut self, id: &str, data: Bytes) -> Result<u64, ReplicationError> {
        let obs = self.obs.clone();
        let _span = obs.as_ref().map(|o| o.tracer().span("store.replicate_put", &[("object", id)]));
        self.failover_if_needed()?;
        let primary = self.primary;
        let (version, _) = self.sites[primary].store.put(id, data.clone());
        for i in 0..self.sites.len() {
            if i == primary || !self.sites[i].up {
                continue;
            }
            let held = self.sites[i].store.version_of(id);
            // in sync: the replica holds the primary's previous version
            if held.unwrap_or(0) + 1 == version {
                self.sites[i].store.put(id, data.clone());
                continue;
            }
            // the replica missed writes while it was down: fetch from the
            // primary with its own version and install what that brings (a
            // reply that does not apply leaves the replica where it was)
            let Ok(Some(reply)) = self.sites[primary].store.fetch(id, held) else {
                continue;
            };
            let replica = &mut self.sites[i].store;
            if let Ok(Some((v, bytes))) = catch_up(replica.current(id), Incoming::Reply(&reply)) {
                replica.install_version(id, v, bytes);
            }
        }
        Ok(version)
    }

    /// Version-aware read served by the primary, or by the first available
    /// replica when the primary is down (degraded read — no failover). An
    /// instrumented store runs the read, wherever it lands, in a
    /// `store.replicate_fetch` span under the caller's current span.
    ///
    /// # Errors
    ///
    /// [`ReplicationError::AllSitesDown`] when nothing is reachable.
    pub fn fetch(
        &mut self,
        id: &str,
        client_version: Option<u64>,
    ) -> Result<Option<FetchReply>, ReplicationError> {
        let obs = self.obs.clone();
        let _span =
            obs.as_ref().map(|o| o.tracer().span("store.replicate_fetch", &[("object", id)]));
        let order: Vec<usize> = std::iter::once(self.primary)
            .chain((0..self.sites.len()).filter(|&i| i != self.primary))
            .collect();
        for i in order {
            if self.sites[i].up {
                let Ok(reply) = self.sites[i].store.fetch(id, client_version);
                return Ok(reply);
            }
        }
        Err(ReplicationError::AllSitesDown)
    }

    /// The committed version visible at each available site (diagnostics).
    pub fn site_versions(&self, id: &str) -> Vec<(String, Option<u64>)> {
        self.sites
            .iter()
            .filter(|s| s.up)
            .map(|s| (s.store.name().to_string(), s.store.version_of(id)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blob(v: u8, n: usize) -> Bytes {
        Bytes::from(vec![v; n])
    }

    #[test]
    fn writes_propagate_to_all_replicas() {
        let mut rs = ReplicatedStore::new(2, 4);
        rs.put("o", blob(1, 100)).unwrap();
        rs.put("o", blob(2, 100)).unwrap();
        for (_, v) in rs.site_versions("o") {
            assert_eq!(v, Some(2));
        }
    }

    #[test]
    fn replica_serves_reads_when_primary_down() {
        let mut rs = ReplicatedStore::new(2, 4);
        rs.put("o", blob(7, 64)).unwrap();
        rs.fail_site("site-0").unwrap();
        let reply = rs.fetch("o", None).unwrap().unwrap();
        match reply {
            FetchReply::Full { version, data } => {
                assert_eq!(version, 1);
                assert_eq!(&data[..], &[7u8; 64][..]);
            }
            other => panic!("expected full read, got {other:?}"),
        }
    }

    #[test]
    fn failover_promotes_replica_and_writes_continue() {
        let mut rs = ReplicatedStore::new(2, 4);
        rs.put("o", blob(1, 64)).unwrap();
        rs.fail_site("site-0").unwrap();
        let v = rs.put("o", blob(2, 64)).unwrap();
        assert_eq!(v, 2);
        assert_eq!(rs.primary_name(), "site-1");
        // committed data is durable across the failover
        let reply = rs.fetch("o", Some(1)).unwrap().unwrap();
        assert_eq!(reply.version(), 2);
    }

    #[test]
    fn all_sites_down_is_an_error() {
        let mut rs = ReplicatedStore::new(1, 4);
        rs.put("o", blob(1, 10)).unwrap();
        rs.fail_site("site-0").unwrap();
        rs.fail_site("site-1").unwrap();
        assert_eq!(rs.fetch("o", None).unwrap_err(), ReplicationError::AllSitesDown);
        assert_eq!(rs.put("o", blob(2, 10)).unwrap_err(), ReplicationError::AllSitesDown);
        assert_eq!(rs.n_available(), 0);
    }

    #[test]
    fn recovered_site_catches_up_on_next_write() {
        use coda_obs::{Obs, TraceForest};
        let obs = Obs::deterministic();
        let mut rs = ReplicatedStore::new(1, 8);
        rs.attach_obs(obs.clone());
        rs.put("o", blob(1, 32)).unwrap();
        rs.fail_site("site-1").unwrap();
        rs.put("o", blob(2, 32)).unwrap(); // replica misses this
        rs.recover_site("site-1").unwrap();
        rs.put("o", blob(3, 32)).unwrap(); // catch-up happens here
        let versions = rs.site_versions("o");
        assert!(versions.iter().all(|(_, v)| *v == Some(3)), "versions: {versions:?}");
        // the lagging replica fetched from the primary instead of writing
        let forest = TraceForest::from_events(&obs.tracer().events());
        let last = forest.spans().filter(|s| s.name == "store.replicate_put").last().unwrap();
        let mut children: Vec<&str> = forest
            .spans()
            .filter(|s| s.parent == Some(last.ctx.span_id))
            .map(|s| s.name.as_str())
            .collect();
        children.sort_unstable();
        assert_eq!(children, ["store.fetch", "store.put"]);
    }

    #[test]
    fn replica_writes_trace_as_children_of_the_replicated_put() {
        use coda_obs::{Obs, TraceForest};
        let obs = Obs::deterministic();
        let mut rs = ReplicatedStore::new(2, 4);
        rs.attach_obs(obs.clone());
        let root = obs.tracer().begin_span("client.request", None, &[]);
        {
            let _root = obs.tracer().enter(Some(root));
            rs.put("o", blob(5, 64)).unwrap();
        }
        obs.tracer().end_span(root, &[]);
        let forest = TraceForest::from_events(&obs.tracer().events());
        assert!(forest.orphans().is_empty());
        let rep = forest.spans().find(|s| s.name == "store.replicate_put").expect("replicate span");
        assert_eq!(rep.parent, Some(root.span_id));
        let site_puts: Vec<_> = forest.spans().filter(|s| s.name == "store.put").collect();
        assert_eq!(site_puts.len(), 3, "primary + 2 replicas");
        for p in site_puts {
            assert_eq!(p.parent, Some(rep.ctx.span_id), "site writes hang off the replicate op");
            assert_eq!(p.ctx.trace_id, rep.ctx.trace_id);
        }
    }

    #[test]
    fn unknown_site_rejected() {
        let mut rs = ReplicatedStore::new(1, 4);
        assert!(matches!(rs.fail_site("nope"), Err(ReplicationError::UnknownSite(_))));
        assert!(matches!(rs.recover_site("nope"), Err(ReplicationError::UnknownSite(_))));
    }

    #[test]
    fn degraded_read_does_not_change_primary() {
        let mut rs = ReplicatedStore::new(1, 4);
        rs.put("o", blob(1, 16)).unwrap();
        rs.fail_site("site-0").unwrap();
        rs.fetch("o", None).unwrap();
        assert_eq!(rs.primary_name(), "site-0"); // read alone doesn't fail over
        rs.failover_if_needed().unwrap();
        assert_eq!(rs.primary_name(), "site-1");
    }
}
