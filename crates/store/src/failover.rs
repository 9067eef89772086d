//! Lease-gated home-store failover.
//!
//! The acting home holds a *home lease* it renews on every heartbeat.
//! A failure detector's suspicion alone must never move the home role —
//! transient slowness would cause split-brain promotions. Failover fires
//! only when BOTH hold:
//!
//! 1. the detector declares the holder dead (crash-stop, not suspicion);
//! 2. the holder's home lease has expired — so even a node the detector
//!    wrongly declared dead cannot be usurped while it could still
//!    believe itself the home.
//!
//! [`HomeLeaseFailover::evaluate`] is a pure state machine over explicit
//! logical time; every decision is returned as a [`FailoverDecision`] so
//! drivers can trace and count each transition.

use coda_obs::Obs;

/// Why a failover did or did not happen at one evaluation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FailoverDecision {
    /// The holder is alive (possibly suspected); nothing to do.
    Healthy,
    /// The holder is declared dead but its lease still has `remaining`
    /// ticks to run: wait — no promotion on an unexpired lease.
    LeaseStillHeld {
        /// Ticks until the lease expires.
        remaining: u64,
    },
    /// The holder was dead with an expired lease: `to` is the new home.
    Promoted {
        /// Previous home.
        from: String,
        /// New home (the candidate).
        to: String,
    },
    /// The holder is dead, the lease expired, but no candidate is
    /// available to promote.
    NoCandidate,
}

/// The home-lease state machine for one replicated object home.
#[derive(Debug, Clone)]
pub struct HomeLeaseFailover {
    holder: String,
    lease_duration: u64,
    expires_at: u64,
    failovers: u64,
    obs: Option<Obs>,
}

impl HomeLeaseFailover {
    /// Grants the initial home lease to `holder` at logical time `now`.
    pub fn new<S: Into<String>>(holder: S, lease_duration: u64, now: u64) -> Self {
        HomeLeaseFailover {
            holder: holder.into(),
            lease_duration,
            expires_at: now + lease_duration,
            failovers: 0,
            obs: None,
        }
    }

    /// Attaches an observability handle: every promotion counts
    /// `coda_cluster_failovers_total` (the cluster-level failover metric)
    /// and `coda_store_home_promotions`.
    pub fn attach_obs(&mut self, obs: Obs) {
        self.obs = Some(obs);
    }

    /// The current home.
    pub fn holder(&self) -> &str {
        &self.holder
    }

    /// Lease expiry instant (exclusive — the lease is held while
    /// `now < expires_at`).
    pub fn expires_at(&self) -> u64 {
        self.expires_at
    }

    /// True when the home lease has expired at `now`.
    pub fn lease_expired(&self, now: u64) -> bool {
        now >= self.expires_at
    }

    /// Promotions performed so far.
    pub fn failovers(&self) -> u64 {
        self.failovers
    }

    /// Heartbeat path: the *current holder* renews its lease to
    /// `now + lease_duration`. Renewals from non-holders are ignored
    /// (returns false) — a demoted node cannot extend a role it lost.
    pub fn renew(&mut self, holder: &str, now: u64) -> bool {
        if holder != self.holder {
            return false;
        }
        self.expires_at = now + self.lease_duration;
        true
    }

    /// Evaluates the failover gate at logical time `now`. `holder_dead`
    /// is the failure detector's *dead* verdict for the current holder
    /// (suspicion must be passed as `false` — see module docs);
    /// `candidate` is the replica to promote when the gate opens.
    pub fn evaluate(
        &mut self,
        holder_dead: bool,
        candidate: Option<&str>,
        now: u64,
    ) -> FailoverDecision {
        if !holder_dead {
            return FailoverDecision::Healthy;
        }
        if !self.lease_expired(now) {
            return FailoverDecision::LeaseStillHeld { remaining: self.expires_at - now };
        }
        match candidate {
            None => FailoverDecision::NoCandidate,
            Some(next) => {
                let from = std::mem::replace(&mut self.holder, next.to_string());
                self.expires_at = now + self.lease_duration;
                self.failovers += 1;
                if let Some(o) = &self.obs {
                    o.count("coda_cluster_failovers_total", 1);
                    o.count("coda_store_home_promotions", 1);
                }
                FailoverDecision::Promoted { from, to: next.to_string() }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn healthy_holder_keeps_the_lease() {
        let mut fo = HomeLeaseFailover::new("site-0", 100, 0);
        assert_eq!(fo.evaluate(false, Some("site-1"), 50), FailoverDecision::Healthy);
        assert_eq!(fo.holder(), "site-0");
        assert_eq!(fo.failovers(), 0);
    }

    #[test]
    fn dead_holder_with_live_lease_is_not_usurped() {
        let mut fo = HomeLeaseFailover::new("site-0", 100, 0);
        match fo.evaluate(true, Some("site-1"), 60) {
            FailoverDecision::LeaseStillHeld { remaining } => assert_eq!(remaining, 40),
            other => panic!("expected LeaseStillHeld, got {other:?}"),
        }
        assert_eq!(fo.holder(), "site-0");
    }

    #[test]
    fn failover_fires_only_after_lease_expiry() {
        let mut fo = HomeLeaseFailover::new("site-0", 100, 0);
        assert!(matches!(
            fo.evaluate(true, Some("site-1"), 99),
            FailoverDecision::LeaseStillHeld { remaining: 1 }
        ));
        assert_eq!(
            fo.evaluate(true, Some("site-1"), 100),
            FailoverDecision::Promoted { from: "site-0".into(), to: "site-1".into() }
        );
        assert_eq!(fo.holder(), "site-1");
        assert_eq!(fo.failovers(), 1);
        // the new holder starts with a fresh lease
        assert!(!fo.lease_expired(150));
        assert!(fo.lease_expired(200));
    }

    #[test]
    fn renewal_extends_only_for_the_holder() {
        let mut fo = HomeLeaseFailover::new("site-0", 50, 0);
        assert!(fo.renew("site-0", 40));
        assert!(!fo.lease_expired(89));
        assert!(!fo.renew("site-1", 80), "non-holders cannot renew");
        assert!(fo.lease_expired(90));
    }

    #[test]
    fn no_candidate_leaves_the_role_vacant_but_counts_nothing() {
        let mut fo = HomeLeaseFailover::new("site-0", 10, 0);
        assert_eq!(fo.evaluate(true, None, 10), FailoverDecision::NoCandidate);
        assert_eq!(fo.holder(), "site-0");
        assert_eq!(fo.failovers(), 0);
    }

    #[test]
    fn promotion_counts_into_an_attached_registry() {
        let obs = Obs::deterministic();
        let mut fo = HomeLeaseFailover::new("site-0", 10, 0);
        fo.attach_obs(obs.clone());
        fo.evaluate(true, Some("site-1"), 10);
        let snap = obs.registry().snapshot();
        assert_eq!(snap.counter("coda_cluster_failovers_total"), 1);
        assert_eq!(snap.counter("coda_store_home_promotions"), 1);
    }
}
