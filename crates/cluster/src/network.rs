//! Deterministic network model: per-pair latency/bandwidth with optional
//! link failure, plus transfer accounting. A link is up or down only as
//! [`SimNetwork::disconnect`] and [`SimNetwork::reconnect`] set it; the
//! chaos driver injects its seeded faults itself
//! ([`crate::chaos::run_chaos_coop`]), not through this model.

use std::collections::BTreeMap;

/// Link parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Link {
    latency_ms: f64,
    bytes_per_ms: f64,
    up: bool,
}

/// A simulated network: a default link plus per-pair overrides. Pairs are
/// unordered (the link is symmetric).
#[derive(Debug, Clone)]
pub struct SimNetwork {
    default_latency_ms: f64,
    default_bytes_per_ms: f64,
    overrides: BTreeMap<(String, String), Link>,
    /// Total messages sent.
    pub messages: u64,
    /// Total bytes transferred.
    pub bytes: u64,
}

fn pair(a: &str, b: &str) -> (String, String) {
    if a <= b {
        (a.to_string(), b.to_string())
    } else {
        (b.to_string(), a.to_string())
    }
}

impl SimNetwork {
    /// Creates a network with default link parameters.
    ///
    /// # Panics
    ///
    /// Panics on non-positive parameters.
    pub fn new(default_latency_ms: f64, default_bytes_per_ms: f64) -> Self {
        assert!(default_latency_ms >= 0.0 && default_bytes_per_ms > 0.0);
        SimNetwork {
            default_latency_ms,
            default_bytes_per_ms,
            overrides: BTreeMap::new(),
            messages: 0,
            bytes: 0,
        }
    }

    /// Overrides the link between two nodes.
    pub fn set_link(&mut self, a: &str, b: &str, latency_ms: f64, bytes_per_ms: f64) {
        self.overrides.insert(pair(a, b), Link { latency_ms, bytes_per_ms, up: true });
    }

    /// Takes the link between two nodes down (poor connectivity, §III).
    pub fn disconnect(&mut self, a: &str, b: &str) {
        let key = pair(a, b);
        let link = self.overrides.entry(key).or_insert(Link {
            latency_ms: self.default_latency_ms,
            bytes_per_ms: self.default_bytes_per_ms,
            up: true,
        });
        link.up = false;
    }

    /// Restores the link between two nodes.
    pub fn reconnect(&mut self, a: &str, b: &str) {
        if let Some(link) = self.overrides.get_mut(&pair(a, b)) {
            link.up = true;
        }
    }

    /// True when the two nodes can communicate.
    pub fn is_connected(&self, a: &str, b: &str) -> bool {
        self.overrides.get(&pair(a, b)).map(|l| l.up).unwrap_or(true)
    }

    /// Time to move `bytes` from `a` to `b` in one message, or `None` when
    /// disconnected. Records the transfer.
    pub fn transfer(&mut self, a: &str, b: &str, bytes: u64) -> Option<f64> {
        let link = self.overrides.get(&pair(a, b)).copied().unwrap_or(Link {
            latency_ms: self.default_latency_ms,
            bytes_per_ms: self.default_bytes_per_ms,
            up: true,
        });
        if !link.up {
            return None;
        }
        self.messages += 1;
        self.bytes += bytes;
        Some(link.latency_ms + bytes as f64 / link.bytes_per_ms)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_link_timing() {
        let mut net = SimNetwork::new(10.0, 100.0);
        let t = net.transfer("a", "b", 1000).unwrap();
        assert!((t - 20.0).abs() < 1e-12); // 10 latency + 1000/100
        assert_eq!(net.messages, 1);
        assert_eq!(net.bytes, 1000);
    }

    #[test]
    fn override_is_symmetric() {
        let mut net = SimNetwork::new(10.0, 100.0);
        net.set_link("x", "y", 1.0, 1000.0);
        let t1 = net.transfer("x", "y", 1000).unwrap();
        let t2 = net.transfer("y", "x", 1000).unwrap();
        assert_eq!(t1, t2);
        assert!((t1 - 2.0).abs() < 1e-12);
    }

    #[test]
    fn disconnect_and_reconnect() {
        let mut net = SimNetwork::new(5.0, 10.0);
        assert!(net.is_connected("a", "b"));
        net.disconnect("a", "b");
        assert!(!net.is_connected("a", "b"));
        assert!(net.transfer("a", "b", 10).is_none());
        // other links unaffected
        assert!(net.transfer("a", "c", 10).is_some());
        net.reconnect("a", "b");
        assert!(net.transfer("a", "b", 10).is_some());
    }

    #[test]
    fn invalid_defaults_panic() {
        assert!(std::panic::catch_unwind(|| SimNetwork::new(1.0, 0.0)).is_err());
    }
}
