//! The [`Publish`] trait: one uniform way for crate-local stats structs
//! (`CacheStats`, `RetryStats`, `FaultStats`, …) to land their counters
//! in a shared [`MetricsRegistry`] under canonical `coda_<crate>_<name>`
//! names, instead of bespoke accessors duplicated at every call site.

use crate::metrics::MetricsRegistry;

/// Adds a snapshot's counters into a registry.
///
/// Implementations are *additive*: publishing the same snapshot twice
/// double-counts, so publish each accounting struct exactly once (typically
/// at the end of the operation that produced it). Components that are
/// instead wired live via [`Obs`](crate::Obs) handles resolve their
/// counters when the handle is attached and increment them as they go —
/// use one style or the other per source.
pub trait Publish {
    /// Accumulates this snapshot into `registry`.
    fn publish(&self, registry: &MetricsRegistry);
}

impl<T: Publish> Publish for Option<T> {
    fn publish(&self, registry: &MetricsRegistry) {
        if let Some(inner) = self {
            inner.publish(registry);
        }
    }
}
