//! Shared-prefix transform caching for TEG evaluation.
//!
//! Sibling root→leaf paths of a Transformer-Estimator Graph share most of
//! their transformer prefix by construction (§IV, Fig. 3), yet a naive
//! evaluation refits the same prefix once per path per cross-validation
//! fold. [`TransformCache`] stores the transformed train/validation
//! datasets of every fitted prefix, keyed by `(fold id, canonical prefix
//! spec)`, so each distinct prefix is fitted exactly once per fold and
//! every path sharing it reuses the output — the local analogue of the
//! paper's DARR "avoid redundant computation" principle (§III), applied
//! inside one evaluation instead of across clients.
//!
//! The cache is scoped to a single graph evaluation: within one [`Teg`],
//! node names uniquely identify node instances, so a prefix key of
//! `name-chain + resolved node params` is canonical. Keys are *not*
//! meaningful across different graphs.
//!
//! Concurrency: lookups are slot-serialized. The first worker to reach a
//! `(fold, prefix)` key fits it while holding only that key's slot lock;
//! racing workers for the same key block on the slot and observe a hit.
//! Distinct keys never contend, so `misses` always equals the number of
//! distinct prefixes fitted regardless of thread interleaving — the
//! accounting is deterministic under [`Evaluator::with_threads`].
//!
//! Release: a cache built [`TransformCache::with_planned_reads`] knows how
//! many lookups each entry will receive and drops the entry from its map at
//! the last one, so an output lives only while a path that reads it is
//! still queued or running. A reader that already holds the slot keeps it
//! alive and still observes the hit. An entry read fewer times than planned
//! (its path failed before reaching it) stays until the cache is dropped,
//! so nothing is ever fitted twice.
//!
//! [`Teg`]: crate::graph::Teg
//! [`Evaluator::with_threads`]: crate::eval::Evaluator::with_threads

use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use coda_data::{ComponentError, Dataset};

/// Counters from one cached evaluation (exposed on
/// [`GraphReport::cache`](crate::eval::GraphReport::cache)).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Prefix lookups answered from the cache.
    pub hits: u64,
    /// Prefix lookups that had to fit (one per distinct `(fold, prefix)`).
    pub misses: u64,
    /// Approximate bytes of the transformed datasets fitted into the cache.
    /// A cache that frees entries at their last read holds less at any
    /// one time.
    pub bytes: u64,
    /// Transformer refits avoided — one per cache hit.
    pub refits_avoided: u64,
}

impl CacheStats {
    /// Total prefix lookups (`hits + misses`).
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses
    }

    /// Fraction of lookups served from the cache, or 0.0 with no lookups.
    pub fn hit_rate(&self) -> f64 {
        if self.lookups() == 0 {
            0.0
        } else {
            self.hits as f64 / self.lookups() as f64
        }
    }

    /// Accumulates `other` into `self`.
    pub fn merge(&mut self, other: &CacheStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.bytes += other.bytes;
        self.refits_avoided += other.refits_avoided;
    }
}

impl coda_obs::Publish for CacheStats {
    fn publish(&self, registry: &coda_obs::MetricsRegistry) {
        registry.count("coda_core_cache_hits", self.hits);
        registry.count("coda_core_cache_misses", self.misses);
        registry.count("coda_core_cache_bytes", self.bytes);
        registry.count("coda_core_cache_refits_avoided", self.refits_avoided);
    }
}

impl fmt::Display for CacheStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "hits {} / misses {} ({:.0}% hit rate), {} bytes, {} refits avoided",
            self.hits,
            self.misses,
            self.hit_rate() * 100.0,
            self.bytes,
            self.refits_avoided
        )
    }
}

/// The transformed `(train, validation)` pair after one fitted prefix, or
/// the deterministic error that prefix produces on this fold.
pub type PrefixOutput = Result<Arc<(Dataset, Dataset)>, ComponentError>;

type Slot = Arc<Mutex<Option<PrefixOutput>>>;

/// A held entry: its slot, and the lookups it still expects (`None` when
/// unplanned: kept until the cache drops).
#[derive(Debug)]
struct Held {
    slot: Slot,
    reads_left: Option<usize>,
}

impl Held {
    /// Counts one lookup; true when it was the last planned one.
    fn read(&mut self) -> bool {
        match &mut self.reads_left {
            Some(left) if *left > 0 => {
                *left -= 1;
                *left == 0
            }
            _ => false,
        }
    }
}

/// A cache of fitted transformer-prefix outputs, keyed by
/// `(fold id, canonical prefix spec key)`.
///
/// Failed fits are cached too: transformers are deterministic, so a prefix
/// that fails on a fold fails identically for every path sharing it, and
/// caching the error keeps the accounting (and the reported error strings)
/// bit-identical to an uncached run.
#[derive(Debug, Default)]
pub struct TransformCache {
    slots: Mutex<HashMap<(usize, String), Held>>,
    /// Lookups each fold's entry of a prefix key will receive.
    planned_reads: BTreeMap<String, usize>,
    hits: AtomicU64,
    misses: AtomicU64,
    bytes: AtomicU64,
}

impl TransformCache {
    /// Creates an empty cache that keeps every entry until it is dropped.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty cache that drops each `(fold, key)` entry at its
    /// last planned lookup: `planned_reads[key]` lookups per fold. Keys
    /// missing from the plan are kept until the cache is dropped. A plan
    /// must never count fewer lookups than a key receives, or the key is
    /// fitted again.
    pub fn with_planned_reads(planned_reads: BTreeMap<String, usize>) -> Self {
        TransformCache { planned_reads, ..Self::default() }
    }

    /// Returns the output for `(fold, prefix_key)`, fitting it with `fit`
    /// on first use. Concurrent callers for the same key serialize on that
    /// key's slot, so every distinct prefix is fitted at most once.
    pub fn get_or_fit<F>(&self, fold: usize, prefix_key: &str, fit: F) -> PrefixOutput
    where
        F: FnOnce() -> Result<(Dataset, Dataset), ComponentError>,
    {
        let slot = {
            let mut slots = self.slots.lock();
            let key = (fold, prefix_key.to_string());
            let held = slots.entry(key.clone()).or_insert_with(|| Held {
                slot: Slot::default(),
                reads_left: self.planned_reads.get(prefix_key).copied(),
            });
            let slot = Arc::clone(&held.slot);
            if held.read() {
                slots.remove(&key);
            }
            slot
        };
        let mut guard = slot.lock();
        if let Some(out) = guard.as_ref() {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return out.clone();
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let out: PrefixOutput = fit().map(Arc::new);
        if let Ok(pair) = &out {
            self.bytes.fetch_add(
                approx_dataset_bytes(&pair.0) + approx_dataset_bytes(&pair.1),
                Ordering::Relaxed,
            );
        }
        *guard = Some(out.clone());
        out
    }

    /// Number of distinct `(fold, prefix)` entries currently held.
    pub fn len(&self) -> usize {
        self.slots.lock().len()
    }

    /// True when nothing has been cached yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A snapshot of the counters.
    pub fn stats(&self) -> CacheStats {
        let hits = self.hits.load(Ordering::Relaxed);
        CacheStats {
            hits,
            misses: self.misses.load(Ordering::Relaxed),
            bytes: self.bytes.load(Ordering::Relaxed),
            refits_avoided: hits,
        }
    }
}

/// Approximate in-memory footprint of a dataset (features + target).
fn approx_dataset_bytes(ds: &Dataset) -> u64 {
    let cells = ds.n_samples() * ds.n_features();
    let target = ds.target().map_or(0, <[f64]>::len);
    (8 * (cells + target)) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use coda_linalg::Matrix;

    fn tiny(n: usize) -> Dataset {
        Dataset::new(Matrix::zeros(n, 2)).with_target(vec![0.0; n]).unwrap()
    }

    #[test]
    fn first_lookup_misses_then_hits() {
        let cache = TransformCache::new();
        let mut fits = 0;
        for _ in 0..3 {
            let out = cache.get_or_fit(0, "scaler", || {
                fits += 1;
                Ok((tiny(4), tiny(2)))
            });
            assert!(out.is_ok());
        }
        assert_eq!(fits, 1);
        let s = cache.stats();
        assert_eq!(s.misses, 1);
        assert_eq!(s.hits, 2);
        assert_eq!(s.refits_avoided, 2);
        assert_eq!(s.lookups(), 3);
        assert!((s.hit_rate() - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn folds_and_prefixes_are_distinct_keys() {
        let cache = TransformCache::new();
        for fold in 0..2 {
            for key in ["a", "a>b"] {
                cache.get_or_fit(fold, key, || Ok((tiny(4), tiny(2)))).unwrap();
            }
        }
        assert_eq!(cache.stats().misses, 4);
        assert_eq!(cache.stats().hits, 0);
        assert_eq!(cache.len(), 4);
    }

    #[test]
    fn errors_are_cached_and_replayed() {
        let cache = TransformCache::new();
        let mut fits = 0;
        for _ in 0..2 {
            let out = cache.get_or_fit(0, "bad", || {
                fits += 1;
                Err(ComponentError::InvalidInput("boom".to_string()))
            });
            assert!(matches!(out, Err(ComponentError::InvalidInput(_))));
        }
        assert_eq!(fits, 1, "a failing prefix is fitted once, then replayed");
        assert_eq!(cache.stats().misses, 1);
        assert_eq!(cache.stats().hits, 1);
        assert_eq!(cache.stats().bytes, 0, "failed fits hold no data");
    }

    #[test]
    fn bytes_account_for_both_splits() {
        let cache = TransformCache::new();
        cache.get_or_fit(0, "p", || Ok((tiny(10), tiny(5)))).unwrap();
        // (10*2 + 10) + (5*2 + 5) doubles = 45 * 8 bytes
        assert_eq!(cache.stats().bytes, 45 * 8);
    }

    #[test]
    fn concurrent_same_key_fits_once() {
        let cache = Arc::new(TransformCache::new());
        let fits = Arc::new(AtomicU64::new(0));
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let cache = Arc::clone(&cache);
                let fits = Arc::clone(&fits);
                scope.spawn(move || {
                    for fold in 0..3 {
                        cache
                            .get_or_fit(fold, "shared", || {
                                fits.fetch_add(1, Ordering::SeqCst);
                                Ok((tiny(4), tiny(2)))
                            })
                            .unwrap();
                    }
                });
            }
        });
        assert_eq!(fits.load(Ordering::SeqCst), 3, "one fit per fold");
        let s = cache.stats();
        assert_eq!(s.misses, 3);
        assert_eq!(s.hits, 8 * 3 - 3);
    }

    fn planned(reads: &[(&str, usize)]) -> TransformCache {
        TransformCache::with_planned_reads(
            reads.iter().map(|&(key, n)| (key.to_string(), n)).collect(),
        )
    }

    #[test]
    fn an_entry_is_released_at_its_last_planned_read() {
        let cache = planned(&[("p", 3), ("single", 1)]);
        let mut fits = 0;
        for fold in 0..2 {
            for read in 1..=3 {
                cache
                    .get_or_fit(fold, "p", || {
                        fits += 1;
                        Ok((tiny(4), tiny(2)))
                    })
                    .unwrap();
                let held = if read < 3 { 1 } else { 0 };
                assert_eq!(cache.len(), held, "fold {fold}, read {read}");
            }
        }
        // a key read once is never held at all
        cache.get_or_fit(0, "single", || Ok((tiny(4), tiny(2)))).unwrap();
        assert!(cache.is_empty());
        assert_eq!(fits, 2, "one fit per fold");
        let s = cache.stats();
        assert_eq!((s.misses, s.hits), (3, 4), "release leaves the accounting alone");
        assert_eq!(s.bytes, 3 * 18 * 8, "bytes count every fit, released or not");
    }

    #[test]
    fn a_racing_reader_of_a_released_slot_still_hits() {
        // the first reader fits; the second and last takes the slot, which
        // releases the entry, and then waits on the fit in progress
        let cache = planned(&[("p", 2)]);
        let (first, second) = std::thread::scope(|scope| {
            let (started_tx, started_rx) = std::sync::mpsc::channel();
            let cache = &cache;
            let first = scope.spawn(move || {
                cache.get_or_fit(0, "p", || {
                    started_tx.send(()).unwrap();
                    // the second reader took the slot once the entry is gone
                    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
                    while !cache.is_empty() && std::time::Instant::now() < deadline {
                        std::thread::yield_now();
                    }
                    Ok((tiny(4), tiny(2)))
                })
            });
            started_rx.recv().unwrap();
            let second = scope.spawn(move || cache.get_or_fit(0, "p", || panic!("refitted")));
            (first.join().unwrap().unwrap(), second.join().unwrap().unwrap())
        });
        assert!(Arc::ptr_eq(&first, &second), "both readers share the one fit");
        assert!(cache.is_empty());
        assert_eq!((cache.stats().misses, cache.stats().hits), (1, 1));
    }

    #[test]
    fn an_entry_read_fewer_times_than_planned_is_kept_and_never_refitted() {
        // a path that fails before its lookup leaves the plan one read short
        let cache = planned(&[("p", 3), ("bad", 2)]);
        let mut fits = 0;
        for _ in 0..2 {
            let _ = cache.get_or_fit(0, "p", || {
                fits += 1;
                Ok((tiny(4), tiny(2)))
            });
        }
        let _ = cache.get_or_fit(0, "bad", || {
            fits += 1;
            Err(ComponentError::InvalidInput("boom".to_string()))
        });
        assert_eq!(cache.len(), 2, "both entries are kept until the cache drops");
        // unplanned keys are kept too
        cache.get_or_fit(1, "unplanned", || Ok((tiny(4), tiny(2)))).unwrap();
        assert_eq!(cache.len(), 3);
        assert_eq!(fits, 2);
        let out = cache.get_or_fit(0, "bad", || panic!("refitted"));
        assert!(matches!(out, Err(ComponentError::InvalidInput(_))), "the error is replayed");
        assert_eq!(cache.len(), 2, "the last planned read releases it");
    }

    #[test]
    fn stats_merge_accumulates() {
        let mut a = CacheStats { hits: 1, misses: 2, bytes: 3, refits_avoided: 1 };
        let b = CacheStats { hits: 10, misses: 20, bytes: 30, refits_avoided: 10 };
        a.merge(&b);
        assert_eq!(a, CacheStats { hits: 11, misses: 22, bytes: 33, refits_avoided: 11 });
        assert!(a.to_string().contains("refits avoided"));
    }
}
