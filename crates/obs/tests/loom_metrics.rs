//! Model checks for `MetricsRegistry`'s lazy instrument registration
//! (the read-then-write lock upgrade behind `counter()`, `gauge()` and
//! `histogram()`) and for histogram observation racing snapshots.
//!
//! Run with `RUSTFLAGS="--cfg loom" cargo test -p coda-obs --test
//! loom_metrics`. Under the vendored `loom` stand-in this is a bounded
//! stress harness; with the real crate it becomes an exhaustive
//! interleaving search without a source change (DESIGN.md §10).
#![cfg(loom)]
#![allow(clippy::unwrap_used, clippy::expect_used)]

use coda_obs::MetricsRegistry;
use loom::sync::Arc;
use loom::thread;

/// The registration race: several threads materialize the same counter
/// name concurrently. The read-miss → write-entry upgrade must converge
/// on ONE shared instrument — if two threads each installed their own,
/// one thread's increments would vanish from the snapshot.
#[test]
fn concurrent_registration_converges_on_one_counter() {
    loom::model(|| {
        let registry = Arc::new(MetricsRegistry::new());
        let handles: Vec<_> = (0..3)
            .map(|_| {
                let registry = Arc::clone(&registry);
                thread::spawn(move || {
                    thread::yield_now();
                    registry.counter("races").inc();
                })
            })
            .collect();
        for h in handles {
            h.join().expect("model thread panicked");
        }
        assert_eq!(registry.snapshot().counter("races"), 3, "an increment was lost");
    });
}

/// Mixed registration and bulk `count` on the same name, racing a reader
/// taking snapshots: every final tally must equal the sum of both writers.
#[test]
fn count_and_counter_share_one_instrument() {
    loom::model(|| {
        let registry = Arc::new(MetricsRegistry::new());
        let a = {
            let registry = Arc::clone(&registry);
            thread::spawn(move || {
                registry.count("mixed", 2);
            })
        };
        let b = {
            let registry = Arc::clone(&registry);
            thread::spawn(move || {
                thread::yield_now();
                registry.counter("mixed").inc();
            })
        };
        let reader = {
            let registry = Arc::clone(&registry);
            thread::spawn(move || {
                // a mid-race snapshot must never observe a value above the
                // final total (counters are monotonic)
                let seen = registry.snapshot().counter("mixed");
                assert!(seen <= 3, "snapshot observed impossible count {seen}");
            })
        };
        for h in [a, b, reader] {
            h.join().expect("model thread panicked");
        }
        assert_eq!(registry.snapshot().counter("mixed"), 3, "an update was lost");
    });
}

/// Two threads register and observe the same histogram name while a third
/// takes snapshots: every observation lands exactly once, in its own
/// bucket, and every snapshot's `count` is its bucket total.
#[test]
fn histogram_observations_land_once_under_snapshots() {
    loom::model(|| {
        let registry = Arc::new(MetricsRegistry::new());
        let writers: Vec<_> = [0.5, 40.0]
            .into_iter()
            .map(|v| {
                let registry = Arc::clone(&registry);
                thread::spawn(move || {
                    thread::yield_now();
                    let h = registry.histogram("coda_test_wait_ms");
                    h.observe(v);
                    thread::yield_now();
                    registry.histogram("coda_test_wait_ms").observe(v);
                })
            })
            .collect();
        let reader = {
            let registry = Arc::clone(&registry);
            thread::spawn(move || {
                for _ in 0..3 {
                    let snap = registry.snapshot();
                    if let Some(h) = snap.histograms.get("coda_test_wait_ms") {
                        assert_eq!(h.count, h.counts.iter().sum::<u64>(), "count is not the total");
                        assert!(h.count <= 4, "snapshot observed impossible count {}", h.count);
                    }
                    thread::yield_now();
                }
            })
        };
        for h in writers.into_iter().chain([reader]) {
            h.join().expect("model thread panicked");
        }
        let snap = registry.snapshot();
        let h = &snap.histograms["coda_test_wait_ms"];
        assert_eq!(h.counts, vec![2, 2], "an observation was lost or doubled: {h:?}");
        assert_eq!(h.count, 4);
        assert_eq!(h.sum, 81.0);
    });
}
