//! A deterministic flight recorder: the "health over time" surface the
//! point-in-time [`MetricsSnapshot`] cannot provide.
//!
//! The recorder is driven entirely by its caller's clock: a driver calls
//! [`FlightRecorder::tick`] with the current (logical or wall) time and a
//! fresh registry snapshot, and whenever at least [`WINDOW_MS`] has
//! elapsed since the last recorded window the recorder folds the interval
//! into a [`FlightWindow`] carrying the [`MetricsSnapshot::diff`] delta for
//! that interval. Windows land in fixed-capacity ring buffers with
//! RRD-style downsampling: level 0 holds the 16 most recent windows at
//! full resolution, and when it overflows the 4 oldest windows fold into
//! one coarser window on level 1, and so on — old history degrades in
//! resolution instead of unbounded memory growth, and the last of the 3
//! levels simply drops its oldest window.
//!
//! Nothing in here reads time or randomness itself, so two same-seed
//! drivers produce byte-identical timelines ([`FlightRecorder::to_json`])
//! — the same determinism contract the tracer honours (DESIGN.md §13).

use std::collections::VecDeque;

use serde::impl_serde_struct;

use crate::metrics::MetricsSnapshot;

/// Minimum interval between recorded windows, in clock milliseconds.
pub const WINDOW_MS: f64 = 100.0;
/// Windows each level's ring holds before it downsamples.
const LEVEL_CAPACITY: usize = 16;
/// How many oldest windows fold into one coarser window on overflow.
const MERGE: usize = 4;
/// Resolution levels (level 0 is finest; the last level drops).
const LEVELS: usize = 3;

/// One recorded interval: its bounds, how many level-0 windows it covers
/// (1 until downsampling merges it), and the metric delta inside it.
#[derive(Debug, Clone, PartialEq)]
pub struct FlightWindow {
    /// Interval start, milliseconds.
    pub start_ms: f64,
    /// Interval end, milliseconds.
    pub end_ms: f64,
    /// Level-0 windows folded into this one.
    pub windows: u64,
    /// What happened inside the interval ([`MetricsSnapshot::diff`]).
    pub delta: MetricsSnapshot,
}

impl_serde_struct!(FlightWindow { start_ms, end_ms, windows, delta });

impl FlightWindow {
    /// Merges an older window with the one that follows it: counters and
    /// gauge deltas add, histogram buckets add, the interval widens.
    pub fn merge(older: &FlightWindow, newer: &FlightWindow) -> FlightWindow {
        let mut delta = older.delta.clone();
        for (k, v) in &newer.delta.counters {
            *delta.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, v) in &newer.delta.gauges {
            *delta.gauges.entry(k.clone()).or_insert(0.0) += v;
        }
        for (k, h) in &newer.delta.histograms {
            match delta.histograms.get_mut(k) {
                Some(existing) => *existing = existing.merge(h),
                None => {
                    delta.histograms.insert(k.clone(), h.clone());
                }
            }
        }
        FlightWindow {
            start_ms: older.start_ms,
            end_ms: newer.end_ms,
            windows: older.windows + newer.windows,
            delta,
        }
    }
}

/// The deterministic JSON shape of a full timeline dump.
#[derive(Debug, Clone, PartialEq)]
struct FlightDump {
    schema: String,
    window_ms: f64,
    windows: Vec<FlightWindow>,
}

impl_serde_struct!(FlightDump { schema, window_ms, windows });

/// The recorder: a downsampling ring of [`FlightWindow`]s plus the last
/// cumulative snapshot to diff the next window against.
#[derive(Debug, Default)]
pub struct FlightRecorder {
    last: Option<(f64, MetricsSnapshot)>,
    levels: [VecDeque<FlightWindow>; LEVELS],
}

impl FlightRecorder {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Offers the current time and a fresh snapshot. The first call seeds
    /// the baseline; later calls record a window (and return `true`) once
    /// at least [`WINDOW_MS`] has elapsed since the last recorded boundary.
    /// Calls inside a window are free no-ops, so drivers can tick every
    /// iteration without thinking about cadence.
    pub fn tick(&mut self, now_ms: f64, snap: &MetricsSnapshot) -> bool {
        let Some((last_ms, last_snap)) = &self.last else {
            self.last = Some((now_ms, snap.clone()));
            return false;
        };
        if now_ms - last_ms < WINDOW_MS {
            return false;
        }
        let window = FlightWindow {
            start_ms: *last_ms,
            end_ms: now_ms,
            windows: 1,
            delta: snap.diff(last_snap),
        };
        self.last = Some((now_ms, snap.clone()));
        self.levels[0].push_back(window);
        self.cascade();
        true
    }

    /// Applies the downsampling ladder after a push: any level over
    /// capacity folds its `MERGE` oldest windows into one window on the
    /// next level; the last level drops its oldest instead.
    fn cascade(&mut self) {
        for level in 0..LEVELS {
            while self.levels[level].len() > LEVEL_CAPACITY {
                if level + 1 == LEVELS {
                    self.levels[level].pop_front();
                    continue;
                }
                let Some(mut folded) = self.levels[level].pop_front() else { break };
                for _ in 1..MERGE {
                    match self.levels[level].pop_front() {
                        Some(next) => folded = FlightWindow::merge(&folded, &next),
                        None => break,
                    }
                }
                self.levels[level + 1].push_back(folded);
            }
        }
    }

    /// Windows recorded and still held, across all levels.
    pub fn len(&self) -> usize {
        self.levels.iter().map(VecDeque::len).sum()
    }

    /// True when nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The full retained timeline, oldest to newest: coarse (downsampled)
    /// windows first, then the full-resolution recent windows.
    pub fn timeline(&self) -> Vec<&FlightWindow> {
        let mut out = Vec::with_capacity(self.len());
        for level in self.levels.iter().rev() {
            out.extend(level.iter());
        }
        out
    }

    /// Renders the timeline as deterministic JSON (stable key order from
    /// the `BTreeMap`s inside every delta).
    pub fn to_json(&self) -> String {
        let dump = FlightDump {
            schema: "coda-flight-v1".to_string(),
            window_ms: WINDOW_MS,
            windows: self.timeline().into_iter().cloned().collect(),
        };
        serde_json::to_string(&dump).unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MetricsRegistry;

    #[test]
    fn windows_carry_the_interval_delta() {
        let reg = MetricsRegistry::new();
        let mut rec = FlightRecorder::new();
        assert!(!rec.tick(0.0, &reg.snapshot()), "first tick only seeds the baseline");
        reg.count("coda_test_ops", 5);
        assert!(!rec.tick(50.0, &reg.snapshot()), "inside the window: no-op");
        reg.count("coda_test_ops", 2);
        assert!(rec.tick(100.0, &reg.snapshot()), "window boundary records");
        let timeline = rec.timeline();
        assert_eq!(timeline.len(), 1);
        assert_eq!(timeline[0].start_ms, 0.0);
        assert_eq!(timeline[0].end_ms, 100.0);
        assert_eq!(timeline[0].windows, 1);
        assert_eq!(timeline[0].delta.counter("coda_test_ops"), 7, "whole interval attributed");
        reg.count("coda_test_ops", 1);
        assert!(rec.tick(200.0, &reg.snapshot()));
        assert_eq!(rec.timeline()[1].delta.counter("coda_test_ops"), 1, "only the new window");
    }

    #[test]
    fn overflow_downsamples_oldest_windows_into_coarser_levels() {
        let reg = MetricsRegistry::new();
        let mut rec = FlightRecorder::new();
        rec.tick(0.0, &reg.snapshot());
        for i in 1..=18 {
            reg.count("coda_test_ops", 1);
            rec.tick(i as f64 * WINDOW_MS, &reg.snapshot());
        }
        // 18 windows through a 16-deep level 0: one merge of 4 moves to level 1
        let timeline = rec.timeline();
        assert_eq!(rec.len(), timeline.len());
        let merged: Vec<&&FlightWindow> = timeline.iter().filter(|w| w.windows > 1).collect();
        assert!(!merged.is_empty(), "old windows must be downsampled");
        assert_eq!(merged[0].windows, MERGE as u64);
        assert_eq!(merged[0].delta.counter("coda_test_ops"), 4, "merged deltas add");
        // chronological: every window starts where the previous ended
        for pair in timeline.windows(2) {
            assert_eq!(pair[0].end_ms, pair[1].start_ms, "timeline must be contiguous");
        }
        let total: u64 = timeline.iter().map(|w| w.delta.counter("coda_test_ops")).sum();
        assert_eq!(total, 18, "downsampling loses resolution, never mass");
    }

    #[test]
    fn last_level_drops_oldest_history() {
        let reg = MetricsRegistry::new();
        let mut rec = FlightRecorder::new();
        rec.tick(0.0, &reg.snapshot());
        // 340 windows overflow the ladder's 16 + 16·4 + 16·16 = 336
        for i in 1..=340 {
            reg.count("coda_test_ops", 1);
            rec.tick(i as f64 * WINDOW_MS, &reg.snapshot());
        }
        assert!(rec.len() <= LEVELS * LEVEL_CAPACITY, "the ladder stays bounded");
        assert_eq!(rec.timeline()[0].start_ms, 1600.0, "oldest windows fell off");
    }

    #[test]
    fn histograms_and_gauges_merge_in_windows() {
        let reg = MetricsRegistry::new();
        let mut rec = FlightRecorder::new();
        rec.tick(0.0, &reg.snapshot());
        for i in 1..=17 {
            reg.histogram("coda_test_ms").observe(i as f64);
            reg.gauge("coda_test_depth").add(1.0);
            rec.tick(i as f64 * WINDOW_MS, &reg.snapshot());
        }
        // 17 windows through a 16-deep level 0: the 4 oldest merged
        let timeline = rec.timeline();
        let merged = timeline[0];
        assert_eq!(merged.windows, 4);
        assert_eq!(merged.delta.histograms["coda_test_ms"].count, 4);
        assert!((merged.delta.histograms["coda_test_ms"].sum - 10.0).abs() < 1e-12);
        assert!((merged.delta.gauges["coda_test_depth"] - 4.0).abs() < 1e-12);
    }

    /// Satellite: exact merge-level boundary — filling level 0 to capacity
    /// records without downsampling; the push after the boundary folds
    /// exactly `MERGE` oldest windows into one coarser window whose
    /// interval is the widened union and whose counters are the exact sum.
    #[test]
    fn merge_boundary_folds_exactly_merge_windows() {
        let reg = MetricsRegistry::new();
        let mut rec = FlightRecorder::new();
        rec.tick(0.0, &reg.snapshot());
        for i in 1..=16 {
            reg.count("coda_test_ops", i);
            rec.tick(i as f64 * WINDOW_MS, &reg.snapshot());
        }
        assert_eq!(
            rec.timeline().iter().filter(|w| w.windows > 1).count(),
            0,
            "at capacity: no merge yet"
        );
        // the 17th window tips level 0 over: windows 1..=4 (deltas 1..=4) fold
        reg.count("coda_test_ops", 17);
        rec.tick(1700.0, &reg.snapshot());
        let timeline = rec.timeline();
        let merged = timeline[0];
        assert_eq!(merged.windows, 4, "exactly `MERGE` windows fold");
        assert_eq!(merged.start_ms, 0.0, "interval start comes from the oldest");
        assert_eq!(merged.end_ms, 400.0, "interval end comes from the newest folded");
        assert_eq!(merged.delta.counter("coda_test_ops"), 1 + 2 + 3 + 4, "counter fold is exact");
        assert_eq!(timeline.len(), 14, "one coarse + thirteen fine windows remain");
        assert_eq!(timeline[1].start_ms, 400.0, "fine tail resumes at the fold boundary");
        let total: u64 = timeline.iter().map(|w| w.delta.counter("coda_test_ops")).sum();
        assert_eq!(total, (1..=17).sum::<u64>(), "no mass lost at the boundary");
    }

    #[test]
    fn same_driver_sequence_dumps_byte_identical_json() {
        let run = || {
            let reg = MetricsRegistry::new();
            let mut rec = FlightRecorder::new();
            rec.tick(0.0, &reg.snapshot());
            for i in 1..=90 {
                reg.count("coda_test_ops", i);
                reg.histogram("coda_test_ms").observe(0.25 * i as f64);
                rec.tick(i as f64 * WINDOW_MS, &reg.snapshot());
            }
            rec.to_json()
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "flight timelines must replay byte-identically");
        assert!(a.contains("coda-flight-v1"));
    }
}
