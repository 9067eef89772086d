//! A deterministic flight recorder: the "health over time" surface the
//! point-in-time [`MetricsSnapshot`] cannot provide.
//!
//! The recorder is driven entirely by its caller's clock: a driver calls
//! [`FlightRecorder::tick`] with the current (logical or wall) time and a
//! fresh registry snapshot, and whenever at least `window_ms` has elapsed
//! since the last recorded window the recorder folds the interval into a
//! [`FlightWindow`] carrying the [`MetricsSnapshot::diff`] delta for that
//! interval. Windows land in fixed-capacity ring buffers with RRD-style
//! downsampling: level 0 holds the most recent windows at full
//! resolution, and when it overflows the `merge` oldest windows fold into
//! one coarser window on level 1, and so on — old history degrades in
//! resolution instead of unbounded memory growth, and the last level
//! simply drops its oldest window.
//!
//! Nothing in here reads time or randomness itself, so two same-seed
//! drivers produce byte-identical timelines ([`FlightRecorder::to_json`])
//! — the same determinism contract the tracer honours (DESIGN.md §13).

use std::collections::VecDeque;

use serde::impl_serde_struct;

use crate::metrics::MetricsSnapshot;

/// Recorder shape: window width and the downsampling ladder.
#[derive(Debug, Clone)]
pub struct FlightConfig {
    /// Minimum interval between recorded windows, in clock milliseconds.
    pub window_ms: f64,
    /// Windows each level's ring holds before it downsamples.
    pub level_capacity: usize,
    /// How many oldest windows fold into one coarser window on overflow.
    pub merge: usize,
    /// Resolution levels (level 0 is finest; the last level drops).
    pub levels: usize,
}

impl Default for FlightConfig {
    fn default() -> Self {
        FlightConfig { window_ms: 100.0, level_capacity: 16, merge: 4, levels: 3 }
    }
}

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
#[derive(Debug)]
pub struct FlightRecorder {
    cfg: FlightConfig,
    last: Option<(f64, MetricsSnapshot)>,
    levels: Vec<VecDeque<FlightWindow>>,
}

impl FlightRecorder {
    /// Creates a recorder.
    ///
    /// # Panics
    ///
    /// Panics when the config is degenerate (`window_ms <= 0`, zero
    /// capacity, a merge factor below 2, or zero levels) — these are
    /// build-time constants, never data-dependent. A `level_capacity` of 1
    /// is legal: every push overflows immediately, so each level holds one
    /// window that folds straight through the ladder (a pass-through ring).
    pub fn new(cfg: FlightConfig) -> Self {
        assert!(cfg.window_ms > 0.0, "window width must be positive");
        assert!(cfg.level_capacity >= 1, "a level must hold at least one window");
        assert!(cfg.merge >= 2, "merging fewer than 2 windows never shrinks a level");
        assert!(cfg.levels >= 1, "need at least one level");
        let levels = (0..cfg.levels).map(|_| VecDeque::new()).collect();
        FlightRecorder { cfg, last: None, levels }
    }

    /// The recorder's configuration.
    pub fn config(&self) -> &FlightConfig {
        &self.cfg
    }

    /// Offers the current time and a fresh snapshot. The first call seeds
    /// the baseline; later calls record a window (and return `true`) once
    /// at least `window_ms` has elapsed since the last recorded boundary.
    /// Calls inside a window are free no-ops, so drivers can tick every
    /// iteration without thinking about cadence.
    pub fn tick(&mut self, now_ms: f64, snap: &MetricsSnapshot) -> bool {
        let Some((last_ms, last_snap)) = &self.last else {
            self.last = Some((now_ms, snap.clone()));
            return false;
        };
        if now_ms - last_ms < self.cfg.window_ms {
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
    /// capacity folds its `merge` oldest windows into one window on the
    /// next level; the last level drops its oldest instead.
    fn cascade(&mut self) {
        for level in 0..self.levels.len() {
            while self.levels[level].len() > self.cfg.level_capacity {
                if level + 1 == self.levels.len() {
                    self.levels[level].pop_front();
                    continue;
                }
                let Some(mut folded) = self.levels[level].pop_front() else { break };
                for _ in 1..self.cfg.merge {
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
            window_ms: self.cfg.window_ms,
            windows: self.timeline().into_iter().cloned().collect(),
        };
        serde_json::to_string(&dump).unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MetricsRegistry;

    fn recorder(level_capacity: usize, merge: usize, levels: usize) -> FlightRecorder {
        FlightRecorder::new(FlightConfig { window_ms: 10.0, level_capacity, merge, levels })
    }

    #[test]
    fn windows_carry_the_interval_delta() {
        let reg = MetricsRegistry::new();
        let mut rec = recorder(8, 2, 2);
        assert!(!rec.tick(0.0, &reg.snapshot()), "first tick only seeds the baseline");
        reg.count("coda_test_ops", 5);
        assert!(!rec.tick(5.0, &reg.snapshot()), "inside the window: no-op");
        reg.count("coda_test_ops", 2);
        assert!(rec.tick(10.0, &reg.snapshot()), "window boundary records");
        let timeline = rec.timeline();
        assert_eq!(timeline.len(), 1);
        assert_eq!(timeline[0].start_ms, 0.0);
        assert_eq!(timeline[0].end_ms, 10.0);
        assert_eq!(timeline[0].windows, 1);
        assert_eq!(timeline[0].delta.counter("coda_test_ops"), 7, "whole interval attributed");
        reg.count("coda_test_ops", 1);
        assert!(rec.tick(20.0, &reg.snapshot()));
        assert_eq!(rec.timeline()[1].delta.counter("coda_test_ops"), 1, "only the new window");
    }

    #[test]
    fn overflow_downsamples_oldest_windows_into_coarser_levels() {
        let reg = MetricsRegistry::new();
        let mut rec = recorder(4, 2, 2);
        rec.tick(0.0, &reg.snapshot());
        for i in 1..=6 {
            reg.count("coda_test_ops", 1);
            rec.tick(i as f64 * 10.0, &reg.snapshot());
        }
        // 6 windows through a 4-deep level 0: two merges of 2 move to level 1
        let timeline = rec.timeline();
        assert_eq!(rec.len(), timeline.len());
        let merged: Vec<&&FlightWindow> = timeline.iter().filter(|w| w.windows > 1).collect();
        assert!(!merged.is_empty(), "old windows must be downsampled");
        assert_eq!(merged[0].windows, 2);
        assert_eq!(merged[0].delta.counter("coda_test_ops"), 2, "merged deltas add");
        // chronological: every window starts where the previous ended
        for pair in timeline.windows(2) {
            assert_eq!(pair[0].end_ms, pair[1].start_ms, "timeline must be contiguous");
        }
        let total: u64 = timeline.iter().map(|w| w.delta.counter("coda_test_ops")).sum();
        assert_eq!(total, 6, "downsampling loses resolution, never mass");
    }

    #[test]
    fn last_level_drops_oldest_history() {
        let reg = MetricsRegistry::new();
        let mut rec = recorder(2, 2, 1);
        rec.tick(0.0, &reg.snapshot());
        for i in 1..=5 {
            reg.count("coda_test_ops", 1);
            rec.tick(i as f64 * 10.0, &reg.snapshot());
        }
        assert_eq!(rec.len(), 2, "single-level ring stays bounded");
        assert_eq!(rec.timeline()[0].start_ms, 30.0, "oldest windows fell off");
    }

    #[test]
    fn histograms_and_gauges_merge_in_windows() {
        let reg = MetricsRegistry::new();
        let mut rec = recorder(2, 2, 2);
        rec.tick(0.0, &reg.snapshot());
        for i in 1..=3 {
            reg.histogram("coda_test_ms").observe(i as f64);
            reg.gauge("coda_test_depth").add(1.0);
            rec.tick(i as f64 * 10.0, &reg.snapshot());
        }
        // 3 windows through a 2-deep level 0: the 2 oldest merged
        let timeline = rec.timeline();
        let merged = timeline[0];
        assert_eq!(merged.windows, 2);
        assert_eq!(merged.delta.histograms["coda_test_ms"].count, 2);
        assert!((merged.delta.histograms["coda_test_ms"].sum - 3.0).abs() < 1e-12);
        assert!((merged.delta.gauges["coda_test_depth"] - 2.0).abs() < 1e-12);
    }

    /// Satellite: a capacity-1 ring is legal and coherent — every push
    /// overflows immediately, so windows fold straight through the ladder
    /// like digits of a merge-ary counter. The timeline stays contiguous
    /// and no counter mass is lost.
    #[test]
    fn capacity_one_ring_cascades_without_losing_mass() {
        let reg = MetricsRegistry::new();
        let mut rec = recorder(1, 2, 3);
        rec.tick(0.0, &reg.snapshot());
        for i in 1..=6 {
            reg.count("coda_test_ops", 1);
            rec.tick(i as f64 * 10.0, &reg.snapshot());
        }
        let timeline = rec.timeline();
        assert!(!timeline.is_empty());
        for pair in timeline.windows(2) {
            assert_eq!(pair[0].end_ms, pair[1].start_ms, "contiguous even at capacity 1");
        }
        // the last level (capacity 1) drops its oldest; whatever survives
        // keeps exact per-window mass
        for w in &timeline {
            assert_eq!(
                w.delta.counter("coda_test_ops"),
                w.windows,
                "each retained window carries exactly its folded deltas"
            );
        }
        assert_eq!(rec.len(), timeline.len());
        // still ticks and stays bounded long after
        for i in 7..=40 {
            reg.count("coda_test_ops", 1);
            rec.tick(i as f64 * 10.0, &reg.snapshot());
        }
        assert!(rec.len() <= 3, "one window per level at most");
    }

    /// Satellite: exact merge-level boundary — filling level 0 to capacity
    /// records without downsampling; the push after the boundary folds
    /// exactly `merge` oldest windows into one coarser window whose
    /// interval is the widened union and whose counters are the exact sum.
    #[test]
    fn merge_boundary_folds_exactly_merge_windows() {
        let reg = MetricsRegistry::new();
        let mut rec = recorder(4, 3, 2);
        rec.tick(0.0, &reg.snapshot());
        for i in 1..=4 {
            reg.count("coda_test_ops", i);
            rec.tick(i as f64 * 10.0, &reg.snapshot());
        }
        assert_eq!(
            rec.timeline().iter().filter(|w| w.windows > 1).count(),
            0,
            "at capacity: no merge yet"
        );
        // the 5th window tips level 0 over: windows 1..=3 (deltas 1, 2, 3) fold
        reg.count("coda_test_ops", 5);
        rec.tick(50.0, &reg.snapshot());
        let timeline = rec.timeline();
        let merged = timeline[0];
        assert_eq!(merged.windows, 3, "exactly `merge` windows fold");
        assert_eq!(merged.start_ms, 0.0, "interval start comes from the oldest");
        assert_eq!(merged.end_ms, 30.0, "interval end comes from the newest folded");
        assert_eq!(merged.delta.counter("coda_test_ops"), 1 + 2 + 3, "counter fold is exact");
        assert_eq!(timeline.len(), 3, "one coarse + two fine windows remain");
        assert_eq!(timeline[1].start_ms, 30.0, "fine tail resumes at the fold boundary");
        let total: u64 = timeline.iter().map(|w| w.delta.counter("coda_test_ops")).sum();
        assert_eq!(total, 1 + 2 + 3 + 4 + 5, "no mass lost at the boundary");
    }

    #[test]
    fn same_driver_sequence_dumps_byte_identical_json() {
        let run = || {
            let reg = MetricsRegistry::new();
            let mut rec = recorder(4, 2, 3);
            rec.tick(0.0, &reg.snapshot());
            for i in 1..=9 {
                reg.count("coda_test_ops", i);
                reg.histogram("coda_test_ms").observe(0.25 * i as f64);
                rec.tick(i as f64 * 10.0, &reg.snapshot());
            }
            rec.to_json()
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "flight timelines must replay byte-identically");
        assert!(a.contains("coda-flight-v1"));
    }
}
