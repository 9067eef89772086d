//! Seeded fault plans and the injector that executes them: probabilistic
//! message drops, scheduled link flaps and node crash/restart windows —
//! all deterministic functions of the plan's seed and the injector's
//! logical clock.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A scheduled link outage: the link between `a` and `b` is down for
/// logical times in `[down_at, up_at)`.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkFlap {
    /// One endpoint.
    pub a: String,
    /// Other endpoint.
    pub b: String,
    /// Outage start (inclusive), logical ms.
    pub down_at: f64,
    /// Outage end (exclusive), logical ms.
    pub up_at: f64,
}

/// A scheduled node outage: `node` is crashed for logical times in
/// `[down_at, up_at)`; messages to or from it fail.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeCrash {
    /// The crashed node's name.
    pub node: String,
    /// Crash time (inclusive), logical ms.
    pub down_at: f64,
    /// Restart time (exclusive), logical ms.
    pub up_at: f64,
}

/// The declarative fault schedule for one chaos run. The drop probability
/// is per message; all times are logical milliseconds.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// RNG seed; same seed + same call sequence = identical faults.
    pub seed: u64,
    /// Probability a message is dropped in flight.
    pub drop_probability: f64,
    /// Scheduled link outages.
    pub link_flaps: Vec<LinkFlap>,
    /// Scheduled node crash/restart windows.
    pub crashes: Vec<NodeCrash>,
}

impl FaultPlan {
    /// A no-fault plan with the given seed.
    pub fn new(seed: u64) -> Self {
        FaultPlan { seed, drop_probability: 0.0, link_flaps: Vec::new(), crashes: Vec::new() }
    }

    /// Sets the per-message drop probability.
    ///
    /// # Panics
    ///
    /// Panics when `p` is outside `[0, 1]`.
    pub fn with_drop_probability(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "probability out of range");
        self.drop_probability = p;
        self
    }

    /// Schedules a link outage between `a` and `b` for `[down_at, up_at)`.
    pub fn with_link_flap(mut self, a: &str, b: &str, down_at: f64, up_at: f64) -> Self {
        self.link_flaps.push(LinkFlap { a: a.to_string(), b: b.to_string(), down_at, up_at });
        self
    }

    /// Schedules a crash/restart window for `node`.
    pub fn with_crash(mut self, node: &str, down_at: f64, up_at: f64) -> Self {
        self.crashes.push(NodeCrash { node: node.to_string(), down_at, up_at });
        self
    }
}

/// Counters kept by the injector — the ground truth a chaos report prints.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Messages the injector was consulted about.
    pub messages_seen: u64,
    /// Messages dropped by the random-drop fault.
    pub dropped: u64,
    /// Messages refused because a scheduled link flap was active.
    pub link_down: u64,
    /// Messages refused because an endpoint was inside a crash window.
    pub node_down: u64,
    /// Scheduled node-crash windows entered (clock crossed `down_at`).
    pub crashes: u64,
    /// Scheduled node restarts (clock crossed `up_at`).
    pub restarts: u64,
}

impl FaultStats {
    /// Faults actually injected (dropped or refused).
    pub fn injected(&self) -> u64 {
        self.dropped + self.link_down + self.node_down
    }
}

impl coda_obs::Publish for FaultStats {
    fn publish(&self, registry: &coda_obs::MetricsRegistry) {
        registry.count("coda_chaos_faults_messages_seen", self.messages_seen);
        registry.count("coda_chaos_faults_dropped", self.dropped);
        registry.count("coda_chaos_faults_link_down", self.link_down);
        registry.count("coda_chaos_faults_node_down", self.node_down);
        registry.count("coda_chaos_faults_crashes", self.crashes);
        registry.count("coda_chaos_faults_restarts", self.restarts);
        registry.count("coda_chaos_faults_injected", self.injected());
    }
}

/// Executes a [`FaultPlan`]: a driver consults it per message.
/// Deterministic: faults depend only on the plan (seed + schedule), the
/// injector's logical clock, and the call sequence.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    plan: FaultPlan,
    rng: StdRng,
    now_ms: f64,
    stats: FaultStats,
    /// Per-crash-window (crash counted, restart counted) flags, parallel
    /// to `plan.crashes` — each scheduled window produces exactly one
    /// crash event and at most one restart event as the clock crosses it.
    crash_edges: Vec<(bool, bool)>,
}

impl FaultInjector {
    /// Creates an injector at logical time zero.
    pub fn new(plan: FaultPlan) -> Self {
        let rng = StdRng::seed_from_u64(plan.seed);
        let crash_edges = vec![(false, false); plan.crashes.len()];
        let mut injector =
            FaultInjector { plan, rng, now_ms: 0.0, stats: FaultStats::default(), crash_edges };
        injector.count_crash_edges();
        injector
    }

    /// Counts crash/restart events for every scheduled window the clock
    /// has reached — a pure function of the clock, so same-seed replays
    /// see identical event counts.
    fn count_crash_edges(&mut self) {
        for (i, c) in self.plan.crashes.iter().enumerate() {
            let (crashed, restarted) = &mut self.crash_edges[i];
            if !*crashed && self.now_ms >= c.down_at {
                *crashed = true;
                self.stats.crashes += 1;
            }
            if !*restarted && self.now_ms >= c.up_at {
                *restarted = true;
                self.stats.restarts += 1;
            }
        }
    }

    /// Current logical time.
    pub fn now_ms(&self) -> f64 {
        self.now_ms
    }

    /// Advances the logical clock (never backwards), counting any scheduled
    /// crash/restart events the move crosses.
    pub fn advance_to(&mut self, now_ms: f64) {
        if now_ms > self.now_ms {
            self.now_ms = now_ms;
            self.count_crash_edges();
        }
    }

    /// True when `node` is outside every scheduled crash window right now.
    pub fn node_up(&self, node: &str) -> bool {
        !self
            .plan
            .crashes
            .iter()
            .any(|c| c.node == node && self.now_ms >= c.down_at && self.now_ms < c.up_at)
    }

    /// True when no scheduled flap holds the `a`–`b` link down right now
    /// (symmetric) and both endpoints are up.
    pub fn link_up(&self, a: &str, b: &str) -> bool {
        if !self.node_up(a) || !self.node_up(b) {
            return false;
        }
        !self.plan.link_flaps.iter().any(|f| {
            ((f.a == a && f.b == b) || (f.a == b && f.b == a))
                && self.now_ms >= f.down_at
                && self.now_ms < f.up_at
        })
    }

    /// Consults the injector about one message from `a` to `b`: returns
    /// true when the message must be dropped (scheduled outage or random
    /// drop). Advances the RNG only for the random-drop draw.
    pub fn should_drop(&mut self, a: &str, b: &str) -> bool {
        self.stats.messages_seen += 1;
        if !self.node_up(a) || !self.node_up(b) {
            self.stats.node_down += 1;
            return true;
        }
        if !self.link_up(a, b) {
            self.stats.link_down += 1;
            return true;
        }
        if self.plan.drop_probability > 0.0 && self.rng.gen_bool(self.plan.drop_probability) {
            self.stats.dropped += 1;
            return true;
        }
        false
    }

    /// The counters so far.
    pub fn stats(&self) -> FaultStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_fault_plan_is_transparent() {
        let mut inj = FaultInjector::new(FaultPlan::new(1));
        for _ in 0..100 {
            assert!(!inj.should_drop("a", "b"));
        }
        assert_eq!(inj.stats().messages_seen, 100);
        assert_eq!(inj.stats().dropped, 0);
    }

    #[test]
    fn drops_match_probability_and_replay() {
        let run = || {
            let mut inj = FaultInjector::new(FaultPlan::new(42).with_drop_probability(0.2));
            (0..1000).filter(|_| inj.should_drop("a", "b")).count()
        };
        let drops = run();
        assert_eq!(drops, run(), "same seed must replay identically");
        assert!((100..300).contains(&drops), "~20% of 1000, got {drops}");
    }

    #[test]
    fn scheduled_link_flap_follows_clock() {
        let plan = FaultPlan::new(3).with_link_flap("x", "y", 100.0, 200.0);
        let mut inj = FaultInjector::new(plan);
        assert!(inj.link_up("x", "y"));
        assert!(!inj.should_drop("x", "y"));
        inj.advance_to(150.0);
        assert!(!inj.link_up("x", "y"));
        assert!(!inj.link_up("y", "x"), "flaps are symmetric");
        assert!(inj.should_drop("x", "y"));
        assert!(inj.link_up("x", "z"), "other links unaffected");
        inj.advance_to(200.0);
        assert!(inj.link_up("x", "y"));
        assert_eq!(inj.stats().link_down, 1);
    }

    #[test]
    fn crash_window_fails_all_node_traffic() {
        let plan = FaultPlan::new(4).with_crash("n1", 50.0, 80.0);
        let mut inj = FaultInjector::new(plan);
        inj.advance_to(60.0);
        assert!(!inj.node_up("n1"));
        assert!(inj.should_drop("n1", "other"));
        assert!(inj.should_drop("other", "n1"), "both directions fail");
        inj.advance_to(80.0);
        assert!(inj.node_up("n1"));
        assert!(!inj.should_drop("n1", "other"));
        assert_eq!(inj.stats().node_down, 2);
    }

    #[test]
    fn crash_and_restart_events_are_counted_once() {
        let plan = FaultPlan::new(9).with_crash("n1", 50.0, 80.0).with_crash("n2", 200.0, 300.0);
        let mut inj = FaultInjector::new(plan);
        assert_eq!((inj.stats().crashes, inj.stats().restarts), (0, 0));
        inj.advance_to(60.0); // inside n1's window
        assert_eq!((inj.stats().crashes, inj.stats().restarts), (1, 0));
        inj.advance_to(65.0); // still inside: no double count
        assert_eq!(inj.stats().crashes, 1);
        inj.advance_to(100.0); // past n1's restart
        assert_eq!((inj.stats().crashes, inj.stats().restarts), (1, 1));
        inj.advance_to(1000.0); // jump over n2's entire window: both edges count
        assert_eq!((inj.stats().crashes, inj.stats().restarts), (2, 2));
    }

    #[test]
    fn crash_window_already_open_at_time_zero_counts() {
        let inj = FaultInjector::new(FaultPlan::new(9).with_crash("n", 0.0, 10.0));
        assert_eq!(inj.stats().crashes, 1);
        assert_eq!(inj.stats().restarts, 0);
    }

    #[test]
    fn clock_never_goes_backwards() {
        let mut inj = FaultInjector::new(FaultPlan::new(5));
        inj.advance_to(100.0);
        inj.advance_to(50.0);
        assert_eq!(inj.now_ms(), 100.0);
    }
}
