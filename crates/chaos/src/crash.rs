//! Deterministic crash-stop schedules keyed by *logical operation count*.
//!
//! Time-window crashes ([`crate::NodeCrash`]) model outages that start and
//! end at wall positions on the logical clock; a [`CrashPlan`] instead
//! pins the kill to a precise point in a node's *work*: "crash after the
//! node's Nth durable operation". That is the right key for crash-recovery
//! testing — a write-ahead log defines one crash point per appended
//! record, and a recovery subsystem is only correct if the system
//! converges no matter *which* record was the last to hit the log. A
//! [`CrashPlan`] also carries the scheduled restart delay, so a driver can
//! bring the node back and exercise replay, rejoin and catch-up
//! deterministically.

/// One scheduled crash: `node` halts the moment its logical operation
/// counter reaches `at_op` (1-based: `at_op = 1` crashes after the first
/// operation), and restarts `restart_after_ms` later on the driver clock.
/// `restart_after_ms = None` means the node stays down forever.
#[derive(Debug, Clone, PartialEq)]
pub struct CrashPoint {
    /// The node to kill.
    pub node: String,
    /// Logical operation count at which the crash fires (1-based).
    pub at_op: u64,
    /// Delay from the crash instant to the scheduled restart, in logical
    /// milliseconds; `None` = never restarts.
    pub restart_after_ms: Option<f64>,
}

/// A deterministic crash-stop schedule: at most one pending crash per node
/// at a time, keyed by that node's logical operation count. Same plan +
/// same operation sequence = same crashes, bit for bit.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CrashPlan {
    points: Vec<CrashPoint>,
}

impl CrashPlan {
    /// An empty plan: nothing ever crashes.
    pub fn new() -> Self {
        CrashPlan::default()
    }

    /// Schedules `node` to crash at its `at_op`-th logical operation and
    /// restart `restart_after_ms` later (`None` = stays down).
    ///
    /// # Panics
    ///
    /// Panics when `at_op` is zero (operation counts are 1-based) or the
    /// restart delay is negative.
    pub fn with_crash_at(mut self, node: &str, at_op: u64, restart_after_ms: Option<f64>) -> Self {
        assert!(at_op >= 1, "operation counts are 1-based");
        if let Some(delay) = restart_after_ms {
            assert!(delay >= 0.0, "restart delay must be non-negative");
        }
        self.points.push(CrashPoint { node: node.to_string(), at_op, restart_after_ms });
        self
    }

    /// The scheduled crash points.
    pub fn points(&self) -> &[CrashPoint] {
        &self.points
    }

    /// True when the plan schedules nothing.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The first not-yet-fired crash point for `node` whose `at_op` is
    /// reached by `ops` (the node's current logical operation count).
    /// Callers track fired points themselves via [`CrashSchedule`].
    pub fn due(&self, node: &str, ops: u64) -> Option<&CrashPoint> {
        self.points.iter().find(|p| p.node == node && ops >= p.at_op)
    }
}

/// Executes a [`CrashPlan`] for a driver loop: tracks which points have
/// fired, when each crashed node is due back, and counts crash/restart
/// events so a report can assert the schedule actually ran.
#[derive(Debug, Clone)]
pub struct CrashSchedule {
    plan: CrashPlan,
    fired: Vec<bool>,
    /// node → scheduled restart time on the driver clock (`None` = never).
    down: Vec<(String, Option<f64>)>,
    crashes: u64,
    restarts: u64,
}

impl CrashSchedule {
    /// Starts executing `plan` with no node down.
    pub fn new(plan: CrashPlan) -> Self {
        let fired = vec![false; plan.points.len()];
        CrashSchedule { plan, fired, down: Vec::new(), crashes: 0, restarts: 0 }
    }

    /// The plan being executed.
    pub fn plan(&self) -> &CrashPlan {
        &self.plan
    }

    /// Consults the schedule after `node` completed its `ops`-th logical
    /// operation at driver time `now_ms`. Returns true exactly once per
    /// crash point — the instant the node must halt. A node already down
    /// never double-crashes.
    pub fn should_crash(&mut self, node: &str, ops: u64, now_ms: f64) -> bool {
        if self.is_down(node) {
            return false;
        }
        for (i, p) in self.plan.points.iter().enumerate() {
            if !self.fired[i] && p.node == node && ops >= p.at_op {
                self.fired[i] = true;
                self.crashes += 1;
                self.down.push((node.to_string(), p.restart_after_ms.map(|d| now_ms + d)));
                return true;
            }
        }
        false
    }

    /// True while `node` is crashed.
    pub fn is_down(&self, node: &str) -> bool {
        self.down.iter().any(|(n, _)| n == node)
    }

    /// Restarts every node whose scheduled restart time has arrived,
    /// returning their names (deterministic order: crash order). Counts
    /// each as a restart event.
    pub fn due_restarts(&mut self, now_ms: f64) -> Vec<String> {
        let mut restarted = Vec::new();
        self.down.retain(|(node, at)| match at {
            Some(t) if now_ms >= *t => {
                restarted.push(node.clone());
                false
            }
            _ => true,
        });
        self.restarts += restarted.len() as u64;
        restarted
    }

    /// Downed nodes with a restart still scheduled (a driver loop must
    /// keep running at least until this reaches zero).
    pub fn pending_restarts(&self) -> usize {
        self.down.iter().filter(|(_, at)| at.is_some()).count()
    }

    /// Crash events fired so far.
    pub fn crashes(&self) -> u64 {
        self.crashes
    }

    /// Restart events fired so far.
    pub fn restarts(&self) -> u64 {
        self.restarts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_never_crashes() {
        let mut sched = CrashSchedule::new(CrashPlan::new());
        for op in 1..100 {
            assert!(!sched.should_crash("n", op, op as f64));
        }
        assert_eq!(sched.crashes(), 0);
        assert!(sched.plan().is_empty());
    }

    #[test]
    fn crash_fires_exactly_once_at_the_op_count() {
        let plan = CrashPlan::new().with_crash_at("n", 3, Some(100.0));
        let mut sched = CrashSchedule::new(plan);
        assert!(!sched.should_crash("n", 1, 0.0));
        assert!(!sched.should_crash("n", 2, 10.0));
        assert!(sched.should_crash("n", 3, 20.0), "fires at op 3");
        assert!(sched.is_down("n"));
        assert!(!sched.should_crash("n", 4, 30.0), "a down node cannot re-crash");
        assert_eq!(sched.crashes(), 1);
    }

    #[test]
    fn restart_fires_at_the_scheduled_time() {
        let plan = CrashPlan::new().with_crash_at("n", 1, Some(50.0));
        let mut sched = CrashSchedule::new(plan);
        assert!(sched.should_crash("n", 1, 10.0));
        assert_eq!(sched.pending_restarts(), 1);
        assert!(sched.due_restarts(59.0).is_empty(), "restart is at 10+50=60");
        let back = sched.due_restarts(60.0);
        assert_eq!(back, vec!["n".to_string()]);
        assert!(!sched.is_down("n"));
        assert_eq!(sched.restarts(), 1);
        // the point already fired: the node does not crash again
        assert!(!sched.should_crash("n", 5, 70.0));
    }

    #[test]
    fn no_restart_means_down_forever() {
        let plan = CrashPlan::new().with_crash_at("n", 2, None);
        let mut sched = CrashSchedule::new(plan);
        assert!(sched.should_crash("n", 2, 0.0));
        assert!(sched.due_restarts(1e12).is_empty());
        assert!(sched.is_down("n"));
        assert_eq!(sched.pending_restarts(), 0, "a forever-down node pends nothing");
    }

    #[test]
    fn plans_are_per_node() {
        let plan =
            CrashPlan::new().with_crash_at("a", 1, Some(10.0)).with_crash_at("b", 2, Some(10.0));
        let mut sched = CrashSchedule::new(plan);
        assert!(!sched.should_crash("b", 1, 0.0));
        assert!(sched.should_crash("a", 1, 0.0));
        assert!(sched.should_crash("b", 2, 0.0));
        assert_eq!(sched.crashes(), 2);
        assert_eq!(sched.due_restarts(10.0).len(), 2);
    }

    #[test]
    fn due_inspects_without_firing() {
        let plan = CrashPlan::new().with_crash_at("n", 4, None);
        assert!(plan.due("n", 3).is_none());
        let p = plan.due("n", 4).expect("due at op 4");
        assert_eq!(p.at_op, 4);
        assert!(plan.due("other", 100).is_none());
    }
}
