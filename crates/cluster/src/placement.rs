//! Work placement (paper §III): run analytics locally on the client, or
//! ship the data to the cloud analytics servers? Local execution avoids
//! network latency and works offline; cloud execution parallelizes the grid
//! across VMs.

use crate::network::SimNetwork;
use crate::node::{AnalyticsTask, ComputeNode};

/// Where the scheduler placed the work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// Execute on the client.
    Local,
    /// Ship input to the cloud, execute there, return results.
    Cloud,
}

/// The decision plus the predicted completion time of both options.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlacementDecision {
    /// The chosen placement.
    pub placement: Placement,
    /// Predicted local completion time (ms).
    pub local_ms: f64,
    /// Predicted cloud completion time (ms), `None` when disconnected.
    pub cloud_ms: Option<f64>,
}

/// The placement scheduler.
#[derive(Debug, Clone, Copy, Default)]
pub struct Scheduler;

/// Result bytes returned per subtask (model scores and metadata).
const RESULT_BYTES_PER_SUBTASK: u64 = 256;

impl Scheduler {
    /// Predicts both completion times and picks the faster option; falls
    /// back to local when the cloud is unreachable.
    pub fn place(
        task: &AnalyticsTask,
        client: &ComputeNode,
        cloud: &ComputeNode,
        net: &SimNetwork,
    ) -> PlacementDecision {
        let local_ms = client.execution_time(task);
        if !net.is_connected(client.name(), cloud.name()) {
            return PlacementDecision { placement: Placement::Local, local_ms, cloud_ms: None };
        }
        // predict on a copy, so the accounting moves only on execution
        let cloud_ms = Self::cloud_round_trip(task, client, cloud, &mut net.clone());
        let placement = match cloud_ms {
            Some(c) if c < local_ms => Placement::Cloud,
            _ => Placement::Local,
        };
        PlacementDecision { placement, local_ms, cloud_ms }
    }

    /// One attempted cloud round trip: upload, remote execution, download.
    /// `None` when either network leg fails (the link is down).
    fn cloud_round_trip(
        task: &AnalyticsTask,
        client: &ComputeNode,
        cloud: &ComputeNode,
        net: &mut SimNetwork,
    ) -> Option<f64> {
        let up = net.transfer(client.name(), cloud.name(), task.input_bytes)?;
        let down = net.transfer(
            cloud.name(),
            client.name(),
            task.n_subtasks as u64 * RESULT_BYTES_PER_SUBTASK,
        )?;
        Some(up + cloud.execution_time(task) + down)
    }

    /// Executes the decision against the real (accounted) network, returning
    /// the realized completion time. A cloud decision whose transfer fails
    /// mid-execution (the link dropped after placement) degrades gracefully
    /// to local execution instead of failing; it is not retried.
    pub fn execute(
        decision: &PlacementDecision,
        task: &AnalyticsTask,
        client: &ComputeNode,
        cloud: &ComputeNode,
        net: &mut SimNetwork,
    ) -> f64 {
        match decision.placement {
            Placement::Local => client.execution_time(task),
            Placement::Cloud => Self::cloud_round_trip(task, client, cloud, net)
                .unwrap_or_else(|| client.execution_time(task)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (ComputeNode, ComputeNode, AnalyticsTask) {
        (
            ComputeNode::client("edge", 1.0),
            ComputeNode::cloud("dc", 4.0, 8),
            AnalyticsTask { n_subtasks: 32, work_per_subtask: 100.0, input_bytes: 100_000 },
        )
    }

    #[test]
    fn fast_network_prefers_cloud() {
        let (client, cloud, task) = setup();
        let net = SimNetwork::new(5.0, 10_000.0);
        let d = Scheduler::place(&task, &client, &cloud, &net);
        assert_eq!(d.placement, Placement::Cloud);
        assert!(d.cloud_ms.unwrap() < d.local_ms);
    }

    #[test]
    fn huge_latency_prefers_local() {
        let (client, cloud, task) = setup();
        let net = SimNetwork::new(10_000.0, 10_000.0);
        let d = Scheduler::place(&task, &client, &cloud, &net);
        assert_eq!(d.placement, Placement::Local);
    }

    #[test]
    fn disconnected_forces_local() {
        let (client, cloud, task) = setup();
        let mut net = SimNetwork::new(1.0, 10_000.0);
        net.disconnect("edge", "dc");
        let d = Scheduler::place(&task, &client, &cloud, &net);
        assert_eq!(d.placement, Placement::Local);
        assert!(d.cloud_ms.is_none());
    }

    #[test]
    fn more_vms_shift_crossover() {
        let (client, _, task) = setup();
        // a slow link where a 2-VM cloud loses but a 32-VM cloud wins
        let net = SimNetwork::new(100.0, 50.0);
        let small = ComputeNode::cloud("dc", 4.0, 2);
        let big = ComputeNode::cloud("dc", 4.0, 32);
        let d_small = Scheduler::place(&task, &client, &small, &net);
        let d_big = Scheduler::place(&task, &client, &big, &net);
        assert!(d_big.cloud_ms.unwrap() < d_small.cloud_ms.unwrap());
        assert_eq!(d_big.placement, Placement::Cloud);
    }

    #[test]
    fn cloud_execute_degrades_to_local_when_link_dies() {
        let (client, cloud, task) = setup();
        let mut net = SimNetwork::new(5.0, 10_000.0);
        let d = Scheduler::place(&task, &client, &cloud, &net);
        assert_eq!(d.placement, Placement::Cloud);
        // the link dies between placement and execution
        net.disconnect("edge", "dc");
        let realized = Scheduler::execute(&d, &task, &client, &cloud, &mut net);
        assert!((realized - d.local_ms).abs() < 1e-9, "fell back to local time");
    }

    #[test]
    fn execute_matches_prediction_and_accounts() {
        let (client, cloud, task) = setup();
        let mut net = SimNetwork::new(5.0, 10_000.0);
        let d = Scheduler::place(&task, &client, &cloud, &net);
        let realized = Scheduler::execute(&d, &task, &client, &cloud, &mut net);
        assert!((realized - d.cloud_ms.unwrap()).abs() < 1e-9);
        assert_eq!(net.messages, 2);
        assert!(net.bytes >= task.input_bytes);
        // local execution moves no bytes
        let mut net2 = SimNetwork::new(10_000.0, 1.0);
        let d2 = Scheduler::place(&task, &client, &cloud, &net2);
        let t2 = Scheduler::execute(&d2, &task, &client, &cloud, &mut net2);
        assert_eq!(net2.messages, 0);
        assert!((t2 - d2.local_ms).abs() < 1e-9);
    }
}
