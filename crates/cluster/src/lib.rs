//! The simulated distributed analytics system of the paper's Fig. 1:
//! geographically distributed client nodes, elastic cloud analytics servers,
//! external AI web services, a simulated network with latency/bandwidth and
//! connectivity, a work-placement scheduler, and cooperative multi-client
//! evaluation runs over a shared DARR.
//!
//! Two seeded drivers exercise resilience: the chaos driver
//! ([`run_chaos_coop`]) injects a [`coda_chaos::FaultPlan`]'s message drops,
//! link flaps and crash windows into its clients' DARR exchanges and retries
//! them with backoff, and the kill-restart driver ([`run_crash_recovery`])
//! fires a [`coda_chaos::CrashPlan`]'s crash points. The network model and
//! the scheduler inject nothing: a link is down only when
//! [`SimNetwork::disconnect`] says so, and a cloud placement whose link is
//! down at execution runs locally.
//!
//! The network and compute models are deterministic and analytic (times are
//! `f64` milliseconds), so the placement trade-offs of §III — "performing
//! analytics computations on a node without a high degree of processing
//! power as communication … would incur latency and may not be possible if
//! connectivity is poor" — are *measured*, not asserted. The cooperative
//! runs use real threads and real pipeline evaluations.
//!
//! # Examples
//!
//! ```
//! use coda_cluster::{ComputeNode, SimNetwork, AnalyticsTask, Scheduler, Placement};
//!
//! let client = ComputeNode::client("edge", 1.0);
//! let cloud = ComputeNode::cloud("dc", 8.0, 4);
//! let mut net = SimNetwork::new(20.0, 1_000.0); // 20ms latency, 1MB/ms
//! let task = AnalyticsTask { n_subtasks: 16, work_per_subtask: 50.0, input_bytes: 100_000 };
//! let decision = Scheduler::place(&task, &client, &cloud, &net);
//! assert_eq!(decision.placement, Placement::Cloud); // parallel VMs win
//! net.disconnect("edge", "dc");
//! let offline = Scheduler::place(&task, &client, &cloud, &net);
//! assert_eq!(offline.placement, Placement::Local);  // no connectivity
//! ```

pub mod chaos;
pub mod coop;
pub mod failure;
pub mod lifecycle;
pub mod network;
pub mod node;
pub mod placement;
pub mod recovery;
pub mod registry;
pub mod webservice;

pub use chaos::{run_chaos_coop, ChaosCoopConfig, ChaosCoopReport};
pub use coop::{run_cooperative, CoopRunReport};
pub use failure::{DetectorConfig, FailureDetector, Liveness};
pub use lifecycle::{BatchRecord, ModelLifecycle, RetrainPolicy};
pub use network::SimNetwork;
pub use node::{AnalyticsTask, ComputeNode};
pub use placement::{Placement, PlacementDecision, Scheduler};
pub use recovery::{run_crash_recovery, CrashRecoveryConfig, CrashRecoveryReport};
pub use registry::{run_job, ComponentRegistry, JobError, JobSpec, SpecValue};
pub use webservice::SimWebService;
