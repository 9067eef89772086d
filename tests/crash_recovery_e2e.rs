//! Kill-restart acceptance test: the crash-stop failure subsystem must
//! converge from *every* WAL crash point. Under a fixed seed, the driver
//! is run crash-free to establish a baseline digest and the home's total
//! WAL operation count; then the home is killed after each of those
//! operations in turn, restarted, and the run must (a) replay the WAL to
//! a byte-identical pre-crash state, (b) fail the home role over through
//! the lease gate only, (c) reap orphaned DARR claims, and (d) end with
//! the exact same store/DARR digest and cooperative-worklist outcome as
//! the no-crash run. Same-seed instrumented replays must render
//! byte-identical trace logs and metric expositions.

use coda::chaos::CrashPlan;
use coda::cluster::{run_crash_recovery, CrashRecoveryConfig};
use coda::obs::Obs;
use coda::store::content_hash;

fn acceptance_config(seed: u64) -> CrashRecoveryConfig {
    CrashRecoveryConfig { seed, ..CrashRecoveryConfig::default() }
}

/// Reads the CI seed matrix (`CRASH_SEED` env var) or falls back to the
/// default acceptance seed, so one test body serves every matrix entry.
fn matrix_seed() -> u64 {
    std::env::var("CRASH_SEED").ok().and_then(|s| s.parse().ok()).unwrap_or(7)
}

#[test]
fn every_wal_crash_point_converges_to_the_no_crash_outcome() {
    let seed = matrix_seed();
    let baseline = run_crash_recovery(&acceptance_config(seed), 1, None);
    assert_eq!(baseline.completed, 8, "the baseline itself must converge");
    assert_eq!(baseline.failovers, 0);
    assert!(baseline.home_ops > 0, "the baseline must log operations");

    // kill the home after every single WAL record it will ever append
    for at_op in 1..=baseline.home_ops {
        let cfg = CrashRecoveryConfig {
            plan: CrashPlan::new().with_crash_at("node-0", at_op, Some(500.0)),
            ..acceptance_config(seed)
        };
        let report = run_crash_recovery(&cfg, 1, None);
        assert_eq!(report.crashes, 1, "crash point {at_op} must fire");
        assert_eq!(report.restarts, 1, "crash point {at_op} must restart");
        assert_eq!(
            report.byte_identical_recoveries, 1,
            "crash point {at_op}: WAL replay must reproduce the pre-crash state byte for byte"
        );
        assert_eq!(report.recovery_mismatches, 0, "crash point {at_op}");
        assert_eq!(
            report.digest, baseline.digest,
            "crash point {at_op}: final store/DARR state must match the no-crash run"
        );
        assert_eq!(report.completed, baseline.completed, "crash point {at_op}");
    }
}

#[test]
fn home_crash_without_restart_still_converges_through_failover() {
    let seed = matrix_seed();
    let baseline = run_crash_recovery(&acceptance_config(seed), 1, None);
    let cfg = CrashRecoveryConfig {
        plan: CrashPlan::new().with_crash_at("node-0", 9, None),
        ..acceptance_config(seed)
    };
    let report = run_crash_recovery(&cfg, 1, None);
    assert_eq!(report.failovers, 1, "the surviving replica must be promoted");
    assert_eq!(report.final_home, "node-1");
    assert!(report.suspicions >= 1, "the detector must pass through suspicion");
    assert!(report.deaths >= 1, "…before the dead verdict");
    assert!(report.reaped_claims >= 1, "the orphaned claim must be reaped");
    assert!(report.takeovers >= 1, "…and its work item taken over");
    assert_eq!(report.digest, baseline.digest, "one node is enough to finish");
}

#[test]
fn same_seed_replays_traces_and_metrics_byte_identically() {
    let cfg = CrashRecoveryConfig {
        plan: CrashPlan::new().with_crash_at("node-0", 10, Some(500.0)),
        ..acceptance_config(matrix_seed())
    };
    let obs_a = Obs::deterministic();
    let report_a = run_crash_recovery(&cfg, 1, Some(&obs_a));
    let obs_b = Obs::deterministic();
    let report_b = run_crash_recovery(&cfg, 1, Some(&obs_b));

    assert_eq!(report_a, report_b, "reports must replay bit-identically");
    let log_a = obs_a.tracer().render_log();
    assert!(!log_a.is_empty(), "the run must emit trace events");
    assert_eq!(log_a, obs_b.tracer().render_log(), "trace logs must be byte-identical");
    assert_eq!(
        obs_a.registry().render_prometheus(),
        obs_b.registry().render_prometheus(),
        "metric expositions must be byte-identical"
    );

    // pinned per CI seed before implicit parenting moved to a thread-local
    // stack: a change to how the WAL replay finds its parent span that
    // adds, drops or re-parents any event fails here
    let golden = match matrix_seed() {
        7 => Some(0x0b0f_73e5_6769_48ae),
        17 => Some(0xf8be_c5f0_ed18_2ab9),
        23 => Some(0xd284_15dc_2f83_9602),
        _ => None,
    };
    if let Some(digest) = golden {
        assert_eq!(content_hash(log_a.as_bytes()), digest, "the trace log changed");
    }

    // instrumentation must not perturb the uninstrumented ground truth
    assert_eq!(report_a, run_crash_recovery(&cfg, 1, None));

    // the trace carries every failure-path transition…
    for marker in [
        "event recovery.crash ",
        "event recovery.promote ",
        "event recovery.reap ",
        "span_start store.wal_replay ",
        "event recovery.rejoin ",
    ] {
        assert!(log_a.contains(marker), "trace must contain {marker:?}");
    }
    // …and the registry the issue-mandated counters
    let prom = obs_a.registry().render_prometheus();
    assert!(prom.contains("coda_cluster_failovers_total 1"));
    assert!(prom.contains("coda_darr_claims_reaped_total"));
    assert!(prom.contains("coda_store_wal_replays 1"));
}

#[test]
fn no_spurious_failovers_across_the_chaos_seed_matrix() {
    // the detector + lease gate must never move the home role in a
    // crash-free run, whatever the seed — same seed set as chaos_e2e
    for seed in [1u64, 7, 17, 18, 23, 64, 101] {
        let report = run_crash_recovery(&acceptance_config(seed), 1, None);
        assert_eq!(report.failovers, 0, "seed {seed}: zero spurious failovers");
        assert_eq!(report.deaths, 0, "seed {seed}: no dead verdicts without a crash");
        assert_eq!(report.reaped_claims, 0, "seed {seed}: nothing to reap");
        assert_eq!(report.completed, 8, "seed {seed}: the worklist completes");
        assert_eq!(report.final_home, "node-0", "seed {seed}: the home never moves");
    }
}
