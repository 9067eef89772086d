//! End-to-end chaos acceptance test: a seeded multi-client cooperative run
//! under simultaneous message drops, a node crash/restart, and a temporary
//! DARR partition must complete every pipeline evaluation with zero lost
//! results, account for every duplicate computation, export retry
//! statistics, and replay bit-identically from the same seed.

use coda::chaos::{FaultPlan, RetryPolicy};
use coda::cluster::{run_chaos_coop, ChaosCoopConfig};
use coda::obs::Obs;
use coda::store::content_hash;

/// The scenario from the issue: 20% drops, one client crashing and
/// restarting mid-run, and a DARR partition that heals.
fn acceptance_config(seed: u64) -> ChaosCoopConfig {
    ChaosCoopConfig {
        seed,
        n_clients: 4,
        n_keys: 16,
        drop_probability: 0.2,
        darr_partition: Some((300.0, 700.0)),
        crash: Some((2, 150.0, 650.0)),
        claim_duration: 200,
        max_rounds: 10_000,
    }
}

#[test]
fn chaotic_cooperative_run_loses_nothing() {
    let report = run_chaos_coop(&acceptance_config(17), 1, None);

    // every pipeline evaluation completes despite the chaos
    assert_eq!(report.completed, report.n_keys, "zero lost results");
    assert!(report.rounds < 10_000, "the run must converge, not hit the cap");

    // the chaos actually happened — this is not a vacuous pass
    assert!(report.faults.dropped > 0, "drops must occur");
    assert!(report.faults.link_down > 0, "the partition must block messages");
    assert!(report.journaled > 0, "the partition must force offline compute");
    assert!(report.retry.retries > 0, "drops must force retries");
    assert!(report.retry.total_backoff_ms > 0.0, "retries must back off");

    // no silent duplicate compute: every computation is either the stored
    // result, a replayed journal entry, or an explicitly counted duplicate
    let total_compute = report.computed + report.journaled;
    assert!(total_compute >= report.n_keys);
    assert_eq!(report.journaled, report.replayed + report.duplicates);
    assert_eq!(
        total_compute,
        report.computed + report.replayed + report.duplicates,
        "every computation must be accounted for"
    );
}

#[test]
fn same_seed_produces_identical_run_report() {
    let a = run_chaos_coop(&acceptance_config(17), 1, None);
    let b = run_chaos_coop(&acceptance_config(17), 1, None);
    assert_eq!(a, b, "same seed must reproduce every counter bit-identically");

    let c = run_chaos_coop(&acceptance_config(18), 1, None);
    assert_ne!(a.faults, c.faults, "a different seed must draw different faults");
    assert_eq!(c.completed, c.n_keys, "...but still lose nothing");
}

#[test]
fn same_seed_produces_byte_identical_trace_and_metrics() {
    // observability must not disturb determinism: every trace event is
    // stamped from the driver's logical clock, so two same-seed runs with
    // fresh deterministic Obs handles render byte-identical logs
    let obs_a = Obs::deterministic();
    let report_a = run_chaos_coop(&acceptance_config(17), 1, Some(&obs_a));
    let obs_b = Obs::deterministic();
    let report_b = run_chaos_coop(&acceptance_config(17), 1, Some(&obs_b));

    assert_eq!(report_a, report_b, "reports must replay bit-identically");
    let log_a = obs_a.tracer().render_log();
    assert!(!log_a.is_empty(), "the run must emit trace events");
    assert_eq!(log_a, obs_b.tracer().render_log(), "trace logs must be byte-identical");
    assert_eq!(
        obs_a.registry().render_prometheus(),
        obs_b.registry().render_prometheus(),
        "metric expositions must be byte-identical"
    );

    // pinned before implicit parenting moved to a thread-local stack: a
    // change to how the driver's DARR calls find their parent span that
    // adds, drops or re-parents any event fails here
    assert_eq!(
        content_hash(log_a.as_bytes()),
        0x7744_63c8_85eb_17e9,
        "the seed-17 trace log changed"
    );

    // an instrumented run must not perturb the uninstrumented ground truth
    assert_eq!(report_a, run_chaos_coop(&acceptance_config(17), 1, None));

    // the log carries the protocol events the driver counted
    assert!(log_a.contains("event chaos.claim "));
    assert!(log_a.contains("event chaos.journal "));
    let claims = log_a.matches("event chaos.claim ").count();
    assert!(claims >= report_a.computed, "every online completion was claimed first");
}

#[test]
fn chaos_survives_across_seeds() {
    // robustness is not a property of one lucky seed
    for seed in [1u64, 7, 23, 64, 101] {
        let report = run_chaos_coop(&acceptance_config(seed), 1, None);
        assert_eq!(report.completed, report.n_keys, "seed {seed}: all evaluations must complete");
        assert_eq!(report.journaled, report.replayed + report.duplicates, "seed {seed}");
    }
}

#[test]
fn retry_policy_composes_with_fault_plan_end_to_end() {
    // the building blocks compose outside the driver too: a jittered
    // exponential policy rides out a scheduled outage window
    use coda::chaos::FaultInjector;
    let mut injector =
        FaultInjector::new(FaultPlan::new(5).with_link_flap("client", "darr", 0.0, 120.0));
    let policy = RetryPolicy::exponential(10.0, 2.0, 80.0, 8).with_jitter(0.1, 5);
    let mut state = policy.state();
    let ok = loop {
        state.begin_attempt();
        let dropped = injector.should_drop("client", "darr");
        if !dropped {
            break true;
        }
        match state.next_backoff_ms() {
            Some(backoff) => injector.advance_to(injector.now_ms() + backoff),
            None => break false,
        }
    };
    assert!(ok, "backoff must outlast the 120ms outage window");
    let stats = state.finish(ok);
    assert!(stats.retries >= 2);
    assert!(injector.now_ms() >= 120.0);
}
