//! CI overhead gate for the observability layer: evaluates the same
//! fan-out TEG with and without an attached `Obs` handle, interleaving
//! trials and comparing best-of-N wall-clock times. Fails (exit 1) when
//! the instrumented run exceeds the budget — a multiplicative ratio plus a
//! small absolute allowance for fixed costs — so tracing regressions are
//! caught before they land. Reports must also stay bit-identical, so the
//! instrumentation is provably observational. Phases 2 and 3 add the ops
//! plane and diagnosis; phase 4 gates the serving path, where a request
//! takes microseconds and tracing every one of them would dominate.
//!
//! Usage: `overhead_gate [max_ratio]` (default 1.30, i.e. +30%, phase 1).

use coda_bench::fan_out_graph;
use coda_core::{Evaluator, GraphReport};
use coda_data::{synth, CvStrategy, Metric};
use coda_obs::{diagnose, FlightRecorder, Obs, SloEngine, SloSignal, SloSpec, TailPolicy};

const TRIALS: usize = 5;
const DEFAULT_MAX_RATIO: f64 = 1.30;
/// Phase-2 budget: the full ops plane (flight recorder, armed exemplars,
/// tail sampling) on top of tracing must stay within +5% of the
/// traced-only run.
const OPS_MAX_RATIO: f64 = 1.05;
/// Absolute allowance for fixed instrumentation costs (ms) so tiny
/// workloads on noisy runners don't trip the ratio.
const ABS_SLACK_MS: f64 = 60.0;
/// Phase-4 limit on the median time ratio of D7's thread-0 stream through
/// a tier with a wall-clock `Obs` against one without. On a 2-vCPU box a
/// tracer that records every request measured 2.2–2.3; head sampling
/// measures about 1.5, most of it the per-request metrics.
const SERVE_MAX_RATIO: f64 = 1.8;
/// Phase-4 workload seed: the committed D7 baseline's.
const SERVE_SEED: u64 = 7;

fn main() {
    let max_ratio: f64 = std::env::args()
        .nth(1)
        .map(|s| s.parse().expect("max_ratio must be a float"))
        .unwrap_or(DEFAULT_MAX_RATIO);

    let ds = synth::friedman1(800, 20, 0.4, 55);
    let graph = fan_out_graph(8);
    let cv = CvStrategy::kfold(5);

    let run = |obs: Option<&Obs>| -> (f64, GraphReport) {
        let mut eval = Evaluator::new(cv.clone(), Metric::Rmse).with_prefix_cache(true);
        if let Some(o) = obs {
            eval = eval.with_obs(o.clone());
        }
        let start = std::time::Instant::now();
        let report = eval.evaluate_graph(&graph, &ds).expect("gate graph evaluates");
        (start.elapsed().as_secs_f64() * 1000.0, report)
    };

    // warmup, then interleaved timed trials (best-of-N per mode rides out
    // scheduler noise on shared CI runners)
    run(None);
    let mut plain_ms = f64::INFINITY;
    let mut traced_ms = f64::INFINITY;
    let mut spans = 0;
    let mut baseline: Option<GraphReport> = None;
    for _ in 0..TRIALS {
        let (p, plain_report) = run(None);
        plain_ms = plain_ms.min(p);
        let obs = Obs::wall();
        let (t, traced_report) = run(Some(&obs));
        traced_ms = traced_ms.min(t);
        spans = obs.tracer().len();

        // observational-only: the instrumented report is bit-identical
        for (a, b) in plain_report.results.iter().zip(&traced_report.results) {
            assert_eq!(a.spec, b.spec, "specs must match");
            assert_eq!(
                a.mean_score.to_bits(),
                b.mean_score.to_bits(),
                "instrumented scores must be bit-identical"
            );
        }
        baseline = Some(plain_report);
    }
    let report = baseline.expect("at least one trial ran");
    let paths = report.results.len();
    let ratio = traced_ms / plain_ms;
    let budget_ms = plain_ms * max_ratio + ABS_SLACK_MS;

    println!("observability overhead gate ({paths} paths, best of {TRIALS} trials)");
    println!("  plain:        {plain_ms:.1} ms");
    println!("  instrumented: {traced_ms:.1} ms ({spans} trace events)");
    println!("  ratio:        {ratio:.3}x  (budget {max_ratio:.2}x + {ABS_SLACK_MS:.0} ms)");

    if traced_ms > budget_ms {
        eprintln!(
            "FAIL: instrumented eval took {traced_ms:.1} ms, over the {budget_ms:.1} ms budget"
        );
        std::process::exit(1);
    }
    println!("PASS: within budget ({traced_ms:.1} ms <= {budget_ms:.1} ms)");

    // phase 2: the full ops plane rides on top of tracing — flight
    // recorder ticks per trial, armed exemplars on every eval.path
    // observation, and a tail-sampling pass over the trace log. Budget is
    // tighter (+5%) because these are continuous-production costs.
    let mut ops_ms = f64::INFINITY;
    let mut windows = 0usize;
    for trial in 0..TRIALS {
        let (t, traced_report) = run(Some(&Obs::wall()));
        traced_ms = traced_ms.min(t);
        let obs = Obs::wall();
        obs.exemplars().enable(8);
        let mut recorder = FlightRecorder::new();
        let start = std::time::Instant::now();
        recorder.tick(obs.now_ms(), &obs.registry().snapshot());
        let mut eval = Evaluator::new(cv.clone(), Metric::Rmse).with_prefix_cache(true);
        eval = eval.with_obs(obs.clone());
        let ops_report = eval.evaluate_graph(&graph, &ds).expect("gate graph evaluates");
        recorder.tick(obs.now_ms() + (trial as f64 + 1.0) * 100.0, &obs.registry().snapshot());
        let _ = obs.tracer().sample_tail(&TailPolicy::new());
        ops_ms = ops_ms.min(start.elapsed().as_secs_f64() * 1000.0);
        windows = recorder.timeline().len();

        for (a, b) in traced_report.results.iter().zip(&ops_report.results) {
            assert_eq!(a.spec, b.spec, "specs must match");
            assert_eq!(
                a.mean_score.to_bits(),
                b.mean_score.to_bits(),
                "recorder + sampling must stay observational (bit-identical scores)"
            );
        }
    }
    let ops_ratio = ops_ms / traced_ms;
    let ops_budget_ms = traced_ms * OPS_MAX_RATIO + ABS_SLACK_MS;
    println!("ops-plane overhead gate (recorder + exemplars + tail sampling)");
    println!("  traced only:  {traced_ms:.1} ms");
    println!("  full plane:   {ops_ms:.1} ms ({windows} flight windows)");
    println!(
        "  ratio:        {ops_ratio:.3}x  (budget {OPS_MAX_RATIO:.2}x + {ABS_SLACK_MS:.0} ms)"
    );
    if ops_ms > ops_budget_ms {
        eprintln!("FAIL: ops plane took {ops_ms:.1} ms, over the {ops_budget_ms:.1} ms budget");
        std::process::exit(1);
    }
    println!("PASS: within budget ({ops_ms:.1} ms <= {ops_budget_ms:.1} ms)");

    // phase 3: diagnosis armed but unbreached — an SLO engine steps at
    // every flight tick and the attribution engine runs over the final
    // telemetry. With no breach the engine must cost nothing beyond the
    // ops plane (same +5% budget) and must emit the empty report
    // byte-identically on every trial.
    let specs = vec![
        SloSpec {
            name: "eval-error-rate".to_string(),
            signal: SloSignal::EventRatio {
                bad: "coda_core_eval_path_errors".to_string(),
                good: "coda_core_eval_paths_ok".to_string(),
            },
            objective: 0.05,
        },
        SloSpec {
            name: "gate-failovers".to_string(),
            signal: SloSignal::Occurrence {
                counter: "coda_cluster_failovers_total".to_string(),
                allowed_per_window: 0.02,
            },
            objective: 1.0,
        },
    ];
    let mut diag_ms = f64::INFINITY;
    let mut first_json: Option<String> = None;
    for trial in 0..TRIALS {
        let obs = Obs::wall();
        obs.exemplars().enable(8);
        let mut recorder = FlightRecorder::new();
        let mut engine = SloEngine::new(specs.clone());
        let start = std::time::Instant::now();
        recorder.tick(obs.now_ms(), &obs.registry().snapshot());
        engine.step(&recorder, Some(obs.tracer().as_ref()));
        let mut eval = Evaluator::new(cv.clone(), Metric::Rmse).with_prefix_cache(true);
        eval = eval.with_obs(obs.clone());
        let diag_report_eval = eval.evaluate_graph(&graph, &ds).expect("gate graph evaluates");
        recorder.tick(obs.now_ms() + (trial as f64 + 1.0) * 100.0, &obs.registry().snapshot());
        engine.step(&recorder, Some(obs.tracer().as_ref()));
        let slo = engine.report();
        let diag = diagnose(&recorder, &slo, &obs.exemplars().snapshot(), &obs.forest());
        diag_ms = diag_ms.min(start.elapsed().as_secs_f64() * 1000.0);

        assert!(diag.incidents.is_empty(), "an unbreached run must diagnose to zero incidents");
        let json = diag.to_json();
        match &first_json {
            Some(prev) => {
                assert_eq!(prev, &json, "unbreached diagnosis reports must render byte-identically")
            }
            None => first_json = Some(json),
        }
        for (a, b) in report.results.iter().zip(&diag_report_eval.results) {
            assert_eq!(a.spec, b.spec, "specs must match");
            assert_eq!(
                a.mean_score.to_bits(),
                b.mean_score.to_bits(),
                "armed diagnosis must stay observational (bit-identical scores)"
            );
        }
    }
    let diag_ratio = diag_ms / ops_ms;
    let diag_budget_ms = ops_ms * OPS_MAX_RATIO + ABS_SLACK_MS;
    println!("diagnosis overhead gate (SLO engine armed, no breach)");
    println!("  ops plane:    {ops_ms:.1} ms");
    println!("  with diagnosis: {diag_ms:.1} ms");
    println!(
        "  ratio:        {diag_ratio:.3}x  (budget {OPS_MAX_RATIO:.2}x + {ABS_SLACK_MS:.0} ms)"
    );
    if diag_ms > diag_budget_ms {
        eprintln!("FAIL: diagnosis took {diag_ms:.1} ms, over the {diag_budget_ms:.1} ms budget");
        std::process::exit(1);
    }
    println!("PASS: within budget ({diag_ms:.1} ms <= {diag_budget_ms:.1} ms)");

    // phase 4: the serving path. D7's thread-0 stream through a tier with
    // a wall-clock Obs and through one with none, alternating which goes
    // first; the two must answer alike and end in the same state
    let ratios = coda_bench::serving_obs_ratios(SERVE_SEED, TRIALS);
    let serve_ratio = coda_bench::median(&ratios);
    let rounds: Vec<String> = ratios.iter().map(|r| format!("{r:.2}x")).collect();
    println!("serving-path overhead gate (D7 thread 0's stream, tier with vs without an Obs)");
    println!("  per round: {}", rounds.join(" "));
    println!("  median:    {serve_ratio:.3}x  (limit {SERVE_MAX_RATIO:.2}x)");
    if serve_ratio.is_nan() || serve_ratio > SERVE_MAX_RATIO {
        eprintln!(
            "FAIL: the instrumented tier took {serve_ratio:.3}x the plain tier's time \
             (limit {SERVE_MAX_RATIO:.2}x)"
        );
        std::process::exit(1);
    }
    println!("PASS: serving-path overhead {serve_ratio:.3}x <= {SERVE_MAX_RATIO:.2}x");
}
