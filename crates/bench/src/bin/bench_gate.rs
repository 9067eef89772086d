//! CI benchmark ratchet for the serving tier, with two checks:
//!
//! - Throughput: re-runs the D7 sustained load
//!   (`coda_bench::run_serving_bench`) and compares its throughput against
//!   the committed `BENCH_serving.json` baseline. One-way gate: fails
//!   (exit 1) when fresh throughput drops below the baseline by more than
//!   the tolerance band; a large *improvement* prints a reminder to
//!   ratchet the committed baseline forward but still passes.
//! - Tier overhead: the median over alternating rounds of the time D7's
//!   thread-0 request stream takes through the tier divided by the time it
//!   takes through bare `ShardCore::apply` calls
//!   (`coda_bench::tier_overhead_ratios`). Both run in this process, so no
//!   machine constant enters. Fails (exit 1) above [`MAX_TIER_RATIO`].
//!
//! Usage: `bench_gate [--self-test] [--baseline PATH]`
//!   BENCH_TOL  tolerance band as a fraction (default 0.5: fail below
//!              50% of baseline throughput — wide enough for shared CI
//!              runners, tight enough to catch a serialization collapse)
//!   SERVE_SEED overrides the workload seed recorded in the baseline

use serde_json::Value;

const DEFAULT_BASELINE: &str = "BENCH_serving.json";
const DEFAULT_TOL: f64 = 0.5;
/// Alternating rounds of the tier-overhead check.
const RATIO_ROUNDS: usize = 5;
/// Highest median tier/bare time ratio that passes. A tier that hands each
/// request to a shard thread and back measured 4–12×; applying each
/// request on its caller's thread measures about 1.3×.
const MAX_TIER_RATIO: f64 = 2.0;

struct Baseline {
    seed: u64,
    throughput: f64,
    p99_ms: f64,
}

fn num(v: &Value, field: &str) -> f64 {
    match v {
        Value::Int(i) => *i as f64,
        Value::Float(f) => *f,
        other => panic!("baseline field {field} is not a number: {other:?}"),
    }
}

fn parse_baseline(text: &str) -> Baseline {
    let value = serde_json::parse(text).expect("baseline must be valid JSON");
    let Value::Object(map) = value else { panic!("baseline must be a JSON object") };
    let field = |name: &str| num(map.get(name).unwrap_or(&Value::Null), name);
    let schema = map.get("schema").cloned().unwrap_or(Value::Null);
    assert_eq!(
        schema,
        Value::Str("coda-serving-bench-v1".into()),
        "unknown baseline schema: {schema:?}"
    );
    Baseline {
        seed: field("seed") as u64,
        throughput: field("throughput_ops_per_sec"),
        p99_ms: field("p99_ms"),
    }
}

/// The one-way ratchet decision: a regression trips the gate; anything at
/// or above the band passes.
fn regressed(base: f64, fresh: f64, tol: f64) -> bool {
    fresh < base * (1.0 - tol)
}

fn median(xs: &[f64]) -> f64 {
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// The tier-overhead decision: the median round may not exceed the limit
/// (a round with no median fails too).
fn ratio_too_high(ratios: &[f64]) -> bool {
    let m = median(ratios);
    m.is_nan() || m > MAX_TIER_RATIO
}

/// Proves both checks trip: a synthetic collapsed run must fail the
/// ratchet and an at-baseline run must pass, and so for the ratio check,
/// without touching the real benchmark.
fn self_test(base: &Baseline, tol: f64) {
    let collapsed = base.throughput * (1.0 - tol) * 0.5;
    assert!(
        regressed(base.throughput, collapsed, tol),
        "gate self-test: a {collapsed:.0} ops/s collapse must trip the {tol:.2} band"
    );
    assert!(
        !regressed(base.throughput, base.throughput, tol),
        "gate self-test: baseline throughput itself must pass"
    );
    assert!(
        !regressed(base.throughput, base.throughput * (1.0 - tol) * 1.01, tol),
        "gate self-test: throughput just inside the band must pass"
    );
    println!(
        "PASS: bench-gate self-test (baseline {:.0} ops/s, band {:.2}, trips at {:.0} ops/s)",
        base.throughput,
        tol,
        base.throughput * (1.0 - tol)
    );

    let handoff = [9.1, 8.4, 12.0, 1.2, 10.5];
    assert!(
        ratio_too_high(&handoff),
        "gate self-test: a per-request thread hand-off (median {:.2}x) must trip the {:.1}x limit",
        median(&handoff),
        MAX_TIER_RATIO
    );
    let combined = [1.1, 1.3, 2.6, 1.0, 1.2];
    assert!(!ratio_too_high(&combined), "gate self-test: one slow round must not trip the limit");
    assert!(
        !ratio_too_high(&[MAX_TIER_RATIO; RATIO_ROUNDS]),
        "gate self-test: a median at the limit must pass"
    );
    assert!(ratio_too_high(&[]), "gate self-test: no rounds must not pass");
    println!(
        "PASS: ratio self-test (median {:.2}x trips the {:.1}x limit, {:.2}x passes)",
        median(&handoff),
        MAX_TIER_RATIO,
        median(&combined)
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let baseline_path = args
        .iter()
        .position(|a| a == "--baseline")
        .and_then(|i| args.get(i + 1).cloned())
        .unwrap_or_else(|| DEFAULT_BASELINE.to_string());
    let tol: f64 = std::env::var("BENCH_TOL")
        .ok()
        .map(|s| s.parse().expect("BENCH_TOL must be a float"))
        .unwrap_or(DEFAULT_TOL);
    assert!((0.0..1.0).contains(&tol), "BENCH_TOL must be in [0, 1)");

    let text = std::fs::read_to_string(&baseline_path)
        .unwrap_or_else(|e| panic!("cannot read baseline {baseline_path}: {e}"));
    let base = parse_baseline(&text);

    if args.iter().any(|a| a == "--self-test") {
        self_test(&base, tol);
        return;
    }

    let seed: u64 = std::env::var("SERVE_SEED")
        .ok()
        .map(|s| s.parse().expect("SERVE_SEED must be an integer"))
        .unwrap_or(base.seed);
    let fresh = coda_bench::run_serving_bench(seed, None);
    assert!(fresh.shed == 0, "closed-loop gate run must not shed (got {})", fresh.shed);

    let floor = base.throughput * (1.0 - tol);
    println!("serving benchmark ratchet (seed {seed}, band {tol:.2})");
    println!("  baseline: {:>12.0} ops/s  (p99 {:.3} ms)", base.throughput, base.p99_ms);
    println!(
        "  fresh:    {:>12.0} ops/s  (p99 {:.3} ms, {} ops over {:.0} ms)",
        fresh.throughput_ops_per_sec, fresh.p99_ms, fresh.total_ops, fresh.elapsed_ms
    );
    println!("  floor:    {floor:>12.0} ops/s");

    let throughput_failed = regressed(base.throughput, fresh.throughput_ops_per_sec, tol);
    if throughput_failed {
        eprintln!(
            "FAIL: serving throughput regressed below the ratchet floor \
             ({:.0} < {floor:.0} ops/s)",
            fresh.throughput_ops_per_sec
        );
    } else {
        if fresh.throughput_ops_per_sec > base.throughput * (1.0 + tol) {
            println!(
                "NOTE: fresh throughput beats the baseline by more than the band — \
                 consider ratcheting BENCH_serving.json forward (`experiments --exp d7`)"
            );
        }
        println!("PASS: {:.0} ops/s >= {floor:.0} ops/s floor", fresh.throughput_ops_per_sec);
    }

    let ratios = coda_bench::tier_overhead_ratios(seed, RATIO_ROUNDS);
    let rounds: Vec<String> = ratios.iter().map(|r| format!("{r:.2}x")).collect();
    println!("tier overhead (D7 thread 0's stream, tier vs bare ShardCore::apply, alternating)");
    println!("  per round: {}", rounds.join(" "));
    println!("  median:    {:.2}x  (limit {MAX_TIER_RATIO:.1}x)", median(&ratios));
    let ratio_failed = ratio_too_high(&ratios);
    if ratio_failed {
        eprintln!(
            "FAIL: the tier takes {:.2}x the bare apply loop's time (limit {MAX_TIER_RATIO:.1}x)",
            median(&ratios)
        );
    } else {
        println!("PASS: tier overhead {:.2}x <= {MAX_TIER_RATIO:.1}x", median(&ratios));
    }
    if throughput_failed || ratio_failed {
        std::process::exit(1);
    }
}
