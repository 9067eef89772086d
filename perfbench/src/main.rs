//! The coda benchmark: four seeded workloads over the serving tier and TEG
//! evaluation, end-to-end metrics from untraced runs and per-layer metrics
//! from a traced run.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve-read --seed 1 --seconds 20 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`; the lines before it describe the
//! run. The process exits 1 when any correctness check fails and 2 on a
//! usage error. `perfbench/README.md` explains each workload and metric.

mod gen;
mod serve;
mod spans;
mod stats;
mod teg;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode};

/// The end-to-end metrics every workload reports with `--trace 0`.
/// Tails are per-layer metrics and description lines: on a shared host a
/// p99 spreads across runs of the same code by more than any usable bound.
pub const END_TO_END: [(&str, &str); 4] = [
    ("throughput_ops_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("peak_rss_mb", "MiB"),
    ("setup_s", "s"),
];

/// The per-layer metrics every workload reports with `--trace 1`; a layer
/// the workload does not exercise reads 0.
pub const PER_LAYER: [(&str, &str); 63] = [
    ("serve.tier.submit_us.put.p50", "us"),
    ("serve.tier.submit_us.put.p99", "us"),
    ("serve.tier.submit_us.pull.p50", "us"),
    ("serve.tier.submit_us.pull.p99", "us"),
    ("serve.tier.submit_us.claim.p50", "us"),
    ("serve.tier.submit_us.claim.p99", "us"),
    ("serve.tier.self_us.put", "us"),
    ("serve.tier.self_us.pull", "us"),
    ("serve.tier.self_us.claim", "us"),
    ("serve.tier.queue_wait_us.mean", "us"),
    ("serve.tier.queue_wait_us.p99", "us"),
    ("serve.tier.batch_mean", "requests"),
    ("serve.shard.apply_us.put", "us"),
    ("serve.shard.apply_us.pull", "us"),
    ("serve.shard.apply_us.claim", "us"),
    ("serve.shard.apply_us.complete", "us"),
    ("serve.shard.busy_share", "ratio"),
    ("store.wal.self_us", "us"),
    ("store.wal.put_p99_us", "us"),
    ("store.home.put_us", "us"),
    ("store.home.fetch_us.full", "us"),
    ("store.home.fetch_us.delta", "us"),
    ("store.home.fetch_us.up_to_date", "us"),
    ("store.home.delta_reply_ratio", "ratio"),
    ("store.home.wire_bytes_per_pull", "B"),
    ("store.delta.encode_us", "us"),
    ("store.delta.encode_ns_per_byte", "ns/B"),
    ("store.delta.apply_us", "us"),
    ("darr.try_claim_us", "us"),
    ("darr.complete_us", "us"),
    ("darr.claim_win_ratio", "ratio"),
    ("obs.overhead_ratio", "ratio"),
    ("obs.retained_mb", "MiB"),
    ("core.eval.parallel_eff", "ratio"),
    ("core.eval.slowest_path_share", "ratio"),
    ("core.cache.hit_ratio", "ratio"),
    ("core.cache.mb", "MiB"),
    ("ml.fit_ms.minmax_scaler", "ms"),
    ("ml.fit_ms.standard_scaler", "ms"),
    ("ml.fit_ms.robust_scaler", "ms"),
    ("ml.fit_ms.noop", "ms"),
    ("ml.fit_ms.pca", "ms"),
    ("ml.fit_ms.select_k_best", "ms"),
    ("ml.fit_ms.noop_2", "ms"),
    ("ml.fit_ms.decision_tree_regressor", "ms"),
    ("ml.fit_ms.knn_regressor", "ms"),
    ("ml.fit_ms.random_forest_regressor", "ms"),
    ("nn.fit_ms.lstm_simple", "ms"),
    ("nn.fit_ms.cnn_simple", "ms"),
    ("nn.fit_ms.wavenet", "ms"),
    ("nn.fit_ms.seriesnet", "ms"),
    ("nn.fit_ms.dnn_simple", "ms"),
    ("nn.fit_ms.dnn_iid_simple", "ms"),
    ("nn.fit_ms.ar_forecaster", "ms"),
    ("nn.lstm_gflop_s", "GFLOP/s"),
    ("timeseries.window_ms.cascaded_windows", "ms"),
    ("timeseries.window_ms.flat_windowing", "ms"),
    ("timeseries.window_ms.ts_as_iid", "ms"),
    ("timeseries.window_ms.ts_as_is", "ms"),
    ("trace.overhead_ratio.throughput_ops_s", "ratio"),
    ("trace.overhead_ratio.latency_p50_ms", "ratio"),
    ("trace.overhead_ratio.peak_rss_mb", "ratio"),
    ("trace.overhead_ratio.setup_s", "ratio"),
];

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Seconds to measure.
    pub seconds: f64,
    /// Traced (per-layer) run.
    pub trace: bool,
    /// An internal phase run in a child process (see [`child`]).
    pub phase: Option<String>,
}

const USAGE: &str =
    "usage: perfbench --workload <serve-write|serve-read|teg-tabular|teg-forecast> \
--seed <n> --seconds <s> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let mut args =
        Args { workload: String::new(), seed: 1, seconds: 10.0, trace: false, phase: None };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| format!("bad seed {value}"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err(format!("seconds must be in (0, 600], got {value}"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                }
            }
            "--phase" => args.phase = Some(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

/// What one run measured and checked.
#[derive(Debug, Default, Clone)]
pub struct Report {
    /// Operations attempted (requests, or evaluated paths).
    pub attempted: u64,
    /// Operations that failed plus failed checks.
    pub failed: u64,
    /// Metric values by name.
    pub metrics: BTreeMap<String, f64>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

impl Report {
    /// Sets a metric.
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.metrics.insert(name.into(), value);
    }

    /// A metric, or 0 when absent.
    pub fn get(&self, name: &str) -> f64 {
        self.metrics.get(name).copied().unwrap_or(0.0)
    }

    /// Adds a line to the description.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Folds another run's counts and notes into this one.
    pub fn absorb_counts(&mut self, other: &Report) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.notes.extend(other.notes.iter().cloned());
    }

    /// The machine-readable form a child phase prints for its parent.
    fn to_lines(&self) -> String {
        let mut out = format!("attempted {}\nfailed {}\n", self.attempted, self.failed);
        for (k, v) in &self.metrics {
            out.push_str(&format!("metric {k} {v}\n"));
        }
        for n in &self.notes {
            out.push_str(&format!("note {n}\n"));
        }
        out
    }

    fn from_lines(text: &str) -> Result<Report, String> {
        let mut r = Report::default();
        for line in text.lines() {
            let (tag, rest) = line.split_once(' ').unwrap_or((line, ""));
            let num = |s: &str| s.parse::<f64>().map_err(|_| format!("bad child line {line:?}"));
            match tag {
                "attempted" => r.attempted = num(rest)? as u64,
                "failed" => r.failed = num(rest)? as u64,
                "metric" => {
                    let (k, v) = rest.split_once(' ').ok_or(format!("bad child line {line:?}"))?;
                    r.set(k, num(v)?);
                }
                "note" => r.note(rest),
                _ => {}
            }
        }
        Ok(r)
    }
}

/// Runs `phase` of the current workload for `seconds` in a child process,
/// so its memory is measured apart from this process's, and waits for it.
pub fn child(args: &Args, phase: &str, seconds: f64) -> Result<Report, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--workload", &args.workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", "0", "--phase", phase])
        .output()
        .map_err(|e| format!("cannot start phase {phase}: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    let report = Report::from_lines(&text)?;
    if !out.status.success() && report.failed == 0 {
        return Err(format!(
            "phase {phase} exited with {}: {}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    Ok(report)
}

/// Where traced runs write their spans: under the build directory, which
/// holds nothing the repository tracks.
pub fn trace_dir() -> PathBuf {
    let build = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| ".bench_build".into());
    PathBuf::from(build).join("perfbench-spans")
}

fn run(args: &Args) -> Result<Report, String> {
    let serve = match args.workload.as_str() {
        "serve-write" => Some(&gen::SERVE_WRITE),
        "serve-read" => Some(&gen::SERVE_READ),
        _ => None,
    };
    let teg = match args.workload.as_str() {
        "teg-tabular" => Some(teg::Workload::Tabular),
        "teg-forecast" => Some(teg::Workload::Forecast),
        _ => None,
    };
    match (serve, teg, args.phase.as_deref()) {
        (Some(spec), _, None) => Ok(serve::run(spec, args)),
        (Some(spec), _, Some("load-obs")) => {
            Ok(serve::load_phase(&serve::Inputs::new(spec, args.seed), args.seconds, true))
        }
        (Some(spec), _, Some("load-plain")) => {
            Ok(serve::load_phase(&serve::Inputs::new(spec, args.seed), args.seconds, false))
        }
        (_, Some(w), None) => Ok(teg::run(w, args)),
        (_, Some(w), Some("digest")) => Ok(teg::digest_phase(w, args)),
        (None, None, _) => Err(format!("unknown workload {}\n{USAGE}", args.workload)),
        (_, _, Some(p)) => Err(format!("unknown phase {p}")),
    }
}

fn json_result(report: &Report, trace: bool) -> String {
    let declared: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
    let metrics: Vec<String> = declared
        .iter()
        .map(|(name, unit)| {
            let v = report.get(name);
            let v = if v.is_finite() { v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.failed == 0,
        report.attempted.max(1),
        report.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let report = match run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    if args.phase.is_some() {
        print!("{}", report.to_lines());
    } else {
        for n in &report.notes {
            println!("# {n}");
        }
        let declared: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
        for (name, unit) in declared {
            println!("{name:<42} {:>16.6} {unit}", report.get(name));
        }
        println!("{}", json_result(&report, args.trace));
    }
    if report.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` declares exactly the metrics this program prints.
    #[test]
    fn benchmark_json_matches_the_declared_metrics() {
        let json = include_str!("../../BENCHMARK.json");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        assert_eq!(json.matches("\"name\":").count(), END_TO_END.len() + PER_LAYER.len() + 4);
    }

    /// `metrics.json` says what every per-layer metric should move.
    #[test]
    fn metric_map_covers_every_per_layer_metric() {
        let map = include_str!("../metrics.json");
        for (name, _) in PER_LAYER {
            assert!(map.contains(&format!("\"{name}\": {{")), "metrics.json lacks {name}");
        }
        assert_eq!(map.matches("\"moves\":").count(), PER_LAYER.len());
    }

    #[test]
    fn child_lines_round_trip() {
        let mut r = Report { attempted: 7, failed: 1, ..Report::default() };
        r.set("a.b", 0.125);
        r.note("hello world");
        let back = Report::from_lines(&r.to_lines()).expect("parses");
        assert_eq!((back.attempted, back.failed, back.get("a.b")), (7, 1, 0.125));
        assert_eq!(back.notes, vec!["hello world".to_string()]);
    }

    #[test]
    fn result_line_lists_every_declared_metric() {
        let line = json_result(&Report::default(), true);
        assert_eq!(line.matches("\"unit\"").count(), PER_LAYER.len());
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0"));
    }
}
