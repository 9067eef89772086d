//! `coda-lint` — workspace invariant checker (DESIGN.md §10).
//!
//! Five whole-workspace static analyses over a hand-rolled token stream
//! (the offline build vendors no `syn`):
//!
//! 1. **Determinism** ([`determinism`]) — no wall clocks or ambient RNGs
//!    outside the `coda-obs` `Clock` impls and bench binaries, so
//!    same-seed runs replay byte-identically (never baselineable);
//! 2. **Panic safety** ([`panics`]) — no `unwrap`/`expect`/`panic!`-family
//!    calls in library-crate non-test code;
//! 3. **Lock order** ([`locks`]) — an intra-/inter-procedural acquisition
//!    graph over every `Mutex`/`RwLock` site, reporting cycles
//!    (potential deadlocks), non-reentrant re-acquisition, and guards held
//!    across `spawn`/`send`;
//! 4. **Nondeterminism dataflow** ([`dataflow`]) — tracks values produced
//!    by `HashMap`/`HashSet` iteration through let-bindings, `collect`,
//!    accumulator writes, and function returns, and flags flows into
//!    serialization/digest sinks or unsorted collections, plus float
//!    reductions over unordered sources;
//! 5. **Observability contract** ([`obs_contract`]) — extracts every
//!    metric/span/event name into a canonical `OBS_SCHEMA.json` and flags
//!    consumed-but-never-produced names, label-set mismatches, kind
//!    conflicts, case/underscore collisions, and drift from the committed
//!    schema (drift is never baselineable).
//!
//! Pre-existing violations are frozen by the one-way ratchet in
//! [`baseline`]; the escape hatch is a `// lint:allow(<rule>) <reason>`
//! comment whose reason is mandatory.
//!
//! # Examples
//!
//! ```
//! use coda_lint::{analyze_sources, CrateKind, Rule};
//!
//! let src = "fn f() { let t = std::time::Instant::now(); }";
//! let findings = analyze_sources(vec![("lib.rs".into(), CrateKind::Library, src.into())]);
//! assert_eq!(findings.len(), 1);
//! assert_eq!(findings[0].rule, Rule::Determinism);
//! ```

#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod baseline;
pub mod dataflow;
pub mod determinism;
pub mod items;
pub mod lexer;
pub mod locks;
pub mod obs_contract;
pub mod panics;
pub mod source;
pub mod walk;

use std::io;
use std::path::Path;

pub use baseline::{Baseline, RatchetCheck};
pub use locks::LockReport;
pub use obs_contract::{MetricSchema, ObsSchema};
pub use source::{CrateKind, SourceFile};

/// The lint rules. `as_str` names are what `// lint:allow(<rule>)` takes
/// and what baseline keys use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// Wall clock / ambient RNG outside the Clock impls.
    Determinism,
    /// Panicking call/macro in library non-test code.
    PanicSafety,
    /// Lock-order cycle or non-reentrant re-acquisition.
    LockOrder,
    /// Guard held across a `spawn` or channel `send`.
    LockAcrossSpawn,
    /// `lint:allow` escape hatch without a justification.
    AllowMissingReason,
    /// HashMap/HashSet iteration order escapes into serialized or
    /// accumulated output.
    UnorderedFlow,
    /// Float `sum`/`fold`/`+=` fed by an unordered source.
    FloatReduction,
    /// Observability-contract violation (unregistered name, label-set
    /// mismatch, case/underscore collision).
    ObsContract,
    /// Extracted observability schema drifted from the committed
    /// `OBS_SCHEMA.json` (never baselineable: regenerate and commit).
    ObsSchemaDrift,
}

impl Rule {
    /// Stable rule name.
    pub fn as_str(self) -> &'static str {
        match self {
            Rule::Determinism => "determinism",
            Rule::PanicSafety => "panic_safety",
            Rule::LockOrder => "lock_order",
            Rule::LockAcrossSpawn => "lock_across_spawn",
            Rule::AllowMissingReason => "allow_missing_reason",
            Rule::UnorderedFlow => "unordered_flow",
            Rule::FloatReduction => "float_reduction",
            Rule::ObsContract => "obs_contract",
            Rule::ObsSchemaDrift => "obs_schema_drift",
        }
    }

    /// Whether pre-existing violations of this rule may be frozen in the
    /// baseline. Determinism violations, reason-less escape hatches and
    /// schema drift always fail.
    pub fn is_baselineable(self) -> bool {
        !matches!(self, Rule::Determinism | Rule::AllowMissingReason | Rule::ObsSchemaDrift)
    }

    /// Inverse of [`Rule::as_str`].
    pub fn parse(name: &str) -> Option<Rule> {
        [
            Rule::Determinism,
            Rule::PanicSafety,
            Rule::LockOrder,
            Rule::LockAcrossSpawn,
            Rule::AllowMissingReason,
            Rule::UnorderedFlow,
            Rule::FloatReduction,
            Rule::ObsContract,
            Rule::ObsSchemaDrift,
        ]
        .into_iter()
        .find(|r| r.as_str() == name)
    }
}

/// One lint violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// The rule violated.
    pub rule: Rule,
    /// Workspace-relative file (forward slashes).
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Human-readable description.
    pub message: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}: [{}] {}", self.file, self.line, self.rule.as_str(), self.message)
    }
}

impl serde::Serialize for Finding {
    fn to_value(&self) -> serde::Value {
        let mut map = std::collections::BTreeMap::new();
        map.insert("file".to_string(), serde::Value::Str(self.file.clone()));
        map.insert("line".to_string(), serde::Value::Int(i64::from(self.line)));
        map.insert("message".to_string(), serde::Value::Str(self.message.clone()));
        map.insert("rule".to_string(), serde::Value::Str(self.rule.as_str().to_string()));
        serde::Value::Object(map)
    }
}

impl serde::Deserialize for Finding {
    fn from_value(v: &serde::Value) -> Result<Self, String> {
        let obj = v.as_object().ok_or("expected finding object")?;
        let field = |k: &str| -> Result<&serde::Value, String> {
            obj.get(k).ok_or_else(|| format!("finding missing field `{k}`"))
        };
        let s = |k: &str| -> Result<String, String> {
            field(k)?.as_str().map(str::to_string).ok_or_else(|| format!("`{k}` must be a string"))
        };
        let rule_name = s("rule")?;
        Ok(Finding {
            rule: Rule::parse(&rule_name).ok_or_else(|| format!("unknown rule `{rule_name}`"))?,
            file: s("file")?,
            line: u32::try_from(match field("line")? {
                serde::Value::Int(i) => *i,
                other => return Err(format!("`line` must be an integer, got {other:?}")),
            })
            .map_err(|_| "`line` out of range".to_string())?,
            message: s("message")?,
        })
    }
}

/// Runs all analyses over in-memory sources: `(rel path, kind, text)`.
/// Returns surviving findings, sorted by `(file, line, rule)`; findings
/// covered by a `lint:allow` directive *with a reason* are suppressed, and
/// every reason-less directive yields an [`Rule::AllowMissingReason`]
/// finding of its own.
pub fn analyze_sources(files: Vec<(String, CrateKind, String)>) -> Vec<Finding> {
    let sources: Vec<SourceFile> =
        files.iter().map(|(rel, kind, text)| SourceFile::parse(rel, *kind, text)).collect();

    let mut findings: Vec<Finding> = Vec::new();
    for sf in &sources {
        findings.extend(determinism::check(sf));
        findings.extend(panics::check(sf));
    }
    findings.extend(locks::check(&sources).findings);
    findings.extend(dataflow::check(&sources));
    findings.extend(obs_contract::check(&sources).1);

    // escape hatch: suppress allowed findings, flag reason-less directives
    let mut out: Vec<Finding> = Vec::new();
    for f in findings {
        let covered = sources
            .iter()
            .find(|sf| sf.rel == f.file)
            .and_then(|sf| sf.allow_for(f.rule.as_str(), f.line));
        match covered {
            Some(allow) if !allow.reason.is_empty() => {}
            _ => out.push(f),
        }
    }
    for sf in &sources {
        for allow in &sf.allows {
            if allow.reason.is_empty() {
                out.push(Finding {
                    rule: Rule::AllowMissingReason,
                    file: sf.rel.clone(),
                    line: allow.line,
                    message: format!(
                        "`lint:allow({})` without a justification — write \
                         `// lint:allow({}) <why this site is safe>`",
                        allow.rule, allow.rule
                    ),
                });
            }
        }
    }
    out.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    out
}

/// Discovers and analyzes every covered file under the workspace `root`.
///
/// # Errors
///
/// Propagates filesystem errors from the workspace walk.
pub fn analyze_workspace(root: &Path) -> io::Result<Vec<Finding>> {
    Ok(analyze_sources(walk::workspace_files(root)?))
}

/// Extracts the canonical observability schema for the workspace at `root`
/// (what `OBS_SCHEMA.json` commits).
///
/// # Errors
///
/// Propagates filesystem errors from the workspace walk.
pub fn extract_obs_schema(root: &Path) -> io::Result<ObsSchema> {
    let sources: Vec<SourceFile> = walk::workspace_files(root)?
        .iter()
        .map(|(rel, kind, text)| SourceFile::parse(rel, *kind, text))
        .collect();
    Ok(obs_contract::check(&sources).0)
}

/// Renders findings as a stable JSON array (fields `file`, `line`,
/// `message`, `rule`, keys sorted) — the `--json` CLI output.
pub fn findings_to_json(findings: &[Finding]) -> String {
    let arr = serde::Value::Array(findings.iter().map(serde::Serialize::to_value).collect());
    serde_json::to_string(&arr).unwrap_or_else(|_| "[]".to_string())
}

/// Parses the output of [`findings_to_json`] back into findings.
///
/// # Errors
///
/// Returns a message describing the first malformed element.
pub fn findings_from_json(text: &str) -> Result<Vec<Finding>, String> {
    let v = serde_json::parse(text).map_err(|e| format!("bad findings JSON: {e}"))?;
    serde::Deserialize::from_value(&v)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lib(src: &str) -> Vec<(String, CrateKind, String)> {
        vec![("lib.rs".to_string(), CrateKind::Library, src.to_string())]
    }

    #[test]
    fn allow_with_reason_suppresses() {
        let findings = analyze_sources(lib(
            "fn f() -> u32 {\n    // lint:allow(panic_safety) the map is non-empty by construction\n    m.get(0).unwrap()\n}\n",
        ));
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn allow_without_reason_does_not_suppress_and_is_flagged() {
        let findings = analyze_sources(lib(
            "fn f() -> u32 {\n    // lint:allow(panic_safety)\n    m.get(0).unwrap()\n}\n",
        ));
        let rules: Vec<Rule> = findings.iter().map(|f| f.rule).collect();
        assert!(rules.contains(&Rule::PanicSafety), "{findings:?}");
        assert!(rules.contains(&Rule::AllowMissingReason), "{findings:?}");
    }

    #[test]
    fn allow_for_wrong_rule_does_not_suppress() {
        let findings = analyze_sources(lib(
            "fn f() {\n    // lint:allow(determinism) wrong rule\n    x.unwrap();\n}\n",
        ));
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].rule, Rule::PanicSafety);
    }

    #[test]
    fn binary_files_skip_panic_and_determinism_but_not_locks() {
        let findings = analyze_sources(vec![(
            "src/bin/tool.rs".to_string(),
            CrateKind::Binary,
            "fn main() {\n let t = std::time::Instant::now();\n x.unwrap();\n \
             let a = s.alpha.lock();\n let b = s.beta.lock();\n let g = held.lock();\n \
             std::thread::spawn(move || {});\n}\n"
                .to_string(),
        )]);
        assert!(findings.iter().all(|f| f.rule == Rule::LockAcrossSpawn), "{findings:?}");
        assert_eq!(findings.len(), 1);
    }

    #[test]
    fn findings_json_round_trips_with_stable_fields() {
        let findings = analyze_sources(lib("fn f() { x.unwrap(); y.expect(\"no\"); }"));
        assert!(!findings.is_empty());
        let text = findings_to_json(&findings);
        // stable field order: object keys are sorted by construction
        let first_obj = text.find('{').map(|i| &text[i..]).unwrap_or("");
        let keys: Vec<usize> = ["\"file\"", "\"line\"", "\"message\"", "\"rule\""]
            .iter()
            .map(|k| first_obj.find(k).expect("field present"))
            .collect();
        assert!(keys.windows(2).all(|w| w[0] < w[1]), "fields out of order in {text}");
        let back = findings_from_json(&text).expect("round trip");
        assert_eq!(back, findings);
        assert_eq!(findings_to_json(&back), text);
    }

    #[test]
    fn test_code_is_exempt() {
        let findings =
            analyze_sources(lib("#[cfg(test)]\nmod tests {\n fn helper() { x.unwrap(); \
             let t = std::time::Instant::now(); }\n}\n"));
        assert!(findings.is_empty(), "{findings:?}");
    }
}
