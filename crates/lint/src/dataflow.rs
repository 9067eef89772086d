//! Nondeterminism dataflow: tracks values produced by iterating
//! `HashMap`/`HashSet` through let-bindings, loop accumulation, `collect()`
//! and function returns, and flags flows whose final order is unspecified —
//! the quiet way nondeterminism reaches serialized reports, digests and
//! exports that the rest of the repo promises are byte-identical.
//!
//! The rules, at token level:
//!
//! - **Sources**: `.iter()`, `.keys()`, `.values()`, `.drain()`,
//!   `.into_iter()` (and `_mut` forms) on a receiver known to be a
//!   `HashMap`/`HashSet` (a local `let`, a fn parameter, or a struct field
//!   declared with a hash type anywhere in the workspace), `for … in &map`
//!   loops over such receivers, and calls to workspace functions whose
//!   return value is itself unordered (propagated through the same bounded
//!   name-resolved call graph the lock pass uses).
//! - **Neutralizers**: collecting into a `BTreeMap`/`BTreeSet`, a later
//!   `.sort*()` on the binding, or reducing to an order-insensitive scalar
//!   (`len`, `count`, `max`, `min`, membership tests, integer `sum`).
//! - **Sinks** ([`Rule::UnorderedFlow`]): explicit serialization/digest
//!   calls (`to_json`, `export_state`, `serialize`, `digest`, `.hash(…)`),
//!   accumulation into an ordered container (`Vec` push/extend, `String`
//!   push_str/`write!`) that is never subsequently sorted, and accumulation
//!   into another *unordered* container (insertion order is lost, so the
//!   lint cannot prove downstream determinism — re-key through a BTree
//!   container instead).
//! - **Float reductions** ([`Rule::FloatReduction`]): `sum()`/`fold`/`+=`
//!   over `f32`/`f64` fed by an unordered source — float addition is not
//!   associative, so even a sorted-set-of-values argument produces
//!   order-dependent bits.
//!
//! Like the lock pass this is a heuristic token-level approximation whose
//! findings feed the ratcheting baseline; `// lint:allow(unordered_flow)`
//! with a reason is the escape hatch for flows that are provably
//! commutative.

use std::collections::{BTreeMap, BTreeSet};

use crate::items::{self, matching_paren, FnSpan, MAX_CALLEE_CANDIDATES};
use crate::lexer::{Tok, TokKind};
use crate::source::SourceFile;
use crate::{Finding, Rule};

/// Iterator-producing methods on hash containers.
const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "into_iter",
    "into_keys",
    "into_values",
];

/// Order-insensitive scalar reducers: ending a chain in one of these
/// launders the unordered source.
const SCALAR_REDUCERS: &[&str] = &[
    "len",
    "count",
    "is_empty",
    "contains",
    "contains_key",
    "any",
    "all",
    "max",
    "min",
    "max_by_key",
    "min_by_key",
    "max_by",
    "min_by",
];

/// Serialization / digest / export sinks by callee name.
const SINKS: &[&str] =
    &["to_json", "to_json_value", "export_state", "serialize", "digest", "canonical_json"];

/// Runs the analysis over every file of the workspace at once.
pub fn check(files: &[SourceFile]) -> Vec<Finding> {
    // pass 0: hash-typed struct fields (tokens outside any fn body) and the
    // per-file function spans
    let spans: Vec<Vec<FnSpan>> = files.iter().map(items::functions).collect();
    let mut hash_fields: BTreeSet<String> = BTreeSet::new();
    for (sf, fns) in files.iter().zip(&spans) {
        collect_hash_fields(sf, fns, &mut hash_fields);
    }

    // candidate map for bounded name resolution of tainted returns
    let mut by_name: BTreeMap<String, usize> = BTreeMap::new();
    for fns in &spans {
        for f in fns {
            *by_name.entry(f.name.clone()).or_insert(0) += 1;
        }
    }
    let resolvable: BTreeSet<&str> = by_name
        .iter()
        .filter(|(_, &n)| n <= MAX_CALLEE_CANDIDATES)
        .map(|(k, _)| k.as_str())
        .collect();

    // fixpoint over "returns an unordered value": rescans are cheap and the
    // chain depth of helper-returns-helper is small in practice
    let mut tainted_fns: BTreeSet<String> = BTreeSet::new();
    loop {
        let mut next: BTreeSet<String> = BTreeSet::new();
        for (sf, fns) in files.iter().zip(&spans) {
            for f in fns {
                if f.in_test {
                    continue;
                }
                let scan = scan_fn(sf, f, &hash_fields, &tainted_fns, &resolvable);
                if scan.returns_tainted {
                    next.insert(f.name.clone());
                }
            }
        }
        if next == tainted_fns {
            break;
        }
        tainted_fns = next;
    }

    let mut out: Vec<Finding> = Vec::new();
    for (sf, fns) in files.iter().zip(&spans) {
        for f in fns {
            if f.in_test {
                continue;
            }
            out.extend(scan_fn(sf, f, &hash_fields, &tainted_fns, &resolvable).findings);
        }
    }
    out
}

/// What one statement's right-hand side evaluates to.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Eval {
    Clean,
    /// A hash container value; `float_vals` when the value type is float.
    Hash {
        float_vals: bool,
    },
    /// An ordered sequence whose order came from unordered iteration.
    TaintedSeq,
    /// A float value derived from an unordered reduction (already flagged).
    Flagged,
}

struct FnScanOut {
    findings: Vec<Finding>,
    returns_tainted: bool,
}

#[derive(Debug, Clone)]
struct VarState {
    hash: bool,
    /// Hash value type is float (`HashMap<K, f64>`).
    float_vals: bool,
    /// Ordered container declared `BTreeMap`/`BTreeSet`.
    btree: bool,
    /// Scalar float (`: f64` or `= 0.0`).
    float: bool,
    /// Order-tainted sequence pending a sort or a sink.
    tainted: Option<Taint>,
}

#[derive(Debug, Clone)]
struct Taint {
    line: u32,
    src: String,
}

impl VarState {
    fn clean() -> VarState {
        VarState { hash: false, float_vals: false, btree: false, float: false, tainted: None }
    }
}

fn scan_fn(
    sf: &SourceFile,
    span: &FnSpan,
    hash_fields: &BTreeSet<String>,
    tainted_fns: &BTreeSet<String>,
    resolvable: &BTreeSet<&str>,
) -> FnScanOut {
    let toks = &sf.tokens;
    let mut vars: BTreeMap<String, VarState> = BTreeMap::new();
    let mut findings: Vec<Finding> = Vec::new();
    let mut returns_tainted = false;
    // vars whose taint escaped via `return` — the finding belongs to callers
    let mut returned: BTreeSet<String> = BTreeSet::new();

    // parameters: `name : [&] [mut] HashMap<..>` at paren depth 1
    parse_params(toks, span, &mut vars);

    let ctx = Ctx { sf, hash_fields, tainted_fns, resolvable, fn_line: span.line };

    let mut i = span.body_start;
    while i < span.body_end {
        let t = &toks[i];
        if t.is_ident("let") {
            i = scan_let(&ctx, i, span.body_end, &mut vars, &mut findings);
            continue;
        }
        if t.is_ident("for") {
            if let Some(next) = scan_for(&ctx, i, span.body_end, &mut vars, &mut findings) {
                i = next;
                continue;
            }
        }
        if t.is_ident("return") {
            let end = stmt_end(toks, i + 1, span.body_end);
            if range_taints(&ctx, i + 1, end, &vars).is_some() {
                returns_tainted = true;
                for (name, v) in vars.iter() {
                    if v.tainted.is_some() && range_mentions(toks, i + 1, end, name) {
                        returned.insert(name.clone());
                    }
                }
            }
            i = end;
            continue;
        }
        // sinks: callee(…tainted…) or tainted.sink()
        if t.kind == TokKind::Ident
            && matches!(toks.get(i + 1), Some(p) if p.is_punct('('))
            && (SINKS.contains(&t.text.as_str()) || t.is_ident("hash"))
        {
            let close = matching_paren(toks, i + 1, span.body_end);
            let mut hit: Option<Taint> = None;
            for (name, v) in vars.iter() {
                if let Some(taint) = &v.tainted {
                    if range_mentions(toks, i + 1, close, name) {
                        hit = Some(taint.clone());
                        break;
                    }
                }
            }
            if hit.is_none() {
                // method form: tainted_var.to_json()
                if let Some(chain) = chain_before(toks, i) {
                    if let Some(v) = vars.get(chain[chain.len() - 1].as_str()) {
                        hit = v.tainted.clone();
                    }
                }
            }
            if hit.is_none() {
                // direct unordered argument: to_json(&tainted_fn()) or
                // to_json(map.keys()…)
                if let Some(src) = iteration_source(&ctx, i + 2, close, &vars) {
                    hit = Some(Taint { line: t.line, src });
                }
            }
            if let Some(taint) = hit {
                findings.push(Finding {
                    rule: Rule::UnorderedFlow,
                    file: sf.rel.clone(),
                    line: t.line,
                    message: format!(
                        "values derived from unordered `{}` iteration (line {}) flow into \
                         `{}` — output depends on HashMap/HashSet iteration order",
                        taint.src, taint.line, t.text
                    ),
                });
                // one finding per flow: the sink consumes the taint
                for v in vars.values_mut() {
                    if let Some(tn) = &v.tainted {
                        if tn.line == taint.line && tn.src == taint.src {
                            v.tainted = None;
                        }
                    }
                }
                i = close + 1;
                continue;
            }
        }
        // later sort on a pending binding clears it
        if let Some((var, next)) = sort_call_at(toks, i) {
            if let Some(v) = vars.get_mut(&var) {
                v.tainted = None;
            }
            i = next;
            continue;
        }
        i += 1;
    }

    // tail expression of the function body counts as a return
    if let Some(tail_start) = tail_expr_start(toks, span.body_start, span.body_end) {
        if range_taints(&ctx, tail_start, span.body_end, &vars).is_some() {
            returns_tainted = true;
            for (name, v) in vars.iter() {
                if v.tainted.is_some() && range_mentions(toks, tail_start, span.body_end, name) {
                    returned.insert(name.clone());
                }
            }
        }
    }

    // pending accumulators that were never sorted, sunk, or handed to the
    // caller: the unsorted order escapes wherever the value goes next
    for (name, v) in &vars {
        if returned.contains(name) {
            continue;
        }
        if let Some(taint) = &v.tainted {
            findings.push(Finding {
                rule: Rule::UnorderedFlow,
                file: sf.rel.clone(),
                line: taint.line,
                message: format!(
                    "`{}` collects values from unordered `{}` iteration and is never \
                     sorted — sort it or collect into a BTree container",
                    name, taint.src
                ),
            });
        }
    }

    FnScanOut { findings, returns_tainted }
}

struct Ctx<'a> {
    sf: &'a SourceFile,
    hash_fields: &'a BTreeSet<String>,
    tainted_fns: &'a BTreeSet<String>,
    resolvable: &'a BTreeSet<&'a str>,
    fn_line: u32,
}

/// Parses `let [mut] <pat> [: <ty>] = <rhs> ;` starting at the `let`.
/// Returns the index just past the statement.
fn scan_let(
    ctx: &Ctx,
    let_i: usize,
    end: usize,
    vars: &mut BTreeMap<String, VarState>,
    findings: &mut Vec<Finding>,
) -> usize {
    let toks = &ctx.sf.tokens;
    let stmt_close = stmt_end(toks, let_i, end);
    // binding name: first ident after `let`/`mut` (tuple and struct patterns
    // taint every ident in the pattern)
    let mut names: Vec<String> = Vec::new();
    let mut j = let_i + 1;
    let mut eq: Option<usize> = None;
    let mut ascription: Vec<&Tok> = Vec::new();
    let mut in_ty = false;
    while j < stmt_close {
        let t = &toks[j];
        if t.is_punct('=') && !matches!(toks.get(j + 1), Some(n) if n.is_punct('=')) {
            eq = Some(j);
            break;
        }
        if t.is_punct(':') && !matches!(toks.get(j + 1), Some(n) if n.is_punct(':')) {
            in_ty = true;
        } else if in_ty {
            ascription.push(t);
        } else if t.kind == TokKind::Ident
            && !t.is_ident("mut")
            && !t.is_ident("ref")
            && !t.text.starts_with(|c: char| c.is_ascii_uppercase())
        {
            // capitalized idents in patterns are enum variants / paths
            // (`if let Some(n) = …`), not bindings
            names.push(t.text.clone());
        }
        j += 1;
    }
    let Some(eq) = eq else { return stmt_close };
    let rhs = (eq + 1, stmt_close);

    let asc_hash = ascription.iter().any(|t| t.is_ident("HashMap") || t.is_ident("HashSet"));
    let asc_btree = ascription.iter().any(|t| t.is_ident("BTreeMap") || t.is_ident("BTreeSet"));
    let asc_float = ascription.iter().any(|t| t.is_ident("f32") || t.is_ident("f64"));

    let eval = eval_range(ctx, rhs.0, rhs.1, vars, findings);
    let mut state = VarState::clean();
    match eval {
        Eval::Hash { float_vals } => {
            state.hash = true;
            state.float_vals = float_vals || asc_float;
        }
        Eval::TaintedSeq => {
            if asc_btree || range_has_btree_collect(toks, rhs.0, rhs.1) {
                state.btree = true; // re-keyed through a sorted container
            } else if asc_hash {
                state.hash = true; // unordered in, unordered container out
            } else {
                let src = iteration_source(ctx, rhs.0, rhs.1, vars)
                    .unwrap_or_else(|| "HashMap".to_string());
                state.tainted = Some(Taint { line: toks[eq].line, src });
            }
        }
        Eval::Clean | Eval::Flagged => {
            state.hash = asc_hash;
            state.btree = asc_btree;
            state.float_vals = asc_float && asc_hash;
            state.float = !asc_hash && (asc_float || range_is_float_literal(toks, rhs.0, rhs.1));
        }
    }
    for name in names {
        vars.insert(name, state.clone());
    }
    stmt_close
}

/// Handles `for <pat> in <iterable> { body }` at the `for` token. Returns
/// the index past the loop when the iterable is an unordered source, `None`
/// to let the main scan continue token-by-token otherwise.
fn scan_for(
    ctx: &Ctx,
    for_i: usize,
    end: usize,
    vars: &mut BTreeMap<String, VarState>,
    findings: &mut Vec<Finding>,
) -> Option<usize> {
    let toks = &ctx.sf.tokens;
    // pattern: tokens between `for` and `in`; iterable: between `in` and `{`
    let mut j = for_i + 1;
    let mut in_i = None;
    while j < end {
        if toks[j].is_ident("in") {
            in_i = Some(j);
            break;
        }
        if toks[j].is_punct('{') {
            return None;
        }
        j += 1;
    }
    let in_i = in_i?;
    let mut brace = in_i + 1;
    while brace < end && !toks[brace].is_punct('{') {
        brace += 1;
    }
    if brace >= end {
        return None;
    }
    let body_end = items::matching_brace(toks, brace, end);

    let src = iteration_source(ctx, in_i + 1, brace, vars)?;
    let float_vals = source_float_vals(ctx, in_i + 1, brace, vars);

    // loop pattern vars are order-tainted within the body; the value side
    // of a `(k, v)` pattern over a float-valued map is a float
    let pat: Vec<String> = toks[for_i + 1..in_i]
        .iter()
        .filter(|t| t.kind == TokKind::Ident && !t.is_ident("mut") && !t.is_ident("ref"))
        .map(|t| t.text.clone())
        .collect();
    let value_var = if pat.len() >= 2 { pat.last().cloned() } else { pat.first().cloned() };

    // locals declared inside the loop body are not accumulators
    let mut inner: BTreeSet<String> = pat.iter().cloned().collect();
    let mut k = brace + 1;
    while k < body_end {
        if toks[k].is_ident("let") {
            let mut m = k + 1;
            while m < body_end && !toks[m].is_punct('=') && !toks[m].is_punct(';') {
                if toks[m].kind == TokKind::Ident
                    && !toks[m].is_ident("mut")
                    && !toks[m].is_ident("ref")
                {
                    inner.insert(toks[m].text.clone());
                }
                if toks[m].is_punct(':') {
                    break;
                }
                m += 1;
            }
        }
        k += 1;
    }

    // writes from the body into outer accumulators
    let mut k = brace + 1;
    while k < body_end {
        let t = &toks[k];
        if t.kind == TokKind::Ident
            && matches!(toks.get(k + 1), Some(p) if p.is_punct('('))
            && matches!(t.text.as_str(), "push" | "push_str" | "extend" | "insert")
        {
            if let Some(chain) = chain_before(toks, k) {
                let target = chain[chain.len() - 1].clone();
                if !inner.contains(&target) {
                    let target_state = vars.get(&target).cloned();
                    let is_btree = target_state.as_ref().is_some_and(|v| v.btree);
                    if is_btree {
                        // BTree re-sorts: deterministic
                    } else if target_state.as_ref().is_some_and(|v| v.hash) {
                        findings.push(Finding {
                            rule: Rule::UnorderedFlow,
                            file: ctx.sf.rel.clone(),
                            line: t.line,
                            message: format!(
                                "iteration over unordered `{src}` writes into `{target}`, \
                                 itself unordered — the flow never regains a deterministic \
                                 order; use BTreeMap/BTreeSet"
                            ),
                        });
                    } else if let Some(v) = vars.get_mut(&target) {
                        // Vec/String accumulator: pending until sorted/sunk
                        if v.tainted.is_none() {
                            v.tainted = Some(Taint { line: t.line, src: src.clone() });
                        }
                    } else {
                        vars.insert(
                            target.clone(),
                            VarState {
                                tainted: Some(Taint { line: t.line, src: src.clone() }),
                                ..VarState::clean()
                            },
                        );
                    }
                }
            }
            k += 2;
            continue;
        }
        // `acc += v` — integer counters are commutative, floats are not
        if t.is_punct('+')
            && matches!(toks.get(k + 1), Some(p) if p.is_punct('='))
            && matches!(toks.get(k.wrapping_sub(1)), Some(v) if v.kind == TokKind::Ident)
        {
            let target = &toks[k - 1].text;
            if !inner.contains(target) {
                let stmt_close = stmt_end(toks, k + 2, body_end);
                let target_float = vars.get(target).is_some_and(|v| v.float);
                let value_float = float_vals
                    && value_var
                        .as_ref()
                        .is_some_and(|v| range_mentions(toks, k + 2, stmt_close, v));
                let literal_float = range_is_float_literal(toks, k + 2, stmt_close);
                if target_float || value_float || literal_float {
                    findings.push(Finding {
                        rule: Rule::FloatReduction,
                        file: ctx.sf.rel.clone(),
                        line: t.line,
                        message: format!(
                            "float accumulation over unordered `{src}` iteration — float \
                             addition is not associative, so the sum depends on iteration \
                             order; iterate a BTree container or sum a sorted Vec"
                        ),
                    });
                }
            }
        }
        k += 1;
    }
    Some(body_end + 1)
}

/// Evaluates an expression range: does it produce an unordered value, and
/// does it contain a float reduction over one? Pushes [`Rule::FloatReduction`]
/// findings for in-range `sum`/`fold` reductions directly.
fn eval_range(
    ctx: &Ctx,
    start: usize,
    end: usize,
    vars: &BTreeMap<String, VarState>,
    findings: &mut Vec<Finding>,
) -> Eval {
    let toks = &ctx.sf.tokens;
    let Some(src) = iteration_source(ctx, start, end, vars) else {
        // bare hash construction / alias?
        if range_constructs_hash(toks, start, end) {
            let float_vals = range_has_float(toks, start, end);
            return Eval::Hash { float_vals };
        }
        if let Some(state) = range_alias(toks, start, end, vars) {
            return state;
        }
        return Eval::Clean;
    };
    let float_vals = source_float_vals(ctx, start, end, vars);

    // reduction forms inside the same statement
    let mut i = start;
    while i < end {
        let t = &toks[i];
        if t.kind == TokKind::Ident
            && matches!(toks.get(i + 1), Some(p) if p.is_punct('('))
            && (t.is_ident("sum") || t.is_ident("fold") || t.is_ident("product"))
            && matches!(toks.get(i.wrapping_sub(1)), Some(d) if d.is_punct('.'))
        {
            let close = matching_paren(toks, i + 1, end);
            let float = float_vals
                || range_has_float(toks, start, end)
                || range_is_float_literal_anywhere(toks, i + 1, close);
            if float {
                findings.push(Finding {
                    rule: Rule::FloatReduction,
                    file: ctx.sf.rel.clone(),
                    line: t.line,
                    message: format!(
                        "float `{}` over unordered `{src}` iteration — float addition is \
                         not associative, so the result depends on iteration order",
                        t.text
                    ),
                });
                return Eval::Flagged;
            }
            return Eval::Clean; // integer reduction: commutative
        }
        if t.kind == TokKind::Ident
            && matches!(toks.get(i + 1), Some(p) if p.is_punct('('))
            && SCALAR_REDUCERS.contains(&t.text.as_str())
            && matches!(toks.get(i.wrapping_sub(1)), Some(d) if d.is_punct('.'))
        {
            return Eval::Clean; // order-insensitive scalar
        }
        i += 1;
    }
    if range_has_btree_collect(toks, start, end) {
        return Eval::Clean;
    }
    let _ = ctx.fn_line;
    Eval::TaintedSeq
}

/// First unordered iteration source in the range: a hash receiver feeding
/// an iterator method, a bare `&hashvar` iterable, or a call to a function
/// known to return an unordered value. Returns a display name.
fn iteration_source(
    ctx: &Ctx,
    start: usize,
    end: usize,
    vars: &BTreeMap<String, VarState>,
) -> Option<String> {
    let toks = &ctx.sf.tokens;
    let is_hash = |name: &str| -> bool {
        vars.get(name).is_some_and(|v| v.hash) || ctx.hash_fields.contains(name)
    };
    let mut i = start;
    while i < end {
        let t = &toks[i];
        if t.kind == TokKind::Ident
            && ITER_METHODS.contains(&t.text.as_str())
            && matches!(toks.get(i + 1), Some(p) if p.is_punct('('))
        {
            if let Some(chain) = chain_before(toks, i) {
                let recv = &chain[chain.len() - 1];
                if is_hash(recv) {
                    return Some(recv.clone());
                }
            }
        }
        // calls to workspace fns whose return is unordered
        if t.kind == TokKind::Ident
            && matches!(toks.get(i + 1), Some(p) if p.is_punct('('))
            && ctx.resolvable.contains(t.text.as_str())
            && ctx.tainted_fns.contains(&t.text)
        {
            return Some(format!("{}()", t.text));
        }
        // bare iterable: `&map` / `map` as the whole range (for-loop form)
        if t.kind == TokKind::Ident && is_hash(&t.text) {
            let prev_ok = i == start
                || toks[i - 1].is_punct('&')
                || toks[i - 1].is_ident("mut")
                || toks[i - 1].is_punct('.');
            // the range must END at the bare name (`for x in &map {`) —
            // a following `.` means a method chain, judged by the rules
            // above (`open.get_mut(..)` is not an iteration)
            let next_iter_or_end = i + 1 >= end || toks[i + 1].is_punct('{');
            if prev_ok && next_iter_or_end && !matches!(toks.get(i + 1), Some(p) if p.is_punct('('))
            {
                return Some(t.text.clone());
            }
        }
        i += 1;
    }
    None
}

/// Whether the unordered source in the range carries float values.
fn source_float_vals(
    ctx: &Ctx,
    start: usize,
    end: usize,
    vars: &BTreeMap<String, VarState>,
) -> bool {
    let toks = &ctx.sf.tokens;
    toks[start..end].iter().any(|t| {
        t.kind == TokKind::Ident && vars.get(&t.text).is_some_and(|v| v.hash && v.float_vals)
    }) || range_has_float(toks, start, end)
}

/// `HashMap::new()` / `HashSet::from(..)` style construction in range.
fn range_constructs_hash(toks: &[Tok], start: usize, end: usize) -> bool {
    toks[start..end].iter().any(|t| t.is_ident("HashMap") || t.is_ident("HashSet"))
}

/// Whole-range alias of an existing variable: `= var;` or `= var.clone();`.
fn range_alias(
    toks: &[Tok],
    start: usize,
    end: usize,
    vars: &BTreeMap<String, VarState>,
) -> Option<Eval> {
    let mut idents: Vec<&str> = Vec::new();
    for t in &toks[start..end] {
        if t.kind == TokKind::Ident && !t.is_ident("clone") {
            idents.push(&t.text);
        }
    }
    if idents.len() != 1 {
        return None;
    }
    let v = vars.get(idents[0])?;
    if v.hash {
        Some(Eval::Hash { float_vals: v.float_vals })
    } else if v.tainted.is_some() {
        Some(Eval::TaintedSeq)
    } else {
        None
    }
}

fn range_has_btree_collect(toks: &[Tok], start: usize, end: usize) -> bool {
    toks[start..end].iter().any(|t| t.is_ident("BTreeMap") || t.is_ident("BTreeSet"))
}

fn range_has_float(toks: &[Tok], start: usize, end: usize) -> bool {
    toks[start..end].iter().any(|t| t.is_ident("f32") || t.is_ident("f64"))
}

/// The range is exactly a float literal (counter init `= 0.0`).
fn range_is_float_literal(toks: &[Tok], start: usize, end: usize) -> bool {
    let lits: Vec<&Tok> = toks[start..end].iter().collect();
    lits.len() == 1 && is_float_literal(lits[0])
}

fn range_is_float_literal_anywhere(toks: &[Tok], start: usize, end: usize) -> bool {
    toks[start..end.min(toks.len())].iter().any(is_float_literal)
}

fn is_float_literal(t: &Tok) -> bool {
    t.kind == TokKind::Literal
        && t.text.contains('.')
        && t.text.chars().next().is_some_and(|c| c.is_ascii_digit())
}

/// Whether any tainted/hash var or iteration source appears in the range.
fn range_taints(
    ctx: &Ctx,
    start: usize,
    end: usize,
    vars: &BTreeMap<String, VarState>,
) -> Option<String> {
    let toks = &ctx.sf.tokens;
    for t in &toks[start..end] {
        if t.kind == TokKind::Ident {
            if let Some(v) = vars.get(&t.text) {
                if let Some(taint) = &v.tainted {
                    return Some(taint.src.clone());
                }
            }
        }
    }
    iteration_source(ctx, start, end, vars)
}

fn range_mentions(toks: &[Tok], start: usize, end: usize, name: &str) -> bool {
    toks[start..end.min(toks.len())].iter().any(|t| t.is_ident(name))
}

/// `var.sort()` / `.sort_by(..)` etc at token `i`: returns the receiver and
/// the index past the call opener.
fn sort_call_at(toks: &[Tok], i: usize) -> Option<(String, usize)> {
    let t = toks.get(i)?;
    if t.kind != TokKind::Ident || !t.text.starts_with("sort") {
        return None;
    }
    if !matches!(toks.get(i + 1), Some(p) if p.is_punct('(')) {
        return None;
    }
    let chain = chain_before(toks, i)?;
    Some((chain[chain.len() - 1].clone(), i + 2))
}

/// Walks the `.`-joined ident chain ending at the `.` before token `i`
/// (`self.open.iter` at `iter` → `["self", "open"]`).
fn chain_before(toks: &[Tok], i: usize) -> Option<Vec<String>> {
    if i == 0 || !toks[i - 1].is_punct('.') {
        return None;
    }
    let mut segs: Vec<String> = Vec::new();
    let mut j = i - 1; // the `.`
    loop {
        if j == 0 {
            break;
        }
        let prev = &toks[j - 1];
        if prev.kind == TokKind::Ident {
            segs.push(prev.text.clone());
            if j == 1 {
                break;
            }
            if toks[j - 2].is_punct('.') {
                j -= 2;
            } else {
                break;
            }
        } else if prev.is_punct(')') {
            return None; // computed receiver
        } else {
            break;
        }
    }
    if segs.is_empty() {
        return None;
    }
    segs.reverse();
    Some(segs)
}

/// Index just past the `;` ending the statement that starts at `i`
/// (tracking paren/brace nesting), or `end`.
fn stmt_end(toks: &[Tok], i: usize, end: usize) -> usize {
    let (mut paren, mut brace, mut bracket) = (0i32, 0i32, 0i32);
    let mut j = i;
    while j < end {
        let t = &toks[j];
        if t.is_punct('(') {
            paren += 1;
        } else if t.is_punct(')') {
            paren -= 1;
        } else if t.is_punct('[') {
            bracket += 1;
        } else if t.is_punct(']') {
            bracket -= 1;
        } else if t.is_punct('{') {
            brace += 1;
        } else if t.is_punct('}') {
            if brace == 0 {
                return j;
            }
            brace -= 1;
        } else if t.is_punct(';') && paren == 0 && brace == 0 && bracket == 0 {
            return j + 1;
        }
        j += 1;
    }
    end
}

/// Start of the body's trailing expression (no `;` after it), if any.
fn tail_expr_start(toks: &[Tok], start: usize, end: usize) -> Option<usize> {
    // last top-level `;` or block close before `end`
    let mut last_stmt = start;
    let mut j = start;
    let (mut paren, mut brace) = (0i32, 0i32);
    while j < end {
        let t = &toks[j];
        if t.is_punct('(') {
            paren += 1;
        } else if t.is_punct(')') {
            paren -= 1;
        } else if t.is_punct('{') {
            brace += 1;
        } else if t.is_punct('}') {
            brace -= 1;
            if brace == 0 && paren == 0 {
                last_stmt = j + 1;
            }
        } else if t.is_punct(';') && paren == 0 && brace == 0 {
            last_stmt = j + 1;
        }
        j += 1;
    }
    (last_stmt < end).then_some(last_stmt)
}

/// Hash-typed names declared at item level (struct/enum fields): tokens
/// outside every function body matching `name : … HashMap/HashSet <`.
fn collect_hash_fields(sf: &SourceFile, fns: &[FnSpan], out: &mut BTreeSet<String>) {
    let toks = &sf.tokens;
    let mut in_fn = vec![false; toks.len()];
    for f in fns {
        for slot in in_fn.iter_mut().take(f.body_end.min(toks.len())).skip(f.body_start) {
            *slot = true;
        }
    }
    for i in 0..toks.len() {
        if in_fn[i] {
            continue;
        }
        let t = &toks[i];
        if (t.is_ident("HashMap") || t.is_ident("HashSet"))
            && matches!(toks.get(i + 1), Some(a) if a.is_punct('<'))
        {
            // walk left over the path / references to the `name :` intro
            let mut j = i;
            while j > 0 {
                let p = &toks[j - 1];
                if p.kind == TokKind::Ident
                    || p.is_punct(':')
                    || p.is_punct('&')
                    || p.is_punct('\'')
                {
                    j -= 1;
                } else {
                    break;
                }
            }
            if j >= 1 && toks[j].kind == TokKind::Ident && !in_fn[j] {
                // `pub name : std :: collections :: HashMap <`
                let name = &toks[j];
                if matches!(toks.get(j + 1), Some(c) if c.is_punct(':'))
                    && !matches!(toks.get(j + 2), Some(c) if c.is_punct(':'))
                {
                    out.insert(name.text.clone());
                }
            }
        }
    }
}

fn parse_params(toks: &[Tok], span: &FnSpan, vars: &mut BTreeMap<String, VarState>) {
    // signature: from `fn` to the body `{`
    let mut i = span.sig_start;
    let mut open = None;
    while i < span.body_start {
        if toks[i].is_punct('(') {
            open = Some(i);
            break;
        }
        i += 1;
    }
    let Some(open) = open else { return };
    let close = matching_paren(toks, open, span.body_start);
    let mut i = open + 1;
    while i < close {
        // `name :` at depth 1
        if toks[i].kind == TokKind::Ident
            && matches!(toks.get(i + 1), Some(c) if c.is_punct(':'))
            && !matches!(toks.get(i + 2), Some(c) if c.is_punct(':'))
        {
            let name = toks[i].text.clone();
            // type tokens to the next top-level `,`
            let mut j = i + 2;
            let mut depth = 0i32;
            let mut hash = false;
            let mut float = false;
            while j < close {
                let t = &toks[j];
                if t.is_punct('<') || t.is_punct('(') {
                    depth += 1;
                } else if t.is_punct('>') || t.is_punct(')') {
                    depth -= 1;
                } else if t.is_punct(',') && depth == 0 {
                    break;
                } else if t.is_ident("HashMap") || t.is_ident("HashSet") {
                    hash = true;
                } else if t.is_ident("f32") || t.is_ident("f64") {
                    float = true;
                }
                j += 1;
            }
            if hash {
                vars.insert(name, VarState { hash: true, float_vals: float, ..VarState::clean() });
            }
            i = j;
            continue;
        }
        i += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::CrateKind;

    fn findings(src: &str) -> Vec<Finding> {
        check(&[SourceFile::parse("t.rs", CrateKind::Library, src)])
    }

    #[test]
    fn unsorted_keys_collect_is_flagged() {
        let f = findings(
            "fn f(m: &std::collections::HashMap<String, u64>) -> Vec<String> {\n\
             let keys: Vec<String> = m.keys().cloned().collect();\n keys\n}\n\
             fn user() { let v = f(&make()); export_state(&v); }",
        );
        assert!(
            f.iter().any(|x| x.rule == Rule::UnorderedFlow && x.message.contains("export_state")),
            "{f:#?}"
        );
    }

    #[test]
    fn sorted_collect_is_clean() {
        let f = findings(
            "fn f(m: &std::collections::HashMap<String, u64>) {\n\
             let mut keys: Vec<String> = m.keys().cloned().collect();\n\
             keys.sort();\n to_json(&keys);\n}",
        );
        assert!(f.is_empty(), "{f:#?}");
    }

    #[test]
    fn tainted_var_into_sink_is_flagged() {
        let f = findings(
            "fn f(m: &std::collections::HashMap<String, u64>) -> String {\n\
             let keys: Vec<&String> = m.keys().collect();\n to_json(&keys)\n}",
        );
        assert_eq!(f.len(), 1, "{f:#?}");
        assert_eq!(f[0].rule, Rule::UnorderedFlow);
        assert!(f[0].message.contains("to_json"));
    }

    #[test]
    fn loop_push_into_outer_vec_is_flagged_unless_sorted() {
        let dirty = findings(
            "fn f(m: &std::collections::HashMap<u64, u64>) -> Vec<u64> {\n\
             let mut out = Vec::new();\n for (k, _) in m.iter() { out.push(*k); }\n out\n}\n\
             fn user() { to_json(&f(&make())); }",
        );
        assert!(dirty.iter().any(|x| x.rule == Rule::UnorderedFlow), "{dirty:#?}");
        let clean = findings(
            "fn f(m: &std::collections::HashMap<u64, u64>) -> Vec<u64> {\n\
             let mut out = Vec::new();\n for (k, _) in m.iter() { out.push(*k); }\n\
             out.sort();\n out\n}",
        );
        assert!(clean.is_empty(), "{clean:#?}");
    }

    #[test]
    fn accumulating_into_another_hash_container_is_flagged() {
        let f = findings(
            "fn f(open: &std::collections::HashMap<u64, usize>) {\n\
             let mut keep: std::collections::HashSet<u64> = std::collections::HashSet::new();\n\
             for (trace, n) in open.iter() { if *n > 0 { keep.insert(*trace); } }\n}",
        );
        assert_eq!(f.len(), 1, "{f:#?}");
        assert!(f[0].message.contains("keep"), "{f:#?}");
    }

    #[test]
    fn btree_accumulator_is_clean() {
        let f = findings(
            "fn f(m: &std::collections::HashMap<u64, usize>) {\n\
             let mut keep: std::collections::BTreeSet<u64> = std::collections::BTreeSet::new();\n\
             for (k, _) in m.iter() { keep.insert(*k); }\n}",
        );
        assert!(f.is_empty(), "{f:#?}");
    }

    #[test]
    fn for_over_reference_to_map_is_a_source() {
        let f = findings(
            "fn f() {\n let mut m: std::collections::HashMap<u64, u64> = \
             std::collections::HashMap::new();\n let mut out = String::new();\n\
             for (k, v) in &m { out.push_str(&format!(\"{k}={v}\")); }\n}",
        );
        assert_eq!(f.len(), 1, "{f:#?}");
        assert!(f[0].message.contains("never"), "{f:#?}");
    }

    #[test]
    fn float_sum_over_unordered_values_is_flagged() {
        let f = findings(
            "fn f(m: &std::collections::HashMap<String, f64>) -> f64 {\n\
             let total: f64 = m.values().sum();\n total\n}",
        );
        assert_eq!(f.len(), 1, "{f:#?}");
        assert_eq!(f[0].rule, Rule::FloatReduction);
    }

    #[test]
    fn integer_sum_over_unordered_values_is_clean() {
        let f = findings(
            "fn f(m: &std::collections::HashMap<String, u64>) -> u64 {\n\
             let total: u64 = m.values().sum();\n total\n}",
        );
        assert!(f.is_empty(), "{f:#?}");
    }

    #[test]
    fn float_accumulate_in_loop_is_flagged() {
        let f = findings(
            "fn f(m: &std::collections::HashMap<String, f64>) -> f64 {\n\
             let mut total = 0.0;\n for (_, v) in m.iter() { total += *v; }\n total\n}",
        );
        assert_eq!(f.len(), 1, "{f:#?}");
        assert_eq!(f[0].rule, Rule::FloatReduction);
    }

    #[test]
    fn integer_counter_in_loop_is_clean() {
        let f = findings(
            "fn f(m: &std::collections::HashMap<String, u64>) -> u64 {\n\
             let mut n = 0;\n for (_, v) in m.iter() { n += *v; }\n n\n}",
        );
        assert!(f.is_empty(), "{f:#?}");
    }

    #[test]
    fn scalar_reducers_launder_the_source() {
        let f = findings(
            "fn f(m: &std::collections::HashMap<String, u64>) -> usize {\n\
             let n = m.keys().count();\n let has = m.contains_key(\"x\");\n\
             if has { n } else { 0 }\n}",
        );
        assert!(f.is_empty(), "{f:#?}");
    }

    #[test]
    fn btree_collect_launders_the_source() {
        let f = findings(
            "fn f(m: &std::collections::HashMap<String, u64>) -> String {\n\
             let sorted: std::collections::BTreeMap<String, u64> = \
             m.iter().map(|(k, v)| (k.clone(), *v)).collect();\n to_json(&sorted)\n}",
        );
        assert!(f.is_empty(), "{f:#?}");
    }

    #[test]
    fn taint_propagates_through_function_returns() {
        let f = findings(
            "fn helper(m: &std::collections::HashMap<String, u64>) -> Vec<String> {\n\
             let keys: Vec<String> = m.keys().cloned().collect();\n keys\n}\n\
             fn export(m: &std::collections::HashMap<String, u64>) -> String {\n\
             let keys = helper(m);\n to_json(&keys)\n}",
        );
        assert_eq!(f.len(), 1, "{f:#?}");
        assert!(f[0].message.contains("to_json"), "{f:#?}");
        assert!(f[0].file == "t.rs");
    }

    #[test]
    fn caller_sorting_the_returned_value_is_clean() {
        let f = findings(
            "fn helper(m: &std::collections::HashMap<String, u64>) -> Vec<String> {\n\
             let keys: Vec<String> = m.keys().cloned().collect();\n keys\n}\n\
             fn export(m: &std::collections::HashMap<String, u64>) -> String {\n\
             let mut keys = helper(m);\n keys.sort();\n to_json(&keys)\n}",
        );
        assert!(f.is_empty(), "{f:#?}");
    }

    #[test]
    fn struct_fields_declared_hash_are_sources() {
        let f = findings(
            "struct S { open: std::collections::HashMap<u64, usize> }\n\
             impl S {\n fn dump(&self) -> String {\n\
             let ids: Vec<u64> = self.open.keys().copied().collect();\n to_json(&ids)\n}\n}",
        );
        assert_eq!(f.len(), 1, "{f:#?}");
    }

    #[test]
    fn test_code_is_exempt() {
        let f = findings(
            "#[cfg(test)]\nmod tests {\n fn f(m: &std::collections::HashMap<String, u64>) {\n\
             let keys: Vec<&String> = m.keys().collect();\n to_json(&keys);\n }\n}",
        );
        assert!(f.is_empty(), "{f:#?}");
    }
}
