//! Lock-order analysis: extracts every `.lock()` / argless `.read()` /
//! `.write()` acquisition site, tracks which guards are still held when
//! later acquisitions, calls, `spawn`s and channel `send`s happen, resolves
//! nested acquisitions intra- and inter-procedurally (a bounded name-based
//! call graph with a may-acquire fixpoint), and reports:
//!
//! - **cycles** in the lock-acquisition graph (`A` held while taking `B` in
//!   one place, `B` held while taking `A` in another) — potential
//!   deadlocks;
//! - **re-acquisition** of a lock already held (parking_lot primitives are
//!   not reentrant);
//! - guards **held across `spawn`/`send`** — a classic way to ship a
//!   deadlock to another thread.
//!
//! Lock identity is heuristic: `self.field` receivers are keyed by
//! `ImplType.field` (shared across all methods of the type), free local
//! variables by `fn::var` (function-scoped). The analysis is a
//! token-level approximation — its findings feed the ratcheting baseline,
//! not a proof — but its false-negative direction is safe: it never
//! suppresses a real cycle that its extraction saw.

use std::collections::{BTreeMap, BTreeSet};

use crate::items::{self, MAX_CALLEE_CANDIDATES};
use crate::lexer::TokKind;
use crate::source::SourceFile;
use crate::{Finding, Rule};

/// One acquisition-ordering edge: `from` was held at `file:line` while
/// `to` was acquired (directly, or transitively through `via`).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Edge {
    /// Lock already held.
    pub from: String,
    /// Lock acquired while `from` was held.
    pub to: String,
    /// Site of the nested acquisition / the call that leads to it.
    pub file: String,
    /// 1-based line of the site.
    pub line: u32,
    /// Call chain hop for interprocedural edges (empty when direct).
    pub via: String,
}

/// Everything extracted from one function body.
#[derive(Debug, Default)]
struct FnData {
    qual: String,
    file: String,
    /// Locks acquired anywhere in the body (seed of the may-acquire set).
    direct: BTreeSet<String>,
    /// Direct nested-acquisition edges.
    edges: Vec<Edge>,
    /// `(held locks, callee bare name, line)` for every call made while at
    /// least zero locks were held (all calls — the fixpoint needs them).
    calls: Vec<(Vec<String>, String, u32)>,
    findings: Vec<Finding>,
}

/// The whole-workspace result: ordering edges plus per-site findings.
#[derive(Debug, Default)]
pub struct LockReport {
    /// Deduplicated acquisition-ordering edges.
    pub edges: Vec<Edge>,
    /// Cycle / re-acquisition / held-across-spawn findings.
    pub findings: Vec<Finding>,
}

/// Runs the analysis over every file of the workspace at once (edges cross
/// file and crate boundaries).
pub fn check(files: &[SourceFile]) -> LockReport {
    let mut fns: Vec<FnData> = Vec::new();
    for sf in files {
        for f in items::functions(sf).into_iter().filter(|f| !f.in_test) {
            fns.push(scan_fn_body(sf, &f.qual, f.body_start, f.body_end));
        }
    }

    // name → candidate functions, for bounded call resolution
    let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    for (i, f) in fns.iter().enumerate() {
        let bare = f.qual.rsplit("::").next().unwrap_or(&f.qual);
        by_name.entry(bare).or_default().push(i);
    }
    by_name.retain(|_, v| v.len() <= MAX_CALLEE_CANDIDATES);

    // may-acquire fixpoint over the call graph
    let mut may: Vec<BTreeSet<String>> = fns.iter().map(|f| f.direct.clone()).collect();
    loop {
        let mut changed = false;
        for i in 0..fns.len() {
            for (_, callee, _) in &fns[i].calls {
                let Some(cands) = by_name.get(callee.as_str()) else { continue };
                for &c in cands {
                    if c == i {
                        continue;
                    }
                    let add: Vec<String> =
                        may[c].iter().filter(|l| !may[i].contains(*l)).cloned().collect();
                    if !add.is_empty() {
                        changed = true;
                        may[i].extend(add);
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }

    // interprocedural edges: a call made under a held lock orders that lock
    // before everything the callee may acquire
    let mut edges: BTreeSet<Edge> = BTreeSet::new();
    let mut findings: Vec<Finding> = Vec::new();
    for f in &fns {
        edges.extend(f.edges.iter().cloned());
        findings.extend(f.findings.iter().cloned());
        for (held, callee, line) in &f.calls {
            if held.is_empty() {
                continue;
            }
            let Some(cands) = by_name.get(callee.as_str()) else { continue };
            let mut reach: BTreeSet<&String> = BTreeSet::new();
            for &c in cands {
                if fns[c].qual != f.qual {
                    reach.extend(may[c].iter());
                }
            }
            for a in held {
                for &b in &reach {
                    edges.insert(Edge {
                        from: a.clone(),
                        to: b.clone(),
                        file: f.file.clone(),
                        line: *line,
                        via: callee.clone(),
                    });
                }
            }
        }
    }

    findings.extend(cycle_findings(&edges));
    findings.sort_by(|a, b| (&a.file, a.line, &a.message).cmp(&(&b.file, b.line, &b.message)));
    findings.dedup_by(|a, b| a.file == b.file && a.line == b.line && a.message == b.message);
    LockReport { edges: edges.into_iter().collect(), findings }
}

/// Strongly-connected components of the edge graph; every SCC with two or
/// more locks (or a lock with a self-edge) is a potential deadlock.
fn cycle_findings(edges: &BTreeSet<Edge>) -> Vec<Finding> {
    let mut adj: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    for e in edges {
        adj.entry(&e.from).or_default().insert(&e.to);
        adj.entry(&e.to).or_default();
    }
    let sccs = tarjan(&adj);
    let mut out = Vec::new();
    for scc in sccs {
        let self_edge = scc.len() == 1 && adj[scc[0]].contains(scc[0]);
        if scc.len() < 2 && !self_edge {
            continue;
        }
        let members: BTreeSet<&str> = scc.iter().copied().collect();
        let mut sites: Vec<&Edge> = edges
            .iter()
            .filter(|e| members.contains(e.from.as_str()) && members.contains(e.to.as_str()))
            .collect();
        sites.sort_by_key(|e| (&e.file, e.line));
        let site = sites[0];
        let shown: Vec<String> = sites
            .iter()
            .take(4)
            .map(|e| {
                if e.via.is_empty() {
                    format!("{} -> {} at {}:{}", e.from, e.to, e.file, e.line)
                } else {
                    format!("{} -> {} via {}() at {}:{}", e.from, e.to, e.via, e.file, e.line)
                }
            })
            .collect();
        let locks: Vec<&str> = members.iter().copied().collect();
        out.push(Finding {
            rule: Rule::LockOrder,
            file: site.file.clone(),
            line: site.line,
            message: format!(
                "potential deadlock: lock-order cycle over {{{}}} ({})",
                locks.join(", "),
                shown.join("; ")
            ),
        });
    }
    out
}

/// Iterative Tarjan SCC over the deterministic adjacency map.
fn tarjan<'a>(adj: &BTreeMap<&'a str, BTreeSet<&'a str>>) -> Vec<Vec<&'a str>> {
    #[derive(Default, Clone)]
    struct NodeState {
        index: Option<usize>,
        lowlink: usize,
        on_stack: bool,
    }
    let nodes: Vec<&str> = adj.keys().copied().collect();
    let mut state: BTreeMap<&str, NodeState> = BTreeMap::new();
    let mut stack: Vec<&str> = Vec::new();
    let mut next_index = 0usize;
    let mut sccs: Vec<Vec<&str>> = Vec::new();

    for &root in &nodes {
        if state.get(root).and_then(|s| s.index).is_some() {
            continue;
        }
        // explicit DFS stack: (node, next neighbor position)
        let mut work: Vec<(&str, usize)> = vec![(root, 0)];
        while let Some(&(v, ni)) = work.last() {
            if ni == 0 {
                let s = state.entry(v).or_default();
                if s.index.is_none() {
                    s.index = Some(next_index);
                    s.lowlink = next_index;
                    s.on_stack = true;
                    next_index += 1;
                    stack.push(v);
                }
            }
            let next = adj[v].iter().nth(ni).copied();
            if let Some(w) = next {
                if let Some(top) = work.last_mut() {
                    top.1 += 1;
                }
                let ws = state.entry(w).or_default().clone();
                if ws.index.is_none() {
                    work.push((w, 0));
                } else if ws.on_stack {
                    let wi = ws.index.unwrap_or(0);
                    let sv = state.entry(v).or_default();
                    sv.lowlink = sv.lowlink.min(wi);
                }
            } else {
                work.pop();
                let (vlow, vindex) = {
                    let s = &state[v];
                    (s.lowlink, s.index.unwrap_or(0))
                };
                if let Some(&(parent, _)) = work.last() {
                    let ps = state.entry(parent).or_default();
                    ps.lowlink = ps.lowlink.min(vlow);
                }
                if vlow == vindex {
                    let mut scc = Vec::new();
                    while let Some(w) = stack.pop() {
                        state.entry(w).or_default().on_stack = false;
                        scc.push(w);
                        if w == v {
                            break;
                        }
                    }
                    scc.sort_unstable();
                    sccs.push(scc);
                }
            }
        }
    }
    sccs.sort();
    sccs
}

/// Keywords and control forms that look like `ident (` but are not calls.
fn is_keyword(s: &str) -> bool {
    matches!(
        s,
        "if" | "while"
            | "for"
            | "match"
            | "loop"
            | "return"
            | "break"
            | "continue"
            | "move"
            | "unsafe"
            | "as"
            | "in"
            | "else"
            | "let"
            | "fn"
            | "impl"
            | "struct"
            | "enum"
            | "ref"
            | "mut"
            | "pub"
            | "where"
            | "Some"
            | "None"
            | "Ok"
            | "Err"
            | "Box"
            | "Vec"
            | "vec"
            | "assert"
            | "debug_assert"
    )
}

/// One guard currently held during the body scan.
struct Held {
    lock: String,
    /// Brace depth the guard was created at.
    depth: i32,
    /// Statement temporary: released at the next `;`/`{`/`}` at `depth`.
    at_stmt_end: bool,
    /// Let-bound guard variable, for `drop(var)` release.
    var: Option<String>,
}

/// Scans one function body, producing its acquisitions, ordering edges,
/// calls and spawn/send findings.
fn scan_fn_body(sf: &SourceFile, qual: &str, start: usize, end: usize) -> FnData {
    let toks = &sf.tokens;
    let mut data = FnData { qual: qual.to_string(), file: sf.rel.clone(), ..FnData::default() };
    let mut held: Vec<Held> = Vec::new();
    let mut depth = 0i32;

    let mut i = start;
    while i < end {
        let t = &toks[i];
        if t.is_punct('{') {
            held.retain(|h| !(h.at_stmt_end && h.depth == depth));
            depth += 1;
        } else if t.is_punct('}') {
            depth -= 1;
            // let-bound guards die with their block; temporaries at the new
            // depth end with the statement the block belonged to
            held.retain(|h| h.depth <= depth && !(h.at_stmt_end && h.depth == depth));
        } else if t.is_punct(';') {
            held.retain(|h| !(h.at_stmt_end && h.depth == depth));
        } else if t.is_ident("drop")
            && matches!(toks.get(i + 1), Some(p) if p.is_punct('('))
            && matches!(toks.get(i + 2), Some(v) if v.kind == TokKind::Ident)
            && matches!(toks.get(i + 3), Some(p) if p.is_punct(')'))
        {
            let var = &toks[i + 2].text;
            held.retain(|h| h.var.as_deref() != Some(var.as_str()));
            i += 4;
            continue;
        } else if let Some(acq) = acquisition_at(sf, qual, i) {
            for h in &held {
                if h.lock == acq.lock {
                    data.findings.push(Finding {
                        rule: Rule::LockOrder,
                        file: sf.rel.clone(),
                        line: t.line,
                        message: format!(
                            "lock `{}` re-acquired while already held (non-reentrant)",
                            acq.lock
                        ),
                    });
                } else {
                    data.edges.push(Edge {
                        from: h.lock.clone(),
                        to: acq.lock.clone(),
                        file: sf.rel.clone(),
                        line: t.line,
                        via: String::new(),
                    });
                }
            }
            data.direct.insert(acq.lock.clone());
            held.push(Held { lock: acq.lock, depth, at_stmt_end: !acq.let_bound, var: acq.var });
            i += 3; // past `name ( )`
            continue;
        } else if t.kind == TokKind::Ident
            && matches!(toks.get(i + 1), Some(p) if p.is_punct('('))
            && !is_keyword(&t.text)
            && !matches!(toks.get(i.wrapping_sub(1)), Some(k) if k.is_ident("fn"))
        {
            let is_spawn = t.text == "spawn";
            let is_send = (t.text == "send" || t.text == "try_send")
                && matches!(toks.get(i.wrapping_sub(1)), Some(d) if d.is_punct('.'));
            if (is_spawn || is_send) && !held.is_empty() {
                let locks: Vec<&str> = held.iter().map(|h| h.lock.as_str()).collect();
                data.findings.push(Finding {
                    rule: Rule::LockAcrossSpawn,
                    file: sf.rel.clone(),
                    line: t.line,
                    message: format!(
                        "guard(s) {{{}}} held across `{}` — release before handing \
                         control to another thread/channel",
                        locks.join(", "),
                        t.text
                    ),
                });
            } else if !is_spawn && !is_send {
                let held_now: Vec<String> = held.iter().map(|h| h.lock.clone()).collect();
                data.calls.push((held_now, t.text.clone(), t.line));
            }
        }
        i += 1;
    }
    data
}

struct Acq {
    lock: String,
    let_bound: bool,
    var: Option<String>,
}

/// Detects `<receiver>.lock()` / `.read()` / `.write()` (argless) at token
/// `i` and resolves the receiver chain into a lock identity.
fn acquisition_at(sf: &SourceFile, qual: &str, i: usize) -> Option<Acq> {
    let toks = &sf.tokens;
    let t = &toks[i];
    if !(t.is_ident("lock") || t.is_ident("read") || t.is_ident("write")) {
        return None;
    }
    if !matches!(toks.get(i.wrapping_sub(1)), Some(d) if d.is_punct('.')) {
        return None;
    }
    if !(matches!(toks.get(i + 1), Some(o) if o.is_punct('('))
        && matches!(toks.get(i + 2), Some(c) if c.is_punct(')')))
    {
        return None;
    }
    // walk the receiver chain backwards: idents joined by `.` / `::`
    let mut segs: Vec<&str> = Vec::new();
    let mut j = i - 1; // the `.`
    loop {
        if j == 0 {
            break;
        }
        let prev = &toks[j - 1];
        if prev.kind == TokKind::Ident {
            segs.push(&prev.text);
            if j == 1 {
                break;
            }
            let sep = &toks[j - 2];
            if sep.is_punct('.') {
                j -= 2;
            } else if sep.is_punct(':')
                && matches!(toks.get(j.wrapping_sub(3)), Some(c) if c.is_punct(':'))
            {
                j -= 3;
            } else {
                break;
            }
        } else {
            // `)` / `]` etc: computed receiver — not a nameable lock
            return None;
        }
    }
    if segs.is_empty() {
        return None;
    }
    segs.reverse();
    let lock = if segs[0] == "self" {
        let ty = qual.split("::").next().unwrap_or(qual);
        if segs.len() == 1 {
            ty.to_string()
        } else {
            format!("{ty}.{}", segs[1..].join("."))
        }
    } else if segs[0].starts_with(char::is_uppercase) {
        segs.join(".")
    } else {
        format!("{qual}::{}", segs.join("."))
    };

    // let-binding: `let [mut] var [: Ty] = <chain>.lock()`
    let chain_start = j - 1; // index of first receiver token
    let mut let_bound = false;
    let mut var = None;
    if chain_start >= 1 && toks[chain_start - 1].is_punct('=') {
        let mut k = chain_start - 1;
        let mut guard_var: Option<String> = None;
        while k > 0 {
            k -= 1;
            let tk = &toks[k];
            if tk.is_ident("let") {
                let_bound = true;
                var = guard_var;
                break;
            }
            if tk.is_punct(';') || tk.is_punct('{') || tk.is_punct('}') {
                break;
            }
            if tk.kind == TokKind::Ident && !tk.is_ident("mut") {
                // keep overwriting while walking left: the last value before
                // `let` is the binding itself, past any type ascription
                guard_var = Some(tk.text.clone());
            }
        }
        if !let_bound {
            // plain assignment to an existing binding: still an extended
            // hold, conservatively scoped to the current block
            let_bound = true;
        }
    }
    Some(Acq { lock, let_bound, var })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::CrateKind;

    fn report(src: &str) -> LockReport {
        check(&[SourceFile::parse("t.rs", CrateKind::Library, src)])
    }

    #[test]
    fn nested_acquisition_makes_an_edge() {
        let r = report(
            "impl S { fn f(&self) { let a = self.alpha.lock(); let b = self.beta.lock(); } }",
        );
        assert!(r.edges.iter().any(|e| e.from == "S.alpha" && e.to == "S.beta"));
        assert!(r.findings.is_empty(), "consistent order is clean: {:?}", r.findings);
    }

    #[test]
    fn statement_temporaries_do_not_hold() {
        let r = report(
            "impl S { fn f(&self) { self.alpha.lock().push(1); self.beta.lock().push(2); } }",
        );
        assert!(r.edges.is_empty(), "temporaries release at statement end: {:?}", r.edges);
    }

    #[test]
    fn ab_ba_is_a_cycle() {
        let r = report(
            "impl S {\n fn f(&self) { let a = self.alpha.lock(); let b = self.beta.lock(); }\n \
             fn g(&self) { let b = self.beta.lock(); let a = self.alpha.lock(); }\n}",
        );
        let cycles: Vec<_> = r
            .findings
            .iter()
            .filter(|f| f.rule == Rule::LockOrder && f.message.contains("cycle"))
            .collect();
        assert_eq!(cycles.len(), 1, "{:?}", r.findings);
        assert!(cycles[0].message.contains("S.alpha") && cycles[0].message.contains("S.beta"));
    }

    #[test]
    fn interprocedural_cycle_is_found() {
        let r = report(
            "impl S {\n \
             fn fwd(&self) { let a = self.alpha.lock(); self.take_beta(); }\n \
             fn take_beta(&self) { let b = self.beta.lock(); }\n \
             fn back(&self) { let b = self.beta.lock(); self.take_alpha(); }\n \
             fn take_alpha(&self) { let a = self.alpha.lock(); }\n}",
        );
        assert!(
            r.findings.iter().any(|f| f.message.contains("cycle")),
            "call-mediated A->B / B->A must cycle: {:?}",
            r.findings
        );
        assert!(r.edges.iter().any(|e| e.via == "take_beta"));
    }

    #[test]
    fn reacquire_and_drop_release() {
        let r = report(
            "impl S { fn f(&self) { let a = self.alpha.lock(); let b = self.alpha.lock(); } }",
        );
        assert!(r.findings.iter().any(|f| f.message.contains("re-acquired")));
        let ok = report(
            "impl S { fn f(&self) { let a = self.alpha.lock(); drop(a); \
             let b = self.alpha.lock(); } }",
        );
        assert!(ok.findings.is_empty(), "drop releases: {:?}", ok.findings);
    }

    #[test]
    fn guard_across_spawn_is_flagged() {
        let r = report("fn f() { let g = state.lock(); std::thread::spawn(move || work()); }");
        assert!(r.findings.iter().any(|f| f.rule == Rule::LockAcrossSpawn), "{:?}", r.findings);
        let clean = report("fn f() { state.lock().touch(); std::thread::spawn(move || work()); }");
        assert!(clean.findings.is_empty(), "{:?}", clean.findings);
    }

    #[test]
    fn locks_inside_spawned_closures_are_not_held_at_spawn() {
        let r = report("fn f() { scope.spawn(move || { let g = state.lock(); g.touch(); }); }");
        assert!(r.findings.iter().all(|f| f.rule != Rule::LockAcrossSpawn), "{:?}", r.findings);
    }

    #[test]
    fn block_scoped_guard_releases_at_block_end() {
        let r = report(
            "impl S { fn f(&self) { { let a = self.alpha.lock(); } \
             let b = self.beta.lock(); } }",
        );
        assert!(r.edges.is_empty(), "{:?}", r.edges);
    }
}
