//! Shared item traversal: enumerates every function body in a file with a
//! `Type::name`-qualified name, tracking `impl`/`trait`/`mod` nesting. The
//! lock-order, dataflow and observability analyses walk functions through
//! this module instead of each growing a private copy of the
//! brace-matching scan.

use crate::lexer::{Tok, TokKind};
use crate::source::SourceFile;

/// Callee names matching more than this many distinct workspace functions
/// are left unresolved by the call-graph passes (lock order, dataflow):
/// ubiquitous names (`new`, `clone`, `len`) would otherwise smear their
/// summaries across the whole workspace.
pub const MAX_CALLEE_CANDIDATES: usize = 3;

/// One function found in a file. Token indices are into
/// `SourceFile::tokens`; the body is `[body_start, body_end)` *excluding*
/// the braces.
#[derive(Debug, Clone)]
pub struct FnSpan {
    /// `Type::name` for methods, bare `name` for free functions.
    pub qual: String,
    /// Bare function name.
    pub name: String,
    /// Index of the first token after the opening `{`.
    pub body_start: usize,
    /// Index of the closing `}`.
    pub body_end: usize,
    /// Index of the `fn` keyword (signature start).
    pub sig_start: usize,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Whether the function is inside a `#[cfg(test)]` region.
    pub in_test: bool,
}

/// All functions of `sf`, in source order (test functions included, marked).
pub fn functions(sf: &SourceFile) -> Vec<FnSpan> {
    let mut out = Vec::new();
    scan(sf, 0, sf.tokens.len(), None, &mut out);
    out
}

/// Index of the `}` matching the `{` at `open` (or `end` when unmatched).
pub fn matching_brace(toks: &[Tok], open: usize, end: usize) -> usize {
    let mut depth = 0i32;
    for (j, t) in toks.iter().enumerate().take(end).skip(open) {
        if t.is_punct('{') {
            depth += 1;
        } else if t.is_punct('}') {
            depth -= 1;
            if depth == 0 {
                return j;
            }
        }
    }
    end
}

/// Index of the `)` matching the `(` at `open` (or `end` when unmatched).
pub fn matching_paren(toks: &[Tok], open: usize, end: usize) -> usize {
    let mut depth = 0i32;
    for (j, t) in toks.iter().enumerate().take(end).skip(open) {
        if t.is_punct('(') {
            depth += 1;
        } else if t.is_punct(')') {
            depth -= 1;
            if depth == 0 {
                return j;
            }
        }
    }
    end
}

fn scan(sf: &SourceFile, start: usize, end: usize, impl_ty: Option<&str>, out: &mut Vec<FnSpan>) {
    let toks = &sf.tokens;
    let mut i = start;
    while i < end {
        let t = &toks[i];
        if t.is_ident("impl") || t.is_ident("trait") {
            // self-type name: last depth-0 path ident before the body,
            // taking the `for <Type>` side when present
            let mut angle = 0i32;
            let mut name: Option<String> = None;
            let mut j = i + 1;
            while j < end {
                let tj = &toks[j];
                if tj.is_punct('<') {
                    angle += 1;
                } else if tj.is_punct('>') {
                    angle -= 1;
                } else if angle == 0 {
                    if tj.is_ident("for") {
                        name = None;
                    } else if tj.is_ident("where") || tj.is_punct('{') || tj.is_punct(';') {
                        break;
                    } else if tj.is_punct(':') {
                        if matches!(toks.get(j + 1), Some(c) if c.is_punct(':')) {
                            j += 1; // path separator `::`, keep collecting
                        } else {
                            break; // supertrait / bound list: name is fixed
                        }
                    } else if tj.kind == TokKind::Ident && !tj.is_ident("dyn") {
                        name = Some(tj.text.clone());
                    }
                }
                j += 1;
            }
            if j < end && toks[j].is_punct('{') {
                let body_end = matching_brace(toks, j, end);
                scan(sf, j + 1, body_end, name.as_deref().or(impl_ty), out);
                i = body_end + 1;
            } else {
                i = j + 1;
            }
        } else if t.is_ident("mod")
            && matches!(toks.get(i + 1), Some(n) if n.kind == TokKind::Ident)
            && matches!(toks.get(i + 2), Some(b) if b.is_punct('{'))
        {
            let body_end = matching_brace(toks, i + 2, end);
            scan(sf, i + 3, body_end, None, out);
            i = body_end + 1;
        } else if t.is_ident("fn") && matches!(toks.get(i + 1), Some(n) if n.kind == TokKind::Ident)
        {
            let name = toks[i + 1].text.clone();
            // body = first `{` outside parens/brackets; `;` first ⇒ bodiless
            let mut j = i + 2;
            let (mut paren, mut bracket) = (0i32, 0i32);
            let mut body: Option<usize> = None;
            while j < end {
                let tj = &toks[j];
                if tj.is_punct('(') {
                    paren += 1;
                } else if tj.is_punct(')') {
                    paren -= 1;
                } else if tj.is_punct('[') {
                    bracket += 1;
                } else if tj.is_punct(']') {
                    bracket -= 1;
                } else if paren == 0 && bracket == 0 {
                    if tj.is_punct('{') {
                        body = Some(j);
                        break;
                    }
                    if tj.is_punct(';') {
                        break;
                    }
                }
                j += 1;
            }
            match body {
                Some(b) => {
                    let body_end = matching_brace(toks, b, end);
                    let qual = match impl_ty {
                        Some(ty) => format!("{ty}::{name}"),
                        None => name.clone(),
                    };
                    out.push(FnSpan {
                        qual,
                        name,
                        body_start: b + 1,
                        body_end,
                        sig_start: i,
                        line: t.line,
                        in_test: sf.in_test(i),
                    });
                    i = body_end + 1;
                }
                None => i = j + 1,
            }
        } else {
            i += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::CrateKind;

    fn spans(src: &str) -> Vec<FnSpan> {
        functions(&SourceFile::parse("t.rs", CrateKind::Library, src))
    }

    #[test]
    fn methods_get_qualified_names() {
        let fns = spans("impl Widget { fn poke(&self) {} }\nfn free() {}");
        let quals: Vec<&str> = fns.iter().map(|f| f.qual.as_str()).collect();
        assert_eq!(quals, vec!["Widget::poke", "free"]);
    }

    #[test]
    fn test_functions_are_marked() {
        let fns = spans("fn live() {}\n#[cfg(test)]\nmod tests { fn helper() {} }");
        assert_eq!(fns.len(), 2);
        assert!(!fns[0].in_test);
        assert!(fns[1].in_test);
    }

    #[test]
    fn body_excludes_braces() {
        let fns = spans("fn f() { a(); }");
        let f = &fns[0];
        assert!(f.body_start < f.body_end);
    }
}
