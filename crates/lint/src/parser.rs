//! A lightweight item parser on top of [`crate::tokenizer`].
//!
//! This is *not* a Rust grammar — it is the minimum item-level structure
//! the workspace call graph needs: which functions exist (and inside
//! which `impl`/`trait` block), which calls each body makes, and which
//! modules a file `use`s. It runs on the comment/string-stripped token
//! stream, so literal contents can never fabricate an item or a call
//! edge.
//!
//! What it deliberately does not model (documented in DESIGN.md §16):
//! generics and trait bounds (erased), closure boundaries (a closure's
//! calls are attributed to the enclosing `fn`), macro-generated items
//! (invisible), and shadowed local bindings. The graph layer compensates
//! by resolving names conservatively (over-approximating the callee set).

use crate::tokenizer::{Lexed, Tok, TokKind};

/// How a call site names its callee.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CallTarget {
    /// `name(…)` — a bare path call.
    Free(String),
    /// `recv.name(…)` — `on_self` when the receiver is literally `self`.
    Method {
        /// Method name.
        name: String,
        /// True for `self.name(…)` (resolved against the enclosing impl
        /// first).
        on_self: bool,
    },
    /// `Qualifier::name(…)` — the last two path segments.
    Qualified {
        /// Path segment immediately before the call name.
        qualifier: String,
        /// Call name.
        name: String,
    },
}

/// One call site inside a function body.
#[derive(Debug, Clone)]
pub struct Call {
    /// 1-based line of the callee token.
    pub line: u32,
    /// Callee shape.
    pub target: CallTarget,
}

/// One `fn` item.
#[derive(Debug, Clone)]
pub struct FnItem {
    /// Function name (`r#`-stripped by the lexer).
    pub name: String,
    /// Enclosing `impl`/`trait` type name, if any (`impl Trait for Type`
    /// records `Type`; `trait Name { … }` records `Name` so default
    /// methods resolve).
    pub owner: Option<String>,
    /// Trait name for `impl Trait for Type` blocks (`Trait`); for plain
    /// `trait Name` blocks this equals `owner`.
    pub trait_name: Option<String>,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Token index range of the body in the file's token stream
    /// (`start == end` for bodyless trait declarations).
    pub body: (usize, usize),
    /// Calls made anywhere in the body (closures included).
    pub calls: Vec<Call>,
    /// True when the item sits under `#[cfg(test)]` — excluded from the
    /// graph (tests are not decision paths).
    pub is_test: bool,
}

/// Everything the graph needs from one file.
#[derive(Debug, Default)]
pub struct FileItems {
    /// Workspace-relative label.
    pub file: String,
    /// Functions in source order.
    pub fns: Vec<FnItem>,
    /// `use` paths, `::`-joined (e.g. `tetriserve_core::policy::Policy`).
    pub uses: Vec<String>,
}

/// Keywords that look like calls when followed by `(`.
const NON_CALL_KEYWORDS: &[&str] = &[
    "if", "while", "for", "match", "loop", "return", "fn", "in", "as", "let", "mut", "ref", "move",
    "else", "impl", "dyn", "where", "unsafe", "pub", "use", "mod", "struct", "enum", "trait",
    "type", "const", "static", "crate", "super", "Self", "self", "box", "break", "continue",
    "extern", "yield",
];

/// Parse one lexed file into its item list.
pub fn parse(file_label: &str, lexed: &Lexed) -> FileItems {
    let test_mask = crate::rules::test_mask_of(&lexed.tokens);
    Parser {
        toks: &lexed.tokens,
        mask: &test_mask,
        out: FileItems {
            file: file_label.to_string(),
            ..FileItems::default()
        },
    }
    .run()
}

struct Parser<'a> {
    toks: &'a [Tok],
    mask: &'a [bool],
    out: FileItems,
}

/// One entry on the open-construct stack: the brace depth *before* the
/// construct's `{` opened, plus what the construct is.
#[derive(Debug)]
enum Frame {
    /// `impl` or `trait` block: (owner type, trait name).
    Impl(Option<String>, Option<String>),
    /// `fn` body: index into `out.fns`.
    Fn(usize),
    /// Any other braced region (`mod`, `match`, plain block, …).
    Other,
}

impl Parser<'_> {
    fn run(mut self) -> FileItems {
        let toks = self.toks;
        // Stack of (depth_before_open, frame).
        let mut stack: Vec<(usize, Frame)> = Vec::new();
        let mut depth = 0usize;
        let mut i = 0usize;
        while i < toks.len() {
            let t = &toks[i];
            match (t.kind, t.text.as_str()) {
                (TokKind::Punct, "{") => {
                    // An un-attributed brace opens an `Other` frame so fn
                    // close depths stay aligned.
                    stack.push((depth, Frame::Other));
                    depth += 1;
                    i += 1;
                }
                (TokKind::Punct, "}") => {
                    depth = depth.saturating_sub(1);
                    while let Some((d, frame)) = stack.pop() {
                        let done = d == depth;
                        if let Frame::Fn(fx) = frame {
                            if done {
                                self.out.fns[fx].body.1 = i;
                            }
                        }
                        if done {
                            break;
                        }
                    }
                    i += 1;
                }
                (TokKind::Ident, "use") => i = self.take_use(i),
                (TokKind::Ident, "impl") | (TokKind::Ident, "trait") => {
                    let (ni, frame) = self.take_impl_header(i, t.text == "trait");
                    // `impl Type;` / `impl Trait for Type;` never occur —
                    // the header scan stops at `{` (pushed here) or `;`.
                    if toks.get(ni).is_some_and(|t| t.text == "{") {
                        stack.push((depth, frame));
                        depth += 1;
                        i = ni + 1;
                    } else {
                        i = ni;
                    }
                }
                (TokKind::Ident, "fn") => {
                    // `fn(` is a function-pointer type, not an item.
                    if toks.get(i + 1).is_some_and(|t| t.kind == TokKind::Ident) {
                        i = self.take_fn(i, &mut stack, &mut depth);
                    } else {
                        i += 1;
                    }
                }
                _ => {
                    // Call sites are only interesting inside a fn body.
                    if let Some(fx) = innermost_fn(&stack) {
                        if let Some(call) = self.call_at(i) {
                            self.out.fns[fx].calls.push(call);
                        }
                    }
                    i += 1;
                }
            }
        }
        // Unterminated file (should not happen on real sources): close any
        // dangling fn bodies at EOF so ranges stay well-formed.
        for (_, frame) in stack {
            if let Frame::Fn(fx) = frame {
                self.out.fns[fx].body.1 = toks.len();
            }
        }
        self.out
    }

    /// `use a::b::{c, d};` — records `a::b::c` and `a::b::d` (one level of
    /// braces; nested groups record their flattened segments best-effort).
    fn take_use(&mut self, start: usize) -> usize {
        let toks = self.toks;
        let mut i = start + 1;
        let mut prefix: Vec<String> = Vec::new();
        let mut current: Vec<String> = Vec::new();
        while i < toks.len() && toks[i].text != ";" {
            match (toks[i].kind, toks[i].text.as_str()) {
                (TokKind::Ident, id) if id != "as" => current.push(id.to_string()),
                (TokKind::Punct, "{") => {
                    prefix = current.clone();
                }
                (TokKind::Punct, ",") | (TokKind::Punct, "}") => {
                    if !current.is_empty() {
                        self.out.uses.push(current.join("::"));
                    }
                    current = prefix.clone();
                }
                (TokKind::Ident, "as") => {
                    // `use x as y;` — skip the rename ident.
                    i += 1;
                }
                _ => {}
            }
            i += 1;
        }
        if !current.is_empty() && current != prefix {
            self.out.uses.push(current.join("::"));
        }
        i + 1
    }

    /// Scan an `impl`/`trait` header up to its `{`, extracting the type
    /// and trait names. Returns (index of the `{`, frame).
    fn take_impl_header(&self, start: usize, is_trait: bool) -> (usize, Frame) {
        let toks = self.toks;
        let mut i = start + 1;
        let mut angle = 0i32;
        let mut idents_at_top: Vec<&str> = Vec::new();
        let mut after_for: Option<&str> = None;
        let mut saw_for = false;
        while i < toks.len() && toks[i].text != "{" && toks[i].text != ";" {
            match (toks[i].kind, toks[i].text.as_str()) {
                (TokKind::Punct, "<") => angle += 1,
                (TokKind::Punct, ">") => angle -= 1,
                (TokKind::Punct, "->") => {}
                (TokKind::Ident, "for") if angle == 0 => saw_for = true,
                (TokKind::Ident, "where") if angle == 0 => break,
                (TokKind::Ident, id) if angle == 0 => {
                    if saw_for && after_for.is_none() && id != "dyn" {
                        after_for = Some(id);
                    }
                    if !saw_for && !matches!(id, "dyn" | "pub" | "unsafe" | "const") {
                        idents_at_top.push(id);
                    }
                }
                _ => {}
            }
            i += 1;
        }
        // Skip any `where` clause to the `{`.
        while i < toks.len() && toks[i].text != "{" && toks[i].text != ";" {
            i += 1;
        }
        let frame = if is_trait {
            let name = idents_at_top.first().map(|s| s.to_string());
            Frame::Impl(name.clone(), name)
        } else if saw_for {
            Frame::Impl(
                after_for.map(|s| s.to_string()),
                idents_at_top.last().map(|s| s.to_string()),
            )
        } else {
            Frame::Impl(idents_at_top.last().map(|s| s.to_string()), None)
        };
        (i, frame)
    }

    /// `fn name…` — record the item, then either enter its body frame or
    /// consume the `;` of a bodyless trait declaration.
    fn take_fn(
        &mut self,
        start: usize,
        stack: &mut Vec<(usize, Frame)>,
        depth: &mut usize,
    ) -> usize {
        let toks = self.toks;
        let name_tok = &toks[start + 1];
        let (owner, trait_name) = innermost_impl(stack);
        let fx = self.out.fns.len();
        self.out.fns.push(FnItem {
            name: name_tok.text.clone(),
            owner,
            trait_name,
            line: toks[start].line,
            body: (0, 0),
            calls: Vec::new(),
            is_test: self.mask.get(start).copied().unwrap_or(false),
        });
        // Scan past the signature to the body `{` or declaration `;`.
        // Parens and angle brackets nest; a `{` at paren depth 0 is the
        // body (return types never contain a bare `{` at depth 0).
        let mut i = start + 2;
        let mut paren = 0i32;
        while i < toks.len() {
            match toks[i].text.as_str() {
                "(" | "[" => paren += 1,
                ")" | "]" => paren -= 1,
                "{" if paren == 0 => {
                    self.out.fns[fx].body = (i + 1, toks.len());
                    stack.push((*depth, Frame::Fn(fx)));
                    *depth += 1;
                    return i + 1;
                }
                ";" if paren == 0 => {
                    self.out.fns[fx].body = (i, i);
                    return i + 1;
                }
                _ => {}
            }
            i += 1;
        }
        i
    }

    /// Classify the token at `k` as a call site, if it is one.
    fn call_at(&self, k: usize) -> Option<Call> {
        let toks = self.toks;
        let t = &toks[k];
        if t.kind != TokKind::Ident || NON_CALL_KEYWORDS.contains(&t.text.as_str()) {
            return None;
        }
        // `name(` or `name::<T>(` (turbofish).
        let next = toks.get(k + 1)?;
        let is_call = next.text == "("
            || (next.text == "::" && toks.get(k + 2).is_some_and(|t| t.text == "<"));
        if !is_call {
            return None;
        }
        let prev = k.checked_sub(1).map(|p| toks[p].text.as_str());
        let target = match prev {
            Some(".") => {
                let on_self = k >= 2 && toks[k - 2].text == "self";
                CallTarget::Method {
                    name: t.text.clone(),
                    on_self,
                }
            }
            Some("::") if k >= 2 && toks[k - 2].kind == TokKind::Ident => CallTarget::Qualified {
                qualifier: toks[k - 2].text.clone(),
                name: t.text.clone(),
            },
            // `fn name(` is the definition, not a call; the main loop
            // consumed the `fn` token before we got here, so check back.
            Some("fn") => return None,
            _ => CallTarget::Free(t.text.clone()),
        };
        Some(Call {
            line: t.line,
            target,
        })
    }
}

/// Innermost enclosing fn on the stack, if any.
fn innermost_fn(stack: &[(usize, Frame)]) -> Option<usize> {
    stack.iter().rev().find_map(|(_, f)| match f {
        Frame::Fn(fx) => Some(*fx),
        _ => None,
    })
}

/// Innermost enclosing impl/trait on the stack.
fn innermost_impl(stack: &[(usize, Frame)]) -> (Option<String>, Option<String>) {
    for (_, f) in stack.iter().rev() {
        if let Frame::Impl(owner, trait_name) = f {
            return (owner.clone(), trait_name.clone());
        }
    }
    (None, None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tokenizer::lex;

    fn parse_src(src: &str) -> FileItems {
        parse("crates/x/src/a.rs", &lex(src))
    }

    #[test]
    fn free_fn_and_calls() {
        let items = parse_src("fn a() { b(); c::d(); e.f(); self.g(); }\nfn b() {}");
        assert_eq!(items.fns.len(), 2);
        let a = &items.fns[0];
        assert_eq!(a.name, "a");
        assert_eq!(a.owner, None);
        let targets: Vec<&CallTarget> = a.calls.iter().map(|c| &c.target).collect();
        assert_eq!(
            targets,
            vec![
                &CallTarget::Free("b".into()),
                &CallTarget::Qualified {
                    qualifier: "c".into(),
                    name: "d".into()
                },
                &CallTarget::Method {
                    name: "f".into(),
                    on_self: false
                },
                &CallTarget::Method {
                    name: "g".into(),
                    on_self: true
                },
            ]
        );
        assert!(items.fns[1].calls.is_empty());
    }

    #[test]
    fn impl_blocks_set_owner_and_trait() {
        let items = parse_src(
            "impl Policy for TetriServePolicy {\n    fn schedule(&mut self) { self.pack(); }\n}\nimpl Helper {\n    fn pack(&self) {}\n}\ntrait Policy {\n    fn schedule(&mut self);\n    fn hint(&self) -> u32 { 0 }\n}",
        );
        let sched = &items.fns[0];
        assert_eq!(sched.name, "schedule");
        assert_eq!(sched.owner.as_deref(), Some("TetriServePolicy"));
        assert_eq!(sched.trait_name.as_deref(), Some("Policy"));
        let pack = &items.fns[1];
        assert_eq!(pack.owner.as_deref(), Some("Helper"));
        assert_eq!(pack.trait_name, None);
        // Trait decl (bodyless) + default method both carry the trait name.
        let decl = &items.fns[2];
        assert_eq!(decl.name, "schedule");
        assert_eq!(decl.owner.as_deref(), Some("Policy"));
        assert_eq!(decl.body.0, decl.body.1);
        let hint = &items.fns[3];
        assert_eq!(hint.owner.as_deref(), Some("Policy"));
        assert!(hint.body.1 > hint.body.0);
    }

    #[test]
    fn generic_impl_headers_resolve_the_type() {
        let items = parse_src(
            "impl<P: Policy> ClusterSim<P> {\n    fn step(&mut self) { self.drain(); }\n}\nimpl<'a, T> Iterator for Windows<'a, T> where T: Clone {\n    fn next(&mut self) -> Option<T> { None }\n}",
        );
        assert_eq!(items.fns[0].owner.as_deref(), Some("ClusterSim"));
        assert_eq!(items.fns[1].owner.as_deref(), Some("Windows"));
        assert_eq!(items.fns[1].trait_name.as_deref(), Some("Iterator"));
    }

    #[test]
    fn closures_attribute_calls_to_enclosing_fn() {
        let items = parse_src(
            "fn outer() {\n    std::thread::scope(|s| {\n        s.spawn(move || inner());\n    });\n}",
        );
        let outer = &items.fns[0];
        let names: Vec<String> = outer
            .calls
            .iter()
            .map(|c| match &c.target {
                CallTarget::Free(n) => n.clone(),
                CallTarget::Method { name, .. } => name.clone(),
                CallTarget::Qualified { name, .. } => name.clone(),
            })
            .collect();
        assert!(names.contains(&"scope".to_string()), "{names:?}");
        assert!(names.contains(&"spawn".to_string()));
        assert!(names.contains(&"inner".to_string()));
    }

    #[test]
    fn cfg_test_fns_are_marked() {
        let items =
            parse_src("fn live() {}\n#[cfg(test)]\nmod tests {\n    fn helper() { live(); }\n}");
        assert!(!items.fns[0].is_test);
        assert!(items.fns[1].is_test);
    }

    #[test]
    fn use_edges_including_groups() {
        let items = parse_src(
            "use std::collections::BTreeMap;\nuse tetriserve_core::{policy::Policy, tracker};\nfn f() {}",
        );
        assert!(items
            .uses
            .contains(&"std::collections::BTreeMap".to_string()));
        assert!(items
            .uses
            .contains(&"tetriserve_core::policy::Policy".to_string()));
        assert!(items.uses.contains(&"tetriserve_core::tracker".to_string()));
    }

    #[test]
    fn static_items_are_skipped() {
        let items = parse_src(
            "static TABLE: [u32; 4] = [0; 4];\nstatic mut COUNTER: u64 = 0;\nfn f(s: &'static str) -> &'static str { s }",
        );
        assert_eq!(items.fns.len(), 1);
        assert_eq!(items.fns[0].name, "f");
        assert!(items.fns[0].calls.is_empty());
    }

    #[test]
    fn macros_and_fn_pointer_types_are_not_calls() {
        let items = parse_src(
            "fn f(cb: fn(u32) -> u32) -> u32 {\n    vec![1, 2];\n    println!(\"x\");\n    cb(3)\n}",
        );
        let names: Vec<&CallTarget> = items.fns[0].calls.iter().map(|c| &c.target).collect();
        assert_eq!(names, vec![&CallTarget::Free("cb".into())]);
    }

    #[test]
    fn turbofish_calls_are_detected() {
        let items = parse_src("fn f() { parse::<u32>(); x.collect::<Vec<_>>(); }");
        let n: Vec<&CallTarget> = items.fns[0].calls.iter().map(|c| &c.target).collect();
        assert_eq!(
            n,
            vec![
                &CallTarget::Free("parse".into()),
                &CallTarget::Method {
                    name: "collect".into(),
                    on_self: false
                }
            ]
        );
    }

    #[test]
    fn nested_fn_bodies_close_correctly() {
        let items = parse_src(
            "fn outer() {\n    fn inner() { deep(); }\n    after_inner();\n}\nfn last() {}",
        );
        assert_eq!(items.fns.len(), 3);
        let outer = &items.fns[0];
        let inner = &items.fns[1];
        // `deep` belongs to inner; `after_inner` belongs to outer.
        assert!(inner
            .calls
            .iter()
            .any(|c| c.target == CallTarget::Free("deep".into())));
        assert!(outer
            .calls
            .iter()
            .any(|c| c.target == CallTarget::Free("after_inner".into())));
        assert!(!outer
            .calls
            .iter()
            .any(|c| c.target == CallTarget::Free("deep".into())));
    }
}
