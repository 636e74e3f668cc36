//! Workspace symbol table: every `fn` definition, with its enclosing
//! `impl`/`trait` owner, resolved from the token streams alone.
//!
//! This is the foundation the inter-procedural passes (`panic-reachability`,
//! `lock-order`) stand on. It is deliberately a *token-level* model, not a
//! parser: one linear pass per file tracks brace nesting, `impl`/`trait`
//! headers, and `fn` items, and records for every code token which function
//! body it sits inside (`fn_at`). That is exact for the constructs this
//! workspace uses and degrades safely (no symbol, no edge) for anything
//! exotic — the passes built on top only ever *miss* facts, never invent
//! them, and the runtime `els_lock_audit` shim covers what the static view
//! cannot see.

use std::collections::{HashMap, HashSet};

use crate::lexer::{Token, TokenKind};
use crate::source::SourceFile;

/// One library source file, parsed once and shared by every workspace pass.
#[derive(Debug)]
pub struct ParsedFile {
    /// The `els-*` crate the file belongs to.
    pub crate_name: String,
    /// Lexed file with suppression and `#[cfg(test)]` annotations.
    pub source: SourceFile,
    /// Cached `source.code_indices()` — the token stream every pass walks.
    pub code: Vec<usize>,
}

impl ParsedFile {
    /// Wrap a parsed source file, caching its code-token index.
    pub fn new(crate_name: &str, source: SourceFile) -> ParsedFile {
        let code = source.code_indices();
        ParsedFile { crate_name: crate_name.to_string(), source, code }
    }

    /// The code token at code-index `ci`, if any.
    pub fn tok(&self, ci: usize) -> Option<&Token> {
        self.code.get(ci).map(|&i| &self.source.tokens[i])
    }

    /// Text of the code token at `ci` (empty when out of range).
    pub fn text(&self, ci: usize) -> &str {
        self.tok(ci).map_or("", |t| t.text.as_str())
    }

    /// True when the code token at `ci` is the punctuation `c`.
    pub fn is_punct(&self, ci: usize, c: char) -> bool {
        self.tok(ci).is_some_and(|t| t.kind == TokenKind::Punct(c))
    }
}

/// One `fn` item.
#[derive(Debug)]
pub struct FnDef {
    /// The function's bare name.
    pub name: String,
    /// Enclosing `impl`/`trait` type name, `None` for free functions.
    pub owner: Option<String>,
    /// Index of the defining file in the workspace file list.
    pub file_idx: usize,
    /// Workspace-relative path of the defining file.
    pub file: String,
    /// Crate the definition lives in.
    pub crate_name: String,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Code-index range of the body, `{` and `}` inclusive; `None` for
    /// bodyless trait-method declarations.
    pub body: Option<(usize, usize)>,
}

impl FnDef {
    /// `Owner::name` or bare `name` — the spelling reports use.
    pub fn qualified(&self) -> String {
        match &self.owner {
            Some(o) => format!("{o}::{}", self.name),
            None => self.name.clone(),
        }
    }
}

/// The workspace symbol table.
#[derive(Debug)]
pub struct SymbolTable {
    /// Every function definition, in (file, source) order.
    pub fns: Vec<FnDef>,
    /// Name → indices into `fns`.
    pub by_name: HashMap<String, Vec<usize>>,
    /// Every `impl`/`trait` owner type name seen anywhere.
    pub owners: HashSet<String>,
    /// Module-path segments that can qualify a free-function call: file
    /// stems, crate idents (`els_core`), and `crate`/`self`/`super`.
    pub modules: HashSet<String>,
    /// `fn_at[file_idx][ci]` — the innermost function whose body contains
    /// code token `ci` of that file.
    pub fn_at: Vec<Vec<Option<usize>>>,
}

impl SymbolTable {
    /// Build the table over every parsed file.
    pub fn build(files: &[ParsedFile]) -> SymbolTable {
        let mut table = SymbolTable {
            fns: Vec::new(),
            by_name: HashMap::new(),
            owners: HashSet::new(),
            modules: HashSet::new(),
            fn_at: Vec::new(),
        };
        table.modules.extend(["crate", "self", "super"].map(str::to_string));
        for (file_idx, pf) in files.iter().enumerate() {
            if let Some(stem) =
                pf.source.rel_path.rsplit('/').next().and_then(|f| f.strip_suffix(".rs"))
            {
                table.modules.insert(stem.to_string());
            }
            table.modules.insert(pf.crate_name.replace('-', "_"));
            scan_file(file_idx, pf, &mut table);
        }
        for (i, f) in table.fns.iter().enumerate() {
            table.by_name.entry(f.name.clone()).or_default().push(i);
            if let Some(o) = &f.owner {
                table.owners.insert(o.clone());
            }
        }
        table
    }

    /// All definitions of `name` (any owner).
    pub fn defs_named(&self, name: &str) -> &[usize] {
        self.by_name.get(name).map(Vec::as_slice).unwrap_or(&[])
    }
}

/// What an open brace belongs to.
enum Scope {
    /// `impl Type { ... }` or `trait Name { ... }` body.
    Impl(String),
    /// A function body (index into `fns`).
    Fn(usize),
    /// Anything else: blocks, match bodies, struct literals, modules.
    Block,
}

/// One linear pass over a file's code tokens: find `impl`/`trait` headers
/// and `fn` items, match braces, and fill `fn_at`.
fn scan_file(file_idx: usize, pf: &ParsedFile, table: &mut SymbolTable) {
    let n = pf.code.len();
    let mut fn_at: Vec<Option<usize>> = vec![None; n];
    let mut scopes: Vec<Scope> = Vec::new();
    let mut pending_impl: Option<String> = None;
    let mut pending_fn: Option<usize> = None;
    // Paren/bracket nesting inside the current item header (so the `;` of
    // `[u8; 4]` in a parameter list does not end a bodyless declaration).
    let (mut pdepth, mut bdepth) = (0i32, 0i32);

    for (ci, at) in fn_at.iter_mut().enumerate() {
        let Some(tok) = pf.tok(ci) else { break };
        // Record the innermost enclosing fn for this token.
        *at = scopes.iter().rev().find_map(|s| match s {
            Scope::Fn(i) => Some(*i),
            _ => None,
        });
        match tok.kind {
            TokenKind::Ident => match tok.text.as_str() {
                "impl" | "trait" if item_position(pf, ci) => {
                    pending_impl = parse_owner(pf, ci);
                }
                "fn" if pf.tok(ci + 1).is_some_and(|t| t.kind == TokenKind::Ident) => {
                    let name_tok = pf.tok(ci + 1).map(|t| (t.text.clone(), t.line));
                    if let Some((name, line)) = name_tok {
                        let owner = scopes.iter().rev().find_map(|s| match s {
                            Scope::Impl(o) => Some(o.clone()),
                            _ => None,
                        });
                        table.fns.push(FnDef {
                            name,
                            owner,
                            file_idx,
                            file: pf.source.rel_path.clone(),
                            crate_name: pf.crate_name.clone(),
                            line,
                            body: None,
                        });
                        pending_fn = Some(table.fns.len() - 1);
                        (pdepth, bdepth) = (0, 0);
                    }
                }
                _ => {}
            },
            TokenKind::Punct('(') => pdepth += 1,
            TokenKind::Punct(')') => pdepth -= 1,
            TokenKind::Punct('[') => bdepth += 1,
            TokenKind::Punct(']') => bdepth -= 1,
            TokenKind::Punct(';') if pdepth == 0 && bdepth == 0 => {
                // A bodyless trait-method declaration ends here.
                pending_fn = None;
            }
            TokenKind::Punct('{') => {
                if let Some(idx) = pending_fn.take() {
                    if pdepth == 0 && bdepth == 0 {
                        table.fns[idx].body = Some((ci, ci));
                        *at = Some(idx);
                        scopes.push(Scope::Fn(idx));
                    } else {
                        // A brace inside a header we do not model; give the
                        // fn back its pending slot and treat this as a block.
                        pending_fn = Some(idx);
                        scopes.push(Scope::Block);
                    }
                } else if let Some(owner) = pending_impl.take() {
                    scopes.push(Scope::Impl(owner));
                } else {
                    scopes.push(Scope::Block);
                }
            }
            TokenKind::Punct('}') => {
                if let Some(Scope::Fn(idx)) = scopes.pop() {
                    if let Some((start, _)) = table.fns[idx].body {
                        table.fns[idx].body = Some((start, ci));
                    }
                }
            }
            _ => {}
        }
    }
    table.fn_at.push(fn_at);
}

/// Is the `impl`/`trait` at `ci` an item, rather than `-> impl Trait` /
/// `x: impl Trait` in type position? Items follow `;`, `}`, `{`, a closed
/// attribute `]`, `pub`/`unsafe`, or the start of the file.
fn item_position(pf: &ParsedFile, ci: usize) -> bool {
    if ci == 0 {
        return true;
    }
    match pf.tok(ci - 1) {
        Some(t) => match t.kind {
            TokenKind::Punct(';' | '}' | '{' | ']') => true,
            TokenKind::Ident => matches!(t.text.as_str(), "pub" | "unsafe"),
            _ => false,
        },
        None => true,
    }
}

/// Owner type name of the `impl`/`trait` header starting at `ci`: the last
/// path segment of the implemented-on type (the part after `for` when
/// present), with generics skipped. `trait Name` is its own owner.
fn parse_owner(pf: &ParsedFile, ci: usize) -> Option<String> {
    if pf.text(ci) == "trait" {
        return pf.tok(ci + 1).filter(|t| t.kind == TokenKind::Ident).map(|t| t.text.clone());
    }
    let mut angle = 0i32;
    let mut segment: Option<String> = None;
    let mut j = ci + 1;
    while let Some(t) = pf.tok(j) {
        match t.kind {
            TokenKind::Punct('<') => angle += 1,
            TokenKind::Punct('>') => angle -= 1,
            TokenKind::Punct('{') if angle <= 0 => break,
            TokenKind::Punct(';') => return None,
            TokenKind::Ident if angle == 0 => match t.text.as_str() {
                // `impl Trait for Type` — the owner is after `for`.
                "for" => segment = None,
                "where" => break,
                "dyn" | "mut" => {}
                name => segment = Some(name.to_string()),
            },
            _ => {}
        }
        j += 1;
    }
    segment
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(src: &str) -> (Vec<ParsedFile>, SymbolTable) {
        let files =
            vec![ParsedFile::new("els-core", SourceFile::parse("crates/core/src/x.rs", src))];
        let table = SymbolTable::build(&files);
        (files, table)
    }

    fn names(table: &SymbolTable) -> Vec<(String, Option<String>)> {
        table.fns.iter().map(|f| (f.name.clone(), f.owner.clone())).collect()
    }

    #[test]
    fn free_fns_and_methods_get_their_owners() {
        let (_, t) = parse(
            "fn free() {}\n\
             impl Estimator { fn join(&self) -> f64 { 1.0 } }\n\
             impl fmt::Display for ColumnRef { fn fmt(&self) {} }\n\
             trait Shape { fn area(&self) -> f64; fn unit() -> f64 { 1.0 } }",
        );
        assert_eq!(
            names(&t),
            vec![
                ("free".into(), None),
                ("join".into(), Some("Estimator".into())),
                ("fmt".into(), Some("ColumnRef".into())),
                ("area".into(), Some("Shape".into())),
                ("unit".into(), Some("Shape".into())),
            ]
        );
        // The bodyless trait declaration has no body; the default does.
        assert!(t.fns[3].body.is_none());
        assert!(t.fns[4].body.is_some());
    }

    #[test]
    fn generic_impl_headers_resolve_to_the_type_name() {
        let (_, t) = parse(
            "impl<'a, T: Clone> Wrapper<'a, T> { fn get(&self) {} }\n\
             impl<T> From<Vec<T>> for Holder<T> where T: Copy { fn from(v: Vec<T>) -> Self { Holder(v) } }",
        );
        assert_eq!(t.fns[0].owner.as_deref(), Some("Wrapper"));
        assert_eq!(t.fns[1].owner.as_deref(), Some("Holder"));
    }

    #[test]
    fn return_position_impl_trait_is_not_an_impl_block() {
        let (_, t) =
            parse("fn make(x: impl Clone) -> impl Iterator<Item = u32> { (0..3) }\nfn after() {}");
        assert_eq!(names(&t), vec![("make".into(), None), ("after".into(), None)]);
    }

    #[test]
    fn fn_at_maps_tokens_to_their_innermost_fn() {
        let (files, t) = parse("fn outer() { inner_call(); fn nested() { deep(); } tail(); }");
        let pf = &files[0];
        let at = |name: &str| {
            let ci = (0..pf.code.len()).find(|&c| pf.text(c) == name).unwrap();
            t.fn_at[0][ci].map(|i| t.fns[i].name.clone())
        };
        assert_eq!(at("inner_call"), Some("outer".into()));
        assert_eq!(at("deep"), Some("nested".into()));
        assert_eq!(at("tail"), Some("outer".into()));
    }

    #[test]
    fn array_type_semicolons_do_not_end_a_declaration() {
        let (_, t) = parse("fn f(x: [u8; 4]) -> [u8; 2] { g() }");
        assert_eq!(t.fns.len(), 1);
        assert!(t.fns[0].body.is_some());
    }

    #[test]
    fn cfg_test_fns_are_invisible() {
        let (_, t) = parse("fn lib() {}\n#[cfg(test)]\nmod tests { fn helper() {} }");
        assert_eq!(names(&t), vec![("lib".into(), None)]);
    }

    #[test]
    fn modules_and_owners_registries_fill() {
        let (_, t) = parse("impl Foo { fn m(&self) {} }");
        assert!(t.owners.contains("Foo"));
        assert!(t.modules.contains("x")); // the file stem
        assert!(t.modules.contains("els_core"));
        assert!(t.modules.contains("crate"));
    }
}
