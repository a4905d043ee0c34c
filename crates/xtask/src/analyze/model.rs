//! The AST-lite model every analysis consumes: items (functions with
//! their impl context, struct fields with their principal types, unsafe
//! sites) extracted from the [`super::parse`] token forest, plus a
//! statement splitter for control-flow-aware walks of function bodies.
//!
//! This is deliberately *not* a full Rust AST. It models exactly what the
//! analyses need to be structurally accurate where the old regex lints
//! were textual: which function a line belongs to, whether it is test
//! code, what type `self` is, which fields are `Mutex`/`RwLock`, and
//! where statements begin and end (so a guard bound by `let` can be
//! tracked live across the statements — and early exits — that follow).

use super::parse::{Group, SourceFile, Tok, Token, Tree};

/// A function item with its context.
#[derive(Debug)]
pub struct FnItem<'a> {
    pub name: String,
    /// Line of the `fn` keyword.
    pub line: u32,
    /// The `{ … }` body group; `None` for trait-method declarations.
    pub body: Option<&'a Group>,
    /// Principal ident of the surrounding `impl` type, if any.
    pub self_ty: Option<String>,
    /// Principal ident of the return type (last path segment before any
    /// generic arguments), if the signature declares one.
    pub ret_ty: Option<String>,
    /// Inside a `#[cfg(test)]` module or carrying `#[test]`.
    pub is_test: bool,
}

/// One struct field: `Struct.field: PrincipalTy` plus whether the type
/// wraps a lock and/or a collection.
#[derive(Debug)]
pub struct FieldItem {
    pub struct_name: String,
    pub field: String,
    /// Last meaningful path segment of the field type (`Mutex`, `Vec`,
    /// `RegionSlot`, …) — the *outermost* wrapper.
    pub principal: String,
    /// Idents appearing anywhere in the type (for `Vec<Mutex<…>>` and
    /// element-type resolution).
    pub type_idents: Vec<String>,
    #[allow(dead_code)] // part of the model API; read by tests
    pub line: u32,
}

impl FieldItem {
    /// The lock kind this field holds, if any (directly or inside a
    /// collection).
    pub fn lock_kind(&self) -> Option<LockKind> {
        if self.type_idents.iter().any(|i| i == "Mutex") {
            Some(LockKind::Mutex)
        } else if self.type_idents.iter().any(|i| i == "RwLock") {
            Some(LockKind::RwLock)
        } else {
            None
        }
    }

    /// Whether the lock is one of many instances (a `Vec`/array of locks,
    /// or a lock nested in an element type) — per-instance locks may be
    /// acquired "twice" on *distinct* instances without self-deadlock.
    pub fn is_collection(&self) -> bool {
        self.principal == "Vec" || self.principal == "Box" || self.principal.is_empty()
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LockKind {
    Mutex,
    RwLock,
}

/// An `unsafe` occurrence.
#[derive(Debug)]
pub struct UnsafeItem {
    pub line: u32,
    /// `block`, `fn`, `impl` or `trait`.
    pub kind: &'static str,
    /// Enclosing function name, when inside one.
    pub context: Option<String>,
    pub is_test: bool,
}

/// Everything extracted from one file.
#[derive(Debug, Default)]
pub struct FileModel<'a> {
    pub fns: Vec<FnItem<'a>>,
    pub fields: Vec<FieldItem>,
    pub unsafes: Vec<UnsafeItem>,
}

/// Builds the model for a parsed file.
pub fn build<'a>(file: &'a SourceFile) -> FileModel<'a> {
    let mut model = FileModel::default();
    walk_items(&file.trees, &Ctx::default(), &mut model);
    model
}

#[derive(Clone, Default)]
struct Ctx {
    self_ty: Option<String>,
    in_test: bool,
    in_fn: Option<String>,
}

fn walk_items<'a>(trees: &'a [Tree], ctx: &Ctx, out: &mut FileModel<'a>) {
    let mut i = 0usize;
    // Pending attribute state: `#[cfg(test)]` / `#[test]` seen since the
    // last item.
    let mut attr_test = false;
    while i < trees.len() {
        match &trees[i] {
            Tree::Leaf(Token { tok: Tok::Punct('#'), .. }) => {
                // `#[…]` — inspect for test markers; attaches to the next
                // item at this level.
                if let Some(Tree::Group(g)) = trees.get(i + 1) {
                    if g.delim == '[' && attr_is_test(&g.children) {
                        attr_test = true;
                    }
                    i += 2;
                    continue;
                }
                i += 1;
            }
            Tree::Leaf(Token { tok: Tok::Ident(kw), line }) if kw == "mod" => {
                // `mod name { … }` — recurse with test-ness.
                let name = trees.get(i + 1).and_then(Tree::ident).unwrap_or("");
                if let Some(Tree::Group(g)) = trees.get(i + 2) {
                    if g.delim == '{' {
                        let sub = Ctx {
                            in_test: ctx.in_test || attr_test || name == "tests",
                            self_ty: None,
                            in_fn: None,
                        };
                        walk_items(&g.children, &sub, out);
                        i += 3;
                        attr_test = false;
                        continue;
                    }
                }
                let _ = line;
                i += 1;
                attr_test = false;
            }
            Tree::Leaf(Token { tok: Tok::Ident(kw), .. }) if kw == "impl" => {
                let (self_ty, body_idx) = parse_impl_header(trees, i);
                if let Some(Tree::Group(g)) = trees.get(body_idx) {
                    if g.delim == '{' {
                        let sub = Ctx {
                            self_ty,
                            in_test: ctx.in_test || attr_test,
                            in_fn: None,
                        };
                        walk_items(&g.children, &sub, out);
                        i = body_idx + 1;
                        attr_test = false;
                        continue;
                    }
                }
                i += 1;
                attr_test = false;
            }
            Tree::Leaf(Token { tok: Tok::Ident(kw), line }) if kw == "struct" => {
                if let Some(name) = trees.get(i + 1).and_then(Tree::ident) {
                    // Find the brace group before the next `;` (tuple or
                    // unit structs have none).
                    let mut j = i + 2;
                    while j < trees.len() {
                        match &trees[j] {
                            Tree::Group(g) if g.delim == '{' => {
                                parse_struct_fields(name, &g.children, out);
                                break;
                            }
                            Tree::Leaf(Token { tok: Tok::Punct(';'), .. }) => break,
                            _ => j += 1,
                        }
                    }
                }
                let _ = line;
                i += 1;
                attr_test = false;
            }
            Tree::Leaf(Token { tok: Tok::Ident(kw), line }) if kw == "unsafe" => {
                // `unsafe { … }` block, `unsafe fn`, `unsafe impl`, …
                let kind = match trees.get(i + 1) {
                    Some(Tree::Group(g)) if g.delim == '{' => "block",
                    Some(Tree::Leaf(Token { tok: Tok::Ident(k), .. })) => match k.as_str() {
                        "fn" => "fn",
                        "impl" => "impl",
                        "trait" => "trait",
                        _ => "block",
                    },
                    _ => "block",
                };
                out.unsafes.push(UnsafeItem {
                    line: *line,
                    kind,
                    context: ctx.in_fn.clone(),
                    is_test: ctx.in_test || attr_test,
                });
                i += 1;
                // Fall through: an `unsafe fn` still parses as a fn below;
                // an unsafe block group recurses below.
            }
            Tree::Leaf(Token { tok: Tok::Ident(kw), line }) if kw == "fn" => {
                let name = trees
                    .get(i + 1)
                    .and_then(Tree::ident)
                    .unwrap_or("")
                    .to_string();
                // Scan forward for the body group; capture `-> RetTy`.
                let mut j = i + 2;
                let mut ret_ty = None;
                let mut body = None;
                let mut saw_arrow = false;
                let mut ret_idents: Vec<String> = Vec::new();
                while j < trees.len() {
                    match &trees[j] {
                        Tree::Group(g) if g.delim == '{' => {
                            body = Some(g);
                            break;
                        }
                        Tree::Leaf(Token { tok: Tok::Punct(';'), .. }) => break,
                        Tree::Leaf(Token { tok: Tok::Punct('>'), .. })
                            if trees.get(j - 1).and_then(Tree::punct) == Some('-') =>
                        {
                            saw_arrow = true;
                        }
                        Tree::Leaf(Token { tok: Tok::Ident(id), .. })
                            if saw_arrow && id != "where" && id != "dyn" && id != "impl" =>
                        {
                            ret_idents.push(id.clone());
                        }
                        Tree::Leaf(Token { tok: Tok::Ident(id), .. }) if id == "where" => {
                            saw_arrow = false;
                        }
                        _ => {}
                    }
                    j += 1;
                }
                if !ret_idents.is_empty() {
                    // Principal = the innermost meaningful segment for
                    // resolution purposes: prefer a lock wrapper if one
                    // appears, else the last ident.
                    ret_ty = ret_idents
                        .iter()
                        .find(|t| *t == "Mutex" || *t == "RwLock")
                        .cloned()
                        .or_else(|| ret_idents.last().cloned());
                }
                let is_test = ctx.in_test || attr_test;
                if let Some(b) = body {
                    // Recurse into the body for nested items (closures'
                    // unsafe blocks, nested fns) with fn context.
                    let sub = Ctx {
                        self_ty: ctx.self_ty.clone(),
                        in_test: is_test,
                        in_fn: Some(name.clone()),
                    };
                    walk_items(&b.children, &sub, out);
                }
                out.fns.push(FnItem {
                    name,
                    line: *line,
                    body,
                    self_ty: ctx.self_ty.clone(),
                    ret_ty,
                    is_test,
                });
                i = j + 1;
                attr_test = false;
            }
            Tree::Group(g) => {
                // Stray group at item level (e.g. macro bodies): recurse
                // so unsafe blocks inside are still seen.
                walk_items(&g.children, ctx, out);
                i += 1;
            }
            _ => i += 1,
        }
    }
}

fn attr_is_test(attr: &[Tree]) -> bool {
    // `#[test]`, `#[cfg(test)]`, `#[cfg(all(test, …))]`, `#[tokio::test]`
    fn contains_test(trees: &[Tree]) -> bool {
        trees.iter().any(|t| match t {
            Tree::Leaf(Token { tok: Tok::Ident(s), .. }) => s == "test",
            Tree::Group(g) => contains_test(&g.children),
            Tree::Leaf(_) => false,
        })
    }
    match attr.first().and_then(Tree::ident) {
        Some("test") => true,
        Some("cfg") => contains_test(attr),
        _ => false,
    }
}

/// Parses an `impl` header starting at `trees[i]` (the `impl` keyword).
/// Returns the principal self-type ident and the index of the body group.
fn parse_impl_header(trees: &[Tree], i: usize) -> (Option<String>, usize) {
    let mut j = i + 1;
    let mut angle = 0i32;
    let mut last_ident: Option<String> = None;
    let mut after_for: Option<String> = None;
    let mut saw_for = false;
    while j < trees.len() {
        match &trees[j] {
            Tree::Group(g) if g.delim == '{' && angle == 0 => {
                return (if saw_for { after_for } else { last_ident }, j);
            }
            Tree::Leaf(Token { tok: Tok::Punct('<'), .. }) => angle += 1,
            Tree::Leaf(Token { tok: Tok::Punct('>'), .. }) => angle -= 1,
            Tree::Leaf(Token { tok: Tok::Ident(id), .. }) if angle == 0 => {
                if id == "for" {
                    saw_for = true;
                } else if id == "where" {
                    // type idents end here
                } else if saw_for {
                    after_for = Some(id.clone());
                } else {
                    last_ident = Some(id.clone());
                }
            }
            _ => {}
        }
        j += 1;
    }
    (None, j)
}

fn parse_struct_fields(struct_name: &str, body: &[Tree], out: &mut FileModel<'_>) {
    // Fields are `vis? name : type ,` at the top level of the braces.
    let mut i = 0usize;
    while i < body.len() {
        // Skip attributes.
        if body[i].punct() == Some('#') {
            i += 2;
            continue;
        }
        // `pub` / `pub(crate)`.
        if body[i].ident() == Some("pub") {
            i += 1;
            if matches!(body.get(i), Some(Tree::Group(g)) if g.delim == '(') {
                i += 1;
            }
            continue;
        }
        let Some(name) = body[i].ident() else {
            i += 1;
            continue;
        };
        if body.get(i + 1).and_then(Tree::punct) != Some(':') {
            i += 1;
            continue;
        }
        let line = body[i].line();
        // Collect type idents until the `,` at angle-depth 0.
        let mut j = i + 2;
        let mut angle = 0i32;
        let mut type_idents = Vec::new();
        let mut principal = String::new();
        while j < body.len() {
            match &body[j] {
                Tree::Leaf(Token { tok: Tok::Punct(','), .. }) if angle <= 0 => break,
                Tree::Leaf(Token { tok: Tok::Punct('<'), .. }) => angle += 1,
                Tree::Leaf(Token { tok: Tok::Punct('>'), .. }) => angle -= 1,
                Tree::Leaf(Token { tok: Tok::Ident(id), .. }) => {
                    if principal.is_empty() && angle == 0 {
                        principal = id.clone();
                    }
                    type_idents.push(id.clone());
                }
                Tree::Group(g) => {
                    // Array types `[Mutex<()>; 3]`.
                    collect_idents(&g.children, &mut type_idents);
                }
                _ => {}
            }
            j += 1;
        }
        // Path types like `sim::trace::Event`: principal should be the
        // *last* top-level segment before generics, but the first segment
        // heuristic breaks on paths; fix up: if the collected idents form
        // a path (`::`), prefer the last pre-generic segment.
        if let Some(k) = path_principal(&body[i + 2..j]) {
            principal = k;
        }
        out.fields.push(FieldItem {
            struct_name: struct_name.to_string(),
            field: name.to_string(),
            principal,
            type_idents,
            line,
        });
        i = j + 1;
    }
}

/// Last angle-depth-0 ident of a type token run (the principal segment of
/// `std::sync::Mutex<T>` is `Mutex`; of `[Mutex<()>; 3]` it is none —
/// empty principal marks array types).
fn path_principal(trees: &[Tree]) -> Option<String> {
    let mut angle = 0i32;
    let mut last = None;
    for t in trees {
        match t {
            Tree::Leaf(Token { tok: Tok::Punct('<'), .. }) => angle += 1,
            Tree::Leaf(Token { tok: Tok::Punct('>'), .. }) => angle -= 1,
            Tree::Leaf(Token { tok: Tok::Ident(id), .. }) if angle == 0 => {
                last = Some(id.clone());
            }
            _ => {}
        }
    }
    last
}

fn collect_idents(trees: &[Tree], out: &mut Vec<String>) {
    for t in trees {
        match t {
            Tree::Leaf(Token { tok: Tok::Ident(s), .. }) => out.push(s.clone()),
            Tree::Group(g) => collect_idents(&g.children, out),
            _ => {}
        }
    }
}

// ---------------------------------------------------------------------
// Statements
// ---------------------------------------------------------------------

/// One statement of a function body: its top-level tokens (with groups
/// kept nested) and the brace sub-blocks it owns (if/else/match/loop
/// bodies, plain blocks).
#[derive(Debug)]
pub struct Stmt<'a> {
    pub trees: Vec<&'a Tree>,
    /// Brace groups belonging to this statement, in source order.
    pub blocks: Vec<&'a Group>,
    pub first_line: u32,
    #[allow(dead_code)] // part of the model API; read by tests
    pub last_line: u32,
}

impl<'a> Stmt<'a> {
    /// Flat leaf tokens of this statement *excluding* its brace
    /// sub-blocks but *including* paren/bracket groups (call arguments
    /// belong to the statement; block bodies are separate scopes).
    pub fn leaves(&self) -> Vec<&'a Token> {
        fn walk<'a>(t: &'a Tree, out: &mut Vec<&'a Token>) {
            match t {
                Tree::Leaf(tok) => out.push(tok),
                Tree::Group(g) if g.delim != '{' => {
                    for c in &g.children {
                        walk(c, out);
                    }
                }
                // Brace groups inside paren args (closures!) are part of
                // the statement's expression; include them.
                Tree::Group(g) => {
                    for c in &g.children {
                        walk(c, out);
                    }
                }
            }
        }
        let mut out = Vec::new();
        for t in &self.trees {
            match t {
                // Top-level brace sub-blocks are scopes, not statement
                // tokens; they surface through `blocks` instead.
                Tree::Group(Group { delim: '{', .. }) => {}
                other => walk(other, &mut out),
            }
        }
        out
    }

    /// Whether the statement contains an early-exit edge at expression
    /// level: `?`, `return`, `break` or `continue`.
    pub fn has_early_exit(&self) -> bool {
        self.leaves().iter().any(|t| match &t.tok {
            Tok::Punct('?') => true,
            Tok::Ident(s) => s == "return" || s == "break" || s == "continue",
            _ => false,
        })
    }

    /// Whether any leaf ident equals `name`.
    pub fn mentions(&self, name: &str) -> bool {
        self.leaves()
            .iter()
            .any(|t| matches!(&t.tok, Tok::Ident(s) if s == name))
    }

    /// The binding identifier if this statement is a `let` (first ident
    /// after `let`/`let mut`, or the idents of a tuple pattern).
    pub fn let_bindings(&self) -> Vec<String> {
        let leaves = self.leaves();
        let mut it = leaves.iter().enumerate();
        let Some((li, _)) = it.find(|(_, t)| matches!(&t.tok, Tok::Ident(s) if s == "let")) else {
            return Vec::new();
        };
        let mut out = Vec::new();
        for t in leaves.iter().skip(li + 1) {
            match &t.tok {
                Tok::Ident(s) if s == "mut" || s == "ref" => {}
                // `let Some(job) = job` — pattern idents before `=`.
                Tok::Ident(s) if s == "else" => break,
                Tok::Ident(s) => {
                    // Skip constructor-ish path segments (capitalized,
                    // followed by `::` or pattern parens) — keep bindings.
                    out.push(s.clone());
                }
                Tok::Punct('=') => break,
                Tok::Punct(':') if out.len() == 1 => break, // type ascription
                _ => {}
            }
        }
        // Drop obvious enum constructors (`Some`, `Ok`, `Err`, `None`).
        out.retain(|s| !matches!(s.as_str(), "Some" | "Ok" | "Err" | "None"));
        out
    }
}

/// Splits a brace group's children into statements. Every `;` at top
/// level ends a statement; a top-level brace group ends the statement
/// that owns it *unless* the next token is `else` (if/else chains) or the
/// group is a match body continuing an expression.
pub fn stmts<'a>(body: &'a Group) -> Vec<Stmt<'a>> {
    let trees = &body.children;
    let mut out: Vec<Stmt<'a>> = Vec::new();
    let mut cur: Vec<&'a Tree> = Vec::new();
    let mut blocks: Vec<&'a Group> = Vec::new();
    let mut i = 0usize;

    fn flush<'a>(
        cur: &mut Vec<&'a Tree>,
        blocks: &mut Vec<&'a Group>,
        out: &mut Vec<Stmt<'a>>,
        fallback_line: u32,
    ) {
        if cur.is_empty() && blocks.is_empty() {
            return;
        }
        let first_line = cur
            .first()
            .map(|t| t.line())
            .or_else(|| blocks.first().map(|g| g.open_line))
            .unwrap_or(fallback_line);
        let last_line = blocks
            .last()
            .map(|g| g.close_line)
            .or_else(|| cur.last().map(|t| t.line()))
            .unwrap_or(first_line);
        out.push(Stmt {
            trees: std::mem::take(cur),
            blocks: std::mem::take(blocks),
            first_line,
            last_line: last_line.max(first_line),
        });
    }

    while i < trees.len() {
        match &trees[i] {
            Tree::Leaf(Token { tok: Tok::Punct(';'), line }) => {
                flush(&mut cur, &mut blocks, &mut out, *line);
                i += 1;
            }
            Tree::Group(g) if g.delim == '{' => {
                blocks.push(g);
                cur.push(&trees[i]);
                // `} else`, `} else if`, match-arm commas: keep going.
                let cont = matches!(
                    trees.get(i + 1).and_then(Tree::ident),
                    Some("else")
                ) || trees.get(i + 1).and_then(Tree::punct) == Some('?')
                    || trees.get(i + 1).and_then(Tree::punct) == Some('.');
                if !cont {
                    flush(&mut cur, &mut blocks, &mut out, g.close_line);
                }
                i += 1;
            }
            t => {
                cur.push(t);
                i += 1;
            }
        }
    }
    flush(&mut cur, &mut blocks, &mut out, body.close_line);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::parse::parse;

    fn model_of(src: &str) -> (SourceFileOwner, ()) {
        (SourceFileOwner(parse(src).unwrap()), ())
    }
    struct SourceFileOwner(SourceFile);

    #[test]
    fn fns_carry_impl_context_and_testness() {
        let src = "impl Engine {\n    pub fn get(&self) -> Option<u32> { None }\n}\n\
                   #[cfg(test)]\nmod tests {\n    fn helper() {}\n    #[test]\n    fn t() {}\n}\n\
                   fn free() {}\n";
        let (owner, ()) = model_of(src);
        let m = build(&owner.0);
        let get = m.fns.iter().find(|f| f.name == "get").unwrap();
        assert_eq!(get.self_ty.as_deref(), Some("Engine"));
        assert!(!get.is_test);
        assert_eq!(get.ret_ty.as_deref(), Some("u32"));
        assert!(m.fns.iter().find(|f| f.name == "helper").unwrap().is_test);
        assert!(m.fns.iter().find(|f| f.name == "t").unwrap().is_test);
        assert!(!m.fns.iter().find(|f| f.name == "free").unwrap().is_test);
    }

    #[test]
    fn impl_trait_for_type_resolves_to_type() {
        let src = "impl Drop for Handle {\n    fn drop(&mut self) {}\n}\n";
        let (owner, ()) = model_of(src);
        let m = build(&owner.0);
        assert_eq!(m.fns[0].self_ty.as_deref(), Some("Handle"));
    }

    #[test]
    fn lock_fields_are_discovered_with_collections() {
        let src = "struct Engine {\n    writer: Mutex<WriterState>,\n    \
                   active_ro: RwLock<Option<Arc<Buf>>>,\n    dram: Vec<Mutex<DramCache>>,\n    \
                   log_locks: [Mutex<()>; 3],\n    slots: Vec<RegionSlot>,\n    count: u64,\n}\n";
        let (owner, ()) = model_of(src);
        let m = build(&owner.0);
        let find = |n: &str| m.fields.iter().find(|f| f.field == n).unwrap();
        assert_eq!(find("writer").lock_kind(), Some(LockKind::Mutex));
        assert!(!find("writer").is_collection());
        assert_eq!(find("active_ro").lock_kind(), Some(LockKind::RwLock));
        assert_eq!(find("dram").lock_kind(), Some(LockKind::Mutex));
        assert!(find("dram").is_collection());
        assert_eq!(find("log_locks").lock_kind(), Some(LockKind::Mutex));
        assert_eq!(find("count").lock_kind(), None);
        assert_eq!(find("slots").principal, "Vec");
        assert!(find("slots").type_idents.contains(&"RegionSlot".into()));
    }

    #[test]
    fn unsafe_blocks_and_fns_are_recorded_with_context() {
        let src = "fn read(&self) {\n    let v = unsafe { buf.slice(0, 4) };\n}\n\
                   unsafe fn raw() {}\nunsafe impl Send for X {}\n";
        let (owner, ()) = model_of(src);
        let m = build(&owner.0);
        assert_eq!(m.unsafes.len(), 3, "{:?}", m.unsafes);
        assert_eq!(m.unsafes[0].kind, "block");
        assert_eq!(m.unsafes[0].context.as_deref(), Some("read"));
        assert_eq!(m.unsafes[1].kind, "fn");
        assert_eq!(m.unsafes[2].kind, "impl");
    }

    #[test]
    fn stmts_split_on_semicolons_and_blocks() {
        let src = "fn f() {\n    let a = 1;\n    if a > 0 {\n        g();\n    } else {\n        h();\n    }\n    let b = m.lock();\n    drop(b);\n}\n";
        let (owner, ()) = model_of(src);
        let m = build(&owner.0);
        let body = m.fns[0].body.unwrap();
        let ss = stmts(body);
        assert_eq!(ss.len(), 4, "{:?}", ss.iter().map(|s| s.first_line).collect::<Vec<_>>());
        // The if/else is one statement owning two blocks.
        assert_eq!(ss[1].blocks.len(), 2);
        assert_eq!(ss[1].first_line, 3);
        assert_eq!(ss[1].last_line, 7);
        assert_eq!(ss[2].let_bindings(), vec!["b".to_string()]);
        assert!(ss[3].mentions("drop"));
    }

    #[test]
    fn early_exit_detection_sees_question_marks_and_returns() {
        let src = "fn f() -> Result<(), E> {\n    let x = io()?;\n    if x { return Ok(()); }\n    Ok(())\n}\n";
        let (owner, ()) = model_of(src);
        let m = build(&owner.0);
        let ss = stmts(m.fns[0].body.unwrap());
        assert!(ss[0].has_early_exit());
        // `return` sits inside the if-block — the statement still reports
        // an exit edge because block tokens surface through blocks();
        // at minimum the `?` case is precise.
        let tuple = "fn g() {\n    let (job, tickets) = self.seal_detach(w);\n}\n";
        let (owner2, ()) = model_of(tuple);
        let m2 = build(&owner2.0);
        let ss2 = stmts(m2.fns[0].body.unwrap());
        let binds = ss2[0].let_bindings();
        assert!(binds.contains(&"job".to_string()) && binds.contains(&"tickets".to_string()));
    }
}
