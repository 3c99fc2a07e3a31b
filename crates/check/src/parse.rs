//! A lightweight Rust *item and expression* parser on top of [`crate::lex`]
//! — just enough structure for the call-graph rules: function items (with
//! their module / impl nesting), `unsafe` sites, call expressions, method
//! calls and macro invocations. Deliberately **not** a type checker:
//!
//! * Generics are skipped by angle-depth matching (with the `->`-at-depth
//!   rule so `Fn(u32) -> u64` bounds don't unbalance the count).
//! * Macro *definitions* (`macro_rules!`) are skipped wholesale; macro
//!   *invocations* inside function bodies are scanned for calls — their
//!   arguments are ordinary expressions that do run.
//! * Pattern positions are not distinguished from expressions, so enum
//!   variants in patterns can surface as "calls"; the call graph treats
//!   unresolvable names as external, so this over-approximation only ever
//!   *adds* edges (safe for "nothing reachable may do X" rules).
//!
//! The parser never fails: like the lexer, it recovers by skipping — rustc
//! rejects genuinely malformed files long before the linter sees them.

use crate::lex::{lex, significant, Token, TokenKind};

/// A call expression inside a function body: the path as written
/// (`["Self", "new"]`, `["signal", "arena"]`, `["foo"]`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Call {
    /// Path segments as written at the call site.
    pub segments: Vec<String>,
    /// 1-based source line of the first segment.
    pub line: u32,
}

/// One parsed function item.
#[derive(Clone, Debug)]
pub struct FnDef {
    /// The function's name (raw identifiers lose their `r#`).
    pub name: String,
    /// Inline `mod` nesting inside the file, outermost first.
    pub modules: Vec<String>,
    /// Enclosing `impl`/`trait` self type, when the fn is an associated item.
    pub self_ty: Option<String>,
    /// Whether the first parameter is (some form of) `self`.
    pub has_self: bool,
    /// Declared `unsafe fn`.
    pub is_unsafe: bool,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Last line of the body (== `line` for bodyless declarations).
    pub end_line: u32,
    /// Body span as `[start, end)` indices into the significant-token
    /// stream (the `{`..`}` inclusive); `None` for bodyless declarations.
    pub body: Option<(usize, usize)>,
    /// Free/path calls in the body, in source order.
    pub calls: Vec<Call>,
    /// Method calls (`.name(`) in the body as `(name, line)`.
    pub methods: Vec<(String, u32)>,
    /// Macro invocations (`name!`) in the body as `(name, line)`.
    pub macros: Vec<(String, u32)>,
}

impl FnDef {
    /// `module::Type::name` within the file — the item half of the
    /// `path::item` keys the audit tables use.
    fn item_path(&self) -> String {
        let mut segments = self.modules.clone();
        segments.extend(self.self_ty.clone());
        segments.push(self.name.clone());
        segments.join("::")
    }
}

/// What kind of construct an [`UnsafeSite`] is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum UnsafeKind {
    /// An `unsafe { … }` block.
    Block,
    /// An `unsafe fn` item.
    Fn,
    /// An `unsafe impl`/`unsafe trait` item.
    Impl,
}

impl UnsafeKind {
    /// Short label used in findings and `SAFETY.md` rows.
    pub fn label(self) -> &'static str {
        match self {
            UnsafeKind::Block => "block",
            UnsafeKind::Fn => "fn",
            UnsafeKind::Impl => "impl",
        }
    }
}

/// One `unsafe` keyword in the source, with whether a safety comment
/// (a `// SAFETY:`-opening comment run directly above, or — for `fn`/`impl`
/// items — a doc comment carrying a `# Safety` section) covers it.
#[derive(Clone, Debug)]
pub struct UnsafeSite {
    /// 1-based line of the `unsafe` keyword.
    pub line: u32,
    /// The enclosing item: the innermost fn (`module::Type::name`) for a
    /// block, the fn itself for an `unsafe fn`, `impl Type` for an
    /// `unsafe impl`/`unsafe trait`.
    pub item: String,
    /// Construct kind.
    pub kind: UnsafeKind,
    /// A qualifying safety comment was found.
    pub has_safety_comment: bool,
}

/// The parse of one file: its significant tokens (for rule scans over
/// function-body spans) plus the extracted structure.
#[derive(Clone, Debug, Default)]
pub struct ParsedFile {
    /// The significant (comment-stripped) token stream the spans index.
    pub tokens: Vec<Token>,
    /// Function items, in source order.
    pub fns: Vec<FnDef>,
    /// Every `unsafe` keyword site.
    pub unsafe_sites: Vec<UnsafeSite>,
}

/// The item of a line outside every fn.
const TOP_LEVEL: &str = "(top level)";

impl ParsedFile {
    /// The item enclosing `line`: the innermost fn whose span holds it
    /// (`module::Type::name`), or [`TOP_LEVEL`].
    pub(crate) fn item_at(&self, line: u32) -> String {
        let holding = self
            .fns
            .iter()
            .filter(|f| f.line <= line && line <= f.end_line);
        holding
            .max_by_key(|f| f.line)
            .map_or_else(|| TOP_LEVEL.to_string(), FnDef::item_path)
    }
}

/// Keywords that look like `ident (` in expression position but are not
/// calls.
const NON_CALL_KEYWORDS: [&str; 14] = [
    "if", "while", "match", "return", "for", "loop", "break", "continue", "as", "in", "let", "mut",
    "ref", "move",
];

enum Scope {
    Module(String),
    Impl(Option<String>),
    Fn(usize),
    Block,
}

struct Parser<'a> {
    toks: &'a [Token],
    i: usize,
    scopes: Vec<Scope>,
    fns: Vec<FnDef>,
    /// `(line, kind, item)`; a block's item is resolved once every fn span
    /// is known.
    unsafe_sites: Vec<(u32, UnsafeKind, Option<String>)>,
    /// An `unsafe` modifier seen and not yet attached to `fn`/`impl`.
    pending_unsafe: Option<u32>,
}

impl Parser<'_> {
    fn punct(&self, at: usize, ch: &str) -> bool {
        self.toks
            .get(at)
            .is_some_and(|t| t.kind == TokenKind::Punct && t.text == ch)
    }

    fn ident(&self, at: usize) -> Option<&str> {
        self.toks
            .get(at)
            .and_then(|t| (t.kind == TokenKind::Ident).then_some(t.text.as_str()))
    }

    fn line(&self, at: usize) -> u32 {
        self.toks
            .get(at.min(self.toks.len().saturating_sub(1)))
            .map_or(1, |t| t.line)
    }

    /// Innermost enclosing fn index, if the cursor is inside a body.
    fn current_fn(&self) -> Option<usize> {
        self.scopes.iter().rev().find_map(|s| match s {
            Scope::Fn(idx) => Some(*idx),
            _ => None,
        })
    }

    fn current_modules(&self) -> Vec<String> {
        self.scopes
            .iter()
            .filter_map(|s| match s {
                Scope::Module(m) => Some(m.clone()),
                _ => None,
            })
            .collect()
    }

    /// `impl Type` of the impl scope [`Self::parse_impl`] just opened.
    fn impl_item(&self) -> Option<String> {
        match self.scopes.last() {
            Some(Scope::Impl(Some(ty))) => Some(format!("impl {ty}")),
            _ => None,
        }
    }

    fn current_self_ty(&self) -> Option<String> {
        self.scopes.iter().rev().find_map(|s| match s {
            Scope::Impl(t) => t.clone(),
            _ => None,
        })
    }

    /// Skips a balanced `<…>` generic group starting at `self.i` (which must
    /// point at `<`). A `>` preceded by `-` is an arrow inside an `Fn(…) ->
    /// T` bound, not a close.
    fn skip_generics(&mut self) {
        debug_assert!(self.punct(self.i, "<"));
        let mut depth = 0i32;
        while self.i < self.toks.len() {
            if self.punct(self.i, "<") {
                depth += 1;
            } else if self.punct(self.i, ">") && !(self.i > 0 && self.punct(self.i - 1, "-")) {
                depth -= 1;
                if depth <= 0 {
                    self.i += 1;
                    return;
                }
            } else if self.punct(self.i, ";") || self.punct(self.i, "{") {
                // Safety valve: a `<` that was really a comparison. Leave the
                // token for the main loop.
                return;
            }
            self.i += 1;
        }
    }

    /// Skips a balanced delimiter group starting at `self.i` (which must
    /// point at one of `(`, `[`, `{`).
    fn skip_group(&mut self) {
        let (open, close) = match self.toks.get(self.i).map(|t| t.text.as_str()) {
            Some("(") => ("(", ")"),
            Some("[") => ("[", "]"),
            Some("{") => ("{", "}"),
            _ => return,
        };
        let mut depth = 0usize;
        while self.i < self.toks.len() {
            if self.punct(self.i, open) {
                depth += 1;
            } else if self.punct(self.i, close) {
                depth -= 1;
                if depth == 0 {
                    self.i += 1;
                    return;
                }
            }
            self.i += 1;
        }
    }

    /// Parses an `impl` header from `self.i` (at the `impl` keyword) to its
    /// opening `{`, returning the self-type name (last path ident at angle
    /// depth zero, after `for` when present).
    fn parse_impl(&mut self) {
        self.i += 1; // `impl`
        if self.punct(self.i, "<") {
            self.skip_generics();
        }
        let mut last_ident: Option<String> = None;
        let mut depth = 0i32;
        while self.i < self.toks.len() {
            if self.punct(self.i, "<") {
                depth += 1;
            } else if self.punct(self.i, ">") && !(self.i > 0 && self.punct(self.i - 1, "-")) {
                depth -= 1;
            } else if depth == 0 {
                if self.punct(self.i, "{") {
                    self.scopes.push(Scope::Impl(last_ident));
                    self.i += 1;
                    return;
                }
                if self.punct(self.i, ";") {
                    // `impl Trait for Type;` does not exist, but recover.
                    self.i += 1;
                    return;
                }
                match self.ident(self.i) {
                    Some("for") => last_ident = None,
                    Some("where") => {
                        // Skip the where clause to the body.
                        while self.i < self.toks.len() && !self.punct(self.i, "{") {
                            self.i += 1;
                        }
                        continue;
                    }
                    Some(name) if name != "dyn" && name != "impl" => {
                        last_ident = Some(name.to_string());
                    }
                    _ => {}
                }
            }
            self.i += 1;
        }
    }

    /// Parses a `fn` item from `self.i` (at the `fn` keyword).
    fn parse_fn(&mut self, is_unsafe: bool) {
        let fn_line = self.line(self.i);
        self.i += 1; // `fn`
        let Some(name) = self.ident(self.i).map(str::to_string) else {
            return; // `fn(` — a fn-pointer type, not an item.
        };
        self.i += 1;
        if self.punct(self.i, "<") {
            self.skip_generics();
        }
        if !self.punct(self.i, "(") {
            return; // malformed; recover.
        }
        // Scan the parameter list for a leading `self`.
        let params_start = self.i;
        self.skip_group();
        let mut has_self = false;
        for j in params_start + 1..self.i.saturating_sub(1) {
            if self.punct(j, ",") {
                break;
            }
            if self.ident(j) == Some("self") {
                has_self = true;
                break;
            }
        }
        // Return type / where clause: scan to the body `{` or a `;`.
        let mut depth = 0i32;
        let body_open = loop {
            if self.i >= self.toks.len() {
                break None;
            }
            if self.punct(self.i, "<") {
                depth += 1;
            } else if self.punct(self.i, ">") && !(self.i > 0 && self.punct(self.i - 1, "-")) {
                depth = (depth - 1).max(0);
            } else if self.punct(self.i, "(") || self.punct(self.i, "[") {
                self.skip_group();
                continue;
            } else if depth == 0 && self.punct(self.i, ";") {
                self.i += 1;
                break None;
            } else if depth == 0 && self.punct(self.i, "{") {
                break Some(self.i);
            }
            self.i += 1;
        };
        let idx = self.fns.len();
        self.fns.push(FnDef {
            name,
            modules: self.current_modules(),
            self_ty: self.current_self_ty(),
            has_self,
            is_unsafe,
            line: fn_line,
            end_line: fn_line,
            body: body_open.map(|b| (b, b)),
            calls: Vec::new(),
            methods: Vec::new(),
            macros: Vec::new(),
        });
        if body_open.is_some() {
            self.scopes.push(Scope::Fn(idx));
            self.i += 1; // past `{`
        }
    }

    /// Records calls/methods/macros at `self.i` when inside a fn body.
    /// Returns `true` when it consumed tokens.
    fn scan_expression(&mut self) -> bool {
        let Some(fn_idx) = self.current_fn() else {
            return false;
        };
        // Method call: `.name(` or `.name::<…>(`.
        if self.punct(self.i, ".") {
            if let Some(m) = self.ident(self.i + 1) {
                let m = m.to_string();
                let line = self.line(self.i + 1);
                let mut j = self.i + 2;
                if self.punct(j, ":") && self.punct(j + 1, ":") && self.punct(j + 2, "<") {
                    let save = self.i;
                    self.i = j + 2;
                    self.skip_generics();
                    j = self.i;
                    self.i = save;
                }
                if self.punct(j, "(") {
                    self.fns[fn_idx].methods.push((m, line));
                }
                self.i += 2;
                return true;
            }
            return false;
        }
        let Some(first) = self.ident(self.i).map(str::to_string) else {
            return false;
        };
        // Macro invocation: record the name, then keep scanning inside the
        // group — macro arguments are expressions that run.
        if self.punct(self.i + 1, "!") && !self.punct(self.i + 2, "=") {
            let line = self.line(self.i);
            self.fns[fn_idx].macros.push((first, line));
            self.i += 2;
            return true;
        }
        if NON_CALL_KEYWORDS.contains(&first.as_str()) {
            return false;
        }
        // Path: `a::b::c` with optional turbofish, then `(` makes it a call.
        let line = self.line(self.i);
        let mut segments = vec![first];
        let save = self.i;
        self.i += 1;
        loop {
            if self.punct(self.i, ":") && self.punct(self.i + 1, ":") {
                if self.punct(self.i + 2, "<") {
                    self.i += 2;
                    self.skip_generics();
                    continue;
                }
                if let Some(seg) = self.ident(self.i + 2) {
                    if NON_CALL_KEYWORDS.contains(&seg) {
                        break;
                    }
                    segments.push(seg.to_string());
                    self.i += 3;
                    continue;
                }
            }
            break;
        }
        if self.punct(self.i, "(") && self.ident(save.wrapping_sub(1)) != Some("fn") {
            self.fns[fn_idx].calls.push(Call { segments, line });
        }
        true
    }

    fn run(&mut self) {
        while self.i < self.toks.len() {
            // Attributes: skip the balanced `#[…]` / `#![…]` group.
            if self.punct(self.i, "#") {
                let mut j = self.i + 1;
                if self.punct(j, "!") {
                    j += 1;
                }
                if self.punct(j, "[") {
                    self.i = j;
                    self.skip_group();
                    continue;
                }
                self.i += 1;
                continue;
            }
            if self.punct(self.i, "{") {
                self.scopes.push(Scope::Block);
                self.i += 1;
                continue;
            }
            if self.punct(self.i, "}") {
                let line = self.line(self.i);
                if let Some(Scope::Fn(idx)) = self.scopes.last() {
                    let idx = *idx;
                    self.fns[idx].end_line = line;
                    if let Some((start, _)) = self.fns[idx].body {
                        self.fns[idx].body = Some((start, self.i + 1));
                    }
                }
                self.scopes.pop();
                self.i += 1;
                continue;
            }
            match self.ident(self.i) {
                Some("macro_rules") if self.punct(self.i + 1, "!") => {
                    // `macro_rules! name { … }`: skip the definition — its
                    // pattern tokens are not code.
                    self.i += 2;
                    if self.ident(self.i).is_some() {
                        self.i += 1;
                    }
                    self.skip_group();
                }
                Some("mod") => {
                    let name = self.ident(self.i + 1).map(str::to_string);
                    if self.punct(self.i + 2, "{") {
                        self.scopes.push(Scope::Module(name.unwrap_or_default()));
                        self.i += 3;
                    } else {
                        self.i += 1; // `mod name;` or expression field `.mod`…
                    }
                }
                Some("unsafe") => {
                    let line = self.line(self.i);
                    if self.punct(self.i + 1, "{") {
                        self.unsafe_sites.push((line, UnsafeKind::Block, None));
                        self.scopes.push(Scope::Block);
                        self.i += 2;
                    } else {
                        self.pending_unsafe = Some(line);
                        self.i += 1;
                    }
                }
                Some("impl") => {
                    let site = self.pending_unsafe.take().map(|_| self.line(self.i));
                    self.parse_impl();
                    self.unsafe_sites
                        .extend(site.map(|l| (l, UnsafeKind::Impl, self.impl_item())));
                }
                Some("trait") => {
                    if self.pending_unsafe.take().is_some() {
                        let item = self.ident(self.i + 1).map(|name| format!("impl {name}"));
                        self.unsafe_sites
                            .push((self.line(self.i), UnsafeKind::Impl, item));
                    }
                    // `trait Name … {`: the scope behaves like an impl of
                    // `Name` for default-method qualification.
                    let name = self.ident(self.i + 1).map(str::to_string);
                    self.i += 1;
                    while self.i < self.toks.len()
                        && !self.punct(self.i, "{")
                        && !self.punct(self.i, ";")
                    {
                        if self.punct(self.i, "<") {
                            self.skip_generics();
                        } else {
                            self.i += 1;
                        }
                    }
                    if self.punct(self.i, "{") {
                        self.scopes.push(Scope::Impl(name));
                        self.i += 1;
                    }
                }
                Some("fn") => {
                    let unsafe_line = self.pending_unsafe.take();
                    // Only a *declaring* fn marks the site; `fn(` types are
                    // filtered inside parse_fn, so check here too.
                    let declares = self.ident(self.i + 1).is_some();
                    let parsed = self.fns.len();
                    self.parse_fn(unsafe_line.is_some());
                    if let Some(l) = unsafe_line.filter(|_| declares) {
                        let item = self.fns.get(parsed).map(FnDef::item_path);
                        self.unsafe_sites.push((l, UnsafeKind::Fn, item));
                    }
                }
                _ => {
                    if self.punct(self.i, ";") {
                        self.pending_unsafe = None;
                    }
                    if !self.scan_expression() {
                        self.i += 1;
                    }
                }
            }
        }
    }
}

/// Whether the fn at `line` falls inside a `#[cfg(test)]` region.
pub fn in_regions(regions: &[(u32, u32)], line: u32) -> bool {
    regions.iter().any(|&(a, b)| a <= line && line <= b)
}

/// Lines occupied by comments mapped to their texts, plus attribute lines —
/// the raw material for safety-comment detection.
fn comment_preamble(raw: &[Token], site_line: u32, want_safety_doc: bool) -> bool {
    use std::collections::HashMap;
    // line → concatenated comment text starting or spanning that line.
    let mut comment_on: HashMap<u32, String> = HashMap::new();
    let mut code_on: std::collections::HashSet<u32> = std::collections::HashSet::new();
    let mut attr_on: std::collections::HashSet<u32> = std::collections::HashSet::new();
    let mut k = 0;
    while k < raw.len() {
        let t = &raw[k];
        match t.kind {
            TokenKind::LineComment | TokenKind::BlockComment => {
                let span = t.text.matches('\n').count() as u32;
                for l in t.line..=t.line + span {
                    comment_on.entry(l).or_default().push_str(&t.text);
                }
            }
            TokenKind::Punct if t.text == "#" => {
                // Attribute: mark every line the balanced `[...]` spans.
                let mut j = k + 1;
                if raw.get(j).is_some_and(|t| t.text == "!") {
                    j += 1;
                }
                if raw.get(j).is_some_and(|t| t.text == "[") {
                    let mut depth = 0i32;
                    while j < raw.len() {
                        match raw[j].text.as_str() {
                            "[" => depth += 1,
                            "]" => {
                                depth -= 1;
                                if depth == 0 {
                                    break;
                                }
                            }
                            _ => {}
                        }
                        attr_on.insert(raw[j].line);
                        j += 1;
                    }
                    attr_on.insert(raw[j.min(raw.len() - 1)].line);
                    attr_on.insert(t.line);
                    k = j + 1;
                    continue;
                }
                code_on.insert(t.line);
            }
            _ => {
                code_on.insert(t.line);
            }
        }
        k += 1;
    }
    // Walk upward from the site line through contiguous comment/attribute
    // lines (code-free); collect comment texts.
    let mut l = site_line - 1;
    let mut texts = Vec::new();
    while l >= 1 {
        let is_comment = comment_on.contains_key(&l) && !code_on.contains(&l);
        let is_attr = attr_on.contains(&l) && !code_on.contains(&l);
        if is_comment {
            texts.push(comment_on[&l].clone());
        } else if !is_attr {
            break;
        }
        if l == 1 {
            break;
        }
        l -= 1;
    }
    texts
        .iter()
        .any(|t| t.contains("SAFETY:") || (want_safety_doc && t.contains("# Safety")))
}

/// Parses one file. Never fails; see the module docs for what is and is not
/// modeled.
pub fn parse_file(src: &str) -> ParsedFile {
    let raw = lex(src);
    let toks: Vec<Token> = significant(&raw).into_iter().cloned().collect();
    let mut p = Parser {
        toks: &toks,
        i: 0,
        scopes: Vec::new(),
        fns: Vec::new(),
        unsafe_sites: Vec::new(),
        pending_unsafe: None,
    };
    p.run();
    let sites = std::mem::take(&mut p.unsafe_sites);
    let mut parsed = ParsedFile {
        fns: std::mem::take(&mut p.fns),
        tokens: toks,
        unsafe_sites: Vec::new(),
    };
    parsed.unsafe_sites = sites
        .into_iter()
        .map(|(line, kind, item)| UnsafeSite {
            line,
            item: item.unwrap_or_else(|| parsed.item_at(line)),
            kind,
            has_safety_comment: comment_preamble(&raw, line, kind != UnsafeKind::Block),
        })
        .collect();
    parsed
}
