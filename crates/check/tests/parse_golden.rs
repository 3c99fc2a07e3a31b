//! Golden tests for the lightweight item/expression parser behind the
//! call-graph rules: item discovery across nested generics, `where`
//! clauses, raw identifiers and macros; call/method/macro extraction; and
//! `unsafe` site detection with the `// SAFETY:` preamble walk.

use viderec_check::parse::{parse_file, FnDef, UnsafeKind};

fn fn_named<'a>(fns: &'a [FnDef], name: &str) -> &'a FnDef {
    fns.iter().find(|f| f.name == name).unwrap_or_else(|| {
        panic!(
            "no fn `{name}` in {:?}",
            fns.iter().map(|f| &f.name).collect::<Vec<_>>()
        )
    })
}

#[test]
fn free_fns_impl_methods_and_modules_are_discovered() {
    let src = "\
pub fn top() {}
mod inner {
    pub mod deeper {
        pub fn nested() {}
    }
    impl Widget {
        pub fn method(&self) {}
        pub fn assoc() -> u32 { 0 }
    }
}
";
    let pf = parse_file(src);
    let top = fn_named(&pf.fns, "top");
    assert!(top.modules.is_empty() && top.self_ty.is_none() && !top.has_self);
    let nested = fn_named(&pf.fns, "nested");
    assert_eq!(nested.modules, vec!["inner", "deeper"]);
    let method = fn_named(&pf.fns, "method");
    assert_eq!(method.self_ty.as_deref(), Some("Widget"));
    assert!(method.has_self);
    assert_eq!(method.modules, vec!["inner"]);
    let assoc = fn_named(&pf.fns, "assoc");
    assert_eq!(assoc.self_ty.as_deref(), Some("Widget"));
    assert!(!assoc.has_self);
}

#[test]
fn nested_generics_and_where_clauses_do_not_derail_item_scan() {
    // The `>>` shift-like closer, `->` arrows inside generic args, and a
    // multi-bound `where` clause are the classic lexer traps.
    let src = "\
fn transmogrify<T: Iterator<Item = Vec<Option<u8>>>, F: Fn(&T) -> u32>(it: T, f: F) -> u32
where
    T: Clone + Send,
    F: Sync,
{
    helper(f(&it))
}
fn helper(x: u32) -> u32 { x }
impl<K: Ord, V> Store<K, Vec<(K, V)>> {
    fn get_mut(&mut self, k: &K) -> Option<&mut Vec<(K, V)>> { lookup(k) }
}
";
    let pf = parse_file(src);
    let t = fn_named(&pf.fns, "transmogrify");
    assert_eq!(t.line, 1);
    let calls: Vec<&str> = t.calls.iter().map(|c| c.segments[0].as_str()).collect();
    // `helper(..)` is a real edge; `f(&it)` calls a closure parameter, which
    // the untyped parser conservatively keeps as a would-be free-fn call
    // (over-approximation: unresolvable names simply produce no edge).
    assert_eq!(calls, vec!["helper", "f"], "calls: {:?}", t.calls);
    // Nothing inside the generic parameter list (`Fn(&T) -> u32`) leaked
    // into the call list as a line-1 call.
    assert!(t.calls.iter().all(|c| c.line != 1), "calls: {:?}", t.calls);
    let g = fn_named(&pf.fns, "get_mut");
    assert_eq!(g.self_ty.as_deref(), Some("Store"));
    assert!(g.has_self);
    assert_eq!(g.calls[0].segments, vec!["lookup"]);
    assert!(fn_named(&pf.fns, "helper").calls.is_empty());
}

#[test]
fn qualified_calls_methods_and_turbofish_are_extracted() {
    let src = "\
fn driver() {
    viderec_core::recommender::score(1);
    crate::util::clamp(2);
    Vec::<u64>::with_capacity(8);
    holder.payload.parse::<usize>();
    let x = free_call(3);
}
";
    let pf = parse_file(src);
    let d = fn_named(&pf.fns, "driver");
    let calls: Vec<Vec<&str>> = d
        .calls
        .iter()
        .map(|c| c.segments.iter().map(String::as_str).collect())
        .collect();
    assert!(calls.contains(&vec!["viderec_core", "recommender", "score"]));
    assert!(calls.contains(&vec!["crate", "util", "clamp"]));
    assert!(calls.contains(&vec!["Vec", "with_capacity"]));
    assert!(calls.contains(&vec!["free_call"]));
    let methods: Vec<&str> = d.methods.iter().map(|(m, _)| m.as_str()).collect();
    assert!(methods.contains(&"parse"));
}

#[test]
fn keywords_are_not_mistaken_for_calls() {
    let src = "\
fn flow(opt: Option<u32>) -> u32 {
    if (opt.is_some()) { return 1; }
    while (false) {}
    match (opt) { _ => () }
    0
}
";
    let pf = parse_file(src);
    let f = fn_named(&pf.fns, "flow");
    assert!(
        f.calls.is_empty(),
        "control-flow keywords parsed as calls: {:?}",
        f.calls
    );
    let methods: Vec<&str> = f.methods.iter().map(|(m, _)| m.as_str()).collect();
    assert_eq!(methods, vec!["is_some"]);
}

#[test]
fn raw_identifiers_parse_as_ordinary_names() {
    let src = "\
fn r#match(r#type: u32) -> u32 { r#type }
fn caller() { r#match(1); }
";
    let pf = parse_file(src);
    // The lexer strips the `r#` sigil, so the item scan sees `fn match` and
    // still records the fn (the name position after `fn` is unambiguous).
    assert_eq!(
        pf.fns.len(),
        2,
        "{:?}",
        pf.fns.iter().map(|f| &f.name).collect::<Vec<_>>()
    );
    assert!(pf.fns.iter().any(|f| f.name == "match"));
    // Documented gap: at the *call* site `r#match(1)` is indistinguishable
    // from the `match` keyword post-lex, so the edge is dropped. This is
    // the one under-approximation in the extractor; no raw-ident calls
    // exist in-tree (DESIGN.md §15).
    let caller = fn_named(&pf.fns, "caller");
    assert!(caller.calls.is_empty(), "{:?}", caller.calls);
}

#[test]
fn macro_rules_bodies_are_skipped_but_invocation_args_are_scanned() {
    let src = "\
macro_rules! fake {
    () => {
        fn not_a_real_fn() { phantom_call(); }
    };
}
fn real() {
    assert_eq!(compute(), 7);
    log!(\"x\", helper());
}
";
    let pf = parse_file(src);
    // Nothing inside macro_rules! becomes an item or an edge…
    assert!(pf.fns.iter().all(|f| f.name != "not_a_real_fn"));
    assert!(pf
        .fns
        .iter()
        .all(|f| f.calls.iter().all(|c| c.segments != ["phantom_call"])));
    // …but invocation arguments are real expressions and keep their calls.
    let real = fn_named(&pf.fns, "real");
    let calls: Vec<&str> = real.calls.iter().map(|c| c.segments[0].as_str()).collect();
    assert!(calls.contains(&"compute"), "{calls:?}");
    assert!(calls.contains(&"helper"), "{calls:?}");
    let macros: Vec<&str> = real.macros.iter().map(|(m, _)| m.as_str()).collect();
    assert!(macros.contains(&"assert_eq"));
    assert!(macros.contains(&"log"));
}

#[test]
fn fn_body_spans_and_cfg_test_regions_compose() {
    let src = "\
fn shipped() { body(); }
#[cfg(test)]
mod tests {
    fn test_only() { other(); }
}
";
    let pf = parse_file(src);
    let shipped = fn_named(&pf.fns, "shipped");
    assert_eq!(shipped.line, 1);
    assert_eq!(shipped.end_line, 1);
    let t = fn_named(&pf.fns, "test_only");
    assert_eq!(t.line, 4);
}

// --- unsafe site detection ---

#[test]
fn unsafe_block_fn_and_impl_are_classified() {
    let src = "\
unsafe fn raw() {}
unsafe impl Send for Holder {}
fn wrapper() {
    unsafe { raw() }
}
";
    let pf = parse_file(src);
    let kinds: Vec<(u32, UnsafeKind)> = pf.unsafe_sites.iter().map(|s| (s.line, s.kind)).collect();
    assert_eq!(
        kinds,
        vec![
            (1, UnsafeKind::Fn),
            (2, UnsafeKind::Impl),
            (4, UnsafeKind::Block)
        ]
    );
    assert!(pf.unsafe_sites.iter().all(|s| !s.has_safety_comment));
    let items: Vec<&str> = pf.unsafe_sites.iter().map(|s| s.item.as_str()).collect();
    assert_eq!(items, ["raw", "impl Holder", "wrapper"]);
}

#[test]
fn safety_comment_preamble_is_detected_through_comment_runs_and_attrs() {
    let src = "\
fn f() {
    // SAFETY: the pointer below is the one handed to us by the kernel,
    // valid for the duration of the call.
    unsafe { deref() }
}
/// Does raw things.
///
/// # Safety
/// Caller must pass a live pointer.
#[inline]
pub unsafe fn documented(p: *const u8) -> u8 { *p }
";
    let pf = parse_file(src);
    assert!(
        pf.unsafe_sites.iter().all(|s| s.has_safety_comment),
        "{:?}",
        pf.unsafe_sites
    );
}

#[test]
fn unrelated_comment_is_not_a_safety_comment() {
    let src = "\
fn f() {
    // fast path: skip the bounds check
    unsafe { deref() }
}
";
    let pf = parse_file(src);
    assert_eq!(pf.unsafe_sites.len(), 1);
    assert!(!pf.unsafe_sites[0].has_safety_comment);
}
