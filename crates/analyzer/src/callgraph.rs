//! The workspace call graph behind the interprocedural rules.
//!
//! Nodes are `fn` items keyed `crate::module::name` (module path derived
//! from the file path), built from the [`crate::parse::FnSig`] layer.
//! Edges come from call-site tokens and are resolved by unanimous name
//! lookup — a call edge is only recorded when it can be justified,
//! ambiguity stays silent:
//!
//! * **bare calls** (`foo(..)`) resolve to a same-file `fn foo` when the
//!   file defines exactly one, else through the file's `use` imports,
//!   else to the unique workspace `fn foo` — two candidates means no
//!   edge;
//! * **qualified calls** (`zoo::by_name(..)`) expand the first segment
//!   through the file's `use` aliases (`use hypar_models::zoo;`,
//!   `use hypar_graph::{zoo as graph_zoo}`) and match the resulting
//!   module path against node labels; `Type::method(..)` falls back to
//!   the unique workspace fn of that name;
//! * **method calls** (`x.foo(..)`) resolve by bare name when the
//!   workspace defines exactly one `fn foo` *and* the name does not
//!   shadow a std-prelude method (`.find(..)` on an iterator must never
//!   edge to a workspace `fn find`).
//!
//! # How reachability is computed
//!
//! **must-reach** is the closure of the justified edges above, seeded at
//! the service entry points ([`crate::config::ENTRY_POINTS`]:
//! `PlanEngine::plan*`, `service::handle_*`/`serve_*`, the engine and
//! replay `main`s, scenario/replay/golden runners).  It scopes the
//! `lock-order` and `recurse-request` analyses and provides the
//! `entry_trace` call chains, so every finding on a request path carries
//! a justifiable path from an entry point.  A graph with no entry points
//! would give no interprocedural findings, so [`crate::scan_workspace`]
//! refuses one.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use crate::config::ENTRY_POINTS;
use crate::lexer::Token;
use crate::rules::{is_punct, is_word};

/// Method names that shadow std-prelude/collection methods, or methods
/// of crates outside the scan roots: a dotted call through one of these
/// never resolves to a workspace fn, however unique the name —
/// `.find(..)` is `Iterator::find`, not `fn find`, and `.value()` is
/// usually a `hypar-tensor` unit accessor.
const STD_METHODS: &[&str] = &[
    "all",
    "any",
    "as_bytes",
    "as_ref",
    "as_str",
    "by_ref",
    "chain",
    "chars",
    "clone",
    "cloned",
    "cmp",
    "collect",
    "contains",
    "contains_key",
    "copied",
    "count",
    "dedup",
    "drain",
    "elapsed",
    "ends_with",
    "entry",
    "enumerate",
    "eq",
    "extend",
    "filter",
    "filter_map",
    "find",
    "find_map",
    "first",
    "flat_map",
    "flatten",
    "flush",
    "fold",
    "get",
    "get_mut",
    "get_or_init",
    "insert",
    "into_inner",
    "into_iter",
    "is_empty",
    "iter",
    "iter_mut",
    "join",
    "keys",
    "last",
    "len",
    "lines",
    "lock",
    "map",
    "max",
    "min",
    "next",
    "parse",
    "partial_cmp",
    "position",
    "push",
    "push_str",
    "pop",
    "read",
    "remove",
    "retain",
    "rev",
    "skip",
    "sort",
    "sort_by",
    "split",
    "starts_with",
    "sum",
    "take",
    "to_owned",
    "to_string",
    "to_vec",
    "trim",
    "value",
    "values",
    "windows",
    "write",
    "zip",
];

/// Keywords that can directly precede `(` without being a call.
const KEYWORDS: &[&str] = &[
    "as", "async", "await", "box", "break", "const", "continue", "crate", "dyn", "else", "enum",
    "extern", "false", "fn", "for", "if", "impl", "in", "let", "loop", "match", "mod", "move",
    "mut", "pub", "ref", "return", "static", "struct", "super", "trait", "true", "type", "unsafe",
    "use", "where", "while", "yield",
];

/// Leading path segments that mean "not this workspace".
const EXTERNAL_ROOTS: &[&str] = &["std", "core", "alloc"];

/// One `fn` item in the graph.
#[derive(Clone, Debug)]
pub struct FnNode {
    /// `crate::module::name`, the stable display key.
    pub label: String,
    /// Workspace-relative file path.
    pub file: String,
    /// Index of the file in the scan order.
    pub file_idx: usize,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Token indices of the body `{`/`}` in its file.
    pub body: Option<(usize, usize)>,
    /// The `impl` block's type name when the fn is a method
    /// (`impl PlanEngine` and `impl Display for PlanEngine` both give
    /// `PlanEngine`).
    pub impl_type: Option<String>,
}

/// A resolved call site inside a node's body.
#[derive(Clone, Copy, Debug)]
pub(crate) struct CallSite {
    /// Token index of the callee name in the caller's file.
    pub tok: usize,
    /// Target node.
    pub callee: usize,
}

/// The workspace call graph plus its must-reach closure.
pub struct CallGraph {
    /// All non-test `fn` nodes, in file-scan order.
    pub nodes: Vec<FnNode>,
    /// Justified call sites per node (token + target), deduplicated
    /// edges in [`CallGraph::must_out`].
    pub(crate) calls: Vec<Vec<CallSite>>,
    must_out: Vec<BTreeSet<usize>>,
    entries: Vec<usize>,
    must_reach: Vec<bool>,
    /// BFS parent (over must edges, from the entry set) for traces.
    trace_parent: Vec<Option<usize>>,
    /// Per-file node indices, for innermost-body lookup.
    by_file: Vec<Vec<usize>>,
}

/// One scanned file: `(rel_path, tokens, parsed)`.
pub(crate) type FileUnit = (String, Vec<Token>, crate::parse::Parsed);

/// The module path of a file: `crates/engine/src/service.rs` →
/// `["engine", "service"]`, `lib.rs`/`mod.rs` collapse into the parent,
/// the root facade is `hypar`, examples are `examples::<name>`.
fn module_segments(path: &str) -> Vec<String> {
    let (mut segs, rest): (Vec<String>, &str) = if let Some(rest) = path.strip_prefix("crates/") {
        let mut parts = rest.splitn(2, "/src/");
        let krate = parts.next().unwrap_or("");
        (vec![krate.to_string()], parts.next().unwrap_or(""))
    } else if let Some(rest) = path.strip_prefix("src/") {
        (vec!["hypar".to_string()], rest)
    } else if let Some(rest) = path.strip_prefix("examples/") {
        (vec!["examples".to_string()], rest)
    } else {
        (Vec::new(), path)
    };
    for part in rest.split('/') {
        let stem = part.strip_suffix(".rs").unwrap_or(part);
        if stem.is_empty() || stem == "lib" || stem == "mod" {
            continue;
        }
        segs.push(stem.to_string());
    }
    segs
}

/// Normalizes a use-path head: `crate` → the file's crate, `hypar_x` →
/// `x`; std/core/alloc paths are external (`None`).
fn normalize_path(segs: &[String], crate_root: &str) -> Option<Vec<String>> {
    let first = segs.first()?;
    if EXTERNAL_ROOTS.contains(&first.as_str()) {
        return None;
    }
    let mut out = Vec::with_capacity(segs.len());
    if first == "crate" {
        out.push(crate_root.to_string());
    } else if let Some(stripped) = first.strip_prefix("hypar_") {
        out.push(stripped.to_string());
    } else {
        out.push(first.clone());
    }
    out.extend(segs.iter().skip(1).cloned());
    Some(out)
}

/// Collects `use` imports into `leaf-or-alias → full path segments`.
fn use_aliases(tokens: &[Token]) -> BTreeMap<String, Vec<String>> {
    let mut out = BTreeMap::new();
    let mut i = 0;
    while i < tokens.len() {
        if is_word(&tokens[i]) && tokens[i].text == "use" {
            i = use_tree(tokens, i + 1, &[], &mut out, 0);
        } else {
            i += 1;
        }
    }
    out
}

/// Parses one use-tree starting at `i` under `prefix`; returns the index
/// of the token that ended it (`,`, `}`, `;`, or EOF).
fn use_tree(
    tokens: &[Token],
    mut i: usize,
    prefix: &[String],
    out: &mut BTreeMap<String, Vec<String>>,
    depth: usize,
) -> usize {
    if depth > 16 {
        return i;
    }
    let mut path: Vec<String> = prefix.to_vec();
    let mut leaf: Option<String> = None;
    while let Some(tok) = tokens.get(i) {
        if is_word(tok) {
            if tok.text == "as" {
                if let Some(alias) = tokens.get(i + 1).filter(|t| is_word(t)) {
                    if leaf.take().is_some() {
                        out.insert(alias.text.clone(), path.clone());
                    }
                    i += 2;
                    continue;
                }
                i += 1;
            } else {
                path.push(tok.text.clone());
                leaf = Some(tok.text.clone());
                i += 1;
            }
        } else if is_punct(tok, ':') && tokens.get(i + 1).is_some_and(|t| is_punct(t, ':')) {
            i += 2;
            if tokens.get(i).is_some_and(|t| is_punct(t, '{')) {
                i += 1;
                loop {
                    i = use_tree(tokens, i, &path, out, depth + 1);
                    match tokens.get(i) {
                        Some(t) if is_punct(t, ',') => i += 1,
                        Some(t) if is_punct(t, '}') => {
                            i += 1;
                            break;
                        }
                        _ => break,
                    }
                }
                return i;
            }
            if tokens.get(i).is_some_and(|t| is_punct(t, '*')) {
                return i + 1;
            }
        } else {
            break;
        }
    }
    if let Some(leaf) = leaf {
        out.insert(leaf, path);
    }
    i
}

/// `impl` blocks in a token stream: `(type_name, open, close)` token
/// spans.  `impl fmt::Display for Layer` records `Layer`; generics are
/// skipped.  `-> impl Trait` return types are excluded by requiring the
/// `impl` keyword at item position (start of file or after `}`/`;`/`]`
/// or an item keyword).
fn impl_blocks(tokens: &[Token]) -> Vec<(String, usize, usize)> {
    let mut out = Vec::new();
    for i in 0..tokens.len() {
        if !(is_word(&tokens[i]) && tokens[i].text == "impl") {
            continue;
        }
        let item_position = i == 0
            || is_punct(&tokens[i - 1], '}')
            || is_punct(&tokens[i - 1], ';')
            || is_punct(&tokens[i - 1], ']')
            || (is_word(&tokens[i - 1])
                && matches!(tokens[i - 1].text.as_str(), "unsafe" | "pub" | "crate"));
        if !item_position {
            continue; // `-> impl Trait`, `&impl Trait`, ...
        }
        // Walk the header: the type is the last path ident before the
        // body `{` (after `for` when present), with generic argument
        // lists skipped.
        let mut j = i + 1;
        let mut name: Option<String> = None;
        let mut angle = 0i32;
        while j < tokens.len() {
            let tok = &tokens[j];
            if is_punct(tok, '<') {
                angle += 1;
            } else if is_punct(tok, '>') {
                angle -= 1;
            } else if angle == 0 {
                if is_punct(tok, '{') {
                    break;
                }
                if is_word(tok) {
                    match tok.text.as_str() {
                        "for" => name = None,
                        "where" => break,
                        "dyn" | "mut" => {}
                        _ => name = Some(tok.text.clone()),
                    }
                }
            }
            j += 1;
        }
        let (Some(name), true) = (name, j < tokens.len() && is_punct(&tokens[j], '{')) else {
            continue;
        };
        // Match the body braces.
        let mut depth = 0i32;
        let mut close = None;
        for (k, tok) in tokens.iter().enumerate().skip(j) {
            if is_punct(tok, '{') {
                depth += 1;
            } else if is_punct(tok, '}') {
                depth -= 1;
                if depth == 0 {
                    close = Some(k);
                    break;
                }
            }
        }
        if let Some(close) = close {
            out.push((name, j, close));
        }
    }
    out
}

impl CallGraph {
    /// Builds the graph over the scanned files.
    pub(crate) fn build(files: &[FileUnit]) -> CallGraph {
        let masks: Vec<Vec<bool>> = files
            .iter()
            .map(|(_, tokens, _)| crate::rules::test_mask(tokens))
            .collect();
        let aliases: Vec<BTreeMap<String, Vec<String>>> = files
            .iter()
            .map(|(_, tokens, _)| use_aliases(tokens))
            .collect();

        // Pass 1: nodes.
        let mut nodes = Vec::new();
        let mut by_sig = BTreeMap::new();
        let mut by_file = vec![Vec::new(); files.len()];
        let mut by_name: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        let mut by_impl: BTreeMap<(String, String), Vec<usize>> = BTreeMap::new();
        let mut entries = Vec::new();
        for (file_idx, (path, tokens, parsed)) in files.iter().enumerate() {
            let module = module_segments(path);
            let impls = impl_blocks(tokens);
            let mut cursor = 0usize;
            for sig in &parsed.fns {
                // The `fn` keyword token of this signature: the next
                // `fn` on the signature's line followed by its name.
                let mut kw = None;
                let mut k = cursor;
                while k + 1 < tokens.len() {
                    if is_word(&tokens[k])
                        && tokens[k].text == "fn"
                        && tokens[k].line == sig.line
                        && tokens[k + 1].text == sig.name
                    {
                        kw = Some(k);
                        break;
                    }
                    k += 1;
                }
                let Some(kw) = kw else { continue };
                cursor = kw + 2;
                if masks[file_idx].get(kw).copied().unwrap_or(false) {
                    continue; // test-gated fn: not part of the graph
                }
                let label = format!("{}::{}", module.join("::"), sig.name);
                // Innermost enclosing `impl` block gives the method's
                // self type.
                let impl_type = impls
                    .iter()
                    .filter(|(_, open, close)| *open < kw && kw < *close)
                    .min_by_key(|(_, open, close)| close - open)
                    .map(|(name, _, _)| name.clone());
                let idx = nodes.len();
                nodes.push(FnNode {
                    label,
                    file: path.clone(),
                    file_idx,
                    line: sig.line,
                    body: sig.body,
                    impl_type,
                });
                if ENTRY_POINTS
                    .iter()
                    .any(|(suffix, prefix)| path.ends_with(suffix) && sig.name.starts_with(prefix))
                {
                    entries.push(idx);
                }
                by_sig.insert((file_idx, sig.name.clone(), sig.line), idx);
                by_file[file_idx].push(idx);
                by_name.entry(sig.name.clone()).or_default().push(idx);
                if let Some(impl_type) = &nodes[idx].impl_type {
                    by_impl
                        .entry((impl_type.clone(), sig.name.clone()))
                        .or_default()
                        .push(idx);
                }
            }
        }

        // Pass 2: edges.
        let mut calls = vec![Vec::new(); nodes.len()];
        let mut must_out = vec![BTreeSet::new(); nodes.len()];
        for (file_idx, (path, tokens, parsed)) in files.iter().enumerate() {
            let crate_root = module_segments(path)
                .first()
                .cloned()
                .unwrap_or_else(|| "hypar".to_string());
            for i in 0..tokens.len() {
                if masks[file_idx][i] || !is_word(&tokens[i]) {
                    continue;
                }
                if !tokens.get(i + 1).is_some_and(|t| is_punct(t, '(')) {
                    continue;
                }
                let name = tokens[i].text.as_str();
                if KEYWORDS.contains(&name) {
                    continue;
                }
                if i > 0 && is_word(&tokens[i - 1]) && tokens[i - 1].text == "fn" {
                    continue; // the definition itself
                }
                let Some(sig) = parsed.enclosing_fn(i) else {
                    continue;
                };
                let Some(&caller) = by_sig.get(&(file_idx, sig.name.clone(), sig.line)) else {
                    continue;
                };
                let Some(candidates) = by_name.get(name) else {
                    continue;
                };
                let dotted = i > 0 && is_punct(&tokens[i - 1], '.');
                let qualified =
                    i >= 2 && is_punct(&tokens[i - 1], ':') && is_punct(&tokens[i - 2], ':');
                let must = if dotted {
                    // `self.method(..)` resolves through the caller's
                    // `impl` type — the receiver type is known exactly,
                    // so even std-shadowing names are justified.
                    let self_recv = i >= 2
                        && is_word(&tokens[i - 2])
                        && tokens[i - 2].text == "self"
                        && nodes[caller].impl_type.is_some();
                    let via_impl = if self_recv {
                        let key = (
                            nodes[caller].impl_type.clone().unwrap_or_default(),
                            name.to_string(),
                        );
                        match by_impl.get(&key).map(Vec::as_slice) {
                            Some([only]) => Some(*only),
                            _ => None,
                        }
                    } else {
                        None
                    };
                    if via_impl.is_some() {
                        via_impl
                    } else if candidates.len() == 1 && !STD_METHODS.contains(&name) {
                        Some(candidates[0])
                    } else {
                        None
                    }
                } else if qualified {
                    let mut segs = Vec::new();
                    let mut j = i;
                    while j >= 2
                        && is_punct(&tokens[j - 1], ':')
                        && is_punct(&tokens[j - 2], ':')
                        && j >= 3
                        && is_word(&tokens[j - 3])
                    {
                        segs.push(tokens[j - 3].text.clone());
                        j -= 3;
                    }
                    segs.reverse();
                    resolve_qualified(
                        &segs,
                        name,
                        candidates,
                        &nodes,
                        &aliases[file_idx],
                        &crate_root,
                        file_idx,
                        &by_impl,
                        nodes[caller].impl_type.as_deref(),
                    )
                } else {
                    resolve_bare(
                        name,
                        candidates,
                        &nodes,
                        &aliases[file_idx],
                        &crate_root,
                        file_idx,
                    )
                };
                if let Some(callee) = must {
                    // Self-calls stay: they are exactly what
                    // `recurse-request` looks for.
                    calls[caller].push(CallSite { tok: i, callee });
                    must_out[caller].insert(callee);
                }
            }
        }

        // must-reach: BFS from entries over justified edges, recording
        // parents so findings can print an entry trace.
        let mut must_reach = vec![false; nodes.len()];
        let mut trace_parent = vec![None; nodes.len()];
        let mut queue = VecDeque::new();
        for &e in &entries {
            if !must_reach[e] {
                must_reach[e] = true;
                queue.push_back(e);
            }
        }
        while let Some(n) = queue.pop_front() {
            for &m in &must_out[n] {
                if !must_reach[m] {
                    must_reach[m] = true;
                    trace_parent[m] = Some(n);
                    queue.push_back(m);
                }
            }
        }

        CallGraph {
            nodes,
            calls,
            must_out,
            entries,
            must_reach,
            trace_parent,
            by_file,
        }
    }

    /// Whether any [`ENTRY_POINTS`] entry names a function in the graph.
    #[must_use]
    pub fn has_entries(&self) -> bool {
        !self.entries.is_empty()
    }

    /// The innermost node whose body contains token `tok` of `file_idx`.
    pub(crate) fn enclosing_node(&self, file_idx: usize, tok: usize) -> Option<usize> {
        self.by_file
            .get(file_idx)?
            .iter()
            .copied()
            .filter(|&n| {
                self.nodes[n]
                    .body
                    .is_some_and(|(open, close)| open < tok && tok < close)
            })
            .min_by_key(|&n| {
                let (open, close) = self.nodes[n].body.unwrap_or((0, usize::MAX));
                close - open
            })
    }

    /// Whether `node` is on a justified path from an entry point.
    pub(crate) fn is_must_reachable(&self, node: usize) -> bool {
        self.must_reach.get(node).copied().unwrap_or(false)
    }

    pub(crate) fn must_callees(&self, node: usize) -> impl Iterator<Item = usize> + '_ {
        self.must_out[node].iter().copied()
    }

    /// The shortest justified call chain `entry → … → node`, as labels.
    /// Empty when the node is not must-reachable.
    #[must_use]
    pub fn entry_trace(&self, node: usize) -> Vec<String> {
        if !self.is_must_reachable(node) {
            return Vec::new();
        }
        let mut chain = vec![node];
        let mut cur = node;
        while let Some(parent) = self.trace_parent[cur] {
            chain.push(parent);
            cur = parent;
            if chain.len() > self.nodes.len() {
                break; // defensive: parents never cycle, but stay total
            }
        }
        chain.reverse();
        chain
            .into_iter()
            .map(|n| self.nodes[n].label.clone())
            .collect()
    }
}

/// Bare-call resolution: same-file unique fn, else `use`-imported fn,
/// else workspace-unique fn; anything else stays silent.
fn resolve_bare(
    name: &str,
    candidates: &[usize],
    nodes: &[FnNode],
    aliases: &BTreeMap<String, Vec<String>>,
    crate_root: &str,
    file_idx: usize,
) -> Option<usize> {
    let same_file: Vec<usize> = candidates
        .iter()
        .copied()
        .filter(|&n| nodes[n].file_idx == file_idx)
        .collect();
    if same_file.len() == 1 {
        return Some(same_file[0]);
    }
    if !same_file.is_empty() {
        return None; // several same-file fns with this name: ambiguous
    }
    if let Some(path) = aliases.get(name) {
        // `use hypar_models::zoo::by_name;` imports the fn itself.
        if let Some(normed) = normalize_path(path, crate_root) {
            let label = normed.join("::");
            if let Some(&hit) = candidates.iter().find(|&&n| nodes[n].label == label) {
                return Some(hit);
            }
        }
    }
    if candidates.len() == 1 {
        return Some(candidates[0]);
    }
    None
}

/// Qualified-call resolution through the file's `use` aliases and the
/// workspace `impl` index.
#[expect(
    clippy::too_many_arguments,
    reason = "the per-file resolution context is passed flat rather than bundled for one caller"
)]
fn resolve_qualified(
    segs: &[String],
    name: &str,
    candidates: &[usize],
    nodes: &[FnNode],
    aliases: &BTreeMap<String, Vec<String>>,
    crate_root: &str,
    file_idx: usize,
    by_impl: &BTreeMap<(String, String), Vec<usize>>,
    caller_impl: Option<&str>,
) -> Option<usize> {
    let first = segs.first()?;
    if first == "Self" || first == "self" {
        // Same-impl call: the caller's own `impl` type, else a unique
        // same-file definition.
        if let Some(impl_type) = caller_impl {
            if let Some([only]) = by_impl
                .get(&(impl_type.to_string(), name.to_string()))
                .map(Vec::as_slice)
            {
                return Some(*only);
            }
        }
        let same_file: Vec<usize> = candidates
            .iter()
            .copied()
            .filter(|&n| nodes[n].file_idx == file_idx)
            .collect();
        return if same_file.len() == 1 {
            Some(same_file[0])
        } else {
            None
        };
    }
    let mut full: Vec<String> = if let Some(expansion) = aliases.get(first) {
        let mut v = expansion.clone();
        v.extend(segs.iter().skip(1).cloned());
        v
    } else {
        segs.to_vec()
    };
    full.push(name.to_string());
    if let Some(normed) = normalize_path(&full, crate_root) {
        let label = normed.join("::");
        if let Some(&hit) = candidates.iter().find(|&&n| nodes[n].label == label) {
            return Some(hit);
        }
        // Suffix match: `segments::fn` uniquely identifying one node.
        let suffix = format!("::{label}");
        let hits: Vec<usize> = candidates
            .iter()
            .copied()
            .filter(|&n| nodes[n].label.ends_with(&suffix))
            .collect();
        if hits.len() == 1 {
            return Some(hits[0]);
        }
    }
    // `Type::method(..)` (possibly module-qualified): the path never
    // matches a module label — resolve through the `impl` index when
    // exactly one `impl Type` defines the method, else fall back to a
    // unique workspace fn of that name.
    if let Some(last) = segs.last() {
        if last.chars().next().is_some_and(char::is_uppercase) {
            if let Some([only]) = by_impl
                .get(&(last.clone(), name.to_string()))
                .map(Vec::as_slice)
            {
                return Some(*only);
            }
            if segs.len() == 1 && candidates.len() == 1 {
                return Some(candidates[0]);
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::parse::parse;

    fn files_of(sources: &[(&str, &str)]) -> Vec<FileUnit> {
        sources
            .iter()
            .map(|(path, src)| {
                let tokens = lex(src);
                let parsed = parse(&tokens);
                ((*path).to_string(), tokens, parsed)
            })
            .collect()
    }

    fn graph_of(sources: &[(&str, &str)]) -> CallGraph {
        CallGraph::build(&files_of(sources))
    }

    fn node(graph: &CallGraph, label: &str) -> usize {
        graph
            .nodes
            .iter()
            .position(|n| n.label == label)
            .unwrap_or_else(|| {
                panic!(
                    "no node {label}: {:?}",
                    graph.nodes.iter().map(|n| &n.label).collect::<Vec<_>>()
                )
            })
    }

    #[test]
    fn module_labels_follow_file_paths() {
        assert_eq!(
            module_segments("crates/engine/src/service.rs"),
            ["engine", "service"]
        );
        assert_eq!(module_segments("crates/engine/src/lib.rs"), ["engine"]);
        assert_eq!(
            module_segments("crates/bench/src/experiments/fig9.rs"),
            ["bench", "experiments", "fig9"]
        );
        assert_eq!(module_segments("src/lib.rs"), ["hypar"]);
        assert_eq!(module_segments("examples/plan.rs"), ["examples", "plan"]);
    }

    #[test]
    fn bare_calls_prefer_same_file_then_unique() {
        let graph = graph_of(&[
            (
                "crates/engine/src/service.rs",
                "pub fn handle_a() { helper(); }\nfn helper() {}\n",
            ),
            ("crates/core/src/util.rs", "pub fn helper() {}\n"),
        ]);
        let handle = node(&graph, "engine::service::handle_a");
        let local = node(&graph, "engine::service::helper");
        assert!(graph.must_callees(handle).any(|c| c == local));
        let remote = node(&graph, "core::util::helper");
        assert!(!graph.must_callees(handle).any(|c| c == remote));
    }

    #[test]
    fn ambiguous_bare_calls_stay_silent() {
        let graph = graph_of(&[
            (
                "crates/engine/src/service.rs",
                "pub fn handle_a() { shared(); }\n",
            ),
            ("crates/core/src/a.rs", "pub fn shared() {}\n"),
            ("crates/sim/src/b.rs", "pub fn shared() {}\n"),
        ]);
        let handle = node(&graph, "engine::service::handle_a");
        assert_eq!(
            graph.must_callees(handle).count(),
            0,
            "two candidates: no edge"
        );
    }

    #[test]
    fn use_aliases_resolve_qualified_calls() {
        let graph = graph_of(&[
            (
                "crates/engine/src/engine.rs",
                "use hypar_models::zoo;\nuse hypar_graph::{zoo as graph_zoo};\n\
                 pub fn plan() { zoo::by_name(); graph_zoo::by_name(); }\n",
            ),
            ("crates/models/src/zoo.rs", "pub fn by_name() {}\n"),
            ("crates/graph/src/zoo.rs", "pub fn by_name() {}\n"),
        ]);
        let plan = node(&graph, "engine::engine::plan");
        let models = node(&graph, "models::zoo::by_name");
        let graphs = node(&graph, "graph::zoo::by_name");
        let callees: Vec<usize> = graph.must_callees(plan).collect();
        assert!(callees.contains(&models), "alias zoo:: resolves to models");
        assert!(
            callees.contains(&graphs),
            "alias graph_zoo:: resolves to graph"
        );
    }

    #[test]
    fn std_shadowing_methods_never_edge() {
        let graph = graph_of(&[
            (
                "crates/engine/src/service.rs",
                "pub fn handle_a(xs: &[u8], f: Frac) { xs.iter().find(|x| true); f.value(); }\n",
            ),
            (
                "crates/telemetry/src/trace.rs",
                "pub fn find() {}\npub fn value() {}\n",
            ),
        ]);
        let handle = node(&graph, "engine::service::handle_a");
        assert_eq!(
            graph.must_callees(handle).count(),
            0,
            ".find() is Iterator::find and .value() a tensor accessor, not workspace fns"
        );
    }

    #[test]
    fn unique_method_calls_do_edge() {
        let graph = graph_of(&[
            (
                "crates/engine/src/service.rs",
                "pub fn handle_a(e: &E) { e.refine_levels(); }\n",
            ),
            ("crates/engine/src/engine.rs", "pub fn refine_levels() {}\n"),
        ]);
        let handle = node(&graph, "engine::service::handle_a");
        let target = node(&graph, "engine::engine::refine_levels");
        assert!(graph.must_callees(handle).any(|c| c == target));
    }

    #[test]
    fn entries_and_traces() {
        let graph = graph_of(&[(
            "crates/engine/src/service.rs",
            "pub fn handle_line() { step(); }\nfn step() { leaf(); }\nfn leaf() {}\n\
                 fn orphan() {}\n",
        )]);
        assert!(graph.has_entries());
        let leaf = node(&graph, "engine::service::leaf");
        assert!(graph.is_must_reachable(leaf));
        assert_eq!(
            graph.entry_trace(leaf),
            vec![
                "engine::service::handle_line",
                "engine::service::step",
                "engine::service::leaf"
            ]
        );
        let orphan = node(&graph, "engine::service::orphan");
        assert!(!graph.is_must_reachable(orphan));
        assert!(graph.entry_trace(orphan).is_empty());
    }

    #[test]
    fn test_gated_fns_are_not_nodes() {
        let graph = graph_of(&[(
            "crates/engine/src/service.rs",
            "pub fn handle_line() {}\n#[cfg(test)]\nmod tests { fn t() { handle_line(); } }\n",
        )]);
        assert_eq!(graph.nodes.len(), 1);
    }
}
