//! Interprocedural rules over the workspace call graph: `lock-order`
//! (deadlock by conflicting acquisition order) and `recurse-request`
//! (unguarded recursion on the request path), plus the `entry_trace`
//! call chains attached to every finding on a reachable path.  See the
//! [`crate::callgraph`] docs for how reachability is computed.

use std::collections::BTreeMap;

use crate::callgraph::{CallGraph, FileUnit};
use crate::lexer::Token;
use crate::parse::{Block, Stmt};
use crate::report::Finding;

use super::is_word;
use super::structural::{drops, guard_binding};

/// Ident substrings that count as an explicit recursion guard: a cycle
/// whose body threads a depth/budget value is bounded by construction.
const GUARD_HINTS: &[&str] = &["depth", "budget", "limit", "fuel", "remaining"];

/// Runs the interprocedural pass: attaches `entry_trace`s to the
/// per-file findings and appends the `lock-order` and `recurse-request`
/// findings.
pub(crate) fn apply(
    files: &[FileUnit],
    graph: &CallGraph,
    mut findings: Vec<Finding>,
) -> Vec<Finding> {
    let file_index: BTreeMap<&str, usize> = files
        .iter()
        .enumerate()
        .map(|(i, (path, _, _))| (path.as_str(), i))
        .collect();
    for finding in &mut findings {
        let node = file_index
            .get(finding.file.as_str())
            .and_then(|&fi| node_of_finding(graph, files, fi, finding));
        if let Some(n) = node {
            finding.entry_trace = graph.entry_trace(n);
        }
    }
    findings.extend(lock_order(files, graph));
    findings.extend(recurse_request(files, graph));
    findings
}

/// Maps a finding back to the innermost fn node containing it, via the
/// span start (token-exact) or the first token on its line.
fn node_of_finding(
    graph: &CallGraph,
    files: &[FileUnit],
    file_idx: usize,
    finding: &Finding,
) -> Option<usize> {
    let tokens = &files[file_idx].1;
    let tok = if finding.span != (0, 0) {
        let at = tokens.partition_point(|t| t.start < finding.span.0);
        tokens
            .get(at)
            .filter(|t| t.start == finding.span.0)
            .map(|_| at)
    } else {
        None
    };
    let tok = tok.or_else(|| tokens.iter().position(|t| t.line == finding.line))?;
    graph.enclosing_node(file_idx, tok)
}

/// One `let guard = <..>.lock()..;` acquisition site.
#[derive(Clone, Debug)]
struct Acquisition {
    /// The lock's field/static name (the ident before `.lock(`).
    lock: String,
    /// The bound guard variable.
    guard: String,
    line: u32,
    span: (u32, u32),
    /// Token index just past the binding statement.
    after: usize,
    /// Token index of the enclosing block's `}`.
    block_close: usize,
}

/// A lock-order edge witness: `first` acquired, then `second` while the
/// first guard is live.
#[derive(Clone, Debug)]
struct Witness {
    file: String,
    line: u32,
    span: (u32, u32),
    holder: usize,
    second_file: String,
    second_line: u32,
}

/// `lock-order`: propagate held-lock sets along justified call edges and
/// report cycles in the acquisition-order relation.
fn lock_order(files: &[FileUnit], graph: &CallGraph) -> Vec<Finding> {
    let n = graph.nodes.len();
    // Acquisitions per must-reachable node.
    let mut acqs: Vec<Vec<Acquisition>> = vec![Vec::new(); n];
    for (file_idx, (_, tokens, parsed)) in files.iter().enumerate() {
        let masked = super::test_mask(tokens);
        let mut stmts = Vec::new();
        walk_stmts(&parsed.root, &mut stmts);
        for (stmt, block_close) in stmts {
            let Some(acq) = lock_acquisition(tokens, &masked, stmt, block_close) else {
                continue;
            };
            let Some(node) = graph.enclosing_node(file_idx, stmt.start) else {
                continue;
            };
            if graph.is_must_reachable(node) {
                acqs[node].push(acq);
            }
        }
    }

    // Transitive lock summaries: which locks a call into `node` may
    // acquire, with a representative site each.
    let mut summaries: Vec<BTreeMap<String, (String, u32)>> = (0..n)
        .map(|i| {
            acqs[i]
                .iter()
                .map(|a| (a.lock.clone(), (graph.nodes[i].file.clone(), a.line)))
                .collect()
        })
        .collect();
    for _ in 0..n {
        let mut changed = false;
        for i in 0..n {
            if !graph.is_must_reachable(i) {
                continue;
            }
            let callees: Vec<usize> = graph.must_callees(i).collect();
            for callee in callees {
                let merged: Vec<(String, (String, u32))> = summaries[callee]
                    .iter()
                    .map(|(k, v)| (k.clone(), v.clone()))
                    .collect();
                for (lock, site) in merged {
                    if let std::collections::btree_map::Entry::Vacant(slot) =
                        summaries[i].entry(lock)
                    {
                        slot.insert(site);
                        changed = true;
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }

    // Order edges `first → second` with a witness each.
    let mut edges: BTreeMap<(String, String), Witness> = BTreeMap::new();
    let record = |first: &Acquisition,
                  holder: usize,
                  second: &str,
                  second_file: &str,
                  second_line: u32,
                  edges: &mut BTreeMap<(String, String), Witness>| {
        if first.lock == second {
            return;
        }
        edges
            .entry((first.lock.clone(), second.to_string()))
            .or_insert_with(|| Witness {
                file: graph.nodes[holder].file.clone(),
                line: first.line,
                span: first.span,
                holder,
                second_file: second_file.to_string(),
                second_line,
            });
    };
    for (node, node_acqs) in acqs.iter().enumerate() {
        if node_acqs.is_empty() {
            continue;
        }
        let file_idx = graph.nodes[node].file_idx;
        let tokens = &files[file_idx].1;
        for a in node_acqs {
            let scope_end = scope_end(tokens, a);
            for b in node_acqs {
                if b.after > a.after && b.after <= scope_end {
                    record(
                        a,
                        node,
                        &b.lock,
                        &graph.nodes[node].file,
                        b.line,
                        &mut edges,
                    );
                }
            }
            for call in &graph.calls[node] {
                if call.tok > a.after && call.tok < scope_end {
                    let summary: Vec<(String, (String, u32))> = summaries[call.callee]
                        .iter()
                        .map(|(k, v)| (k.clone(), v.clone()))
                        .collect();
                    for (lock, (file, line)) in summary {
                        record(a, node, &lock, &file, line, &mut edges);
                    }
                }
            }
        }
    }

    // Cycles in the lock-order digraph.
    let mut names: Vec<&String> = edges.keys().flat_map(|(a, b)| [a, b]).collect();
    names.sort();
    names.dedup();
    let id_of: BTreeMap<&str, usize> = names
        .iter()
        .enumerate()
        .map(|(i, s)| (s.as_str(), i))
        .collect();
    let mut adj = vec![Vec::new(); names.len()];
    for (a, b) in edges.keys() {
        adj[id_of[a.as_str()]].push(id_of[b.as_str()]);
    }
    let active = vec![true; names.len()];
    let mut findings = Vec::new();
    for component in sccs(&adj, &active) {
        if component.len() < 2 {
            continue; // same-name self edges are filtered at recording
        }
        let mut locks: Vec<&str> = component.iter().map(|&i| names[i].as_str()).collect();
        locks.sort_unstable();
        // Anchor at the first witness edge inside the component.
        let witness = edges
            .iter()
            .find(|((a, b), _)| locks.contains(&a.as_str()) && locks.contains(&b.as_str()))
            .map(|(_, w)| w.clone());
        let Some(witness) = witness else { continue };
        let message = lock_cycle_message(&locks, &edges);
        findings.push(Finding {
            file: witness.file.clone(),
            line: witness.line,
            rule: "lock-order",
            message,
            span: witness.span,
            entry_trace: graph.entry_trace(witness.holder),
        });
    }
    findings
}

/// Renders the conflicting-order message, naming every witness site
/// inside the cycle.
fn lock_cycle_message(locks: &[&str], edges: &BTreeMap<(String, String), Witness>) -> String {
    let mut sites = Vec::new();
    for ((a, b), w) in edges {
        if locks.contains(&a.as_str()) && locks.contains(&b.as_str()) {
            sites.push(format!(
                "`{a}` then `{b}` at {}:{} (second acquisition at {}:{})",
                w.file, w.line, w.second_file, w.second_line
            ));
        }
    }
    format!(
        "locks {} are acquired in conflicting orders across call paths: {} — two \
         concurrent requests can deadlock; acquire in one global order or drop the \
         first guard before the second acquisition",
        locks
            .iter()
            .map(|l| format!("`{l}`"))
            .collect::<Vec<_>>()
            .join(", "),
        sites.join("; ")
    )
}

/// `recurse-request`: any cycle in the justified call graph that an
/// entry point reaches, with no depth/budget guard inside the cycle.
fn recurse_request(files: &[FileUnit], graph: &CallGraph) -> Vec<Finding> {
    let n = graph.nodes.len();
    let active: Vec<bool> = (0..n).map(|i| graph.is_must_reachable(i)).collect();
    let mut adj = vec![Vec::new(); n];
    for i in 0..n {
        if active[i] {
            adj[i] = graph.must_callees(i).filter(|&j| active[j]).collect();
        }
    }
    let mut findings = Vec::new();
    for component in sccs(&adj, &active) {
        let cyclic = component.len() > 1
            || (component.len() == 1 && adj[component[0]].contains(&component[0]));
        if !cyclic {
            continue;
        }
        if component.iter().any(|&i| has_guard(files, graph, i)) {
            continue;
        }
        let mut members = component.clone();
        members.sort_by_key(|&i| (graph.nodes[i].file.clone(), graph.nodes[i].line));
        let anchor = members[0];
        let anchor_node = &graph.nodes[anchor];
        let labels: Vec<String> = members
            .iter()
            .map(|&i| graph.nodes[i].label.clone())
            .collect();
        let cycle = if labels.len() == 1 {
            format!("`{}` calls itself", labels[0])
        } else {
            format!("call cycle through {}", labels.join(" -> "))
        };
        findings.push(Finding {
            file: anchor_node.file.clone(),
            line: anchor_node.line,
            rule: "recurse-request",
            message: format!(
                "{cycle} on a service-reachable path with no depth/budget guard — a \
                 deep request can overflow the stack; bound the recursion with an \
                 explicit depth or budget parameter, or rewrite iteratively"
            ),
            span: (0, 0),
            entry_trace: graph.entry_trace(anchor),
        });
    }
    findings
}

/// Whether the node's body mentions a guard-ish ident (`depth`,
/// `budget`, `limit`, `fuel`, `remaining` — case-insensitive).
fn has_guard(files: &[FileUnit], graph: &CallGraph, node: usize) -> bool {
    let fnode = &graph.nodes[node];
    let Some((open, close)) = fnode.body else {
        return false;
    };
    let tokens = &files[fnode.file_idx].1;
    tokens[open.min(tokens.len())..close.min(tokens.len())]
        .iter()
        .any(|t| {
            is_word(t) && {
                let lower = t.text.to_ascii_lowercase();
                GUARD_HINTS.iter().any(|g| lower.contains(g))
            }
        })
}

/// Every `(stmt, enclosing block close)` pair, recursively.
fn walk_stmts<'a>(block: &'a Block, out: &mut Vec<(&'a Stmt, usize)>) {
    for stmt in &block.stmts {
        out.push((stmt, block.close));
        for inner in &stmt.blocks {
            walk_stmts(inner, out);
        }
    }
}

/// Recognizes `let [mut] guard = <recv>.lock()..;` and extracts the
/// lock name (the ident before `.lock(`) plus the guard binding.
fn lock_acquisition(
    tokens: &[Token],
    masked: &[bool],
    stmt: &Stmt,
    block_close: usize,
) -> Option<Acquisition> {
    let (guard, dot) = guard_binding(tokens, stmt, masked)?;
    let recv = tokens.get(dot.wrapping_sub(1))?;
    if !is_word(recv) {
        return None; // computed receiver: no stable lock name
    }
    let head = &tokens[stmt.start];
    Some(Acquisition {
        lock: recv.text.clone(),
        guard: tokens[guard].text.clone(),
        line: head.line,
        span: (head.start, tokens[stmt.end].end),
        after: stmt.end,
        block_close,
    })
}

/// The token index ending the guard's live range: an explicit
/// `drop(guard)` or the enclosing block's `}`.
fn scope_end(tokens: &[Token], acq: &Acquisition) -> usize {
    let end = acq.block_close.min(tokens.len());
    (acq.after + 1..end.saturating_sub(3))
        .find(|&j| drops(tokens, j, &acq.guard))
        .unwrap_or(end)
}

/// Iterative Tarjan strongly-connected components over `adj`, visiting
/// only `active` nodes.
fn sccs(adj: &[Vec<usize>], active: &[bool]) -> Vec<Vec<usize>> {
    let n = adj.len();
    let mut index = vec![usize::MAX; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut next = 0usize;
    let mut components = Vec::new();
    let mut work: Vec<(usize, usize)> = Vec::new();
    for start in 0..n {
        if !active[start] || index[start] != usize::MAX {
            continue;
        }
        work.push((start, 0));
        while let Some(&(v, cursor)) = work.last() {
            if cursor == 0 {
                index[v] = next;
                low[v] = next;
                next += 1;
                stack.push(v);
                on_stack[v] = true;
            }
            if let Some(&w) = adj[v].get(cursor) {
                if let Some(top) = work.last_mut() {
                    top.1 += 1;
                }
                if !active[w] {
                    continue;
                }
                if index[w] == usize::MAX {
                    work.push((w, 0));
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
            } else {
                work.pop();
                if let Some(&(u, _)) = work.last() {
                    low[u] = low[u].min(low[v]);
                }
                if low[v] == index[v] {
                    let mut component = Vec::new();
                    while let Some(w) = stack.pop() {
                        on_stack[w] = false;
                        component.push(w);
                        if w == v {
                            break;
                        }
                    }
                    components.push(component);
                }
            }
        }
    }
    components
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sccs_find_cycles_and_singletons() {
        // 0 -> 1 -> 2 -> 0 (cycle), 3 -> 0 (singleton), 4 self-loop.
        let adj = vec![vec![1], vec![2], vec![0], vec![0], vec![4]];
        let active = vec![true; 5];
        let mut components = sccs(&adj, &active);
        components.iter_mut().for_each(|c| c.sort_unstable());
        assert!(components.contains(&vec![0, 1, 2]));
        assert!(components.contains(&vec![3]));
        assert!(components.contains(&vec![4]));
    }

    #[test]
    fn inactive_nodes_are_skipped() {
        let adj = vec![vec![1], vec![0]];
        let active = vec![true, false];
        let components = sccs(&adj, &active);
        assert_eq!(components, vec![vec![0]]);
    }
}
