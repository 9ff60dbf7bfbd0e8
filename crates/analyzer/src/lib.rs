//! `hypar-analyzer`: the workspace checks clippy cannot do.
//!
//! Clippy, driven by the `[workspace.lints.clippy]` table in the root
//! `Cargo.toml`, enforces the per-site policy of the service crates:
//! no panics, no wall-clock reads or unordered maps, no
//! float equality, no narrowing casts, no dropped `Result`s, and every
//! waiver an `#[expect(lint, reason = "...")]`.  This crate keeps the
//! three rules that need a whole-workspace view:
//!
//! * **`lock-scope`** — a lock guard held across a planning call;
//! * **`lock-order`** — two locks acquired in conflicting orders on two
//!   call paths (a potential deadlock);
//! * **`recurse-request`** — an unguarded call cycle reachable from a
//!   service entry point (a stack-overflow DoS).
//!
//! The scanner is a hand-rolled lexer (comments, nested block comments,
//! raw strings, char-vs-lifetime ticks all handled — **not** regex over
//! source) feeding a never-panicking brace/paren-matched [`parse`]
//! layer, and a workspace-wide call graph (nodes `crate::module::fn`,
//! edges only where a call site resolves unambiguously) seeded at the
//! service entry points in [`config::ENTRY_POINTS`].  Findings on a
//! reachable path carry an `entry_trace` — the call chain from the entry
//! point — which the report prints under the finding, entry first, so a
//! report reads like a backtrace.  Any finding fails the run: the gate
//! tolerates nothing.

mod callgraph;
pub mod config;
#[cfg(test)]
mod fuzz;
pub mod lexer;
pub mod parse;
pub mod report;
pub mod rules;

use std::fs;
use std::path::{Path, PathBuf};

use report::Finding;

/// Directory names never descended into while scanning.
const SKIP_DIRS: &[&str] = &["tests", "fixtures", "target"];

/// Scans the workspace rooted at `root` and returns sorted findings.
///
/// Every file under [`config::SCAN_ROOTS`] is lexed, parsed, and
/// checked for `lock-scope`; then the call graph is built and the
/// interprocedural rules run over it.  Integration `tests/` directories
/// are skipped here and `#[cfg(test)]` items are masked by the rules.
///
/// # Errors
///
/// `root` is not a workspace root (no `Cargo.toml` and `crates/`), a
/// file cannot be read, or no [`config::ENTRY_POINTS`] entry names a
/// function in the tree.  Each of these would otherwise scan cleanly
/// and hide every interprocedural finding.
pub fn scan_workspace(root: &Path) -> Result<Vec<Finding>, String> {
    validate_root(root)?;
    let files = collect_files(root)?;
    let mut findings = Vec::new();
    for (rel_path, tokens, parsed) in &files {
        findings.extend(rules::check_file(rel_path, tokens, parsed));
    }
    let graph = callgraph::CallGraph::build(&files);
    if !graph.has_entries() {
        return Err(format!(
            "no service entry point resolves under {}; the call-graph rules would see nothing",
            root.display()
        ));
    }
    let mut findings = rules::interproc::apply(&files, &graph, findings);
    report::sort(&mut findings);
    Ok(findings)
}

/// Lexes and parses every file under the scan roots.
fn collect_files(root: &Path) -> Result<Vec<callgraph::FileUnit>, String> {
    let mut files = Vec::new();
    for rel_root in config::SCAN_ROOTS {
        let dir = root.join(rel_root);
        if !dir.is_dir() {
            continue;
        }
        for rel_path in rs_files(&dir, rel_root)? {
            let source = fs::read_to_string(root.join(&rel_path))
                .map_err(|e| format!("reading {rel_path}: {e}"))?;
            let tokens = lexer::lex(&source);
            let parsed = parse::parse(&tokens);
            files.push((rel_path, tokens, parsed));
        }
    }
    Ok(files)
}

/// Every `.rs` file under `dir` (sorted, workspace-relative paths,
/// `/`-separated), skipping [`SKIP_DIRS`].
fn rs_files(dir: &Path, rel: &str) -> Result<Vec<String>, String> {
    let mut out = Vec::new();
    let entries = fs::read_dir(dir).map_err(|e| format!("reading {rel}: {e}"))?;
    let mut names: Vec<(String, PathBuf, bool)> = Vec::new();
    for entry in entries {
        let entry = entry.map_err(|e| format!("reading {rel}: {e}"))?;
        let name = entry.file_name().to_string_lossy().into_owned();
        let is_dir = entry.path().is_dir();
        names.push((name, entry.path(), is_dir));
    }
    names.sort_by(|a, b| a.0.cmp(&b.0));
    for (name, path, is_dir) in names {
        let rel_child = format!("{rel}/{name}");
        if is_dir {
            if SKIP_DIRS.contains(&name.as_str()) {
                continue;
            }
            out.extend(rs_files(&path, &rel_child)?);
        } else if name.ends_with(".rs") {
            out.push(rel_child);
        }
    }
    Ok(out)
}

/// Checks that `root` looks like this workspace (catches running the
/// binary from a subdirectory, where every scan root would silently be
/// missing and the tree would look spotless).
fn validate_root(root: &Path) -> Result<(), String> {
    if root.join("Cargo.toml").is_file() && root.join("crates").is_dir() {
        Ok(())
    } else {
        Err(format!(
            "{} is not the workspace root (no Cargo.toml + crates/); run from the repository root or pass --root",
            root.display()
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validate_root_rejects_non_workspace_dirs() {
        assert!(validate_root(Path::new("/definitely/not/here")).is_err());
    }
}
