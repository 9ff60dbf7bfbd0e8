//! The interprocedural rules end to end, against synthetic
//! mini-workspaces: a seeded opposite-order double-lock is a finding
//! naming both acquisition sites, and a seeded unguarded recursion on
//! the request path is a finding with an entry trace from the service
//! entry point (while a depth-guarded rewrite passes).  A tree missing
//! most scan roots scans cleanly; one where no service entry point
//! resolves is an error, not a clean scan.

#![expect(
    clippy::expect_used,
    clippy::panic,
    clippy::let_underscore_must_use,
    reason = "helpers fail by panicking; cleanup is best-effort"
)]

use std::fs;
use std::path::PathBuf;

use hypar_analyzer::scan_workspace;

/// A scratch workspace under the target dir (always writable, cleaned
/// up by `cargo clean`), unique per test so they can run in parallel.
struct MiniWorkspace {
    root: PathBuf,
}

impl MiniWorkspace {
    fn new(test: &str) -> Self {
        let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("../../target/analyzer-interproc")
            .join(test);
        let _ = fs::remove_dir_all(&root);
        fs::create_dir_all(root.join("crates")).expect("mkdir mini-workspace");
        fs::write(root.join("Cargo.toml"), "[workspace]\n").expect("write Cargo.toml");
        MiniWorkspace { root }
    }

    fn write_file(&self, rel: &str, source: &str) {
        let path = self.root.join(rel);
        fs::create_dir_all(path.parent().expect("parent")).expect("mkdir");
        fs::write(path, source).unwrap_or_else(|e| panic!("write {rel}: {e}"));
    }
}

impl Drop for MiniWorkspace {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.root);
    }
}

#[test]
fn seeded_lock_order_cycle_fails_the_check_naming_both_sites() {
    let ws = MiniWorkspace::new("lockorder");
    // The acceptance scenario: the request path takes `cache` then
    // `stats`, while a helper it calls takes `stats` then `cache`.
    ws.write_file(
        "crates/engine/src/service.rs",
        "\
use std::sync::Mutex;

pub struct State {
    pub cache: Mutex<u8>,
    pub stats: Mutex<u8>,
}

pub fn handle_request(s: &State) -> u8 {
    let cache = s.cache.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    let held = *cache;
    held + refresh(s)
}

fn refresh(s: &State) -> u8 {
    let stats = s.stats.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    let held = *stats;
    let cache = s.cache.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    held + *cache
}
",
    );
    let findings = scan_workspace(&ws.root).expect("scan");
    assert_eq!(findings.len(), 1, "{findings:?}");
    let finding = &findings[0];
    assert_eq!(finding.rule, "lock-order");
    assert_eq!(finding.file, "crates/engine/src/service.rs");
    // Both acquisition orders are named, each with both sites.
    assert!(
        finding.message.contains("`cache` then `stats`")
            && finding.message.contains("`stats` then `cache`"),
        "{}",
        finding.message
    );
    assert!(
        finding
            .message
            .matches("crates/engine/src/service.rs:")
            .count()
            >= 2,
        "both acquisition sites carry file:line anchors: {}",
        finding.message
    );
    assert_eq!(
        finding.entry_trace.first().map(String::as_str),
        Some("engine::service::handle_request"),
        "{:?}",
        finding.entry_trace
    );
}

#[test]
fn seeded_request_path_recursion_fails_with_an_entry_trace() {
    let ws = MiniWorkspace::new("recursion");
    ws.write_file(
        "crates/engine/src/service.rs",
        "\
pub fn handle_request(n: u8) -> u8 {
    descend(n)
}

fn descend(n: u8) -> u8 {
    if n == 0 {
        0
    } else {
        descend(n - 1)
    }
}
",
    );
    let findings = scan_workspace(&ws.root).expect("scan");
    assert_eq!(findings.len(), 1, "{findings:?}");
    let finding = &findings[0];
    assert_eq!(finding.rule, "recurse-request");
    assert!(
        finding.message.contains("calls itself"),
        "{}",
        finding.message
    );
    assert_eq!(
        finding.entry_trace,
        vec![
            "engine::service::handle_request".to_string(),
            "engine::service::descend".to_string(),
        ]
    );

    // Threading an explicit depth through the cycle bounds it: the same
    // shape with a budget parameter passes the gate.
    ws.write_file(
        "crates/engine/src/service.rs",
        "\
pub fn handle_request(n: u8) -> u8 {
    descend(n, 16)
}

fn descend(n: u8, depth: u8) -> u8 {
    if n == 0 || depth == 0 {
        0
    } else {
        descend(n - 1, depth - 1)
    }
}
",
    );
    let findings = scan_workspace(&ws.root).expect("rescan");
    assert!(
        findings.is_empty(),
        "guarded recursion passes: {findings:?}"
    );
}

#[test]
fn missing_scan_roots_are_skipped_not_errors() {
    // The mini-workspace has only crates/engine; every other configured
    // root must be silently absent.
    let ws = MiniWorkspace::new("sparse");
    ws.write_file(
        "crates/engine/src/service.rs",
        "pub fn handle_request(x: u8) -> u8 {\n    x\n}\n",
    );
    let findings = scan_workspace(&ws.root).expect("scan sparse tree");
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn no_resolving_entry_point_is_an_error() {
    // A recursion the rules would flag, in a file no entry point names:
    // a clean report here would hide it, so the scan fails instead.
    let ws = MiniWorkspace::new("no-entry");
    ws.write_file(
        "crates/engine/src/helpers.rs",
        "pub fn descend(n: u8) -> u8 {\n    if n == 0 { 0 } else { descend(n - 1) }\n}\n",
    );
    let err = scan_workspace(&ws.root).expect_err("no entry point resolves");
    assert!(err.contains("no service entry point"), "{err}");
}
