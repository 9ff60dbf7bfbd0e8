//! The `hypar-analyzer` binary itself: exit codes, `--rules`, the
//! `--format json` findings document, the `--callgraph` renderings, and
//! the deterministic `--self-fuzz` smoke.

#![expect(clippy::expect_used, reason = "helpers fail by panicking")]

use std::path::PathBuf;
use std::process::{Command, Output};

use hypar_analyzer::report::FINDINGS_SCHEMA;
use serde_json::Value;

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_hypar-analyzer"))
        .args(args)
        .output()
        .expect("spawn hypar-analyzer")
}

fn stdout(output: &Output) -> String {
    String::from_utf8_lossy(&output.stdout).into_owned()
}

fn parse(output: &Output) -> Value {
    serde_json::from_str(&stdout(output)).expect("valid JSON document")
}

#[test]
fn rules_table_lists_every_rule() {
    let output = run(&["--rules"]);
    assert!(output.status.success());
    let table = stdout(&output);
    for rule in ["lock-scope", "lock-order", "recurse-request"] {
        assert!(table.contains(rule), "--rules missing {rule}:\n{table}");
    }
    assert!(
        table.contains("[workspace.lints.clippy]"),
        "--rules points at the clippy table for everything else:\n{table}"
    );
}

#[test]
fn unknown_flags_and_bad_roots_exit_2() {
    for removed in ["--no-such-flag", "--check", "--bless", "--baseline"] {
        let output = run(&[removed]);
        assert_eq!(output.status.code(), Some(2), "{removed}");
    }
    let output = run(&["--root", "/definitely/not/a/workspace"]);
    assert_eq!(output.status.code(), Some(2));
    let output = run(&["--self-fuzz", "not-a-number"]);
    assert_eq!(output.status.code(), Some(2));
}

#[test]
fn format_json_emits_the_documented_schema_and_agrees_with_text() {
    let root = repo_root();
    let root_str = root.to_str().expect("utf-8 root");

    let json_run = run(&["--format", "json", "--root", root_str]);
    let doc = parse(&json_run);
    assert_eq!(
        doc.get("schema").and_then(Value::as_str),
        Some(FINDINGS_SCHEMA)
    );
    let total = doc.get("total").and_then(Value::as_u64).expect("total");
    let findings = doc
        .get("findings")
        .and_then(Value::as_array)
        .expect("findings array");
    assert_eq!(findings.len() as u64, total);
    for finding in findings {
        for key in ["rule", "file", "message", "snippet"] {
            assert!(finding.get(key).and_then(Value::as_str).is_some(), "{key}");
        }
        assert!(finding.get("line").and_then(Value::as_u64).is_some());
        let span = finding.get("span").expect("span object");
        let start = span.get("start").and_then(Value::as_u64).expect("start");
        let end = span.get("end").and_then(Value::as_u64).expect("end");
        assert!(end >= start, "span runs forward");
        let trace = finding
            .get("entry_trace")
            .and_then(Value::as_array)
            .expect("entry_trace array");
        assert!(trace.iter().all(|hop| hop.as_str().is_some()));
        assert!(finding.get("waived").is_none() && finding.get("justification").is_none());
    }

    // Text and JSON report modes agree on the finding count and exit
    // code.
    let text_run = run(&["--root", root_str]);
    assert_eq!(json_run.status.code(), text_run.status.code());
    let text = stdout(&text_run);
    let text_total: u64 = if text.contains("no findings") {
        0
    } else {
        text.lines()
            .rev()
            .find_map(|l| l.split(" findings").next()?.trim().parse().ok())
            .expect("text summary count")
    };
    assert_eq!(total, text_total, "text:\n{text}");

    // `--format json` outside report mode is a usage error.
    let bad = run(&["--rules", "--format", "json", "--root", root_str]);
    assert_eq!(bad.status.code(), Some(2));
}

#[test]
fn callgraph_modes_emit_dot_and_json() {
    let root = repo_root();
    let root_str = root.to_str().expect("utf-8 root");

    let dot = run(&["--callgraph", "dot", "--root", root_str]);
    assert!(dot.status.success());
    let text = stdout(&dot);
    assert!(text.starts_with("digraph callgraph {"), "{text}");
    assert!(
        text.contains("\"engine::service::handle_line\""),
        "dot names the service entry"
    );

    let json_run = run(&["--callgraph", "json", "--root", root_str]);
    assert!(json_run.status.success());
    let doc = parse(&json_run);
    assert_eq!(
        doc.get("schema").and_then(Value::as_str),
        Some("hypar-analyzer-callgraph/v1")
    );
    let nodes = doc.get("nodes").and_then(Value::as_array).expect("nodes");
    let functions = doc
        .get("functions")
        .and_then(Value::as_u64)
        .expect("functions");
    assert_eq!(nodes.len() as u64, functions);
    let entries = doc
        .get("entries")
        .and_then(Value::as_array)
        .expect("entries");
    assert!(
        entries
            .iter()
            .any(|e| e.as_str() == Some("engine::engine::plan")),
        "PlanEngine::plan is an entry point"
    );
    // Every entry is a reachable node, and edges only name known nodes.
    let ids: std::collections::BTreeSet<&str> = nodes
        .iter()
        .filter_map(|n| n.get("id").and_then(Value::as_str))
        .collect();
    for entry in entries {
        let label = entry.as_str().expect("entry label");
        assert!(ids.contains(label), "entry {label} missing from nodes");
    }
    for edge in doc.get("edges").and_then(Value::as_array).expect("edges") {
        let from = edge.get("from").and_then(Value::as_str).expect("from");
        let to = edge.get("to").and_then(Value::as_str).expect("to");
        assert!(ids.contains(from) && ids.contains(to), "{from} -> {to}");
    }

    // Bad format is a usage error.
    let bad = run(&["--callgraph", "svg", "--root", root_str]);
    assert_eq!(bad.status.code(), Some(2));
}

#[test]
fn self_fuzz_is_deterministic_and_reports_its_seed() {
    // Everything before the worst-mutant wall time is deterministic:
    // mutant count, token total, finding total.
    fn deterministic_prefix(output: &Output) -> String {
        let text = stdout(output);
        text.split("worst mutant")
            .next()
            .expect("summary")
            .to_owned()
    }
    let first = run(&["--self-fuzz", "300", "--seed", "7"]);
    assert!(first.status.success());
    let second = run(&["--self-fuzz", "300", "--seed", "7"]);
    assert_eq!(
        deterministic_prefix(&first),
        deterministic_prefix(&second),
        "same seed, same mutants/tokens/findings"
    );
    assert!(stdout(&first).contains("self-fuzz ok"));
    assert!(stdout(&first).contains("(seed 7)"));

    let other = run(&["--self-fuzz", "300", "--seed", "8"]);
    assert!(other.status.success());
    assert!(stdout(&other).contains("(seed 8)"));
}
