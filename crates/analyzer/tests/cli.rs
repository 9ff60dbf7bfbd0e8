//! The `hypar-analyzer` binary itself: `--root` is its one option, every
//! other flag is a usage error, and the text report prints each finding
//! followed by its entry trace.

#![expect(
    clippy::expect_used,
    clippy::let_underscore_must_use,
    reason = "helpers fail by panicking; cleanup is best-effort"
)]

use std::fs;
use std::path::PathBuf;
use std::process::{Command, Output};

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

#[test]
fn unknown_flags_and_bad_roots_exit_2() {
    for removed in [
        "--no-such-flag",
        "--check",
        "--bless",
        "--baseline",
        "--format",
        "--rules",
        "--callgraph",
        "--self-fuzz",
        "--seed",
    ] {
        let output = run(&[removed]);
        assert_eq!(output.status.code(), Some(2), "{removed}");
    }
    let output = run(&["--root", "/definitely/not/a/workspace"]);
    assert_eq!(output.status.code(), Some(2));
    let output = run(&["--root"]);
    assert_eq!(output.status.code(), Some(2));
}

#[test]
fn the_workspace_reports_no_findings() {
    let root = repo_root();
    let output = run(&["--root", root.to_str().expect("utf-8 root")]);
    assert_eq!(output.status.code(), Some(0), "{}", stdout(&output));
    assert_eq!(stdout(&output), "no findings\n");
}

#[test]
fn seeded_recursion_prints_the_finding_and_its_entry_trace() {
    let root = repo_root().join("target/analyzer-cli/recursion");
    let _ = fs::remove_dir_all(&root);
    let src = root.join("crates/engine/src");
    fs::create_dir_all(&src).expect("mkdir mini-workspace");
    fs::write(root.join("Cargo.toml"), "[workspace]\n").expect("write Cargo.toml");
    // The service entry reaches the unguarded recursion through a helper.
    fs::write(
        src.join("service.rs"),
        "\
pub fn handle_request(n: u8) -> u8 {
    prepare(n)
}

fn prepare(n: u8) -> u8 {
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
    )
    .expect("write service.rs");
    let output = run(&["--root", root.to_str().expect("utf-8 root")]);
    let _ = fs::remove_dir_all(&root);

    assert_eq!(output.status.code(), Some(1));
    let text = stdout(&output);
    let lines: Vec<&str> = text.lines().collect();
    let at = lines
        .iter()
        .position(|l| {
            l.starts_with(
                "crates/engine/src/service.rs:9: recurse-request: \
                 `engine::service::descend` calls itself",
            )
        })
        .expect("the finding line");
    assert_eq!(
        lines[at + 1..at + 5],
        [
            "  entry trace:",
            "    0: engine::service::handle_request",
            "    1: engine::service::prepare",
            "    2: engine::service::descend",
        ],
        "{text}"
    );
    assert!(
        text.ends_with("\n1 findings (recurse-request: 1)\n"),
        "{text}"
    );
}
