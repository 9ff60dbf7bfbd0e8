//! The analyzer against the real tree, and the wiring of the clippy
//! policy that replaced its per-site rules: every service crate and the
//! vendored JSON parser opt into the workspace lint table, the table
//! denies each replacement lint, and the three call-graph rules report
//! nothing.

#![expect(clippy::expect_used, reason = "helpers fail by panicking")]

use std::fs;
use std::path::PathBuf;

use hypar_analyzer::config::SERVICE_CRATES;
use hypar_analyzer::scan_workspace;

/// The clippy lints that carry the policy, each at `deny`: the panic
/// family, the determinism hazards, narrowing casts, dropped `Result`s,
/// and reasoned `#[expect]` waivers.
const POLICY_LINTS: &[&str] = &[
    "unwrap_used",
    "expect_used",
    "panic",
    "unreachable",
    "todo",
    "unimplemented",
    "disallowed_methods",
    "disallowed_types",
    "float_cmp",
    "cast_possible_truncation",
    "let_underscore_must_use",
    "unused_result_ok",
    "allow_attributes",
    "allow_attributes_without_reason",
];

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn read(rel: &str) -> String {
    fs::read_to_string(repo_root().join(rel)).expect("read workspace file")
}

/// The `key = value` lines of the TOML table headed `[header]`.
fn table(text: &str, header: &str) -> Vec<(String, String)> {
    let open = format!("[{header}]");
    text.lines()
        .skip_while(|line| line.trim() != open)
        .skip(1)
        .take_while(|line| !line.trim_start().starts_with('['))
        .filter(|line| !line.trim_start().starts_with('#'))
        .filter_map(|line| {
            let (key, value) = line.split_once('=')?;
            Some((key.trim().to_string(), value.trim().to_string()))
        })
        .collect()
}

#[test]
fn service_crates_opt_into_the_denying_lint_table() {
    // Every request line also goes through the vendored JSON parser.
    let manifests = SERVICE_CRATES
        .iter()
        .map(|name| format!("crates/{name}/Cargo.toml"))
        .chain(["vendor/serde_json/Cargo.toml".to_owned()]);
    for path in manifests {
        assert!(
            table(&read(&path), "lints").contains(&("workspace".into(), "true".into())),
            "{path} must opt into the policy with `[lints] workspace = true`"
        );
    }
    let policy = table(&read("Cargo.toml"), "workspace.lints.clippy");
    for lint in POLICY_LINTS {
        assert!(
            policy.contains(&((*lint).into(), "\"deny\"".into())),
            "[workspace.lints.clippy] must set {lint} = \"deny\": {policy:?}"
        );
    }
    let clippy_toml = read("clippy.toml");
    for path in [
        "std::time::Instant::now",
        "std::time::SystemTime::now",
        "std::collections::HashMap",
        "std::collections::HashSet",
    ] {
        assert!(
            clippy_toml.contains(&format!("\"{path}\"")),
            "clippy.toml must disallow {path}"
        );
    }
}

#[test]
fn workspace_has_zero_live_findings() {
    let findings = scan_workspace(&repo_root()).expect("scan");
    let found: Vec<String> = findings.iter().map(ToString::to_string).collect();
    assert!(found.is_empty(), "findings: {found:#?}");
}

#[test]
fn interproc_rules_are_clean_workspace_wide() {
    // The request path holds no conflicting lock orders and no
    // unguarded recursion, and the scan actually reached it: it fails
    // when no service entry point resolves to a graph node.
    let findings = scan_workspace(&repo_root()).expect("scan");
    let interproc: Vec<String> = findings
        .iter()
        .filter(|f| f.rule == "lock-order" || f.rule == "recurse-request")
        .map(ToString::to_string)
        .collect();
    assert!(interproc.is_empty(), "interproc findings: {interproc:#?}");
}
