//! The `hypar-analyzer` command-line front-end: the call-graph lint gate.
//!
//! ```text
//! hypar-analyzer [--root DIR]
//! ```
//!
//! Scans the workspace at `DIR` (default: the current directory) and
//! prints each finding as `file:line: rule: message`, followed by its
//! entry trace, entry first; then the per-rule totals, or `no findings`.
//!
//! Exit codes: 0 clean, 1 any finding, 2 usage or I/O error.

use std::path::PathBuf;
use std::process::ExitCode;

use hypar_analyzer::{report, scan_workspace};

const USAGE: &str = "usage: hypar-analyzer [--root DIR]";

/// The workspace root named by the arguments, or `None` for `--help`.
fn parse_args(args: &[String]) -> Result<Option<PathBuf>, String> {
    let mut root = PathBuf::from(".");
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--root" => {
                let dir = it
                    .next()
                    .ok_or(format!("--root needs a directory\n{USAGE}"))?;
                root = PathBuf::from(dir);
            }
            "--help" | "-h" => return Ok(None),
            other => return Err(format!("unknown argument `{other}`\n{USAGE}")),
        }
    }
    Ok(Some(root))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let root = match parse_args(&args) {
        Ok(Some(root)) => root,
        Ok(None) => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::from(2);
        }
    };
    let findings = match scan_workspace(&root) {
        Ok(findings) => findings,
        Err(message) => {
            eprintln!("hypar-analyzer: {message}");
            return ExitCode::from(2);
        }
    };
    if findings.is_empty() {
        println!("no findings");
        return ExitCode::SUCCESS;
    }
    for finding in &findings {
        println!("{finding}");
    }
    let summary: Vec<String> = report::totals(&findings)
        .iter()
        .map(|(rule, count)| format!("{rule}: {count}"))
        .collect();
    println!("\n{} findings ({})", findings.len(), summary.join(", "));
    ExitCode::FAILURE
}
