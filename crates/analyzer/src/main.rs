//! The `hypar-analyzer` command-line front-end.
//!
//! ```text
//! hypar-analyzer                  # report every finding
//! hypar-analyzer --format json    # same, as a hypar-analyzer-findings/v3 document
//! hypar-analyzer --rules          # the rule reference table
//! hypar-analyzer --self-fuzz N    # coverage-guided lexer+parser fuzz (deterministic)
//! hypar-analyzer --callgraph dot  # workspace call graph, Graphviz
//! hypar-analyzer --callgraph json # same, hypar-analyzer-callgraph/v1
//! ```
//!
//! Exit codes: 0 clean, 1 any finding, 2 usage or I/O error.

use std::path::PathBuf;
use std::process::ExitCode;

use hypar_analyzer::config::Config;
use hypar_analyzer::{callgraph_of, fuzz, report, scan_workspace, validate_root};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Mode {
    Report,
    Rules,
    SelfFuzz { iterations: u64, seed: u64 },
    Callgraph(GraphFormat),
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum GraphFormat {
    Dot,
    Json,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Format {
    Text,
    Json,
}

struct Options {
    mode: Mode,
    format: Format,
    root: PathBuf,
}

const USAGE: &str = "usage: hypar-analyzer [--rules | --self-fuzz N | --callgraph dot|json] \
                     [--format text|json] [--root DIR] [--seed N]";

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut mode = Mode::Report;
    let mut format = Format::Text;
    let mut root = PathBuf::from(".");
    let mut seed = fuzz::DEFAULT_SEED;
    let mut fuzz_iterations: Option<u64> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--rules" => mode = Mode::Rules,
            "--callgraph" => {
                let which = it
                    .next()
                    .ok_or(format!("--callgraph needs a format (dot or json)\n{USAGE}"))?;
                mode = Mode::Callgraph(match which.as_str() {
                    "dot" => GraphFormat::Dot,
                    "json" => GraphFormat::Json,
                    other => {
                        return Err(format!(
                            "unknown callgraph format `{other}` (dot or json)\n{USAGE}"
                        ))
                    }
                });
            }
            "--format" => {
                let which = it
                    .next()
                    .ok_or(format!("--format needs a value\n{USAGE}"))?;
                format = match which.as_str() {
                    "text" => Format::Text,
                    "json" => Format::Json,
                    other => {
                        return Err(format!("unknown format `{other}` (text or json)\n{USAGE}"))
                    }
                };
            }
            "--self-fuzz" => {
                let n = it
                    .next()
                    .ok_or(format!("--self-fuzz needs a count\n{USAGE}"))?;
                fuzz_iterations =
                    Some(n.parse().map_err(|_| {
                        format!("--self-fuzz count `{n}` is not a number\n{USAGE}")
                    })?);
            }
            "--seed" => {
                let n = it.next().ok_or(format!("--seed needs a value\n{USAGE}"))?;
                seed = n
                    .parse()
                    .map_err(|_| format!("--seed `{n}` is not a number\n{USAGE}"))?;
            }
            "--root" => {
                let dir = it
                    .next()
                    .ok_or(format!("--root needs a directory\n{USAGE}"))?;
                root = PathBuf::from(dir);
            }
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown argument `{other}`\n{USAGE}")),
        }
    }
    if let Some(iterations) = fuzz_iterations {
        mode = Mode::SelfFuzz { iterations, seed };
    }
    if format == Format::Json && mode != Mode::Report {
        return Err(format!(
            "--format json only applies to report mode\n{USAGE}"
        ));
    }
    Ok(Options { mode, format, root })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let options = match parse_args(&args) {
        Ok(options) => options,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::from(2);
        }
    };
    match run(&options) {
        Ok(code) => code,
        Err(message) => {
            eprintln!("hypar-analyzer: {message}");
            ExitCode::from(2)
        }
    }
}

fn run(options: &Options) -> Result<ExitCode, String> {
    let config = Config::default();
    match options.mode {
        Mode::Rules => {
            println!("{}", report::rules_table());
            Ok(ExitCode::SUCCESS)
        }
        Mode::SelfFuzz { iterations, seed } => {
            let summary = fuzz::run(iterations, seed)?;
            println!(
                "self-fuzz ok: {} mutants, {} tokens, {} findings, {} kind-pairs covered, {} corpus seeds retained, worst mutant {}us (seed {seed})",
                summary.iterations,
                summary.tokens,
                summary.findings,
                summary.pairs_covered,
                summary.corpus_retained,
                summary.worst_us
            );
            Ok(ExitCode::SUCCESS)
        }
        Mode::Callgraph(graph_format) => {
            validate_root(&options.root)?;
            let graph = callgraph_of(&options.root, &config)?;
            match graph_format {
                GraphFormat::Dot => print!("{}", graph.to_dot()),
                GraphFormat::Json => print!("{}", graph.to_json()),
            }
            Ok(ExitCode::SUCCESS)
        }
        Mode::Report => {
            validate_root(&options.root)?;
            let findings = scan_workspace(&options.root, &config)?;
            let code = if findings.is_empty() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            };
            if options.format == Format::Json {
                print!("{}", report::findings_json(&findings));
                return Ok(code);
            }
            for finding in &findings {
                println!("{finding}");
            }
            if findings.is_empty() {
                println!("no findings");
            } else {
                let summary: Vec<String> = report::totals(&findings)
                    .iter()
                    .map(|(rule, count)| format!("{rule}: {count}"))
                    .collect();
                println!("\n{} findings ({})", findings.len(), summary.join(", "));
            }
            Ok(code)
        }
    }
}
