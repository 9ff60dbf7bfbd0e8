//! What the analyzer scans and where requests enter.
//!
//! The per-crate lint policy (panics, wall clocks, unordered maps, float
//! equality, narrowing casts, dropped `Result`s) lives in the workspace
//! `[workspace.lints.clippy]` table; [`SERVICE_CRATES`] names the crates
//! that must opt into it.  The analyzer itself only needs the scan roots
//! and the service entry points its call graph is seeded from.

/// Crates whose code can be reached from a `PlanRequest`: each opts
/// into the workspace lint table with `[lints] workspace = true`, so a
/// panic or a nondeterministic read there fails clippy.
pub const SERVICE_CRATES: &[&str] = &[
    "engine",
    "graph",
    "core",
    "sim",
    "comm",
    "replay",
    "telemetry",
    "models",
    // The analyzer holds itself to the same standard.
    "analyzer",
];

/// The directories to walk, workspace-relative and sorted.  Integration
/// `tests/` directories inside them are skipped.
pub const SCAN_ROOTS: &[&str] = &[
    "crates/analyzer/src",
    "crates/bench/src",
    "crates/comm/src",
    "crates/core/src",
    "crates/engine/src",
    "crates/graph/src",
    "crates/models/src",
    "crates/replay/src",
    "crates/sim/src",
    "crates/telemetry/src",
    "examples",
    "src",
];

/// Service entry points seeding the call-graph reachability closure:
/// `(file-path suffix, fn-name prefix)` pairs.  These are the functions
/// untrusted request bytes can invoke.
pub const ENTRY_POINTS: &[(&str, &str)] = &[
    ("crates/engine/src/engine.rs", "plan"),
    ("crates/engine/src/service.rs", "handle_"),
    ("crates/engine/src/service.rs", "serve_"),
    ("crates/engine/src/main.rs", "main"),
    ("crates/engine/src/scenario.rs", "run"),
    ("crates/replay/src/main.rs", "main"),
    ("crates/replay/src/replay.rs", "replay"),
    ("crates/replay/src/golden.rs", "capture"),
    ("crates/replay/src/golden.rs", "verify"),
];

/// The analyzer configuration: scan roots plus entry points.
#[derive(Clone, Debug)]
pub struct Config {
    /// Workspace-relative directories to walk, in order.
    pub scan_roots: Vec<String>,
    /// `(file-path suffix, fn-name prefix)` service entry points
    /// seeding the reachability closure.
    pub entry_points: Vec<(String, String)>,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            scan_roots: SCAN_ROOTS.iter().map(|s| (*s).to_string()).collect(),
            entry_points: ENTRY_POINTS
                .iter()
                .map(|(suffix, prefix)| ((*suffix).to_string(), (*prefix).to_string()))
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entry_points_cover_the_request_surface() {
        let cfg = Config::default();
        let covers = |suffix: &str, prefix: &str| {
            cfg.entry_points
                .iter()
                .any(|(s, p)| s == suffix && p == prefix)
        };
        assert!(covers("crates/engine/src/service.rs", "handle_"));
        assert!(covers("crates/engine/src/engine.rs", "plan"));
        assert!(covers("crates/replay/src/golden.rs", "verify"));
    }

    #[test]
    fn scan_roots_are_sorted_and_include_facade_and_examples() {
        let roots = Config::default().scan_roots;
        let mut sorted = roots.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(roots, sorted);
        for name in SERVICE_CRATES {
            assert!(roots.contains(&format!("crates/{name}/src")), "{name}");
        }
        assert!(roots.contains(&"crates/bench/src".to_string()));
        assert!(roots.contains(&"src".to_string()));
        assert!(roots.contains(&"examples".to_string()));
    }
}
