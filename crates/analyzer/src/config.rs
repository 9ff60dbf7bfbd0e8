//! What the analyzer scans and where requests enter.
//!
//! The per-crate lint policy (panics, wall clocks, unordered maps, float
//! equality, narrowing casts, dropped `Result`s) lives in the workspace
//! `[workspace.lints.clippy]` table; [`SERVICE_CRATES`] names the crates
//! that must opt into it.  The analyzer itself reads only the scan roots
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entry_points_cover_the_request_surface() {
        let covers = |suffix: &str, prefix: &str| ENTRY_POINTS.contains(&(suffix, prefix));
        assert!(covers("crates/engine/src/service.rs", "handle_"));
        assert!(covers("crates/engine/src/engine.rs", "plan"));
        assert!(covers("crates/replay/src/golden.rs", "verify"));
    }

    #[test]
    fn scan_roots_are_sorted_and_include_facade_and_examples() {
        let mut sorted = SCAN_ROOTS.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(SCAN_ROOTS, sorted);
        for name in SERVICE_CRATES {
            assert!(
                SCAN_ROOTS.contains(&format!("crates/{name}/src").as_str()),
                "{name}"
            );
        }
        for root in ["crates/bench/src", "src", "examples"] {
            assert!(SCAN_ROOTS.contains(&root), "{root}");
        }
    }
}
