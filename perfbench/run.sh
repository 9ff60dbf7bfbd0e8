#!/usr/bin/env bash
# Builds the hypar-engine binary and the benchmark harness from this
# checkout, then runs the harness with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload cold-plan --seed 1 --seconds 18 --trace 0
#
# Build outputs go to $CARGO_TARGET_DIR (default: the repository's target/).
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
target="${CARGO_TARGET_DIR:-$root/target}"
cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" \
    --target-dir "$target" -p hypar-engine --bin hypar-engine
cargo build --release --offline --quiet --manifest-path "$root/perfbench/Cargo.toml" \
    --target-dir "$target"
exec "$target/release/hypar-perfbench" --engine "$target/release/hypar-engine" "$@"
