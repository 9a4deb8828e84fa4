#!/usr/bin/env bash
# Builds the `monsem` server binary and the benchmark from this checkout,
# then runs the benchmark. Run from the repository root:
#
#   bash monbench/run.sh --workload ingest --seed 1 --seconds 25 --trace 0
#   bash monbench/run.sh --self-test
#
# Cargo's output goes to stderr; the benchmark's last stdout line is its
# JSON result. Build artifacts go to $CARGO_TARGET_DIR (default
# .bench_build), run artifacts (sockets, span files) to .bench_out.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path Cargo.toml --bin monsem 1>&2
cargo build --release --offline --quiet --manifest-path monbench/Cargo.toml 1>&2
exec "$CARGO_TARGET_DIR/release/monbench" --server "$CARGO_TARGET_DIR/release/monsem" "$@"
