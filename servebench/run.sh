#!/usr/bin/env bash
# Builds the release `ptrng-serve` from the enclosing checkout and the
# `servebench` program, then runs `servebench` with the given arguments:
#
#   bash servebench/run.sh --workload random-bulk --seed 1 --seconds 10 --trace 0
#
# Run from the root of the checkout. Build output goes to $CARGO_TARGET_DIR
# (default `.bench_build`).
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
here="$(dirname "$0")"
cargo build --release --quiet --manifest-path Cargo.toml --bin ptrng-serve >&2
cargo build --release --quiet --manifest-path "$here/Cargo.toml" >&2
exec "$CARGO_TARGET_DIR/release/servebench" --server "$CARGO_TARGET_DIR/release/ptrng-serve" "$@"
