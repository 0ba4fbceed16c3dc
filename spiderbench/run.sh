#!/usr/bin/env bash
# Build spiderd and the spiderbench binary from this checkout, then run
# spiderbench with the given arguments. Run from the repository root:
#
#   bash spiderbench/run.sh --workload probe --seed 1 --seconds 30 --trace 0
#   bash spiderbench/run.sh --selftest
#
# Build output goes to $CARGO_TARGET_DIR (default .bench_build).
set -euo pipefail
if [[ ! -f Cargo.toml || ! -d crates/server || ! -f spiderbench/Cargo.toml ]]; then
    echo "spiderbench: run from the root of a full repository checkout" >&2
    exit 2
fi
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet -p routes-server --bin spiderd >&2
cargo build --release --offline --quiet --manifest-path spiderbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/spiderbench" --spiderd "$CARGO_TARGET_DIR/release/spiderd" "$@"
