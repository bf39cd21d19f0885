#!/usr/bin/env bash
# Builds specc and specbench from this checkout, then runs specbench with
# the given arguments. Run from the repository root, e.g.
#
#   bash specbench/run.sh --workload serve-edits --seed 1 --seconds 30 --trace 0
#
# Both binaries land in the same target directory ($CARGO_TARGET_DIR,
# default `target`), where specbench expects to find specc beside itself.
set -euo pipefail
if [ ! -f Cargo.toml ] || [ ! -f src/bin/specc.rs ]; then
    echo "run.sh: run from the root of the specframe repository" >&2
    exit 2
fi
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet --bin specc
cargo build --release --offline --quiet --manifest-path specbench/Cargo.toml
exec "$CARGO_TARGET_DIR/release/specbench" "$@"
