#!/usr/bin/env bash
# The one command: builds the benchmark offline, then runs it.
#
#   benchmark/run.sh                      every workload, untraced then traced,
#                                         results merged into benchmark/out/all.json
#   benchmark/run.sh --workload <name> --seed N --seconds S --trace 0|1 [--json PATH]
#   benchmark/run.sh compare A.json B.json
#   benchmark/run.sh selftest
#
# Runs from the repository root, whatever the caller's directory. Exits
# nonzero if the build fails or (with no arguments) any output check does.
set -euo pipefail
cd "$(dirname "$0")/.."
target="${CARGO_TARGET_DIR:-benchmark/target}"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
if [ $# -eq 0 ]; then
    set -- --workload all --json benchmark/out/all.json
fi
exec "$target/release/escape-benchmark" "$@"
