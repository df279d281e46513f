#!/usr/bin/env bash
# Builds and runs the cost ledger from the repository root. With no
# arguments it measures every workload (one process each), prints the
# ledger and writes benchmark/out/result.json; arguments are passed
# through (--seed, --seconds, --repeat K, --quick, or --workload/--trace
# for one run). Exits non-zero if any workload's outputs fail
# verification or, under --repeat, a spread exceeds its bound.
set -euo pipefail
cd "$(dirname "$0")/.."
exec cargo run --release --locked --offline --quiet \
    --manifest-path benchmark/Cargo.toml -- "$@"
