#!/usr/bin/env bash
# The repo benchmark in one command.
#
#   benchmark/run.sh
#       builds, then runs all four workloads: the timed pass (reps
#       round-robin), then the traced pass. Prints every metric as
#       `name workload value unit` and writes benchmark/out/results.json
#       and benchmark/out/trace.json.
#   benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#       one workload, one pass: what BENCHMARK.json's command runs. The last
#       line of stdout is the JSON result.
#   benchmark/run.sh compare A.json B.json
#       compares two results.json files; exits non-zero on `worse`.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
manifest="$here/Cargo.toml"
# A relative CARGO_TARGET_DIR is relative to the caller's directory, which
# this script never leaves.
target="${CARGO_TARGET_DIR:-$here/target}"

# The lock file pins the path dependencies as they were when the benchmark
# was written. A later change to the repo's own dependency graph makes it
# stale without anyone having touched the benchmark; then build unlocked.
if ! cargo build --release --offline --locked --manifest-path "$manifest" >&2; then
    echo "run.sh: locked build failed; retrying without --locked" >&2
    cargo build --release --offline --manifest-path "$manifest" >&2
fi

bin="$target/release/wgtt-benchmark"
case "${1:-suite}" in
    compare) exec "$bin" "$@" ;;
    suite) shift || true; exec "$bin" suite --out "$here/out" "$@" ;;
    *) exec "$bin" "$@" --out "$here/out" ;;
esac
