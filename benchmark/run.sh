#!/usr/bin/env bash
# Builds the program under test (the `campaign` CLI), the benchmark driver and the probe, then
# hands over to the driver. Everything is built from source into $CARGO_TARGET_DIR (default:
# the repo's target/), so the first call in a fresh checkout takes a few minutes.
#
#   benchmark/run.sh                         whole suite: check, 5 interleaved passes, set-up
#                                            runs, traced pass, isolated probes
#   benchmark/run.sh --quick                 smoke: 1 pass, 3 set-up runs, no probes
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#                                            one workload; the last line of stdout is the JSON
#                                            result the acceptance driver reads
#   benchmark/run.sh check                   BENCHMARK.json and the workload files are in sync
#   benchmark/run.sh compare A/bench.json B/bench.json
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"

target="${CARGO_TARGET_DIR:-target}"
case "$target" in
/*) ;;
*) target="$root/$target" ;;
esac
export CARGO_TARGET_DIR="$target"

cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" -p p2plab-bench --bin campaign
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml --bin bench
# The driver must stay usable when the probe no longer compiles against the crates; only
# traced runs need it, and they fail with a clear message if it is missing.
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml --bin probe ||
    echo "run.sh: warning: the probe did not build; traced runs are unavailable" >&2

case "${1:-}" in
check | compare)
    command="$1"
    shift
    ;;
*) command=run ;;
esac
exec "$target/release/bench" "$command" --root "$root" --bin-dir "$target/release" "$@"
