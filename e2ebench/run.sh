#!/usr/bin/env bash
# Builds the release `invmeas` server and the benchmark from this checkout,
# then runs one benchmark workload. Run from the repository root:
#
#   bash e2ebench/run.sh --workers 2 --exec-threads 1 \
#       --workload interactive-5q --seed 1 --seconds 30 --trace 0
#
# Output: diagnostic lines, then one JSON result object as the last line.
set -euo pipefail

root="$(pwd)"
target="${CARGO_TARGET_DIR:-target}"
case "$target" in
  /*) ;;
  *) target="$root/$target" ;;
esac

cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" \
  -p invmeas-cli --bin invmeas >&2
CARGO_TARGET_DIR="$target" cargo build --release --offline --quiet \
  --manifest-path "$root/e2ebench/Cargo.toml" >&2

# The generator and the server share one CPU, the last this process may
# use: a closed loop then never wakes a thread on another virtual CPU,
# whose wake-up cost on a shared host moves with other tenants' load (see
# e2ebench/README.md, "Host noise").
cpus="$(taskset -pc $$)"
cpu="${cpus##*[ ,-]}"
exec taskset -c "$cpu" \
  "$target/release/e2ebench" --server-bin "$target/release/invmeas" "$@"
