#!/usr/bin/env bash
# Correctness smoke for the host-time benchmark (perfbench/): runs each
# workload for one second and fails unless its closing JSON line reports
# `"correct": true` and `"failed": 0`. At the default seed that holds the
# outputs to the digests pinned in perfbench/src/check.rs (route_hash and
# the chaos log included), so any cross-run state in the simulator — the
# process-wide calibration memo above all — must leave every outcome
# byte-identical. It measures nothing: one second is far too short for a
# number worth keeping.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release --offline -q --manifest-path perfbench/Cargo.toml
for workload in boot-matrix fleet-burst cluster-chaos; do
  last=$(cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
    --workload "${workload}" --seconds 1 | tail -n 1)
  echo "  ${workload}: ${last}"
  python3 -c '
import json, sys
line = json.loads(sys.argv[1])
sys.exit(0 if line["correct"] is True and line["failed"] == 0 else 1)
' "${last}" || {
    echo "perfbench ${workload}: output checks failed" >&2
    exit 1
  }
done
