#!/usr/bin/env bash
# One-shot local gate: everything CI runs, in the order it runs it.
# Fails fast; run from anywhere inside the repo. Each step is timed and a
# wall-clock summary table prints at the end — when the gate feels slow,
# the table says which step to blame (catalint itself is benchmarked
# separately by `cargo bench -p bench --bench analyzerbench`).
set -euo pipefail
cd "$(dirname "$0")/.."

STEP_NAMES=()
STEP_SECS=()

step() {
  local name="$1"
  shift
  echo "==> ${name}"
  local t0 t1
  t0=$(date +%s.%N)
  "$@"
  t1=$(date +%s.%N)
  STEP_NAMES+=("${name}")
  STEP_SECS+=("$(awk -v a="${t0}" -v b="${t1}" 'BEGIN { printf "%6.1f", b - a }')")
}

# third_party/* members are vendored verbatim and excluded from the
# workspace-wide lint and test steps: their targets are not held to this
# workspace's bar and must never be edited to satisfy it.
VENDORED=(
  --exclude bytes --exclude criterion --exclude crossbeam
  --exclude parking_lot --exclude proptest --exclude rand
  --exclude serde --exclude serde_derive --exclude serde_json
)

# --all-targets lints tests, benches, and examples too — the parse
# crates re-allow unwrap/expect (and narrowing casts) in test code, so
# the deny lints stay aimed at library code handling untrusted images.
clippy_workspace() {
  cargo clippy --workspace --all-targets "${VENDORED[@]}" -- -D warnings
}

# Every first-party crate's tests, not only the root package's: plain
# `cargo test` skips the platform queue/engine suites and bench's own
# unit tests.
test_workspace() {
  cargo test -q --workspace "${VENDORED[@]}"
}

# Machine-readable output must stay both parseable and schema-stable:
# downstream tooling pins tools/catalint-schema.json, so a field rename or
# removal has to land together with a fixture update (and a version bump).
# SARIF goes through the same parseability bar.
catalint_emit() {
  cargo run -q -p catalint -- --emit json | python3 -m json.tool >/dev/null
  cargo run -q -p catalint -- --emit sarif | python3 -m json.tool >/dev/null
  cargo run -q -p catalint -- --emit schema | diff -u tools/catalint-schema.json -
}

# The fault-injection crate and its cross-layer integration suite: typed
# surfacing, recovery ladder, zero-overhead-when-inactive, and replay
# determinism (proptests included).
faultsim_suite() {
  cargo test -q -p faultsim
  cargo test -q --test faultsim
}

step "cargo fmt --check" cargo fmt --all --check
step "cargo clippy (workspace, --all-targets, -D warnings)" clippy_workspace
step "catalint (workspace invariants, zero-debt)" cargo run -q -p catalint
step "catalint --jobs 4 (parallel scan, same verdict)" \
  cargo run -q -p catalint -- --jobs 4
step "catalint --emit json/sarif (valid) + schema fixture (up to date)" catalint_emit
step "cargo build --release" cargo build --release
step "cargo test (workspace)" test_workspace
step "faultsim suite" faultsim_suite

# Regenerates the observability export in-memory and verifies the checked-in
# BENCH_pr2.json is valid (every Fig. 11 engine present, monotone span
# nesting, non-empty histograms, phase attribution sums to the boot total)
# and byte-identical — i.e. the tracing layer is still deterministic.
step "bench export (BENCH_pr2.json valid + up to date)" \
  cargo run -q -p bench --bin repro -- export --check BENCH_pr2.json

# Same staleness gate for the fault sweep: regenerates the rate × policy
# grid in-memory and verifies the checked-in BENCH_pr3.json is valid
# (zero-rate and full-ladder rows at availability 1.0, the no-recovery
# baseline losing requests, storm recovery visible in the p99) and
# byte-identical — i.e. fault injection and recovery are deterministic.
step "fault sweep (BENCH_pr3.json valid + up to date)" \
  cargo run -q -p bench --bin repro -- faults --check BENCH_pr3.json

# And for the overload sweep: regenerates the admission grid and the
# baseline-vs-full storm comparison in-memory and verifies the checked-in
# BENCH_pr4.json is valid (admission invisible at zero load, typed overload
# sheds past saturation, a fault-free breaker changing nothing, zero
# availability loss for admitted requests under the storm, the baseline's
# goodput collapsing while the full policy bounds its p99) and
# byte-identical — i.e. admission, breakers, and the repair loop are
# deterministic. `repro all --check` runs all three gates in one shot.
step "overload sweep (BENCH_pr4.json valid + up to date)" \
  cargo run -q -p bench --bin repro -- overload --check BENCH_pr4.json

# And for the fleet density grid: regenerates the open-loop event-engine
# ladder (10k-function Zipf catalogue, flash-crowd bursts 10^3 → 10^6
# concurrent instances) in-memory and verifies the checked-in
# BENCH_pr7.json is valid (every rung reaching its burst density, the
# ladder ascending, the top rung past 10^5 instances, reuse and expiry
# exercised at every scale) and byte-identical — i.e. the event queue,
# arenas, and calibration are deterministic.
step "fleet density grid (BENCH_pr7.json valid + up to date)" \
  cargo run -q -p bench --bin repro -- fleet --check BENCH_pr7.json

# And for the cluster sweep: regenerates the nodes × placement-budget ×
# routing-policy grid on the shared viral flash-crowd trace and verifies
# the checked-in BENCH_pr8.json is valid (the single-node cluster digesting
# byte-identically to the plain gateway, every multi-node remote-fork cell
# holding availability 1.0 with zero cold boots while the local-cold
# baseline cold-boots with a worse startup tail, the poisoned-transfer
# storm degrading to cold instead of shedding while background repairs
# run) and byte-identical — i.e. placement, routing, the remote-sfork rung,
# and the transfer fault seam are deterministic.
step "cluster sweep (BENCH_pr8.json valid + up to date)" \
  cargo run -q -p bench --bin repro -- cluster --check BENCH_pr8.json

# And for the chaos grid: regenerates the node-fault × cluster-size ×
# failover-policy survivability sweep on the same viral flash-crowd shape
# and verifies the checked-in BENCH_pr9.json is valid (full failover
# holding availability ≥ (N−1)/N at a sub-millisecond startup p99 under
# crash, gray, and partition; templates re-replicated after holder death;
# hedges firing and winning around the gray transfer source; the
# no-failover baseline failing typed at corpses and hanging waiters in
# the storm) and byte-identical — i.e. node faults, health tracking,
# failover, and hedged transfers are deterministic.
step "chaos grid (BENCH_pr9.json valid + up to date)" \
  cargo run -q -p bench --bin repro -- chaos --check BENCH_pr9.json

# Correctness smoke for the host-time benchmark: every perfbench workload
# for one second, failing unless its output checks pass ("correct": true,
# "failed": 0) — the pinned seed-42 digests, route_hash and chaos log
# included, guard the process-wide calibration memo. Measures nothing.
step "perfbench smoke (pinned digests, 0 failed)" bash tools/perfbench_smoke.sh

# Smoke-run the simulation-core throughput bench (closed-loop vs fleet
# engine, simulated requests per wall-clock second): it must build and
# complete, keeping the density grid's engine path benchable.
step "simbench smoke (closed-loop + fleet engine throughput)" \
  cargo bench -q -p bench --bench simbench

echo
echo "All checks passed."
echo
echo "  seconds  step"
echo "  -------  ----"
for i in "${!STEP_NAMES[@]}"; do
  echo "  ${STEP_SECS[$i]}  ${STEP_NAMES[$i]}"
done
