#!/usr/bin/env bash
# Tier-1 verification for the SnackNoC reproduction — fully offline.
#
# The workspace owns all of its randomness (crates/prng) and vendors no
# third-party crates, so everything here must succeed with zero network
# and zero registry access. Run from anywhere; operates on the repo root.
#
#   ./scripts/verify.sh          # guard + build + test + clippy
#   ./scripts/verify.sh guard    # manifest guard only (fast)

set -euo pipefail
cd "$(dirname "$0")/.."

# ---------------------------------------------------------------------------
# Guard: no registry dependencies may be (re)introduced. Every entry in any
# dependency section of any manifest must be a path dependency or a
# `workspace = true` reference to one; `[workspace.dependencies]` itself
# may contain only path deps. A bare `name = "1.2"` or a `version =` key
# inside a dependency table is a registry dep and fails the build.
# ---------------------------------------------------------------------------
guard() {
  local bad=0
  for manifest in Cargo.toml crates/*/Cargo.toml; do
    # awk: track the current [section]; inside dependency sections, flag
    # any non-blank, non-comment line that neither declares a path dep nor
    # opts into the workspace dep table.
    local offending
    offending=$(awk '
      /^\[/ {
        in_deps = ($0 ~ /^\[(workspace\.)?(dev-|build-)?dependencies(\.|\])/)
        next
      }
      in_deps && NF && $0 !~ /^[[:space:]]*#/ \
              && $0 !~ /path[[:space:]]*=/ \
              && $0 !~ /workspace[[:space:]]*=[[:space:]]*true/ {
        print FILENAME ": " $0
      }
    ' "$manifest")
    if [ -n "$offending" ]; then
      echo "ERROR: non-path/non-workspace dependency in $manifest:" >&2
      echo "$offending" >&2
      bad=1
    fi
  done
  if [ "$bad" -ne 0 ]; then
    echo "The SnackNoC workspace is hermetic: only path deps and" >&2
    echo "'workspace = true' references are allowed (see README §Building)." >&2
    exit 1
  fi
  echo "manifest guard: ok (all dependencies are in-repo)"
}

guard
if [ "${1:-}" = "guard" ]; then
  exit 0
fi

echo "+ cargo build --release --offline"
cargo build --release --offline

echo "+ cargo build --release --offline --workspace --examples --benches"
cargo build --release --offline --workspace --examples --benches

echo "+ cargo test -q --offline --workspace"
cargo test -q --offline --workspace

# The allocation-free claims (tests/alloc.rs) are about the optimized
# build that perfbench measures: check them there too, not only in the
# debug build above.
echo "+ cargo test --release --offline --test alloc"
cargo test --release --offline --test alloc

# The cross-commit benchmark is a workspace of its own (perfbench/), so
# the builds above never compile it: build and test it against the
# library as changed, or an API change could break it unseen.
echo "+ cargo test --release --offline --manifest-path perfbench/Cargo.toml"
cargo test --release --offline --manifest-path perfbench/Cargo.toml

echo "+ cargo clippy --offline --workspace --all-targets -- -D warnings"
cargo clippy --offline --workspace --all-targets -- -D warnings

# The smoke runs below each exit non-zero when their own invariants fail;
# snack-check then re-reads every emitted report (and the committed
# BENCH_perf.json) and applies the JSON gates of crates/bench/src/check.rs,
# so a silently-broken self-check cannot pass CI.
smoke_json=$(mktemp)
trace_json=$(mktemp)
perf_json=$(mktemp)
chaos_json=$(mktemp)
service_json=$(mktemp)
trap 'rm -f "$smoke_json" "$trace_json" "$perf_json" "$chaos_json" "$service_json"' EXIT
run() {
  cargo run --release --offline -q -p snacknoc-bench --bin "$@"
}

# Fault-injection smoke: a fixed micro-grid with the token-loss watchdog
# on; exits non-zero unless faults were injected AND every detected loss
# recovered (recovered == detected, outputs bit-exact).
echo "+ snack-faults --smoke"
run snack-faults -- --smoke --json "$smoke_json"

# Chaos smoke: randomized permanent+transient fault schedules, every cell
# run in both stepping modes; exits non-zero unless every invariant holds
# (termination with a typed verdict, bit-exact outputs, transient
# recovery, consistent degradation reports, dense/event bit-identity) AND
# at least one cell completed through an actual remap/failover.
echo "+ snack-chaos --smoke"
run snack-chaos -- --smoke --json "$chaos_json"
run snack-check -- chaos "$chaos_json"

# Tracing smoke: run a kernel under the RingTracer; exits non-zero unless
# the emitted Chrome trace parses with events on every component lane and
# the critical-path attribution sums exactly to the kernel latency.
echo "+ snack-trace --smoke"
run snack-trace -- --smoke --json "$trace_json"
run snack-check -- trace "$trace_json"

# Stepping-mode hot-loop smoke: time Network::step + a closed-loop
# platform scenario + a kernel under the dense reference loop and
# event-driven stepping; exits non-zero unless every stats fingerprint is
# bit-identical across both. The check also demands that event stepping
# beats the dense baseline on the idle mesh — structural (the wheel jumps
# dead cycles the dense loop must walk), so a loaded CI machine keeps it.
echo "+ snack-perf --smoke"
run snack-perf -- --smoke --json "$perf_json"
run snack-check -- perf "$perf_json"

# Loaded-path gates on the committed full capture (DESIGN.md §14): the
# perf gates on every row, a saturation/32x32 scaling row, and the
# saturation/16x16 event median at least 1.2x faster than the capture
# committed before the data-layout overhaul.
if [ -f BENCH_perf.json ]; then
  run snack-check -- perf-capture BENCH_perf.json
fi

# Service smoke (DESIGN.md §13): the multi-tenant SLO sweep at three
# load levels, every level in both stepping modes; exits non-zero unless
# every level is violation-free and dense/event bit-identical, Guaranteed
# p99 < BestEffort p99 at peak, and the peak level tripped admission
# control. The check adds Jain fairness in [0, 1] on every level.
echo "+ snack-service --smoke"
run snack-service -- --smoke --json "$service_json"
run snack-check -- service "$service_json"

echo "verify: all green"
