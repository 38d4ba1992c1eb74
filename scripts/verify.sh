#!/usr/bin/env bash
#===- scripts/verify.sh - One-command verification sweep -----------------===//
#
# Runs the checks a PR must pass, in cost order:
#
#   1. tier-1: plain build + the full ctest suite (ROADMAP.md);
#   2. perfbench: the throughput benchmark's own self-test;
#   3. fuzz:   a bounded eco_fuzz differential sweep (fixed seed);
#   4. bench:  the gated benches bench_obs_overhead and
#              bench_fleet_dispatch;
#   5. ASan:   -DECO_SANITIZE=address build, concurrency labels only;
#   6. UBSan:  -DECO_SANITIZE=undefined build, labeled suites only;
#   7. TSan:   -DECO_SANITIZE=thread build, labeled suites only.
#
# The labeled suites (engine|sim|obs|check|serve|fleet|fuzz|sync) are
# the ones with real concurrency or UB surface; running only them keeps
# the sanitizer passes tractable on small machines. Any ECO_SANITIZE
# build also turns the runtime lock-discipline checker on in Report
# mode (see DESIGN.md), so the sanitizer passes double as a lock-order
# audit of every suite they run. Knobs:
#
#   ECO_VERIFY_JOBS=N      build/test parallelism   (default: nproc)
#   ECO_VERIFY_SKIP_TSAN=1   skip the TSan pass
#   ECO_VERIFY_SKIP_UBSAN=1  skip the UBSan pass
#   ECO_VERIFY_SKIP_ASAN=1   skip the ASan pass
#   ECO_VERIFY_SKIP_BENCH=1  skip the gated benches
#   ECO_VERIFY_ANALYZE=1     also run scripts/analyze.sh (clang
#                            -Wthread-safety + clang-tidy; soft-skips
#                            when no clang toolchain is installed)
#
# Usage: scripts/verify.sh   (from anywhere inside the repo)
#
#===----------------------------------------------------------------------===//

set -euo pipefail

REPO="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
JOBS="${ECO_VERIFY_JOBS:-$(nproc)}"
LABELS="engine|sim|obs|check|serve|fleet|fuzz|sync"

step() { printf '\n==== %s ====\n' "$*"; }

run_suite() { # run_suite <build-dir> <cmake-extra...> -- <ctest-args...>
  local Dir="$1"; shift
  local CMakeArgs=()
  while [ "$1" != "--" ]; do CMakeArgs+=("$1"); shift; done
  shift
  cmake -B "$REPO/$Dir" -S "$REPO" "${CMakeArgs[@]}"
  cmake --build "$REPO/$Dir" -j "$JOBS"
  (cd "$REPO/$Dir" && ctest --output-on-failure -j "$JOBS" "$@")
}

step "tier-1: build + full test suite"
run_suite build --

step "perfbench: self-test"
(cd "$REPO" && python3 perfbench/run.py --self-test)

step "fuzz smoke: eco_fuzz --iters=200 --seed=7"
"$REPO/build/examples/eco_fuzz" --iters=200 --seed=7

step "flight-recorder smoke: tune -> resume -> report -> audit-events"
EV="$REPO/build/verify_events.jsonl"
CF="$REPO/build/verify_cache.json"
rm -f "$EV" "$CF"
# A cached tune, then the same command with --resume: the resume replays
# every point from the cache file, appends a second segment to the
# events file instead of truncating the first, and picks the same winner.
TUNE=("$REPO/build/examples/eco_cli" --kernel=matmul --n=48 --scale=16
      --cache-file="$CF" --events-file="$EV")
W1="$("${TUNE[@]}" | grep '^winner:')"
W2="$("${TUNE[@]}" --resume | grep '^winner:')"
[ "$W1" = "$W2" ] ||
  { echo "flight-recorder smoke: resume changed '$W1' to '$W2'"; exit 1; }
"$REPO/build/examples/eco_cli" report "$EV" > /dev/null
AUDIT="$("$REPO/build/examples/eco_check" --audit-events="$EV")"
echo "$AUDIT"
case "$AUDIT" in
  *"2 segment(s)"*"-> 0 issue(s)"*) ;;
  *) echo "flight-recorder smoke: expected 2 segments and 0 issues"; exit 1 ;;
esac
rm -f "$EV" "$CF"

step "fleet smoke: daemon + 2 eco_worker, SIGKILL one mid-tune"
FSOCK="$REPO/build/verify_fleet.sock"
FDB="$REPO/build/verify_fleet_db.json"
rm -f "$FSOCK" "$FDB"
"$REPO/build/examples/eco_served" --socket="$FSOCK" --db="$FDB" \
    --log-level=off &
DAEMON=$!
for _ in $(seq 100); do [ -S "$FSOCK" ] && break; sleep 0.05; done
[ -S "$FSOCK" ] || { echo "fleet smoke: daemon never bound $FSOCK"; exit 1; }
"$REPO/build/examples/eco_worker" --socket="$FSOCK" --name=victim \
    --poll-ms=200 >/dev/null 2>&1 &
W1=$!
"$REPO/build/examples/eco_worker" --socket="$FSOCK" --name=survivor \
    --poll-ms=200 >/dev/null 2>&1 &
W2=$!
# SIGKILL one worker shortly after the tune starts; the dispatcher must
# re-dispatch its batches and the submit below must still succeed.
( sleep 0.2; kill -9 "$W1" 2>/dev/null || true ) &
KILLER=$!
"$REPO/build/examples/eco_cli" submit --socket="$FSOCK" --kernel=matmul \
    --machine=sgi --scale=4 --n=64 --force --timeout-ms=120000
wait "$KILLER" 2>/dev/null || true
kill -9 "$W2" 2>/dev/null || true
kill -TERM "$DAEMON"
wait "$DAEMON"
wait "$W1" 2>/dev/null || true
wait "$W2" 2>/dev/null || true
rm -f "$FSOCK" "$FDB"

if [ "${ECO_VERIFY_SKIP_BENCH:-0}" != "1" ]; then
  # Each exits non-zero when it misses its bar; run from build/ so the
  # BENCH_*.json files they write stay out of the source tree.
  for B in bench_obs_overhead bench_fleet_dispatch; do
    step "bench: $B"
    (cd "$REPO/build" && "$REPO/build/bench/$B")
  done
else
  step "bench smoke: skipped (ECO_VERIFY_SKIP_BENCH=1)"
fi

if [ "${ECO_VERIFY_ANALYZE:-0}" = "1" ]; then
  step "static analysis: scripts/analyze.sh"
  "$REPO/scripts/analyze.sh"
  command -v "${ECO_CLANGXX:-clang++}" > /dev/null ||
    echo "NOTE: no clang -- the -Wthread-safety proof did NOT run"
else
  step "static analysis: skipped (set ECO_VERIFY_ANALYZE=1 to enable)"
fi

if [ "${ECO_VERIFY_SKIP_ASAN:-0}" != "1" ]; then
  step "ASan: labeled suites (engine|serve|fleet|check)"
  run_suite build-asan -DECO_SANITIZE=address -- -L "engine|serve|fleet|check"
else
  step "ASan: skipped (ECO_VERIFY_SKIP_ASAN=1)"
fi

if [ "${ECO_VERIFY_SKIP_UBSAN:-0}" != "1" ]; then
  step "UBSan: labeled suites ($LABELS)"
  run_suite build-ubsan -DECO_SANITIZE=undefined -- -L "$LABELS"
else
  step "UBSan: skipped (ECO_VERIFY_SKIP_UBSAN=1)"
fi

if [ "${ECO_VERIFY_SKIP_TSAN:-0}" != "1" ]; then
  step "TSan: labeled suites ($LABELS)"
  run_suite build-tsan -DECO_SANITIZE=thread -- -L "$LABELS"
else
  step "TSan: skipped (ECO_VERIFY_SKIP_TSAN=1)"
fi

step "verify: all passes green"
