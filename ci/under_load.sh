#!/usr/bin/env bash
# Tier-1 under CPU contention: start `nproc + 1` busy loops, then run the
# workspace tests twice with `--no-fail-fast`. Ranks share the cores with
# their daemons and with other jobs' ranks, so an oversubscribed box is a
# deployment condition: no test may pass or fail because of the scheduler.
#
# Usage: ci/under_load.sh [extra cargo test args...]
# Exits non-zero if either run has a failure. The busy loops stop on exit.
set -u

loops=()
stop_loops() {
    for pid in "${loops[@]}"; do
        kill "$pid" 2>/dev/null
    done
}
trap stop_loops EXIT

n=$(( $(nproc) + 1 ))
for _ in $(seq "$n"); do
    ( while :; do :; done ) &
    loops+=("$!")
done
echo "under_load: $n busy loop(s) on $(nproc) CPU(s)"

status=0
for run in 1 2; do
    echo "under_load: run $run"
    if ! cargo test -q --no-fail-fast "$@"; then
        echo "under_load: run $run FAILED"
        status=1
    fi
done
exit "$status"
