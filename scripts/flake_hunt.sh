#!/bin/sh
# Flake hunt: runs the tests of the timing-sensitive packages (the job
# tier, the service and HTTP layers, the replica proxy, the worker fleet
# and the load drivers) 20 times each in one process per package,
# prints each package's count of failed top-level test runs, and exits
# 1 if any package failed. A test that fails on some runs only is a bug
# in the test or the code, not noise. Slow (tens of minutes), so CI runs
# it on a nightly schedule and on manual dispatch, not on every push.
# Run from the repository root.
set -u

pkgs="./internal/jobs ./internal/service ./internal/httpapi ./internal/proxy ./internal/fleet ./internal/loadgen"
log=$(mktemp)
trap 'rm -f "$log"' EXIT INT TERM

status=0
for pkg in $pkgs; do
    start=$(date +%s)
    go test -count=20 "$pkg" >"$log" 2>&1
    code=$?
    fails=$(grep -c '^--- FAIL' "$log")
    echo "flake hunt: $pkg: $fails failed test runs over -count=20 (go test exit $code, $(( $(date +%s) - start ))s)"
    if [ "$code" -ne 0 ]; then
        status=1
        grep -E '^(--- FAIL|panic:|FAIL)' "$log" | sort | uniq -c >&2
    fi
done
exit $status
