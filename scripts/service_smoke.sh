#!/usr/bin/env bash
# End-to-end smoke test for the factorization service: build factord
# and factorctl, start the daemon, submit a circuit, wait for it,
# download the factored result, and diff it against what a direct
# cmd/factor run produces with the same parameters. Also checks that
# an identical resubmission is served from the cache, and that a
# verified partitioned run on a generated circuit completes without
# falling back to the sequential driver.
set -euo pipefail
cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
pid=""
cleanup() {
    [ -n "$pid" ] && kill "$pid" 2>/dev/null || true
    [ -n "$pid" ] && wait "$pid" 2>/dev/null || true
    rm -rf "$tmp"
}
trap cleanup EXIT

go build -o "$tmp/factord" ./cmd/factord
go build -o "$tmp/factorctl" ./cmd/factorctl
go build -o "$tmp/factor" ./cmd/factor
go build -o "$tmp/gencircuit" ./cmd/gencircuit

addr=127.0.0.1:8571
export FACTORD_ADDR="http://$addr"
"$tmp/factord" -addr "$addr" -workers 2 &
pid=$!

ready=0
for _ in $(seq 1 50); do
    if "$tmp/factorctl" stats >/dev/null 2>&1; then ready=1; break; fi
    sleep 0.2
done
[ "$ready" = 1 ] || { echo "factord never became ready" >&2; exit 1; }

circuit=examples/circuits/paper.eqn

echo "== direct run"
"$tmp/factor" -in "$circuit" -format eqn -baseline=false -o "$tmp/direct.eqn"

echo "== service run"
"$tmp/factorctl" submit -algo seq -format eqn -verify -wait "$circuit" > "$tmp/status1.json"
grep -q '"state": "DONE"' "$tmp/status1.json"
grep -q '"verified": true' "$tmp/status1.json"
id=$(sed -n 's/.*"id": "\(job-[0-9]*\)".*/\1/p' "$tmp/status1.json" | head -1)
"$tmp/factorctl" result -format eqn -o "$tmp/service.eqn" "$id"

echo "== diff service vs direct"
diff -u "$tmp/direct.eqn" "$tmp/service.eqn"

echo "== cache hit on identical resubmission"
"$tmp/factorctl" submit -algo seq -format eqn -verify -wait "$circuit" > "$tmp/status2.json"
grep -q '"cache_hit": true' "$tmp/status2.json"
"$tmp/factorctl" stats > "$tmp/stats.json"
grep -q '"hits": [1-9]' "$tmp/stats.json"

echo "== verified partitioned run (seq, p=2)"
"$tmp/gencircuit" -bench seq -o "$tmp/seq.blif"
"$tmp/factorctl" submit -algo part -p 2 -verify -wait "$tmp/seq.blif" > "$tmp/status3.json"
grep -q '"state": "DONE"' "$tmp/status3.json"
grep -q '"verified": true' "$tmp/status3.json"
if grep -q '"degraded"' "$tmp/status3.json"; then
    echo "partitioned run degraded to the sequential fallback" >&2
    cat "$tmp/status3.json" >&2
    exit 1
fi

echo "== graceful drain"
kill -TERM "$pid"
wait "$pid"
pid=""

echo "service smoke test passed"
