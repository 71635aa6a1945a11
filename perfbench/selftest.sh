#!/usr/bin/env bash
# The benchmark's own tests.  A short run of each workload, untraced and
# traced, must pass every output check; each planted error (a flipped
# expected label, a body altered on repeat) must push "failed" above 0.
#
#   bash perfbench/selftest.sh        (from the root of a source checkout)
set -uo pipefail

status=0
result() { bash perfbench/run.sh --seed 1 --seconds 1 --short "$@" 2>/dev/null | tail -n 1; }
expect() { # name pattern json
  if printf '%s' "$3" | grep -Eq "$2"; then echo "ok   $1"
  else echo "FAIL $1: $3"; status=1; fi
}

for w in corpus_mix dense_guest store_forensics; do
  for t in 0 1; do
    expect "$w trace $t passes" '^\{"correct":true,"attempted":[1-9][0-9]*,"failed":0,' \
      "$(result --workload "$w" --trace "$t")"
  done
  for i in flip-label alter-body; do
    expect "$w --inject $i is caught" '^\{"correct":false,"attempted":[0-9]+,"failed":[1-9]' \
      "$(result --workload "$w" --trace 0 --inject "$i")"
  done
done
exit $status
