#!/bin/sh
# One-stop local CI: build, full test suite, and the trace determinism
# gate (every golden scenario run twice; the two JSONL traces must be
# byte-identical).  See DESIGN.md "Observability" and EXPERIMENTS.md.
set -eu

cd "$(dirname "$0")/.."

echo "== dune build @check =="
dune build @check

echo "== dune runtest =="
dune runtest

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT INT TERM

status=0

echo "== build profile gate =="
# The default build is the release profile (dune-workspace), so library
# modules compile without -opaque and [@inline] crosses modules; the
# root dune file's env stanza keeps the dev profile's strictness and
# warnings-as-errors.  One library module's compile line stands for all.
flags=$(dune rules lib/vm/.vm.objs/native/vm__Machine.cmx 2>/dev/null \
          | tr -s ' \t()' '\n')
if ! printf '%s\n' "$flags" | grep -qx -- '-impl'; then
  echo "  BUILD PROFILE: no compile rule for vm__Machine.cmx" >&2
  status=1
elif printf '%s\n' "$flags" | grep -qx -- '-opaque'; then
  echo "  BUILD PROFILE: library modules compile with -opaque" \
       "(is dune-workspace's release profile gone?)" >&2
  status=1
elif ! printf '%s\n' "$flags" | grep -qx -- '-strict-sequence' \
     || ! printf '%s\n' "$flags" | grep -q -- '^@1\.\.3@'; then
  echo "  BUILD PROFILE: -strict-sequence or the @1..3 warnings-as-errors" \
       "are missing (is the root dune env stanza gone?)" >&2
  status=1
else
  echo "  ok: no -opaque, warnings are errors"
fi

echo "== exports gate =="
# Every value a lib/ interface exports must be used outside its own
# module's pair: named with its module path (Image.fetch, whatever
# prefixes it), or bare inside its own library or in a file that opens
# the module (open M, let open M, M.( ... )).  Comments and string
# literals are blanked first, so a word in prose is no use.  An export
# nothing uses is dead surface (ROADMAP item 4(e)).  The only allowlist
# is the Asm mnemonics that mirror Isa.Insn one to one.
code_only='
  # an OCaml file with comments and string literals blanked
  BEGIN { st = 0; depth = 0 }
  {
    line = $0; n = length(line); out = ""; i = 1
    while (i <= n) {
      c = substr(line, i, 1); c2 = substr(line, i, 2)
      if (st == 2) {
        if (c2 == "(*") { depth++; i += 2; continue }
        if (c2 == "*)") {
          depth--; i += 2
          if (depth == 0) { st = 0; out = out " " }
          continue
        }
        i++; continue
      }
      if (st == 1) {
        if (c == "\\") { i += 2; continue }
        if (c == "\"") { st = 0; out = out " " }
        i++; continue
      }
      if (st == 3) {
        if (substr(line, i, length(qend)) == qend) {
          st = 0; i += length(qend); out = out " "; continue
        }
        i++; continue
      }
      if (c2 == "(*" && substr(line, i, 3) != "(*)") {
        st = 2; depth = 1; i += 2; continue
      }
      if (c == "\"") { st = 1; i++; continue }
      if (c == "{" && match(substr(line, i), /^\{[a-z_]*\|/)) {
        qend = "|" substr(line, i + 1, RLENGTH - 2) "}"
        st = 3; i += RLENGTH; continue
      }
      if (c == "'\''" && !(i > 1 && substr(line, i - 1, 1) ~ /[A-Za-z0-9_'\'']/)) {
        if (substr(line, i + 1, 1) == "\\") {
          i += (substr(line, i + 2, 1) ~ /[0-9]/) ? 6 : 4; out = out " "
          continue
        }
        if (substr(line, i + 2, 1) == "'\''") { i += 3; out = out " "; continue }
      }
      out = out c; i++
    }
    print out
  }'
src=$(find lib bin test bench examples perfbench \
        \( -name '*.ml' -o -name '*.mli' \) -not -path '*/_build/*' | sort)
: > "$tmp/vals"
for f in $src; do
  awk "$code_only" "$f" > "$tmp/code"
  # words: bare names, M.name pairs (Q:) and opened modules (O:)
  {
    grep -o "[A-Za-z_][A-Za-z0-9_']*" "$tmp/code" || true
    grep -o "[A-Z][A-Za-z0-9_']*\.[a-z_][A-Za-z0-9_']*" "$tmp/code" \
      | sed 's/^/Q:/' || true
    grep -o "open!\{0,1\} *[A-Z][A-Za-z0-9_.']*" "$tmp/code" \
      | sed 's/.*[ .]//; s/^/O:/' || true
    grep -o "[A-Z][A-Za-z0-9_']*\.(" "$tmp/code" \
      | sed 's/\.($//; s/^/O:/' || true
  } | sort -u | sed "s|^|$f |"
  # exports: FILE MODULE NAME, MODULE the innermost (sub)module
  case "$f" in
  lib/*.mli)
    awk -v f="$f" '
      BEGIN {
        m = f; sub(/.*\//, "", m); sub(/\.mli$/, "", m)
        mod[1] = toupper(substr(m, 1, 1)) substr(m, 2); d = 1
      }
      /^ *module [A-Z][A-Za-z0-9_]* *: *sig/ {
        name = $2; sub(/:.*/, "", name); mod[++d] = name; next
      }
      /^ *end *$/ { if (d > 1) d--; next }
      /^ *val [a-z_]/ {
        v = $0; sub(/^ *val /, "", v); sub(/[^A-Za-z0-9_'\''].*/, "", v)
        print f, mod[d], v
      }' "$tmp/code" >> "$tmp/vals" ;;
  esac
done > "$tmp/words"
awk -v allow="calli idivl jg jge jle jmpi jns orl popl shrl" '
  BEGIN {
    n = split(allow, a, " ")
    for (i = 1; i <= n; i++) allowed["lib/asm/asm.mli " a[i]] = 1
  }
  FNR == NR { files[$2] = files[$2] " " $1; next }
  !(($1 " " $3) in allowed) {
    own = substr($1, 1, length($1) - 1)
    dir = $1; sub(/\/[^\/]*$/, "", dir)
    used = 0
    k = split(files["Q:" $2 "." $3], fs, " ")
    for (i = 1; i <= k; i++) if (fs[i] != $1 && fs[i] != own) used = 1
    k = split(files[$3], fs, " ")
    for (i = 1; i <= k && !used; i++) {
      g = fs[i]
      if (g == $1 || g == own) continue
      gd = g; sub(/\/[^\/]*$/, "", gd)
      if (gd == dir || index(files["O:" $2] " ", " " g " ")) used = 1
    }
    if (!used) print $1 ": " $2 "." $3
  }' "$tmp/words" "$tmp/vals" > "$tmp/unused"
if [ -s "$tmp/unused" ]; then
  echo "  EXPORTS USED NOWHERE ELSE:" >&2
  sed 's/^/    /' "$tmp/unused" >&2
  status=1
else
  echo "  ok: every lib/ export is used outside its module"
fi

echo "== section 9 ladder gate =="
# EXPERIMENTS.md section 9's ladder table quotes the "levels" rows of
# the committed BENCH_perf.json (one row per line): each table row's
# current milliseconds (ns_per_run / 1e6) and slowdown must match its
# row, and every level needs a table row.
if awk '
  FNR == NR {
    if ($0 !~ /"harrier-levels\//) next
    name = $0; sub(/.*"harrier-levels\//, "", name); sub(/".*/, "", name)
    ns = $0; sub(/.*"ns_per_run": */, "", ns); sub(/[,}].*/, "", ns)
    x = $0; sub(/.*"slowdown_vs_native": */, "", x); sub(/[,}].*/, "", x)
    want[name] = sprintf("%.2f ms | %.2fx", ns / 1e6, x)
    next
  }
  /^## / { s9 = ($0 ~ /^## Section 9/) }
  s9 && /^\| Configuration \|/ { tab = 1; next }
  tab && !/^\|/ { tab = 0 }
  tab && !/^\|---/ {
    split($0, c, "|")
    for (i = 2; i <= 5; i++) gsub(/^ +| +$/, "", c[i])
    got = c[4] " | " c[5]
    if (!(c[2] in want)) {
      print "  table row with no levels entry: " c[2]; bad = 1
    } else if (want[c[2]] != got) {
      print "  " c[2] ": table says " got ", BENCH_perf.json says " \
        want[c[2]]
      bad = 1
    }
    seen[c[2]] = 1
  }
  END {
    for (k in want) if (!(k in seen)) {
      print "  no table row for level: " k; bad = 1
    }
    exit bad
  }' BENCH_perf.json EXPERIMENTS.md > "$tmp/ladder"; then
  echo "  ok: EXPERIMENTS.md section 9 quotes BENCH_perf.json's levels"
else
  echo "  SECTION 9 DISAGREES WITH BENCH_perf.json:" >&2
  cat "$tmp/ladder" >&2
  status=1
fi

echo "== inventory gate =="
# DESIGN.md section 3's table has one row per library under lib/: every
# lib/*/dune (name ...) needs a row naming it with its own directory,
# and every row needs such a library, so the table cannot go stale.
for d in lib/*/dune; do
  sed -n 's/.*(name \([A-Za-z0-9_]*\).*/\1/p' "$d" | sed "s|\$| ${d%dune}|"
done > "$tmp/inventory.libs"
if awk '
  FNR == NR { lib[$1] = $2; next }
  /^## / { s3 = ($0 ~ /^## 3\./) }
  s3 && /^\| `/ {
    split($0, c, "|")
    gsub(/[ `]/, "", c[2]); gsub(/[ `]/, "", c[3])
    if (!(c[2] in lib)) {
      print "  row for a library no lib/*/dune defines: " c[2]; bad = 1
    } else if (lib[c[2]] != c[3]) {
      print "  " c[2] " is listed under " c[3] ", its dune file is in " \
        lib[c[2]]
      bad = 1
    }
    row[c[2]] = 1
  }
  END {
    for (n in lib) if (!(n in row)) {
      print "  no row for library " n " (" lib[n] ")"; bad = 1
    }
    exit bad
  }' "$tmp/inventory.libs" DESIGN.md > "$tmp/inventory"; then
  echo "  ok: DESIGN.md section 3 lists every lib/ library in its directory"
else
  echo "  DESIGN.md SECTION 3 DISAGREES WITH lib/*/dune:" >&2
  cat "$tmp/inventory" >&2
  status=1
fi

echo "== determinism gate =="
for s in "ElmExploit" "nlspath" "procex" "grabem" "vixie crontab" \
         "pma" "superforker" "ls" "column"; do
  f=$(echo "$s" | tr ' ' '_')
  dune exec bin/hth_run.exe -- run "$s" --trace "$tmp/$f.1.jsonl" >/dev/null
  dune exec bin/hth_run.exe -- run "$s" --trace "$tmp/$f.2.jsonl" >/dev/null
  if cmp -s "$tmp/$f.1.jsonl" "$tmp/$f.2.jsonl"; then
    echo "  ok: $s"
  else
    echo "  NONDETERMINISTIC TRACE: $s" >&2
    diff "$tmp/$f.1.jsonl" "$tmp/$f.2.jsonl" | head -10 >&2 || true
    status=1
  fi
done

echo "== engine-reuse gate =="
# One shared Hth.Engine.t runs every golden scenario twice in one
# process: traces must be byte-identical to cold per-session runs and
# warnings/verdicts identical (see DESIGN.md "The session engine").
if dune exec test/test_hth.exe -- test engine >/dev/null 2>&1; then
  echo "  ok: engine reuse (warm traces byte-identical to cold)"
else
  echo "  ENGINE-REUSE GATE FAILED" >&2
  dune exec test/test_hth.exe -- test engine || true
  status=1
fi

echo "== hth_trace smoke =="
# Offline analysis of a committed golden: explain and profile must
# render, self-diff must exit 0 and a cross-diff must exit 1.
dune exec bin/hth_trace.exe -- explain test/golden/pma.jsonl >/dev/null
dune exec bin/hth_trace.exe -- profile test/golden/pma.jsonl >/dev/null
dune exec bin/hth_trace.exe -- diff test/golden/pma.jsonl \
  test/golden/pma.jsonl >/dev/null
if dune exec bin/hth_trace.exe -- diff test/golden/pma.jsonl \
     test/golden/grabem.jsonl >/dev/null 2>&1; then
  echo "  hth_trace diff missed a divergence" >&2
  status=1
else
  echo "  ok: hth_trace explain/profile/diff"
fi

echo "== replay gate =="
# Offline re-judging (DESIGN.md §12): every committed golden's flow
# lines decode back into Harrier events, and replaying them through a
# fresh Secpert reports as many warnings as the recorded run did.  A
# run teed to a trace file and a warehouse replays byte-identically
# from either.
dune build bin/hth_run.exe bin/hth_trace.exe
replay_ok=1
for g in test/golden/*.jsonl; do
  if ! _build/default/bin/hth_trace.exe replay "$g" > "$tmp/replay.out"; then
    echo "  REPLAY FAILED: $g" >&2
    replay_ok=0
    continue
  fi
  want=$(grep -c '"ev":"warning"' "$g" || true)
  got=$(sed -n '1s/^[0-9]* events, \([0-9]*\) warnings$/\1/p' "$tmp/replay.out")
  if [ "$got" != "$want" ]; then
    echo "  REPLAY DIVERGED: $g ($got warnings replayed, $want recorded)" >&2
    replay_ok=0
  fi
done
_build/default/bin/hth_run.exe run pma --trace "$tmp/replay.pma.jsonl" \
  --store "$tmp/replay.store" > /dev/null
_build/default/bin/hth_trace.exe replay "$tmp/replay.pma.jsonl" \
  > "$tmp/replay.file"
_build/default/bin/hth_trace.exe replay --store "$tmp/replay.store" pma \
  > "$tmp/replay.stored"
if ! cmp -s "$tmp/replay.file" "$tmp/replay.stored"; then
  echo "  REPLAY DIVERGED: trace file vs warehouse run" >&2
  replay_ok=0
fi
if [ "$replay_ok" -eq 1 ]; then
  echo "  ok: every golden replays to its recorded warnings; file = store"
else
  status=1
fi

echo "== chaos gate =="
# Whole corpus under 5 seeded fault plans: no exception may escape the
# session supervisor, faulted traces must be byte-identical per seed,
# and degraded runs must be flagged without ever losing a warning.
if CHAOS_CORPUS=full dune exec test/test_hth.exe -- test chaos; then
  echo "  ok: chaos (full corpus)"
else
  echo "  CHAOS GATE FAILED" >&2
  status=1
fi

echo "== fleet gate =="
# The whole corpus on a 4-worker fleet must be byte-identical to the
# one-worker fleet: same summary table on stdout, byte-identical
# per-scenario traces (see DESIGN.md "Fleet architecture").
dune exec bin/hth_run.exe -- batch --jobs 1 --trace-dir "$tmp/fleet1" \
  > "$tmp/fleet1.out"
dune exec bin/hth_run.exe -- batch --jobs 4 --trace-dir "$tmp/fleet4" \
  > "$tmp/fleet4.out"
if cmp -s "$tmp/fleet1.out" "$tmp/fleet4.out" \
   && diff -r "$tmp/fleet1" "$tmp/fleet4" >/dev/null; then
  echo "  ok: batch --jobs 4 byte-identical to --jobs 1 (stdout + traces)"
else
  echo "  FLEET NONDETERMINISM: --jobs 4 diverged from --jobs 1" >&2
  diff "$tmp/fleet1.out" "$tmp/fleet4.out" | head -10 >&2 || true
  diff -r "$tmp/fleet1" "$tmp/fleet4" | head -10 >&2 || true
  status=1
fi

# The same parity under the textual CLIPS policy, whose transfer rules
# join on the data_transfer fact's id: stdout and every trace must match.
dune exec bin/hth_run.exe -- batch --clips-policy --jobs 1 \
  --trace-dir "$tmp/clips1" > "$tmp/clips1.out"
dune exec bin/hth_run.exe -- batch --clips-policy --jobs 4 \
  --trace-dir "$tmp/clips4" > "$tmp/clips4.out"
if cmp -s "$tmp/clips1.out" "$tmp/clips4.out" \
   && diff -r "$tmp/clips1" "$tmp/clips4" >/dev/null; then
  echo "  ok: batch --clips-policy --jobs 4 byte-identical to --jobs 1"
else
  echo "  FLEET NONDETERMINISM: --clips-policy --jobs 4 diverged" >&2
  diff "$tmp/clips1.out" "$tmp/clips4.out" | head -10 >&2 || true
  diff -r "$tmp/clips1" "$tmp/clips4" | head -10 >&2 || true
  status=1
fi

# Repeated stress sanity: scheduling is racy even though output must
# not be — three more 4-worker sweeps, all identical to the first.
for i in 1 2 3; do
  dune exec bin/hth_run.exe -- batch --jobs 4 > "$tmp/fleet4.rep"
  if ! cmp -s "$tmp/fleet4.out" "$tmp/fleet4.rep"; then
    echo "  FLEET STRESS: run $i diverged" >&2
    status=1
  fi
done
[ "$status" -eq 0 ] && echo "  ok: 3 repeated --jobs 4 sweeps identical"

echo "== fleet race gate =="
# Every fleet hand-off goes through one lock, and the ghost-respawn and
# watchdog cases depend on thread timing, so one green run proves
# little: the fleet and supervise suites must pass 10 runs each.
dune build test/test_hth.exe
race_ok=1
for i in 1 2 3 4 5 6 7 8 9 10; do
  for suite in fleet supervise; do
    if ! _build/default/test/test_hth.exe test "$suite" > "$tmp/race.out" 2>&1
    then
      echo "  FLEET RACE: suite $suite failed on run $i" >&2
      tail -20 "$tmp/race.out" >&2
      race_ok=0
      status=1
    fi
  done
done
[ "$race_ok" -eq 1 ] && echo "  ok: fleet and supervise suites, 10 runs each"

echo "== dormancy gate =="
# Every dormant scenario's live trace must match its committed golden
# byte for byte — the armed path must appear in triggered runs only —
# and the triggered explain renderings (which cite the trigger input's
# taint origin) must match their committed goldens (see DESIGN.md
# "Dormant scenarios & trigger protocol").
for s in "sleeper daemon idle" "sleeper daemon triggered" \
         "sleeper daemon disarmed" "logic bomb idle" \
         "logic bomb triggered" "logic bomb defused" \
         "worm pair idle" "worm pair triggered" "worm pair recalled" \
         "update client idle" "update client triggered" \
         "update client rejected"; do
  f=$(echo "$s" | tr ' ' '_')
  dune exec bin/hth_run.exe -- run "$s" --trace "$tmp/$f.jsonl" >/dev/null
  if cmp -s "test/golden/$f.jsonl" "$tmp/$f.jsonl"; then
    echo "  ok: $s"
  else
    echo "  DORMANT TRACE DIVERGED FROM GOLDEN: $s" >&2
    diff "test/golden/$f.jsonl" "$tmp/$f.jsonl" | head -10 >&2 || true
    status=1
  fi
  case "$s" in
  *triggered)
    dune exec bin/hth_trace.exe -- explain "test/golden/$f.jsonl" \
      > "$tmp/$f.explain"
    if cmp -s "test/golden/$f.explain.txt" "$tmp/$f.explain"; then
      echo "  ok: $s (explain)"
    else
      echo "  DORMANT EXPLAIN DIVERGED FROM GOLDEN: $s" >&2
      diff "test/golden/$f.explain.txt" "$tmp/$f.explain" | head -10 >&2 \
        || true
      status=1
    fi
    ;;
  esac
done

echo "== properties gate =="
# The properties suite at the long qcheck count: among them, random
# branchy guests (forward skips, EDI-counted inner loops, jumps through
# EBP) run by Vm.Machine.run in quanta of random fuel must agree with a
# twin machine run by iterated Vm.Machine.step.
if (cd test && QCHECK_LONG=1 ../_build/default/test/test_hth.exe \
      test properties > /dev/null 2>&1); then
  echo "  ok: properties suite with long qcheck counts"
else
  echo "  PROPERTIES: properties suite failed at long qcheck counts" >&2
  status=1
fi

echo "== hth_serve smoke =="
# A mixed request script (native, clips, faulted, malformed) served on
# two workers: responses must come back in input order and be
# deterministic across two service processes.
cat > "$tmp/serve.jobs" <<'EOF'
{"scenario":"pma","id":"a"}
{"scenario":"grabem","policy":"clips"}
{"scenario":"ls","seed":3}
this is not json
{"scenario":"column"}
EOF
dune exec bin/hth_serve.exe -- --jobs 2 < "$tmp/serve.jobs" \
  > "$tmp/serve.1"
dune exec bin/hth_serve.exe -- --jobs 2 < "$tmp/serve.jobs" \
  > "$tmp/serve.2"
if [ "$(wc -l < "$tmp/serve.1")" = 5 ] \
   && cmp -s "$tmp/serve.1" "$tmp/serve.2" \
   && [ "$(grep -c '"status":"ok"' "$tmp/serve.1")" = 4 ] \
   && [ "$(grep -c '"status":"bad_request"' "$tmp/serve.1")" = 1 ]; then
  echo "  ok: hth_serve (5 requests, ordered, deterministic)"
else
  echo "  HTH_SERVE SMOKE FAILED" >&2
  cat "$tmp/serve.1" >&2
  status=1
fi

echo "== serve-resilience gate =="
# One supervised fleet behind a Unix socket (DESIGN.md §17): a client
# that vanishes mid-stream must not disturb other connections; SIGTERM
# under load must drain every admitted response, exit 0 and unlink the
# socket file.  Three iterations because the scheduling is racy even
# though the contract is not.
serve_exe=_build/default/bin/hth_serve.exe
client_exe=_build/default/bin/hth_client.exe
dune build bin/hth_serve.exe bin/hth_client.exe
cat > "$tmp/resil.jobs" <<'EOF'
{"scenario":"pma","id":"r0"}
{"scenario":"grabem","policy":"clips","id":"r1"}
{"scenario":"ls","seed":3,"id":"r2"}
{"scenario":"column","id":"r3"}
{"scenario":"procex","id":"r4"}
EOF
# reference bytes for that script, from the same service code path
"$serve_exe" --jobs 2 < "$tmp/resil.jobs" > "$tmp/resil.ref"
: > "$tmp/load.jobs"
i=0
while [ "$i" -lt 20 ]; do
  echo "{\"scenario\":\"pma\",\"id\":\"load-$i\"}" >> "$tmp/load.jobs"
  i=$((i + 1))
done
for i in 1 2 3; do
  sock="$tmp/hth.$i.sock"
  "$serve_exe" --socket "$sock" --jobs 2 --deadline 30 \
    2> "$tmp/serve_resil.$i.log" &
  srv=$!
  n=0
  while [ ! -S "$sock" ] && [ "$n" -lt 100 ]; do
    sleep 0.05
    n=$((n + 1))
  done
  # a misbehaving client disconnects after one response...
  "$client_exe" --socket "$sock" --abort-after 1 < "$tmp/resil.jobs" \
    > /dev/null 2>&1 || true
  # ...while a well-behaved one must still get every byte it is owed
  "$client_exe" --socket "$sock" < "$tmp/resil.jobs" > "$tmp/resil.$i"
  if ! cmp -s "$tmp/resil.ref" "$tmp/resil.$i"; then
    echo "  SERVE RESILIENCE: post-disconnect responses diverged (iter $i)" >&2
    diff "$tmp/resil.ref" "$tmp/resil.$i" | head -10 >&2 || true
    status=1
  fi
  # health answers from the shared supervisor
  if ! echo '{"op":"health"}' | "$client_exe" --socket "$sock" \
       | grep -q '"status":"health"'; then
    echo "  SERVE RESILIENCE: health op failed (iter $i)" >&2
    status=1
  fi
  # SIGTERM under load: every admitted request still gets a response
  "$client_exe" --socket "$sock" < "$tmp/load.jobs" > "$tmp/load.$i" &
  cli=$!
  sleep 0.3
  kill -TERM "$srv"
  wait "$cli" || true
  if wait "$srv"; then :; else
    echo "  SERVE RESILIENCE: server exit code $? after SIGTERM (iter $i)" >&2
    status=1
  fi
  if [ "$(wc -l < "$tmp/load.$i")" != 20 ]; then
    echo "  SERVE RESILIENCE: $(wc -l < "$tmp/load.$i")/20 responses drained (iter $i)" >&2
    status=1
  fi
  if [ -e "$sock" ]; then
    echo "  SERVE RESILIENCE: socket file left behind (iter $i)" >&2
    status=1
  fi
done
[ "$status" -eq 0 ] \
  && echo "  ok: serve resilience (disconnects, SIGTERM drain, 3 iterations)"

echo "== store-determinism gate =="
# The trace warehouse contract (DESIGN.md §18): two independently
# built stores — a 1-worker and a 2-worker batch sweep — must be
# byte-identical, manifest and segment pack; per-run answers from the
# store must match the JSONL-file path byte for byte; and the fleet
# query surface must answer byte-identically from either build.
run_exe=_build/default/bin/hth_run.exe
trace_exe=_build/default/bin/hth_trace.exe
dune build bin/hth_run.exe bin/hth_trace.exe
"$run_exe" batch --jobs 1 --store "$tmp/store1" > /dev/null
"$run_exe" batch --jobs 2 --store "$tmp/store2" > /dev/null
if diff -r "$tmp/store1" "$tmp/store2" >/dev/null; then
  echo "  ok: batch --jobs 2 store byte-identical to --jobs 1"
else
  echo "  STORE NONDETERMINISM: --jobs 2 store diverged from --jobs 1" >&2
  diff -r "$tmp/store1" "$tmp/store2" | head -10 >&2 || true
  status=1
fi
# the same store whichever sink wrote it: with --trace-dir the writer's
# sink tees every chunk into the trace buffer, and a chunk that reached
# the writer without its index postings would change the pack; the
# CLIPS policy's stores are compared across both sinks and both job
# counts too
"$run_exe" batch --jobs 1 --store "$tmp/store.teed" \
  --trace-dir "$tmp/store.traces" > /dev/null
"$run_exe" batch --jobs 1 --clips-policy --store "$tmp/store.clips1" \
  > /dev/null
"$run_exe" batch --jobs 1 --clips-policy --store "$tmp/store.clips.teed" \
  --trace-dir "$tmp/store.clips.traces" > /dev/null
"$run_exe" batch --jobs 2 --clips-policy --store "$tmp/store.clips2" \
  > /dev/null
for pair in store1:store.teed store.clips1:store.clips.teed \
            store.clips1:store.clips2; do
  a=${pair%%:*}
  b=${pair#*:}
  if diff -r "$tmp/$a" "$tmp/$b" >/dev/null; then
    echo "  ok: $b byte-identical to $a"
  else
    echo "  STORE DIVERGED: $b differs from $a" >&2
    diff -r "$tmp/$a" "$tmp/$b" | head -10 >&2 || true
    status=1
  fi
done

# store-vs-file answers: one run teed to both destinations, every
# per-run analysis compared byte for byte
"$run_exe" run pma --trace "$tmp/pma.tee.jsonl" --store "$tmp/store.tee" \
  > /dev/null
store_file_ok=1
for c in explain profile; do
  "$trace_exe" "$c" "$tmp/pma.tee.jsonl" > "$tmp/pma.$c.file"
  "$trace_exe" "$c" --store "$tmp/store.tee" pma > "$tmp/pma.$c.store"
  if ! cmp -s "$tmp/pma.$c.file" "$tmp/pma.$c.store"; then
    echo "  STORE ANSWER DIVERGED: $c (file vs warehouse)" >&2
    store_file_ok=0
    status=1
  fi
done
"$trace_exe" query "$tmp/pma.tee.jsonl" --ev flow > "$tmp/pma.query.file"
"$trace_exe" query --store "$tmp/store.tee" pma --ev flow \
  > "$tmp/pma.query.store"
if ! cmp -s "$tmp/pma.query.file" "$tmp/pma.query.store"; then
  echo "  STORE ANSWER DIVERGED: query (file vs warehouse)" >&2
  store_file_ok=0
  status=1
fi
# reconstructed trace must byte-equal the teed file: self-diff exits 0
if ! "$trace_exe" diff --store "$tmp/store.tee" pma pma > /dev/null; then
  echo "  STORE ANSWER DIVERGED: self-diff nonzero" >&2
  store_file_ok=0
  status=1
fi
[ "$store_file_ok" -eq 1 ] \
  && echo "  ok: explain/query/profile/diff identical from file and store"

# the fleet surface, from both builds
fleet_ok=1
for q in ls "query --severity HIGH" "query --resource SYS_execve" \
         "profile --top 5" "diff pma"; do
  # shellcheck disable=SC2086
  "$trace_exe" fleet $q --store "$tmp/store1" > "$tmp/fleetq.1"
  # shellcheck disable=SC2086
  "$trace_exe" fleet $q --store "$tmp/store2" > "$tmp/fleetq.2"
  if ! cmp -s "$tmp/fleetq.1" "$tmp/fleetq.2"; then
    echo "  FLEET QUERY DIVERGED ACROSS BUILDS: fleet $q" >&2
    status=1
    fleet_ok=0
  fi
done
[ "$fleet_ok" -eq 1 ] \
  && echo "  ok: fleet ls/query/profile/diff byte-identical across builds"

# SIGTERM under load with a store attached: a run's manifest line is
# written after its segment bytes and before its response, so the
# drained store must hold exactly one complete, readable run per
# drained response — never a torn segment
sock="$tmp/hth.store.sock"
"$serve_exe" --socket "$sock" --jobs 2 --deadline 30 \
  --store "$tmp/store.srv" 2> "$tmp/serve_store.log" &
srv=$!
n=0
while [ ! -S "$sock" ] && [ "$n" -lt 100 ]; do
  sleep 0.05
  n=$((n + 1))
done
"$client_exe" --socket "$sock" < "$tmp/load.jobs" > "$tmp/load.store" &
cli=$!
sleep 0.3
kill -TERM "$srv"
wait "$cli" || true
if wait "$srv"; then :; else
  echo "  STORE DRAIN: server exit code $? after SIGTERM" >&2
  status=1
fi
drained=$(wc -l < "$tmp/load.store")
stored=$(wc -l < "$tmp/store.srv/MANIFEST.jsonl")
if [ "$stored" != "$drained" ]; then
  echo "  STORE DRAIN: $stored stored runs vs $drained drained responses" >&2
  status=1
fi
# every manifest entry's segment index must load (profile touches all),
# and a full segment reconstruction must round-trip
if "$trace_exe" fleet profile --store "$tmp/store.srv" > /dev/null \
   && { [ "$stored" -eq 0 ] \
        || "$trace_exe" profile --store "$tmp/store.srv" pma@0 > /dev/null; }
then
  echo "  ok: SIGTERM-drained store complete-or-absent ($stored runs)"
else
  echo "  STORE DRAIN: drained store failed to read back" >&2
  status=1
fi
# reopening the drained store appends after its pack: every earlier
# run and the new one read back, and the store is still exactly the
# manifest and the pack
"$run_exe" run pma --store "$tmp/store.srv" > /dev/null
first=$(head -n 1 "$tmp/store.srv/MANIFEST.jsonl" \
  | sed 's/^{"run":"\([^"]*\)".*/\1/')
if [ "$(wc -l < "$tmp/store.srv/MANIFEST.jsonl")" -eq $((stored + 1)) ] \
   && "$trace_exe" fleet profile --store "$tmp/store.srv" > /dev/null \
   && "$trace_exe" profile --store "$tmp/store.srv" "$first" > /dev/null \
   && "$trace_exe" profile --store "$tmp/store.srv" pma > /dev/null \
   && [ "$(ls -A "$tmp/store.srv" | tr '\n' ' ')" = "MANIFEST.jsonl segments.pack " ]
then
  echo "  ok: append to the drained store, all $((stored + 1)) runs read back"
else
  echo "  STORE REOPEN: append to the drained store failed to read back" >&2
  ls -A "$tmp/store.srv" >&2
  status=1
fi

# the manifest/locator/pack fuzz property at its long count (the
# default count runs in dune runtest and @quick)
if (cd test && QCHECK_LONG=1 ../_build/default/test/test_hth.exe test store \
      > /dev/null 2>&1); then
  echo "  ok: store suite with long qcheck counts"
else
  echo "  STORE FUZZ: store suite failed at long qcheck counts" >&2
  status=1
fi

echo "== memory gate =="
# Demand-paged guest memory against its flat reference model (page-edge,
# end-of-memory and out-of-range accesses, fork isolation, the shared
# zero page) at the long qcheck count.
if (cd test && QCHECK_LONG=1 ../_build/default/test/test_hth.exe test vm \
      > /dev/null 2>&1); then
  echo "  ok: vm suite with long qcheck counts"
else
  echo "  MEMORY MODEL: vm suite failed at long qcheck counts" >&2
  status=1
fi

echo "== parser fuzz gate =="
# Trace lines, CLIPS text, fault plans, budgets and serve requests under
# random bytes and token soup, at the long qcheck count.
if (cd test && QCHECK_LONG=1 ../_build/default/test/test_hth.exe test fuzz \
      > /dev/null 2>&1); then
  echo "  ok: fuzz suite with long qcheck counts"
else
  echo "  PARSER FUZZ: fuzz suite failed at long qcheck counts" >&2
  status=1
fi

echo "== bench selftest =="
# The end-to-end benchmark's own checks (perfbench/selftest.sh): a short
# untraced and traced run of each workload must pass every output
# check, and each planted error must be caught.
if bash perfbench/selftest.sh; then
  echo "  ok: bench selftest"
else
  echo "  BENCH SELFTEST FAILED" >&2
  status=1
fi

[ "$status" -eq 0 ] && echo "all checks passed"
exit "$status"
