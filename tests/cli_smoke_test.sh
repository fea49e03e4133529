#!/usr/bin/env bash
# Exit-code and budget-degradation contract of the pebblejoin CLI.
#
# Two invariants:
#   1. Every bad input exits nonzero with a one-line stderr diagnostic —
#      never an abort (exit >= 128 means a signal, i.e. a JP_CHECK crash).
#   2. A zero deadline on a 60-edge worst-case instance still exits 0 and
#      reports the degraded-but-valid scheme's provenance.
set -u

BIN="${PEBBLEJOIN_BIN:?PEBBLEJOIN_BIN must point at the pebblejoin binary}"
FAILURES=0

note_failure() {
  echo "FAIL: $1" >&2
  FAILURES=$((FAILURES + 1))
}

# expect_fail <description> -- <args...> [<<< stdin]
expect_fail() {
  local desc="$1"; shift; shift  # drop '--'
  local stdin_data="${CLI_STDIN:-}"
  local stderr_file
  stderr_file=$(mktemp)
  printf '%s' "$stdin_data" | "$BIN" "$@" >/dev/null 2>"$stderr_file"
  local status=$?
  if [ "$status" -eq 0 ]; then
    note_failure "$desc: expected nonzero exit, got 0"
  elif [ "$status" -ge 128 ]; then
    note_failure "$desc: crashed with signal (exit $status)"
  elif [ ! -s "$stderr_file" ]; then
    note_failure "$desc: no stderr diagnostic"
  fi
  rm -f "$stderr_file"
}

# --- Bad-input paths: nonzero exit, stderr message, no crash --------------
expect_fail "no command" --
expect_fail "unknown command" -- frobnicate
expect_fail "gen missing family" -- gen
expect_fail "gen unknown family" -- gen hypercube 3
expect_fail "gen worstcase non-numeric" -- gen worstcase xyz
expect_fail "gen worstcase too small" -- gen worstcase 2
expect_fail "gen worstcase trailing junk" -- gen worstcase 3x
expect_fail "gen complete missing arg" -- gen complete 3
expect_fail "gen random m too large" -- gen random 2 2 5 1
expect_fail "gen random disconnected m" -- gen random 3 3 2 1 --connected
expect_fail "solve unknown flag" -- solve --frobnicate
expect_fail "solve unknown solver" -- solve --solver quantum
expect_fail "solve bad deadline" -- solve --deadline-ms -5
expect_fail "solve non-numeric deadline" -- solve --deadline-ms soon
expect_fail "analyze bad predicate" -- analyze --predicate vibes
expect_fail "schedule bad k" -- schedule --k 1
expect_fail "partition bad count" -- partition --fragments 0
expect_fail "realize unknown kind" -- realize polygons
expect_fail "bounds stray flag" -- bounds --verbose

CLI_STDIN="this is not a graph" expect_fail "solve garbage stdin" -- solve
CLI_STDIN="bipartite 2 2 9
0 0
" expect_fail "solve truncated edge list" -- solve
CLI_STDIN="bipartite 2 2 2
0 0
0 0
" expect_fail "solve duplicate edges" -- solve

# --- Good paths round-trip ------------------------------------------------
GRAPH=$("$BIN" gen worstcase 30)
if [ $? -ne 0 ] || [ -z "$GRAPH" ]; then
  note_failure "gen worstcase 30 should succeed"
fi

if ! printf '%s' "$GRAPH" | "$BIN" solve >/dev/null; then
  note_failure "plain solve should exit 0"
fi

if ! printf '%s' "$GRAPH" | "$BIN" bounds >/dev/null; then
  note_failure "bounds should exit 0"
fi

# --- Acceptance: zero deadline on a 60-edge worst case --------------------
OUT=$(printf '%s' "$GRAPH" | "$BIN" solve --deadline-ms 0)
if [ $? -ne 0 ]; then
  note_failure "solve --deadline-ms 0 must still exit 0"
fi
case "$OUT" in
  *deadline-expired*) : ;;
  *) note_failure "degraded solve must report deadline-expired provenance" ;;
esac
# The emitted order must still cover all 60 edges (one id per line after
# the '#' headers).
EDGE_LINES=$(printf '%s\n' "$OUT" | grep -cv '^#')
if [ "$EDGE_LINES" -ne 60 ]; then
  note_failure "degraded solve emitted $EDGE_LINES of 60 edges"
fi

# Budget flags without --solver select the fallback ladder on analyze too.
if ! printf '%s' "$GRAPH" | "$BIN" analyze --deadline-ms 0 >/dev/null; then
  note_failure "analyze --deadline-ms 0 must exit 0"
fi

# Memory-capped solve still succeeds with a valid scheme.
if ! printf '%s' "$GRAPH" | "$BIN" solve --memory-mb 1 >/dev/null; then
  note_failure "solve --memory-mb 1 must exit 0"
fi

# --- Parallel solving: --threads determinism and bad-input contract -------
expect_fail "threads non-numeric" -- analyze --threads many
expect_fail "threads negative" -- analyze --threads -2
expect_fail "threads out of range" -- analyze --threads 9999

MULTI=$("$BIN" gen random 12 12 40 7)
SEQ_OUT=$(printf '%s' "$MULTI" | "$BIN" solve --threads 1)
if [ $? -ne 0 ]; then
  note_failure "solve --threads 1 must exit 0"
fi
PAR_OUT=$(printf '%s' "$MULTI" | "$BIN" solve --threads 4)
if [ $? -ne 0 ]; then
  note_failure "solve --threads 4 must exit 0"
fi
if [ "$SEQ_OUT" != "$PAR_OUT" ]; then
  note_failure "solve output must be identical for --threads 1 and 4"
fi
# 0 = one thread per hardware core; still a valid configuration.
if ! printf '%s' "$MULTI" | "$BIN" analyze --threads 0 >/dev/null; then
  note_failure "analyze --threads 0 must exit 0"
fi

# --- Telemetry surfaces: --json, --stats, --trace-out ---------------------
expect_fail "trace-out missing path" -- analyze --trace-out
CLI_STDIN="this is not a graph" expect_fail "analyze --json garbage stdin" \
  -- analyze --json
CLI_STDIN="$GRAPH" expect_fail "trace-out unwritable path" \
  -- analyze --trace-out /nonexistent-dir/t.json

JSON_OUT=$(printf '%s' "$GRAPH" | "$BIN" analyze --solver fallback --json)
if [ $? -ne 0 ]; then
  note_failure "analyze --json must exit 0"
fi
if ! printf '%s' "$JSON_OUT" | python3 -m json.tool >/dev/null; then
  note_failure "analyze --json must emit valid JSON"
fi
case "$JSON_OUT" in
  *bnb_nodes_expanded*budget_polls*) : ;;
  *) note_failure "analyze --json must carry the solver stats" ;;
esac
case "$JSON_OUT" in
  *'"attempts"'*) : ;;
  *) note_failure "analyze --json must carry per-rung attempts" ;;
esac

if ! printf '%s' "$GRAPH" | "$BIN" solve --json >/dev/null; then
  note_failure "solve --json must exit 0"
fi
printf '%s' "$GRAPH" | "$BIN" solve --json | python3 -m json.tool \
  >/dev/null || note_failure "solve --json must emit valid JSON"

TRACE_FILE=$(mktemp)
if ! printf '%s' "$GRAPH" | "$BIN" analyze --solver fallback \
    --trace-out "$TRACE_FILE" >/dev/null; then
  note_failure "analyze --trace-out must exit 0"
fi
if ! python3 -m json.tool <"$TRACE_FILE" >/dev/null; then
  note_failure "--trace-out must write valid JSON"
fi
if ! grep -q traceEvents "$TRACE_FILE"; then
  note_failure "--trace-out must write Chrome trace-event JSON"
fi
rm -f "$TRACE_FILE"

# --stats rides in comments, so the 60-edge order contract must survive it.
STATS_OUT=$(printf '%s' "$GRAPH" | "$BIN" solve --stats)
if [ $? -ne 0 ]; then
  note_failure "solve --stats must exit 0"
fi
case "$STATS_OUT" in
  *rungs_attempted*) : ;;
  *) note_failure "solve --stats must print the solver stats block" ;;
esac
STATS_EDGE_LINES=$(printf '%s\n' "$STATS_OUT" | grep -cv '^#')
if [ "$STATS_EDGE_LINES" -ne 60 ]; then
  note_failure "solve --stats emitted $STATS_EDGE_LINES of 60 edge lines"
fi

# --- Exit-code discipline: one distinct code per failure class ------------
# 64 = usage (no or unknown command), 66 = missing input file, 2 = bad
# flags. Anything >= 128 is a signal, i.e. a crash. The timeout turns a
# command that wrongly starts working (say, a serve that binds) into a
# failure instead of a hang.
expect_code() {
  local desc="$1" want="$2"; shift; shift
  timeout 60 "$BIN" "$@" >/dev/null 2>&1 </dev/null
  local got=$?
  if [ "$got" -ne "$want" ]; then
    note_failure "$desc: expected exit $want, got $got"
  fi
}
expect_code "no command exits 64" 64
expect_code "unknown command exits 64" 64 frobnicate
expect_code "batch missing input file exits 66" 66 batch --jsonl /nonexistent/in.jsonl
expect_code "bad flag exits 2" 2 analyze --frobnicate
expect_code "bad solver exits 2" 2 analyze --solver quantum

# Bad serve and calibrate values: every serve case fails in flag parsing,
# before any socket is bound.
expect_code "serve port out of range exits 2" 2 serve --port 70000
expect_code "serve zero SLO error rate exits 2" 2 serve --slo-error-rate 0
expect_code "serve zero max-conns exits 2" 2 serve --max-conns 0
expect_code "serve negative trace-sample exits 2" 2 serve --trace-sample -1
expect_code "serve negative threads exits 2" 2 serve --threads -1
expect_code "calibrate zero instances exits 2" 2 calibrate --instances 0
expect_code "calibrate zero rung deadline exits 2" 2 \
  calibrate --rung-deadline-ms 0
# loadgen rejects bad flags before it opens the corpus or a socket, and an
# unreadable corpus before it connects. Client counts out of range are
# checked only here, as flag rejections: no client is ever started.
expect_code "loadgen port out of range exits 2" 2 loadgen --port 70000
expect_code "loadgen without --port exits 2" 2 \
  loadgen --jsonl /nonexistent/in.jsonl
expect_code "loadgen without --jsonl exits 2" 2 loadgen --port 9
expect_code "loadgen zero clients exits 2" 2 \
  loadgen --port 9 --jsonl /nonexistent/in.jsonl --clients 0
expect_code "loadgen too many clients exits 2" 2 \
  loadgen --port 9 --jsonl /nonexistent/in.jsonl --clients 1025
expect_code "loadgen unreadable corpus exits 66" 66 \
  loadgen --port 9 --jsonl /nonexistent/in.jsonl
# Each command accepts only the flags Usage() lists for it.
expect_code "batch takes no --json" 2 batch --jsonl - --json
expect_code "serve takes no --profile-out" 2 serve --profile-out x
expect_code "analyze takes no --explain" 2 analyze --explain
expect_code "calibrate takes no --solver" 2 calibrate --solver greedy

# --- Batch JSONL: corpus round-trip, per-line errors, byte identity -------
TOOLS_DIR="$(cd "$(dirname "$0")/../tools" && pwd)"
WORK_DIR=$(mktemp -d)
trap 'rm -rf "$WORK_DIR"' EXIT

expect_fail "batch without --jsonl" -- batch
expect_fail "batch bad admission" -- batch --jsonl - --admission maybe
expect_fail "batch bad threads" -- batch --jsonl - --threads -1

PEBBLEJOIN_BIN="$BIN" "$TOOLS_DIR/make_batch_corpus.sh" 20 \
  > "$WORK_DIR/corpus.jsonl" \
  || note_failure "make_batch_corpus.sh must succeed"
if [ "$(wc -l < "$WORK_DIR/corpus.jsonl")" -ne 20 ]; then
  note_failure "corpus generator must emit 20 lines"
fi

if ! "$BIN" batch --jsonl "$WORK_DIR/corpus.jsonl" \
    > "$WORK_DIR/batch_out.jsonl" 2>"$WORK_DIR/batch_err.txt"; then
  note_failure "batch over the corpus must exit 0"
fi
if [ "$(wc -l < "$WORK_DIR/batch_out.jsonl")" -ne 20 ]; then
  note_failure "batch must emit one output line per input line"
fi
grep -q "20 solved" "$WORK_DIR/batch_err.txt" \
  || note_failure "batch summary must report 20 solved"

# Every batch line must be byte-identical (after timing normalization) to
# the single-shot `analyze --json` of the same graph and flags.
python3 - "$BIN" "$TOOLS_DIR" "$WORK_DIR" <<'EOF' \
  || note_failure "batch output must match single-shot analyze --json"
import json, subprocess, sys
sys.path.insert(0, sys.argv[2])
from json_normalize import normalize
bin_path, work = sys.argv[1], sys.argv[3]
with open(work + "/corpus.jsonl") as f:
    lines = [json.loads(l) for l in f]
with open(work + "/batch_out.jsonl") as f:
    outputs = [l.rstrip("\n") for l in f]
assert len(lines) == len(outputs)
for spec, got in zip(lines, outputs):
    args = [bin_path, "analyze", "--json"]
    if "predicate" in spec: args += ["--predicate", spec["predicate"]]
    if "solver" in spec: args += ["--solver", spec["solver"]]
    if "deadline_ms" in spec: args += ["--deadline-ms", str(spec["deadline_ms"])]
    if "node_budget" in spec: args += ["--node-budget", str(spec["node_budget"])]
    if "memory_mb" in spec: args += ["--memory-mb", str(spec["memory_mb"])]
    single = subprocess.run(args, input=spec["graph"], text=True,
                            capture_output=True, check=True).stdout.strip()
    if normalize(single) != normalize(got):
        sys.exit("mismatch for spec: %r" % (spec,))
EOF

# A malformed line yields a per-line error record; the run continues and
# later lines still solve.
GOOD_LINE=$(head -1 "$WORK_DIR/corpus.jsonl")
printf '%s\nnot json at all\n\n%s\n' "$GOOD_LINE" "$GOOD_LINE" \
  > "$WORK_DIR/mixed.jsonl"
if ! "$BIN" batch --jsonl "$WORK_DIR/mixed.jsonl" \
    > "$WORK_DIR/mixed_out.jsonl" 2>"$WORK_DIR/mixed_err.txt"; then
  note_failure "batch with a malformed line must still exit 0"
fi
if [ "$(wc -l < "$WORK_DIR/mixed_out.jsonl")" -ne 3 ]; then
  note_failure "batch must emit 3 lines for 3 non-blank inputs"
fi
sed -n '2p' "$WORK_DIR/mixed_out.jsonl" | grep -q '"line":2,"error"' \
  || note_failure "malformed line must yield a {line,error} record"
sed -n '3p' "$WORK_DIR/mixed_out.jsonl" | grep -q '"edge_order"' \
  || note_failure "batch must keep solving after a malformed line"
grep -q "2 solved, 1 errors" "$WORK_DIR/mixed_err.txt" \
  || note_failure "batch summary must tally the malformed line"

# stdin/stdout plumbing and the fan-out path produce the same result
# (modulo wall clocks).
python3 "$TOOLS_DIR/json_normalize.py" < "$WORK_DIR/batch_out.jsonl" \
  > "$WORK_DIR/seq_norm.jsonl"
"$BIN" batch --jsonl - < "$WORK_DIR/corpus.jsonl" 2>/dev/null \
  | python3 "$TOOLS_DIR/json_normalize.py" > "$WORK_DIR/stdin_out.jsonl"
cmp -s "$WORK_DIR/seq_norm.jsonl" "$WORK_DIR/stdin_out.jsonl" \
  || note_failure "batch --jsonl - must match the file path"
"$BIN" batch --jsonl "$WORK_DIR/corpus.jsonl" --threads 4 2>/dev/null \
  | python3 "$TOOLS_DIR/json_normalize.py" > "$WORK_DIR/par_out.jsonl"
cmp -s "$WORK_DIR/seq_norm.jsonl" "$WORK_DIR/par_out.jsonl" \
  || note_failure "batch --threads 4 must match sequential output"

# expect_file_error <desc> <regex> <command...>: exit 1 with exactly one
# "error:" line on stderr, and that line matches <regex>.
expect_file_error() {
  local desc="$1" want="$2"; shift; shift
  timeout 60 "$BIN" "$@" >/dev/null 2>"$WORK_DIR/file_err.txt"
  local got=$?
  if [ "$got" -ne 1 ]; then
    note_failure "$desc: expected exit 1, got $got"
  fi
  if [ "$(grep -c '^error: ' "$WORK_DIR/file_err.txt")" -ne 1 ] \
      || ! grep -Eq "$want" "$WORK_DIR/file_err.txt"; then
    note_failure "$desc: expected one error line matching: $want"
  fi
}

# A failed read is an error, not an empty input: a directory opens, but
# read(2) fails on it, whether it is named or redirected to stdin.
expect_read_error() {
  local desc="$1" path="$2"; shift; shift
  expect_file_error "$desc" "^error: reading '$path' failed: " "$@"
}
expect_read_error "batch --jsonl DIR" "$WORK_DIR" batch --jsonl "$WORK_DIR" \
  </dev/null
expect_read_error "batch --jsonl - < DIR" "-" batch --jsonl - < "$WORK_DIR"
expect_read_error "analyze < DIR" "-" analyze < "$WORK_DIR"
expect_read_error "analyze --cost-model DIR" "$WORK_DIR" \
  analyze --cost-model "$WORK_DIR" </dev/null
expect_read_error "batch --cost-model DIR" "$WORK_DIR" \
  batch --jsonl - --cost-model "$WORK_DIR" </dev/null
expect_read_error "loadgen --jsonl DIR" "$WORK_DIR" \
  loadgen --port 9 --jsonl "$WORK_DIR"

# Every output file that cannot be created (a directory) or written
# (/dev/full, where the host has one) is an error naming the file.
expect_write_error() {
  local desc="$1" path="$2"; shift; shift
  expect_file_error "$desc" \
    "^error: (cannot open '$path': |writing '$path' failed)" "$@"
}
printf '%s' "$GRAPH" > "$WORK_DIR/graph.txt"
head -1 "$WORK_DIR/corpus.jsonl" > "$WORK_DIR/one.jsonl"
WRITE_TARGETS="$WORK_DIR"
[ -w /dev/full ] && WRITE_TARGETS="$WRITE_TARGETS /dev/full"
for target in $WRITE_TARGETS; do
  for flag in --trace-out --metrics-out --profile-out --journal; do
    expect_write_error "analyze $flag $target" "$target" \
      analyze "$flag" "$target" < "$WORK_DIR/graph.txt"
  done
  for flag in --out --journal; do
    expect_write_error "batch $flag $target" "$target" \
      batch --jsonl "$WORK_DIR/one.jsonl" "$flag" "$target"
  done
  expect_write_error "calibrate --out $target" "$target" \
    calibrate --instances 1 --rung-deadline-ms 5 --out "$target"
done

# loadgen's outputs, against a listening serve whose --journal fails too
# where /dev/full exists: serve then exits 1 after its drain.
SERVE_JOURNAL="$WORK_DIR/serve_journal.jsonl"
[ -w /dev/full ] && SERVE_JOURNAL=/dev/full
"$BIN" serve --port 0 --threads 1 --journal "$SERVE_JOURNAL" \
  2>"$WORK_DIR/serve_err.txt" &
SERVE_PID=$!
SERVE_PORT=""
for _ in $(seq 100); do
  SERVE_PORT=$(sed -n 's/^serving on 127\.0\.0\.1:\([0-9]*\)$/\1/p' \
    "$WORK_DIR/serve_err.txt")
  [ -n "$SERVE_PORT" ] && break
  sleep 0.1
done
if [ -z "$SERVE_PORT" ]; then
  note_failure "serve --port 0 must announce its port"
else
  for target in $WRITE_TARGETS; do
    for flag in --out --latency-out; do
      expect_write_error "loadgen $flag $target" "$target" \
        loadgen --port "$SERVE_PORT" --jsonl "$WORK_DIR/one.jsonl" \
        --clients 1 "$flag" "$target"
    done
  done
fi
kill -TERM "$SERVE_PID"
wait "$SERVE_PID"
SERVE_RC=$?
if [ "$SERVE_JOURNAL" = /dev/full ]; then
  [ "$SERVE_RC" -eq 1 ] \
    || note_failure "serve --journal /dev/full: expected exit 1, got $SERVE_RC"
  [ "$(grep -c "^error: writing '/dev/full' failed" \
      "$WORK_DIR/serve_err.txt")" -eq 1 ] \
    || note_failure "serve --journal /dev/full must print one write error"
elif [ "$SERVE_RC" -ne 0 ]; then
  note_failure "serve drain: expected exit 0, got $SERVE_RC"
fi

# Stdout is an output like any other: a full device, or a reader that
# closed the pipe, fails the write, and the command exits 1 with one
# "error: writing '-' failed: <reason>" line, never by SIGPIPE. Each output
# here is larger than a pipe buffer, so a reader that takes one byte and
# exits always closes the pipe under a blocked write. SIGPIPE is reset to
# its default, in case this script inherited it ignored.
"$BIN" gen complete 150 150 > "$WORK_DIR/k150.txt"
python3 -c 'import json, sys; print(json.dumps({"graph": sys.stdin.read()}))' \
  < "$WORK_DIR/k150.txt" > "$WORK_DIR/k150.jsonl"
# expect_stdout_error <desc> <stdin file> <command...>
expect_stdout_error() {
  local desc="$1" input="$2"; shift; shift
  local got
  if [ -w /dev/full ]; then
    env --default-signal=PIPE timeout 60 "$BIN" "$@" < "$input" \
      > /dev/full 2>"$WORK_DIR/stdout_err.txt"
    got=$?
    [ "$got" -eq 1 ] \
      || note_failure "$desc > /dev/full: expected exit 1, got $got"
    [ "$(grep -c "^error: writing '-' failed: " "$WORK_DIR/stdout_err.txt")" \
        -eq 1 ] \
      && grep -q "^error: writing '-' failed: No space left on device" \
        "$WORK_DIR/stdout_err.txt" \
      || note_failure "$desc > /dev/full: expected one ENOSPC write error"
  fi
  env --default-signal=PIPE timeout 60 "$BIN" "$@" < "$input" \
    2>"$WORK_DIR/stdout_err.txt" | head -c 1 > /dev/null
  got=${PIPESTATUS[0]}
  # An output that fits the pipe buffer can land before the reader closes
  # the pipe; PIPE_MAY_SUCCEED=1 accepts the clean exit 0 that follows.
  if [ "$got" -eq 0 ] && [ "${PIPE_MAY_SUCCEED:-0}" = 1 ]; then
    return
  fi
  [ "$got" -eq 1 ] \
    || note_failure "$desc | closed pipe: expected exit 1, got $got"
  grep -q "^error: writing '-' failed: Broken pipe" \
      "$WORK_DIR/stdout_err.txt" \
    || note_failure "$desc | closed pipe: expected a broken-pipe error"
}
expect_stdout_error "analyze --json" "$WORK_DIR/k150.txt" analyze --json
expect_stdout_error "gen random 300 300 60000 1" /dev/null \
  gen random 300 300 60000 1
expect_stdout_error "batch --jsonl" /dev/null \
  batch --jsonl "$WORK_DIR/k150.jsonl"
# Several lines on a pool: the write error's reason is the failed write's,
# not whatever the input loop's later calls left in errno.
cat "$WORK_DIR/k150.jsonl" "$WORK_DIR/corpus.jsonl" "$WORK_DIR/k150.jsonl" \
  > "$WORK_DIR/k150_mix.jsonl"
expect_stdout_error "batch --jsonl --threads 4" /dev/null \
  batch --jsonl "$WORK_DIR/k150_mix.jsonl" --threads 4
# Every other command that writes stdout, on equijoins of shuffled ids
# with 1-3 tuples per key on each side. Each output but bounds' one short
# table is larger than a pipe buffer. Schedule gets 6,400 keys, not 25,600:
# its edge pick scans every live edge, so it takes seconds on m = 93k.
equijoin() {
  python3 - "$1" <<'EOF'
import random, sys
keys = int(sys.argv[1])
rng = random.Random(keys)
left, right = [], []
for key in range(keys):
    left += [key] * rng.randint(1, 3)
    if rng.random() < 0.9:
        right += [key] * rng.randint(1, 3)
rng.shuffle(left)
rng.shuffle(right)
rows = {}
for j, b in enumerate(right):
    rows.setdefault(b, []).append(j)
edges = [(i, j) for i, a in enumerate(left) for j in rows.get(a, [])]
rng.shuffle(edges)
print("bipartite %d %d %d" % (len(left), len(right), len(edges)))
print("\n".join("%d %d" % e for e in edges))
EOF
}
equijoin 25600 > "$WORK_DIR/eq25600.txt"
equijoin 6400 > "$WORK_DIR/eq6400.txt"
for command in solve partition dot "dot --solve" "realize sets"; do
  # The command's words split on purpose.
  # shellcheck disable=SC2086
  expect_stdout_error "$command" "$WORK_DIR/eq25600.txt" $command
done
expect_stdout_error "schedule" "$WORK_DIR/eq6400.txt" schedule
PIPE_MAY_SUCCEED=1 expect_stdout_error "bounds" "$WORK_DIR/eq25600.txt" bounds

# Admission: an exhausted batch pool rejects every line under --admission
# reject, and still solves (degraded) under queue.
"$BIN" batch --jsonl "$WORK_DIR/corpus.jsonl" --batch-deadline-ms 0 \
  --admission reject > "$WORK_DIR/rej_out.jsonl" 2>"$WORK_DIR/rej_err.txt" \
  || note_failure "batch --admission reject must exit 0"
grep -q "20 rejected" "$WORK_DIR/rej_err.txt" \
  || note_failure "exhausted pool must reject all 20 lines"
"$BIN" batch --jsonl "$WORK_DIR/corpus.jsonl" --batch-deadline-ms 0 \
  --admission queue > "$WORK_DIR/q_out.jsonl" 2>"$WORK_DIR/q_err.txt" \
  || note_failure "batch --admission queue must exit 0"
grep -q "20 solved" "$WORK_DIR/q_err.txt" \
  || note_failure "queued lines must still solve under a dry pool"

# --- Request correlation ids ----------------------------------------------
# A client-supplied "id" leads the response document and threads through
# the journal's request.done event; id-less output never invents one, and
# stripping the echoed id recovers the id-less bytes exactly.
ID_LINE=$(printf '%s' "$GOOD_LINE" | sed 's/}$/, "id": "smoke-1"}/')
printf '%s\n' "$ID_LINE" > "$WORK_DIR/id.jsonl"
if ! "$BIN" batch --jsonl "$WORK_DIR/id.jsonl" \
    --journal "$WORK_DIR/id_journal.jsonl" \
    > "$WORK_DIR/id_out.jsonl" 2>/dev/null; then
  note_failure "batch with a client id must exit 0"
fi
head -1 "$WORK_DIR/id_out.jsonl" | grep -q '^{"id":"smoke-1",' \
  || note_failure "the client id must lead the response document"
grep '"event":"request.done"' "$WORK_DIR/id_journal.jsonl" \
  | grep -q '"id":"smoke-1"' \
  || note_failure "request.done must carry the client id"
grep -q '"id"' "$WORK_DIR/batch_out.jsonl" \
  && note_failure "id-less batch output must carry no id key"
head -1 "$WORK_DIR/id_out.jsonl" | sed 's/^{"id":"smoke-1",/{/' \
  | python3 "$TOOLS_DIR/json_normalize.py" > "$WORK_DIR/id_stripped.jsonl"
head -1 "$WORK_DIR/seq_norm.jsonl" > "$WORK_DIR/first_norm.jsonl"
cmp -s "$WORK_DIR/id_stripped.jsonl" "$WORK_DIR/first_norm.jsonl" \
  || note_failure "an id must not perturb the solve output"
# A malformed id is a structured per-line error, not a crash.
printf '%s' "$GOOD_LINE" | sed 's/}$/, "id": 7}/' \
  | "$BIN" batch --jsonl - 2>/dev/null \
  | grep -q 'needs a non-empty string' \
  || note_failure "a non-string id must produce a structured error"

# --- Journal, flight recorder, OpenMetrics --------------------------------
expect_fail "journal missing path" -- analyze --journal
expect_fail "metrics-out missing path" -- analyze --metrics-out
expect_fail "flight-recorder bad capacity" -- analyze --flight-recorder 0
expect_fail "flight-recorder non-numeric" -- analyze --flight-recorder many
expect_code "bad log level exits 2" 2 analyze --log-level verbose
expect_code "bad log level exits 2 (batch)" 2 batch --jsonl - --log-level 7
CLI_STDIN="$GRAPH" expect_fail "journal unwritable path" \
  -- analyze --journal /nonexistent-dir/j.jsonl

# A healthy solve at the default info level journals exactly one
# solve.end line; every line is valid JSON and survives normalization.
if ! printf '%s' "$GRAPH" | "$BIN" analyze --solver fallback \
    --journal "$WORK_DIR/j.jsonl" >/dev/null; then
  note_failure "analyze --journal must exit 0"
fi
if [ "$(wc -l < "$WORK_DIR/j.jsonl")" -ne 1 ]; then
  note_failure "healthy solve must journal one line at info level"
fi
grep -q '"event":"solve.end"' "$WORK_DIR/j.jsonl" \
  || note_failure "journal must carry the solve.end event"
python3 -c 'import json,sys
for line in open(sys.argv[1]):
    json.loads(line)' "$WORK_DIR/j.jsonl" \
  || note_failure "journal must be valid JSONL"
python3 "$TOOLS_DIR/json_normalize.py" < "$WORK_DIR/j.jsonl" \
  | grep -q '"ts_us":0' \
  || note_failure "json_normalize.py must zero journal timestamps"

# --log-level debug surfaces the rung-by-rung trail; off silences all.
printf '%s' "$GRAPH" | "$BIN" analyze --solver fallback --log-level debug \
  --journal "$WORK_DIR/jd.jsonl" >/dev/null
grep -q '"event":"ladder.rung"' "$WORK_DIR/jd.jsonl" \
  || note_failure "--log-level debug must journal ladder rungs"
printf '%s' "$GRAPH" | "$BIN" analyze --solver fallback --log-level off \
  --journal "$WORK_DIR/joff.jsonl" >/dev/null
if [ -s "$WORK_DIR/joff.jsonl" ]; then
  note_failure "--log-level off must journal nothing"
fi

# --journal - streams to stderr.
printf '%s' "$GRAPH" | "$BIN" analyze --journal - \
  >/dev/null 2>"$WORK_DIR/jerr.txt"
grep -q '"event":"solve.end"' "$WORK_DIR/jerr.txt" \
  || note_failure "--journal - must stream events to stderr"

# Acceptance: a forced expiry dumps the flight recorder, whose replayed
# debug events explain the degraded outcome.
printf '%s' "$GRAPH" | "$BIN" analyze --deadline-ms 0 \
  --journal "$WORK_DIR/jdump.jsonl" >/dev/null \
  || note_failure "degraded analyze with --journal must exit 0"
grep -q '"event":"flight_recorder.dump"' "$WORK_DIR/jdump.jsonl" \
  || note_failure "forced expiry must dump the flight recorder"
grep -q '"reason":"deadline-expired"' "$WORK_DIR/jdump.jsonl" \
  || note_failure "the dump must carry the expiry reason"
grep -q '"event":"ladder.rung".*"replay":"debug"' "$WORK_DIR/jdump.jsonl" \
  || note_failure "the dump must replay the debug-level rung trail"
grep -q '"event":"flight_recorder.end"' "$WORK_DIR/jdump.jsonl" \
  || note_failure "the dump must close with flight_recorder.end"

# Acceptance: sequential vs --threads 8 journals are identical modulo
# worker tags and timings (and the echoed thread count).
printf '%s' "$MULTI" | "$BIN" analyze --solver fallback --log-level debug \
  --threads 1 --journal "$WORK_DIR/jt1.jsonl" >/dev/null
printf '%s' "$MULTI" | "$BIN" analyze --solver fallback --log-level debug \
  --threads 8 --journal "$WORK_DIR/jt8.jsonl" >/dev/null
python3 - "$WORK_DIR" <<'EOF' \
  || note_failure "journal must be identical for --threads 1 and 8"
import json, sys
def norm(path):
    out = []
    for line in open(path):
        event = json.loads(line)
        for key in list(event):
            if key in ("ts_us", "worker", "threads") or key.endswith("_us"):
                event.pop(key)
        out.append(json.dumps(event, sort_keys=True))
    return out
work = sys.argv[1]
if norm(work + "/jt1.jsonl") != norm(work + "/jt8.jsonl"):
    sys.exit("journals differ")
EOF

# Acceptance: --metrics-out writes OpenMetrics text that passes the lint.
printf '%s' "$GRAPH" | "$BIN" analyze --solver fallback \
  --metrics-out "$WORK_DIR/m.om" >/dev/null \
  || note_failure "analyze --metrics-out must exit 0"
python3 "$TOOLS_DIR/openmetrics_lint.py" "$WORK_DIR/m.om" \
  || note_failure "--metrics-out output must pass openmetrics_lint.py"
grep -q '^pebblejoin_solve_wall_us_count 1$' "$WORK_DIR/m.om" \
  || note_failure "metrics must carry the solve wall-clock histogram"
CLI_STDIN="$GRAPH" expect_fail "metrics-out unwritable path" \
  -- analyze --metrics-out /nonexistent-dir/m.om

# --- Hardware counters, sampling profiler, --version ----------------------
expect_fail "profile-out missing path" -- analyze --profile-out
expect_code "solve bad perf flag value exits 2" 2 solve --profile-out ""

VERSION_OUT=$("$BIN" --version)
if [ $? -ne 0 ]; then
  note_failure "--version must exit 0"
fi
case "$VERSION_OUT" in
  pebblejoin\ *) : ;;
  *) note_failure "--version must print the build banner, got: $VERSION_OUT" ;;
esac

# Acceptance: --perf-stats exits 0 whether or not the host grants
# perf_event_open, prints the per-stage counter table in comments, and
# keeps the 60-edge order contract intact.
PERF_OUT=$(printf '%s' "$GRAPH" | "$BIN" solve --perf-stats)
if [ $? -ne 0 ]; then
  note_failure "solve --perf-stats must exit 0 even without PMU access"
fi
case "$PERF_OUT" in
  *"perf counters"*) : ;;
  *) note_failure "solve --perf-stats must print the counter status" ;;
esac
case "$PERF_OUT" in
  *instructions*cache_misses*) : ;;
  *) note_failure "solve --perf-stats must print the per-stage table" ;;
esac
PERF_EDGE_LINES=$(printf '%s\n' "$PERF_OUT" | grep -cv '^#')
if [ "$PERF_EDGE_LINES" -ne 60 ]; then
  note_failure "solve --perf-stats emitted $PERF_EDGE_LINES of 60 edges"
fi

# The JSON surface records the availability status: "ok" or
# "unavailable:<reason>" under --perf-stats, the literal "off" without.
printf '%s' "$GRAPH" | "$BIN" analyze --json --perf-stats \
  | grep -Eq '"perf":"(ok|unavailable:[^"]+)"' \
  || note_failure "analyze --json --perf-stats must record perf status"
printf '%s' "$GRAPH" | "$BIN" analyze --json | grep -q '"perf":"off"' \
  || note_failure "perf must default to off in analyze --json"

# --profile-out always produces the folded file, its trailing sample
# comment included, even when the profiler collected zero samples.
printf '%s' "$GRAPH" | "$BIN" solve --profile-out "$WORK_DIR/p.folded" \
  >/dev/null || note_failure "solve --profile-out must exit 0"
[ -f "$WORK_DIR/p.folded" ] \
  || note_failure "--profile-out must write the folded file"
tail -1 "$WORK_DIR/p.folded" | grep -Eq '^# samples [0-9]+ dropped [0-9]+$' \
  || note_failure "folded profile must end with the sample tally comment"
CLI_STDIN="$GRAPH" expect_fail "profile-out unwritable path" \
  -- solve --profile-out /nonexistent-dir/p.folded

# Batch: journal + metrics + live progress ride the same flags.
"$BIN" batch --jsonl "$WORK_DIR/corpus.jsonl" --out /dev/null \
  --journal "$WORK_DIR/bj.jsonl" --metrics-out "$WORK_DIR/bm.om" \
  --progress-every-ms 0 2>"$WORK_DIR/bprog.txt" \
  || note_failure "batch with journal+metrics+progress must exit 0"
grep -q '"event":"batch.begin"' "$WORK_DIR/bj.jsonl" \
  || note_failure "batch journal must open with batch.begin"
grep -q '"event":"batch.end"' "$WORK_DIR/bj.jsonl" \
  || note_failure "batch journal must close with batch.end"
grep -q '"event":"solve.end".*"line":1' "$WORK_DIR/bj.jsonl" \
  || note_failure "batch journal events must carry their input line"
grep -Eq '^batch: 20/20 .*p50=[0-9]+ms p95=[0-9]+ms' "$WORK_DIR/bprog.txt" \
  || note_failure "batch progress must report done/total and latency"
python3 "$TOOLS_DIR/openmetrics_lint.py" "$WORK_DIR/bm.om" \
  || note_failure "batch --metrics-out output must pass the lint"

# A rejected batch line dumps the batch-level flight recorder.
"$BIN" batch --jsonl "$WORK_DIR/corpus.jsonl" --out /dev/null \
  --batch-deadline-ms 0 --admission reject \
  --journal "$WORK_DIR/brj.jsonl" 2>/dev/null \
  || note_failure "rejecting batch with --journal must exit 0"
grep -q '"event":"batch.reject"' "$WORK_DIR/brj.jsonl" \
  || note_failure "a rejected line must journal batch.reject"
grep -q '"reason":"batch-line-rejected"' "$WORK_DIR/brj.jsonl" \
  || note_failure "the first rejection must dump the flight recorder"

# --- Graph layout: CSR is the only view; --layout is gone --------------
expect_code "--layout is an unknown flag" 2 analyze --layout csr

DENSE=$("$BIN" gen complete 12 12)
if [ $? -ne 0 ] || [ -z "$DENSE" ]; then
  note_failure "gen complete 12 12 should succeed"
fi
DEFAULT_OUT=$(printf '%s' "$DENSE" | "$BIN" solve)

# --perf-stats on the dense instance surfaces the per-stage counter table,
# with a build row covering the CSR freeze; the stats.perf gate keeps the
# default solve output free of the counter block entirely.
DENSE_PERF=$(printf '%s' "$DENSE" | "$BIN" solve --perf-stats)
if [ $? -ne 0 ]; then
  note_failure "dense solve --perf-stats must exit 0"
fi
DENSE_PERF_JSON=$(printf '%s' "$DENSE" | "$BIN" analyze --json --perf-stats)
for stage in build classify partition solve verify report; do
  printf '%s\n' "$DENSE_PERF" | grep -q "^#   $stage " \
    || note_failure "solve --perf-stats must print the $stage stage row"
  for count in cycles insns cache_misses; do
    printf '%s' "$DENSE_PERF_JSON" | grep -q "\"stage_${stage}_${count}\":" \
      || note_failure "analyze --json --perf-stats must carry stage_${stage}_${count}"
  done
done
for total in cycles instructions cache_references cache_misses branch_misses; do
  printf '%s' "$DENSE_PERF_JSON" | grep -q "\"perf_${total}\":" \
    || note_failure "analyze --json --perf-stats must carry perf_${total}"
done
printf '%s\n' "$DEFAULT_OUT" | grep -q 'perf counters' \
  && note_failure "default solve must not print the perf counter block"

# --- Ladder planner: --planner / --cost-model -----------------------------
# The default `--planner ladder` is the inert blind ladder: its output must
# be indistinguishable from not passing the flag at all (after timing
# normalization). `--planner calibrated` must surface plan provenance.
expect_code "bad planner exits 2" 2 analyze --planner quantum
expect_code "cost-model missing file exits 66" 66 \
  analyze --cost-model /nonexistent/cost_model.json
printf 'not json' > "$WORK_DIR/bad_model.json"
expect_code "malformed cost-model exits 2" 2 \
  analyze --cost-model "$WORK_DIR/bad_model.json"

printf '%s' "$GRAPH" | "$BIN" analyze --solver fallback --json \
  | python3 "$TOOLS_DIR/json_normalize.py" > "$WORK_DIR/plan_default.json"
printf '%s' "$GRAPH" | "$BIN" analyze --solver fallback --planner ladder \
  --json | python3 "$TOOLS_DIR/json_normalize.py" \
  > "$WORK_DIR/plan_ladder.json"
cmp -s "$WORK_DIR/plan_default.json" "$WORK_DIR/plan_ladder.json" \
  || note_failure "--planner ladder must match the default byte-for-byte"
grep -q '"plan"' "$WORK_DIR/plan_ladder.json" \
  && note_failure "blind ladder output must not carry plan provenance"

CAL_OUT=$(printf '%s' "$GRAPH" \
  | "$BIN" analyze --solver fallback --planner calibrated --json)
if [ $? -ne 0 ]; then
  note_failure "analyze --planner calibrated must exit 0"
fi
case "$CAL_OUT" in
  *'"plan"'*'"predicted_solver"'*) : ;;
  *) note_failure "--planner calibrated --json must carry plan provenance" ;;
esac
case "$CAL_OUT" in
  *'"planner_plans"'*) : ;;
  *) note_failure "--planner calibrated must count planner_plans in stats" ;;
esac

# The committed calibration artifact must load cleanly through the flag.
REPO_ROOT="$(cd "$TOOLS_DIR/.." && pwd)"
if [ -f "$REPO_ROOT/cost_model.json" ]; then
  printf '%s' "$GRAPH" | "$BIN" analyze --solver fallback \
    --planner calibrated --cost-model "$REPO_ROOT/cost_model.json" \
    >/dev/null || note_failure "committed cost_model.json must load"
fi

if [ "$FAILURES" -ne 0 ]; then
  echo "$FAILURES smoke check(s) failed" >&2
  exit 1
fi
echo "cli smoke checks passed"
