#!/usr/bin/env bash
# Admission-server smoke test through the real binary: trace generation
# is deterministic, stdio warm and cold transcripts are byte-identical,
# the socket transport returns the same bytes as stdio, and shutdown /
# client error paths behave.  Run by the dune `serve-smoke` alias (and
# `make serve-smoke`) with the wsn_repro executable as $1.
set -u

BIN=$1
T=serve-smoke-tmp
rm -rf "$T"
mkdir -p "$T"

fails=0
assert() { # assert DESC TEST...
  local desc=$1
  shift
  if ! "$@"; then
    echo "FAIL: $desc" >&2
    fails=$((fails + 1))
  fi
}

# --- trace generation is deterministic --------------------------------
"$BIN" serve --gen-trace 60 --seed 7 >"$T/trace.txt"
assert "gen-trace exits 0" test $? -eq 0
assert "gen-trace emits 60 lines" test "$(wc -l < "$T/trace.txt")" -eq 60
"$BIN" serve --gen-trace 60 --seed 7 >"$T/trace2.txt"
assert "gen-trace is deterministic" cmp -s "$T/trace.txt" "$T/trace2.txt"

# --- stdio: warm vs cold byte identity (the PR's core invariant) ------
"$BIN" serve <"$T/trace.txt" >"$T/warm.txt"
assert "warm stdio serve exits 0" test $? -eq 0
"$BIN" serve --cold <"$T/trace.txt" >"$T/cold.txt"
assert "cold stdio serve exits 0" test $? -eq 0
assert "warm transcript non-empty" test -s "$T/warm.txt"
assert "one response per request" test "$(wc -l < "$T/warm.txt")" -eq 60
assert "warm == cold byte-identical" cmp -s "$T/warm.txt" "$T/cold.txt"
assert "batching does not change answers" bash -c \
  "\"$BIN\" serve --batch 1 <\"$T/trace.txt\" | cmp -s - \"$T/warm.txt\""

# --- heuristic-first pricing: wire-identical at Fig. 2 scale ----------
# The served model's universe sits under the auto tier's exact-fallback
# threshold, so every auto answer is certified and — after wire
# quantisation — byte-identical to the exact transcript.
assert "auto pricer transcript == exact transcript" bash -c \
  "\"$BIN\" serve --pricer auto <\"$T/trace.txt\" | cmp -s - \"$T/warm.txt\""
"$BIN" serve --pricer nonsense </dev/null >/dev/null 2>"$T/pricer-err.txt"
assert "unknown pricer exits 2" test $? -eq 2
assert "unknown pricer names the flag" grep -q pricer "$T/pricer-err.txt"

# --- shutdown request ends a stdio session mid-stream -----------------
{ head -5 "$T/trace.txt"; echo '{"op":"shutdown"}'; cat "$T/trace.txt"; } \
  >"$T/with-shutdown.txt"
"$BIN" serve <"$T/with-shutdown.txt" >"$T/short.txt"
assert "shutdown exits 0" test $? -eq 0
assert "shutdown truncates the transcript" \
  test "$(wc -l < "$T/short.txt")" -le 38  # 5 + shutdown + <= one drained batch
assert "shutdown acknowledged" grep -q '"op":"shutdown"' "$T/short.txt"

# --- socket transport: same bytes as stdio ----------------------------
SOCK="$T/admission.sock"
"$BIN" serve --socket "$SOCK" --max-conns 1 &
SERVER=$!
for _ in $(seq 1 100); do [ -S "$SOCK" ] && break; sleep 0.05; done
assert "socket file appears" test -S "$SOCK"
"$BIN" serve --client --socket "$SOCK" <"$T/trace.txt" >"$T/socket.txt"
assert "client exits 0" test $? -eq 0
wait "$SERVER"
assert "server exits 0 after --max-conns 1" test $? -eq 0
assert "socket transcript == stdio transcript" cmp -s "$T/socket.txt" "$T/warm.txt"
assert "socket file unlinked on exit" test ! -e "$SOCK"

# --- a client that hangs up early ends only its own connection -------
# It writes 3000 pings and closes without reading a response: the
# server's writes to it fail (EPIPE) and must not kill the server, so
# the next client is still served and the server still exits 0.
SOCK="$T/hangup.sock"
"$BIN" serve --socket "$SOCK" --max-conns 2 &
SERVER=$!
for _ in $(seq 1 100); do [ -S "$SOCK" ] && break; sleep 0.05; done
python3 - "$SOCK" <<'EOF_PY'
import socket, sys
c = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
c.connect(sys.argv[1])
c.sendall(b'{"op":"ping"}\n' * 3000)
c.close()
EOF_PY
assert "early-closing client exits 0" test $? -eq 0
"$BIN" serve --client --socket "$SOCK" <"$T/trace.txt" >"$T/after-hangup.txt"
assert "next client is served after an early hang-up" test $? -eq 0
wait "$SERVER"
assert "server exits 0 after an early hang-up" test $? -eq 0
assert "transcript after a hang-up == stdio transcript" cmp -s "$T/after-hangup.txt" "$T/warm.txt"

# --- error paths ------------------------------------------------------
"$BIN" serve --client --socket "$T/absent.sock" </dev/null >/dev/null 2>"$T/err.txt"
assert "client without server exits 1" test $? -eq 1
assert "client error names the socket" grep -q absent.sock "$T/err.txt"
echo 'not json' | "$BIN" serve >"$T/bad.txt"
assert "malformed request still exits 0" test $? -eq 0
assert "malformed request draws ok:false" grep -q '"ok":false' "$T/bad.txt"

# --- whatif / prices over the wire ------------------------------------
# A well-formed whatif against an admitted flow answers ok:true with a
# results array; every malformed variant draws ok:false and leaves the
# exit code at 0 (protocol errors are session data, not failures).
{
  echo '{"op":"admit","source":0,"target":1,"demand_mbps":0.25}'
  echo '{"op":"whatif","source":0,"target":1,"flow":0,"factor":1.5}'
  echo '{"op":"whatif","source":0,"target":1,"queries":[{"flow":0,"factor":0.5},{"flow":0,"factor":2}]}'
  echo '{"op":"whatif","source":0,"target":1,"flow":0,"factor":1,"exact":true}'
  echo '{"op":"prices","source":0,"target":1}'
  echo '{"op":"whatif","source":0,"target":1}'
  echo '{"op":"whatif","source":0,"target":1,"flow":0,"factor":-2}'
  echo '{"op":"whatif","source":0,"target":1,"queries":[]}'
  echo '{"op":"whatif","source":0,"target":1,"flow":99,"factor":1}'
  echo '{"op":"prices","source":0}'
} >"$T/whatif-req.txt"
"$BIN" serve <"$T/whatif-req.txt" >"$T/whatif.txt"
assert "whatif session exits 0" test $? -eq 0
assert "whatif answers carry results" \
  test "$(grep -c '"op":"whatif".*"results"' "$T/whatif.txt")" -eq 3
assert "prices answer carries link prices" grep -q '"link_prices"' "$T/whatif.txt"
assert "malformed whatif/prices lines draw ok:false" \
  test "$(grep -c '"ok":false' "$T/whatif.txt")" -eq 5
assert "unknown flow id is named in the error" grep -q 'unknown flow 99' "$T/whatif.txt"

if [ "$fails" -gt 0 ]; then
  echo "serve_smoke: $fails check(s) failed" >&2
  exit 1
fi
echo "serve_smoke: all checks passed"
