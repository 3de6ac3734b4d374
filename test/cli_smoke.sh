#!/usr/bin/env bash
# CLI smoke test: exit-code policy and sweep behaviour through the real
# binary.  Run by the dune `cli-smoke` alias (and `make sweep-smoke`)
# with the wsn_repro executable as $1; everything happens in a scratch
# directory under the sandboxed CWD.
set -u

BIN=$1
T=cli-smoke-tmp
rm -rf "$T"
mkdir -p "$T"

fails=0
expect_exit() { # expect_exit CODE DESC CMD...
  local want=$1 desc=$2
  shift 2
  "$@" >"$T/stdout" 2>"$T/stderr"
  local got=$?
  if [ "$got" -ne "$want" ]; then
    echo "FAIL: $desc — expected exit $want, got $got" >&2
    sed 's/^/  stderr: /' "$T/stderr" >&2
    fails=$((fails + 1))
  fi
}
assert() { # assert DESC TEST...
  local desc=$1
  shift
  if ! "$@"; then
    echo "FAIL: $desc" >&2
    fails=$((fails + 1))
  fi
}

# --- exit-code policy -------------------------------------------------
expect_exit 0 "--help is ok" "$BIN" --help
assert "--help lists serve" grep -q serve "$T/stdout"
expect_exit 2 "unknown subcommand is a usage error" "$BIN" no-such-experiment
assert "unknown-subcommand message lists serve" grep -q serve "$T/stderr"
expect_exit 2 "malformed --seeds is a usage error" "$BIN" sweep --seeds bogus
expect_exit 2 "unknown metric is a usage error" "$BIN" sweep --metrics no-such-metric
expect_exit 2 "--resume without --journal is a usage error" "$BIN" sweep --resume
expect_exit 1 "a failing job exits 1" \
  "$BIN" sweep --kind fail --seeds 1..2 --retries 0 -j 2 --no-cache

# --- serve: usage errors exit 2 before any socket/stdio work ----------
expect_exit 2 "serve --batch 0 is a usage error" "$BIN" serve --batch 0
expect_exit 2 "serve --max-conns 0 is a usage error" "$BIN" serve --max-conns 0
expect_exit 2 "serve unknown metric is a usage error" "$BIN" serve --metric bogus </dev/null
expect_exit 2 "serve --client without --socket is a usage error" "$BIN" serve --client
expect_exit 1 "serve --client with no server exits 1" \
  "$BIN" serve --client --socket "$T/nope.sock" </dev/null

# --- a tiny fixed-seed grid under -j2 ---------------------------------
GRID=(--seeds 1..2 --n-flows 2 -j 2)
expect_exit 0 "cold sweep succeeds" \
  "$BIN" sweep "${GRID[@]}" --cache "$T/cache" -o "$T/cold.jsonl" --journal "$T/cold.journal"
assert "results file written" test -s "$T/cold.jsonl"
assert "journal written" test -s "$T/cold.journal"
assert "6 jobs journalled" test "$(wc -l < "$T/cold.journal")" -eq 6
assert "cold run computed everything" \
  test "$(grep -c '"cached":true' "$T/cold.journal")" -eq 0
assert "cache populated" test "$(ls "$T/cache" | wc -l)" -ge 6

# Determinism: -j1 with a fresh cache is byte-identical to -j2.
expect_exit 0 "cold -j1 sweep succeeds" \
  "$BIN" sweep --seeds 1..2 --n-flows 2 -j 1 --cache "$T/cache-j1" -o "$T/cold-j1.jsonl"
assert "-j1 and -j2 results byte-identical" cmp -s "$T/cold.jsonl" "$T/cold-j1.jsonl"

# Warm rerun over the same cache: all hits, same bytes.
expect_exit 0 "warm sweep succeeds" \
  "$BIN" sweep "${GRID[@]}" --cache "$T/cache" -o "$T/warm.jsonl" --journal "$T/warm.journal"
assert "warm run is 100% cache hits" \
  test "$(grep -c '"cached":true' "$T/warm.journal")" -eq 6
assert "warm results byte-identical to cold" cmp -s "$T/cold.jsonl" "$T/warm.jsonl"

# --table over one seed reproduces e3 byte-for-byte.
expect_exit 0 "e3 runs" "$BIN" e3 --seed 30
cp "$T/stdout" "$T/e3.txt"
expect_exit 0 "sweep --table runs" \
  "$BIN" sweep --table --seeds 30 --n-flows 8 -j 2 --no-cache
assert "sweep --table == e3" cmp -s "$T/e3.txt" "$T/stdout"

# --- multicore: --domains --------------------------------------------
expect_exit 0 "e3 --domains 2 runs" "$BIN" e3 --seed 30 --domains 2
assert "e3 --domains 2 == e3 (parallelism is invisible)" cmp -s "$T/e3.txt" "$T/stdout"
expect_exit 2 "--domains 0 is a usage error" "$BIN" e3 --seed 30 --domains 0

# --- soak: exit-code policy and incremental-vs-rebuild identity -------
SOAK=(soak --epochs 4 --horizon-h 2 --window-us 100000)
expect_exit 0 "soak runs" "$BIN" "${SOAK[@]}"
cp "$T/stdout" "$T/soak.txt"
assert "soak prints the E17 table" grep -q "E17" "$T/soak.txt"
expect_exit 0 "soak --rebuild runs" "$BIN" "${SOAK[@]}" --rebuild
# Only the kernel-maintenance column may differ between the modes.
strip_kernel() { sed -E 's/ (reuse|build|patch) / KERNEL /' "$1"; }
assert "soak --rebuild numerically identical to incremental" \
  test "$(strip_kernel "$T/soak.txt")" = "$(strip_kernel "$T/stdout")"
expect_exit 0 "soak --domains 2 runs" "$BIN" "${SOAK[@]}" --domains 2
assert "soak --domains 2 == soak (parallelism is invisible)" cmp -s "$T/soak.txt" "$T/stdout"
expect_exit 2 "soak --epochs 0 is a usage error" "$BIN" soak --epochs 0
expect_exit 2 "soak --nodes 1 is a usage error" "$BIN" soak --nodes 1
expect_exit 2 "soak --horizon-h 0 is a usage error" "$BIN" soak --horizon-h 0
expect_exit 2 "soak --window-us 0 is a usage error" "$BIN" soak --window-us 0
expect_exit 2 "soak unknown pricer is a usage error" "$BIN" soak --pricer bogus
expect_exit 2 "soak --domains 0 is a usage error" "$BIN" soak --domains 0

# --- scale, and the retired master-LP flags --------------------------
expect_exit 0 "scale runs" "$BIN" scale -n 12 --seed 7
# The master LP has one configuration: the flags that once tuned it
# are unknown options now, even with a formerly valid value.
expect_exit 2 "scale --lp-pricing is retired" "$BIN" scale -n 12 --lp-pricing devex
expect_exit 2 "soak --stabilize is retired" "$BIN" soak --stabilize on
expect_exit 2 "serve --shards is retired" "$BIN" serve --shards 0 </dev/null
# Two pricing tiers remain; the retired greedy-only value is a usage
# error that names the flag.
for cmd in "scale -n 12" soak serve; do
  expect_exit 2 "$cmd --pricer heuristic is retired" "$BIN" $cmd --pricer heuristic </dev/null
  assert "$cmd --pricer heuristic names the flag" grep -q -- --pricer "$T/stderr"
done

# --- whatif: sensitivity engine exit-code policy and determinism ------
WHATIF=(whatif -n 12 --seed 7)
expect_exit 0 "whatif runs" "$BIN" "${WHATIF[@]}"
cp "$T/stdout" "$T/whatif.txt"
assert "whatif prints the E18 table" grep -q "E18" "$T/whatif.txt"
# Everything but the two wall-time columns is a pure function of the seed.
strip_times() { sed -E 's/ +[0-9]+\.[0-9]{4} +[0-9]+\.[0-9]{4} *$//' "$1"; }
expect_exit 0 "whatif reruns" "$BIN" "${WHATIF[@]}"
assert "whatif deterministic (sans wall time)" \
  test "$(strip_times "$T/whatif.txt")" = "$(strip_times "$T/stdout")"
expect_exit 1 "whatif on an unschedulable background exits 1" \
  "$BIN" "${WHATIF[@]}" --demand 1000
expect_exit 2 "whatif --nodes 1 is a usage error" "$BIN" whatif --nodes 1
expect_exit 2 "whatif bad --factors is a usage error" "$BIN" whatif --factors bogus
expect_exit 2 "whatif negative factor is a usage error" "$BIN" whatif --factors=-1
expect_exit 2 "whatif --flows -1 is a usage error" "$BIN" whatif --flows=-1
expect_exit 2 "whatif --demand -1 is a usage error" "$BIN" whatif --demand=-1

# --- MAC simulator: the fast path drives E6, domains stay invisible ---
expect_exit 0 "e6 runs" "$BIN" e6 --seed 30
cp "$T/stdout" "$T/e6.txt"
expect_exit 0 "e6 --domains 2 runs" "$BIN" e6 --seed 30 --domains 2
assert "e6 --domains 2 == e6 (replication fan-out is invisible)" cmp -s "$T/e6.txt" "$T/stdout"

if [ "$fails" -gt 0 ]; then
  echo "cli_smoke: $fails check(s) failed" >&2
  exit 1
fi
echo "cli_smoke: all checks passed"
