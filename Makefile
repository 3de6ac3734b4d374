# Convenience targets; CI runs `make check`.

.PHONY: all check test bench bench-quick perfcheck smoke artifacts artifacts-check sweep-smoke bench-mac mac-smoke serve-smoke bench-serve bench-serve-full bench-scale scale-smoke bench-soak soak-smoke bench-master master-smoke bench-whatif whatif-smoke clean

all:
	dune build

# Where the *-smoke targets write their artifacts.  Run on their own
# they refresh the committed BENCH_*_quick.json files; `make check`
# points them at CHECK_OUT instead, so a check never dirties the tree.
SMOKE_OUT ?= .
CHECK_OUT ?= _build/check

# Tier-1 verification: full build + every test suite (which includes
# the sweep smoke below; listing it keeps the gate explicit and the
# second build is a cached no-op).  The scale, soak, master and whatif
# smokes are not listed: artifacts-check runs the same commands, and
# each exits 1 on a failed gate with the failure on stderr.
check:
	dune build
	dune runtest
	$(MAKE) sweep-smoke
	$(MAKE) serve-smoke
	$(MAKE) mac-smoke SMOKE_OUT=$(CHECK_OUT)
	$(MAKE) artifacts-check

# The seven deterministic artifacts: pure functions of the code (the
# telemetry baseline at seed 30), committed at the repository root.
ARTIFACTS = BENCH_master_quick.json BENCH_perf_quick.json BENCH_scale_quick.json \
	BENCH_server_quick.json BENCH_soak_quick.json BENCH_whatif_quick.json BENCH_telemetry.json

# $(call gen_artifacts,DIR): regenerate the seven artifacts into DIR.
define gen_artifacts
	mkdir -p $(1)
	dune exec bench/main.exe -- master --quick --out $(1)/BENCH_master_quick.json >/dev/null
	dune exec bench/main.exe -- perf --quick --out $(1)/BENCH_perf_quick.json >/dev/null
	dune exec bench/main.exe -- scale --quick --out $(1)/BENCH_scale_quick.json >/dev/null
	dune exec bench/main.exe -- serve --quick --out $(1)/BENCH_server_quick.json >/dev/null
	dune exec bench/main.exe -- soak --quick --out $(1)/BENCH_soak_quick.json >/dev/null
	dune exec bench/main.exe -- whatif --quick --out $(1)/BENCH_whatif_quick.json >/dev/null
	dune exec bench/main.exe -- figures --seed 30 --out $(1)/BENCH_telemetry.json >/dev/null
endef

# Refresh the committed artifacts in place.
artifacts:
	$(call gen_artifacts,.)

# Answers-unchanged gate: regenerate the artifacts into CHECK_OUT and
# require each to be byte-identical to the committed copy (a mismatch
# prints the diff); part of `make check`.
artifacts-check:
	rm -rf $(CHECK_OUT)/artifacts
	$(call gen_artifacts,$(CHECK_OUT)/artifacts)
	@status=0; \
	for f in $(ARTIFACTS); do \
	  if ! cmp -s $$f $(CHECK_OUT)/artifacts/$$f; then \
	    echo "artifacts-check: $$f differs from a fresh regeneration:"; \
	    diff $$f $(CHECK_OUT)/artifacts/$$f; \
	    status=1; \
	  fi; \
	done; \
	if [ $$status -eq 0 ]; then echo "artifacts-check: $(words $(ARTIFACTS)) artifacts byte-identical"; fi; \
	exit $$status

# Engine sweep smoke: a tiny fixed-seed grid through the real CLI under
# -j2, asserting the exit-code policy, journal contents, warm-cache
# hits, -j1/-j2 byte-identity and `sweep --table` == `e3`.
sweep-smoke:
	dune build @cli-smoke

# Admission-server smoke: stdio and socket transports through the real
# CLI, gating warm-vs-cold byte identity, shutdown semantics and the
# client error path.
serve-smoke:
	dune build @serve-smoke

test: check

# Every paper figure and table, plus the telemetry baseline
# BENCH_telemetry.json, a pure function of SEED.  Timing lives in
# benchmark/ (python3 benchmark/run.py).
SEED ?= 30
bench:
	dune exec bench/main.exe -- figures --seed $(SEED)

# Two-arm perf suite (naive SINR model vs conflict kernel, both on the
# warm master) on a fixed seed with a reduced workload; finishes in well
# under 30 s.  Its counter-only artifact is one of the seven that
# artifacts-check compares.
bench-quick:
	dune exec bench/main.exe -- perf --quick --out BENCH_perf_quick.json

# MAC-simulator suite: the event-driven fast path vs the retained
# reference loop on a saturated and a lightly loaded scenario.
# Byte-identity of the stats is always gated; so are the speedups
# (>= 1.3x saturated, >= 3x light — idle-skipping's headline case).
bench-mac:
	dune exec bench/main.exe -- mac --out BENCH_mac.json

# Same suite with reduced horizons — the identity gate in seconds; part
# of `make check`.
mac-smoke:
	mkdir -p $(SMOKE_OUT)
	dune exec bench/main.exe -- mac --quick --out $(SMOKE_OUT)/BENCH_mac_quick.json

# Admission-server suite: one Poisson admit/release/query trace through
# a warm session and the cold reference.  Byte identity of the response
# transcripts is always gated; the >= 1.2x warm speedup only in the
# full (timed) run.  The quick artifact blanks timings and is a pure
# function of the seed.
bench-serve:
	dune exec bench/main.exe -- serve --quick --out BENCH_server_quick.json

bench-serve-full:
	dune exec bench/main.exe -- serve --out BENCH_server.json

# Scale suite: the Eq. 6 availability bracket (heuristic column pricing
# vs the hard-conflict clique upper bound) at 30/100/300/1000 nodes.
# Gated: auto-vs-exact wire identity at n=30, bracket soundness on
# every row, and (full mode) the 300-node query under 60 s.
bench-scale:
	dune exec bench/main.exe -- scale --out BENCH_scale.json

# Same suite up to 300 nodes with timings blanked — the identity and
# soundness gates in seconds, byte-deterministic artifact; `make
# check` runs it through artifacts-check.
scale-smoke:
	mkdir -p $(SMOKE_OUT)
	dune exec bench/main.exe -- scale --quick --out $(SMOKE_OUT)/BENCH_scale_quick.json

# Soak suite: a seeded 24 h dynamic scenario (flow churn, diurnal load,
# node join/leave, waypoint drift) replayed under incremental
# (Sim.apply_delta) and full-rebuild kernel maintenance.  Gated:
# byte-identical kernels and rows across the modes, a trackable probe,
# and (full mode) >= 2x prepare speedup over the churn epochs of the
# 300-node upkeep profile.
bench-soak:
	dune exec bench/main.exe -- soak --out BENCH_soak.json

# Same suite on a short horizon with timings blanked — the identity
# gates in seconds, byte-deterministic artifact; `make check` runs it
# through artifacts-check.
soak-smoke:
	mkdir -p $(SMOKE_OUT)
	dune exec bench/main.exe -- soak --quick --out $(SMOKE_OUT)/BENCH_soak_quick.json

# Master-LP suite: the stabilised column-generation master (Devex
# pricing, dual stabilisation, degenerate-pivot perturbation) vs the
# Dantzig/unstabilised reference on the scale scenarios.  Wire identity
# of the two arms is always gated; the >= 3x pivots-per-column and
# >= 2x resolve-time wins on the 1000-node light-load row only in the
# full (timed) run.
bench-master:
	dune exec bench/main.exe -- master --out BENCH_master.json

# Same suite at 300 nodes with timings blanked — the wire-identity gate
# in seconds, byte-deterministic artifact; `make check` runs it
# through artifacts-check.
master-smoke:
	mkdir -p $(SMOKE_OUT)
	dune exec bench/main.exe -- master --quick --out $(SMOKE_OUT)/BENCH_master_quick.json

# Whatif suite: demand-scaling what-if queries answered from the warm
# master's cached optimal basis vs fresh certified re-solves.  Wire
# identity of every in-range prediction is always gated; the >= 5x
# predict-over-resolve speedup only in the full (timed) run.
bench-whatif:
	dune exec bench/main.exe -- whatif --out BENCH_whatif.json

# Same suite on fewer factors with timings blanked — the in-range
# identity gate in seconds, byte-deterministic artifact; `make check`
# runs it through artifacts-check.
whatif-smoke:
	mkdir -p $(SMOKE_OUT)
	dune exec bench/main.exe -- whatif --quick --out $(SMOKE_OUT)/BENCH_whatif_quick.json

# Perf regression gate: tier-1 must pass, and the fast arm's counters on
# the quick workload must stay within 10% of the committed baseline
# (refresh with: dune exec bench/main.exe -- perf --quick
#  --write-perf-baseline bench/perf_baseline.txt).
perfcheck: check
	mkdir -p $(CHECK_OUT)
	dune exec bench/main.exe -- perf --quick --out $(CHECK_OUT)/BENCH_perf_quick.json --check-perf bench/perf_baseline.txt

# Everything compiles, including examples and benches.
smoke:
	dune build @all

clean:
	dune clean
