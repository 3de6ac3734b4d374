# Convenience targets; CI runs `make check`.

.PHONY: all check test bench bench-quick perfcheck smoke artifacts artifacts-check artifacts-check-full sweep-smoke serve-smoke bench-serve bench-serve-full bench-scale scale-smoke bench-soak soak-smoke bench-whatif whatif-smoke loc clean

all:
	dune build

# Where the *-smoke targets write their artifacts.  Run on their own
# they refresh the committed BENCH_*_quick.json files; `make check`
# points them at CHECK_OUT instead, so a check never dirties the tree.
SMOKE_OUT ?= .
CHECK_OUT ?= _build/check

# Tier-1 verification: full build + every test suite (which includes
# the sweep smoke below; listing it keeps the gate explicit and the
# second build is a cached no-op).  The scale, soak and whatif smokes
# are not listed: artifacts-check runs the same commands, and
# each exits 1 on a failed gate with the failure on stderr.
check:
	dune build
	dune runtest
	$(MAKE) sweep-smoke
	$(MAKE) serve-smoke
	$(MAKE) artifacts-check

# The six deterministic artifacts: pure functions of the code (the
# telemetry baseline at seed 30), committed at the repository root.
ARTIFACTS = BENCH_perf_quick.json BENCH_scale_quick.json BENCH_server_quick.json \
	BENCH_soak_quick.json BENCH_whatif_quick.json BENCH_telemetry.json

# $(call gen_artifacts,DIR): regenerate the six artifacts into DIR.
define gen_artifacts
	mkdir -p $(1)
	dune exec bench/main.exe -- perf --quick --out $(1)/BENCH_perf_quick.json >/dev/null
	dune exec bench/main.exe -- scale --quick --out $(1)/BENCH_scale_quick.json >/dev/null
	dune exec bench/main.exe -- serve --quick --out $(1)/BENCH_server_quick.json >/dev/null
	dune exec bench/main.exe -- soak --quick --out $(1)/BENCH_soak_quick.json >/dev/null
	dune exec bench/main.exe -- whatif --quick --out $(1)/BENCH_whatif_quick.json >/dev/null
	dune exec bench/main.exe -- figures --seed 30 --out $(1)/BENCH_telemetry.json >/dev/null
endef

# $(call cmp_artifacts,DIR,FILES): byte-compare each committed FILE
# with its regeneration in DIR, printing the diff of any mismatch.
define cmp_artifacts
	@status=0; \
	for f in $(2); do \
	  if ! cmp -s $$f $(1)/$$f; then \
	    echo "$@: $$f differs from a fresh regeneration:"; \
	    diff $$f $(1)/$$f; \
	    status=1; \
	  fi; \
	done; \
	if [ $$status -eq 0 ]; then echo "$@: $(words $(2)) artifacts byte-identical"; fi; \
	exit $$status
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
	$(call cmp_artifacts,$(CHECK_OUT)/artifacts,$(ARTIFACTS))

# The five full-mode artifacts, committed beside the quick ones.
FULL_ARTIFACTS = BENCH_perf.json BENCH_scale.json BENCH_server.json BENCH_soak.json \
	BENCH_whatif.json

# Full-mode answers-unchanged gate: regenerate the full artifacts into
# CHECK_OUT and byte-compare each with the committed copy, like
# artifacts-check.  Minutes, not seconds (the 1000-node scale rows),
# so `make check` does not run it.
artifacts-check-full:
	rm -rf $(CHECK_OUT)/artifacts-full
	mkdir -p $(CHECK_OUT)/artifacts-full
	dune exec bench/main.exe -- perf --out $(CHECK_OUT)/artifacts-full/BENCH_perf.json >/dev/null
	dune exec bench/main.exe -- scale --out $(CHECK_OUT)/artifacts-full/BENCH_scale.json >/dev/null
	dune exec bench/main.exe -- serve --out $(CHECK_OUT)/artifacts-full/BENCH_server.json >/dev/null
	dune exec bench/main.exe -- soak --out $(CHECK_OUT)/artifacts-full/BENCH_soak.json >/dev/null
	dune exec bench/main.exe -- whatif --out $(CHECK_OUT)/artifacts-full/BENCH_whatif.json >/dev/null
	$(call cmp_artifacts,$(CHECK_OUT)/artifacts-full,$(FULL_ARTIFACTS))

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
# under 30 s.  Its counter-only artifact is one of the six that
# artifacts-check compares.
bench-quick:
	dune exec bench/main.exe -- perf --quick --out BENCH_perf_quick.json

# Admission-server suite: one Poisson admit/release/query trace through
# a warm session and the cold reference.  Gated in quick and full mode:
# byte identity of the response transcripts, transcripts unchanged by
# telemetry, and the cold arm making >= 1.2x the warm arm's LP pivots.
bench-serve:
	dune exec bench/main.exe -- serve --quick --out BENCH_server_quick.json

bench-serve-full:
	dune exec bench/main.exe -- serve --out BENCH_server.json

# Scale suite: the Eq. 6 availability bracket (heuristic column pricing
# vs the hard-conflict clique upper bound) at 30/100/300/1000 nodes.
# Gated: auto-vs-exact wire identity at n=30, bracket soundness on
# every row, and a certified 300-node row.  Each row also records the
# master LP's work on its query (pivots per column, degenerate pivots,
# appended columns, boxstep widenings, elimination cells).
bench-scale:
	dune exec bench/main.exe -- scale --out BENCH_scale.json

# Same suite up to 300 nodes — every gate in seconds; `make check`
# runs it through artifacts-check.
scale-smoke:
	mkdir -p $(SMOKE_OUT)
	dune exec bench/main.exe -- scale --quick --out $(SMOKE_OUT)/BENCH_scale_quick.json

# Soak suite: a seeded 24 h dynamic scenario (flow churn, diurnal load,
# node join/leave, waypoint drift) replayed under incremental
# (Sim.apply_delta) and full-rebuild kernel maintenance.  Gated:
# byte-identical kernels and rows across the modes, a trackable probe,
# and rebuilds making >= 2x the PHY evaluations of patches over the
# churn epochs of the 300-node upkeep profile.
bench-soak:
	dune exec bench/main.exe -- soak --out BENCH_soak.json

# Same suite on a short horizon (60-node profile) — every gate in
# seconds; `make check` runs it through artifacts-check.
soak-smoke:
	mkdir -p $(SMOKE_OUT)
	dune exec bench/main.exe -- soak --quick --out $(SMOKE_OUT)/BENCH_soak_quick.json

# Whatif suite: demand-scaling what-if queries answered from the warm
# master's cached optimal basis vs fresh certified re-solves.  Gated:
# wire identity of every in-range prediction, and the re-solves making
# >= 5x the predictions' simplex pivots.
bench-whatif:
	dune exec bench/main.exe -- whatif --out BENCH_whatif.json

# Same suite on fewer factors — every gate in seconds; `make check`
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

# Line counts of the tracked .ml and .mli files per directory (git
# ls-files, so nothing under _build/ counts), plus lib + bench + bin
# and the grand total.  A new file counts once it is `git add`ed.
LOC_DIRS = lib bench bin test
loc:
	@for d in $(LOC_DIRS); do \
	  ml=$$(git ls-files -z -- ":(glob)$$d/**/*.ml" | xargs -0r cat | wc -l); \
	  mli=$$(git ls-files -z -- ":(glob)$$d/**/*.mli" | xargs -0r cat | wc -l); \
	  echo "$$d $$ml $$mli"; \
	done | awk '{ printf "%-14s %6d .ml %6d .mli %6d\n", $$1, $$2, $$3, $$2 + $$3; \
	  all += $$2 + $$3; if ($$1 != "test") shipped += $$2 + $$3 } \
	  END { printf "%-14s %30d\n%-14s %30d\n", "lib+bench+bin", shipped, "all", all }'

# Everything compiles, including examples and benches.
smoke:
	dune build @all

clean:
	dune clean
