.PHONY: all build test test-jobs test-scenarios test-serve fmt check bench bench-smoke bench-data bench-eval bench-serve bench-perf clean

all: build

build:
	dune build

test:
	dune runtest

# Engine determinism through the CLI: `bcdb check --preset small`
# output at -j 1 and -j 4 must be identical but for the time= field,
# for NaiveDCSat and OptDCSat on the qs family's satisfied and
# unsatisfied queries, and for OptDCSat on Q_SPREAD. The qs runs stop
# at the precheck or at the first covered component, so only Q_SPREAD
# spreads real work over the workers (every one of its components is
# covered: components=235/235); the target fails if that run covers
# fewer than 2 components. NaiveDCSat would walk 2^20 worlds on it.
QS_UNSAT = q() :- TxOut(ntx, s, "PK009f6d1f631373cb", a).
QS_SAT = q() :- TxOut(ntx, s, "PKfresh-never-used", a).
Q_SPREAD = q() :- TxIn(p, s, k, a, n1, g1), TxIn(p, s, k, a, n2, g2), n1 != n2.

test-jobs:
	dune build bin/bcdb_cli.exe
	@set -e; run() { \
	  for j in 1 4; do \
	    ./_build/default/bin/bcdb_cli.exe check --preset small --algo $$1 -j $$j "$$2" \
	      > _build/test-jobs.raw || test $$? -eq 2; \
	    sed -E 's/time=[0-9.]+s/time=-/' _build/test-jobs.raw > _build/test-jobs.$$j.out; \
	  done; \
	  diff _build/test-jobs.1.out _build/test-jobs.4.out; \
	  echo "test-jobs: $$1 '$$2': -j 1 = -j 4"; \
	}; \
	for algo in naive opt; do for q in '$(QS_SAT)' '$(QS_UNSAT)'; do run $$algo "$$q"; done; done; \
	run opt '$(Q_SPREAD)'; \
	covered=$$(sed -n 's/.*components=\([0-9]*\)\/.*/\1/p' _build/test-jobs.4.out); \
	if [ "$${covered:-0}" -lt 2 ]; then \
	  echo "test-jobs: FAIL: Q_SPREAD covered $${covered:-0} components, want >= 2"; exit 1; \
	fi; \
	echo "test-jobs: Q_SPREAD covered $$covered components"

# Scenario attack library: the differential verdict harness (honors
# BCDB_TEST_JOBS) plus the `bcdb scenario run` exit-code contract.
test-scenarios:
	dune build test/test_scenario.exe bin/bcdb_cli.exe
	dune exec test/test_scenario.exe
	sh bin/scenario_contract.sh

# Live service: one framed client session against `bcdb serve --paper`
# covering every response status (SATISFIED/UNSATISFIED/UNKNOWN/OK/
# ERROR) interleaved with evict/confirm/add mutations; then one scripted
# bcdb-shell session diffed against its checked-in transcript.
test-serve:
	dune build bin/bcdb_cli.exe bin/bcdb_shell.exe
	sh bin/serve_contract.sh
	sh bin/shell_contract.sh

fmt:
	dune build @fmt --auto-promote

# Build + formatting (if ocamlformat is installed) + full test suite.
check:
	sh bin/check.sh

# Full paper-figure benchmark; writes BENCH_dcsat.json in the repo root.
bench:
	dune exec bench/main.exe

# Fast subset that exercises the measurement pipeline and
# shape-validates the results JSON (including the committed
# BENCH_dcsat.json, when present). Also writes and validates a Chrome
# trace_event file from the instrumented runs. Non-zero exit on schema
# drift or an invalid trace.
bench-smoke:
	dune exec bench/main.exe -- --smoke --trace BENCH_trace.smoke.json

# Data-size sweep on a scaled-down Huge preset: streaming columnar
# build, DCSat solve, binary snapshot save/load, and a warm-restore
# re-solve that must agree with the cold build (non-zero exit if it
# doesn't). Full-scale sweep (1M/10M rows, >=10x restore-speedup
# bound): dune exec bench/main.exe -- datasize
bench-data:
	dune exec bench/main.exe -- --smoke datasize

# Incremental-evaluation micro-benchmark: full re-evaluation vs the
# Inc_eval layer (replay + delta-seeded search) on warm repeated
# solves. Exits non-zero if the incremental side never engages.
bench-eval:
	dune exec bench/main.exe -- evalbench

# Live serving benchmark: warm incremental checks, churn (add+evict per
# request) and per-request session rebuild under a Poisson request
# stream; exits non-zero if the warm path is not >= 5x the rebuild.
bench-serve:
	dune exec bench/main.exe -- serve

# Repository benchmark (perfbench/, BENCHMARK.json), one short run of
# each of two workloads: serve-read (the long-lived `bcdb serve`) and
# batch-solve (cold `bcdb check` processes and the dump ingest). Exits
# non-zero if a run fails or any request of either fails.
bench-perf:
	mkdir -p _perfbench
	@set -e; for w in serve-read batch-solve; do \
	  python3 perfbench/run.py --workload $$w --seed 1 --seconds 10 --trace 0 \
	    > _perfbench/bench-perf.$$w.json; \
	  python3 -c 'import json, sys; r = json.loads(open(sys.argv[1]).read().splitlines()[-1]); print("bench-perf:", sys.argv[2], r["failed"], "failed of", r["attempted"]); sys.exit(1 if r["failed"] else 0)' \
	    _perfbench/bench-perf.$$w.json $$w; \
	done

clean:
	dune clean
