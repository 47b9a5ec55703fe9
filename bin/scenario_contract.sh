#!/bin/sh
# Exit-code contract of `bcdb scenario run`:
#   0 - solver verdict matches the (possibly overridden) expectation
#   1 - verdict mismatch, or an unknown scenario name
#   3 - the solve exhausted its budget (UNKNOWN)
#   124 - a malformed flag, such as a budget outside its domain
# Used by `make test-scenarios` and CI.
set -u

cd "$(dirname "$0")/.."

BCDB=${BCDB:-_build/default/bin/bcdb_cli.exe}
fails=0

expect_code() {
  want=$1
  shift
  "$BCDB" scenario run "$@" >/dev/null 2>&1
  got=$?
  if [ "$got" -ne "$want" ]; then
    echo "FAIL: bcdb scenario run $* -> exit $got, want $want"
    fails=$((fails + 1))
  else
    echo "ok:   bcdb scenario run $* -> exit $got"
  fi
}

# 0: scripted expectations hold, for a satisfied, a violated and a
# budget-starved (unknown-expected... which still exits 3, see below)
# instance.
expect_code 0 escrow-double-spend
expect_code 0 escrow-double-spend/double-spend
expect_code 0 multisig-partition/rogue-quorum --engine brute

# 1: forced mismatches via --expect overrides, and an unknown name.
expect_code 1 escrow-double-spend --expect violated
expect_code 1 escrow-double-spend/double-spend --expect satisfied
expect_code 1 escrow-double-spend/double-spend --expect unknown
expect_code 1 no-such-scenario

# 3: undecided solves, whether the budget is the scenario's own
# (churn-starved carries max_worlds=2 against eight worlds) or forced
# from the command line on an instance the precheck cannot settle.
expect_code 3 auction-outbid-race/churn-starved
expect_code 3 escrow-double-spend/double-spend --max-worlds 0

# 124: budgets Engine.Budget.create refuses are usage errors, not a
# crash or an instant UNKNOWN.
expect_code 124 escrow-double-spend --max-worlds=-3
expect_code 124 escrow-double-spend --timeout nan

if [ "$fails" -gt 0 ]; then
  echo "$fails contract check(s) failed"
  exit 1
fi
echo "scenario exit-code contract OK"
