#!/bin/sh
# Status/exit-code contract of `bcdb serve`: one framed client session
# against the paper database covering every response status —
#   SATISFIED 0 / UNSATISFIED 2 / UNKNOWN 3 (budget) / OK 0 / ERROR 1
# — interleaved with live mutations (evict, confirm, add) whose effect
# the following checks must observe, and a duplicate-label add that
# must be refused without a trace. Used by `make test-serve` and CI.
set -u

cd "$(dirname "$0")/.."

BCDB=${BCDB:-_build/default/bin/bcdb_cli.exe}
Q='check
q() :- TxOut(t, s, "U8Pk", a).'

# <len>\n<payload> framing, length in bytes.
frame() {
  printf '%s\n%s' "$(printf '%s' "$1" | wc -c)" "$1"
}

out=$( {
  # 1: the paper instance risks paying U8: UNSATISFIED 2
  frame "$Q"
  # 2: a zero-world budget trips before any world is checked: UNKNOWN 3
  frame "check max-worlds=0
q() :- TxOut(t, s, \"U8Pk\", a)."
  # 3: RBF-evict T4, the transaction that creates the U8 output: OK 0
  frame "evict T4"
  # 4: no remaining world reaches U8Pk: SATISFIED 0
  frame "$Q"
  # 5: confirm T1 into the state: OK 0
  frame "confirm T1"
  # 6: still satisfied, now at jobs 2 over the maintained graphs
  frame "check jobs=2
q() :- TxOut(t, s, \"U8Pk\", a)."
  # 7: an arrival under a label that is still pending is refused:
  #    ERROR 1 ...
  frame 'add T2
TxOut("99", 1, "U8Pk", 2.5)'
  # 8: ... and leaves no trace — its risky output is not there: SATISFIED 0
  frame "$Q"
  # 9: a new arrival re-creates the risky output: OK 0 ...
  frame 'add X1
TxOut("99", 1, "U8Pk", 2.5)'
  # 10: ... and the verdict flips back: UNSATISFIED 2
  frame "$Q"
  # 11: a malformed query is an ERROR 1, not a dead server
  frame "check
this is not datalog"
  # 12: stats keeps serving after the error: OK 0
  frame "stats"
  # 13: a NaN timeout would never expire, so it is refused: ERROR 1
  frame "check timeout=nan
q() :- TxOut(t, s, \"U8Pk\", a)."
  # 14: the next check is answered as before: UNSATISFIED 2
  frame "$Q"
  # 15: an infinite timeout would never expire either: ERROR 1
  frame "check timeout=inf
q() :- TxOut(t, s, \"U8Pk\", a)."
  # 16: and the next check is still answered normally: UNSATISFIED 2
  frame "$Q"
  # 17: clean shutdown: OK 0
  frame "quit"
} | "$BCDB" serve --paper 2>&1 )
code=$?

if [ "$code" -ne 0 ]; then
  echo "FAIL: serve session exited $code, want 0"
  printf '%s\n' "$out"
  exit 1
fi

got=$(printf '%s\n' "$out" \
  | grep -a -o 'UNSATISFIED 2\|SATISFIED 0\|UNKNOWN 3\|ERROR 1\|OK 0' \
  | tr '\n' ' ')
want='UNSATISFIED 2 UNKNOWN 3 OK 0 SATISFIED 0 OK 0 SATISFIED 0 ERROR 1 SATISFIED 0 OK 0 UNSATISFIED 2 ERROR 1 OK 0 ERROR 1 UNSATISFIED 2 ERROR 1 UNSATISFIED 2 OK 0 '

if [ "$got" != "$want" ]; then
  echo "FAIL: status sequence mismatch"
  echo "  got:  $got"
  echo "  want: $want"
  printf '%s\n' "$out"
  exit 1
fi
echo "serve status contract OK ($got)"
