#!/bin/sh
# Transcript contract of bcdb-shell: one scripted session over the
# paper's example — check, issue (a fresh, a duplicate and an
# unlabelled one), contradict, commit (accepted, refused as not
# includable, refused as unknown), show, maximal, dryrun, answers,
# complexity, a save/load round trip and two bad `gen`s — diffed against
# bin/shell_contract.expected with the times of `check` stripped. The
# save/load round trip must also write the same bytes twice. Used by
# `make test-serve` and CI.
set -u

cd "$(dirname "$0")/.."

SHELL_BIN=_build/default/bin/bcdb_shell.exe
EXPECTED=bin/shell_contract.expected
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

Q='q() :- TxOut(t, s, "U8Pk", a).'

"$SHELL_BIN" > "$tmp/raw" 2>&1 <<EOF
show
paper
show
check $Q
maximal
complexity $Q
answers pk | q() :- TxOut(t, s, pk, a), TxIn(t, s, pk2, a2, n, g).
dryrun q() :- TxOut(t, s, "U10Pk", a). | TxOut("10", 1, "U10Pk", 1.0)
dryrun q() :- TxOut(t, s, "U11Pk", a). | TxOut("11", 1, "U12Pk", 1.0)
issue T9 | TxOut("9", 1, "U8Pk", 2.0)
issue T9 | TxOut("9", 2, "U9Pk", 2.0)
issue | TxOut("9", 3, "U9Pk", 2.0); TxOut("9", 4, "U9Pk; x", 1.0)
issue T10 | Nope(1)
show
contradict T1
contradict T1
contradict nope
commit T1
commit T5
commit nope
commit 99
show
check $Q
maximal
save $tmp/a.bcdb
load $tmp/a.bcdb
show
check $Q
save $tmp/b.bcdb
worlds
gen huge
gen small 5x
nonsense
quit
EOF
code=$?

if [ "$code" -ne 0 ]; then
  echo "FAIL: bcdb-shell exited $code, want 0"
  cat "$tmp/raw"
  exit 1
fi

if ! cmp -s "$tmp/a.bcdb" "$tmp/b.bcdb"; then
  echo "FAIL: save after load wrote different bytes"
  diff "$tmp/a.bcdb" "$tmp/b.bcdb"
  exit 1
fi

sed -E 's/, [0-9]+\.[0-9]+s\)/, -s)/' "$tmp/raw" > "$tmp/got"

if ! diff -u "$EXPECTED" "$tmp/got"; then
  echo "FAIL: bcdb-shell transcript differs from $EXPECTED"
  exit 1
fi
echo "shell transcript contract OK ($(wc -l < "$tmp/got") lines)"
