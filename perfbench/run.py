#!/usr/bin/env python3
"""Run one workload of the repository benchmark and print its result.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload serve-read --seed 1 --seconds 40 --trace 0

Builds the `bcdb` binary and the benchmark program (perfbench/bench.ml)
from source with dune, runs it, and passes its result through: the
last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`. Progress and the host record go to
standard error. Exits non-zero, printing no result, when the program
cannot be built or the run is not a valid measurement.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

WORKLOADS = ("serve-read", "serve-churn", "batch-solve")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
# Sources the benchmark needs besides its own directory.
REQUIRED = ("dune-project", "bin/bcdb_cli.ml", "lib/core/live.ml", "lib/workload/generator.ml")


def fail(msg):
    print(f"[perfbench] {msg}", file=sys.stderr)
    sys.exit(2)


def run_group(cmd, timeout, **kw):
    """Run cmd in its own process group; kill the whole group on timeout."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kw)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"{cmd[0]} timed out after {timeout} s")
    return proc.returncode, out


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    missing = [f for f in REQUIRED if not os.path.isfile(f)]
    if missing:
        fail("run from the root of a bcdb checkout; missing " + ", ".join(missing))

    env = dict(os.environ, DUNE_CACHE="disabled")
    code, _ = run_group(
        ["dune", "build", "--root", ".", "--cache=disabled", "--display=quiet",
         "bin/bcdb_cli.exe", "perfbench/bench.exe"],
        BUILD_TIMEOUT_S, env=env, stdout=sys.stderr)
    if code != 0:
        fail(f"build failed (exit {code})")

    code, out = run_group(
        ["_build/default/perfbench/bench.exe",
         "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--bcdb", "_build/default/bin/bcdb_cli.exe", "--out", "_perfbench"],
        RUN_TIMEOUT_S, env=env, stdout=subprocess.PIPE, text=True)
    lines = out.strip().splitlines()
    if code != 0 or not lines:
        fail(f"benchmark program failed (exit {code})")
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("malformed result line")
    check_declared(result["metrics"], args.trace)
    print(lines[-1], flush=True)


def check_declared(metrics, trace):
    """The metrics must be exactly those BENCHMARK.json declares, units included."""
    if not os.path.isfile("BENCHMARK.json"):
        return
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in metrics.items()}
    if got != declared:
        fail("metrics differ from BENCHMARK.json: "
             f"missing {sorted(set(declared) - set(got))}, "
             f"undeclared {sorted(set(got) - set(declared))}, "
             f"unit mismatches {sorted(n for n in got if n in declared and got[n] != declared[n])}")


if __name__ == "__main__":
    sys.dont_write_bytecode = True
    main()
