#!/usr/bin/env python3
"""Build the simulator benchmark from source and run it.

Run from the root of a checkout:

    python3 perfbench/run.py --workload interp --seed 1 --seconds 10 --trace 0

The arguments go to perfbench/main.exe unchanged (see README.md).  The
build runs first and writes only to _build; its output goes to stderr.
Before the result line is printed, its metric names and units are
checked against BENCHMARK.json, so the program and the declaration
cannot drift apart.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "main.exe")


def fail(msg, code):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def declared_metrics(args):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    traced = "--trace" in args and args[args.index("--trace") + 1] == "1"
    key = "per_layer" if traced else "end_to_end"
    return {m["name"]: m["unit"] for m in bench[key]}


def main():
    args = sys.argv[1:]
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ROOT, "./perfbench/main.exe"],
        cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        fail("build failed", 2)
    try:
        run = subprocess.run([EXE] + args, cwd=ROOT, stdout=subprocess.PIPE,
                             text=True, timeout=170)
    except subprocess.TimeoutExpired:
        fail("benchmark timed out", 3)
    lines = run.stdout.rstrip("\n").split("\n")
    if run.returncode != 0:
        print("\n".join(lines), file=sys.stderr)
        fail(f"benchmark exited with {run.returncode}", run.returncode)
    result = json.loads(lines[-1])
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != declared_metrics(args):
        print("\n".join(lines), file=sys.stderr)
        fail("metrics differ from BENCHMARK.json", 4)
    print("\n".join(lines))


if __name__ == "__main__":
    main()
