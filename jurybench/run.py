#!/usr/bin/env python3
"""Run one workload of the JURY benchmark.

    python3 jurybench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of the repository. Builds jurybench/suite.exe from
source (release profile, into .bench_build/) and runs it. The suite's
standard output passes through; its last line is the JSON result. The
result's metric names and units are checked against BENCHMARK.json
before it is passed on.
"""

import argparse
import json
import os
import subprocess
import sys

BUILD_DIR = ".bench_build"
SUITE = os.path.join(BUILD_DIR, "default", "jurybench", "suite.exe")


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(1)


def expected_metrics(trace):
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    return {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--json", help="also write the suite's full record here")
    args = ap.parse_args()

    for needed in ("dune-project", "lib", os.path.join("jurybench", "dune"), "BENCHMARK.json"):
        if not os.path.exists(needed):
            fail(needed + " not found: run from the root of the repository")

    # dune's own output goes to stderr: stdout carries only the result.
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--profile", "release",
         "--build-dir", os.path.abspath(BUILD_DIR), "./jurybench/suite.exe"],
        stdout=sys.stderr)
    if build.returncode != 0:
        fail("build failed")

    cmd = [SUITE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.json:
        cmd += ["--json", args.json]
    # The traced pass reads GC pauses from the runtime's event ring,
    # a file the runtime creates in this directory.
    env = dict(os.environ, OCAML_RUNTIME_EVENTS_DIR=os.path.abspath(BUILD_DIR))
    run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env)
    if run.returncode != 0:
        sys.stdout.write(run.stdout)
        fail("suite exited with code %d" % run.returncode)

    lines = run.stdout.rstrip("\n").split("\n")
    result = json.loads(lines[-1])
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    want = expected_metrics(args.trace == 1)
    if got != want:
        fail("metrics differ from BENCHMARK.json: %s" %
             sorted(set(got.items()) ^ set(want.items())))
    sys.stdout.write(run.stdout)


if __name__ == "__main__":
    main()
