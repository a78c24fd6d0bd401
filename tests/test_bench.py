"""The benchmark harness in bench/ reaches into the package by name (CLI
functions, system fields, layer methods); this runs it end to end so that a
renamed or removed target shows up as a failure here."""

import ast
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# hooks whose targets the package no longer has: the damped Newton routine
# and the separate complementarity transform
DEAD_HOOKS = {"grsaa.tracer.damped_newton", "grsaa.homotopy.transform"}
# the one layer those hooks leave without a span; every other layer, saa and
# homotopy included, must still be reached through its public methods
DEAD_LAYERS = {"newton"}


def test_bench_runs_against_the_package():
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sin-small", "--seed", "0",
         "--seconds", "0.5", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    last = json.loads(lines[-1])
    assert last["correct"] is True and last["failed"] == 0, lines[-1]
    missing = [ast.literal_eval(line.split("missing hooks: ", 1)[1])
               for line in lines if "missing hooks: " in line]
    assert all(set(m) <= DEAD_HOOKS for m in missing), missing
    # "absent layers (reported as 0): [...]; missing hooks: [...]"
    absent = [ast.literal_eval(line.split(": ", 1)[1].split("; missing hooks", 1)[0])
              for line in lines if line.startswith("absent layers ")]
    assert all(set(a) <= DEAD_LAYERS for a in absent), absent
