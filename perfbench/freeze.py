#!/usr/bin/env python3
"""Freeze the oracle: run rounds of the named workloads (all by default) on
inputs that are not relabelled until a round brings no new op, and store
each op's observation in expected.json.

    python3 perfbench/freeze.py [WORKLOAD ...]

Run it only on code whose answers are trusted; the benchmark checks every
op against the stored values.
"""

from __future__ import annotations

import json
import os
import random
import sys

import workloads
from run import OUT_DIR


def freeze(name: str) -> dict:
    state = workloads.WORKLOADS[name](None, os.path.join(OUT_DIR, name))
    rng = random.Random(0)
    answers: dict = {}
    while True:
        before = len(answers)
        for op in state.round(rng):
            seen = json.loads(json.dumps(op.observe(op.run())))
            if answers.setdefault(op.key, seen) != seen:
                raise SystemExit(f"{name}: op {op.key} gave two answers")
        if len(answers) == before:
            return answers


def main(names) -> None:
    try:
        expected = workloads.load_expected()
    except FileNotFoundError:
        expected = {}
    for name in names or sorted(workloads.WORKLOADS):
        expected[name] = freeze(name)
        print(f"{name}: {len(expected[name])} answers", flush=True)
    with open(workloads.EXPECTED_PATH, "w") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main(sys.argv[1:])
