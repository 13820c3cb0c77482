#!/usr/bin/env python3
"""Cold start to the first verdict, per workload kind, next to ``setup_s``.

    python3 tools/first_verdict.py [--tree DIR] [--runs N] [--json]

``setup_s`` (``python3 -m perfbench.setup_probe``) stops at the first
ready-to-step moment, so an import that a workload needs only once it
steps — ``repro.ingest`` at ``Monitor.feed`` — is outside it.  This tool
keeps the clock running until the first verdict exists: one fresh
interpreter per sample in ``DIR`` (default: this checkout; any tree with
a ``perfbench/``, e.g. an archive of the parent commit), the workload
set up as perfbench sets it up, forty steps of its traffic generated
(that time is taken out), and the first of them checked.  It prints the
median of ``N`` samples of both numbers per kind.

This calls perfbench; it does not edit it.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parent.parent
KINDS = ("direct", "ingest", "durable", "sharded")

CHILD = """\
from time import perf_counter
START = perf_counter()
import json, shutil, sys
from perfbench.workloads import (
    WATERMARK, WORKLOADS, generate, scratch_dir, set_up, tear_down,
)

kind = sys.argv[1]
workload = next(w for w in WORKLOADS if w.kind == kind)
scratch = scratch_dir()
try:
    system = set_up(kind, scratch)
    ready = perf_counter()
    traffic = generate(workload, 40, 1992)
    resumed = perf_counter()
    if kind == "ingest":
        from repro.ingest.sources import Source

        class Stamping(Source):
            name = "first-verdict"
            multiplexed = True
            first = None

            def __init__(self, arrivals):
                self.arrivals = iter(arrivals)

            def poll(self):
                if self.first is None and system.checker.steps_processed:
                    Stamping.first = perf_counter()
                return next(self.arrivals, None)

        system.feed([Stamping(traffic.plan.arrivals)], watermark=WATERMARK,
                    skew=traffic.plan.skews)
        verdict = Stamping.first
    else:
        system.step(*traffic.stream[0])
        verdict = perf_counter()
    tear_down(system)
finally:
    shutil.rmtree(scratch, ignore_errors=True)
print(json.dumps({"setup_s": ready - START,
                  "first_verdict_s": (ready - START) + (verdict - resumed)}))
"""


def sample(tree: Path, kind: str) -> dict:
    done = subprocess.run(
        [sys.executable, "-c", CHILD, kind], cwd=tree, check=True,
        stdout=subprocess.PIPE, text=True,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"},
    )
    return json.loads(done.stdout.rstrip("\n").rsplit("\n", 1)[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tree", type=Path, default=ROOT)
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--json", action="store_true")
    args = parser.parse_args(argv)
    result = {}
    for kind in KINDS:
        samples = [sample(args.tree, kind) for _ in range(args.runs)]
        result[kind] = {
            name: round(median(s[name] for s in samples), 4)
            for name in ("setup_s", "first_verdict_s")
        }
    if args.json:
        print(json.dumps({"tree": str(args.tree), "runs": args.runs,
                          "kinds": result}, indent=2))
        return 0
    print(f"{args.tree} (median of {args.runs})")
    for kind, row in result.items():
        print(f"  {kind:8s} setup_s {row['setup_s']:.4f}   "
              f"first verdict {row['first_verdict_s']:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
