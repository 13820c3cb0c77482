"""Child entry point that times one cold set-up of a workload.

Run as ``python3 -m perfbench.setup_probe KIND``.  The clock starts
before ``repro`` is imported and stops at the first ready-to-step
moment: constraints parsed, normalised, safety-checked and linted, the
engine built, and — depending on the workload — the initial checkpoint
written or both worker processes spawned and ready.  A fresh
interpreter per sample is what makes the import part of the sample.
"""

from time import perf_counter

START = perf_counter()

import shutil  # noqa: E402
import sys  # noqa: E402


def main(kind: str) -> None:
    from perfbench.workloads import scratch_dir, set_up, tear_down

    scratch = scratch_dir()
    try:
        system = set_up(kind, scratch)
        elapsed = perf_counter() - START
        tear_down(system)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(repr(elapsed))


if __name__ == "__main__":
    main(sys.argv[1])
