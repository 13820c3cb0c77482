#!/usr/bin/env python3
"""Alternating parent/change runs of one perfbench workload, as one JSON.

    python3 tools/pair_bench.py <parent-rev> --workload W --pairs N
        [--seed S] [--scale X] [--out FILE]

The parent revision and the *staged* tree (``git add`` first) are each
materialised with ``git archive`` into a temporary directory, so neither
has a ``__pycache__`` and ``setup_s`` compares like with like.  Each pair
runs ``python3 -m perfbench --workload W --trace 0`` once per tree, the
order alternating from pair to pair.  The artifact lists every run and,
per end-to-end metric of ``BENCHMARK.json``, both medians, the parent's
quartile distance, the pairs the change won, and the verdict of the
pairing rule: *gain* (or *loss*) when one side is ahead in at least nine
tenths of the pairs, ties counting for neither, and the medians are
further apart than the parent's quartile distance; *unresolved*
otherwise, and *too few pairs* under ten.  Exit status 1 when a run
failed its correctness check or the two trees' verdict digests differ.

This calls perfbench; it does not edit it.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path
from statistics import median, quantiles

ROOT = Path(__file__).resolve().parent.parent
#: pairs below which the rule gives no verdict
MIN_PAIRS = 10


def git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, check=True, stdout=subprocess.PIPE, text=True
    ).stdout.strip()


def materialise(treeish: str, target: Path) -> None:
    """``git archive`` of ``treeish``, unpacked under ``target``."""
    target.mkdir()
    archive = subprocess.run(
        ["git", "archive", treeish], cwd=ROOT, check=True,
        stdout=subprocess.PIPE,
    ).stdout
    subprocess.run(["tar", "-x", "-C", str(target)], input=archive, check=True)


def one_run(tree: Path, workload: str, seed: int, scale: float) -> dict:
    """One untraced run in ``tree``: its metrics, digest and check."""
    done = subprocess.run(
        [sys.executable, "-m", "perfbench", "--workload", workload,
         "--seed", str(seed), "--scale", repr(scale), "--trace", "0"],
        cwd=tree, stdout=subprocess.PIPE, text=True,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"},
    )
    if done.returncode not in (0, 1):  # 1: ran, correctness check failed
        raise SystemExit(f"pair_bench: perfbench exited {done.returncode} in {tree}")
    result = json.loads(done.stdout.rstrip("\n").rsplit("\n", 1)[-1])
    digest = re.search(r"digest ([0-9a-f]+)", done.stdout)
    return {
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
        "digest": digest.group(1) if digest else None,
        "failed": result["failed"],
    }


def quartile_distance(values: list) -> float:
    if len(values) < 4:
        return max(values) - min(values)
    q1, _, q3 = quantiles(values, n=4)
    return q3 - q1


def judge(metric: dict, parent: list, change: list) -> dict:
    """The pairing rule for one metric over the pairs run."""
    higher = metric["better"] == "higher"
    ahead = sum((c > p) if higher else (c < p) for p, c in zip(parent, change))
    behind = sum((c < p) if higher else (c > p) for p, c in zip(parent, change))
    distance = quartile_distance(parent)
    apart = abs(median(change) - median(parent)) > distance
    verdict = "unresolved"
    if len(parent) < MIN_PAIRS:
        verdict = "too few pairs"
    elif apart and ahead >= 0.9 * len(parent):
        verdict = "gain"
    elif apart and behind >= 0.9 * len(parent):
        verdict = "loss"
    return {
        "unit": metric["unit"], "better": metric["better"],
        "parent_median": median(parent), "change_median": median(change),
        "ratio": median(change) / median(parent) if median(parent) else None,
        "parent_quartile_distance": distance,
        "change_ahead": ahead, "change_behind": behind, "pairs": len(parent),
        "verdict": verdict,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="revision to compare the staged tree with")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed", type=int, default=1992)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--out", type=Path, help="write the JSON here too")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parent_rev, staged = git("rev-parse", args.parent), git("write-tree")
    runs = []
    with tempfile.TemporaryDirectory(prefix="pair-bench-") as scratch:
        trees = {"parent": Path(scratch, "parent"), "change": Path(scratch, "change")}
        materialise(parent_rev, trees["parent"])
        materialise(staged, trees["change"])
        for pair in range(args.pairs):
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for side in order:
                run = one_run(trees[side], args.workload, args.seed, args.scale)
                runs.append({"pair": pair, "side": side, **run})
                print(f"pair {pair} {side:6s} " + " ".join(
                    f"{k}={v:.4g}" for k, v in run["metrics"].items()
                ), flush=True)

    sides = {
        side: [run for run in runs if run["side"] == side]
        for side in ("parent", "change")
    }
    report = {
        "parent": parent_rev, "change_tree": staged,
        "workload": args.workload, "seed": args.seed, "scale": args.scale,
        "pairs": args.pairs,
        "metrics": {
            metric["name"]: judge(
                metric,
                [run["metrics"][metric["name"]] for run in sides["parent"]],
                [run["metrics"][metric["name"]] for run in sides["change"]],
            )
            for metric in spec["end_to_end"]
        },
        "digests_equal": len({run["digest"] for run in runs}) == 1,
        "failed": sum(run["failed"] for run in runs),
        "runs": runs,
    }
    for name, row in report["metrics"].items():
        print(f"{name:24s} {row['parent_median']:12.4f} -> "
              f"{row['change_median']:12.4f} {row['unit']:4s} "
              f"(parent IQR {row['parent_quartile_distance']:.4f}, change ahead "
              f"{row['change_ahead']}/{row['pairs']}): {row['verdict']}")
    print(f"digests equal: {report['digests_equal']}, failed: {report['failed']}")
    text = json.dumps(report, indent=2)
    if args.out:
        args.out.write_text(text + "\n")
    else:
        print(text)
    return 0 if report["digests_equal"] and not report["failed"] else 1


if __name__ == "__main__":
    sys.exit(main())
