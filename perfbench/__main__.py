"""``python3 -m perfbench``: run the benchmark.

With ``--workload`` it is the driver's contract: one run of one
workload, ending in one JSON line.  Without, it runs all six workloads
— each in a fresh child interpreter, untraced then traced — and prints
every metric by name; ``--agree N`` repeats that N times and compares
the spread of every end-to-end metric with its bound.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from statistics import median, quantiles
from time import perf_counter

from perfbench import OUT, ROOT, SRC

DEFAULT_SEED = 1992
#: cold set-ups timed per run; ``setup_s`` is the quickest
SETUP_SAMPLES = 5


def benchmark_json() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def pinned_digests() -> dict:
    with open(ROOT / "perfbench" / "pinned.json") as fh:
        return json.load(fh)


def child(*args: str, accept=(0,)) -> str:
    """Run a perfbench module in a fresh interpreter; return its stdout."""
    done = subprocess.run(
        [sys.executable, "-m", *args], cwd=ROOT, stdout=subprocess.PIPE,
        text=True, timeout=900,
    )
    if done.returncode not in accept:
        raise SystemExit(f"perfbench: {' '.join(args)} exited "
                         f"{done.returncode}")
    return done.stdout


def setup_seconds(kind: str) -> float:
    """Cold set-up time: the quickest of a few fresh interpreters.

    Like every timing here it is the undisturbed value: on unchanged
    code the median of five moved between 0.09 and 0.23 s.
    """
    return min(
        float(child("perfbench.setup_probe", kind))
        for _ in range(SETUP_SAMPLES)
    )


def run_one(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """One run of one workload; prints as it goes, returns the result."""
    from perfbench import check, workloads
    from perfbench.loadgen import traffic_stats
    from perfbench.measure import end_to_end, tail_latency_us

    spec = benchmark_json()
    workload = workloads.BY_NAME[name]
    sized = workload.sized(seconds, trace)
    traffic = workloads.generate(workload, sized.steps, seed)
    stats = traffic_stats(traffic.stream)
    print(f"workload {name}: seed {seed}, {sized.steps} steps "
          f"({sized.warmup} warm-up), shape {tuple(workload.shape)}")
    print(f"  traffic: state {stats['state_rows_mean']:.1f} rows, delta "
          f"{stats['delta_rows_per_step']:.2f} rows/step; "
          f"loadgen_s {traffic.loadgen_s:.3f} (outside every metric)")

    reference, bare = [], None
    if not workload.oracle_steps:
        reference, bare = workloads.bare_run(traffic.stream, sized)
    if not trace:
        setup_s = setup_seconds(workload.kind)
    outcome = workloads.measure(workload, traffic, sized)
    if trace:
        from perfbench.layers import traced_run

        metrics = traced_run(workload, traffic, sized, outcome, bare)
        wanted = spec["per_layer"]
    else:
        metrics = {"setup_s": setup_s}
        metrics.update(end_to_end(outcome.timeline))
        wanted = spec["end_to_end"]

    pinned = pinned_digests()
    pinned_run = (seed, seconds, trace) == (
        pinned["seed"], pinned["seconds"], False
    )
    verdict = check.check(
        workload, traffic.stream, outcome, reference,
        pinned["digests"][name] if pinned_run else None,
    )
    violating = sum(not r.ok for r in outcome.reports) / len(outcome.reports)
    print(f"  verdicts: {len(outcome.reports)}, violating-step share "
          f"{violating:.4f}, digest {verdict.digest}")
    samples = outcome.timeline.measured
    out = {}
    for metric in wanted:
        # a layer off this workload's path reads 0
        value = metrics.get(metric["name"], 0) if trace else (
            metrics[metric["name"]]
        )
        out[metric["name"]] = {"value": value, "unit": metric["unit"]}
        print(f"  {metric['name']:40s} {value:14.4f} {metric['unit']:8s}"
              + ("" if trace else f" n={samples}"))
    if not trace:
        print(f"  verdict_latency_us_p99 {tail_latency_us(outcome.timeline):31.4f}"
              f" us       n={samples} (pooled; recorded, not bounded)")
    for problem in verdict.problems:
        print(f"  FAILED {problem}")
    print(f"  correctness: {'ok' if verdict.correct else 'FAILED'} "
          f"({verdict.failed} of {verdict.attempted} steps failed)")
    return {
        "correct": verdict.correct,
        "attempted": verdict.attempted,
        "failed": verdict.failed,
        "metrics": out,
    }


def run_child(name: str, seed: int, seconds: float, trace: int) -> dict:
    """``run_one`` in a fresh interpreter; echoes its report."""
    text = child(
        "perfbench", "--workload", name, "--seed", str(seed),
        "--seconds", repr(seconds), "--trace", str(trace),
        accept=(0, 1),  # 1: it ran, and its correctness check failed
    )
    *report, last = text.rstrip("\n").split("\n")
    print("\n".join(report))
    return json.loads(last)


def run_all(seed: int, seconds: float, trace: bool = True) -> dict:
    """Every workload, sequentially; ``{workload: {metric: value}}``."""
    from perfbench.workloads import WORKLOADS

    table, correct = {}, True
    for workload in WORKLOADS:
        row = {}
        for traced in (0, 1) if trace else (0,):
            result = run_child(workload.name, seed, seconds, traced)
            correct &= result["correct"]
            row.update(
                (k, v["value"]) for k, v in result["metrics"].items()
            )
        table[workload.name] = row
    return {"correct": correct, "table": table}


def spread(values: list) -> float:
    """Quartile distance over the median (range, below four values)."""
    if len(values) < 4:
        return (max(values) - min(values)) / median(values)
    q1, _, q3 = quantiles(values, n=4)
    return (q3 - q1) / median(values)


def agree(sets: int, seed: int, seconds: float) -> bool:
    """Run ``sets`` untraced sets, each with its own seed; compare.

    Seeds differ on purpose: that is how the benchmark is accepted, and
    it is the harder test — traffic varies as well as the machine.
    """
    bounds = {m["name"]: m["bound"] for m in benchmark_json()["end_to_end"]}
    runs = [run_all(seed + i, seconds, trace=False) for i in range(sets)]
    ok = all(run["correct"] for run in runs)
    noise = {}
    print(f"\nagreement over {sets} set(s), seeds {seed}..{seed + sets - 1}")
    for name in runs[0]["table"]:
        noise[name] = {}
        for metric, bound in bounds.items():
            values = [run["table"][name][metric] for run in runs]
            share = spread(values)
            noise[name][metric] = round(share, 4)
            # set-up time is held to its bound by its medians, not its
            # spread: it is the one metric a cold cache moves
            within = share <= bound or metric == "setup_s"
            ok &= within
            print(f"  {name:16s} {metric:24s} median "
                  f"{median(values):12.3f} spread {share:7.4f} "
                  f"bound {bound:5.2f} {'ok' if within else 'DISAGREES'}")
    OUT.mkdir(parents=True, exist_ok=True)
    with open(OUT / "noise.json", "w") as fh:
        json.dump({"sets": sets, "seed": seed, "seconds": seconds,
                   "spread": noise}, fh, indent=2)
    return ok


def main(argv=None) -> int:
    from perfbench.workloads import BY_NAME, RUN_SECONDS

    parser = argparse.ArgumentParser(prog="python3 -m perfbench")
    parser.add_argument("--workload", choices=sorted(BY_NAME))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS,
                        help="how long a run measures (sets the step count)")
    parser.add_argument("--scale", type=float,
                        help="--seconds as a share of the default run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--agree", type=int, metavar="N")
    args = parser.parse_args(argv)
    if args.scale is not None:
        args.seconds = args.scale * RUN_SECONDS
    if args.workload:
        started = perf_counter()
        result = run_one(args.workload, args.seed, args.seconds,
                         bool(args.trace))
        print(f"  run took {perf_counter() - started:.1f} s")
        print(json.dumps(result))
        return 0 if result["correct"] else 1
    if args.agree:
        return 0 if agree(args.agree, args.seed, args.seconds) else 1
    everything = run_all(args.seed, args.seconds)
    print("all workloads correct" if everything["correct"]
          else "FAILED: see above")
    print(json.dumps(everything))
    return 0 if everything["correct"] else 1


if __name__ == "__main__":
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program to measure: {SRC}/repro is missing")
    sys.exit(main())
