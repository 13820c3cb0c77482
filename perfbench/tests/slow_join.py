"""Child of the sensitivity self-test: slow ``Table.join``, then measure.

Run as ``python3 -m perfbench.tests.slow_join``.  ``src/`` is not
edited: the method is wrapped in this process only.  The busy-wait per
call is calibrated to add ``SLOWDOWN`` of the unmodified step time to
every step, so the expected loss is known before it is measured.
Baseline and slowed runs alternate, so a slow spell of the machine
cannot pass for the injected loss.
"""

import json
from time import perf_counter

from repro.db.algebra import Table

from perfbench import workloads
from perfbench.layers import sync_pass
from perfbench.measure import end_to_end
from perfbench.trace import Recorder, core_metrics

SLOWDOWN = 0.10
SECONDS = 1.5
ROUNDS = 3
LAYERS = (
    "db.apply_us_per_step", "auxiliary.advance_us_per_step",
    "foeval.evaluate_us_per_step",
)


def main() -> None:
    workload = workloads.BY_NAME["steady_small"]
    sized = workload.sized(SECONDS)
    traffic = workloads.generate(workload, sized.steps, 1)
    original = Table.join
    calls = 0

    def waiting(delay: float):
        """``Table.join`` followed by a busy-wait of ``delay`` seconds.

        The unmodified side runs ``waiting(0.0)``, so both sides pay
        for the wrapper and differ by the wait alone.
        """
        def join(self, other):
            nonlocal calls
            calls += 1
            result = original(self, other)
            until = perf_counter() + delay
            while perf_counter() < until:
                pass
            return result

        return join

    def steps_per_s() -> float:
        outcome = workloads.measure(workload, traffic, sized)
        return end_to_end(outcome.timeline)["steps_per_s"]

    def layers() -> dict:
        recorder = Recorder()
        traced = workload.sized(SECONDS, trace=True)
        _, evaluations, _ = sync_pass(
            workload.kind, traffic.stream[:traced.steps], traced, recorder
        )
        metrics = core_metrics(recorder.spans, evaluations)
        return {name: metrics[name] for name in LAYERS}

    Table.join = baseline = waiting(0.0)
    step_s = 1.0 / steps_per_s()
    joins_per_step = calls / sized.steps
    slowed = waiting(SLOWDOWN * step_s / joins_per_step)

    rates = {"baseline": [], "slowed": []}
    for _ in range(ROUNDS):
        for name, join in (("baseline", baseline), ("slowed", slowed)):
            Table.join = join
            rates[name].append(steps_per_s())
    out = {
        "injected_us_per_step": 1e6 * SLOWDOWN * step_s,
        "joins_per_step": joins_per_step,
    }
    for name, join in (("baseline", baseline), ("slowed", slowed)):
        Table.join = join
        out[name] = dict(layers(), steps_per_s=rates[name])
    Table.join = original
    print(json.dumps(out))


if __name__ == "__main__":
    main()
