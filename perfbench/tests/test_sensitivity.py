"""A 10 % slowdown injected into ``Table.join`` must be seen and placed.

The regression bounds are as wide as the box's slow spells force them
to be, so a 10 % loss does not leave them; what a gain or a loss is
judged by is alternating runs of the two trees, and this test shows
that those resolve 10 %.
"""

import json
import subprocess
import sys
from statistics import median

from perfbench import ROOT


def test_injected_join_slowdown_is_resolved_and_lands_in_its_layers():
    done = subprocess.run(
        [sys.executable, "-m", "perfbench.tests.slow_join"], cwd=ROOT,
        check=True, stdout=subprocess.PIPE, text=True, timeout=300,
    )
    result = json.loads(done.stdout.rstrip("\n").rsplit("\n", 1)[-1])
    baseline, slowed = result["baseline"], result["slowed"]
    injected = result["injected_us_per_step"]

    # end to end: every slowed run reads worse than every unmodified
    # one, and by about what was injected (1 / 1.1 of the rate)
    assert max(slowed["steps_per_s"]) < min(baseline["steps_per_s"])
    ratio = median(slowed["steps_per_s"]) / median(baseline["steps_per_s"])
    assert 0.86 < ratio < 0.95

    # per layer: joins run in auxiliary advance and in FO evaluation,
    # never in apply, and that is where the trace puts the loss
    def grew(name: str) -> float:
        return slowed[name] - baseline[name]

    joined = grew("auxiliary.advance_us_per_step") + grew(
        "foeval.evaluate_us_per_step"
    )
    assert joined > 0.7 * injected
    assert abs(grew("db.apply_us_per_step")) < 0.3 * injected
