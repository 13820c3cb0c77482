"""The traffic model: deterministic, seed-sensitive, statistically steady."""

import os
import subprocess
import sys

import pytest

from perfbench import ROOT, loadgen
from perfbench.workloads import build_monitor
from repro.core.parser import parse
from repro.workloads import sensors

DIGEST_SCRIPT = """
from perfbench import loadgen, workloads
traffic = workloads.generate(workloads.BY_NAME["ingest_disorder"], 400, 7)
print(loadgen.stream_digest(traffic.stream))
print(loadgen.stream_digest([(t, x) for t, x, _ in traffic.plan.arrivals]))
print(loadgen.stream_digest(loadgen.fleet(loadgen.SHAPE_C, 120, 7)))
"""


def digests_under(hash_seed: str) -> str:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    return subprocess.run(
        [sys.executable, "-c", DIGEST_SCRIPT], cwd=ROOT, env=env,
        check=True, stdout=subprocess.PIPE, text=True, timeout=120,
    ).stdout


def test_same_seed_same_bytes_whatever_the_hash_seed():
    first = digests_under("1")
    assert first == digests_under("2")
    assert len(set(first.split())) == 3


def violating_share(stream) -> float:
    monitor = build_monitor()
    return sum(not monitor.step(t, txn).ok for t, txn in stream) / len(stream)


def test_other_seed_other_stream_same_statistics():
    one = loadgen.fleet(loadgen.SHAPE_C, 1500, 11)
    two = loadgen.fleet(loadgen.SHAPE_C, 1500, 12)
    assert loadgen.stream_digest(one) != loadgen.stream_digest(two)
    stats = [loadgen.traffic_stats(s) for s in (one, two)]
    for key in ("state_rows_mean", "delta_rows_per_step"):
        assert stats[0][key] == pytest.approx(stats[1][key], rel=0.10)
    assert violating_share(one) == pytest.approx(
        violating_share(two), rel=0.10
    )


def test_a_shorter_stream_is_a_prefix():
    assert (
        loadgen.fleet(loadgen.SHAPE_A, 50, 3)
        == loadgen.fleet(loadgen.SHAPE_A, 200, 3)[:50]
    )


@pytest.mark.parametrize(
    "shape, state, delta",
    [(loadgen.SHAPE_A, 12, 4.6), (loadgen.SHAPE_B, 540, 5.4),
     (loadgen.SHAPE_C, 71, 53)],
)
def test_shapes_hold_state_and_delta_where_the_workloads_need_them(
    shape, state, delta
):
    stats = loadgen.traffic_stats(loadgen.fleet(shape, 1200, 5))
    assert stats["state_rows_mean"] == pytest.approx(state, rel=0.10)
    assert stats["delta_rows_per_step"] == pytest.approx(delta, rel=0.10)


def test_constraints_are_the_sensor_workload_s():
    theirs = sensors.constraints(
        loadgen.JUSTIFY_WINDOW, loadgen.SUSTAIN_FOR, loadgen.COOLDOWN
    )
    assert [
        (name, str(parse(text))) for name, text in loadgen.CONSTRAINTS
    ] == [(c.name, str(c.formula)) for c in theirs]


@pytest.mark.parametrize("shape", [loadgen.SHAPE_A, loadgen.SHAPE_C])
def test_only_spurious_alarms_violate(shape, monkeypatch):
    monkeypatch.setattr(loadgen, "SPURIOUS_RATE", 0.0)
    assert violating_share(loadgen.fleet(shape, 1500, 9)) == 0.0
