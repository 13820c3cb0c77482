"""BENCHMARK.json against the driver's contract and against the code."""

import json
import re

from perfbench import ROOT
from perfbench.__main__ import DEFAULT_SEED, spread
from perfbench.workloads import RUN_SECONDS, WORKLOADS

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")


def load(name: str) -> dict:
    with open(ROOT / name) as fh:
        return json.load(fh)


def test_benchmark_json_has_exactly_the_contract_s_shape():
    spec = load("BENCHMARK.json")
    assert set(spec) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end",
        "per_layer",
    }
    assert spec["paths"] == ["perfbench"]
    assert spec["command"] == ["python3", "-m", "perfbench"]
    assert spec["run_seconds"] == RUN_SECONDS
    assert 2 <= len(spec["workloads"]) <= 8
    names = []
    for workload in spec["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
        names.append(workload["name"])
    for metric in spec["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 <= metric["bound"] <= 0.25
    for metric in spec["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    metrics = spec["end_to_end"] + spec["per_layer"]
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    for metric in metrics:
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
        names.append(metric["name"])
    assert all(NAME.match(n) for n in names)
    assert len(set(names)) == len(names)
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{
        "name": "setup_s", "unit": "s", "better": "lower",
        "bound": max(m["bound"] for m in spec["end_to_end"]),
    }]
    # runs, with their set-up and checks, must fit the driver's window
    assert (4 + 22 * len(spec["workloads"])) * 2.5 * RUN_SECONDS < 3420


def test_workloads_and_reasons_come_from_the_code():
    assert load("BENCHMARK.json")["workloads"] == [
        {"name": w.name, "why": w.why} for w in WORKLOADS
    ]


def test_every_workload_has_a_pinned_digest_for_the_default_run():
    pinned = load("perfbench/pinned.json")
    assert (pinned["seed"], pinned["seconds"]) == (DEFAULT_SEED, RUN_SECONDS)
    assert set(pinned["digests"]) == {w.name for w in WORKLOADS}


def test_spread_is_quartile_distance_over_median():
    assert spread([10.0, 11.0]) == 1.0 / 10.5
    values = [100, 101, 102, 103, 104, 105, 106, 107, 108, 150]
    assert 0.04 < spread(values) < 0.07  # the outlier does not count
