"""``--scale 0.05``: every workload, its check and its traced pass."""

import json
import subprocess
import sys
from collections import defaultdict
from time import perf_counter

import pytest

from perfbench import OUT, ROOT
from perfbench.trace import ROOT_SPAN, read_trace, self_times
from perfbench.workloads import WORKLOADS

SHELL = {
    "ingest_disorder": ("reorder.", "queue.", "ingest.", "db.storage"),
    "durable_journal": ("persist.", "store."),
    "sharded_2proc": ("shard.",),
    "steady_small": ("obs.telemetry", "obs.statewatch"),
}


@pytest.fixture(scope="module")
def smoke():
    started = perf_counter()
    done = subprocess.run(
        [sys.executable, "-m", "perfbench", "--scale", "0.05"], cwd=ROOT,
        stdout=subprocess.PIPE, text=True, timeout=300,
    )
    elapsed = perf_counter() - started
    assert done.returncode == 0, done.stdout
    result = json.loads(done.stdout.rstrip("\n").rsplit("\n", 1)[-1])
    return result, done.stdout, elapsed


def test_every_workload_is_correct_within_a_minute(smoke):
    result, _, elapsed = smoke
    assert result["correct"]
    assert set(result["table"]) == {w.name for w in WORKLOADS}
    assert elapsed < 60


def test_every_metric_is_printed_by_name_with_unit_and_samples(smoke):
    result, text, _ = smoke
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    for row in result["table"].values():
        for metric in spec["end_to_end"]:
            assert row[metric["name"]] > 0
        assert set(row) == {
            m["name"] for m in spec["end_to_end"] + spec["per_layer"]
        }
    for metric in spec["end_to_end"]:
        assert f"  {metric['name']} " in text
    assert " n=" in text and "loadgen_s" in text and "digest" in text


def test_a_layer_reads_zero_exactly_off_its_path(smoke):
    table = smoke[0]["table"]
    shell = tuple(p for prefixes in SHELL.values() for p in prefixes)
    for name, row in table.items():
        for metric, value in row.items():
            if not metric.startswith(shell):
                continue
            on_path = metric.startswith(SHELL.get(name, ()))
            if metric in ("reorder.duplicates", "shard.replayed_steps"):
                continue  # a count that may well be 0 on its own path
            assert (value != 0) == on_path, (name, metric, value)


def test_layer_shares_and_the_state_size_gap(smoke):
    table = smoke[0]["table"]
    small, large = table["steady_small"], table["steady_large"]
    # on the large state auxiliary advance is most of the step
    assert large["auxiliary.advance_share"] > 0.5 > (
        large["foeval.evaluate_share"] + large["db.apply_share"]
    )
    assert large["foeval.evaluate_share"] > large["db.apply_share"]
    assert small["foeval.evaluate_share"] >= 0.25
    # the same delta on a larger state is slower: the O(state) gap
    assert abs(
        small["db.delta_rows_per_step"] - large["db.delta_rows_per_step"]
    ) <= 2
    assert large["db.state_rows_mean"] > 20 * small["db.state_rows_mean"]
    assert large["steps_per_s"] < small["steps_per_s"] / 3
    assert (
        large["verdict_latency_us_p50"] > 3 * small["verdict_latency_us_p50"]
    )
    for row in table.values():
        assert 0.5 < row["obs.hook_overhead_ratio"] < 5


@pytest.mark.parametrize("workload", [w.name for w in WORKLOADS])
def test_trace_is_consistent(smoke, workload):
    records = read_trace(OUT / f"trace-{workload}.jsonl")
    by_id = {r["id"]: r for r in records}
    own = self_times(records)
    children = defaultdict(list)
    for record in records:
        assert record["end_us"] >= record["start_us"]
        parent = record["parent"]
        if parent is not None:
            children[parent].append(record)
            if by_id[parent]["name"] != "ingest.replay":
                assert record["step"] == by_id[parent]["step"]
    roots = [
        r for r in records if r["name"] == ROOT_SPAN and r["id"] in children
    ]
    assert roots
    assert len({r["step"] for r in roots}) == len(roots)
    for root in roots:
        family, frontier = [root], [root]
        while frontier:
            frontier = [c for r in frontier for c in children[r["id"]]]
            family.extend(frontier)
        total = sum(own[r["id"]] for r in family)
        duration = root["end_us"] - root["start_us"]
        assert total == pytest.approx(duration, rel=0.05)
        # no stage claims more time than the call that contains it
        assert all(own[r["id"]] >= -0.05 * duration for r in family)


def test_agree_compares_every_metric_with_its_bound_and_records_noise():
    done = subprocess.run(
        [sys.executable, "-m", "perfbench", "--agree", "2", "--scale", "0.05"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=300,
    )
    # at this length noise decides between 0 and 1; anything else is a crash
    assert done.returncode in (0, 1), done.stdout
    with open(ROOT / "BENCHMARK.json") as fh:
        bounded = {m["name"] for m in json.load(fh)["end_to_end"]}
    with open(OUT / "noise.json") as fh:
        noise = json.load(fh)
    assert noise["sets"] == 2
    assert set(noise["spread"]) == {w.name for w in WORKLOADS}
    for row in noise["spread"].values():
        assert set(row) == bounded
    assert done.stdout.count(" bound ") == len(WORKLOADS) * len(bounded)
